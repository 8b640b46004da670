"""Walk through a full analysis of the bundled fixture corpus.

Each file in tests/fixtures/corpus was written to exhibit exactly one design
smell, so the output below reads as a catalogue: one finding per file, except
the dependency cycle, which reports both of its members.

Run from the repository root:

    python demos/analyze_corpus.py
"""

from pathlib import Path

from javasmell.metrics import CSV_COLUMNS
from javasmell.pipeline import analyze_tree

corpus = Path(__file__).resolve().parent.parent / "tests" / "fixtures" / "corpus"

result = analyze_tree(corpus)

print(f"parsed {len(result.model.file_code_lines)} files, {len(result.model.types)} types")
print(f"total non-blank non-comment lines: {result.project_metrics.total_loc}")
print()

# The findings, sorted canonically (kind, subject, file, line).
print("findings:")
for f in result.findings:
    evidence = ", ".join(f"{k}={v}" for k, v in sorted(f.evidence.items()))
    print(f"  {f.kind.value:32} {f.subject:35} {f.file}:{f.line}  [{evidence}]")
print()

# A few of the per-type metrics behind those findings.
print("selected type metrics (columns: " + ", ".join(CSV_COLUMNS[1:6]) + " ...):")
for qname in ("sample.GodModule", "sample.SessionState", "sample.Shape"):
    t = result.type_metrics[qname]
    print(
        f"  {qname:25} loc={t.loc:3} nom={t.nom:2} nof={t.nof} "
        f"wmc={t.wmc:2} max_cc={t.max_cc} nc={t.nc:2} lcom={t.lcom}"
    )
print()

# Thresholds are configurable; raising the wide-hierarchy limit above
# Shape's child count makes that finding disappear.
from javasmell.smells import RuleConfig, detect_all

relaxed = RuleConfig(wh_min_children=12)
fewer = detect_all(result.model, result.type_metrics, relaxed)
print(f"findings at wide_hierarchy.min_children=12: {len(fewer)} (was {len(result.findings)})")
