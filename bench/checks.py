"""Checks of one `javasmell analyze` run against the facts of its corpus.

Every check compares an output with what the corpus generator knew when it
wrote the corpus (facts.json), never with a saved earlier run. Each error is
tagged with the check that found it:

    failures     the files reported as failed are exactly the expected ones
    metrics      metrics.csv rows match each type's nom, wmc, max_cc, loc,
                 dit and nc
    findings     report.json findings are exactly the expected set
    evaluation   evaluation.csv: precision and recall 100% for every kind,
                 detections per kind as expected
    maturity     the report's maturity label
    provenance   provenance.log parsed back gives report.json's findings
    identical    outputs of two runs that must agree are byte-identical
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

OUTPUTS = ("provenance.log", "report.json", "metrics.csv", "evaluation.csv")
FACT_COLUMNS = ("nom", "wmc", "max_cc", "loc", "dit", "nc")
_FAILED_LINE = re.compile(r"^(.*): failed to parse: ")


def failed_files(stderr_text: str) -> list:
    """Files a run reports as failed to parse, from its diagnostics."""
    return sorted(m.group(1) for m in map(_FAILED_LINE.match, stderr_text.splitlines()) if m)


def run_failures(facts: dict, exit_code: int, out: Path, stderr_text: str) -> list:
    """Failed operations of one run: the files it reports as failed, or
    every file when the process failed or wrote no outputs."""
    if exit_code not in (0, 2) or not all((Path(out) / name).is_file() for name in OUTPUTS):
        return sorted(facts["files"])
    return failed_files(stderr_text)


def check_failures(facts: dict, failed: list) -> list:
    expected = facts["expect_failed"]
    if failed != expected:
        return [("failures", f"failed files {failed} != expected {expected}")]
    return []


def check_metrics(facts: dict, out: Path) -> list:
    errors = []
    with open(Path(out) / "metrics.csv", encoding="utf-8", newline="") as fh:
        rows = {row["qualified_name"]: row for row in csv.DictReader(fh)}
    expected = facts["types"]
    for qname in sorted(set(expected) ^ set(rows)):
        where = "missing from" if qname in expected else "unexpected in"
        errors.append(("metrics", f"{qname} {where} metrics.csv"))
    for qname in sorted(set(expected) & set(rows)):
        for col in FACT_COLUMNS:
            got, want = rows[qname][col], str(expected[qname][col])
            if got != want:
                errors.append(("metrics", f"{qname}.{col} = {got}, expected {want}"))
    return errors


def _finding_key(f: dict) -> tuple:
    return (f["kind"], f["subject"], f["file"], f["line"], tuple(f["cycle_members"]))


def check_findings(facts: dict, report: dict) -> list:
    got = sorted(_finding_key(f) for f in report["findings"])
    want = sorted(_finding_key(f) for f in facts["findings"])
    errors = [("findings", f"unexpected finding {f}") for f in sorted(set(got) - set(want))]
    errors += [("findings", f"missing finding {f}") for f in sorted(set(want) - set(got))]
    if not errors and got != want:
        errors.append(("findings", "findings differ in multiplicity"))
    return errors


def check_evaluation(facts: dict, out: Path) -> list:
    errors = []
    with open(Path(out) / "evaluation.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    per_kind = {r["kind"]: r for r in rows if r["kind"] not in ("overall", "catalog_mean")}
    counts: dict = {}
    for f in facts["findings"]:
        counts[f["kind"]] = counts.get(f["kind"], 0) + 1
    if sorted(per_kind) != sorted(counts):
        errors.append(("evaluation", f"kinds {sorted(per_kind)} != expected {sorted(counts)}"))
    for kind, row in per_kind.items():
        want = str(counts.get(kind, 0))
        if row["detected"] != want or row["true_positives"] != want:
            errors.append(("evaluation", f"{kind}: detected {row['detected']}, "
                                         f"tp {row['true_positives']}, expected {want}"))
        if row["precision_pct"] != "100.00" or row["recall_pct"] != "100.00":
            errors.append(("evaluation", f"{kind}: precision {row['precision_pct']}%, "
                                         f"recall {row['recall_pct']}%"))
    overall = next((r for r in rows if r["kind"] == "overall"), None)
    if overall is None or overall["precision_pct"] != "100.00" or overall["recall_pct"] != "100.00":
        errors.append(("evaluation", f"overall row {overall}"))
    return errors


def check_maturity(facts: dict, report: dict) -> list:
    label = (report.get("maturity") or {}).get("label")
    if label != facts["maturity"]:
        return [("maturity", f"maturity {label!r}, expected {facts['maturity']!r}")]
    return []


def check_provenance(out: Path, report: dict) -> list:
    """README contract: parsing provenance.log reproduces the findings."""
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    from javasmell.report import parse_provenance

    parsed = [
        {
            "kind": f.kind.value,
            "subject": f.subject,
            "file": f.file,
            "line": f.line,
            "evidence": {k: f.evidence[k] for k in sorted(f.evidence)},
            "cycle_members": list(f.cycle_members),
        }
        for f in parse_provenance(Path(out) / "provenance.log")
    ]
    if parsed != report["findings"]:
        return [("provenance", f"provenance.log gives {len(parsed)} findings that differ "
                               f"from report.json's {len(report['findings'])}")]
    return []


def check_outputs(facts: dict, out: Path, failed: list) -> list:
    """Every check of one run's outputs; an empty list means correct."""
    errors = check_failures(facts, failed)
    missing = [name for name in OUTPUTS if not (Path(out) / name).is_file()]
    if missing:
        return errors + [("failures", f"outputs not written: {missing}")]
    with open(Path(out) / "report.json", encoding="utf-8") as fh:
        report = json.load(fh)
    errors += check_metrics(facts, out)
    errors += check_findings(facts, report)
    errors += check_evaluation(facts, out)
    errors += check_maturity(facts, report)
    errors += check_provenance(out, report)
    return errors


def digest(out: Path) -> dict:
    """SHA-256 of each output file present."""
    result = {}
    for name in OUTPUTS:
        path = Path(out) / name
        if path.is_file():
            result[name] = hashlib.sha256(path.read_bytes()).hexdigest()
    return result


def check_identical(reference: dict, out: Path, what: str) -> list:
    got = digest(out)
    differ = sorted(n for n in set(reference) | set(got) if reference.get(n) != got.get(n))
    if differ:
        return [("identical", f"{what}: {', '.join(differ)} differ from the reference run")]
    return []
