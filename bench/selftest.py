"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Generates a small corpus per workload, runs `javasmell analyze` on each
once and requires every check to pass. Then it injects one wrong value into
each kind of checked output, on a copy, and requires the matching check to
report it. Exits 0 only if the clean runs pass and every injection is
caught.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import corpora  # noqa: E402
from run import ROOT, analyze_args, javasmell, run_process  # noqa: E402

SMALL = {
    "bodies": {"files": 6, "target_lines": 120},
    "linked": {"regular": 40},
    "monolith": {"files": 1, "methods": 150, "text_block_methods": 40},
}


def analyze(name: str, corpus: Path, out: Path, env: dict) -> tuple:
    run = run_process(javasmell(*analyze_args(name, corpus, out)), env, out.with_suffix(""))
    return run["exit"], run["stderr"]


def edit(path: Path, fn):
    path.write_text(fn(path.read_text(encoding="utf-8")), encoding="utf-8")


def bump_wmc(text: str) -> str:
    lines = text.splitlines()
    header = lines[0].split(",")
    row = lines[1].split(",")
    col = header.index("wmc")
    row[col] = str(int(row[col]) + 1)
    lines[1] = ",".join(row)
    return "\n".join(lines) + "\n"


def drop_finding(text: str) -> str:
    report = json.loads(text)
    report["findings"].pop()
    return json.dumps(report, indent=2) + "\n"


def halve_precision(text: str) -> str:
    return re.sub(r"^(\w+,\d+,\d+,)100\.00,", r"\g<1>50.00,", text, count=1, flags=re.M)


def relabel(text: str) -> str:
    report = json.loads(text)
    report["maturity"]["label"] = "Established"
    return json.dumps(report, indent=2) + "\n"


def drop_provenance_line(text: str) -> str:
    lines = text.splitlines()
    return "\n".join(lines[:-1]) + "\n"


def main() -> int:
    work = ROOT / ".bench_work" / f"selftest-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    ok = True
    try:
        runs = {}
        for name, size in SMALL.items():
            corpus = work / name
            facts = corpora.GENERATORS[name](7, corpus, **size)
            out = work / f"{name}-out"
            code, stderr = analyze(name, corpus, out, env)
            failed = checks.run_failures(facts, code, out, stderr)
            errors = checks.check_outputs(facts, out, failed)
            print(f"clean {name:<9} exit {code}, {len(failed)} failed files, "
                  f"{'all checks pass' if not errors else errors}")
            ok &= not errors
            runs[name] = (facts, out, failed, stderr)

        def mutated(name: str, label: str):
            facts, out, failed, stderr = runs[name]
            copy = work / f"{name}-{label}"
            shutil.rmtree(copy, ignore_errors=True)
            shutil.copytree(out, copy)
            return facts, copy, list(failed), stderr

        cases = []

        facts, out, failed, _ = mutated("linked", "wmc")
        edit(out / "metrics.csv", bump_wmc)
        cases.append(("a wmc in metrics.csv + 1", "metrics", checks.check_outputs(facts, out, failed)))

        facts, out, failed, _ = mutated("linked", "finding")
        edit(out / "report.json", drop_finding)
        cases.append(("a finding removed from report.json", "findings",
                      checks.check_findings(facts, json.loads((out / "report.json").read_text()))))

        facts, out, failed, _ = mutated("linked", "precision")
        edit(out / "evaluation.csv", halve_precision)
        cases.append(("a precision in evaluation.csv set to 50%", "evaluation",
                      checks.check_outputs(facts, out, failed)))

        facts, out, failed, stderr = mutated("bodies", "fails")
        good = sorted(facts["files"])[0]
        stderr += f"{good}: failed to parse: injected\n"
        cases.append(("a good file reported as failed", "failures",
                      checks.check_outputs(facts, out, checks.failed_files(stderr))))

        facts, out, failed, _ = mutated("monolith", "textblock")
        cases.append(("a text-block file not failing", "failures",
                      checks.check_outputs(facts, out, failed[1:])))

        facts, out, failed, _ = mutated("linked", "maturity")
        edit(out / "report.json", relabel)
        cases.append(("maturity label changed", "maturity", checks.check_outputs(facts, out, failed)))

        facts, out, failed, _ = mutated("linked", "provenance")
        edit(out / "provenance.log", drop_provenance_line)
        cases.append(("a provenance.log line removed", "provenance",
                      checks.check_outputs(facts, out, failed)))

        facts, out, failed, _ = mutated("linked", "identical")
        reference = checks.digest(runs["linked"][1])
        edit(out / "metrics.csv", lambda t: t + "\n")
        cases.append(("one byte added to metrics.csv", "identical",
                      checks.check_identical(reference, out, "mutated copy")))

        for what, tag, errors in cases:
            caught = any(t == tag for t, _ in errors)
            ok &= caught
            first = next((m for t, m in errors if t == tag), "no error reported")
            print(f"{'caught' if caught else 'MISSED':<7} [{tag}] {what}: {first}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print("selftest passed" if ok else "selftest FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
