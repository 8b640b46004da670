"""Command-line driver.

Subcommands: analyze (source tree -> provenance.log, report.json,
metrics.csv), classify (repository metadata -> maturity), evaluate
(report.json + ground truth -> precision/recall), compare (several
report.json files -> comparison.csv grouped by stack).

Exit codes: 0 success, 1 fatal error, 2 partial success (some files failed
to parse), 64 usage error. stdout carries the human-readable summary,
stderr the diagnostics, and one ``<path>: failed to parse: <message> at
<line>:<col>`` line per source file that could not be analyzed.

A fatal error is raised where it is found: a ``files.FatalError`` for a bad
or undecodable input or an unwritable output, or the ``OSError`` of an
input file that cannot be opened. Both name the file. ``main`` alone
catches them, prints one ``error: ...`` line and returns 1. ``analyze``
reads every input before it creates ``--out``.
"""

from __future__ import annotations

import argparse
import datetime as dt
import sys
from pathlib import Path

from . import __version__
from .evaluation import evaluate, load_ground_truth
from .files import FatalError
from .metrics import write_metrics_csv
from .pipeline import analyze_paths, find_java_files
from .report import (
    build_report,
    comparison,
    evaluation_lines,
    report_from_json,
    write_comparison_csv,
    write_evaluation_csv,
    write_provenance,
    write_report_json,
)
from .repometa import classify, load_metadata
from .smells import RuleConfig, SmellKind, kind_from_name

EXIT_OK = 0
EXIT_FATAL = 1
EXIT_PARTIAL = 2
EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _canonical_timestamp(text: str) -> str:
    try:
        stamp = dt.datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        raise FatalError(f"bad ISO-8601 timestamp {text!r}") from None
    return stamp.isoformat()


def _output_dir(path) -> Path:
    """The --out directory, created if missing. An --out that cannot be a
    directory (an existing file, say) is fatal like a failed write."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise FatalError(f"cannot create output directory {out}: {err}") from None
    return out


def build_arg_parser() -> _Parser:
    parser = _Parser(prog="javasmell", description=__doc__)
    parser.add_argument("--version", action="version", version=f"javasmell {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="analyze a Java source tree")
    p.add_argument("--src", required=True, help="root of the Java source tree")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", help="rule threshold file (key = value lines)")
    p.add_argument("--metadata", help="repository metadata file for maturity")
    p.add_argument("--truth", help="ground-truth file; also writes evaluation.csv")
    p.add_argument("--timestamp", help="fixed ISO-8601 timestamp for the provenance header")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility and ignored: files are parsed one after another")
    p.add_argument("--project", help="project name (default: source root name)")

    p = sub.add_parser("classify", help="classify repository maturity")
    p.add_argument("--metadata", required=True, help="repository metadata file")

    p = sub.add_parser("evaluate", help="score a report against ground truth")
    p.add_argument("report", help="report.json produced by analyze")
    p.add_argument("--truth", required=True, help="ground-truth file")
    p.add_argument("--out", default=".", help="directory for evaluation.csv")
    p.add_argument(
        "--kinds",
        help="comma-separated smell names fixing the evaluated universe "
        "(default: kinds present in the ground truth and findings)",
    )

    p = sub.add_parser("compare", help="aggregate several reports by stack")
    p.add_argument("reports", nargs="+", help="report.json files")
    p.add_argument("--out", default=".", help="directory for comparison.csv")
    return parser


def cmd_analyze(args) -> int:
    src = Path(args.src)
    if not src.is_dir():
        raise FatalError(f"--src {src} is not a directory")
    if args.workers < 1:
        raise FatalError("--workers must be >= 1")
    config = RuleConfig.from_file(args.config) if args.config else RuleConfig()
    maturity = classify(load_metadata(args.metadata)) if args.metadata else None
    truth = load_ground_truth(args.truth) if args.truth else None
    if args.timestamp:
        timestamp = _canonical_timestamp(args.timestamp)
    else:
        timestamp = dt.datetime.now().isoformat()
    out = _output_dir(args.out)

    project = args.project or src.resolve().name
    result = analyze_paths(src, find_java_files(src), config)

    for line in result.parse_diagnostics:
        print(line, file=sys.stderr)
    for diag in result.model.diagnostics:
        print(diag, file=sys.stderr)
    for failure in result.failures:
        print(f"{failure.path}: failed to parse: {failure.error}", file=sys.stderr)

    report = build_report(
        project,
        result.findings,
        project_metrics=result.project_metrics,
        maturity=maturity,
        config=config,
    )
    write_provenance(
        result.findings,
        out / "provenance.log",
        project=project,
        version=__version__,
        config_digest=config.digest(),
        timestamp=timestamp,
    )
    write_report_json(report, out / "report.json")
    write_metrics_csv(result.type_metrics, out / "metrics.csv")

    print(f"project: {project}")
    print(f"files analyzed: {len(result.model.file_code_lines)} (failed: {len(result.failures)})")
    print(f"types: {len(result.model.types)}")
    print(f"findings: {len(result.findings)}")
    for kind in SmellKind:
        n = report.smell_counts[kind]
        if n:
            print(f"  {kind.value}: {n}")
    print(f"outputs: {out / 'provenance.log'}, {out / 'report.json'}, {out / 'metrics.csv'}")

    if truth is not None:
        evaluation = evaluate(result.findings, truth)
        write_evaluation_csv(evaluation, out / "evaluation.csv")
        for line in evaluation_lines(evaluation):
            print(line)

    return EXIT_PARTIAL if result.partial else EXIT_OK


def cmd_classify(args) -> int:
    verdict = classify(load_metadata(args.metadata))
    print(verdict.label.value)
    for line in verdict.rationale:
        print(f"  {line}")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    report = report_from_json(args.report)
    truth = load_ground_truth(args.truth)
    kinds = None  # evaluate's default: the kinds the truth or the findings name
    if args.kinds:
        kinds = [kind_from_name(name.strip()) for name in args.kinds.split(",") if name.strip()]
    result = evaluate(report.findings, truth, kinds)
    out = _output_dir(args.out)
    write_evaluation_csv(result, out / "evaluation.csv")
    print(f"project: {report.project_name}")
    for line in evaluation_lines(result):
        print(line)
    return EXIT_OK


def cmd_compare(args) -> int:
    comp = comparison([report_from_json(p) for p in args.reports])
    out = _output_dir(args.out)
    write_comparison_csv(comp, out / "comparison.csv")
    for label, projects in comp.stacks.items():
        print(f"{label}: {', '.join(projects)}")
    print(f"output: {out / 'comparison.csv'}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_arg_parser().parse_args(argv)
    handlers = {
        "analyze": cmd_analyze,
        "classify": cmd_classify,
        "evaluate": cmd_evaluate,
        "compare": cmd_compare,
    }
    try:
        return handlers[args.command](args)
    except (FatalError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
