"""Report emission: provenance log, JSON report, comparison tables.

File formats (all UTF-8, LF line endings, bit-stable given the same inputs):

provenance.log
    '#'-prefixed header lines (tool version, config digest, project,
    timestamp), then one finding per line: smell name, qualified subject,
    file path, line number, then key=value evidence pairs, all
    tab-separated. A backslash, tab, CR or LF inside a field is written as
    ``\\\\``, ``\\t``, ``\\r`` or ``\\n``. Cycle membership travels in a
    reserved ``cycle`` field with ';'-separated members. Parsing the file back
    yields the original findings field-for-field.

report.json
    The full project report with a fixed key order: project_name, maturity,
    smell_counts, smell_percentages, project_metrics (``ProjectMetrics``'
    fields in order), findings, config_echo.

comparison.csv
    One row per smell kind; per-project count columns grouped by stack
    (developing, established, then unclassified if present), each group
    followed by its total, then per-stack mean percentage columns.

evaluation.csv
    Per-kind detected / true positive / precision / recall rows plus overall
    and catalog-mean rows.

Both CSV files quote a field only when it holds a comma, a quote or a
newline, as metrics.csv does. Percentages are printed with two decimals,
rounded half-up.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field, fields

from .evaluation import EvaluationResult
from .files import FatalError, lines, read_text, write_csv, write_text
from .metrics import CC_BUCKETS, DIT_BUCKETS, ProjectMetrics
from .repometa import Maturity, MaturityClass
from .smells import SmellFinding, SmellKind, kind_from_name


def format_pct(value: float) -> str:
    """*value* with two decimals: its repr rounded half away from zero, in
    integer arithmetic, so ``-0.0`` gives ``-0.00``."""
    text = repr(value)
    digits, _, exponent = text.lstrip("-").partition("e")
    whole, _, fraction = digits.partition(".")
    # In hundredths, value is int(whole + fraction) * 10 ** shift.
    shift = int(exponent or 0) - len(fraction) + 2
    scale = 10 ** max(0, -shift)
    hundredths = (2 * int(whole + fraction) * 10 ** max(0, shift) + scale) // (2 * scale)
    return f"{'-' if text[0] == '-' else ''}{hundredths // 100}.{hundredths % 100:02d}"


def percentages(counts: dict) -> dict:
    """Share of each smell kind in the total finding count; empty when there
    are no findings at all."""
    total = sum(counts.values())
    if total == 0:
        return {}
    return {kind: 100.0 * n / total for kind, n in counts.items()}


@dataclass
class ProjectReport:
    project_name: str
    maturity: MaturityClass | None
    smell_counts: dict  # SmellKind -> int, all kinds present
    smell_percentages: dict  # SmellKind -> float, empty when no findings
    project_metrics: ProjectMetrics | None
    findings: list
    config_echo: list = field(default_factory=list)


def build_report(project_name, findings, project_metrics=None, maturity=None, config=None):
    counts = {kind: 0 for kind in SmellKind}
    for f in findings:
        counts[f.kind] += 1
    return ProjectReport(
        project_name=project_name,
        maturity=maturity,
        smell_counts=counts,
        smell_percentages=percentages(counts),
        project_metrics=project_metrics,
        findings=list(findings),
        config_echo=config.echo_lines() if config is not None else [],
    )


# ----------------------------------------------------------------------
# provenance log


_UNESCAPES = {"\\\\": "\\", "\\t": "\t", "\\n": "\n", "\\r": "\r"}
_ESCAPES = str.maketrans({v: k for k, v in _UNESCAPES.items()})
_ESCAPED = re.compile(r"\\[\\tnr]")


def _finding_line(f: SmellFinding) -> str:
    if "cycle" in f.evidence:
        raise ValueError("'cycle' is reserved for cycle membership")
    parts = [f.kind.value, f.subject, f.file, str(f.line)]
    if f.cycle_members:
        parts.append("cycle=" + ";".join(f.cycle_members))
    for key in sorted(f.evidence):
        parts.append(f"{key}={f.evidence[key]}")
    return "\t".join(p.translate(_ESCAPES) for p in parts)


def write_provenance(findings, path, *, project, version, config_digest, timestamp):
    header = [
        f"# tool javasmell {version}",
        f"# project {project.translate(_ESCAPES)}",
        f"# config {config_digest}",
        f"# generated {timestamp}",
    ]
    lines = header + [_finding_line(f) for f in findings]
    write_text(path, "".join(line + "\n" for line in lines))


def parse_provenance(path) -> list:
    findings = []
    for _, line in lines(path):
        parts = [_ESCAPED.sub(lambda m: _UNESCAPES[m.group()], p) for p in line.split("\t")]
        kind, subject, file_path, line_no = parts[0], parts[1], parts[2], int(parts[3])
        cycle: tuple = ()
        evidence = {}
        for chunk in parts[4:]:
            key, _, value = chunk.partition("=")
            if key == "cycle":
                cycle = tuple(value.split(";"))
            else:
                evidence[key] = value
        findings.append(
            SmellFinding(
                kind=kind_from_name(kind),
                subject=subject,
                file=file_path,
                line=line_no,
                evidence=evidence,
                cycle_members=cycle,
            )
        )
    return findings


# ----------------------------------------------------------------------
# report.json


def _maturity_obj(maturity: MaturityClass | None):
    if maturity is None:
        return None
    return {"label": maturity.label.value, "rationale": list(maturity.rationale)}


def _metrics_obj(pm: ProjectMetrics | None):
    if pm is None:
        return None
    obj = {f.name: getattr(pm, f.name) for f in fields(pm)}
    obj["cc_histogram"] = _histogram_obj(pm.cc_histogram, CC_BUCKETS)
    obj["dit_histogram"] = _histogram_obj(pm.dit_histogram, DIT_BUCKETS)
    return obj


def _histogram_obj(counts: tuple, buckets: tuple) -> dict:
    """Bucket label -> count; a bucket (lo, hi) is labelled lo_hi, or lo_plus when open."""
    return {f"{lo}_{'plus' if hi is None else hi}": n for (lo, hi), n in zip(buckets, counts)}


def _finding_obj(f: SmellFinding):
    return {
        "kind": f.kind.value,
        "subject": f.subject,
        "file": f.file,
        "line": f.line,
        "evidence": {k: f.evidence[k] for k in sorted(f.evidence)},
        "cycle_members": list(f.cycle_members),
    }


def report_to_json(report: ProjectReport) -> str:
    obj = {
        "project_name": report.project_name,
        "maturity": _maturity_obj(report.maturity),
        "smell_counts": {k.value: report.smell_counts.get(k, 0) for k in SmellKind},
        "smell_percentages": {
            k.value: report.smell_percentages[k]
            for k in SmellKind
            if k in report.smell_percentages
        },
        "project_metrics": _metrics_obj(report.project_metrics),
        "findings": [_finding_obj(f) for f in report.findings],
        "config_echo": list(report.config_echo),
    }
    return json.dumps(obj, indent=2) + "\n"


def write_report_json(report: ProjectReport, path):
    write_text(path, report_to_json(report))


def report_from_json(path) -> ProjectReport:
    """Read a report.json back; a file that is not one is a FatalError naming *path*."""
    text = read_text(path)
    try:
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise TypeError(f"expected a JSON object, found {type(obj).__name__}")
        counts = {kind_from_name(k): v for k, v in obj["smell_counts"].items()}
        pcts = {kind_from_name(k): v for k, v in obj.get("smell_percentages", {}).items()}
        for what, values, types in (("count", counts, (int,)), ("percentage", pcts, (int, float))):
            bad = next((k for k, v in values.items() if type(v) not in types), None)
            if bad is not None:
                raise TypeError(f"{bad.value} {what} is {values[bad]!r}, not a number")
        findings = [
            SmellFinding(
                kind=kind_from_name(fo["kind"]),
                subject=fo["subject"],
                file=fo["file"],
                line=fo["line"],
                evidence=dict(fo["evidence"]),
                cycle_members=tuple(fo["cycle_members"]),
            )
            for fo in obj.get("findings", ())
        ]
        maturity = None
        if obj.get("maturity"):
            maturity = MaturityClass(
                Maturity(obj["maturity"]["label"]), list(obj["maturity"]["rationale"])
            )
        return ProjectReport(
            project_name=obj["project_name"],
            maturity=maturity,
            smell_counts=counts,
            smell_percentages=pcts,
            project_metrics=None,
            findings=findings,
            config_echo=list(obj.get("config_echo", ())),
        )
    except KeyError as err:
        raise FatalError(f"{path}: not a javasmell report: no {err} key") from None
    except (FatalError, ValueError, TypeError, AttributeError) as err:
        raise FatalError(f"{path}: not a javasmell report: {err}") from None


# ----------------------------------------------------------------------
# cross-project comparison


@dataclass
class ComparisonReport:
    stacks: dict  # stack label -> [project names]
    totals: dict  # stack label -> {SmellKind: int}
    mean_pct: dict  # stack label -> {SmellKind: float | None}
    per_project: dict  # project name -> {SmellKind: int}


_STACK_ORDER = (Maturity.DEVELOPING.value, Maturity.ESTABLISHED.value, Maturity.UNCLASSIFIED.value)


def comparison(reports) -> ComparisonReport:
    stacks: dict = {}
    totals: dict = {}
    mean_pct: dict = {}
    per_project: dict = {}
    for report in reports:
        if report.project_name in per_project:
            raise FatalError(f"duplicate project name {report.project_name!r}")
        label = (
            report.maturity.label.value
            if report.maturity is not None
            else Maturity.UNCLASSIFIED.value
        )
        stacks.setdefault(label, []).append(report.project_name)
        per_project[report.project_name] = {
            kind: report.smell_counts.get(kind, 0) for kind in SmellKind
        }
        bucket = totals.setdefault(label, {kind: 0 for kind in SmellKind})
        for kind in SmellKind:
            bucket[kind] += report.smell_counts.get(kind, 0)
        mean_pct.setdefault(label, []).append(report.smell_percentages)
    for label, pct_list in list(mean_pct.items()):
        merged = {}
        for kind in SmellKind:
            values = [p[kind] for p in pct_list if kind in p]
            merged[kind] = sum(values) / len(values) if values else None
        mean_pct[label] = merged
    return ComparisonReport(stacks, totals, mean_pct, per_project)


def write_comparison_csv(comp: ComparisonReport, path):
    labels = [s for s in _STACK_ORDER if s in comp.stacks]
    header = ["smell"]
    for label in labels:
        header.extend(comp.stacks[label])
        header.append(f"{label.lower()}_total")
    for label in labels:
        header.append(f"{label.lower()}_mean_pct")
    rows = [header]
    for kind in SmellKind:
        row = [kind.value]
        for label in labels:
            for project in comp.stacks[label]:
                row.append(comp.per_project[project][kind])
            row.append(comp.totals[label][kind])
        for label in labels:
            mean = comp.mean_pct[label][kind]
            row.append("" if mean is None else format_pct(mean))
        rows.append(row)
    write_csv(path, rows)


# ----------------------------------------------------------------------
# evaluation output


def evaluation_lines(result: EvaluationResult) -> list:
    """Per-kind 'detected / TP / precision%' rows plus overall lines."""
    lines = []
    for kind, ke in result.per_kind.items():
        marker = " (no detections)" if ke.zero_detection else ""
        lines.append(
            f"{kind.value}: {ke.detected} / {ke.true_positives} / "
            f"{format_pct(100.0 * ke.precision)}%{marker}"
        )
    lines.append(
        f"overall (pooled): {result.overall_detected} / {result.overall_tp} / "
        f"{format_pct(100.0 * result.overall_precision)}%"
    )
    lines.append(f"overall (catalog mean): {format_pct(100.0 * result.catalog_precision)}%")
    lines.append(f"overall recall: {format_pct(100.0 * result.overall_recall)}%")
    return lines


def write_evaluation_csv(result: EvaluationResult, path):
    rows = [("kind", "detected", "true_positives", "precision_pct", "recall_pct", "zero_detection")]
    for kind, ke in result.per_kind.items():
        rows.append((
            kind.value, ke.detected, ke.true_positives, format_pct(100.0 * ke.precision),
            format_pct(100.0 * ke.recall), "yes" if ke.zero_detection else "no",
        ))
    rows.append((
        "overall", result.overall_detected, result.overall_tp,
        format_pct(100.0 * result.overall_precision), format_pct(100.0 * result.overall_recall), "",
    ))
    rows.append(("catalog_mean", "", "", format_pct(100.0 * result.catalog_precision), "", ""))
    write_csv(path, rows)
