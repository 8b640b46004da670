import csv
import json
import math
import random
import string
from decimal import ROUND_HALF_UP, Decimal

import pytest

from javasmell.evaluation import GroundTruth, evaluate
from javasmell.files import FatalError
from javasmell.metrics import write_metrics_csv
from javasmell.report import (
    build_report,
    comparison,
    format_pct,
    parse_provenance,
    percentages,
    report_from_json,
    write_comparison_csv,
    write_evaluation_csv,
    write_provenance,
    write_report_json,
)
from javasmell.repometa import Maturity, MaturityClass
from javasmell.smells import SmellFinding, SmellKind

import reference_data as ref

K = SmellKind


def test_percentages_single_kind():
    assert percentages({K.UNUTILIZED_ABSTRACTION: 1}) == {K.UNUTILIZED_ABSTRACTION: 100.0}


def test_percentages_empty_absent():
    assert percentages({}) == {}
    assert percentages({K.WIDE_HIERARCHY: 0}) == {}


def test_percentages_reference_column():
    counts = ref.project_counts("Mover.io")
    pct = percentages(counts)
    assert math.isclose(pct[K.UNUTILIZED_ABSTRACTION], 100.0 * 164 / 292)
    assert format_pct(pct[K.UNUTILIZED_ABSTRACTION]) == "56.16"
    assert math.isclose(sum(pct.values()), 100.0, abs_tol=0.01)


def test_format_pct_half_up():
    assert format_pct(56.165) == "56.17"
    assert format_pct(2.5e-2 * 100) == "2.50"
    assert format_pct(72.905) == "72.91"


def decimal_pct(value):
    """The half-up rounding of *value*'s repr that ``format_pct`` keeps."""
    return str(Decimal(repr(value)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def test_format_pct_rounds_as_decimal_half_up(fixtures_dir):
    values = [0.0, -0.0, 0.005, -0.005, 0.015, 2.675, -2.675, 99.995, 100.0, 1e-05, -1e-05,
              5e-324, 123456.785, 1e16, 2.5e-2 * 100]
    for total in range(1, 401):
        for n in range(total + 1):
            values += [100.0 * n / total, 100.0 * (n / total)]
    for pct in comparison(reference_reports()).mean_pct.values():
        values += [v for v in pct.values() if v is not None]
    for project in ref.PROJECTS:
        values += percentages(ref.project_counts(project)).values()
    values += [v for row in ref.FIGURE_PCT.values() for v in row.values()]
    report = json.loads((fixtures_dir / "expected" / "report.json").read_text(encoding="utf-8"))
    values += report["smell_percentages"].values()
    values += [v for v in report["project_metrics"].values() if isinstance(v, float)]
    assert [format_pct(v) for v in values] == [decimal_pct(v) for v in values]
    assert format_pct(-0.0) == "-0.00" and format_pct(-0.004) == "-0.00"
    assert format_pct(-2.675) == "-2.68"


def make_finding(kind=K.WIDE_HIERARCHY, subject="p.A", file="A.java", line=3, **ev):
    return SmellFinding(kind, subject, file, line, ev or {"nc": "11"})


HEADER_ARGS = dict(
    project="demo", version="0.1.0", config_digest="abc123", timestamp="2024-01-01T00:00:00"
)


def test_provenance_header_only(tmp_path):
    path = tmp_path / "provenance.log"
    write_provenance([], path, **HEADER_ARGS)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert len(lines) == 4
    assert all(line.startswith("#") for line in lines)
    assert parse_provenance(path) == []


def test_provenance_single_record(tmp_path):
    path = tmp_path / "provenance.log"
    write_provenance([make_finding()], path, **HEADER_ARGS)
    record = path.read_text(encoding="utf-8").splitlines()[4]
    assert record == "WideHierarchy\tp.A\tA.java\t3\tnc=11"


def test_provenance_byte_identical_across_reruns(tmp_path, corpus_model):
    from javasmell.metrics import compute_type_metrics
    from javasmell.smells import detect_all

    findings = detect_all(corpus_model, compute_type_metrics(corpus_model))
    a, b = tmp_path / "a.log", tmp_path / "b.log"
    write_provenance(findings, a, **HEADER_ARGS)
    write_provenance(findings, b, **HEADER_ARGS)
    assert a.read_bytes() == b.read_bytes()
    assert len([l for l in a.read_text().splitlines() if not l.startswith("#")]) == 11
    assert parse_provenance(a) == findings


_SAFE = string.ascii_letters + string.digits + "._$-/"


def random_findings(rng, n):
    kinds = list(SmellKind)
    out = []
    seen = set()
    while len(out) < n:
        kind = rng.choice(kinds)
        subject = "".join(rng.choice(_SAFE) for _ in range(rng.randint(3, 20)))
        file = "".join(rng.choice(_SAFE) for _ in range(rng.randint(3, 25))) + ".java"
        line = rng.randint(1, 9999)
        key = (kind, subject, file, line)
        if key in seen:
            continue
        seen.add(key)
        evidence = {}
        for _ in range(rng.randint(1, 4)):
            ekey = "".join(rng.choice(string.ascii_lowercase) for _ in range(rng.randint(1, 8)))
            if ekey == "cycle":  # reserved for cycle membership
                continue
            evidence["k" + ekey] = "".join(
                rng.choice(_SAFE + "=;: ") for _ in range(rng.randint(1, 12))
            )
        if not evidence:
            evidence = {"n": "1"}
        cycle = ()
        if kind is K.CYCLIC_DEPENDENT_MODULARIZATION:
            cycle = tuple(sorted({subject, subject + ".Peer"}))
        out.append(SmellFinding(kind, subject, file, line, evidence, cycle))
    out.sort(key=SmellFinding.sort_key)
    return out


def test_provenance_roundtrip_randomized(tmp_path):
    rng = random.Random(424242)
    findings = random_findings(rng, 1000)
    path = tmp_path / "provenance.log"
    write_provenance(findings, path, **HEADER_ARGS)
    assert parse_provenance(path) == findings


def test_provenance_rejects_reserved_evidence_key(tmp_path):
    bad = make_finding(cycle="x")
    with pytest.raises(ValueError, match="reserved"):
        write_provenance([bad], tmp_path / "p.log", **HEADER_ARGS)


# ----------------------------------------------------------------------
# report.json


def make_report(name, counts, label=None):
    findings = []
    for kind, n in counts.items():
        for i in range(n):
            findings.append(SmellFinding(kind, f"{name}.T{kind.value}{i}", "F.java", i + 1, {"n": "1"}))
    maturity = MaturityClass(label, [f"stack: {label.value}"]) if label else None
    return build_report(name, findings, maturity=maturity)


def test_report_json_roundtrip(tmp_path):
    report = make_report("demo", {K.WIDE_HIERARCHY: 2, K.BROKEN_HIERARCHY: 1}, Maturity.DEVELOPING)
    path = tmp_path / "report.json"
    write_report_json(report, path)
    back = report_from_json(path)
    assert back.project_name == "demo"
    assert back.maturity.label is Maturity.DEVELOPING
    assert back.smell_counts == report.smell_counts
    assert back.findings == report.findings


@pytest.mark.parametrize(
    "text, detail",
    [
        ("{nope", "Expecting property name"),
        ("[]", "expected a JSON object, found list"),
        ('{"smell_counts": {}}', "no 'project_name' key"),
        ('{"project_name": "p", "smell_counts": {"WideHierarchy": "x"}}',
         "WideHierarchy count is 'x', not a number"),
        ('{"project_name": "p", "smell_counts": {"WideHierarchy": true}}',
         "WideHierarchy count is True, not a number"),
        ('{"project_name": "p", "smell_counts": {}, "smell_percentages": {"WideHierarchy": "1"}}',
         "WideHierarchy percentage is '1', not a number"),
        ('{"project_name": "p", "smell_counts": {"Nope": 1}}', "unknown smell kind 'Nope'"),
        ('{"project_name": "p", "smell_counts": [], "findings": []}', "'list' object"),
        ('{"project_name": "p", "smell_counts": {}, "findings": [1]}', "not subscriptable"),
    ],
    ids=["not-json", "list", "no-name", "text-count", "bool-count", "text-percentage",
         "unknown-kind", "counts-list", "finding-not-object"],
)
def test_malformed_report_json_is_a_fatal_error_naming_the_path(tmp_path, text, detail):
    path = tmp_path / "report.json"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(FatalError) as err:
        report_from_json(path)
    assert str(err.value).startswith(f"{path}: not a javasmell report: ")
    assert detail in str(err.value)


def test_report_percentages_sum_to_100(tmp_path):
    report = make_report("demo", {K.WIDE_HIERARCHY: 3, K.MISSING_HIERARCHY: 4})
    assert math.isclose(sum(report.smell_percentages.values()), 100.0, abs_tol=0.01)
    assert sum(report.smell_counts.values()) == len(report.findings)


# ----------------------------------------------------------------------
# comparison


def reference_reports():
    reports = []
    for project in ref.PROJECTS:
        label = Maturity.DEVELOPING if project in ref.DEVELOPING else Maturity.ESTABLISHED
        reports.append(make_report(project, ref.project_counts(project), label))
    return reports


def test_comparison_developing_totals():
    comp = comparison(reference_reports())
    totals = comp.totals[Maturity.DEVELOPING.value]
    for kind, expected in ref.DEVELOPING_TOTALS.items():
        assert totals[kind] == expected
    assert sum(totals.values()) == 1576
    assert sum(comp.totals[Maturity.ESTABLISHED.value].values()) == 2387


def test_comparison_single_project():
    reports = [make_report("solo", {K.WIDE_HIERARCHY: 2}, Maturity.DEVELOPING)]
    comp = comparison(reports)
    assert comp.totals[Maturity.DEVELOPING.value][K.WIDE_HIERARCHY] == 2
    assert Maturity.ESTABLISHED.value not in comp.totals


def test_comparison_no_cross_contamination():
    reports = [
        make_report("dev1", {K.WIDE_HIERARCHY: 5}, Maturity.DEVELOPING),
        make_report("est1", {K.WIDE_HIERARCHY: 7}, Maturity.ESTABLISHED),
    ]
    comp = comparison(reports)
    assert comp.totals[Maturity.DEVELOPING.value][K.WIDE_HIERARCHY] == 5
    assert comp.totals[Maturity.ESTABLISHED.value][K.WIDE_HIERARCHY] == 7


def test_comparison_totals_equal_member_sums():
    comp = comparison(reference_reports())
    for label, projects in comp.stacks.items():
        for kind in SmellKind:
            assert comp.totals[label][kind] == sum(
                comp.per_project[p][kind] for p in projects
            )


def test_comparison_unclassified_kept_separate():
    reports = [
        make_report("dev1", {K.WIDE_HIERARCHY: 1}, Maturity.DEVELOPING),
        make_report("odd", {K.WIDE_HIERARCHY: 9}),
    ]
    comp = comparison(reports)
    assert comp.stacks[Maturity.UNCLASSIFIED.value] == ["odd"]
    assert comp.totals[Maturity.DEVELOPING.value][K.WIDE_HIERARCHY] == 1


def test_comparison_duplicate_project_rejected():
    reports = [
        make_report("same", {K.WIDE_HIERARCHY: 1}, Maturity.DEVELOPING),
        make_report("same", {K.WIDE_HIERARCHY: 2}, Maturity.DEVELOPING),
    ]
    with pytest.raises(FatalError, match="duplicate project"):
        comparison(reports)


def test_comparison_csv_layout(tmp_path):
    comp = comparison(reference_reports())
    path = tmp_path / "comparison.csv"
    write_comparison_csv(comp, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    assert header[0] == "smell"
    assert "developing_total" in header and "established_total" in header
    assert len(lines) == 1 + len(SmellKind)
    ua_row = dict(zip(header, lines[1].split(",")))
    assert ua_row["smell"] == "UnutilizedAbstraction"
    assert ua_row["developing_total"] == "825"


def test_comparison_csv_quotes_a_name_holding_a_comma(tmp_path):
    comp = comparison([
        make_report("acme, core", {K.WIDE_HIERARCHY: 1}, Maturity.DEVELOPING),
        make_report("plain", {K.WIDE_HIERARCHY: 2}, Maturity.ESTABLISHED),
    ])
    path = tmp_path / "comparison.csv"
    write_comparison_csv(comp, path)
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0][:3] == ["smell", "acme, core", "developing_total"]
    assert {len(row) for row in rows} == {len(rows[0])}
    assert path.read_text(encoding="utf-8").startswith('smell,"acme, core",developing_total,plain,')


def test_provenance_roundtrip_escapes_separators(tmp_path):
    findings = [
        make_finding(subject="p.A", file="A\tB.java", line=7, selector="a\\tb"),
        make_finding(
            kind=K.CYCLIC_DEPENDENT_MODULARIZATION,
            subject="p\\q.C",
            file="dir\\C.java",
            line=2,
            note="two\nlines\r\\",
        ),
    ]
    findings[1].cycle_members = ("p\\q.C", "p\tq.D")
    path = tmp_path / "provenance.log"
    write_provenance(findings, path, **HEADER_ARGS)
    records = path.read_bytes().split(b"\n")[4:-1]
    assert [r.count(b"\t") for r in records] == [4, 5]  # one tab per field separator
    assert parse_provenance(path) == findings


_EMPTY_REPORT = build_report("p", [])
_WRITERS = {
    "provenance": lambda path: write_provenance([], path, **HEADER_ARGS),
    "report.json": lambda path: write_report_json(_EMPTY_REPORT, path),
    "comparison": lambda path: write_comparison_csv(comparison([_EMPTY_REPORT]), path),
    "evaluation": lambda path: write_evaluation_csv(evaluate([], GroundTruth({}, set())), path),
    "metrics.csv": lambda path: write_metrics_csv({}, path),
}


@pytest.mark.parametrize("writer", sorted(_WRITERS))
def test_write_error_is_a_fatal_error_naming_the_path(tmp_path, writer):
    path = tmp_path / "taken"
    path.mkdir()  # a directory where the output file should go
    with pytest.raises(FatalError, match="cannot write .*taken"):
        _WRITERS[writer](path)
