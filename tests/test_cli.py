import json
import shutil
import threading

import pytest

from javasmell.cli import EXIT_FATAL, EXIT_OK, EXIT_PARTIAL, EXIT_USAGE, main
from javasmell.report import parse_provenance, report_from_json

from conftest import CORPUS, CORPUS_TRUTH


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_empty_directory(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    out = tmp_path / "out"
    code, stdout, _ = run(
        ["analyze", "--src", str(src), "--out", str(out), "--timestamp", "2024-01-01T00:00:00"],
        capsys,
    )
    assert code == EXIT_OK
    assert "findings: 0" in stdout
    lines = (out / "provenance.log").read_text(encoding="utf-8").splitlines()
    assert lines and all(line.startswith("#") for line in lines)
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["findings"] == []


def test_analyze_fixture_corpus(tmp_path, capsys):
    out = tmp_path / "out"
    code, stdout, _ = run(
        [
            "analyze",
            "--src", str(CORPUS),
            "--out", str(out),
            "--timestamp", "2024-01-01T00:00:00",
            "--project", "corpus",
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert "findings: 11" in stdout
    assert (out / "metrics.csv").exists()
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["project_name"] == "corpus"
    assert report["smell_counts"]["CyclicDependentModularization"] == 2


def test_analyze_partial_on_malformed_file(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    shutil.copy(CORPUS / "OneShotTask.java", src / "OneShotTask.java")
    (src / "Broken.java").write_text("class Broken { /* never closed", encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, stderr = run(
        ["analyze", "--src", str(src), "--out", str(out), "--timestamp", "2024-01-01T00:00:00"],
        capsys,
    )
    assert code == EXIT_PARTIAL
    assert "Broken.java" in stderr
    assert "failed: 1" in stdout
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    subjects = {f["subject"] for f in report["findings"]}
    assert "sample.OneShotTask" in subjects  # the good file was still analyzed


def test_per_file_failure_lines(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "A.java").write_text("class A { /* never closed", encoding="utf-8")
    (src / "B.java").write_text("int x;", encoding="utf-8")
    (src / "C.java").write_bytes(b"class C { }\xff")
    (src / "D.java").write_text("class D { }", encoding="utf-8")
    code, _, stderr = run(["analyze", "--src", str(src), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_PARTIAL
    assert stderr.splitlines() == [
        "A.java: failed to parse: unterminated block comment at 1:11",
        "B.java: failed to parse: expected type declaration, found 'int' at 1:1",
        "C.java: failed to parse: 'utf-8' codec can't decode byte 0xff in position 11: invalid start byte",
    ]


def test_analyze_keeps_a_file_holding_only_an_annotation_type(tmp_path, capsys):
    src = tmp_path / "src"
    src.mkdir()
    (src / "M.java").write_text("@interface Marker { }\n", encoding="utf-8")
    out = tmp_path / "out"
    code, stdout, stderr = run(
        ["analyze", "--src", str(src), "--out", str(out), "--timestamp", "2024-01-01T00:00:00"],
        capsys,
    )
    assert code == EXIT_OK
    assert "files analyzed: 1 (failed: 0)" in stdout
    assert "failed to parse" not in stderr
    assert "M.java:1:1: annotation type declaration skipped" in stderr


def test_analyze_missing_src_is_fatal(tmp_path, capsys):
    code, _, stderr = run(
        ["analyze", "--src", str(tmp_path / "nope"), "--out", str(tmp_path / "o")], capsys
    )
    assert code == EXIT_FATAL
    assert "not a directory" in stderr


def test_usage_error_exit_64(capsys):
    with pytest.raises(SystemExit) as err:
        main(["analyze", "--badflag"])
    capsys.readouterr()
    assert err.value.code == EXIT_USAGE


def write_meta(path, commits, contributors, releases, last="2019-05-01", analysis="2019-05-20"):
    path.write_text(
        f"commits = {commits}\ncontributors = {contributors}\nreleases = {releases}\n"
        f"last_commit_date = {last}\nanalysis_date = {analysis}\n",
        encoding="utf-8",
    )


def test_classify_developing(tmp_path, capsys):
    meta = tmp_path / "yade.meta"
    write_meta(meta, 1871, 22, 1)
    code, stdout, _ = run(["classify", "--metadata", str(meta)], capsys)
    assert code == EXIT_OK
    assert stdout.splitlines()[0] == "Developing"


def test_classify_established(tmp_path, capsys):
    meta = tmp_path / "rxjava.meta"
    write_meta(meta, 5531, 240, 5)
    code, stdout, _ = run(["classify", "--metadata", str(meta)], capsys)
    assert code == EXIT_OK
    assert stdout.splitlines()[0] == "Established"


def test_classify_gap_case(tmp_path, capsys):
    meta = tmp_path / "odd.meta"
    write_meta(meta, 2500, 10, 1)
    code, stdout, _ = run(["classify", "--metadata", str(meta)], capsys)
    assert code == EXIT_OK
    assert stdout.splitlines()[0] == "Unclassified"
    assert "fail" in stdout


def test_classify_malformed_metadata(tmp_path, capsys):
    meta = tmp_path / "bad.meta"
    meta.write_text("commits = few\n", encoding="utf-8")
    code, _, stderr = run(["classify", "--metadata", str(meta)], capsys)
    assert code == EXIT_FATAL
    assert "error" in stderr


@pytest.mark.parametrize(
    "counts, last, analysis, message",
    [
        ((-1, 1, 1), "2019-05-01", "2019-05-20", "counts must be non-negative"),
        ((1, 1, 1), "2019-06-01", "2019-05-20", "last_commit_date is after analysis_date"),
        ((1, 1, 1), "2019-13-01", "2019-05-20", "last_commit_date: bad ISO-8601 date '2019-13-01'"),
        ((1, 1, 1), "2019-05-01", "2019-02-30", "analysis_date: bad ISO-8601 date '2019-02-30'"),
    ],
    ids=["negative-count", "future-commit", "bad-last-date", "bad-analysis-date"],
)
def test_classify_metadata_error_names_the_file(tmp_path, capsys, counts, last, analysis, message):
    meta = tmp_path / "bad.meta"
    write_meta(meta, *counts, last=last, analysis=analysis)
    code, _, stderr = run(["classify", "--metadata", str(meta)], capsys)
    assert code == EXIT_FATAL
    assert stderr == f"error: {meta}: {message}\n"


def analyze_corpus(tmp_path, capsys, out_name="out"):
    out = tmp_path / out_name
    run(
        [
            "analyze",
            "--src", str(CORPUS),
            "--out", str(out),
            "--timestamp", "2024-01-01T00:00:00",
            "--project", "corpus",
        ],
        capsys,
    )
    return out


def test_project_name_is_escaped_in_the_provenance_header(tmp_path, capsys):
    out = tmp_path / "out"
    project = "acme\nWideHierarchy\tx"
    code, _, _ = run(
        ["analyze", "--src", str(CORPUS), "--out", str(out), "--project", project,
         "--timestamp", "2024-01-01T00:00:00"],
        capsys,
    )
    assert code == EXIT_OK
    assert "# project acme\\nWideHierarchy\\tx\n" in (out / "provenance.log").read_text(encoding="utf-8")
    report = report_from_json(out / "report.json")
    assert report.project_name == project
    assert parse_provenance(out / "provenance.log") == report.findings


def test_evaluate_fixture_corpus(tmp_path, capsys):
    out = analyze_corpus(tmp_path, capsys)
    code, stdout, _ = run(
        ["evaluate", str(out / "report.json"), "--truth", str(CORPUS_TRUTH), "--out", str(out)],
        capsys,
    )
    assert code == EXIT_OK
    assert "overall (pooled): 11 / 11 / 100.00%" in stdout
    assert (out / "evaluation.csv").exists()


def test_evaluate_unlabeled_findings_fatal(tmp_path, capsys):
    out = analyze_corpus(tmp_path, capsys)
    truth = tmp_path / "partial.tsv"
    truth.write_text("sample.Shape\tWideHierarchy\ttp\n", encoding="utf-8")
    code, _, stderr = run(
        ["evaluate", str(out / "report.json"), "--truth", str(truth)], capsys
    )
    assert code == EXIT_FATAL
    assert "without ground-truth verdicts" in stderr


def row_report_and_truth(tmp_path, name, cells):
    from javasmell.report import build_report, write_report_json
    from javasmell.smells import SmellFinding

    findings = []
    truth_lines = []
    for kind, (detected, tp) in cells.items():
        for i in range(detected):
            subject = f"{name}.T{kind.value}{i}"
            findings.append(SmellFinding(kind, subject, "T.java", i + 1, {"n": "1"}))
            truth_lines.append(f"{subject}\t{kind.value}\t{'tp' if i < tp else 'fp'}")
    report_path = tmp_path / f"{name}.json"
    truth_path = tmp_path / f"{name}.tsv"
    write_report_json(build_report(name, findings), report_path)
    truth_path.write_text("\n".join(truth_lines) + "\n", encoding="utf-8")
    return report_path, truth_path


def test_evaluate_reproduces_published_overall(tmp_path, capsys):
    import reference_data as ref

    # Every kind in this row has detections, so the truth file itself fixes
    # the nine-kind universe and the catalog mean lands on 72.9.
    cells = dict(zip(ref.PRECISION_ROW_KINDS, ref.PRECISION_ROWS["OneDataShare"]["cells"]))
    report_path, truth_path = row_report_and_truth(tmp_path, "row", cells)
    code, stdout, _ = run(
        ["evaluate", str(report_path), "--truth", str(truth_path), "--out", str(tmp_path)],
        capsys,
    )
    assert code == EXIT_OK
    assert "overall (catalog mean): 72.91%" in stdout


def test_evaluate_kinds_flag_fixes_universe(tmp_path, capsys):
    import reference_data as ref

    # This row has zero-detection kinds, which leave no trace in a tp/fp
    # file; --kinds restores the nine-column universe and the published 84.1.
    cells = dict(zip(ref.PRECISION_ROW_KINDS, ref.PRECISION_ROWS["LoboEvolution"]["cells"]))
    report_path, truth_path = row_report_and_truth(tmp_path, "row", cells)
    kinds = ",".join(k.value for k in ref.PRECISION_ROW_KINDS)
    code, stdout, _ = run(
        [
            "evaluate", str(report_path),
            "--truth", str(truth_path),
            "--out", str(tmp_path),
            "--kinds", kinds,
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert "overall (catalog mean): 84.10%" in stdout


def test_compare_two_stacks(tmp_path, capsys):
    out = analyze_corpus(tmp_path, capsys)
    dev = json.loads((out / "report.json").read_text(encoding="utf-8"))
    dev["maturity"] = {"label": "Developing", "rationale": []}
    (tmp_path / "dev.json").write_text(json.dumps(dev), encoding="utf-8")
    est = dict(dev)
    est["project_name"] = "other"
    est["maturity"] = {"label": "Established", "rationale": []}
    (tmp_path / "est.json").write_text(json.dumps(est), encoding="utf-8")

    code, stdout, _ = run(
        ["compare", str(tmp_path / "dev.json"), str(tmp_path / "est.json"), "--out", str(tmp_path)],
        capsys,
    )
    assert code == EXIT_OK
    lines = (tmp_path / "comparison.csv").read_text(encoding="utf-8").splitlines()
    assert "developing_total" in lines[0] and "established_total" in lines[0]


def test_compare_duplicate_names_fatal(tmp_path, capsys):
    out = analyze_corpus(tmp_path, capsys)
    code, _, stderr = run(
        ["compare", str(out / "report.json"), str(out / "report.json")], capsys
    )
    assert code == EXIT_FATAL
    assert "duplicate" in stderr


def malformed_reports(tmp_path, capsys):
    """A report.json holding a JSON list, and one whose smell count is text."""
    listed = tmp_path / "listed.json"
    listed.write_text("[]\n", encoding="utf-8")
    report = json.loads((analyze_corpus(tmp_path, capsys) / "report.json").read_text("utf-8"))
    report["smell_counts"]["WideHierarchy"] = "x"
    text_count = tmp_path / "text_count.json"
    text_count.write_text(json.dumps(report), encoding="utf-8")
    return listed, text_count


@pytest.mark.parametrize("command", ["compare", "evaluate"])
def test_malformed_report_is_an_error_naming_the_file(tmp_path, capsys, command):
    for path in malformed_reports(tmp_path, capsys):
        argv = [command, str(path), "--out", str(tmp_path / "out")]
        if command == "evaluate":
            argv += ["--truth", str(CORPUS_TRUTH)]
        code, _, stderr = run(argv, capsys)
        assert code == EXIT_FATAL
        assert stderr.startswith(f"error: {path}: not a javasmell report")
        assert "Traceback" not in stderr


def test_analyze_with_config_metadata_and_truth(tmp_path, capsys):
    cfg = tmp_path / "rules.conf"
    cfg.write_text("wide_hierarchy.min_children = 12\n", encoding="utf-8")
    meta = tmp_path / "repo.meta"
    write_meta(meta, 412, 10, 1)
    out = tmp_path / "out"
    code, stdout, _ = run(
        [
            "analyze",
            "--src", str(CORPUS),
            "--out", str(out),
            "--config", str(cfg),
            "--metadata", str(meta),
            "--truth", str(CORPUS_TRUTH),
            "--timestamp", "2024-01-01T00:00:00",
            "--project", "corpus",
        ],
        capsys,
    )
    assert code == EXIT_OK
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    # Raising the threshold above Shape's nc=11 removes that finding; the
    # now-unmatched truth row is fine (only unlabeled findings are errors).
    assert report["smell_counts"]["WideHierarchy"] == 0
    assert report["maturity"]["label"] == "Developing"
    assert "wide_hierarchy.min_children = 12" in report["config_echo"]
    assert (out / "evaluation.csv").exists()
    assert "overall (pooled): 10 / 10 / 100.00%" in stdout


def test_determinism_across_workers(tmp_path, capsys):
    out1 = analyze_corpus(tmp_path, capsys, "o1")
    out2 = tmp_path / "o2"
    run(
        [
            "analyze",
            "--src", str(CORPUS),
            "--out", str(out2),
            "--timestamp", "2024-01-01T00:00:00",
            "--project", "corpus",
            "--workers", "4",
        ],
        capsys,
    )
    assert (out1 / "provenance.log").read_bytes() == (out2 / "provenance.log").read_bytes()
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()


def test_analyze_starts_no_thread_at_any_worker_count(tmp_path, capsys, monkeypatch):
    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    out = tmp_path / "out"
    code, stdout, _ = run(
        ["analyze", "--src", str(CORPUS), "--out", str(out), "--workers", "4"], capsys
    )
    assert code == EXIT_OK
    assert "findings: 11" in stdout


def test_analyze_rejects_workers_below_one(tmp_path, capsys):
    code, stdout, stderr = run(
        ["analyze", "--src", str(CORPUS), "--out", str(tmp_path / "o"), "--workers", "0"], capsys
    )
    assert code == EXIT_FATAL
    assert stderr == "error: --workers must be >= 1\n"
    assert stdout == ""


def test_analyze_survives_deep_expression_nesting(tmp_path, capsys):
    # A 1,500-term '+' chain parses into a left-deep tree far deeper than
    # the interpreter's recursion limit; every walk after parsing must cope.
    # 100 nested parentheses stay within what the parser itself can nest.
    chain = " + ".join(f'"s{i}"' for i in range(1500))
    parens = "(" * 100 + "1" + ")" * 100
    alone, both = tmp_path / "alone", tmp_path / "both"
    for src in (alone, both):
        src.mkdir()
        shutil.copy(CORPUS / "OneShotTask.java", src / "OneShotTask.java")
    (both / "Deep.java").write_text(
        f"public class Deep {{\n    public String chain() {{\n        return {chain};\n    }}\n"
        f"    public int parens() {{\n        return {parens};\n    }}\n}}\n",
        encoding="utf-8",
    )
    findings = {}
    for src in (alone, both):
        out = tmp_path / f"out-{src.name}"
        code, _, _ = run(
            ["analyze", "--src", str(src), "--out", str(out), "--timestamp", "2024-01-01T00:00:00"],
            capsys,
        )
        assert code == EXIT_OK
        assert all((out / name).exists() for name in ("provenance.log", "report.json", "metrics.csv"))
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        findings[src.name] = [f for f in report["findings"] if f["file"] == "OneShotTask.java"]
    assert findings["alone"] and findings["both"] == findings["alone"]


def test_analyze_metrics_write_error_is_fatal(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "metrics.csv").mkdir(parents=True)
    code, _, stderr = run(
        ["analyze", "--src", str(CORPUS), "--out", str(out), "--timestamp", "2024-01-01T00:00:00"],
        capsys,
    )
    assert code == EXIT_FATAL
    assert stderr.startswith("error: cannot write") and "metrics.csv" in stderr


def test_analyze_evaluation_write_error_is_fatal(tmp_path, capsys):
    out = tmp_path / "out"
    (out / "evaluation.csv").mkdir(parents=True)
    code, _, stderr = run(
        [
            "analyze",
            "--src", str(CORPUS),
            "--out", str(out),
            "--truth", str(CORPUS_TRUTH),
            "--timestamp", "2024-01-01T00:00:00",
        ],
        capsys,
    )
    assert code == EXIT_FATAL
    assert stderr.startswith("error: cannot write") and "evaluation.csv" in stderr


@pytest.mark.parametrize("command", ["analyze", "evaluate", "compare"])
def test_out_naming_an_existing_file_is_fatal(tmp_path, capsys, command):
    report_dir = tmp_path / "report"
    code, _, _ = run(
        ["analyze", "--src", str(CORPUS), "--out", str(report_dir)],
        capsys,
    )
    assert code == EXIT_OK
    report = str(report_dir / "report.json")
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n", encoding="utf-8")
    argv = {
        "analyze": ["analyze", "--src", str(CORPUS)],
        "evaluate": ["evaluate", report, "--truth", str(CORPUS_TRUTH)],
        "compare": ["compare", report],
    }[command]
    code, _, stderr = run(argv + ["--out", str(taken)], capsys)
    assert code == EXIT_FATAL
    assert stderr.startswith("error: cannot create output directory") and str(taken) in stderr
    assert taken.read_text(encoding="utf-8") == "not a directory\n"


def _fatal_case(name, tmp_path):
    """argv and the exact stderr line for one fatal path no other test reaches."""
    analyze = ["analyze", "--src", str(CORPUS), "--out", str(tmp_path / "out")]
    missing = tmp_path / "missing"
    if name == "unknown-config-key":
        cfg = tmp_path / "rules.conf"
        cfg.write_text("no.such.key = 1\n", encoding="utf-8")
        return analyze + ["--config", str(cfg)], f"{cfg}:1: unknown key 'no.such.key'"
    if name == "missing-config-file":
        return (
            analyze + ["--config", str(missing)],
            f"[Errno 2] No such file or directory: '{missing}'",
        )
    if name == "non-integer-metadata-count":
        meta = tmp_path / "repo.meta"
        write_meta(meta, "many", 10, 1)
        return analyze + ["--metadata", str(meta)], f"non-integer count in {meta}"
    if name == "bad-timestamp":
        return analyze + ["--timestamp", "yesterday"], "bad ISO-8601 timestamp 'yesterday'"
    if name == "malformed-truth-line":
        truth = tmp_path / "truth.tsv"
        truth.write_text("sample.Shape WideHierarchy tp\n", encoding="utf-8")
        return (
            analyze + ["--truth", str(truth)],
            f"{truth}:1: expected 3 tab-separated fields, got 1",
        )
    if name == "unknown-kinds-name":
        from javasmell.report import build_report, write_report_json

        report = tmp_path / "report.json"
        write_report_json(build_report("p", []), report)
        truth = tmp_path / "truth.tsv"
        truth.write_text("", encoding="utf-8")
        argv = ["evaluate", str(report), "--truth", str(truth), "--out", str(tmp_path / "out")]
        return argv + ["--kinds", "WideHierarchy,Bogus"], "unknown smell kind 'Bogus'"
    if name == "missing-compare-report":
        return (
            ["compare", str(missing), "--out", str(tmp_path / "out")],
            f"[Errno 2] No such file or directory: '{missing}'",
        )
    assert name == "missing-evaluate-report"
    argv = ["evaluate", str(missing), "--truth", str(CORPUS_TRUTH), "--out", str(tmp_path / "out")]
    return argv, f"[Errno 2] No such file or directory: '{missing}'"


@pytest.mark.parametrize("name", [
    "unknown-config-key",
    "missing-config-file",
    "non-integer-metadata-count",
    "bad-timestamp",
    "malformed-truth-line",
    "unknown-kinds-name",
    "missing-compare-report",
    "missing-evaluate-report",
])
def test_fatal_input_is_one_error_line(tmp_path, capsys, name):
    argv, message = _fatal_case(name, tmp_path)
    code, _, stderr = run(argv, capsys)
    assert code == EXIT_FATAL
    assert stderr == f"error: {message}\n"
    assert "Traceback" not in stderr


@pytest.mark.parametrize("name", [
    "unknown-config-key",
    "missing-config-file",
    "non-integer-metadata-count",
    "bad-timestamp",
    "malformed-truth-line",
])
def test_analyze_checks_its_inputs_before_creating_out(tmp_path, capsys, name):
    argv, _ = _fatal_case(name, tmp_path)
    code, _, _ = run(argv, capsys)
    assert code == EXIT_FATAL
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["analyze", "evaluate"])
def test_undecodable_truth_is_one_error_line(tmp_path, capsys, command):
    report_dir = tmp_path / "report"
    assert run(["analyze", "--src", str(CORPUS), "--out", str(report_dir)], capsys)[0] == EXIT_OK
    truth = tmp_path / "truth.tsv"
    truth.write_bytes(b"sample.Shape\tWideHierarchy\ttp\xff\n")
    argv = {
        "analyze": ["analyze", "--src", str(CORPUS)],
        "evaluate": ["evaluate", str(report_dir / "report.json")],
    }[command]
    code, _, stderr = run(argv + ["--truth", str(truth), "--out", str(tmp_path / "out")], capsys)
    assert code == EXIT_FATAL
    assert stderr.startswith(f"error: {truth}: 'utf-8' codec can't decode byte 0xff")
    assert stderr.count("\n") == 1


INPUTS = [
    "config", "analyze-metadata", "classify-metadata", "analyze-truth", "evaluate-truth",
    "evaluate-report", "compare-report",
]


def _one_input(name, tmp_path, capsys):
    """argv of a command that reads the input *name* from ``tmp_path/input``,
    that path, and valid bytes for it."""
    path = tmp_path / "input"
    out = tmp_path / "out"
    analyze = ["analyze", "--src", str(CORPUS), "--out", str(out), "--timestamp", "2024-01-01T00:00:00"]
    if name == "config":
        return analyze + ["--config", str(path)], path, b"wide_hierarchy.min_children = 12\n"
    if name.endswith("metadata"):
        write_meta(path, 412, 10, 1)
        argv = analyze if name == "analyze-metadata" else ["classify"]
        return argv + ["--metadata", str(path)], path, path.read_bytes()
    if name == "analyze-truth":
        return analyze + ["--truth", str(path)], path, CORPUS_TRUTH.read_bytes()
    report = analyze_corpus(tmp_path, capsys, "report") / "report.json"
    if name == "evaluate-truth":
        argv = ["evaluate", str(report), "--truth", str(path), "--out", str(out)]
        return argv, path, CORPUS_TRUTH.read_bytes()
    if name == "evaluate-report":
        argv = ["evaluate", str(path), "--truth", str(CORPUS_TRUTH), "--out", str(out)]
        return argv, path, report.read_bytes()
    assert name == "compare-report"
    other = report.read_bytes().replace(b'"project_name": "corpus"', b'"project_name": "other"', 1)
    return ["compare", str(report), str(path), "--out", str(out)], path, other


@pytest.mark.parametrize("name", INPUTS)
def test_undecodable_input_is_one_error_line_naming_it(tmp_path, capsys, name):
    argv, path, text = _one_input(name, tmp_path, capsys)
    path.write_bytes(text + b"\xff")
    code, _, stderr = run(argv, capsys)
    assert code == EXIT_FATAL
    assert stderr.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")
    assert stderr.count("\n") == 1


@pytest.mark.parametrize("name", INPUTS)
def test_input_with_a_bom_reads_as_without(tmp_path, capsys, name):
    argv, path, text = _one_input(name, tmp_path, capsys)
    results = []
    for bom in (b"", b"\xef\xbb\xbf"):
        path.write_bytes(bom + text)
        code, stdout, stderr = run(argv, capsys)
        outputs = {p.name: p.read_bytes() for p in sorted((tmp_path / "out").glob("*"))}
        results.append((code, stdout, stderr, outputs))
    assert results[0][0] == EXIT_OK
    assert results[1] == results[0]
