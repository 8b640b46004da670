"""Per-layer metrics and self times derived from the spans of one traced run.

Span names are `<layer>.<call>`; the layers are javasmell's modules
(pipeline, lexer, parser, model, metrics, smells, report, evaluation).
A span's self time is its duration minus the part of it that its child
spans cover. `trace.wall_s` and `trace.overhead_s` are computed by the
caller from the traced and the untraced wall times. The names and units
of all per-layer metrics are listed in BENCHMARK.json.
"""

from __future__ import annotations

def _spans(spans, name):
    return [s for s in spans if s["name"] == name]


def _total(spans, *names) -> float:
    return sum(s["end"] - s["start"] for s in spans if s["name"] in names)


def _count(spans, name, key) -> int:
    return sum(s.get(key, 0) for s in _spans(spans, name))


def layer_metrics(spans: list, report_bytes: int) -> dict:
    """Every per-layer metric but the trace.* ones, from one run's spans."""
    m = {}
    files = _spans(spans, "pipeline.parse_file")
    analyze = _spans(spans, "pipeline.analyze")
    build = _spans(spans, "model.build")
    m["pipeline.discover_s"] = _total(spans, "pipeline.discover")
    m["pipeline.files"] = _count(spans, "pipeline.discover", "files")
    # The front phase runs from the start of analyze_paths to the start of
    # build_model: reading, lexing and parsing every file.
    front = build[0]["start"] - analyze[0]["start"] if analyze and build else 0.0
    m["pipeline.front_phase_s"] = front
    m["pipeline.front_parallelism"] = _total(spans, "pipeline.parse_file") / front if front else 0.0
    m["pipeline.slowest_file_s"] = max((s["end"] - s["start"] for s in files), default=0.0)
    m["pipeline.rss_after_front_mb"] = build[0].get("rss_mb", 0.0) if build else 0.0
    m["lexer.read_s"] = _total(spans, "lexer.read")
    m["lexer.tokenize_s"] = _total(spans, "lexer.tokenize")
    m["lexer.tokens"] = _count(spans, "lexer.tokenize", "tokens")
    m["lexer.tokens_per_s"] = m["lexer.tokens"] / m["lexer.tokenize_s"] if m["lexer.tokenize_s"] else 0.0
    m["lexer.line_stats_s"] = _total(spans, "lexer.line_stats", "lexer.code_line_numbers")
    m["parser.parse_s"] = _total(spans, "parser.parse")
    m["parser.nodes"] = _count(spans, "parser.parse", "nodes")
    m["parser.nodes_per_s"] = m["parser.nodes"] / m["parser.parse_s"] if m["parser.parse_s"] else 0.0
    m["parser.diagnostics"] = _count(spans, "parser.parse", "diagnostics")
    m["model.build_s"] = _total(spans, "model.build")
    for key in ("types", "dep_edges", "diagnostics"):
        m[f"model.{key}"] = _count(spans, "model.build", key)
    m["metrics.type_s"] = _total(spans, "metrics.type")
    m["metrics.method_s"] = _total(spans, "metrics.method")
    m["metrics.project_s"] = _total(spans, "metrics.project")
    m["smells.detect_s"] = _total(spans, "smells.detect")
    m["smells.findings"] = _count(spans, "smells.detect", "findings")
    m["report.emit_s"] = sum(s["end"] - s["start"] for s in spans if s["name"].startswith("report."))
    m["report.bytes"] = report_bytes
    m["evaluation.evaluate_s"] = sum(
        s["end"] - s["start"] for s in spans if s["name"].startswith("evaluation."))
    return m


def _covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list) -> dict:
    """Per span name: calls, total seconds and self seconds."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out: dict = {}
    for i, s in enumerate(spans):
        kids = [(max(c["start"], s["start"]), min(c["end"], s["end"])) for c in children.get(i, ())]
        dur = s["end"] - s["start"]
        row = out.setdefault(s["name"], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += dur
        row["self_s"] += dur - _covered(kids)
    return dict(sorted(out.items(), key=lambda kv: -kv[1]["self_s"]))
