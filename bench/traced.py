"""Run one `javasmell` command in this process, optionally traced.

    python3 bench/traced.py --mode plain|traced --result R.json -- analyze ...

Both modes time `javasmell.cli.main(argv)` after the package is imported,
so the two differ only by the tracer. In traced mode the public functions
that `cli.cmd_analyze` and `pipeline.analyze_paths` call are wrapped for
this process only; each call leaves a span (name, start, end, thread, the
span that caused it, counts taken from its result). Spans stay in memory
and are written to the result file when the command has finished. The
process exits with the command's exit code.
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        pages = int(fh.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 1e6


def count_nodes(unit) -> int:
    n, stack = 0, [unit]
    while stack:
        node = stack.pop()
        n += 1
        stack.extend(node.children)
    return n


class Tracer:
    """Spans around calls into javasmell's modules, kept in memory."""

    def __init__(self):
        self.spans: list = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list = []

    def _stack(self) -> list:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, owner, attr: str, name: str, counts=None, enter=None):
        """Replace owner.attr by a wrapper recording span *name*.

        *counts(result)* gives counts for the span after it has closed;
        *enter()* gives values sampled when the call starts. A missing
        attribute is skipped, and its metrics read 0.
        """
        static = inspect.getattr_static(owner, attr, None)
        if static is None:
            return
        original = getattr(owner, attr)
        spans, stack_of, main_stack = self.spans, self._stack, self._main_stack

        def wrapper(*args, **kwargs):
            stack = stack_of()
            # A worker thread's first span was caused by the main thread's
            # innermost open span.
            parent = stack[-1] if stack else (main_stack[-1] if main_stack else None)
            span = {"name": name, "thread": threading.get_ident(), "parent": parent}
            if enter is not None:
                span.update(enter())
            stack.append(span)
            span["start"] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                spans.append(span)
            if counts is not None:
                span.update(counts(result))
            return result

        if isinstance(static, classmethod):
            wrapper = staticmethod(wrapper)  # original is already bound
        setattr(owner, attr, wrapper)

    def install(self):
        from javasmell import cli, lexer, pipeline

        w = self.wrap
        w(cli, "find_java_files", "pipeline.discover", lambda r: {"files": len(r)})
        w(cli, "analyze_paths", "pipeline.analyze")
        w(pipeline, "parse_one", "pipeline.parse_file")
        w(lexer.SourceFile, "from_path", "lexer.read")
        w(pipeline, "tokenize", "lexer.tokenize", lambda r: {"tokens": len(r)})
        w(pipeline, "parse", "parser.parse", lambda r: {
            "nodes": count_nodes(r), "diagnostics": len(r.attrs.get("diagnostics", ()))})
        w(pipeline, "line_stats", "lexer.line_stats")
        w(pipeline, "code_line_numbers", "lexer.code_line_numbers")
        w(pipeline, "build_model", "model.build", lambda m: {
            "types": len(m.types),
            "dep_edges": sum(len(t) for t in m.deps.values()),
            "diagnostics": len(m.diagnostics),
        }, enter=lambda: {"rss_mb": rss_mb()})
        w(pipeline, "compute_type_metrics", "metrics.type")
        w(pipeline, "compute_method_metrics", "metrics.method")
        w(pipeline, "project_metrics", "metrics.project")
        w(pipeline, "detect_all", "smells.detect", lambda r: {"findings": len(r)})
        for fn in ("build_report", "write_provenance", "write_report_json",
                   "write_metrics_csv", "write_evaluation_csv"):
            w(cli, fn, f"report.{fn}")
        for fn in ("load_metadata", "classify", "load_ground_truth", "evaluate"):
            w(cli, fn, f"evaluation.{fn}")

    def export(self) -> list:
        """Spans in start order; parents as indices into the list."""
        ordered = sorted(self.spans, key=lambda s: s["start"])
        index = {id(s): i for i, s in enumerate(ordered)}
        out = []
        for s in ordered:
            row = {k: v for k, v in s.items() if k != "parent"}
            row["parent"] = index.get(id(s["parent"])) if s["parent"] is not None else None
            out.append(row)
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("plain", "traced"), required=True)
    ap.add_argument("--result", required=True, help="JSON file for wall time and spans")
    ap.add_argument("command", nargs=argparse.REMAINDER, help="-- then javasmell arguments")
    args = ap.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    sys.path.insert(0, str(ROOT / "src"))
    from javasmell import cli

    tracer = Tracer()
    if args.mode == "traced":
        tracer.install()
    start = time.perf_counter()
    code = cli.main(command)
    wall = time.perf_counter() - start
    sys.stdout.flush()
    result = {"mode": args.mode, "exit": code, "start": start, "wall_s": wall,
              "spans": tracer.export()}
    Path(args.result).write_text(json.dumps(result) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
