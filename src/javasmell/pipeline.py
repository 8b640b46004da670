"""End-to-end analysis: scan, parse, model, metrics, smells.

File discovery matches the ``.java`` suffix case-sensitively and never
follows symbolic links. Files may be parsed on several threads, which share
the interpreter lock and so gain no speed; results are merged over a
canonically sorted path list, so output is identical for any worker count
or enumeration order. A file that fails to lex/parse/decode is
recorded as a failure and the rest of the corpus is still analyzed.
"""

from __future__ import annotations

import gc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .lexer import LexError, SourceFile, code_line_numbers, tokenize
from .metrics import compute_type_metrics, project_metrics
from . import parser
from .model import PseudoModel, build_model
from .parser import ParsedFile, ParseError
from .smells import RuleConfig, detect_all


@dataclass
class FileFailure:
    path: str
    error: str


@dataclass
class AnalysisResult:
    model: PseudoModel
    type_metrics: dict
    project_metrics: object
    findings: list
    failures: list = field(default_factory=list)
    parse_diagnostics: list = field(default_factory=list)

    @property
    def partial(self) -> bool:
        return bool(self.failures)


def find_java_files(root) -> list:
    """All non-symlink ``.java`` files under *root*, canonically sorted."""
    root = Path(root)
    found = []
    for path in root.rglob("*"):
        if path.is_symlink():
            continue
        if path.is_file() and path.suffix == ".java":
            found.append(path)
    return sorted(found, key=lambda p: p.relative_to(root).as_posix())


def parse_one(path: Path, root: Path) -> ParsedFile:
    return parse_file(SourceFile.from_path(path, root))


def parse_file(src: SourceFile) -> ParsedFile:
    """Lex and parse one source file to its facts and code lines. The
    tokens are dropped on return."""
    toks = tokenize(src)
    parsed = parser.parse(toks, src)
    parsed.code_lines = tuple(sorted(code_line_numbers(toks)))
    return parsed


def analyze_paths(root, paths, config: RuleConfig | None = None, workers: int = 1) -> AnalysisResult:
    """Analyze an explicit file list (order-insensitive).

    The cyclic garbage collector is paused for the run and then left as it
    was found. That is safe because the analysis builds no reference
    cycles: each file's tokens are freed by reference counting once it is
    parsed, and the collector would only re-scan
    the growing facts and free nothing (``tests/test_pipeline.py`` checks
    that a collection right after a run finds no garbage).
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return _analyze(Path(root), paths, config or RuleConfig(), workers)
    finally:
        if was_enabled:
            gc.enable()


def _analyze(root: Path, paths, config: RuleConfig, workers: int) -> AnalysisResult:
    ordered = sorted(paths, key=lambda p: Path(p).relative_to(root).as_posix())

    def safe_parse(path):
        try:
            return parse_one(Path(path), root)
        except (LexError, ParseError, UnicodeDecodeError, OSError) as err:
            rel = Path(path).relative_to(root).as_posix()
            return FileFailure(rel, str(err))

    if workers > 1 and len(ordered) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(safe_parse, ordered))
    else:
        results = [safe_parse(p) for p in ordered]

    parsed = [r for r in results if isinstance(r, ParsedFile)]
    failures = [r for r in results if isinstance(r, FileFailure)]
    diagnostics = [d for pf in parsed for d in pf.diagnostics]

    model = build_model(parsed)
    tm = compute_type_metrics(model)
    pm = project_metrics(model, tm)
    findings = detect_all(model, tm, config)
    return AnalysisResult(
        model=model,
        type_metrics=tm,
        project_metrics=pm,
        findings=findings,
        failures=failures,
        parse_diagnostics=diagnostics,
    )


def analyze_tree(root, config: RuleConfig | None = None, workers: int = 1) -> AnalysisResult:
    return analyze_paths(root, find_java_files(root), config, workers)
