"""End-to-end analysis: scan, parse, model, metrics, smells.

File discovery matches the ``.java`` suffix case-sensitively and never
follows symbolic links. Files are parsed one after another in canonically
sorted path order, so output is identical for any enumeration order. A file
that cannot be read, decoded, lexed or parsed (an ``OSError``, a
``UnicodeDecodeError`` or the lexer's ``ParseError``) is recorded as a
failure with the error's text, and the rest of the corpus is still analyzed.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from pathlib import Path

from .lexer import ParseError, SourceFile, tokenize
from .metrics import compute_type_metrics, project_metrics
from . import parser
from .model import PseudoModel, build_model
from .parser import ParsedFile
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
    parse_diagnostics: list = field(default_factory=list)  # '<path>:<line>:<col>: <message>' lines

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
    return parser.parse(tokenize(src), src)


def parse_source(text: str, path: str = "<memory>.java") -> ParsedFile:
    """Parse Java *text* as if read from *path*."""
    return parse_file(SourceFile(path, text))


def build_from_sources(sources: dict) -> PseudoModel:
    """Build a model straight from {path: java source text}."""
    return build_model(parse_source(text, path) for path, text in sources.items())


def analyze_paths(root, paths, config: RuleConfig | None = None) -> AnalysisResult:
    """Analyze an explicit file list (order-insensitive), one file after
    another in sorted path order.

    The cyclic garbage collector is paused for the run and then left as it
    was found. That is safe because the analysis builds no reference
    cycles: each file's tokens are freed by reference counting once it is
    parsed, and the collector would only re-scan the growing facts and free
    nothing (``tests/test_pipeline.py`` checks that a collection right after
    a run finds no garbage).
    """
    root = Path(root)
    config = config or RuleConfig()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        parsed, failures = [], []
        for path in sorted(map(Path, paths), key=lambda p: p.relative_to(root).as_posix()):
            try:
                parsed.append(parse_one(path, root))
            except (ParseError, UnicodeDecodeError, OSError) as err:
                failures.append(FileFailure(path.relative_to(root).as_posix(), str(err)))

        model = build_model(parsed)
        tm = compute_type_metrics(model)
        return AnalysisResult(
            model=model,
            type_metrics=tm,
            project_metrics=project_metrics(model, tm),
            findings=detect_all(model, tm, config),
            failures=failures,
            parse_diagnostics=[
                f"{pf.path}:{d.line}:{d.col}: {d.message}" for pf in parsed for d in pf.diagnostics
            ],
        )
    finally:
        if was_enabled:
            gc.enable()


def analyze_tree(root, config: RuleConfig | None = None) -> AnalysisResult:
    return analyze_paths(root, find_java_files(root), config)
