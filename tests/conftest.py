from pathlib import Path

import pytest

from javasmell.pipeline import build_from_sources, parse_source

FIXTURES = Path(__file__).parent / "fixtures"
CORPUS = FIXTURES / "corpus"
CORPUS_TRUTH = FIXTURES / "corpus_truth.tsv"


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def corpus_dir():
    return CORPUS


@pytest.fixture(scope="session")
def corpus_truth_path():
    return CORPUS_TRUTH


@pytest.fixture(scope="session")
def corpus_sources():
    return {p.name: p.read_text(encoding="utf-8") for p in sorted(CORPUS.glob("*.java"))}


@pytest.fixture(scope="session")
def corpus_model(corpus_sources):
    return build_from_sources(corpus_sources)


def parse_java(text, path="Test.java"):
    """The facts of *text*: its ``ParsedFile``."""
    return parse_source(text, path)


def model_of(**sources):
    """Build a model from keyword sources: model_of(A='class A {}')."""
    return build_from_sources({f"{name}.java": text for name, text in sources.items()})


def token_offsets(text, tokens):
    """Offset in *text* of each token, from its line and column."""
    starts = [0] + [k + 1 for k, ch in enumerate(text) if ch == "\n"]
    return [starts[t.line - 1] + t.col - 1 for t in tokens]
