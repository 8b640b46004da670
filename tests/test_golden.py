"""Byte-exact outputs of ``analyze`` on the fixture corpus.

The files under ``fixtures/expected`` were written by

    javasmell analyze --src tests/fixtures/corpus --out tests/fixtures/expected \\
        --timestamp 2024-01-01T00:00:00 --truth tests/fixtures/corpus_truth.tsv

Any change to a rule, a metric, the config echo or an emitter shows up here
as a differing file. Regenerate them with the command above only when an
output change is intended.
"""

import pytest

from javasmell.cli import EXIT_OK, main

from conftest import CORPUS, CORPUS_TRUTH, FIXTURES

EXPECTED = FIXTURES / "expected"
OUTPUTS = ("report.json", "provenance.log", "metrics.csv", "evaluation.csv")


@pytest.fixture(scope="module")
def analyzed(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    code = main([
        "analyze",
        "--src", str(CORPUS),
        "--out", str(out),
        "--timestamp", "2024-01-01T00:00:00",
        "--truth", str(CORPUS_TRUTH),
    ])
    assert code == EXIT_OK
    return out


@pytest.mark.parametrize("name", OUTPUTS)
def test_fixture_corpus_output_is_byte_identical(analyzed, name):
    assert (analyzed / name).read_bytes() == (EXPECTED / name).read_bytes()
