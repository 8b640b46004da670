"""The garbage-collector pause around ``analyze_paths``.

``analyze_paths`` disables the cyclic collector for its run. These tests
check that it leaves the collector as it found it, also when the analysis
raises, and that the pause keeps no memory: the analysis builds no reference
cycles, so a collection right after it finds nothing unreachable.
"""

import gc
import shutil

import pytest

from javasmell import pipeline
from javasmell.pipeline import analyze_paths, analyze_tree, find_java_files

from conftest import CORPUS


def set_collector(enabled: bool):
    if enabled:
        gc.enable()
    else:
        gc.disable()


@pytest.fixture
def gc_state():
    """Restore the collector's state after the test, whatever it did."""
    was_enabled = gc.isenabled()
    yield
    set_collector(was_enabled)


@pytest.mark.parametrize("enabled", [True, False])
def test_analyze_paths_leaves_the_collector_as_found(gc_state, enabled):
    set_collector(enabled)
    result = analyze_paths(CORPUS, find_java_files(CORPUS))
    assert result.model.types
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_analyze_paths_restores_the_collector_when_it_raises(gc_state, monkeypatch, enabled):
    def fail(parsed):
        assert not gc.isenabled()
        raise RuntimeError("model failed")

    monkeypatch.setattr(pipeline, "build_model", fail)
    set_collector(enabled)
    with pytest.raises(RuntimeError, match="model failed"):
        analyze_paths(CORPUS, find_java_files(CORPUS))
    assert gc.isenabled() is enabled


def malformed_tree(root):
    """Files that fail to lex, fail to parse, fail to decode or parse with
    diagnostics, next to two good ones."""
    root.mkdir()
    shutil.copy(CORPUS / "OneShotTask.java", root / "OneShotTask.java")
    files = {
        "Unterminated.java": "class U { String s = \"open; }",
        "OpenComment.java": "class C { /* never closed",
        "Illegal.java": "class I { int x = `; }",
        "NoDecl.java": "int x = 1;",
        "Diagnostics.java": (
            "class D {\n    record R(int x) { }\n    @interface A { }\n"
            "    void m() { Object o = new Object() { }; int y = switch (1) { default -> 2; }; }\n"
            "    void broken( { }\n}\n"
        ),
        "Marker.java": "@interface Marker { }",
    }
    for name, text in files.items():
        (root / name).write_text(text, encoding="utf-8")
    (root / "Latin1.java").write_bytes(b"class L { String s = \"\xe9\"; }")
    return root


@pytest.mark.parametrize("runs", [1, 2])
def test_analysis_leaves_no_garbage_on_the_fixture_corpus(gc_state, runs):
    gc.collect()
    gc.disable()
    for _ in range(runs):
        result = analyze_tree(CORPUS)
    assert gc.collect() == 0
    assert result.findings and not result.failures


def test_analysis_leaves_no_garbage_on_malformed_files(gc_state, tmp_path):
    root = malformed_tree(tmp_path / "src")
    gc.collect()
    gc.disable()
    result = analyze_tree(root)
    assert gc.collect() == 0
    assert sorted(f.path for f in result.failures) == [
        "Illegal.java", "Latin1.java", "NoDecl.java", "OpenComment.java", "Unterminated.java",
    ]
    assert result.parse_diagnostics == [
        "Diagnostics.java:2:5: record declaration skipped",
        "Diagnostics.java:3:5: annotation type declaration skipped",
        "Diagnostics.java:4:27: anonymous class body skipped",
        "Diagnostics.java:4:53: switch expression consumed opaquely",
        "Diagnostics.java:5:18: expected type, found '{'",
        "Marker.java:1:1: annotation type declaration skipped",
    ]


def test_parsed_file_keeps_the_path_not_the_source_text():
    import weakref

    from javasmell.lexer import SourceFile

    src = SourceFile("p/A.java", "package p;\nclass A { int f() { return 1; } }\n")
    source_ref = weakref.ref(src)
    parsed = pipeline.parse_file(src)
    del src
    assert source_ref() is None  # nothing in the parse result refers to the source
    assert parsed.path == "p/A.java"
    assert len(parsed.code_lines) == 2
