"""File discovery, and the garbage-collector pause around ``analyze_paths``.

``find_java_files`` follows no symbolic link, matches ``.java`` case-
sensitively, skips a directory it may not list and orders files by relative
POSIX path.

``analyze_paths`` disables the cyclic collector for its run. These tests
check that it leaves the collector as it found it, also when the analysis
raises, and that the pause keeps no memory: the analysis builds no reference
cycles, so a collection right after it finds nothing unreachable.
"""

import gc
import os
import shutil

import pytest

from javasmell import pipeline
from javasmell.pipeline import analyze_paths, analyze_tree, find_java_files

from conftest import CORPUS


def java_tree(root):
    """A tree whose ``.java`` files are found in the order returned, next to
    entries discovery must skip."""
    outside = root.parent / "outside"
    outside.mkdir()
    (outside / "O.java").write_text("class O { }", encoding="utf-8")
    for rel in ("a/B.java", "a.b/C.java", "X.java/Y.java", "A.JAVA", ".java", "locked/L.java"):
        (root / rel).parent.mkdir(parents=True, exist_ok=True)
        (root / rel).write_text("class Z { }", encoding="utf-8")
    (root / "Link.java").symlink_to(outside / "O.java")
    (root / "linked").symlink_to(outside, target_is_directory=True)
    return ["X.java/Y.java", "a.b/C.java", "a/B.java", "locked/L.java"]


def test_discovery_follows_no_link_and_orders_by_relative_path(tmp_path):
    root = tmp_path / "src"
    expected = java_tree(root)
    for given in (root, str(root)):
        found = find_java_files(given)
        assert [p.relative_to(root).as_posix() for p in found] == expected
        assert all(p.is_file() for p in found)


def test_discovery_skips_a_directory_it_may_not_list(tmp_path, monkeypatch):
    root = tmp_path / "src"
    expected = java_tree(root)
    scandir = os.scandir

    def refuse_locked(path="."):
        if os.path.basename(os.fspath(path)) == "locked":
            raise PermissionError(13, "Permission denied", os.fspath(path))
        return scandir(path)

    monkeypatch.setattr(os, "scandir", refuse_locked)
    assert [p.relative_to(root).as_posix() for p in find_java_files(root)] == expected[:-1]


def test_discovery_of_a_missing_root_is_empty(tmp_path):
    assert find_java_files(tmp_path / "missing") == []


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
