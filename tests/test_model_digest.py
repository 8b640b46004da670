"""Pinned model graphs and line counts for the fixture corpus and the
hand-written projects of ``test_analysis_digest.py``.

Every project is modelled and reduced to one line per view: a digest of the
dependency graph (edges between project types only), the subtype lists,
the incoming sets, the top-level type count per file and the code lines per
file, and the plain file count and ``total_loc``. None of these projects has an
ambiguous import or a duplicate type.

The lines in ``fixtures/model_digests.txt`` were written by

    PYTHONPATH=src python tests/test_model_digest.py

Any change to what the model resolves or counts shows up here. Rewrite the
file with the command above only when such a change is intended.
"""

import hashlib
import sys
from pathlib import Path

from javasmell.metrics import compute_type_metrics, project_metrics
from javasmell.pipeline import analyze_tree, build_from_sources

sys.path.insert(0, str(Path(__file__).parent))
from conftest import CORPUS  # noqa: E402
from test_analysis_digest import HAND_WRITTEN  # noqa: E402

DIGESTS = Path(__file__).parent / "fixtures" / "model_digests.txt"


def _canonical(mapping: dict) -> list:
    out = []
    for key in sorted(mapping):
        value = mapping[key]
        if isinstance(value, (set, frozenset, list, tuple)):
            value = [repr(v) for v in sorted(value)]
        out.append((key, value))
    return out


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()[:16]


def projects():
    """(name, model) pairs, in a fixed order."""
    yield "corpus", analyze_tree(CORPUS).model
    combined = {}
    for name, sources in HAND_WRITTEN.items():
        combined.update(sources)
        yield name, build_from_sources(sources)
    yield "hand_written_together", build_from_sources(combined)


def lines(name: str, model) -> list:
    views = {
        "deps": model.deps,
        "subtypes": model.subtypes,
        "incoming": model.incoming,
        "file_top_level": model.file_top_level,
        "file_code_lines": model.file_code_lines,
    }
    out = [f"{name} {view} {_digest(_canonical(value))}" for view, value in views.items()]
    out.append(f"{name} files {len(model.file_code_lines)}")
    out.append(f"{name} total_loc {project_metrics(model, compute_type_metrics(model)).total_loc}")
    return out


def current() -> list:
    result = []
    for name, model in projects():
        codes = {d.code for d in model.diagnostics}
        assert not codes & {"ambiguous-import", "duplicate-type"}, (name, codes)
        result += lines(name, model)
    return result


def test_model_views_match_pinned_digests():
    expected = DIGESTS.read_text(encoding="utf-8").splitlines()
    actual = current()
    assert len(actual) == len(expected)
    changed = [a for a, e in zip(actual, expected) if a != e]
    assert not changed, f"{len(changed)} views differ, first: {changed[:5]}"


if __name__ == "__main__":
    DIGESTS.write_text("\n".join(current()) + "\n", encoding="utf-8")
