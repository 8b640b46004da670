"""Smoke test of ``tests/differential.py`` on HEAD's source against itself."""

import shutil
import subprocess
from collections import Counter

import pytest

import differential


def test_200_mutants_of_head_against_head_differ_nowhere(tmp_path):
    head = subprocess.run(["git", "-C", str(differential.ROOT), "rev-parse", "--verify", "HEAD"],
                          capture_output=True) if shutil.which("git") else None
    if head is None or head.returncode:
        pytest.skip("needs git and a checkout with a commit")
    src = differential.extract("HEAD", tmp_path)
    made = differential.mutants(200, 1)
    assert Counter(kind for kind, _, _ in made) == dict.fromkeys(differential.KINDS, 40)
    assert differential.compare(src, src, made, tmp_path / "out") == Counter(total=0)
    assert not (tmp_path / "out").exists()
