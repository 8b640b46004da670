import datetime as dt
import random

import pytest

from javasmell.files import FatalError
from javasmell.repometa import (
    Maturity,
    RepoMetadata,
    add_months,
    classify,
    load_metadata,
)

MAY_2019 = dt.date(2019, 5, 1)


def meta(commits, contributors, releases=1, last=dt.date(2019, 4, 1), analysis=MAY_2019):
    return RepoMetadata(commits, contributors, releases, last, analysis)


def test_developing_row():
    # The Yade-shaped row: 1871 commits, 22 contributors, recent, few releases.
    verdict = classify(meta(1871, 22, releases=1))
    assert verdict.label is Maturity.DEVELOPING


def test_established_row():
    # The RxJava-shaped row: 5531 commits, 240 contributors.
    verdict = classify(meta(5531, 240, releases=5))
    assert verdict.label is Maturity.ESTABLISHED


def test_gap_case_unclassified_with_rationale():
    verdict = classify(meta(2500, 10, releases=1))
    assert verdict.label is Maturity.UNCLASSIFIED
    assert any("developing: commits <= 2000: fail" in line for line in verdict.rationale)
    assert any("established: contributors > 30: fail" in line for line in verdict.rationale)


def test_rationale_lists_every_criterion():
    verdict = classify(meta(100, 5))
    assert len(verdict.rationale) == 7  # four developing + three established checks


def test_stale_activity_blocks_developing():
    verdict = classify(meta(100, 5, last=dt.date(2018, 2, 1), analysis=MAY_2019))
    assert verdict.label is Maturity.UNCLASSIFIED
    assert any("within 9 months: fail" in line for line in verdict.rationale)


def test_criteria_are_disjoint():
    rng = random.Random(3)
    for _ in range(300):
        m = meta(
            rng.randint(0, 30000),
            rng.randint(0, 400),
            releases=rng.randint(0, 10),
            last=dt.date(2019, rng.randint(1, 4), rng.randint(1, 28)),
        )
        verdict = classify(m)
        dev_ok = (
            m.commits <= 2000
            and m.contributors <= 30
            and add_months(m.last_commit_date, 9) >= m.analysis_date
            and m.releases <= 2
        )
        est_ok = m.commits > 2000 and m.contributors > 30 and m.releases >= 2
        assert not (dev_ok and est_ok)  # commit bounds are disjoint
        expected = (
            Maturity.DEVELOPING if dev_ok else Maturity.ESTABLISHED if est_ok else Maturity.UNCLASSIFIED
        )
        assert verdict.label is expected


def test_classify_pure():
    a = classify(meta(100, 2))
    b = classify(meta(100, 2))
    assert a == b


def test_month_clamping():
    assert add_months(dt.date(2018, 5, 31), 9) == dt.date(2019, 2, 28)
    assert add_months(dt.date(2019, 12, 31), 2) == dt.date(2020, 2, 29)
    assert add_months(dt.date(2019, 1, 15), 9) == dt.date(2019, 10, 15)


def test_invalid_metadata():
    with pytest.raises(FatalError):
        meta(-1, 0)
    with pytest.raises(FatalError):
        meta(1, 1, last=dt.date(2020, 1, 1), analysis=dt.date(2019, 1, 1))


# ----------------------------------------------------------------------
# metadata file


def test_load_metadata(tmp_path):
    f = tmp_path / "repo.meta"
    f.write_text(
        "# sample\ncommits = 412\ncontributors = 10\nreleases = 1\n"
        "last_commit_date = 2019-05-01\nanalysis_date = 2019-05-20\n",
        encoding="utf-8",
    )
    m = load_metadata(f)
    assert (m.commits, m.contributors, m.releases) == (412, 10, 1)
    assert classify(m).label is Maturity.DEVELOPING


def test_load_metadata_ignores_a_utf8_bom(tmp_path):
    f = tmp_path / "repo.meta"
    f.write_text(
        "\ufeffcommits = 412\ncontributors = 10\nreleases = 1\n"
        "last_commit_date = 2019-05-01\nanalysis_date = 2019-05-20\n",
        encoding="utf-8",
    )
    assert load_metadata(f).commits == 412


def test_load_metadata_missing_key(tmp_path):
    f = tmp_path / "repo.meta"
    f.write_text("commits = 1\n", encoding="utf-8")
    with pytest.raises(FatalError, match="missing key"):
        load_metadata(f)


def test_load_metadata_bad_date(tmp_path):
    f = tmp_path / "repo.meta"
    f.write_text(
        "commits = 1\ncontributors = 1\nreleases = 1\nlast_commit_date = 2019-13-01\n",
        encoding="utf-8",
    )
    with pytest.raises(FatalError, match="bad ISO-8601"):
        load_metadata(f)
