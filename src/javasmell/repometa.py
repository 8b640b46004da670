"""Repository metadata and the developing/established maturity rule.

Developing: commits <= 2000, contributors <= 30, last commit within 9
calendar months of the analysis date, and at most 2 releases. Established:
commits > 2000, contributors > 30, at least 2 releases. The two criteria sets
do not partition the space, so anything else is Unclassified and the
rationale spells out exactly which checks blocked each class.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass
from enum import Enum

from .files import FatalError, key_values


class Maturity(Enum):
    DEVELOPING = "Developing"
    ESTABLISHED = "Established"
    UNCLASSIFIED = "Unclassified"


@dataclass
class MaturityClass:
    label: Maturity
    rationale: list


@dataclass
class RepoMetadata:
    commits: int
    contributors: int
    releases: int
    last_commit_date: dt.date
    analysis_date: dt.date

    def __post_init__(self):
        if min(self.commits, self.contributors, self.releases) < 0:
            raise FatalError("counts must be non-negative")
        if self.last_commit_date > self.analysis_date:
            raise FatalError("last_commit_date is after analysis_date")


def add_months(day: dt.date, months: int) -> dt.date:
    """Calendar-month addition with day-of-month clamping."""
    month_index = day.month - 1 + months
    year = day.year + month_index // 12
    month = month_index % 12 + 1
    # Clamp to the last day of the target month.
    last = (dt.date(year + (month == 12), month % 12 + 1, 1) - dt.timedelta(days=1)).day
    return dt.date(year, month, min(day.day, last))


def classify(meta: RepoMetadata) -> MaturityClass:
    recent = add_months(meta.last_commit_date, 9) >= meta.analysis_date
    dev_checks = [
        ("commits <= 2000", meta.commits <= 2000, meta.commits),
        ("contributors <= 30", meta.contributors <= 30, meta.contributors),
        ("last commit within 9 months", recent, meta.last_commit_date.isoformat()),
        ("releases <= 2", meta.releases <= 2, meta.releases),
    ]
    est_checks = [
        ("commits > 2000", meta.commits > 2000, meta.commits),
        ("contributors > 30", meta.contributors > 30, meta.contributors),
        ("releases >= 2", meta.releases >= 2, meta.releases),
    ]
    rationale = [
        f"developing: {name}: {'pass' if ok else 'fail'} ({value})"
        for name, ok, value in dev_checks
    ] + [
        f"established: {name}: {'pass' if ok else 'fail'} ({value})"
        for name, ok, value in est_checks
    ]
    if all(ok for _, ok, _ in dev_checks):
        return MaturityClass(Maturity.DEVELOPING, rationale)
    if all(ok for _, ok, _ in est_checks):
        return MaturityClass(Maturity.ESTABLISHED, rationale)
    return MaturityClass(Maturity.UNCLASSIFIED, rationale)


def _parse_date(values: dict, key: str):
    text = values[key]
    try:
        return dt.date.fromisoformat(text[:10]) if "T" in text else dt.date.fromisoformat(text)
    except ValueError:
        raise FatalError(f"{key}: bad ISO-8601 date {text!r}") from None


def load_metadata(path) -> RepoMetadata:
    """Key/value metadata file: commits, contributors, releases,
    last_commit_date, optional analysis_date (defaults to today). Every
    error names the file."""
    values = {key: value for _, key, value in key_values(path)}
    try:
        return RepoMetadata(
            int(values["commits"]),
            int(values["contributors"]),
            int(values["releases"]),
            _parse_date(values, "last_commit_date"),
            _parse_date(values, "analysis_date") if "analysis_date" in values else dt.date.today(),
        )
    except KeyError as err:
        raise FatalError(f"missing key {err.args[0]!r} in {path}") from None
    except ValueError:
        raise FatalError(f"non-integer count in {path}") from None
    except FatalError as err:
        raise FatalError(f"{path}: {err}") from None
