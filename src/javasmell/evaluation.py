"""Precision/recall evaluation against manually validated ground truth.

The ground-truth file is line-oriented TSV: subject, smell name, verdict
(tp | fp | missed), with '#' comments. Every detected finding must carry a
verdict, which forces a complete manual review before numbers are produced.

Two overall precision figures are reported. ``overall_precision`` pools
true positives and detections across kinds (micro average). ``catalog_precision``
is the sum of per-kind precisions divided by the full ten-kind catalog size,
regardless of how many kinds were actually evaluated; that convention is what
the published per-project overall figures follow, so it is kept for
comparability. Kinds with zero detections score a precision of 1.0 and are
marked ``zero_detection``.
"""

from __future__ import annotations

from dataclasses import dataclass

from .files import FatalError, lines
from .smells import SmellKind, kind_from_name

CATALOG_SIZE = len(SmellKind)


@dataclass
class GroundTruth:
    entries: dict  # (subject, SmellKind) -> "tp" | "fp"
    missed: set  # {(subject, SmellKind)} annotated as present but undetected


def load_ground_truth(path) -> GroundTruth:
    entries: dict = {}
    missed: set = set()
    for lineno, line in lines(path):
        parts = line.split("\t")
        if len(parts) != 3:
            raise FatalError(f"{path}:{lineno}: expected 3 tab-separated fields, got {len(parts)}")
        subject, kind_name, verdict = (p.strip() for p in parts)
        try:
            kind = kind_from_name(kind_name)
        except FatalError as err:
            raise FatalError(f"{path}:{lineno}: {err}") from None
        if verdict not in ("tp", "fp", "missed"):
            raise FatalError(f"{path}:{lineno}: verdict must be tp, fp or missed, got {verdict!r}")
        key = (subject, kind)
        if key in entries or key in missed:
            raise FatalError(f"{path}:{lineno}: duplicate annotation for {subject} / {kind.value}")
        if verdict == "missed":
            missed.add(key)
        else:
            entries[key] = verdict
    return GroundTruth(entries, missed)


@dataclass
class KindEval:
    detected: int
    true_positives: int
    precision: float
    recall: float
    zero_detection: bool


@dataclass
class EvaluationResult:
    per_kind: dict  # SmellKind -> KindEval
    overall_detected: int
    overall_tp: int
    overall_precision: float  # pooled (micro)
    overall_recall: float
    catalog_precision: float  # sum of per-kind precisions / catalog size


def evaluate(findings, truth: GroundTruth, kinds=None) -> EvaluationResult:
    """Score *findings* against *truth* over the given kind universe
    (default: the kinds that the truth or the findings name, in catalog
    order)."""
    if kinds is None:
        named = {k for _, k in (*truth.entries, *truth.missed)} | {f.kind for f in findings}
        kinds = [k for k in SmellKind if k in named]
    universe = list(kinds)

    unlabeled = sorted(
        {
            (f.subject, f.kind)
            for f in findings
            if (f.subject, f.kind) not in truth.entries
        },
        key=lambda pair: (pair[0], pair[1].value),
    )
    if unlabeled:
        listing = ", ".join(f"({s}, {k.value})" for s, k in unlabeled)
        raise FatalError(f"findings without ground-truth verdicts: {listing}")

    per_kind: dict = {}
    for kind in universe:
        kind_findings = [f for f in findings if f.kind == kind]
        detected = len(kind_findings)
        tp = sum(1 for f in kind_findings if truth.entries[(f.subject, f.kind)] == "tp")
        missed = sum(1 for subject, k in truth.missed if k == kind)
        precision = tp / detected if detected else 1.0
        recall = tp / (tp + missed) if (tp + missed) else 1.0
        per_kind[kind] = KindEval(detected, tp, precision, recall, detected == 0)

    total_detected = sum(k.detected for k in per_kind.values())
    total_tp = sum(k.true_positives for k in per_kind.values())
    total_missed = sum(1 for _, k in truth.missed if k in per_kind)
    overall_precision = total_tp / total_detected if total_detected else 1.0
    overall_recall = (
        total_tp / (total_tp + total_missed) if (total_tp + total_missed) else 1.0
    )
    catalog_precision = sum(k.precision for k in per_kind.values()) / CATALOG_SIZE
    return EvaluationResult(
        per_kind=per_kind,
        overall_detected=total_detected,
        overall_tp=total_tp,
        overall_precision=overall_precision,
        overall_recall=overall_recall,
        catalog_precision=catalog_precision,
    )
