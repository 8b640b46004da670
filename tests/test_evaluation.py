import math

import pytest

from javasmell.evaluation import GroundTruth, evaluate, load_ground_truth
from javasmell.files import FatalError
from javasmell.smells import SmellFinding, SmellKind

K = SmellKind


def finding(subject, kind):
    return SmellFinding(kind, subject, "X.java", 1, {"k": "v"})


def synth(cells):
    """Build findings + truth from {kind: (detected, tp)} rows."""
    findings = []
    entries = {}
    for kind, (detected, tp) in cells.items():
        for i in range(detected):
            subject = f"p.T{kind.value}{i}"
            findings.append(finding(subject, kind))
            entries[(subject, kind)] = "tp" if i < tp else "fp"
    return findings, GroundTruth(entries, set())


def test_precision_93_3():
    findings, truth = synth({K.UNUTILIZED_ABSTRACTION: (60, 56)})
    result = evaluate(findings, truth, kinds=[K.UNUTILIZED_ABSTRACTION])
    assert math.isclose(result.per_kind[K.UNUTILIZED_ABSTRACTION].precision, 56 / 60)


def test_zero_detection_convention():
    result = evaluate([], GroundTruth({}, set()), kinds=[K.BROKEN_HIERARCHY])
    ke = result.per_kind[K.BROKEN_HIERARCHY]
    assert ke.precision == 1.0 and ke.zero_detection


def test_recall_100_when_nothing_missed():
    findings, truth = synth({K.WIDE_HIERARCHY: (3, 2)})
    result = evaluate(findings, truth)
    assert result.per_kind[K.WIDE_HIERARCHY].recall == 1.0
    assert result.overall_recall == 1.0


def test_recall_counts_missed_annotations():
    findings, truth = synth({K.WIDE_HIERARCHY: (3, 3)})
    truth.missed.add(("p.Hidden", K.WIDE_HIERARCHY))
    result = evaluate(findings, truth)
    assert math.isclose(result.per_kind[K.WIDE_HIERARCHY].recall, 3 / 4)


def test_unlabeled_finding_rejected():
    findings, truth = synth({K.WIDE_HIERARCHY: (2, 2)})
    findings.append(finding("p.Unknown", K.WIDE_HIERARCHY))
    with pytest.raises(FatalError) as err:
        evaluate(findings, truth)
    assert "(p.Unknown, WideHierarchy)" in str(err.value)


def test_all_false_positives_precision_zero():
    findings, truth = synth({K.DEFICIENT_ENCAPSULATION: (4, 0)})
    result = evaluate(findings, truth)
    assert result.per_kind[K.DEFICIENT_ENCAPSULATION].precision == 0.0


def test_pooled_identity():
    findings, truth = synth(
        {K.UNUTILIZED_ABSTRACTION: (10, 7), K.WIDE_HIERARCHY: (5, 5), K.BROKEN_HIERARCHY: (0, 0)}
    )
    result = evaluate(findings, truth)
    assert result.overall_detected == sum(k.detected for k in result.per_kind.values())
    assert result.overall_tp == sum(k.true_positives for k in result.per_kind.values())
    assert result.overall_precision == result.overall_tp / result.overall_detected


def test_flipping_tp_to_fp_strictly_lowers_precision():
    findings, truth = synth({K.UNUTILIZED_ABSTRACTION: (10, 7)})
    before = evaluate(findings, truth).per_kind[K.UNUTILIZED_ABSTRACTION].precision
    flip = next(key for key, v in truth.entries.items() if v == "tp")
    truth.entries[flip] = "fp"
    after = evaluate(findings, truth).per_kind[K.UNUTILIZED_ABSTRACTION].precision
    assert after < before


def test_every_finding_lands_in_exactly_one_bucket():
    findings, truth = synth({K.UNUTILIZED_ABSTRACTION: (4, 2), K.MISSING_HIERARCHY: (3, 3)})
    result = evaluate(findings, truth)
    assert sum(k.detected for k in result.per_kind.values()) == len(findings)


def test_catalog_mean_divides_by_ten():
    findings, truth = synth({K.UNUTILIZED_ABSTRACTION: (10, 5)})
    result = evaluate(findings, truth, kinds=[K.UNUTILIZED_ABSTRACTION])
    assert math.isclose(result.catalog_precision, 0.5 / 10)


def test_default_universe_is_the_kinds_the_truth_or_findings_name():
    findings, truth = synth({K.WIDE_HIERARCHY: (2, 1)})
    truth.entries[("p.Gone", K.MISSING_HIERARCHY)] = "fp"  # a verdict with no finding
    truth.missed.add(("p.Hidden", K.BROKEN_HIERARCHY))
    result = evaluate(findings, truth)
    assert list(result.per_kind) == [K.BROKEN_HIERARCHY, K.WIDE_HIERARCHY, K.MISSING_HIERARCHY]
    assert math.isclose(result.catalog_precision, (1.0 + 0.5 + 1.0) / 10)


# ----------------------------------------------------------------------
# ground-truth file loading


def test_load_well_formed(tmp_path):
    f = tmp_path / "truth.tsv"
    f.write_text(
        "# reviewed 2024-05-01\n"
        "p.A\tWideHierarchy\ttp\n"
        "p.B\tWideHierarchy\tfp\n"
        "p.C\tBrokenHierarchy\ttp\n",
        encoding="utf-8",
    )
    truth = load_ground_truth(f)
    assert len(truth.entries) == 3
    assert truth.missed == set()


def test_load_ignores_a_utf8_bom(tmp_path):
    f = tmp_path / "truth.tsv"
    f.write_text("\ufeffp.A\tWideHierarchy\ttp\n", encoding="utf-8")
    assert load_ground_truth(f).entries == {("p.A", K.WIDE_HIERARCHY): "tp"}


def test_load_duplicate_rejected(tmp_path):
    f = tmp_path / "truth.tsv"
    f.write_text(
        "p.A\tWideHierarchy\ttp\np.A\tWideHierarchy\tfp\n", encoding="utf-8"
    )
    with pytest.raises(FatalError):
        load_ground_truth(f)


def test_load_mixed_entries_and_missed(tmp_path):
    lines = ["p.T%d\tWideHierarchy\ttp" % i for i in range(4)]
    lines += ["p.M%d\tWideHierarchy\tmissed" % i for i in range(2)]
    f = tmp_path / "truth.tsv"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    truth = load_ground_truth(f)
    assert len(truth.entries) == 4
    assert len(truth.missed) == 2


@pytest.mark.parametrize(
    "line",
    ["p.A\tWideHierarchy", "p.A\tNoSuchSmell\ttp", "p.A\tWideHierarchy\tmaybe"],
)
def test_load_malformed(tmp_path, line):
    f = tmp_path / "truth.tsv"
    f.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(FatalError):
        load_ground_truth(f)
