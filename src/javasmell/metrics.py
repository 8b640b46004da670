"""Per-type and project-level design metrics.

Everything read from method bodies comes from the facts the parser records
per method (``parser.MethodInfo``): cyclomatic complexity, and the own
fields each method uses for LCOM. A constructor leaves no such facts, so it
counts in no metric. No metric is reported per method: a method's
cyclomatic complexity counts in its type's WMC and max CC and in the
project's CC histogram. DIT is the model's (``PseudoModel.dit``); NC is the
number of direct internal subtypes, so summing NC over all types equals the
number of types that have an internal supertype.
LCOM is 1 minus the mean fraction of methods touching each own field,
computed as (nom*nof - accesses) / (nom*nof) so that exact threshold
boundaries like 0.8 compare cleanly.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, fields

from .files import write_csv
from .model import PseudoModel
from .parser import TypeInfo

CC_BUCKETS = ((1, 19), (20, 39), (40, None))  # sustainable / complex / unmaintainable
DIT_BUCKETS = ((0, 6), (7, None))


@dataclass
class TypeMetrics:
    """One metrics.csv row; the field order is the column order."""

    qualified_name: str
    loc: int
    nof: int
    nopf: int
    nopf_nonconst: int
    nom: int
    nopm: int
    nc: int
    dit: int
    wmc: int
    max_cc: int
    lcom: float | None
    types_in_file: int


@dataclass
class ProjectMetrics:
    total_types: int
    total_fields: int
    total_methods: int
    total_loc: int
    pct_child_classes: float | None
    pct_public_fields: float | None
    pct_public_methods: float | None
    cc_histogram: tuple  # counts for CC_BUCKETS
    dit_histogram: tuple  # counts for DIT_BUCKETS


def lcom(info: TypeInfo) -> float | None:
    methods = [m for m in info.methods if m.cc is not None]
    nom = len(methods)
    nof = len({f.name for f in info.fields})
    if nom == 0 or nof == 0:
        return None
    accesses = sum(m.field_uses for m in methods)
    denom = nom * nof
    return (denom - accesses) / denom


def _span_loc(model: PseudoModel, file: str, start_line: int, end_line: int) -> int:
    code = model.file_code_lines.get(file, ())
    return bisect_right(code, end_line) - bisect_left(code, start_line)


def compute_type_metrics(model: PseudoModel) -> dict:
    out: dict = {}
    for qname in sorted(model.types):
        info = model.types[qname]
        ccs = [m.cc for m in info.methods if m.cc is not None]
        nof = len(info.fields)
        nopf = sum(1 for f in info.fields if f.visibility == "public")
        nopf_nonconst = sum(
            1 for f in info.fields if f.visibility == "public" and not f.is_constant
        )
        out[qname] = TypeMetrics(
            qualified_name=qname,
            loc=_span_loc(model, info.file, info.line, info.end_line),
            nof=nof,
            nopf=nopf,
            nopf_nonconst=nopf_nonconst,
            nom=len(info.methods),
            nopm=sum(1 for m in info.methods if m.visibility == "public"),
            nc=len(model.subtypes.get(qname, ())),
            dit=model.dit[qname],
            wmc=sum(ccs),
            max_cc=max(ccs, default=0),
            lcom=lcom(info),
            types_in_file=model.file_top_level.get(info.file, 0),
        )
    return out


def _histogram(values, buckets) -> tuple:
    """How many *values* fall in each (lo, hi) bucket; hi None is open."""
    counts = [0] * len(buckets)
    for value in values:
        for i, (lo, hi) in enumerate(buckets):
            if value >= lo and (hi is None or value <= hi):
                counts[i] += 1
                break
    return tuple(counts)


def project_metrics(model: PseudoModel, type_metrics: dict) -> ProjectMetrics:
    total_types = len(model.types)
    total_fields = sum(t.nof for t in type_metrics.values())
    total_methods = sum(t.nom for t in type_metrics.values())
    total_loc = sum(len(lines) for lines in model.file_code_lines.values())

    children = len(model.supertype)
    total_public_fields = sum(t.nopf for t in type_metrics.values())
    total_public_methods = sum(t.nopm for t in type_metrics.values())

    def pct(num, den):
        return 100.0 * num / den if den else None

    ccs = [m.cc for info in model.types.values() for m in info.methods if m.cc is not None]
    return ProjectMetrics(
        total_types=total_types,
        total_fields=total_fields,
        total_methods=total_methods,
        total_loc=total_loc,
        pct_child_classes=pct(children, total_types),
        pct_public_fields=pct(total_public_fields, total_fields),
        pct_public_methods=pct(total_public_methods, total_methods),
        cc_histogram=_histogram(ccs, CC_BUCKETS),
        dit_histogram=_histogram((t.dit for t in type_metrics.values()), DIT_BUCKETS),
    )


# Fixed column order for metrics.csv: TypeMetrics' fields, in order.
CSV_COLUMNS = tuple(f.name for f in fields(TypeMetrics))


def write_metrics_csv(type_metrics: dict, path):
    rows = [CSV_COLUMNS]
    for qname in sorted(type_metrics):
        values = (getattr(type_metrics[qname], col) for col in CSV_COLUMNS)
        rows.append([f"{v:.6g}" if isinstance(v, float) else v for v in values])  # None: empty
    write_csv(path, rows)
