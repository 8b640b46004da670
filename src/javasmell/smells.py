"""Rule engine for the ten design smells.

Every threshold is configurable through a plain ``key = value`` file; unknown
keys are rejected so typos cannot silently disable a rule. Each key is one
row of ``_KEYS``, which parses, checks and echoes it. Evidence on each
finding records the metric values that fired the rule. Rules are pure
readers of the model's facts and the metrics, never of syntax nodes, and
``detect_all`` sorts canonically so output is byte-stable across runs and
file orderings. A constructor's switches and ladders are the only facts it
leaves, so MissingHierarchy is the one rule it can fire.

The eight per-type rules are rows of one table, ``_TYPE_RULES``: each is a
predicate over a type, its metrics and the config that returns the evidence
when it fires. ``detect_all`` runs the table in one pass over the types,
together with the two rules that do not fit it: cycle membership, from one
strongly-connected-component search over the whole graph, and
MissingHierarchy, which can fire several times per type at its own lines.

Rule summary (defaults in parentheses):

* UnutilizedAbstraction: project type with zero incoming dependency edges,
  no main-style method, not allowlisted.
* InsufficientModularization: loc >= 1000, or methods >= 30, or wmc >= 100,
  or max method cc >= 20, or >= 2 top-level types in the file; each clause
  independently configurable.
* BrokenHierarchy: subtype overriding at least one inherited concrete method
  with an empty or throw-only body (rejected bequest).
* DeficientEncapsulation: any public non-constant field ("constant" means
  static final).
* CyclicDependentModularization: membership in a dependency-graph strongly
  connected component of size >= 2; one finding per member type.
* UnnecessaryAbstraction: class with fields but no methods, or an interface
  with no members at all.
* WideHierarchy: >= 10 direct internal subtypes.
* ImperativeAbstraction: class with exactly one method, that method public,
  and at most 2 fields.
* MultifacetedAbstraction: lcom >= 0.8 and methods >= 10 and fields >= 5.
* MissingHierarchy: an if/else-if ladder of >= 3 branches testing instanceof
  on one expression, or a switch of >= 3 cases whose selector's terminal name
  matches the tag pattern (default: contains "type" or "kind"). Weakest rule
  of the set; tune the pattern per codebase.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, NamedTuple

from .files import FatalError, key_values
from .model import PseudoModel, strongly_connected_components
from .parser import SwitchSite

# CPython's built-in SHA-256; ``hashlib`` would also load OpenSSL through
# ``_hashlib``, several MiB of a run's peak memory for one 12-digit digest.
try:
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256


class SmellKind(Enum):
    UNUTILIZED_ABSTRACTION = "UnutilizedAbstraction"
    INSUFFICIENT_MODULARIZATION = "InsufficientModularization"
    BROKEN_HIERARCHY = "BrokenHierarchy"
    DEFICIENT_ENCAPSULATION = "DeficientEncapsulation"
    CYCLIC_DEPENDENT_MODULARIZATION = "CyclicDependentModularization"
    UNNECESSARY_ABSTRACTION = "UnnecessaryAbstraction"
    WIDE_HIERARCHY = "WideHierarchy"
    IMPERATIVE_ABSTRACTION = "ImperativeAbstraction"
    MULTIFACETED_ABSTRACTION = "MultifacetedAbstraction"
    MISSING_HIERARCHY = "MissingHierarchy"


_KIND_ORDER = {kind: i for i, kind in enumerate(SmellKind)}
_KIND_BY_NAME = {kind.value: kind for kind in SmellKind}


def kind_from_name(name: str) -> SmellKind:
    try:
        return _KIND_BY_NAME[name]
    except KeyError:
        raise FatalError(f"unknown smell kind {name!r}") from None


@dataclass
class SmellFinding:
    kind: SmellKind
    subject: str  # qualified type name
    file: str
    line: int
    evidence: dict  # str -> str, non-empty
    cycle_members: tuple = ()

    def sort_key(self):
        return (_KIND_ORDER[self.kind], self.subject, self.file, self.line)


# ----------------------------------------------------------------------
# configuration


class _ValueType(NamedTuple):
    """How one kind of config value is read from text, checked and echoed."""

    parse: Callable[[str], object]
    check: Callable[[object], bool]
    requirement: str
    echo: Callable[[object], str] = str


def _name_list(text: str) -> tuple:
    return tuple(part.strip() for part in text.split(",") if part.strip())


def _compiles(pattern) -> bool:
    try:
        re.compile(pattern, re.IGNORECASE)
    except re.error:
        return False
    return True


_POSITIVE_INT = _ValueType(int, lambda v: v > 0, "an integer > 0")
_FRACTION = _ValueType(float, lambda v: 0.0 < v <= 1.0, "a number in (0, 1]")
_NAMES = _ValueType(
    _name_list, lambda v: True, "a comma-separated list of qualified type names", ",".join
)
_REGEX = _ValueType(str, _compiles, "a regular expression (matched case-insensitively)")

# Config key -> (RuleConfig attribute, value type); the echo sorts by key.
_KEYS = {
    "unutilized_abstraction.entry_points": ("entry_points", _NAMES),
    "insufficient_modularization.min_loc": ("im_min_loc", _POSITIVE_INT),
    "insufficient_modularization.min_methods": ("im_min_methods", _POSITIVE_INT),
    "insufficient_modularization.min_wmc": ("im_min_wmc", _POSITIVE_INT),
    "insufficient_modularization.min_max_cc": ("im_min_max_cc", _POSITIVE_INT),
    "insufficient_modularization.min_types_in_file": ("im_min_types_in_file", _POSITIVE_INT),
    "wide_hierarchy.min_children": ("wh_min_children", _POSITIVE_INT),
    "multifaceted_abstraction.min_lcom": ("ma_min_lcom", _FRACTION),
    "multifaceted_abstraction.min_methods": ("ma_min_methods", _POSITIVE_INT),
    "multifaceted_abstraction.min_fields": ("ma_min_fields", _POSITIVE_INT),
    "imperative_abstraction.max_fields": ("ia_max_fields", _POSITIVE_INT),
    "missing_hierarchy.min_branches": ("mh_min_branches", _POSITIVE_INT),
    "missing_hierarchy.tag_pattern": ("mh_tag_pattern", _REGEX),
}


@dataclass
class RuleConfig:
    entry_points: tuple = ()
    im_min_loc: int = 1000
    im_min_methods: int = 30
    im_min_wmc: int = 100
    im_min_max_cc: int = 20
    im_min_types_in_file: int = 2
    wh_min_children: int = 10
    ma_min_lcom: float = 0.8
    ma_min_methods: int = 10
    ma_min_fields: int = 5
    ia_max_fields: int = 2
    mh_min_branches: int = 3
    mh_tag_pattern: str = "type|kind"
    tag_re: re.Pattern = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for key, (attr, vtype) in _KEYS.items():
            value = getattr(self, attr)
            if not vtype.check(value):
                raise FatalError(f"{key} expects {vtype.requirement}, got {value!r}")
        self.tag_re = re.compile(self.mh_tag_pattern, re.IGNORECASE)

    @classmethod
    def from_file(cls, path) -> "RuleConfig":
        values: dict = {}
        for lineno, key, text in key_values(path):
            if key not in _KEYS:
                raise FatalError(f"{path}:{lineno}: unknown key {key!r}")
            attr, vtype = _KEYS[key]
            try:
                value = vtype.parse(text)
                ok = vtype.check(value)
            except ValueError:
                ok = False
            if not ok:
                raise FatalError(f"{path}:{lineno}: {key} expects {vtype.requirement}")
            values[attr] = value
        return cls(**values)

    def echo_lines(self) -> list[str]:
        """Effective configuration in canonical key order."""
        return [
            f"{key} = {vtype.echo(getattr(self, attr))}"
            for key, (attr, vtype) in sorted(_KEYS.items())
        ]

    def digest(self) -> str:
        """The first 12 hex digits of the SHA-256 of the echo lines joined
        by newlines."""
        return sha256("\n".join(self.echo_lines()).encode("utf-8")).hexdigest()[:12]


# ----------------------------------------------------------------------
# helpers


def _is_main_style(method) -> bool:
    return (
        method.name == "main"
        and method.arity == 1
        and "static" in method.modifiers
        and "public" in method.modifiers
    )


def _cycle_members(model: PseudoModel) -> dict:
    """qname -> sorted members of its dependency cycle, for SCCs of size >= 2."""
    members: dict = {}
    for component in strongly_connected_components(model.deps):
        if len(component) >= 2:
            cycle = tuple(sorted(component))
            members.update((qname, cycle) for qname in cycle)
    return members


# ----------------------------------------------------------------------
# per-type rules: (model, type info, type metrics, config) -> evidence | None


def _unutilized_abstraction(model, info, t, config):
    if info.qname in config.entry_points or any(_is_main_style(m) for m in info.methods):
        return None
    if model.incoming_count(info.qname) == 0:
        return {"incoming_edges": "0"}
    return None


# InsufficientModularization clauses: (TypeMetrics attribute, config threshold).
_IM_CLAUSES = (
    ("loc", "im_min_loc"),
    ("nom", "im_min_methods"),
    ("wmc", "im_min_wmc"),
    ("max_cc", "im_min_max_cc"),
    ("types_in_file", "im_min_types_in_file"),
)


def _insufficient_modularization(model, info, t, config):
    fired = [m for m, attr in _IM_CLAUSES if getattr(t, m) >= getattr(config, attr)]
    if not fired:
        return None
    evidence = {"fired": ",".join(fired)}
    for metric in fired:
        evidence[metric] = str(getattr(t, metric))
    return evidence


def _broken_hierarchy(model, info, t, config):
    supertype = model.supertype.get(info.qname)
    if supertype is None:
        return None
    rejected = []
    own = Counter((m.name, m.arity) for m in info.methods if m.visibility != "private")
    for m in info.methods:
        # The walk visits ancestors only: skip it when no other type declares the method.
        if not m.rejected_body or model.declared[m.name, m.arity] == own[m.name, m.arity]:
            continue
        hit = model.find_ancestor_method(info.qname, m.name, m.arity)
        if hit is not None and hit[1].cc is not None:
            rejected.append(m.name)
    if not rejected:
        return None
    return {"rejected_methods": ";".join(sorted(rejected)), "supertype": supertype}


def _deficient_encapsulation(model, info, t, config):
    if t.nopf_nonconst < 1:
        return None
    offenders = sorted(
        f.name for f in info.fields if f.visibility == "public" and not f.is_constant
    )
    return {"fields": ";".join(offenders), "nopf_nonconst": str(len(offenders))}


def _unnecessary_abstraction(model, info, t, config):
    if info.kind == "interface":
        if t.nom + t.nof == 0 and info.qname not in model.nested:
            return {"members": "0"}
    elif t.nom == 0 and t.nof >= 1:
        return {"nom": "0", "nof": str(t.nof)}
    return None


def _wide_hierarchy(model, info, t, config):
    return {"nc": str(t.nc)} if t.nc >= config.wh_min_children else None


def _imperative_abstraction(model, info, t, config):
    if info.kind != "class" or t.nom != 1 or t.nof > config.ia_max_fields:
        return None
    the_method = info.methods[0]
    if the_method.visibility != "public":
        return None
    return {"method": the_method.name, "nom": "1", "nof": str(t.nof)}


def _multifaceted_abstraction(model, info, t, config):
    if (
        t.lcom is not None
        and t.lcom >= config.ma_min_lcom
        and t.nom >= config.ma_min_methods
        and t.nof >= config.ma_min_fields
    ):
        return {"lcom": f"{t.lcom:.6g}", "nom": str(t.nom), "nof": str(t.nof)}
    return None


_TYPE_RULES = (
    (SmellKind.UNUTILIZED_ABSTRACTION, _unutilized_abstraction),
    (SmellKind.INSUFFICIENT_MODULARIZATION, _insufficient_modularization),
    (SmellKind.BROKEN_HIERARCHY, _broken_hierarchy),
    (SmellKind.DEFICIENT_ENCAPSULATION, _deficient_encapsulation),
    (SmellKind.UNNECESSARY_ABSTRACTION, _unnecessary_abstraction),
    (SmellKind.WIDE_HIERARCHY, _wide_hierarchy),
    (SmellKind.IMPERATIVE_ABSTRACTION, _imperative_abstraction),
    (SmellKind.MULTIFACETED_ABSTRACTION, _multifaceted_abstraction),
)


# ----------------------------------------------------------------------
# MissingHierarchy


def _missing_hierarchy(info, config: RuleConfig):
    """(evidence, line) for each switch or instanceof ladder that fires."""
    for method, site in info.hierarchy_sites:
        if isinstance(site, SwitchSite):
            tagged = site.terminal and config.tag_re.search(site.terminal)
            if tagged and site.cases >= config.mh_min_branches:
                yield {
                    "method": method, "cases": str(site.cases),
                    "selector": site.selector, "pattern": "switch",
                }, site.line
        elif site.operand is not None and site.branches >= config.mh_min_branches:
            yield {
                "method": method, "branches": str(site.branches),
                "operand": site.operand, "pattern": "instanceof",
            }, site.line


# ----------------------------------------------------------------------


def detect_all(model: PseudoModel, type_metrics: dict, config: RuleConfig | None = None):
    """Run every rule and return findings in canonical order."""
    config = config or RuleConfig()
    cycles = _cycle_members(model)
    findings = []

    def emit(kind, info, evidence, line=None, cycle=()):
        line = info.line if line is None else line
        findings.append(SmellFinding(kind, info.qname, info.file, line, evidence, cycle))

    for qname in sorted(model.types):
        info = model.types[qname]
        t = type_metrics[qname]
        for kind, rule in _TYPE_RULES:
            evidence = rule(model, info, t, config)
            if evidence is not None:
                emit(kind, info, evidence)
        cycle = cycles.get(qname)
        if cycle is not None:
            evidence = {"scc_size": str(len(cycle))}
            emit(SmellKind.CYCLIC_DEPENDENT_MODULARIZATION, info, evidence, cycle=cycle)
        for evidence, line in _missing_hierarchy(info, config):
            emit(SmellKind.MISSING_HIERARCHY, info, evidence, line)
    findings.sort(key=SmellFinding.sort_key)
    return findings
