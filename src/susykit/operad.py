"""Gluing calculus on moduli signatures.

A moduli signature is a finite formal product of factors, each recording a
genus together with the NS and R marked-point label sets.  Morphisms between
signatures are gluing recipes: a normal form listing which source factors
land where, which label pairs get glued into nodes and how surviving labels
are renamed.  A recipe's Ramond fiber rank, one odd parameter per R gluing,
is read from its R gluings.  Only ``signature()`` and
``ModuliSignature(...)`` validate: every other signature (a glued,
relabelled or erased target, or a stable graph's) is valid by construction
and built unchecked by ``_fresh_signature``, the one sorter.  The
generators share one builder, ``_glue``, which checks their labels;
composites check only that their endpoints meet, and evaluation its
morphism, once per public call.  Each graph builds its signature once.
Erasing colors is a projection onto classical signatures that commutes
with evaluation.

Dimension bookkeeping lives here too: the even and odd dimensions of the
stratum attached to a stable SUSY graph, in closed form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ValidationError
from .graphs import ValidationReport, _copied, _owned, _require_a, _root, edges, is_connected
from .graphs import _strings, kept, tails
from .susy import NS, R, SusyGraph, SusyMorphism, genus, require_susy
from .susy import validate_susy_morphism

__all__ = [
    "AxiomReport",
    "GluingRecipe",
    "ModuliFactor",
    "ModuliSignature",
    "StratumDimension",
    "check_operad_axioms",
    "evaluate_operad",
    "glue_ns",
    "glue_ns_loop",
    "glue_r",
    "glue_r_loop",
    "identity_recipe",
    "project",
    "recipe",
    "recipe_compose",
    "relabel_recipe",
    "signature",
    "stratum_dimension",
    "validate_recipe",
    "validate_signature",
]

SUPER = "super"
CLASSICAL = "classical"


@dataclass(frozen=True, init=False)
class ModuliFactor:
    """One factor of a signature: a genus plus NS and R label sets."""

    genus: int
    ns_labels: frozenset[str]
    r_labels: frozenset[str]

    def __init__(self, genus, ns_labels, r_labels) -> None:
        self.__dict__.update(
            genus=genus, ns_labels=_copied(frozenset, ns_labels, "ns_labels"),
            r_labels=_copied(frozenset, r_labels, "r_labels"),
        )

    @property
    def labels(self) -> frozenset[str]:
        return self.ns_labels | self.r_labels


def _factor_key(f: ModuliFactor) -> tuple:
    return (f.genus, tuple(sorted(f.ns_labels)), tuple(sorted(f.r_labels)))


@dataclass(frozen=True, init=False)
class ModuliSignature:
    """A product of factors in canonical order.  Construction validates it
    (raising ValidationError); ``_fresh_signature`` builds, unchecked, only
    signatures that are valid by construction, so every instance is a
    valid signature."""

    factors: tuple[ModuliFactor, ...]
    mode: str = SUPER

    def __init__(self, factors, mode: str = SUPER) -> None:
        self.__dict__.update(factors=_copied(tuple, factors, "factors"), mode=mode)
        validate_signature(self).raise_if_invalid("signature")

    @kept
    def _factor_index(self) -> dict[str, int]:
        return {l: i for i, f in enumerate(self.factors) for l in f.labels}

    @property
    def labels(self) -> frozenset[str]:
        return frozenset(self._factor_index)

    def factor_of(self, label: str) -> int:
        return self._factor_index[label]

    def color_of(self, label: str) -> str:
        f = self.factors[self.factor_of(label)]
        return NS if label in f.ns_labels else R


def validate_signature(sig: ModuliSignature) -> ValidationReport:
    """Every violation, factor by factor.  An entry that is not a
    ``ModuliFactor``, or a factor whose genus is not an int or whose labels
    are not strings, is reported for that alone."""
    if not isinstance(sig, ModuliSignature):
        return ValidationReport((f"expected a ModuliSignature, got {type(sig).__name__}",))
    problems: list[str] = []
    if sig.mode not in (SUPER, CLASSICAL):
        problems.append(f"unknown mode {sig.mode!r}")
    seen: set[str] = set()
    keys: list[tuple] = []
    for i, f in enumerate(sig.factors):
        if not isinstance(f, ModuliFactor):
            problems.append(f"factor {i}: expected a ModuliFactor, got {type(f).__name__}")
            continue
        ns, r = f.ns_labels, f.r_labels
        labels = ns | r
        str_labels = _strings(labels)
        if type(f.genus) is not int or f.genus < 0:
            problems.append(f"factor {i}: genus must be a non-negative integer")
        if not str_labels:
            problems.append(f"factor {i}: labels must be strings")
        if type(f.genus) is not int or not str_labels:
            continue
        overlap = ns & r
        if overlap:
            problems.append(f"factor {i}: labels {sorted(overlap)} are both NS and R")
        if not seen.isdisjoint(labels):
            for l in sorted(labels & seen):
                problems.append(f"label {l!r} appears in more than one slot")
        seen |= labels
        if 2 * f.genus - 2 + len(labels) <= 0:
            problems.append(f"factor {i}: unstable (2g - 2 + #labels <= 0)")
        if sig.mode == SUPER and len(r) % 2:
            problems.append(f"factor {i}: odd number of R labels")
        if sig.mode == CLASSICAL and r:
            problems.append(f"factor {i}: classical signatures carry no R labels")
        keys.append(_factor_key(f))
    if len(keys) == len(sig.factors) and any(b < a for a, b in zip(keys, keys[1:])):
        problems.append("factors are not in canonical order")
    return ValidationReport(tuple(problems))


def _fresh_signature(
    factors: Sequence[ModuliFactor], mode: str, keys: Sequence[tuple] | None = None
) -> tuple[ModuliSignature, list[int]]:
    """Stable-sort factors, on ``keys`` (their ``_factor_key``s) when the
    caller has them, into a signature built unchecked; also return old index
    -> new position.  Keys that do not compare come from a bad genus or
    label, so their factors are left in place for ``signature()``'s check:
    every other caller's factors are valid by construction."""
    key = (lambda i: _factor_key(factors[i])) if keys is None else keys.__getitem__
    try:
        order = sorted(range(len(factors)), key=key)
    except TypeError:
        order = range(len(factors))
    position = [0] * len(factors)
    for new, old in enumerate(order):
        position[old] = new
    sig = _owned(ModuliSignature, factors=tuple(factors[i] for i in order), mode=mode)
    return sig, position


def signature(
    factors: Iterable[ModuliFactor | tuple], mode: str = SUPER
) -> ModuliSignature:
    """Build a signature in canonical factor order.  Tuple shorthand
    (genus, ns_labels, r_labels) is accepted for factors, and no other."""
    if not isinstance(factors, Iterable):
        raise ValidationError(f"invalid signature: {factors!r} is not a list of factors")
    built = []
    for i, f in enumerate(factors):
        try:
            built.append(f if isinstance(f, ModuliFactor) else ModuliFactor(*f))
        except (TypeError, ValidationError):  # not three arguments, or labels that make no set
            raise ValidationError(
                f"invalid signature: factor {i}: expected (genus, ns_labels, "
                f"r_labels) with string labels, got {f!r}"
            ) from None
    sig = _fresh_signature(built, mode)[0]
    validate_signature(sig).raise_if_invalid("signature")
    return sig


@dataclass(frozen=True, init=False)
class GluingRecipe:
    """Normal form of a signature morphism.

    assignment[i] is the target factor receiving source factor i;
    ns_gluings and r_gluings pair off source labels into nodes; relabeling
    renames the surviving source labels to the target's labels.  The
    public constructor copies the fields and sorts the gluings;
    ``graphs._owned`` takes ownership of fresh, sorted ones.
    """

    source: ModuliSignature
    target: ModuliSignature
    assignment: tuple[int, ...]
    ns_gluings: tuple[tuple[str, str], ...]
    r_gluings: tuple[tuple[str, str], ...]
    relabeling: dict[str, str]

    def __init__(self, source, target, assignment, ns_gluings, r_gluings, relabeling) -> None:
        self.__dict__.update(
            source=source, target=target, assignment=_copied(tuple, assignment, "assignment"),
            ns_gluings=_copied(_sorted_pairs, ns_gluings, "ns_gluings"),
            r_gluings=_copied(_sorted_pairs, r_gluings, "r_gluings"),
            relabeling=_copied(dict, relabeling, "relabeling"),
        )

    @property
    def ramond_fiber_rank(self) -> int:
        """The odd gluing parameters: one per R gluing."""
        return len(self.r_gluings)

    @property
    def gluings(self) -> tuple[tuple[str, str], ...]:
        return self.ns_gluings + self.r_gluings


def _sorted_pairs(pairs) -> tuple[tuple[str, str], ...]:
    """Each pair sorted, and the pairs sorted."""
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


def recipe(
    source: ModuliSignature,
    target: ModuliSignature,
    assignment: Sequence[int],
    ns_gluings: Iterable[tuple[str, str]] = (),
    r_gluings: Iterable[tuple[str, str]] = (),
    relabeling: Mapping[str, str] | None = None,
) -> GluingRecipe:
    """Assemble and validate a recipe."""
    _require_a(ModuliSignature, source, target)
    if not (isinstance(ns_gluings, Iterable) and isinstance(r_gluings, Iterable)):
        raise ValidationError("gluings must be iterables of label pairs")
    ns_pairs, r_pairs = tuple(ns_gluings), tuple(r_gluings)
    if not isinstance(assignment, Sequence):
        raise ValidationError("assignment must be a sequence of int factor indices")
    for pair in ns_pairs + r_pairs:
        if not isinstance(pair, Sequence) or [type(x) for x in pair] != [str, str]:
            raise ValidationError(f"gluing {pair!r} is not a pair of labels")
    relabeling = {} if relabeling is None else relabeling
    if not isinstance(relabeling, Mapping):
        raise ValidationError("relabeling must map labels to labels")
    out = GluingRecipe(source, target, assignment, ns_pairs, r_pairs, relabeling)
    validate_recipe(out).raise_if_invalid("gluing recipe")
    return out


def validate_recipe(r: GluingRecipe) -> ValidationReport:
    if not isinstance(r, GluingRecipe):
        return ValidationReport((f"expected a GluingRecipe, got {type(r).__name__}",))
    for sig in (r.source, r.target):
        if not isinstance(sig, ModuliSignature):
            return ValidationReport((f"expected a ModuliSignature, got {type(sig).__name__}",))
    problems: list[str] = []
    if r.source.mode != r.target.mode:
        problems.append("source and target modes differ")

    n_src = len(r.source.factors)
    n_tgt = len(r.target.factors)
    if any(type(t) is not int for t in r.assignment):
        problems.append("assignment must be a sequence of int factor indices")
        return ValidationReport(tuple(problems))
    if len(r.assignment) != n_src:
        problems.append("assignment length differs from the source factor count")
        return ValidationReport(tuple(problems))
    if any(not (0 <= t < n_tgt) for t in r.assignment):
        problems.append("assignment hits a factor index outside the target")
        return ValidationReport(tuple(problems))
    if set(r.assignment) != set(range(n_tgt)):
        problems.append("assignment must be surjective onto the target factors")

    for pair in r.gluings:
        if [type(x) for x in pair] != [str, str]:
            problems.append(f"gluing {pair!r} is not a pair of labels")
            return ValidationReport(tuple(problems))

    src_labels = r.source.labels
    glued: set[str] = set()
    for kind, pairs, color in (
        ("NS", r.ns_gluings, NS),
        ("R", r.r_gluings, R),
    ):
        for a, b in pairs:
            if a == b:
                problems.append(f"{kind} gluing ({a!r}, {b!r}) is degenerate")
                continue
            for x in (a, b):
                if x not in src_labels:
                    problems.append(f"{kind} gluing mentions unknown label {x!r}")
                elif r.source.color_of(x) != color:
                    problems.append(f"{kind} gluing uses {x!r} of the wrong color")
                if x in glued:
                    problems.append(f"label {x!r} glued twice")
                glued.add(x)
            if (
                a in src_labels
                and b in src_labels
                and r.assignment[r.source.factor_of(a)]
                != r.assignment[r.source.factor_of(b)]
            ):
                problems.append(
                    f"glued labels {a!r}, {b!r} land in different target factors"
                )
    if problems:
        return ValidationReport(tuple(problems))

    if any(type(x) is not str for item in r.relabeling.items() for x in item):
        return ValidationReport(("relabeling must map labels to labels",))
    surviving = src_labels - glued
    if set(r.relabeling) != surviving:
        problems.append("relabeling domain must be exactly the unglued labels")
    tgt_labels = r.target.labels
    values = list(r.relabeling.values())
    if len(set(values)) != len(values):
        problems.append("relabeling is not injective")
    if set(values) != set(tgt_labels):
        problems.append("relabeling image must be exactly the target labels")
    if problems:
        return ValidationReport(tuple(problems))
    for a, b in r.relabeling.items():
        if r.source.color_of(a) != r.target.color_of(b):
            problems.append(f"relabeling {a!r} -> {b!r} changes color")
        if r.assignment[r.source.factor_of(a)] != r.target.factor_of(b):
            problems.append(f"relabeling {a!r} -> {b!r} lands in the wrong factor")

    # Genus bookkeeping and connectivity, one target factor at a time.
    pair_factors: dict[int, list[tuple[int, int]]] = {}
    for a, b in r.ns_gluings + r.r_gluings:
        i, j = r.source.factor_of(a), r.source.factor_of(b)
        pair_factors.setdefault(r.assignment[i], []).append((i, j))
    for t, tf in enumerate(r.target.factors):
        fiber = [i for i, ti in enumerate(r.assignment) if ti == t]
        links = pair_factors.get(t, [])
        total = sum(r.source.factors[i].genus for i in fiber)
        expected = total + len(links) - len(fiber) + 1
        if tf.genus != expected:
            problems.append(
                f"target factor {t}: genus {tf.genus} but the gluing yields {expected}"
            )
        parent = {i: i for i in fiber}
        for i, j in links:
            parent[_root(parent, i)] = _root(parent, j)
        roots = {_root(parent, i) for i in fiber}
        if len(roots) != 1:
            problems.append(f"target factor {t}: glued factors are not connected")
    return ValidationReport(tuple(problems))


def identity_recipe(sig: ModuliSignature) -> GluingRecipe:
    """Generator: the identity.  The generators skip ``validate_recipe``:
    each recipe is valid by construction once its labels are checked."""
    _require_a(ModuliSignature, sig)
    return _owned(
        GluingRecipe, source=sig, target=sig, assignment=tuple(range(len(sig.factors))),
        ns_gluings=(), r_gluings=(), relabeling={l: l for l in sig.labels},
    )


def recipe_compose(first: GluingRecipe, second: GluingRecipe) -> GluingRecipe:
    """Compose recipes applied in order (first, then second).  Only the
    endpoints are checked: a composite of valid recipes is valid."""
    if not (isinstance(first, GluingRecipe) and isinstance(second, GluingRecipe)):
        raise ValidationError("recipe_compose expects two gluing recipes")
    if first.target != second.source:
        raise ValidationError(
            "recipes do not compose: first.target differs from second.source"
        )
    back = {v: k for k, v in first.relabeling.items()}
    assignment = tuple(second.assignment[t] for t in first.assignment)
    ns_pairs = list(first.ns_gluings) + [
        (back[a], back[b]) for a, b in second.ns_gluings
    ]
    r_pairs = list(first.r_gluings) + [
        (back[a], back[b]) for a, b in second.r_gluings
    ]
    relabeling = {
        a: second.relabeling[b]
        for a, b in first.relabeling.items()
        if b in second.relabeling
    }
    return _owned(
        GluingRecipe, source=first.source, target=second.target, assignment=assignment,
        ns_gluings=_sorted_pairs(ns_pairs), r_gluings=_sorted_pairs(r_pairs),
        relabeling=relabeling,
    )


def relabel_recipe(
    sig: ModuliSignature, renaming: Mapping[str, str]
) -> GluingRecipe:
    """Generator: rename every label by a bijection, gluing nothing."""
    _require_a(ModuliSignature, sig)
    if not isinstance(renaming, Mapping) or set(renaming) != set(sig.labels):
        raise ValidationError("renaming must map exactly the signature labels")
    if not _strings(renaming.values()):
        raise ValidationError("renamed labels must be strings")
    if len(set(renaming.values())) != len(renaming):
        raise ValidationError("renaming is not injective")
    new = renaming.__getitem__
    factors = [
        ModuliFactor(f.genus, map(new, f.ns_labels), map(new, f.r_labels))
        for f in sig.factors
    ]
    target, position = _fresh_signature(factors, sig.mode)
    return GluingRecipe(sig, target, position, (), (), renaming)


def _glue(sig: ModuliSignature, a: str, b: str, color: str, loop: bool) -> GluingRecipe:
    """Glue labels ``a`` and ``b`` of ``sig``, of one colour, into a node in
    one factor (``loop``, raising its genus) or across two, which merge.
    The target is valid by construction once the labels are checked.  A
    loop keeps its factor's slot and a merged factor goes last, before the
    stable sort that ties keep."""
    _require_a(ModuliSignature, sig)
    if type(a) is not str or type(b) is not str:
        raise ValidationError(f"{color} gluing ({a!r}, {b!r}) is not a pair of labels")
    if a == b:
        raise ValidationError(f"{color} gluing ({a!r}, {b!r}) is degenerate")
    for x in (a, b):
        if x not in sig._factor_index:
            raise ValidationError(f"{color} gluing mentions unknown label {x!r}")
        if sig.color_of(x) != color:
            raise ValidationError(f"{color} gluing uses {x!r} of the wrong color")
    i, j = sig.factor_of(a), sig.factor_of(b)
    if loop and i != j:
        raise ValidationError(f"labels {a!r}, {b!r} sit in different factors; use the edge gluing")
    if not loop and i == j:
        raise ValidationError(f"labels {a!r}, {b!r} share a factor; use the loop gluing")
    fi, fj = sig.factors[i], sig.factors[j]
    merged = ModuliFactor(
        fi.genus + (1 if loop else fj.genus),
        (fi.ns_labels | fj.ns_labels) - {a, b},
        (fi.r_labels | fj.r_labels) - {a, b},
    )
    n = len(sig.factors)
    # source factors in unsorted target order; an edge's, i with j, goes last
    stay = list(range(n)) if loop else [k for k in range(n) if k not in (i, j)] + [i]
    slot = {k: s for s, k in enumerate(stay)}
    slot[j] = slot[i]
    factors = [merged if k == i else sig.factors[k] for k in stay]
    target, position = _fresh_signature(factors, sig.mode)
    assignment = [position[slot[k]] for k in range(n)]
    ns, r = ([(a, b)], []) if color == NS else ([], [(a, b)])
    relabeling = {l: l for l in sig.labels if l not in (a, b)}
    return GluingRecipe(sig, target, assignment, ns, r, relabeling)


def glue_ns(sig: ModuliSignature, a: str, b: str) -> GluingRecipe:
    """Generator: glue NS labels in two different factors into a node."""
    return _glue(sig, a, b, NS, loop=False)


def glue_r(sig: ModuliSignature, a: str, b: str) -> GluingRecipe:
    """Generator: glue R labels in two different factors into a node."""
    return _glue(sig, a, b, R, loop=False)


def glue_ns_loop(sig: ModuliSignature, a: str, b: str) -> GluingRecipe:
    """Generator: glue two NS labels of one factor, raising its genus."""
    return _glue(sig, a, b, NS, loop=True)


def glue_r_loop(sig: ModuliSignature, a: str, b: str) -> GluingRecipe:
    """Generator: glue two R labels of one factor, raising its genus."""
    return _glue(sig, a, b, R, loop=True)


def _graph_signature(g: SusyGraph) -> tuple[ModuliSignature, dict[str, int]]:
    """Per-vertex factors with flag ids as labels; vertex -> factor position.
    ``SusyGraph.signature`` keeps it, so read that instead.  The factors, in
    vertex-name order, are stably sorted by ``_fresh_signature`` on keys
    read from the sorted incidence.  A valid stable graph gives a valid
    signature: one factor per vertex, each flag a string label at one vertex
    in one colour, even R flags per vertex (or none when modular), so it is
    built unchecked once stability is read."""
    if not g.stability.stable:
        unstable = list(g.stability.unstable_vertices)
        raise ValidationError(f"invalid signature: unstable vertices {unstable}")
    genera, color, incidence = g.labeling.genus, g.labeling.color, g.graph.incidence
    verts = sorted(g.vertices)
    keys = []
    for v in verts:
        ns, r = [], []
        for f in incidence[v]:
            (ns if color[f] == NS else r).append(f)
        keys.append((genera[v], tuple(ns), tuple(r)))
    factors = [ModuliFactor(*k) for k in keys]
    sig, position = _fresh_signature(factors, CLASSICAL if g.modular else SUPER, keys)
    return sig, dict(zip(verts, position))


def evaluate_operad(h: SusyMorphism) -> GluingRecipe:
    """Evaluate a SUSY graph morphism to a gluing recipe between the
    signatures of its endpoint graphs.  Both graphs must be stable.  The
    recipe needs no check: each recipe axiom follows from a morphism axiom
    (the merger ban gives connectivity) or from stability."""
    validate_susy_morphism(h).raise_if_invalid("morphism")
    return _evaluate(h)


def _evaluate(h: SusyMorphism) -> GluingRecipe:
    """``evaluate_operad`` without checking ``h``, for a morphism that is
    already checked; the stability of its graphs is still checked.  Each
    graph's stability and signature are read from the graph, which builds
    them once."""
    for side, g in (("source", h.source), ("target", h.target)):
        if not g.stability.stable:
            raise ValidationError(f"evaluation needs a stable {side} graph")
    src_sig, src_pos = h.source.signature
    tgt_sig, tgt_pos = h.target.signature
    vertex_map = h.map.vertex_map
    assignment = [0] * len(src_sig.factors)
    for v, p in src_pos.items():
        assignment[p] = tgt_pos[vertex_map[v]]
    color, orbits = h.source.labeling.color, h.map.orbits
    # the orbits are sorted pairs in sorted order, as the gluings must be
    return _owned(
        GluingRecipe, source=src_sig, target=tgt_sig, assignment=tuple(assignment),
        ns_gluings=tuple(p for p in orbits if color[p[0]] == NS),
        r_gluings=tuple(p for p in orbits if color[p[0]] == R),
        relabeling={fs: ft for ft, fs in h.map.flag_map.items()},
    )


def _erased(sig: ModuliSignature) -> tuple[ModuliSignature, list[int]]:
    """``sig`` with every R label made NS, as a classical signature."""
    factors = [ModuliFactor(f.genus, f.labels, frozenset()) for f in sig.factors]
    return _fresh_signature(factors, CLASSICAL)


def project(x: ModuliSignature | GluingRecipe):
    """Erase colors: every R label becomes NS and R gluings become NS
    gluings.  Works on signatures and on recipes."""
    if isinstance(x, ModuliSignature):
        return _erased(x)[0]
    if isinstance(x, GluingRecipe):
        src, src_pos = _erased(x.source)
        tgt, tgt_pos = _erased(x.target)
        assignment = [0] * len(src_pos)
        for old, new in enumerate(src_pos):
            assignment[new] = tgt_pos[x.assignment[old]]
        return recipe(
            src,
            tgt,
            assignment,
            ns_gluings=x.ns_gluings + x.r_gluings,
            relabeling=x.relabeling,
        )
    raise ValidationError(f"cannot project {type(x).__name__}")


@dataclass(frozen=True)
class StratumDimension:
    even: int
    odd: int
    codimension: tuple[int, int]


def stratum_dimension(g: SusyGraph) -> StratumDimension:
    """Even and odd dimensions of the stratum of a stable SUSY graph, with
    the codimension of the stratum inside the total space.

    They are (3g - 3 + n | 2g - 2 + n_NS + n_R / 2) in the total genus and
    tail counts, which on a connected graph equal, by Euler's formula, the
    per-vertex sums plus one odd parameter per Ramond node.  It is whole:
    R flags are even at each vertex and paired along edges, so n_R is
    even.  An unstable or disconnected graph is refused."""
    require_susy(g)
    rep = g.stability
    if not rep.stable:
        raise ValidationError(
            "dimension formulas need a stable graph; unstable vertices: "
            + ", ".join(rep.unstable_vertices)
        )
    base = g.graph
    if not is_connected(base):
        raise ValidationError("dimension formulas need a connected graph")
    tail_list = tails(base)
    edge_list = edges(base)
    gt = genus(g)
    t_ns = sum(1 for f in tail_list if g.color_of(f) == NS)
    t_r = len(tail_list) - t_ns
    even = 3 * gt - 3 + len(tail_list) - len(edge_list)
    odd = 2 * gt - 2 + t_ns + t_r // 2
    return StratumDimension(even, odd, (len(edge_list), 0))


@dataclass(frozen=True)
class AxiomReport:
    checked: dict[str, int]
    failures: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failures


class _LabelPool:
    def __init__(self) -> None:
        self.n = 0

    def take(self, count: int) -> list[str]:
        out = [f"x{self.n + i}" for i in range(count)]
        self.n += count
        return out


def _random_factor(
    rng: random.Random, pool: _LabelPool, min_ns: int = 0, min_r: int = 0
) -> ModuliFactor:
    ns_count = min_ns + rng.randint(0, 2)
    r_count = min_r + 2 * rng.randint(0, 1)
    genus = rng.randint(0, 2)
    if 2 * genus - 2 + ns_count + r_count <= 0:
        genus = 2
    return ModuliFactor(genus, pool.take(ns_count), pool.take(r_count))


def _labels(factor: ModuliFactor, color: str, drop: Iterable[str] = ()) -> list[str]:
    """The labels of ``factor`` of one colour, less ``drop``, sorted."""
    labels = factor.ns_labels if color == NS else factor.r_labels
    return sorted(labels.difference(drop))


def check_operad_axioms(seed: int = 0, cases: int = 100) -> AxiomReport:
    """Exercise the generator relations on random signatures.

    Six condition families are checked, `cases` random instances each:
    composing relabelings, commuting a relabeling past a loop gluing and
    past an edge gluing, commuting two loop gluings, a loop with an edge,
    and two edge gluings.  NS and R versions (and mixed-color combinations)
    are drawn at random per instance."""
    if type(cases) is not int or cases < 0:
        raise ValidationError(f"cases must be a non-negative integer, got {cases!r}")
    try:
        rng = random.Random(seed)
    except TypeError:
        raise ValidationError(f"seed must be an integer, got {seed!r}") from None
    checked: dict[str, int] = {}
    failures: list[str] = []

    def run(name: str, trial: Callable[[], tuple[GluingRecipe, GluingRecipe]]) -> None:
        checked[name] = 0
        for k in range(cases):
            lhs, rhs = trial()
            checked[name] += 1
            if lhs != rhs:
                failures.append(f"{name}: instance {k} disagrees")

    def fresh_renaming(rng: random.Random, pool: _LabelPool, labels) -> dict[str, str]:
        labels = sorted(labels)
        new = pool.take(len(labels))
        rng.shuffle(new)
        return dict(zip(labels, new))

    def glue(sig: ModuliSignature, a: str, b: str) -> GluingRecipe:
        # the generator for ``a`` and ``b``: a loop when they share a factor
        return _glue(sig, a, b, sig.color_of(a), sig.factor_of(a) == sig.factor_of(b))

    def relabel_compose() -> tuple[GluingRecipe, GluingRecipe]:
        pool = _LabelPool()
        sig = signature(
            [_random_factor(rng, pool, min_ns=1) for _ in range(rng.randint(1, 2))]
        )
        s1 = fresh_renaming(rng, pool, sig.labels)
        first = relabel_recipe(sig, s1)
        s2 = fresh_renaming(rng, pool, first.target.labels)
        second = relabel_recipe(first.target, s2)
        direct = relabel_recipe(sig, {l: s2[s1[l]] for l in sig.labels})
        return recipe_compose(first, second), direct

    def relabel_past_glue(
        pool: _LabelPool, sig: ModuliSignature, a: str, b: str
    ) -> tuple[GluingRecipe, GluingRecipe]:
        ren = fresh_renaming(rng, pool, sig.labels)
        glue_first = glue(sig, a, b)
        lhs = recipe_compose(
            glue_first,
            relabel_recipe(
                glue_first.target,
                {l: ren[l] for l in glue_first.target.labels},
            ),
        )
        relabel_first = relabel_recipe(sig, ren)
        rhs = recipe_compose(
            relabel_first, glue(relabel_first.target, ren[a], ren[b])
        )
        return lhs, rhs

    def relabel_loop() -> tuple[GluingRecipe, GluingRecipe]:
        pool = _LabelPool()
        sig = signature([_random_factor(rng, pool, min_ns=2, min_r=2)])
        color = rng.choice([NS, R])
        a, b = rng.sample(_labels(sig.factors[0], color), 2)
        return relabel_past_glue(pool, sig, a, b)

    def relabel_edge() -> tuple[GluingRecipe, GluingRecipe]:
        pool = _LabelPool()
        f1 = _random_factor(rng, pool, min_ns=1, min_r=2)
        f2 = _random_factor(rng, pool, min_ns=1, min_r=2)
        sig = signature([f1, f2])
        color = rng.choice([NS, R])
        a = rng.choice(_labels(f1, color))
        b = rng.choice(_labels(f2, color))
        return relabel_past_glue(pool, sig, a, b)

    def two_step(
        sig: ModuliSignature, p1: tuple[str, str], p2: tuple[str, str]
    ) -> GluingRecipe:
        first = glue(sig, *p1)
        return recipe_compose(first, glue(first.target, *p2))

    def loops_commute() -> tuple[GluingRecipe, GluingRecipe]:
        pool = _LabelPool()
        sig = signature([_random_factor(rng, pool, min_ns=4, min_r=4)])
        f = sig.factors[0]
        c1, c2 = rng.choice([NS, R]), rng.choice([NS, R])
        picks = {c: iter(rng.sample(_labels(f, c), 4)) for c in (NS, R)}
        p1 = (next(picks[c1]), next(picks[c1]))
        p2 = (next(picks[c2]), next(picks[c2]))
        return two_step(sig, p1, p2), two_step(sig, p2, p1)

    def loop_edge() -> tuple[GluingRecipe, GluingRecipe]:
        pool = _LabelPool()
        f1 = _random_factor(rng, pool, min_ns=3, min_r=4)
        f2 = _random_factor(rng, pool, min_ns=2, min_r=4)
        sig = signature([f1, f2])
        c_loop, c_edge = rng.choice([NS, R]), rng.choice([NS, R])
        if rng.random() < 0.5:
            # loop inside the first factor, edge across the two
            la, lb = rng.sample(_labels(f1, c_loop), 2)
            ea = rng.choice(_labels(f1, c_edge, (la, lb)))
            eb = rng.choice(_labels(f2, c_edge))
            return two_step(sig, (la, lb), (ea, eb)), two_step(
                sig, (ea, eb), (la, lb)
            )
        # two cross pairs; gluing one turns the other into a loop
        c2 = c_loop
        a1 = rng.choice(_labels(f1, c_edge))
        b1 = rng.choice(_labels(f2, c_edge))
        # min_ns/min_r above leave both second pools non-empty
        a2 = rng.choice(_labels(f1, c2, (a1, b1)))
        b2 = rng.choice(_labels(f2, c2, (a1, b1)))
        return two_step(sig, (a1, b1), (a2, b2)), two_step(
            sig, (a2, b2), (a1, b1)
        )

    def edges_commute() -> tuple[GluingRecipe, GluingRecipe]:
        pool = _LabelPool()
        f1 = _random_factor(rng, pool, min_ns=1, min_r=2)
        f2 = _random_factor(rng, pool, min_ns=2, min_r=2)
        f3 = _random_factor(rng, pool, min_ns=1, min_r=2)
        sig = signature([f1, f2, f3])
        c1, c2 = rng.choice([NS, R]), rng.choice([NS, R])
        a1 = rng.choice(_labels(f1, c1))
        b1 = rng.choice(_labels(f2, c1))
        # f2's min_ns/min_r leave its second pool non-empty
        a2 = rng.choice(_labels(f2, c2, (b1,)))
        b2 = rng.choice(_labels(f3, c2))
        return two_step(sig, (a1, b1), (a2, b2)), two_step(
            sig, (a2, b2), (a1, b1)
        )

    run("relabel_compose", relabel_compose)
    run("relabel_loop", relabel_loop)
    run("relabel_edge", relabel_edge)
    run("loops_commute", loops_commute)
    run("loop_edge", loop_edge)
    run("edges_commute", edges_commute)
    return AxiomReport(checked, tuple(failures))
