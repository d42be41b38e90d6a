"""The verification suite: every structural claim as a named check.

``verify_all`` runs the registry in order against one construction spec
and returns a :class:`VerificationReport`; ``verify_one`` runs one named
check the same way.  Checks are independent: a failure is recorded with a
witness and the suite moves on.  They share a per-run store keyed by
construction, the run's group and generators with a given ``(mode,
pointed)``: the column space is ``(none, unpointed)``, the full space the
run's own key, the fence variants ``(sandt:N, run's pointed)`` and the
pointed space ``(run's mode, pointed)``.  Each key is built, searched and
reduced at most once, and each space from the cached one below it: a
gadget space is the column space plus its attachments, a pointed space
the unpointed one plus its basepoint.  Raised errors are cached too, so a
broken builder fails every check that needs it without being re-run.

Check names, and the mathematical statement each one tests, are listed in
the README; names are stable so scripts can ``--skip`` or single-run them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cache, partial
from itertools import compress
from operator import ne

from .complexes import (
    OrderComplex,
    cycle_basis,
    h1_action_rows,
    homology_summary,
    order_complex,
    row_times,
)
from .groups import _greedy_generators
from .homotopy import AutomorphismGroup, extension_restriction_check
from .labels import Star
from .posets import FinitePoset
from .report import FAIL, PASS, SKIP, CheckResult, VerificationReport
from .search import DEFAULT_AUT_BUDGET, find_isomorphism
from .spaces import (
    ConstructionSpec,
    GadgetMode,
    add_basepoint,
    attach_gadgets,
    build_base,
    collapse_map,
    expected_point_count,
    translation_images,
)


@dataclass(frozen=True)
class VerifyOptions:
    fence_range: tuple[int, ...] = (1, 2, 3)
    budget_aut: int = DEFAULT_AUT_BUDGET
    skip: frozenset = frozenset()

    def __post_init__(self):
        if not self.fence_range:
            raise ValueError("fence_range needs at least one fence size")
        if min(self.fence_range) < 1:
            raise ValueError(f"fence size must be >= 1; got {min(self.fence_range)}")
        if len(set(self.fence_range)) != len(self.fence_range):
            raise ValueError(f"fence sizes must be distinct; got {list(self.fence_range)}")


class _Skip(Exception):
    """Raised inside a check to mark it not-applicable."""


_BASE = (GadgetMode("none"), False)  # the column space


class _Context:
    """Lazy, error-caching store: one space and automorphism group per
    ``(mode, pointed)`` key, and the order complex of the run's own key:
    its simplex counts and, once read, its cycle basis, never its chains.
    A gadget space is the cached column space plus its attachments, and a
    pointed space the cached unpointed one plus its basepoint."""

    def __init__(self, spec: ConstructionSpec, options: VerifyOptions):
        self.spec = spec
        self.options = options
        self.key = (spec.mode, spec.pointed)
        self._cache: dict[tuple, object] = {}

    def _get(self, slot: tuple, make):
        if slot not in self._cache:
            try:
                self._cache[slot] = make()
            except Exception as exc:  # cached so dependents fail identically
                self._cache[slot] = exc
        value = self._cache[slot]
        if isinstance(value, Exception):
            raise value
        return value

    def construction(self, key) -> ConstructionSpec:
        mode, pointed = key
        return replace(self.spec, mode=mode, pointed=pointed)

    def space(self, key) -> FinitePoset:
        mode, pointed = key
        slot = ("space", key)
        if pointed:  # the unpointed space plus its basepoint, never a rebuild
            return self._get(slot, lambda: add_basepoint(self.space((mode, False))))
        if key == _BASE:
            return self._get(slot, lambda: build_base(self.spec))
        return self._get(slot, lambda: attach_gadgets(self.space(_BASE), self.construction(key)))

    def auts(self, key) -> AutomorphismGroup:
        return self._get(
            ("auts", key),
            lambda: AutomorphismGroup.of(self.space(key), budget=self.options.budget_aut),
        )

    def complex(self, key) -> OrderComplex:
        if key != self.key:  # a variant's complex is read once, so it is not kept
            return order_complex(self.space(key))
        return self._get(("complex", key), lambda: order_complex(self.space(key)))

    def fence(self, size: int) -> tuple:
        """The key of the run's construction with a size-``size`` fence."""
        return GadgetMode("sandt", size), self.spec.pointed

    def require_gadgets(self):
        if self.spec.mode.kind == "none":
            raise _Skip("needs attachments (mode is none)")

    def require_sandt(self):
        if self.spec.mode.kind != "sandt":
            raise _Skip(f"needs sandt mode (mode is {self.spec.mode})")


# -- individual checks -------------------------------------------------------


def _check_generators(ctx: _Context):
    spec = ctx.spec
    span = spec.group.closure(spec.gens)
    if len(span) != spec.group.order:
        return FAIL, (
            f"generators span a subgroup of order {len(span)} of {spec.group.order}"
        )
    names = ", ".join(spec.group.labels[g] for g in spec.gens) or "(empty)"
    return PASS, f"{len(spec.gens)} generators [{names}] span the group"


def _cosets(spec: ConstructionSpec) -> int:
    """How many cosets the generated subgroup has: 1 when the list generates."""
    return spec.group.order // len(spec.group.closure(spec.gens))


def _check_base_point_count(ctx: _Context):
    n, r = ctx.spec.group.order, ctx.spec.levels
    expected = n * (r + 2)
    actual = len(ctx.space(_BASE))
    status = PASS if actual == expected else FAIL
    return status, f"expected n(r+2)={expected}, built {actual}"


def _check_base_connected(ctx: _Context):
    cosets = _cosets(ctx.spec)
    components = len(ctx.space(_BASE).components())
    if cosets == 1:
        status = PASS if components == 1 else FAIL
        return status, f"{components} component(s); expected 1"
    status = PASS if components == cosets else FAIL
    return status, (
        f"{components} component(s); expected {cosets} "
        "(one per coset of the generated subgroup)"
    )


def _check_base_aut_realization(ctx: _Context):
    group = ctx.spec.group
    base, auts = ctx.space(_BASE), ctx.auts(_BASE)
    if auts.order != group.order:
        return FAIL, f"|Aut| = {auts.order}, |G| = {group.order}"
    # Aut = {L_g} with |Aut| = |G| makes g -> L_g an isomorphism onto Aut.
    hits = {auts.index(translation_images(base, ctx.spec, g)) for g in range(group.order)}
    if None in hits or len(hits) != group.order:
        return FAIL, "automorphisms are not exactly the left translations"
    return PASS, f"|Aut| = {auts.order} and the composition table is isomorphic to G"


def _check_base_free_action(ctx: _Context):
    auts = ctx.auts(_BASE)
    if auts.acts_freely():
        return PASS, "no non-identity automorphism fixes a point"
    sizes = auts.stabilizer_sizes()
    worst = max(sizes, key=sizes.get)
    return FAIL, f"point {worst} is fixed by {sizes[worst]} automorphisms"


def _check_base_level_preservation(ctx: _Context):
    levels = [lab.level for lab in ctx.space(_BASE).labels]
    for k, m in enumerate(ctx.auts(_BASE).maps):
        moved = compress(levels, map(ne, map(levels.__getitem__, m.images), levels))
        level = next(moved, None)  # the level of the first point moved off it
        if level is not None:
            return FAIL, f"automorphism {k} moves a level-{level} point"
    return PASS, "every automorphism preserves column levels"


def _check_full_point_count(ctx: _Context):
    ctx.require_gadgets()
    expected = expected_point_count(ctx.spec)
    actual = len(ctx.space(ctx.key))
    status = PASS if actual == expected else FAIL
    return status, f"expected {expected}, built {actual}"


def _beat_witness(space: FinitePoset) -> str | None:
    """How many beat points ``space`` has and the first, or ``None`` for a core."""
    beats = space.beat_points()
    if not beats:
        return None
    i, kind = beats[0]
    return f"{len(beats)} beat points, e.g. index {i} ({kind})"


def _check_full_no_beat_points(ctx: _Context):
    ctx.require_gadgets()
    witness = _beat_witness(ctx.space(ctx.key))
    if witness:
        return FAIL, witness
    return PASS, "the attached space is its own core (no beat points)"


def _check_extension_bijection(ctx: _Context):
    ctx.require_gadgets()
    outcome = extension_restriction_check(
        ctx.space(_BASE), ctx.space(ctx.key), ctx.auts(_BASE), ctx.auts(ctx.key)
    )
    if not outcome.ok:
        return FAIL, "; ".join(outcome.failures[:3])
    return PASS, (
        f"restriction and extension are inverse bijections "
        f"({outcome.full_order} automorphisms)"
    )


def _check_pointed_star_fixed(ctx: _Context):
    ctx.require_gadgets()
    pointed = (ctx.spec.mode, True)
    space, auts = ctx.space(pointed), ctx.auts(pointed)
    star = space.index_of(Star())
    moved = [k for k, m in enumerate(auts.maps) if m.images[star] != star]
    if moved:
        return FAIL, f"{len(moved)} automorphism(s) move the basepoint"
    if auts.order != ctx.spec.group.order:
        return FAIL, f"pointed |Aut| = {auts.order}, |G| = {ctx.spec.group.order}"
    witness = _beat_witness(space)  # a core's homotopy equivalences are its automorphisms
    if witness:
        return FAIL, f"the pointed space has {witness}"
    return PASS, f"basepoint fixed by all {auts.order} automorphisms; order matches G"


def _check_variants_distinct(ctx: _Context):
    ctx.require_sandt()
    sizes = ctx.options.fence_range
    for a in range(len(sizes)):
        for b in range(a + 1, len(sizes)):
            va, vb = ctx.space(ctx.fence(sizes[a])), ctx.space(ctx.fence(sizes[b]))
            witness = find_isomorphism(va, vb, budget=ctx.options.budget_aut)
            if witness is not None:
                return FAIL, f"fence {sizes[a]} and fence {sizes[b]} are isomorphic"
    for size in sizes:  # Stong: cores are homotopy equivalent only if isomorphic
        witness = _beat_witness(ctx.space(ctx.fence(size)))
        if witness:
            return FAIL, f"fence {size} has {witness}"
    return PASS, f"fence sizes {list(sizes)} pairwise non-isomorphic"


def _check_collapse_monotone(ctx: _Context):
    ctx.require_sandt()
    checked = []
    for fence in ctx.options.fence_range:
        key = ctx.fence(fence)
        fold = collapse_map(
            ctx.construction(key), source=ctx.space(key), target=ctx.space(ctx.fence(1))
        )
        if not fold.is_surjective():
            return FAIL, f"fold from fence {fence} is not surjective"
        checked.append(fence)
    return PASS, f"folds from fence sizes {checked} are continuous surjections"


# Cycles per column site at levels 0..r-1: one from the column links,
# plus one for each attachment glued on there.
_CYCLES_PER_SITE = {"sandt": 3, "sonly": 2, "none": 1}


def _betti_prediction(spec: ConstructionSpec) -> tuple[int, int]:
    """``(b0, b1)`` of the full space.

    Each of the ``c`` cosets of the generated subgroup is one component;
    the basepoint joins them and adds ``n - c`` independent cycles.
    """
    n, r, c = spec.group.order, spec.levels, _cosets(spec)
    b1 = _CYCLES_PER_SITE[spec.mode.kind] * n * r
    return (1, b1) if spec.pointed else (c, b1 - n + c)


def _check_betti_prediction(ctx: _Context):
    hs = homology_summary(ctx.complex(ctx.key))
    expected_b0, expected_b1 = _betti_prediction(ctx.spec)
    problems = []
    if hs.b0 != expected_b0:
        problems.append(f"b0 = {hs.b0}, expected {expected_b0}")
    if hs.b1 != expected_b1:
        problems.append(f"b1 = {hs.b1}, expected {expected_b1}")
    if hs.h1_torsion:
        problems.append(f"torsion {list(hs.h1_torsion)}, expected none")
    if problems:
        return FAIL, "; ".join(problems)
    return PASS, f"b0 = {hs.b0}, b1 = {hs.b1}, torsion-free"


def _check_betti_variant_invariance(ctx: _Context):
    ctx.require_sandt()
    summaries = {
        fence: homology_summary(ctx.complex(ctx.fence(fence)))
        for fence in ctx.options.fence_range
    }
    values = {(hs.b0, hs.b1, hs.h1_torsion) for hs in summaries.values()}
    if len(values) != 1:
        return FAIL, f"homology varies across fences: {summaries}"
    b0, b1, _ = values.pop()
    return PASS, f"b0 = {b0}, b1 = {b1} for every fence size in {list(ctx.options.fence_range)}"


def _check_graph_complex_agreement(ctx: _Context):
    space = ctx.space(ctx.key)
    components = len(space.components())
    rank = len(space.hasse) - len(space) + components
    hs = homology_summary(ctx.complex(ctx.key))
    if rank != hs.b1 or components != hs.b0:
        return FAIL, (
            f"covering graph: rank {rank}, {components} comps; "
            f"complex: b1 {hs.b1}, b0 {hs.b0}"
        )
    return PASS, f"covering-graph cycle rank {rank} matches b1; components match b0"


def _check_h1_action_faithful(ctx: _Context):
    ctx.require_gadgets()
    basis = cycle_basis(ctx.complex(ctx.key))
    auts = ctx.auts(ctx.key)
    matrices = [h1_action_rows(basis, m) for m in auts.maps]
    if matrices[auts.identity_index()] != tuple(((j, 1),) for j in range(basis.betti)):
        return FAIL, "the identity automorphism does not act as the identity matrix"
    if len(set(matrices)) != len(matrices):
        return FAIL, "two automorphisms induce the same matrix on first homology"

    # M(a·s) = M(a)·M(s) for every a and each generator s gives
    # M(a·b) = M(a)·M(b) for all b, by induction on the length of b as a
    # word; the induction needs the table to be a group table, which
    # as_group() checks (associativity included) before any product.
    # Rows are shared across the maps (each is a basis row gathered at a
    # cover), so row·M(s) is computed once per distinct row and generator.
    for j in _greedy_generators(auts.as_group()):
        times = cache(partial(row_times, matrix=matrices[j]))
        for i in range(auts.order):
            if tuple(map(times, matrices[i])) != matrices[auts.table[i][j]]:
                return FAIL, f"matrix composition disagrees for pair ({i}, {j})"
    return PASS, (
        f"{len(matrices)} automorphisms act by {basis.betti}x{basis.betti} "
        "matrices, pairwise distinct, composition respected"
    )


REGISTRY: tuple[tuple[str, object], ...] = (
    ("generators", _check_generators),
    ("base-point-count", _check_base_point_count),
    ("base-connected", _check_base_connected),
    ("base-aut-realization", _check_base_aut_realization),
    ("base-free-action", _check_base_free_action),
    ("base-level-preservation", _check_base_level_preservation),
    ("full-point-count", _check_full_point_count),
    ("full-no-beat-points", _check_full_no_beat_points),
    ("extension-bijection", _check_extension_bijection),
    ("pointed-star-fixed", _check_pointed_star_fixed),
    ("variants-distinct", _check_variants_distinct),
    ("collapse-monotone", _check_collapse_monotone),
    ("betti-prediction", _check_betti_prediction),
    ("betti-variant-invariance", _check_betti_variant_invariance),
    ("graph-complex-agreement", _check_graph_complex_agreement),
    ("h1-action-faithful", _check_h1_action_faithful),
)

CHECK_NAMES = tuple(name for name, _ in REGISTRY)


def _run_check(name: str, fn, ctx: _Context) -> CheckResult:
    start = time.perf_counter()
    try:
        status, detail = fn(ctx)
    except _Skip as skip:
        status, detail = SKIP, str(skip)
    except Exception as exc:
        status, detail = FAIL, f"{type(exc).__name__}: {exc}"
    return CheckResult(name, status, detail, (time.perf_counter() - start) * 1000)


def describe_spec(spec: ConstructionSpec) -> str:
    gens = ", ".join(spec.group.labels[g] for g in spec.gens) or "none"
    pointed = ", pointed" if spec.pointed else ""
    return (
        f"group of order {spec.group.order}, generators [{gens}], "
        f"mode {spec.mode}{pointed}"
    )


def _run(spec, checks, options) -> VerificationReport:
    """Run ``(name, fn)`` checks in order against one shared context."""
    options = options or VerifyOptions()
    ctx = _Context(spec, options)
    results = tuple(
        CheckResult(name, SKIP, "skipped by request", 0.0)
        if name in options.skip else _run_check(name, fn, ctx)
        for name, fn in checks
    )
    return VerificationReport(describe_spec(spec), results)


def verify_all(spec: ConstructionSpec, options: VerifyOptions | None = None) -> VerificationReport:
    return _run(spec, REGISTRY, options)


def verify_one(
    spec: ConstructionSpec, name: str, options: VerifyOptions | None = None
) -> VerificationReport:
    table = dict(REGISTRY)
    if name not in table:
        raise KeyError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    return _run(spec, [(name, table[name])], options)
