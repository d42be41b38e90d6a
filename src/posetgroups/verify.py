"""The verification suite: every structural claim as a named check.

``verify_all`` runs the registry in order against one construction spec
and returns a :class:`VerificationReport`.  Checks are independent: a
failure is recorded with a witness and the suite moves on.  Expensive
intermediates (spaces, automorphism groups, complexes) are cached in a
per-run context, including raised errors, so a broken builder fails every
check that needs it without being re-run.

Check names, and the mathematical statement each one tests, are listed in
the README; names are stable so scripts can ``--skip`` or single-run them.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

from .complexes import (
    cycle_basis,
    h1_action_columns,
    hasse_undirected,
    homology_summary,
    order_complex,
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
    build_base,
    build_space,
    collapse_map,
    expected_point_count,
    left_translation,
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


class _Skip(Exception):
    """Raised inside a check to mark it not-applicable."""


class _Context:
    """Lazy, error-caching store for the expensive build products."""

    def __init__(self, spec: ConstructionSpec, options: VerifyOptions):
        self.spec = spec
        self.options = options
        self._cache: dict[str, object] = {}

    def _get(self, key: str, make):
        if key not in self._cache:
            try:
                self._cache[key] = make()
            except Exception as exc:  # cached so dependents fail identically
                self._cache[key] = exc
        value = self._cache[key]
        if isinstance(value, Exception):
            raise value
        return value

    @property
    def base(self) -> FinitePoset:
        return self._get("base", lambda: build_base(self.spec))

    @property
    def full(self) -> FinitePoset:
        return self._get("full", lambda: build_space(self.spec))

    @property
    def base_auts(self) -> AutomorphismGroup:
        return self._get(
            "base_auts",
            lambda: AutomorphismGroup.of(self.base, budget=self.options.budget_aut),
        )

    @property
    def full_auts(self) -> AutomorphismGroup:
        return self._get(
            "full_auts",
            lambda: AutomorphismGroup.of(self.full, budget=self.options.budget_aut),
        )

    @property
    def pointed_space(self) -> FinitePoset:
        if self.spec.pointed:
            return self.full
        return self._get("pointed_space", lambda: add_basepoint(self.full))

    @property
    def pointed_auts(self) -> AutomorphismGroup:
        if self.spec.pointed:
            return self.full_auts
        return self._get(
            "pointed_auts",
            lambda: AutomorphismGroup.of(self.pointed_space, budget=self.options.budget_aut),
        )

    def variant_spec(self, fence: int) -> ConstructionSpec:
        return replace(self.spec, mode=GadgetMode("sandt", fence))

    def variant(self, fence: int) -> FinitePoset:
        if self.variant_spec(fence) == self.spec:
            return self.full
        return self._get(f"variant:{fence}", lambda: build_space(self.variant_spec(fence)))

    @property
    def full_complex(self):
        return self._get("full_complex", lambda: order_complex(self.full))

    @property
    def full_homology(self):
        return self._get("full_homology", lambda: homology_summary(self.full_complex))

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


def _check_base_point_count(ctx: _Context):
    n, r = ctx.spec.group.order, ctx.spec.levels
    expected = n * (r + 2)
    actual = len(ctx.base)
    status = PASS if actual == expected else FAIL
    return status, f"expected n(r+2)={expected}, built {actual}"


def _check_base_connected(ctx: _Context):
    spec = ctx.spec
    cosets = spec.group.order // len(spec.group.closure(spec.gens))
    components = len(ctx.base.components())
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
    auts = ctx.base_auts
    if auts.order != group.order:
        return FAIL, f"|Aut| = {auts.order}, |G| = {group.order}"
    # Aut = {L_g} with |Aut| = |G| makes g -> L_g an isomorphism onto Aut.
    translations = {
        left_translation(ctx.base, ctx.spec, g).images for g in range(group.order)
    }
    if {m.images for m in auts.maps} != translations:
        return FAIL, "automorphisms are not exactly the left translations"
    return PASS, f"|Aut| = {auts.order} and the composition table is isomorphic to G"


def _check_base_free_action(ctx: _Context):
    if ctx.base_auts.acts_freely():
        return PASS, "no non-identity automorphism fixes a point"
    sizes = ctx.base_auts.stabilizer_sizes()
    worst = max(sizes, key=sizes.get)
    return FAIL, f"point {worst} is fixed by {sizes[worst]} automorphisms"


def _check_base_level_preservation(ctx: _Context):
    base = ctx.base
    for k, m in enumerate(ctx.base_auts.maps):
        for i, lab in enumerate(base.labels):
            if base.labels[m.images[i]].level != lab.level:
                return FAIL, f"automorphism {k} moves a level-{lab.level} point"
    return PASS, "every automorphism preserves column levels"


def _check_full_point_count(ctx: _Context):
    ctx.require_gadgets()
    expected = expected_point_count(ctx.spec)
    actual = len(ctx.full)
    status = PASS if actual == expected else FAIL
    return status, f"expected {expected}, built {actual}"


def _check_full_no_beat_points(ctx: _Context):
    ctx.require_gadgets()
    beats = ctx.full.beat_points()
    if beats:
        i, kind = beats[0]
        return FAIL, f"{len(beats)} beat points, e.g. index {i} ({kind})"
    return PASS, "the attached space is its own core (no beat points)"


def _check_extension_bijection(ctx: _Context):
    ctx.require_gadgets()
    outcome = extension_restriction_check(
        ctx.base, ctx.full, ctx.base_auts, ctx.full_auts
    )
    if not outcome.ok:
        return FAIL, "; ".join(outcome.failures[:3])
    return PASS, (
        f"restriction and extension are inverse bijections "
        f"({outcome.full_order} automorphisms)"
    )


def _check_pointed_star_fixed(ctx: _Context):
    ctx.require_gadgets()
    space = ctx.pointed_space
    auts = ctx.pointed_auts
    star = space.index_of(Star())
    moved = [k for k, m in enumerate(auts.maps) if m.images[star] != star]
    if moved:
        return FAIL, f"{len(moved)} automorphism(s) move the basepoint"
    if auts.order != ctx.spec.group.order:
        return FAIL, f"pointed |Aut| = {auts.order}, |G| = {ctx.spec.group.order}"
    return PASS, f"basepoint fixed by all {auts.order} automorphisms; order matches G"


def _check_variants_distinct(ctx: _Context):
    ctx.require_sandt()
    sizes = ctx.options.fence_range
    for a in range(len(sizes)):
        for b in range(a + 1, len(sizes)):
            va, vb = ctx.variant(sizes[a]), ctx.variant(sizes[b])
            witness = find_isomorphism(va, vb, budget=ctx.options.budget_aut)
            if witness is not None:
                return FAIL, f"fence {sizes[a]} and fence {sizes[b]} are isomorphic"
    return PASS, f"fence sizes {list(sizes)} pairwise non-isomorphic"


def _check_collapse_monotone(ctx: _Context):
    ctx.require_sandt()
    checked = []
    for fence in ctx.options.fence_range:
        spec_n = ctx.variant_spec(fence)
        fold = collapse_map(spec_n, source=ctx.variant(fence), target=ctx.variant(1))
        if not fold.is_surjective():
            return FAIL, f"fold from fence {fence} is not surjective"
        checked.append(fence)
    return PASS, f"folds from fence sizes {checked} are continuous surjections"


def _betti_prediction(spec: ConstructionSpec) -> int:
    n, r = spec.group.order, spec.levels
    if spec.mode.kind == "sandt":
        return 3 * n * r - n + 1
    if spec.mode.kind == "sonly":
        return 2 * n * r - n + 1
    return n * (r - 1) + 1


def _check_betti_prediction(ctx: _Context):
    hs = ctx.full_homology
    expected_b1 = _betti_prediction(ctx.spec)
    cosets = ctx.spec.group.order // len(ctx.spec.group.closure(ctx.spec.gens))
    problems = []
    if hs.b0 != cosets:
        problems.append(f"b0 = {hs.b0}, expected {cosets}")
    if hs.b1 != expected_b1:
        problems.append(f"b1 = {hs.b1}, expected {expected_b1}")
    if hs.h1_torsion:
        problems.append(f"torsion {list(hs.h1_torsion)}, expected none")
    if problems:
        return FAIL, "; ".join(problems)
    return PASS, f"b0 = {hs.b0}, b1 = {hs.b1}, torsion-free"


def _check_betti_variant_invariance(ctx: _Context):
    ctx.require_sandt()
    summaries = {}
    for fence in ctx.options.fence_range:
        space = ctx.variant(fence)
        summaries[fence] = (
            ctx.full_homology if space is ctx.full else homology_summary(order_complex(space))
        )
    values = {(hs.b0, hs.b1, hs.h1_torsion) for hs in summaries.values()}
    if len(values) != 1:
        return FAIL, f"homology varies across fences: {summaries}"
    b0, b1, _ = values.pop()
    return PASS, f"b0 = {b0}, b1 = {b1} for every fence size in {list(ctx.options.fence_range)}"


def _check_graph_complex_agreement(ctx: _Context):
    graph = hasse_undirected(ctx.full)
    hs = ctx.full_homology
    if graph.cycle_rank != hs.b1 or graph.components != hs.b0:
        return FAIL, (
            f"covering graph: rank {graph.cycle_rank}, {graph.components} comps; "
            f"complex: b1 {hs.b1}, b0 {hs.b0}"
        )
    return PASS, (
        f"covering-graph cycle rank {graph.cycle_rank} matches b1; components match b0"
    )


def _check_h1_action_faithful(ctx: _Context):
    ctx.require_gadgets()
    basis = cycle_basis(ctx.full_complex)
    auts = ctx.full_auts
    matrices = [h1_action_columns(basis, m) for m in auts.maps]
    if matrices[auts.identity_index()] != tuple(((j, 1),) for j in range(basis.betti)):
        return FAIL, "the identity automorphism does not act as the identity matrix"
    if len(set(matrices)) != len(matrices):
        return FAIL, "two automorphisms induce the same matrix on first homology"

    def matmul(a, b):
        """a·b by sparse columns: column j of b combines the columns of a."""
        product = []
        for column in b:
            acc: dict[int, int] = {}
            for k, y in column:
                for i, x in a[k]:
                    acc[i] = acc.get(i, 0) + x * y
            product.append(tuple(sorted((i, v) for i, v in acc.items() if v)))
        return tuple(product)

    # M(a·s) = M(a)·M(s) for every a and each generator s gives
    # M(a·b) = M(a)·M(b) for all b, by induction on the length of b as a
    # word; the induction needs the table to be a group table, which
    # as_group() checks (associativity included) before any product.
    for j in _greedy_generators(auts.as_group()):
        for i in range(auts.order):
            if matmul(matrices[i], matrices[j]) != matrices[auts.table[i][j]]:
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


def verify_all(
    spec: ConstructionSpec,
    options: VerifyOptions | None = None,
    *,
    subject: str | None = None,
) -> VerificationReport:
    options = options or VerifyOptions()
    ctx = _Context(spec, options)
    results = []
    for name, fn in REGISTRY:
        if name in options.skip:
            results.append(CheckResult(name, SKIP, "skipped by request", 0.0))
            continue
        results.append(_run_check(name, fn, ctx))
    return VerificationReport(subject or describe_spec(spec), tuple(results))


def verify_one(
    spec: ConstructionSpec,
    name: str,
    options: VerifyOptions | None = None,
    *,
    subject: str | None = None,
) -> VerificationReport:
    table = dict(REGISTRY)
    if name not in table:
        raise KeyError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")
    ctx = _Context(spec, options or VerifyOptions())
    result = _run_check(name, table[name], ctx)
    return VerificationReport(subject or describe_spec(spec), (result,))
