"""The named-check registry: statuses, skip semantics, and failure honesty."""

from __future__ import annotations

import gc
import sys
from collections import Counter
from dataclasses import replace

import pytest

from posetgroups import homotopy, spaces, verify
from posetgroups import (
    CHECK_NAMES,
    AutomorphismGroup,
    ConstructionError,
    FiniteGroup,
    FinitePoset,
    GadgetMode,
    HomologySummary,
    PosetMap,
    SPoint,
    VerifyOptions,
    build_space,
    builtin_group,
    collapse_map,
    left_translation,
    spec_for,
    verify_all,
    verify_one,
)

from test_complexes import counting_snf


@pytest.mark.parametrize(
    "fences, message",
    [((), "at least one fence size"), ((0,), "got 0"), ((1, 3, -1), "got -1")],
)
def test_options_reject_fence_ranges_without_a_valid_size(fences, message):
    with pytest.raises(ValueError, match=message):
        VerifyOptions(fence_range=fences)


@pytest.mark.parametrize("fences", [(1, 1), (2, 3, 2)])
def test_options_reject_repeated_fence_sizes(fences):
    # a repeated size would be reported as a variant isomorphic to itself
    with pytest.raises(ValueError, match="fence sizes must be distinct"):
        VerifyOptions(fence_range=fences)


def result_map(report):
    return {r.name: r for r in report.results}


def test_every_check_passes_on_a_small_generating_spec():
    spec = spec_for(builtin_group("cyclic:2"), ["a"])
    report = verify_all(spec, VerifyOptions(fence_range=(1, 2)))
    assert report.ok
    passed, failed, skipped = report.counts()
    assert (passed, failed, skipped) == (len(CHECK_NAMES), 0, 0)


def test_verify_all_reduces_each_distinct_space_once(monkeypatch):
    # the full space (fence 1) is shared by betti-prediction,
    # graph-complex-agreement, betti-variant-invariance and h1-action-faithful
    calls = counting_snf(monkeypatch)
    spec = spec_for(builtin_group("cyclic:3"), ["a"], mode="sandt")
    report = verify_all(spec, VerifyOptions(fence_range=(1, 2, 3)))
    assert report.ok
    assert len(calls) == 3


MODES = ("sandt", "sonly", "none")


@pytest.mark.parametrize("pointed", [False, True])
@pytest.mark.parametrize("mode", MODES)
def test_every_mode_passes_with_and_without_the_basepoint(mode, pointed):
    spec = spec_for(builtin_group("cyclic:3"), ["a"], mode=mode, pointed=pointed)
    report = verify_all(spec, VerifyOptions(fence_range=(1, 2)))
    assert report.ok, report.to_text()


def count_calls(monkeypatch, owner, name, record):
    """Rebind ``owner.name`` wherever the package holds it, and pass each
    call's arguments to ``record`` before running it."""
    raw = owner.__dict__[name]
    real = raw.__func__ if isinstance(raw, classmethod) else raw

    def counted(*args, **kwargs):
        record(*args, **kwargs)
        return real(*args, **kwargs)

    if isinstance(raw, classmethod):
        monkeypatch.setattr(owner, name, classmethod(counted))
        return
    for module in list(sys.modules.values()):
        if module.__name__.startswith("posetgroups"):
            for key, value in list(vars(module).items()):
                if value is real:
                    monkeypatch.setattr(module, key, counted)


@pytest.mark.parametrize("pointed", [False, True])
@pytest.mark.parametrize("mode", MODES + ("sandt:2",))
def test_each_construction_is_built_searched_and_reduced_once(monkeypatch, mode, pointed):
    attached, columns, pointed_from, searched, reduced = [], [], [], Counter(), Counter()
    count_calls(monkeypatch, spaces, "attach_gadgets",
                lambda base, spec: attached.append((spec.mode, spec.pointed, id(base))))
    count_calls(monkeypatch, spaces, "build_base", lambda spec: columns.append(spec))
    count_calls(monkeypatch, spaces, "add_basepoint", lambda space: pointed_from.append(space))
    count_calls(monkeypatch, AutomorphismGroup, "of",
                lambda cls, space, **kw: searched.update([id(space)]))
    count_calls(monkeypatch, verify, "order_complex",
                lambda space, **kw: reduced.update([id(space)]))
    spec = spec_for(builtin_group("cyclic:3"), ["a"], mode=mode, pointed=pointed)
    assert verify_all(spec, VerifyOptions(fence_range=(1, 2, 3))).ok

    assert len(set(attached)) == len(attached) and not any(p for _, p, _ in attached)
    assert len({base for _, _, base in attached}) <= 1  # all on the one column space
    assert len({id(space) for space in pointed_from}) == len(pointed_from)
    assert set(searched.values()) == {1} and set(reduced.values()) <= {1}
    fences = {"sandt", "sandt:2", "sandt:3"} if spec.mode.kind == "sandt" else set()
    assert {str(m) for m, _, _ in attached} == ({str(mode)} | fences) - {"none"}
    if pointed:  # the full space and every fence variant gain the basepoint
        assert len(pointed_from) == len(fences | {str(mode)})
    else:  # only pointed-star-fixed adds one, and it needs attachments
        assert len(pointed_from) == (mode != "none")
    assert len(columns) == 1  # every space is built on the one column space


@pytest.mark.parametrize("group, gens, pointed", [
    ("dihedral:4", ["a", "b"], False), ("cyclic:3", ["a"], True),
])
def test_only_the_run_keys_group_tabulates_and_each_keys_its_maps_once(
    monkeypatch, group, gens, pointed
):
    contexts, keyed = [], Counter()

    class Recorded(verify._Context):
        def __init__(self, *args):
            super().__init__(*args)
            contexts.append(self)

    monkeypatch.setattr(verify, "_Context", Recorded)
    count_calls(monkeypatch, homotopy, "_separating_base", lambda maps: keyed.update([id(maps)]))
    assert verify_all(spec_for(builtin_group(group), gens, pointed=pointed)).ok
    (ctx,) = contexts
    groups = {key: auts for (kind, key), auts in ctx._cache.items() if kind == "auts"}
    assert len(groups) == (2 if pointed else 3)
    assert [key for key, auts in groups.items() if "table" in vars(auts)] == [ctx.key]
    assert set(keyed) <= {id(auts.maps) for auts in groups.values()}
    assert set(keyed.values()) == {1}


@pytest.mark.parametrize("pointed", [False, True])
def test_a_failing_column_build_runs_once_and_fails_every_space_alike(monkeypatch, pointed):
    calls = []

    def broken(spec):
        calls.append(spec)
        raise ConstructionError("no columns")

    monkeypatch.setattr(verify, "build_base", broken)
    report = verify_all(spec_for(builtin_group("cyclic:3"), ["a"], pointed=pointed))
    assert len(calls) == 1
    assert [(r.status, r.detail) for r in report.results[1:]] == (
        [("FAIL", "ConstructionError: no columns")] * (len(CHECK_NAMES) - 1)
    )


def test_gadget_checks_skip_when_nothing_is_attached():
    spec = spec_for(builtin_group("cyclic:2"), ["a"], mode="none")
    report = verify_all(spec)
    results = result_map(report)
    assert report.ok
    assert results["base-point-count"].status == "PASS"
    assert results["full-no-beat-points"].status == "SKIP"
    assert "attach" in results["full-no-beat-points"].detail
    assert results["collapse-monotone"].status == "SKIP"


def test_fence_checks_skip_in_star_only_mode():
    spec = spec_for(builtin_group("cyclic:2"), ["a"], mode="sonly")
    report = verify_all(spec)
    results = result_map(report)
    assert report.ok
    assert results["full-no-beat-points"].status == "PASS"
    assert results["variants-distinct"].status == "SKIP"
    assert results["betti-variant-invariance"].status == "SKIP"
    assert results["betti-prediction"].status == "PASS"


def test_non_generating_input_fails_honestly():
    spec = spec_for(
        builtin_group("klein4"), ["a"], require_generating=False
    )
    report = verify_all(spec, VerifyOptions(fence_range=(1,)))
    results = result_map(report)
    assert not report.ok
    assert results["generators"].status == "FAIL"
    # The base splits into cosets, and the connectivity check knows that.
    assert results["base-connected"].status == "PASS"
    assert results["base-aut-realization"].status == "FAIL"


def test_skip_by_request():
    spec = spec_for(builtin_group("cyclic:2"), ["a"])
    report = verify_all(
        spec,
        VerifyOptions(fence_range=(1,), skip=frozenset({"h1-action-faithful"})),
    )
    results = result_map(report)
    assert results["h1-action-faithful"].status == "SKIP"
    assert results["h1-action-faithful"].detail == "skipped by request"


def test_single_check_runs_alone():
    spec = spec_for(builtin_group("cyclic:3"), ["a"])
    report = verify_one(spec, "base-point-count")
    assert len(report.results) == 1
    assert report.results[0].status == "PASS"
    assert "9" in report.results[0].detail


def test_unknown_check_name_rejected():
    spec = spec_for(builtin_group("cyclic:2"), ["a"])
    with pytest.raises(KeyError, match="unknown check"):
        verify_one(spec, "no-such-check")


def test_reports_are_deterministic_apart_from_timing():
    spec = spec_for(builtin_group("cyclic:2"), ["a"])
    options = VerifyOptions(fence_range=(1, 2))
    first = verify_all(spec, options)
    second = verify_all(spec, options)
    assert first.to_text() == second.to_text()


def test_subject_line_describes_the_input():
    spec = spec_for(builtin_group("klein4"), ["a", "b"], pointed=True)
    report = verify_one(spec, "generators")
    assert "order 4" in report.subject
    assert "pointed" in report.subject
    assert report.to_text().startswith("subject: ")


# -- h1-action-faithful on corrupted inputs ----------------------------------


def h1_check(ctx):
    return verify._run_check(
        "h1-action-faithful", dict(verify.REGISTRY)["h1-action-faithful"], ctx
    )


@pytest.mark.parametrize("k", range(3))
def test_h1_check_fails_on_one_corrupted_matrix(monkeypatch, k):
    ctx = verify._Context(spec_for(builtin_group("cyclic:3"), ["a"]), VerifyOptions())
    assert h1_check(ctx).status == "PASS"
    wrong = ctx.auts(ctx.key).maps[k]
    real = verify.h1_action_rows

    def corrupted(basis, automorphism):
        rows = real(basis, automorphism)
        if automorphism is not wrong:
            return rows
        return (rows[1], rows[0]) + rows[2:]

    monkeypatch.setattr(verify, "h1_action_rows", corrupted)
    assert h1_check(ctx).status == "FAIL"


@pytest.mark.parametrize("row", range(3))
def test_h1_check_fails_on_one_swapped_table_entry(row):
    ctx = verify._Context(spec_for(builtin_group("cyclic:3"), ["a"]), VerifyOptions())
    auts = ctx.auts(ctx.key)
    table = [list(r) for r in auts.table]
    table[row][1], table[row][2] = table[row][2], table[row][1]
    copy = replace(auts)
    vars(copy)["table"] = tuple(map(tuple, table))
    ctx._cache["auts", ctx.key] = copy
    assert h1_check(ctx).status == "FAIL"


def test_h1_check_fails_on_a_relabelled_group_table():
    # Swapping a rotation and a reflection of S3 gives a valid group table
    # that is not the table of these maps: only the matrix products see it.
    group = builtin_group("dihedral:3")
    ctx = verify._Context(spec_for(group, ["a", "b"]), VerifyOptions())
    auts = ctx.auts(ctx.key)
    e = auts.identity_index()
    rotation = next(k for k in range(auts.order) if k != e and auts.table[k][k] != e)
    reflection = next(k for k in range(auts.order) if k != e and auts.table[k][k] == e)
    swap = list(range(auts.order))
    swap[rotation], swap[reflection] = reflection, rotation
    table = tuple(
        tuple(swap[auts.table[swap[a]][swap[b]]] for b in range(auts.order))
        for a in range(auts.order)
    )
    copy = replace(auts)
    vars(copy)["table"] = table
    ctx._cache["auts", ctx.key] = copy
    ctx.auts(ctx.key).as_group()  # still a group table
    result = h1_check(ctx)
    assert result.status == "FAIL"
    assert result.detail.startswith("matrix composition disagrees for pair")


# -- per-map checks of the column space on injected maps ---------------------


def base_check(ctx, name):
    return verify._run_check(name, dict(verify.REGISTRY)[name], ctx)


def with_extra_base_map(images):
    """A cyclic:3 context whose column-space group has one more map, unchecked."""
    ctx = verify._Context(spec_for(builtin_group("cyclic:3"), ["a"]), VerifyOptions())
    base, auts = ctx.space(verify._BASE), ctx.auts(verify._BASE)
    extra = PosetMap._trusted(base, base, tuple(images(base, auts)))
    ctx._cache["auts", verify._BASE] = replace(auts, maps=auts.maps + (extra,))
    return ctx


def test_free_action_check_fails_on_a_map_fixing_a_point():
    def fixing_point_0(base, auts):
        moving = next(m for m in auts.maps if m.images[0] != 0)
        return (0,) + moving.images[1:]

    ctx = with_extra_base_map(fixing_point_0)
    assert not ctx.auts(verify._BASE).acts_freely()
    result = base_check(ctx, "base-free-action")
    assert (result.status, result.detail) == ("FAIL", "point 0 is fixed by 2 automorphisms")


def test_level_check_fails_on_a_map_moving_a_level():
    def swapping_two_levels(base, auts):
        images = list(range(len(base)))
        first = base.labels[0].level
        other = next(i for i, lab in enumerate(base.labels) if lab.level != first)
        images[0], images[other] = other, 0
        return images

    # point 0 is the level -1 point of column 0; the injected map is the 4th
    result = base_check(with_extra_base_map(swapping_two_levels), "base-level-preservation")
    assert (result.status, result.detail) == ("FAIL", "automorphism 3 moves a level--1 point")
    assert base_check(with_extra_base_map(lambda base, auts: range(len(base))),
                      "base-level-preservation").status == "PASS"


def test_a_searched_and_verified_space_is_freed_with_its_indexes(c3_spec):
    # The cover index and the layout live on the poset, so nothing keeps a
    # space alive once the caller drops it.
    def alive():
        return {id(obj) for obj in gc.get_objects() if isinstance(obj, FinitePoset)}

    gc.collect()
    before = alive()
    space = build_space(c3_spec)
    auts = AutomorphismGroup.of(space)
    assert all(m.is_isomorphism() for m in auts.maps)
    assert left_translation(space, c3_spec, 1).is_isomorphism()
    assert collapse_map(c3_spec, source=space, target=space).is_surjective()
    assert space.cover_index is space.cover_index and space.layout is space.layout
    assert verify_all(c3_spec, VerifyOptions(fence_range=(1, 2))).ok
    del space, auts
    gc.collect()
    assert alive() - before == set()


# -- beat points of the fence variants and of the pointed space ---------------


def with_a_point_above(space, below):
    """``space`` plus one new maximum covering the point ``below`` alone."""
    return FinitePoset.from_relations(
        list(space.labels) + ["extra"], list(space.hasse) + [(below, len(space))]
    )


def test_variants_check_fails_on_a_fence_2_builder_leaving_a_beat_point(monkeypatch):
    real = verify.attach_gadgets

    def leaky(base, spec):
        space = real(base, spec)
        return with_a_point_above(space, 0) if spec.mode == GadgetMode("sandt", 2) else space

    monkeypatch.setattr(verify, "attach_gadgets", leaky)
    results = result_map(verify_all(spec_for(builtin_group("cyclic:3"), ["a"])))
    fence2 = len(build_space(spec_for(builtin_group("cyclic:3"), ["a"], mode="sandt:2")))
    assert results["full-no-beat-points"].status == "PASS"  # the run's own space is fence 1
    assert (results["variants-distinct"].status, results["variants-distinct"].detail) == (
        "FAIL", f"fence 2 has 1 beat points, e.g. index {fence2} (down)"
    )


def test_pointed_check_fails_on_a_point_hung_above_the_basepoint(monkeypatch):
    # The star stays fixed and the new point is the only one above it, so
    # Aut is unchanged; only the beat-point test sees the broken space.
    real = verify.add_basepoint
    monkeypatch.setattr(verify, "add_basepoint",
                        lambda space: with_a_point_above(real(space), len(space)))
    spec = spec_for(builtin_group("cyclic:3"), ["a"])
    results = result_map(verify_all(spec))
    star = len(build_space(spec))
    assert results["full-no-beat-points"].status == "PASS"  # the run is unpointed
    assert (results["pointed-star-fixed"].status, results["pointed-star-fixed"].detail) == (
        "FAIL", f"the pointed space has 2 beat points, e.g. index {star} (up)"
    )


# -- FAIL branches on mutant builders and patched products --------------------


def test_base_realization_reads_translation_images_without_building_maps(monkeypatch):
    # The automorphisms are already edge-verified: each translation is
    # matched by its images, and no PosetMap is built or validated for it.
    ctx = verify._Context(spec_for(builtin_group("symmetric:3"), ["(01)", "(12)"]),
                          VerifyOptions())
    ctx.auts(verify._BASE)
    built = []
    real = PosetMap.__post_init__
    monkeypatch.setattr(PosetMap, "__post_init__", lambda m: (built.append(m), real(m)))
    assert base_check(ctx, "base-aut-realization").status == "PASS"
    assert built == []


def opposite(group):
    """The group with the transposed table: its left translations are the
    right translations of ``group``."""
    return FiniteGroup(group.labels, tuple(zip(*group.cayley)))


def test_base_realization_fails_on_a_right_multiplication_builder(monkeypatch):
    # Links (h·g, -1) < (g, b): Aut is the right translations, |Aut| = |G|,
    # but for S3 a left translation is not even order-preserving.
    real = verify.build_base
    monkeypatch.setattr(verify, "build_base",
                        lambda spec: real(replace(spec, group=opposite(spec.group))))
    spec = spec_for(builtin_group("symmetric:3"), ["(01)", "(12)"])
    result = result_map(verify_all(spec))["base-aut-realization"]
    assert (result.status, result.detail) == (
        "FAIL", "automorphisms are not exactly the left translations"
    )


def test_extension_check_fails_when_one_attachment_loses_a_cover(monkeypatch):
    real = verify.attach_gadgets

    def cut(base, spec):
        full = real(base, spec)
        edge = (full.index_of(SPoint("C", 1, 0)), full.index_of(SPoint("A", 1, 0)))
        return FinitePoset.from_relations(full.labels, [e for e in full.hasse if e != edge])

    monkeypatch.setattr(verify, "attach_gadgets", cut)
    result = result_map(verify_all(spec_for(builtin_group("cyclic:3"), ["a"])))
    assert (result["extension-bijection"].status, result["extension-bijection"].detail) == (
        "FAIL",
        "base automorphism 1 does not extend: not order-preserving on cover (11, 9): "
        "21 !<= 19; base automorphism 2 does not extend: not order-preserving on cover "
        "(31, 29): 21 !<= 19; automorphism counts differ: base 3, full 1",
    )


def test_collapse_check_fails_on_a_fold_that_misses_a_point(monkeypatch):
    real = verify.collapse_map
    monkeypatch.setattr(
        verify, "collapse_map",
        lambda spec, *, source, target: real(spec, source=source,
                                             target=with_a_point_above(target, 0)),
    )
    result = base_check(verify._Context(spec_for(builtin_group("cyclic:3"), ["a"]),
                                        VerifyOptions()), "collapse-monotone")
    assert (result.status, result.detail) == ("FAIL", "fold from fence 1 is not surjective")


def test_homology_checks_fail_on_a_wrong_summary(monkeypatch):
    monkeypatch.setattr(verify, "homology_summary", lambda cx: HomologySummary(2, 0, (2,)))
    ctx = verify._Context(spec_for(builtin_group("cyclic:3"), ["a"]), VerifyOptions())
    results = [base_check(ctx, name) for name in ("betti-prediction", "graph-complex-agreement")]
    assert [(r.status, r.detail) for r in results] == [
        ("FAIL", "b0 = 2, expected 1; b1 = 0, expected 7; torsion [2], expected none"),
        ("FAIL", "covering graph: rank 7, 1 comps; complex: b1 0, b0 2"),
    ]


def test_variant_invariance_fails_when_a_fence_changes_b1(monkeypatch):
    real, seen = verify.homology_summary, []

    def growing(cx):
        seen.append(cx)
        return replace(real(cx), b1=real(cx).b1 + len(seen) - 1)

    monkeypatch.setattr(verify, "homology_summary", growing)
    ctx = verify._Context(spec_for(builtin_group("cyclic:3"), ["a"]), VerifyOptions())
    result = base_check(ctx, "betti-variant-invariance")
    assert (result.status, result.detail) == ("FAIL", (
        "homology varies across fences: {1: HomologySummary(b0=1, b1=7, h1_torsion=()), "
        "2: HomologySummary(b0=1, b1=8, h1_torsion=()), "
        "3: HomologySummary(b0=1, b1=9, h1_torsion=())}"
    ))


def test_h1_check_fails_when_two_automorphisms_share_a_matrix(monkeypatch):
    ctx = verify._Context(spec_for(builtin_group("cyclic:3"), ["a"]), VerifyOptions())
    auts = ctx.auts(ctx.key)
    identity = auts.maps[auts.identity_index()]
    moved = next(m for m in auts.maps if m is not identity)
    real = verify.h1_action_rows
    monkeypatch.setattr(verify, "h1_action_rows",
                        lambda basis, m: real(basis, identity if m is moved else m))
    result = h1_check(ctx)
    assert (result.status, result.detail) == (
        "FAIL", "two automorphisms induce the same matrix on first homology"
    )
