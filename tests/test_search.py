"""Isomorphism and automorphism search on labeled posets.

The search must be label-blind: only the order structure may influence
whether two posets match, never the names attached to the points.
"""

from __future__ import annotations

import functools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetgroups import (
    search,
    FinitePoset,
    SizeLimitExceeded,
    all_automorphisms,
    build_space,
    builtin_group,
    find_isomorphism,
    spec_for,
    standard_generator_labels,
)

from conftest import fixture_space
from search_oracle import (
    leaf_search, oracle_closure, oracle_plan, oracle_search, oracle_target,
)
from test_posets import small_posets


def permuted_copy(poset: FinitePoset, perm: list[int]) -> FinitePoset:
    """Rebuild ``poset`` with point ``i`` stored at slot ``perm[i]``."""
    n = len(poset)
    labels: list = [None] * n
    for i in range(n):
        labels[perm[i]] = poset.labels[i]
    pairs = [(perm[a], perm[b]) for a, b in poset.hasse]
    return FinitePoset.from_relations(labels, pairs)


def test_finds_isomorphism_between_shuffled_copies():
    space = fixture_space("wedge")
    rng = random.Random(7)
    perm = list(range(len(space)))
    rng.shuffle(perm)
    copy = permuted_copy(space, perm)
    witness = find_isomorphism(space, copy)
    assert witness is not None
    assert witness.is_isomorphism()


def test_label_blindness():
    space = fixture_space("crown")
    renamed = FinitePoset.from_hasse([f"pt{i}" for i in range(len(space))], space.hasse)
    witness = find_isomorphism(space, renamed)
    assert witness is not None and witness.is_isomorphism()


def crowns(*sizes: int) -> FinitePoset:
    """Disjoint crowns: the k-crown has minima a_i < b_i, b_{i+1} (mod k), a 2k-cycle."""
    pairs, offset = [], 0
    for k in sizes:
        for i in range(k):
            pairs += [(offset + i, offset + k + i), (offset + i, offset + k + (i + 1) % k)]
        offset += 2 * k
    return FinitePoset.from_relations(list(range(offset)), pairs)


def test_distinguishes_same_sized_posets():
    # Both have four points and four cover edges, but the crown is a cycle
    # of length four while the diamond has a top and a bottom.
    crown = fixture_space("crown")
    diamond = fixture_space("diamond")
    assert find_isomorphism(crown, diamond) is None
    # A 12-cycle and two 6-cycles: every point has the same set sizes and
    # cover degrees, so only the trace below the root can tell them apart.
    cycle12, two_cycles6 = crowns(6), crowns(3, 3)
    assert find_isomorphism(cycle12, two_cycles6) is None
    assert find_isomorphism(two_cycles6, cycle12) is None
    assert find_isomorphism(cycle12, permuted_copy(cycle12, [*range(1, 12), 0])) is not None


def test_a_refinement_that_stops_short_of_the_trace_dies():
    # Two copies of a 2-chain beside an N, against two copies of a V beside
    # a Λ.  Every point has the same set sizes and cover degrees in both, but
    # the second colouring is already equitable: its root refinement makes
    # no split, a proper prefix of the first's root trace.  That root must
    # die, so the search stops at the root, before the first path's two
    # levels are built or counted.
    def doubled(pairs):
        return FinitePoset.from_relations(
            list(range(12)), [*pairs, *((a + 6, b + 6) for a, b in pairs)]
        )

    chain_and_n = doubled([(0, 1), (2, 3), (2, 5), (4, 5)])
    vee_and_wedge = doubled([(0, 1), (0, 3), (2, 5), (4, 5)])
    for budget in (1, 2, 3):
        assert find_isomorphism(chain_and_n, vee_and_wedge, budget=budget) is None


def test_size_mismatch_is_cheap_rejection():
    assert find_isomorphism(fixture_space("chain2"), fixture_space("vee")) is None


def test_automorphisms_sorted_and_deterministic():
    crown = fixture_space("crown")
    maps = all_automorphisms(crown)
    images = [m.images for m in maps]
    assert images == sorted(images)
    assert images == [m.images for m in all_automorphisms(crown)]
    assert len(maps) == 4


def test_automorphism_count_on_asymmetric_space(pentad):
    assert len(all_automorphisms(pentad)) == 2


def test_budget_enforced_on_symmetric_space():
    # An 8-point antichain has 8! automorphisms; a tiny budget must trip
    # before the search finishes instead of grinding through them.
    antichain = FinitePoset.from_relations(list(range(8)), [])
    with pytest.raises(SizeLimitExceeded) as info:
        all_automorphisms(antichain, budget=10)
    # the message names the layer, how far it got and the knob that raises it
    message = str(info.value)
    assert "automorphism/isomorphism search" in message and "10 nodes" in message
    assert "--budget-aut" in message and "POSETGROUPS_BUDGET_AUT" in message


def test_budget_trips_on_group_order_before_enumerating():
    # A 40-point antichain has 40! automorphisms.  The orbit sizes pass the
    # default budget after fewer than a hundred nodes, so the search stops
    # there instead of walking leaves until the node count trips.
    antichain = FinitePoset.from_relations(list(range(40)), [])
    started = time.perf_counter()
    with pytest.raises(SizeLimitExceeded) as info:
        all_automorphisms(antichain)
    assert time.perf_counter() - started < 5
    message = str(info.value)
    assert "automorphism/isomorphism search" in message
    assert "--budget-aut" in message and "POSETGROUPS_BUDGET_AUT" in message


def test_isomorphism_composes_with_inverse():
    space = fixture_space("wedge")
    renamed = FinitePoset.from_hasse([f"q{i}" for i in range(len(space))], space.hasse)
    fwd = find_isomorphism(space, renamed)
    back = find_isomorphism(renamed, space)
    assert fwd is not None and back is not None
    roundtrip = back.compose(fwd)
    assert roundtrip.images == tuple(range(len(space)))


@settings(max_examples=60, deadline=None)
@given(small_posets(), st.randoms(use_true_random=False))
def test_shuffled_copies_always_match(poset, rng):
    perm = list(range(len(poset)))
    rng.shuffle(perm)
    copy = permuted_copy(poset, perm)
    witness = find_isomorphism(poset, copy)
    assert witness is not None
    assert witness.is_isomorphism()
    assert oracle_search(poset, copy, first_only=True)


@settings(max_examples=60, deadline=None)
@given(small_posets())
def test_automorphisms_form_a_group(poset):
    maps = all_automorphisms(poset)
    images = {m.images for m in maps}
    identity = tuple(range(len(poset)))
    assert identity in images
    for m in maps:
        assert m.inverse().images in images
    for f in maps[:4]:
        for g in maps[:4]:
            assert f.compose(g).images in images


# -- agreement with the full re-signature oracle (tests/search_oracle.py) -------


@st.composite
def same_size_pairs(draw):
    """Two random posets on the same 2..6 labelled points."""
    n = draw(st.integers(min_value=2, max_value=6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    relations = st.sets(
        pair.map(lambda p: (min(p), max(p))).filter(lambda p: p[0] != p[1]), max_size=8
    )
    labels = [f"p{i}" for i in range(n)]
    return tuple(FinitePoset.from_relations(labels, draw(relations)) for _ in range(2))


@settings(max_examples=80, deadline=None)
@given(small_posets())
def test_automorphisms_equal_oracle_on_random_posets(poset):
    assert [m.images for m in all_automorphisms(poset)] == oracle_search(poset, poset)


@pytest.mark.parametrize("group", ["cyclic:3", "klein4", "dihedral:3"])
@pytest.mark.parametrize("mode", ["none", "sandt", "sandt:2"])
@settings(max_examples=3, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_automorphisms_equal_oracle_on_shuffled_built_spaces(group, mode, rng):
    space = build_space(spec_for(builtin_group(group), standard_generator_labels(group),
                                 mode=mode))
    perm = list(range(len(space)))
    rng.shuffle(perm)
    copy = permuted_copy(space, perm)
    assert [m.images for m in all_automorphisms(copy)] == oracle_search(copy, copy)


@settings(max_examples=150, deadline=None)
@given(same_size_pairs())
def test_isomorphism_existence_agrees_with_oracle(pair):
    first, second = pair
    witness = find_isomorphism(first, second)
    assert (witness is None) == (not oracle_search(first, second, first_only=True))
    if witness is not None:
        assert witness.is_isomorphism()


# -- trees several levels deep, where orbit pruning acts below the root -------


@st.composite
def disjoint_unions(draw, max_copies=4):
    """2-4 copies of one random connected poset on 1-4 points, points shuffled.

    A connected piece has at most 6 automorphisms, so the union's group
    (the wreath product with the permutations of the copies) stays below
    1300 elements and the leaf-by-leaf oracles stay quick.
    """
    piece = draw(small_posets(max_points=4).filter(lambda p: len(p.components()) == 1))
    copies = draw(st.integers(min_value=2, max_value=min(max_copies, 4 if len(piece) < 4 else 3)))
    m = len(piece)
    pairs = [(a + k * m, b + k * m) for k in range(copies) for a, b in piece.hasse]
    perm = draw(st.permutations(range(copies * m)))
    return FinitePoset.from_relations(
        [f"u{i}" for i in range(copies * m)], [(perm[a], perm[b]) for a, b in pairs]
    )


@functools.lru_cache(maxsize=None)
def built_space(group: str, mode: str, pointed: bool = False) -> FinitePoset:
    return build_space(spec_for(builtin_group(group), standard_generator_labels(group),
                                mode=mode, pointed=pointed))


@st.composite
def shuffled_built_spaces(draw, modes=("none",), pointed=False):
    """A built space (mode none: the column space) with its points shuffled;
    with ``pointed``, drawn pointed or not."""
    space = built_space(draw(st.sampled_from(["cyclic:3", "cyclic:4", "klein4", "dihedral:3"])),
                        draw(st.sampled_from(modes)), pointed and draw(st.booleans()))
    return permuted_copy(space, draw(st.permutations(range(len(space)))))


def deep_posets(modes=("none",), max_antichain=7, max_copies=4):
    """Posets whose individualization trees are several levels deep."""
    antichains = st.integers(min_value=1, max_value=max_antichain).map(
        lambda n: FinitePoset.from_relations(list(range(n)), [])
    )
    return st.one_of(disjoint_unions(max_copies), antichains, shuffled_built_spaces(modes))


@settings(max_examples=60, deadline=None)
@given(deep_posets())
def test_automorphisms_equal_both_oracles_on_deep_trees(poset):
    found = [m.images for m in all_automorphisms(poset)]
    assert found == leaf_search(poset, poset)
    assert found == oracle_search(poset, poset)


@settings(max_examples=40, deadline=None)
@given(deep_posets(modes=("none", "sonly", "sandt")))
def test_base_keyed_closure_equals_the_full_tuple_closure(poset):
    calls = []

    def spy(poset, base, gens, order):
        calls.append((base, list(gens), order))
        return real(poset, base, gens, order)

    real = search._closure
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_closure", spy)
        found = [m.images for m in all_automorphisms(poset)]
    ((base, gens, order),) = calls
    assert found == oracle_closure(poset, gens, order)
    # the base images tell the automorphisms apart
    assert len({tuple(images[b] for b in base) for images in found}) == len(found)


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_posets(), deep_posets(modes=("none", "sonly", "sandt"))))
def test_first_path_targets_equal_a_scan_of_every_cell(poset):
    part = search._Partition(poset)
    tree = search._Tree(part, search.DEFAULT_AUT_BUDGET)
    tree.first_path(part)
    replay = search._Partition(poset)
    replay.refine(list(replay.starts), [])
    for cell, point, _, _ in tree.levels:
        assert cell == oracle_target(replay)
        replay.individualize(cell, point, [])
    assert oracle_target(replay) == -1 and replay.elems == part.elems


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_posets(), deep_posets(modes=("none", "sandt"))),
       st.randoms(use_true_random=False))
def test_traces_agree_on_shuffled_copies(poset, rng):
    # A copy differs only in how its points are numbered, so its tree
    # follows the first path's trace: a witness exists, and the group found
    # from the copy's first path is the one every leaf of the joint tree gives.
    perm = list(range(len(poset)))
    rng.shuffle(perm)
    copy = permuted_copy(poset, perm)
    witness = find_isomorphism(poset, copy)
    assert witness is not None and witness.is_isomorphism()
    assert [m.images for m in all_automorphisms(copy)] == leaf_search(copy, copy)


# -- the propagation plan: one refinement per search on the built spaces ------


@pytest.mark.parametrize("group, mode, pointed", [
    ("dihedral:6", "sandt", False),
    ("dihedral:6", "sandt", True),
    ("dihedral:6", "sandt:2", False),
    ("symmetric:5", "none", False),
])
def test_built_spaces_are_searched_with_one_refinement_per_poset(group, mode, pointed):
    # The plan reaches every point of a built space, so each search refines
    # each poset's root once and individualizes nothing.
    space = built_space(group, mode, pointed)
    copy = permuted_copy(space, random.Random(3).sample(range(len(space)), len(space)))
    refined = []
    real = search._Partition.refine

    def refine(part, *args, **kwargs):
        refined.append(part)
        return real(part, *args, **kwargs)

    def individualize(*args, **kwargs):
        raise AssertionError("a built space should not reach the individualization tree")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search._Partition, "refine", refine)
        patch.setattr(search._Partition, "individualize", individualize)
        auts = all_automorphisms(copy)
        assert len(refined) == 1
        witness = find_isomorphism(space, copy)
        assert len(refined) == 3 and refined[1] is not refined[2]
    assert len(auts) == builtin_group(group).order
    assert witness is not None and witness.is_isomorphism()


def outcomes(poset_p: FinitePoset, poset_q: FinitePoset, budget: int) -> list:
    """Both searches' results at ``budget``: the maps, the witness, or the budget error text."""
    found = []
    for run in (lambda: [m.images for m in all_automorphisms(poset_q, budget=budget)],
                lambda: find_isomorphism(poset_p, poset_q, budget=budget)):
        try:
            result = run()
        except SizeLimitExceeded as error:
            result = str(error)
        found.append(getattr(result, "images", result))
    return found


def without_plan(poset_p: FinitePoset, poset_q: FinitePoset, budget: int) -> list:
    """:func:`outcomes` with the plan forced to stall, so the tree does every level."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_plan", lambda index, p: None)
        return outcomes(poset_p, poset_q, budget)


@st.composite
def search_pairs(draw):
    """A poset and a shuffled copy, or two posets of one shape that are not isomorphic."""
    if draw(st.booleans()):
        mode = draw(st.sampled_from(["none", "sandt"]))
        return built_space("dihedral:4", mode), built_space("quaternion8", mode)
    poset = draw(st.one_of(
        small_posets(),
        shuffled_built_spaces(modes=("none", "sandt", "sandt:2"), pointed=True),
    ))
    return poset, permuted_copy(poset, draw(st.permutations(range(len(poset)))))


@settings(max_examples=80, deadline=None)
@given(search_pairs(), st.one_of(st.integers(1, 12), st.just(search.DEFAULT_AUT_BUDGET)))
def test_the_plan_gives_what_the_tree_gives(pair, budget):
    # The same maps, the same witness (None included) and the same budget
    # error at the same budget, with and without the plan.
    assert outcomes(*pair, budget) == without_plan(*pair, budget)


def test_a_crown_stalls_the_plan_and_keeps_the_tree():
    # Every point of the crown has two covers in the one wide root cell, so
    # no point is forced and the tree searches as before.
    crown = fixture_space("crown")
    plans = []
    real = search._plan

    def spy(index, p):
        plans.append(real(index, p))
        return plans[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(search, "_plan", spy)
        found = outcomes(crown, crown, search.DEFAULT_AUT_BUDGET)
    assert plans == [None, None] and len(found[0]) == 4
    assert found == without_plan(crown, crown, search.DEFAULT_AUT_BUDGET)


@settings(max_examples=60, deadline=None)
@given(st.one_of(small_posets(), st.just(fixture_space("crown")),
                 shuffled_built_spaces(modes=("none", "sandt", "sandt:2"), pointed=True)),
       st.data())
def test_the_plan_equals_the_dict_per_point_oracle(poset, data):
    # From every point of a wide root cell, so the stalled plans are compared too.
    part = search._Partition(poset)
    part.refine(list(part.starts), [])
    starts = [start for start in part.starts if part.end[start] - start > 1]
    cell = data.draw(st.sampled_from(starts)) if starts else 0
    for p in part.elems[cell:part.end[cell]] if starts else range(len(poset)):
        assert search._plan(part, p) == oracle_plan(part, p)


def test_the_crown_stalls_the_plan_and_a_built_space_does_not():
    # From the least point of the first smallest wide root cell, as the search starts.
    for poset, stalls in ((fixture_space("crown"), True),
                          (built_space("dihedral:3", "sandt:2", pointed=True), False)):
        part = search._Partition(poset)
        part.refine(list(part.starts), [])
        p = min(part.elems[oracle_target(part):part.end[oracle_target(part)]])
        assert (search._plan(part, p) is None) == stalls
        assert search._plan(part, p) == oracle_plan(part, p)
