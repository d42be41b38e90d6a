import itertools
import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetgroups import (
    AutomorphismGroup,
    ConstructionError,
    FinitePoset,
    MapError,
    PosetMap,
    SizeLimitExceeded,
    SPoint,
    Star,
    build_base,
    build_space,
    builtin_group,
    comparative_retractions,
    core,
    enumerate_selfmaps,
    extension_restriction_check,
    homotopy_classes,
    klein_four,
    spec_for,
    standard_generator_labels,
)

from posetgroups.labels import Base

from conftest import fixture_space
from groups_oracle import groups_isomorphic
from homotopy_oracle import (
    automorphism_group,
    by_labels,
    oracle_comparative_retractions,
    oracle_core,
    oracle_extension_restriction_check,
    oracle_aut_table,
    oracle_homotopy_classes,
    oracle_selfmaps,
    pointwise_leq,
)
from posets_oracle import drop_hasse_edge
from test_posets import crown_posets, small_posets
from test_search import built_space, deep_posets, permuted_copy, shuffled_built_spaces
from test_spaces import perturbed_spaces


# -- cores --------------------------------------------------------------------


def test_pentad_core_is_the_crown(pentad, crown):
    result = core(pentad)
    assert len(result.poset) == 4
    assert result.trace == (("c", "up"),)
    iso = by_labels(
        result.poset, crown, lambda lab: {"a": "p", "b": "q", "d": "u", "e": "v"}[lab]
    )
    assert iso.is_isomorphism()


def test_core_retraction_section(pentad):
    result = core(pentad)
    roundtrip = result.retraction.compose(result.inclusion)
    assert roundtrip.images == tuple(range(len(result.poset)))
    # the other composite moves each point to a comparable one
    other = result.inclusion.compose(result.retraction)
    for i in range(len(pentad)):
        assert pentad.leq(i, other(i)) or pentad.leq(other(i), i)


def test_contractible_spaces_core_to_a_point():
    for name in ("chain2", "vee", "diamond"):
        assert len(core(fixture_space(name)).poset) == 1


def test_crown_is_its_own_core(crown):
    result = core(crown)
    assert result.poset == crown
    assert result.trace == ()


def test_constructed_space_is_its_own_core(c3_spec):
    space = build_space(c3_spec)
    assert core(space).trace == ()


@given(small_posets())
@settings(max_examples=100, deadline=None)
def test_core_is_beat_point_free_and_idempotent(poset):
    result = core(poset)
    assert result.poset.beat_points() == []
    again = core(result.poset)
    assert again.poset == result.poset
    assert again.trace == ()
    # retraction is a left inverse of inclusion
    if len(result.poset):
        roundtrip = result.retraction.compose(result.inclusion)
        assert roundtrip.images == tuple(range(len(result.poset)))


# -- agreement with the rebuild-per-point oracle (tests/homotopy_oracle.py) -----


@given(small_posets(max_points=8))
@settings(max_examples=200, deadline=None)
def test_core_equals_oracle_on_random_posets(poset):
    assert core(poset) == oracle_core(poset)


@pytest.mark.parametrize("group", ["cyclic:3", "klein4"])
@settings(max_examples=3, deadline=None)
@given(rng=st.randoms(use_true_random=False))
def test_core_equals_oracle_on_shuffled_column_spaces(group, rng):
    space = build_space(
        spec_for(builtin_group(group), standard_generator_labels(group), mode="none")
    )
    perm = list(range(len(space)))
    rng.shuffle(perm)
    copy = permuted_copy(space, perm)
    result = core(copy)
    # the column space retracts onto its bottom two levels
    assert len(result.poset) == 2 * builtin_group(group).order
    assert result == oracle_core(copy)


def assert_core_matches_oracle(space):
    """Each part of ``core``'s result against the oracle's, one at a time."""
    got, want = core(space), oracle_core(space)
    assert got.trace == want.trace
    assert got.poset == want.poset
    assert got.retraction.images == want.retraction.images
    assert got.inclusion.images == want.inclusion.images
    return got


def shuffled_copy(poset, rng):
    return permuted_copy(poset, rng.sample(range(len(poset)), len(poset)))


@pytest.mark.parametrize("density", [0.12, 0.2, 0.3, 0.45])
def test_core_equals_oracle_on_random_posets_of_9_to_14_points(density):
    rng = random.Random(int(density * 100))
    for _ in range(150):
        n = rng.randint(9, 14)
        pairs = [p for p in itertools.combinations(range(n), 2) if rng.random() < density]
        poset = FinitePoset.from_relations([f"p{i}" for i in range(n)], pairs)
        assert_core_matches_oracle(shuffled_copy(poset, rng))


def fan(width: int) -> FinitePoset:
    """A three-point spine with ``width`` points below it and ``width`` above:
    removing a spine point joins its neighbours by new covers."""
    labels = ["s0", "s1", "s2"] + [f"b{k}" for k in range(width)] + [f"t{k}" for k in range(width)]
    pairs = [(0, 1), (1, 2)]
    pairs += [(3 + k, 0) for k in range(width)] + [(2, 3 + width + k) for k in range(width)]
    return FinitePoset.from_relations(labels, pairs)


@pytest.mark.parametrize("shape", ["chain", "fan"])
def test_core_equals_oracle_on_shuffled_chains_and_fans(shape):
    rng = random.Random(5)
    for size in range(1, 13):
        if shape == "chain":
            poset = FinitePoset.from_relations(
                [f"c{i}" for i in range(size)], [(i, i + 1) for i in range(size - 1)]
            )
        else:
            poset = fan(size)
        for _ in range(6):
            assert len(assert_core_matches_oracle(shuffled_copy(poset, rng)).poset) == 1


@pytest.mark.parametrize("group", ["cyclic:3", "klein4"])
@pytest.mark.parametrize("mode", ["sonly", "sandt"])
def test_core_equals_oracle_when_a_dropped_attachment_cover_cascades(group, mode):
    space = built_space(group, mode)
    attachment = [e for e in space.hasse if not all(isinstance(space.labels[i], Base) for i in e)]
    rng = random.Random(len(space))
    for edge in rng.sample(attachment, 6):
        result = assert_core_matches_oracle(shuffled_copy(drop_hasse_edge(space, edge), rng))
        assert len(result.trace) > 1


# -- automorphism groups ------------------------------------------------------


def test_pentad_automorphisms(pentad):
    auts = AutomorphismGroup.of(pentad)
    assert auts.order == 2
    assert auts.maps[auts.identity_index()].images == (0, 1, 2, 3, 4)
    swap = auts.maps[1 - auts.identity_index()]
    assert swap.images == (1, 0, 2, 3, 4)
    assert not auts.acts_freely()
    assert auts.stabilizer_sizes()[2] == 2


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    small_posets(max_points=5),
    # at most 120 automorphisms: every one of the |Aut|² entries is composed
    deep_posets(modes=("none", "sandt"), max_antichain=5, max_copies=2),
))
def test_aut_table_matches_validated_composition(poset):
    auts = AutomorphismGroup.of(poset)
    position = {m.images: k for k, m in enumerate(auts.maps)}
    for i, outer in enumerate(auts.maps):
        for j, inner in enumerate(auts.maps):
            assert auts.table[i][j] == position[outer.compose(inner).images]


def assert_record_matches_the_oracles(auts):
    """The search's generators reach every map from the identity through
    their columns, each column entry is the position of the composed
    images, and the table is the separating-base oracle's."""
    position = {m.images: k for k, m in enumerate(auts.maps)}
    assert auts.maps[0].images == tuple(range(len(auts.space)))
    columns = {j: auts.column(j) for j in auts.gens}
    reached, frontier = {0}, [0]
    while frontier:
        i = frontier.pop()
        for column in columns.values():
            if column[i] not in reached:
                reached.add(column[i])
                frontier.append(column[i])
    assert reached == set(range(auts.order))
    for j in range(auts.order):
        inner = auts.maps[j]
        assert auts.column(j) == tuple(position[outer.compose(inner).images]
                                       for outer in auts.maps)
    assert auts.table == oracle_aut_table(auts.maps)


@settings(max_examples=60, deadline=None)
@given(st.one_of(
    small_posets(max_points=5),
    deep_posets(modes=("none", "sandt"), max_antichain=5, max_copies=2),
))
def test_record_matches_the_oracles_on_random_posets(poset):
    assert_record_matches_the_oracles(AutomorphismGroup.of(poset))


@settings(max_examples=6, deadline=None)
@given(shuffled_built_spaces(modes=("none", "sonly", "sandt"), pointed=True))
def test_record_matches_the_oracles_on_shuffled_built_spaces(space):
    assert_record_matches_the_oracles(AutomorphismGroup.of(space))


def assert_index_matches_the_image_dict(auts, outside):
    """``index`` against a ``{images: k}`` dict: every map, every product,
    and ``outside``, a permutation of the points that may not be in the group."""
    oracle = {m.images: k for k, m in enumerate(auts.maps)}
    assert [auts.index(m.images) for m in auts.maps] == list(range(auts.order))
    for i, outer in enumerate(auts.maps):
        for j, inner in enumerate(auts.maps):
            product = outer.compose(inner).images
            assert auts.index(product) == oracle[product] == auts.table[i][j]
    assert auts.index(outside) == oracle.get(outside)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_index_matches_the_image_dict_on_random_posets(data):
    poset = data.draw(small_posets(max_points=5))
    auts = AutomorphismGroup.of(poset)
    assert_index_matches_the_image_dict(
        auts, tuple(data.draw(st.permutations(range(len(poset)))))
    )


@settings(max_examples=4, deadline=None)
@given(shuffled_built_spaces(modes=("none", "sandt")), st.data())
def test_index_matches_the_image_dict_on_shuffled_built_spaces(space, data):
    auts = AutomorphismGroup.of(space)
    assert_index_matches_the_image_dict(
        auts, tuple(data.draw(st.permutations(range(len(space)))))
    )
    # agreeing with an automorphism on the base is not enough
    a, b = [x for x in range(len(space)) if x not in auts.base][:2]
    for m in auts.maps:
        images = list(m.images)
        images[a], images[b] = images[b], images[a]
        assert auts.index(tuple(images)) is None


@pytest.mark.parametrize("poset", [
    FinitePoset.from_relations([], []),
    FinitePoset.from_relations(["x", "y", "z"], [(0, 1), (1, 2)]),
], ids=["empty", "chain3"])
def test_index_of_the_trivial_group(poset):
    auts = AutomorphismGroup.of(poset)
    identity = tuple(range(len(poset)))
    assert auts.order == 1 and auts.index(identity) == auts.identity_index() == 0
    assert auts.index(identity[::-1]) == (0 if len(poset) < 2 else None)


def test_index_refuses_maps_that_are_not_a_group(crown):
    # both maps move point 0 first and send it to 1: the swap of u and v is missing
    maps = tuple(PosetMap(crown, crown, images) for images in
                 [(0, 1, 2, 3), (1, 0, 2, 3), (1, 0, 3, 2)])
    not_a_group = AutomorphismGroup(crown, maps, base=(0,), gens=(1, 2))
    with pytest.raises(MapError, match="not a group"):
        not_a_group.index((0, 1, 2, 3))
    with pytest.raises(MapError):
        not_a_group.table


def test_table_refuses_a_product_missing_from_the_maps(crown):
    # the base keys (points 0 and 2) of these three maps are distinct, but
    # the product of the two swaps, (1, 0, 3, 2), is not among them
    maps = tuple(PosetMap(crown, crown, images) for images in
                 [(0, 1, 2, 3), (1, 0, 2, 3), (0, 1, 3, 2)])
    auts = AutomorphismGroup(crown, maps, base=(0, 2), gens=(1, 2))
    assert [auts.index(m.images) for m in maps] == [0, 1, 2]
    with pytest.raises(MapError, match="^a product of automorphisms is missing "
                                       "from the enumerated set$"):
        auts.table


def test_crown_automorphisms_form_klein_four(crown):
    auts = AutomorphismGroup.of(crown)
    assert auts.order == 4
    assert groups_isomorphic(automorphism_group(auts), klein_four())


def test_base_space_action_is_free_and_transitive_on_columns(c3_spec):
    base = build_base(c3_spec)
    auts = AutomorphismGroup.of(base)
    assert auts.order == 3
    assert auts.acts_freely()


def test_at_most_one_equivalence_links_any_two_points(c3_spec):
    # Freeness in pair form: for every ordered pair (x, y) at most one
    # self-homeomorphism sends x to y.
    space = build_space(c3_spec)
    auts = AutomorphismGroup.of(space)
    for x in range(len(space)):
        hits = {}
        for m in auts.maps:
            hits.setdefault(m.images[x], []).append(m)
        assert all(len(v) == 1 for v in hits.values())


# -- restriction and extension ------------------------------------------------


def test_extension_restriction_roundtrip(c3_spec):
    base = build_base(c3_spec)
    full = build_space(c3_spec)
    outcome = extension_restriction_check(
        base, full, AutomorphismGroup.of(base), AutomorphismGroup.of(full)
    )
    assert outcome.ok
    assert outcome.failures == ()
    assert outcome.base_order == outcome.full_order == 3


def test_extension_check_reports_missing_automorphisms(c3_spec):
    base = build_base(c3_spec)
    full = build_space(c3_spec)
    crippled = AutomorphismGroup(full, (PosetMap.identity(full),), base=(), gens=())
    outcome = extension_restriction_check(
        base, full, AutomorphismGroup.of(base), crippled
    )
    assert not outcome.ok
    assert any("counts differ" in f for f in outcome.failures)


@pytest.mark.parametrize("extra", ["loose", SPoint("A", 0, 0), Star()])
def test_extension_check_refuses_a_base_that_is_not_a_column_space(c3_spec, extra):
    base = build_base(c3_spec)
    broken = FinitePoset.from_relations(list(base.labels) + [extra], list(base.hasse))
    # before any work: the full space and the groups are never read
    with pytest.raises(ConstructionError, match=(
        f"the base is not a column space: {re.escape(repr(extra))} is in it"
    )):
        extension_restriction_check(broken, None, None, None)


@pytest.mark.parametrize("name", [
    "intact", "pointed", "missing-point", "plain-label", "orphan-attachment",
    "stray-column", "rewired",
])
def test_extension_check_matches_the_label_oracle_on_broken_spaces(d3_spec, name):
    base = build_base(d3_spec)
    full = perturbed_spaces(d3_spec)[name]
    base_auts, full_auts = AutomorphismGroup.of(base), AutomorphismGroup.of(full)
    got = extension_restriction_check(base, full, base_auts, full_auts)
    assert got == oracle_extension_restriction_check(base, full, base_auts, full_auts)
    assert got.ok == (name in ("intact", "pointed"))
    # the base as its own extension: every column point lands through the table
    assert extension_restriction_check(base, base, base_auts, base_auts).ok


@pytest.mark.parametrize("group", ["cyclic:3", "klein4", "dihedral:3"])
@pytest.mark.parametrize("mode", ["sonly", "sandt", "sandt:2"])
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_extension_check_matches_the_label_oracle_on_shuffled_spaces(group, mode, data):
    spec = spec_for(builtin_group(group), standard_generator_labels(group), mode=mode)

    def shuffled(space):
        return permuted_copy(space, data.draw(st.permutations(range(len(space)))))

    base, full = shuffled(build_base(spec)), shuffled(build_space(spec))
    base_auts, full_auts = AutomorphismGroup.of(base), AutomorphismGroup.of(full)
    got = extension_restriction_check(base, full, base_auts, full_auts)
    assert got.ok
    assert got == oracle_extension_restriction_check(base, full, base_auts, full_auts)


# -- self-map enumeration -----------------------------------------------------


def test_pentad_selfmap_count(pentad):
    assert len(enumerate_selfmaps(pentad)) == 130


def test_crown_selfmap_count(crown):
    assert len(enumerate_selfmaps(crown)) == 36


def test_selfmaps_are_exactly_the_monotone_maps(crown):
    # brute force over all functions on 4 points
    found = {m.images for m in enumerate_selfmaps(crown)}
    expected = set()
    for images in itertools.product(range(4), repeat=4):
        if all(
            crown.leq(images[a], images[b])
            for a in range(4)
            for b in range(4)
            if crown.leq(a, b)
        ):
            expected.add(images)
    assert found == expected


def test_selfmap_guards(crown):
    with pytest.raises(SizeLimitExceeded, match="max_points") as points:
        enumerate_selfmaps(crown, max_points=3)
    assert "self-map enumeration" in str(points.value)
    assert "4 points" in str(points.value) and "--max-points" in str(points.value)
    with pytest.raises(SizeLimitExceeded, match="budget|nodes") as nodes:
        enumerate_selfmaps(crown, budget=5)
    assert "self-map enumeration" in str(nodes.value) and "5 candidate nodes" in str(nodes.value)
    assert "--budget-maps" in str(nodes.value)
    assert "POSETGROUPS_BUDGET_MAPS" in str(nodes.value)


def test_selfmap_budget_also_bounds_the_held_leaves():
    # A chain has a leaf at the end of almost every branch; counting only
    # nodes, budget 5000 let about 4700 leaves of 300 entries pile up.
    chain = FinitePoset.from_relations(
        [f"c{i}" for i in range(300)], [(i, i + 1) for i in range(299)]
    )
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitExceeded, match="--budget-maps"):
            enumerate_selfmaps(chain, max_points=300, budget=5000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_comparative_retraction_guards(crown):
    with pytest.raises(SizeLimitExceeded, match="max_points") as points:
        comparative_retractions(crown, max_points=3)
    assert "comparative-retraction search" in str(points.value)
    assert "4 points" in str(points.value) and "--max-points" in str(points.value)
    with pytest.raises(SizeLimitExceeded, match="budget|nodes") as nodes:
        comparative_retractions(crown, budget=2)
    assert "comparative-retraction search" in str(nodes.value)
    assert "2 candidate nodes" in str(nodes.value) and "--budget-maps" in str(nodes.value)


# -- comparative retractions --------------------------------------------------


def test_comparative_retractions_of_tiny_spaces():
    chain = fixture_space("chain2")
    assert [m.images for m in comparative_retractions(chain)] == [
        (0, 0), (0, 1), (1, 1),
    ]
    anti = fixture_space("antichain2")
    assert [m.images for m in comparative_retractions(anti)] == [(0, 1)]


def assert_enumerators_equal_the_oracle(poset):
    selfmaps = oracle_selfmaps(poset)
    assert [m.images for m in enumerate_selfmaps(poset)] == selfmaps
    assert [m.images for m in comparative_retractions(poset)] == (
        oracle_comparative_retractions(poset, selfmaps)
    )


@given(small_posets(max_points=5))
@settings(max_examples=60, deadline=None)
def test_enumerators_equal_the_brute_force_oracle_on_random_posets(poset):
    assert_enumerators_equal_the_oracle(poset)


@given(crown_posets())
@settings(max_examples=6, deadline=None)
def test_enumerators_equal_the_brute_force_oracle_on_crowns(poset):
    # up to 7 points: 7^7 image tuples for the oracle, so few examples
    assert_enumerators_equal_the_oracle(poset)


@pytest.mark.parametrize("poset", [
    FinitePoset.from_relations([f"c{i}" for i in range(6)], [(i, i + 1) for i in range(5)]),
    FinitePoset.from_relations([f"a{i}" for i in range(5)], []),
], ids=["chain6", "antichain5"])
def test_enumerators_equal_the_brute_force_oracle_on_a_chain_and_an_antichain(poset):
    assert_enumerators_equal_the_oracle(poset)


@given(small_posets(max_points=5))
@settings(max_examples=60, deadline=None)
def test_enumerated_maps_pass_the_validating_constructor(poset):
    # Both enumerators wrap their leaves without checking them again.
    for maps in (enumerate_selfmaps(poset), comparative_retractions(poset)):
        for m in maps:
            assert PosetMap(poset, poset, m.images).images == m.images


def test_four_point_attachment_alone_is_not_rigid():
    # apex < B and D < apex, so folding the apex up or down is allowed;
    # rigidity comes from assembling attachments, not from one in isolation.
    gadget = FinitePoset.from_relations(
        ["A", "B", "C", "D", "apex"],
        [(2, 0), (3, 0), (2, 1), (4, 1), (3, 4)],
    )
    images = [m.images for m in comparative_retractions(gadget)]
    assert images == [(0, 1, 2, 3, 1), (0, 1, 2, 3, 3), (0, 1, 2, 3, 4)]


@pytest.mark.parametrize("name", ["cyclic:2", "cyclic:3"])
def test_constructed_spaces_admit_no_proper_comparative_retraction(name):
    spec = spec_for(builtin_group(name), ["a"])
    space = build_space(spec)
    found = comparative_retractions(space)
    assert [m.images for m in found] == [tuple(range(len(space)))]


# -- homotopy classes ---------------------------------------------------------


def test_pentad_homotopy_classes(pentad):
    classes = homotopy_classes(enumerate_selfmaps(pentad))
    assert classes.class_count == 5
    assert len(classes.equivalences) == 10
    assert classes.group.order == 4
    assert groups_isomorphic(classes.group, klein_four())


def test_crown_homotopy_classes_match_the_pentad(crown):
    # the crown is the pentad's core, so the class structure must agree
    classes = homotopy_classes(enumerate_selfmaps(crown))
    assert classes.class_count == 5
    assert classes.group.order == 4


def test_every_automorphism_is_an_equivalence(pentad):
    classes = homotopy_classes(enumerate_selfmaps(pentad))
    aut_positions = {k for k, m in enumerate(classes.maps) if m.is_isomorphism()}
    assert aut_positions <= set(classes.equivalences)


def test_classes_partition_respects_comparability(crown):
    classes = homotopy_classes(enumerate_selfmaps(crown))
    for i, a in enumerate(classes.maps):
        for j, b in enumerate(classes.maps):
            if pointwise_leq(a, b):
                assert classes.class_ids[i] == classes.class_ids[j]


def test_homotopy_classes_rejects_bad_input():
    chain3 = FinitePoset.from_relations(["x", "y", "z"], [(0, 1), (1, 2)])
    # squash is continuous but squash∘squash = (0,0,0) is not in the list
    squash = PosetMap(chain3, chain3, (0, 0, 1))
    with pytest.raises(ValueError, match="closed under composition"):
        homotopy_classes([PosetMap.identity(chain3), squash])
    with pytest.raises(ValueError, match="identity"):
        homotopy_classes([PosetMap(chain3, chain3, (1, 2, 2))])
    with pytest.raises(ValueError, match="at least one"):
        homotopy_classes([])


def test_homotopy_classes_rejects_a_list_missing_a_one_point_step():
    chain2 = fixture_space("chain2")
    identity = PosetMap.identity(chain2)
    const0 = PosetMap(chain2, chain2, (0, 0))
    # const1 = identity[x -> y] is continuous but missing
    with pytest.raises(ValueError, match="incomplete"):
        homotopy_classes([identity, const0])


def test_homotopy_classes_rejects_a_list_missing_a_composite():
    # an antichain has no one-point steps, so only composing the 3-cycle
    # with itself finds (2, 0, 1) missing
    antichain = FinitePoset.from_relations(["x", "y", "z"], [])
    cycle = PosetMap(antichain, antichain, (1, 2, 0))
    with pytest.raises(ValueError, match="^map list is incomplete"):
        homotopy_classes([PosetMap.identity(antichain), cycle])


@given(small_posets(max_points=4))
@settings(max_examples=150, deadline=None)
def test_homotopy_classes_equal_oracle_on_random_posets(poset):
    maps = enumerate_selfmaps(poset)
    assert homotopy_classes(maps) == oracle_homotopy_classes(maps)


@pytest.mark.parametrize("name", ["pentad", "crown", "wedge"])
def test_homotopy_classes_equal_oracle_on_fixture_spaces(name):
    maps = enumerate_selfmaps(fixture_space(name))
    assert homotopy_classes(maps) == oracle_homotopy_classes(maps)


@given(small_posets(max_points=4))
@settings(max_examples=40, deadline=None)
def test_class_count_is_a_homotopy_invariant(poset):
    if len(poset) == 0:
        return
    reduced = core(poset).poset
    full_classes = homotopy_classes(enumerate_selfmaps(poset))
    core_classes = homotopy_classes(enumerate_selfmaps(reduced))
    assert full_classes.class_count == core_classes.class_count
    assert full_classes.group.order == core_classes.group.order


@given(small_posets(max_points=4))
@settings(max_examples=40, deadline=None)
def test_connected_spaces_have_one_constant_class(poset):
    if len(poset.components()) != 1:
        return
    classes = homotopy_classes(enumerate_selfmaps(poset))
    constant_ids = {
        classes.class_ids[k]
        for k, m in enumerate(classes.maps)
        if len(set(m.images)) == 1
    }
    assert len(constant_ids) == 1
