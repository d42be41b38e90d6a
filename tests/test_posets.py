import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetgroups import FinitePoset, MapError, PosetError, PosetMap, enumerate_selfmaps

from conftest import fixture_space
from homotopy_oracle import _beat_points as oracle_beat_points, by_labels, pointwise_leq
from posets_oracle import bits, drop_hasse_edge, oracle_order
from search_oracle import oracle_verified_map


# -- strategies --------------------------------------------------------------


@st.composite
def small_posets(draw, max_points=6):
    """Random poset on up to ``max_points`` points.

    Relation pairs are drawn ascending in index, so the input digraph is
    acyclic by construction and ``from_relations`` always succeeds.
    """
    n = draw(st.integers(min_value=0, max_value=max_points))
    pairs = draw(
        st.sets(
            st.tuples(
                st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0))
            ).map(lambda p: (min(p), max(p))).filter(lambda p: p[0] != p[1]),
            max_size=12,
        )
    )
    return FinitePoset.from_relations([f"p{i}" for i in range(n)], pairs)


@st.composite
def crown_posets(draw, max_half=3):
    """A crown (the circle as minima ``a_i`` under maxima ``b_i`` and
    ``b_{i+1}``) with more minimum-maximum relations drawn on top, and one
    more point over a drawn set of maxima (isolated when it is empty), its
    points shuffled.

    Unless the top point cones it off, the crown's cycle survives; about
    four in five draws have b1 > 0, where :func:`small_posets` draws a
    cycle about twice in a hundred.
    """
    k = draw(st.integers(2, max_half))
    lows, highs = st.integers(0, k - 1), st.integers(k, 2 * k - 1)
    pairs = {(i, k + i) for i in range(k)} | {(i, k + (i + 1) % k) for i in range(k)}
    pairs |= draw(st.sets(st.tuples(lows, highs)))
    pairs |= {(b, 2 * k) for b in draw(st.sets(highs))}
    n = 2 * k + 1
    slot = draw(st.permutations(range(n)))
    return FinitePoset.from_relations(
        [f"p{i}" for i in range(n)], [(slot[a], slot[b]) for a, b in pairs]
    )


# -- construction ------------------------------------------------------------


def test_diamond_covers_exclude_transitive_pair():
    diamond = fixture_space("diamond")
    assert diamond.hasse == ((0, 1), (0, 2), (1, 3), (2, 3))
    assert diamond.leq(0, 3)


def test_from_relations_rejects_cycle():
    with pytest.raises(PosetError, match="cycle"):
        FinitePoset.from_relations(["x", "y", "z"], [(0, 1), (1, 2), (2, 0)])


def test_from_relations_rejects_reflexive_pair():
    with pytest.raises(PosetError, match="antisymmetry"):
        FinitePoset.from_relations(["x"], [(0, 0)])


def test_from_relations_rejects_out_of_range():
    with pytest.raises(PosetError, match="out of range"):
        FinitePoset.from_relations(["x"], [(0, 1)])


def test_duplicate_labels_rejected():
    with pytest.raises(PosetError, match="distinct"):
        FinitePoset.from_relations(["x", "x"], [])


def test_from_hasse_rejects_redundant_edge():
    with pytest.raises(PosetError, match="transitive reduction"):
        FinitePoset.from_hasse(
            ["bot", "l", "r", "top"],
            [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)],
        )


def test_empty_poset():
    empty = FinitePoset.from_relations([], [])
    assert len(empty) == 0
    assert empty.components() == []
    assert empty.beat_points() == []


# -- order queries -----------------------------------------------------------


def test_leq_lt_comparable(pentad):
    a, b, c, e = 0, 1, 2, 4
    assert pentad.leq(a, e) and not pentad.leq(e, a)
    assert pentad.leq(c, c)
    assert not pentad.leq(a, b) and not pentad.leq(b, a)
    assert pentad.leq(c, e)


def test_minimal_open_set_is_down_set(pentad):
    assert pentad.minimal_open_set(2) == (0, 1, 2)
    assert pentad.minimal_open_set(0) == (0,)
    assert pentad.closure(2) == (2, 4)


def test_extreme_points(pentad):
    covers = pentad.cover_index
    assert [i for i in range(len(pentad)) if not covers.down[i]] == [0, 1]
    assert [i for i in range(len(pentad)) if not covers.up[i]] == [3, 4]
    assert covers.up == ((2, 3), (2, 3), (4,), (), ())
    assert covers.down == ((), (), (0, 1), (0, 1), (2,))


# -- beat points -------------------------------------------------------------


def test_pentad_beat_points(pentad):
    # c's strict up-set {e} has unique minimal point e; e's strict down-set
    # {a, b, c} has unique maximal point c.  Nothing else qualifies.
    assert pentad.beat_points() == [(2, "up"), (4, "down")]


def test_chain_endpoints_are_beat_points():
    chain = fixture_space("chain2")
    assert chain.beat_points() == [(0, "up"), (1, "down")]


def test_diamond_middle_points_beat_both_ways():
    diamond = fixture_space("diamond")
    assert diamond.beat_points() == [(1, "down"), (1, "up"), (2, "down"), (2, "up")]


def test_crown_has_no_beat_points(crown):
    assert crown.beat_points() == []


def assert_cover_adjacency_matches_scan(poset):
    """``cover_index.up`` / ``.down`` against a scan of ``hasse`` per point."""
    covers = poset.cover_index
    points = range(len(poset))
    assert covers.up == tuple(tuple(b for a, b in poset.hasse if a == i) for i in points)
    assert covers.down == tuple(tuple(a for a, b in poset.hasse if b == i) for i in points)


def assert_beat_points_match_masks(poset):
    """``beat_points()`` against the mask definition of the oracle's scan."""
    assert poset.beat_points() == oracle_beat_points(poset)


@given(small_posets())
@settings(max_examples=150, deadline=None)
def test_cover_adjacency_matches_a_scan_of_hasse(poset):
    assert_cover_adjacency_matches_scan(poset)


@st.composite
def posets_with_beat_points(draw):
    """A :func:`small_posets` draw with one more point over one drawn point,
    which the new point covers alone: a down beat point at least."""
    poset = draw(small_posets().filter(len))
    n = len(poset)
    return FinitePoset.from_relations(
        poset.labels + ("top",), poset.hasse + ((draw(st.integers(0, n - 1)), n),)
    )


@given(st.one_of(small_posets(), crown_posets(), posets_with_beat_points()))
@settings(max_examples=200, deadline=None)
def test_beat_points_match_the_mask_definition(poset):
    assert_beat_points_match_masks(poset)


# -- connectivity ------------------------------------------------------------


def test_components():
    assert fixture_space("antichain2").components() == [(0,), (1,)]
    assert len(fixture_space("wedge").components()) == 1


@given(small_posets())
@settings(max_examples=150, deadline=None)
def test_components_match_brute_force(poset):
    n = len(poset)
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a in range(n):
        for b in range(n):
            if poset.leq(a, b):
                parent[find(a)] = find(b)
    expected = {tuple(sorted(i for i in range(n) if find(i) == root))
                for root in {find(i) for i in range(n)}}
    assert set(poset.components()) == expected


# -- subposets and edges -----------------------------------------------------


def test_induced_subposet(pentad, crown):
    sub = pentad.induced([0, 1, 3, 4])
    assert len(sub.hasse) == 4
    iso = by_labels(
        crown, sub, lambda lab: {"p": "a", "q": "b", "u": "d", "v": "e"}[lab]
    )
    assert iso.is_isomorphism()


def test_drop_hasse_edge():
    diamond = fixture_space("diamond")
    dropped = drop_hasse_edge(diamond, (1, 3))
    assert dropped.hasse == ((0, 1), (0, 2), (2, 3))
    assert dropped.cover_index.up[1] == ()  # 1 is now maximal
    with pytest.raises(PosetError, match="covering relation"):
        drop_hasse_edge(diamond, (0, 3))


# -- property tests ----------------------------------------------------------


@given(small_posets())
@settings(max_examples=150, deadline=None)
def test_order_axioms(poset):
    n = len(poset)
    for a in range(n):
        assert poset.leq(a, a)
    for a, b in itertools.permutations(range(n), 2):
        assert not (poset.leq(a, b) and poset.leq(b, a))
    for a, b, c in itertools.product(range(n), repeat=3):
        if poset.leq(a, b) and poset.leq(b, c):
            assert poset.leq(a, c)


def assert_closure_matches_the_oracle(poset, rng):
    """``from_relations`` on the covers plus a random share of the other
    order pairs, shuffled, against the oracle's closure and cover scan."""
    n = len(poset)
    order = [(a, b) for b in range(n) for a in poset.minimal_open_set(b) if a != b]
    pairs = list(poset.hasse) + [pair for pair in order if rng.random() < 0.5]
    rng.shuffle(pairs)
    built = FinitePoset.from_relations(poset.labels, pairs)
    hasse, down, up = oracle_order(n, pairs)
    assert built.hasse == hasse == poset.hasse
    assert [built.minimal_open_set(i) for i in range(n)] == [tuple(bits(m)) for m in down]
    assert [built.closure(i) for i in range(n)] == [tuple(bits(m)) for m in up]


def assert_order_matches_the_oracle(poset, keep):
    """The stored down-set and up-set tuples, the order queries and the
    subposet on ``keep`` against the oracle's closure of the covers."""
    n = len(poset)
    hasse, down, up = oracle_order(n, poset.hasse)
    assert poset.hasse == hasse
    assert poset._down == tuple(tuple(bits(m)) for m in down)
    assert poset._up == tuple(tuple(bits(m)) for m in up)
    assert tuple(map(poset.minimal_open_set, range(n))) == poset._down
    assert tuple(map(poset.closure, range(n))) == poset._up
    assert poset.set_sizes == (tuple(map(int.bit_count, down)), tuple(map(int.bit_count, up)))
    for a, b in itertools.product(range(n), repeat=2):
        assert poset.leq(a, b) == bool(down[b] >> a & 1)
    kept = sorted(keep)
    sub = poset.induced(keep)
    pairs = [(x, y) for x, y in itertools.permutations(range(len(kept)), 2)
             if down[kept[y]] >> kept[x] & 1]
    sub_hasse, sub_down, _ = oracle_order(len(kept), pairs)
    assert sub.labels == tuple(poset.labels[i] for i in kept)
    assert sub.hasse == sub_hasse
    assert sub._down == tuple(tuple(bits(m)) for m in sub_down)


@given(small_posets(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_from_relations_matches_the_cover_scan_oracle(poset, rng):
    assert_closure_matches_the_oracle(poset, rng)


@given(small_posets())
@settings(max_examples=150, deadline=None)
def test_hasse_regenerates_the_order(poset):
    rebuilt = FinitePoset.from_relations(poset.labels, poset.hasse)
    assert rebuilt == poset
    assert FinitePoset.from_hasse(poset.labels, poset.hasse) == poset


@given(small_posets())
@settings(max_examples=100, deadline=None)
def test_hasse_edges_are_irredundant(poset):
    # Dropping any single cover must change the order relation.
    for edge in poset.hasse:
        weakened = drop_hasse_edge(poset, edge)
        assert not weakened.leq(*edge)


@given(small_posets())
@settings(max_examples=100, deadline=None)
def test_minimal_open_sets_are_open(poset):
    # The down-set of x is open: it contains the down-set of each member.
    for x in range(len(poset)):
        members = set(poset.minimal_open_set(x))
        for y in members:
            assert set(poset.minimal_open_set(y)) <= members


@given(small_posets())
@settings(max_examples=100, deadline=None)
def test_beat_point_removal_preserves_components(poset):
    beats = poset.beat_points()
    if not beats:
        return
    i, _ = beats[0]
    thinner = poset.induced([p for p in range(len(poset)) if p != i])
    assert len(thinner.components()) == len(poset.components())


# -- adjoining a point -------------------------------------------------------


def snapshot(poset):
    """Everything a poset holds, to compare two posets or one over time."""
    points = range(len(poset))
    return (
        poset.labels,
        poset.hasse,
        tuple(map(poset.minimal_open_set, points)),
        tuple(map(poset.closure, points)),
        {label: poset.index_of(label) for label in poset.labels},
    )


def assert_adjoin_matches_from_relations(poset, label, below):
    """``adjoin_above`` against ``from_relations`` on the same labels and
    pairs, with the parent left as it was."""
    before = snapshot(poset)
    adjoined = poset.adjoin_above(label, below)
    n = len(poset)
    oracle = FinitePoset.from_relations(poset.labels + (label,),
                                        poset.hasse + tuple((b, n) for b in below))
    assert snapshot(adjoined) == snapshot(oracle)
    assert snapshot(poset) == before
    with pytest.raises(KeyError):
        poset.index_of(label)
    return adjoined


@given(st.one_of(small_posets(), crown_posets()), st.data())
@settings(max_examples=200, deadline=None)
def test_adjoin_above_matches_from_relations(poset, data):
    # ``below`` may be empty, hold repeats and hold comparable points
    n = len(poset)
    below = data.draw(st.lists(st.integers(0, n - 1), max_size=8) if n else st.just([]))
    adjoined = assert_adjoin_matches_from_relations(poset, "new", below)
    # a second point over the first reads the first's shared index
    assert_adjoin_matches_from_relations(adjoined, "newer", [n, *below[:1]])


def test_adjoin_above_refuses_a_present_label_and_a_missing_point(pentad):
    for label in ("a", "e"):
        with pytest.raises(PosetError, match="distinct"):
            pentad.adjoin_above(label, [0])
    adjoined = pentad.adjoin_above("top", [3, 4])
    with pytest.raises(PosetError, match="distinct"):
        adjoined.adjoin_above("top", [])
    with pytest.raises(PosetError, match="distinct"):
        adjoined.adjoin_above("a", [])
    for bad in (5, -1):
        with pytest.raises(PosetError, match=f"point {bad} out of range"):
            pentad.adjoin_above("top", [0, bad])


# -- maps --------------------------------------------------------------------


def test_map_validates_monotonicity():
    chain = fixture_space("chain2")
    anti = fixture_space("antichain2")
    with pytest.raises(MapError, match="order-preserving"):
        PosetMap(chain, anti, (0, 1))
    PosetMap(anti, chain, (1, 0))  # any map out of an antichain is continuous


def test_map_validates_shape(pentad):
    with pytest.raises(MapError, match="length"):
        PosetMap(pentad, pentad, (0, 1, 2))
    with pytest.raises(MapError, match="out of range"):
        PosetMap(pentad, pentad, (0, 1, 2, 3, 9))


def test_identity_and_composition(pentad):
    ident = PosetMap.identity(pentad)
    collapse = PosetMap(pentad, pentad, (0, 0, 2, 2, 4))
    assert collapse.compose(ident).images == collapse.images
    assert ident.compose(collapse).images == collapse.images
    with pytest.raises(MapError, match="mismatch"):
        collapse.compose(PosetMap.identity(fixture_space("chain2")))


@given(small_posets(max_points=5), st.data())
@settings(max_examples=60, deadline=None)
def test_products_of_self_maps_pass_the_validating_constructor(poset, data):
    # ``compose`` does not check its product again; the constructor that
    # does accepts every product of two continuous self-maps.
    maps = enumerate_selfmaps(poset)
    for _ in range(20):
        outer, inner = data.draw(st.sampled_from(maps)), data.draw(st.sampled_from(maps))
        product = outer.compose(inner)
        assert PosetMap(poset, poset, product.images) == product
        assert product.images == tuple(outer(inner(i)) for i in range(len(poset)))


def test_isomorphism_and_inverse(crown):
    swap = PosetMap(crown, crown, (1, 0, 2, 3))
    assert swap.is_isomorphism()
    assert swap.inverse().images == (1, 0, 2, 3)
    fold = PosetMap(crown, crown, (0, 0, 2, 2))
    assert not fold.is_surjective()
    with pytest.raises(MapError, match="not an isomorphism"):
        fold.inverse()


def test_bijection_need_not_be_isomorphism():
    chain = fixture_space("chain2")
    anti = fixture_space("antichain2")
    bij = PosetMap(anti, chain, (0, 1))
    assert len(anti) == len(chain) and bij.is_surjective()
    assert not bij.is_isomorphism()


def test_pointwise_leq():
    vee = fixture_space("vee")
    const_bot = PosetMap(vee, vee, (0, 0, 0))
    ident = PosetMap.identity(vee)
    assert pointwise_leq(const_bot, ident)
    assert not pointwise_leq(ident, const_bot)


# -- the cover index against the set-comprehension oracle ----------------------


def oracle_order_failure(source, target, images):
    """The order check with one ``leq`` per cover: the first failure's text."""
    for a, b in source.hasse:
        if not target.leq(images[a], images[b]):
            return f"not order-preserving on cover ({a}, {b}): {images[a]} !<= {images[b]}"
    return None


def assert_map_checks_match_oracle(source, target, images):
    want = oracle_order_failure(source, target, images)
    try:
        mapped = PosetMap(source, target, images)
    except MapError as exc:
        assert str(exc) == want
        return
    assert want is None
    iso = len(source) == len(target) and oracle_verified_map(source, target, images)
    assert source.maps_covers_onto(target, images) == iso
    assert mapped.is_isomorphism() == iso


@st.composite
def poset_maps(draw):
    """A source, a target (often the source itself) and images into it."""
    source = draw(small_posets())
    target = draw(st.one_of(st.just(source), small_posets(max_points=len(source) + 1)))
    if len(source) and not len(target):
        target = source  # nothing maps into the empty poset
    if draw(st.booleans()) and len(target) == len(source):
        images = draw(st.permutations(range(len(source))))
    else:
        images = draw(st.lists(st.integers(0, max(len(target) - 1, 0)),
                               min_size=len(source), max_size=len(source)))
    return source, target, tuple(images)


@given(poset_maps())
@settings(max_examples=400, deadline=None)
def test_cover_index_checks_match_the_oracle(case):
    assert_map_checks_match_oracle(*case)


@pytest.mark.parametrize("n", [0, 1, 2, 3])
@pytest.mark.parametrize("covers", [(), ((0, 1),)])
def test_cover_index_on_antichains_and_one_cover(n, covers):
    # No covers: itemgetter() would raise.  One cover: itemgetter(a) would
    # return a bare index.  Every map between every such pair is checked.
    if covers and n < 2:
        return
    shapes = [FinitePoset.from_relations([f"p{i}" for i in range(n)], covers)]
    shapes += [FinitePoset.from_relations([f"q{i}" for i in range(n)], ())]
    for source in shapes:
        for target in shapes:
            for images in itertools.product(range(n), repeat=n):
                assert_map_checks_match_oracle(source, target, images)
