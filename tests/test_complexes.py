import gc
import itertools
import re
import weakref

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from posetgroups import (
    complexes,
    AutomorphismGroup,
    FinitePoset,
    PosetMap,
    SizeLimitExceeded,
    add_basepoint,
    build_space,
    builtin_group,
    all_automorphisms,
    cycle_basis,
    h1_action_ids,
    h1_action_matrix,
    homology_summary,
    order_complex,
    smith_normal_form,
    spec_for,
    standard_generator_labels,
)
from posetgroups import verify
from posetgroups.complexes import chain_complex

from complexes_oracle import (
    basis_chains,
    betti,
    dense_matrix,
    dense_rows,
    h1_action_columns,
    oracle_coordinates,
    oracle_cycle_basis,
    oracle_h1_action_columns,
    oracle_h1_action_matrix,
    oracle_h1_action_rows,
    oracle_h1_faithful,
)
from conftest import fixture_space
from test_posets import crown_posets, small_posets
from test_search import built_space, permuted_copy, shuffled_built_spaces


def projective_plane_face_poset() -> FinitePoset:
    """Face poset of the 6-vertex triangulation of the projective plane.

    Its order complex is the barycentric subdivision, so first homology
    must come out as pure 2-torsion.
    """
    triangles = [
        (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
        (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
    ]
    edges = sorted({pair for t in triangles for pair in itertools.combinations(t, 2)})
    labels = (
        [f"v{v}" for v in range(1, 7)]
        + [f"e{a}{b}" for a, b in edges]
        + [f"t{a}{b}{c}" for a, b, c in triangles]
    )
    index = {lab: k for k, lab in enumerate(labels)}
    pairs = []
    for a, b in edges:
        pairs += [(index[f"v{a}"], index[f"e{a}{b}"]), (index[f"v{b}"], index[f"e{a}{b}"])]
    for a, b, c in triangles:
        top = index[f"t{a}{b}{c}"]
        pairs += [
            (index[f"e{a}{b}"], top), (index[f"e{a}{c}"], top), (index[f"e{b}{c}"], top)
        ]
    return FinitePoset.from_relations(labels, pairs)


def face_poset(simplices) -> FinitePoset:
    """Face poset of the simplicial complex spanned by ``simplices``."""
    faces = set()
    for simplex in simplices:
        for k in range(1, len(simplex) + 1):
            faces.update(itertools.combinations(sorted(simplex), k))
    faces = sorted(faces, key=lambda f: (len(f), f))
    index = {f: k for k, f in enumerate(faces)}
    pairs = [
        (index[f[:drop] + f[drop + 1:]], index[f])
        for f in faces
        if len(f) > 1
        for drop in range(len(f))
    ]
    return FinitePoset.from_relations(["-".join(f) for f in faces], pairs)


def presentation_complex(word: str) -> FinitePoset:
    """Face poset of a triangulated 2-complex of ``<a, b | word>``.

    Two triangulated circles a and b share the vertex x; a disk is glued
    along ``word`` (a capital letter runs its circle backwards), with a
    ring of interior vertices y and a centre c.
    """
    circles = {"a": ["x", "a1", "a2"], "b": ["x", "b1", "b2"]}
    rim = []
    for letter in word:
        loop = circles[letter.lower()]
        rim += loop if letter.islower() else [loop[0]] + loop[:0:-1]
    size = len(rim)
    simplices = [(loop[k], loop[(k + 1) % 3]) for loop in circles.values() for k in range(3)]
    for k in range(size):
        here, there = rim[k], rim[(k + 1) % size]
        ring, next_ring = f"y{k}", f"y{(k + 1) % size}"
        simplices += [(here, there, ring), (ring, next_ring, there), ("c", ring, next_ring)]
    return face_poset(simplices)


# -- order complexes ----------------------------------------------------------


def test_simplex_counts(pentad, crown):
    assert [len(level) for level in order_complex(crown).simplices] == [4, 4]
    assert [len(level) for level in order_complex(pentad).simplices] == [5, 7, 2]


def test_dim_cap():
    chain4 = FinitePoset.from_relations(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3)])
    cx = order_complex(chain4)
    assert [len(level) for level in cx.simplices] == [4, 6, 4]
    assert cx.counts == (4, 6, 4)


def test_simplex_limit(crown):
    # The message names the layer, how far it got and the argument that
    # raises the limit (no flag or environment variable does).
    with pytest.raises(SizeLimitExceeded, match=re.escape(
        "order complex has 8 simplices, over its limit of 5; "
        "raise it with the limit argument of order_complex()"
    )):
        order_complex(crown, limit=5)
    assert len(order_complex(crown, limit=8).simplices[1]) == 4
    # the points count too, so a poset with no relation is bounded as well
    antichain = FinitePoset.from_relations(list(range(10)), [])
    with pytest.raises(SizeLimitExceeded, match="has 10 simplices, over its limit of 5;"):
        order_complex(antichain, limit=5)


def assert_counts_match_the_listing(space):
    """The counts are the chains' own, and the limit bounds their exact total."""
    cx = order_complex(space)
    assert cx.counts == tuple(map(len, cx.simplices))
    total = sum(cx.counts)
    assert order_complex(space, limit=total).counts == cx.counts
    with pytest.raises(SizeLimitExceeded, match=re.escape(
        f"order complex has {total} simplices, over its limit of {total - 1}; "
    )):
        order_complex(space, limit=total - 1)


@given(small_posets())
@example(FinitePoset.from_relations([], []))
@example(FinitePoset.from_relations(list(range(5)), []))
@example(FinitePoset.from_relations(list(range(4)), [(0, 1), (1, 2), (2, 3)]))
@settings(max_examples=80, deadline=None)
def test_counts_match_the_listing_on_random_posets(poset):
    assert_counts_match_the_listing(poset)


@pytest.mark.parametrize("group, mode, pointed", [
    ("cyclic:3", "sandt", False), ("dihedral:4", "sandt:2", True),
])
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_counts_match_the_listing_on_shuffled_built_spaces(group, mode, pointed, data):
    space = built_space(group, mode)
    if pointed:
        space = add_basepoint(space)
    assert_counts_match_the_listing(
        permuted_copy(space, data.draw(st.permutations(range(len(space)))))
    )


# -- Betti numbers -------------------------------------------------------------


def test_betti_of_fixtures(crown):
    cc = chain_complex(order_complex(crown))
    assert (betti(cc, 0), betti(cc, 1)) == (1, 1)
    wedge = chain_complex(order_complex(fixture_space("wedge")))
    assert (betti(wedge, 0), betti(wedge, 1)) == (1, 2)
    diamond = chain_complex(order_complex(fixture_space("diamond")))
    assert (betti(diamond, 0), betti(diamond, 1)) == (1, 0)
    two = chain_complex(order_complex(fixture_space("antichain2")))
    assert betti(two, 0) == 2


def test_homology_of_constructed_spaces(c3_spec):
    group = c3_spec.group
    cases = {
        "none": (1, 1),
        "sonly": (1, 4),
        "sandt": (1, 7),
        "sandt:2": (1, 7),
    }
    for mode, (b0, b1) in cases.items():
        spec = spec_for(group, ["a"], mode=mode)
        summary = homology_summary(order_complex(build_space(spec)))
        assert (summary.b0, summary.b1, summary.h1_torsion) == (b0, b1, ())


def test_two_generator_homology(klein_spec):
    summary = homology_summary(order_complex(build_space(klein_spec)))
    # n = 4, r = 2: 3nr - n + 1 = 21
    assert (summary.b0, summary.b1, summary.h1_torsion) == (1, 21, ())


def test_projective_plane_torsion():
    summary = homology_summary(order_complex(projective_plane_face_poset()))
    assert (summary.b0, summary.b1) == (1, 0)
    assert summary.h1_torsion == (2,)


# -- covering graph ------------------------------------------------------------


def cycle_rank(space: FinitePoset) -> int:
    """E - V + C of the undirected covering graph."""
    return len(space.hasse) - len(space) + len(space.components())


def test_cycle_rank_of_fixtures(crown):
    assert cycle_rank(crown) == 1
    # the diamond shows rank and b1 disagree in general: its covering
    # graph is a 4-cycle though the space is contractible
    diamond = fixture_space("diamond")
    assert cycle_rank(diamond) == 1
    assert betti(chain_complex(order_complex(diamond)), 1) == 0


def test_constructed_space_graph_agreement(c3_spec):
    space = build_space(c3_spec)
    summary = homology_summary(order_complex(space))
    assert cycle_rank(space) == summary.b1 == 7
    assert len(space.components()) == summary.b0 == 1


@given(small_posets())
@settings(max_examples=100, deadline=None)
def test_components_agree_between_graph_and_complex(poset):
    if len(poset) == 0:
        return
    summary = homology_summary(order_complex(poset))
    assert len(poset.components()) == summary.b0


@given(small_posets(max_points=14))
@settings(max_examples=100, deadline=None)
def test_the_basis_has_one_cycle_per_unit_of_cycle_rank(poset):
    # `homology` prints the non-tree covers as the covering-graph cycle rank
    assert len(cycle_basis(order_complex(poset)).nontree) == cycle_rank(poset)


# -- cycle bases ---------------------------------------------------------------


def chain_boundary(edges, chain):
    """Endpoint sum of a 1-chain given as {edge position: coefficient}."""
    acc = {}
    for pos, coeff in chain.items():
        a, b = edges[pos]
        acc[a] = acc.get(a, 0) - coeff
        acc[b] = acc.get(b, 0) + coeff
    return {k: v for k, v in acc.items() if v}


def test_cycle_basis_matches_betti(crown, c3_spec):
    for space in (crown, fixture_space("wedge"), build_space(c3_spec)):
        cx = order_complex(space)
        basis = cycle_basis(cx)
        assert basis.betti == homology_summary(cx).b1
        assert basis.edges == space.hasse  # the chains live on the covers
        for chain in basis_chains(basis):
            assert chain_boundary(basis.edges, chain) == {}


def test_cycle_basis_sees_torsion():
    basis = cycle_basis(order_complex(projective_plane_face_poset()))
    assert basis.betti == 0
    assert basis.torsion == (2,)


def test_basis_chains_expand_non_unit_columns_of_u_inverse(monkeypatch):
    # <a, b | a^2 b^4> has H1 = Z^2 / (2, 4) = Z + Z/2.  The reduction of
    # its Morse relations leaves a free column of U^-1 that is not a unit
    # vector, so the coefficients of U^-1 shape the basis chain.  (Which
    # words do so depends on the order of the relation columns.)
    reductions = []
    real = complexes.smith_normal_form

    def kept(*args, **kwargs):
        reductions.append(real(*args, **kwargs))
        return reductions[-1]

    monkeypatch.setattr(complexes, "smith_normal_form", kept)
    space = presentation_complex("aabbbb")
    cx = order_complex(space)
    basis = cycle_basis(cx)
    assert (basis.betti, basis.torsion) == (1, (2,))
    (snf,) = reductions
    assert any(v != 1 for row in snf.free_rows() for v in snf.u_inv[row].values())
    # U is not the identity either, so the H1 rows sum gathered rows through it
    assert basis.u_rows != tuple(((t, 1),) for t in range(basis.betti))
    for j, chain in enumerate(basis_chains(basis)):
        assert chain_boundary(basis.edges, chain) == {}
        # the chain's coordinates through U are the unit vector e_j
        coords = [
            sum(snf.u[row].get(t, 0) * chain.get(pos, 0) for t, pos in enumerate(basis.nontree))
            for row in snf.free_rows()
        ]
        assert coords == [1 if i == j else 0 for i in range(basis.betti)]
    assert_action_matches_oracle(space)


@pytest.mark.parametrize("group", [
    "cyclic:2", "cyclic:3", "cyclic:5", "cyclic:8", "klein4", "symmetric:3",
    "dihedral:4", "quaternion8", "dihedral:6", "dihedral:10",
])
def test_built_spaces_keep_no_relation(monkeypatch, group):
    # On the catalog spaces and their fence-2 and fence-3 variants every
    # relation among the cover cycles vanishes on the non-tree covers, so
    # the reduction runs on an empty matrix and U is the identity.
    shapes = []
    real = complexes.smith_normal_form

    def kept(triples, nrows, ncols, **kwargs):
        shapes.append((len(triples), ncols))
        return real(triples, nrows, ncols, **kwargs)

    monkeypatch.setattr(complexes, "smith_normal_form", kept)
    gens = standard_generator_labels(group)
    for fence in (1, 2, 3):
        spec = spec_for(builtin_group(group), gens, mode=f"sandt:{fence}")
        basis = cycle_basis(order_complex(build_space(spec)))
        assert basis.u_rows == tuple(((t, 1),) for t in range(basis.betti))
    assert shapes == [(0, 0)] * 3


def assert_basis_cycles_are_unit_vectors(basis):
    """Each basis cycle, read back from ``cover_rows``, is a cycle on the
    covers, and its coordinates through ``u_rows`` are the unit vector e_j."""
    for j, chain in enumerate(basis_chains(basis)):
        assert chain_boundary(basis.edges, chain) == {}
        coords = [sum(v * chain.get(basis.nontree[t], 0) for t, v in row) for row in basis.u_rows]
        assert coords == [1 if i == j else 0 for i in range(basis.betti)]


@given(small_posets())
# small_posets() rarely draws a cycle, so two are given: a crown (b1 = 1)
# and three minima under two maxima (b1 = 2)
@example(FinitePoset.from_relations(list("abcd"), [(0, 2), (0, 3), (1, 2), (1, 3)]))
@example(FinitePoset.from_relations(list("abcde"), [(a, b) for a in range(3) for b in (3, 4)]))
@settings(max_examples=80, deadline=None)
def test_basis_cycles_are_unit_vectors_on_random_posets(poset):
    assert_basis_cycles_are_unit_vectors(cycle_basis(order_complex(poset)))


@pytest.mark.parametrize("group, mode, pointed", [
    ("cyclic:3", "sandt", False),
    ("dihedral:4", "sandt:2", True),
])
@settings(max_examples=3, deadline=None)
@given(data=st.data())
def test_basis_cycles_are_unit_vectors_on_shuffled_built_spaces(group, mode, pointed, data):
    space = built_space(group, mode)
    if pointed:
        space = add_basepoint(space)
    shuffled = permuted_copy(space, data.draw(st.permutations(range(len(space)))))
    assert_basis_cycles_are_unit_vectors(cycle_basis(order_complex(shuffled)))


def counting_snf(monkeypatch):
    """Count the Smith reductions the complexes layer runs."""
    calls = []
    real = complexes.smith_normal_form

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(complexes, "smith_normal_form", counted)
    return calls


def test_one_reduction_serves_summary_and_bases(monkeypatch, c3_spec):
    calls = counting_snf(monkeypatch)
    cx = order_complex(build_space(c3_spec))
    summary = homology_summary(cx)
    first, second = cycle_basis(cx), cycle_basis(cx)
    assert len(calls) == 1
    assert summary.b1 == first.betti == 7
    assert first is second and first.edges is cx.space.hasse


def assert_summary_builds_no_basis(poset):
    """A summary leaves the complex without a basis, and agrees with the
    basis built from the same reduction afterwards."""
    cx = order_complex(poset)
    summary = homology_summary(cx)
    assert "_basis" not in vars(cx)
    basis = cycle_basis(cx)
    assert (summary.b0, summary.b1, summary.h1_torsion) == (
        basis.components, basis.betti, basis.torsion
    )


@given(st.one_of(small_posets(), crown_posets()))
@settings(max_examples=80, deadline=None)
def test_a_summary_builds_no_basis_on_random_posets(poset):
    assert_summary_builds_no_basis(poset)


@pytest.mark.parametrize("mode", ["none", "sonly", "sandt", "sandt:2"])
@pytest.mark.parametrize("group", ["cyclic:3", "klein4", "dihedral:3"])
def test_a_summary_builds_no_basis_on_built_spaces(group, mode):
    assert_summary_builds_no_basis(built_space(group, mode))
    assert_summary_builds_no_basis(built_space(group, mode, pointed=True))


def test_verify_all_expands_only_the_basis_it_reads(monkeypatch, c3_spec):
    # the run's own complex and the fence-2 and fence-3 variants are each
    # reduced once, and only the run's own basis (h1-action-faithful) is built
    calls = counting_snf(monkeypatch)
    expanded = []
    real = complexes._expand

    def counted(reduction):
        expanded.append(reduction.points)
        return real(reduction)

    monkeypatch.setattr(complexes, "_expand", counted)
    assert verify.verify_all(c3_spec).ok
    assert len(calls) == 3
    assert expanded == [len(build_space(c3_spec))]


def test_a_complex_with_a_basis_is_freed_without_the_cycle_collector(c3_spec):
    space = build_space(c3_spec)
    gc.disable()
    try:
        cx = order_complex(space)
        basis = cycle_basis(cx)
        homology_summary(cx)
        alive = weakref.ref(cx)
        del cx
        assert alive() is None  # the basis does not hold it
        del basis
        assert alive() is None
    finally:
        gc.enable()


@given(small_posets())
@settings(max_examples=60, deadline=None)
def test_homology_summary_matches_chain_complex_oracle(poset):
    cx = order_complex(poset)
    cc = chain_complex(cx)
    torsion = (
        smith_normal_form(cc.boundary[2], cc.counts[1], cc.counts[2]).torsion
        if len(cc.counts) > 2
        else ()
    )
    summary = homology_summary(cx)
    assert (summary.b0, summary.b1, summary.h1_torsion) == (
        betti(cc, 0), betti(cc, 1), torsion
    )


# -- induced action on first homology ------------------------------------------


def test_crown_action_is_orientation_sign(crown):
    basis = cycle_basis(order_complex(crown))
    auts = AutomorphismGroup.of(crown)
    matrices = sorted(h1_action_matrix(basis, m) for m in auts.maps)
    assert matrices == [((-1,),), ((-1,),), ((1,),), ((1,),)]


def test_action_matrices_are_functorial():
    spec = spec_for(builtin_group("klein4"), ["a", "b"], mode="sonly")
    space = build_space(spec)
    basis = cycle_basis(order_complex(space))
    auts = AutomorphismGroup.of(space)
    matrices = [h1_action_matrix(basis, m) for m in auts.maps]
    for i in range(auts.order):
        for j in range(auts.order):
            assert matmul(matrices[i], matrices[j]) == matrices[auts.table[i][j]]


def test_action_separates_the_translations(c3_spec):
    space = build_space(c3_spec)
    basis = cycle_basis(order_complex(space))
    auts = AutomorphismGroup.of(space)
    matrices = [h1_action_matrix(basis, m) for m in auts.maps]
    assert len(set(matrices)) == 3
    identity = tuple(
        tuple(1 if i == j else 0 for j in range(basis.betti))
        for i in range(basis.betti)
    )
    assert matrices[auts.identity_index()] == identity


def matmul(x, y):
    return tuple(
        tuple(sum(x[i][k] * y[k][j] for k in range(len(y))) for j in range(len(y[0])))
        for i in range(len(x))
    )


def determinant(rows) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination."""
    m = [list(row) for row in rows]
    size, sign, last = len(m), 1, 1
    for k in range(size):
        pivot = next((r for r in range(k, size) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot], sign = m[pivot], m[k], -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // last
        last = m[k][k]
    return sign * last if size else 1


def test_determinant():
    assert determinant(()) == 1
    assert determinant(((0, 1), (1, 0))) == -1
    assert determinant(((2, 1, 0), (1, 3, 1), (0, 1, 4))) == 18
    assert determinant(((1, 2), (2, 4))) == 0


def assert_homology_matches_oracle(space):
    """b0, b1 and torsion of the cover basis equal the order-complex oracle's."""
    cx = order_complex(space)
    basis, oracle = cycle_basis(cx), oracle_cycle_basis(cx)
    summary = homology_summary(cx)
    assert (summary.b0, summary.b1, summary.h1_torsion) == (
        oracle.components, oracle.betti, oracle.torsion
    )
    return cx, basis, oracle


def action_rows(basis, automorphism):
    """The sparse rows that :func:`h1_action_ids` names."""
    return tuple(map(basis.interned.rows.__getitem__, h1_action_ids(basis, automorphism)))


def transposed(columns):
    """Square sparse columns read as sparse rows."""
    rows = [[] for _ in columns]
    for j, column in enumerate(columns):
        for i, value in column:
            rows[i].append((j, value))
    return tuple(map(tuple, rows))


def assert_action_matches_oracle(space):
    """The cover basis and the oracle's are one integer change of basis P
    apart, |det P| = 1, and every automorphism a has M_oracle(a)·P =
    P·M(a)."""
    cx, basis, oracle = assert_homology_matches_oracle(space)
    chains = basis_chains(basis)
    for chain in chains:
        assert chain_boundary(basis.edges, chain) == {}
    # column j of P is basis cycle j in the oracle's coordinates
    columns = [oracle_coordinates(oracle, chain, basis.edges) for chain in chains]
    change = tuple(tuple(column[i] for column in columns) for i in range(basis.betti))
    assert abs(determinant(change)) == 1
    for m in all_automorphisms(space):
        columns = h1_action_columns(basis, m)
        assert all(v and list(c) == sorted(c) for c in columns for _, v in c)
        assert columns == oracle_h1_action_columns(basis, m)
        # the row gathers are the column scatter transposed
        assert action_rows(basis, m) == transposed(columns)
        dense = h1_action_matrix(basis, m)
        assert dense == dense_matrix(columns)
        if basis.betti:
            assert matmul(oracle_h1_action_matrix(oracle, m), change) == matmul(change, dense)


@given(st.one_of(small_posets(), crown_posets()))
@settings(max_examples=80, deadline=None)
def test_homology_equals_oracle_on_random_posets(poset):
    assert_homology_matches_oracle(poset)


@pytest.mark.parametrize("group", ["cyclic:3", "klein4", "dihedral:3"])
@pytest.mark.parametrize("mode", ["sonly", "sandt"])
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_homology_equals_oracle_on_shuffled_built_spaces(group, mode, data):
    space = built_space(group, mode)
    assert_homology_matches_oracle(
        permuted_copy(space, data.draw(st.permutations(range(len(space)))))
    )


def test_homology_equals_oracle_on_the_projective_plane():
    cx, _, _ = assert_homology_matches_oracle(projective_plane_face_poset())
    assert homology_summary(cx).h1_torsion == (2,)


@given(st.text("aAbB", min_size=1, max_size=5))
@settings(max_examples=25, deadline=None)
def test_homology_and_action_equal_oracle_on_presentation_complexes(word):
    assert_action_matches_oracle(presentation_complex(word))


@given(st.one_of(small_posets(), crown_posets()))
@settings(max_examples=80, deadline=None)
def test_action_matrix_equals_oracle_on_random_posets(poset):
    assert_action_matches_oracle(poset)


@pytest.mark.parametrize("group", ["cyclic:3", "klein4", "dihedral:3"])
@pytest.mark.parametrize("mode", ["none", "sonly", "sandt"])
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_action_matrix_equals_oracle_on_shuffled_built_spaces(group, mode, data):
    space = built_space(group, mode)
    assert_action_matches_oracle(
        permuted_copy(space, data.draw(st.permutations(range(len(space)))))
    )


@pytest.mark.parametrize("mode", ["none", "sonly", "sandt"])
def test_unit_rows_of_u_gather_the_basis_rows_themselves(mode):
    # Every row of U is a unit row on a built space, so every row of a map's
    # matrix must be the basis's own stored row, not a copy of it.
    space = built_space("dihedral:3", mode)
    basis = cycle_basis(order_complex(space))
    assert all(len(entries) == 1 and entries[0][1] == 1 for entries in basis.u_rows)
    for m in all_automorphisms(space):
        rows = action_rows(basis, m)
        for i, ((t, _),) in enumerate(basis.u_rows):
            u, v = basis.edges[basis.nontree[t]]
            preimage = basis.edges.index((m.images.index(u), m.images.index(v)))
            assert rows[i] is basis.cover_rows[preimage]


def test_action_rows_reject_a_map_that_is_not_a_bijection(crown):
    basis = cycle_basis(order_complex(crown))
    constant = PosetMap(crown, crown, (0,) * len(crown))
    with pytest.raises(ValueError, match="this map is not a bijection"):
        h1_action_ids(basis, constant)


def identity_of(space) -> PosetMap:
    auts = AutomorphismGroup.of(space)
    return auts.maps[auts.identity_index()]


def test_action_ids_refuse_a_map_of_a_larger_space():
    # the identity of the larger space pulls every cover of the smaller one
    # back to itself, so only the point count tells the maps apart
    basis = cycle_basis(order_complex(built_space("cyclic:3", "sandt")))
    larger = identity_of(built_space("cyclic:4", "sandt"))
    assert (basis.points, len(larger.images)) == (39, 52)
    with pytest.raises(ValueError, match="a map of 52 points, and the basis's space has 39"):
        h1_action_ids(basis, larger)


def test_action_ids_refuse_a_map_of_a_smaller_space():
    basis = cycle_basis(order_complex(built_space("cyclic:4", "sandt")))
    smaller = identity_of(built_space("cyclic:3", "sandt"))
    with pytest.raises(ValueError, match="a map of 39 points, and the basis's space has 52"):
        h1_action_ids(basis, smaller)


def test_action_ids_refuse_a_map_that_pulls_a_cover_back_to_a_non_cover(crown):
    # the crown's minima are 0 and 1 and its maxima 2 and 3, and its one
    # non-tree cover is (1, 3); a map of the four-point antichain swapping
    # 1 and 2 pulls it back to (2, 3), two maxima
    antichain = FinitePoset.from_relations(list("abcd"), [])
    swap = PosetMap(antichain, antichain, (0, 2, 1, 3))
    basis = cycle_basis(order_complex(crown))
    assert basis.points == len(antichain)
    assert [basis.edges[k] for k in basis.nontree] == [(1, 3)]
    with pytest.raises(ValueError, match="pulls a cover back to a pair that is not one"):
        h1_action_ids(basis, swap)


def assert_ids_match_oracle(space):
    """The check by ids gives the row-tuple oracle's verdict, and every
    map's ids expand to the oracle's sparse rows and dense matrix."""
    basis = cycle_basis(order_complex(space))
    auts = AutomorphismGroup.of(space)
    assert verify._h1_faithful(basis, auts) == oracle_h1_faithful(basis, auts)
    for m in auts.maps:
        rows = oracle_h1_action_rows(basis, m)
        assert action_rows(basis, m) == rows
        assert h1_action_matrix(basis, m) == dense_rows(rows)
    return basis


@given(st.one_of(small_posets(), crown_posets()))
@settings(max_examples=80, deadline=None)
def test_action_ids_match_the_row_oracle_on_random_posets(poset):
    assert_ids_match_oracle(poset)


@given(shuffled_built_spaces(modes=("none", "sonly", "sandt"), pointed=True))
@settings(max_examples=12, deadline=None)
def test_action_ids_match_the_row_oracle_on_shuffled_built_spaces(space):
    assert_ids_match_oracle(space)


def test_action_ids_sum_non_unit_rows_of_u_and_intern_the_sums():
    # <a, b | a^2 b^4>: its one free row of U is not a unit row, so every
    # map's row is a sum of gathered rows, interned as it is seen
    basis = assert_ids_match_oracle(presentation_complex("aabbbb"))
    interned = basis.interned
    assert interned.sums
    assert any(not (len(row) == 1 and row[0][1] == 1) for row in basis.u_rows)
    fresh = ((0, 7),)
    assert fresh not in interned.ids
    k = interned.intern(fresh)
    assert (k, interned.rows[k], interned.intern(fresh)) == (len(interned.rows) - 1, fresh, k)
    assert interned.dense[k] == (7,)


@pytest.mark.parametrize("group, mode", [("dihedral:4", "sandt"), ("cyclic:5", "sonly")])
def test_each_distinct_row_is_densified_once(group, mode):
    # Every dense matrix is a gather of the basis's dense rows: across all
    # maps there are as many distinct row objects as distinct row ids.
    space = built_space(group, mode)
    basis = cycle_basis(order_complex(space))
    maps = AutomorphismGroup.of(space).maps
    matrices = [h1_action_matrix(basis, m) for m in maps]
    ids = {k for m in maps for k in h1_action_ids(basis, m)}
    assert len({id(row) for matrix in matrices for row in matrix}) == len(ids)
    assert len(ids) < len(maps) * basis.betti
    assert len(basis.interned.dense) == len(ids)


def test_a_basis_with_its_interned_rows_is_freed_without_the_cycle_collector(c3_spec):
    space = build_space(c3_spec)
    gc.disable()
    try:
        basis = cycle_basis(order_complex(space))
        auts = AutomorphismGroup.of(space)
        assert verify._h1_faithful(basis, auts)[0] == "PASS"
        h1_action_matrix(basis, auts.maps[1])
        alive = weakref.ref(basis)
        del basis
        assert alive() is None
    finally:
        gc.enable()
