import gc
import itertools
import re
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetgroups import (
    complexes,
    AutomorphismGroup,
    FinitePoset,
    SizeLimitExceeded,
    build_space,
    builtin_group,
    all_automorphisms,
    cycle_basis,
    h1_action_columns,
    h1_action_matrix,
    hasse_undirected,
    homology_summary,
    order_complex,
    smith_normal_form,
    spec_for,
)
from posetgroups.complexes import chain_complex

from complexes_oracle import (
    betti,
    oracle_basis_chains,
    oracle_h1_action_columns,
    oracle_h1_action_matrix,
)
from conftest import fixture_space
from test_posets import small_posets
from test_search import built_space, permuted_copy


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
    assert cx.count(3) == 0


def test_simplex_limit(crown):
    # The message names the layer, how far it got and the argument that
    # raises the limit (no flag or environment variable does).
    with pytest.raises(SizeLimitExceeded, match=re.escape(
        "order complex enumeration stopped after 5 simplices, its limit; "
        "raise it with the limit argument of order_complex()"
    )):
        order_complex(crown, limit=5)
    assert len(order_complex(crown, limit=8).simplices[1]) == 4


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


def test_cycle_rank_of_fixtures(crown):
    assert hasse_undirected(crown).cycle_rank == 1
    # the diamond shows rank and b1 disagree in general: its covering
    # graph is a 4-cycle though the space is contractible
    diamond = fixture_space("diamond")
    assert hasse_undirected(diamond).cycle_rank == 1
    assert betti(chain_complex(order_complex(diamond)), 1) == 0


def test_constructed_space_graph_agreement(c3_spec):
    space = build_space(c3_spec)
    graph = hasse_undirected(space)
    summary = homology_summary(order_complex(space))
    assert graph.cycle_rank == summary.b1 == 7
    assert graph.components == summary.b0 == 1


@given(small_posets())
@settings(max_examples=100, deadline=None)
def test_components_agree_between_graph_and_complex(poset):
    if len(poset) == 0:
        return
    summary = homology_summary(order_complex(poset))
    assert hasse_undirected(poset).components == summary.b0


# -- cycle bases ---------------------------------------------------------------


def chain_boundary(cx, chain):
    """Endpoint sum of a 1-chain given as {edge position: coefficient}."""
    acc = {}
    for pos, coeff in chain.items():
        a, b = cx.simplices[1][pos]
        acc[a] = acc.get(a, 0) - coeff
        acc[b] = acc.get(b, 0) + coeff
    return {k: v for k, v in acc.items() if v}


def test_cycle_basis_matches_betti(crown, c3_spec):
    for space in (crown, fixture_space("wedge"), build_space(c3_spec)):
        cx = order_complex(space)
        basis = cycle_basis(cx)
        assert basis.betti == homology_summary(cx).b1
        for chain in basis.basis_chains:
            assert chain_boundary(cx, chain) == {}


def test_cycle_basis_sees_torsion():
    basis = cycle_basis(order_complex(projective_plane_face_poset()))
    assert basis.betti == 0
    assert basis.torsion == (2,)


def test_basis_chains_expand_non_unit_columns_of_u_inverse(monkeypatch):
    # <a, b | (a^2 b^3)^2> has H1 = Z^2 / (4, 6) = Z + Z/2.  Its reduction
    # swaps pivot rows, and the free column of U^-1 it leaves is not a unit
    # vector, so the coefficients of U^-1 shape the basis chain.
    reductions = []
    real = complexes.smith_normal_form

    def kept(*args, **kwargs):
        reductions.append(real(*args, **kwargs))
        return reductions[-1]

    monkeypatch.setattr(complexes, "smith_normal_form", kept)
    space = presentation_complex("aabbbaabbb")
    cx = order_complex(space)
    basis = cycle_basis(cx)
    assert (basis.betti, basis.torsion) == (1, (2,))
    (snf,) = reductions
    assert any(v != 1 for row in snf.free_rows() for v in snf.u_inv[row].values())
    for j, chain in enumerate(basis.basis_chains):
        assert chain_boundary(cx, chain) == {}
        # the chain's coordinates through U are the unit vector e_j
        coords = [
            sum(snf.u[row].get(t, 0) * chain.get(pos, 0) for t, pos in enumerate(basis.nontree))
            for row in basis.free_rows
        ]
        assert coords == [1 if i == j else 0 for i in range(basis.betti)]
    assert_action_matches_oracle(space)


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
    assert first is second and first.edges is cx.simplices[1]


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
    size = basis.betti

    def matmul(x, y):
        return tuple(
            tuple(sum(x[i][k] * y[k][j] for k in range(size)) for j in range(size))
            for i in range(size)
        )

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


def sparse(chains):
    return tuple(tuple(sorted(chain.items())) for chain in chains)


def assert_action_matches_oracle(space):
    cx = order_complex(space)
    basis = cycle_basis(cx)
    assert sparse(basis.basis_chains) == sparse(oracle_basis_chains(cx))
    for m in all_automorphisms(space):
        columns = h1_action_columns(basis, m)
        assert all(v and list(c) == sorted(c) for c in columns for _, v in c)
        assert columns == oracle_h1_action_columns(basis, m)
        assert h1_action_matrix(basis, m) == oracle_h1_action_matrix(basis, m)


@given(small_posets())
@settings(max_examples=80, deadline=None)
def test_action_matrix_equals_oracle_on_random_posets(poset):
    assert_action_matches_oracle(poset)


@pytest.mark.parametrize("group", ["cyclic:3", "klein4", "dihedral:3"])
@pytest.mark.parametrize("mode", ["sonly", "sandt"])
@settings(max_examples=2, deadline=None)
@given(data=st.data())
def test_action_matrix_equals_oracle_on_shuffled_built_spaces(group, mode, data):
    space = built_space(group, mode)
    assert_action_matches_oracle(
        permuted_copy(space, data.draw(st.permutations(range(len(space)))))
    )
