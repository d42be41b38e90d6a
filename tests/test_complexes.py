import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetgroups import (
    AutomorphismGroup,
    FinitePoset,
    SizeLimitExceeded,
    betti,
    build_space,
    builtin_group,
    chain_complex,
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

from complexes_oracle import oracle_h1_action_matrix
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


# -- order complexes ----------------------------------------------------------


def test_simplex_counts(pentad, crown):
    assert [len(level) for level in order_complex(crown).simplices] == [4, 4]
    assert [len(level) for level in order_complex(pentad).simplices] == [5, 7, 2]


def test_dim_cap():
    chain4 = FinitePoset.from_relations(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3)])
    cx = order_complex(chain4, dim_cap=2)
    assert [len(level) for level in cx.simplices] == [4, 6, 4]
    assert cx.count(3) == 0


def test_simplex_limit(crown):
    with pytest.raises(SizeLimitExceeded, match="simplices"):
        order_complex(crown, limit=5)


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


def assert_action_matches_oracle(space):
    basis = cycle_basis(order_complex(space))
    for m in all_automorphisms(space):
        columns = h1_action_columns(basis, m)
        assert all(v and list(c) == sorted(c) for c in columns for _, v in c)
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
