import itertools
from math import gcd

from hypothesis import given, settings
from hypothesis import strategies as st

from posetgroups import smith_normal_form

from snf_oracle import oracle_smith_normal_form


def dense_to_triples(rows):
    return [
        (i, j, v) for i, row in enumerate(rows) for j, v in enumerate(row) if v
    ]


def dense_transforms(result):
    """U and U^-1 as dense row lists, from U's sparse rows and U^-1's sparse columns."""
    n = result.nrows
    u = [[result.u[i].get(k, 0) for k in range(n)] for i in range(n)]
    u_inv = [[result.u_inv[j].get(k, 0) for j in range(n)] for k in range(n)]
    return u, u_inv


def test_known_two_by_two():
    result = smith_normal_form(dense_to_triples([[2, 4], [6, 8]]), 2, 2)
    assert result.rank == 2
    assert result.invariants == (2, 4)
    assert result.torsion == (2, 4)


def test_identity_matrix():
    result = smith_normal_form(dense_to_triples([[1, 0], [0, 1]]), 2, 2)
    assert result.invariants == (1, 1)
    assert result.torsion == ()


def test_zero_matrix():
    result = smith_normal_form([], 3, 2)
    assert result.rank == 0
    assert result.diag == ()
    assert result.free_rows() == (0, 1, 2)


def test_divisibility_chain_is_normalized():
    # diag {2, 3} is not a chain; invariants must come back as 1 | 6
    result = smith_normal_form(dense_to_triples([[2, 0, 0], [0, 3, 0]]), 2, 3)
    assert result.invariants == (1, 6)
    assert result.torsion == (6,)


def test_transform_tracking():
    rows = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    result = smith_normal_form(dense_to_triples(rows), 3, 3, want_transform=True)
    n = result.nrows
    u, u_inv = dense_transforms(result)
    # u and u_inv really are inverse
    for i in range(n):
        for j in range(n):
            acc = sum(u[i][k] * u_inv[k][j] for k in range(n))
            assert acc == (1 if i == j else 0)
    # U @ A vanishes outside the pivot rows (col ops cannot reintroduce rows)
    ua = [
        [sum(u[i][k] * rows[k][j] for k in range(n)) for j in range(3)]
        for i in range(n)
    ]
    for r in result.free_rows():
        assert ua[r] == [0, 0, 0]
    # each pivot row of U @ A has content equal to its diagonal entry
    for d, r in zip(result.diag, result.pivot_rows):
        content = 0
        for v in ua[r]:
            content = gcd(content, v)
        assert content == d


def minor_gcd_invariants(rows, nrows, ncols):
    """Classical oracle: d_k = gcd of all k x k minors; factors are ratios."""

    def det(sub):
        size = len(sub)
        if size == 1:
            return sub[0][0]
        total = 0
        for j in range(size):
            minor = [row[:j] + row[j + 1 :] for row in sub[1:]]
            total += (-1) ** j * sub[0][j] * det(minor)
        return total

    previous = 1
    invariants = []
    for k in range(1, min(nrows, ncols) + 1):
        acc = 0
        for rsel in itertools.combinations(range(nrows), k):
            for csel in itertools.combinations(range(ncols), k):
                acc = gcd(acc, det([[rows[i][j] for j in csel] for i in rsel]))
        if acc == 0:
            break
        invariants.append(acc // previous)
        previous = acc
    return tuple(invariants)


@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=1, max_value=4),
    st.data(),
)
@settings(max_examples=120, deadline=None)
def test_invariants_match_minor_gcd_oracle(nrows, ncols, data):
    rows = [
        [data.draw(st.integers(min_value=-6, max_value=6)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    result = smith_normal_form(dense_to_triples(rows), nrows, ncols)
    assert result.invariants == minor_gcd_invariants(rows, nrows, ncols)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_transforms_stay_consistent_on_random_matrices(data):
    nrows = data.draw(st.integers(min_value=1, max_value=4))
    ncols = data.draw(st.integers(min_value=1, max_value=4))
    rows = [
        [data.draw(st.integers(min_value=-5, max_value=5)) for _ in range(ncols)]
        for _ in range(nrows)
    ]
    result = smith_normal_form(dense_to_triples(rows), nrows, ncols, want_transform=True)
    u, u_inv = dense_transforms(result)
    for i in range(nrows):
        for j in range(nrows):
            acc = sum(u[i][k] * u_inv[k][j] for k in range(nrows))
            assert acc == (1 if i == j else 0)
    ua = [
        [sum(u[i][k] * rows[k][j] for k in range(nrows)) for j in range(ncols)]
        for i in range(nrows)
    ]
    for r in result.free_rows():
        assert all(v == 0 for v in ua[r])


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_elimination_matches_the_col_add_oracle(data):
    nrows = data.draw(st.integers(min_value=1, max_value=6))
    ncols = data.draw(st.integers(min_value=1, max_value=6))
    # Entries mostly small, with some zeros, so both unit and non-unit
    # pivots (and remainders that swap pivots) occur.
    entry = st.one_of(st.just(0), st.integers(min_value=-9, max_value=9))
    rows = [[data.draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    triples = dense_to_triples(rows)
    got = smith_normal_form(triples, nrows, ncols, want_transform=True)
    want = oracle_smith_normal_form(triples, nrows, ncols, want_transform=True)
    assert got == want
