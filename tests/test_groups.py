import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from posetgroups import (
    ContainsIdentityError,
    DoesNotGenerateError,
    DuplicateGeneratorError,
    FiniteGroup,
    GroupError,
    SizeLimitExceeded,
    builtin_group,
    cyclic,
    dihedral,
    klein_four,
    quaternion8,
    standard_generator_labels,
    symmetric,
    validate_generating_set,
)

from groups_oracle import groups_isomorphic, oracle_check_associative


# -- table validation --------------------------------------------------------


def test_rejects_empty_table():
    with pytest.raises(GroupError, match="identity"):
        FiniteGroup((), ())


def test_rejects_missing_identity():
    # x*y = x is associative but has no two-sided identity on 2 elements.
    with pytest.raises(GroupError, match="identity"):
        FiniteGroup(("x", "y"), ((0, 0), (1, 1)))


def test_rejects_missing_inverse():
    # Monoid on {e, z} with z*z = z: associative, identity e, no inverse for z.
    with pytest.raises(GroupError, match="inverse"):
        FiniteGroup(("e", "z"), ((0, 1), (1, 1)))


def test_rejects_one_sided_identity():
    # x*y = y: every row is 0..n-1, so both elements are left identities,
    # but neither column is, and there is no two-sided identity.
    with pytest.raises(GroupError, match="no two-sided identity"):
        FiniteGroup(("x", "y"), ((0, 1), (0, 1)))


def test_rejects_table_without_identity_row():
    # Constant rows: no element is even a left identity.
    with pytest.raises(GroupError, match="no two-sided identity"):
        FiniteGroup(("x", "y", "z"), ((1, 1, 1), (2, 2, 2), (0, 0, 0)))


def test_rejects_one_sided_inverse():
    # a*b = e but b*a = a: a has a right inverse that is not a left inverse.
    with pytest.raises(GroupError, match="element 'a' has no inverse"):
        FiniteGroup(("e", "a", "b"), ((0, 1, 2), (1, 2, 0), (2, 1, 0)))


def test_rejects_non_associative_table():
    # A quasigroup (Latin square) with identity that fails associativity:
    # the multiplication of a 5-element loop that is not a group.
    table = (
        (0, 1, 2, 3, 4),
        (1, 0, 3, 4, 2),
        (2, 4, 0, 1, 3),
        (3, 2, 4, 0, 1),
        (4, 3, 1, 2, 0),
    )
    with pytest.raises(GroupError, match="associativity"):
        FiniteGroup(("e", "p", "q", "r", "s"), table)


def reduced_latin_square(rng, n: int) -> tuple[tuple[int, ...], ...]:
    """A random n x n Latin square whose first row and column are 0..n-1.

    Element 0 is then a two-sided identity: the table of a random loop,
    associative only when the loop is a group.
    """
    table = [[i if r == 0 else r if i == 0 else None for i in range(n)] for r in range(n)]
    cells = [(r, c) for r in range(1, n) for c in range(1, n)]
    # Frames are (cell index, values still to try there).
    stack: list[tuple[int, list[int]]] = []
    k = 0
    while k < len(cells):
        r, c = cells[k]
        if not stack or stack[-1][0] != k:
            used = {table[r][j] for j in range(c)} | {table[i][c] for i in range(r)}
            options = [v for v in range(n) if v not in used]
            rng.shuffle(options)
            stack.append((k, options))
        if stack[-1][1]:
            table[r][c] = stack[-1][1].pop()
            k += 1
        else:
            stack.pop()
            table[r][c] = None
            k -= 1
    return tuple(map(tuple, table))


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=7), st.randoms(use_true_random=False))
def test_associativity_check_agrees_with_all_triples_oracle(n, rng):
    table = reduced_latin_square(rng, n)
    labels = tuple(f"g{i}" for i in range(n))
    try:
        oracle_check_associative(labels, table)
        associative = True
    except GroupError:
        associative = False
    # A loop is a group exactly when it is associative.
    if associative:
        assert FiniteGroup(labels, table).identity == 0
        return
    with pytest.raises(GroupError) as info:
        FiniteGroup(labels, table)
    message = str(info.value)
    if message.startswith("associativity fails on ("):
        a, b, c = (labels.index(s) for s in message[len("associativity fails on ("):-1].split(", "))
        assert table[table[a][b]][c] != table[a][table[b][c]]
    else:
        assert "inverse" in message


def test_rejects_ragged_and_out_of_range():
    with pytest.raises(GroupError, match="n x n"):
        FiniteGroup(("e", "a"), ((0, 1),))
    with pytest.raises(GroupError, match="out of range"):
        FiniteGroup(("e", "a"), ((0, 1), (1, 7)))


def test_rejects_duplicate_labels():
    with pytest.raises(GroupError, match="distinct"):
        FiniteGroup(("e", "e"), ((0, 1), (1, 0)))


# -- element arithmetic ------------------------------------------------------


def test_cyclic_arithmetic():
    c6 = cyclic(6)
    assert c6.order == 6
    assert c6.identity == 0
    assert c6.op(2, 5) == 1
    assert c6.inv(2) == 4
    assert c6.element_order(2) == 3
    assert c6.order_profile() == (1, 2, 3, 3, 6, 6)


@pytest.mark.parametrize("bad", [-1, 3])
def test_op_and_inv_refuse_an_element_outside_the_group(bad):
    # -1 would wrap to the last row and 3 would run off the table.
    c3 = builtin_group("cyclic:3")
    for call in (lambda: c3.op(bad, 0), lambda: c3.op(0, bad), lambda: c3.inv(bad)):
        with pytest.raises(GroupError, match=f"element index {bad} out of range 0..2"):
            call()


def test_klein_four_every_element_is_an_involution():
    v = klein_four()
    assert v.order_profile() == (1, 2, 2, 2)
    for x in range(4):
        assert v.op(x, x) == v.identity


def test_dihedral_structure():
    d4 = dihedral(4)
    assert d4.order == 8
    a, b = d4.index_of("a"), d4.index_of("b")
    assert d4.element_order(a) == 2 and d4.element_order(b) == 2
    assert d4.element_order(d4.op(a, b)) == 4
    assert d4.order_profile() == (1, 2, 2, 2, 2, 2, 4, 4)


def test_symmetric_structure():
    s3 = symmetric(3)
    assert s3.order == 6
    assert s3.order_profile() == (1, 2, 2, 2, 3, 3)
    t01, t12 = s3.index_of("(01)"), s3.index_of("(12)")
    assert s3.element_order(s3.op(t01, t12)) == 3


def test_quaternion_structure():
    q8 = quaternion8()
    assert q8.order_profile() == (1, 2, 4, 4, 4, 4, 4, 4)
    i, j, k = q8.index_of("i"), q8.index_of("j"), q8.index_of("k")
    assert q8.op(i, j) == k
    assert q8.op(j, i) == q8.index_of("-k")
    minus1 = q8.index_of("-1")
    assert q8.op(i, i) == minus1 == q8.op(j, j) == q8.op(k, k)


def test_closure():
    d4 = dihedral(4)
    a = d4.index_of("a")
    assert len(d4.closure([a])) == 2
    assert len(d4.closure([a, d4.index_of("b")])) == 8
    assert d4.closure([]) == (d4.identity,)


def test_index_of_unknown_label():
    with pytest.raises(GroupError, match="no element"):
        cyclic(3).index_of("z")


# -- builtin lookup ----------------------------------------------------------


def test_builtin_group_lookup():
    assert builtin_group("cyclic:5").order == 5
    assert builtin_group("dihedral:3").order == 6
    assert builtin_group("klein4").order == 4
    with pytest.raises(GroupError, match="unknown"):
        builtin_group("alternating:4")
    with pytest.raises(GroupError, match="parameter"):
        builtin_group("cyclic")
    with pytest.raises(GroupError, match="parameter"):
        builtin_group("klein4:2")


@pytest.mark.parametrize("name", ["klein4:", "quaternion8:"])
def test_a_family_without_a_parameter_rejects_an_empty_one(name):
    for lookup in (builtin_group, standard_generator_labels):
        with pytest.raises(GroupError, match="takes no parameter"):
            lookup(name)


@pytest.mark.parametrize(
    "name",
    ["cyclic:1", "cyclic:4", "klein4", "dihedral:3", "dihedral:4", "symmetric:3",
     "quaternion8"],
)
def test_standard_generators_generate(name):
    group = builtin_group(name)
    gens = validate_generating_set(group, standard_generator_labels(name))
    assert len(group.closure(gens)) == group.order


# -- generating-set validation -----------------------------------------------


def test_generating_set_rejects_identity():
    with pytest.raises(ContainsIdentityError):
        validate_generating_set(cyclic(3), ["e", "a"])


@pytest.mark.parametrize("index", [3, -1])
def test_generating_set_rejects_an_index_out_of_range(index):
    with pytest.raises(GroupError, match=f"generator index {index} out of range"):
        validate_generating_set(cyclic(3), [index])


def test_generating_set_rejects_duplicates():
    with pytest.raises(DuplicateGeneratorError):
        validate_generating_set(cyclic(3), ["a", "a"])


def test_generating_set_rejects_subgroup():
    d4 = dihedral(4)
    with pytest.raises(DoesNotGenerateError) as err:
        validate_generating_set(d4, ["a"])
    assert len(err.value.witness) == 2


def test_generating_set_allows_subgroup_when_asked():
    got = validate_generating_set(dihedral(4), ["a"], require_generating=False)
    assert got == (dihedral(4).index_of("a"),)


def test_generating_set_accepts_mixed_indices_and_labels():
    c4 = cyclic(4)
    assert validate_generating_set(c4, [1, "a2"], ) == (1, 2)


# -- isomorphism testing -----------------------------------------------------


def test_isomorphic_to_relabeled_self():
    d3 = dihedral(3)
    s3 = symmetric(3)
    assert groups_isomorphic(d3, s3)
    assert groups_isomorphic(s3, d3)


def test_order4_groups_split_into_two_classes():
    c4, v = cyclic(4), klein_four()
    assert groups_isomorphic(c4, c4)
    assert groups_isomorphic(v, v)
    assert not groups_isomorphic(c4, v)


def test_order8_groups_are_pairwise_distinct():
    c8, d4, q8 = cyclic(8), dihedral(4), quaternion8()
    assert not groups_isomorphic(c8, d4)
    assert not groups_isomorphic(c8, q8)
    assert not groups_isomorphic(d4, q8)


def test_same_order_profile_is_not_enough():
    # C3 x C3 and C9 differ already in profile; a sharper pair: D4 and Q8
    # differ in profile too, so exercise the full search with an honest
    # positive instead: two presentations of C6.
    c6 = cyclic(6)
    product = FiniteGroup(
        tuple(f"({a},{b})" for a in range(2) for b in range(3)),
        tuple(
            tuple(((a1 + a2) % 2) * 3 + (b1 + b2) % 3 for a2 in range(2) for b2 in range(3))
            for a1 in range(2)
            for b1 in range(3)
        ),
    )
    assert groups_isomorphic(c6, product)


def test_iso_cap_raises():
    with pytest.raises(SizeLimitExceeded):
        groups_isomorphic(cyclic(17), cyclic(17))


def test_trivial_groups():
    assert groups_isomorphic(cyclic(1), cyclic(1))
    assert standard_generator_labels("cyclic:1") == []


# -- property tests ----------------------------------------------------------


@given(st.integers(min_value=1, max_value=12))
@settings(max_examples=24, deadline=None)
def test_cyclic_element_orders_divide_group_order(n):
    g = cyclic(n)
    for x in range(n):
        assert n % g.element_order(x) == 0


@given(st.integers(min_value=2, max_value=6))
@settings(max_examples=10, deadline=None)
def test_dihedral_defining_relations(k):
    g = dihedral(k)
    a, b = g.index_of("a"), g.index_of("b")
    assert g.element_order(a) == 2
    assert g.element_order(b) == 2
    assert g.element_order(g.op(a, b)) == k


@pytest.mark.parametrize("k", range(2, 13))
def test_dihedral_labels_are_shortest_words(k):
    g = dihedral(k)
    a, b = g.index_of("a"), g.index_of("b")
    # breadth-first distances from the identity in the Cayley graph of {a, b}
    dist = {g.identity: 0}
    queue = [g.identity]
    for x in queue:
        for y in (g.op(x, a), g.op(x, b)):
            if y not in dist:
                dist[y] = dist[x] + 1
                queue.append(y)
    for x, label in enumerate(g.labels):
        word = "" if label == "e" else label
        assert set(word) <= {"a", "b"}
        value = g.identity
        for letter in word:
            value = g.op(value, a if letter == "a" else b)
        assert value == x
        assert len(word) == dist[x]


@given(st.permutations(list(range(4))))
@settings(max_examples=24, deadline=None)
def test_isomorphism_invariant_under_relabeling(perm):
    v = klein_four()
    inv = [0] * 4
    for i, p in enumerate(perm):
        inv[p] = i
    shuffled = FiniteGroup(
        tuple(v.labels[inv[i]] for i in range(4)),
        tuple(
            tuple(perm[v.cayley[inv[i]][inv[j]]] for j in range(4)) for i in range(4)
        ),
    )
    assert groups_isomorphic(v, shuffled)
