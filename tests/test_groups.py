import hashlib
import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    commutator_subgroup,
    conjugacy_partition,
    is_associative,
    raw_closure,
    subgroups_by_pairs,
    subgroups_by_subsets,
)
from superchar import (
    NotAGroup,
    builtin_group,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    enumerate_subgroups,
    group_from_cayley,
    group_from_permutations,
    quaternion_group,
    subgroup_from_elements,
)
from superchar.errors import NotASubgroup, OrderCapExceeded
from superchar.groups import (
    builtin_order,
    centralizer_order,
    closure,
    derived_subgroup,
    element_order,
    subgroup_within,
)


def test_builtin_orders_and_exponents():
    cases = {
        "c7": (7, 7),
        "s3": (6, 6),
        "s4": (24, 12),
        "a4": (12, 6),
        "d4": (8, 4),
        "q8": (8, 4),
    }
    for spec, (order, exponent) in cases.items():
        G = builtin_group(spec)
        assert (G.order, G.exponent) == (order, exponent)


def test_builtin_order_matches_the_built_group():
    specs = [f"{kind}{n}" for kind in "cd" for n in range(1, 25)]
    specs += [f"q{n}" for n in range(8, 41, 4)]
    specs += [f"{kind}{n}" for kind in "sa" for n in range(6)]
    for spec in specs:
        assert builtin_order(spec) == builtin_group(spec).order, spec


def test_builtin_tables_are_groups_by_brute_force():
    for spec in ("c6", "s3", "d4", "q8", "a4"):
        G = builtin_group(spec)
        assert is_associative(G.mul)
        assert all(G.m(0, g) == g == G.m(g, 0) for g in range(G.order))
        assert all(G.m(g, G.inverse(g)) == 0 for g in range(G.order))


def test_group_from_cayley_rejects_broken_tables():
    c3 = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
    group_from_cayley(c3)  # sanity: the honest table passes

    with pytest.raises(NotAGroup):
        group_from_cayley([[0, 1], [1, 1]])  # 1 has no inverse
    with pytest.raises(NotAGroup):
        group_from_cayley([[1, 0], [0, 1]])  # identity is not element 0
    broken = [row[:] for row in c3]
    broken[1][2], broken[2][2] = broken[2][2], broken[1][2]  # kills associativity
    with pytest.raises(NotAGroup):
        group_from_cayley(broken)
    with pytest.raises(NotAGroup):
        group_from_cayley([[0, 1, 2], [1, 0, 2], [2, 2, 2]])  # not latin


def test_group_from_permutations_matches_cayley_route():
    G = group_from_permutations(3, [[1, 0, 2], [0, 2, 1]], "S3")
    assert G.order == 6
    assert sorted(element_order(G, g) for g in range(6)) == [1, 2, 2, 2, 3, 3]


def test_conjugacy_classes_match_raw_oracle():
    for spec in ("s3", "s4", "d4", "q8", "a4", "c12"):
        G = builtin_group(spec)
        cls = conjugacy_classes(G)
        assert sorted(cls.classes) == sorted(conjugacy_partition(G.mul))
        assert cls.classes[0] == (0,)
        # classes are ordered by (size, least element)
        keys = [(len(c), c[0]) for c in cls.classes]
        assert keys == sorted(keys)
        for ci, c in enumerate(cls.classes):
            assert centralizer_order(G, c[0]) * len(c) == G.order


def test_subgroup_enumeration_oracle_s3():
    G = builtin_group("s3")
    got = {s.element_set for s in enumerate_subgroups(G)}
    assert got == subgroups_by_subsets(G.mul)
    assert len(got) == 6


def test_subgroup_enumeration_oracle_s4():
    G = builtin_group("s4")
    subs = enumerate_subgroups(G)
    assert {s.element_set for s in subs} == subgroups_by_pairs(G.mul)
    assert len(subs) == 30
    orders = [s.order for s in subs]
    assert orders == sorted(orders)  # canonical order


def test_subgroup_count_is_relabeling_invariant():
    G = builtin_group("d4")
    n = G.order
    rng = random.Random(7)
    for _ in range(5):
        relabel = [0] + rng.sample(range(1, n), n - 1)
        table = [[0] * n for _ in range(n)]
        for a in range(n):
            for b in range(n):
                table[relabel[a]][relabel[b]] = relabel[G.m(a, b)]
        H = group_from_cayley(table, "D4'")
        assert len(enumerate_subgroups(H)) == len(enumerate_subgroups(G))


def test_derived_subgroup_agrees_with_oracle():
    for spec in ("s3", "s4", "a4", "d4", "q8"):
        G = builtin_group(spec)
        assert derived_subgroup(G).element_set == commutator_subgroup(G.mul)


def test_subgroup_embeddings():
    G = builtin_group("s4")
    subs = enumerate_subgroups(G)
    a4 = next(s for s in subs if s.order == 12)
    v4 = next(
        s
        for s in subs
        if s.order == 4
        and s.element_set <= a4.element_set
        and all(element_order(s.local, g) <= 2 for g in range(4))
    )
    emb = subgroup_within(v4, a4)
    # the embedding is a homomorphism into a4's local indexing
    for i in range(4):
        for j in range(4):
            assert emb[v4.local.m(i, j)] == a4.local.m(emb[i], emb[j])


def test_subgroup_from_elements_rejects_non_subgroups():
    G = builtin_group("s3")
    with pytest.raises(NotASubgroup):
        subgroup_from_elements(G, [0, 1, 2])  # two transpositions, not closed


def test_whole_group_subgroup_is_identity_embedding():
    G = builtin_group("s3")
    sub = subgroup_from_elements(G, range(6))
    assert sub.local is G
    assert sub.elements == tuple(range(6))


def test_quaternion_and_dihedral_structure():
    q8 = quaternion_group(8)
    assert sorted(element_order(q8, g) for g in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]
    d4 = dihedral_group(4)
    assert sorted(element_order(d4, g) for g in range(8)) == [1, 2, 2, 2, 2, 2, 4, 4]


def test_order_cap():
    import superchar.groups as gr

    with pytest.raises(OrderCapExceeded):
        gr.group_from_permutations(8, [list(range(1, 8)) + [0], [1, 0] + list(range(2, 8))])


def test_cyclic_group_is_commutative_with_cyclic_subgroup_lattice():
    G = cyclic_group(12)
    assert all(G.m(a, b) == G.m(b, a) for a in range(12) for b in range(12))
    # one subgroup per divisor of 12
    assert len(enumerate_subgroups(G)) == 6


def _agl1_5():
    # AGL(1, 5): x -> x + 1 and x -> 2x, 2 a primitive root mod 5
    return group_from_permutations(
        5, [[(x + 1) % 5 for x in range(5)], [(2 * x) % 5 for x in range(5)]], name="agl1_5"
    )


def _lattice_digest(subs) -> str:
    listing = json.dumps([list(s.elements) for s in subs], separators=(",", ":"))
    return hashlib.sha256(listing.encode()).hexdigest()


# canonical (order, element list) subgroup listings recorded with the
# O(|H|^2) frontier-times-known closure that the generator walk replaced
@pytest.mark.parametrize(
    "make,count,digest",
    [
        (lambda: builtin_group("s4"), 30, "9e6b63dc7550f63107cba968098eb6f37db4ae35345c121eb7a01a07b8a99e7d"),
        (lambda: builtin_group("a5"), 59, "23af70e6cfb670df2f6a9c79ba1367e6cd8333c1194dac271ed38b17756db40b"),
        (lambda: builtin_group("d30"), 80, "87f8a568866d85513efcab9b7fa8197a9808a81c10fdb589708a9471bcce4dae"),
        (lambda: builtin_group("q16"), 11, "f1b42ecd87ee1a65526483a11437d7b628f559e8c328b77b16cd7a8e51a0bfeb"),
        (_agl1_5, 14, "c9218d14def472325cbb2e95d94a8978923e27252860c568f08ae827cbd6b701"),
        (lambda: builtin_group("s5"), 156, "9c701557759a4f02f9f7bb9d77aff6032959cb3f53d4d6d21224146a318e045e"),
    ],
    ids=["s4", "a5", "d30", "q16", "agl1_5", "s5"],
)
def test_pinned_subgroup_lattices(make, count, digest):
    subs = enumerate_subgroups(make())
    assert (len(subs), _lattice_digest(subs)) == (count, digest)


@pytest.mark.parametrize("spec", ["a5", "d30"])
def test_subgroup_enumeration_oracle_two_generated(spec):
    # every subgroup of A5 and of a dihedral group is generated by two elements
    G = builtin_group(spec)
    assert {s.element_set for s in enumerate_subgroups(G)} == subgroups_by_pairs(G.mul)


def _divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_subgroup_counts_match_closed_forms():
    # D_n (order 2n) has tau(n) + sigma(n) subgroups: one cyclic subgroup per
    # divisor d of n, and n/d dihedral ones of order 2d
    for n in (7, 12, 15, 30):
        divisors = _divisors(n)
        assert len(enumerate_subgroups(dihedral_group(n))) == len(divisors) + sum(divisors), n
    assert len(enumerate_subgroups(builtin_group("s5"))) == 156


_CLOSURE_GROUPS = {spec: builtin_group(spec) for spec in ("s4", "a5", "d12")}


@settings(max_examples=80, deadline=None)
@given(
    spec=st.sampled_from(sorted(_CLOSURE_GROUPS)),
    picks=st.lists(st.integers(min_value=0, max_value=10**6), max_size=4),
    cap=st.integers(min_value=1, max_value=80),
)
def test_closure_matches_raw_closure(spec, picks, cap):
    G = _CLOSURE_GROUPS[spec]
    gens = [p % G.order for p in picks]
    expected = raw_closure(G.mul, gens)
    if len(expected) > cap:
        with pytest.raises(OrderCapExceeded):
            closure(G, gens, cap)
    else:
        assert closure(G, gens, cap) == expected


def test_builtin_order_stops_at_the_cap():
    assert builtin_order("s6", 1000) == 720 and builtin_order("a7", 10**4) == 2520
    assert builtin_order("s2000", 200) > 200
    assert builtin_order("a1000000", 200) > 200
    assert builtin_order("d101", 200) == 202
