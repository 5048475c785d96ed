import hashlib
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    centralizer_order,
    commutator_subgroup,
    conjugacy_partition,
    inverse_table,
    is_associative,
    perm_cayley,
    perm_discovery_order,
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
            assert centralizer_order(G.mul, c[0]) * len(c) == G.order


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


# -- the Cayley-table gate against the oracle ----------------------------------


def _has_identity_and_inverses(mul) -> bool:
    n = len(mul)
    if any(mul[0][g] != g or mul[g][0] != g for g in range(n)):
        return False
    if any(0 not in row for row in mul):
        return False
    inv = inverse_table(mul)
    return all(mul[inv[a]][a] == 0 for a in range(n))


def _oracle_accepts(mul) -> bool:
    return _has_identity_and_inverses(mul) and is_associative(mul)


_TRIPLE = re.compile(r"associativity fails at \((\d+),(\d+),(\d+)\)")


def _gate_agrees_with_oracle(mul) -> bool:
    """Run group_from_cayley on mul; True iff it accepts.  A rejection of a
    table with identity 0 and two-sided inverses must name a failing triple."""
    try:
        G = group_from_cayley(mul)
    except NotAGroup as exc:
        assert not _oracle_accepts(mul)
        found = _TRIPLE.search(str(exc))
        if found:
            a, b, c = map(int, found.groups())
            assert mul[mul[a][b]][c] != mul[a][mul[b][c]], (mul, str(exc))
        if _has_identity_and_inverses(mul):
            assert found, str(exc)  # so associativity failed
        return False
    assert _oracle_accepts(mul)
    assert [list(row) for row in G.mul] == [list(row) for row in mul]
    return True


def _reduced_latin_squares(n):
    """Every Latin square on 0..n-1 whose first row and column are 0..n-1."""
    square = [list(range(n))] + [[i] + [None] * (n - 1) for i in range(1, n)]

    def fill(cell):
        if cell == n * n:
            yield [row[:] for row in square]
            return
        i, j = divmod(cell, n)
        if i == 0 or j == 0:
            yield from fill(cell + 1)
            return
        for v in range(n):
            if v not in square[i][:j] and all(square[k][j] != v for k in range(i)):
                square[i][j] = v
                yield from fill(cell + 1)
        square[i][j] = None

    yield from fill(0)


def _times_c2(loop):
    """C2 x loop on the elements h + 2*l: element 1 = (1, 0) lies in the
    nucleus, so a table that only fails at some (0, l) passes its first
    generator."""
    m = len(loop)
    return [
        [(h1 ^ h2) + 2 * loop[l1][l2] for l2 in range(m) for h2 in range(2)]
        for l1 in range(m)
        for h1 in range(2)
    ]


def test_group_from_cayley_accepts_exactly_the_groups_among_loops():
    counts, accepted, accepted_times_c2 = [], [], []
    for n in range(1, 6):
        squares = list(_reduced_latin_squares(n))
        counts.append(len(squares))
        accepted.append(sum(_gate_agrees_with_oracle(sq) for sq in squares))
        accepted_times_c2.append(sum(_gate_agrees_with_oracle(_times_c2(sq)) for sq in squares))
    assert counts == [1, 1, 1, 4, 56]
    # groups: C1, C2, C3; C4 in three labellings and V4; C5 in 4!/|Aut C5| = 6
    assert accepted == accepted_times_c2 == [1, 1, 1, 4, 6]


@pytest.mark.parametrize("spec", ["d4", "q8", "a4"])
def test_group_from_cayley_rejects_every_single_entry_corruption(spec):
    mul = [list(row) for row in builtin_group(spec).mul]
    n = len(mul)
    assert _gate_agrees_with_oracle(mul)
    for a in range(n):
        for b in range(n):
            honest = mul[a][b]
            for v in range(n):
                if v != honest:
                    mul[a][b] = v
                    assert not _gate_agrees_with_oracle(mul), (a, b, v)
            mul[a][b] = honest


# -- permutation tables against direct composition -----------------------------

# AGL(1, 7): x -> x + 1 and x -> 3x, 3 a primitive root mod 7
_AGL1_7 = (7, [[(x + 1) % 7 for x in range(7)], [(3 * x) % 7 for x in range(7)]])
# C2 wr C4 on 8 points: swap the first pair, rotate the four pairs
_C2_WR_C4 = (8, [[1, 0, 2, 3, 4, 5, 6, 7], [2, 3, 4, 5, 6, 7, 0, 1]])
# C2 x A5: a 5-cycle and a 3-cycle on 0..4, a transposition of 5 and 6
_C2_X_A5 = (7, [[1, 2, 3, 4, 0, 5, 6], [1, 2, 0, 3, 4, 5, 6], [0, 1, 2, 3, 4, 6, 5]])


def _is_even(p):
    # a permutation is even iff degree minus its number of cycles is even
    seen, cycles = set(), 0
    for x in range(len(p)):
        if x not in seen:
            cycles += 1
            while x not in seen:
                seen.add(x)
                x = p[x]
    return (len(p) - cycles) % 2 == 0


@pytest.mark.parametrize("spec", ["s3", "s4", "s5", "a4", "a5"])
def test_symmetric_and_alternating_tables_match_direct_composition(spec):
    n = int(spec[1:])
    perms = sorted(itertools.permutations(range(n)))
    if spec[0] == "a":
        perms = [p for p in perms if _is_even(p)]
    assert [list(row) for row in builtin_group(spec).mul] == perm_cayley(perms)


@pytest.mark.parametrize(
    "degree,gens", [_AGL1_7, _C2_WR_C4, _C2_X_A5], ids=["agl1_7", "c2wrc4", "c2xa5"]
)
def test_permutation_closure_table_matches_direct_composition(degree, gens):
    G = group_from_permutations(degree, gens)
    expected = perm_cayley(perm_discovery_order(degree, gens))
    assert [list(row) for row in G.mul] == expected


# -- hashing ---------------------------------------------------------------------


def test_equal_groups_hash_alike_and_share_one_cache_entry():
    table = builtin_group("d7").mul
    G1, G2 = group_from_cayley(table, "hash-twice"), group_from_cayley(table, "hash-twice")
    assert G1 is not G2 and G1 == G2
    assert hash(G1) == hash(G2)
    assert vars(G1)["_hash"] == hash(G1)  # stored once on the instance
    before = conjugacy_classes.cache_info()
    assert conjugacy_classes(G1) is conjugacy_classes(G2)
    after = conjugacy_classes.cache_info()
    assert (after.misses - before.misses, after.hits - before.hits) == (1, 1)
