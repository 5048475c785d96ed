import hashlib
import json
import random
from fractions import Fraction

import pytest

from oracles import all_set_partitions, compatible_per_element, superinduce_via_reciprocity
from superchar import (
    IncompatibleFamily,
    IncompatibleTheories,
    NotAPartition,
    NotASupercharacterTheory,
    builtin_group,
    classical_theory,
    dixon_character_table,
    enumerate_subgroups,
    enumerate_theories,
    induce,
    is_compatible,
    make_family,
    make_theory,
    maximal_theory,
    srestrict,
    subgroup_from_elements,
    superinduce,
    whole_subgroup,
)
from superchar.errors import NotASuperclassFunction, OrderCapExceeded
from superchar.fileio import canonical_json, encode_cyclotomic


def _rand_fn(theory, rng):
    return theory.superclass_function(
        [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(theory.n_blocks)]
    )


def test_set_partitions_bell_numbers():
    for n, bell in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        assert sum(1 for _ in all_set_partitions(range(n))) == bell


def test_classical_and_maximal_are_valid():
    for spec in ("c1", "c4", "s3", "d4"):
        table = dixon_character_table(builtin_group(spec))
        cl = classical_theory(table)
        assert cl.is_classical()
        mx = maximal_theory(table)
        assert mx.n_blocks == (1 if spec == "c1" else 2)


def test_maximal_degenerates_for_trivial_group():
    table = dixon_character_table(builtin_group("c1"))
    assert maximal_theory(table).is_classical()


def test_rejects_identity_not_alone():
    table = dixon_character_table(builtin_group("c3"))
    with pytest.raises(NotASupercharacterTheory) as exc:
        make_theory(table, [[0], [1, 2]], [[0, 1], [2]])
    assert exc.value.condition == 1
    assert 0 in exc.value.witness["block"]


def test_rejects_block_count_mismatch():
    table = dixon_character_table(builtin_group("c3"))
    with pytest.raises(NotASupercharacterTheory) as exc:
        make_theory(table, [[0], [1], [2]], [[0], [1, 2]])
    assert exc.value.condition == 2


def test_rejects_nonconstant_sigma_with_witness():
    table = dixon_character_table(builtin_group("c3"))
    with pytest.raises(NotASupercharacterTheory) as exc:
        make_theory(table, [[1], [0, 2]], [[0], [1, 2]])
    err = exc.value
    assert err.condition == 3
    assert err.witness["x_block"] == [0, 2]
    assert err.witness["k_block"] == [1, 2]
    assert "element" in err.witness and "values" in err.witness


def test_rejects_non_partitions():
    table = dixon_character_table(builtin_group("c3"))
    with pytest.raises(NotAPartition):
        make_theory(table, [[0], [1]], [[0], [1, 2]])  # row 2 missing
    with pytest.raises(NotAPartition):
        make_theory(table, [[0], [1, 2]], [[0], [1], [1, 2]])  # overlap


def test_enumeration_counts():
    expected = {"c2": 1, "c3": 2, "c4": 3, "c5": 3, "s3": 2}
    for spec, count in expected.items():
        table = dixon_character_table(builtin_group(spec))
        theories = enumerate_theories(table)
        assert len(theories) == count
        assert classical_theory(table) in theories
        assert maximal_theory(table) in theories


def test_enumeration_cap():
    table = dixon_character_table(builtin_group("c5"))
    with pytest.raises(OrderCapExceeded):
        enumerate_theories(table, budget=1)


# (count, sha256 of the canonical [[X, K], ...] listing) for every builtin
# with at most 9 classes among c1-c9, d1-d15, q8-q24, s3-s5, a4 and a5, as
# listed by the exhaustive set-partition enumerator the block search replaced
ENUMERATION_LISTINGS = {
    "c1": (1, "477d4e00eb8e7fd16ef64a9c0f9fd862ea5d4258ca089ec01f95f5f888761a69"),
    "c2": (1, "be4e692666b57b2d04baf350466d5fa8474622aeaebd9b4832f2935cfce5fe0b"),
    "c3": (2, "057a76a37d28744d81f653b7ca88581d278802188bb813a1d6f3c6db2748b4f7"),
    "c4": (3, "714a4a0a1f9e529f938369c6ffb86e7b6f6af22fb18547f046122f40d91ba162"),
    "c5": (3, "46cde705a8e0d68b8f3779609edb94e937ba235752dbafbe5767dc40bdd1b679"),
    "c6": (7, "034f28dc92d0b4dce38f34d7cae6b36b641a7ecceacab87ffa4741555432ffcf"),
    "c7": (4, "bd8a16af099a779ec1e9213134f63509aad6a390d467add3e6e53e45df08eccc"),
    "c8": (10, "176acdbd58c3a778bae864e3823d57d04882519586b8482ada97ed4dc9f04157"),
    "c9": (7, "b2c3b8e67450a058b85f00a37e25b63c916c6ee07d2b8ce74f6348a65cbb1ff3"),
    "d1": (1, "be4e692666b57b2d04baf350466d5fa8474622aeaebd9b4832f2935cfce5fe0b"),
    "d2": (5, "af7fdf23941c115a376125b1f187011cc14cd55e10dfe76bd59ece198e802fc1"),
    "d3": (2, "057a76a37d28744d81f653b7ca88581d278802188bb813a1d6f3c6db2748b4f7"),
    "d4": (9, "09c22bb854bef00dcf51eb59d3a961526dc85994fba846823b679fff034a5304"),
    "d5": (3, "aa69fa032ab340ed769aa6c883df2267f822d77be848d6b8a6739d22dd8d68c3"),
    "d6": (15, "d9023b6ec6d70da74c26b8a1510e1723408980260665b0d2bf176a7a00304be5"),
    "d7": (3, "08aed55f3803eff4a9e0ae534948413b4114e85cd94b52808d4d634cfa0c202c"),
    "d8": (20, "68ee532847f73e50a19f9fd971902d8e88f8b4f00b1051e39f0106c5534980c2"),
    "d9": (5, "27f95db58a9826649931f9beda1c4bc9b358f5e4dade8bba3d465b291343c805"),
    "d10": (23, "a125b18f862a20df28609247fe992cc8d025f62f39a5ab0bb019ea9092216a68"),
    "d11": (3, "663cee2cc637b055bae187bcf0870a698c1fb26c54433ae9305c7816286171ee"),
    "d12": (45, "4577fbdd483e2ecff0f5e9b1764270476f76ad3c30834e2b2e8246c85b2e32ca"),
    "d13": (5, "3d280e1cf7ab624ad528c02e3ecdcc32197c7b90c5ad5f87fb8be529956ea45a"),
    "d15": (12, "4aeb66cbc33e26887180ce9fd353a9076fe56f8026ac93723a5b6c14827f681a"),
    "q8": (9, "09c22bb854bef00dcf51eb59d3a961526dc85994fba846823b679fff034a5304"),
    "q12": (9, "ced24cefa5c9fd7896d69acdca67e45ddcc730b77326c4d67627e9c35d53b238"),
    "q16": (20, "68ee532847f73e50a19f9fd971902d8e88f8b4f00b1051e39f0106c5534980c2"),
    "q20": (15, "519e95cbb42d8450de3b3b43da780f39b5fbfd1b33798cb476f72fb87a0b0506"),
    "q24": (45, "4577fbdd483e2ecff0f5e9b1764270476f76ad3c30834e2b2e8246c85b2e32ca"),
    "s3": (2, "a084c782ee65000d5f9044ec1e2658d4496ebe7d8b8ff593751affcee7f1ab72"),
    "s4": (5, "dc95be81b0ca9b26c25426ab4a19efe09421e38d499df6bf138cc1a390e4bdab"),
    "s5": (5, "de55f2578a5a705b788a27a52f085c0d656d5d3ea2521023bf2e8c4e4446dfe6"),
    "a4": (3, "a7af35fb26fe1646731db82fe42b43f50d5a07bde1ba4c96180950a4b5f0571a"),
    "a5": (3, "8ac2192cf05905d6860ff8f77b6c84418741d4d078addf2c56bbc6c09944b27e"),
}


@pytest.mark.parametrize("spec", sorted(ENUMERATION_LISTINGS))
def test_enumeration_listing_matches_pin(spec):
    theories = enumerate_theories(dixon_character_table(builtin_group(spec)))
    text = json.dumps([[t.irr_blocks, t.class_blocks] for t in theories], separators=(",", ":"))
    assert (len(theories), hashlib.sha256(text.encode()).hexdigest()) == ENUMERATION_LISTINGS[spec]


# counts from the same set-partition enumerator (c12 took minutes there)
@pytest.mark.parametrize("spec, count", [("c10", 10), ("d14", 23), ("q32", 47), ("c12", 32)])
def test_enumeration_counts_past_nine_classes(spec, count):
    assert len(enumerate_theories(dixon_character_table(builtin_group(spec)))) == count


def test_every_desk_builtin_enumerates_within_the_default_budget():
    specs = [f"c{n}" for n in range(1, 13)] + [f"d{n}" for n in range(1, 22)]
    specs += [f"q{n}" for n in range(8, 37, 4)] + [f"s{n}" for n in range(1, 6)] + ["a3", "a4", "a5"]
    tables = [dixon_character_table(builtin_group(spec)) for spec in specs]
    tables = [table for table in tables if len(table.classes) <= 12]
    assert len(tables) == 48
    for table in tables:
        assert enumerate_theories(table)  # raises OrderCapExceeded past the budget


def test_is_compatible_matches_per_element_oracle():
    pairs = incompatible = 0
    for spec in ("d4", "q8", "s4", "d6", "a4"):
        G = builtin_group(spec)
        big_theories = enumerate_theories(dixon_character_table(G))
        for H in enumerate_subgroups(G):
            for sub in enumerate_theories(dixon_character_table(H.local)):
                for big in big_theories:
                    got = is_compatible(sub, big, H.elements)
                    assert got == compatible_per_element(sub.element_blocks, big.element_blocks, H.elements)
                    pairs += 1
                    incompatible += not got[0]
    assert (pairs, incompatible) == (1707, 688)


# sha256 of the canonical JSON of induce(chi, H) for every irreducible chi of
# every subgroup H, and of superinduce(sigma_Y) for every Y of every
# compatible (subgroup theory, top theory) pair on s4, d6, q16 and a4, as
# computed by the per-element induce and superinduce the class fusion replaced
INDUCTION_PIN = (218, 5002, "5c40cf0f3c200ed115d99e964336fde755823da4271d69bd2241844b5082161b")


def test_induce_and_superinduce_match_pin():
    out, n_induced, n_superinduced = {}, 0, 0
    for spec in ("s4", "d6", "q16", "a4"):
        G = builtin_group(spec)
        tops = enumerate_theories(dixon_character_table(G))
        induced, superinduced = [], []
        for H in enumerate_subgroups(G):
            table = dixon_character_table(H.local)
            induced.append([[encode_cyclotomic(v) for v in induce(row, H).values] for row in table.rows])
            n_induced += len(table.rows)
            for i, sub in enumerate(enumerate_theories(table)):
                for j, top in enumerate(tops):
                    if not is_compatible(sub, top, H.elements)[0]:
                        continue
                    sinds = [superinduce(sub.sigma_function(y), top, H.elements) for y in range(sub.n_blocks)]
                    superinduced.append([i, j, [[encode_cyclotomic(v) for v in s.block_values()] for s in sinds]])
                    n_superinduced += sub.n_blocks
        out[spec] = {"induce": induced, "superinduce": superinduced}
    digest = hashlib.sha256(canonical_json(out).encode()).hexdigest()
    assert (n_induced, n_superinduced, digest) == INDUCTION_PIN


def test_compatibility_and_witness():
    d4 = builtin_group("d4")
    big = classical_theory(dixon_character_table(d4))
    c4 = next(
        s
        for s in enumerate_subgroups(d4)
        if s.order == 4 and s.local.exponent == 4
    )
    sub_table = dixon_character_table(c4.local)
    ok, witness = is_compatible(classical_theory(sub_table), big, c4.elements)
    assert ok and witness is None
    # the maximal theory on C4 lumps elements of different D4-classes
    ok, witness = is_compatible(maximal_theory(sub_table), big, c4.elements)
    assert not ok
    assert witness is not None
    assert big.superclass_of(c4.to_parent(witness)) is not None


def test_superinduce_and_srestrict_reject_incompatible_theories():
    c4 = builtin_group("c4")
    big = classical_theory(dixon_character_table(c4))
    whole = whole_subgroup(c4)
    sub_theory = maximal_theory(dixon_character_table(whole.local))
    ok, witness = is_compatible(sub_theory, big, whole.elements)
    assert not ok and witness == 1
    with pytest.raises(IncompatibleTheories) as exc:
        superinduce(sub_theory.trivial_superclass_function(), big, whole.elements)
    assert exc.value.witness == witness
    with pytest.raises(IncompatibleTheories) as exc:
        srestrict(big.trivial_superclass_function(), sub_theory, whole.elements)
    assert exc.value.witness == witness


def test_superclass_function_validation():
    table = dixon_character_table(builtin_group("s3"))
    mx = maximal_theory(table)
    with pytest.raises(NotASuperclassFunction):
        from superchar.chartab import ClassFunction
        from superchar.cyclo import Cyclotomic

        fn = ClassFunction(
            table.classes,
            tuple(Cyclotomic.rational(v) for v in (0, 1, 2)),
        )
        from superchar.theories import SuperclassFunction

        SuperclassFunction(mx, fn)


def test_classical_superinduction_equals_induction_s3():
    G = builtin_group("s3")
    table = dixon_character_table(G)
    big = classical_theory(table)
    a3 = subgroup_from_elements(G, [0, 3, 4])
    sub_table = dixon_character_table(a3.local)
    sub = classical_theory(sub_table)
    for row in sub_table.rows:
        from superchar.theories import SuperclassFunction

        phi = SuperclassFunction(sub, row)
        assert superinduce(phi, big, a3.elements).fn == induce(row, a3)


def test_superinduction_from_trivial_subgroup_maximal_theory():
    # Sind of the constant function 1 from the trivial subgroup vanishes
    # off the identity: the zero-extension has no support elsewhere.
    G = builtin_group("c3")
    table = dixon_character_table(G)
    big = maximal_theory(table)
    triv = subgroup_from_elements(G, [0])
    sub = classical_theory(dixon_character_table(triv.local))
    out = superinduce(sub.trivial_superclass_function(), big, triv.elements)
    assert [v.as_rational() for v in out.block_values()] == [3, 0]


def test_super_frobenius_reciprocity_random():
    G = builtin_group("s3")
    table = dixon_character_table(G)
    big = maximal_theory(table)
    a3 = subgroup_from_elements(G, [0, 3, 4])
    sub = maximal_theory(dixon_character_table(a3.local))
    from superchar.chartab import inner_product

    rng = random.Random(0)
    for _ in range(25):
        phi = _rand_fn(sub, rng)
        theta = _rand_fn(big, rng)
        lhs = inner_product(superinduce(phi, big, a3.elements).fn, theta.fn)
        rhs = inner_product(phi.fn, srestrict(theta, sub, a3.elements).fn)
        assert lhs == rhs


def test_uniqueness_of_superinduction():
    G = builtin_group("s3")
    big = maximal_theory(dixon_character_table(G))
    a3 = subgroup_from_elements(G, [0, 3, 4])
    sub = maximal_theory(dixon_character_table(a3.local))
    rng = random.Random(1)
    for _ in range(10):
        phi = _rand_fn(sub, rng)
        assert superinduce(phi, big, a3.elements).fn == superinduce_via_reciprocity(
            phi, big, a3.elements
        ).fn


def test_families_build_and_validate(s3_classical, s3_maximal):
    assert len(s3_classical.subgroups) == 6
    assert s3_classical.top_theory.is_classical()
    assert s3_maximal.top_theory.n_blocks == 2
    for h1, h2 in s3_classical.containment_pairs():
        assert h1.element_set < h2.element_set


def test_family_rejects_incompatible_choice():
    d4 = builtin_group("d4")

    def chooser(sub, table):
        if sub.order == 4 and sub.local.exponent == 4:
            return maximal_theory(table)
        return classical_theory(table)

    with pytest.raises(IncompatibleFamily) as exc:
        make_family(d4, chooser)
    assert exc.value.witness is not None


def test_compatibility_is_transitive_on_s3(s3_classical):
    fam = s3_classical
    from superchar.groups import is_subgroup_chain, subgroup_within

    for h1 in fam.subgroups:
        for h2 in fam.subgroups:
            if not (h1.order < h2.order and is_subgroup_chain(h1, h2)):
                continue
            t1, t2 = fam.theory_for(h1), fam.theory_for(h2)
            ok12, _ = is_compatible(t1, t2, subgroup_within(h1, h2))
            ok2g, _ = is_compatible(t2, fam.top_theory, h2.elements)
            ok1g, _ = is_compatible(t1, fam.top_theory, h1.elements)
            assert ok12 and ok2g and ok1g
