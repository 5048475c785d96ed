import random
from fractions import Fraction

import pytest

from oracles import superinduce_via_reciprocity
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
from superchar.theories import set_partitions


def _rand_fn(theory, rng):
    return theory.superclass_function(
        [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(theory.n_blocks)]
    )


def test_set_partitions_bell_numbers():
    for n, bell in [(0, 1), (1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        assert sum(1 for _ in set_partitions(range(n))) == bell


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
        enumerate_theories(table, max_classes=4)


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
