import random
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import conjugacy_partition, degree_multisets, element_sum_induction, fused_classes
from superchar import (
    Cyclotomic,
    GroupMismatch,
    NotACharacter,
    builtin_group,
    character_multiplicities,
    conjugacy_classes,
    decompose,
    dixon_character_table,
    enumerate_subgroups,
    has_only_linear_constituents,
    induce,
    inner_product,
    linear_combination,
    regular_character,
    restrict,
    trivial_character,
    verify_orthogonality,
)
from superchar.chartab import ClassFunction, class_fusion, pull_back
from superchar.cyclo import cyclo_sum, zeta
from superchar.errors import PrimeRejected
from superchar.fileio import table_fingerprint

KNOWN_DEGREES = {
    "c2": [1, 1],
    "c3": [1, 1, 1],
    "s3": [1, 1, 2],
    "s4": [1, 1, 2, 3, 3],
    "a4": [1, 1, 1, 3],
    "d4": [1, 1, 1, 1, 2],
    "q8": [1, 1, 1, 1, 2],
}


@pytest.mark.parametrize("spec", sorted(KNOWN_DEGREES))
def test_known_degree_multisets(spec):
    G = builtin_group(spec)
    table = dixon_character_table(G)
    assert sorted(table.degrees) == KNOWN_DEGREES[spec]
    assert sum(d * d for d in table.degrees) == G.order


def test_s3_table_values():
    table = dixon_character_table(builtin_group("s3"))
    # classes: identity, 3-cycles, transpositions; rows: 1, sgn, 2-dim
    grid = [[v.as_rational() for v in row.values] for row in table.rows]
    assert grid == [[1, 1, 1], [1, 1, -1], [2, -1, 0]]


def test_c5_table_is_cyclotomic():
    table = dixon_character_table(builtin_group("c5"))
    values = {v for row in table.rows for v in row.values}
    assert zeta(5) in values and zeta(5, 4) in values
    assert verify_orthogonality(table).ok


def test_orthogonality_passes_for_all_builtins():
    for spec in ("c2", "c7", "c12", "s3", "s4", "a4", "d4", "q8"):
        table = dixon_character_table(builtin_group(spec))
        report = verify_orthogonality(table)
        assert report.ok and not report.violations


def test_orthogonality_rejects_perturbed_table():
    table = dixon_character_table(builtin_group("s3"))
    rows = list(table.rows)
    bad_values = list(rows[1].values)
    bad_values[2] = bad_values[2] + 1
    rows[1] = ClassFunction(table.classes, tuple(bad_values))
    from superchar.chartab import CharacterTable

    bad = CharacterTable(table.classes, tuple(rows), table.degrees)
    report = verify_orthogonality(bad)
    assert not report.ok
    assert report.violations
    v = report.violations[0]
    assert set(v) == {"kind", "i", "j", "value"}
    assert v["kind"] in ("row", "column")


def test_dixon_independent_of_seed_and_prime():
    G = builtin_group("s4")
    base = dixon_character_table(G)
    assert dixon_character_table(G, seed=5).rows == base.rows
    assert dixon_character_table(G, prime=97).rows == base.rows
    for spec in ("d30", "q16", "a5"):
        G = builtin_group(spec)
        prints = {table_fingerprint(dixon_character_table(G, seed=s)) for s in (0, 5, 65535)}
        assert len(prints) == 1, spec


def test_dixon_rejects_bad_primes():
    G = builtin_group("s3")  # exponent 6, order 6: need p = 1 mod 6, p^2 > 24
    with pytest.raises(PrimeRejected):
        dixon_character_table(G, prime=5)  # not 1 mod 6
    with pytest.raises(PrimeRejected):
        dixon_character_table(G, prime=9)  # not prime


def test_degree_oracle_is_unique_for_the_desk_groups():
    for spec, degrees in KNOWN_DEGREES.items():
        G = builtin_group(spec)
        table = dixon_character_table(G)
        n_linear = sum(1 for d in table.degrees if d == 1)
        solutions = degree_multisets(G.order, len(table.rows), n_linear)
        assert solutions == [tuple(degrees)]


def test_induction_matches_element_sum_oracle():
    G = builtin_group("s4")
    table = dixon_character_table(G)
    rng = random.Random(3)
    for sub in enumerate_subgroups(G):
        sub_table = dixon_character_table(sub.local)
        row = sub_table.rows[rng.randrange(len(sub_table.rows))]
        lifted = induce(row, sub)
        f_on_h = {
            sub.to_parent(i): row.at_element(i) for i in range(sub.order)
        }
        oracle = element_sum_induction(G.mul, sub.elements, f_on_h)
        for g in range(G.order):
            got = lifted.at_element(g)
            if oracle[g] is None:
                assert got.is_zero()
            else:
                assert got == oracle[g]


def test_frobenius_reciprocity():
    G = builtin_group("s4")
    table = dixon_character_table(G)
    rng = random.Random(11)
    for sub in enumerate_subgroups(G):
        sub_table = dixon_character_table(sub.local)
        for _ in range(5):
            f = ClassFunction(
                sub_table.classes,
                tuple(
                    Cyclotomic.rational(Fraction(rng.randint(-4, 4), rng.randint(1, 3)))
                    for _ in range(len(sub_table.classes))
                ),
            )
            chi = table.rows[rng.randrange(len(table.rows))]
            assert inner_product(induce(f, sub), chi) == inner_product(
                f, restrict(chi, sub)
            )


def test_decompose_and_multiplicities():
    G = builtin_group("s3")
    table = dixon_character_table(G)
    reg = regular_character(table.classes)
    assert character_multiplicities(reg, table) == (1, 1, 2)
    assert decompose(trivial_character(table.classes), table) == (
        Cyclotomic.rational(1),
        Cyclotomic.rational(0),
        Cyclotomic.rational(0),
    )
    with pytest.raises(NotACharacter):
        character_multiplicities(
            ClassFunction(table.classes, table.rows[2].values[::-1]), table
        )


def test_linear_constituents_filter():
    G = builtin_group("s4")
    table = dixon_character_table(G)
    sgn = table.rows[1]
    assert table.degrees[1] == 1
    assert has_only_linear_constituents(sgn, table)
    assert has_only_linear_constituents(
        linear_combination([1, 1], [trivial_character(table.classes), sgn]), table
    )
    assert not has_only_linear_constituents(regular_character(table.classes), table)


@lru_cache(maxsize=None)
def _table(spec):
    return dixon_character_table(builtin_group(spec))


coefficients = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-4, max_value=4, max_denominator=6)
)


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(["c5", "a5", "q16"]), data=st.data())
def test_linear_combination_matches_per_class_arithmetic(spec, data):
    table = _table(spec)  # all three have irrational character values
    picks = data.draw(st.lists(st.sampled_from(range(len(table.rows))), min_size=1, max_size=5))
    coeffs = data.draw(st.lists(coefficients, min_size=len(picks), max_size=len(picks)))
    fns = [table.rows[i] for i in picks]
    got = linear_combination(coeffs, fns)
    assert got.classes == table.classes
    for ci in range(len(table.classes)):
        want = Cyclotomic.rational(0)
        for q, f in zip(coeffs, fns):
            want = want + f.values[ci] * q
        assert got.values[ci] == want


def _draw_class_function(table, data):
    """A rational combination of rows times a root of unity of the group's
    exponent, so that values and inner products can be irrational."""
    picks = data.draw(st.lists(st.sampled_from(range(len(table.rows))), min_size=1, max_size=3))
    coeffs = data.draw(st.lists(coefficients, min_size=len(picks), max_size=len(picks)))
    z = zeta(table.group.exponent, data.draw(st.integers(0, table.group.exponent - 1)))
    f = linear_combination(coeffs, [table.rows[i] for i in picks])
    return ClassFunction(table.classes, tuple(v * z for v in f.values))


@settings(max_examples=40, deadline=None)
@given(spec=st.sampled_from(["c5", "a5", "q16"]), data=st.data())
def test_inner_product_is_the_size_weighted_sum_over_the_order(spec, data):
    table = _table(spec)
    f, h = _draw_class_function(table, data), _draw_class_function(table, data)
    want = cyclo_sum(f.values, table.classes.sizes, h.values) * Fraction(1, table.group.order)
    got = inner_product(f, h)
    assert (got.order, got.coeffs) == (want.order, want.coeffs)


def test_class_fusion_matches_per_element_oracle():
    for spec in ("s4", "a5", "d6", "q16"):
        G = builtin_group(spec)
        gcls = conjugacy_classes(G)
        rng = random.Random(spec)
        g_values = {c: rng.randint(-9, 9) for c in conjugacy_partition(G.mul)}
        f_on_g = {g: v for c, v in g_values.items() for g in c}
        f = ClassFunction(gcls, tuple(Cyclotomic.rational(f_on_g[g]) for g in gcls.representatives))
        for H in enumerate_subgroups(G):
            hcls = conjugacy_classes(H.local)
            fused = fused_classes(H.local.mul, G.mul, H.elements)
            assert sorted(fused) == sorted(hcls.classes)
            for c, target in zip(hcls.classes, class_fusion(hcls, gcls, H.elements)):
                assert fused[c] == {gcls.classes[target]}
            pulled = pull_back(f, hcls, H.elements)
            assert [pulled.at_element(x) for x in range(H.order)] == [
                Cyclotomic.rational(f_on_g[g]) for g in H.elements
            ]


def test_linear_combination_refuses_mismatched_inputs():
    s3, c3 = _table("s3"), _table("c3")
    with pytest.raises(GroupMismatch):
        linear_combination([1, 1], [s3.rows[1], c3.rows[1]])
    with pytest.raises(ValueError):
        linear_combination([1], s3.rows[:2])  # zip would drop the second row
    with pytest.raises(ValueError):
        linear_combination([1, 2], s3.rows[:1])
    with pytest.raises(ValueError):
        linear_combination([], [])


def test_row_zero_is_trivial_everywhere():
    for spec in ("c4", "s3", "s4", "a4", "d4", "q8"):
        table = dixon_character_table(builtin_group(spec))
        assert table.rows[0] == trivial_character(table.classes)
