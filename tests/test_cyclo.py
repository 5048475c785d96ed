from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles

from superchar.cyclo import (
    Cyclotomic,
    cyclo_sum,
    cyclotomic_polynomial,
    divisors,
    zeta,
)

# Phi_e for small e, from the standard table of cyclotomic polynomials.
KNOWN_PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    5: (1, 1, 1, 1, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    9: (1, 0, 0, 1, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


@pytest.mark.parametrize("e,phi", sorted(KNOWN_PHI.items()))
def test_cyclotomic_polynomials(e, phi):
    assert cyclotomic_polynomial(e) == phi


def test_product_of_cyclotomics_is_x_pow_e_minus_one():
    # prod over d | e of Phi_d(x) = x^e - 1
    for e in range(1, 21):
        prod = [1]
        for d in divisors(e):
            phi = cyclotomic_polynomial(d)
            out = [0] * (len(prod) + len(phi) - 1)
            for i, a in enumerate(prod):
                for j, b in enumerate(phi):
                    out[i + j] += a * b
            prod = out
        expected = [0] * (e + 1)
        expected[0], expected[e] = -1, 1
        assert prod == expected


def test_zeta_order_and_power_identity():
    for e in range(1, 13):
        z = zeta(e)
        assert z ** e == Cyclotomic.rational(1)
        if e > 2:
            assert z.as_rational() is None


def test_root_of_unity_sums_vanish():
    # sum of all e-th roots of unity is 0 for e > 1
    for e in range(2, 13):
        assert cyclo_sum(zeta(e, k) for k in range(e)).is_zero()


def test_automatic_order_reduction():
    # zeta_6 = 1 + zeta_3, and zeta_4^2 = -1 is rational
    assert zeta(4) ** 2 == Cyclotomic.rational(-1)
    assert (zeta(6) - zeta(3)).as_rational() == 1
    # Q(zeta_6) = Q(zeta_3), so zeta_6 is stored at order 3 as 1 + zeta_3
    assert zeta(6).order == 3
    assert zeta(6) == zeta(3) + 1
    assert (zeta(8) * zeta(8)).order == 4


def test_conjugation():
    z = zeta(5)
    assert z.conjugate() == zeta(5, 4)
    assert (z + z.conjugate()).conjugate() == z + z.conjugate()
    assert (z * z.conjugate()).as_rational() == 1


def test_mixed_order_arithmetic():
    # zeta_2 * zeta_3 = zeta_6^5 = -zeta_6^2
    assert zeta(2) * zeta(3) == zeta(6, 5)
    assert zeta(2) + 1 == Cyclotomic.rational(0)


def test_rational_fast_paths():
    a = Cyclotomic.rational(Fraction(3, 2))
    assert (a + a).as_rational() == 3
    assert (a * 2).as_rational() == 3
    assert (a / 3).as_rational() == Fraction(1, 2)
    assert a.is_integer() is False
    assert Cyclotomic.rational(4).is_nonnegative_integer()


def test_str_uses_symbolic_roots():
    assert str(zeta(5, 2)) == "z5^2"
    assert str(Cyclotomic.rational(Fraction(-7, 3))) == "-7/3"
    assert "z" in str(zeta(7) + 1)


def test_sort_key_total_order():
    vals = [zeta(3), zeta(5), Cyclotomic.rational(2), zeta(3, 2), Cyclotomic.rational(-1)]
    keys = [v.sort_key() for v in vals]
    assert len(set(keys)) == len(vals)
    assert sorted(keys) == sorted(keys, key=lambda k: k)


small_cyclos = st.builds(
    lambda e, k, num, den: zeta(e, k) * Fraction(num, den) + Fraction(num, den + 1),
    st.integers(1, 12),
    st.integers(0, 11),
    st.integers(-6, 6),
    st.integers(1, 4),
)


@settings(max_examples=60, deadline=None)
@given(small_cyclos, small_cyclos, small_cyclos)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == Cyclotomic.rational(0)
    assert a * 1 == a


@settings(max_examples=60, deadline=None)
@given(small_cyclos, st.integers(2, 4))
def test_lift_round_trip(a, m):
    # embedding into a larger field and rebuilding is the identity
    e = a.order * m
    assert Cyclotomic.from_terms(e, a.embed_terms(e)) == a


@settings(max_examples=60, deadline=None)
@given(small_cyclos)
def test_conjugation_is_an_involution(a):
    assert a.conjugate().conjugate() == a
    norm = a * a.conjugate()
    # |a|^2 lies in the maximal real subfield; at least check conj-invariance
    assert norm.conjugate() == norm


@pytest.mark.parametrize(
    "value,order,coeffs",
    [
        (zeta(6) ** 2, 3, (0, 1)),
        (zeta(4) ** 2, 1, (-1,)),
        (cyclo_sum(zeta(5, k) for k in range(1, 5)), 1, (-1,)),
        (zeta(12, 3), 4, (0, 1)),
        ((zeta(8) + zeta(8, 7)) / 2, 8, (0, Fraction(1, 2), 0, Fraction(-1, 2))),
    ],
    ids=["z6^2", "z4^2", "z5-sum", "z12^3", "sqrt2/2"],
)
def test_pinned_canonical_forms(value, order, coeffs):
    assert value.order == order
    assert value.coeffs == coeffs
    assert all(type(c) is Fraction for c in value.coeffs)


def _random_value(e, terms):
    return Cyclotomic.from_terms(e, dict(terms))


# orders drawn from the divisors of 72 or of 60: every lcm stays small for
# the oracle and mixes p^2 | E (4, 8, 9) with p || E (3, 5)
field_values = st.sampled_from((72, 60)).flatmap(
    lambda n: st.builds(
        _random_value,
        st.sampled_from([d for d in range(1, n + 1) if n % d == 0 and d <= 36]),
        st.lists(
            st.tuples(
                st.integers(0, 35),
                st.fractions(min_value=-3, max_value=3, max_denominator=4),
            ),
            max_size=4,
        ),
    )
)


def _check_against_oracle(got, E, want):
    assert E % got.order == 0
    assert len(got.coeffs) == len(oracles.cyclotomic_poly(got.order)) - 1
    assert oracles.embed(E, got.order, got.coeffs) == want
    assert got.order == oracles.conductor(E, want)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.fractions(min_value=-4, max_value=4, max_denominator=3),
            field_values,
            field_values,
        ),
        max_size=4,
    )
)
def test_kernel_matches_polynomial_oracle(terms):
    E = 1
    for _, a, b in terms:
        E = E * a.order // gcd(E, a.order)
        E = E * b.order // gcd(E, b.order)
    weights = [q for q, _, _ in terms]
    xs = [a for _, a, _ in terms]
    ys = [b for _, _, b in terms]
    as_field = [oracles.embed(E, v.order, v.coeffs) for v in xs]
    conj_field = [
        oracles.galois(E, oracles.embed(E, v.order, v.coeffs), E - 1) for v in ys
    ]
    zero = oracles.field_element(E, [])
    want_sum = zero
    want_dot = zero
    for q, a, b in zip(weights, as_field, conj_field):
        want_sum = [s + q * c for s, c in zip(want_sum, a)]
        want_dot = [s + q * c for s, c in zip(want_dot, oracles.field_mul(E, a, b))]
    _check_against_oracle(cyclo_sum(xs, weights), E, want_sum)
    _check_against_oracle(cyclo_sum(xs, weights, ys), E, want_dot)
    if terms:
        a, b = xs[0], ys[0]
        E2 = a.order * b.order // gcd(a.order, b.order)
        fa, fb = (oracles.embed(E2, v.order, v.coeffs) for v in (a, b))
        _check_against_oracle(a * b, E2, oracles.field_mul(E2, fa, fb))
        _check_against_oracle(a + b, E2, [x + y for x, y in zip(fa, fb)])


rational_weights = st.one_of(
    st.integers(-5, 5), st.fractions(min_value=-4, max_value=4, max_denominator=6)
)
rational_values = st.fractions(min_value=-6, max_value=6, max_denominator=8).map(
    Cyclotomic.rational
)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(rational_weights, rational_values, rational_values), max_size=6))
def test_all_rational_kernel_path(terms):
    """Order-1 sums take the kernel's integer path; it must agree with
    the same sum taken over Fraction, in canonical form."""
    weights = [q for q, _, _ in terms]
    xs = [a for _, a, _ in terms]
    ys = [b for _, _, b in terms]
    plain = sum((Fraction(q) * a.coeffs[0] for q, a in zip(weights, xs)), Fraction(0))
    dot = sum(
        (Fraction(q) * a.coeffs[0] * b.coeffs[0] for q, a, b in zip(weights, xs, ys)),
        Fraction(0),
    )
    for got, want in (
        (cyclo_sum(xs, weights), plain),
        (cyclo_sum(xs, weights, ys), dot),
        (cyclo_sum(xs), sum((a.coeffs[0] for a in xs), Fraction(0))),
    ):
        expected = Cyclotomic.rational(want)
        assert (got.order, got.coeffs) == (expected.order, expected.coeffs)
        assert all(type(c) is Fraction for c in got.coeffs)


def test_all_rational_kernel_path_empty_and_zero_weights():
    assert cyclo_sum([]).coeffs == (Fraction(0),)
    assert cyclo_sum([], [], []).coeffs == (Fraction(0),)
    half = Cyclotomic.rational(Fraction(1, 2))
    got = cyclo_sum([half, half], [0, Fraction(0)], [half, half])
    assert (got.order, got.coeffs) == (1, (Fraction(0),))
    assert type(got.coeffs[0]) is Fraction
