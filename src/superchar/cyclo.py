"""Exact cyclotomic arithmetic.

A ``Cyclotomic`` is an element of Q(zeta_e) in canonical form: ``order``
is the smallest e whose field contains the value (its conductor, 1 for a
rational number) and ``coeffs`` are its ``Fraction`` coordinates in the
power basis 1, z, ..., z^(phi(e)-1) modulo the e-th cyclotomic
polynomial.  Every public value is canonical, so equality and hashing are
plain comparisons of (order, coeffs).  There is no floating point
anywhere.

Canonicalization happens once per result, not once per operation.  Every
operator and every sum of products (``cyclo_sum``) runs through one
kernel, ``_accumulate``: it adds the whole expression into a single
vector of integer numerators of zeta_E^k, k < E, over one common
denominator, E the lcm of the orders involved, and then canonicalizes
the total.  Canonicalization (``_canonical``) rewrites that vector in a
Zumbroich basis of Q(zeta_E) (T. Breuer, "Integral bases for subfields
of cyclotomic fields", AAECC 1997), where membership in each maximal
subfield Q(zeta_{E/p}) is a pattern of equal or vanishing coefficients,
descends to the conductor, and reduces there modulo its cyclotomic
polynomial.  An all-rational sum (E = 1) is one integer numerator over
one denominator, a canonical ``Fraction`` as it stands.  Scaling by a
nonzero rational and negation keep a value canonical and skip the kernel.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import gcd, lcm
from typing import Dict, Iterable, List, Optional, Tuple


def divisors(e: int) -> List[int]:
    small, large = [], []
    d = 1
    while d * d <= e:
        if e % d == 0:
            small.append(d)
            if d != e // d:
                large.append(e // d)
        d += 1
    return small + large[::-1]


@lru_cache(maxsize=None)
def _prime_powers(n: int) -> Tuple[Tuple[int, int], ...]:
    """(p, p^nu) for every prime power p^nu exactly dividing n, p ascending."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            q = 1
            while n % p == 0:
                n //= p
                q *= p
            out.append((p, q))
        p += 1
    if n > 1:
        out.append((n, n))
    return tuple(out)


def _poly_exact_div(num: List[int], den: Tuple[int, ...]) -> List[int]:
    """Exact division of integer polynomials (coefficients low to high)."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    quot = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        if c == 0:
            continue
        assert c % lead == 0
        q = c // lead
        quot[i - dd] = q
        for j, dc in enumerate(den):
            num[i - dd + j] -= q * dc
    assert all(c == 0 for c in num)
    return quot


@lru_cache(maxsize=None)
def cyclotomic_polynomial(e: int) -> Tuple[int, ...]:
    """Integer coefficients of Phi_e, low degree first, monic."""
    if e < 1:
        raise ValueError("order must be positive")
    if e == 1:
        return (-1, 1)
    poly = [0] * (e + 1)
    poly[0], poly[e] = -1, 1  # x^e - 1
    for d in divisors(e):
        if d < e:
            poly = _poly_exact_div(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _reduce_mod_phi(e: int, vec: List[int]) -> List[int]:
    """Power-basis coordinates of sum_k vec[k] zeta_e^k (Phi_e is monic,
    so integer numerators stay integers)."""
    phi = cyclotomic_polynomial(e)
    deg = len(phi) - 1
    terms = [(j, a) for j, a in enumerate(phi[:deg]) if a]
    c = list(vec)
    for i in range(len(c) - 1, deg - 1, -1):
        q = c[i]
        if q:
            base = i - deg
            for j, a in terms:
                c[base + j] -= q * a
    return c[:deg]


# -- the Zumbroich basis ------------------------------------------------------
#
# For n = prod p^nu, zeta_n^k is in the basis iff for every p the top base-p
# digit of k (n/p^nu)^-1 mod p^nu is nonzero (zero for p = 2).  This is the
# tensor product, over p, of zeta_p^j (j = 1..p-1; j = 0 for p = 2) with the
# power bases of Q(zeta_{p^(i+1)}) over Q(zeta_{p^i}); Breuer's Zumbroich
# basis takes balanced lower digits instead, and the pattern below is the
# same for both.  The basis restricts to every subfield Q(zeta_{n/p}):
#   p^2 | n or p = 2: the value lies in Q(zeta_{n/p}) iff its coordinates
#     vanish off the exponents divisible by p; k/p are then its exponents;
#   p || n, p odd: Q(zeta_n) = Q(zeta_{n/p})(zeta_p) with relative basis
#     zeta_p^j, j = 1..p-1, and 1 = -(zeta_p + ... + zeta_p^(p-1)); the value
#     lies in Q(zeta_{n/p}) iff its coordinates are equal along each
#     j-group, and minus that common coordinate is its coordinate there.


@lru_cache(maxsize=None)
def _zumbroich_moves(n: int) -> Tuple[Tuple[int, Tuple[int, ...]], ...]:
    """Rewriting rules that take any vector of zeta_n^k coefficients into the
    Zumbroich basis: (k, ts) replaces zeta_n^k by -sum_{t in ts} zeta_n^t.

    Rules run prime by prime.  Adding n/p to k raises only the top digit of
    its p-component, so sum_{i<p} zeta_n^(k + i n/p) = 0 moves a coordinate
    off a bad exponent onto good ones for p and leaves every other prime's
    digits, and so their verdicts, as they were.
    """
    moves = []
    for p, q in _prime_powers(n):
        top = q // p
        u_inv = pow(n // q, -1, q)
        step = n // p
        bad = 1 if p == 2 else 0
        for k in range(n):
            if k * u_inv % q // top == bad:
                moves.append((k, tuple((k + i * step) % n for i in range(1, p))))
    return tuple(moves)


@lru_cache(maxsize=None)
def _descent_groups(n: int, p: int) -> Tuple[Tuple[int, ...], ...]:
    """For p || n, p odd: the exponents p k + (n/p) j, j = 1..p-1, of
    zeta_{n/p}^k zeta_p^j, for every k < n/p."""
    m = n // p
    return tuple(tuple((p * k + m * j) % n for j in range(1, p)) for k in range(m))


def _descend(n: int, vec: List[int]) -> Tuple[int, List[int]]:
    """Conductor of the value with Zumbroich coordinates ``vec`` in
    Q(zeta_n), and its Zumbroich coordinates there.

    The subfields of Q(zeta_n) containing the value are closed under
    intersection, Q(zeta_a) and Q(zeta_b) meeting in Q(zeta_gcd(a, b)), so
    stepping down to any maximal subfield that contains it ends at the
    smallest one.
    """
    while n > 1:
        for p, q in _prime_powers(n):
            if q > p or p == 2:
                if not any(any(vec[r::p]) for r in range(1, p)):
                    vec, n = vec[::p], n // p
                    break
            else:
                groups = _descent_groups(n, p)
                if all(vec[t] == vec[g[0]] for g in groups for t in g):
                    vec, n = [-vec[g[0]] for g in groups], n // p
                    break
        else:
            break
    return n, vec


def _canonical(e: int, vec: List[int], den: int) -> "Cyclotomic":
    """The canonical value of sum_k vec[k] zeta_e^k / den; consumes ``vec``."""
    if e > 1:
        for k, targets in _zumbroich_moves(e):
            c = vec[k]
            if c:
                vec[k] = 0
                for t in targets:
                    vec[t] -= c
        e, vec = _descend(e, vec)
        if e > 1:
            vec = _reduce_mod_phi(e, vec)
    g = gcd(den, *vec)
    if g != 1:
        den //= g
        vec = [c // g for c in vec]
    if den == 1:
        return Cyclotomic(e, tuple(map(Fraction, vec)))
    return Cyclotomic(e, tuple(Fraction(c, den) for c in vec))


def _accumulate(terms: Iterable[Tuple], conj: bool) -> "Cyclotomic":
    """The kernel: sum of q * a * b' over the (q, a, b) in ``terms``, with
    b' = conj(b) if ``conj`` else b, and b = None read as 1.

    q is an int or Fraction.  Every product lands in one vector of E
    integers over one common denominator, E the lcm of all orders, and the
    total is canonicalized once (an all-rational sum needs no vector).
    """
    terms = list(terms)
    e = 1
    for _, a, b in terms:
        e = lcm(e, a.order) if b is None else lcm(e, a.order, b.order)
    if e == 1:
        return _accumulate_rational(terms)
    vec = [0] * e
    den = 1
    for q, a, b in terms:
        if not q:
            continue
        ad, a_terms = a._int_form()
        if not a_terms:
            continue
        d = q.denominator * ad
        if b is not None:
            bd, b_terms = b._int_form()
            if not b_terms:
                continue
            d *= bd
        if den % d:
            scale = d // gcd(den, d)
            vec = [c * scale for c in vec]
            den *= scale
        f = q.numerator * (den // d)
        sa = e // a.order
        if b is None:
            for k, c in a_terms:
                vec[k * sa] += f * c
            continue
        sb = -(e // b.order) if conj else e // b.order
        for ka, ca in a_terms:
            base, fa = ka * sa, f * ca
            for kb, cb in b_terms:
                vec[(base + kb * sb) % e] += fa * cb
    return _canonical(e, vec, den)


def _accumulate_rational(terms: List[Tuple]) -> "Cyclotomic":
    """``_accumulate`` when every value is rational, where conj is the
    identity: sum of q * a * b as one integer over one common denominator."""
    num, den = 0, 1
    for q, a, b in terms:
        x = a.coeffs[0]
        n, d = q.numerator * x.numerator, q.denominator * x.denominator
        if b is not None:
            y = b.coeffs[0]
            n, d = n * y.numerator, d * y.denominator
        if not n:
            continue
        if den % d:
            scale = d // gcd(den, d)
            num, den = num * scale, den * scale
        num += n * (den // d)
    return Cyclotomic(1, (Fraction(num, den),))


class Cyclotomic:
    """An element of Q(zeta_order), canonical and immutable."""

    __slots__ = ("order", "coeffs", "_ints")

    def __init__(self, order: int, coeffs: Tuple[Fraction, ...]):
        # internal: callers must pass an already-canonical representation
        self.order = order
        self.coeffs = coeffs
        self._ints = None

    def _int_form(self) -> Tuple[int, Tuple[Tuple[int, int], ...]]:
        """The nonzero coefficients as integer numerators over one common
        denominator: (den, ((k, numerator), ...)).  Kept for irrational
        values, which are few and reused; rationals are many and cheap."""
        if self.order == 1:
            c = self.coeffs[0]
            return c.denominator, (((0, c.numerator),) if c else ())
        if self._ints is None:
            den = lcm(*(c.denominator for c in self.coeffs))
            self._ints = (
                den,
                tuple(
                    (k, c.numerator * (den // c.denominator))
                    for k, c in enumerate(self.coeffs)
                    if c
                ),
            )
        return self._ints

    # -- construction ---------------------------------------------------

    @staticmethod
    def rational(q) -> "Cyclotomic":
        return Cyclotomic(1, (Fraction(q),))

    @staticmethod
    def from_terms(e: int, terms: Dict[int, Fraction]) -> "Cyclotomic":
        """Build from a sum of q * zeta_e^k terms (exponents folded mod e)."""
        if e < 1:
            raise ValueError("order must be positive")
        den = lcm(*(Fraction(q).denominator for q in terms.values()))
        vec = [0] * e
        for k, q in terms.items():
            q = Fraction(q)
            vec[k % e] += q.numerator * (den // q.denominator)
        return _canonical(e, vec, den)

    # -- queries ---------------------------------------------------------

    def as_rational(self) -> Optional[Fraction]:
        return self.coeffs[0] if self.order == 1 else None

    def is_zero(self) -> bool:
        return self.order == 1 and self.coeffs[0] == 0

    def is_nonnegative_integer(self) -> bool:
        q = self.as_rational()
        return q is not None and q.denominator == 1 and q >= 0

    def is_integer(self) -> bool:
        q = self.as_rational()
        return q is not None and q.denominator == 1

    def embed_terms(self, order: int) -> Dict[int, Fraction]:
        """Power-basis terms of this value viewed inside Q(zeta_order)."""
        if order % self.order != 0:
            raise ValueError(f"order {order} does not extend {self.order}")
        step = order // self.order
        return {i * step: c for i, c in enumerate(self.coeffs) if c}

    # -- arithmetic -------------------------------------------------------

    @staticmethod
    def _coerce(x) -> "Cyclotomic":
        if isinstance(x, Cyclotomic):
            return x
        if isinstance(x, (int, Fraction)):
            return Cyclotomic.rational(x)
        return NotImplemented  # type: ignore[return-value]

    def __add__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1 and other.order == 1:
            return Cyclotomic(1, (self.coeffs[0] + other.coeffs[0],))
        return _accumulate(((1, self, None), (1, other, None)), conj=False)

    __radd__ = __add__

    def __neg__(self):
        return Cyclotomic(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.order == 1:
            return other._scale(self.coeffs[0])
        if other.order == 1:
            return self._scale(other.coeffs[0])
        return _accumulate(((1, self, other),), conj=False)

    __rmul__ = __mul__

    def _scale(self, q: Fraction) -> "Cyclotomic":
        if q == 0:
            return Cyclotomic.rational(0)
        return Cyclotomic(self.order, tuple(c * q for c in self.coeffs))

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scale(1 / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not supported")
        result = Cyclotomic.rational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "Cyclotomic":
        """The Galois map zeta -> zeta^(-1) (complex conjugation)."""
        if self.order == 1:
            return self
        return _accumulate(((1, ONE, self),), conj=True)

    # -- ordering, hashing, display ----------------------------------------

    def __eq__(self, other):
        other = Cyclotomic._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def sort_key(self):
        """Fixed total order: by order, then by coefficient vector."""
        return (self.order, tuple((c.numerator, c.denominator) for c in self.coeffs))

    def __str__(self):
        if self.order == 1:
            return str(self.coeffs[0])
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            mono = f"z{self.order}" if k == 1 else f"z{self.order}^{k}" if k else ""
            if k == 0:
                term = str(c)
            elif c == 1:
                term = mono
            elif c == -1:
                term = f"-{mono}"
            else:
                term = f"{c}*{mono}"
            parts.append(term)
        out = parts[0]
        for term in parts[1:]:
            out += f" - {term[1:]}" if term.startswith("-") else f" + {term}"
        return out

    def __repr__(self):
        return f"Cyclotomic({self.order}, {self.coeffs})"


ZERO = Cyclotomic.rational(0)
ONE = Cyclotomic.rational(1)


def zeta(e: int, k: int = 1) -> Cyclotomic:
    """The root of unity zeta_e^k."""
    if e < 1:
        raise ValueError("order must be positive")
    return Cyclotomic.from_terms(e, {k % e: Fraction(1)})


def cyclo_sum(
    values: Iterable[Cyclotomic],
    weights: Optional[Iterable] = None,
    conj_factors: Optional[Iterable[Cyclotomic]] = None,
) -> Cyclotomic:
    """sum_i weights[i] * values[i] * conj(conj_factors[i]), with one
    canonicalization for the whole sum.  Weights are ints or Fractions and
    default to 1; without ``conj_factors`` the sum is of weights[i] * values[i]."""
    weights = repeat(1) if weights is None else weights
    if conj_factors is None:
        return _accumulate(zip(weights, values, repeat(None)), conj=False)
    return _accumulate(zip(weights, values, conj_factors), conj=True)
