"""Independent reference implementations, deliberately naive.

Oracles work directly on multiplication tables and raw value grids so
that agreement with the library is meaningful evidence.  The one
exception is ``superinduce_via_reciprocity``: it takes the package's
superclass functions and uses its inner product, but reaches the
superinduction by a different formula than ``superinduce``.
"""

from fractions import Fraction
from itertools import combinations


# -- raw group facts ----------------------------------------------------------


def is_associative(mul) -> bool:
    n = len(mul)
    return all(
        mul[mul[a][b]][c] == mul[a][mul[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def inverse_table(mul):
    n = len(mul)
    return [next(b for b in range(n) if mul[a][b] == 0) for a in range(n)]


def perm_cayley(perms):
    """Cayley table of permutations listed in table order: entry [i][j]
    is the position of p_i o p_j, (p o q)(x) = p(q(x)), composed directly."""
    position = {tuple(p): i for i, p in enumerate(perms)}
    return [
        [position[tuple(p[q[x]] for x in range(len(p)))] for q in perms]
        for p in perms
    ]


def perm_discovery_order(degree, gens):
    """The closure of gens in discovery order: breadth first from the
    identity, each element times each generator in sorted order."""
    gens = sorted(tuple(g) for g in gens)
    found = [tuple(range(degree))]
    i = 0
    while i < len(found):
        p = found[i]
        for g in gens:
            q = tuple(p[g[x]] for x in range(degree))
            if q not in found:
                found.append(q)
        i += 1
    return found


def raw_closure(mul, seed):
    out = set(seed) | {0}
    frontier = list(out)
    while frontier:
        x = frontier.pop()
        for y in list(out):
            for z in (mul[x][y], mul[y][x]):
                if z not in out:
                    out.add(z)
                    frontier.append(z)
    return frozenset(out)


def commutator_subgroup(mul):
    n = len(mul)
    inv = inverse_table(mul)
    gens = {
        mul[mul[x][y]][mul[inv[x]][inv[y]]] for x in range(n) for y in range(n)
    }
    return raw_closure(mul, gens)


def subgroups_by_subsets(mul):
    """Every subgroup, by testing all subsets containing the identity.

    Only viable for very small groups.
    """
    n = len(mul)
    inv = inverse_table(mul)
    found = set()
    rest = [g for g in range(1, n)]
    for r in range(n):
        for extra in combinations(rest, r):
            s = frozenset((0,) + extra)
            if all(mul[a][b] in s and inv[a] in s for a in s for b in s):
                found.add(s)
    return found


def subgroups_by_pairs(mul):
    """Closures of all pairs of elements: every subgroup of a group whose
    subgroups are all 2-generated (true for S4, A5 and dihedral groups)."""
    n = len(mul)
    found = {frozenset([0])}
    for a in range(n):
        for b in range(a, n):  # the pair (b, a) has the same closure
            found.add(raw_closure(mul, (a, b)))
    return found


# -- conjugacy and induction ---------------------------------------------------


def conjugacy_partition(mul):
    n = len(mul)
    inv = inverse_table(mul)
    seen = set()
    classes = []
    for g in range(n):
        if g in seen:
            continue
        orbit = {mul[mul[x][g]][inv[x]] for x in range(n)}
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    return classes


def centralizer_order(mul, g):
    """|C_G(g)|, by testing every h against g in the table."""
    return sum(1 for h in range(len(mul)) if mul[h][g] == mul[g][h])


def fused_classes(h_mul, g_mul, embedding):
    """For each conjugacy class of H (from ``h_mul``), the set of classes
    of G (from ``g_mul``) that its elements land in under ``embedding``,
    element by element; each set has one member when conjugates in H stay
    conjugate in G.  Returns {H-class: set of G-classes}, classes as
    sorted tuples of elements."""
    g_class = {g: c for c in conjugacy_partition(g_mul) for g in c}
    return {
        c: {g_class[embedding[x]] for x in c} for c in conjugacy_partition(h_mul)
    }


def element_sum_induction(mul, h_elements, f_on_h):
    """Ind f(g) = (1/|H|) sum over x in G of f0(x g x^-1), per element.

    ``f_on_h`` maps a parent-group element of H to its value; values must
    support + and scalar Fraction multiplication.
    """
    n = len(mul)
    inv = inverse_table(mul)
    out = []
    for g in range(n):
        acc = None
        for x in range(n):
            c = mul[mul[x][g]][inv[x]]
            if c in f_on_h:
                acc = f_on_h[c] if acc is None else acc + f_on_h[c]
        if acc is None:
            out.append(None)  # zero; caller compares with is_zero
        else:
            out.append(acc * Fraction(1, len(h_elements)))
    return out


# -- degree multisets ----------------------------------------------------------


def degree_multisets(order, n_classes, n_linear):
    """All nondecreasing degree tuples with sum of squares = |G| and
    exactly |G / [G,G]| ones."""
    out = []

    def rec(prefix, remaining, budget, lo):
        if remaining == 0:
            if budget == 0 and prefix.count(1) == n_linear:
                out.append(tuple(prefix))
            return
        d = lo
        while d * d * remaining <= budget:
            if d * d <= budget:
                prefix.append(d)
                rec(prefix, remaining - 1, budget - d * d, d)
                prefix.pop()
            d += 1

    rec([], n_classes, order, 1)
    return out


# -- naive double-partition theory enumeration ----------------------------------


def all_set_partitions(items):
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] | {first}] + part[i + 1 :]
        yield [{first}] + part


def naive_theory_count(n_elements, element_values, degrees):
    """Count supercharacter theories by unstructured double enumeration.

    ``element_values[i][g]`` is the value of the i-th irreducible row at
    element g.  No union-of-classes or size pruning: every set partition
    of the elements is paired with every row partition of matching size
    and checked directly against the definition.
    """
    n_rows = len(degrees)
    row_partitions = [
        [tuple(sorted(b)) for b in part]
        for part in all_set_partitions(range(n_rows))
    ]
    sigma_cache = {}

    def sigma(block):
        if block not in sigma_cache:
            sigma_cache[block] = [
                sum(
                    (Fraction(degrees[i]) * element_values[i][g] for i in block[1:]),
                    Fraction(degrees[block[0]]) * element_values[block[0]][g],
                )
                for g in range(n_elements)
            ]
        return sigma_cache[block]

    count = 0
    for kpart in all_set_partitions(range(n_elements)):
        if {0} not in kpart:
            continue
        for xpart in row_partitions:
            if len(xpart) != len(kpart):
                continue
            ok = True
            for xb in xpart:
                vals = sigma(xb)
                for kb in kpart:
                    it = iter(kb)
                    v0 = vals[next(it)]
                    if any(vals[g] != v0 for g in it):
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                count += 1
    return count


# -- subgroup-theory compatibility, element by element ---------------------------


def compatible_per_element(sub_blocks, big_blocks, embedding):
    """SCl_H(h) inside SCl_G(h), tested for each h in turn from the two
    element partitions alone; returns (ok, the first h that fails)."""
    big_of = {g: i for i, block in enumerate(big_blocks) for g in block}
    sub_block_of = {h: block for block in sub_blocks for h in block}
    for h in range(len(embedding)):
        if any(big_of[embedding[x]] != big_of[embedding[h]] for x in sub_block_of[h]):
            return False, h
    return True, None


# -- superinduction by Super Frobenius Reciprocity ------------------------------


def superinduce_via_reciprocity(phi, big_theory, embedding):
    """Reconstruct the superinduction from Super Frobenius Reciprocity:
    the sigma_X form an orthogonal basis of the superclass functions, so
    Sind phi = sum_X <phi, sigma_X|_H> / <sigma_X, sigma_X> * sigma_X."""
    from superchar import Cyclotomic, IncompatibleTheories, is_compatible
    from superchar.chartab import ClassFunction, inner_product
    from superchar.theories import SuperclassFunction

    ok, witness = is_compatible(phi.theory, big_theory, embedding)
    if not ok:
        raise IncompatibleTheories(
            f"superclass of element {witness} does not embed", witness=witness
        )
    h_classes = phi.fn.classes
    coeffs = []
    for sigma in big_theory.sigmas:
        sigma_h = ClassFunction(
            h_classes,
            tuple(sigma.at_element(embedding[c[0]]) for c in h_classes.classes),
        )
        coeffs.append(
            inner_product(phi.fn, sigma_h)
            * (Fraction(1) / inner_product(sigma, sigma).as_rational())
        )
    # the sum, class by class in plain Cyclotomic arithmetic
    values = []
    for ci in range(len(big_theory.classes)):
        v = Cyclotomic.rational(0)
        for coeff, sigma in zip(coeffs, big_theory.sigmas):
            v = v + coeff * sigma.values[ci]
        values.append(v)
    return SuperclassFunction(big_theory, ClassFunction(big_theory.classes, tuple(values)))


# -- cyclotomic fields as polynomials mod Phi_E ----------------------------------
#
# An element of Q(zeta_E) is a list of Fraction coefficients of a polynomial
# of degree < phi(E), reduced modulo Phi_E built here from the Moebius
# product; nothing is shared with superchar.cyclo.


def _mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _poly_rem(a, m):
    """Remainder of a modulo the monic polynomial m."""
    a = [Fraction(x) for x in a]
    deg = len(m) - 1
    for i in range(len(a) - 1, deg - 1, -1):
        q = a[i]
        if q:
            for j, c in enumerate(m):
                a[i - deg + j] -= q * c
    return (a + [Fraction(0)] * deg)[:deg]


def cyclotomic_poly(n):
    """Phi_n = prod over d | n of (x^d - 1)^mu(n/d), low degree first."""
    num, den = [1], [1]
    for d in range(1, n + 1):
        if n % d == 0:
            factor = [-1] + [0] * (d - 1) + [1]
            mu = _mobius(n // d)
            if mu == 1:
                num = _poly_mul(num, factor)
            elif mu == -1:
                den = _poly_mul(den, factor)
    # exact long division num / den (den is monic)
    num = list(num)
    quot = [0] * (len(num) - len(den) + 1)
    for i in range(len(quot) - 1, -1, -1):
        q = num[i + len(den) - 1]
        quot[i] = q
        for j, c in enumerate(den):
            num[i + j] -= q * c
    assert not any(num)
    return quot


def field_element(E, terms):
    """sum of q * zeta_E^k over the (k, q) in terms, reduced mod Phi_E."""
    full = [Fraction(0)] * E
    for k, q in terms:
        full[k % E] += Fraction(q)
    return _poly_rem(full, cyclotomic_poly(E))


def embed(E, order, coeffs):
    """A value given by power-basis coefficients in Q(zeta_order), order | E."""
    step = E // order
    return field_element(E, [(k * step, c) for k, c in enumerate(coeffs)])


def field_mul(E, a, b):
    return _poly_rem(_poly_mul(a, b), cyclotomic_poly(E))


def galois(E, a, s):
    """The automorphism zeta_E -> zeta_E^s applied to a."""
    return field_element(E, [(k * s, c) for k, c in enumerate(a)])


def conductor(E, a):
    """Smallest d | E with a in Q(zeta_d): a is fixed by every zeta_E ->
    zeta_E^s with s = 1 mod d (Galois correspondence)."""
    units = [s for s in range(1, E + 1) if _gcd(s, E) == 1]
    fixed = {s for s in units if galois(E, a, s) == a}
    return next(
        d for d in range(1, E + 1)
        if E % d == 0 and all(s in fixed for s in units if s % d == 1 % d)
    )


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a
