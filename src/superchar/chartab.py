"""Exact irreducible character tables and class-function arithmetic.

Tables are computed by Dixon's method: simultaneous eigenvectors of the
class-multiplication matrices over a prime field GF(p) with p = 1 mod
exponent(G), degrees recovered from column orthogonality, and values
lifted to exact cyclotomic numbers by counting eigenvalue multiplicities
through power maps.

Every sum of class functions is one ``linear_combination``: one
``cyclo_sum`` per class, as is an inner product.  Restriction and induction
from H <= G read one map, ``class_fusion``; induction is one per class of G.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt
from operator import mul
from typing import Dict, List, Optional, Sequence, Tuple

from .cyclo import ONE, ZERO, Cyclotomic, cyclo_sum
from .errors import GroupMismatch, NotACharacter, NotASubgroup, PrimeRejected
from .groups import ConjugacyClasses, FiniteGroup, Subgroup, conjugacy_classes


@dataclass(frozen=True)
class ClassFunction:
    classes: ConjugacyClasses
    values: Tuple[Cyclotomic, ...]

    def __post_init__(self):
        assert len(self.values) == len(self.classes)

    @property
    def group(self) -> FiniteGroup:
        return self.classes.group

    def at_element(self, g: int) -> Cyclotomic:
        return self.values[self.classes.class_of[g]]

    @property
    def degree_value(self) -> Cyclotomic:
        return self.values[0]


def linear_combination(coeffs: Sequence, fns: Sequence[ClassFunction]) -> ClassFunction:
    """sum_i coeffs[i] * fns[i], one ``cyclo_sum`` per class.

    Coefficients are ints or Fractions; every function must live on the
    same conjugacy classes, and there must be one coefficient per function.
    """
    if not fns or len(coeffs) != len(fns):
        raise ValueError(f"{len(coeffs)} coefficients for {len(fns)} class functions")
    classes = fns[0].classes
    if any(f.classes != classes for f in fns):
        raise GroupMismatch("class functions live on different groups")
    if len(fns) == 1 and coeffs[0] == 1:
        return fns[0]  # values are canonical already
    columns = zip(*(f.values for f in fns))
    return ClassFunction(classes, tuple(cyclo_sum(col, coeffs) for col in columns))


def trivial_character(classes: ConjugacyClasses) -> ClassFunction:
    return ClassFunction(classes, (ONE,) * len(classes))


def regular_character(classes: ConjugacyClasses) -> ClassFunction:
    values = [ZERO] * len(classes)
    values[0] = Cyclotomic.rational(classes.group.order)
    return ClassFunction(classes, tuple(values))


def inner_product(f: ClassFunction, h: ClassFunction) -> Cyclotomic:
    """Hermitian inner product (1/|G|) sum_g f(g) conj(h(g)), classwise."""
    if f.classes != h.classes:
        raise GroupMismatch("inner product requires class functions on one group")
    return cyclo_sum(f.values, f.classes.weights, h.values)


# -- class multiplication coefficients --------------------------------------


@lru_cache(maxsize=None)
def class_mult_coeffs(G: FiniteGroup) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """a[i][j][k] = #{(x,y) in C_i x C_j : xy = z} for a fixed z in C_k.

    Computed for the minimal representative of each class and asserted
    equal to the count at the maximal representative.
    """
    cls = conjugacy_classes(G)
    r = len(cls)

    def counts_for(rep_pick) -> List[List[List[int]]]:
        a = [[[0] * r for _ in range(r)] for _ in range(r)]
        for k in range(r):
            z = rep_pick(cls.classes[k])
            for x in range(G.order):
                y = G.mul[G.inv[x]][z]
                a[cls.class_of[x]][cls.class_of[y]][k] += 1
        return a

    a_min = counts_for(min)
    assert a_min == counts_for(max), "class multiplication depends on representative"
    sizes = cls.sizes
    for i in range(r):
        for j in range(r):
            total = sum(a_min[i][j][k] * sizes[k] for k in range(r))
            assert total == sizes[i] * sizes[j]
    return tuple(tuple(tuple(row) for row in plane) for plane in a_min)


# -- small GF(p) linear algebra ----------------------------------------------


def _row_reduce_mod_p(rows: List[List[int]], ncols: int, p: int) -> List[int]:
    """Reduce ``rows`` in place to reduced row echelon form mod p, pivoting
    only on the first ``ncols`` columns; return the pivot columns, pivot
    k in row k.  Later columns are carried along as right-hand sides."""
    pivots: List[int] = []
    for col in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if rows[i][col] % p), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = pow(rows[r][col], -1, p)
        rows[r] = [(x * inv) % p for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][col] % p
            if i != r and f:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        pivots.append(col)
    return pivots


def _mat_vec(mat: Sequence[Sequence[int]], vec: Sequence[int], p: int) -> List[int]:
    return [sum(m * v for m, v in zip(row, vec)) % p for row in mat]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def _dixon_prime(order: int, exponent: int, prime: Optional[int]) -> int:
    """Smallest prime p = 1 mod exponent with p^2 > 4|G| (or validate one)."""
    if prime is not None:
        if not _is_prime(prime):
            raise PrimeRejected(f"{prime} is not prime")
        if prime % exponent != 1 % exponent:
            raise PrimeRejected(f"{prime} is not 1 mod exponent {exponent}")
        if prime * prime <= 4 * order:
            raise PrimeRejected(f"{prime} is not greater than 2*sqrt({order})")
        return prime
    p = max(2 * isqrt(order) + 1, exponent + 1)
    while True:
        if p % exponent == 1 % exponent and p * p > 4 * order and _is_prime(p):
            return p
        p += 1


def _primitive_root_of_unity(p: int, e: int) -> int:
    """An element of exact multiplicative order e in GF(p)* (e | p-1)."""
    if e == 1:
        return 1
    factors = set()
    m = p - 1
    d = 2
    while d * d <= m:
        if m % d == 0:
            factors.add(d)
            while m % d == 0:
                m //= d
        d += 1
    if m > 1:
        factors.add(m)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            z = pow(g, (p - 1) // e, p)
            assert pow(z, e, p) == 1
            return z
    raise AssertionError("no primitive root found")


# -- the character table ------------------------------------------------------


@dataclass(frozen=True)
class CharacterTable:
    classes: ConjugacyClasses
    rows: Tuple[ClassFunction, ...]
    degrees: Tuple[int, ...]

    @property
    def group(self) -> FiniteGroup:
        return self.classes.group

    def __len__(self):
        return len(self.rows)


def _canonical_rows(classes: ConjugacyClasses, rows: List[ClassFunction]) -> CharacterTable:
    trivial = trivial_character(classes)

    def key(row: ClassFunction):
        deg = row.degree_value.as_rational()
        return (deg, 0 if row == trivial else 1, tuple(v.sort_key() for v in row.values))

    rows = sorted(rows, key=key)
    degrees = []
    for row in rows:
        d = row.degree_value.as_rational()
        assert d is not None and d.denominator == 1 and d > 0
        degrees.append(int(d))
    table = CharacterTable(classes, tuple(rows), tuple(degrees))
    assert table.rows[0] == trivial, "trivial character must be row 0"
    return table


def dixon_character_table(
    G: FiniteGroup, prime: Optional[int] = None, seed: int = 0
) -> CharacterTable:
    """Exact character table of G via Dixon's method.

    Splitting the whole space by M_1, ..., M_{r-1} in turn always ends in
    lines.  p = 1 mod e with e = exponent(G), so p does not divide e, nor
    |G| (every prime factor of |G| divides e).  The centre of GF(p)G is
    then semisimple (Maschke) and split (e | p - 1, Brauer), so its r
    central characters are distinct mod p and the class sums separate
    them.  The split is deterministic: ``seed`` is accepted for callers
    that pass one and has no effect.
    """
    cls = conjugacy_classes(G)
    r = len(cls)
    n = G.order
    e = G.exponent
    p = _dixon_prime(n, e, prime)
    a = class_mult_coeffs(G)
    # (M_i)[j][k] = a[i][j][k]: the omega vector is a common eigenvector
    mats = [[[a[i][j][k] % p for k in range(r)] for j in range(r)] for i in range(r)]

    def split(space: List[List[int]], mat: List[List[int]]) -> List[List[List[int]]]:
        d = len(space)
        if d == 1:
            return [space]
        # restricted[i][k]: coordinates of mat . space[k] in the basis
        # space, all d right-hand sides solved in one reduction
        images = [_mat_vec(mat, v, p) for v in space]
        aug = [[v[i] for v in space] + [w[i] for w in images] for i in range(r)]
        assert _row_reduce_mod_p(aug, d, p) == list(range(d)), "basis not independent mod p"
        restricted = [row[d:] for row in aug[:d]]
        for k, w in enumerate(images):
            for i in range(r):
                assert sum(space[j][i] * restricted[j][k] for j in range(d)) % p == w[i]
        pieces: List[List[List[int]]] = []
        covered = 0
        for lam in range(p):
            shifted = [
                [(restricted[i][j] - (lam if i == j else 0)) % p for j in range(d)]
                for i in range(d)
            ]
            pivots = _row_reduce_mod_p(shifted, d, p)
            ker = []  # one kernel vector per free column
            for free in (c for c in range(d) if c not in pivots):
                vec = [0] * d
                vec[free] = 1
                for row, pc in enumerate(pivots):
                    vec[pc] = (-shifted[row][free]) % p
                ker.append(vec)
            if ker:
                vecs = [
                    [sum(k[j] * space[j][i] for j in range(d)) % p for i in range(r)]
                    for k in ker
                ]
                pieces.append(vecs)
                covered += len(ker)
                if covered == d:
                    break
        assert covered == d, "class matrix not diagonalizable mod p"
        return pieces

    spaces: List[List[List[int]]] = [[[1 if i == j else 0 for i in range(r)] for j in range(r)]]
    for i in range(1, r):
        spaces = [piece for sp in spaces for piece in split(sp, mats[i])]
        if all(len(sp) == 1 for sp in spaces):
            break
    assert all(len(sp) == 1 for sp in spaces), "common eigenspaces are not lines"

    sizes = cls.sizes
    inv_sizes = [pow(s, -1, p) for s in sizes]
    jstar = [cls.class_of[G.inv[cls.representatives[j]]] for j in range(r)]
    rows: List[ClassFunction] = []
    z = _primitive_root_of_unity(p, e)
    z_pow = [pow(z, k, p) for k in range(e)]
    # g of order o has eigenvalues z^t with (e/o) | t, of multiplicity
    # m_t = (1/o) sum_{s<o} chi(g^s) z^(-s t); every other m_t is zero.
    # power_class[j]: the classes of g^0, ..., g^(o-1), g = representative j
    power_class: List[List[int]] = []
    for g in cls.representatives:
        x, seq = g, [cls.class_of[0]]
        while x != 0:
            seq.append(cls.class_of[x])
            x = G.mul[x][g]
        power_class.append(seq)
    # dft[o]: the pairs (t, [z^(-s t) for s < o]) over the t that (e/o) divides
    dft: Dict[int, List[Tuple[int, List[int]]]] = {}
    for o in {len(seq) for seq in power_class}:
        dft[o] = [
            (t, [z_pow[(-s_ * t) % e] for s_ in range(o)]) for t in range(0, e, e // o)
        ]
    inv_order = {o: pow(o, -1, p) for o in dft}

    for sp in spaces:
        v = sp[0]
        assert v[0] % p != 0, "eigenvector has zero identity coordinate"
        scale = pow(v[0], -1, p)
        w = [(x * scale) % p for x in v]
        s = sum(w[j] * w[jstar[j]] * inv_sizes[j] for j in range(r)) % p
        d2 = (n * pow(s, -1, p)) % p
        deg = next(t for t in range(1, p // 2 + 1) if (t * t) % p == d2)
        chi_mod = [(deg * w[j] * inv_sizes[j]) % p for j in range(r)]
        values = []
        for seq in power_class:
            powers = [chi_mod[c] for c in seq]
            inv_o = inv_order[len(seq)]
            terms: Dict[int, Fraction] = {}
            for t, row in dft[len(seq)]:
                m_t = (sum(map(mul, powers, row)) * inv_o) % p
                assert m_t <= deg, "eigenvalue multiplicity exceeds degree"
                if m_t:
                    terms[t] = Fraction(m_t)
            values.append(Cyclotomic.from_terms(e, terms))
        rows.append(ClassFunction(cls, tuple(values)))

    table = _canonical_rows(cls, rows)
    assert sum(d * d for d in table.degrees) == n
    report = verify_orthogonality(table)
    assert report.ok, f"computed table fails orthogonality: {report.violations}"
    return table


@dataclass
class OrthogonalityReport:
    ok: bool
    violations: List[dict]


def verify_orthogonality(table: CharacterTable) -> OrthogonalityReport:
    """Exact first and second orthogonality relations."""
    violations: List[dict] = []
    rows = table.rows
    cls = table.classes
    n = table.group.order
    for i in range(len(rows)):
        for j in range(i, len(rows)):
            got = inner_product(rows[i], rows[j])
            want = ONE if i == j else ZERO
            if got != want:
                violations.append(
                    {"kind": "row", "i": i, "j": j, "value": str(got)}
                )
    columns = [[row.values[gi] for row in rows] for gi in range(len(cls))]
    for gi in range(len(cls)):
        for gj in range(len(cls)):
            got = cyclo_sum(columns[gi], conj_factors=columns[gj])
            want = (
                Cyclotomic.rational(Fraction(n, cls.sizes[gi])) if gi == gj else ZERO
            )
            if got != want:
                violations.append(
                    {"kind": "column", "i": gi, "j": gj, "value": str(got)}
                )
    return OrthogonalityReport(not violations, violations)


# -- restriction, induction, decomposition -----------------------------------


def class_fusion(classes: ConjugacyClasses, into: ConjugacyClasses, embedding: Sequence[int]) -> List[int]:
    """The class of ``into`` that holds each class of ``classes``, whose
    group ``embedding`` maps into the group of ``into``.  Conjugates in the
    subgroup are conjugate in the group, so one representative decides."""
    return [into.class_of[embedding[g]] for g in classes.representatives]


def pull_back(f: ClassFunction, classes: ConjugacyClasses, embedding: Sequence[int]) -> ClassFunction:
    """f composed with ``embedding``, a map from the elements of the group
    of ``classes`` into f's group, read through the class fusion."""
    return ClassFunction(classes, tuple(f.values[c] for c in class_fusion(classes, f.classes, embedding)))


def restrict(f: ClassFunction, H: Subgroup) -> ClassFunction:
    """Pull back a class function on the parent group to H."""
    if H.parent != f.group:
        raise NotASubgroup("subgroup does not live in the function's group")
    return pull_back(f, conjugacy_classes(H.local), H.elements)


def induce_to_blocks(
    f: ClassFunction, into: ConjugacyClasses, embedding: Sequence[int], blocks: Sequence[Sequence[int]]
) -> Tuple[Cyclotomic, ...]:
    """|G| / (|H| |B|) * sum over B intersect H of f, for f on H, ``embedding``
    from H into G and each block B of classes of ``into`` (|B| elements): one
    ``cyclo_sum`` over the classes c of H fusing into B, weights |G| |c| / (|H| |B|)."""
    block_of = {c: b for b, block in enumerate(blocks) for c in block}
    fused: List[List[int]] = [[] for _ in blocks]
    for c, target in enumerate(class_fusion(f.classes, into, embedding)):
        fused[block_of[target]].append(c)
    scale = Fraction(into.group.order, f.group.order)
    values = []
    for block, cs in zip(blocks, fused):
        size = sum(into.sizes[c] for c in block)
        values.append(cyclo_sum([f.values[c] for c in cs], [scale * f.classes.sizes[c] / size for c in cs]))
    return tuple(values)


def induce(f: ClassFunction, H: Subgroup) -> ClassFunction:
    """Classical induction from H to its parent, classwise:
    Ind f(g) = |G| / (|H| |Cl(g)|) * sum over Cl(g) intersect H of f."""
    if f.group != H.local:
        raise NotASubgroup("function does not live on the subgroup")
    gcls = conjugacy_classes(H.parent)
    return ClassFunction(gcls, induce_to_blocks(f, gcls, H.elements, [(c,) for c in range(len(gcls))]))


def decompose(f: ClassFunction, table: CharacterTable) -> Tuple[Cyclotomic, ...]:
    """Multiplicity <f, chi_i> for each irreducible row."""
    return tuple(inner_product(f, row) for row in table.rows)


def character_multiplicities(f: ClassFunction, table: CharacterTable) -> Tuple[int, ...]:
    """Decompose a genuine character; NotACharacter if any multiplicity is
    not a nonnegative integer."""
    mults = decompose(f, table)
    out = []
    for i, m in enumerate(mults):
        if not m.is_nonnegative_integer():
            raise NotACharacter(
                f"multiplicity of irreducible {i} is {m}, not a nonnegative integer"
            )
        out.append(int(m.as_rational()))
    return tuple(out)


def has_only_linear_constituents(f: ClassFunction, table: CharacterTable) -> bool:
    """True iff f is a nonnegative-integer combination of degree-1 rows."""
    for i, m in enumerate(decompose(f, table)):
        if not m.is_nonnegative_integer():
            return False
        if not m.is_zero() and table.degrees[i] != 1:
            return False
    return True
