"""Finite groups as explicit Cayley tables.

Elements are the indices 0..n-1 and the identity is always element 0.
Conjugacy classes and subgroups come in a canonical deterministic order
so that downstream block identifiers and file formats are stable.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import lcm
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .errors import IdentityNotZero, NotAGroup, NotASubgroup, OrderCapExceeded

DEFAULT_MAX_ORDER = 200
DEFAULT_SUBGROUP_CAP = 5000


@dataclass(frozen=True)
class FiniteGroup:
    name: str
    order: int
    mul: Tuple[Tuple[int, ...], ...]
    inv: Tuple[int, ...]
    exponent: int

    identity = 0

    def m(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def inverse(self, a: int) -> int:
        return self.inv[a]

    def conjugate(self, g: int, h: int) -> int:
        """h g h^-1."""
        return self.mul[self.mul[h][g]][self.inv[h]]

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"

    # every lru_cache hit keyed on a group hashes it: hash the table once
    @cached_property
    def _hash(self) -> int:
        return hash((self.name, self.order, self.mul, self.inv, self.exponent))

    def __hash__(self):
        return self._hash


def element_order(G: FiniteGroup, g: int) -> int:
    k, x = 1, g
    while x != 0:
        x = G.mul[x][g]
        k += 1
    return k


def group_from_cayley(table: Sequence[Sequence[int]], name: str = "G") -> FiniteGroup:
    """Validate a Cayley table and build the group.

    Checks totality, that element 0 is a two-sided identity, existence of
    two-sided inverses, and associativity (``_check_associative``).
    """
    n = len(table)
    if n == 0:
        raise NotAGroup("empty table")
    mul = tuple(tuple(row) for row in table)
    for a, row in enumerate(mul):
        if len(row) != n:
            raise NotAGroup(f"row {a} has length {len(row)}, expected {n}")
        if min(row) < 0 or max(row) >= n:
            b, v = next((b, v) for b, v in enumerate(row) if not 0 <= v < n)
            raise NotAGroup(f"entry mul[{a}][{b}] = {v} out of range")
    ident = tuple(range(n))
    if mul[0] != ident or tuple(row[0] for row in mul) != ident:
        raise IdentityNotZero()
    inv = []
    for a in range(n):
        try:
            b = mul[a].index(0)
        except ValueError:
            raise NotAGroup(f"element {a} has no right inverse") from None
        if mul[b][a] != 0:
            raise NotAGroup(f"inverse of {a} is not two-sided")
        inv.append(b)
    _check_associative(mul)
    exponent = 1
    group = FiniteGroup(name, n, mul, tuple(inv), 1)
    for g in range(n):
        exponent = lcm(exponent, element_order(group, g))
    return FiniteGroup(name, n, mul, tuple(inv), exponent)


def _check_associative(mul: Tuple[Tuple[int, ...], ...]) -> None:
    """Light's associativity test over a generating set S.

    The elements b with (ab)c = a(bc) for all a, c contain the identity
    and are closed under products, so once every b in S passes, so does
    every product of them (Clifford & Preston, *The Algebraic Theory of
    Semigroups* I, 1961, §1.2).  S is picked greedily: the least element
    not yet reached from the identity by products of S.  In a group each
    pick at least doubles the reached subgroup, so |S| <= log2(n) and the
    test costs O(n^2 log n).  A failure names a failing triple (a, b, c).
    """
    n = len(mul)
    reached = [False] * n
    reached[0] = True
    walk = [0]  # the reached elements, breadth first
    gens: List[int] = []
    for b in range(1, n):
        if reached[b]:
            continue
        row_b = mul[b]
        for a, row_a in enumerate(mul):
            row_ab = mul[row_a[b]]
            if row_ab != tuple(map(row_a.__getitem__, row_b)):
                c = next(c for c in range(n) if row_ab[c] != row_a[row_b[c]])
                raise NotAGroup(f"associativity fails at ({a},{b},{c})")
        gens.append(b)
        for x in walk:  # visits the elements appended below too
            row_x = mul[x]
            for g in gens:
                y = row_x[g]
                if not reached[y]:
                    reached[y] = True
                    walk.append(y)


def _compose(p: Tuple[int, ...], q: Tuple[int, ...]) -> Tuple[int, ...]:
    """(p * q)(x) = p(q(x))."""
    return tuple(p[q[x]] for x in range(len(p)))


def _perm_cayley(perms: Sequence[Tuple[int, ...]]) -> Tuple[Tuple[int, ...], ...]:
    """Cayley table of a group of permutations listed in table order,
    identity first.

    Generators g are picked greedily (the least element not yet reached)
    and g*x is composed once for every x.  Row a = g*c is then row c
    mapped through x -> g*x, since (g*c)*b = g*(c*b): one list lookup per
    entry instead of one composition.
    """
    n = len(perms)
    index = {p: i for i, p in enumerate(perms)}
    rows: List[Optional[Tuple[int, ...]]] = [None] * n
    rows[0] = tuple(range(n))
    walk = [0]  # elements whose row is filled, breadth first
    lefts: List[List[int]] = []
    for s in range(1, n):
        if rows[s] is not None:
            continue
        g = perms[s]
        lefts.append([index[_compose(g, p)] for p in perms])
        for c in walk:  # visits the elements appended below too
            for left in lefts:
                a = left[c]
                if rows[a] is None:
                    rows[a] = tuple(map(left.__getitem__, rows[c]))
                    walk.append(a)
    return tuple(rows)


def group_from_permutations(
    degree: int,
    generators: Sequence[Sequence[int]],
    name: str = "G",
    cap: int = DEFAULT_SUBGROUP_CAP,
) -> FiniteGroup:
    """Close a set of permutations of {0..degree-1} into a Cayley-table group.

    Element order is discovery order under breadth-first products with the
    generators sorted, so it is deterministic; the identity is element 0.
    """
    gens = []
    for g in generators:
        p = tuple(g)
        if sorted(p) != list(range(degree)):
            raise NotAGroup(f"generator {g} is not a permutation of 0..{degree - 1}")
        gens.append(p)
    gens.sort()
    identity = tuple(range(degree))
    elements = [identity]
    index = {identity: 0}
    queue = deque([identity])
    while queue:
        cur = queue.popleft()
        for gen in gens:
            nxt = _compose(cur, gen)
            if nxt not in index:
                if len(elements) >= cap:
                    raise OrderCapExceeded(
                        f"permutation closure exceeded cap {cap}"
                    )
                index[nxt] = len(elements)
                elements.append(nxt)
                queue.append(nxt)
    return group_from_cayley(_perm_cayley(elements), name)


@dataclass(frozen=True)
class ConjugacyClasses:
    group: FiniteGroup
    classes: Tuple[Tuple[int, ...], ...]
    class_of: Tuple[int, ...]

    # computed once per instance; equality and hashing stay over the fields
    @cached_property
    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(c) for c in self.classes)

    @cached_property
    def representatives(self) -> Tuple[int, ...]:
        return tuple(c[0] for c in self.classes)

    @cached_property
    def weights(self) -> Tuple[Fraction, ...]:
        """|c| / |G| for each class c: the weights of an inner product."""
        return tuple(Fraction(s, self.group.order) for s in self.sizes)

    def __len__(self):
        return len(self.classes)


@lru_cache(maxsize=None)
def conjugacy_classes(G: FiniteGroup) -> ConjugacyClasses:
    """Orbits of conjugation, ordered by (size, minimum element)."""
    seen = [False] * G.order
    classes: List[Tuple[int, ...]] = []
    for g in range(G.order):
        if seen[g]:
            continue
        orbit = sorted({G.conjugate(g, h) for h in range(G.order)})
        for x in orbit:
            seen[x] = True
        classes.append(tuple(orbit))
    classes.sort(key=lambda c: (len(c), c[0]))
    class_of = [0] * G.order
    for i, c in enumerate(classes):
        for x in c:
            class_of[x] = i
    result = ConjugacyClasses(G, tuple(classes), tuple(class_of))
    assert result.classes[0] == (0,)
    assert sum(result.sizes) == G.order
    return result


class Subgroup:
    """A subgroup given by its (sorted) parent element set, carrying the
    induced group on those elements with 0-based local indexing."""

    __slots__ = ("parent", "elements", "local", "_to_local")

    def __init__(self, parent: FiniteGroup, elements: Tuple[int, ...], local: FiniteGroup):
        self.parent = parent
        self.elements = elements
        self.local = local
        self._to_local = {g: i for i, g in enumerate(elements)}

    @property
    def order(self) -> int:
        return len(self.elements)

    def to_parent(self, i: int) -> int:
        return self.elements[i]

    def to_local(self, g: int) -> int:
        return self._to_local[g]

    @property
    def element_set(self) -> FrozenSet[int]:
        return frozenset(self.elements)

    def __eq__(self, other):
        return (
            isinstance(other, Subgroup)
            and self.parent == other.parent
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.parent.name, self.parent.order, self.elements))

    def __repr__(self):
        return f"Subgroup({self.local.name!r}, {list(self.elements)})"


def closure(G: FiniteGroup, gens: Iterable[int], cap: int = DEFAULT_SUBGROUP_CAP) -> FrozenSet[int]:
    """Smallest subgroup of G containing gens.

    A breadth-first walk from the identity under right multiplication by
    the generators: in a finite group every inverse is a positive power,
    so the products of generators are already the subgroup.  Costs
    O(|H| * |gens|); raises once the subgroup would have more than cap
    elements.
    """
    steps = sorted(set(gens) - {0})
    elems = {0}
    queue = deque([0])
    while queue:
        row = G.mul[queue.popleft()]
        for g in steps:
            z = row[g]
            if z not in elems:
                if len(elems) >= cap:
                    raise OrderCapExceeded(f"subgroup closure exceeded cap {cap}")
                elems.add(z)
                queue.append(z)
    return frozenset(elems)


def subgroup_from_elements(
    G: FiniteGroup, elements: Iterable[int], name: Optional[str] = None
) -> Subgroup:
    """Build the subgroup on a closed element set (closure is verified)."""
    elements = list(elements)
    bad = next((g for g in elements if type(g) is not int or not 0 <= g < G.order), None)
    if bad is not None:
        raise NotASubgroup(f"{bad!r} is not an element of {G.name} (0..{G.order - 1})")
    elems = tuple(sorted(set(elements)))
    if not elems or elems[0] != 0:
        raise NotASubgroup("subgroup must contain the identity")
    if len(elems) == G.order:
        return Subgroup(G, elems, G)  # the whole group embeds as itself
    pos = {g: i for i, g in enumerate(elems)}
    table = []
    for a in elems:
        if G.inv[a] not in pos:
            raise NotASubgroup(f"not closed under inversion at {a}")
        row = list(map(pos.get, map(G.mul[a].__getitem__, elems)))
        if None in row:
            b = elems[row.index(None)]
            raise NotASubgroup(f"not closed under multiplication at ({a},{b})")
        table.append(row)
    label = name if name is not None else f"{G.name}|{{{','.join(map(str, elems))}}}"
    local = group_from_cayley(table, label)
    return Subgroup(G, elems, local)


def whole_subgroup(G: FiniteGroup) -> Subgroup:
    return subgroup_from_elements(G, range(G.order), name=G.name)


def trivial_subgroup(G: FiniteGroup) -> Subgroup:
    return subgroup_from_elements(G, (0,), name="1")


def derived_subgroup(G: FiniteGroup) -> Subgroup:
    """The commutator subgroup [G, G]."""
    gens = {
        G.m(G.m(x, y), G.m(G.inverse(x), G.inverse(y)))
        for x in range(G.order)
        for y in range(G.order)
    }
    return subgroup_from_elements(G, closure(G, gens))


def is_subgroup_chain(h1: Subgroup, h2: Subgroup) -> bool:
    """True iff h1 and h2 share the parent and h1's elements lie in h2."""
    return h1.parent == h2.parent and h1.element_set <= h2.element_set


def subgroup_within(inner: Subgroup, outer: Subgroup) -> Tuple[int, ...]:
    """Embedding of inner into outer's local indexing (inner <= outer)."""
    if not is_subgroup_chain(inner, outer):
        raise NotASubgroup("inner subgroup is not contained in outer")
    return tuple(outer.to_local(g) for g in inner.elements)


@lru_cache(maxsize=None)
def enumerate_subgroups(G: FiniteGroup, max_order: int = DEFAULT_MAX_ORDER) -> Tuple[Subgroup, ...]:
    """All subgroups of G, by layered generator addition.

    Seeds with the cyclic subgroups and repeatedly extends each known
    subgroup by one extra element until nothing new appears.  Each
    subgroup keeps the generators it was found from, so an extension is
    the closure of those generators and one more element, taken once per
    coset of the subgroup.  Output is canonically ordered by (order,
    element list).
    """
    if G.order > max_order:
        raise OrderCapExceeded(
            f"group order {G.order} exceeds configured bound {max_order}"
        )
    found: Dict[FrozenSet[int], Tuple[int, ...]] = {}
    for g in range(G.order):
        found.setdefault(closure(G, [g]), (g,))
    layer = dict(found)
    while layer:
        nxt: Dict[FrozenSet[int], Tuple[int, ...]] = {}
        for s, gens in layer.items():
            # every element of the coset s*g extends s to the same subgroup
            covered = set(s)
            for g in range(G.order):
                if g in covered:
                    continue
                covered.update(G.mul[h][g] for h in s)
                t = closure(G, gens + (g,))
                if t not in found:
                    if len(found) >= DEFAULT_SUBGROUP_CAP:
                        raise OrderCapExceeded(f"subgroup count exceeded cap {DEFAULT_SUBGROUP_CAP}")
                    found[t] = nxt[t] = gens + (g,)
        layer = nxt
    sets = sorted(found, key=lambda s: (len(s), sorted(s)))
    return tuple(subgroup_from_elements(G, s) for s in sets)


# -- built-in groups ------------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    table = [list(range(i, n)) + list(range(i)) for i in range(n)]
    return group_from_cayley(table, f"C{n}")


def _perm_table_group(perms: List[Tuple[int, ...]], name: str) -> FiniteGroup:
    perms = sorted(perms)  # identity is lexicographically first
    return group_from_cayley(_perm_cayley(perms), name)


def symmetric_group(n: int) -> FiniteGroup:
    perms = [tuple(p) for p in itertools.permutations(range(n))]
    return _perm_table_group(perms, f"S{n}")


def _parity(p: Tuple[int, ...]) -> int:
    inversions = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return inversions % 2


def alternating_group(n: int) -> FiniteGroup:
    perms = [tuple(p) for p in itertools.permutations(range(n)) if _parity(tuple(p)) == 0]
    return _perm_table_group(perms, f"A{n}")


def _rotation_reflection_group(m: int, twist: int, name: str) -> FiniteGroup:
    """Group of order 2m on elements i + m*j = a^i b^j with b a^i = a^-i b
    and b^2 = a^twist."""
    # a^i1 * a^i2 b^j = a^(i1+i2) b^j and a^i1 b * a^i2 b^j = a^(i1-i2) b^(1+j)
    rows_a = [
        [(i1 + i2) % m for i2 in range(m)] + [(i1 + i2) % m + m for i2 in range(m)]
        for i1 in range(m)
    ]
    rows_ab = [
        [(i1 - i2) % m + m for i2 in range(m)] + [(i1 - i2 + twist) % m for i2 in range(m)]
        for i1 in range(m)
    ]
    table = rows_a + rows_ab
    return group_from_cayley(table, name)


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the n-gon, order 2n; element i + n*j is r^i s^j."""
    if n < 1:
        raise ValueError("n must be positive")
    return _rotation_reflection_group(n, 0, f"D{n}")


def quaternion_group(order: int) -> FiniteGroup:
    """Generalized quaternion group of the given order (multiple of 4, >= 8)."""
    if order < 8 or order % 4 != 0:
        raise ValueError("quaternion group order must be a multiple of 4, at least 8")
    return _rotation_reflection_group(order // 2, order // 4, f"Q{order}")


def _parse_builtin(spec: str) -> Tuple[str, int]:
    spec = spec.strip().lower()
    if len(spec) < 2 or spec[0] not in "csdqa" or not spec[1:].isdigit():
        raise ValueError(f"unknown builtin group {spec!r}")
    return spec[0], int(spec[1:])


def builtin_order(spec: str, cap: Optional[int] = None) -> int:
    """Order of ``builtin_group(spec)``, read off the spec without building
    the group, so that an order cap can be checked first.

    With ``cap``, the factorial of an sN or aN is multiplied out only until
    it passes ``cap``: an order above ``cap`` then comes back as some number
    above ``cap``, at the cost of a few multiplications whatever N is.
    """
    kind, n = _parse_builtin(spec)
    if kind in "cq":
        return n
    if kind == "d":
        return 2 * n
    order = 1
    for k in range(3 if kind == "a" else 2, n + 1):  # n!/2 = 3 * 4 * ... * n
        order *= k
        if cap is not None and order > cap:
            break
    return order


def builtin_group(spec: str) -> FiniteGroup:
    """Parse c5/s4/d4/q8/a4-style names into groups."""
    kind, n = _parse_builtin(spec)
    if kind == "c":
        return cyclic_group(n)
    if kind == "s":
        return symmetric_group(n)
    if kind == "d":
        return dihedral_group(n)
    if kind == "q":
        return quaternion_group(n)
    return alternating_group(n)
