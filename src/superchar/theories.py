"""Supercharacter theories: paired partitions of Irr(G) and of G.

A theory is a pair (X-partition of the irreducible rows, K-partition of
the group elements) such that {1} is a K-block, both partitions have the
same number of blocks, and every sigma_X = sum over X of psi(1) psi is
constant on every K-block.  Theories are enumerated from the class
multiplication constants; compatible theories on a subgroup chain
support superinduction and restriction of superclass functions, which
read the subgroup's class fusion (``chartab.class_fusion``) as induction does.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, count
from typing import Callable, Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from .chartab import (
    CharacterTable,
    ClassFunction,
    class_fusion,
    class_mult_coeffs,
    dixon_character_table,
    induce_to_blocks,
    linear_combination,
    pull_back,
)
from .cyclo import Cyclotomic, cyclo_sum
from .errors import (
    IncompatibleFamily,
    IncompatibleTheories,
    NotAPartition,
    NotASubgroup,
    NotASuperclassFunction,
    NotASupercharacterTheory,
    OrderCapExceeded,
    SubgroupNotInFamily,
)
from .groups import (
    FiniteGroup,
    Subgroup,
    conjugacy_classes,
    enumerate_subgroups,
    is_subgroup_chain,
    subgroup_within,
)

DEFAULT_SEARCH_BUDGET = 100_000


def _check_partition(blocks: Sequence[Iterable[int]], universe: range, what: str) -> Tuple[Tuple[int, ...], ...]:
    canon = tuple(sorted((tuple(sorted(set(b))) for b in blocks), key=lambda b: b[0] if b else -1))
    seen: List[int] = []
    for b in canon:
        if not b:
            raise NotAPartition(f"{what} contains an empty block")
        seen.extend(b)
    if sorted(seen) != list(universe):
        raise NotAPartition(f"{what} is not a partition of 0..{len(universe) - 1}")
    return canon


class SupercharacterTheory:
    """A validated supercharacter theory on a fixed character table."""

    __slots__ = (
        "table",
        "irr_blocks",
        "class_blocks",
        "element_blocks",
        "sigmas",
        "_superclass_index",
    )

    def __init__(
        self,
        table: CharacterTable,
        irr_blocks: Tuple[Tuple[int, ...], ...],
        class_blocks: Tuple[Tuple[int, ...], ...],
        sigmas: Tuple[ClassFunction, ...],
    ):
        # internal: built by make_theory after validation
        self.table = table
        self.irr_blocks = irr_blocks
        self.class_blocks = class_blocks
        cls = table.classes
        self.element_blocks = tuple(
            tuple(sorted(x for ci in block for x in cls.classes[ci]))
            for block in class_blocks
        )
        self.sigmas = sigmas
        block_of = [0] * len(cls)
        for b, block in enumerate(class_blocks):
            for ci in block:
                block_of[ci] = b
        self._superclass_index = tuple(block_of)

    # -- structure -------------------------------------------------------

    @property
    def group(self) -> FiniteGroup:
        return self.table.group

    @property
    def classes(self):
        return self.table.classes

    @property
    def n_blocks(self) -> int:
        return len(self.irr_blocks)

    def superclass_of(self, g: int) -> int:
        """Index of the K-block containing element g."""
        return self._superclass_index[self.classes.class_of[g]]

    def is_classical(self) -> bool:
        return all(len(b) == 1 for b in self.irr_blocks) and all(
            len(b) == 1 for b in self.class_blocks
        )

    def sort_key(self):
        return (self.n_blocks, self.class_blocks, self.irr_blocks)

    def __eq__(self, other):
        return (
            isinstance(other, SupercharacterTheory)
            and self.table == other.table
            and self.irr_blocks == other.irr_blocks
            and self.class_blocks == other.class_blocks
        )

    def __hash__(self):
        return hash((self.group.name, self.irr_blocks, self.class_blocks))

    def __repr__(self):
        return (
            f"SupercharacterTheory({self.group.name!r}, X={self.irr_blocks}, "
            f"K={self.class_blocks})"
        )

    # -- superclass functions ---------------------------------------------

    def superclass_function(self, block_values: Sequence) -> "SuperclassFunction":
        """Build a superclass function from one value per K-block."""
        if len(block_values) != self.n_blocks:
            raise NotASuperclassFunction(
                f"expected {self.n_blocks} block values, got {len(block_values)}"
            )
        vals = [
            v if isinstance(v, Cyclotomic) else Cyclotomic.rational(v)
            for v in block_values
        ]
        values = tuple(vals[self._superclass_index[ci]] for ci in range(len(self.classes)))
        return SuperclassFunction(self, ClassFunction(self.classes, values))

    def trivial_superclass_function(self) -> "SuperclassFunction":
        return self.superclass_function([1] * self.n_blocks)

    def sigma_function(self, x: int) -> "SuperclassFunction":
        return SuperclassFunction(self, self.sigmas[x])


@dataclass(frozen=True)
class SuperclassFunction:
    """A class function constant on the superclasses of a fixed theory."""

    theory: SupercharacterTheory
    fn: ClassFunction

    def __post_init__(self):
        if self.fn.classes != self.theory.classes:
            raise NotASuperclassFunction("function lives on a different group")
        for block in self.theory.class_blocks:
            v0 = self.fn.values[block[0]]
            for ci in block[1:]:
                if self.fn.values[ci] != v0:
                    raise NotASuperclassFunction(
                        f"values differ inside K-block {block}"
                    )

    def block_values(self) -> Tuple[Cyclotomic, ...]:
        return tuple(self.fn.values[block[0]] for block in self.theory.class_blocks)


def make_theory(
    table: CharacterTable,
    irr_partition: Sequence[Iterable[int]],
    element_partition: Sequence[Iterable[int]],
) -> SupercharacterTheory:
    """Validate the three defining conditions and build the theory.

    ``element_partition`` partitions the group elements; that its blocks
    are unions of conjugacy classes is verified afterwards, not assumed.
    """
    n = table.group.order
    irr_blocks = _check_partition(irr_partition, range(len(table.rows)), "irr partition")
    elem_blocks = _check_partition(element_partition, range(n), "class partition")
    if elem_blocks[0] != (0,):
        raise NotASupercharacterTheory(
            1,
            "{identity} is not a block of the element partition",
            {"block": list(next(b for b in elem_blocks if 0 in b))},
        )
    if len(irr_blocks) != len(elem_blocks):
        raise NotASupercharacterTheory(
            2,
            f"partition sizes differ: |X| = {len(irr_blocks)}, |K| = {len(elem_blocks)}",
            {"x_blocks": len(irr_blocks), "k_blocks": len(elem_blocks)},
        )
    cls = table.classes
    sigmas = [
        linear_combination([table.degrees[i] for i in xb], [table.rows[i] for i in xb])
        for xb in irr_blocks
    ]
    for bi, block in enumerate(elem_blocks):
        for xi, sigma in enumerate(sigmas):
            v0 = sigma.at_element(block[0])
            for g in block[1:]:
                if sigma.at_element(g) != v0:
                    raise NotASupercharacterTheory(
                        3,
                        f"sigma of X-block {list(irr_blocks[xi])} not constant "
                        f"on K-block {list(block)}",
                        {
                            "x_block": list(irr_blocks[xi]),
                            "k_block": list(block),
                            "element": g,
                            "values": [str(v0), str(sigma.at_element(g))],
                        },
                    )
    # Diaconis-Isaacs: valid superclasses are unions of conjugacy classes
    class_blocks = []
    for block in elem_blocks:
        members = set(block)
        cids = sorted({cls.class_of[g] for g in block})
        assert all(
            set(cls.classes[ci]) <= members for ci in cids
        ), "valid theory with a superclass that is not a union of classes"
        class_blocks.append(tuple(cids))
    return SupercharacterTheory(table, irr_blocks, tuple(class_blocks), tuple(sigmas))


def theory_from_class_blocks(
    table: CharacterTable,
    irr_partition: Sequence[Iterable[int]],
    class_partition: Sequence[Iterable[int]],
) -> SupercharacterTheory:
    """Variant of make_theory taking K-blocks as conjugacy-class indices."""
    cls = table.classes
    blocks = _check_partition(class_partition, range(len(cls)), "class partition")
    element_partition = [
        [x for ci in block for x in cls.classes[ci]] for block in blocks
    ]
    return make_theory(table, irr_partition, element_partition)


def classical_theory(table: CharacterTable) -> SupercharacterTheory:
    """Singleton blocks on both sides: ordinary character theory."""
    return theory_from_class_blocks(
        table,
        [[i] for i in range(len(table.rows))],
        [[ci] for ci in range(len(table.classes))],
    )


def maximal_theory(table: CharacterTable) -> SupercharacterTheory:
    """Two blocks: trivial character vs the rest, {1} vs the rest.

    For the trivial group this degenerates to the classical theory.
    """
    r = len(table.rows)
    if r == 1:
        return classical_theory(table)
    return theory_from_class_blocks(
        table,
        [[0], list(range(1, r))],
        [[0], list(range(1, len(table.classes)))],
    )


# -- enumeration --------------------------------------------------------------


def enumerate_theories(
    table: CharacterTable, budget: int = DEFAULT_SEARCH_BUDGET
) -> List[SupercharacterTheory]:
    """Exhaustive list of supercharacter theories of the table's group.

    By Diaconis-Isaacs (Thm 2.2) a partition K of the classes with the
    identity class as a block is a theory's superclass partition exactly
    when the K-sums span an algebra: for all blocks I, J the integers
    c^{IJ}_k = sum_{i in I, j in J} a[i][j][k] (``class_mult_coeffs``)
    are constant on every block.  K is built block by block: the next
    block B holds the smallest unassigned class and only classes of its
    signature (its c^{IJ}_k over the finished pairs), and is dropped if
    some c^{B,X} is not constant on a finished block.  At a leaf the rows,
    grouped by their central characters at the K-sums, sum_{c in K_j}
    |c| chi(c) / chi(1), are X, and ``make_theory`` is the exact gate.
    More than ``budget`` candidate blocks raise ``OrderCapExceeded``.
    """
    a = class_mult_coeffs(table.group)
    weights = [[Fraction(s, d) for s in table.classes.sizes] for d in table.degrees]  # |c| / chi(1)
    found: List[SupercharacterTheory] = []
    tried = count(1)

    def coeffs(I, J) -> List[int]:
        return [sum(col) for col in zip(*(a[i][j] for i in I for j in J))]

    @lru_cache(maxsize=None)
    def central(block: Tuple[int, ...]) -> Tuple[Cyclotomic, ...]:
        """omega_chi(K^) for every row chi; a block recurs in many leaves."""
        return tuple(
            cyclo_sum((row.values[c] for c in block), (w[c] for c in block))
            for row, w in zip(table.rows, weights)
        )

    def search(blocks: List[Tuple[int, ...]], pairs: List[List[int]], free: List[int]) -> None:
        if not free:
            groups: Dict[Tuple[Cyclotomic, ...], List[int]] = {}
            for i, key in enumerate(zip(*map(central, blocks))):
                groups.setdefault(key, []).append(i)
            assert len(groups) == len(blocks), "K-sums span an algebra but X has the wrong size"
            found.append(theory_from_class_blocks(table, list(groups.values()), blocks))
            return
        first, rest = free[0], free[1:]
        mates = [k for k in rest if all(c[k] == c[first] for c in pairs)]  # same signature
        for extra in chain.from_iterable(combinations(mates, n) for n in range(len(mates) + 1)):
            if next(tried) > budget:
                raise OrderCapExceeded(f"theory search passed its budget of {budget} candidate blocks")
            block = (first,) + extra
            new = [coeffs(block, X) for X in blocks] + [coeffs(block, block)]
            if all(len({c[k] for k in X}) == 1 for c in new for X in blocks + [block]):
                search(blocks + [block], pairs + new, [k for k in rest if k not in extra])

    search([(0,)], [coeffs((0,), (0,))], list(range(1, len(a))))
    return sorted(found, key=lambda t: t.sort_key())


# -- compatibility, superinduction, restriction --------------------------------


def is_compatible(
    sub_theory: SupercharacterTheory,
    big_theory: SupercharacterTheory,
    embedding: Sequence[int],
) -> Tuple[bool, Optional[int]]:
    """Check SCl_H(h) subset of SCl_G(h) for all h; witness on failure.

    A subgroup superclass is compatible when its classes fuse into one
    superclass of G (``class_fusion``); the witness is the smallest
    element of a superclass that is not.  ``embedding`` maps local
    element indices of the subgroup into the big theory's group.
    """
    if len(embedding) != sub_theory.group.order:
        raise NotASubgroup("embedding length does not match subgroup order")
    fusion = class_fusion(sub_theory.classes, big_theory.classes, embedding)
    big = big_theory._superclass_index
    blocks = zip(sub_theory.class_blocks, sub_theory.element_blocks)
    bad = [elements[0] for cs, elements in blocks if len({big[fusion[c]] for c in cs}) > 1]
    return (False, min(bad)) if bad else (True, None)


def _require_compatible(sub_theory, big_theory, embedding):
    ok, witness = is_compatible(sub_theory, big_theory, embedding)
    if not ok:
        raise IncompatibleTheories(f"superclass of element {witness} does not embed", witness=witness)


def superinduce(
    phi: SuperclassFunction,
    big_theory: SupercharacterTheory,
    embedding: Sequence[int],
) -> SuperclassFunction:
    """Superinduction: averaged lift of a superclass function of H to G.

    Sind phi(g) = |G| / (|H| |SCl_G(g)|) * sum over SCl_G(g) of phi^0,
    where phi^0 vanishes outside H.
    """
    _require_compatible(phi.theory, big_theory, embedding)
    values = induce_to_blocks(phi.fn, big_theory.classes, embedding, big_theory.class_blocks)
    return big_theory.superclass_function(values)


def srestrict(
    theta: SuperclassFunction,
    sub_theory: SupercharacterTheory,
    embedding: Sequence[int],
) -> SuperclassFunction:
    """Value pullback of a superclass function of G to a compatible H."""
    _require_compatible(sub_theory, theta.theory, embedding)
    fn = pull_back(theta.fn, conjugacy_classes(sub_theory.group), embedding)
    return SuperclassFunction(sub_theory, fn)


# -- compatible families --------------------------------------------------------


class CompatibleFamily:
    """A supercharacter theory for each subgroup in a set, pairwise
    compatible along every containment."""

    def __init__(
        self,
        group: FiniteGroup,
        subgroups: Tuple[Subgroup, ...],
        theories: Dict[FrozenSet[int], SupercharacterTheory],
        label: str = "custom",
    ):
        self.group = group
        self.subgroups = subgroups
        self.theories = theories
        self.label = label
        self.top = next(s for s in subgroups if s.order == group.order)
        self._cache: Dict = {}

    @property
    def top_theory(self) -> SupercharacterTheory:
        return self.theories[self.top.element_set]

    def theory_for(self, sub: Subgroup) -> SupercharacterTheory:
        try:
            return self.theories[sub.element_set]
        except KeyError:
            raise SubgroupNotInFamily(
                f"no theory for subgroup {sorted(sub.elements)}"
            ) from None

    def subgroup_by_elements(self, elements: Iterable[int]) -> Subgroup:
        key = frozenset(elements)
        for s in self.subgroups:
            if s.element_set == key:
                return s
        raise SubgroupNotInFamily(f"no subgroup with elements {sorted(key)}")

    def containment_pairs(self) -> Iterator[Tuple[Subgroup, Subgroup]]:
        """All ordered pairs (H1, H2) with H1 a proper subgroup of H2."""
        for h1 in self.subgroups:
            for h2 in self.subgroups:
                if h1.order < h2.order and is_subgroup_chain(h1, h2):
                    yield h1, h2


def make_family(
    G: FiniteGroup,
    chooser: Union[str, Callable[[Subgroup, CharacterTable], SupercharacterTheory]] = "classical",
    subgroups: Optional[Sequence[Subgroup]] = None,
    prime: Optional[int] = None,
    seed: int = 0,
) -> CompatibleFamily:
    """Build and validate a compatible family of theories on subgroups of G.

    ``chooser`` is "classical", "maximal", or a callable mapping
    (subgroup, its character table) to a theory of that subgroup.
    """
    if subgroups is None:
        subgroups = enumerate_subgroups(G)
    subgroups = tuple(subgroups)
    if not any(s.order == G.order for s in subgroups):
        raise NotASubgroup("family must include the whole group")
    if chooser == "classical":
        label, pick = "classical", lambda sub, tab: classical_theory(tab)
    elif chooser == "maximal":
        label, pick = "maximal", lambda sub, tab: maximal_theory(tab)
    elif callable(chooser):
        label, pick = "custom", chooser
    else:
        raise ValueError(f"unknown theory chooser {chooser!r}")
    theories: Dict[FrozenSet[int], SupercharacterTheory] = {}
    for sub in subgroups:
        table = dixon_character_table(sub.local, prime=prime if sub.order == G.order else None, seed=seed)
        theories[sub.element_set] = pick(sub, table)
    family = CompatibleFamily(G, subgroups, theories, label=label)
    for h1, h2 in family.containment_pairs():
        emb = subgroup_within(h1, h2)
        ok, witness = is_compatible(
            theories[h1.element_set], theories[h2.element_set], emb
        )
        if not ok:
            raise IncompatibleFamily(h1.elements, h2.elements, witness)
    return family
