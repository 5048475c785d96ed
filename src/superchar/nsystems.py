"""Integer systems on supercharacters and their derived invariants.

An NSystem assigns an integer to every supercharacter block of the top
group's theory; the assignment extends to every subgroup in a compatible
family by linearity and superinduction invariance, which makes the
Artin-Takagi decomposition, the Heilbronn-Stark restriction identity and
the Uchida-van-der-Waall inequality machine-checkable statements.

An NSystem is one coefficient vector coeffs[X] = n(G, sigma_X)/sigma_X(1),
computed once; Theta_G = sum_X coeffs[X] sigma_X, n(H, sigma_Y) and the
Artin-Takagi check all read it.

Values that do not depend on the base are computed once per family and
cached on it: the restriction matrices, the superinductions of every
supercharacter and certificate term, and the Artin-Takagi norms.  Each
NSystem computes its row of n(H, sigma_Y) once per subgroup.  Every
identity is still checked on every query against these values.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple

from .chartab import (
    ClassFunction,
    character_multiplicities,
    has_only_linear_constituents,
    induce,
    inner_product,
    linear_combination,
    pull_back,
    regular_character,
)
from .errors import (
    InvalidCertificate,
    NotASuperclassFunction,
    SupercharError,
)
from .groups import Subgroup
from .theories import (
    DEFAULT_SEARCH_BUDGET,
    CompatibleFamily,
    SuperclassFunction,
    srestrict,
    superinduce,
)


def _sigma_degree(sigma: ClassFunction) -> int:
    d = sigma.degree_value.as_rational()
    assert d is not None and d.denominator == 1 and d > 0
    return d.numerator


def _restriction_matrix(family: CompatibleFamily, sub: Subgroup) -> Tuple[Tuple[int, ...], ...]:
    """R[X][Y] = <sigma_X|_H, sigma_Y>_H for top blocks X, subgroup blocks Y.

    Both arguments are characters, so every entry is a nonnegative integer.
    Cached on the family; base-independent.
    """
    key = ("rmat", sub.elements)
    if key not in family._cache:
        top_theory = family.top_theory
        sub_theory = family.theory_for(sub)
        rows = []
        for sigma in top_theory.sigmas:
            sigma_h = pull_back(sigma, sub_theory.classes, sub.elements)
            row = []
            for tau in sub_theory.sigmas:
                v = inner_product(sigma_h, tau).as_rational()
                assert v is not None and v.denominator == 1 and v >= 0
                row.append(v.numerator)
            rows.append(tuple(row))
        family._cache[key] = tuple(rows)
    return family._cache[key]


def _sind_sigma(family: CompatibleFamily, sub: Subgroup, y: int) -> SuperclassFunction:
    """Superinduction of the subgroup's y-th supercharacter, cached."""
    key = ("sind_sigma", sub.elements, y)
    if key not in family._cache:
        phi = family.theory_for(sub).sigma_function(y)
        family._cache[key] = superinduce(phi, family.top_theory, sub.elements)
    return family._cache[key]


class NSystem:
    """Integer base values on the top theory's supercharacter blocks,
    extended to all subgroups of the family."""

    def __init__(self, family: CompatibleFamily, base: Sequence[int]):
        top = family.top_theory
        if len(base) != top.n_blocks:
            raise ValueError(
                f"expected {top.n_blocks} base values, got {len(base)}"
            )
        self.family = family
        self.base = tuple(int(b) for b in base)
        # coeffs[X] = base[X]/sigma_X(1) = numerators[X]/den over one den
        degrees = [_sigma_degree(s) for s in top.sigmas]
        self._den = lcm(*degrees)
        self._numerators = tuple(b * (self._den // d) for b, d in zip(self.base, degrees))
        self.coeffs = tuple(Fraction(b, d) for b, d in zip(self.base, degrees))
        # the derived top function must itself be a superclass function
        self.theta_top = SuperclassFunction(top, linear_combination(self.coeffs, top.sigmas))
        self._theta_restrictions: Dict[Tuple[int, ...], SuperclassFunction] = {}
        self._n_rows: Dict[Tuple[int, ...], Tuple[Fraction, ...]] = {}
        self._ach3_report: Optional["CheckReport"] = None

    # -- the extension rule -------------------------------------------------

    def _theta_restricted(self, sub: Subgroup) -> SuperclassFunction:
        if sub.elements not in self._theta_restrictions:
            self._theta_restrictions[sub.elements] = srestrict(
                self.theta_top, self.family.theory_for(sub), sub.elements
            )
        return self._theta_restrictions[sub.elements]

    def n_top(self, phi: SuperclassFunction) -> Fraction:
        """n(G, phi) for a superclass function of the top theory."""
        if phi.theory != self.family.top_theory:
            raise NotASuperclassFunction(
                "argument is not a superclass function of the top theory"
            )
        v = inner_product(self.theta_top.fn, phi.fn).as_rational()
        if v is None:
            raise SupercharError("n-value is not rational")
        return v

    def n_value(self, sub: Subgroup, phi: SuperclassFunction) -> Fraction:
        """n(H, phi) = <Theta_G, Sind phi> = <Theta_G|_H, phi>, asserted equal."""
        theory = self.family.theory_for(sub)
        if phi.theory != theory:
            raise NotASuperclassFunction(
                "argument is not a superclass function of the subgroup's theory"
            )
        return self._n_value(sub, phi, superinduce(phi, self.family.top_theory, sub.elements))

    def _n_value(self, sub: Subgroup, phi: SuperclassFunction, sind: SuperclassFunction) -> Fraction:
        """n_value with Sind phi given, as cached by the caller."""
        via_top = inner_product(self.theta_top.fn, sind.fn)
        via_restriction = inner_product(self._theta_restricted(sub).fn, phi.fn)
        assert via_top == via_restriction, "Super Frobenius Reciprocity violated"
        v = via_top.as_rational()
        if v is None:
            raise SupercharError("n-value is not rational")
        return v

    def _n_row(self, sub: Subgroup) -> Tuple[Fraction, ...]:
        """n(H, sigma_Y) = sum_X coeffs[X] R[X][Y] for every block Y of H,
        summed in integers over the common denominator; cached."""
        row = self._n_rows.get(sub.elements)
        if row is None:
            rmat = _restriction_matrix(self.family, sub)
            nums = self._numerators
            row = tuple(
                Fraction(sum(n * r[y] for n, r in zip(nums, rmat)), self._den)
                for y in range(len(rmat[0]))
            )
            self._n_rows[sub.elements] = row
        return row

    def n_sigma(self, sub: Subgroup, y: int) -> Fraction:
        """n(H, sigma_Y) through the cached restriction matrix."""
        return self._n_row(sub)[y]

    # -- derived supercharacters ---------------------------------------------

    def theta(self, sub: Subgroup) -> SuperclassFunction:
        """Theta_H = sum_Y n(H, sigma_Y)/sigma_Y(1) * sigma_Y.

        Computed from the extension rule and cross-checked against the
        alternate form sum_Y n(G, Sind sigma_Y)/sigma_Y(1) * sigma_Y.
        """
        theory = self.family.theory_for(sub)
        coeffs = []
        for y, (sigma, n_def) in enumerate(zip(theory.sigmas, self._n_row(sub))):
            n_alt = inner_product(
                self.theta_top.fn, _sind_sigma(self.family, sub, y).fn
            ).as_rational()
            assert n_alt is not None and n_def == n_alt, (
                "definition and superinduction forms of n(H, sigma) disagree"
            )
            coeffs.append(n_def / _sigma_degree(sigma))
        return SuperclassFunction(theory, linear_combination(coeffs, theory.sigmas))


# -- verifier reports -------------------------------------------------------


@dataclass
class CheckReport:
    name: str
    ok: bool
    details: dict = field(default_factory=dict)
    violations: List[dict] = field(default_factory=list)
    warnings: List[dict] = field(default_factory=list)


def _has_linear_constituents(family: CompatibleFamily, sub: Subgroup, y: int) -> bool:
    """Base-independent, so cached on the family."""
    key = ("linconst", sub.elements, y)
    if key not in family._cache:
        theory = family.theory_for(sub)
        family._cache[key] = has_only_linear_constituents(
            theory.sigmas[y], theory.table
        )
    return family._cache[key]


def check_ach3(ns: NSystem) -> CheckReport:
    """n(H, sigma) >= 0 for every supercharacter with linear constituents,
    over every subgroup in the family.  Non-integer n-values at genuine
    supercharacters are reported as warnings, not errors.  The report is
    cached: an NSystem is immutable after construction."""
    if ns._ach3_report is not None:
        return ns._ach3_report
    violations: List[dict] = []
    warnings: List[dict] = []
    for sub in ns.family.subgroups:
        for y, n in enumerate(ns._n_row(sub)):
            if not _has_linear_constituents(ns.family, sub, y):
                continue
            if n.denominator != 1:
                warnings.append(
                    {"subgroup": list(sub.elements), "block": f"X{y}", "n": str(n)}
                )
            if n < 0:
                violations.append(
                    {"subgroup": list(sub.elements), "block": f"X{y}", "n": str(n)}
                )
    ns._ach3_report = CheckReport(
        "ach3", not violations, violations=violations, warnings=warnings
    )
    return ns._ach3_report


def _artin_takagi_data(family: CompatibleFamily) -> Tuple[SuperclassFunction, Tuple[Fraction, ...]]:
    """The regular superclass function and every <sigma_X, sigma_X>;
    base-independent, so cached on the family."""
    key = ("artin_takagi",)
    if key not in family._cache:
        top = family.top_theory
        reg = SuperclassFunction(top, regular_character(top.classes))
        norms = tuple(inner_product(s, s).as_rational() for s in top.sigmas)
        family._cache[key] = (reg, norms)
    return family._cache[key]


def verify_artin_takagi(ns: NSystem) -> CheckReport:
    """n(G, Reg) = sum_X n(G, sigma_X)
                 = sum_X n(G, sigma_X)/sigma_X(1) * <sigma_X, sigma_X>."""
    reg, norms = _artin_takagi_data(ns.family)
    n_reg = ns.n_top(reg)
    base_sum = Fraction(sum(ns.base))
    weighted = sum((c * v for c, v in zip(ns.coeffs, norms)), Fraction(0))
    ok = n_reg == base_sum == weighted
    return CheckReport(
        "artin-takagi",
        ok,
        details={
            "n_regular": str(n_reg),
            "sum_of_base": str(base_sum),
            "weighted_sum": str(weighted),
        },
    )


def verify_heilbronn_stark(ns: NSystem, sub: Subgroup) -> CheckReport:
    """Theta_G restricted to H equals Theta_H, pointwise and exact."""
    lhs = ns._theta_restricted(sub)
    rhs = ns.theta(sub)
    mismatches = [
        {
            "class": ci,
            "restricted": str(a),
            "theta_h": str(b),
        }
        for ci, (a, b) in enumerate(zip(lhs.fn.values, rhs.fn.values))
        if a != b
    ]
    return CheckReport(
        "heilbronn-stark",
        not mismatches,
        details={"subgroup": list(sub.elements)},
        violations=mismatches,
    )


# -- decomposition certificates ------------------------------------------------


@dataclass(frozen=True)
class DecompositionCertificate:
    """Witness for Sind_H^G 1_H = 1_G + sum_i Sind_{H_i}^G sigma_i with each
    sigma_i a supercharacter with linear constituents, given as a multiset
    of supercharacter block indices of the theory on H_i."""

    subgroup: Subgroup
    terms: Tuple[Tuple[Subgroup, Tuple[int, ...]], ...]


def _certificate_data(family: CompatibleFamily, cert: DecompositionCertificate) -> dict:
    """Validate a certificate against its family; cached per certificate."""
    key = (
        "cert",
        cert.subgroup.elements,
        tuple((hi.elements, blocks) for hi, blocks in cert.terms),
    )
    if key in family._cache:
        return family._cache[key]
    top = family.top_theory
    h_theory = family.theory_for(cert.subgroup)
    one_h = h_theory.trivial_superclass_function()
    sind_one = superinduce(one_h, top, cert.subgroup.elements)
    term_data = []
    for hi, blocks in cert.terms:
        theory_i = family.theory_for(hi)
        if not blocks:
            raise InvalidCertificate("certificate term with no supercharacter blocks")
        for b in blocks:
            if not 0 <= b < theory_i.n_blocks:
                raise InvalidCertificate(f"block index {b} out of range for term")
        sigma_i = linear_combination([1] * len(blocks), [theory_i.sigmas[b] for b in blocks])
        if not has_only_linear_constituents(sigma_i, theory_i.table):
            raise InvalidCertificate(
                f"term on subgroup {list(hi.elements)} has a nonlinear constituent"
            )
        phi_i = SuperclassFunction(theory_i, sigma_i)
        sind_i = superinduce(phi_i, top, hi.elements)
        term_data.append({"subgroup": hi, "phi": phi_i, "sind": sind_i})
    parts = [top.trivial_superclass_function().fn] + [t["sind"].fn for t in term_data]
    if linear_combination([1] * len(parts), parts) != sind_one.fn:
        raise InvalidCertificate(
            "certificate identity Sind 1_H = 1_G + sum Sind sigma_i fails"
        )
    data = {"one_h": one_h, "sind_one": sind_one, "terms": term_data}
    family._cache[key] = data
    return data


def verify_uvdw(ns: NSystem, cert: DecompositionCertificate) -> CheckReport:
    """Check the two derivation identities and the inequality
    n(H, 1_H) >= n(G, 1_G); the inequality is asserted only when the
    system passes its nonnegativity check."""
    family = ns.family
    data = _certificate_data(family, cert)
    top = family.top_theory
    one_g = top.trivial_superclass_function()
    n_one_g = ns.n_top(one_g)
    n_sind_one = ns.n_top(data["sind_one"])
    term_top = [ns.n_top(t["sind"]) for t in data["terms"]]
    eq1_ok = n_sind_one == n_one_g + sum(term_top, Fraction(0))

    # the certificate's superinductions, reused: reciprocity is still asserted
    n_one_h = ns._n_value(cert.subgroup, data["one_h"], data["sind_one"])
    term_sub = [ns._n_value(t["subgroup"], t["phi"], t["sind"]) for t in data["terms"]]
    eq2_ok = n_one_h == n_one_g + sum(term_sub, Fraction(0))

    ach3 = check_ach3(ns)
    inequality_ok = n_one_h >= n_one_g
    ok = eq1_ok and eq2_ok and (inequality_ok or not ach3.ok)
    violations = []
    if not eq1_ok:
        violations.append({"identity": "eq1", "lhs": str(n_sind_one)})
    if not eq2_ok:
        violations.append({"identity": "eq2", "lhs": str(n_one_h)})
    if ach3.ok and not inequality_ok:
        violations.append(
            {"identity": "inequality", "n_H_1": str(n_one_h), "n_G_1": str(n_one_g)}
        )
    return CheckReport(
        "uvdw",
        ok,
        details={
            "n_H_trivial": str(n_one_h),
            "n_G_trivial": str(n_one_g),
            "eq1": eq1_ok,
            "eq2": eq2_ok,
            "ach3_passes": ach3.ok,
            "inequality": inequality_ok,
        },
        violations=violations,
    )


# -- certificate search ----------------------------------------------------------


@dataclass
class CertificateSearch:
    certificate: Optional[DecompositionCertificate]
    nodes: int
    exhausted: bool


def _certificate_candidates(
    family: CompatibleFamily,
) -> Tuple[Tuple[Subgroup, int, Tuple[int, ...]], ...]:
    """Candidate summands of every certificate search on the family.

    One (subgroup, row, vector) per distinct irreducible decomposition
    vector of an induced nontrivial linear character of a family subgroup,
    largest first.  No candidate depends on the searched subgroup, so the
    list is built once and cached on the family.
    """
    key = ("cert_candidates",)
    if key not in family._cache:
        table = family.top_theory.table
        candidates: List[Tuple[Subgroup, int, Tuple[int, ...]]] = []
        seen_vectors = set()
        for s in family.subgroups:
            s_table = family.theory_for(s).table
            for row in range(len(s_table.rows)):
                if s_table.degrees[row] != 1 or row == 0:
                    continue  # only nontrivial linear characters can contribute
                vec = character_multiplicities(induce(s_table.rows[row], s), table)
                if vec not in seen_vectors:
                    seen_vectors.add(vec)
                    candidates.append((s, row, vec))
        candidates.sort(key=lambda c: (-sum(c[2]), c[0].elements, c[1]))
        family._cache[key] = tuple(candidates)
    return family._cache[key]


def find_uvdw_certificate(
    family: CompatibleFamily,
    sub: Subgroup,
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> CertificateSearch:
    """Search for a decomposition certificate for Sind 1_H - 1_G.

    Requires an all-classical family: candidate summands are inductions of
    nontrivial linear characters of the family's subgroups, built once per
    family (``_certificate_candidates``), and the search solves for a
    nonnegative-integer combination matching the target's irreducible
    decomposition, depth-first within a node budget.  Every certificate
    found is validated by ``_certificate_data`` before it is returned.
    """
    top = family.top_theory
    if not all(family.theory_for(s).is_classical() for s in family.subgroups):
        raise SupercharError("certificate search requires an all-classical family")
    table = top.table
    h_theory = family.theory_for(sub)
    sind_one = superinduce(
        h_theory.trivial_superclass_function(), top, sub.elements
    )
    target_fn = linear_combination([1, -1], [sind_one.fn, top.trivial_superclass_function().fn])
    target = list(character_multiplicities(target_fn, table))

    candidates = _certificate_candidates(family)
    nodes = 0
    exhausted = False
    solution: Optional[List[int]] = None

    def dfs(i: int, remaining: List[int], counts: List[int]) -> bool:
        nonlocal nodes, exhausted
        nodes += 1
        if nodes > budget:
            exhausted = True
            return False
        if all(v == 0 for v in remaining):
            nonlocal solution
            solution = counts[:]
            return True
        if i == len(candidates):
            return False
        vec = candidates[i][2]
        cmax = min(
            (remaining[j] // vec[j] for j in range(len(vec)) if vec[j]),
            default=0,
        )
        for c in range(cmax, -1, -1):
            counts.append(c)
            rem = [remaining[j] - c * vec[j] for j in range(len(vec))]
            if dfs(i + 1, rem, counts):
                return True
            counts.pop()
            if exhausted:
                return False
        return False

    found = dfs(0, target, [])
    if not found:
        return CertificateSearch(None, nodes, exhausted)
    per_subgroup: Dict[Tuple[int, ...], List[int]] = {}
    order: List[Tuple[int, ...]] = []
    for (s, row, _vec), count in zip(candidates, solution):
        if count == 0:
            continue
        if s.elements not in per_subgroup:
            per_subgroup[s.elements] = []
            order.append(s.elements)
        per_subgroup[s.elements].extend([row] * count)
    by_elements = {s.elements: s for s in family.subgroups}
    terms = tuple(
        (by_elements[els], tuple(sorted(per_subgroup[els]))) for els in sorted(order)
    )
    cert = DecompositionCertificate(sub, terms)
    _certificate_data(family, cert)  # self-check: must validate
    return CertificateSearch(cert, nodes, False)
