"""Acceptance gate: nine exact, oracle-backed criteria, one pass/fail
line printed per criterion (run with -s or look at captured output)."""

import random
import time
from fractions import Fraction

from oracles import (
    commutator_subgroup,
    degree_multisets,
    naive_theory_count,
    superinduce_via_reciprocity,
)
from superchar import (
    DecompositionCertificate,
    InvalidCertificate,
    NSystem,
    builtin_group,
    check_ach3,
    dixon_character_table,
    enumerate_theories,
    find_uvdw_certificate,
    induce,
    inner_product,
    is_compatible,
    make_theory,
    verify_artin_takagi,
    verify_heilbronn_stark,
    verify_orthogonality,
    verify_uvdw,
)
from superchar.chartab import CharacterTable, ClassFunction
from superchar.errors import NotASupercharacterTheory
from superchar.groups import is_subgroup_chain, subgroup_within
from superchar.theories import (
    SuperclassFunction,
    srestrict,
    superinduce,
)

TABLE_GROUPS = [f"c{n}" for n in range(2, 13)] + ["s3", "s4", "a4", "d4", "q8"]


def _report(num, name, failures, detail=""):
    ok = not failures
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, f"criterion {num} failed: {failures[:3]}"


def _rand_fn(theory, rng):
    return theory.superclass_function(
        [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(theory.n_blocks)]
    )


def test_criterion_1_character_tables():
    t0 = time.perf_counter()
    failures = []
    for spec in TABLE_GROUPS:
        G = builtin_group(spec)
        table = dixon_character_table(G)
        if not verify_orthogonality(table).ok:
            failures.append((spec, "orthogonality"))
        if sum(d * d for d in table.degrees) != G.order:
            failures.append((spec, "degree square sum"))
        n_linear = G.order // len(commutator_subgroup(G.mul))
        solutions = degree_multisets(G.order, len(table.rows), n_linear)
        if solutions != [tuple(sorted(table.degrees))]:
            failures.append((spec, "degree multiset", solutions))
    elapsed = time.perf_counter() - t0
    if elapsed >= 30:
        failures.append(("runtime", elapsed))
    _report(1, "Dixon character tables vs oracle", failures, f"{len(TABLE_GROUPS)} groups, {elapsed:.2f}s")


def test_criterion_2_enumeration_counts():
    failures = []
    counts = {}
    for spec in ("c2", "c3", "c5", "c7", "c11", "c13", "c4", "s3", "d4", "q8", "d5"):
        t0 = time.perf_counter()
        G = builtin_group(spec)
        table = dixon_character_table(G)
        counts[spec] = len(enumerate_theories(table))
        if spec in ("c4", "s3", "d4", "q8", "d5"):
            grid = [
                [row.at_element(g) for g in range(G.order)] for row in table.rows
            ]
            oracle = naive_theory_count(G.order, grid, table.degrees)
            if oracle != counts[spec]:
                failures.append((spec, counts[spec], oracle))
        elapsed = time.perf_counter() - t0
        if elapsed >= 60:
            failures.append((spec, "runtime", elapsed))
    # C_p has d(p - 1) theories (Leung-Man); S3 has exactly two
    # (Burkett-Lamar-Lewis-Wynn 2017)
    for spec, want in (("c2", 1), ("c3", 2), ("c5", 3), ("c7", 4), ("c11", 4), ("c13", 6), ("s3", 2)):
        if counts[spec] != want:
            failures.append((spec, counts[spec], want))
    _report(2, "theory enumeration counts vs naive oracle", failures, str(counts))


def _compatible_pairs(family):
    pairs = []
    for h1 in family.subgroups:
        for h2 in family.subgroups:
            if h1.order < h2.order and is_subgroup_chain(h1, h2):
                pairs.append((h1, h2))
    return pairs


def _sfr_cases(family, trials, rng):
    """Yield (phi, theta, sind, sind_alt, lhs, rhs) over random pairs."""
    for h1, h2 in _compatible_pairs(family):
        sub_t = family.theory_for(h1)
        big_t = family.theory_for(h2)
        emb = subgroup_within(h1, h2)
        for _ in range(trials):
            phi = _rand_fn(sub_t, rng)
            theta = _rand_fn(big_t, rng)
            sind = superinduce(phi, big_t, emb)
            lhs = inner_product(sind.fn, theta.fn)
            rhs = inner_product(phi.fn, srestrict(theta, sub_t, emb).fn)
            yield phi, big_t, emb, sind, lhs, rhs


def test_criterion_3_super_frobenius_reciprocity(s4_classical, s3_maximal):
    rng = random.Random(2024)
    failures = []
    cases = 0
    for family in (s4_classical, s3_maximal):
        for phi, big_t, emb, sind, lhs, rhs in _sfr_cases(family, 100, rng):
            cases += 1
            if lhs != rhs:
                failures.append((str(lhs), str(rhs)))
    _report(3, "Super Frobenius Reciprocity, exact", failures, f"{cases} random cases")


def test_criterion_4_superinduction_uniqueness(s4_classical, s3_maximal):
    rng = random.Random(2024)  # same stream: the same cases as criterion 3
    failures = []
    cases = 0
    for family in (s4_classical, s3_maximal):
        for phi, big_t, emb, sind, _, _ in _sfr_cases(family, 100, rng):
            cases += 1
            if sind.fn != superinduce_via_reciprocity(phi, big_t, emb).fn:
                failures.append(repr(phi.block_values()))
    _report(4, "superinduction = reciprocity reconstruction", failures, f"{cases} cases")


def test_criterion_5_classical_superinduction_is_induction(s4_classical):
    family = s4_classical
    top = family.top_theory
    failures = []
    checked = 0
    for sub in family.subgroups:
        theory = family.theory_for(sub)
        for row in theory.table.rows:
            checked += 1
            phi = SuperclassFunction(theory, row)
            if superinduce(phi, top, sub.elements).fn != induce(row, sub):
                failures.append((sub.elements, str(row.values[0])))
    _report(
        5,
        "classical superinduction equals induction on S4",
        failures,
        f"{checked} irreducibles over {len(family.subgroups)} subgroups",
    )


def test_criterion_6_artin_takagi_and_heilbronn_stark(
    s3_classical, s3_maximal, s4_classical
):
    t0 = time.perf_counter()
    rng = random.Random(99)
    failures = []
    for family in (s3_classical, s3_maximal, s4_classical):
        n = family.top_theory.n_blocks
        for _ in range(50):
            ns = NSystem(family, [rng.randint(-5, 5) for _ in range(n)])
            if not verify_artin_takagi(ns).ok:
                failures.append(("t1", family.label, ns.base))
            for sub in family.subgroups:
                if not verify_heilbronn_stark(ns, sub).ok:
                    failures.append(("t2", family.label, ns.base, sub.elements))
    elapsed = time.perf_counter() - t0
    if elapsed >= 300:
        failures.append(("runtime", elapsed))
    _report(6, "Artin-Takagi and Heilbronn-Stark, 150 bases", failures, f"{elapsed:.1f}s")


def test_criterion_7_uchida_van_der_waall(s3_classical, s4_classical):
    rng = random.Random(7)
    failures = []
    verified = 0
    for family in (s3_classical, s4_classical):
        certs = {}
        for sub in family.subgroups:
            search = find_uvdw_certificate(family, sub)
            if search.certificate is None:
                failures.append(("no certificate", family.label, sub.elements))
            else:
                certs[sub.elements] = search.certificate
        n = family.top_theory.n_blocks
        for _ in range(50):
            ns = NSystem(family, [rng.randint(0, 5) for _ in range(n)])
            if not check_ach3(ns).ok:
                failures.append(("ach3 rejected nonnegative base", ns.base))
                continue
            for sub in family.subgroups:
                cert = certs.get(sub.elements)
                if cert is None:
                    continue
                report = verify_uvdw(ns, cert)
                verified += 1
                if not report.ok:
                    failures.append(("uvdw", family.label, ns.base, sub.elements))
    _report(7, "Uchida-van der Waall certificates + inequality", failures, f"{verified} verifications")


def test_criterion_8_compatibility_transitivity(s4_classical):
    family = s4_classical
    top = family.top
    failures = []
    chains = 0
    for h1, h2 in _compatible_pairs(family):
        if h2.order == family.group.order:
            continue
        chains += 1
        t1, t2 = family.theory_for(h1), family.theory_for(h2)
        ok12, _ = is_compatible(t1, t2, subgroup_within(h1, h2))
        ok2g, _ = is_compatible(t2, family.top_theory, h2.elements)
        ok1g, w = is_compatible(t1, family.top_theory, h1.elements)
        if not (ok12 and ok2g):
            failures.append(("pairwise", h1.elements, h2.elements))
        if not ok1g:
            failures.append(("direct", h1.elements, w))
    _report(8, "compatibility transitivity over S4 chains", failures, f"{chains} chains")


def test_criterion_9_negative_paths(s3_classical):
    failures = []

    # (a) invalid partition pair, with a located witness
    table = dixon_character_table(builtin_group("c3"))
    try:
        make_theory(table, [[1], [0, 2]], [[0], [1, 2]])
        failures.append("bad partition accepted")
    except NotASupercharacterTheory as exc:
        if exc.condition != 3 or set(exc.witness) != {
            "x_block",
            "k_block",
            "element",
            "values",
        }:
            failures.append(("witness shape", exc.condition, exc.witness))

    # (b) perturbed character table fails orthogonality with i/j witnesses
    s3_table = dixon_character_table(builtin_group("s3"))
    rows = list(s3_table.rows)
    vals = list(rows[2].values)
    vals[1] = vals[1] + 1
    rows[2] = ClassFunction(s3_table.classes, tuple(vals))
    report = verify_orthogonality(
        CharacterTable(s3_table.classes, tuple(rows), s3_table.degrees)
    )
    if report.ok or not report.violations:
        failures.append("perturbed table accepted")
    elif set(report.violations[0]) != {"kind", "i", "j", "value"}:
        failures.append(("orthogonality witness shape", report.violations[0]))

    # (c) certificate with a non-linear term is rejected
    fam = s3_classical
    a3 = fam.subgroup_by_elements([0, 3, 4])
    whole = fam.subgroup_by_elements(range(6))
    ns = NSystem(fam, [1, 0, 2])
    try:
        verify_uvdw(ns, DecompositionCertificate(a3, ((whole, (2,)),)))
        failures.append("non-linear certificate accepted")
    except InvalidCertificate:
        pass

    _report(9, "negative paths carry documented witnesses", failures)
