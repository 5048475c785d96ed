import hashlib
import json
import random
from dataclasses import asdict
from fractions import Fraction

import pytest

import superchar.nsystems as nsystems
from superchar import (
    DecompositionCertificate,
    InvalidCertificate,
    NSystem,
    builtin_group,
    check_ach3,
    find_uvdw_certificate,
    make_family,
    verify_artin_takagi,
    verify_heilbronn_stark,
    verify_uvdw,
)
from superchar import fileio
from superchar.errors import SupercharError
from superchar.nsystems import _sind_sigma


def _rand_base(ns_blocks, rng, lo=-5, hi=5):
    return [rng.randint(lo, hi) for _ in range(ns_blocks)]


def _rand_fn(theory, rng):
    return theory.superclass_function(
        [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(theory.n_blocks)]
    )


def test_theta_top_known_values(s3_classical):
    ns = NSystem(s3_classical, [1, 1, 1])
    # blocks: identity, transpositions, 3-cycles
    assert [v.as_rational() for v in ns.theta_top.block_values()] == [
        3,
        0,
        Fraction(3, 2),
    ]


def test_base_recovery(s3_classical, s3_maximal, s4_classical):
    rng = random.Random(4)
    for fam in (s3_classical, s3_maximal, s4_classical):
        top = fam.top_theory
        base = _rand_base(top.n_blocks, rng)
        ns = NSystem(fam, base)
        for x in range(top.n_blocks):
            assert ns.n_top(top.sigma_function(x)) == base[x]


def test_ach1_linearity(s3_classical):
    rng = random.Random(5)
    ns = NSystem(s3_classical, _rand_base(3, rng))
    for sub in ns.family.subgroups:
        theory = ns.family.theory_for(sub)
        f1, f2 = _rand_fn(theory, rng), _rand_fn(theory, rng)
        both = theory.superclass_function(
            [a + b for a, b in zip(f1.block_values(), f2.block_values())]
        )
        assert ns.n_value(sub, both) == ns.n_value(sub, f1) + ns.n_value(sub, f2)


def test_ach2_superinduction_invariance(s3_classical, s3_maximal):
    rng = random.Random(6)
    for fam in (s3_classical, s3_maximal):
        ns = NSystem(fam, _rand_base(fam.top_theory.n_blocks, rng))
        for sub in fam.subgroups:
            theory = fam.theory_for(sub)
            for y in range(theory.n_blocks):
                lifted = _sind_sigma(fam, sub, y)
                assert ns.n_top(lifted) == ns.n_sigma(sub, y)
                assert ns.n_sigma(sub, y) == ns.n_value(sub, theory.sigma_function(y))


def test_artin_takagi_reports(s3_maximal):
    ns = NSystem(s3_maximal, [2, 3])
    report = verify_artin_takagi(ns)
    assert report.ok
    assert report.details["n_regular"] == "5"
    assert report.details["sum_of_base"] == "5"


def test_artin_takagi_random(s3_classical, s3_maximal, s4_classical):
    rng = random.Random(7)
    for fam in (s3_classical, s3_maximal, s4_classical):
        for _ in range(10):
            ns = NSystem(fam, _rand_base(fam.top_theory.n_blocks, rng))
            assert verify_artin_takagi(ns).ok


def test_heilbronn_stark_all_subgroups(s3_classical, s3_maximal):
    rng = random.Random(8)
    for fam in (s3_classical, s3_maximal):
        for _ in range(10):
            ns = NSystem(fam, _rand_base(fam.top_theory.n_blocks, rng))
            for sub in fam.subgroups:
                report = verify_heilbronn_stark(ns, sub)
                assert report.ok, report.violations


def test_ach3_nonnegative_bases_pass(s4_classical):
    rng = random.Random(9)
    for _ in range(5):
        ns = NSystem(s4_classical, _rand_base(5, rng, lo=0, hi=5))
        report = check_ach3(ns)
        assert report.ok


def test_ach3_flags_negative_and_warns_on_fractions(s3_classical):
    # a negative weight on the sign character makes n(G, sgn) < 0
    ns = NSystem(s3_classical, [0, -1, 0])
    report = check_ach3(ns)
    assert not report.ok
    assert any(v["n"] == "-1" for v in report.violations)
    # weight on the 2-dim character yields n(A3, chi) = 1/2: warned, not failed
    ns2 = NSystem(s3_classical, [0, 0, 1])
    report2 = check_ach3(ns2)
    assert report2.ok
    assert any(w["n"] == "1/2" for w in report2.warnings)


def test_certificate_search_s3(s3_classical):
    fam = s3_classical
    a3 = fam.subgroup_by_elements([0, 3, 4])
    search = find_uvdw_certificate(fam, a3)
    assert search.certificate is not None and not search.exhausted
    # Sind 1_{A3} - 1_G = sgn: a single term, the sign block on S3 itself
    ((hi, blocks),) = search.certificate.terms
    assert hi.order == 6 and blocks == (1,)

    whole = fam.subgroup_by_elements(range(6))
    assert find_uvdw_certificate(fam, whole).certificate.terms == ()


def test_certificate_search_needs_classical(s3_maximal):
    with pytest.raises(SupercharError):
        find_uvdw_certificate(s3_maximal, s3_maximal.subgroups[0])


def test_certificate_search_budget_exhaustion(s4_classical):
    sub = s4_classical.subgroups[0]  # trivial subgroup: hardest target
    search = find_uvdw_certificate(s4_classical, sub, budget=2)
    assert search.certificate is None
    assert search.exhausted
    assert search.nodes == 3  # the node past the budget is counted, then stops


def test_verify_uvdw_known_case(s3_classical):
    fam = s3_classical
    a3 = fam.subgroup_by_elements([0, 3, 4])
    cert = find_uvdw_certificate(fam, a3).certificate
    ns = NSystem(fam, [1, 0, 2])
    report = verify_uvdw(ns, cert)
    assert report.ok
    assert report.details["eq1"] and report.details["eq2"]
    assert Fraction(report.details["n_H_trivial"]) >= Fraction(
        report.details["n_G_trivial"]
    )


def test_verify_uvdw_inequality_conditional_on_ach3(s3_classical):
    fam = s3_classical
    a3 = fam.subgroup_by_elements([0, 3, 4])
    cert = find_uvdw_certificate(fam, a3).certificate
    # base failing ACH3: the identities still hold, the inequality may not
    ns = NSystem(fam, [1, -3, 0])
    report = verify_uvdw(ns, cert)
    assert report.details["eq1"] and report.details["eq2"]
    assert not report.details["ach3_passes"]
    assert report.ok  # inequality not asserted without ACH3


def test_invalid_certificate_nonlinear_term(s3_classical):
    fam = s3_classical
    a3 = fam.subgroup_by_elements([0, 3, 4])
    whole = fam.subgroup_by_elements(range(6))
    bad = DecompositionCertificate(a3, ((whole, (2,)),))  # 2-dim block
    ns = NSystem(fam, [1, 0, 2])
    with pytest.raises(InvalidCertificate) as exc:
        verify_uvdw(ns, bad)
    assert "nonlinear" in str(exc.value)


def test_invalid_certificate_wrong_identity(s3_classical):
    fam = s3_classical
    a3 = fam.subgroup_by_elements([0, 3, 4])
    c2 = fam.subgroup_by_elements([0, 1])
    wrong = DecompositionCertificate(a3, ((c2, (1,)),))
    ns = NSystem(fam, [1, 0, 2])
    with pytest.raises(InvalidCertificate):
        verify_uvdw(ns, wrong)


@pytest.mark.parametrize(
    "blocks,message",
    [([], "no supercharacter blocks"), (["X99"], "block index 99 out of range")],
    ids=["no-blocks", "block-out-of-range"],
)
def test_invalid_certificate_bad_term_blocks(s3_classical, blocks, message):
    cert = fileio.load_certificate(
        s3_classical,
        {"schema": "uvdw/v1", "H": [0], "terms": [{"Hi": [0, 1], "sigma_blocks": blocks}]},
    )
    with pytest.raises(InvalidCertificate) as exc:
        verify_uvdw(NSystem(s3_classical, [1, 1, 1]), cert)
    assert message in str(exc.value)


def test_theta_is_superclass_function_for_all_subgroups(s4_classical):
    rng = random.Random(12)
    ns = NSystem(s4_classical, _rand_base(5, rng))
    for sub in s4_classical.subgroups[:8]:
        theta = ns.theta(sub)
        assert theta.theory == s4_classical.theory_for(sub)


# Every subgroup's CertificateSearch (terms, nodes, exhausted) on the
# classical family, recorded when the candidate list was rebuilt per search:
# (subgroups, certificates found, total nodes, sha256 of the listing).
@pytest.mark.parametrize(
    "spec,subgroups,found,nodes,digest",
    [
        ("s4", 30, 30, 360, "df1eca58681811c31b766a0ad5ebc1945ce2370c9f2e0958e14d004e10f3d043"),
        ("a5", 59, 29, 1157, "71d20061cdb3425c4c96eaeb8871bde7d0994cdfcea069c3d22917426e0e8516"),
        ("q16", 11, 11, 140, "705c2c5c8db2d50194ae2f9511efa7f6b26eb52f8e922ed98b3bae3edeca3ce2"),
    ],
)
def test_pinned_certificate_searches(spec, subgroups, found, nodes, digest):
    fam = make_family(builtin_group(spec), "classical")
    rows = []
    for sub in fam.subgroups:
        search = find_uvdw_certificate(fam, sub)
        cert = search.certificate
        terms = None if cert is None else [[list(h.elements), list(b)] for h, b in cert.terms]
        rows.append([terms, search.nodes, search.exhausted])
    listing = json.dumps(rows, separators=(",", ":")).encode()
    assert (
        len(rows),
        sum(r[0] is not None for r in rows),
        sum(r[1] for r in rows),
        hashlib.sha256(listing).hexdigest(),
    ) == (subgroups, found, nodes, digest)


def test_certificate_candidates_are_induced_once_per_family(monkeypatch):
    calls = []
    induce = nsystems.induce

    def spy(chi, sub):
        calls.append(sub.elements)
        return induce(chi, sub)

    monkeypatch.setattr(nsystems, "induce", spy)
    fam = make_family(builtin_group("s4"), "classical")
    linear = sum(
        sum(1 for d in fam.theory_for(s).table.degrees[1:] if d == 1) for s in fam.subgroups
    )
    for _ in range(2):
        for sub in fam.subgroups:
            assert find_uvdw_certificate(fam, sub).certificate is not None
    assert len(calls) == linear  # one induction per nontrivial linear character


# Three fixed bases per family; the last has a negative entry, so that the
# ach3 violation branch and the conditional uvdw inequality both run.
REPORT_BASES = {
    ("s4", "classical"): ([1, 1, 1, 1, 1], [3, 0, 2, 1, 4], [2, -1, 0, 3, 1]),
    ("d6", "classical"): ([1] * 6, [1, 0, 2, 1, 3, 0], [0, 2, -3, 1, 0, 1]),
    ("q16", "classical"): ([1] * 7, [2, 1, 0, 3, 1, 0, 2], [1, 0, -2, 0, 1, 3, 0]),
    ("s4", "maximal"): ([1, 1], [4, 2], [3, -1]),
}


def test_pinned_verifier_reports():
    """One sha256 over the canonical JSON of every verifier report: the
    Artin-Takagi, ach3, Heilbronn-Stark (every subgroup) and uvdw (every
    certificate found) reports for the bases above, recorded before the
    base-independent values were cached."""
    listing = []
    for (spec, kind), bases in REPORT_BASES.items():
        fam = make_family(builtin_group(spec), kind)
        certs = []
        if kind == "classical":
            searches = (find_uvdw_certificate(fam, sub) for sub in fam.subgroups)
            certs = [s.certificate for s in searches if s.certificate is not None]
        for base in bases:
            ns = NSystem(fam, base)
            reports = [verify_artin_takagi(ns), check_ach3(ns)]
            reports += [verify_heilbronn_stark(ns, sub) for sub in fam.subgroups]
            reports += [verify_uvdw(ns, cert) for cert in certs]
            listing.append([spec, kind, base, [asdict(r) for r in reports]])
    flat = [r for *_, reports in listing for r in reports]
    assert any(r["name"] == "ach3" and not r["ok"] for r in flat)
    assert any(r["name"] == "uvdw" and not r["details"]["ach3_passes"] for r in flat)
    assert all(r["ok"] for r in flat if r["name"] != "ach3")
    digest = hashlib.sha256(fileio.canonical_json(listing).encode()).hexdigest()
    assert (len(flat), digest) == (
        456,
        "7084670225f79721a641afb9014057210f829983f0eeeabe92810941070ebd7f",
    )


def test_uvdw_checks_reciprocity_on_cached_superinductions():
    """verify_uvdw reuses the certificate's cached superinductions; a wrong
    one must still trip the reciprocity assert."""
    fam = make_family(builtin_group("s4"), "classical")
    ns = NSystem(fam, [1, 2, 3, 4, 5])
    cert = next(
        c
        for c in (find_uvdw_certificate(fam, sub).certificate for sub in fam.subgroups)
        if c is not None and c.terms
    )
    assert verify_uvdw(ns, cert).ok
    data = nsystems._certificate_data(fam, cert)
    term = data["terms"][0]
    right = term["sind"]
    wrong = right.theory.superclass_function([2 * v for v in right.block_values()])
    assert ns.n_top(wrong) != ns.n_top(right)
    term["sind"] = wrong
    try:
        with pytest.raises(AssertionError, match="Super Frobenius Reciprocity violated"):
            verify_uvdw(ns, cert)
    finally:
        term["sind"] = right


@pytest.mark.parametrize("spec", ["s4", "d6", "q16"])
def test_n_sigma_rows_match_fraction_sums(spec):
    """n(H, sigma_Y) from the integer rows equals sum_X coeffs[X] R[X][Y]
    summed directly in Fractions, over random signed bases."""
    fam = make_family(builtin_group(spec), "classical")
    rng = random.Random(f"rows/{spec}")
    for _ in range(3):
        ns = NSystem(fam, _rand_base(fam.top_theory.n_blocks, rng))
        for sub in fam.subgroups:
            rmat = nsystems._restriction_matrix(fam, sub)
            for y in range(fam.theory_for(sub).n_blocks):
                want = sum(
                    (c * Fraction(rmat[x][y]) for x, c in enumerate(ns.coeffs)), Fraction(0)
                )
                assert ns.n_sigma(sub, y) == want
