"""Command-line interface: deterministic, file-based access to every
pipeline stage.

Each subcommand is a row of ``COMMANDS``: words, handler, help, the flags
it adds to the common ones (defined in ``FLAGS``) and the library
exceptions it reports as verified-false.  The parser is built from these
tables, and ``main`` runs every command the same way: check the caps,
resolve the group (its order is checked before it is built or
validated), call the handler, print.  A handler
``(args, G) -> (ok, payload, lines)`` computes and never prints:
``payload`` is the JSON output, ``lines`` the text output, and ``ok``
selects exit 0 or 1.

Exit codes: 0 success/verified, 1 verified-false (witness printed),
2 usage, validation or file-write error.  With ``--format json`` the
output is canonical JSON, byte-stable for fixed inputs.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from . import fileio
from .chartab import dixon_character_table, verify_orthogonality
from .errors import (
    IncompatibleFamily,
    NotAGroup,
    NotAPartition,
    NotASupercharacterTheory,
    SchemaError,
    SupercharError,
)
from .groups import (
    DEFAULT_MAX_ORDER,
    FiniteGroup,
    Subgroup,
    builtin_group,
    builtin_order,
    conjugacy_classes,
    derived_subgroup,
    element_order,
    enumerate_subgroups,
    subgroup_from_elements,
    trivial_subgroup,
    whole_subgroup,
)
from .nsystems import (
    NSystem,
    check_ach3,
    find_uvdw_certificate,
    verify_artin_takagi,
    verify_heilbronn_stark,
    verify_uvdw,
)
from .theories import (
    DEFAULT_SEARCH_BUDGET,
    classical_theory,
    enumerate_theories,
    is_compatible,
    make_family,
    maximal_theory,
    superinduce,
)

EXIT_OK = 0
EXIT_FALSE = 1
EXIT_USAGE = 2


def _resolve_group(args) -> FiniteGroup:
    if (args.group is None) == (args.builtin is None):
        raise SchemaError("exactly one of --group FILE or --builtin NAME is required")
    if args.group is not None:
        return fileio.load_group(args.group, max_order=args.max_order)
    if builtin_order(args.builtin, args.max_order) > args.max_order:
        raise SchemaError(
            f"order of {args.builtin} exceeds cap {args.max_order} "
            f"(set SUPERCHAR_MAX_ORDER or --max-order to raise it)"
        )
    return builtin_group(args.builtin)


def _comma_list(text: str, convert, message: str) -> list:
    try:
        return [convert(t) for t in text.split(",")]
    except (ValueError, ZeroDivisionError):
        raise SchemaError(message) from None


def _parse_subgroup(args, G: FiniteGroup) -> Subgroup:
    """Subgroup spec: 'trivial', 'whole', 'derived', '#k' (canonical
    index), 'Ak' (alternating part of a symmetric group, i.e. the derived
    subgroup of expected order k!/2), or comma-separated elements."""
    spec = args.subgroup.strip()
    if spec == "trivial":
        return trivial_subgroup(G)
    if spec in ("whole", "G"):
        return whole_subgroup(G)
    if spec == "derived":
        return derived_subgroup(G)
    if spec.startswith("#"):
        subs = enumerate_subgroups(G, max_order=args.max_order)
        k = int(spec[1:])
        if not 0 <= k < len(subs):
            raise SchemaError(f"subgroup index {k} out of range 0..{len(subs) - 1}")
        return subs[k]
    if len(spec) > 1 and spec[0] in "aA" and spec[1:].isdigit():
        sub = derived_subgroup(G)
        if builtin_order(spec, G.order) != sub.order:  # |A_k| = k!/2
            raise SchemaError(
                f"no alternating subgroup {spec} (derived subgroup has order {sub.order})"
            )
        return sub
    elements = _comma_list(spec, int, f"cannot parse subgroup spec {spec!r}")
    return subgroup_from_elements(G, elements)


def _family_subgroup(args, G: FiniteGroup, family) -> Subgroup:
    return family.subgroup_by_elements(_parse_subgroup(args, G).elements)


def _table(args, G: FiniteGroup):
    return dixon_character_table(G, prime=args.prime)


def _theory_from_choice(table, choice: str):
    if choice == "classical":
        return classical_theory(table)
    if choice == "maximal":
        return maximal_theory(table)
    return fileio.load_theory(table, choice)


def _subgroup_and_theories(args, G: FiniteGroup):
    """--subgroup, the --theory of G and the --sub-theory of the subgroup."""
    sub = _parse_subgroup(args, G)
    big_theory = _theory_from_choice(_table(args, G), args.theory)
    sub_table = dixon_character_table(sub.local)
    sub_theory = _theory_from_choice(sub_table, args.sub_theory)
    return sub, big_theory, sub_theory


def _family(args, G: FiniteGroup):
    if args.family in ("classical", "maximal"):
        subgroups = enumerate_subgroups(G, max_order=args.max_order)
        return make_family(G, args.family, subgroups=subgroups, prime=args.prime)
    return fileio.load_family(G, args.family, prime=args.prime)


def _block_values(function, label: str = "") -> Tuple[dict, List[str]]:
    """The K-block values of a superclass function: JSON map and text lines."""
    blocks = list(enumerate(function.block_values()))
    return {f"K{k}": str(v) for k, v in blocks}, [f"  {label}K{k}: {v}" for k, v in blocks]


def _report(report):
    """A verifier report as a result: ok, payload and lines."""
    payload = {
        "check": report.name,
        "ok": report.ok,
        "details": report.details,
        "witness": report.violations,
        "warnings": report.warnings,
    }
    lines = [f"{report.name}: {'ok' if report.ok else 'FAILED'}"]
    lines += [f"  {k} = {v}" for k, v in report.details.items()]
    lines += [f"  violation: {v}" for v in report.violations]
    lines += [f"  warning: {w}" for w in report.warnings]
    return report.ok, payload, lines


def _certificate_search(args, G: FiniteGroup, family):
    """Certificate search on --subgroup: the search and its not-found payload."""
    search = find_uvdw_certificate(family, _family_subgroup(args, G, family), budget=args.budget)
    return search, {"found": False, "exhausted": search.exhausted, "nodes": search.nodes}


def _refusal(exc: SupercharError) -> Tuple[dict, str]:
    """Witness and text line of a refusal a command reports with exit 1."""
    if isinstance(exc, NotAGroup):
        return {"reason": exc.reason}, f"not a group: {exc.reason}"
    if isinstance(exc, IncompatibleFamily):
        witness = {"h1": list(exc.h1_elements), "h2": list(exc.h2_elements), "element": exc.witness}
        return witness, f"family incompatible: {exc}"
    if isinstance(exc, NotASupercharacterTheory):
        witness = {"condition": exc.condition, "message": str(exc), **exc.witness}
    else:
        witness = {"message": str(exc)}
    return witness, f"not a supercharacter theory: {exc}"


def cmd_group_check(args, G):
    payload = {"ok": True, "name": G.name, "order": G.order, "exponent": G.exponent}
    return True, payload, [f"{G.name}: group of order {G.order}, exponent {G.exponent}"]


def cmd_group_info(args, G):
    cls = conjugacy_classes(G)
    subs = enumerate_subgroups(G, max_order=args.max_order)
    payload = {
        "name": G.name,
        "order": G.order,
        "exponent": G.exponent,
        "class_reps": list(cls.representatives),
        "class_sizes": list(cls.sizes),
        "element_orders": [element_order(G, g) for g in range(G.order)],
        "subgroups": [list(s.elements) for s in subs],
    }
    lines = [
        f"{G.name}: order {G.order}, exponent {G.exponent}",
        f"conjugacy classes ({len(cls)}): "
        + " ".join(f"C{i}=rep {r},size {s}" for i, (r, s) in enumerate(zip(cls.representatives, cls.sizes))),
        f"subgroups ({len(subs)}):",
    ]
    lines += [f"  #{i}: order {s.order}, elements {list(s.elements)}" for i, s in enumerate(subs)]
    return True, payload, lines


def cmd_table_compute(args, G):
    table = _table(args, G)
    if args.output:
        fileio.save_table(table, args.output)
    payload = fileio.table_to_obj(table)
    payload["fingerprint"] = fileio.table_fingerprint(table)
    lines = [
        f"character table of {G.name} ({len(table)} classes), "
        f"fingerprint {payload['fingerprint']}",
        "degrees: " + " ".join(str(d) for d in table.degrees),
    ]
    lines += [f"chi{i}: " + "  ".join(str(v) for v in row.values) for i, row in enumerate(table.rows)]
    return True, payload, lines


def cmd_table_verify(args, G):
    report = verify_orthogonality(fileio.decode_table(G, args.table))
    lines = [f"orthogonality: {'ok' if report.ok else 'FAILED'}"]
    lines += [f"  violation: {v}" for v in report.violations]
    return report.ok, {"ok": report.ok, "witness": report.violations}, lines


def cmd_sct_verify(args, G):
    theory = fileio.load_theory(_table(args, G), args.theory)
    lines = [f"valid theory with {theory.n_blocks} blocks"]
    for x, (xb, kb) in enumerate(zip(theory.irr_blocks, theory.class_blocks)):
        elems = theory.element_blocks[x]
        lines.append(f"X{x}={list(xb)}  K{x}=classes {list(kb)} elements {list(elems)}")
    return True, {"ok": True, "theory": fileio.theory_to_obj(theory)}, lines


def cmd_sct_enumerate(args, G):
    theories = enumerate_theories(_table(args, G), budget=args.budget)
    partitions = [
        ([list(b) for b in t.irr_blocks], [list(b) for b in t.class_blocks]) for t in theories
    ]
    payload = {
        "group": G.name,
        "count": len(theories),
        "theories": [{"irr_partition": x, "class_partition": k} for x, k in partitions],
    }
    lines = [f"{len(theories)} supercharacter theories of {G.name}"]
    lines += [f"[{i}] X={x} K={k}" for i, (x, k) in enumerate(partitions)]
    return True, payload, lines


def cmd_sct_compat(args, G):
    sub, big_theory, sub_theory = _subgroup_and_theories(args, G)
    ok, witness = is_compatible(sub_theory, big_theory, sub.elements)
    payload = {"ok": ok, "subgroup": list(sub.elements)}
    if not ok:
        payload["witness"] = {"element": witness}
    verdict = "compatible" if ok else f"INCOMPATIBLE (witness element {witness})"
    return ok, payload, [f"theories on {list(sub.elements)} <= {G.name}: {verdict}"]


def cmd_sind(args, G):
    sub, big_theory, sub_theory = _subgroup_and_theories(args, G)
    values = _comma_list(
        args.values, Fraction, f"values must be comma-separated rationals, got {args.values!r}"
    )
    if len(values) != sub_theory.n_blocks:
        raise SchemaError(
            f"expected {sub_theory.n_blocks} block values for the subgroup theory, "
            f"got {len(values)}"
        )
    phi = sub_theory.superclass_function(values)
    values_map, lines = _block_values(superinduce(phi, big_theory, sub.elements))
    payload = {"subgroup": list(sub.elements), "values": values_map}
    return True, payload, [f"Sind from {list(sub.elements)} to {G.name}:"] + lines


def cmd_family_check(args, G):
    family = _family(args, G)
    if args.output:
        fileio.save_family(family, args.output)
    payload = {
        "ok": True,
        "label": family.label,
        "subgroups": [list(s.elements) for s in family.subgroups],
    }
    lines = [
        f"compatible {family.label} family on {G.name} "
        f"with {len(family.subgroups)} subgroups"
    ]
    return True, payload, lines


def _nsystem(args, G) -> NSystem:
    family = _family(args, G)
    if args.nsys:
        return fileio.load_nsystem(family, args.nsys)
    if args.base is None:
        raise SchemaError("one of --base or --nsys is required")
    base = _comma_list(args.base, int, f"base must be comma-separated integers, got {args.base!r}")
    return NSystem(family, base)


def cmd_nsys_build(args, G):
    ns = _nsystem(args, G)
    if args.output:
        fileio.save_nsystem(ns, args.output)
    payload = fileio.nsystem_to_obj(ns)
    payload["theta"], lines = _block_values(ns.theta_top, "Theta ")
    head = f"n-system on {G.name} ({ns.family.label} family), base {list(ns.base)}"
    return True, payload, [head] + lines


def cmd_nsys_theta(args, G):
    ns = _nsystem(args, G)
    sub = _family_subgroup(args, G, ns.family)
    theta, lines = _block_values(ns.theta(sub))
    payload = {"subgroup": list(sub.elements), "theta": theta}
    return True, payload, [f"Theta on subgroup {list(sub.elements)}:"] + lines


def cmd_nsys_verify(args, G):
    ns = _nsystem(args, G)
    family = ns.family
    if args.theorem == "artin-takagi":
        return _report(verify_artin_takagi(ns))
    if args.theorem == "ach3":
        return _report(check_ach3(ns))
    if args.theorem == "heilbronn-stark":
        subs = [_family_subgroup(args, G, family)] if args.subgroup else family.subgroups
        reports = [verify_heilbronn_stark(ns, sub) for sub in subs]
        ok = all(r.ok for r in reports)
        payload = {"ok": ok, "reports": [_report(r)[1] for r in reports]}
        lines = []
        for sub, r in zip(subs, reports):
            lines.append(f"heilbronn-stark on {list(sub.elements)}: {'ok' if r.ok else 'FAILED'}")
            lines += [f"  violation: {v}" for v in r.violations]
        return ok, payload, lines
    # uvdw
    if args.cert:
        cert = fileio.load_certificate(family, args.cert)
    else:
        if not args.subgroup:
            raise SchemaError("uvdw verification needs --cert FILE or --subgroup SPEC")
        search, not_found = _certificate_search(args, G, family)
        if search.certificate is None:
            return False, {"ok": False, "witness": not_found}, ["no certificate found within budget"]
        cert = search.certificate
    return _report(verify_uvdw(ns, cert))


def cmd_uvdw_find(args, G):
    search, not_found = _certificate_search(args, G, _family(args, G))
    if search.certificate is None:
        status = "budget exhausted" if search.exhausted else "search space exhausted"
        return False, not_found, [f"no certificate found ({status}, {search.nodes} nodes)"]
    cert = search.certificate
    if args.output:
        fileio.save_certificate(cert, args.output)
    payload = {"found": True, "nodes": search.nodes, "certificate": fileio.certificate_to_obj(cert)}
    lines = [f"certificate for H = {list(cert.subgroup.elements)} ({search.nodes} nodes):"]
    lines += [
        f"  Hi = {list(hi.elements)}, sigma blocks {['X%d' % b for b in blocks]}"
        for hi, blocks in cert.terms
    ] or ["  (empty decomposition: Sind 1_H = 1_G)"]
    return True, payload, lines


THEORY = "classical | maximal | sct/v1 file"
THEOREMS = ["artin-takagi", "heilbronn-stark", "uvdw", "ach3"]
SUBGROUP = "trivial | whole | derived | #k | Ak | comma-separated elements"

# name -> (option, argparse keywords); two names share an option that two
# commands define differently
FLAGS = {
    "group": ("--group", dict(help="group file (group/v1 JSON)")),
    "builtin": ("--builtin", dict(help="built-in group: cN, sN, dN, qN or aN")),
    "format": ("--format", dict(choices=["text", "json"], default="text")),
    "seed": ("--seed", dict(type=int, default=0, help="accepted for compatibility; has no effect")),
    "prime": ("--prime", dict(type=int, help="Dixon prime override")),
    "max-order": ("--max-order", dict(type=int, help="group order cap (else $SUPERCHAR_MAX_ORDER)")),
    "output": ("--output", dict(help="write the result to this file")),
    "table": ("--table", dict(required=True, help="chartable/v1 file")),
    "theory-file": ("--theory", dict(required=True, help="sct/v1 file")),
    "theory": ("--theory", dict(default="classical", help=THEORY)),
    "sub-theory": ("--sub-theory", dict(default="classical", help=THEORY)),
    "subgroup": ("--subgroup", dict(required=True, help=SUBGROUP)),
    "subgroup-opt": ("--subgroup", dict(help=SUBGROUP)),
    "values": ("--values", dict(required=True, help="one rational per subgroup K-block")),
    "family": ("--family", dict(default="classical", help="classical | maximal | family/v1 file")),
    "base": ("--base", dict(help="comma-separated integers, one per top X-block")),
    "nsys": ("--nsys", dict(help="nsys/v1 file instead of --base")),
    "theorem": ("--theorem", dict(required=True, choices=THEOREMS)),
    "cert": ("--cert", dict(help="uvdw/v1 certificate file")),
    "budget": ("--budget", dict(type=int, default=DEFAULT_SEARCH_BUDGET, help="max search nodes")),
}
COMMON_FLAGS = ("group", "builtin", "format", "seed", "prime", "max-order")

GROUP_HELP = {
    "group": "group input checks",
    "table": "character tables",
    "sct": "supercharacter theories",
    "family": "compatible families",
    "nsys": "integer systems on supercharacters",
    "uvdw": "decomposition certificates",
}

# (words, handler, help, flags beyond COMMON_FLAGS, library exceptions the
# command reports as verified-false with exit 1)
NSYS = ("family", "base", "nsys")
COMMANDS = (
    ("group check", cmd_group_check, "verify the group axioms", (), (NotAGroup,)),
    ("group info", cmd_group_info, "classes, element orders and subgroups", (), ()),
    ("table compute", cmd_table_compute, "exact character table via Dixon's method",
     ("output",), ()),
    ("table verify", cmd_table_verify, "check a table file against the orthogonality relations",
     ("table",), ()),
    ("sct verify", cmd_sct_verify, "validate a theory file", ("theory-file",),
     (NotASupercharacterTheory, NotAPartition)),
    ("sct enumerate", cmd_sct_enumerate, "list every supercharacter theory", ("budget",), ()),
    ("sct compat", cmd_sct_compat, "check subgroup-theory compatibility",
     ("subgroup", "theory", "sub-theory"), ()),
    ("sind", cmd_sind, "superinduce a superclass function",
     ("subgroup", "theory", "sub-theory", "values"), ()),
    ("family check", cmd_family_check, "build a family and verify pairwise compatibility",
     ("family", "output"), (IncompatibleFamily,)),
    ("nsys build", cmd_nsys_build, "build an n-system and print its Theta on G",
     NSYS + ("output",), ()),
    ("nsys theta", cmd_nsys_theta, "Theta of an n-system on a subgroup of its family",
     NSYS + ("subgroup",), ()),
    ("nsys verify", cmd_nsys_verify, "check a theorem on an n-system",
     NSYS + ("theorem", "subgroup-opt", "cert", "budget"), ()),
    ("uvdw find", cmd_uvdw_find, "search for a decomposition certificate",
     ("family", "subgroup", "budget", "output"), ()),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="superchar",
        description="Exact supercharacter theories and arithmetic invariants of finite groups.",
    )
    # the budget of the commands without --budget, so every command has one
    parser.set_defaults(budget=DEFAULT_SEARCH_BUDGET)
    top = parser.add_subparsers(dest="command", required=True)
    groups = {
        word: top.add_parser(word, help=text).add_subparsers(dest="sub", required=True)
        for word, text in GROUP_HELP.items()
    }
    for words, run, text, flags, refuses in COMMANDS:
        *group, name = words.split()
        p = (groups[group[0]] if group else top).add_parser(name, help=text)
        for flag in COMMON_FLAGS + flags:
            option, keywords = FLAGS[flag]
            p.add_argument(option, **keywords)
        p.set_defaults(run=run, refuses=refuses)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.max_order is None:
            args.max_order = int(os.environ.get("SUPERCHAR_MAX_ORDER", DEFAULT_MAX_ORDER))
        if min(args.max_order, args.budget) <= 0:
            raise SchemaError("caps must be positive")
        try:
            ok, payload, lines = args.run(args, _resolve_group(args))
        except args.refuses as exc:
            witness, line = _refusal(exc)
            ok, payload, lines = False, {"ok": False, "witness": witness}, [line]
    except (SupercharError, ValueError, OSError) as exc:  # OSError: a failed --output write
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(fileio.canonical_json(payload) if args.format == "json" else "\n".join(lines))
    return EXIT_OK if ok else EXIT_FALSE


if __name__ == "__main__":
    sys.exit(main())
