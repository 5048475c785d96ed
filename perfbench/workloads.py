"""The four workloads.  Each builds its inputs from the seed, hands the
program only those inputs, and checks every op's output.

An op is ``Op(label, run, check, cold)``: ``run()`` is the timed call
into the program; ``check(result)`` runs untimed afterwards and returns a
list of problems (empty when the answer is right).  Before a ``cold`` op
the loop empties the program's caches and collects garbage, so that the
op starts as in a fresh interpreter whatever ran before it.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

#: seconds a single CLI child may take before it counts as a failure
CHILD_TIMEOUT_S = 120


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any], List[str]]
    cold: bool = False


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text())


# -- groups by name --------------------------------------------------------------


def _agl1(p: int, g: int):
    """AGL(1, p) on {0..p-1}: x -> x + 1 and x -> g x, g a primitive root."""
    return p, [[(x + 1) % p for x in range(p)], [(g * x) % p for x in range(p)]]


PERMUTATION_GROUPS = {
    "agl1_5": _agl1(5, 2),
    "agl1_7": _agl1(7, 3),
    "agl1_13": _agl1(13, 2),
    # C2 wr C4 on 8 points: swap within the first pair, rotate the pairs
    "c2wrc4": (8, [[1, 0, 2, 3, 4, 5, 6, 7], [2, 3, 4, 5, 6, 7, 0, 1]]),
    # direct products on disjoint points
    "c2xa5": (7, [[1, 2, 3, 4, 0, 5, 6], [1, 2, 0, 3, 4, 5, 6], [0, 1, 2, 3, 4, 6, 5]]),
    "c3xa4": (7, [[1, 2, 0, 3, 4, 5, 6], [1, 0, 3, 2, 4, 5, 6], [0, 1, 2, 3, 5, 6, 4]]),
    "c2xc2xc4": (8, [[1, 0, 2, 3, 4, 5, 6, 7], [0, 1, 3, 2, 4, 5, 6, 7], [0, 1, 2, 3, 5, 6, 7, 4]]),
}


def build_group(sc, name: str):
    if name in PERMUTATION_GROUPS:
        degree, gens = PERMUTATION_GROUPS[name]
        return sc.group_from_permutations(degree, gens, name=name)
    return sc.builtin_group(name)


def _divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def _divisor_sum(n: int) -> int:
    return sum(d for d in range(1, n + 1) if n % d == 0)


def _is_prime(n: int) -> bool:
    return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))


def closed_form_subgroup_count(name: str):
    """Subgroup counts known in closed form, else None.

    C_n has d(n) subgroups, D_n (order 2n) has d(n) + sigma(n), and the
    dicyclic Q_4m has d(2m) + sigma(m).
    """
    kind, n = name[0], name[1:]
    if not n.isdigit() or name in PERMUTATION_GROUPS:
        return None
    n = int(n)
    if kind == "c":
        return _divisor_count(n)
    if kind == "d":
        return _divisor_count(n) + _divisor_sum(n)
    if kind == "q":
        return _divisor_count(n // 2) + _divisor_sum(n // 4)
    return None


def closed_form_theory_count(name: str):
    """C_p has d(p - 1) supercharacter theories; C3 and S3 have exactly 2."""
    if name in ("c3", "s3"):
        return 2
    if name[0] == "c" and name[1:].isdigit() and _is_prime(int(name[1:])):
        return _divisor_count(int(name[1:]) - 1)
    return None


# -- tables: cold, table-heavy pass over a fixed zoo --------------------------------

# Ten groups under 0.07 s, five of 0.08-0.1 s, eight of 0.15-0.25 s,
# and d30, the ROADMAP's Dixon baseline, at 3-5 s: a pass of about 7 s,
# so that a run repeats every op at least three times.  The median and
# the tail rank (the 11th largest op) fall inside the 0.08-0.1 s
# cluster, where neighbouring ops cost nearly the same; a rank between
# two clusters would jump with the machine's noise.  c11-c24, d13,
# d15-d18, q32 and AGL(1,13) would each add 0.4-15 s a pass.
TABLES_ZOO = (
    "s4", "a4", "a5", "q8", "q12", "q16", "c6", "d6", "d8", "d9",
    "d12", "q24", "agl1_7", "q20", "c7",
    "s5", "c9", "c10", "c2wrc4", "d14", "q28", "c2xa5", "c3xa4",
    "d30",
)


class Tables:
    name = "tables"

    def __init__(self, sc, oracles, pins):
        self.sc, self.oracles, self.pins = sc, oracles, pins["tables"]
        from superchar import chartab, fileio

        self.chartab, self.fileio = chartab, fileio

    def setup(self, seed: int):
        return random.Random(f"tables/{seed}")

    def ops(self, rng) -> List[Op]:
        """The run's ops: every group once, in seeded order, each with a
        seeded Dixon seed."""
        order = list(TABLES_ZOO)
        rng.shuffle(order)
        return [self._op(name, rng.randrange(1 << 16)) for name in order]

    def _op(self, name: str, dixon_seed: int) -> Op:
        sc, fileio = self.sc, self.fileio

        def run():
            G = build_group(sc, name)
            cls = sc.conjugacy_classes(G)
            self.chartab.class_mult_coeffs(G)
            table = sc.dixon_character_table(G, seed=dixon_seed)
            report = sc.verify_orthogonality(table)
            theories = (sc.classical_theory(table), sc.maximal_theory(table))
            text = fileio.canonical_json(fileio.table_to_obj(table))
            fingerprint = fileio.table_fingerprint(table)
            back = fileio.decode_table(G, json.loads(text))
            return G, cls, table, report, theories, fingerprint, back

        def check(result):
            G, cls, table, report, (classical, maximal), fingerprint, back = result
            problems = []
            if not report.ok:
                problems.append(f"orthogonality fails: {report.violations[:2]}")
            if sum(d * d for d in table.degrees) != G.order:
                problems.append("sum of squared degrees is not |G|")
            n_linear = G.order // len(self.oracles.commutator_subgroup(G.mul))
            allowed = self.oracles.degree_multisets(G.order, len(cls), n_linear)
            if tuple(table.degrees) not in allowed:
                problems.append(f"degrees {table.degrees} not allowed by the oracle")
            if classical.n_blocks != len(cls) or maximal.n_blocks != min(2, len(cls)):
                problems.append("classical or maximal theory has the wrong block count")
            if back != table:
                problems.append("chartable/v1 round trip changed the table")
            if fingerprint != self.pins[name]["fingerprint"]:
                problems.append(f"fingerprint {fingerprint} != pinned")
            return problems

        return Op(name, run, check, cold=True)


# -- families: cold lattice, family, certificate and enumeration pass ----------------

# About 7 s a pass, 5.5 s of it a5, whose lattice is the ROADMAP's
# baseline and the only group here with subgroups that have no
# certificate.  d6 and q12 (enumeration, 1.5 s each), q16 (1 s), d12 and
# q24 (certificates, 2-4 s) would push a pass past a third of a run.
FAMILIES_ZOO = ("c3", "c5", "s3", "s4", "d4", "d5", "q8", "a4", "a5", "agl1_5")
ENUMERATE_MAX_CLASSES = 6


class Families:
    name = "families"

    def __init__(self, sc, oracles, pins):
        self.sc, self.pins = sc, pins["families"]

    def setup(self, seed: int):
        return random.Random(f"families/{seed}")

    def ops(self, rng) -> List[Op]:
        """The run's ops: every group's ops, groups in seeded order."""
        order = list(FAMILIES_ZOO)
        rng.shuffle(order)
        ops: List[Op] = []
        for name in order:
            ops.extend(self._ops(name, rng.randrange(1 << 16)))
        return ops

    def _ops(self, name: str, dixon_seed: int) -> List[Op]:
        sc, pin = self.sc, self.pins[name]
        state: Dict[str, Any] = {}
        want_subgroups = closed_form_subgroup_count(name) or pin["subgroups"]

        def lattice():
            state["G"] = G = build_group(sc, name)
            state["subgroups"] = sc.enumerate_subgroups(G)
            return state["subgroups"]

        def check_lattice(subs):
            return [] if len(subs) == want_subgroups else [f"{len(subs)} subgroups"]

        def family(kind):
            def run():
                state[kind] = sc.make_family(state["G"], kind, seed=dixon_seed)
                return state[kind]

            def check(fam):
                problems = []
                if len(fam.subgroups) != want_subgroups or fam.label != kind:
                    problems.append("family has the wrong subgroups or label")
                for sub in fam.subgroups:
                    theory = fam.theory_for(sub)
                    want = len(theory.classes) if kind == "classical" else min(2, len(theory.classes))
                    if theory.n_blocks != want:
                        problems.append(f"theory on {sub.elements} has {theory.n_blocks} blocks")
                        break
                return problems

            return Op(f"{name}.family.{kind}", run, check)

        def certificates():
            fam = state["classical"]
            return [
                i
                for i, sub in enumerate(fam.subgroups)
                if sc.find_uvdw_certificate(fam, sub).certificate is not None
            ]

        def check_certificates(found):
            return [] if found == pin["found"] else [f"certificates found for {found}"]

        ops = [
            Op(f"{name}.lattice", lattice, check_lattice, cold=True),
            family("classical"),
            family("maximal"),
            Op(f"{name}.certificates", certificates, check_certificates),
        ]
        if pin["classes"] <= ENUMERATE_MAX_CLASSES:
            want_theories = closed_form_theory_count(name) or pin["theories"]

            def enumerate_():
                fam = state["classical"]
                return sc.enumerate_theories(fam.top_theory.table)

            def check_enumerate(theories):
                n = len(theories)
                return [] if n == want_theories else [f"{n} theories, want {want_theories}"]

            ops.append(Op(f"{name}.enumerate", enumerate_, check_enumerate))
        return ops


# -- nsys: warm verifier queries on shared families ------------------------------------

# family -> queries per run (about 5 s a pass).  The two costly families
# hold 75 of 120 queries, so the median lies inside their cluster of op
# times rather than in the gap between two clusters.
NSYS_FAMILIES = {"s4/classical": 40, "q16/classical": 35, "d6/classical": 30, "s4/maximal": 15}
NSYS_BASE_MAX = 9  # nonnegative bases keep ach3 true, so every report is ok


class NSys:
    name = "nsys"

    def __init__(self, sc, oracles, pins):
        self.sc = sc

    def setup(self, seed: int):
        sc = self.sc
        families, certs = {}, {}
        for key in NSYS_FAMILIES:
            group, kind = key.split("/")
            fam = sc.make_family(sc.builtin_group(group), kind)
            families[key] = fam
            certs[key] = []
            if kind == "classical":
                for sub in fam.subgroups:
                    cert = sc.find_uvdw_certificate(fam, sub).certificate
                    if cert is not None:
                        certs[key].append(cert)
        state = {"families": families, "certs": certs}
        for key in NSYS_FAMILIES:  # one warm-up query per family
            op = self._op(state, key, [1] * families[key].top_theory.n_blocks)
            problems = op.check(op.run())
            if problems:
                raise RuntimeError(f"warm-up query on {key} failed: {problems}")
        state["rng"] = random.Random(f"nsys/{seed}")
        return state

    def draw(self, state) -> List[Tuple[str, List[int]]]:
        """The run's queries: each family its share, in seeded order,
        each with a seeded base."""
        rng = state["rng"]
        keys = [key for key, count in NSYS_FAMILIES.items() for _ in range(count)]
        rng.shuffle(keys)
        return [
            (key, [rng.randint(0, NSYS_BASE_MAX) for _ in range(state["families"][key].top_theory.n_blocks)])
            for key in keys
        ]

    def ops(self, state) -> List[Op]:
        return [self._op(state, key, base) for key, base in self.draw(state)]

    def _op(self, state, key: str, base: List[int]) -> Op:
        sc = self.sc
        fam, certs = state["families"][key], state["certs"][key]

        def run():
            ns = sc.NSystem(fam, base)
            reports = [sc.verify_artin_takagi(ns), sc.check_ach3(ns)]
            reports += [sc.verify_heilbronn_stark(ns, sub) for sub in fam.subgroups]
            reports += [sc.verify_uvdw(ns, cert) for cert in certs]
            return reports

        def check(reports):
            problems = [f"{r.name} not ok: {r.violations[:1]}" for r in reports if not r.ok]
            want = str(sum(base))
            at = reports[0].details
            if at.get("sum_of_base") != want or at.get("n_regular") != want:
                problems.append(f"n(G, Reg) is {at.get('n_regular')}, want {want}")
            return problems

        return Op(f"{key} base={','.join(map(str, base))}", run, check)


# -- cli: one child process per command, cold caches every call ----------------------

# Commands grouped by cost.  A run runs every command, in an order drawn
# from the seed, once a pass: drawing a subset instead would make the
# cost of a pass, and so ops_per_s, depend on the seed.  A pass takes
# about 7 s, so that a run repeats every command at least three times;
# the a5 certificate searches (3 s each) and the a6 order-cap rejection
# (3 s, the group is built before the cap is checked) would each add half
# as much again.  A command is one CLI call or a file round trip of two.
# "{work}" is the run's scratch directory.
CLI_COMMANDS: Tuple[Tuple[str, Tuple[str, ...]], ...] = (
    # about 0.15-0.25 s each: start-up and import dominate
    ("cheap", (
        "group check --builtin s4",
        "group info --builtin d6",
        "group info --builtin a4",
        "table compute --builtin s4",
        "sct verify --builtin d4 --theory {work}/max5.sct.json",
        "sct verify --builtin q8 --theory {work}/bad5.sct.json",
        "sct compat --builtin s3 --subgroup A3",
        "sind --builtin s4 --subgroup derived --values 1,0,2,1",
    )),
    # about 0.25-0.5 s each
    ("mid", (
        "table compute --builtin a4 --output {work}/a4.table.json"
        " && table verify --builtin a4 --table {work}/a4.table.json",
        "sct enumerate --builtin d4",
        "sct enumerate --builtin q8",
        "family check --builtin s4 --family classical",
        "nsys build --builtin s3 --family classical --base 1,0,2 --output {work}/s3.nsys.json"
        " && nsys verify --builtin s3 --family classical --nsys {work}/s3.nsys.json"
        " --theorem artin-takagi",
        "nsys theta --builtin s4 --family classical --base 1,0,2,1,3 --subgroup derived",
        "nsys verify --builtin s4 --family classical --base 1,0,2,1,3 --theorem heilbronn-stark",
        "nsys verify --builtin d6 --family classical --base 1,0,2,1,3,0 --theorem ach3",
        "nsys verify --builtin s4 --family classical --base 1,0,2,1,3 --theorem ach3",
        "uvdw find --builtin q16 --subgroup #4",
        "uvdw find --builtin d4 --subgroup #3 --output {work}/d4-3.uvdw.json"
        " && nsys verify --builtin d4 --family classical --base 2,1,0,1,1 --theorem uvdw"
        " --cert {work}/d4-3.uvdw.json",
    )),
    # about 0.8 s
    ("heavy", (
        "family check --builtin d12 --family maximal",
    )),
    # bad input: exit code 2 expected
    ("rejected", (
        "group check --builtin d101",
        "table compute --builtin d101",
        "nsys build --builtin s3 --family classical --base 1,x,2",
        "nsys verify --builtin d4 --family classical --base a --theorem ach3",
    )),
)

# sct/v1 files the sct verify commands read: the maximal theory of any group
# with five classes, and a pair of partitions that is not a theory
CLI_FILES = {
    "max5.sct.json": {
        "schema": "sct/v1",
        "irr_partition": [[0], [1, 2, 3, 4]],
        "class_partition": [[0], [1, 2, 3, 4]],
    },
    "bad5.sct.json": {
        "schema": "sct/v1",
        "irr_partition": [[0], [1], [2, 3, 4]],
        "class_partition": [[0], [1, 2], [3, 4]],
    },
}


def subcommand(argv: List[str]) -> str:
    return argv[0] if argv[0] == "sind" else f"{argv[0]}-{argv[1]}"


def cli_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("SUPERCHAR_MAX_ORDER", None)
    return env


def run_cli(argv: List[str], env) -> Tuple[int, str]:
    """Run one CLI command in a fresh interpreter; (exit code, sha256 of stdout)."""
    proc = subprocess.run(
        [sys.executable, "-m", "superchar.cli", *argv, "--format", "json"],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.DEVNULL,
        timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, hashlib.sha256(proc.stdout).hexdigest()


class Cli:
    name = "cli"

    def __init__(self, sc, oracles, pins):
        self.sc, self.pins = sc, pins["cli"]

    def setup(self, seed: int):
        work = WORK / "cli"
        work.mkdir(parents=True, exist_ok=True)
        for name, obj in CLI_FILES.items():
            (work / name).write_text(json.dumps(obj) + "\n")
        return {"rng": random.Random(f"cli/{seed}"), "work": work, "env": cli_env()}

    def draw(self, state) -> List[Tuple[str, str]]:
        """The run's commands: every (cost group, command), in seeded order."""
        picks = [(group, command) for group, commands in CLI_COMMANDS for command in commands]
        state["rng"].shuffle(picks)
        return picks

    def ops(self, state) -> List[Op]:
        return [self._op(state, group, command) for group, command in self.draw(state)]

    def _op(self, state, group: str, variant: str) -> Op:
        commands = [c.split() for c in variant.format(work=state["work"]).split(" && ")]
        rejected = group == "rejected"

        def run():
            records = []
            for argv in commands:
                t0 = perf_counter()
                code, digest = run_cli(argv, state["env"])
                name = "rejected" if rejected else subcommand(argv)
                records.append((name, perf_counter() - t0, code, digest))
            return records

        def check(records):
            want = self.pins[variant]
            got = [[code, digest] for _name, _dt, code, digest in records]
            return [] if got == want else [f"exit codes / stdout digests {got} != pinned {want}"]

        return Op(variant, run, check)


WORKLOADS = {w.name: w for w in (Tables, Families, NSys, Cli)}
