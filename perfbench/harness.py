"""The closed loop, set-up timing, statistics and per-layer metrics.

One client, one op in flight: the loop issues the next op only after the
previous one returned and was checked.  There is no queue and no second
thread, so there is no time spent waiting to report.

Times are wall-clock seconds at a reference machine speed (see
speed.py); the raw wall times are kept and printed too.
"""

from __future__ import annotations

import gc
import hashlib
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List

from spans import LAYERS, Tracer
from speed import Speedometer
from workloads import CLI_COMMANDS, ROOT, WORK, cli_env, subcommand

IMPORT_REPEATS = 5
SETUP_REPEATS = 3
TAIL_BEYOND = 10
#: every op runs at least this many times a run, seconds apart
MIN_PASSES = 3


# -- statistics -----------------------------------------------------------------------


def tail(samples, pass_size: int, beyond: int = TAIL_BEYOND):
    """The highest percentile with at least ``beyond`` samples above it in
    every pass of ``pass_size`` ops.

    Returns (percentile, value, sample count).  The percentile is
    100 * (pass_size - beyond) / pass_size, fixed by the pass so that it
    does not move with the number of passes a run fits; the value is the
    nearest-rank sample at that percentile.  With one pass it is the
    (pass_size - beyond)-th smallest sample.
    """
    if pass_size <= beyond:
        raise ValueError(f"{pass_size} ops a pass: no percentile has {beyond} samples beyond it")
    xs = sorted(samples)
    n = len(xs)
    passes = n // pass_size
    pct = 100.0 * (pass_size - beyond) / pass_size
    return pct, xs[passes * (pass_size - beyond) - 1], n


# -- the loop ----------------------------------------------------------------------------


@dataclass
class LoopResult:
    labels: List[str] = field(default_factory=list)  # one per op of the run
    times: List[List[float]] = field(default_factory=list)  # per op, one time per pass
    raw: List[List[float]] = field(default_factory=list)  # the same, wall seconds
    records: List[tuple] = field(default_factory=list)  # per-op run() results (cli)
    failures: List[str] = field(default_factory=list)
    busy_s: float = 0.0
    passes: int = 0

    @property
    def attempted(self) -> int:
        return len(self.labels) * self.passes

    @property
    def samples(self) -> List[float]:
        """Every op time of the run."""
        return [x for t in self.times for x in t]

    @property
    def best(self) -> List[float]:
        """Each op's fastest time over the passes."""
        return [min(t) for t in self.times]

    @property
    def ops_per_s(self) -> float:
        """Ops per second of one pass at every op's fastest time."""
        return len(self.labels) / sum(self.best)

    @property
    def raw_ops_per_s(self) -> float:
        return len(self.labels) / sum(min(t) for t in self.raw)


def clear_caches(sc) -> None:
    """Empty every process-wide cache of the program, as a fresh
    interpreter would have them."""
    prefix = sc.__name__ + "."
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith(prefix):
            continue
        for value in list(vars(module).values()):
            for target in (value, getattr(value, "__wrapped__", None)):
                if callable(getattr(target, "cache_clear", None)):
                    target.cache_clear()
                    break


def run_loop(workload, ops, seconds: float, tracer=None, keep_records=False,
             min_passes: int = MIN_PASSES) -> LoopResult:
    """Whole passes over the run's ops: at least ``min_passes``, and more
    while another pass of average length still fits in ``seconds`` of op
    time.  Op times are at the reference speed; every op runs once a
    pass, and the passes lie seconds apart."""
    out = LoopResult(labels=[op.label for op in ops], times=[[] for _ in ops], raw=[[] for _ in ops])
    with Speedometer() as meter:
        while out.passes < min_passes or out.busy_s * (out.passes + 1) / out.passes <= seconds:
            for i, op in enumerate(ops):
                if op.cold:
                    clear_caches(workload.sc)
                if op.cold or i == 0:
                    gc.collect()
                if tracer is not None:
                    tracer.op = out.passes * len(ops) + i
                result, error, wall, scaled = meter.time(op.run)
                if error is not None:  # an op that raises is a failed op
                    problems = [f"raised {type(error).__name__}: {error}"]
                    traceback.print_exception(type(error), error, error.__traceback__, file=sys.stderr)
                else:
                    try:
                        problems = op.check(result)
                    except Exception as exc:
                        problems = [f"check raised {type(exc).__name__}: {exc}"]
                    if keep_records:
                        out.records.append(result)
                out.times[i].append(scaled)
                out.raw[i].append(wall)
                out.busy_s += wall
                if problems:
                    out.failures.append(f"{op.label}: {'; '.join(problems)}")
            out.passes += 1
    if tracer is not None:
        tracer.op = -1
    return out


# -- set-up ----------------------------------------------------------------------------


def child_import_s(meter: Speedometer, module: str = "superchar") -> float:
    """Interpreter start plus import, in a fresh child, as a user pays it,
    at the reference speed."""
    _result, error, _wall, scaled = meter.time(lambda: subprocess.run(
        [sys.executable, "-c", f"import {module}"],
        cwd=ROOT,
        env=cli_env(),
        check=True,
        stdout=subprocess.DEVNULL,
    ))
    if error is not None:
        raise error
    return scaled


def timed_setup(workload, seed: int):
    """Median child import time plus the median of several in-process
    set-ups (caches emptied before each), at the reference speed; returns
    (setup_s, state)."""
    with Speedometer() as meter:
        imports = [child_import_s(meter) for _ in range(IMPORT_REPEATS)]
        times, state = [], None
        for _ in range(SETUP_REPEATS):
            clear_caches(workload.sc)
            state, error, _wall, scaled = meter.time(lambda: workload.setup(seed))
            if error is not None:
                raise error
            times.append(scaled)
    return statistics.median(imports) + statistics.median(times), state


def pin_to_one_cpu():
    """Run this process and the children it starts on one CPU, the last
    one allowed, so that the speed samples taken here measure the CPU a
    child runs on; returns that CPU, or None where affinity cannot be set
    (the machine note then shows every allowed CPU)."""
    cpu = max(os.sched_getaffinity(0))
    try:
        os.sched_setaffinity(0, {cpu})
    except OSError:
        return None
    return cpu


# -- machine note ------------------------------------------------------------------------


def machine_note() -> Dict[str, object]:
    commit = None  # unknown unless the checkout is itself a git repository
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
    }


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


# -- per-layer metrics --------------------------------------------------------------------

CLI_SUBCOMMANDS = sorted(
    {subcommand(c.split()) for _group, commands in CLI_COMMANDS for v in commands for c in v.split(" && ")}
)


def layer_metric_names() -> List[str]:
    """Every per-layer metric, in a fixed order (the same on every workload)."""
    names = [f"{layer}.self_s" for layer in LAYERS]
    names += [
        "groups.lattice.subgroups",
        "groups.closure.calls",
        "chartab.dixon.calls",
        "chartab.inner_product.calls",
        "cyclo.from_terms.calls",
        "cyclo.sum.calls",
        "theories.enumerate.yield_ratio",
        "theories.make_theory.calls",
        "theories.compat.calls",
        "theories.superinduce.calls",
        "nsystems.cert_search.nodes",
        "nsystems.cert_search.found_ratio",
        "chartab.dixon.d30_s",
        "chartab.dixon.d30_orthogonality_share",
        "groups.lattice.a5_s",
        "cli.import_s",
        "cli.rejected.p50_s",
    ]
    names += [f"cli.{name}.p50_s" for name in CLI_SUBCOMMANDS]
    names += ["trace.spans", "trace.untraced_ops_per_s", "trace.traced_ops_per_s", "trace.overhead_share"]
    return names


CALL_COUNTS = {
    "groups.closure.calls": "groups.closure",
    "chartab.dixon.calls": "chartab.dixon_character_table",
    "chartab.inner_product.calls": "chartab.inner_product",
    "cyclo.from_terms.calls": "cyclo.Cyclotomic.from_terms",
    "cyclo.sum.calls": "cyclo.cyclo_sum",
    "theories.make_theory.calls": "theories.make_theory",
    "theories.compat.calls": "theories.is_compatible",
    "theories.superinduce.calls": "theories.superinduce",
}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, loop: LoopResult) -> Dict[str, float]:
    """Per-layer metrics from one traced loop, per pass.  Self times and
    counts are averaged over the passes; the ROADMAP figures take the
    fastest pass, and are left out on workloads without their op."""
    per_pass = 1.0 / loop.passes
    m: Dict[str, float] = {f"{k}.self_s": v * per_pass for k, v in tracer.layer_self_times().items()}
    c = tracer.counts
    for metric, target in CALL_COUNTS.items():
        m[metric] = c[target + ".calls"] * per_pass
    m["groups.lattice.subgroups"] = c["groups.lattice.subgroups"] * per_pass
    m["theories.enumerate.yield_ratio"] = _ratio(
        c["theories.enumerate.found"],
        tracer.children_count("theories.enumerate_theories", "theories.theory_from_class_blocks"),
    )
    m["nsystems.cert_search.nodes"] = c["nsystems.cert_search.nodes"] * per_pass
    m["nsystems.cert_search.found_ratio"] = _ratio(
        c["nsystems.find_uvdw_certificate.found"], c["nsystems.find_uvdw_certificate.calls"]
    )

    def op_ids(label):  # the op's id in every pass (tracer.op in run_loop)
        i = loop.labels.index(label)
        return [p * len(loop.labels) + i for p in range(loop.passes)]

    # ROADMAP item-1 baselines: the d30 Dixon table with the share of it in
    # the orthogonality self-check, and the a5 lattice
    if "d30" in loop.labels:
        dixon, d30 = min((tracer.inclusive("chartab.dixon_character_table", i), i) for i in op_ids("d30"))
        m["chartab.dixon.d30_s"] = dixon
        m["chartab.dixon.d30_orthogonality_share"] = tracer.child_inclusive(
            "chartab.dixon_character_table", "chartab.verify_orthogonality", d30
        ) / dixon
    if "a5.lattice" in loop.labels:
        m["groups.lattice.a5_s"] = min(
            tracer.inclusive("groups.enumerate_subgroups", i) for i in op_ids("a5.lattice")
        )
    m["trace.spans"] = len(tracer) * per_pass
    return m


def cli_layer_metrics(records: List[list], import_s: float) -> Dict[str, float]:
    """Per-subcommand median child wall time, from the op records."""
    by_name: Dict[str, List[float]] = {}
    for op_records in records:
        for name, dt, _code, _digest in op_records:
            by_name.setdefault(name, []).append(dt)
    m = {f"cli.{name}.p50_s": statistics.median(v) for name, v in by_name.items()}
    m["cli.import_s"] = import_s
    return m


def write_spans(tracer: Tracer, workload: str, seed: int) -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    path = WORK / f"spans-{workload}-seed{seed}.tsv.gz"
    tracer.write(path)
    return path
