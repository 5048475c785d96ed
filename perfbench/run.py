"""Benchmark of the superchar pipeline.

    python3 perfbench/run.py --workload tables --seed 0 --seconds 10 --trace 0

Run from the root of a checkout.  Each run is one fresh interpreter and
one single-threaded closed-loop client.  With ``--trace 0`` it prints the
end-to-end metrics; with ``--trace 1`` it runs the loop untraced and then
traced, and prints the per-layer metrics and the tracing overhead.  The
last line of stdout is one JSON object: correct, attempted, failed and
metrics.  ``--workload all`` runs every workload, each in its own
interpreter, and prints one row per workload.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 0
DEFAULT_SECONDS = 24
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_s", "s"),
    ("op_tail_s", "s"),
    ("peak_rss_mb", "MB"),
)
WORKLOAD_NAMES = ("tables", "families", "nsys", "cli")


def unit_of(metric: str) -> str:
    if metric.endswith("ops_per_s"):
        return "1/s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def load_program():
    """Import the package under test from this checkout's src/, and the
    test oracles from its tests/; exit 2 if the checkout lacks them."""
    src, tests = ROOT / "src", ROOT / "tests"
    missing = [p for p in (src / "superchar" / "__init__.py", tests / "oracles.py") if not p.is_file()]
    if missing:
        print(f"error: program sources not found: {', '.join(map(str, missing))}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(src), str(tests)]
    import oracles
    import superchar
    import superchar.cli  # noqa: F401  (binds every module the tracer wraps)

    if Path(superchar.__file__).resolve().parent != src / "superchar":
        print(f"error: imported superchar from {superchar.__file__}", file=sys.stderr)
        sys.exit(2)
    return superchar, oracles


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }))


def report_failures(failures) -> None:
    for line in failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)


def run_one(args) -> int:
    sc, oracles = load_program()
    import harness
    from spans import Tracer
    from speed import Speedometer
    from workloads import WORKLOADS, load_pins

    workload = WORKLOADS[args.workload](sc, oracles, load_pins())
    if args.workload == "cli":  # the ops run in children; the speed is sampled here
        harness.pin_to_one_cpu()
    print(f"# machine: {json.dumps(harness.machine_note(), sort_keys=True)}")
    print(f"# workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print("# one closed-loop client, one op in flight; no queue or second thread, "
          "so time waiting does not apply and is not reported")
    setup_s, state = harness.timed_setup(workload, args.seed)
    keep = args.workload == "cli"
    loop = harness.run_loop(workload, workload.ops(state), args.seconds, keep_records=keep)

    if not args.trace:
        samples = loop.samples
        pct, tail_s, n = harness.tail(samples, len(loop.labels))
        metrics = {
            "setup_s": setup_s,
            "ops_per_s": loop.ops_per_s,
            "op_p50_s": statistics.median(samples),
            "op_tail_s": tail_s,
            "peak_rss_mb": harness.peak_rss_mb(children=args.workload == "cli"),
        }
        failed_ratio = len(loop.failures) / loop.attempted
        print(f"# {loop.passes} passes of {len(loop.labels)} ops, times at the reference speed; "
              f"ops_per_s takes each op's fastest pass; op_tail_s is p{pct:.1f} of {n} op times")
        print(f"# raw wall time: ops_per_s {loop.raw_ops_per_s:.6g}")
        print("# " + "  ".join(f"{k} [{u}]" for k, u in END_TO_END) + "  failed_ratio [ratio]")
        print(f"{args.workload}: " + "  ".join(f"{metrics[k]:.6g}" for k, _u in END_TO_END)
              + f"  {failed_ratio:.6g}")
        report_failures(loop.failures)
        emit(not loop.failures, loop.attempted, len(loop.failures), metrics)
        return 0

    # traced run: the same draws again, with every layer boundary wrapped
    state = workload.setup(args.seed)
    tracer = Tracer(sc)
    tracer.install()
    try:
        traced = harness.run_loop(
            workload, workload.ops(state), args.seconds, tracer=tracer, keep_records=keep
        )
    finally:
        tracer.uninstall()
    metrics = dict.fromkeys(harness.layer_metric_names(), 0.0)
    metrics.update(harness.layer_metrics(tracer, traced))
    if keep:
        with Speedometer() as meter:
            import_s = statistics.median(
                harness.child_import_s(meter, "superchar.cli") for _ in range(harness.IMPORT_REPEATS)
            )
        metrics.update(harness.cli_layer_metrics(traced.records, import_s))
    metrics["trace.untraced_ops_per_s"] = loop.ops_per_s
    metrics["trace.traced_ops_per_s"] = traced.ops_per_s
    metrics["trace.overhead_share"] = 1.0 - traced.ops_per_s / loop.ops_per_s
    path = harness.write_spans(tracer, args.workload, args.seed)
    print(f"# tracing overhead: {100 * metrics['trace.overhead_share']:.1f}% of ops_per_s "
          f"(untraced {loop.ops_per_s:.4g}, traced {traced.ops_per_s:.4g}); "
          f"{len(tracer)} spans written to {path.relative_to(ROOT)}")
    for name, value in metrics.items():
        print(f"  {name:44s} {value:.6g} {unit_of(name)}")
    failures = loop.failures + traced.failures
    report_failures(failures)
    attempted = loop.attempted + traced.attempted
    emit(not failures, attempted, len(failures), metrics)
    return 0


def run_all(args) -> int:
    """Every workload in its own interpreter; one row per workload."""
    rows, combined, attempted, failed = [], {}, 0, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        rows.append((name, result))
        attempted += result["attempted"]
        failed += result["failed"]
        for k, v in result["metrics"].items():
            combined[f"{name}.{k}"] = v["value"]
    if not args.trace:
        print("# workload  " + "  ".join(f"{k} [{u}]" for k, u in END_TO_END) + "  failed_ratio [ratio]")
        for name, result in rows:
            m = result["metrics"]
            print(f"{name:9s}  " + "  ".join(f"{m[k]['value']:.6g}" for k, _u in END_TO_END)
                  + f"  {result['failed'] / result['attempted']:.6g}")
    emit(failed == 0, attempted, failed, combined)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
