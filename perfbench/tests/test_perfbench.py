"""Tests of the benchmark's own pieces.

    python3 -m pytest perfbench/tests -q
"""

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
sys.path[:0] = [str(HERE.parent), str(ROOT / "src"), str(ROOT / "tests")]

import harness  # noqa: E402
import oracles  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import superchar  # noqa: E402
import superchar.cli  # noqa: E402,F401
import workloads  # noqa: E402
from superchar import groups  # noqa: E402


# -- self time ------------------------------------------------------------------------


def test_self_time_subtracts_nested_children():
    # A [0, 10] has children B [1, 4] and D [5, 6]; B has child C [2, 3]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 6.0]
    parents = [-1, 0, 1, 0]
    assert spans.self_times(starts, ends, parents) == [6.0, 2.0, 1.0, 1.0]


def test_layer_self_times_add_up_to_the_outermost_spans():
    tracer = spans.Tracer(superchar)
    tracer.install()
    try:
        table = superchar.dixon_character_table(superchar.builtin_group("s4"))
        superchar.verify_orthogonality(table)
    finally:
        tracer.uninstall()
    outermost = sum(
        tracer.ends[i] - tracer.starts[i] for i in range(len(tracer)) if tracer.parents[i] < 0
    )
    layers = tracer.layer_self_times()
    assert sum(layers.values()) == pytest.approx(outermost)
    assert layers["chartab.dixon"] > 0 and layers["chartab.orthogonality"] > 0
    # nested: the orthogonality gate inside Dixon is a child of the Dixon span
    assert tracer.child_inclusive(
        "chartab.dixon_character_table", "chartab.verify_orthogonality"
    ) > 0


def test_tracer_restores_every_binding():
    before = (superchar.dixon_character_table, groups.closure, superchar.Cyclotomic.__dict__["from_terms"])
    tracer = spans.Tracer(superchar)
    tracer.install()
    assert superchar.dixon_character_table is not before[0]
    tracer.uninstall()
    after = (superchar.dixon_character_table, groups.closure, superchar.Cyclotomic.__dict__["from_terms"])
    assert after == before


def test_missing_target_fails_loudly(monkeypatch):
    layers = dict(spans.LAYERS)
    layers["groups.lattice"] = ("groups.enumerate_subgroups", "groups.no_such_function")
    monkeypatch.setattr(spans, "LAYERS", layers)
    original = groups.enumerate_subgroups
    tracer = spans.Tracer(superchar)
    with pytest.raises(spans.MissingTarget, match="groups.no_such_function"):
        tracer.install()
    assert groups.enumerate_subgroups is original  # nothing was wrapped


# -- the tail-percentile rule -----------------------------------------------------------


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    pct, value, n = harness.tail(range(1, 101), pass_size=100)
    assert (pct, value, n) == (90.0, 90, 100)
    assert sum(1 for x in range(1, 101) if x > value) == 10
    pct, value, n = harness.tail([5.0] * 3 + list(range(10, 30)), pass_size=23)
    assert n == 23 and value == 19 and pct == pytest.approx(100 * 13 / 23)


def test_tail_percentile_is_fixed_by_the_pass_not_the_pass_count():
    one = [float(x) for x in range(1, 27)]  # one pass of 26 ops
    pct1, value1, _ = harness.tail(one, pass_size=26)
    pct3, value3, n3 = harness.tail(one * 3, pass_size=26)
    assert pct1 == pct3 == pytest.approx(100 * 16 / 26)
    assert value1 == value3 == 16.0 and n3 == 78
    assert sum(1 for x in one * 3 if x > value3) == 30  # ten beyond per pass


def test_tail_needs_more_than_ten_samples_a_pass():
    with pytest.raises(ValueError):
        harness.tail(range(100), pass_size=10)


# -- the loop ------------------------------------------------------------------------------


class _Pass:
    """A warm workload, for driving run_loop."""

    sc = superchar


def _sleeper(label, first, then):
    """An op that takes ``first`` seconds in its first pass and ``then`` after."""
    calls = []

    def run():
        time.sleep(first if not calls else then)
        calls.append(1)

    return workloads.Op(label, run, lambda r: [])


def test_ops_per_s_takes_each_ops_fastest_pass():
    ops = [_sleeper("a", 0.03, 0.01), _sleeper("b", 0.01, 0.01)]
    result = harness.run_loop(_Pass(), ops, seconds=1e-9, min_passes=3)
    assert result.passes == 3 and result.attempted == 6
    assert [len(t) for t in result.times] == [3, 3]
    # wall times; the reported times are these scaled to the reference speed
    assert result.raw[0][0] > 0.03 and max(min(t) for t in result.raw) < 0.03
    assert len(result.samples) == 6
    assert result.ops_per_s == pytest.approx(2 / sum(result.best))


def test_speedometer_scales_wall_time_to_the_reference_speed():
    meter = speed.Speedometer()
    meter.samples.extend([0.5, 2.0, 2.0, 2.0, 9.0])  # median 2.0: half the speed
    assert meter.scale(1.0, 0) == pytest.approx(speed.KERNEL_REFERENCE_S / 2.0)
    assert meter.scale(1.0, 4) == pytest.approx(speed.KERNEL_REFERENCE_S / 9.0)


def test_speedometer_takes_its_samples_out_of_the_op():
    def busy():
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < 0.3:
            pass
        return "done"

    with speed.Speedometer() as meter:
        t0 = time.perf_counter()
        result, error, wall, scaled = meter.time(busy)
        elapsed = time.perf_counter() - t0
    assert (result, error) == ("done", None) and scaled > 0
    assert meter.handler_s > 0  # sampled while the op ran
    assert len(meter.samples) >= 2 * speed.BRACKET_RUNS + 3
    assert 0.3 <= wall + meter.handler_s <= elapsed


def test_loop_runs_passes_while_another_fits_in_the_seconds():
    ops = [_sleeper("a", 0.01, 0.01)]
    result = harness.run_loop(_Pass(), ops, seconds=0.055, min_passes=1)
    assert 3 <= result.passes <= 5
    assert result.busy_s <= 0.055 + 0.01 * 2


# -- failures are counted, not raised ------------------------------------------------------


def test_wrong_reference_is_a_failure_not_a_crash():
    pins = workloads.load_pins()
    pins["tables"]["s4"] = {"fingerprint": "0" * 16}
    tables = workloads.Tables(superchar, oracles, pins)

    def boom():
        raise RuntimeError("op raised")

    ops = [
        tables._op("s4", 0),
        workloads.Op("raises", boom, lambda r: []),
        tables._op("q8", 0),
    ]
    result = harness.run_loop(_Pass(), ops, seconds=1e-9, min_passes=1)
    assert result.attempted == 3
    assert len(result.failures) == 2
    assert "fingerprint" in result.failures[0] and "raised RuntimeError" in result.failures[1]


# -- seeded draws ----------------------------------------------------------------------------


def test_nsys_draws_follow_the_seed():
    nsys = workloads.NSys(superchar, oracles, workloads.load_pins())

    def draw(seed):
        return nsys.draw(nsys.setup(seed))

    first = draw(0)
    assert draw(0) == first
    assert draw(1) != first
    assert len(first) == sum(workloads.NSYS_FAMILIES.values())


def test_cli_draws_follow_the_seed():
    cli = workloads.Cli(superchar, oracles, workloads.load_pins())

    def draw(seed):
        return cli.draw(cli.setup(seed))

    first = draw(0)
    assert draw(0) == first
    assert draw(1) != first
    # a run runs every pinned command exactly once a pass
    pins = workloads.load_pins()["cli"]
    assert sorted(variant for _, variant in first) == sorted(pins)
