"""hypertower benchmark: one workload per process, one caller, no parallelism.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload lee-membership --seed 1 --seconds 30 --trace 0

A run imports hypertower from ``src/`` of the checkout, sets the workload
up (imports, field construction, inputs from the seed), runs one checked
warm-up pass, then repeats the same pass as a closed loop until
``--seconds`` have passed, checking every run of every item.  Set-up is
repeated before the first pass and between passes.  Each reported time is
the median over the run of one item's (or one set-up's) times.

Times are taken on a clock scaled to the box's current speed.  The 2
cores this was written on are shared with other tenants, whose load
slows all work in this process by up to a half, for minutes at a time.
Every ``PROBE_EVERY`` seconds, between items, the run times a fixed
integer loop that uses no hypertower code; an item's wall time is
multiplied by ``PROBE_REF_S`` over the loop's time around it.  On an idle
box, where the loop takes about ``PROBE_REF_S``, scaled and wall-clock
times agree; on a busy one the scaled times stay put.  The wall-clock
figures are printed too, on the ``wall-clock`` line.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` instead runs
the pass untraced for ``--seconds`` as the baseline, then once traced, and
reports the per-layer counts and self times (wall clock) of the traced
pass with the tracing overhead against the baseline.  Every metric is
printed as a line with its unit; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS_FIRST = 5
SETUP_REPEATS_BETWEEN = 3

# the speed probe: a 30,000-step integer loop, timed 3 times, at most every
# 0.2 s; 2 ms is about its time on an idle core of the 2-core Xeon box
# this was written on
PROBE_STEPS = 30_000
PROBE_EVERY = 0.2
PROBE_REF_S = 0.002

DEFAULT_SEED = 1

# per-layer metrics read from the traced pass: (span name, [metrics])
SPAN_METRICS = (
    [(f"basefields.{f}.{m}", ("calls", "self_ms"))
     for f in ("rational", "function", "quadratic")
     for m in ("sub_valuation", "valuation")]
    + [
        ("basefields.quadratic.representative", ("calls", "self_ms")),
        ("basefields.expand", ("calls", "self_ms")),
        ("basefields.arith", ("calls", "self_ms")),
        ("cosets.coset_eq", ("calls", "self_ms")),
        ("cosets.hyperadd", ("calls", "self_ms")),
        ("cosets.hypersum_contains", ("calls", "self_ms")),
        ("limit.at", ("calls", "self_ms")),
        ("limit.limit_eq", ("calls", "self_ms")),
        ("limit.limit_arith", ("calls", "self_ms")),
        ("limit.to_approximation", ("calls", "self_ms")),
        ("limit.checkers", ("self_ms",)),
        ("tower.project", ("calls", "self_ms")),
        ("tower.checks", ("self_ms",)),
        ("suites.lee_suite", ("self_ms",)),
        ("suites.tropical_suite", ("self_ms",)),
        ("suites.definitional_member", ("calls", "self_ms")),
        ("oag.trop_hyperadd", ("calls", "self_ms")),
        ("cli.run", ("self_ms",)),
        ("sampling", ("self_ms",)),
    ]
)
UNITS = {"calls": "count", "self_ms": "ms"}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["lee-membership", "sigma-completion", "laws-cli"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def _commit():
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    if len(top) != 2 or Path(top[0]).resolve() != ROOT:
        return "unknown"
    return top[1]


def _probe():
    """Mean time of 3 runs of a fixed loop that uses no hypertower code."""
    t0 = time.perf_counter()
    for _ in range(3):
        acc = 0
        for i in range(PROBE_STEPS):
            acc += i * i % 7
    return (time.perf_counter() - t0) / 3


class ScaledClock:
    """Times calls in wall seconds and in seconds scaled to the box's speed."""

    def __init__(self):
        self.probes = []
        self._at = float("-inf")
        self._scale = 1.0

    def _refresh(self):
        if time.perf_counter() - self._at >= PROBE_EVERY:
            p = _probe()
            self.probes.append(p)
            self._scale = PROBE_REF_S / p
            self._at = time.perf_counter()
        return self._scale

    def time(self, fn):
        """Returns (result, wall seconds, scaled seconds) of ``fn()``."""
        before = self._refresh()
        t0 = time.perf_counter()
        result = fn()
        dt = time.perf_counter() - t0
        # a long call sees a fresh probe after it; average the two
        after = self._refresh()
        return result, dt, dt * (before + after) / 2


def _env(start, clock):
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": _commit(),
        "loadavg_start": start,
        "loadavg_end": [round(x, 2) for x in os.getloadavg()],
        "probe_ms_median": round(statistics.median(clock.probes) * 1e3, 4),
        "probe_ms_min": round(min(clock.probes) * 1e3, 4),
        "probe_ms_max": round(max(clock.probes) * 1e3, 4),
    }


class Times:
    """Per-key wall and scaled times over a run."""

    def __init__(self):
        self.wall = {}
        self.scaled = {}

    def add(self, key, wall, scaled):
        self.wall.setdefault(key, []).append(wall)
        self.scaled.setdefault(key, []).append(scaled)

    def medians(self, scaled):
        table = self.scaled if scaled else self.wall
        return {key: statistics.median(v) for key, v in table.items()}


def _setups(args, clock, count, times):
    for _ in range(count):
        gc.collect()  # every repeat starts from the same heap state
        wl, wall, scaled = clock.time(
            lambda: workloads.WORKLOADS[args.workload](workloads.import_fresh(), args.seed)
        )
        times.add("setup", wall, scaled)
    return wl


class Tally:
    """Checks attempted and failed over every run of every item."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def run_pass(self, wl, clock, times=None):
        """Run every item once, checked; returns (checks, scaled seconds)."""
        checks = 0
        scaled_s = 0.0
        for j, item in enumerate(wl.items):
            out, wall, scaled = clock.time(lambda: wl.run_item(item))
            if times is not None:
                times.add(j, wall, scaled)
            scaled_s += scaled
            checks += out.checks
            self.attempted += out.checks
            self.failed += out.failed
        return checks, scaled_s


def _metrics(wl, checks, item_times, setup_times, scaled):
    per_item = item_times.medians(scaled)
    latencies = [per_item[j] for j, item in enumerate(wl.items) if item.query]
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "setup_s": (setup_times.medians(scaled)["setup"], "s"),
        "checks_per_s": (checks / sum(per_item.values()), "1/s"),
        "query_ms_p50": (deciles[4] * 1e3, "ms"),
        "query_ms_p90": (deciles[8] * 1e3, "ms"),
    }


def _end_to_end(args, tally, clock):
    setup_times = Times()
    wl = _setups(args, clock, SETUP_REPEATS_FIRST, setup_times)
    tally.run_pass(wl, clock)  # warm-up: fills caches, sets reference outputs
    item_times = Times()
    deadline = time.perf_counter() + args.seconds
    passes = 0
    while True:
        checks, _ = tally.run_pass(wl, clock, item_times)
        passes += 1
        if time.perf_counter() >= deadline:
            break
        _setups(args, clock, SETUP_REPEATS_BETWEEN, setup_times)
    metrics = _metrics(wl, checks, item_times, setup_times, scaled=True)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kib / 1024, "MiB")
    wall = _metrics(wl, checks, item_times, setup_times, scaled=False)
    info = {
        "passes": passes,
        "queries": sum(item.query for item in wl.items),
        "setups": len(setup_times.wall["setup"]),
        "wall-clock": {name: round(v, 6) for name, (v, _) in wall.items()},
    }
    return wl, metrics, info


def _per_layer(args, tally, clock):
    wl = _setups(args, clock, 1, Times())
    tally.run_pass(wl, clock)  # warm-up: fills caches, sets reference outputs
    base_times = []
    deadline = time.perf_counter() + args.seconds
    while not base_times or time.perf_counter() < deadline:
        base_times.append(tally.run_pass(wl, clock)[1])
    tracer = tracing.Tracer()
    tracer.install()
    try:
        _, traced_s = tally.run_pass(wl, clock)
    finally:
        tracer.uninstall()
    rows = tracer.summary()
    metrics = {}
    for span, kinds in SPAN_METRICS:
        for kind in kinds:
            metrics[f"{span}.{kind}"] = (rows[span][kind], UNITS[kind])
    at_calls = rows["limit.at"]["calls"]
    eq_calls = rows["limit.limit_eq"]["calls"]
    metrics["limit.at.hit_ratio"] = (tracer.at_hits / at_calls if at_calls else 0.0, "ratio")
    metrics["limit.levels_per_eq"] = (tracer.eq_levels / eq_calls if eq_calls else 0.0, "levels")
    metrics["cosets.classes_built"] = (tracer.classes_built, "count")
    baseline = statistics.median(base_times)
    metrics["trace.overhead_ratio"] = (traced_s / baseline - 1.0, "ratio")
    metrics["trace.spans"] = (tracer.spans, "count")
    info = {"baseline_pass_scaled_s": round(baseline, 4),
            "traced_pass_scaled_s": round(traced_s, 4), "baseline_passes": len(base_times)}
    for name in sorted(rows):
        r = rows[name]
        print(f"span {name}: calls {r['calls']}, total {r['total_ms']:.1f} ms, "
              f"self {r['self_ms']:.1f} ms")
    return wl, metrics, info


def main(argv=None):
    args = _parse(argv)
    start = [round(x, 2) for x in os.getloadavg()]
    if not (SRC / "hypertower" / "__init__.py").is_file():
        print(f"error: no hypertower package under {SRC}", file=sys.stderr)
        return 2
    # this checkout's package, never an installed one
    if str(SRC) in sys.path:
        sys.path.remove(str(SRC))
    sys.path.insert(0, str(SRC))

    tally = Tally()
    clock = ScaledClock()
    if args.trace:
        wl, metrics, info = _per_layer(args, tally, clock)
    else:
        wl, metrics, info = _end_to_end(args, tally, clock)

    correct = tally.failed == 0
    failed_share = tally.failed / tally.attempted if tally.attempted else 1.0
    for note in wl.notes:
        print(f"check failed: {note}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: {json.dumps(info)}")
    print(f"env {json.dumps(_env(start, clock), sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    print(f"metric failed_share = {failed_share:.6g} ratio "
          f"({tally.failed} of {tally.attempted} checks)")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct and tally.attempted > 0 else 1


if __name__ == "__main__":
    sys.exit(main())
