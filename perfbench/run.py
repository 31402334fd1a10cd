"""Reachability benchmark for the paper's engines.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload bwd_quant --seed 1 \
        --seconds 25 --trace 0

One client, one design at a time, one process: every pass verifies the
workload's designs in order through ``repro.api.Session`` (a fresh
session per design, so the result cache is cold) and the next design is
submitted only when the previous verdict is in.  Passes repeat for about
``--seconds``.  Every verdict is checked against the workload's oracle
(see ``workloads.py``).

Timings are rescaled to a fixed host speed.  The speed of a shared host
drifts by up to 1.8x over minutes, which swamps any change worth
measuring.  So a pure-Python reference loop (no library code) is timed
next to every pass and every set-up sample, and a duration of ``t``
seconds measured while the loop took ``r`` seconds is reported as
``t * REFERENCE_S / r``: its wall time on a host where the loop takes
``REFERENCE_S``.  A change to the library moves ``t`` and not ``r``.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` times some
untraced passes, then traced passes with spans around each layer's entry
points (see ``tracing.py``), and prints the per-layer metrics; the spans
of the last traced pass are written to ``perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import pathlib
import resource
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# Set-up is sampled in this many fresh processes; the median is reported.
SETUP_SAMPLES = 5
# Nominal seconds of one reference_seconds() measurement (about its time
# on a 2-vCPU Xeon VM when its neighbours are idle).
REFERENCE_S = 0.05
# Share of a traced run's time spent on untraced passes (the base of
# tracing.overhead_ratio); the rest goes to traced passes.
UNTRACED_SHARE = 0.3


def _parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _reference_loop() -> int:
    # Dict look-ups and small-int arithmetic: the interpreter work the
    # engines do, without their code.
    table: dict[int, int] = {}
    total = 0
    for i in range(60_000):
        key = (i * 2654435761) & 8191
        value = table.get(key)
        if value is None:
            table[key] = i
        else:
            total += value & 7
    return total


def reference_seconds() -> float:
    """Wall seconds of five runs of the reference loop, now."""
    start = time.perf_counter()
    for _ in range(5):
        _reference_loop()
    return time.perf_counter() - start


def _peak_stateset(outcome) -> int:
    """Peak frontier size: AND nodes for AIG engines, BDD nodes for BDD."""
    if isinstance(outcome, BaseException):
        return 0
    stats = outcome.stats
    return int(
        stats.get("peak_frontier_size") or stats.get("peak_frontier_bdd")
    )


def _fingerprint(outcome) -> tuple:
    """The search's footprint, read from the result stats.

    Identical on every pass of a run, traced or not: the wrappers must
    not change the search.
    """
    if isinstance(outcome, BaseException):
        return ("raised", type(outcome).__name__)
    stats = outcome.stats
    return (
        outcome.status.value,
        outcome.iterations,
        stats.get("vars_quantified"),
        stats.get("sat_checks"),
        stats.get("backward_merges")
        + stats.get("sat_merges")
        + stats.get("bdd_merges"),
        _peak_stateset(outcome),
    )


class Bench:
    """One workload at one seed, and what its passes found wrong."""

    def __init__(self, name: str, seed: int) -> None:
        from repro.api import get_engine
        from workloads import WORKLOADS

        self.name = name
        self.seed = seed
        self.workload = WORKLOADS[name]
        # Loads every engine module now, which also leaves their bytecode
        # compiled before set-up is sampled in fresh processes.
        get_engine(self.workload.engine)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.fingerprints: list[tuple] | None = None
        self.peak_stateset = 0

    def one_pass(self) -> float:
        """Verify every design once; returns the pass's wall seconds."""
        from repro.api import Session, VerificationTask
        from workloads import MAX_DEPTH, build_netlists, judge

        netlists = build_netlists(self.workload, self.seed)
        # Engines leave reference cycles behind (BDD managers among them)
        # that the collector frees only now and then; collecting first
        # starts every pass from the same heap, so neither its time nor
        # the peak RSS depends on how many passes ran before it.
        gc.collect()
        outcomes = []
        start = time.perf_counter()
        for netlist in netlists:
            task = VerificationTask(
                netlist, engine=self.workload.engine, max_depth=MAX_DEPTH
            )
            try:
                outcomes.append(Session().run(task))
            except Exception as exc:  # a crash is a failed design
                outcomes.append(exc)
        elapsed = time.perf_counter() - start
        for design, netlist, outcome in zip(
            self.workload.designs, netlists, outcomes
        ):
            self.attempted += 1
            reason = judge(design, netlist, outcome)
            if reason is not None:
                self.failed += 1
                self.problems.append(f"{netlist.name}: {reason}")
        fingerprints = [_fingerprint(outcome) for outcome in outcomes]
        if self.fingerprints is None:
            self.fingerprints = fingerprints
            self.peak_stateset = sum(_peak_stateset(o) for o in outcomes)
        elif fingerprints != self.fingerprints:
            self.problems.append(
                "nondeterministic search: "
                f"{self.fingerprints} then {fingerprints}"
            )
        return elapsed

    def passes(self, seconds: float, measure=None) -> list:
        """Run passes for about ``seconds`` (at least one).

        A pass starts only if half of the previous pass's time still
        fits, so on average a run ends within ``seconds``.  Each pass is
        collected as ``measure(wall_s, scaled_s)`` (``scaled_s`` by
        default), where ``scaled_s`` is its wall time rescaled by the
        reference loop timed before and after it.
        """
        collected = []
        deadline = time.perf_counter() + seconds
        before = reference_seconds()
        wall = 0.0
        while not collected or time.perf_counter() + wall / 2 < deadline:
            wall = self.one_pass()
            after = reference_seconds()
            scaled = wall * 2 * REFERENCE_S / (before + after)
            before = after
            collected.append(
                scaled if measure is None else measure(wall, scaled)
            )
        return collected

    def result(self, metrics: dict[str, tuple[float, str]]) -> dict:
        for problem in self.problems:
            print(f"FAILURE [{self.name} seed {self.seed}] {problem}",
                  file=sys.stderr)
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in metrics.items()
            },
        }


def _setup_seconds(workload: str, seed: int) -> float:
    """Median rescaled set-up time over fresh processes (setup_probe.py)."""
    samples = []
    before = reference_seconds()
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload,
             str(seed)],
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        after = reference_seconds()
        wall = float(done.stdout.strip().splitlines()[-1])
        samples.append(wall * 2 * REFERENCE_S / (before + after))
        before = after
    return statistics.median(samples)


def end_to_end(bench: Bench, seconds: float) -> dict:
    setup_s = _setup_seconds(bench.name, bench.seed)
    times = bench.passes(seconds)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return bench.result(
        {
            "verdict_s": (statistics.median(times), "s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (peak_rss_kb / 1024.0, "MB"),
            "verdict_ok_frac": (1.0 - bench.failed / bench.attempted, "frac"),
            "peak_stateset_nodes": (float(bench.peak_stateset), "count"),
        }
    )


def per_layer(bench: Bench, seconds: float) -> dict:
    import tracing

    untraced = statistics.median(bench.passes(seconds * UNTRACED_SHARE))
    recorder = tracing.Recorder()
    last_spans: list = []

    def measure(wall: float, scaled: float) -> dict[str, float]:
        metrics = tracing.layer_metrics(recorder, wall, scaled / untraced)
        last_spans[:] = recorder.spans
        recorder.clear()
        return metrics

    uninstall = tracing.install(recorder)
    try:
        per_pass = bench.passes(seconds * (1 - UNTRACED_SHARE), measure)
    finally:
        uninstall()
    for name in tracing.DETERMINISTIC:
        values = {p[name] for p in per_pass}
        if len(values) > 1:
            bench.problems.append(
                f"count {name} differs between traced passes: {values}"
            )
    out_dir = HERE / "traces"
    out_dir.mkdir(exist_ok=True)
    with open(out_dir / f"{bench.name}-seed{bench.seed}.json", "w") as fh:
        json.dump(tracing.chrome_trace(last_spans), fh)
    metrics = {
        name: (statistics.median(p[name] for p in per_pass), unit)
        for name, unit in tracing.PER_LAYER.items()
    }
    attributed = metrics["tracing.attributed_frac"][0]
    if attributed < 0.9:
        print(
            f"WARNING [{bench.name}] only {attributed:.1%} of traced time "
            "is attributed to named layers",
            file=sys.stderr,
        )
    return bench.result(metrics)


def main(argv: list[str]) -> int:
    args = _parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no library sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; choose from "
            f"{', '.join(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    bench = Bench(args.workload, args.seed)
    run = per_layer if args.trace else end_to_end
    print(json.dumps(run(bench, args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
