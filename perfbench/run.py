"""The repository benchmark: host cost of the simulator per completed op.

Usage (from the repository root):

    python3 perfbench/run.py --workload fld-echo --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with all tracing off;
``--trace 1`` runs the same workload under ``cProfile`` and reports the
per-layer metrics.  The last line of standard output is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it
name the workload, the seed and the digest of the simulated result.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PROBE = os.path.join(ROOT, "perfbench", "setup_probe.py")

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 9
#: Measured episodes per end-to-end run, at least.
MIN_EPISODES = 3


def measure_setup(workload: str, seed: int) -> List[float]:
    """Seconds from spawning a fresh interpreter to its first packet."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(SETUP_PROBES):
        started = time.perf_counter()
        with subprocess.Popen([sys.executable, PROBE, workload, str(seed)],
                              stdout=subprocess.PIPE, env=env,
                              text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            child.stdout.read()
            code = child.wait(timeout=60)
        if code != 0 or line.strip() != "first-packet":
            raise RuntimeError(f"set-up probe failed (exit {code})")
        times.append(elapsed)
    return times


class Run:
    """Episodes of one workload and seed, with their correctness tally."""

    def __init__(self, workload: str, seed: int, ops: Optional[int] = None):
        from workloads import EPISODE_OPS, WORKLOADS
        self.factory = WORKLOADS[workload]
        self.ops = ops or EPISODE_OPS[workload]
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: List[str] = []

    def episode(self, metrics: bool = False, profiler=None):
        """Build and run one episode; returns it with per-slice
        ``(host CPU seconds, ops completed)`` and its total CPU time.

        Earlier episodes hold reference cycles; collecting them first
        starts every episode from the same heap, so ``peak_rss_mb`` is
        one episode's footprint and no episode pays for another's GC.
        """
        gc.collect()
        episode = self.factory(self.seed, self.ops, metrics=metrics)
        episode.start()
        slices: List[Tuple[float, int]] = []
        clock = time.process_time
        until = 0.0
        if profiler is not None:
            profiler.enable()
        started = clock()
        while not episode.finished:
            until += episode.slice_s
            ops, cpu = episode.completed(), clock()
            episode.sim.run(until=until)
            slices.append((clock() - cpu, episode.completed() - ops))
        episode.settle()
        total = clock() - started
        if profiler is not None:
            profiler.disable()
        return episode, slices, total

    def close(self, episode) -> Dict[str, int]:
        """Check an episode's output; returns its modelled counts."""
        counts = episode.model_counts()
        problems = episode.check()
        digest = episode.digest()
        if self.digests and digest != self.digests[0]:
            problems.append(f"digest {digest} != {self.digests[0]}")
        self.digests.append(digest)
        self.attempted += episode.attempted()
        if problems:
            self.failed += episode.attempted()
            self.problems.extend(problems)
        return counts


def end_to_end(workload: str, seed: int, seconds: float,
               ops: Optional[int] = None) -> Tuple[Run, Dict]:
    setup = measure_setup(workload, seed)
    run = Run(workload, seed, ops)
    # Warm-up: lazy imports and per-process caches, checked not timed.
    run.close(run.episode()[0])
    completed = cpu_s = 0.0
    costs = []
    deadline = time.perf_counter() + seconds
    episodes = 0
    while episodes < MIN_EPISODES or time.perf_counter() < deadline:
        episode, slices, total = run.episode()
        run.close(episode)
        episodes += 1
        completed += episode.completed()
        cpu_s += total
        del episode
        # The first and last slices with completions fill and drain the
        # pipeline; the steady slices between them give the per-op cost.
        busy = [(t, n) for t, n in slices if n > 0][1:-1]
        costs.extend(t / n * 1e6 for t, n in busy)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # The median slice is printed, not reported: host speed on a shared
    # machine switches between a fast and a slow level, and the median
    # of that mixture jumps between them from run to run (README.md).
    print(f"{workload}: {episodes} episodes of {run.ops} ops, "
          f"{len(costs)} steady slices, host_us_per_op_p50 "
          f"{statistics.median(costs):.1f} us")
    metrics = {
        "ops_per_s": (completed / cpu_s, "1/s"),
        "host_us_per_op_p90": (statistics.quantiles(costs, n=10)[8], "us"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return run, metrics


def traced(workload: str, seed: int, seconds: float,
           ops: Optional[int] = None) -> Tuple[Run, Dict]:
    from layers import BUCKETS, attribute, calls_to
    run = Run(workload, seed, ops)
    # Untraced reference, then the counter-registry episode for the
    # modelled counts; both must match the profiled episodes' digest.
    run.close(run.episode()[0])
    registry = run.episode(metrics=True)[0]
    counts, counted_ops = run.close(registry), registry.completed()
    del registry
    profiles = []
    deadline = time.perf_counter() + seconds
    while not profiles or time.perf_counter() < deadline:
        profiler = cProfile.Profile()
        episode = run.episode(profiler=profiler)[0]
        run.close(episode)
        profiler.create_stats()
        stats = profiler.stats
        layers = attribute(stats)
        total = sum(row[2] for row in stats.values())
        profiles.append((total, episode.completed(), stats, layers))
        del episode
    print(f"{workload}: {len(profiles)} profiled episodes of {run.ops} ops")
    # The episode with the median total self time speaks for the run,
    # so its layer self times still sum exactly to its total.
    profiles.sort(key=lambda p: p[0])
    total, ops, stats, layers = profiles[(len(profiles) - 1) // 2]
    attributed = sum(row["self_s"] for row in layers.values())
    if abs(attributed - total) > 1e-9 * max(total, 1.0):
        raise AssertionError(f"layer self times sum to {attributed}, "
                             f"profile total is {total}")
    metrics = {}
    for bucket in BUCKETS:
        metrics[f"{bucket}.calls_per_op"] = (layers[bucket]["calls"] / ops,
                                             "calls/op")
        metrics[f"{bucket}.self_us_per_op"] = (
            layers[bucket]["self_s"] / ops * 1e6, "us/op")
    metrics["all.calls_per_op"] = (
        sum(row[1] for row in stats.values()) / ops, "calls/op")
    metrics["all.self_us_per_op"] = (total / ops * 1e6, "us/op")
    per_op = {"sim.events": "events/op", "pcie.tlps": "tlps/op",
              "pcie.bytes": "B/op", "nic.doorbells": "count/op",
              "nic.wqe_fetches": "count/op",
              "nic.steering_calls": "count/op",
              "nic.rdma_segments": "count/op", "core.wqe_reads": "count/op",
              "core.cqe_writes": "count/op",
              "core.cuckoo_lookups": "count/op", "prog.runs": "count/op",
              "telemetry.spans": "count/op"}
    for name, unit in per_op.items():
        metrics[f"{name}_per_op"] = (counts[name] / counted_ops, unit)
    for name in ("nic.rx_drops", "nic.rdma_retransmits", "core.cuckoo_kicks"):
        metrics[name] = (counts[name], "count")
    metrics["net.parses_per_op"] = (
        calls_to(stats, "repro/net/parse.py", "parse_frame") / ops, "count/op")
    metrics["pcie.tlp_objs_per_op"] = (
        calls_to(stats, "repro/pcie/tlp.py", "__init__") / ops, "count/op")
    return run, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="ops per episode (default: the workload's; "
                             "small values make quick smoke runs)")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"no simulator sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r} "
                     f"(one of {', '.join(WORKLOADS)})")
    measure = traced if args.trace else end_to_end
    run, metrics = measure(args.workload, args.seed, args.seconds, args.ops)
    print(f"{args.workload}: seed {args.seed}, digest {run.digests[0]}, "
          f"{run.attempted} ops attempted, {run.failed} failed")
    for problem in run.problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
