"""The benchmark's own tests: small runs of every workload, checked
against the in-tree profiler and against each other.

Run from the repository root:

    PYTHONPATH=src python -m pytest perfbench -q
"""

from __future__ import annotations

import cProfile
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stdout

import pytest

import run as bench

sys.path.insert(0, bench.SRC)

from layers import BUCKETS, LAYERS, attribute  # noqa: E402

END_TO_END = {"ops_per_s", "host_us_per_op_p90", "setup_s", "peak_rss_mb"}
PER_LAYER = (
    {f"{layer}.{kind}" for layer in LAYERS + ("all",)
     for kind in ("calls_per_op", "self_us_per_op")}
    | {"sim.events_per_op", "pcie.tlps_per_op", "pcie.bytes_per_op",
       "nic.doorbells_per_op", "nic.wqe_fetches_per_op",
       "nic.steering_calls_per_op", "nic.rx_drops",
       "nic.rdma_segments_per_op", "nic.rdma_retransmits",
       "core.wqe_reads_per_op", "core.cqe_writes_per_op",
       "core.cuckoo_lookups_per_op", "core.cuckoo_kicks",
       "net.parses_per_op", "prog.runs_per_op", "telemetry.spans_per_op",
       "pcie.tlp_objs_per_op"})
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
WORKLOADS = ("fld-echo", "fldr-rdma", "prog-lb")
SMOKE_OPS = {"fld-echo": 400, "fldr-rdma": 60, "prog-lb": 400}


def _main(*args):
    """Run the CLI in-process; returns (exit code, output lines)."""
    out = io.StringIO()
    with redirect_stdout(out):
        code = bench.main(list(args))
    return code, out.getvalue().splitlines()


def _smoke(workload, trace, seed=1, ops=None):
    code, lines = _main("--workload", workload, "--seed", str(seed),
                        "--seconds", "0", "--trace", str(trace),
                        "--ops", str(ops or SMOKE_OPS[workload]))
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    digest = re.search(r"digest ([0-9a-f]{16})", "\n".join(lines)).group(1)
    return result, digest


@pytest.fixture(scope="module")
def smoke_runs():
    return {(w, t): _smoke(w, t) for w in WORKLOADS for t in (0, 1)}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_emits_every_metric(smoke_runs, workload):
    for trace, expected in ((0, END_TO_END), (1, PER_LAYER)):
        result, _digest = smoke_runs[workload, trace]
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        metrics = result["metrics"]
        assert expected <= set(metrics)
        for name, metric in metrics.items():
            assert NAME.match(name), name
            assert set(metric) == {"value", "unit"}
            assert UNIT.match(metric["unit"]), metric["unit"]
            assert isinstance(metric["value"], (int, float))
        if trace == 0:
            assert all(metrics[name]["value"] > 0 for name in END_TO_END)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_result_equals_untraced(smoke_runs, workload):
    _result, untraced = smoke_runs[workload, 0]
    _result, traced = smoke_runs[workload, 1]
    assert traced == untraced


@pytest.mark.parametrize("workload", WORKLOADS)
def test_layer_self_times_sum_to_total(smoke_runs, workload):
    metrics = smoke_runs[workload, 1][0]["metrics"]
    for kind in ("calls_per_op", "self_us_per_op"):
        parts = sum(metrics[f"{b}.{kind}"]["value"] for b in BUCKETS)
        assert parts == pytest.approx(metrics[f"all.{kind}"]["value"],
                                      rel=1e-9)


def test_prog_layer_idle_without_a_program(smoke_runs):
    for workload in ("fld-echo", "fldr-rdma"):
        metrics = smoke_runs[workload, 1][0]["metrics"]
        assert metrics["prog.calls_per_op"]["value"] == 0
        assert metrics["prog.runs_per_op"]["value"] == 0
    metrics = smoke_runs["prog-lb", 1][0]["metrics"]
    assert metrics["prog.runs_per_op"]["value"] == 1
    assert metrics["prog.calls_per_op"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_is_lossless_with_other_inputs(smoke_runs, workload):
    result, digest = _smoke(workload, 0, seed=2)
    assert result["correct"] and result["failed"] == 0
    assert digest != smoke_runs[workload, 0][1]


def test_same_seed_same_digest_in_a_fresh_process(smoke_runs):
    lines = subprocess.run(
        [sys.executable, os.path.join(bench.ROOT, "perfbench", "run.py"),
         "--workload", "fld-echo", "--seed", "1", "--seconds", "0",
         "--trace", "0", "--ops", str(SMOKE_OPS["fld-echo"])],
        check=True, capture_output=True, text=True).stdout
    assert f"digest {smoke_runs['fld-echo', 0][1]}" in lines


def test_events_per_op_match_the_in_tree_profiler():
    from repro.telemetry.runner import run_profile
    ops = 600
    metrics = _smoke("fld-echo", 1, ops=ops)[0]["metrics"]
    summary = run_profile("echo", count=ops, size=256)
    assert summary["delivered"] == ops
    assert (metrics["sim.events_per_op"]["value"]
            == summary["engine_events"] / ops)


def test_calls_per_op_match_a_plain_fig7b_profile():
    """The harness adds next to nothing to the profiled calls: the
    benchmark's fld-echo reads within 2% of a bare ``cProfile`` of the
    Fig. 7b experiment at the same size and count, and stays under the
    ROADMAP baseline of 1198.26 calls/packet (1184.31 at 3000 frames
    when this benchmark was defined)."""
    from repro.experiments.echo import echo_throughput
    ops = 3000
    metrics = _smoke("fld-echo", 1, ops=ops)[0]["metrics"]
    profiler = cProfile.Profile()
    profiler.enable()
    row = echo_throughput("flde-remote", 256, count=ops)
    profiler.disable()
    profiler.create_stats()
    assert row["received"] == ops
    reference = sum(r[1] for r in profiler.stats.values()) / ops
    calls = metrics["all.calls_per_op"]["value"]
    assert calls == pytest.approx(reference, rel=0.02)
    assert calls <= 1198.26 * 1.02


def test_attribution_charges_unowned_rows_to_the_calling_layer():
    pcie = (os.path.join(bench.SRC, "repro", "pcie", "fabric.py"), 1, "f")
    nic = (os.path.join(bench.SRC, "repro", "nic", "device.py"), 1, "g")
    helper = ("/usr/lib/python3/heapq.py", 1, "helper")
    builtin = ("~", 0, "<built-in method len>")
    stats = {
        pcie: (1, 1, 1.0, 9.0, {}),
        nic: (1, 1, 2.0, 9.0, {}),
        # helper: 3 calls from pcie (0.3 s), 1 from nic (0.1 s)
        helper: (4, 4, 0.4, 0.6, {pcie: (3, 3, 0.3, 0.4),
                                  nic: (1, 1, 0.1, 0.2)}),
        # builtin: only ever called from the stdlib helper
        builtin: (8, 8, 0.8, 0.8, {helper: (8, 8, 0.8, 0.8)}),
    }
    layers = attribute(stats)
    assert layers["pcie"]["calls"] == pytest.approx(1 + 3 + 6)
    assert layers["nic"]["calls"] == pytest.approx(1 + 1 + 2)
    assert layers["pcie"]["self_s"] == pytest.approx(1.0 + 0.3 + 0.6)
    assert layers["nic"]["self_s"] == pytest.approx(2.0 + 0.1 + 0.2)
    assert sum(row["self_s"] for row in layers.values()) == pytest.approx(4.2)


def test_exits_nonzero_without_the_simulator(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for name in ("run.py", "workloads.py", "layers.py", "setup_probe.py"):
        source = os.path.join(bench.ROOT, "perfbench", name)
        with open(source, encoding="utf-8") as handle:
            (tmp_path / "perfbench" / name).write_text(handle.read())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fld-echo",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
