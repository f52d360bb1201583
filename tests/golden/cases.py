"""The golden-snapshot cases: what gets frozen, and how to compute it.

Every case runs through :func:`repro.sweep.run_sweep` so the
content-addressed seeding applies — that is what makes "exact match
against a committed fixture" a meaningful assertion for the simulated
cases (Table 6) and not just for the analytic ones (Tables 2/3,
Figs. 4/7a).

Regenerate fixtures after an intentional model change with::

    PYTHONPATH=src python tests/golden/regen.py
"""

from __future__ import annotations

import json
import os
import random
from typing import Any, Dict

from repro.sweep import SweepPoint, run_sweep

FIXTURE_DIR = os.path.dirname(os.path.abspath(__file__))

#: Keep the simulated case small: golden tests run in tier-1.
TABLE6_COUNT = 400
#: The observability goldens: packets per run and the ``random`` seed
#: (the CLI leaves ``random`` unseeded; the fixtures pin it).
TRACE_COUNT = 30
LATENCY_COUNT = 300
TRACE_SEED = 1


def _single(experiment: str, target: str) -> Any:
    return run_sweep([SweepPoint(experiment, target)]).rows[0]


def _table6() -> Any:
    from repro.experiments.echo import table6_points
    return run_sweep(table6_points(count=TABLE6_COUNT)).rows


def _trace_fig7b() -> Any:
    """Every span/instant event of ``python -m repro trace fig7b
    --count 30`` as a sorted multiset of compact JSON lines.

    Events are keyed by resolved process/thread names (pid/tid numbers
    follow first-emission order, which is not part of the contract).
    The engine's process spawn/finish instants are left out: they name
    worker processes, an implementation detail, not the datapath.  The
    fixture was recorded when traced runs still crossed the fabric hop
    by hop, so it also pins that retire-time lane records reproduce the
    per-hop timeline; regenerate it only for an intentional model
    change.
    """
    from repro.telemetry import Telemetry
    from repro.telemetry.runner import TRACEABLE

    random.seed(TRACE_SEED)
    telemetry = Telemetry(trace=True)
    runner, _count, size = TRACEABLE["fig7b"]
    runner(telemetry, TRACE_COUNT, size)
    doc = telemetry.tracer.chrome_trace()
    processes = {}
    threads = {}
    for event in doc["traceEvents"]:
        if event["name"] == "process_name":
            processes[event["pid"]] = event["args"]["name"]
        elif event["name"] == "thread_name":
            threads[event["pid"], event["tid"]] = event["args"]["name"]
    lines = []
    for event in doc["traceEvents"]:
        if event["ph"] not in ("X", "i"):
            continue
        process = processes[event["pid"]]
        if process == "sim" and event["name"].startswith(
                ("spawn:", "finish:")):
            continue
        lines.append(json.dumps(
            [process, threads[event["pid"], event["tid"]], event["name"],
             event["ph"], event["ts"], event.get("dur"),
             event.get("args")], sort_keys=True))
    return sorted(lines)


def _latency_echo() -> Any:
    """The per-stage rows of ``python -m repro latency echo --count 300
    --sample-rate 1`` (exact floats) plus its end-to-end row."""
    from repro.telemetry.runner import run_latency

    random.seed(TRACE_SEED)
    summary = run_latency("echo", count=LATENCY_COUNT, sample_rate=1)
    report = summary["report"]
    return {"stages": report["stages"], "e2e": report["e2e"],
            "violations": summary["violations"]}


CASES: Dict[str, Any] = {
    "table2a": lambda: _single("table2",
                               "repro.models.memory:table2a"),
    "table3": lambda: _single("table3", "repro.models.memory:table3"),
    "table6": _table6,
    "fig4_bandwidth": lambda: _single(
        "fig4", "repro.models.memory:figure4_bandwidth_sweep"),
    "fig4_queues": lambda: _single(
        "fig4", "repro.models.memory:figure4_queue_sweep"),
    "fig7a": lambda: _single("fig7a", "repro.models.perf:figure7a"),
    "trace_fig7b": _trace_fig7b,
    "latency_echo": _latency_echo,
}


def canonical(value: Any) -> str:
    """The byte-exact form fixtures are stored and compared in."""
    return json.dumps(value, sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, f"{name}.json")
