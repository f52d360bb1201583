"""Observation-only matrix: tracing and spans never change a result.

Every experiment below runs four times — bare, Chrome tracer only,
span recorder only, and both — and the four result dicts must be
``==`` (exact floats).  Turning observability on records what the
datapath does; it must not select a different datapath.
"""

import random

import pytest

from repro.experiments import prog as prog_experiment
from repro.experiments.echo import echo_latency, echo_throughput, \
    fldr_throughput
from repro.core import AxisMetadata
from repro.sim import Simulator
from repro.telemetry import Telemetry

from .test_credits_ets import build as build_metered, frame

MODES = {
    "bare": lambda: None,
    "trace": lambda: Telemetry(trace=True),
    "spans": lambda: Telemetry(trace=False, spans=True),
    "trace+spans": lambda: Telemetry(trace=True, spans=True),
}


def _across_modes(run):
    results = {}
    for name, make in MODES.items():
        random.seed(11)
        results[name] = run(make())
    return results


def _assert_identical(results):
    bare = results["bare"]
    for name, result in results.items():
        assert result == bare, (name, result, bare)


@pytest.mark.parametrize("mode", ["flde-remote", "cpu-remote"])
def test_echo_throughput(mode):
    _assert_identical(_across_modes(
        lambda telemetry: echo_throughput(mode, 256, count=300,
                                          telemetry=telemetry)))


def test_fldr_throughput():
    _assert_identical(_across_modes(
        lambda telemetry: fldr_throughput(8192, count=60,
                                          telemetry=telemetry)))


def test_echo_latency():
    _assert_identical(_across_modes(
        lambda telemetry: echo_latency("flde", count=200,
                                       telemetry=telemetry)))


def _metered_run(telemetry):
    """The shaped-queue credit scenario, fingerprinted."""
    sim = Simulator(telemetry=telemetry)
    server, runtime, slow_q, fast_q, counts = build_metered(sim)
    fld = runtime.fld
    done = {}

    def producer(sim, queue_id, tag, count):
        data = frame(1000 if tag == "slow" else 2000)
        for _ in range(count):
            yield from fld.send(data, AxisMetadata(queue_id=queue_id))
        done[tag] = sim.now

    sim.spawn(producer(sim, slow_q, "slow", 40))
    sim.spawn(producer(sim, fast_q, "fast", 40))
    sim.run(until=100e-6)
    midway = (dict(counts), fld.credits_available(slow_q),
              fld.credits_available(fast_q))
    sim.run(until=1.0)
    return {"midway": midway, "counts": dict(counts), "done": done,
            "wire": server.nic.port.link.stats_bits}


def test_metered_queue():
    _assert_identical(_across_modes(_metered_run))


@pytest.mark.parametrize("scenario", ["lb", "nat", "firewall"])
def test_prog_scenario(scenario, monkeypatch):
    def run(telemetry):
        # run_scenario builds its own spans-on Telemetry; swap in this
        # mode's bundle (NULL telemetry for the bare run).
        monkeypatch.setattr(
            prog_experiment, "Telemetry",
            lambda **_kwargs: telemetry if telemetry is not None
            else _null_telemetry())
        result = prog_experiment.run_scenario(scenario, count=300)
        # The program-latency block is read from the span recorder, so
        # it exists only where spans were recorded.
        result.pop("prog_latency")
        return result

    _assert_identical(_across_modes(run))


def _null_telemetry():
    from repro.telemetry import NULL_TELEMETRY
    return NULL_TELEMETRY
