"""Exclusive per-layer attribution of a ``cProfile`` run.

Every profiled function is binned by the ``repro.<layer>`` package its
file lives in.  Functions outside the package -- builtins (``~``),
the standard library and generated code such as dataclass methods --
belong to no layer, so their calls and self time are charged to the
layer that called them, following the profiler's caller edges (through
chains of such functions when needed).  Nothing is left in an unowned
bucket: the layers' self times sum to the profile's total self time.

Two buckets sit beside the simulator's layers: ``bench`` is the
benchmark's own code (its load loop and output checks), and
``other`` holds ``repro`` modules outside the named layers.
"""

from __future__ import annotations

import os
from typing import Dict, Optional, Tuple

import repro

#: The simulator's layers, as the package names under ``repro``.
LAYERS = ("sim", "pcie", "nic", "core", "host", "net", "prog", "telemetry",
          "accelerators", "topology", "sw")
BUCKETS = LAYERS + ("bench", "other")

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep

# pstats row: (primitive calls, calls, self time, cumulative, callers);
# a caller edge: (calls, primitive calls, self time, cumulative).
Func = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """The bucket owning code from ``filename``; None when unowned."""
    path = os.path.abspath(filename) if filename[:1] not in "~<" else ""
    if path.startswith(_BENCH_DIR):
        return "bench"
    if not path.startswith(_REPRO_DIR):
        return None
    package = path[len(_REPRO_DIR):].split(os.sep, 1)
    if len(package) == 2 and package[0] in LAYERS:
        return package[0]
    return "other"


def attribute(stats: Dict[Func, tuple]) -> Dict[str, Dict[str, float]]:
    """``{bucket: {"calls": n, "self_s": t}}`` for a pstats dict."""
    owner = {func: layer_of(func[0]) for func in stats}
    shares: Dict[Func, Dict[str, float]] = {}

    def resolve(func: Func, stack: frozenset) -> Dict[str, float]:
        """How ``func``'s invocations split over buckets (call-weighted)."""
        if owner[func] is not None:
            return {owner[func]: 1.0}
        if func in shares:
            return shares[func]
        mix: Dict[str, float] = {}
        total = 0
        for caller, edge in stats[func][4].items():
            if caller in stack or caller not in stats:
                continue
            for bucket, share in resolve(caller, stack | {func}).items():
                mix[bucket] = mix.get(bucket, 0.0) + edge[0] * share
            total += edge[0]
        # A root with no resolvable caller was called by the harness.
        result = ({b: v / total for b, v in mix.items()} if total
                  else {"bench": 1.0})
        shares[func] = result
        return result

    totals = {bucket: {"calls": 0.0, "self_s": 0.0} for bucket in BUCKETS}
    for func, (_cc, calls, self_s, _ct, callers) in stats.items():
        if owner[func] is not None:
            row = totals[owner[func]]
            row["calls"] += calls
            row["self_s"] += self_s
            continue
        # Unowned: split along the caller edges, each edge's share going
        # to whichever buckets own that caller.
        edge_calls = sum(edge[0] for edge in callers.values())
        edge_time = sum(edge[2] for edge in callers.values())
        if not callers or not edge_calls:
            totals["bench"]["calls"] += calls
            totals["bench"]["self_s"] += self_s
            continue
        for caller, edge in callers.items():
            split = (resolve(caller, frozenset((func,)))
                     if caller in stats else {"bench": 1.0})
            call_part = calls * edge[0] / edge_calls
            time_part = (self_s * edge[2] / edge_time if edge_time
                         else self_s * edge[0] / edge_calls)
            for bucket, share in split.items():
                totals[bucket]["calls"] += call_part * share
                totals[bucket]["self_s"] += time_part * share
    return totals


def calls_to(stats: Dict[Func, tuple], path_suffix: str, name: str) -> int:
    """Total calls of function ``name`` defined in a file ending with
    ``path_suffix`` (``/``-separated, e.g. ``repro/pcie/tlp.py``)."""
    suffix = path_suffix.replace("/", os.sep)
    return sum(row[1] for func, row in stats.items()
               if func[2] == name and func[0].endswith(suffix))
