"""Set-up probe: a fresh interpreter that imports ``repro``, builds one
workload's testbed and runs it to its first simulated packet.

``run.py`` times this script from spawn to its ``first-packet`` line;
the median over several spawns is the ``setup_s`` metric.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import os
import sys

sys.path.insert(0, os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from workloads import EPISODE_OPS, WORKLOADS  # noqa: E402


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    episode = WORKLOADS[name](seed, EPISODE_OPS[name])
    episode.start()
    episode.sim.run(until=0.0)
    if episode.attempted() < 1:
        print(f"{name}: no packet sent at time 0", file=sys.stderr)
        return 1
    print("first-packet", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
