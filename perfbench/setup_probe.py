"""Time one benchmark set-up in a fresh interpreter.

    python3 perfbench/setup_probe.py <workload> <seed>

The clock starts before any import, so the time covers importing numpy
and the lab, validating the generated config and building the grid,
packet, decomposition and drifts (``workloads.prepare``). Prints the
seconds and the same time in reference seconds, scaled by the
reference computation run right after (see ``reference.py``).
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from inputs import generate  # noqa: E402
from reference import REFERENCE_S, reference_seconds  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import prepare  # noqa: E402


def main() -> None:
    workload, seed = sys.argv[1], int(sys.argv[2])
    inputs = generate(workload, seed)
    tag = f"{workload}-seed{seed}"
    prepare(inputs, Tracer(tag, enabled=False),
            ROOT / ".bench_out" / "config" / f"{tag}.cfg")
    seconds = time.perf_counter() - STARTED
    print(seconds, seconds * REFERENCE_S / reference_seconds())


if __name__ == "__main__":
    main()
