"""Set-up probe: in a fresh interpreter, time ``import walkwait`` and its CLI
module plus building every scenario, model and strategy of the inputs one
run times.

Usage: python3 perfbench/probe_setup.py <workload> <seed> <blocks>
       python3 perfbench/probe_setup.py reference

Prints the seconds as the last line of standard output.  The inputs are
generated before the clock starts; the generator uses the standard library
only, so numpy is first imported by walkwait, inside the timed region.  The
``reference`` form times ``import numpy`` alone, from the same start, as the
fixed start-up work the runner gauges the machine's speed by (see
reference.py).
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def main() -> int:
    import workloads

    if sys.argv[1:] == ["reference"]:
        t0 = time.perf_counter()
        import numpy  # noqa: F401

        print(repr(time.perf_counter() - t0))
        return 0
    workload, seed, blocks = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    pool = workloads.generate(workload, seed, blocks)
    t0 = time.perf_counter()
    import walkwait
    import walkwait.cli  # noqa: F401 - the package does not import it

    built = [workloads.build(walkwait, spec) for spec in pool]
    elapsed = time.perf_counter() - t0
    if not built:
        return 1
    print(repr(elapsed))
    return 0


if __name__ == "__main__":
    sys.exit(main())
