"""Benchmark entry point.

    python3 perfsuite/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Workloads: ``sim-shared`` and ``sim-private`` (the simulator) and
``serve-routed`` (the sharded mapping service).  The two stacks never share
a workload or a process.  With ``--trace 0`` the last line of output
carries the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a separate traced run.  The exit code is 0 only when
every output check passed.  See ``perfsuite/README.md``.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402

WORKLOADS = ("sim-shared", "sim-private", "serve-routed")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    common.require_source()
    # A SIGTERM unwinds like an exception, so the serving workload still
    # stops the cluster it started.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if args.workload.startswith("sim-"):
        import sim
        return sim.run(args.workload, args.seed, args.seconds, bool(args.trace))
    import serve
    return serve.run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
