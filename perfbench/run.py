"""Live end-to-end benchmark of the monitoring pipeline.

Usage (from the repository root)::

    python3 perfbench/run.py --workload query --seed 1 --seconds 30 --trace 0

One run builds the live system for the workload (see ``harness.py``),
sets it up several times and reports the median set-up time, measures
the last build for ``--seconds``, checks every output against the
oracle (``oracle.py``), tears everything down and verifies that no child
process, thread or temporary store directory is left.  It prints every
metric as ``name value unit`` and, as its last line, one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` makes an
untraced pass and then a traced pass with the same seed, and reports
the per-layer metrics of the traced pass (``tracer.py`` wraps each
layer's public entry points from the outside; nothing under ``src/`` is
instrumented).  Spans are written to ``.perfbench/trace-<workload>.jsonl``.

The run exits non-zero, without a result line, when the package cannot
be imported, when the run passes its deadline, or when anything it
started is still alive after teardown.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

#: Seconds after start at which the run stops measuring and fails.
SOFT_DEADLINE = 160.0
#: Seconds after start at which a run stuck in teardown is killed.
HARD_DEADLINE = 174.0


class DeadlineExceeded(RuntimeError):
    """Raised in the main thread when the run passes its soft deadline."""


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _install_deadlines(started: float) -> None:
    """SIGALRM-based deadlines: no watchdog thread to outlive the run."""
    import multiprocessing
    import signal
    import time

    def on_alarm(_signum, _frame):
        elapsed = time.perf_counter() - started
        if elapsed < HARD_DEADLINE:
            signal.setitimer(signal.ITIMER_REAL, HARD_DEADLINE - elapsed)
            raise DeadlineExceeded(f"run passed its {SOFT_DEADLINE:.0f} s deadline")
        for child in multiprocessing.active_children():
            child.kill()
            child.join(1.0)
        sys.stderr.write("perfbench: teardown hung past the hard deadline\n")
        sys.stderr.flush()
        os._exit(3)

    signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, SOFT_DEADLINE)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        import repro  # noqa: F401  (the package under test, from src/)
    except ImportError as exc:
        sys.stderr.write(f"perfbench: cannot import the package under test: {exc}\n")
        return 2
    import signal
    import time

    from measure import run_workload
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        sys.stderr.write(
            f"perfbench: unknown workload {args.workload!r}; "
            f"known: {', '.join(sorted(WORKLOADS))}\n"
        )
        return 2
    started = time.perf_counter()
    _install_deadlines(started)
    try:
        report = run_workload(
            workload,
            seed=args.seed,
            seconds=args.seconds,
            trace=bool(args.trace),
            out_dir=os.path.join(ROOT, ".perfbench"),
            deadline=started + SOFT_DEADLINE - 5.0,
        )
    except DeadlineExceeded as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 3
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    for line in report.lines:
        print(line)
    if report.problems:
        for problem in report.problems:
            sys.stderr.write(f"perfbench: {problem}\n")
        return 4
    print(json.dumps(report.result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
