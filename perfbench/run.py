#!/usr/bin/env python3
"""Repository benchmark: elastic-training throughput and month-scale DES replay.

Run from the repository root::

    python3 perfbench/run.py --workload hetero_serial_diurnal --seed 1 \\
        --seconds 10 --trace 0

Each run sets the workload up 19 times over the run (``setup_s`` is
the median), drives its elastic-training job in a closed loop for
``--seconds`` seconds, replays six seeded cluster traces on the
batched DES core, and checks every output:

- the final parameter fingerprint equals a single-worker serial run of
  the same seed, ESTs and step count (timed apart: ``baseline_samples_per_s``);
- every replayed job completes, and a reduced trace gives the same
  ``EventLog`` fingerprint under ``run_batched`` and ``run_reference``;
- a fixed trace, the same for every seed, gives the simulated outcome
  recorded in :mod:`workloads`;
- on the pool workload, no shared-memory slab or child process outlives
  the backend.

With ``--trace 0`` the last output line carries the end-to-end metrics.
With ``--trace 1`` the same work runs once untraced and once with the
layer wrappers of :mod:`spans` installed; the last line carries the
per-layer metrics and ``bench.trace_overhead_ratio``, and the spans are
written to ``.perfbench/``.  Exit status: 0 all checks passed, 1 a check
failed (the result line says ``"correct": false``), 2 bad arguments or
the program is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: everything a run writes (pool scratch dirs, postmortems, span dumps)
WORK_DIR = ROOT / ".perfbench"
#: one BLAS thread per process: with the pool's two children the busy
#: threads never exceed the two cores the benchmark is sized for
BLAS_THREADS = 1


def _prepare_environment() -> None:
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    tmp = WORK_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["REPRO_POSTMORTEM_DIR"] = str(WORK_DIR / "postmortem")
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    _prepare_environment()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    from bench import run_workload

    result = run_workload(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), WORK_DIR
    )
    for line in result.pop("report"):
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
