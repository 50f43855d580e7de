"""rpointhop benchmark: one workload, one seed, one JSON result line.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload register --seed 1 --seconds 15 --trace 0

Workloads are ``register`` and ``register_refine`` (see
``perfbench/README.md``). ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer ones from a separate traced run. The last line
of standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is a detail record (input fingerprint, environment,
latencies, per-trial errors, failures). ``failed`` counts every failed
operation; ``correct`` is false only for a wrong output, a failed check or
an untyped error, not for the program's typed refusals. Runtime files go to
``perfbench_out/``.

The program is imported from ``src/`` of the checkout this file sits in;
without it the benchmark exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def cap_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP threads at the usable core count; must run before
    numpy is imported."""
    n = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    for var in THREAD_VARS:
        os.environ[var] = str(n)
    return {var: os.environ[var] for var in THREAD_VARS}


def git_commit(root: Path) -> str | None:
    """HEAD of the checkout when it is a git work tree, read from .git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(thread_cap: dict[str, str]) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_cap": thread_cap,
        "git_commit": git_commit(ROOT),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("register", "register_refine"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not (SRC / "rpointhop" / "__init__.py").is_file():
        print(f"perfbench: no rpointhop sources under {SRC}", file=sys.stderr)
        return 2
    thread_cap = cap_threads()
    sys.path.insert(0, str(SRC))
    import rpointhop

    if Path(rpointhop.__file__).resolve().parent != SRC / "rpointhop":
        print(f"perfbench: imported rpointhop from {rpointhop.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT.mkdir(exist_ok=True)
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace), OUT)
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace}
    detail.update(result.detail)
    detail["environment"] = environment(thread_cap)
    print(json.dumps({"detail": detail}))
    ledger = result.ledger
    print(json.dumps({
        "correct": not ledger.wrong,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in result.metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
