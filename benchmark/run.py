"""hapticauth benchmark.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process against the sources in ``src/`` next to
this directory.  Prints the environment, the metrics under their workload
names, then, as the last line, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Exits 0 only if
every correctness check passed.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("ingest", "train-task", "train-userid", "authenticate")


def _pin_blas_threads() -> int:
    """BLAS threads = usable cores; must run before numpy is imported."""
    n = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(n)
    return n


def _blas_info() -> dict:
    import ctypes
    import numpy as np

    info = dict(np.show_config(mode="dicts")["Build Dependencies"]["blas"])
    out = {"name": info.get("name"), "version": info.get("version"), "threads": None}
    # ask the loaded OpenBLAS itself; other BLAS builds report the pinned value
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line and ".so" in line})
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out["threads"] = fn()
                return out
    out["threads"] = int(os.environ["OPENBLAS_NUM_THREADS"])
    return out


def _git_commit() -> str | None:
    """HEAD read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    import hashlib

    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "hapticauth").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(args, nproc: int) -> dict:
    import numpy as np

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "shape": args.shape,
        "nproc": nproc, "blas": _blas_info(), "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shape", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs for the smoke test")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "hapticauth" / "__init__.py").is_file():
        print(f"benchmark: no hapticauth sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    nproc = _pin_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    print("env " + json.dumps(environment(args, nproc), sort_keys=True), flush=True)
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           shape=args.shape, out_dir=ROOT / ".bench_out")
    for line in result.report:
        print(line)
    correct = result.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
