"""One benchmark pass in a fresh process: set up, run a workload once, report.

run.py starts it with BLAS pinned to one thread, as

    python3 benchmarks/child.py WORKLOAD SEED SCALE MODE SPAWNED_AT OUTDIR

MODE is ``plain``, ``traced`` or ``setup``; a ``setup`` probe stops before
the first layer call.  SPAWNED_AT is the parent's CLOCK_MONOTONIC reading
just before the start, so setup_s covers interpreter start, imports and
input generation, up to the first layer call, as a user of a fresh process
pays it.  The last line of standard output is one JSON object.
"""

import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import quditbench
import tracer
import workloads

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _digest(outdir: Path) -> str:
    """sha256 over the names and bytes of every output file."""
    h = hashlib.sha256()
    for path in sorted(outdir.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "quditbench": quditbench.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main(argv: list[str]) -> int:
    workload, seed, scale, mode, spawned_at, outdir = argv
    seed, spawned_at, outdir = int(seed), float(spawned_at), Path(outdir)
    expected = Path(__file__).resolve().parent.parent / "src" / "quditbench"
    if Path(quditbench.__file__).resolve().parent != expected:
        print(f"error: imported quditbench from {quditbench.__file__}, not {expected}", file=sys.stderr)
        return 2
    inputs = workloads.make_inputs(workload, seed, scale)
    setup_s = _now() - spawned_at
    if mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    spans = tracer.Tracer() if mode == "traced" else None
    with spans or contextlib.nullcontext():
        t0 = _now()
        items = workloads.run_pass(workload, inputs, outdir)
        wall = _now() - t0
    rel_errs = [it.rel_err for it in items if it.rel_err is not None]
    failures = [it for it in items if not it.ok]
    report = {
        "workload": workload,
        "seed": seed,
        "mode": mode,
        "inputs": inputs,
        "setup_s": setup_s,
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "max_rel_err": max(rel_errs) if rel_errs else None,
        "attempted": len(items),
        "failed": len(failures),
        "failures": [{"label": it.label, "rel_err": it.rel_err, "error": it.error} for it in failures[:10]],
        "digest": _digest(outdir),
        "environment": _environment(),
    }
    if spans is not None:
        report["layers"] = spans.layer_metrics(wall)
        spans.write_spans(outdir.parent / f"spans-{workload}-seed{seed}.jsonl")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
