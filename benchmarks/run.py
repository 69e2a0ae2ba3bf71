"""quditbench benchmark: end-to-end and per-layer numbers for three workloads.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload dephasing-dense --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20 --trace 0

Every pass of a workload runs in a fresh child process (child.py) with BLAS
pinned to one thread, one after another, until ``--seconds`` have gone.
With ``--trace 0`` the passes are untraced and the last line of standard
output carries the end-to-end metrics, medians over passes.  With
``--trace 1`` untraced and traced passes alternate and it carries the
per-layer metrics of the traced ones.  The lines before it give provenance,
output digests and failed_frac.  Spans and a result file per run go to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("dephasing-dense", "gate-synthesis", "general-oracles")
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("max_rel_err", "ratio"),
)
MIN_PASSES = 3  # per kind of pass, so every median has three samples
SETUP_SAMPLES = 5  # fresh starts behind the setup_s median of a --trace 0 run
TIME_LIMIT_S = 170.0  # a run ends before this, children included
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class ChildFailed(RuntimeError):
    pass


def _child(workload: str, seed: int, scale: str, mode: str, deadline: float) -> dict:
    """Start child.py in ``mode`` and return its report."""
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    outdir = OUT / f"{workload}-seed{seed}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "child.py"), workload, str(seed), scale, mode]
    try:
        proc = subprocess.run(
            cmd + [repr(_now()), str(outdir)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - _now()),
        )
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} child of {workload} did not finish in time") from exc
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    if proc.returncode != 0:
        raise ChildFailed(f"{mode} child of {workload} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: int, scale: str):
    """Run passes until ``seconds`` have gone and every kind has MIN_PASSES.

    Returns (untraced reports, traced reports, setup_s samples); set-up
    probes top the samples up to SETUP_SAMPLES.
    """
    start = _now()
    deadline = start + TIME_LIMIT_S
    plain: list[dict] = []
    traced: list[dict] = []
    longest = 0.0
    while True:
        elapsed = _now() - start
        enough = len(plain) >= MIN_PASSES and (not trace or len(traced) >= MIN_PASSES)
        if enough and (elapsed >= seconds or elapsed + longest > TIME_LIMIT_S - 10):
            break
        mode = "traced" if trace and len(traced) < len(plain) else "plain"
        t0 = _now()
        (traced if mode == "traced" else plain).append(_child(workload, seed, scale, mode, deadline))
        longest = max(longest, _now() - t0)
    setups = [r["setup_s"] for r in plain]
    while not trace and len(setups) < SETUP_SAMPLES:
        setups.append(_child(workload, seed, scale, "setup", deadline)["setup_s"])
    return plain, traced, setups


def _median(reports: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in reports)


def end_to_end(plain: list[dict], setups: list[float]) -> dict:
    values = {
        "wall_s": _median(plain, "wall_s"),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": _median(plain, "peak_rss_mb"),
        "max_rel_err": max(r["max_rel_err"] for r in plain),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(plain: list[dict], traced: list[dict]) -> dict:
    out = {}
    for name, unit, _, _ in tracer.LAYER_METRICS:
        if name == "trace.overhead_s":
            value = _median(traced, "wall_s") - _median(plain, "wall_s")
        else:
            value = statistics.median(r["layers"][name] for r in traced)
        out[name] = {"value": value, "unit": unit}
    return out


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "quditbench").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance(workload: str, seed: int, scale: str, plain: list[dict], traced: list[dict], setups) -> dict:
    reports = plain + traced
    digests = sorted({r["digest"] for r in reports})
    return {
        "workload": workload,
        "seed": seed,
        "scale": scale,
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "environment": reports[0]["environment"],
        "inputs": reports[0]["inputs"],
        "output_digest": digests[0] if len(digests) == 1 else digests,
        "digests_match": len(digests) == 1,
        "samples": {
            "wall_s": [r["wall_s"] for r in plain],
            "traced_wall_s": [r["wall_s"] for r in traced],
            "setup_s": setups,
        },
    }


def run_workload(workload: str, seed: int, seconds: float, trace: int, scale: str) -> dict:
    """Run one workload, print its report lines and return its result object."""
    plain, traced, setups = run_passes(workload, seed, seconds, trace, scale)
    passes = plain + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    metrics = per_layer(plain, traced) if trace else end_to_end(plain, setups)
    prov = provenance(workload, seed, scale, plain, traced, setups)
    failures = [f for p in passes for f in p["failures"]]

    with open(OUT / f"result-{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump({"provenance": prov, "metrics": metrics, "failures": failures}, fh, indent=2)
        fh.write("\n")
    print("provenance " + json.dumps(prov, sort_keys=True))
    for failure in failures:
        print(f"failed item {failure['label']}: rel_err={failure['rel_err']}", file=sys.stderr)
        if failure["error"]:
            print(failure["error"], file=sys.stderr)
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(
        f"{workload} failed_frac = {failed / attempted:.6g} ratio "
        f"({failed}/{attempted} work items, {len(passes)} passes)"
    )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full", help="tiny is for tests")
    args = parser.parse_args(argv)
    if not (SRC / "quditbench" / "__init__.py").is_file():
        print(f"error: no quditbench sources under {SRC}", file=sys.stderr)
        return 2
    if not 0 <= args.seconds <= 60:
        print("error: --seconds must lie in [0, 60]", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    results = {}
    try:
        for workload in WORKLOADS if args.workload == "all" else (args.workload,):
            results[workload] = run_workload(workload, args.seed, args.seconds, args.trace, args.scale)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        (result,) = results.values()
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
