"""Repository benchmark: time the reproduction's layers from outside.

Run from the root of a checkout::

    python3 perfbench/run.py --workload sim --seed 0 --seconds 55 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones and writes a Chrome trace to ``perfbench/out/``.  Every
result is also appended, with its fingerprint, to
``perfbench/out/records.jsonl`` for ``compare.py``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import monotonic
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 5  # set-up is timed in this many fresh processes
CHILD_TIMEOUT_S = 150


def child(args, tmp, extra, env):
    """Run worker.py; return (spawn time, parsed last stdout line)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--tmp", str(tmp), *extra,
    ]
    spawned = monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    for line in lines[:-1]:
        print(line, file=sys.stderr)
    return spawned, json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=55)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp = HERE / ".tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        # One process, no helper threads, every cache inside the checkout.
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
        REPRO_SWEEP_CACHE=str(tmp / "sweep-cache.json"),
        REPRO_COST_CACHE=str(tmp / "cost-cache.json"),
        GIT_CEILING_DIRECTORIES=str(ROOT.parent),
    )
    OUT.mkdir(exist_ok=True)
    trace_out = OUT / f"trace-{args.workload}-s{args.seed}.json"
    try:
        probes = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                probes.append(child(args, tmp, ["--setup-only"], env))
        extra = ["--trace-out", str(trace_out)] if args.trace else []
        spawned, res = child(args, tmp, extra, env)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {args.workload} failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = dict(res["metrics"])
    setup_s = [p["ready"] - t for t, p in probes + [(spawned, res)]]
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup_s)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(units) != set(metrics):
        print(f"perfbench: metric set differs from BENCHMARK.json: "
              f"{sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 1
    result = {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  pass_wall_s=res["pass_wall_s"], setup_samples_s=setup_s,
                  created=time.time(),
                  fingerprint=res["fingerprint"])
    with open(OUT / "records.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
