"""One benchmark process: set up a workload, run timed passes, check
every result, print one JSON line.

``run.py`` starts this script in a fresh interpreter with
``PYTHONPATH=<checkout>/src``; it is not meant to be run by hand except
to record digests::

    PYTHONPATH=src python3 perfbench/worker.py --workload sim \\
        --seed 0 --seconds 1 --tmp <scratch dir> --record

``--record`` runs two passes, requires them to agree, and writes their
digests into ``digests.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DIGESTS = HERE / "digests.json"
MAX_MEASURE_S = 120.0  # hard stop well inside the 180 s run limit
MIN_PASSES = 2  # a held-out seed is checked by repeat agreement


def monotonic() -> float:
    """Clock shared with the parent process (CLOCK_MONOTONIC is
    system-wide), so set-up time can span the process start."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def digest(value) -> str:
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:24]


class OpLog:
    """Every op's outcome, per pass: ``(pass, key, seeded, digest,
    error)``; ``digest`` is ``None`` when the op raised."""

    def __init__(self) -> None:
        self.pass_no = 0
        self.entries = []

    def record(self, key, seeded, value) -> None:
        self.entries.append((self.pass_no, key, seeded, digest(value), None))

    def fail(self, key, seeded, exc) -> None:
        traceback.print_exception(type(exc), exc, exc.__traceback__, file=sys.stderr)
        self.entries.append((self.pass_no, key, seeded, None, repr(exc)))

    def fail_all(self, keys, seeded, exc) -> None:
        for key in keys:
            self.fail(key, seeded, exc)

    def verify(self, committed, seed):
        """Count failures: an op fails when it raised, when its digest
        differs from the committed one, or -- on a seed with no
        committed digest -- when it differs from its first repeat."""
        first = {}
        failed = 0
        for pass_no, key, seeded, got, error in self.entries:
            ref_key = f"s{seed}|{key}" if seeded else key
            if error is not None:
                failed += 1
                continue
            want = committed.get(ref_key)
            if want is None:
                want = first.setdefault(ref_key, got)
            if got != want:
                failed += 1
                print(f"perfbench: digest mismatch in pass {pass_no}: {key} "
                      f"got {got} want {want}", file=sys.stderr)
        return len(self.entries), failed

    def observed(self, seed):
        out = {}
        for _, key, seeded, got, error in self.entries:
            ref_key = f"s{seed}|{key}" if seeded else key
            if error is not None or out.setdefault(ref_key, got) != got:
                raise SystemExit(f"perfbench: cannot record {key}: "
                                 f"{error or 'repeats disagree'}")
        return out


def fingerprint() -> dict:
    """Provenance stamped on every record; compare.py refuses to diff
    records whose simulator revision or host differ."""
    import platform
    import socket

    from repro.eval.bench_history import git_fingerprint
    from repro.eval.cost import CostResult, vc_allocator_costs
    from repro.eval.design_points import MESH_POINTS
    from repro.netsim.simulator import SIMULATOR_REV

    keys = []

    class KeyProbe:
        """Answers every lookup, so reading the cost flow's cache key
        synthesizes nothing."""

        def get(self, key):
            keys.append(key)
            return CostResult("", "", "", "", None, None, None, None)

        def put(self, key, result):
            pass

    vc_allocator_costs(MESH_POINTS[0], variants=[("sep_if", "rr")], cache=KeyProbe())
    return {
        "git": git_fingerprint(ROOT),
        "simulator_rev": SIMULATOR_REV,
        "cost_key_version": keys[0].rsplit("|", 1)[1],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "hostname": socket.gethostname(),
    }


def load_committed(workload: str) -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh).get(workload, {})


def run_passes(wl, ops, seconds, trace, tracer):
    """Timed passes until the next one would overrun ``seconds``.
    A traced run alternates untraced and traced passes so the tracing
    overhead is measured on the same process and inputs."""
    from workloads import null_span

    passes = []
    start = time.perf_counter()
    while True:
        n = len(passes)
        traced = trace and n % 2 == 1
        ops.pass_no = n
        span = null_span
        if traced:
            tracer.pass_no = n
            wl.instrument(tracer)
            span = tracer.span
        t0 = time.perf_counter()
        try:
            stats = wl.run_pass(ops, span, traced)
        finally:
            if traced:
                tracer.restore()
        stats["wall"] = time.perf_counter() - t0
        stats.setdefault("work_time", stats["wall"])
        stats["traced"] = traced
        stats["pass_no"] = n
        passes.append(stats)
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["wall"] for p in passes)
        if len(passes) >= MIN_PASSES and (
            elapsed + typical > seconds or elapsed > MAX_MEASURE_S
        ):
            return passes


def end_to_end(passes, attempted, failed) -> dict:
    return {
        "wall_s": statistics.median(p["wall"] for p in passes),
        "work_per_s": statistics.median(
            [p["units"] / p["work_time"] for p in passes if p["work_time"] > 0] or [0.0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "success_rate": (attempted - failed) / attempted,
    }


def per_layer(wl, tracer, passes, attempted, failed, layer_names) -> dict:
    metrics = {name: 0.0 for name in layer_names}
    traced_nos = [p["pass_no"] for p in passes if p["traced"]]
    tracer.pass_no = -1  # spans recorded after the passes belong to none
    metrics.update(wl.layer_metrics(tracer, passes))
    per_pass = [tracer.self_times(n) for n in traced_nos]
    for layer in per_pass[0]:
        metrics[f"self_s.{layer}"] = statistics.median(t[layer] for t in per_pass)
    plain = statistics.median(p["wall"] for p in passes if not p["traced"])
    traced = statistics.median(p["wall"] for p in passes if p["traced"])
    metrics["trace.overhead_frac"] = traced / plain - 1.0
    metrics["error_rate"] = failed / attempted
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args(argv)

    import repro
    if Path(repro.__file__).resolve().parent != ROOT / "src" / "repro":
        print(f"perfbench: imported repro from {repro.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed, args.tmp)
    wl.prepare()
    ready = monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    from tracer import Tracer

    ops = OpLog()
    tracer = Tracer()
    trace = bool(args.trace) and not args.record
    passes = run_passes(wl, ops, args.seconds, trace, tracer)
    if args.record:
        with open(DIGESTS) as fh:
            table = json.load(fh)
        observed = ops.observed(args.seed)
        table.setdefault(args.workload, {}).update(observed)
        with open(DIGESTS, "w") as fh:
            json.dump(table, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(json.dumps({"recorded": len(observed)}))
        return 0

    attempted, failed = ops.verify(load_committed(args.workload), args.seed)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        metrics = per_layer(wl, tracer, passes, attempted, failed, names)
        if args.trace_out:
            tracer.write_chrome(args.trace_out, {
                "workload": args.workload, "seed": args.seed})
    else:
        metrics = end_to_end(passes, attempted, failed)
    print(json.dumps({
        "ready": ready,
        "attempted": attempted,
        "failed": failed,
        "pass_wall_s": [p["wall"] for p in passes],
        "metrics": metrics,
        "fingerprint": fingerprint(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
