"""Summarize benchmark records and diff two summaries.

    python3 perfbench/compare.py summarize [RECORDS.jsonl] [--out FILE]
    python3 perfbench/compare.py diff BASE NEW

``summarize`` groups the records ``run.py`` appends to
``perfbench/out/records.jsonl`` by workload and trace mode, and gives
each metric's median, quartiles (``statistics.quantiles(n=4)``) and
spread (interquartile distance over median).  ``diff`` takes two
summaries (or records files) and compares each end-to-end metric's
median against the bound in BENCHMARK.json.  It refuses -- exit code
3 -- to compare records whose ``SIMULATOR_REV`` or host differ: a
different simulator revision computes different numbers, and a
different host runs at a different speed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
# Fields that must agree before two results may be compared.
GUARDED = ("simulator_rev", "hostname")


class Refused(Exception):
    pass


def _stats(values):
    values = sorted(values)
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"n": len(values), "median": med, "q1": q1, "q3": q3,
            "spread": spread, "min": values[0], "max": values[-1]}


def _guard(fingerprints, what):
    for field in GUARDED:
        seen = {fp.get(field) for fp in fingerprints}
        if len(seen) > 1:
            raise Refused(f"{what} mix {field} values {sorted(map(str, seen))}")


def summarize(records):
    if not records:
        raise Refused("no records")
    _guard([r["fingerprint"] for r in records], "records")
    groups = {}
    for r in records:
        mode = "per_layer" if r["trace"] else "end_to_end"
        groups.setdefault(r["workload"], {}).setdefault(mode, []).append(r)
    first = records[0]["fingerprint"]
    out = {
        "schema": "perfbench/summary/v1",
        "fingerprint": {k: first[k] for k in (
            "simulator_rev", "cost_key_version", "python", "nproc", "hostname")},
        "git": sorted({str(r["fingerprint"]["git"].get("sha")) for r in records}),
        "workloads": {},
    }
    for workload, modes in sorted(groups.items()):
        entry = {}
        for mode, runs in modes.items():
            metrics = {}
            for name in runs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in runs]
                metrics[name] = dict(_stats(values), unit=runs[0]["metrics"][name]["unit"])
            entry[mode] = {
                "runs": len(runs),
                "seeds": sorted(r["seed"] for r in runs),
                "seconds": sorted({r["seconds"] for r in runs}),
                "all_correct": all(r["correct"] for r in runs),
                "attempted": sum(r["attempted"] for r in runs),
                "failed": sum(r["failed"] for r in runs),
                "metrics": metrics,
            }
        out["workloads"][workload] = entry
    return out


def load(path):
    path = Path(path)
    if path.suffix == ".jsonl":
        records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
        return summarize(records)
    return json.loads(path.read_text())


def diff(base, new):
    """Rows of (workload, metric, base median, new median, change,
    verdict); ``change`` is signed so that positive means worse."""
    _guard([base["fingerprint"], new["fingerprint"]], "base and new")
    rows = []
    for m in SPEC["end_to_end"]:
        for workload in sorted(set(base["workloads"]) & set(new["workloads"])):
            b = base["workloads"][workload].get("end_to_end", {}).get("metrics", {}).get(m["name"])
            n = new["workloads"][workload].get("end_to_end", {}).get("metrics", {}).get(m["name"])
            if b is None or n is None or not b["median"]:
                continue
            change = (n["median"] - b["median"]) / abs(b["median"])
            if m["better"] == "higher":
                change = -change
            if max(b["spread"], n["spread"]) > m["bound"]:
                verdict = "unresolved"
            elif change > m["bound"]:
                verdict = "WORSE"
            elif change < -b["spread"]:
                verdict = "better"
            else:
                verdict = "same"
            rows.append((workload, m["name"], b["median"], n["median"], change, verdict))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("summarize")
    s.add_argument("records", nargs="?", default=str(HERE / "out" / "records.jsonl"))
    s.add_argument("--out")
    d = sub.add_parser("diff")
    d.add_argument("base")
    d.add_argument("new")
    args = ap.parse_args(argv)
    try:
        if args.cmd == "summarize":
            text = json.dumps(load(args.records), indent=1) + "\n"
            if args.out:
                Path(args.out).write_text(text)
            else:
                sys.stdout.write(text)
            return 0
        rows = diff(load(args.base), load(args.new))
    except Refused as exc:
        print(f"compare: refused: {exc}", file=sys.stderr)
        return 3
    print(f"{'workload':<12} {'metric':<13} {'base':>12} {'new':>12} {'worse by':>9}  verdict")
    for workload, name, b, n, change, verdict in rows:
        print(f"{workload:<12} {name:<13} {b:>12.4g} {n:>12.4g} {change:>+9.1%}  {verdict}")
    return 1 if any(r[-1] == "WORSE" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
