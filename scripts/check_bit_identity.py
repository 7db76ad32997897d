#!/usr/bin/env python
"""Differential bit-identity check across the allocation kernels.

Runs every design point in a seeded config matrix (allocator
architectures x topologies x faults on/off x observer on/off) under the
reference kernel and every kernel under test (default: ``fast`` and the
generated per-design-point ``compiled`` kernel) and asserts the
resulting :class:`~repro.netsim.simulator.SimulationResult` payloads --
every statistic, down to the last misspeculation counter -- are
identical.  For observed runs the collected metrics rows must match as
well.

This is the command-line face of the equivalence harness (the pytest
face lives in ``tests/perf/test_kernel_equivalence.py``); CI runs it
with ``--quick``, and any optimisation work on the fast or compiled
kernels should keep it green at full depth:

    PYTHONPATH=src python scripts/check_bit_identity.py [--quick] [-v]
        [--kernel NAME ...]

``--kernel`` restricts the kernels under test; names are validated
against the kernel registry (``repro.netsim.codegen.KERNELS``) and an
unknown name exits with status 2 listing the available kernels.

``--cost`` checks the gate-level cost flow instead: every entry of the
committed cost golden (``benchmarks/.cost_cache.json``, or the file
named by ``--cost-golden``) is recomputed cold, with no cache, and must
equal the committed delay, area, power, cell count and failure flag
exactly:

    PYTHONPATH=src python scripts/check_bit_identity.py --cost [-v]

Exit status 0 iff every point is identical; 2 when nothing could be
compared (empty matrix or golden).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from repro.eval.cost import switch_allocator_costs, vc_allocator_costs
from repro.eval.design_points import ALL_POINTS
from repro.faults.plan import FaultPlan, LinkFault, StuckVC
from repro.netsim.codegen import KERNELS
from repro.netsim.simulator import SimulationConfig, build_network, run_simulation
from repro.obs.observer import SimObserver

# Kernels compared against "reference" when --kernel is not given.
DEFAULT_KERNELS = ("fast", "compiled")

# Short but non-trivial windows: long enough to reach steady state and
# exercise contention, misspeculation and (for fault points) blocked
# links, short enough that the full matrix stays a few minutes.
WINDOWS = dict(warmup_cycles=200, measure_cycles=600, drain_cycles=600)

FAULT_PLAN = FaultPlan(
    seed=7,
    link_rate=0.0002,
    mean_downtime=30,
    link_faults=(LinkFault(router=9, port=1, start=250, end=450),),
    stuck_vcs=(StuckVC(router=3, port=2, vc=1, start=0),),
)


def config_matrix(quick: bool) -> List[Tuple[str, SimulationConfig, bool]]:
    """(label, config, observed) triples for the sweep."""
    points: List[Tuple[str, SimulationConfig, bool]] = []
    archs = ["sep_if", "sep_of", "wf"]
    topologies = ["mesh", "fbfly"]
    for arch in archs:
        for topo in topologies:
            for faulted in (False, True):
                for observed in (False, True):
                    if quick and faulted != observed:
                        # Quick mode: plain and fully-loaded points
                        # only (arch x topo coverage is preserved).
                        continue
                    arbiter = "m" if arch == "sep_of" else "rr"
                    cfg = SimulationConfig(
                        topology=topo,
                        vcs_per_class=2,
                        injection_rate=0.30,
                        vc_alloc_arch=arch,
                        vc_alloc_arbiter=arbiter,
                        sw_alloc_arch=arch,
                        sw_alloc_arbiter=arbiter,
                        speculation="pessimistic" if arch != "sep_of" else "conventional",
                        seed=11,
                        faults=FAULT_PLAN if faulted else None,
                        **WINDOWS,
                    )
                    label = (
                        f"{arch}/{topo}"
                        f"{'/faults' if faulted else ''}"
                        f"{'/observer' if observed else ''}"
                    )
                    points.append((label, cfg, observed))
    return points


def validate_kernels(names: List[str]) -> Optional[str]:
    """Error message if any requested kernel is not in the registry."""
    unknown = [n for n in names if n not in KERNELS]
    if unknown:
        return (
            f"unknown kernel(s) {', '.join(map(repr, unknown))} "
            f"(available: {', '.join(KERNELS)})"
        )
    return None


def kernel_probe(kernels: Tuple[str, ...] = DEFAULT_KERNELS) -> Optional[str]:
    """Error message if any allocation kernel cannot be selected.

    A removed or broken kernel must fail this harness loudly -- an
    exception here, swallowed into an empty matrix, would otherwise
    read as "all identical".
    """
    cfg = SimulationConfig(
        topology="mesh", warmup_cycles=0, measure_cycles=1, drain_cycles=0
    )
    for kernel in ("reference",) + tuple(kernels):
        try:
            build_network(cfg, kernel=kernel)
        except Exception as exc:  # noqa: BLE001 -- report, don't crash
            return f"{kernel!r} kernel unavailable: {exc}"
    return None


def run_point(
    cfg: SimulationConfig,
    observed: bool,
    kernels: Tuple[str, ...] = DEFAULT_KERNELS,
) -> Tuple[Dict[str, dict], Dict[str, Optional[List[dict]]]]:
    """Run one design point under the reference and the given kernels.

    Returns ``(payloads, observer_rows)``, each keyed by kernel name
    (with ``"reference"`` always present).
    """
    payloads: Dict[str, dict] = {}
    rows: Dict[str, Optional[List[dict]]] = {}
    for kernel in ("reference",) + tuple(kernels):
        obs = SimObserver(sample_every=100) if observed else None
        result = run_simulation(cfg, observer=obs, kernel=kernel)
        payloads[kernel] = result.to_payload()
        rows[kernel] = obs.rows if obs is not None else None
    return payloads, rows


def diff_payloads(got: dict, ref: dict, name: str = "fast") -> List[str]:
    """Human-readable field-level differences (empty = identical)."""
    out = []
    for key in sorted(set(got) | set(ref)):
        a, b = got.get(key), ref.get(key)
        if a != b and not (a != a and b != b):  # NaN == NaN for our purposes
            out.append(f"  {key}: {name}={a!r} reference={b!r}")
    return out


COST_GOLDEN = Path(__file__).resolve().parents[1] / "benchmarks" / ".cost_cache.json"

# (kind, design point label, arch, arbiter, cache key version)
CostGroup = Tuple[str, str, str, str, str]


def cost_matrix(
    golden: Dict[str, dict], labels: Optional[Iterable[str]] = None
) -> List[CostGroup]:
    """One cold cost call per (kind, design point, arch, arbiter) of the
    golden, in golden order; ``labels`` restricts the design points."""
    keep = None if labels is None else set(labels)
    groups: Dict[CostGroup, None] = {}
    for key in golden:
        kind, label, arch, arbiter, _variant, version = key.split("|")
        if keep is None or label in keep:
            groups[(kind, label, arch, arbiter, version)] = None
    return list(groups)


def recompute_costs(group: CostGroup) -> Dict[str, dict]:
    """Cold (``cache=None``) cost entries of one group, keyed as the
    cost cache keys them."""
    kind, label, arch, arbiter, version = group
    point = {p.label: p for p in ALL_POINTS}[label]
    fn = vc_allocator_costs if kind == "vc" else switch_allocator_costs
    return {
        f"{kind}|{label}|{arch}|{arbiter}|{r.variant}|{version}": asdict(r)
        for r in fn(point, variants=[(arch, arbiter)], cache=None)
    }


def diff_costs(got: Dict[str, dict], golden: Dict[str, dict]) -> List[str]:
    """Entry- and field-level differences (empty = identical)."""
    out = []
    for key, entry in got.items():
        ref = golden.get(key)
        if ref is None:
            out.append(f"  {key}: recomputed but not in the golden")
            continue
        out.extend(diff_payloads(entry, ref, "recomputed"))
    return out


def check_costs(golden_path: Path, verbose: bool) -> int:
    try:
        golden = json.loads(golden_path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read cost golden {golden_path}: {exc}", file=sys.stderr)
        return 2
    groups = cost_matrix(golden)
    if not groups:
        print(
            f"error: the cost golden {golden_path} is empty -- nothing was "
            "compared, so bit identity is NOT established",
            file=sys.stderr,
        )
        return 2
    failures = 0
    recomputed: Dict[str, dict] = {}
    for group in groups:
        t0 = time.perf_counter()
        got = recompute_costs(group)
        dt = time.perf_counter() - t0
        recomputed.update(got)
        problems = diff_costs(got, golden)
        name = "/".join(group[:4])
        if problems:
            failures += 1
            print(f"MISMATCH {name}")
            for line in problems:
                print(line)
        elif verbose:
            print(f"ok {name} ({len(got)} entries, {dt:.1f}s)")
    missing = [key for key in golden if key not in recomputed]
    for key in missing:
        print(f"  {key}: in the golden but not recomputed")
    if failures or missing:
        print(f"{failures}/{len(groups)} cost groups differ from {golden_path}")
        return 1
    print(f"ALL IDENTICAL ({len(golden)} cost entries vs {golden_path.name})")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick",
        action="store_true",
        help="half matrix (plain + faults-and-observer points); CI smoke",
    )
    parser.add_argument(
        "--kernel",
        action="append",
        default=[],
        metavar="NAME",
        help="kernel to compare against reference (repeatable; default: "
        f"{', '.join(DEFAULT_KERNELS)})",
    )
    parser.add_argument(
        "-v", "--verbose", action="store_true", help="print per-point timing"
    )
    parser.add_argument(
        "--cost",
        action="store_true",
        help="check the cost flow against the cost golden instead of the "
        "simulation kernels",
    )
    parser.add_argument(
        "--cost-golden",
        type=Path,
        default=COST_GOLDEN,
        metavar="PATH",
        help="cost golden for --cost (default: benchmarks/.cost_cache.json)",
    )
    args = parser.parse_args(argv)
    if args.cost:
        return check_costs(args.cost_golden, args.verbose)

    bad = validate_kernels(args.kernel)
    if bad is not None:
        print(f"error: {bad}", file=sys.stderr)
        return 2
    kernels = tuple(args.kernel) if args.kernel else DEFAULT_KERNELS
    under_test = tuple(k for k in kernels if k != "reference")
    if not under_test:
        print(
            "error: no kernel under test (only 'reference' was named)",
            file=sys.stderr,
        )
        return 2

    points = config_matrix(args.quick)
    if not points:
        # "ALL IDENTICAL (0 design points)" is a vacuous pass; refuse it.
        print(
            "error: the design-point matrix is empty -- nothing was "
            "compared, so bit identity is NOT established",
            file=sys.stderr,
        )
        return 2
    problem = kernel_probe(under_test)
    if problem is not None:
        print(
            f"error: {problem} -- bit identity cannot be checked",
            file=sys.stderr,
        )
        return 2
    failures = 0
    for label, cfg, observed in points:
        t0 = time.perf_counter()
        payloads, rows = run_point(cfg, observed, under_test)
        dt = time.perf_counter() - t0
        problems = []
        for kernel in under_test:
            problems += diff_payloads(
                payloads[kernel], payloads["reference"], kernel
            )
            if observed and rows[kernel] != rows["reference"]:
                problems.append(f"  observer metrics rows differ ({kernel})")
        if problems:
            failures += 1
            print(f"MISMATCH {label}")
            for line in problems:
                print(line)
        elif args.verbose:
            print(f"ok {label} ({dt:.1f}s)")

    total = len(points)
    if failures:
        print(f"{failures}/{total} design points differ between kernels")
        return 1
    print(f"ALL IDENTICAL ({total} design points, "
          f"kernels: {', '.join(under_test)} vs reference)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
