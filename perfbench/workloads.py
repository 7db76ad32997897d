"""The benchmark workloads: ``sim`` (network sweeps) and ``alloc``
(the gate-level cost flow and the exhaustive allocator checks).

Each workload is a closed batch driven from one process: ``jobs=1``
(the inline scheduler), no process pool, no extra threads.  Its inputs
-- simulation configs, fault plans, design-point order and request
matrices -- are generated from the workload seed; the program receives
only those inputs.  Caches live in a temporary directory and are
deleted after every pass, so every pass starts cold.

A workload object has these parts, called by ``worker.py``:

* ``__init__(seed, tmpdir)``: build the inputs (counted in ``setup_s``);
* ``prepare()``: one-time per-process preparation (also ``setup_s``);
* ``run_pass(ops, span, traced)``: the timed body; every result goes
  through ``ops.record`` so it is checked against the committed
  digests, and ``span`` is ``Tracer.span`` on traced passes.  It returns
  the pass's work ``units`` and, where only part of the pass is that
  work (the cold sweeps), its ``work_time``;
* ``instrument(tracer)`` and ``layer_metrics(tracer, passes)``: the
  traced run's wrappers and the per-layer numbers derived from them.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import time
from contextlib import nullcontext
from dataclasses import asdict, replace
from functools import partial
from typing import Any, Dict, List

# Simulated window per sweep point: long enough that near-saturation
# points spend most of their time in allocation, short enough that one
# pass of every sweep fits several times into a run.
SIM_WINDOWS = dict(warmup_cycles=100, measure_cycles=250, drain_cycles=150)
SIM_CYCLES = sum(SIM_WINDOWS.values())

BANDS = ("low_load", "mid", "near_sat")


def _rng(workload: str, seed: int) -> random.Random:
    # String seeding hashes with SHA-512, independent of PYTHONHASHSEED.
    return random.Random(f"perfbench/{workload}/{seed}")


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def null_span(name, **args):
    """Stand-in for ``Tracer.span`` on untraced passes."""
    return nullcontext()


def _remove(path: str) -> None:
    for leftover in (path, f"{path}.corrupt"):
        if os.path.exists(leftover):
            os.remove(leftover)


class SimWorkload:
    """Latency sweeps through ``repro.eval.netperf.latency_sweep``.

    Fig 13/14-style sweeps on the default ``fast`` kernel, from near
    zero load to just below saturation, plus the same sweep shape on a
    mesh with permanent link faults, fault-tolerant DOR and the
    ``compiled`` kernel, which hands every faulted cycle to ``fast``.
    Each sweep runs cold into a fresh cache file, then again warm from
    the same file.
    """

    name = "sim"
    link_faults = 4

    def __init__(self, seed: int, tmpdir: str) -> None:
        from repro.eval.netperf import latency_sweep
        from repro.eval.runner import ResultCache
        from repro.netsim import simulator

        self.latency_sweep = latency_sweep
        self.ResultCache = ResultCache
        self.simulator = simulator
        self.tmpdir = tmpdir
        # Separate streams keep each sweep family's inputs independent.
        self.sweeps = (self._fault_free(_rng("sim-sweep", seed))
                       + self._faulted(_rng("sim-faults", seed)))

    @staticmethod
    def _fault_free(rng):
        from repro.netsim.simulator import SimulationConfig

        sim_seed = rng.randrange(1, 2**31)
        mesh = dict(topology="mesh", vcs_per_class=4)  # 2x1x4, V=8
        fbfly = dict(topology="fbfly", vcs_per_class=2)  # 2x2x2, V=8
        mesh_rates = (0.02, 0.2, 0.42)
        fbfly_rates = (0.02, 0.25, 0.5)
        return [
            ("mesh-wf", SimulationConfig(
                vc_alloc_arch="wf", sw_alloc_arch="wf", seed=sim_seed,
                **mesh, **SIM_WINDOWS), mesh_rates, "fast"),
            ("mesh-sep_if", SimulationConfig(
                seed=sim_seed, **mesh, **SIM_WINDOWS), mesh_rates, "fast"),
            ("fbfly-sep_if", SimulationConfig(
                seed=sim_seed, **fbfly, **SIM_WINDOWS), fbfly_rates, "fast"),
        ]

    def _faulted(self, rng):
        from repro.eval.resilience import link_fault_plan
        from repro.netsim.simulator import SimulationConfig

        sim_seed = rng.randrange(1, 2**31)
        plan = link_fault_plan(self.link_faults, rng.randrange(1, 2**31))
        rates = (0.02, 0.2, 0.36)
        common = dict(
            topology="mesh", vcs_per_class=2,  # 4 classes x 2 = V=8
            routing="ft_dor", faults=plan, watchdog_cycles=1000,
            seed=sim_seed, **SIM_WINDOWS,
        )
        return [
            ("ft-sep_if", SimulationConfig(**common), rates, "compiled"),
            ("ft-wf", SimulationConfig(
                vc_alloc_arch="wf", sw_alloc_arch="wf", **common), rates,
             "compiled"),
        ]

    def prepare(self) -> None:
        """Build each distinct network once and, for the compiled
        kernel, generate the code for every distinct router spec."""
        from repro.netsim import codegen

        for _, base, _, kernel in self.sweeps:
            net = self.simulator.build_network(base, kernel=kernel)
            if kernel == "compiled":
                for spec in {codegen.spec_for_router(r) for r in net.routers}:
                    codegen.kernel_factory(spec)

    def _sim_fn(self, kernel, rates, span, traced: bool):
        run = self.simulator.run_simulation
        base_fn = run if kernel == "fast" else partial(run, kernel=kernel)
        if not traced:
            # The untraced path passes the same callable a user would.
            return None if kernel == "fast" else base_fn
        bands = {rate: BANDS[1] for rate in rates}
        bands[rates[0]], bands[rates[-1]] = BANDS[0], BANDS[2]

        def timed(cfg):
            with span("netsim.simulate", rate=cfg.injection_rate,
                      band=bands[cfg.injection_rate],
                      faulted=cfg.faults is not None, cycles=SIM_CYCLES):
                return base_fn(cfg)

        return timed

    def run_pass(self, ops, span, traced: bool = False) -> Dict[str, Any]:
        stats = {"units": 0, "work_time": 0.0, "packets": 0, "wins": 0,
                 "misspec": 0, "escape_reroutes": 0, "delivered": [],
                 "warm_hits": 0, "warm_lookups": 0}
        for label, base, rates, kernel in self.sweeps:
            sim_fn = self._sim_fn(kernel, rates, span, traced)
            path = os.path.join(self.tmpdir, f"{label}.sweep.json")
            keys = [f"{label}/r{rate}" for rate in rates]
            _remove(path)  # a failed earlier pass may have left it behind
            try:
                t0 = time.perf_counter()
                with span("runner.cache_load"):
                    cache = self.ResultCache(path)
                with span("runner.sweep", label=label):
                    curve = self.latency_sweep(
                        base, rates, label=label, stop_after_saturation=False,
                        jobs=1, cache=cache, sim_fn=sim_fn,
                    )
                stats["work_time"] += time.perf_counter() - t0
                stats["units"] += SIM_CYCLES * len(rates)
                cold = self._collect(cache, base, rates, curve)
            except Exception as exc:  # one sweep failing must not stop the run
                ops.fail_all(keys, True, exc)
                continue
            for key, value in zip(keys, cold):
                ops.record(key, True, value)
                payload = value["payload"]
                stats["packets"] += payload["measured_packets"]
                stats["wins"] += payload["speculative_wins"]
                stats["misspec"] += payload["misspeculations"]
                if payload["config"].get("faults") is not None:
                    counters = payload["fault_counters"]
                    stats["escape_reroutes"] += counters.get("escape_reroutes", 0)
                    stats["delivered"].append(payload["delivered_fraction"])
            try:
                with span("runner.cache_load"):
                    warm_cache = self.ResultCache(path)
                with span("runner.warm_rerun", label=label):
                    warm_curve = self.latency_sweep(
                        base, rates, label=label, stop_after_saturation=False,
                        jobs=1, cache=warm_cache, sim_fn=sim_fn,
                    )
                warm = self._collect(warm_cache, base, rates, warm_curve)
                stats["warm_hits"] += warm_cache.hits
                stats["warm_lookups"] += warm_cache.hits + warm_cache.misses
                if warm_cache.misses:
                    raise RuntimeError(
                        f"warm rerun of {label} missed the cache "
                        f"{warm_cache.misses} time(s)"
                    )
            except Exception as exc:
                ops.fail_all(keys, True, exc)
            else:
                for key, value in zip(keys, warm):
                    ops.record(key, True, value)
            finally:
                _remove(path)
        return stats

    def _collect(self, cache, base, rates, curve) -> List[dict]:
        out = []
        for rate, point in zip(rates, curve.points):
            cfg = replace(base, injection_rate=rate)
            out.append({"payload": cache.get_payload(cache.key(cfg)),
                        "point": asdict(point)})
        if len(out) != len(rates):
            raise RuntimeError(f"sweep returned {len(out)} of {len(rates)} points")
        return out

    def instrument(self, tracer) -> None:
        from repro.faults.plan import FaultPlan

        tracer.wrap(self.simulator, "build_network", "netsim.build")
        tracer.wrap(FaultPlan, "materialize", "faults.materialize")
        tracer.wrap(self.ResultCache, "flush", "runner.flush")

    def layer_metrics(self, tracer, passes) -> Dict[str, float]:
        from repro.obs.profiling import PHASES, profile_point

        traced = [p for p in passes if p["traced"]]
        nos = [p["pass_no"] for p in traced]
        sims = [s for s in tracer.spans if s.name == "netsim.simulate"]
        m: Dict[str, float] = {}

        def per_pass(name):
            return _median(tracer.total(name, n) for n in nos)

        def cps(spans):
            busy = sum(s.dur for s in spans)
            return sum(s.args["cycles"] for s in spans) / busy if busy else 0.0

        point_s = [s.dur for s in sims]
        m["netsim.build_s"] = per_pass("netsim.build")
        m["netsim.point_s.p50"] = _median(point_s)
        m["netsim.point_s.max"] = max(point_s, default=0.0)
        m["netsim.point_s.n"] = len(point_s)
        # Bands cover the fault-free sweeps; faulted ones have their own.
        clean = [s for s in sims if not s.args["faulted"]]
        m["netsim.low_load.cycles_per_s"] = cps(
            [s for s in clean if s.args["band"] == "low_load"])
        m["netsim.near_sat.cycles_per_s"] = cps(
            [s for s in clean if s.args["band"] == "near_sat"])
        first = traced[0]
        m["netsim.packets_measured"] = first["packets"]
        tries = first["wins"] + first["misspec"]
        m["netsim.spec_win_ratio"] = first["wins"] / tries if tries else 0.0
        m["faults.cycles_per_s"] = cps([s for s in sims if s.args["faulted"]])
        m["faults.escape_reroutes"] = first["escape_reroutes"]
        m["faults.delivered_fraction"] = (
            statistics.fmean(first["delivered"]) if first["delivered"] else 0.0)
        points = sum(len(sweep[2]) for sweep in self.sweeps)
        overheads = []
        for n in nos:
            inner = sum(s.dur for s in sims if s.pass_no == n)
            overheads.append((tracer.total("runner.sweep", n) - inner) / points)
        m["runner.overhead_s"] = _median(overheads)
        m["runner.cache_load_s"] = per_pass("runner.cache_load")
        m["runner.flush_s"] = per_pass("runner.flush")
        m["runner.warm_rerun_s"] = per_pass("runner.warm_rerun")
        m["runner.cache_hit_ratio"] = (
            first["warm_hits"] / first["warm_lookups"] if first["warm_lookups"] else 0.0)

        # Phase split of the lowest and the near-saturation point of
        # every sweep, from separate profiled runs (profiling adds a
        # clock read per phase, so it never overlaps a timed pass).
        phases = {name: 0.0 for name in PHASES}
        for _, base, rates, kernel in self.sweeps:
            for rate in (rates[0], rates[-1]):
                with tracer.span("netsim.profile", rate=rate):
                    report = profile_point(
                        replace(base, injection_rate=rate), kernel=kernel)
                for name, secs in report["phases"].items():
                    phases[name] += secs
        for name in PHASES:
            m[f"netsim.phase.{name}_s"] = phases[name]
        return m


# (topology, vcs_per_class, kind, variants); None = every variant.  The
# subset keeps dense VC netlists up to mesh V=8 (248k cells) and eight
# capacity-model failures, and leaves out the multi-second fbfly points.
COST_JOBS = (
    ("mesh", 1, "vc", None),
    ("mesh", 1, "sw", None),
    ("mesh", 2, "vc", None),
    ("mesh", 2, "sw", None),
    ("mesh", 4, "vc", (("sep_if", "m"), ("sep_if", "rr"), ("sep_of", "rr"))),
    ("mesh", 4, "sw", None),
    ("fbfly", 2, "vc", (("wf", "rr"),)),
    ("fbfly", 2, "sw", (("sep_if", "rr"),)),
    ("fbfly", 4, "vc", (("sep_if", "m"), ("sep_of", "m"), ("wf", "rr"))),
)


class CostFlow:
    """Cold ``vc_allocator_costs`` / ``switch_allocator_costs`` with
    ``cache=None``: build, sizing, STA, power and area per netlist."""

    name = "cost-flow"

    def __init__(self, seed: int, tmpdir: str) -> None:
        from repro.eval import cost
        from repro.eval.design_points import (
            ALL_POINTS, SPECULATION_SCHEMES, SWITCH_VARIANTS, VC_VARIANTS,
        )

        self.cost = cost
        points = {(p.topology, p.vcs_per_class): p for p in ALL_POINTS}
        self.jobs = []
        for topo, c, kind, variants in COST_JOBS:
            point = points[(topo, c)]
            variants = list(variants or (VC_VARIANTS if kind == "vc" else SWITCH_VARIANTS))
            if kind == "vc":
                keys = [f"vc|{point.label}|{a}|{b}|{v}"
                        for a, b in variants for v in ("dense", "sparse")]
            else:
                keys = [f"sw|{point.label}|{a}|{b}|{s}"
                        for a, b in variants for s in SPECULATION_SCHEMES]
            self.jobs.append((point, kind, variants, keys))
        # The seed only orders the jobs; the work per pass is fixed.
        _rng(self.name, seed).shuffle(self.jobs)

    def run_pass(self, ops, span, traced: bool = False) -> Dict[str, Any]:
        stats = {"units": 0, "cells": 0, "failures": 0}
        for point, kind, variants, keys in self.jobs:
            fn = (self.cost.vc_allocator_costs if kind == "vc"
                  else self.cost.switch_allocator_costs)
            try:
                with span(f"cost.{kind}", point=point.label):
                    results = fn(point, variants=variants, cache=None)
                if len(results) != len(keys):
                    raise RuntimeError(f"{len(results)} results for {len(keys)} netlists")
            except Exception as exc:
                ops.fail_all(keys, False, exc)
                continue
            for key, r in zip(keys, results):
                ops.record(key, False, asdict(r))
                stats["units"] += 1
                stats["failures"] += r.failed
                stats["cells"] += r.num_cells or 0
        return stats

    def instrument(self, tracer) -> None:
        from repro.hw import synthesis

        def rounds(span, result):
            span.args["rounds"] = result.iterations

        for attr in ("build_vc_allocator_netlist", "build_switch_allocator_netlist"):
            tracer.wrap(synthesis, attr, "hw.build")
        tracer.wrap(synthesis, "recover_timing", "hw.size", on_result=rounds)
        tracer.wrap(synthesis, "analyze_timing", "hw.sta")
        tracer.wrap(synthesis, "analyze_power", "hw.power")
        tracer.wrap(synthesis, "total_area", "hw.area")
        for attr in ("synthesize_vc_allocator", "synthesize_switch_allocator"):
            tracer.wrap(self.cost, attr, "hw.netlist")

    def layer_metrics(self, tracer, passes) -> Dict[str, float]:
        traced = [p for p in passes if p["traced"]]
        nos = [p["pass_no"] for p in traced]
        m: Dict[str, float] = {}
        for metric, span_name in (
            ("hw.build_s", "hw.build"), ("hw.size_s", "hw.size"),
            ("hw.sta_s", "hw.sta"), ("hw.power_s", "hw.power"),
            ("hw.area_s", "hw.area"), ("cost.vc_s", "cost.vc"),
            ("cost.sw_s", "cost.sw"),
        ):
            m[metric] = _median(tracer.total(span_name, n) for n in nos)
        netlist_s = [s.dur for s in tracer.select("hw.netlist")]
        m["hw.netlist_s.p50"] = _median(netlist_s)
        m["hw.netlist_s.max"] = max(netlist_s, default=0.0)
        m["hw.netlist_s.n"] = len(netlist_s)
        m["hw.cells"] = traced[0]["cells"]
        m["hw.size_rounds"] = sum(
            s.args.get("rounds", 0) for s in tracer.select("hw.size", nos[0]))
        m["hw.capacity_failures"] = traced[0]["failures"]
        return m


# Matching experiments: rates and sample counts sized so one pass of
# every mesh point stays a few seconds.
QUALITY_RATES = (0.2, 0.6, 1.0)
QUALITY_SAMPLES = 60
CORE_MATRICES = 300
ARCHS = ("sep_if", "sep_of", "wf")


class AllocCheck:
    """Exhaustive checks of the mesh allocator netlists (proof + DRC),
    the behavioural and gate-level matching experiments, and direct
    ``allocate()`` calls on generated request matrices."""

    name = "alloc-check"
    # Mesh V=8 netlists take ~9 s to prove here, so proofs cover mesh
    # V=2 and V=4; the matching experiments cover all three mesh points.
    proof_points = ("mesh 2x1x1 VCs (V=2)", "mesh 2x1x2 VCs (V=4)")

    def __init__(self, seed: int, tmpdir: str) -> None:
        from repro.analysis.drc import NetlistDRC
        from repro.analysis.netlists import iter_paper_netlists
        from repro.core import SwitchAllocator, VCAllocator, VCRequest
        from repro.eval.design_points import MESH_POINTS
        from repro.eval.matching import switch_matching_quality, vc_matching_quality
        from repro.eval.rtl_quality import rtl_switch_matching_quality
        from repro.hw.trace import tracing
        from repro.verify.equivalence import check_netlist

        self.check_netlist = check_netlist
        self.tracing = tracing
        self.drc = NetlistDRC()
        self.VCAllocator = VCAllocator
        self.SwitchAllocator = SwitchAllocator
        self.vc_quality = vc_matching_quality
        self.sw_quality = switch_matching_quality
        self.rtl_quality = rtl_switch_matching_quality
        rng = _rng(self.name, seed)
        self.jobs = [
            job for job in iter_paper_netlists()
            if job.builder is not None and job.label.split("/")[1] in self.proof_points
        ]
        rng.shuffle(self.jobs)
        self.points = list(MESH_POINTS)
        self.quality_seed = rng.randrange(2**31)
        self.core_point = MESH_POINTS[-1]  # mesh 2x1x4, V=8
        self.vc_requests = self._vc_matrices(rng, VCRequest)
        self.sw_requests = self._sw_matrices(rng)

    def _vc_matrices(self, rng, VCRequest):
        part = self.core_point.partition
        P, V = self.core_point.num_ports, part.num_vcs
        succ = []
        for v in range(V):
            m_in, r_in, _ = part.vc_fields(v)
            succ.append([tuple(part.class_vcs(m_in, r))
                         for r in part.successor_classes(r_in)])
        out = []
        for _ in range(CORE_MATRICES):
            rate = rng.random()
            out.append([
                VCRequest(rng.randrange(P), rng.choice(succ[i % V]))
                if rng.random() < rate else None
                for i in range(P * V)
            ])
        return out

    def _sw_matrices(self, rng):
        P, V = self.core_point.num_ports, self.core_point.num_vcs
        out = []
        for _ in range(CORE_MATRICES):
            rate = rng.random()
            out.append([
                [rng.randrange(P) if rng.random() < rate else None for _ in range(V)]
                for _ in range(P)
            ])
        return out

    def run_pass(self, ops, span, traced: bool = False) -> Dict[str, Any]:
        stats = {"units": 0, "proved": 0, "findings": 0, "drc_findings": 0,
                 "core": {}}
        for job in self.jobs:
            key = f"netlist|{job.label}"
            try:
                with span("hw.build", label=job.label):
                    with self.tracing() as trace:
                        nl = job.builder()
                with span("verify.check", label=job.label):
                    found = self.check_netlist(nl, trace, scope=job.label)
                with span("analysis.drc", label=job.label):
                    drc = self.drc.check(nl)
            except Exception as exc:
                ops.fail(key, False, exc)
                continue
            ops.record(key, False, {
                "gates": nl.num_gates, "nets": nl.num_nets,
                "proof": [f.to_dict() for f in found],
                "drc": sorted(json.dumps(f.to_dict(), sort_keys=True) for f in drc),
            })
            stats["units"] += 1
            stats["proved"] += 1
            stats["findings"] += len(found)
            stats["drc_findings"] += len(drc)
        for point in self.points:
            for arch in ARCHS:
                for kind, fn in (("vc", self.vc_quality), ("sw", self.sw_quality)):
                    key = f"{kind}q|{point.label}|{arch}"
                    try:
                        with span("matching.curve", kind=kind, arch=arch):
                            curve = fn(point, archs=(arch,), rates=QUALITY_RATES,
                                       num_samples=QUALITY_SAMPLES,
                                       seed=self.quality_seed)[arch]
                    except Exception as exc:
                        ops.fail(key, True, exc)
                    else:
                        ops.record(key, True, asdict(curve))
                key = f"rtlq|{point.label}|{arch}"
                try:
                    with span("hw.simulate", arch=arch):
                        curve = self.rtl_quality(
                            point.num_ports, point.num_vcs, archs=(arch,),
                            rates=QUALITY_RATES, num_samples=QUALITY_SAMPLES,
                            seed=self.quality_seed)[arch]
                except Exception as exc:
                    ops.fail(key, True, exc)
                else:
                    ops.record(key, True, asdict(curve))
        P = self.core_point.num_ports
        for arch in ARCHS:
            for kind in ("vc", "sw"):
                key = f"core|{kind}|{arch}"
                try:
                    stats["core"][(kind, arch)] = self._core_calls(
                        kind, arch, P, span, ops, key, traced)
                except Exception as exc:
                    ops.fail(key, True, exc)
        return stats

    def _core_calls(self, kind, arch, P, span, ops, key, traced):
        if kind == "vc":
            alloc = self.VCAllocator(P, self.core_point.partition, arch=arch)
            matrices = self.vc_requests
            count = lambda req: sum(r is not None for r in req)  # noqa: E731
        else:
            alloc = self.SwitchAllocator(P, self.core_point.num_vcs, arch=arch)
            matrices = self.sw_requests
            count = lambda req: sum(q is not None for row in req for q in row)  # noqa: E731
        grants_log = []
        call_s = []
        clock = time.perf_counter
        with span("core.allocate", kind=kind, arch=arch):
            for req in matrices:
                if traced:
                    t = clock()
                    grants = alloc.allocate(req)
                    call_s.append(clock() - t)
                else:
                    grants = alloc.allocate(req)
                grants_log.append(grants)
        ops.record(key, True, grants_log)
        requests = sum(count(req) for req in matrices)
        granted = sum(g is not None for grants in grants_log for g in grants)
        return {"requests": requests, "grants": granted, "call_s": call_s}

    def instrument(self, tracer) -> None:
        from repro.hw.simulate import NetlistSimulator

        tracer.wrap(NetlistSimulator, "step", "hw.simulate.step")

    def layer_metrics(self, tracer, passes) -> Dict[str, float]:
        traced = [p for p in passes if p["traced"]]
        nos = [p["pass_no"] for p in traced]
        first = traced[0]
        m: Dict[str, float] = {}
        check_s = [s.dur for s in tracer.select("verify.check")]
        m["verify.check_s"] = _median(tracer.total("verify.check", n) for n in nos)
        m["verify.check_s.p50"] = _median(check_s)
        m["verify.check_s.max"] = max(check_s, default=0.0)
        m["verify.netlists_proved"] = first["proved"]
        m["verify.findings"] = first["findings"]
        m["analysis.drc_s"] = _median(tracer.total("analysis.drc", n) for n in nos)
        m["analysis.drc_findings"] = first["drc_findings"]
        m["hw.build_s"] = _median(tracer.total("hw.build", n) for n in nos)
        steps = tracer.select("hw.simulate.step")
        busy = sum(s.dur for s in steps)
        m["hw.simulate.steps_per_s"] = len(steps) / busy if busy else 0.0
        for arch in ARCHS:
            requests = grants = 0
            for kind in ("vc", "sw"):
                calls = [c for p in traced for c in p["core"][(kind, arch)]["call_s"]]
                m[f"core.{kind}_alloc_us.{arch}"] = _median(calls) * 1e6
                requests += first["core"][(kind, arch)]["requests"]
                grants += first["core"][(kind, arch)]["grants"]
            m[f"core.grant_ratio.{arch}"] = grants / requests if requests else 0.0
        return m


class AllocWorkload:
    """The gate-level side, back to back in one pass: the analytic cost
    flow over a subset of the paper's netlists, then exhaustive checks
    of the mesh netlists and the matching experiments."""

    name = "alloc"

    def __init__(self, seed: int, tmpdir: str) -> None:
        self.parts = (CostFlow(seed, tmpdir), AllocCheck(seed, tmpdir))

    def prepare(self) -> None:
        pass

    def run_pass(self, ops, span, traced: bool = False) -> Dict[str, Any]:
        stats = {"units": 0}
        for part in self.parts:
            part_stats = part.run_pass(ops, span, traced)
            stats["units"] += part_stats.pop("units")
            stats.update(part_stats)
        return stats

    def instrument(self, tracer) -> None:
        for part in self.parts:
            part.instrument(tracer)

    def layer_metrics(self, tracer, passes) -> Dict[str, float]:
        metrics: Dict[str, float] = {}
        for part in self.parts:
            metrics.update(part.layer_metrics(tracer, passes))
        return metrics


WORKLOADS = {w.name: w for w in (SimWorkload, AllocWorkload)}
