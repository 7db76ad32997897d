"""Implementation-cost sweeps (Figures 5, 6, 10, 11).

Runs the gate-level synthesis flow over every (design point, allocator
variant) combination and collects delay/area/power, recording capacity
failures where Design Compiler ran out of memory in the paper.  Results
are memoized in a JSON cache because the larger netlists take seconds
to build and characterize.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..hw.synthesis import (
    SynthesisCapacityError,
    synthesize_switch_allocator,
    synthesize_vc_allocator,
)
from .design_points import (
    SPECULATION_SCHEMES,
    SWITCH_VARIANTS,
    VC_VARIANTS,
    DesignPoint,
)

__all__ = [
    "CostResult",
    "CostCache",
    "vc_allocator_costs",
    "switch_allocator_costs",
    "sparse_savings",
    "speculation_delay_savings",
]


@dataclass
class CostResult:
    """One synthesized (or failed) design point."""

    label: str
    arch: str
    arbiter: str
    variant: str  # "sparse"/"dense" for VC; speculation scheme for switch
    delay_ns: Optional[float]
    area_um2: Optional[float]
    power_mw: Optional[float]
    num_cells: Optional[int]
    failed: bool = False

    @property
    def curve(self) -> str:
        return f"{self.arch}/{self.arbiter}"


class CostCache:
    """JSON-backed memo for synthesis results."""

    def __init__(self, path: Optional[str] = None) -> None:
        if path is None:
            path = os.environ.get(
                "REPRO_COST_CACHE",
                str(Path.home() / ".cache" / "repro-noc-alloc-costs.json"),
            )
        self.path = Path(path)
        self._data: Dict[str, dict] = {}
        if self.path.exists():
            try:
                self._data = json.loads(self.path.read_text())
            except (OSError, json.JSONDecodeError):
                self._data = {}

    def get(self, key: str) -> Optional[CostResult]:
        raw = self._data.get(key)
        return CostResult(**raw) if raw else None

    def put(self, key: str, result: CostResult) -> None:
        """Record ``result`` and rewrite the cache file.

        The file is written to a temp file next to it and moved into
        place with ``os.replace``, so a crash mid-write leaves the
        previous cache intact instead of a truncated document.
        """
        self._data[key] = asdict(result)
        tmp = self.path.with_name(f"{self.path.name}.tmp{os.getpid()}")
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            with open(tmp, "w") as fh:
                fh.write(json.dumps(self._data, indent=1))
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        except OSError:
            # The cache is best-effort; drop a half-written temp file.
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass


def _run(key, cache, label, arch, arbiter, variant, fn) -> CostResult:
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return hit
    try:
        rep = fn()
        result = CostResult(
            label, arch, arbiter, variant,
            rep.delay_ns, rep.area_um2, rep.power_mw, rep.num_cells,
        )
    except SynthesisCapacityError:
        result = CostResult(label, arch, arbiter, variant, None, None, None, None, True)
    if cache is not None:
        cache.put(key, result)
    return result


def vc_allocator_costs(
    point: DesignPoint,
    variants: Sequence[Tuple[str, str]] = tuple(VC_VARIANTS),
    cache: Optional[CostCache] = None,
    size_iterations: int = 8,
) -> List[CostResult]:
    """Figures 5/6: each variant synthesized dense and sparse.

    Dense = the un-optimized baseline (runtime VC masks over the full
    range); sparse = with the Section 4.2 optimizations.  Failed points
    are reported with ``failed=True`` (single-point curves in the
    paper's figures).
    """
    results = []
    for arch, arbiter in variants:
        for sparse in (False, True):
            variant = "sparse" if sparse else "dense"
            key = f"vc|{point.label}|{arch}|{arbiter}|{variant}|v3"
            results.append(
                _run(
                    key, cache, point.label, arch, arbiter, variant,
                    lambda a=arch, b=arbiter, s=sparse: synthesize_vc_allocator(
                        point.num_ports, point.partition, a, b, s,
                        size_iterations=size_iterations,
                    ),
                )
            )
    return results


def switch_allocator_costs(
    point: DesignPoint,
    variants: Sequence[Tuple[str, str]] = tuple(SWITCH_VARIANTS),
    schemes: Sequence[str] = SPECULATION_SCHEMES,
    cache: Optional[CostCache] = None,
    size_iterations: int = 8,
) -> List[CostResult]:
    """Figures 10/11: three speculation points per variant curve."""
    results = []
    for arch, arbiter in variants:
        for scheme in schemes:
            key = f"sw|{point.label}|{arch}|{arbiter}|{scheme}|v3"
            results.append(
                _run(
                    key, cache, point.label, arch, arbiter, scheme,
                    lambda a=arch, b=arbiter, s=scheme: synthesize_switch_allocator(
                        point.num_ports, point.num_vcs, a, b, s,
                        size_iterations=size_iterations,
                    ),
                )
            )
    return results


def sparse_savings(results: Sequence[CostResult]) -> Dict[str, Dict[str, float]]:
    """Per-curve dense->sparse reductions (the Section 4.3.1 headline:
    up to 41%/90%/83% for delay/area/power)."""
    by_curve: Dict[str, Dict[str, CostResult]] = {}
    for r in results:
        by_curve.setdefault(r.curve, {})[r.variant] = r
    savings = {}
    for curve, pair in by_curve.items():
        dense = pair.get("dense")
        sparse = pair.get("sparse")
        if dense is None or sparse is None or dense.failed or sparse.failed:
            continue
        savings[curve] = {
            "delay": 1 - sparse.delay_ns / dense.delay_ns,
            "area": 1 - sparse.area_um2 / dense.area_um2,
            "power": 1 - sparse.power_mw / dense.power_mw,
        }
    return savings


def speculation_delay_savings(results: Sequence[CostResult]) -> Dict[str, float]:
    """Per-curve pessimistic-vs-conventional delay reduction (the
    Section 5.3.1 headline: up to 23%)."""
    by_curve: Dict[str, Dict[str, CostResult]] = {}
    for r in results:
        by_curve.setdefault(r.curve, {})[r.variant] = r
    out = {}
    for curve, pts in by_curve.items():
        conv = pts.get("conventional")
        pess = pts.get("pessimistic")
        if conv and pess and not conv.failed and not pess.failed:
            out[curve] = 1 - pess.delay_ns / conv.delay_ns
    return out
