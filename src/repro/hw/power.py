"""Power estimation via probabilistic switching-activity propagation.

Signal probabilities are propagated through the combinational logic
under the usual spatial-independence assumption; register outputs are
solved by fixed-point iteration (state feedback converges quickly for
the arbiter-style state machines in this repo).  The toggle activity of
a net with one-probability ``P`` is ``alpha = 2 * P * (1 - P)`` under
temporal independence, which reproduces the paper's "default activity
factor of 0.5" for primary inputs (``P = 0.5``).

Dynamic power per net is ``0.5 * alpha * C * Vdd^2 * f`` evaluated at
the design's own minimum cycle time unless a frequency is given;
leakage is summed per cell instance, scaled by drive size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .cells import CELL_INDEX, CELLS, VDD
from .netlist import KIND_CONST1, KIND_INPUT, Netlist
from .plan import INPUT_CAP, LEAKAGE, netlist_plan, sequential_sum, size_array
from .timing import TimingReport, analyze_timing, compute_loads

__all__ = ["PowerReport", "signal_probabilities", "analyze_power"]

_DFF = CELL_INDEX["DFF"]


def _and(*ins: np.ndarray) -> np.ndarray:
    # ``1.0 * a`` is ``a`` exactly, so the product needs no 1.0 seed.
    p = ins[0]
    for x in ins[1:]:
        p = p * x
    return p


def _or(*ins: np.ndarray) -> np.ndarray:
    q = 1.0 - ins[0]
    for x in ins[1:]:
        q = q * (1.0 - x)
    return 1.0 - q


# One-probability of a cell's output from its inputs' one-probabilities
# (spatial independence), per cell kind; MUX2 inputs are (d0, d1, sel).
# Each formula applies the scalar per-net formula's IEEE operations in
# the same order, elementwise over a group of gates.
_PROBABILITY: Dict[int, Callable[..., np.ndarray]] = {
    CELL_INDEX["INV"]: lambda a: 1.0 - a,
    CELL_INDEX["BUF"]: lambda a: a,
    CELL_INDEX["NAND2"]: lambda a, b: 1.0 - a * b,
    CELL_INDEX["NOR2"]: lambda a, b: (1.0 - a) * (1.0 - b),
    CELL_INDEX["AND2"]: _and,
    CELL_INDEX["AND3"]: _and,
    CELL_INDEX["AND4"]: _and,
    CELL_INDEX["OR2"]: _or,
    CELL_INDEX["OR3"]: _or,
    CELL_INDEX["OR4"]: _or,
    CELL_INDEX["XOR2"]: lambda a, b: a * (1.0 - b) + b * (1.0 - a),
    CELL_INDEX["MUX2"]: lambda d0, d1, s: d0 * (1.0 - s) + d1 * s,
}


def signal_probabilities(
    nl: Netlist,
    input_probability: float = 0.5,
    max_iterations: int = 8,
    tolerance: float = 1e-4,
) -> np.ndarray:
    """One-probability of each net under independence assumptions.

    Each sweep evaluates the combinational logic level by level from the
    current register values, then copies every register from its D net
    (in ``reg_d`` order); sweeps stop once no register moves by
    ``tolerance`` or after ``max_iterations``.
    """
    plan = netlist_plan(nl)
    probs = np.zeros(plan.num_nets)
    probs[plan.kinds == KIND_INPUT] = input_probability
    probs[plan.kinds == KIND_CONST1] = 1.0
    # Register outputs start at 0.5 and are iterated to a fixed point.
    probs[plan.dffs] = 0.5

    steps: List[Tuple[np.ndarray, Callable[..., np.ndarray], np.ndarray]] = []
    for kind, start, end in plan.groups:
        formula = _PROBABILITY.get(kind)
        if formula is None:  # pragma: no cover - new cells must be added
            raise NotImplementedError(f"probability model for {CELLS[kind].name}")
        pins = plan.cols[: CELLS[kind].num_inputs, start:end]
        steps.append((plan.order[start:end], formula, pins))

    for _ in range(max_iterations):
        for nets, formula, pins in steps:
            probs[nets] = formula(*[probs[p] for p in pins])
        new = probs[plan.reg_src]
        worst_change = float(np.max(np.abs(probs[plan.reg_q] - new), initial=0.0))
        probs[plan.reg_q] = new
        if worst_change < tolerance:
            break
    return probs


@dataclass
class PowerReport:
    """Result of :func:`analyze_power` (all powers in mW)."""

    dynamic_mw: float
    leakage_mw: float
    frequency_ghz: float

    @property
    def total_mw(self) -> float:
        return self.dynamic_mw + self.leakage_mw


def analyze_power(
    nl: Netlist,
    frequency_ghz: Optional[float] = None,
    input_probability: float = 0.5,
    timing: Optional[TimingReport] = None,
) -> PowerReport:
    """Dynamic + leakage power.

    If ``frequency_ghz`` is omitted the design is assumed to run at its
    own minimum cycle time (as a synthesis report would).  ``timing``, a
    report of ``nl`` as it stands, supplies that cycle time and the net
    loads so no timing analysis reruns.
    """
    if frequency_ghz is None:
        if timing is None:
            timing = analyze_timing(nl)
        frequency_ghz = timing.min_cycle_ghz
    loads = timing.loads if timing is not None else compute_loads(nl)
    probs = signal_probabilities(nl, input_probability)
    plan = netlist_plan(nl)
    sizes = size_array(nl)

    # Dynamic: 0.5 * alpha * C * V^2 * f per net, alpha = 2 * P * (1 - P).
    # fF * V^2 * GHz = 1e-15 F * 1e9 Hz * V^2 = 1e-6 W = 1e-3 mW.
    nonconst = plan.kinds >= KIND_INPUT
    p = probs[nonconst]
    dyn = sequential_sum(2.0 * p * (1.0 - p) * loads[nonconst])
    dynamic_mw = 0.5 * dyn * VDD * VDD * frequency_ghz * 1e-3

    # Clock tree power for registers: each DFF clock pin toggles every
    # cycle (alpha = 1) with a pin cap comparable to its D pin.
    clk_cap = sequential_sum(INPUT_CAP[_DFF] * sizes[plan.dffs])
    dynamic_mw += 0.5 * 2.0 * clk_cap * VDD * VDD * frequency_ghz * 1e-3

    cells = plan.kinds >= 0
    leak_nw = sequential_sum(LEAKAGE[plan.kinds[cells]] * sizes[cells])
    return PowerReport(dynamic_mw, leak_nw * 1e-6, frequency_ghz)
