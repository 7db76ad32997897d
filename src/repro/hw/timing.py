"""Static timing analysis with the logical-effort delay model.

Per-gate delay is ``d = TAU_PS * (p + g * h)`` where ``h`` is the
electrical effort ``C_load / C_in`` of the driving gate; register Q pins
launch at the DFF clk-to-q parasitic and register D pins (plus primary
outputs) are capture endpoints with a setup allowance.  Loads and
arrivals are evaluated level by level over the netlist's levelized
plan (:mod:`repro.hw.plan`), bit-identical to a one-net-at-a-time
sweep in creation order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np
from numpy.typing import ArrayLike

from .cells import CELL_INDEX, CELLS, TAU_PS, WIRE_CAP_FF
from .netlist import KIND_INPUT, Netlist
from .plan import (
    EFFORT,
    INPUT_CAP,
    PARASITIC,
    NetlistPlan,
    netlist_plan,
    size_array,
)

__all__ = [
    "TimingReport",
    "compute_loads",
    "compute_arrivals",
    "analyze_timing",
    "format_critical_path",
]

# Register setup allowance, ps.
SETUP_PS = 1.5 * TAU_PS

_DFF = CELL_INDEX["DFF"]
# Register clk-to-q launch time, ps.
_CLK_TO_Q_PS = TAU_PS * CELLS[_DFF].parasitic
# Primary outputs drive a nominal downstream load (4x INV).
_OUTPUT_LOAD_FF = 4.0 * CELLS[0].input_cap_ff


def _loads(plan: NetlistPlan, sizes: np.ndarray) -> np.ndarray:
    # Pin contributions are added in (consumer id, pin) order, then
    # register D pins, then output loads: ``np.add.at`` applies them in
    # index order, so each net sums its terms in the reference order.
    loads = np.zeros(plan.num_nets)
    pin_caps = (INPUT_CAP[plan.kinds] * sizes)[plan.load_owner] + WIRE_CAP_FF
    np.add.at(loads, plan.load_net, pin_caps)
    np.add.at(loads, plan.outputs, _OUTPUT_LOAD_FF)
    return loads


def _arrivals(plan: NetlistPlan, sizes: np.ndarray, loads: np.ndarray) -> np.ndarray:
    # Slot ``num_nets`` is the padding pin: arrival 0.0, the initial
    # value of the worst-fanin maximum.
    arrivals = np.zeros(plan.num_nets + 1)
    arrivals[plan.dffs] = _CLK_TO_Q_PS
    order, cols = plan.order, plan.cols
    kinds = plan.kinds[order]
    h = loads[order] / (INPUT_CAP[kinds] * sizes[order])
    stage = TAU_PS * (PARASITIC[kinds] + EFFORT[kinds] * h)
    for start, end, arity in plan.levels:
        worst = arrivals[cols[0, start:end]]
        for pin in range(1, arity):
            np.maximum(worst, arrivals[cols[pin, start:end]], out=worst)
        arrivals[order[start:end]] = worst + stage[start:end]
    return arrivals[:-1]


def compute_loads(nl: Netlist) -> np.ndarray:
    """Output load (fF) per net: fanin pin caps plus wire cap per sink."""
    return _loads(netlist_plan(nl), size_array(nl))


def compute_arrivals(
    nl: Netlist, loads: Optional[ArrayLike] = None
) -> np.ndarray:
    """Arrival time (ps) at every net."""
    plan = netlist_plan(nl)
    sizes = size_array(nl)
    if loads is None:
        load_arr = _loads(plan, sizes)
    else:
        load_arr = np.asarray(loads, dtype=np.float64)
    return _arrivals(plan, sizes, load_arr)


@dataclass
class TimingReport:
    """Result of :func:`analyze_timing`."""

    delay_ps: float  # critical path delay incl. setup
    critical_endpoint: int  # net id of the worst endpoint
    critical_path: Tuple[int, ...]  # nets from a source to the endpoint
    arrivals: np.ndarray  # ps per net
    loads: np.ndarray  # fF per net

    @property
    def delay_ns(self) -> float:
        return self.delay_ps / 1000.0

    @property
    def min_cycle_ghz(self) -> float:
        return 1000.0 / self.delay_ps if self.delay_ps > 0 else float("inf")


def analyze_timing(nl: Netlist) -> TimingReport:
    """Critical-path delay over all endpoints (outputs and register Ds)."""
    plan = netlist_plan(nl)
    if not len(plan.endpoints):
        raise ValueError("netlist has no timing endpoints")
    sizes = size_array(nl)
    loads = _loads(plan, sizes)
    arrivals = _arrivals(plan, sizes, loads)

    # Endpoints in order (outputs, then register Ds); the first worst wins.
    ends = arrivals[plan.endpoints] + SETUP_PS
    i = int(np.argmax(ends))
    worst = float(ends[i])
    worst_net = int(plan.endpoints[i])

    # Backtrack the critical path: repeatedly follow the latest fanin.
    path = [worst_net]
    node = worst_net
    kinds = nl.kinds
    fanins = nl.fanins
    while kinds[node] >= 0 and kinds[node] != _DFF and fanins[node]:
        node = max(fanins[node], key=arrivals.__getitem__)
        path.append(node)
    path.reverse()
    return TimingReport(worst, worst_net, tuple(path), arrivals, loads)


def format_critical_path(nl: Netlist, report: TimingReport = None) -> str:
    """Human-readable timing report for the critical path.

    One line per path node: net id, cell type (or INPUT/DFF), drive
    size, stage increment and cumulative arrival -- the stage-by-stage
    view a synthesis timing report would give.
    """
    if report is None:
        report = analyze_timing(nl)

    lines = [
        f"critical path of {nl.name or 'netlist'}: "
        f"{report.delay_ps / 1000:.3f} ns over {len(report.critical_path)} nodes"
    ]
    prev_arrival = 0.0
    for net in report.critical_path:
        k = nl.kinds[net]
        if k == KIND_INPUT:
            cell = "INPUT"
            size = ""
        elif k < 0:
            cell = "CONST"
            size = ""
        else:
            cell = CELLS[k].name
            size = f" x{nl.sizes[net]:.1f}"
        arrival = report.arrivals[net]
        incr = arrival - prev_arrival
        prev_arrival = arrival
        name = nl.input_names.get(net, "")
        lines.append(
            f"  net {net:>7d}  {cell:<6s}{size:<6s} +{incr:7.1f} ps "
            f"-> {arrival:8.1f} ps  {name}"
        )
    lines.append(f"  (+{SETUP_PS:.1f} ps setup at the endpoint)")
    return "\n".join(lines)
