"""Reference one-net-at-a-time timing and power analyses (test oracle).

These are the scalar per-net loops the levelized analyses in
``repro.hw.timing`` / ``repro.hw.power`` replaced, kept verbatim as the
oracle of the differential tests.  The only change is the clock-tree
capacitance, accumulated with an explicit loop instead of builtin
``sum()`` (compensated from CPython 3.12), which is the arithmetic the
analyses are pinned to.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.hw.cells import CELL_INDEX, CELLS, TAU_PS, VDD, WIRE_CAP_FF
from repro.hw.netlist import KIND_CONST0, KIND_CONST1, KIND_INPUT, Netlist
from repro.hw.timing import SETUP_PS

_DFF = CELL_INDEX["DFF"]
_INV = CELL_INDEX["INV"]
_BUF = CELL_INDEX["BUF"]
_NAND2 = CELL_INDEX["NAND2"]
_NOR2 = CELL_INDEX["NOR2"]
_AND = {CELL_INDEX["AND2"], CELL_INDEX["AND3"], CELL_INDEX["AND4"]}
_OR = {CELL_INDEX["OR2"], CELL_INDEX["OR3"], CELL_INDEX["OR4"]}
_XOR2 = CELL_INDEX["XOR2"]
_MUX2 = CELL_INDEX["MUX2"]


def compute_loads(nl: Netlist) -> List[float]:
    loads = [0.0] * nl.num_nets
    kinds = nl.kinds
    sizes = nl.sizes
    cin = [c.input_cap_ff for c in CELLS]
    for nid, fanin in enumerate(nl.fanins):
        k = kinds[nid]
        if k < 0:
            continue
        pin = cin[k] * sizes[nid]
        for f in fanin:
            loads[f] += pin + WIRE_CAP_FF
    dff_cin = CELLS[_DFF].input_cap_ff
    for q, d in nl.reg_d.items():
        loads[d] += dff_cin * sizes[q] + WIRE_CAP_FF
    inv_cin = CELLS[0].input_cap_ff
    for out in nl.outputs:
        loads[out] += 4.0 * inv_cin
    return loads


def compute_arrivals(nl: Netlist, loads: List[float]) -> List[float]:
    n = nl.num_nets
    arrivals = [0.0] * n
    kinds = nl.kinds
    fanins = nl.fanins
    sizes = nl.sizes
    g_of = [c.logical_effort for c in CELLS]
    p_of = [c.parasitic for c in CELLS]
    cin_of = [c.input_cap_ff for c in CELLS]
    for nid in range(n):
        k = kinds[nid]
        if k < 0:
            continue
        if k == _DFF:
            arrivals[nid] = TAU_PS * p_of[_DFF]
            continue
        worst = 0.0
        for f in fanins[nid]:
            a = arrivals[f]
            if a > worst:
                worst = a
        h = loads[nid] / (cin_of[k] * sizes[nid])
        arrivals[nid] = worst + TAU_PS * (p_of[k] + g_of[k] * h)
    return arrivals


def analyze_timing(
    nl: Netlist,
) -> Tuple[float, int, Tuple[int, ...], List[float], List[float]]:
    """``(delay_ps, critical_endpoint, critical_path, arrivals, loads)``."""
    loads = compute_loads(nl)
    arrivals = compute_arrivals(nl, loads)
    worst = -1.0
    worst_net = -1
    for out in nl.outputs:
        a = arrivals[out] + SETUP_PS
        if a > worst:
            worst, worst_net = a, out
    for _, d in nl.reg_d.items():
        a = arrivals[d] + SETUP_PS
        if a > worst:
            worst, worst_net = a, d
    if worst_net < 0:
        raise ValueError("netlist has no timing endpoints")
    path = [worst_net]
    node = worst_net
    kinds = nl.kinds
    fanins = nl.fanins
    while kinds[node] >= 0 and kinds[node] != _DFF and fanins[node]:
        node = max(fanins[node], key=arrivals.__getitem__)
        path.append(node)
    path.reverse()
    return worst, worst_net, tuple(path), arrivals, loads


def signal_probabilities(
    nl: Netlist,
    input_probability: float = 0.5,
    max_iterations: int = 8,
    tolerance: float = 1e-4,
) -> List[float]:
    n = nl.num_nets
    probs = [0.0] * n
    kinds = nl.kinds
    fanins = nl.fanins
    for nid, k in enumerate(kinds):
        if k == KIND_INPUT:
            probs[nid] = input_probability
        elif k == KIND_CONST1:
            probs[nid] = 1.0
        elif k == _DFF:
            probs[nid] = 0.5
    for _ in range(max_iterations):
        worst_change = 0.0
        for nid in range(n):
            k = kinds[nid]
            if k < 0 or k == _DFF:
                continue
            f = fanins[nid]
            if k == _INV:
                p = 1.0 - probs[f[0]]
            elif k == _BUF:
                p = probs[f[0]]
            elif k in _AND:
                p = 1.0
                for x in f:
                    p *= probs[x]
            elif k in _OR:
                q = 1.0
                for x in f:
                    q *= 1.0 - probs[x]
                p = 1.0 - q
            elif k == _NAND2:
                p = 1.0 - probs[f[0]] * probs[f[1]]
            elif k == _NOR2:
                p = (1.0 - probs[f[0]]) * (1.0 - probs[f[1]])
            elif k == _XOR2:
                a, b = probs[f[0]], probs[f[1]]
                p = a * (1.0 - b) + b * (1.0 - a)
            elif k == _MUX2:
                d0, d1, s = probs[f[0]], probs[f[1]], probs[f[2]]
                p = d0 * (1.0 - s) + d1 * s
            else:
                raise NotImplementedError(CELLS[k].name)
            probs[nid] = p
        for q, d in nl.reg_d.items():
            change = abs(probs[q] - probs[d])
            if change > worst_change:
                worst_change = change
            probs[q] = probs[d]
        if worst_change < tolerance:
            break
    return probs


def analyze_power(
    nl: Netlist, frequency_ghz: float, input_probability: float = 0.5
) -> Tuple[float, float]:
    """``(dynamic_mw, leakage_mw)`` at ``frequency_ghz``."""
    probs = signal_probabilities(nl, input_probability)
    loads = compute_loads(nl)
    dyn = 0.0
    kinds = nl.kinds
    for nid in range(nl.num_nets):
        if kinds[nid] == KIND_CONST0 or kinds[nid] == KIND_CONST1:
            continue
        p = probs[nid]
        alpha = 2.0 * p * (1.0 - p)
        dyn += alpha * loads[nid]
    dynamic_mw = 0.5 * dyn * VDD * VDD * frequency_ghz * 1e-3
    clk_cap = 0.0
    for nid, k in enumerate(kinds):
        if k == _DFF:
            clk_cap += CELLS[_DFF].input_cap_ff * nl.sizes[nid]
    dynamic_mw += 0.5 * 2.0 * clk_cap * VDD * VDD * frequency_ghz * 1e-3
    leak_nw = 0.0
    leaks = [c.leakage_nw for c in CELLS]
    for nid, k in enumerate(kinds):
        if k >= 0:
            leak_nw += leaks[k] * nl.sizes[nid]
    return dynamic_mw, leak_nw * 1e-6
