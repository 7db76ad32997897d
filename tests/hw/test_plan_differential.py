"""Differential tests: levelized analyses == the one-net-at-a-time oracle.

The timing and power analyses run level by level over a numpy plan
(``repro.hw.plan``).  They must reproduce the scalar per-net loops in
``reference_analyses`` exactly -- every load, arrival, probability and
power figure compared with ``==``, never ``approx``.
"""

from __future__ import annotations

import gc
import weakref

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import sizing
from repro.hw.cells import CELLS
from repro.hw.netlist import Netlist
from repro.hw.plan import netlist_plan
from repro.hw.power import analyze_power, signal_probabilities
from repro.hw.sizing import recover_timing
from repro.hw.timing import analyze_timing, compute_arrivals, compute_loads

from . import reference_analyses as ref

COMBINATIONAL = [c for c in CELLS if not c.sequential]


@st.composite
def sequential_netlists(draw):
    """Random netlists with registers (feedback, register chains and
    self-loops), constants, repeated fanins and sized gates."""
    nl = Netlist()
    nets = nl.inputs(draw(st.integers(0, 4)))
    if draw(st.booleans()):
        nets.append(nl.const(0))
    if draw(st.booleans()):
        nets.append(nl.const(1))
    regs = [nl.reg() for _ in range(draw(st.integers(0, 4)))]
    nets += regs
    if not nets:
        nets.append(nl.input())
    for _ in range(draw(st.integers(0, 30))):
        cell = draw(st.sampled_from(COMBINATIONAL))
        ins = [draw(st.sampled_from(nets)) for _ in range(cell.num_inputs)]
        g = nl.gate(cell.name, *ins)
        nl.sizes[g] = draw(st.sampled_from([1.0, 1.6, 2.56, 7.3]))
        nets.append(g)
    for q in regs:
        nl.connect_reg(q, draw(st.sampled_from(nets)))
    for _ in range(draw(st.integers(0 if regs else 1, 3))):
        nl.mark_output(draw(st.sampled_from(nets)))
    return nl


def assert_matches_oracle(nl: Netlist) -> None:
    loads = ref.compute_loads(nl)
    assert compute_loads(nl).tolist() == loads
    arrivals = ref.compute_arrivals(nl, loads)
    assert compute_arrivals(nl).tolist() == arrivals

    delay, endpoint, path, _, _ = ref.analyze_timing(nl)
    rep = analyze_timing(nl)
    assert type(rep.delay_ps) is float
    assert (rep.delay_ps, rep.critical_endpoint, rep.critical_path) == (
        delay, endpoint, path,
    )
    assert rep.arrivals.tolist() == arrivals
    assert rep.loads.tolist() == loads

    for prob in (0.5, 0.1):
        assert signal_probabilities(nl, prob).tolist() == ref.signal_probabilities(
            nl, prob
        )
    dyn, leak = ref.analyze_power(nl, 1.7)
    got = analyze_power(nl, frequency_ghz=1.7)
    assert (got.dynamic_mw, got.leakage_mw) == (dyn, leak)
    assert type(got.dynamic_mw) is float and type(got.leakage_mw) is float
    # Default frequency is the design's own cycle time; a handed-in
    # report gives the same figures as a fresh timing run.
    dyn, leak = ref.analyze_power(nl, 1000.0 / delay)
    for got in (analyze_power(nl), analyze_power(nl, timing=rep)):
        assert (got.dynamic_mw, got.leakage_mw) == (dyn, leak)
        assert got.frequency_ghz == 1000.0 / delay


@given(nl=sequential_netlists())
@settings(max_examples=150, deadline=None)
def test_analyses_match_oracle(nl):
    assert_matches_oracle(nl)


@given(nl=sequential_netlists())
@settings(max_examples=60, deadline=None)
def test_sizing_returns_timing_of_final_netlist(nl):
    result = recover_timing(nl, max_iterations=4)
    delay, endpoint, path, arrivals, loads = ref.analyze_timing(nl)
    rep = result.report
    assert rep.delay_ps == result.final_delay_ps == delay
    assert (rep.critical_endpoint, rep.critical_path) == (endpoint, path)
    assert rep.arrivals.tolist() == arrivals
    assert rep.loads.tolist() == loads


def test_register_feedback_and_chains():
    nl = Netlist()
    a = nl.input("a")
    q0, q1, q2 = nl.reg(), nl.reg(), nl.reg()
    nl.connect_reg(q0, nl.gate("XOR2", q0, a))  # toggle flop
    nl.connect_reg(q1, q0)  # register chain, updated after q0
    nl.connect_reg(q2, q2)  # self-loop
    nl.mark_output(nl.gate("AND3", q0, q1, q2))
    assert_matches_oracle(nl)


def test_register_chain_reads_updated_register():
    # q1 is updated before q0 reads it: q0 takes q1's *new* value.
    nl = Netlist()
    a = nl.input()
    q0, q1 = nl.reg(), nl.reg()
    nl.connect_reg(q1, nl.gate("INV", a))
    nl.connect_reg(q0, q1)
    nl.mark_output(q0)
    assert_matches_oracle(nl)
    assert signal_probabilities(nl, 0.2)[q0] == 0.8


def test_same_net_on_two_pins():
    nl = Netlist()
    a, b = nl.inputs(2)
    x = nl.gate("NAND2", a, a)
    y = nl.gate("MUX2", x, x, b)
    nl.mark_output(nl.gate("OR4", y, y, x, y))
    assert_matches_oracle(nl)


def test_constants():
    nl = Netlist()
    a = nl.input()
    one, zero = nl.const(1), nl.const(0)
    nl.mark_output(nl.gate("AND2", a, one))
    nl.mark_output(nl.gate("OR2", a, zero))
    nl.mark_output(nl.gate("XOR2", one, zero))
    assert_matches_oracle(nl)


def test_no_combinational_cells():
    nl = Netlist()
    a, b = nl.inputs(2)
    q = nl.reg()
    nl.connect_reg(q, a)
    nl.mark_output(b)
    nl.mark_output(q)
    assert_matches_oracle(nl)


def test_inputs_only_to_outputs():
    nl = Netlist()
    nl.mark_output(nl.input())
    assert_matches_oracle(nl)


def test_grown_netlist_gets_fresh_plan():
    nl = Netlist()
    a, b = nl.inputs(2)
    g = nl.gate("AND2", a, b)
    nl.mark_output(g)
    assert_matches_oracle(nl)
    first = netlist_plan(nl)
    # New gates and outputs.
    nl.mark_output(nl.gate("INV", g))
    assert_matches_oracle(nl)
    assert netlist_plan(nl) is not first
    # An output on an existing net only.
    nl.mark_output(a)
    assert_matches_oracle(nl)
    # A register connected after the analysis.
    q = nl.reg()
    nl.mark_output(q)
    assert_matches_oracle(nl)
    nl.connect_reg(q, nl.gate("NOR2", q, g))
    assert_matches_oracle(nl)


def test_plan_kept_on_netlist():
    nl = Netlist()
    nl.mark_output(nl.gate("INV", nl.input()))
    plan = netlist_plan(nl)
    assert netlist_plan(nl) is plan  # reused while the netlist is unchanged
    other = Netlist()
    other.mark_output(other.gate("BUF", other.input()))
    assert netlist_plan(other) is not plan
    assert netlist_plan(nl) is plan  # analysing another netlist keeps it
    gone = weakref.ref(plan)
    del nl, plan
    gc.collect()
    assert gone() is None  # the plan goes with its netlist


def _rollback_netlist() -> Netlist:
    # Sizing this netlist improves for four rounds; the fifth loads the
    # critical path's drivers enough to end slower, and is undone.
    nl = Netlist()
    i0, i1, i2 = nl.inputs(3)
    g3 = nl.gate("MUX2", i0, i1, i2)
    g4 = nl.gate("BUF", g3)
    g5 = nl.gate("OR2", g3, i2)
    g6 = nl.gate("AND2", g4, i1)
    g7 = nl.gate("OR2", i1, g6)
    g8 = nl.gate("NAND2", g4, i2)
    g9 = nl.gate("OR2", i1, i1)
    nl.gate("XOR2", g7, g8)
    nl.mark_output(nl.gate("NAND2", g5, g6))
    nl.mark_output(g9)
    return nl


def test_rolled_back_round_returns_best_report(monkeypatch):
    delays = []
    real = sizing.analyze_timing

    def spy(nl):
        rep = real(nl)
        delays.append(rep.delay_ps)
        return rep

    monkeypatch.setattr(sizing, "analyze_timing", spy)
    nl = _rollback_netlist()
    result = recover_timing(nl)
    assert delays[-1] > result.final_delay_ps  # the last round was undone
    assert result.report.delay_ps == result.final_delay_ps == min(delays)
    assert result.report.delay_ps == ref.analyze_timing(nl)[0]
    assert_matches_oracle(nl)


def test_power_pinned_on_many_registers():
    # 1200 toggle flops: the clock-tree capacitance is 1200 equal terms,
    # where compensated and left-to-right float sums differ.
    nl = Netlist("toggles")
    en = nl.input("en")
    for _ in range(1200):
        q = nl.reg()
        nl.connect_reg(q, nl.gate("XOR2", q, en))
        nl.mark_output(q)
    rep = analyze_power(nl, frequency_ghz=1.0)
    assert (rep.dynamic_mw, rep.leakage_mw) == ref.analyze_power(nl, 1.0)
    assert rep.dynamic_mw == PINNED_DYNAMIC_MW
    assert rep.leakage_mw == PINNED_LEAKAGE_MW


# Left-to-right sums, as on CPython 3.11; builtin ``sum()`` of the 1200
# clock-pin caps gives 1560.0 from CPython 3.12 instead of
# 1559.9999999999666.
PINNED_DYNAMIC_MW = 3.8758499999999696
PINNED_LEAKAGE_MW = 0.0804
