"""Levelized evaluation plan shared by the timing and power analyses.

Static timing (loads, arrivals) and switching-activity propagation walk
the same combinational graph.  :func:`netlist_plan` levelizes a
:class:`~repro.hw.netlist.Netlist` once into numpy index arrays and
hands the same :class:`NetlistPlan` to every analysis that asks for it,
so a sizing loop that re-times the netlist many times, and the power
pass after it, pay for the graph walk once.

Layout: combinational gates sorted by (logic level, cell kind, net id).
A net's logic level is one more than the deepest of its fanins, with
primary inputs, constants and register outputs at level 0, so every
gate of a level only reads nets of lower levels and a level can be
evaluated as one batch of numpy gathers.  Within a level, gates of one
kind form a group sharing one cell formula.  Fanin columns are padded to
four pins with the dummy net id ``num_nets``, so a level mixing cells of
different arity is gathered as one block from an array with a spare
last slot.

Exact arithmetic: the analyses built on the plan reproduce the
one-net-at-a-time formulas bit for bit.  Each net sees the same IEEE
operations in the same order; a sum over many terms is accumulated left
to right (:func:`sequential_sum`), never pairwise.

The plan is kept on the netlist it describes (``Netlist._plan``) and
goes away with it.  A netlist that grew after its plan was built (new
nets, registers or outputs) gets a fresh plan.  Rewriting ``kinds`` or
``fanins`` entries in place does not invalidate the plan.
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, List, Tuple

import numpy as np

from .cells import CELL_INDEX, CELLS
from .netlist import Netlist

__all__ = ["NetlistPlan", "netlist_plan", "sequential_sum", "size_array"]

_DFF = CELL_INDEX["DFF"]
_MAX_ARITY = max(c.num_inputs for c in CELLS)


def _by_kind(values: Iterable[float], dtype: type = np.float64) -> np.ndarray:
    """Table indexed by node kind: one entry per cell, then zeros for the
    kinds -3..-1 (constants, inputs), which index from the end."""
    return np.array(list(values) + [0, 0, 0], dtype=dtype)


# Fanin count per node kind.  A register's D pin is connected apart and
# is not a fanin.
_ARITY = _by_kind((0 if c.sequential else c.num_inputs for c in CELLS), np.int32)
INPUT_CAP = _by_kind(c.input_cap_ff for c in CELLS)
PARASITIC = _by_kind(c.parasitic for c in CELLS)
EFFORT = _by_kind(c.logical_effort for c in CELLS)
LEAKAGE = _by_kind(c.leakage_nw for c in CELLS)
AREA = _by_kind(c.area_um2 for c in CELLS)


def sequential_sum(values: np.ndarray) -> float:
    """``((0.0 + v[0]) + v[1]) + ...``, the sum a Python loop computes.

    ``np.sum`` (pairwise) and builtin ``sum()`` (compensated from
    CPython 3.12) round differently, so neither is used on floats.
    """
    acc = np.empty(len(values) + 1)
    acc[0] = 0.0
    acc[1:] = values
    return float(np.add.accumulate(acc)[-1])


def size_array(nl: Netlist) -> np.ndarray:
    """Drive sizes of ``nl`` as a float64 array (read per analysis call,
    since sizing changes them between calls)."""
    return np.fromiter(nl.sizes, dtype=np.float64, count=len(nl.sizes))


class NetlistPlan:
    """Index arrays for one netlist's structure (sizes are read per call).

    ``kinds``: node kind per net (int16).
    ``order``: combinational gate ids sorted by (level, kind, id).
    ``cols``: ``(4, len(order))`` fanin net ids, padded with ``num_nets``.
    ``levels``: ``(start, end, arity)`` slices of ``order`` per level,
    ``arity`` being the widest gate of the level.
    ``groups``: ``(kind, start, end)`` slices of ``order`` per
    (level, kind), in evaluation order.
    ``load_net``/``load_owner``: one entry per input pin in (consumer
    id, pin) order, then one per register D pin: the loaded net and the
    consuming cell.
    ``endpoints``: timing endpoints, outputs then register D nets.
    ``reg_q``/``reg_src``: registers in ``reg_d`` order and the net each
    copies in a probability sweep (see :func:`_register_sources`).
    """

    def __init__(self, nl: Netlist) -> None:
        n = nl.num_nets
        self.num_nets = n
        kinds = np.fromiter(nl.kinds, dtype=np.int16, count=n)
        self.kinds = kinds
        arity = _ARITY[kinds]
        flat = np.fromiter(
            itertools.chain.from_iterable(nl.fanins), dtype=np.int32
        )
        if len(flat) != int(arity.sum()):
            raise ValueError("netlist fanins do not match their cell kinds")
        owner = np.repeat(np.arange(n, dtype=np.int32), arity)
        level = _levelize(n, flat, owner, arity)

        # Combinational gates are exactly the nodes with fanins.
        gates = np.flatnonzero(arity).astype(np.int32)
        key = level[gates] * len(CELLS) + kinds[gates]
        sort = np.argsort(key, kind="stable")
        order = gates[sort]
        self.order = order

        offsets = np.zeros(n + 1, dtype=np.int32)
        np.cumsum(arity, out=offsets[1:])
        gate_arity = arity[order]
        cols = np.full((_MAX_ARITY, len(order)), n, dtype=np.int32)
        for pin in range(_MAX_ARITY):
            has = gate_arity > pin
            cols[pin, has] = flat[offsets[order[has]] + pin]
        self.cols = cols

        bounds = _runs(level[order])
        self.levels: List[Tuple[int, int, int]] = [
            (int(s), int(e), int(gate_arity[s:e].max()))
            for s, e in zip(bounds[:-1], bounds[1:])
        ]
        bounds = _runs(key[sort])
        self.groups: List[Tuple[int, int, int]] = [
            (int(kinds[order[s]]), int(s), int(e))
            for s, e in zip(bounds[:-1], bounds[1:])
        ]

        reg_q = np.fromiter(nl.reg_d.keys(), dtype=np.int32, count=len(nl.reg_d))
        reg_d = np.fromiter(nl.reg_d.values(), dtype=np.int32, count=len(nl.reg_d))
        self.load_net = np.concatenate((flat, reg_d))
        self.load_owner = np.concatenate((owner, reg_q))
        self.outputs = np.fromiter(nl.outputs, dtype=np.int32, count=len(nl.outputs))
        self.endpoints = np.concatenate((self.outputs, reg_d))
        self.dffs = np.flatnonzero(kinds == _DFF).astype(np.int32)
        self.reg_q = reg_q
        self.reg_src = _register_sources(nl)


def _levelize(
    n: int, flat: np.ndarray, owner: np.ndarray, arity: np.ndarray
) -> np.ndarray:
    """Logic level per net, by peeling the graph one level at a time.

    A gate is released once all its input pins are; it lands one level
    above the last of its fanins, so the levels are longest-path depths.
    """
    level = np.zeros(n, dtype=np.int32)
    if not len(flat):
        return level
    # Readers of each net, grouped by net: those of net i are
    # readers[first[i]:first[i + 1]].
    readers = owner[np.argsort(flat, kind="stable")]
    first = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(flat, minlength=n), out=first[1:])
    pending = arity.copy()
    frontier = np.flatnonzero(arity == 0)
    depth = 0
    while len(frontier):
        starts = first[frontier]
        counts = first[frontier + 1] - starts
        total = int(counts.sum())
        if not total:
            break
        # Concatenated reader ranges of the frontier nets.
        base = np.repeat(starts - np.cumsum(counts) + counts, counts)
        hit = readers[base + np.arange(total)]
        # A gate reading several frontier pins appears once per pin.
        hit, pins = np.unique(hit, return_counts=True)
        pending[hit] -= pins
        frontier = hit[pending[hit] == 0]
        depth += 1
        level[frontier] = depth
    return level


def _runs(key: np.ndarray) -> np.ndarray:
    """Boundaries ``[0, ..., len(key)]`` of the runs of equal values."""
    if not len(key):
        return np.zeros(1, dtype=np.int64)
    starts = np.flatnonzero(np.diff(key)) + 1
    return np.concatenate(([0], starts, [len(key)]))


def _register_sources(nl: Netlist) -> np.ndarray:
    """Net whose pre-update value each register takes in ``reg_d`` order."""
    src: Dict[int, int] = {}
    for q, d in nl.reg_d.items():
        src[q] = src.get(d, d)
    return np.fromiter(src.values(), dtype=np.int32, count=len(src))


def netlist_plan(nl: Netlist) -> NetlistPlan:
    """The plan of ``nl``, built on first request and reused after."""
    shape = (nl.num_nets, len(nl.reg_d), len(nl.outputs))
    cached = nl._plan
    if cached is not None and cached[0] == shape:
        return cached[1]
    nl._plan = None  # let a stale plan go before building its successor
    plan = NetlistPlan(nl)
    nl._plan = (shape, plan)
    return plan
