"""Gate-level netlist representation.

A :class:`Netlist` is a flat, columnar graph of standard-cell instances.
Every node produces exactly one net, and the node id *is* the net id.
Nodes are one of:

* primary input  (``kind == KIND_INPUT``),
* constant 0 / 1 (``kind == KIND_CONST0`` / ``KIND_CONST1``),
* a cell instance (``kind >= 0``, an index into :data:`repro.hw.cells.CELLS`);
  sequential cells (DFF) have their D input connected *after* creation
  via :meth:`Netlist.connect_reg`, so sequential feedback loops are
  expressible while combinational logic is loop-free **by construction**
  (a gate can only reference already-created nets).

Because gates reference only earlier nets, creation order is a valid
topological order of the combinational graph.  The timing and power
analyses run on a levelized numpy plan of this graph
(:mod:`repro.hw.plan`), built once per netlist and shared between them.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

from .cells import CELL_INDEX, CELLS, cell_by_name

__all__ = ["Netlist", "KIND_INPUT", "KIND_CONST0", "KIND_CONST1"]

KIND_INPUT = -1
KIND_CONST0 = -2
KIND_CONST1 = -3

_DFF_IX = CELL_INDEX["DFF"]


class Netlist:
    """A flat standard-cell netlist.

    Typical construction::

        nl = Netlist("rr_arbiter")
        a = nl.input("req0")
        b = nl.input("req1")
        g = nl.gate("AND2", a, b)
        nl.mark_output(g, "gnt")
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.kinds: List[int] = []
        self.fanins: List[Tuple[int, ...]] = []
        self.sizes: List[float] = []
        self.outputs: List[int] = []
        self.output_names: List[str] = []
        self.input_names: Dict[int, str] = {}
        self.reg_d: Dict[int, int] = {}  # DFF q-net -> d-net
        self._const: Dict[int, int] = {}  # value -> net
        # (shape, plan) cached by repro.hw.plan.netlist_plan.
        self._plan: Optional[Tuple[Tuple[int, int, int], object]] = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _new_node(self, kind: int, fanin: Tuple[int, ...]) -> int:
        nid = len(self.kinds)
        self.kinds.append(kind)
        self.fanins.append(fanin)
        self.sizes.append(1.0)
        return nid

    def input(self, name: str = "") -> int:
        """Create a primary input; returns its net id."""
        nid = self._new_node(KIND_INPUT, ())
        if name:
            self.input_names[nid] = name
        return nid

    def inputs(self, count: int, prefix: str = "") -> List[int]:
        """Create ``count`` primary inputs."""
        return [
            self.input(f"{prefix}{i}" if prefix else "") for i in range(count)
        ]

    def const(self, value: int) -> int:
        """Constant 0/1 net (deduplicated)."""
        value = 1 if value else 0
        if value not in self._const:
            kind = KIND_CONST1 if value else KIND_CONST0
            self._const[value] = self._new_node(kind, ())
        return self._const[value]

    def gate(self, cell_name: str, *inputs: int) -> int:
        """Instantiate a combinational cell; returns the output net id."""
        return self.gate_ix(CELL_INDEX[cell_name], inputs)

    def gate_ix(self, cell_ix: int, inputs: Iterable[int]) -> int:
        """Fast-path :meth:`gate` taking a pre-resolved cell index."""
        fanin = tuple(inputs)
        cell = CELLS[cell_ix]
        if cell.sequential:
            raise ValueError("use reg()/connect_reg() for sequential cells")
        if len(fanin) != cell.num_inputs:
            raise ValueError(
                f"{cell.name} needs {cell.num_inputs} inputs, got {len(fanin)}"
            )
        nid = len(self.kinds)
        for f in fanin:
            if not 0 <= f < nid:
                raise ValueError(f"fanin net {f} does not exist yet")
        return self._new_node(cell_ix, fanin)

    def reg(self) -> int:
        """Create a DFF; returns its Q net. Connect D later via connect_reg."""
        return self._new_node(_DFF_IX, ())

    def connect_reg(self, q_net: int, d_net: int) -> None:
        """Attach the D input of the register whose Q net is ``q_net``."""
        if not (0 <= q_net < len(self.kinds)) or self.kinds[q_net] != _DFF_IX:
            raise ValueError(f"net {q_net} is not a register output")
        if q_net in self.reg_d:
            raise ValueError(f"register {q_net} already connected")
        if not 0 <= d_net < len(self.kinds):
            raise ValueError(f"D net {d_net} does not exist")
        self.reg_d[q_net] = d_net

    def mark_output(self, net: int, name: str = "") -> None:
        """Declare ``net`` a primary output (a timing endpoint)."""
        if not 0 <= net < len(self.kinds):
            raise ValueError(f"net {net} does not exist")
        self.outputs.append(net)
        self.output_names.append(name)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def num_nets(self) -> int:
        return len(self.kinds)

    @property
    def num_gates(self) -> int:
        """Number of cell instances (combinational + sequential)."""
        kinds = self.kinds
        return (
            len(kinds)
            - kinds.count(KIND_INPUT)
            - kinds.count(KIND_CONST0)
            - kinds.count(KIND_CONST1)
        )

    @property
    def num_registers(self) -> int:
        return self.kinds.count(_DFF_IX)

    @property
    def num_inputs(self) -> int:
        return self.kinds.count(KIND_INPUT)

    def cell_histogram(self) -> Counter:
        """Instance count per cell type."""
        hist: Counter = Counter()
        for k in self.kinds:
            if k >= 0:
                hist[CELLS[k].name] += 1
        return hist

    def consumers(self) -> List[List[int]]:
        """For each net, the nodes reading it (gate fanins + register Ds)."""
        cons: List[List[int]] = [[] for _ in range(len(self.kinds))]
        for nid, fanin in enumerate(self.fanins):
            for f in fanin:
                cons[f].append(nid)
        for q, d in self.reg_d.items():
            cons[d].append(q)
        return cons

    def support(
        self, targets: Iterable[int], cut: Iterable[int] = ()
    ) -> Tuple[List[int], List[int]]:
        """Combinational cone of ``targets``, stopped at ``cut``.

        Returns ``(cone, leaves)``: ``cone`` is the id-ordered (hence
        topologically ordered) list of combinational cell nodes whose
        output feeds a target through combinational logic, and
        ``leaves`` is the id-ordered list of boundary nets the cone
        reads -- cut nets, primary inputs and register Q outputs.
        Constant nets are part of neither list; evaluators resolve them
        directly from their kind.  A target that is itself a leaf (or a
        constant) contributes no cone nodes.
        """
        cut_set = frozenset(cut)
        cone: set = set()
        leaves: set = set()
        stack = [t for t in set(targets) if 0 <= t < len(self.kinds)]
        seen: set = set()
        while stack:
            net = stack.pop()
            if net in seen:
                continue
            seen.add(net)
            kind = self.kinds[net]
            if kind in (KIND_CONST0, KIND_CONST1):
                continue
            if net in cut_set or kind == KIND_INPUT or kind == _DFF_IX:
                leaves.add(net)
                continue
            cone.add(net)
            stack.extend(self.fanins[net])
        return sorted(cone), sorted(leaves)

    def validate(self) -> None:
        """Structural checks: connected registers, outputs in range.

        Raises ``ValueError`` on the first violation.  Builders call this
        once at the end of construction.
        """
        for nid, kind in enumerate(self.kinds):
            if kind == _DFF_IX and nid not in self.reg_d:
                raise ValueError(f"register {nid} has an unconnected D input")
        if not self.outputs and not self.reg_d:
            raise ValueError("netlist has no timing endpoints")

    def __repr__(self) -> str:
        return (
            f"Netlist({self.name!r}, nets={self.num_nets}, "
            f"gates={self.num_gates}, regs={self.num_registers}, "
            f"outputs={len(self.outputs)})"
        )
