"""Cell-area roll-up for netlists."""

from __future__ import annotations

from typing import Dict

from .cells import CELLS
from .netlist import Netlist
from .plan import AREA, netlist_plan, sequential_sum, size_array

__all__ = ["total_area", "area_by_cell"]


def total_area(nl: Netlist) -> float:
    """Total cell area in um^2 (cell unit area scaled by drive size).

    Drive strength scales transistor widths roughly linearly, so area is
    modelled as ``unit_area * size`` -- the mechanism by which the sizing
    pass (timing recovery) trades area for delay, mirroring the paper's
    observation that synthesis "tries to compensate ... by using faster
    -- and therefore, larger -- gates".
    """
    plan = netlist_plan(nl)
    cells = plan.kinds >= 0
    return sequential_sum(AREA[plan.kinds[cells]] * size_array(nl)[cells])


def area_by_cell(nl: Netlist) -> Dict[str, float]:
    """Per-cell-type area breakdown in um^2."""
    out: Dict[str, float] = {}
    for nid, k in enumerate(nl.kinds):
        if k >= 0:
            name = CELLS[k].name
            out[name] = out.get(name, 0.0) + CELLS[k].area_um2 * nl.sizes[nid]
    return out
