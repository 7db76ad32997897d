"""Cold recomputation of the committed cost golden (mesh V=2 and V=4).

``benchmarks/.cost_cache.json`` holds the delay/area/power behind
Figures 5/6/10/11.  Every mesh V=2 and V=4 entry is recomputed here with
no cache and must equal the committed entry exactly; CI checks all
entries with ``scripts/check_bit_identity.py --cost``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.eval.design_points import MESH_POINTS

# The CLI face of the check owns the golden matrix; reuse it here.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "scripts"))
import check_bit_identity as cbi  # noqa: E402

GOLDEN = json.loads(cbi.COST_GOLDEN.read_text())
LABELS = [p.label for p in MESH_POINTS if p.num_vcs in (2, 4)]
GROUPS = cbi.cost_matrix(GOLDEN, LABELS)


def test_matrix_covers_every_mesh_v2_v4_entry():
    assert len(LABELS) == 2
    keys = [k for k in GOLDEN if k.split("|")[1] in LABELS]
    assert len(keys) == 50
    assert len(GROUPS) == 20  # 5 variants x {vc, sw} x 2 points


@pytest.mark.parametrize("group", GROUPS, ids=["/".join(g[:4]) for g in GROUPS])
def test_cold_costs_equal_golden(group):
    got = cbi.recompute_costs(group)
    assert got
    assert cbi.diff_costs(got, GOLDEN) == []


def test_cost_mode_exit_status(tmp_path, capsys):
    kind, label, arch, arbiter, _ = GROUPS[0]
    prefix = f"{kind}|{label}|{arch}|{arbiter}|"
    subset = {k: v for k, v in GOLDEN.items() if k.startswith(prefix)}
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(subset))
    assert cbi.main(["--cost", "--cost-golden", str(path)]) == 0
    key = next(iter(subset))
    subset[key] = dict(subset[key], power_mw=subset[key]["power_mw"] * (1 + 1e-15))
    path.write_text(json.dumps(subset))
    assert cbi.main(["--cost", "--cost-golden", str(path)]) == 1
    assert "power_mw" in capsys.readouterr().out


def test_cost_mode_refuses_empty_golden(tmp_path, capsys):
    empty = tmp_path / "empty.json"
    empty.write_text("{}")
    assert cbi.main(["--cost", "--cost-golden", str(empty)]) == 2
    assert "empty" in capsys.readouterr().err
