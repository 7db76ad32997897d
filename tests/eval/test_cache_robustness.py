"""Robustness tests for the synthesis cost cache and report rendering."""

import json
import os

from repro.eval import cost
from repro.eval.cost import CostCache, CostResult
from repro.hw.synthesis import SynthesisReport


class TestCostCacheRobustness:
    def test_corrupted_file_ignored(self, tmp_path):
        path = tmp_path / "cache.json"
        path.write_text("{not json!!")
        cache = CostCache(str(path))
        assert cache.get("anything") is None
        cache.put("k", CostResult("x", "wf", "rr", "sparse", 1.0, 2.0, 3.0, 4))
        assert cache.get("k").delay_ns == 1.0

    def test_missing_directory_created(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "cache.json"
        cache = CostCache(str(path))
        cache.put("k", CostResult("x", "wf", "rr", "dense", 1.0, 2.0, 3.0, 4))
        assert path.exists()
        assert json.loads(path.read_text())["k"]["arch"] == "wf"

    def test_env_var_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_COST_CACHE", str(tmp_path / "env.json"))
        cache = CostCache()
        assert str(cache.path) == str(tmp_path / "env.json")

    def test_failed_results_round_trip(self, tmp_path):
        path = str(tmp_path / "c.json")
        cache = CostCache(path)
        cache.put("f", CostResult("x", "wf", "rr", "dense", None, None, None, None, True))
        reread = CostCache(path).get("f")
        assert reread.failed
        assert reread.delay_ns is None

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "c.json"
        cache = CostCache(str(path))
        cache.put("a", CostResult("x", "wf", "rr", "dense", 1.0, 2.0, 3.0, 4))
        before = path.read_bytes()

        def disk_full(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(cost.os, "fsync", disk_full)
        cache.put("b", CostResult("x", "wf", "rr", "sparse", 5.0, 6.0, 7.0, 8))
        assert path.read_bytes() == before  # old document, not a truncated one
        assert os.listdir(tmp_path) == ["c.json"]  # temp file cleaned up
        assert cache.get("b").delay_ns == 5.0  # still served from memory
        assert set(json.loads(before)) == {"a"}

    def test_put_writes_once_through_replace(self, tmp_path, monkeypatch):
        replaced = []
        real_replace = os.replace

        def spy(src, dst):
            replaced.append((str(src), str(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(cost.os, "replace", spy)
        path = tmp_path / "c.json"
        cache = CostCache(str(path))
        cache.put("a", CostResult("x", "wf", "rr", "dense", 1.0, 2.0, 3.0, 4))
        assert len(replaced) == 1 and replaced[0][1] == str(path)
        assert os.path.dirname(replaced[0][0]) == str(tmp_path)

    def test_curve_property(self):
        r = CostResult("x", "sep_if", "m", "sparse", 1.0, 1.0, 1.0, 1)
        assert r.curve == "sep_if/m"


class TestSynthesisReportRendering:
    def test_as_row(self):
        rep = SynthesisReport("demo", 1.234, 5678.9, 0.42, 321, 12)
        row = rep.as_row()
        assert "demo" in row
        assert "1.234" in row
        assert "321" in row
