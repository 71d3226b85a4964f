"""``benchmarks/count_bytecodes.py --layers``: every ``src/repro``
module has a layer, and a cell's split adds up to its count."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "benchmarks" / "count_bytecodes.py"


def _load():
    spec = importlib.util.spec_from_file_location("count_bytecodes", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_module_maps_to_a_layer():
    cb = _load()
    modules = [cb.module_of(str(path))
               for path in sorted((ROOT / "src" / "repro").rglob("*.py"))]
    assert "homa/transport" in modules and "core/engine" in modules
    layers = {module: cb.layer_of(module) for module in modules}
    assert set(layers.values()) <= set(cb.LAYER_OF.values())
    assert cb.module_of("/usr/lib/python3.11/heapq.py") == "other"
    assert cb.layer_of("other") == "other"
    with pytest.raises(KeyError):
        cb.layer_of("core/new_module")  # core is mapped file by file
    with pytest.raises(KeyError):
        cb.layer_of("newpackage/module")


def test_layer_split_sums_to_the_cell_total():
    out = subprocess.run(
        [sys.executable, str(SCRIPT), "--src", str(ROOT / "src"), "--smoke",
         "--layers", "--workload", "homa_w1_small"],
        capture_output=True, text=True, check=True, timeout=300).stdout
    cell, total = [json.loads(line) for line in out.splitlines()]
    assert cell["bytecodes"] == total["bytecodes"] > 0
    for split in ("modules", "layers"):
        counts = [n for n, _ in cell[split].values()]
        shares = [share for _, share in cell[split].values()]
        assert sum(counts) == cell["bytecodes"], split
        assert sum(shares) == pytest.approx(1.0, abs=1e-3), split
    assert set(cell["modules"]) >= {"core/engine", "homa/transport",
                                    "apps/openloop"}
    top = cell["top"]
    assert 0 < len(top) <= 15
    assert [n for _, n, _ in top] == sorted((n for _, n, _ in top),
                                            reverse=True)
    assert cell["per_message"] > 0
