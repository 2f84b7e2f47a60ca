"""The benchmark's output checks still pass on runs of the current package.

`bench/checks.py` calls the library directly (`compose_eval(seq, 0j)`,
`rho_grid`, `witness_disk_verify`, ...), so an API change that breaks it
shows here, without a benchmark run.
"""
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from diskdyn.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"

# The construct grid's tangencies; at size 0.3 its t8 arcs are shortest.
_spec = importlib.util.spec_from_file_location("bench_workloads", BENCH / "workloads.py")
_workloads = sys.modules["bench_workloads"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_workloads)
EIGHTHS = _workloads.EIGHTHS


@pytest.mark.parametrize(
    "cfg",
    [
        {"command": "ifs-run", "domain": "disk(0,0,0.3)"},
        {"command": "bloch", "domain": "disk(0,0,0.3)"},
        # A horodisk's search certifies a witness, which the checks re-verify.
        {"command": "bloch", "domain": "horodisk(0,0.5)"},
        {"command": "qc", "domain": "horodisk(0,0.5)"},
        # The stretch of an off-center subdisk: its boundary curve is scanned.
        {"command": "qc", "domain": "disk(0.3,-0.2,0.4)", "exponent": 3},
        {"command": "construct-t7", "domain": "horodisk(0,0.5)", "distance": 0.3, "angle": 0.0},
        {"command": "construct-t8", "domain": "horodisk(0.785398,0.5)", "N": 12},
        {"command": "dw", "map": "affine(0.5,0.2)", "z0": [0.3, 0.1]},
        {"command": "verify-lemmas"},
        *({"command": "construct-t8", "domain": f"horodisk({t},0.3)", "N": 20} for t in EIGHTHS),
    ],
    ids=[
        "ifs-run", "bloch", "bloch-witness", "qc", "qc-disk", "construct-t7", "construct-t8", "dw",
        "verify-lemmas",
        *(f"construct-t8-short-arcs-{k}" for k in range(len(EIGHTHS))),
    ],
)
def test_bench_checks_pass(tmp_path, monkeypatch, cfg):
    monkeypatch.syspath_prepend(str(BENCH))
    monkeypatch.delitem(sys.modules, "checks", raising=False)
    import checks

    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    assert main([cfg["command"], "--config", str(path), "--out", str(out)]) == 0
    assert checks.check(cfg, out) is None
