import json
import math
from pathlib import Path

import pytest

from diskdyn.cli import RunConfig, main, parse_config, parse_map
from diskdyn.errors import ConfigError
from diskdyn.hyperbolic import MobiusAut
from diskdyn.ifs import Affine, Squaring


def test_parse_config_fills_and_echoes_defaults():
    cfg = parse_config('{"command":"dw","map":"affine(0.5,0.2)","z0":[0.1,0.0]}')
    assert cfg.command == "dw"
    assert cfg.options["N"] == 1000
    assert cfg.options["tol"] == 1e-10
    assert cfg.options["seed"] == 0
    assert cfg.options["out"] == "out"


def test_parse_config_round_trips():
    texts = [
        '{"command":"dw","map":"square","z0":[0.5,0.0],"N":50}',
        '{"command":"construct-t7","domain":"horodisk(0,0.5)","N":20}',
        '{"command":"ifs-run","domain":"disk(0,0,0.3)","probe":{"rings":4}}',
        '{"command":"verify-lemmas","bounds":[2,3],"seed":4}',
    ]
    for text in texts:
        c1 = parse_config(text)
        c2 = parse_config(c1.serialize())
        assert c1 == c2
        assert parse_config(c2.serialize()) == c1


def test_parse_config_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="'foo'"):
        parse_config('{"command":"dw","map":"square","z0":[0.5,0],"foo":1}')
    with pytest.raises(ConfigError, match="probe.whirl"):
        parse_config(
            '{"command":"ifs-run","domain":"disk(0,0,0.3)","probe":{"whirl":2}}'
        )


def test_parse_config_syntax_error_carries_position():
    with pytest.raises(ConfigError, match=r"line 2 column"):
        parse_config('{"command":\n  ,}')


def test_parse_config_validates_types():
    with pytest.raises(ConfigError, match="'N'"):
        parse_config('{"command":"dw","map":"square","z0":[0.5,0],"N":"many"}')
    with pytest.raises(ConfigError, match="'N'"):
        parse_config('{"command":"dw","map":"square","z0":[0.5,0],"N":true}')
    with pytest.raises(ConfigError, match="'z0'"):
        parse_config('{"command":"dw","map":"square","z0":[0.5]}')
    with pytest.raises(ConfigError, match="'z0'"):
        parse_config('{"command":"dw","map":"square","z0":0.7}')


def test_parse_config_requires_command_and_required_keys():
    with pytest.raises(ConfigError, match="'command'"):
        parse_config('{"map":"square","z0":[0.5,0]}')
    with pytest.raises(ConfigError, match="unknown command"):
        parse_config('{"command":"paint"}')
    with pytest.raises(ConfigError, match="'map'"):
        parse_config('{"command":"dw","z0":[0.5,0]}')
    with pytest.raises(ConfigError, match="'domain'"):
        parse_config('{"command":"bloch"}')


def test_parse_config_validates_domain_and_start_point():
    with pytest.raises(ConfigError, match="'domain'"):
        parse_config('{"command":"bloch","domain":"blob(1)"}')
    with pytest.raises(ConfigError, match="'z0'"):
        parse_config('{"command":"dw","map":"square","z0":[1.0,0.0]}')


def test_parse_map_grammar():
    pieces = parse_map("affine(0.5,0.2)|square|blaschke(0.6,0.1)|mobius(0.2,0,1.0)")
    assert isinstance(pieces[0], Affine)
    assert isinstance(pieces[1], Squaring)
    assert pieces[2].a == 0.6 + 0.1j
    assert isinstance(pieces[3], MobiusAut)


def test_parse_map_rejects_bad_tokens():
    with pytest.raises(ConfigError, match="token 1"):
        parse_map("warp(1)")
    with pytest.raises(ConfigError, match="token 2"):
        parse_map("square|affine(0.5)")
    with pytest.raises(ConfigError, match="numbers"):
        parse_map("affine(a,b)")
    with pytest.raises(ConfigError, match="token 1"):
        parse_map("blaschke(1.5,0)")  # zero outside the disk
    with pytest.raises(ConfigError):
        parse_map("")


def _write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def test_cli_dw_end_to_end(tmp_path):
    cfg = _write(
        tmp_path, "dw.json", {"command": "dw", "map": "affine(0.5,0.2)", "z0": [0.1, 0]}
    )
    out = str(tmp_path / "res")
    assert main(["dw", "--config", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "res" / "report.json").read_text())
    limit = report["results"]["limit"]
    assert abs(limit[0] - 0.4) < 1e-9 and abs(limit[1]) < 1e-9
    assert report["results"]["location"] == "interior"
    assert report["config"]["N"] == 1000
    assert "out" not in report["config"]
    trace = (tmp_path / "res" / "trace.csv").read_text().splitlines()
    assert trace[0] == "n,probe_index,re,im,diameter"
    assert len(trace) > 1
    grid = (tmp_path / "res" / "grid.csv").read_text().splitlines()
    assert grid[0] == "ring,spoke,src_re,src_im,img_re,img_im"
    assert len(grid) == 1 + 12 * 24


def test_cli_exit_code_two_on_bad_config(tmp_path):
    cfg = _write(tmp_path, "bad.json", {"command": "dw", "map": "square"})
    assert main(["dw", "--config", cfg]) == 2
    assert main(["dw", "--config", str(tmp_path / "missing.json")]) == 2


def test_cli_exit_code_two_on_command_mismatch(tmp_path):
    cfg = _write(tmp_path, "b.json", {"command": "bloch", "domain": "disk(0,0,0.5)"})
    assert main(["dw", "--config", cfg]) == 2


def test_cli_exit_code_three_on_numeric_failure(tmp_path):
    # a pure rotation chain never settles: undecided orbits are numeric errors
    cfg = _write(
        tmp_path,
        "rot.json",
        {
            "command": "dw",
            "map": "mobius(0,0,1.0)|mobius(0,0,0.7)",
            "z0": [0.5, 0],
            "N": 100,
        },
    )
    assert main(["dw", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


def test_cli_byte_identical_reruns(tmp_path):
    doc = {
        "command": "ifs-run",
        "domain": "disk(0,0,0.3)",
        "N": 12,
        "seed": 3,
        "probe": {"rings": 4, "spokes": 6},
    }
    cfg = _write(tmp_path, "ifs.json", doc)
    a, b = str(tmp_path / "a"), str(tmp_path / "b")
    assert main(["ifs-run", "--config", cfg, "--out", a]) == 0
    assert main(["ifs-run", "--config", cfg, "--out", b]) == 0
    for name in ("trace.csv", "report.json", "grid.csv"):
        left = (tmp_path / "a" / name).read_bytes()
        right = (tmp_path / "b" / name).read_bytes()
        assert left == right, name


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("case", sorted(p.name for p in GOLDEN.iterdir()))
def test_cli_matches_golden_outputs(tmp_path, case):
    # Outputs captured before the engine and the report layer were
    # rewritten; every command must reproduce them byte for byte.
    cfg = GOLDEN / case / "config.json"
    command = json.loads(cfg.read_text(encoding="utf-8"))["command"]
    assert main([command, "--config", str(cfg), "--out", str(tmp_path)]) == 0
    for name in ("trace.csv", "report.json", "grid.csv"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / case / name).read_bytes(), name


def test_cli_seed_override_changes_run_and_echo(tmp_path):
    doc = {
        "command": "ifs-run",
        "domain": "disk(0,0,0.3)",
        "N": 8,
        "probe": {"rings": 2, "spokes": 4},
    }
    cfg = _write(tmp_path, "ifs.json", doc)
    a, b = str(tmp_path / "s0"), str(tmp_path / "s5")
    assert main(["ifs-run", "--config", cfg, "--out", a]) == 0
    assert main(["ifs-run", "--config", cfg, "--out", b, "--seed", "5"]) == 0
    ra = json.loads((tmp_path / "s0" / "report.json").read_text())
    rb = json.loads((tmp_path / "s5" / "report.json").read_text())
    assert ra["config"]["seed"] == 0 and rb["config"]["seed"] == 5
    assert (tmp_path / "s0" / "trace.csv").read_bytes() != (
        tmp_path / "s5" / "trace.csv"
    ).read_bytes()


def test_cli_empty_probe_gives_header_only_trace(tmp_path):
    doc = {
        "command": "ifs-run",
        "domain": "disk(0,0,0.3)",
        "N": 5,
        "probe": {"rings": 0, "spokes": 0, "origin": False},
    }
    cfg = _write(tmp_path, "empty.json", doc)
    out = str(tmp_path / "e")
    assert main(["ifs-run", "--config", cfg, "--out", out]) == 0
    assert (tmp_path / "e" / "trace.csv").read_text() == "n,probe_index,re,im,diameter\n"
    report = json.loads((tmp_path / "e" / "report.json").read_text())
    assert report["results"]["verdict"]["kind"] == "undecided"


def test_cli_t7_report_contains_step_booleans(tmp_path):
    cfg = _write(
        tmp_path,
        "t7.json",
        {"command": "construct-t7", "domain": "horodisk(0,0.5)", "N": 6},
    )
    out = str(tmp_path / "t7")
    assert main(["construct-t7", "--config", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "t7" / "report.json").read_text())
    steps = report["results"]["steps"]
    assert len(steps) == 6
    for s in steps:
        assert set(s["checks"]) == {
            "pins",
            "pair",
            "intrinsic",
            "tilde_cap",
            "product_cap",
        }
        assert all(s["checks"].values())
    assert report["results"]["final"]["pin_error_zero"] < 1e-8


def test_cli_bloch_report_fields(tmp_path):
    cfg = _write(
        tmp_path, "bloch.json", {"command": "bloch", "domain": "disk(0,0,0.5)"}
    )
    out = str(tmp_path / "bl")
    assert main(["bloch", "--config", cfg, "--out", out]) == 0
    report = json.loads((tmp_path / "bl" / "report.json").read_text())
    results = report["results"]
    assert set(results) == {"center", "inradius", "verdict", "budget", "witness"}
    assert abs(results["inradius"] - math.atanh(0.5)) < 1e-3
    assert results["verdict"]["kind"] == "bloch_up_to"
    assert results["witness"] is None


def test_report_json_canonical_form(tmp_path):
    cfg = _write(
        tmp_path, "vl.json", {"command": "verify-lemmas", "moduli": [0.9, 0.99]}
    )
    out = str(tmp_path / "vl")
    assert main(["verify-lemmas", "--config", cfg, "--out", out]) == 0
    raw = (tmp_path / "vl" / "report.json").read_text()
    assert raw.endswith("\n")
    parsed = json.loads(raw)
    assert raw == json.dumps(parsed, sort_keys=True, indent=2) + "\n"


def test_run_config_serialize_skips_unset_optionals():
    cfg = parse_config('{"command":"construct-t8","domain":"horodisk(0,0.5)"}')
    doc = json.loads(cfg.serialize())
    assert "base" not in doc and "value1" not in doc
    assert doc["N"] == 12
    assert isinstance(cfg, RunConfig)
