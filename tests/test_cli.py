import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from diskdyn.cli import RunConfig, _reprs, main, parse_config, parse_map
from diskdyn.errors import ConfigError
from diskdyn.hyperbolic import MobiusAut
from diskdyn.ifs import Affine, MapDescriptor, Squaring, _evaluate_grid


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
    # Numbers must be finite; 1e999 parses to inf and 10**400 overflows a float.
    bad_numbers = (
        '{"command":"dw","map":"square","z0":[0.5,0],"tol":Infinity}',
        '{"command":"dw","map":"square","z0":[NaN,0]}',
        '{"command":"verify-lemmas","bounds":[2.0,Infinity]}',
        '{"command":"verify-lemmas","bounds":[2.0,1e999]}',
        '{"command":"verify-lemmas","moduli":[0.9,1%s]}' % ("0" * 400),
    )
    for text in bad_numbers:
        with pytest.raises(ConfigError, match="finite"):
            parse_config(text)


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
    # finite parts whose modulus overflows a double
    with pytest.raises(ConfigError, match="'z0'.*not inside"):
        parse_config('{"command":"dw","map":"square","z0":[1.7e308,1.7e308]}')
    # The catalog's own refusals: a radius or mesh of 0, a first puncture
    # circle that no disk point can hold.
    for domain, why in (
        ("disk(0,0,0)", "radius must be positive"),
        ("rdense(0,2)", "mesh must be positive"),
        ("rdense(30,40)", "depth must allow at least one puncture circle"),
    ):
        with pytest.raises(ConfigError, match=f"'domain'.*{why}"):
            parse_config('{"command":"bloch","domain":"%s"}' % domain)


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
    for text in ("affine(nan,0.2)", "square|mobius(0.1,0,inf)", "blaschke(1e999,0)"):
        with pytest.raises(ConfigError, match="numbers"):
            parse_map(text)
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


def test_cli_dw_grid_is_the_image_under_the_iterates(tmp_path):
    # grid.csv applies f as often as the orbit did, not N times.
    cfg = GOLDEN / "dw" / "config.json"
    doc = json.loads(cfg.read_text(encoding="utf-8"))
    assert main(["dw", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    iterations = json.loads((tmp_path / "report.json").read_text())["results"]["iterations"]
    assert iterations < 1000
    rows = np.loadtxt(tmp_path / "grid.csv", delimiter=",", skiprows=1)
    src = rows[:, 2] + 1j * rows[:, 3]
    f = MapDescriptor(parse_map(doc["map"]))
    img = _evaluate_grid([f] * iterations, src)
    assert np.array_equal(rows[:, 4], img.real) and np.array_equal(rows[:, 5], img.imag)


def test_cli_exit_code_two_on_bad_config(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", {"command": "dw", "map": "square"})
    assert main(["dw", "--config", cfg]) == 2
    assert main(["dw", "--config", str(tmp_path / "missing.json")]) == 2
    # An output directory that cannot be made: below a regular file.
    good = _write(tmp_path, "dw.json", {"command": "dw", "map": "affine(0.5,0.2)", "z0": [0.1, 0]})
    assert main(["dw", "--config", good, "--out", str(tmp_path / "dw.json" / "res")]) == 2
    assert "cannot write outputs" in capsys.readouterr().err


_DW = {"map": "affine(0.5,0.2)", "z0": [0.1, 0]}
_IFS = {"command": "ifs-run", "domain": "disk(0,0,0.3)"}


@pytest.mark.parametrize(
    "command, doc, why",
    [
        ("dw", {"command": ["dw"], **_DW}, "'command'"),
        ("dw", {"command": {"name": "dw"}, **_DW}, "'command'"),
        ("dw", [1], "config must be a JSON object"),
        ("ifs-run", {**_IFS, "probe": 3}, "'probe': expected an object"),
        ("ifs-run", {**_IFS, "probe": {"origin": 1}}, "'probe.origin'"),
    ],
    ids=["list", "object", "config-list", "probe-number", "origin-number"],
)
def test_cli_exit_code_two_on_non_string_command(tmp_path, capsys, command, doc, why):
    # A command, a config or a key of the wrong JSON type is refused by name.
    cfg = _write(tmp_path, "cmd.json", doc)
    out = tmp_path / "res"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert why in capsys.readouterr().err
    assert not out.exists()


def test_cli_exit_code_two_on_non_finite_domain(tmp_path):
    # A NaN tangency is refused at the door, not run with every probe point lost.
    doc = {"command": "ifs-run", "domain": "horodisk(nan,0.5)", "N": 5}
    cfg = _write(tmp_path, "nan.json", doc)
    out = tmp_path / "res"
    assert main(["ifs-run", "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, why",
    [
        (
            {"command": "construct-t7", "domain": "horodisk(0,0.5)", "a0": [1.7e308, 1.7e308]},
            "not in horodisk(0,0.5)",
        ),
        (
            {"command": "construct-t8", "domain": "horodisk(0,0.5)", "base": [1.7e308, 1.7e308]},
            "not in horodisk(0,0.5)",
        ),
        ({"command": "dw", **_DW, "tol": 10**400}, "'tol': expected a finite number"),
    ],
    ids=["t7", "t8", "tol-digits"],
)
def test_cli_exit_code_two_on_overflowing_base_point(tmp_path, capsys, doc, why):
    # The point's modulus, or the integer, overflows a double: refused, not
    # a traceback, and the 400-digit integer is not echoed whole.
    cfg = _write(tmp_path, "big.json", doc)
    out = tmp_path / "res"
    assert main([doc["command"], "--config", cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert why in err and len(err) < 200
    assert not out.exists()


def test_cli_exit_code_two_on_command_mismatch(tmp_path):
    cfg = _write(tmp_path, "b.json", {"command": "bloch", "domain": "disk(0,0,0.5)"})
    assert main(["dw", "--config", cfg]) == 2


@pytest.mark.parametrize("command", ["construct-t7", "construct-t8"])
@pytest.mark.parametrize("n_steps", [0, -2])
def test_cli_exit_code_two_on_empty_construction(tmp_path, capsys, command, n_steps):
    # The builder refuses the step count: no traceback from an empty build,
    # and not the engine's complaint about the system it would have run.
    cfg = _write(tmp_path, "n.json", {"command": command, "domain": "horodisk(0,0.5)", "N": n_steps})
    out = tmp_path / "res"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    assert "at least one step" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n_steps", [0, -2])
def test_cli_exit_code_two_on_dw_without_steps(tmp_path, capsys, n_steps):
    # No iterate to judge: a refused config, not an undecided orbit.
    doc = {"command": "dw", "map": "affine(0.5,0.2)", "z0": [0.1, 0], "N": n_steps}
    cfg = _write(tmp_path, "n.json", doc)
    out = tmp_path / "res"
    assert main(["dw", "--config", cfg, "--out", str(out)]) == 2
    assert "at least one step" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("tol", [0, -1])
@pytest.mark.parametrize(
    "doc",
    [
        {"command": "ifs-run", "domain": "disk(0,0,0.3)"},
        {"command": "dw", "map": "affine(0.5,0.2)", "z0": [0.1, 0]},
    ],
    ids=["ifs-run", "dw"],
)
def test_cli_exit_code_two_on_non_positive_tol(tmp_path, capsys, doc, tol):
    # Not a non_constant verdict with a floor of 0.0, nor an undecided orbit.
    cfg = _write(tmp_path, "tol.json", {**doc, "tol": tol})
    out = tmp_path / "res"
    assert main([doc["command"], "--config", cfg, "--out", str(out)]) == 2
    assert "tol must be > 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "doc, why",
    [
        ({"command": "verify-lemmas", "args_per_modulus": -3}, "args_per_modulus"),
        ({"command": "verify-lemmas", "args_per_modulus": 0}, "args_per_modulus"),
        ({"command": "verify-lemmas", "moduli": [0.99, 0.9]}, "moduli"),
        ({"command": "verify-lemmas", "moduli": [0.9, 0.9]}, "moduli"),
        ({"command": "verify-lemmas", "moduli": [-0.5, 0.9]}, "moduli"),
        ({"command": "bloch", "domain": "horodisk(0,0.05)", "depth": 1.0}, "no admissible search centers"),
        ({**_IFS, "probe": {"rings": 100, "spokes": 250}}, "exceeds the limit of 10000 points"),
    ],
    ids=["no-args", "zero-args", "decreasing", "repeated", "negative", "no-centers", "huge-probe"],
)
def test_cli_exit_code_two_on_inputs_with_nothing_to_report(tmp_path, capsys, doc, why):
    # Not a worst gap over no samples, a gap at a negative modulus, a
    # numeric failure for moduli out of order, a search of no centers, nor
    # a run whose probe pairs would not fit in memory.
    cfg = _write(tmp_path, "v.json", doc)
    out = tmp_path / "res"
    assert main([doc["command"], "--config", cfg, "--out", str(out)]) == 2
    assert why in capsys.readouterr().err
    assert not out.exists()


def test_cli_exit_code_two_on_unparameterized_domain(tmp_path, capsys):
    # A random system needs maps into the domain, and both builders need
    # intrinsic distances; rdense has no parameterization for either.
    for command in ("ifs-run", "construct-t7", "construct-t8"):
        cfg = _write(tmp_path, "r.json", {"command": command, "domain": "rdense(0.5,2)", "N": 5})
        out = tmp_path / "res"
        assert main([command, "--config", cfg, "--out", str(out)]) == 2
        assert "no conformal parameterization" in capsys.readouterr().err
        assert not out.exists()


def test_cli_exit_code_three_on_numeric_failure(tmp_path, capsys):
    cases = [
        # a contraction this slow does not settle in 100 steps: undecided
        # orbits are numeric errors
        ({"command": "dw", "map": "affine(0.999999,0)", "z0": [0.5, 0], "N": 100}, "is undecided"),
        # the deep witness's samples round onto the circle
        ({"command": "bloch", "domain": "horodisk(0,0.5)", "depth": 9}, "failed sample certification"),
        # the circle check fails near step 40, where rho rounds off
        (
            {"command": "construct-t8", "domain": "horodisk(0,0.5)", "N": 45},
            "alternating invariants failed: ['circle']",
        ),
    ]
    for doc, why in cases:
        cfg = _write(tmp_path, "fail.json", doc)
        out = tmp_path / "o"
        assert main([doc["command"], "--config", cfg, "--out", str(out)]) == 3, doc
        assert why in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "doc",
    [
        {"domain": "horodisk(0,0.5)", "exponent": 1e15},
        {"domain": "disk(0,0,0.5)", "exponent": 1e308},
        {"domain": "disk(0,0,0.5)", "exponent": 2.0, "depth": 25.0},
    ],
    ids=["horodisk", "disk", "deep"],
)
def test_cli_exit_code_three_on_stretch_past_double_precision(tmp_path, capsys, doc):
    # The stretched search's probe depth pulls back to tanh 1.0: a numeric
    # failure, not a traceback from atanh.
    cfg = _write(tmp_path, "qc.json", {"command": "qc", **doc})
    out = tmp_path / "res"
    assert main(["qc", "--config", cfg, "--out", str(out)]) == 3
    assert "rounds to 1.0 in double precision" in capsys.readouterr().err
    assert not out.exists()


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


# Doubles where repr is easy to get wrong: both zeros, NaN of either sign,
# the infinities, subnormals, and the neighbours of 1e-5 and 1e16, where
# repr switches between positional and exponent form.
_TRICKY_DOUBLES = [
    0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf,
    5e-324, -5e-324, 2.2250738585072009e-308, 1e-310,
    *(float(np.nextafter(1e-5, t)) for t in (0.0, 1.0)), 1e-5, -1e-5, 1e-4,
    *(float(np.nextafter(1e16, t)) for t in (0.0, 2e16)), 1e16, -1e16, 9999999999999998.0,
]
# A pool of doubles and their negatives, then an array drawn from it with
# repeats.
_REPEATING_DOUBLES = st.lists(
    st.sampled_from(_TRICKY_DOUBLES) | st.floats(allow_nan=True, allow_infinity=True),
    min_size=1,
    max_size=8,
).flatmap(lambda pool: st.lists(st.sampled_from(pool + [-x for x in pool]), max_size=64))


@given(_REPEATING_DOUBLES, _REPEATING_DOUBLES)
@example([0.0, -0.0, -0.0, 0.0], [math.nan, -math.nan])
def test_reprs_match_repr(xs, ys):
    # The helper keys the doubles by bit pattern; a helper that merges
    # equal values would print -0.0 as 0.0 or the reverse.
    for x in (xs, ys):
        a = np.array(x, dtype=float)
        assert _reprs(a) == [repr(v) for v in a.tolist()]
    # The real and imaginary parts of a complex array are strided views.
    n = min(len(xs), len(ys))
    z = np.empty(n, dtype=complex)
    z.real, z.imag = xs[:n], ys[:n]
    assert _reprs(z.real) == [repr(v) for v in xs[:n]]
    assert _reprs(z.imag) == [repr(v) for v in ys[:n]]
