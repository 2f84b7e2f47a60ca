"""End-to-end acceptance suite.

Each test checks one advertised guarantee of the package and prints a
single [PASS] line when it holds.  Run with -s to see the lines.
"""

import json
import math

import numpy as np
import pytest

import diskdyn as d
from diskdyn.cli import main as cli_main


def _point(rng, rmax=0.95):
    r = rmax * math.sqrt(rng.uniform(0.0, 1.0))
    t = rng.uniform(0.0, 2.0 * math.pi)
    return complex(r * math.cos(t), r * math.sin(t))


def test_criterion_1_mobius_isometry_and_preimage_algebra():
    rng = np.random.default_rng(101)
    worst_iso = 0.0
    for _ in range(10_000):
        m = d.MobiusAut(_point(rng), rng.uniform(0.0, 2.0 * math.pi))
        z, w = _point(rng), _point(rng)
        worst_iso = max(worst_iso, abs(d.rho(m(z), m(w)) - d.rho(z, w)))
    assert worst_iso < 1e-12

    worst_vieta = 0.0
    worst_pair = 0.0
    checked = 0
    while checked < 1_000:
        a = _point(rng, rmax=0.9)
        c = _point(rng, rmax=0.74)
        if abs(a) < 1e-3 or abs(c) < 1e-3:
            continue
        try:
            z_small, z_big = d.Blaschke2(a).preimages(c)
        except d.NumericError:
            continue
        worst_vieta = max(worst_vieta, abs(z_small * z_big + c))
        worst_pair = max(
            worst_pair, abs(d.rho(0j, complex(z_small)) - d.rho(a, complex(z_big)))
        )
        checked += 1
    assert worst_vieta < 1e-12
    assert worst_pair < 1e-10
    print(
        "[PASS] criterion 1: Mobius isometry 1e-12 over 1e4 triples; "
        "Vieta 1e-12 and preimage pair equality 1e-10 over 1e3 draws"
    )


def test_criterion_2_preimage_convergence_rates():
    rep = d.preimage_convergence_report(target=0.3, moduli=(0.9, 0.99, 0.999))
    g = rep.real_axis_gaps
    assert g[0] < 0.02
    assert g[1] < 0.002
    assert g[0] > g[1] > g[2]
    print(
        "[PASS] criterion 2: small preimage of 0.3 within 0.02 at |a|=0.9, "
        "0.002 at 0.99, gaps strictly decreasing"
    )


def test_criterion_3_metric_comparison_decay():
    rep = d.metric_comparison_report(bounds=(2.0, 4.0, 8.0))
    e = rep.ratio_excess
    assert e[0] > e[1] > e[2]
    assert e[2] < 0.01
    assert rep.domination_ok
    print(
        "[PASS] criterion 3: punctured-disk metric excess strictly decreasing "
        "on bounds (2,4,8), below 0.01 at 8, domination holds"
    )


def test_criterion_4_contracting_systems_converge():
    X = d.EuclideanSubdisk(0j, 0.3)
    small = d.ProbeSpec(rho_radius=0.9, rings=4, spokes=5)
    for seed in range(20):
        seq = d.random_system(X, seed=seed, count=50)
        steps, rep = d.run(seq)
        assert rep.verdict.kind == "constant_limit", seed
        assert steps[-1].diameter < 1e-6, seed
        _, rep2 = d.run(seq, probe=small)
        assert rep2.verdict.kind == "constant_limit", seed
        assert abs(rep.verdict.constant - rep2.verdict.constant) < 1e-8, seed
    print(
        "[PASS] criterion 4: 20 seeded systems into disk(0,0.3) all reach a "
        "constant limit (diameter < 1e-6 by n=50), limit probe-independent to 1e-8"
    )


def test_criterion_5_nonconstant_construction():
    X = d.Horodisk(1.0, 0.5)
    a0 = complex(X.anchor)
    w0 = d.point_at_intrinsic_distance(X, a0, 0.3)
    seq, steps = d.build_nonconstant_system(X, a0, w0, n_steps=20)
    assert len(steps) == 20
    for s in steps:
        assert all(s.checks.values()), (s.n, s.checks)
        assert s.dist_tilde < 1.0
    tilde = steps[-1].marked_tilde
    assert abs(complex(d.compose_eval(seq, 0j)) - a0) < 1e-8
    assert abs(complex(d.compose_eval(seq, tilde)) - w0) < 1e-8
    probe = d.ProbeSpec(marked=(tilde,))
    _, rep = d.run(seq, probe=probe)
    assert rep.verdict.kind == "non_constant"
    assert rep.verdict.diameter_floor >= d.rho(a0, w0) / 2.0
    print(
        "[PASS] criterion 5: 20-step nonconstant system on horodisk(1,0.5) "
        "keeps all five step inequalities, pins F_N(0) and F_N(w~) to 1e-8, "
        "and the engine certifies a nonconstant limit"
    )


def test_criterion_6_alternating_construction():
    X = d.Horodisk(1.0, 0.5)
    a = complex(X.anchor)
    a1 = d.point_at_intrinsic_distance(X, a, 1.0, angle=math.pi / 3.0)
    seq, steps = d.build_alternating_system(X, a, a1, n_steps=12)
    for n in range(1, 13):
        got = complex(d.compose_eval(seq[:n], a))
        want = a if n % 2 == 0 else a1
        assert abs(got - want) < 1e-8, n
    probe = d.ProbeSpec(marked=(a,))
    _, rep = d.run(seq, probe=probe)
    assert rep.verdict.kind == "multiple_accumulation"
    assert len(rep.verdict.clusters) == 2
    print(
        "[PASS] criterion 6: 12-step alternating system swings the base point "
        "between two values to 1e-8 and the engine finds exactly two clusters"
    )


def test_criterion_7_region_size_search():
    sub = d.bloch_radius_search(d.EuclideanSubdisk(0j, 0.5))
    assert sub.verdict.kind == "bloch_up_to"
    assert abs(sub.best_inradius - math.atanh(0.5)) < 1e-3

    budget = d.SearchBudget(depth=5.0)
    horo = d.bloch_radius_search(d.Horodisk(1.0, 0.5), budget)
    assert horo.verdict.kind == "non_bloch_witness"
    assert horo.witness is not None and horo.witness.radius >= 3.0
    assert d.witness_disk_verify(d.Horodisk(1.0, 0.5), horo.witness, samples=10_000)

    dense = d.bloch_radius_search(d.RDenseComplement(0.5, 4.0))
    assert dense.verdict.kind == "bloch_up_to"
    assert dense.best_inradius <= 0.55
    print(
        "[PASS] criterion 7: subdisk radius atanh(0.5) to 1e-3, horodisk yields a "
        "verified witness disk of radius >= 3, punctured complement stays <= 0.55"
    )


def test_criterion_8_quasiconformal_image_stability():
    budget = d.SearchBudget(depth=4.0)
    cases = [
        (d.Horodisk(1.0, 0.5), "non_bloch_witness"),
        (d.RDenseComplement(0.5, 4.0), "bloch_up_to"),
    ]
    for X, kind in cases:
        base = d.bloch_radius_search(X, budget)
        assert base.verdict.kind == kind
        for k in (1.0, 2.0, 4.0):
            rep = d.qc_image_experiment(X, d.RadialStretch(k), budget)
            assert rep.verdict.kind == kind, (type(X).__name__, k)
            if k == 1.0:
                assert rep.best_center == base.best_center
                assert rep.best_inradius == base.best_inradius
                assert rep.verdict == base.verdict
    print(
        "[PASS] criterion 8: radial stretches K in {1,2,4} preserve the verdict "
        "for both domain classes; K=1 reproduces the search exactly"
    )


def test_criterion_9_cli_determinism(tmp_path):
    doc = {
        "command": "ifs-run",
        "domain": "disk(0,0,0.3)",
        "N": 30,
        "seed": 11,
        "probe": {"rings": 6, "spokes": 8},
    }
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(doc), encoding="utf-8")
    outs = []
    for sub in ("first", "second"):
        out = tmp_path / sub
        code = cli_main(["ifs-run", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        outs.append(out)
    for name in ("trace.csv", "report.json", "grid.csv"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
    print(
        "[PASS] criterion 9: repeated CLI runs with equal seeds produce "
        "byte-identical trace.csv, report.json, and grid.csv"
    )


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
