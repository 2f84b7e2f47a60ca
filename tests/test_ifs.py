import cmath
import math
import random

import numpy as np
import pytest

from diskdyn.domains import EuclideanSubdisk, Horodisk
from diskdyn.errors import NumericError, PreconditionError
from diskdyn.hyperbolic import Blaschke2, MobiusAut, rho
from diskdyn.ifs import (
    _evaluate_grid,
    _evaluate_prefixes,
    Affine,
    MapDescriptor,
    ProbeSpec,
    RiemannTo,
    Squaring,
    compose_eval,
    denjoy_wolff,
    random_system,
    run,
)


def test_affine_validation_and_value():
    f = Affine(0.5, 0.2)
    assert f(0.4) == pytest.approx(0.4)
    assert f(np.array([0.0, 0.2]))[1] == pytest.approx(0.3)
    with pytest.raises(PreconditionError):
        Affine(0.8, 0.3)


def test_squaring_value():
    assert Squaring()(0.3 + 0.4j) == pytest.approx((0.3 + 0.4j) ** 2)


def test_descriptor_chain_applies_left_to_right():
    f = MapDescriptor((Affine(0.5, 0.2), Squaring()))
    z = 0.3 + 0.1j
    assert complex(f(z)) == pytest.approx((0.5 * z + 0.2) ** 2)


def test_descriptor_requires_nonempty_chain():
    with pytest.raises(PreconditionError):
        MapDescriptor(())


def test_descriptor_target_validation():
    X = EuclideanSubdisk(0j, 0.3)
    MapDescriptor((Affine(0.1, 0.1), RiemannTo(X)), target=X)  # fine
    with pytest.raises(PreconditionError):
        MapDescriptor((Affine(0.5, 0.2),), target=X)  # image reaches 0.7


def test_compose_eval_two_blaschke_oracle():
    # exact rational oracle: both maps z(z - 0.9)/(1 - 0.9 z), start 1/2
    seq = [MapDescriptor((Blaschke2(0.9),)), MapDescriptor((Blaschke2(0.9),))]
    val = complex(compose_eval(seq, 0.5))
    assert abs(val - 278.0 / 803.0) < 1e-14


def test_compose_eval_identity_and_order():
    seq = [
        MapDescriptor((Affine(0.5, 0.2),)),
        MapDescriptor((Squaring(),)),
    ]
    z = 0.6
    assert complex(compose_eval(seq, z, 0)) == z
    # f_2 (innermost) squares first, then the affine map
    assert complex(compose_eval(seq, z)) == pytest.approx(0.5 * z**2 + 0.2)


def test_compose_eval_inverse_pair():
    m = MobiusAut(0.3 + 0.2j, 0.9)
    f = MapDescriptor((m, m.inverse()))
    rng = random.Random(41)
    for _ in range(50):
        z = 0.9 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        assert abs(complex(f(z)) - z) < 1e-13


def test_probe_spec_layout():
    p = ProbeSpec(rings=3, spokes=8, marked=(0.1 + 0.1j,))
    pts = p.points()
    assert pts.size == 1 + 24 + 1
    assert pts[0] == 0
    assert p.marker_index == 25
    assert pts[p.marker_index] == 0.1 + 0.1j
    assert ProbeSpec().marker_index == 0


def test_probe_spec_validation_and_empty():
    with pytest.raises(PreconditionError):
        ProbeSpec(rho_radius=-1.0)
    with pytest.raises(PreconditionError):
        ProbeSpec(rings=0, spokes=5)
    empty = ProbeSpec(rings=0, spokes=0, origin=False)
    assert empty.points().size == 0


def test_run_empty_probe_is_vacuous():
    X = EuclideanSubdisk(0j, 0.3)
    seq = random_system(X, seed=1, count=5)
    trace, report = run(seq, probe=ProbeSpec(rings=0, spokes=0, origin=False))
    assert trace.steps == []
    assert report.verdict.kind == "undecided"


def test_run_random_systems_reach_constant_limit():
    X = EuclideanSubdisk(0j, 0.3)
    contraction = math.tanh(math.atanh(0.3))  # Euclidean radius bound
    for seed in (0, 1, 2):
        seq = random_system(X, seed=seed, count=50)
        trace, report = run(seq, tol=1e-8)
        assert report.verdict.kind == "constant_limit"
        assert report.diameters[-1] < 1e-6
        assert report.schwarz_max <= 1e-8
        # compact-target contraction: once inside X, one more step shrinks
        # diameters at least by the subdisk's hyperbolic-vs-euclidean gap
        for a, b in zip(report.diameters[1:6], report.diameters[2:7]):
            assert b <= max(contraction * a, 1e-12)


def test_run_limit_is_probe_independent():
    X = EuclideanSubdisk(0j, 0.3)
    seq = random_system(X, seed=5, count=50)
    _t1, r1 = run(seq)
    _t2, r2 = run(seq, probe=ProbeSpec(rho_radius=0.8, rings=5, spokes=7))
    assert r1.verdict.kind == r2.verdict.kind == "constant_limit"
    assert abs(r1.verdict.constant - r2.verdict.constant) < 1e-8


def test_run_rotation_chain_stays_non_constant():
    seq = [MapDescriptor((MobiusAut.rotation(0.7),)) for _ in range(30)]
    _trace, report = run(seq)
    assert report.verdict.kind == "non_constant"
    assert report.verdict.diameter_floor > 1.0  # probe diameter preserved


def test_run_guard_records_lost_points():
    # scale 0, offset 1: every point lands on the boundary at step one
    seq = [MapDescriptor((Affine(0.0, 1.0),))]
    trace, report = run(seq)
    step = trace.steps[0]
    assert np.isnan(step.values).all()
    assert step.point_errors
    assert "map 1" in next(iter(step.point_errors.values()))
    assert report.verdict.kind == "undecided"


def _killed_at_step_three():
    seq = random_system(EuclideanSubdisk(0j, 0.3), seed=4, count=6)
    seq[2] = MapDescriptor((Affine(0.0, 1.0),))
    return seq


def test_run_lost_tail_stays_undecided():
    # Every probe point dies at step 3, so only steps 1 and 2 have a
    # diameter; their minimum is no floor for the composites that follow.
    # The maps applied to the lost points must not warn either.
    trace, report = run(_killed_at_step_three())
    assert math.isfinite(trace.steps[1].diameter)
    assert all(math.isnan(s.diameter) for s in trace.steps[2:])
    assert report.verdict.kind == "undecided"
    assert report.verdict.diameter_floor is None


@pytest.mark.parametrize(
    "seq, probe",
    [
        (random_system(EuclideanSubdisk(0.1 - 0.05j, 0.35), seed=3, count=20), ProbeSpec()),
        (random_system(Horodisk(cmath.exp(2.2j), 0.5), seed=11, count=20), ProbeSpec()),
        ([MapDescriptor((Affine(0.0, 1.0),))], ProbeSpec()),
        (_killed_at_step_three(), ProbeSpec(rings=3, spokes=5)),
        (random_system(Horodisk(cmath.exp(0.4j), 0.6), seed=2, count=3), ProbeSpec(rings=64, spokes=130)),
    ],
    ids=["disk", "horodisk", "guard", "guard_inner", "one_row_blocks"],
)
def test_prefix_sweep_matches_per_row_evaluation(seq, probe):
    # Row n of the sweep is F_n evaluated on its own, bit for bit, with the
    # same lost points; the 577-point rows split into blocks of 14, and the
    # 8321-point rows are one block each.
    pts = probe.points()
    rows, errors = _evaluate_prefixes(seq, len(seq), pts)
    refs = [_evaluate_grid(seq, n, pts) for n in range(1, len(seq) + 1)]
    assert rows.shape == (len(seq), pts.size)
    for n, (ref, ref_errors) in enumerate(refs, start=1):
        assert np.array_equal(rows[n - 1], ref, equal_nan=True), n
        assert errors[n - 1] == ref_errors, n


def test_run_step_count_bounds():
    seq = random_system(EuclideanSubdisk(0j, 0.3), seed=3, count=5)
    with pytest.raises(PreconditionError):
        run(seq, n_steps=6)
    with pytest.raises(PreconditionError):
        run(seq, n_steps=0)


def test_random_system_is_deterministic():
    X = Horodisk(1.0, 0.5)
    s1 = random_system(X, seed=9, count=10)
    s2 = random_system(X, seed=9, count=10)
    s3 = random_system(X, seed=10, count=10)
    zs = [0.1, -0.2 + 0.3j, 0.5j]
    same = all(
        complex(a(z)) == complex(b(z)) for a, b in zip(s1, s2) for z in zs
    )
    assert same
    differs = any(
        complex(a(z)) != complex(b(z)) for a, b in zip(s1, s3) for z in zs
    )
    assert differs


def test_random_system_maps_into_domain():
    X = EuclideanSubdisk(0.1 + 0j, 0.4)
    rng = random.Random(42)
    for f in random_system(X, seed=11, count=10):
        for _ in range(20):
            z = 0.95 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
            assert X.contains(complex(f(z)))


def test_denjoy_wolff_interior_points():
    f = MapDescriptor((Affine(0.5, 0.2),))
    limit, where, orbit = denjoy_wolff(f, 0.1)
    assert where == "interior"
    assert abs(limit - 0.4) < 1e-9
    assert orbit[0] == f(0.1) and orbit[1] == f(orbit[0]) and orbit[-1] == limit

    g = MapDescriptor((Squaring(),))
    limit, where, _orbit = denjoy_wolff(g, 0.5)
    assert where == "interior"
    assert abs(limit) < 1e-9


def test_denjoy_wolff_boundary_point():
    f = MapDescriptor((Affine(0.5, 0.5),))
    limit, where, _orbit = denjoy_wolff(f, 0.0)
    assert where == "boundary"
    assert abs(limit - 1.0) < 1e-12


def test_denjoy_wolff_start_independence():
    f = MapDescriptor((Affine(0.3, 0.1 + 0.2j),))
    rng = random.Random(43)
    limits = []
    for _ in range(10):
        z0 = 0.8 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
        limit, where, _orbit = denjoy_wolff(f, z0)
        assert where == "interior"
        limits.append(limit)
    base = limits[0]
    assert all(abs(v - base) < 1e-8 for v in limits)


def test_denjoy_wolff_rejects_automorphism():
    with pytest.raises(PreconditionError):
        denjoy_wolff(MapDescriptor((MobiusAut(0.3, 0.2),)), 0.1)


def test_denjoy_wolff_undecided_is_numeric_error():
    # two rotations compose to a rotation: the orbit never settles
    f = MapDescriptor((MobiusAut.rotation(1.0), MobiusAut.rotation(0.7)))
    with pytest.raises(NumericError):
        denjoy_wolff(f, 0.5, n_steps=200)
