import cmath
import math

import numpy as np
import pytest

from conftest import mobius_image
from diskdyn.constructions import (
    _arc_runs,
    build_alternating_system,
    build_nonconstant_system,
    metric_comparison_report,
    point_at_intrinsic_distance,
    preimage_convergence_report,
    slack_product,
    slack_product_squared,
    slack_sequence,
)
from diskdyn.domains import (
    EuclideanSubdisk,
    Horodisk,
    RDenseComplement,
)
from diskdyn.errors import NumericError, PreconditionError
from diskdyn.hyperbolic import MobiusAut, rho
from diskdyn.ifs import ProbeSpec, compose_eval, run


def test_slack_closed_forms():
    prod = 1.0
    for n in range(1, 30):
        eps = slack_sequence(n)
        assert eps > 0
        prod *= (1.0 + eps) ** 2
        assert prod == pytest.approx(slack_product_squared(n), rel=1e-14)
        assert math.sqrt(prod) == pytest.approx(slack_product(n), rel=1e-14)
    # the squared product telescopes toward 2 and never reaches it
    assert slack_product_squared(10) == pytest.approx(1.9986466550053015, rel=1e-14)
    assert slack_product_squared(50) < 2.0
    assert slack_product(50) < math.sqrt(2.0)


def test_slack_validation():
    with pytest.raises(PreconditionError):
        slack_sequence(0)
    with pytest.raises(PreconditionError):
        slack_product(-1)


def test_point_at_intrinsic_distance():
    X = Horodisk(1.0, 0.5)
    base = complex(X.anchor)
    for d in (0.1, 0.3, 1.0, 2.0):
        for ang in (0.0, 1.2, math.pi):
            w = point_at_intrinsic_distance(X, base, d, ang)
            assert X.contains(w)
            assert X.rho_X(base, w) == pytest.approx(d, abs=1e-12)
    with pytest.raises(PreconditionError):
        point_at_intrinsic_distance(X, -0.5, 0.3)


@pytest.mark.parametrize(
    "distance, angle, name",
    [(math.nan, 0.0, "distance"), (math.inf, 0.0, "distance"),
     (0.3, math.nan, "angle"), (0.3, math.inf, "angle")],
)
def test_point_at_intrinsic_distance_rejects_non_finite(distance, angle, name):
    # Not NaN, nor a point on the unit circle for an infinite distance.
    X = Horodisk(1.0, 0.5)
    with pytest.raises(PreconditionError, match=name):
        point_at_intrinsic_distance(X, complex(X.anchor), distance, angle)


def _horodisk_pair(distance=0.3):
    X = Horodisk(1.0, 0.5)
    a0 = complex(X.anchor)
    w0 = point_at_intrinsic_distance(X, a0, distance)
    return X, a0, w0


def test_arc_runs_wrap_tie_and_single():
    def runs(mask):
        return sorted(_arc_runs(np.array([c == "1" for c in mask])))

    # The run through the end wraps to the start; the builder's pick is
    # the longest, the earliest start on a tie.
    assert runs("11001101") == [(4, 2), (7, 3)]
    tied = _arc_runs(np.array([c == "1" for c in "01101100"]))
    assert sorted(tied) == [(1, 2), (4, 2)]
    assert max(tied, key=lambda r: (r[1], -r[0])) == (1, 2)
    assert runs("0011100") == [(2, 3)]
    assert runs("1000") == [(0, 1)]
    assert runs("0001") == [(3, 1)]
    assert runs("0000") == []


def test_nonconstant_builder_step_invariants():
    X, a0, w0 = _horodisk_pair()
    d0 = X.rho_X(a0, w0)
    seq, steps = build_nonconstant_system(X, a0, w0, 20)
    assert len(seq) == len(steps) == 20
    depths = [s.depth for s in steps]
    assert depths == sorted(depths)
    for s in steps:
        assert all(s.checks.values()), (s.n, s.checks)
        assert s.dist_tilde < 1.0
        assert s.dist_tilde < slack_product(s.n) * d0
        assert s.dist_intrinsic < slack_product_squared(s.n) * d0 < 1.0
        assert s.inradius > 1.0
        assert X.contains(s.anchor) and X.contains(s.marked)


def test_nonconstant_builder_final_pins():
    X, a0, w0 = _horodisk_pair()
    seq, steps = build_nonconstant_system(X, a0, w0, 20)
    tilde = complex(steps[-1].marked_tilde)
    assert abs(complex(compose_eval(seq, 0j)) - a0) < 1e-8
    assert abs(complex(compose_eval(seq, tilde)) - w0) < 1e-8
    # every partial composite pins the origin orbit to a0 as well
    for n in (1, 5, 13, 20):
        assert abs(complex(compose_eval(seq[:n], 0j)) - a0) < 1e-8


def test_nonconstant_engine_verdict():
    X, a0, w0 = _horodisk_pair()
    seq, steps = build_nonconstant_system(X, a0, w0, 20)
    probe = ProbeSpec(marked=(complex(steps[-1].marked_tilde),))
    _trace, report = run(seq, probe=probe)
    assert report.verdict.kind == "non_constant"
    assert report.verdict.diameter_floor >= X.rho_X(a0, w0) / 2.0


def test_nonconstant_engine_verdict_with_drifting_marker():
    # The marked orbit drifts by ~1e-7 a step, so each of the last twelve
    # steps is a cluster of its own; one-step clusters are no evidence of
    # alternation, and the diameter floor stays near 1.5625.
    X = Horodisk(1.0, 0.7)
    a0 = complex(X.anchor)
    w0 = point_at_intrinsic_distance(X, a0, 0.3)
    seq, steps = build_nonconstant_system(X, a0, w0, 20)
    probe = ProbeSpec(marked=(complex(steps[-1].marked_tilde),))
    _trace, report = run(seq, probe=probe)
    assert report.verdict.kind == "non_constant"
    assert report.verdict.diameter_floor == pytest.approx(1.5625, abs=1e-3)


def test_nonconstant_builder_rejections():
    X, a0, _w0 = _horodisk_pair()
    with pytest.raises(PreconditionError):
        build_nonconstant_system(EuclideanSubdisk(0j, 0.5), 0j, 0.1, 5)
    with pytest.raises(PreconditionError):
        build_nonconstant_system(RDenseComplement(0.5, 2.0), 0j, 0.1, 5)
    with pytest.raises(PreconditionError):
        build_nonconstant_system(X, a0, a0, 5)  # zero separation
    far = point_at_intrinsic_distance(X, a0, 0.8)
    with pytest.raises(PreconditionError):
        build_nonconstant_system(X, a0, far, 5)  # beyond 1/2
    for n_steps in (0, -1):
        with pytest.raises(PreconditionError, match="at least one step"):
            build_nonconstant_system(X, a0, _w0, n_steps)


def test_nonconstant_builder_precision_limit_is_numeric_error():
    # At depth 17 the splitter's big preimage rounds to 0.9999999999999992,
    # inside the boundary guard: the double-precision limit, not bad input.
    X = Horodisk(1.0, 0.4)
    a0 = complex(X.anchor)
    w0 = point_at_intrinsic_distance(X, a0, 0.5)
    with pytest.raises(NumericError, match="double-precision limit"):
        build_nonconstant_system(X, a0, w0, 20)


def test_builders_sweep_horodisk_tangencies_and_sizes():
    # Tangencies at eighths of the circle, sizes 0.3-0.7, the CLI's
    # default distances: every chain is accepted and both builders finish.
    failures = []
    for k in range(8):
        for size in (0.3, 0.4, 0.5, 0.6, 0.7):
            X = Horodisk(cmath.exp(2j * math.pi * k / 8), size)
            a0 = complex(X.anchor)
            for name, build, w0 in (
                ("t7", build_nonconstant_system, point_at_intrinsic_distance(X, a0, 0.3)),
                ("t8", build_alternating_system,
                 point_at_intrinsic_distance(X, a0, 1.0, math.pi / 3.0)),
            ):
                try:
                    build(X, a0, w0, 20)
                except (PreconditionError, NumericError) as exc:
                    failures.append((name, X.describe(), str(exc)))
    assert failures == []


def test_alternating_builder_period_two():
    X = Horodisk(1.0, 0.5)
    a = complex(X.anchor)
    a1 = point_at_intrinsic_distance(X, a, 1.0, math.pi / 3)
    seq, steps = build_alternating_system(X, a, a1, 12)
    assert len(seq) == len(steps) == 12
    for s in steps:
        assert all(s.checks.values()), (s.n, s.checks)
        assert X.contains(s.value)
    for n in range(1, 13):
        v = complex(compose_eval(seq[:n], a))
        target = a if n % 2 == 0 else a1
        assert abs(v - target) < 1e-8
    # the sweep circle radius equals the previous intrinsic distance
    assert steps[0].circle_radius == pytest.approx(X.rho_X(a, a1), abs=1e-12)


def test_alternating_engine_sees_two_clusters():
    X = Horodisk(1.0, 0.5)
    a = complex(X.anchor)
    a1 = point_at_intrinsic_distance(X, a, 1.0, math.pi / 3)
    seq, _steps = build_alternating_system(X, a, a1, 12)
    _trace, report = run(seq, probe=ProbeSpec(marked=(a,)))
    assert report.verdict.kind == "multiple_accumulation"
    assert len(report.verdict.clusters) == 2
    reps = sorted(abs(complex(c.representative) - a) for c in report.verdict.clusters)
    assert reps[0] < 1e-6  # one cluster sits on the base point


def test_alternating_builder_on_transported_domain():
    m = MobiusAut(0.1 + 0.2j, 0.3)
    Y = mobius_image(Horodisk(1.0, 0.5), m)
    a = complex(Y.anchor)
    a1 = point_at_intrinsic_distance(Y, a, 1.0, 0.7)
    seq, steps = build_alternating_system(Y, a, a1, 6)
    for n in range(1, 7):
        v = complex(compose_eval(seq[:n], a))
        target = a if n % 2 == 0 else a1
        assert abs(v - target) < 1e-8


def test_alternating_builder_scans_once_a_step(monkeypatch):
    # Each step asks X for one array scan of the sweep circle and one
    # point, the new value; the two inputs are checked once, and the map
    # is built from the disk coordinate of the previous value, whose
    # membership the step before it checked.  The arc's middle comes from
    # the scan: no bisection.
    X = Horodisk(1.0, 0.3)
    a = complex(X.anchor)
    a1 = point_at_intrinsic_distance(X, a, 1.0, math.pi / 3)
    calls = []
    contains = X.contains

    def counted(z):
        calls.append(np.ndim(z))
        return contains(z)

    monkeypatch.setattr(X, "contains", counted)
    build_alternating_system(X, a, a1, 12)
    assert calls.count(1) == 12
    assert calls.count(0) == 12 + 2
    assert len(calls) == 26


def test_alternating_builder_rejections():
    X = Horodisk(1.0, 0.5)
    a = complex(X.anchor)
    with pytest.raises(PreconditionError):
        build_alternating_system(EuclideanSubdisk(0j, 0.5), 0j, 0.1, 4)
    with pytest.raises(PreconditionError, match="no single-valued parameterization"):
        build_alternating_system(RDenseComplement(0.5, 2), 0j, 0.1, 3)
    with pytest.raises(PreconditionError):
        build_alternating_system(X, a, a, 4)
    with pytest.raises(PreconditionError):
        build_alternating_system(X, a, -0.5, 4)
    for n_steps in (0, -1):
        with pytest.raises(PreconditionError, match="at least one step"):
            build_alternating_system(X, a, point_at_intrinsic_distance(X, a, 1.0), n_steps)


def test_metric_comparison_report_values():
    rep = metric_comparison_report()
    assert rep.bounds == (2.0, 4.0, 8.0)
    assert rep.ratio_excess[0] > rep.ratio_excess[1] > rep.ratio_excess[2]
    assert rep.ratio_excess[2] < 0.01
    assert rep.domination_ok
    for bound, density in zip(rep.bounds, rep.density_ratio):
        assert density == pytest.approx(1.0 / math.tanh(bound), rel=1e-12)
    # frozen anchors
    assert rep.ratio_excess[0] == pytest.approx(0.0714658, abs=1e-6)
    assert rep.ratio_excess[1] == pytest.approx(0.0012182, abs=1e-6)


def test_metric_comparison_validation():
    with pytest.raises(PreconditionError):
        metric_comparison_report(bounds=(0.5, 2.0))
    with pytest.raises(PreconditionError):
        metric_comparison_report(sample_count=1)


def test_preimage_convergence_report_values():
    rep = preimage_convergence_report()
    assert rep.moduli == (0.9, 0.99, 0.999)
    assert rep.limit == pytest.approx(math.atanh(0.3), rel=1e-12)
    assert rep.real_axis_gaps[0] > rep.real_axis_gaps[1] > rep.real_axis_gaps[2]
    assert rep.real_axis_gaps[0] == pytest.approx(0.0186138, abs=1e-6)
    assert rep.real_axis_gaps[1] == pytest.approx(0.0017835, abs=1e-6)
    assert rep.real_axis_gaps[2] < 0.01
    assert rep.sampled_gaps[2] < 0.01
    assert rep.identity_error < 1e-10


def test_preimage_convergence_deterministic():
    a = preimage_convergence_report(seed=7)
    b = preimage_convergence_report(seed=7)
    assert a == b


def test_preimage_convergence_validation():
    with pytest.raises(PreconditionError):
        preimage_convergence_report(target=0.0)
    # A worst gap over no samples, or gaps at moduli out of order or off
    # (0, 1), reports nothing.
    for n in (0, -3):
        with pytest.raises(PreconditionError, match="args_per_modulus"):
            preimage_convergence_report(args_per_modulus=n)
    for moduli in ((0.99, 0.9), (0.9, 0.9), (-0.5, 0.9), (0.0, 0.9), (0.9, 1.0), (0.9, float("nan"))):
        with pytest.raises(PreconditionError, match="moduli"):
            preimage_convergence_report(moduli=moduli)
