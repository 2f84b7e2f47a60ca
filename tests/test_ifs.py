import cmath
import csv
import io
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diskdyn.cli
import diskdyn.ifs
from diskdyn.bloch import RadialStretch
from diskdyn.cli import _FORMAT_BLOCK, _GRID_RINGS, _engine_results, _trace_lines, emit_outputs
from diskdyn.domains import EuclideanSubdisk, Horodisk, RDenseComplement, parse_domain
from diskdyn.errors import NumericError, PreconditionError
from diskdyn.hyperbolic import Blaschke2, MobiusAut, _coords, rho, rho_of, sinh2_rho
from diskdyn.ifs import (
    ORBIT_GUARD,
    _evaluate_grid,
    _evaluate_prefixes,
    _pair_pass,
    _probe_tiles,
    _single_linkage,
    Affine,
    MapDescriptor,
    ProbeSpec,
    Squaring,
    compose_eval,
    denjoy_wolff,
    random_system,
    run,
)
from diskdyn.sampling import ring_points


def test_affine_validation_and_value():
    f = Affine(0.5, 0.2)
    assert f(0.4) == pytest.approx(0.4)
    assert f(np.array([0.0, 0.2]))[1] == pytest.approx(0.3)
    with pytest.raises(PreconditionError):
        Affine(0.8, 0.3)
    for scale, offset in ((math.nan, 0.0), (0.5, math.nan), (0.5, complex(0.0, math.nan))):
        with pytest.raises(PreconditionError):
            Affine(scale, offset)


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
    # A map into X applies its chain, then X's parameterization: an affine
    # image reaching 0.7 still lands in the radius-0.3 disk.
    X = EuclideanSubdisk(0j, 0.3)
    f = MapDescriptor((Affine(0.5, 0.2),), target=X)
    for z in (0.0, 0.9, -0.5 + 0.7j):
        assert f(z) == X.riemann_to(0.5 * z + 0.2)
        assert X.contains(complex(f(z)))
    # A target with no parameterization fails when the map is built.
    with pytest.raises(PreconditionError, match="no conformal parameterization"):
        MapDescriptor((Affine(0.5, 0.2),), target=RDenseComplement(0.5, 2.0))


def test_descriptor_target_needs_self_maps_then_riemann_to():
    X = Horodisk(1.0, 0.4)
    chain = (Blaschke2(0.5), MobiusAut(0.2j, 1.0), Squaring())
    f = MapDescriptor(chain, target=X)
    assert f.chain == chain
    z = 0.3 - 0.2j
    assert f(z) == X.riemann_to(MapDescriptor(chain)(z))
    with pytest.raises(PreconditionError, match="must chain disk self-maps"):
        MapDescriptor((lambda z: 0.5 * z,), target=X)  # a piece nothing validated
    with pytest.raises(PreconditionError, match="must chain disk self-maps"):
        MapDescriptor((MobiusAut(0.2j), lambda z: 0.5 * z), target=X)


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
    assert complex(compose_eval(seq[:0], z)) == z
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
    # Every probe point must be a disk point: the outer ring at rho 19
    # lies 1.1e-16 from the circle.
    assert ProbeSpec(rho_radius=17.0, rings=2, spokes=4).points().size == 9
    for radius in (19.0, math.inf, math.nan):
        with pytest.raises(PreconditionError):
            ProbeSpec(rho_radius=radius, rings=2, spokes=4)
    empty = ProbeSpec(rings=0, spokes=0, origin=False)
    assert empty.points().size == 0


def test_probe_spec_refuses_more_points_than_the_pair_tiles_hold(monkeypatch):
    # Rings times spokes, the origin and the marked points count; the
    # refusal comes before any point is built.
    assert diskdyn.ifs.MAX_PROBE_POINTS == 10_000
    assert ProbeSpec(rings=99, spokes=101).points().size == 10_000

    def unbuilt(*_args):
        raise AssertionError("a refused probe built its points")

    monkeypatch.setattr(diskdyn.ifs, "ring_points", unbuilt)
    for probe in (
        {"rings": 99, "spokes": 101, "marked": (0.1,)},
        {"rings": 100, "spokes": 100, "origin": True},
        {"rings": 100, "spokes": 250},
    ):
        with pytest.raises(PreconditionError, match=r"limit of 10000 points \(0\.4 GB"):
            ProbeSpec(**probe)


def test_run_empty_probe_is_vacuous():
    X = EuclideanSubdisk(0j, 0.3)
    seq = random_system(X, seed=1, count=5)
    steps, report = run(seq, probe=ProbeSpec(rings=0, spokes=0, origin=False))
    assert steps == []
    assert report.verdict.kind == "undecided"


def test_run_random_systems_reach_constant_limit():
    X = EuclideanSubdisk(0j, 0.3)
    contraction = math.tanh(math.atanh(0.3))  # Euclidean radius bound
    for seed in (0, 1, 2):
        seq = random_system(X, seed=seed, count=50)
        steps, report = run(seq, tol=1e-8)
        diameters = [s.diameter for s in steps]
        assert report.verdict.kind == "constant_limit"
        assert diameters[-1] < 1e-6
        assert report.schwarz_max <= 1e-8
        # compact-target contraction: once inside X, one more step shrinks
        # diameters at least by the subdisk's hyperbolic-vs-euclidean gap
        for a, b in zip(diameters[1:6], diameters[2:7]):
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
    steps, report = run(seq)
    step = steps[0]
    assert np.isnan(step.values).all()
    assert math.isnan(step.diameter) and math.isnan(step.movement)
    assert _engine_results(steps, report)["steps"][0]["lost_points"] == step.values.size
    assert report.verdict.kind == "undecided"


def test_guard_limit_is_the_guard_in_one_comparison():
    # _ORBIT_LIMIT is the largest modulus that 1.0 - |z| >= ORBIT_GUARD
    # keeps, so _guard's one comparison loses exactly the points that
    # expression loses, NaN and inf among them.
    limit = diskdyn.ifs._ORBIT_LIMIT
    assert 1.0 - limit >= ORBIT_GUARD
    assert not 1.0 - np.nextafter(limit, 2.0) >= ORBIT_GUARD
    moduli = [limit]
    for _ in range(4):
        moduli = [np.nextafter(moduli[0], 0.0), *moduli, np.nextafter(moduli[-1], 2.0)]
    rng = np.random.default_rng(5)
    edge = (1.0 - 1e-13 * rng.random(4000)) * np.exp(2j * np.pi * rng.random(4000))
    special = [0j, complex(-0.0, -0.0), complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, 0.0),
               complex(0.0, -math.inf), complex(-math.inf, math.nan), 1.0 + 0j, 2.0 + 0j]
    moduli = np.array(moduli, dtype=complex)
    lost = []
    for block in (moduli, -moduli, 1j * moduli, np.array(special), edge, 0.99 * edge, np.concatenate((edge, moduli))):
        old = ~(1.0 - np.abs(block) >= ORBIT_GUARD)
        lost.append(int(old.sum()))
        got = diskdyn.ifs._guard(block)
        assert (np.isnan(got) == old).all()
        assert (got[~old] == block[~old]).all()
    assert lost[:4] == [4, 4, 4, 7] and 0 < lost[4] < edge.size and lost[5] == 0


def _killed_at_step_three():
    seq = random_system(EuclideanSubdisk(0j, 0.3), seed=4, count=6)
    seq[2] = MapDescriptor((Affine(0.0, 1.0),))
    return seq


def test_run_lost_tail_stays_undecided():
    # Every probe point dies at step 3, so only steps 1 and 2 have a
    # diameter; their minimum is no floor for the composites that follow.
    # The maps applied to the lost points must not warn either.
    steps, report = run(_killed_at_step_three())
    assert math.isfinite(steps[1].diameter)
    assert all(math.isnan(s.diameter) for s in steps[2:])
    assert report.verdict.kind == "undecided"
    assert report.verdict.diameter_floor is None


class _Cut:
    """z -> z / 2, except that points with real part above `edge` land on
    the circle at 1, as a boundary-grazing map's images would: a
    holomorphic contraction on the points it keeps."""

    def __init__(self, edge):
        self.edge = edge

    def __call__(self, z):
        return np.where(np.real(z) > self.edge, 1.0 + 0j, 0.5 * z)


def _partly_lost():
    # Maps 3 and 6 cut the images of the maps inside them, which straddle
    # their edges, so each step from 3 on loses some points but not all.
    seq = random_system(EuclideanSubdisk(0.2, 0.4), seed=6, count=8)
    seq[2] = MapDescriptor((_Cut(0.3),))
    seq[5] = MapDescriptor((_Cut(0.35),))
    return seq


def _lost_by(seq, n, z):
    """The map that loses z in F_n, by scalar evaluation (0 if none)."""
    for k in range(n, 0, -1):
        z = complex(seq[k - 1](z))
        if 1.0 - abs(z) < ORBIT_GUARD:
            return k
    return 0


def test_run_partial_losses_measure_live_points():
    seq = _partly_lost()
    probe = ProbeSpec(rings=3, spokes=5)
    pts = probe.points()
    steps, report = run(seq, probe=probe)
    results = _engine_results(steps, report)
    lost_counts = [int(np.isnan(s.values).sum()) for s in steps]
    assert lost_counts[:2] == [0, 0]
    assert all(0 < c < pts.size for c in lost_counts[2:])
    prev = pts
    for s, out in zip(steps, results["steps"]):
        lost = np.isnan(s.values)
        assert lost.tolist() == [_lost_by(seq, s.n, z) > 0 for z in pts], s.n
        assert out["lost_points"] == lost.sum(), s.n
        live = np.flatnonzero(~lost)
        pairs = [(i, j) for i in live for j in live]
        diameter = max(rho(s.values[i], s.values[j]) for i, j in pairs)
        slack = max(rho(s.values[i], s.values[j]) - rho(pts[i], pts[j]) for i, j in pairs)
        movement = max(rho(s.values[i], prev[i]) for i in live if np.isfinite(prev[i]))
        assert s.diameter == diameter, s.n
        assert abs(s.schwarz_slack - slack) <= 1e-12, s.n
        assert s.movement == movement, s.n
        prev = s.values
    assert report.schwarz_max == max(s.schwarz_slack for s in steps)


def test_pair_pass_matches_full_matrix():
    # The default 577-point probe spans several row blocks of the pair pass,
    # and from step 3 on some points are lost, so the blocks hold NaN pairs.
    # Diameter and slack must be those of the full live matrix, bit for bit.
    pts = ProbeSpec().points()
    base = sinh2_rho(pts[:, None], pts[None, :])
    steps, _ = run(_partly_lost())
    lost_counts = [int(np.isnan(s.values).sum()) for s in steps]
    assert lost_counts[:2] == [0, 0] and all(0 < c < pts.size - 1 for c in lost_counts[2:])
    for s in steps:
        valid = ~np.isnan(s.values)
        live = s.values[valid]
        q = sinh2_rho(live[:, None], live[None, :])
        q_base = base[np.ix_(valid, valid)]
        grown = q > q_base
        slack = np.max(np.arcsinh(np.sqrt(q[grown])) - np.arcsinh(np.sqrt(q_base[grown])), initial=0.0)
        assert s.diameter == rho_of(np.max(q)), s.n
        assert s.schwarz_slack == slack, s.n


def test_pair_pass_matches_full_matrix_on_a_random_probe():
    # A probe of 400 random points, so no symmetry of a grid can hide a
    # block compared with the wrong probe pairs.  Rows with 300 live points
    # (NaN at the other 100) and with all 400 span several row blocks.
    # Random images grow some pairs, so the slack is positive; the probe
    # points themselves grow none, so a misaligned block shows as growth.
    rng = np.random.default_rng(11)

    def points(n):
        return 0.95 * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))

    pts = points(400)
    base = sinh2_rho(pts[:, None], pts[None, :])
    idx = np.sort(rng.choice(pts.size, 300, replace=False))

    def row(live):
        out = np.full(pts.size, np.nan + 0j)
        out[idx] = live
        return out

    for values, grows in (
        (row(points(300)), True),
        (points(400), True),
        (row(pts[idx]), False),
        (pts, False),
    ):
        sel = np.flatnonzero(~np.isnan(values))
        live = values[sel]
        q = sinh2_rho(live[:, None], live[None, :])
        q_base = base[np.ix_(sel, sel)]
        grown = q > q_base
        slack = np.max(np.arcsinh(np.sqrt(q[grown])) - np.arcsinh(np.sqrt(q_base[grown])), initial=0.0)
        assert (slack > 0.0) == grows
        assert _pair_pass(_coords(values), base) == (np.max(q), slack)


def _bits(x):
    return float(x).hex()


def _full_pass(values, pts):
    # The reference: every pair of live points, as one matrix.
    sel = np.flatnonzero(~np.isnan(values))
    q = sinh2_rho(values[sel][:, None], values[sel][None, :])
    q_base = sinh2_rho(pts[sel][:, None], pts[sel][None, :])
    grown = q > q_base
    slack = np.max(np.arcsinh(np.sqrt(q[grown])) - np.arcsinh(np.sqrt(q_base[grown])), initial=0.0)
    return np.fmax.reduce(q, axis=None, initial=0.0), slack


_NEAR_CIRCLE = 1.0 - 1e-14


@st.composite
def _probe_rows(draw):
    # A random probe of several tiles, with duplicate points and points
    # 1e-14 from the circle, and rows of images: nearly collapsed, contracted,
    # random (so some pairs grow), or zeros of both signs, some with points
    # 1e-14 from the circle, lost points of either NaN form and a lost tile.
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def disk(n, radius):
        return radius * np.sqrt(rng.random(n)) * np.exp(2j * np.pi * rng.random(n))

    P = draw(st.integers(200, 700))
    pts = disk(P, 0.9)
    pick = rng.choice(P, 12, replace=False)
    pts[pick[:4]] = pts[pick[4:8]]
    pts[pick[8:]] = _NEAR_CIRCLE * np.exp(2j * np.pi * rng.random(4))
    tiles = _probe_tiles(pts)[0]
    rows, kinds = [], draw(st.lists(st.sampled_from(["collapse", "contract", "random", "zeros"]), min_size=1, max_size=3))
    for kind in kinds:
        if kind == "collapse":
            spread = 10.0 ** draw(st.floats(-16.0, -6.0))
            row = disk(1, 0.8) + spread * disk(P, 1.0)
        elif kind == "contract":
            row = disk(1, 0.5) + 10.0 ** draw(st.floats(-8.0, -0.5)) * np.exp(2j * np.pi * rng.random()) * pts
        elif kind == "random":
            row = disk(P, 0.99)
        else:
            signs = np.array([0j, complex(-0.0, -0.0), complex(0.0, -0.0), complex(-0.0, 0.0)])
            row = signs[rng.integers(0, 4, P)]
            row[rng.choice(P, draw(st.integers(0, 3)), replace=False)] = disk(1, 0.5)
        if draw(st.booleans()):
            row[rng.choice(P, 3, replace=False)] = _NEAR_CIRCLE * np.exp(2j * np.pi * rng.random(3))
        if draw(st.booleans()):
            row[tiles[rng.integers(len(tiles))]] = np.nan + 0j
            row[rng.choice(P, P // 10, replace=False)] = np.nan + 0j
            row[rng.choice(P, 5, replace=False)] = complex(0.3, np.nan)
        rows.append(row)
    return pts, np.array(rows), kinds


@settings(max_examples=60)
@given(_probe_rows())
def test_pruned_pair_pass_matches_full_matrix_bit_for_bit(case):
    pts, rows, kinds = case
    tiles, base, floors = _probe_tiles(pts)
    assert len(tiles) > 1
    q_max, slack = _pair_pass(_coords(rows), base, tiles, floors)
    for values, kind, q, x in zip(rows, kinds, q_max, slack):
        want = _full_pass(values, pts)
        assert (_bits(q), _bits(x)) == tuple(map(_bits, want)), kind
        if kind == "random":
            assert want[1] > 0.0
    # The pass reads only the tile pairs s <= t: floors poisoned below the
    # diagonal select every pair there, and change no bit.
    poisoned = floors.copy()
    poisoned[np.tril_indices(len(tiles), -1)] = -np.inf
    again = _pair_pass(_coords(rows), base, tiles, poisoned)
    assert list(map(_bits, np.concatenate(again))) == list(map(_bits, np.concatenate((q_max, slack))))


def test_run_raises_on_schwarz_pick_violation():
    # The inverse radial stretch is no holomorphic map: it pulls pairs apart,
    # and the engine must refuse the step that shows it.
    stretch = RadialStretch(2.0).inverse_apply
    with pytest.raises(NumericError, match=r"at step 1: slack 0\.69"):
        run([stretch] * 3)


def test_run_raises_on_schwarz_pick_violation_with_lost_points():
    # The cut loses the probe points with real part above 0.3 at step 1; the
    # slack is that of the live pairs alone, the NaN pairs take no part.
    cut = _Cut(0.3)

    def f(z):
        return RadialStretch(2.0).inverse_apply(cut(z))

    pts = ProbeSpec().points()
    lost = np.isnan(_evaluate_grid([f], pts))
    assert 0 < lost.sum() < pts.size - 1
    with pytest.raises(NumericError, match=r"at step 1: slack 0\.25986273819109584$"):
        run([f] * 3)


# Pairs of the default 577-point probe: the origin against the outer ring,
# opposite spokes of the outer ring, and pairs across rings.
_PROBE_PAIRS = ((0, 553), (0, 570), (553, 565), (559, 571), (556, 568), (100, 400), (300, 560), (12, 576))


def _rho_50_digits(z, w):
    with mpmath.workdps(50):
        a, b = mpmath.mpc(z), mpmath.mpc(w)
        return mpmath.atanh(abs(a - b) / abs(1 - mpmath.conj(b) * a))


@pytest.mark.parametrize("domain, seed", [("disk(0.1,-0.05,0.35)", 3), ("horodisk(2.2,0.5)", 11)])
def test_run_diameters_match_50_digit_oracle(domain, seed):
    # Each step's diameter is the distance of its extreme pair to 1e-13
    # relative, and no probe pair lies farther apart.
    steps, _ = run(random_system(parse_domain(domain), seed, 6))
    assert len(steps) == 6 and all(not np.isnan(s.values).any() for s in steps)
    for s in steps:
        v = s.values
        i, j = np.unravel_index(np.argmax(sinh2_rho(v[:, None], v[None, :])), (v.size, v.size))
        exact = _rho_50_digits(v[i], v[j])
        assert abs(s.diameter - exact) <= 1e-13 * exact, s.n
        for a, b in _PROBE_PAIRS:
            assert _rho_50_digits(v[a], v[b]) <= s.diameter * (1 + 1e-13), (s.n, a, b)


def test_trace_csv_bytes_match_csv_writer(tmp_path):
    # Every probe point is lost at step 3, so the trace holds NaN values and
    # NaN diameters and the grid NaN images, which no golden case has.  The
    # files must be what csv.writer writes for the rows as tuples.
    seq = _killed_at_step_three()
    steps, _ = run(seq, probe=ProbeSpec(rings=3, spokes=5))
    paths = emit_outputs(tmp_path, {}, _trace_lines(steps), seq)
    trace = io.StringIO()
    writer = csv.writer(trace, lineterminator="\n")
    writer.writerow(["n", "probe_index", "re", "im", "diameter"])
    writer.writerows(
        (s.n, i, float(z.real), float(z.imag), float(s.diameter))
        for s in steps
        for i, z in enumerate(s.values)
    )
    # The polar grid of 12 rings and 24 spokes out to rho 1.2.
    rings = range(1, _GRID_RINGS + 1)
    src = np.concatenate([ring_points(1.2 * r / _GRID_RINGS, 24) for r in rings])
    img = _evaluate_grid(seq, src)
    grid = io.StringIO()
    writer = csv.writer(grid, lineterminator="\n")
    writer.writerow(["ring", "spoke", "src_re", "src_im", "img_re", "img_im"])
    writer.writerows(
        (r, k, float(z.real), float(z.imag), float(w.real), float(w.imag))
        for (r, k), z, w in zip(((r, k) for r in rings for k in range(24)), src, img)
    )
    assert ",nan,0.0,nan\n" in trace.getvalue() and ",nan,0.0\n" in grid.getvalue()
    assert paths["trace"].read_bytes() == trace.getvalue().encode()
    assert paths["grid"].read_bytes() == grid.getvalue().encode()


def _collapsing_run(probe=None):
    # Steps 26 to 40 of this constant-limit run have collapsed to one point.
    return run(random_system(parse_domain("disk(0,0,0.3)"), 1, 40), probe=probe)[0]


def _csv_writer_trace(steps):
    # trace.csv as csv.writer writes its rows as tuples.
    trace = io.StringIO()
    writer = csv.writer(trace, lineterminator="\n")
    writer.writerow(["n", "probe_index", "re", "im", "diameter"])
    writer.writerows(
        (s.n, i, float(z.real), float(z.imag), float(s.diameter))
        for s in steps
        for i, z in enumerate(s.values)
    )
    return trace.getvalue()


def test_trace_csv_bytes_match_csv_writer_across_blocks(tmp_path):
    # 40 steps of 577 points are 14 blocks of whole steps, and the collapsed
    # steps repeat one value and one diameter.  A step of 2,161 points is
    # longer than a block, so each is a block of its own; a one-point probe
    # puts all 40 steps in one block, each step one row with no diameter.
    assert 577 * 2 < _FORMAT_BLOCK < 2161
    for probe, blocks, diameter in (
        (None, 14, "0.0"),
        (ProbeSpec(rings=90, spokes=24), 40, "0.0"),
        (ProbeSpec(rings=0, spokes=0), 1, "nan"),
    ):
        steps = _collapsing_run(probe)
        assert len(list(_trace_lines(steps))) == blocks
        paths = emit_outputs(tmp_path / str(blocks), {}, _trace_lines(steps))
        trace = _csv_writer_trace(steps)
        assert trace.endswith(f",{diameter}\n")
        assert paths["trace"].read_bytes() == trace.encode()


def test_trace_lines_format_one_block_at_a_time(monkeypatch):
    # The first next() gives the whole first block and formats that block's
    # doubles and no more, so a trace never holds the strings of the whole
    # run at once.
    steps = _collapsing_run()
    sizes = []

    def counting(a):
        sizes.append(a.size)
        return reprs(a)

    reprs = diskdyn.cli._reprs
    monkeypatch.setattr(diskdyn.cli, "_reprs", counting)
    lines = _trace_lines(steps)
    per = _FORMAT_BLOCK // 577
    assert next(lines) == _csv_writer_trace(steps[:per]).partition("\n")[2]
    assert sorted(sizes) == [per, per * 577, per * 577]
    assert len(list(lines)) == -(-40 // per) - 1
    assert sum(sizes) == 40 + 2 * 40 * 577


def _kernel_sizes(monkeypatch):
    # The size of every output of the distance kernel as the engine calls it.
    sizes = []

    def counting(p, q):
        out = sinh2(p, q)
        sizes.append(np.size(out))
        return out

    sinh2 = diskdyn.ifs._sinh2
    monkeypatch.setattr(diskdyn.ifs, "_sinh2", counting)
    return sizes


def test_collapsed_rows_evaluate_no_pair_and_read_the_pass_numbers(monkeypatch):
    # Every step records the numbers of the pass over the probe as one
    # tile; a collapsed step records 0.0 for both, and on such steps the
    # tiled pass of the run evaluates no pair: the kernel only bounds the
    # tile pairs and pairs the tiles' first points, T x T numbers a row.
    steps = _collapsing_run()
    pts = ProbeSpec().points()
    base = sinh2_rho(pts[:, None], pts[None, :])
    collapsed = [s for s in steps if np.unique(s.values).size == 1]
    assert 0 < len(collapsed) < len(steps)
    for s in steps:
        q_max, slack = _pair_pass(_coords(s.values), base)
        assert (_bits(s.diameter), _bits(s.schwarz_slack)) == (_bits(rho_of(q_max)), _bits(slack)), s.n
    assert {(_bits(s.diameter), _bits(s.schwarz_slack)) for s in collapsed} == {(_bits(0.0), _bits(0.0))}
    tiles, tiled_base, floors = _probe_tiles(pts)
    T = len(tiles)
    sizes = _kernel_sizes(monkeypatch)
    rows = np.array([s.values for s in collapsed])
    q_max, slack = _pair_pass(_coords(rows), tiled_base, tiles, floors)
    assert {(_bits(q), _bits(x)) for q, x in zip(q_max, slack)} == {(_bits(0.0), _bits(0.0))}
    assert sum(sizes) == 2 * len(collapsed) * T * T
    sizes.clear()
    _pair_pass(_coords(steps[0].values), tiled_base, tiles, floors)
    assert sum(sizes) > 2 * T * T


class _Collapse:
    """z -> `value`, except that points with real part above `edge` land on
    the circle at 1 and are lost."""

    def __init__(self, value, edge):
        self.value, self.edge = value, edge

    def __call__(self, z):
        return np.where(np.real(z) > self.edge, 1.0 + 0j, self.value)


class _SignedZero:
    """z -> 0, as +0.0 + 0.0j on the right half-plane and -0.0 - 0.0j elsewhere."""

    def __call__(self, z):
        return np.where(np.real(z) > 0.0, 0j, complex(-0.0, -0.0))


@pytest.mark.parametrize("piece", [_Collapse(0.2 + 0.1j, edge=0.3), _SignedZero()], ids=["lost", "signed_zero"])
def test_collapsed_row_reads_the_pair_pass_numbers(piece, monkeypatch):
    # A row whose live values are one point, with lost points around it or
    # with zeros of both signs, records a diameter and a slack of 0.0 as
    # the pass does, and evaluates no pair: the probe is one tile, so the
    # pass's kernel outputs are its one tile pair's bound and lower bound,
    # and the step's movement is over the P probe points.
    seq = [MapDescriptor((piece,))]
    probe = ProbeSpec(rings=3, spokes=8)
    vals = _evaluate_grid(seq, probe.points())
    live = vals[~np.isnan(vals)]
    assert live.size >= 2 and (live == live[0]).all()
    assert len({(_bits(z.real), _bits(z.imag)) for z in live}) == (2 if isinstance(piece, _SignedZero) else 1)
    assert np.isnan(vals).any() == isinstance(piece, _Collapse)
    base = sinh2_rho(probe.points()[:, None], probe.points()[None, :])
    assert tuple(map(_bits, _pair_pass(_coords(vals), base))) == (_bits(0.0), _bits(0.0))
    sizes = _kernel_sizes(monkeypatch)
    (step,), _ = run(seq, probe=probe)
    assert (_bits(step.diameter), _bits(step.schwarz_slack)) == (_bits(0.0), _bits(0.0))
    # Besides those, the set-up's one tile pair of the probe with itself.
    assert sorted(sizes) == [1, 1, vals.size, vals.size**2]


def _signed_zero_rows():
    # Both rows hold +0 and -0, which compare equal: neither is one point.
    return [MapDescriptor((_SignedZero(),)), MapDescriptor((Affine(0.5, 0.1),))]


def _collapsed_above_live():
    # Rows 3 and 4 are one point, row 2 is not (map 2 pushes some points
    # past the edge of map 1, which loses them), and row 1 is one point.
    return [
        MapDescriptor((_Collapse(0.2 + 0.1j, edge=0.9),)),
        MapDescriptor((MobiusAut(-0.6),)),
        MapDescriptor((Affine(0.0, 0.1),)),
        MapDescriptor((Affine(0.5, 0.0),)),
    ]


_DEEP_DISK = random_system(EuclideanSubdisk(0.1 + 0.2j, 0.3), seed=5, count=120)
_DEEP_HORODISK = random_system(Horodisk(cmath.exp(1.1j), 0.5), seed=7, count=120)


@pytest.mark.parametrize(
    "seq, probe",
    [
        (random_system(EuclideanSubdisk(0.1 - 0.05j, 0.35), seed=3, count=20), ProbeSpec()),
        (random_system(Horodisk(cmath.exp(2.2j), 0.5), seed=11, count=20), ProbeSpec()),
        ([MapDescriptor((Affine(0.0, 1.0),))], ProbeSpec()),
        (_killed_at_step_three(), ProbeSpec(rings=3, spokes=5)),
        (_partly_lost(), ProbeSpec(rings=3, spokes=5)),
        (random_system(Horodisk(cmath.exp(0.4j), 0.6), seed=2, count=3), ProbeSpec(rings=64, spokes=130)),
        (_DEEP_DISK, ProbeSpec(rings=4, spokes=8)),
        (_DEEP_HORODISK, ProbeSpec(rings=4, spokes=8)),
        (_signed_zero_rows(), ProbeSpec(rings=3, spokes=8)),
        (_collapsed_above_live(), ProbeSpec(rings=3, spokes=5)),
    ],
    ids=[
        "disk", "horodisk", "guard", "guard_inner", "partial", "one_row_blocks",
        "deep_disk", "deep_horodisk", "signed_zero", "collapsed_above_live",
    ],
)
def test_prefix_sweep_matches_per_row_evaluation(seq, probe):
    # Row n of the sweep is F_n evaluated on its own, bit for bit (as int64,
    # so signed zeros count and lost points are the guard's one NaN); the
    # 577-point rows split into blocks of 14, and the 8321-point rows are
    # one block each.  Most rows of the deep systems collapse to one point,
    # which the sweep carries alone; rows of zeros of both signs are not
    # one point.
    pts = probe.points()
    rows = _evaluate_prefixes(seq, pts)
    assert rows.shape == (len(seq), pts.size)
    for n in range(1, len(seq) + 1):
        assert np.array_equal(rows[n - 1].view(np.int64), _evaluate_grid(seq[:n], pts).view(np.int64)), n


def _guarded_sizes(monkeypatch):
    # The number of points of every map call of the sweep.
    sizes = []

    def counting(vals):
        sizes.append(np.size(vals))
        return guard(vals)

    guard = diskdyn.ifs._guard
    monkeypatch.setattr(diskdyn.ifs, "_guard", counting)
    return sizes


def test_prefix_sweep_carries_collapsed_rows_as_one_point(monkeypatch):
    # An ifs_deep-shaped run: a disk target, N = 300 and a 4 x 8 probe.
    # Rows collapse within a few dozen maps, so the sweep evaluates well
    # under the N (N + 1) / 2 points per probe point of a full triangle.
    seq = random_system(EuclideanSubdisk(-0.2 + 0.1j, 0.4), seed=3, count=300)
    pts = ProbeSpec(rings=4, spokes=8).points()
    sizes = _guarded_sizes(monkeypatch)
    _evaluate_prefixes(seq, pts)
    assert sum(sizes) < 0.5 * 300 * 301 / 2 * pts.size


def test_prefix_sweep_tail_calls_stay_blocked(monkeypatch):
    # The collapsed rows go in calls of at most _SWEEP_BLOCK points as
    # well (their tail fills whole calls of 64; a row of 33 is one call),
    # and keep their bits.
    monkeypatch.setattr(diskdyn.ifs, "_SWEEP_BLOCK", 64)
    pts = ProbeSpec(rings=4, spokes=8).points()
    sizes = _guarded_sizes(monkeypatch)
    rows = _evaluate_prefixes(_DEEP_DISK, pts)
    assert max(sizes) == 64
    monkeypatch.undo()
    for n in range(1, len(_DEEP_DISK) + 1):
        assert np.array_equal(rows[n - 1].view(np.int64), _evaluate_grid(_DEEP_DISK[:n], pts).view(np.int64)), n


def test_run_step_count_bounds():
    # A run needs a map; its prefixes are slices, run(seq[:n]).
    with pytest.raises(PreconditionError):
        run([])


@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan])
def test_run_and_denjoy_wolff_reject_a_tol_not_above_zero(tol):
    # A tolerance of 0 or less decides nothing: no diameter is below it,
    # and no orbit step is shorter.
    with pytest.raises(PreconditionError, match="tol"):
        run(random_system(EuclideanSubdisk(0j, 0.3), seed=1, count=3), tol=tol)
    with pytest.raises(PreconditionError, match="tol"):
        denjoy_wolff(MapDescriptor((Affine(0.5, 0.2),)), 0.1, tol=tol)


def _union_find_linkage(values, threshold):
    # The union-find that grouped orbit points before label propagation.
    parent = list(range(len(values)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(values)):
        for j in range(i + 1, len(values)):
            if rho(values[i], values[j]) < threshold:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i in range(len(values)):
        groups.setdefault(find(i), []).append(i)
    return [groups[k] for k in sorted(groups)]


@st.composite
def _clumped_points(draw):
    # Up to 12 points around at most four centers, spread over a few
    # thresholds, so that chains of near pairs form and break.
    threshold = draw(st.one_of(st.sampled_from([0.0, -1e-8]), st.floats(1e-8, 1.0)))
    scale = min(max(threshold, 1e-8), 0.2)
    coord = st.floats(-0.35, 0.35)
    centers = draw(st.lists(st.builds(complex, coord, coord), min_size=1, max_size=4))
    unit = st.floats(-1.0, 1.0)
    picks = draw(st.lists(st.tuples(st.sampled_from(centers), unit, unit), max_size=12))
    return [c + scale * complex(x, y) for c, x, y in picks], threshold


@given(_clumped_points())
def test_single_linkage_matches_union_find(case):
    values, threshold = case
    assert _single_linkage(values, threshold) == _union_find_linkage(values, threshold)


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
    # A tol no step can meet: the orbit guard inside the loop stops it.
    limit, where, orbit = denjoy_wolff(f, 0.0, tol=1e-300)
    assert (limit, where, len(orbit)) == (1.0 + 0j, "boundary", 47)
    assert 1.0 - abs(orbit[-1]) < ORBIT_GUARD <= 1.0 - abs(orbit[-2])


def test_denjoy_wolff_non_finite_orbit_is_numeric_error():
    # Not a boundary limit of NaN: the orbit left the numeric range.
    f = MapDescriptor((Affine(0.5, 0.2), lambda z: complex(math.nan, 0.0)))
    with pytest.raises(NumericError, match="numeric range"):
        denjoy_wolff(f, 0.1)


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


@pytest.mark.parametrize(
    "chain",
    [
        (MobiusAut(0.3 + 0.1j, 0.4), MobiusAut(0.3 + 0.1j, 0.4).inverse()),
        (MobiusAut.rotation(1.0), MobiusAut.rotation(0.7)),
        (Affine(-1.0, 0), MobiusAut(0.2j, 0.5)),
    ],
    ids=["inverse_pair", "rotations", "affine_rotation"],
)
def test_denjoy_wolff_rejects_automorphism_chains(chain):
    # every piece an automorphism: the chain is one, whatever it composes to
    with pytest.raises(PreconditionError):
        denjoy_wolff(MapDescriptor(chain), 0.2j)


def test_denjoy_wolff_accepts_an_automorphism_into_a_domain():
    # The chain is one automorphism, but the map lands in X: not an
    # automorphism of the disk, so it has a limit.
    X = EuclideanSubdisk(0j, 0.3)
    f = MapDescriptor((MobiusAut(0.3 + 0.1j, 1.0),), target=X)
    limit, where, _orbit = denjoy_wolff(f, 0.5)
    assert where == "interior"
    assert limit == (0.0004916859716377936 - 0.10821951601984825j)


@pytest.mark.parametrize("n_steps", [0, -3])
def test_denjoy_wolff_needs_a_step(n_steps):
    with pytest.raises(PreconditionError, match="at least one step"):
        denjoy_wolff(MapDescriptor((Affine(0.5, 0.2),)), 0.1, n_steps=n_steps)


def test_denjoy_wolff_undecided_is_numeric_error():
    # a contraction this slow does not settle in 200 steps
    f = MapDescriptor((Affine(0.999999, 0),))
    with pytest.raises(NumericError):
        denjoy_wolff(f, 0.5, n_steps=200)
