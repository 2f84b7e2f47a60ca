import cmath
import math
import random

import pytest

from diskdyn.bloch import (
    RadialStretch,
    SearchBudget,
    StretchedDomain,
    bloch_radius_search,
    qc_image_experiment,
    witness_disk_verify,
)
from diskdyn.domains import EuclideanSubdisk, Horodisk, MobiusImage, RDenseComplement
from diskdyn.errors import PreconditionError
from diskdyn.hyperbolic import HyperbolicDisk, MobiusAut, rho


def _rand_point(rng, rmax=0.95):
    r = rmax * math.sqrt(rng.random())
    phi = rng.uniform(0.0, 2.0 * math.pi)
    return r * cmath.exp(1j * phi)


def test_radial_stretch_basics():
    S = RadialStretch(2.0)
    rng = random.Random(31)
    assert S.apply(0j) == 0j and S.inverse_apply(0j) == 0j
    for _ in range(200):
        z = _rand_point(rng)
        w = S.apply(z)
        assert abs(w) == pytest.approx(abs(z) ** 2, rel=1e-12)
        assert abs(complex(S.inverse_apply(w)) - z) < 1e-12
    # radial profile in metric units: sigma(r) = atanh(tanh(r)^K)
    for r in (0.3, 1.0, 2.5):
        assert S.radial_distance(r) == pytest.approx(
            math.atanh(math.tanh(r) ** 2), rel=1e-12
        )
        assert S.inverse_radial(S.radial_distance(r)) == pytest.approx(r, rel=1e-10)
    assert not S.holomorphic


def test_radial_stretch_validation():
    with pytest.raises(PreconditionError):
        RadialStretch(0.5)
    assert RadialStretch(1.0).apply(0.3 + 0.1j) == 0.3 + 0.1j


def test_stretched_domain_membership():
    X = Horodisk(1.0, 0.5)
    S = RadialStretch(2.0)
    Y = StretchedDomain(X, S)
    rng = random.Random(32)
    for _ in range(200):
        z = X.riemann_to(_rand_point(rng, 0.9))
        assert Y.contains(S.apply(z))
    assert not Y.contains(S.apply(-0.2 + 0j))


def test_search_subdisk_oracle():
    rep = bloch_radius_search(EuclideanSubdisk(0j, 0.5))
    assert rep.verdict.kind == "bloch_up_to"
    assert rep.best_inradius == pytest.approx(math.atanh(0.5), abs=1e-3)
    # frozen refined value for regression
    assert rep.best_inradius == pytest.approx(0.5493061443340549, abs=1e-9)
    assert rep.witness is None


def test_search_horodisk_witness_at_depth_five():
    budget = SearchBudget(depth=5.0)
    rep = bloch_radius_search(Horodisk(1.0, 0.5), budget)
    assert rep.verdict.kind == "non_bloch_witness"
    assert rep.best_inradius >= 3.0
    assert rep.best_inradius == pytest.approx(5.0, abs=1e-6)
    assert rep.witness is not None
    assert rep.witness.radius >= 3.0


def test_search_monotone_in_depth():
    X = Horodisk(1.0, 0.5)
    vals = [
        bloch_radius_search(X, SearchBudget(depth=d)).best_inradius
        for d in (3.0, 4.0, 5.0)
    ]
    assert vals[0] <= vals[1] + 1e-9 <= vals[2] + 2e-9
    assert vals == pytest.approx([3.0, 4.0, 5.0], abs=1e-6)


def test_search_rdense_stays_bounded():
    rep = bloch_radius_search(RDenseComplement(0.5, 4.0))
    assert rep.verdict.kind == "bloch_up_to"
    assert rep.best_inradius <= 0.55
    assert rep.best_inradius == pytest.approx(0.5, abs=1e-6)


def test_search_rotation_equivariance():
    base = bloch_radius_search(Horodisk(1.0, 0.5))
    rot = bloch_radius_search(Horodisk(cmath.exp(1.1j), 0.5))
    assert rot.best_inradius == pytest.approx(base.best_inradius, abs=1e-9)
    assert rot.verdict.kind == base.verdict.kind


def test_search_mobius_equivariance_within_budget():
    # the candidate region rho(0, .) <= depth is anchored at the origin, so
    # a transport can change the best reachable inradius by at most the
    # displacement of the origin
    X = Horodisk(1.0, 0.5)
    m = MobiusAut(0.2 + 0.1j, 0.4)
    shift = rho(0.0, m(0j))
    base = bloch_radius_search(X)
    moved = bloch_radius_search(MobiusImage(X, m))
    assert moved.verdict.kind == base.verdict.kind
    assert abs(moved.best_inradius - base.best_inradius) <= shift + 1e-6


def test_witness_disk_verify():
    X = Horodisk(1.0, 0.5)
    center = complex(X.deep_point(3.0))
    good = HyperbolicDisk(center, 2.9)
    assert witness_disk_verify(X, good)
    bad = HyperbolicDisk(0j, math.atanh(0.5) + 0.1)
    assert not witness_disk_verify(EuclideanSubdisk(0j, 0.5), bad)


def test_qc_identity_is_exact_reproduction():
    X = Horodisk(1.0, 0.5)
    budget = SearchBudget(depth=4.0)
    a = bloch_radius_search(X, budget)
    b = qc_image_experiment(X, RadialStretch(1.0), budget)
    assert complex(a.best_center) == complex(b.best_center)
    assert a.best_inradius == b.best_inradius
    assert a.verdict == b.verdict


def test_qc_preserves_verdict_class():
    budget = SearchBudget(depth=4.0)
    horo = Horodisk(1.0, 0.5)
    for K in (2.0, 4.0):
        rep = qc_image_experiment(horo, RadialStretch(K), budget)
        assert rep.verdict.kind == "non_bloch_witness"
        assert rep.best_inradius >= 1.0
    net = RDenseComplement(0.5, 4.0)
    rep = qc_image_experiment(net, RadialStretch(2.0), budget)
    assert rep.verdict.kind == "bloch_up_to"
    assert rep.best_inradius <= 0.55


def test_budget_validation():
    with pytest.raises(PreconditionError):
        SearchBudget(depth=-1.0)
    with pytest.raises(PreconditionError):
        SearchBudget(ring_step=0.0)
    with pytest.raises(PreconditionError):
        SearchBudget(witness_samples=10)


def test_search_rejects_exhausted_depth():
    # a single puncture circle covers nothing beyond the mesh itself
    X = RDenseComplement(0.5, 0.5)
    assert X.search_depth_cap() == pytest.approx(0.0)
    with pytest.raises(PreconditionError):
        bloch_radius_search(X)
