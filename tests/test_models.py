import numpy as np
import pytest

from qcfeff import charts as ch
from qcfeff import models as mo
from qcfeff.jets import jet_variables
from tests_support import metric_at, signature_at


def test_quadric_fields_lightlike_orthogonal(quadric1):
    chart, k1, k2, k3 = quadric1
    for pt in chart.sample_points(10, seed=1):
        g = metric_at(chart, pt)
        for k in (k1, k2, k3):
            v = k.values(pt)
            assert abs(float(v @ g @ v)) < 1e-10
        assert abs(float(k1.values(pt) @ g @ k2.values(pt))) < 1e-10
        assert abs(float(k1.values(pt) @ g @ k3.values(pt))) < 1e-10


def test_quadric_fields_killing(quadric1):
    chart, k1, k2, k3 = quadric1
    for pt in chart.sample_points(3, seed=2):
        for td in ch._tractors_at(chart, (k1, k2, k3), pt):
            assert td.killing_residual < 1e-9
            assert abs(td.lam) < 1e-12


def test_quadric_conformally_flat(quadric1):
    chart, _, _, _ = quadric1
    for pt in chart.sample_points(3, seed=3):
        c = ch.CurvatureData(chart, pt)
        assert np.max(np.abs(c.weyl)) < 1e-8
        assert np.max(np.abs(c.cotton)) < 1e-8


def test_quadric_parallel_tractor(quadric1):
    chart, k1, _, _ = quadric1
    rng = np.random.default_rng(4)
    for pt in chart.sample_points(3, seed=4):
        curv = ch.CurvatureData(chart, pt)
        td = ch.TractorData(curv, k1)
        for _ in range(3):
            v = rng.uniform(-1, 1, chart.dim)
            assert td.tractor_residual(v) < 1e-8
        assert ch.second_derivative_identity_residual(td) < 1e-7


def test_quadric_sparling_package(quadric1):
    chart, k1, k2, k3 = quadric1
    pts = chart.sample_points(6, seed=5)
    rep = ch.sparling_invariants(chart, k1, k2, pts)
    assert abs(rep["chi"]["mean"]) < 1e-9 and rep["chi"]["stddev"] < 1e-9
    for b in ("beta1", "beta2", "beta3"):
        assert rep[b]["mean"] < 0
        assert rep[b]["stddev"] < 1e-7
    assert rep["beta_product_residual"] < 1e-8
    model_vals = [k3.values(p) for p in pts]
    num = sum(float(a @ b) for a, b in zip(rep["k3_values"], model_vals))
    den = sum(float(b @ b) for b in model_vals)
    scale = num / den
    for a, b in zip(rep["k3_values"], model_vals):
        assert np.max(np.abs(a - scale * b)) < 1e-8


def test_quadric_insertions_vanish(quadric1):
    chart, k1, _, _ = quadric1
    pt = chart.sample_points(1, 6)[0]
    rep = ch.trace_contractions(*ch._tractors_at(chart, (k1,), pt))
    assert rep["weyl_trace"] < 1e-10
    assert rep["cotton_trace"] < 1e-10
    assert rep["k_into_weyl"] < 1e-8
    assert rep["k_into_cotton"] < 1e-8
    assert abs(rep["alpha"]) < 1e-12


def test_quadric_felipe_and_negative_control(quadric1):
    chart, k1, k2, _ = quadric1
    pts = chart.sample_points(3, seed=7)
    rep = ch.sparling_invariants(chart, k1, k2, pts)
    beta = rep["beta1"]["mean"]
    fel = ch.felipe_conditions(chart, k1, pts, beta)
    assert fel["pass"]
    # skipping the normalization leaves gamma(k) + alpha^2 = beta != -1
    pt = pts[0]
    curv = ch.CurvatureData(chart, pt)
    td = ch.TractorData(curv, k1.scaled(2.0))
    val = float(np.dot(td.gamma1, td.k)) + td.alpha ** 2
    assert val == pytest.approx(4.0 * beta, abs=1e-8)
    assert abs(val + 1.0) > 0.1


def test_sparling_precondition_errors(quadric1):
    chart, k1, _, _ = quadric1
    pts = chart.sample_points(2, seed=8)
    bad = ch.VectorFieldOnChart("bad", chart.dim, lambda xs: [1.0] + [0.0] * (chart.dim - 1))
    with pytest.raises(ch.ChartError):
        ch.sparling_invariants(chart, k1, bad, pts)


def test_heisenberg_axioms(heisenberg1):
    rep = heisenberg1.structure_report(heisenberg1.sample_points(50, seed=1))
    assert rep["reeb_pairing"] < 1e-12
    assert rep["compatibility"] < 1e-12
    assert rep["quaternion_relations"] < 1e-12


def test_heisenberg_levi_bracket(heisenberg1):
    """Commutators of horizontal lifts land in the Reeb span with the
    Heisenberg coefficients read off the contact structure."""
    qc = heisenberg1
    n = qc.n
    pt = qc.sample_points(1, seed=2)[0]
    # numerical Lie bracket of frame fields via their linear x-dependence:
    # e_(a,mu) = d/dx + sum_s (c[s+1,mu,:] . x_a) d/dt_s, so
    # [e_i, e_j]^t_s = d_i(coef_j) - d_j(coef_i), constant in x.
    for a in range(n):
        for mu in range(4):
            for nu in range(4):
                i = 4 * a + mu
                j = 4 * a + nu
                lie_t = qc.cmat[1:, nu, mu] - qc.cmat[1:, mu, nu]
                de = np.array([qc.deta(s)[i, j] for s in range(3)])
                assert np.allclose(lie_t, -de, atol=1e-14)


def test_heisenberg_structure_matches_levi(heisenberg1):
    """2 g(I_s u, v) = d eta^s(u, v) on the horizontal block."""
    qc = heisenberg1
    for s in range(3):
        i_s = qc.complex_structure(s + 1)
        de = qc.deta(s)
        assert np.max(np.abs(2.0 * i_s.T - de.T)) < 1e-14


def test_fefferman_signature_and_flatness(heisenberg1):
    fm = mo.fefferman_metric(heisenberg1)
    for pt in fm.sample_points(5, seed=3):
        assert signature_at(fm, pt) == (7, 3)
    for pt in fm.sample_points(2, seed=4):
        c = ch.CurvatureData(fm, pt)
        assert np.max(np.abs(c.weyl)) < 1e-6
        assert np.max(np.abs(c.cotton)) < 1e-6


def test_fefferman_rotated_candidate_not_flat(heisenberg1):
    fm = mo.fefferman_metric(heisenberg1, rotate_eta=True)
    pt = fm.sample_points(1, seed=5)[0]
    c = ch.CurvatureData(fm, pt)
    assert np.max(np.abs(c.weyl)) > 1e-2


def test_scal_correction_collapses(heisenberg1):
    fm0 = mo.fefferman_metric(heisenberg1)
    fm1 = mo.fefferman_metric(heisenberg1, scal=0.0)
    pt = fm0.sample_points(1, seed=6)[0]
    assert np.allclose(metric_at(fm0, pt), metric_at(fm1, pt))
    fm2 = mo.fefferman_metric(heisenberg1, scal=3.2)
    assert not np.allclose(metric_at(fm0, pt), metric_at(fm2, pt))


def test_vertical_fields(heisenberg1):
    fm = mo.fefferman_metric(heisenberg1)
    fields = mo.sp1_fundamental_fields(heisenberg1)
    pts = fm.sample_points(3, seed=7)
    for fld in fields:
        for pt in pts:
            g = metric_at(fm, pt)
            v = fld.values(pt)
            # vertical: no base components
            assert np.max(np.abs(v[: heisenberg1.dim])) == 0.0
            assert abs(float(v @ g @ v)) < 1e-12
            assert ch._tractors_at(fm, (fld,), pt)[0].killing_residual < 1e-8


def _sigma_pairing_values(qc, point):
    """sigma^s evaluated on the fundamental fields (expected identity)."""
    base_dim = qc.dim
    sigma = mo._fiber_sigma(jet_variables(point, 1), base_dim)
    out = np.zeros((3, 3))
    for r, fld in enumerate(mo.sp1_fundamental_fields(qc)):
        vals = fld.values(point)
        for s in range(3):
            row = np.array([sigma[s][rr].value for rr in range(3)])
            out[s, r] = float(np.dot(row, vals[base_dim:]))
    return out


def test_sigma_pairing_identity_at_fiber_identity(heisenberg1):
    pt = np.concatenate([heisenberg1.sample_points(1, seed=8)[0], [0.0, 0.0, 0.0]])
    vals = _sigma_pairing_values(heisenberg1, pt)
    assert np.max(np.abs(vals - np.eye(3))) < 1e-12


def test_heisenberg_n2_axioms():
    qc = mo.heisenberg_qc(2)
    rep = qc.structure_report(qc.sample_points(50, seed=1))
    assert max(rep.values()) < 1e-12
