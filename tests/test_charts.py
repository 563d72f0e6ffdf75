import numpy as np
import oracle
import pytest

from qcfeff import charts as ch
from tests_support import signature_at


def test_flat_metric_all_curvature_zero():
    for sig in ((4, 0), (3, 1)):
        chart = ch.flat_chart(4, sig)
        c = ch.CurvatureData(chart, [0.3, -0.2, 0.1, 0.5])
        assert np.max(np.abs(c.riem)) == 0.0
        assert np.max(np.abs(c.weyl)) == 0.0
        assert np.max(np.abs(c.cotton)) == 0.0


@pytest.mark.parametrize("m", [4, 5])
def test_round_sphere_curvature(m):
    chart = ch.sphere_chart(m)
    pt = chart.sample_points(1, seed=1)[0]
    c = ch.CurvatureData(chart, pt)
    assert np.max(np.abs(c.ric - (m - 1) * c.g)) < 1e-9
    assert np.max(np.abs(c.P + 0.5 * c.g)) < 1e-9
    assert np.max(np.abs(c.weyl)) < 1e-9
    assert np.max(np.abs(c.cotton)) < 1e-9
    assert c.schouten_residual() < 1e-10


def test_weyl_trace_free_random_metrics():
    for dim in (4, 6):
        for seed in range(5):
            chart = ch.random_polynomial_chart(dim, seed)
            pt = chart.sample_points(1, seed)[0]
            c = ch.CurvatureData(chart, pt)
            assert c.weyl_trace_residual() < 1e-9


def test_weyl_divergence_identity():
    for dim in (4, 6):
        for seed in range(4):
            chart = ch.random_polynomial_chart(dim, seed)
            pt = chart.sample_points(1, seed + 10)[0]
            c = ch.CurvatureData(chart, pt)
            res, fitted = c.weyl_divergence_residual()
            assert res < 1e-6
            assert fitted == pytest.approx(3.0 - dim, abs=1e-8)


def test_conformally_flat_divergence_both_sides_vanish():
    chart = ch.sphere_chart(4)
    pt = chart.sample_points(1, 3)[0]
    c = ch.CurvatureData(chart, pt)
    div = c.weyl_divergence()
    assert np.max(np.abs(div)) < 1e-7
    assert np.max(np.abs(c.cotton)) < 1e-7


def test_weyl_conformal_covariance():
    for dim in (4, 6):
        chart = ch.random_polynomial_chart(dim, 1)
        pt = chart.sample_points(1, 2)[0]
        cf = ch.random_conf_factor(dim, 5)
        assert ch.weyl_conformal_covariance_residual(ch.CurvatureData(chart, pt), cf) < 1e-7


def _frame_independence_residual(chart, point, seed=0):
    """Curvature scalars agree under a random linear change of coordinates."""
    rng = np.random.default_rng(seed)
    m = chart.dim
    A = np.eye(m) + 0.2 * rng.uniform(-1, 1, (m, m))

    def metric(xs):
        ys = [None] * m
        for a in range(m):
            acc = None
            for b in range(m):
                t = xs[b] * float(A[a, b])
                acc = t if acc is None else acc + t
            ys[a] = acc
        rows = chart.metric_fn(ys)
        out = [[None] * m for _ in range(m)]
        for a in range(m):
            for b in range(m):
                acc = None
                for c in range(m):
                    for d in range(m):
                        coef = float(A[c, a] * A[d, b])
                        if coef:
                            t = rows[c][d] * coef
                            acc = t if acc is None else acc + t
                out[a][b] = acc
        return out

    pulled = ch.MetricChart(chart.name + "+lin", m, metric)
    pt2 = np.linalg.solve(A, np.asarray(point, float))
    c1 = ch.CurvatureData(chart, point)
    c2 = ch.CurvatureData(pulled, pt2)
    res = abs(c1.scal - c2.scal) / (1.0 + abs(c1.scal))

    def weyl_norm2(c):
        up = np.einsum(
            "xa,yb,zc,td,abcd->xyzt", c.ginv, c.ginv, c.ginv, c.ginv, c.weyl
        )
        return float(np.einsum("xyzt,xyzt->", up, c.weyl))

    w1, w2 = weyl_norm2(c1), weyl_norm2(c2)
    return max(res, abs(w1 - w2) / (1.0 + abs(w1)))


def test_frame_independence():
    chart = ch.random_polynomial_chart(4, 2)
    pt = chart.sample_points(1, 0)[0]
    for seed in range(3):
        assert _frame_independence_residual(chart, pt, seed) < 1e-9


def test_degenerate_metric_raises():
    def metric(xs):
        return [[0.0 for _ in range(3)] for _ in range(3)]

    chart = ch.MetricChart("degenerate", 3, metric)
    with pytest.raises(ch.ChartError):
        ch.CurvatureData(chart, [0.0, 0.0, 0.0])


def test_killing_rotation_field():
    chart = ch.flat_chart(3)
    rot = ch.VectorFieldOnChart(
        "rotation", 3, lambda xs: [-xs[1], xs[0], 0.0]
    )
    (td,) = ch._tractors_at(chart, (rot,), [0.4, -0.2, 0.3])
    assert td.killing_residual < 1e-14
    assert td.lam == pytest.approx(0.0, abs=1e-14)


def test_dilation_field_conformal_factor():
    chart = ch.flat_chart(3)
    dil = ch.VectorFieldOnChart("dilation", 3, lambda xs: [xs[0], xs[1], xs[2]])
    (td,) = ch._tractors_at(chart, (dil,), [0.4, -0.2, 0.3])
    assert td.killing_residual < 1e-14
    assert td.lam == pytest.approx(2.0)


def test_translation_tractor_components():
    chart = ch.flat_chart(4)
    tr = ch.VectorFieldOnChart("translation", 4, lambda xs: [1.0, 0.0, 0.0, 0.0])
    curv = ch.CurvatureData(chart, [0.1, 0.2, -0.3, 0.0])
    td = ch.TractorData(curv, tr)
    assert np.max(np.abs(td.K)) == 0.0
    assert np.max(np.abs(td.gamma1)) == 0.0
    v = np.array([0.3, -1.0, 0.2, 0.5])
    assert td.tractor_residual(v) == 0.0


def test_non_killing_field_fails_split():
    chart = ch.flat_chart(3)
    bad = ch.VectorFieldOnChart("bad", 3, lambda xs: [xs[0] * xs[0], 0.0, 0.0])
    with pytest.raises(ch.NotConformalKilling):
        ch.sparling_scalars(*ch._tractors_at(chart, (bad, bad), [0.5, 0.1, -0.2]))


def test_tractor_row4_matches_killing_residual():
    """A non-Killing field leaves a nonzero fourth row generically."""
    chart = ch.flat_chart(3)
    bad = ch.VectorFieldOnChart("bad", 3, lambda xs: [xs[0] * xs[0], 0.0, 0.0])
    curv = ch.CurvatureData(chart, [0.5, 0.1, -0.2])
    td = ch.TractorData(curv, bad)
    assert td.killing_residual > 1e-3
    v = np.array([1.0, 0.0, 0.0])
    _, _, _, r4 = td.tractor_derivative_rows(v)
    assert np.max(np.abs(r4)) > 1e-4


def test_k_skew_for_metric(quadric1):
    chart, k1, _, _ = quadric1
    pt = chart.sample_points(1, 5)[0]
    curv = ch.CurvatureData(chart, pt)
    td = ch.TractorData(curv, k1)
    skew = curv.g @ td.K + td.K.T @ curv.g
    assert np.max(np.abs(skew)) < 1e-9


def test_killing_case_gamma_is_p_of_k(quadric1):
    chart, k1, _, _ = quadric1
    pt = chart.sample_points(1, 6)[0]
    (td,) = ch._tractors_at(chart, (k1,), pt)
    assert td.killing_residual <= 1e-8
    assert abs(td.alpha) < 1e-12
    assert np.max(np.abs(td.gamma1 - td.Pk)) < 1e-12
    assert np.max(np.abs(td.nk - td.K)) < 1e-10


def test_signature_detection():
    chart = ch.flat_chart(5, (3, 2))
    assert signature_at(chart, [0.1] * 5) == (3, 2)


def test_signature_fails_on_a_degenerate_metric():
    with pytest.raises(ch.ChartError):
        ch.signature(np.diag([1.0, 1e-11, -1.0]))


def _sample_points_one_draw_at_a_time(chart, count, seed):
    rng = np.random.default_rng(seed)
    pts = []
    while len(pts) < count:
        u = rng.uniform(-1.0, 1.0, chart.dim)
        if float(np.dot(u, u)) <= 1.0:
            pts.append(chart.center + 0.9 * chart.radius * u)
    return pts


@pytest.mark.parametrize("dim, count", [(3, 3000), (10, 25), (14, 2)])
def test_sample_points_match_one_draw_at_a_time(dim, count):
    shifted = ch.MetricChart(
        "shifted", dim, None, center=np.linspace(-0.5, 0.5, dim), radius=0.3
    )
    for chart in (ch.flat_chart(dim), shifted):
        for seed in (0, 7, 11):
            got = chart.sample_points(count, seed)
            want = _sample_points_one_draw_at_a_time(chart, count, seed)
            assert len(got) == count
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))


def _curvature_points():
    """A quadric n=2 point, a rescaled quadric n=1 point and a random-metric point."""
    from qcfeff.models import quadric_model

    q2 = quadric_model(2)[0]
    q1 = quadric_model(1)[0]
    resc = q1.rescaled(ch.random_conf_factor(q1.dim, 7, scale=0.05))
    rnd = ch.random_polynomial_chart(4, 3)
    return [(chart, chart.sample_points(1, seed=5)[0]) for chart in (q2, resc, rnd)]


def _fefferman_point():
    """A point of the n=2 Heisenberg Fefferman metric (dimension 14)."""
    from qcfeff.models import fefferman_metric, heisenberg_qc

    chart = fefferman_metric(heisenberg_qc(2))
    return chart, chart.sample_points(1, seed=5)[0]


def test_curvature_build_contracts_on_fixed_paths(monkeypatch):
    """No multi-operand contraction of a CurvatureData build searches or loops naively."""
    chart, pt = _curvature_points()[0]
    einsum = np.einsum
    calls = []

    def recording(spec, *operands, **kwargs):
        calls.append((spec, len(operands), kwargs.get("optimize", False)))
        return einsum(spec, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", recording)
    curv = ch.CurvatureData(chart, pt)
    curv.cotton  # the first read of a late field runs the late build
    multi = [(spec, k, path) for spec, k, path in calls if k >= 2]
    assert len(multi) >= 24
    unpathed = [
        spec
        for spec, k, path in multi
        if not (isinstance(path, (list, tuple)) and path[0] == "einsum_path")
        or len(path) != k
    ]
    assert unpathed == []


_CURVATURE_FIELDS = (
    "dginv", "gamma", "dgamma", "gamtr", "dgamtr", "d2gamtr", "riem", "ric",
    "scal", "weyl", "dric", "dP", "covP", "cotton",
)


@pytest.mark.parametrize(
    "index", [0, 1, 2, 3], ids=["quadric2", "rescaled1", "random4", "fefferman14"]
)
def test_curvature_paths_keep_the_naive_sums(index):
    """The build agrees with the full naive formulas, m^5 arrays included, up to rounding.

    The build sums the two traces it reads of d2gamma and driem straight
    from the jets; the reference builds both arrays and traces them.
    """
    chart, pt = (_curvature_points() + [_fefferman_point()])[index]
    got = ch.CurvatureData(chart, pt)
    ref = oracle.curvature_reference(got.g, got.dg, got.d2g, got.d3g, got.ginv)
    pairs = [(name, getattr(got, name), ref[name]) for name in _CURVATURE_FIELDS]
    pairs.append(("driem", got._driem(), ref["driem"]))
    for name, have, want in pairs:
        want = np.asarray(want)
        tol = 1e-12 * (1.0 + float(np.max(np.abs(want))))
        assert float(np.max(np.abs(np.asarray(have) - want))) <= tol, name


def test_curvature_data_holds_no_m5_array_but_d3g():
    """Of a build's arrays, the late ones included, only the jet tensor d3g has five indices."""
    curv = ch.CurvatureData(*_fefferman_point())
    curv.cotton  # the first read of a late field runs the late build
    five = [
        name
        for name, value in vars(curv).items()
        if isinstance(value, np.ndarray) and value.ndim == 5
    ]
    assert five == ["d3g"]
    # the build reads its traces off views of d3g with the derivative slots first
    assert curv.d3g.transpose(2, 3, 4, 0, 1).flags.c_contiguous


def _late_step_assigns(obj):
    """The attributes that a forced late build adds to an object."""
    before = set(vars(obj))
    obj._build_late()
    return set(vars(obj)) - before


def test_late_name_sets_match_the_late_steps(quadric1):
    """Each class's late-name set is exactly what its late step assigns.

    A name missing from the set would raise AttributeError on first read
    instead of triggering the late build; a name in the set that the late
    step never assigns would raise KeyError.
    """
    chart, k1, _, _ = quadric1
    pt = chart.sample_points(1, 5)[0]
    assert _late_step_assigns(ch.CurvatureData(chart, pt)) == ch.CurvatureData._LATE
    td = ch.TractorData(ch.CurvatureData(chart, pt), k1)
    assert _late_step_assigns(td) == ch.TractorData._LATE


@pytest.mark.parametrize("index", [2, 3], ids=["random4", "fefferman14"])
def test_late_build_leaves_weyl_unchanged(index):
    chart, pt = (_curvature_points() + [_fefferman_point()])[index]
    curv = ch.CurvatureData(chart, pt)
    weyl = curv.weyl
    before = weyl.tobytes()
    curv.cotton
    assert curv.weyl is weyl
    assert weyl.tobytes() == before
