import hashlib
import json
import math
import weakref

import numpy as np
import pytest

from qcfeff import charts as ch
from qcfeff.cli import main, suite_model


def _run(tmp_path, *args):
    out = tmp_path / "report.json"
    code = main(list(args) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_random_metrics_pass(tmp_path):
    code, text = _run(tmp_path, "random-metrics", "--dim", "4", "--count", "3")
    assert code == 0
    rep = json.loads(text)
    assert rep["schema"] == "1"
    assert rep["suite"] == "random-metrics"
    assert rep["pass"] is True
    assert rep["config"]["tolerances"]["divergence"] == 1e-6


def test_model_quadric_pass(tmp_path):
    code, text = _run(
        tmp_path, "model", "--n", "1", "--samples", "6", "--rescale-seed", "7"
    )
    assert code == 0
    rep = json.loads(text)
    assert rep["results"]["k3_scale"] == pytest.approx(1.0)


def test_model_heisenberg_pass(tmp_path):
    code, text = _run(tmp_path, "model", "--n", "1", "--metric", "heisenberg", "--samples", "6")
    assert code == 0
    rep = json.loads(text)
    assert rep["results"]["sigma_convention"] == "maurer_cartan"
    assert rep["results"]["sigma_candidates"]["adjoint_rotated"]["weyl"] > 1e-2


def test_determinism_byte_identical(tmp_path):
    _, a = _run(tmp_path, "model", "--n", "1", "--samples", "5", "--seed", "3")
    _, b = _run(tmp_path, "model", "--n", "1", "--samples", "5", "--seed", "3")
    assert a == b
    _, c = _run(tmp_path, "random-metrics", "--dim", "4", "--count", "2", "--seed", "1")
    _, d = _run(tmp_path, "random-metrics", "--dim", "4", "--count", "2", "--seed", "1")
    assert c == d


def test_tolerance_override_can_fail(tmp_path):
    code, text = _run(
        tmp_path,
        "model",
        "--n",
        "1",
        "--samples",
        "4",
        "--tolerance",
        "weyl_flat=1e-30",
    )
    assert code == 2
    rep = json.loads(text)
    assert rep["pass"] is False
    assert rep["config"]["tolerances"]["weyl_flat"] == 1e-30


def test_unknown_tolerance_key_is_usage_error(tmp_path, capsys):
    code = main(["model", "--tolerance", "nope=1"])
    assert code == 4
    assert "usage error: unknown tolerance key" in capsys.readouterr().err


def test_argparse_errors_are_usage_errors(tmp_path, capsys):
    for args in (
        ("model", "--metric", "foo"),
        ("cohomology", "--n", "x"),
        ("model", "--tolerance", "weyl_flat=small"),
        ("model", "--n", "1", "--samples", "2", "--tolerance", "weyl_flat=inf"),
        ("model", "--n", "1", "--samples", "2", "--tolerance", "weyl_flat=nan"),
        ("model", "--n", "1", "--samples", "2", "--tolerance", "weyl_flat=0"),
        ("model", "--n", "1", "--samples", "2", "--tolerance", "weyl_flat=-1e-8"),
        (),
    ):
        code, text = _run(tmp_path, *args)
        assert code == 4
        assert text == ""
        assert "usage error: " in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["cohomology", "--help"])
    assert exc.value.code == 0


def test_markdown_format(tmp_path):
    out = tmp_path / "report.md"
    code = main(
        ["random-metrics", "--dim", "4", "--count", "1", "--format", "markdown", "--out", str(out)]
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("# random-metrics report")
    assert "| pass | True |" in text


def test_dump_algebra(tmp_path):
    code, text = _run(tmp_path, "dump", "--algebra", "qc", "--n", "1")
    assert code == 0
    rep = json.loads(text)
    assert rep["results"]["dimension"] == 21
    assert rep["results"]["depth"] == 2
    from fractions import Fraction

    consts = rep["results"]["structure_constants"]
    assert consts
    for row in consts.values():
        for v in row.values():
            Fraction(v)


def test_cohomology_exit_zero(tmp_path):
    code, text = _run(tmp_path, "cohomology", "--n", "1")
    assert code == 0
    rep = json.loads(text)
    h1 = {r["homogeneity"]: r["dim"] for r in rep["results"]["harmonic_h1"]}
    assert all(d == 0 for l, d in h1.items() if l >= 0)
    h2 = {r["homogeneity"]: r["dim"] for r in rep["results"]["harmonic_h2"]}
    assert h2[1] > 0 and h2[2] > 0
    assert _sha256(text) == (
        "b592c7cc9e523911949e365e983dff20978a6b8300b2c680035542e1ce0d72f1"
    )


def test_inclusions_report_bytes_pinned(tmp_path):
    code, text = _run(
        tmp_path, "inclusions", "--n", "1", "--seeds", "2", "--negative-controls"
    )
    assert code == 0
    assert _sha256(text) == (
        "06d35ab63746f43196b7edbcb78b67ab504136f66c14c1c8d8c006e8ded2c7ad"
    )


@pytest.mark.parametrize("constant", ["corner_trace_constant", "corner_square_constant"])
def test_inclusions_fails_without_trace_constant(tmp_path, monkeypatch, constant):
    """A corner constant that does not exist fails the inclusions verdict."""
    from qcfeff import inclusions as inc

    monkeypatch.setattr(inc, constant, lambda alg, unit="i": None)
    code, text = _run(tmp_path, "inclusions", "--n", "1", "--seeds", "1")
    assert code == 2
    assert json.loads(text)["pass"] is False


def test_inclusions_n2_solution_spaces_pinned(tmp_path):
    """The n=2 solution-space entries keep their bytes."""
    code, text = _run(
        tmp_path, "inclusions", "--n", "2", "--full", "--seeds", "1", "--negative-controls"
    )
    assert code == 0
    rep = json.loads(text)["results"]
    assert rep["inverse_normality"]["dim_solution_space"] == 1026
    assert rep["negative_controls"]["inverse_fails_without_traces"]
    assert _sha256(text) == (
        "ba843a72234ca06979c10e9cbbac5a447a010359c1b89dbb8eeee76d3723923f"
    )


def test_cohomology_bad_n(tmp_path):
    code = main(["cohomology", "--n", "7"])
    assert code == 4


def test_random_metrics_dim2_refused(tmp_path):
    code, text = _run(tmp_path, "random-metrics", "--dim", "2", "--count", "1")
    assert code != 0
    assert text == ""
    for args in (
        ("inclusions", "--n", "1", "--seeds", "0"),
        ("random-metrics", "--count", "0"),
        ("model", "--samples", "0"),
    ):
        code, text = _run(tmp_path, *args)
        assert code == 4
        assert text == ""


def test_n_below_one_refused(tmp_path, capsys):
    for args in (
        ("model", "--n", "0", "--samples", "2"),
        ("inclusions", "--n", "0"),
        ("dump", "--n", "0"),
        ("model", "--metric", "heisenberg", "--n", "-1"),
    ):
        code, text = _run(tmp_path, *args)
        assert code == 4
        assert text == ""
        assert "usage error: --n must be at least 1" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_random_metrics_nonfinite_residual_fails():
    from qcfeff.cli import suite_random_metrics

    _, ok = suite_random_metrics(2, count=1)
    assert ok is False


@pytest.mark.parametrize(
    "args, digest",
    [
        (
            ("model", "--n", "1", "--samples", "5", "--seed", "11", "--rescale-seed", "7"),
            "7364ee062dc7a8cc0a040d62ac88a7716ffe864778504bb1a6998a2621c3abfa",
        ),
        (
            ("model", "--metric", "heisenberg", "--n", "1", "--samples", "4"),
            "e7df0a2ba35bf2f717aebcbb36e80c10763cba0de982e9a769db1eadd5e18871",
        ),
    ],
    ids=["quadric", "heisenberg"],
)
def test_model_report_bytes_pinned(tmp_path, args, digest):
    code, text = _run(tmp_path, *args)
    assert code == 0
    assert _sha256(text) == digest


@pytest.mark.parametrize("metric, repeats", [("quadric", 4), ("heisenberg", 0)])
def test_model_builds_geometry_once_per_point(monkeypatch, metric, repeats):
    init = ch.CurvatureData.__init__
    keys = []
    alive = weakref.WeakSet()
    alive_at_build = []

    def counting_init(self, chart, point):
        keys.append((chart.name, np.asarray(point, float).tobytes()))
        alive_at_build.append(len(alive))
        init(self, chart, point)
        alive.add(self)

    monkeypatch.setattr(ch.CurvatureData, "__init__", counting_init)
    rescale = 7 if metric == "quadric" else None
    _, ok = suite_model(1, samples=8, seed=3, metric=metric, rescale_seed=rescale)
    assert ok
    # Felipe's check rebuilds its 4 points once beta1's mean is known
    assert len(keys) <= len(set(keys)) + repeats
    assert max(alive_at_build) == 0


def test_fefferman_point_builds_no_late_fields(monkeypatch):
    """A Fefferman point reads only eager fields, so neither late part is built."""
    from qcfeff import models as mo
    from qcfeff.cli import _fefferman_point

    built = []
    for cls in (ch.CurvatureData, ch.TractorData):

        def recording(self, *args, _init=cls.__init__):
            _init(self, *args)
            built.append(self)

        monkeypatch.setattr(cls, "__init__", recording)
    qc = mo.heisenberg_qc(1)
    fm = mo.fefferman_metric(qc)
    fields = mo.sp1_fundamental_fields(qc)
    row = _fefferman_point(fm, fields, fm.sample_points(1, seed=1)[0])
    assert row["signature"] == (7, 3)
    (curv,) = [obj for obj in built if isinstance(obj, ch.CurvatureData)]
    tractors = [obj for obj in built if isinstance(obj, ch.TractorData)]
    assert len(tractors) == len(fields)
    assert {"cotton", "dric", "d2ginv"}.isdisjoint(vars(curv))
    assert ch.CurvatureData._LATE.isdisjoint(vars(curv))
    for td in tractors:
        assert "n2k" not in vars(td)
        assert ch.TractorData._LATE.isdisjoint(vars(td))


@pytest.mark.parametrize("metric", ["quadric", "heisenberg"])
def test_model_reads_metric_once_per_point(monkeypatch, metric):
    """Every per-point figure reads the order-3 jets of the point's CurvatureData.

    The Fefferman signature too is read off the point's own curvature
    data, so no metric evaluation of any other order is left.
    """
    jets = ch.MetricChart.metric_jets
    orders = []

    def counting_jets(self, point, order):
        orders.append(order)
        return jets(self, point, order)

    monkeypatch.setattr(ch.MetricChart, "metric_jets", counting_jets)
    rescale = 7 if metric == "quadric" else None
    _, ok = suite_model(1, samples=8, seed=3, metric=metric, rescale_seed=rescale)
    assert ok
    assert orders
    low = [order for order in orders if order != 3]
    assert len(low) == 0


def test_model_nonfinite_residual_fails(monkeypatch):
    real = ch.second_derivative_identity_residual
    calls = []

    def nan_at_second_point(td):
        calls.append(None)
        return float("nan") if len(calls) == 2 else real(td)

    monkeypatch.setattr(ch, "second_derivative_identity_residual", nan_at_second_point)
    results, ok = suite_model(1, samples=3, seed=0)
    assert math.isnan(results["second_derivative_identity"])
    assert ok is False


def test_random_metrics_flat_nonfinite_residual_fails(monkeypatch):
    from qcfeff.cli import suite_random_metrics

    build = ch.CurvatureData._build

    def nan_cotton_on_flat(self):
        build(self)
        if self.chart.name.startswith("flat"):
            self.cotton = np.full_like(self.cotton, np.nan)

    monkeypatch.setattr(ch.CurvatureData, "_build", nan_cotton_on_flat)
    results, ok = suite_random_metrics(4, count=1)
    assert math.isnan(results["flat_residual"])
    assert ok is False


def test_felipe_nonfinite_residual_fails(monkeypatch):
    real = ch.felipe_residuals
    calls = []

    def nan_at_second_point(td):
        calls.append(None)
        out = real(td)
        if len(calls) == 2:
            out["complex_structure"] = float("nan")
        return out

    monkeypatch.setattr(ch, "felipe_residuals", nan_at_second_point)
    results, ok = suite_model(1, samples=4, seed=0)
    assert math.isnan(results["felipe"]["complex_structure"])
    assert results["felipe"]["pass"] is False
    assert ok is False
