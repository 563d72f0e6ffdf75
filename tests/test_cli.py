import json

import pytest

from qcfeff.cli import main


def _run(tmp_path, *args):
    out = tmp_path / "report.json"
    code = main(list(args) + ["--out", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


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


def test_unknown_tolerance_key_is_internal_error(tmp_path):
    code = main(["model", "--tolerance", "nope=1"])
    assert code == 3


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


def test_cohomology_bad_n(tmp_path):
    code = main(["cohomology", "--n", "7"])
    assert code == 3


def test_random_metrics_dim2_refused(tmp_path):
    code, text = _run(tmp_path, "random-metrics", "--dim", "2", "--count", "1")
    assert code != 0
    assert text == ""


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_random_metrics_nonfinite_residual_fails():
    from qcfeff.cli import suite_random_metrics

    _, ok = suite_random_metrics(2, count=1)
    assert ok is False
