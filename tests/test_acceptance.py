"""Acceptance suite: one test per criterion, printing a pass/fail line each.

Every tolerance is pinned here; the exact-arithmetic criteria assert
literal zeroes.  Criteria with stated runtime budgets are timed.
"""

import json
import time
from fractions import Fraction

import numpy as np

import oracle
from qcfeff import charts as ch
from qcfeff import cohomology as coh
from qcfeff import inclusions as inc
from qcfeff import models as mo
from qcfeff.cohomology import random_cochain
from tests_support import metric_at, signature_at


def _report(num, name, ok, extra=""):
    line = "criterion %02d [%s]: %s" % (num, name, "PASS" if ok else "FAIL")
    if extra:
        line += " (%s)" % extra
    print(line)
    assert ok, line


def test_criterion_01_h1_vanishing(chain1, chain2):
    t0 = time.time()
    ok = True
    for fix, n in ((chain1, 1), (chain2, 2)):
        qc = fix[0]
        for l in coh.homogeneity_range(qc, 1):
            if l < 0:
                continue
            dim, _, _ = coh.harmonic_space(qc, 1, l)
            ok = ok and dim == 0
    _report(1, "H1 vanishing n=1,2", ok, "%.1fs" % (time.time() - t0))


def test_criterion_02_h2_structure(chain1, chain2):
    qc1 = chain1[0]
    d1, _, _ = coh.harmonic_space(qc1, 2, 1)
    ok = d1 > 0
    qc2 = chain2[0]
    e1, _, _ = coh.harmonic_space(qc2, 2, 1)
    e2, basis2, _ = coh.harmonic_space(qc2, 2, 2)
    ok = ok and e1 == 0 and e2 > 0
    ok = ok and all(coh.contained_in_wedge_g0(qc2, c) for c in basis2)
    ok = ok and all(oracle.part2(oracle.Cochain(qc2, 2, c)).is_zero() for c in basis2)
    _report(2, "H2 homogeneity structure", ok, "dims n1h1=%d n2h2=%d" % (d1, e2))


def test_criterion_03_codifferential_cross_oracle(chain1):
    ok = True
    for alg in chain1:
        for seed in range(50):
            phi = oracle.draw(alg, 2, seed, lo=-2, hi=2)
            p1, p2 = oracle.codifferential_minus(phi)
            ok = ok and oracle.equal(
                oracle.add(p1, p2, Fraction(-1, 2)), oracle.codifferential_wedge(phi)
            )
        for seed in range(5):
            ok = ok and oracle.differential(
                oracle.differential(oracle.draw(alg, 1, seed, lo=-2, hi=2))
            ).is_zero()
            ok = ok and oracle.codifferential_wedge(
                oracle.codifferential_wedge(oracle.draw(alg, 3, seed, lo=-1, hi=1))
            ).is_zero()
    qc, _, co = chain1
    ok = ok and coh.hodge_check(qc, 1)["pass"]
    ok = ok and coh.hodge_check(qc, 2)["pass"]
    ok = ok and coh.hodge_check(co, 1)["pass"]
    _report(3, "codifferential cross-oracle + Hodge", ok)


def test_criterion_04_transfer_lemmas(inclusions1, inclusions2):
    t0 = time.time()
    ok = True
    for fix, n, seeds in ((inclusions1, 1, 100), (inclusions2, 2, 100)):
        qc, cr, co, phi1, phi2, phic = fix
        for seed in range(seeds):
            k = random_cochain(qc, 2, seed, lo=-2, hi=2)
            ok = ok and inc.del1_identity_check(phi1, k)["all_exact_zero"]
            ok = ok and inc.del2_identity_check(phi1, k, "i")["all_exact_zero"]
            kc = random_cochain(cr, 2, seed, lo=-2, hi=2)
            ok = ok and inc.del1_identity_check(phi2, kc)["all_exact_zero"]
            if not ok:
                break
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    _report(4, "transfer identities, 100 seeds, n=1,2", ok, "%.1fs" % elapsed)


def test_criterion_05_normality_transfer(inclusions1):
    qc, cr, co, phi1, phi2, phic = inclusions1
    nt = inc.normality_transfer_check(qc, phi1, phic)
    ok = nt["all_exact_zero"] and nt["dim_solution_space"] > 0
    it = inc.inverse_normality_check(qc, cr, co, phi2, phic)
    ok = ok and it["all_exact_zero"]
    neg1 = inc.normality_negative_control(qc, phi1)
    neg2 = inc.inverse_negative_control(qc, cr, co, phi2, phic)
    ok = ok and neg1["pass"] and neg2["pass"]
    _report(
        5,
        "normality transfer both directions",
        ok,
        "dim=%d inv_dim=%d" % (nt["dim_solution_space"], it["dim_solution_space"]),
    )


def test_criterion_06_appendix_fidelity(inclusions1):
    from tests_support import witt_display_checks

    qc, cr, co, phi1, phi2, phic = inclusions1
    ok = witt_display_checks(qc, cr, phi1)
    # graded splitting facts
    for unit, degs in (("i", [-2, 0]), ("j", [-1]), ("k", [-1])):
        idx = inc._corner_index(qc, unit)
        ok = ok and sorted(phi1.component_split({idx: Fraction(1)})) == degs
    # one exact Killing constant per inclusion
    for phi in (phi1, phi2, phic):
        ok = ok and phi.killing_constant != 0
    tp = inc.trace_pairing_check(qc, phic)
    ok = ok and tp["pass"]
    _report(6, "Witt-basis matrix fidelity + pairings", ok)


def test_criterion_07_quadric_model(quadric1):
    t0 = time.time()
    chart, k1, k2, k3 = quadric1
    pts = chart.sample_points(20, seed=0)
    ok = True
    light = max(
        abs(float(k.values(p) @ metric_at(chart, p) @ k.values(p)))
        for k in (k1, k2)
        for p in pts
    )
    orth = max(abs(float(k1.values(p) @ metric_at(chart, p) @ k2.values(p))) for p in pts)
    ok = ok and light < 1e-10 and orth < 1e-10
    kill = max(
        td.killing_residual for p in pts[:5] for td in ch._tractors_at(chart, (k1, k2), p)
    )
    ok = ok and kill < 1e-9
    ins = 0.0
    weyl = 0.0
    rows = 0.0
    rng = np.random.default_rng(1)
    for p in pts[:8]:
        curv = ch.CurvatureData(chart, p)
        weyl = max(weyl, float(np.max(np.abs(curv.weyl))))
        td = ch.TractorData(curv, k1)
        tc = ch.trace_contractions(td)
        ins = max(ins, tc["k_into_weyl"], tc["k_into_cotton"])
        for _ in range(3):
            rows = max(rows, td.tractor_residual(rng.uniform(-1, 1, chart.dim)))
    ok = ok and ins < 1e-8 and weyl < 1e-8 and rows < 1e-8
    sp = ch.sparling_invariants(chart, k1, k2, pts)
    ok = ok and abs(sp["chi"]["mean"]) < 1e-9 and sp["chi"]["stddev"] < 1e-9
    ok = ok and all(
        sp[b]["mean"] < 0 and sp[b]["stddev"] < 1e-7 for b in ("beta1", "beta2", "beta3")
    )
    ok = ok and sp["beta_product_residual"] < 1e-8
    model_vals = [k3.values(p) for p in pts]
    scale = sum(float(a @ b) for a, b in zip(sp["k3_values"], model_vals)) / sum(
        float(b @ b) for b in model_vals
    )
    k3res = max(
        float(np.max(np.abs(a - scale * b)))
        for a, b in zip(sp["k3_values"], model_vals)
    )
    ok = ok and k3res < 1e-8
    fel = ch.felipe_conditions(chart, k1, pts[:4], sp["beta1"]["mean"], tol=1e-8)
    ok = ok and fel["pass"]
    elapsed = time.time() - t0
    ok = ok and elapsed < 120.0
    _report(7, "quadric model package", ok, "%.1fs" % elapsed)


def test_criterion_08_heisenberg_fefferman(heisenberg1):
    qc = heisenberg1
    candidates = {}
    chosen = None
    for name, rotate in (("maurer_cartan", False), ("adjoint_rotated", True)):
        fm = mo.fefferman_metric(qc, rotate_eta=rotate)
        pts = fm.sample_points(6, seed=1)
        sig_ok = all(signature_at(fm, p) == (7, 3) for p in pts)
        weyl = max(float(np.max(np.abs(ch.CurvatureData(fm, p).weyl))) for p in pts[:3])
        candidates[name] = (sig_ok, weyl)
        if chosen is None and sig_ok and weyl < 1e-6:
            chosen = name
    ok = chosen is not None
    fm = mo.fefferman_metric(qc, rotate_eta=(chosen == "adjoint_rotated"))
    pts = fm.sample_points(6, seed=1)
    for fld in mo.sp1_fundamental_fields(qc):
        for p in pts[:3]:
            g = metric_at(fm, p)
            v = fld.values(p)
            ok = ok and abs(float(v @ g @ v)) < 1e-8
            ok = ok and ch._tractors_at(fm, (fld,), p)[0].killing_residual < 1e-8
    _report(
        8,
        "Heisenberg bundle metric",
        ok,
        "convention=%s weyl=%.1e" % (chosen, candidates[chosen][1]),
    )


def test_criterion_09_tensor_pipeline():
    ok = True
    for seed in range(10):
        chart = ch.random_polynomial_chart(4, seed)
        pt = chart.sample_points(1, seed)[0]
        curv = ch.CurvatureData(chart, pt)
        res, fitted = curv.weyl_divergence_residual()
        ok = ok and res < 1e-6 and abs(fitted - (-1.0)) < 1e-6
        ok = ok and curv.weyl_trace_residual() < 1e-9
        ok = ok and curv.schouten_residual() < 1e-10
        cf = ch.random_conf_factor(4, seed)
        ok = ok and ch.weyl_conformal_covariance_residual(ch.CurvatureData(chart, pt), cf) < 1e-7
    sphere = ch.sphere_chart(4)
    spt = sphere.sample_points(1, 0)[0]
    sc = ch.CurvatureData(sphere, spt)
    ok = ok and float(np.max(np.abs(sc.P + 0.5 * sc.g))) < 1e-9
    _report(9, "tensor-calculus pipeline", ok)


def test_criterion_10_determinism(tmp_path):
    from qcfeff.cli import main

    outs = []
    for run in range(2):
        path = tmp_path / ("det%d.json" % run)
        code = main(
            ["model", "--n", "1", "--samples", "5", "--seed", "11", "--out", str(path)]
        )
        assert code == 0
        outs.append(path.read_bytes())
    ok = outs[0] == outs[1]
    rep = json.loads(outs[0])
    ok = ok and rep["schema"] == "1"
    _report(10, "byte-identical reports", ok)
