"""Checks of qcfeff reports against figures computed without qcfeff.

Every checker takes (argv, exit code, report or None) and returns a list
of problems; an empty list means the operation passed.  The exact
figures come from ``rootdata`` and are computed anew on every call.  The
numerical checks fail closed: every float in a report must be finite,
and each named residual must be present and below the tolerance that the
report itself records in ``config.tolerances``.
"""

from __future__ import annotations

import math
from fractions import Fraction

import rootdata


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _floats(obj, path=""):
    """Every float leaf of a JSON value, with its dotted path."""
    if isinstance(obj, float):
        yield path, obj
    elif isinstance(obj, dict):
        for k, v in obj.items():
            yield from _floats(v, "%s.%s" % (path, k) if path else k)
    elif isinstance(obj, list):
        for i, v in enumerate(obj):
            yield from _floats(v, "%s[%d]" % (path, i))


def _lookup(obj, path):
    for part in path.split("."):
        if not isinstance(obj, dict) or part not in obj:
            return None
        obj = obj[part]
    return obj


def _common(rc, report, suite):
    if rc != 0:
        return ["exit code %s" % rc]
    if report is None:
        return ["no report written"]
    problems = []
    if report.get("suite") != suite:
        problems.append("suite is %r" % report.get("suite"))
    if report.get("pass") is not True:
        problems.append("report does not pass")
    return problems


# ---------------------------------------------------------------------------
# exact suites
# ---------------------------------------------------------------------------


def _harmonic_rows(problems, rows, expected, degree, top=None):
    """Each row's dim must be the Kostant count; no component may be missing.

    ``top`` is the highest homogeneity the suite computes, where it
    restricts the table by design.
    """
    if not rows:
        problems.append("H%d table is empty" % degree)
    seen = set()
    for row in rows:
        hom = row["homogeneity"]
        seen.add(hom)
        want = expected.get(hom, 0)
        if row["degree"] != degree or row["dim"] != want:
            problems.append(
                "H%d homogeneity %d: dim %s, Kostant count %d" % (degree, hom, row["dim"], want)
            )
    for hom, dim in expected.items():
        if (top is None or hom <= top) and hom not in seen:
            problems.append("H%d homogeneity %d (dim %d) missing" % (degree, hom, dim))


def check_cohomology(argv, rc, report):
    problems = _common(rc, report, "cohomology")
    if problems:
        return problems
    n = int(_flag(argv, "--n", "1"))
    res = report["results"]
    qc = rootdata.qc_parabolic(n)
    _harmonic_rows(problems, res["harmonic_h1"], qc.kostant(1), 1)
    # from n = 3 on the suite computes degree 2 only up to homogeneity 2
    _harmonic_rows(problems, res["harmonic_h2"], qc.kostant(2), 2, 2 if n >= 3 else None)
    problems += kostant_self_check()

    algebras = {"qc": qc, "co(7,3)": rootdata.co_parabolic(7, 3)}
    expected_hodge = [("qc", 1)] + ([("qc", 2), ("co(7,3)", 1)] if n == 1 else [])
    got = [(h.get("algebra", "qc"), h["degree"]) for h in res["hodge"]]
    if got != expected_hodge:
        problems.append("Hodge entries %s, expected %s" % (got, expected_hodge))
    for h in res["hodge"]:
        alg = algebras.get(h.get("algebra", "qc"))
        if alg is None:
            problems.append("unexpected Hodge algebra %r" % h.get("algebra"))
            continue
        want = alg.cochain_dim(h["degree"])
        if h["dim_total"] != want or h["pass"] is not True:
            problems.append(
                "Hodge %s degree %d: dim_total %s (C(dim g_-, k) dim g = %d), pass %s"
                % (h.get("algebra", "qc"), h["degree"], h["dim_total"], want, h["pass"])
            )
    return problems


def kostant_self_check():
    """The Kostant count against closed forms it must reproduce.

    For co(7,3) = so(8,4) the degree-2 cohomology is the Weyl tensors of
    dimension 10 in homogeneity 2; for qc(n), H^1 is 8n-dimensional in
    homogeneity -1.
    """
    problems = []
    co = rootdata.co_parabolic(7, 3).kostant(2)
    if co != {2: rootdata.weyl_tensor_dim(10)}:
        problems.append("Kostant count for co(7,3) degree 2 is %s" % co)
    for n in (1, 2, 3):
        h1 = rootdata.qc_parabolic(n).kostant(1)
        if h1 != {-1: 8 * n}:
            problems.append("Kostant count for qc(%d) degree 1 is %s" % (n, h1))
    return problems


def check_inclusions(argv, rc, report):
    problems = _common(rc, report, "inclusions")
    if problems:
        return problems
    n = int(_flag(argv, "--n", "1"))
    res = report["results"]
    for key, want in rootdata.killing_ratios(n).items():
        got = Fraction(res["killing_constants"][key])
        if got != want:
            problems.append("Killing constant %s = %s, dual Coxeter ratio %s" % (key, got, want))
    for key in ("del1_all_exact_zero", "del2_all_exact_zero", "composition_coherent"):
        if res.get(key) is not True:
            problems.append("%s is %r" % (key, res.get(key)))
    seeds = int(_flag(argv, "--seeds", "100"))
    if res.get("del_seeds") != seeds:
        problems.append("del_seeds %r, asked for %d" % (res.get("del_seeds"), seeds))
    for entry in res["structural"] + res["scaling_compatibility"] + [res["trace_pairings"]]:
        if entry.get("pass") is not True:
            problems.append("%s does not pass" % entry.get("lemma", entry.get("inclusion")))
    if n == 1 or "--full" in argv:
        nt, it = res.get("normality_transfer"), res.get("inverse_normality")
        if not nt or not (nt["all_exact_zero"] is True and nt["dim_solution_space"] > 0):
            problems.append("normality transfer: %r" % nt)
        if not it or it["all_exact_zero"] is not True:
            problems.append("inverse normality: %r" % it)
    if "--negative-controls" in argv:
        ctl = res.get("negative_controls") or {}
        for key in (
            "structural_fails",
            "normality_fails",
            "inverse_fails_without_traces",
            "scaling_fails_for_noncentral",
            "pass",
        ):
            if ctl.get(key) is not True:
                problems.append("negative control %s is %r" % (key, ctl.get(key)))
    return problems


# ---------------------------------------------------------------------------
# numerical suites
# ---------------------------------------------------------------------------

# residual path in ``results`` -> tolerance key in ``config.tolerances``
QUADRIC = {
    "lightlike": "lightlike",
    "orthogonal": "orthogonal",
    "killing": "killing",
    "weyl": "weyl_flat",
    "insertions": "insertion",
    "tractor_rows": "tractor_rows",
    "second_derivative_identity": "second_derivative",
    "beta_product_residual": "beta_product",
    "k3_match": "k3_match",
    "felipe.eigen_k": "felipe",
    "felipe.eigen_gamma": "felipe",
    "felipe.normalization": "felipe",
    "felipe.complex_structure": "felipe",
}
HEISENBERG = {
    "qc_axioms.reeb_pairing": "qc_axioms",
    "qc_axioms.compatibility": "qc_axioms",
    "qc_axioms.quaternion_relations": "qc_axioms",
    "vertical_lightlike": "vertical_killing",
    "vertical_killing": "vertical_killing",
}
RANDOM = {
    "divergence_residual": "divergence",
    "weyl_trace_residual": "weyl_trace",
    "weyl_covariance_residual": "weyl_covariance",
    "schouten_residual": "schouten",
    "sphere_schouten_residual": "sphere_schouten",
    "flat_residual": "weyl_flat",
}


def _scan(problems, report, table):
    res = report["results"]
    tol = report["config"]["tolerances"]
    for path, x in _floats(res):
        if not math.isfinite(x):
            problems.append("%s is %r" % (path, x))
    for path, key in table.items():
        x = _lookup(res, path)
        if not isinstance(x, (int, float)) or not math.isfinite(x):
            problems.append("%s missing or not finite: %r" % (path, x))
        elif abs(x) >= tol[key]:
            problems.append("%s = %.3g, tolerance %s = %.3g" % (path, x, key, tol[key]))


def check_model(argv, rc, report):
    problems = _common(rc, report, "model")
    if problems:
        return problems
    res = report["results"]
    tol = report["config"]["tolerances"]
    if _flag(argv, "--metric", "quadric") == "heisenberg":
        _scan(problems, report, HEISENBERG)
        chosen = res.get("sigma_convention")
        cand = res.get("sigma_candidates", {}).get(chosen)
        if cand is None:
            problems.append("no sigma convention chosen")
        elif not (cand["signature_ok"] is True and abs(cand["weyl"]) < tol["weyl_fefferman"]):
            problems.append("sigma convention %s: %r" % (chosen, cand))
        return problems
    table = dict(QUADRIC)
    if "--rescale-seed" in argv:
        table["rescale_invariance"] = "rescale_invariance"
    _scan(problems, report, table)
    chi = res.get("chi") or {}
    for part in ("mean", "stddev"):
        if not abs(chi.get(part, math.inf)) < tol["chi"]:
            problems.append("chi %s = %r" % (part, chi.get(part)))
    for name in ("beta1", "beta2", "beta3"):
        b = res.get("betas", {}).get(name) or {}
        mean, sd = b.get("mean", math.nan), b.get("stddev", math.nan)
        if not mean < 0:
            problems.append("%s mean %r is not negative" % (name, mean))
        if not sd < tol["beta_stddev"] * (1 + abs(mean)):
            problems.append("%s stddev %r" % (name, sd))
    if res.get("felipe", {}).get("pass") is not True:
        problems.append("felipe conditions do not pass")
    return problems


def check_random_metrics(argv, rc, report):
    problems = _common(rc, report, "random-metrics")
    if problems:
        return problems
    res = report["results"]
    dim = int(_flag(argv, "--dim", "4"))
    _scan(problems, report, RANDOM)
    want = 3.0 - dim
    if res.get("expected_constant") != want:
        problems.append("expected_constant %r, 3 - dim = %r" % (res.get("expected_constant"), want))
    fitted = res.get("fitted_constants") or []
    if not fitted:
        problems.append("fitted_constants is empty")
    for f in fitted:
        if not abs(f - want) < 1e-6:
            problems.append("fitted constant %r, 3 - dim = %r" % (f, want))
    return problems


def check_refusal(argv, rc, report):
    """A command outside the supported range must end with a non-zero exit."""
    if rc == 0:
        return ["exit code 0 where a refusal is due"]
    return []


CHECKERS = {
    "cohomology": check_cohomology,
    "inclusions": check_inclusions,
    "model": check_model,
    "random-metrics": check_random_metrics,
}
