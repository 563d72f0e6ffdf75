"""Command-line verification harness with deterministic JSON reports.

Subcommands: cohomology | inclusions | model | random-metrics | dump.
Exit codes: 0 all expectations hold, 2 a mathematical expectation
failed, 3 internal error, 4 usage error (a refused flag or value).
Reports embed the schema version, the full configuration including the
tolerance set, and are byte-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

DEFAULT_TOLERANCES = {
    "lightlike": 1e-10,
    "orthogonal": 1e-10,
    "killing": 1e-9,
    "insertion": 1e-8,
    "chi": 1e-9,
    "beta_stddev": 1e-7,
    "beta_product": 1e-8,
    "k3_match": 1e-8,
    "tractor_rows": 1e-8,
    "felipe": 1e-8,
    "weyl_flat": 1e-8,
    "weyl_fefferman": 1e-6,
    "second_derivative": 1e-7,
    "qc_axioms": 1e-10,
    "vertical_killing": 1e-8,
    "divergence": 1e-6,
    "weyl_trace": 1e-9,
    "weyl_covariance": 1e-7,
    "schouten": 1e-10,
    "sphere_schouten": 1e-9,
    "rescale_invariance": 1e-7,
}


def _chain(n):
    from .gradedlie import build_chain

    return build_chain(n)


def _inclusion_triple(n):
    from . import inclusions as inc

    qc, cr, co = _chain(n)
    phi1 = inc.build_phi_qc_cr(qc, cr)
    phi2 = inc.build_phi_cr_co(cr, co)
    phic = inc.compose(phi1, phi2)
    return qc, cr, co, phi1, phi2, phic


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------


def suite_cohomology(n, progress=None):
    from . import cohomology as coh
    from .gradedlie import build_co, build_qc

    qc = build_qc(n)
    if progress:
        progress("H1 Hodge pass")
    hodge = [coh.hodge_check(qc, 1)]
    h1 = hodge[0]["harmonic"]
    rows_h1 = [
        {"algebra": qc.name, "n_param": n, "degree": 1, "homogeneity": l, "dim": dim}
        for l, dim in h1.items()
    ]
    ok = all(dim == 0 for l, dim in h1.items() if l >= 0)
    h2_range = coh.homogeneity_range(qc, 2)
    if n >= 3:
        h2_range = [l for l in h2_range if l <= 2]
    rows_h2 = []
    hom_dims = {}
    for l in h2_range:
        if progress:
            progress("H2 block l=%d" % l)
        dim, basis, _ = coh.harmonic_space(qc, 2, l)
        contained = (
            all(coh.contained_in_wedge_g0(qc, c) for c in basis) if dim else False
        )
        # the bracket tensor map Z1 ^ Z2 (x) A -> [Z1, Z2] (x) A is -1/2 part 2
        annihilated = all(not coh._part2_ints(qc, c) for c in basis) if dim else False
        hom_dims[l] = dim
        rows_h2.append(
            {
                "algebra": qc.name,
                "n_param": n,
                "degree": 2,
                "homogeneity": l,
                "dim": dim,
                "contained_in_L2g0": contained,
                "annihilated_by_bracket_tensor_id": annihilated,
            }
        )
    if n == 1:
        if hom_dims.get(1, 0) == 0:
            ok = False
        hodge.append(coh.hodge_check(qc, 2))
        co = build_co(7, 3)
        hodge.append({"algebra": co.name, **coh.hodge_check(co, 1)})
    else:
        if hom_dims.get(1, 0) != 0 or hom_dims.get(2, 0) == 0:
            ok = False
        row2 = next(r for r in rows_h2 if r["homogeneity"] == 2)
        if not (row2["contained_in_L2g0"] and row2["annihilated_by_bracket_tensor_id"]):
            ok = False
    ok = ok and all(h["pass"] for h in hodge)
    report = {
        "harmonic_h1": rows_h1,
        "harmonic_h2": rows_h2,
        "hodge": [
            {k: v for k, v in h.items() if k != "harmonic"} for h in hodge
        ],
        "pass": ok,
    }
    return report, ok


def suite_inclusions(n, seeds=100, negative_controls=False, full=False, progress=None):
    from . import inclusions as inc
    from .cohomology import random_cochain

    qc, cr, co, phi1, phi2, phic = _inclusion_triple(n)
    results = {}
    ok = True

    kc = {
        "qc_cr": str(phi1.killing_constant),
        "cr_co": str(phi2.killing_constant),
        "qc_co": str(phic.killing_constant),
    }
    results["killing_constants"] = kc
    direct = inc.GradedInclusion(qc, co)
    coherent = all(direct.img[i] == phic.img[i] for i in range(qc.dim))
    results["composition_coherent"] = coherent
    ok = ok and coherent

    if progress:
        progress("structural conditions")
    s1 = inc.check_structural_conditions(phi1)
    s2 = inc.check_structural_conditions(phi2)
    results["structural"] = [s1, s2]
    ok = ok and s1["pass"] and s2["pass"]
    results["complements"] = {
        "qc_cr": phi1.complement_labels(),
        "cr_co": phi2.complement_labels(),
    }

    if progress:
        progress("transfer identities (%d seeds)" % seeds)
    del1_ok = True
    del2_ok = True
    for seed in range(seeds):
        k = random_cochain(qc, 2, seed, lo=-2, hi=2)
        if not inc.del1_identity_check(phi1, k)["all_exact_zero"]:
            del1_ok = False
        if not inc.del2_identity_check(phi1, k, "i")["all_exact_zero"]:
            del2_ok = False
        kc2 = random_cochain(cr, 2, seed, lo=-2, hi=2)
        if not inc.del1_identity_check(phi2, kc2)["all_exact_zero"]:
            del1_ok = False
    results["del1_all_exact_zero"] = del1_ok
    results["del2_all_exact_zero"] = del2_ok
    results["del_seeds"] = seeds
    ok = ok and del1_ok and del2_ok

    if progress:
        progress("trace pairings")
    tp = inc.trace_pairing_check(qc, phic)
    results["trace_pairings"] = tp
    ok = ok and tp["pass"]

    sc1 = inc.scaling_compat_check(phi1)
    sc2 = inc.scaling_compat_check(phi2)
    results["scaling_compatibility"] = [sc1, sc2]
    ok = ok and sc1["pass"] and sc2["pass"]

    if n == 1 or full:
        if progress:
            progress("normality transfer (solution space)")
        nt = inc.normality_transfer_check(qc, phi1, phic)
        results["normality_transfer"] = nt
        ok = ok and nt["all_exact_zero"] and nt["dim_solution_space"] > 0
        if progress:
            progress("inverse normality (solution space)")
        it = inc.inverse_normality_check(qc, cr, co, phi2, phic)
        results["inverse_normality"] = it
        ok = (
            ok
            and it["all_exact_zero"]
            and it["qc_trace_identity_constant"] is not None
            and it["cr_corner_square_constant"] is not None
        )

    if negative_controls:
        if progress:
            progress("negative controls")
        bad = inc.degree_shuffled_inclusion(phi1)
        ctl1 = inc.check_structural_conditions(bad)
        ctl2 = inc.normality_negative_control(qc, phi1)
        ctl3 = inc.inverse_negative_control(qc, cr, co, phi2, phic)
        ctl4 = inc.scaling_compat_check(phi1, wrong_element=True)
        controls_ok = (
            (not ctl1["pass"]) and ctl2["pass"] and ctl3["pass"] and (not ctl4["pass"])
        )
        results["negative_controls"] = {
            "structural_fails": not ctl1["pass"],
            "normality_fails": ctl2["pass"],
            "inverse_fails_without_traces": ctl3["pass"],
            "scaling_fails_for_noncentral": not ctl4["pass"],
            "pass": controls_ok,
        }
        ok = ok and controls_ok

    return results, ok


def _quadric_point(chart, fields, point, killing_check, seed):
    """Every per-point figure of the quadric suite from one geometry evaluation.

    One CurvatureData and one TractorData per field serve every check,
    the light-like and orthogonal products included; k3's tractor is
    built only when ``killing_check`` asks for the three fields' Killing
    residuals.  Returns {figure: list of residuals}, plus the Sparling
    scalars and k3's chart value, and drops the tensors on return.
    """
    from . import charts as ch

    k1, k2, k3 = fields
    curv = ch.CurvatureData(chart, point)
    t1 = ch.TractorData(curv, k1)
    t2 = ch.TractorData(curv, k2)
    g, v1, v2 = curv.g, t1.k, t2.k
    killing = []
    if killing_check:
        t3 = ch.TractorData(curv, k3)
        killing = [t.killing_residual for t in (t1, t2, t3)]
    tc = ch.trace_contractions(t1)
    rng = np.random.default_rng(seed + 17)
    return {
        "lightlike": [abs(float(v @ g @ v)) for v in (v1, v2)],
        "orthogonal": [abs(float(v1 @ g @ v2))],
        "killing": killing,
        "weyl": [float(np.max(np.abs(curv.weyl)))],
        "insertions": [tc["k_into_weyl"], tc["k_into_cotton"]],
        "tractor_rows": [
            t1.tractor_residual(rng.uniform(-1, 1, chart.dim)) for _ in range(3)
        ],
        "second_derivative_identity": [ch.second_derivative_identity_residual(t1)],
        "sparling": ch.sparling_scalars(t1, t2),
        "k3_model": k3.values(point),
    }


def _fefferman_point(chart, fields, point):
    """Signature, Weyl size and the vertical fields' residuals from one geometry evaluation.

    Reads only the eager fields of the point's CurvatureData and
    TractorData, so neither builds its late part.
    """
    from . import charts as ch

    curv = ch.CurvatureData(chart, point)
    light, killing = [], []
    for fld in fields:
        td = ch.TractorData(curv, fld)
        light.append(abs(float(td.k @ curv.g @ td.k)))
        killing.append(td.killing_residual)
    return {
        "signature": ch.signature(curv.g),
        "weyl": [float(np.max(np.abs(curv.weyl)))],
        "lightlike": light,
        "killing": killing,
    }


def _worst_of(rows, key):
    from .charts import worst

    return worst(x for row in rows for x in row[key])


def suite_model(n, samples=20, seed=0, metric="quadric", rescale_seed=None, tol=None):
    from . import charts as ch
    from . import models as mo

    tol = dict(DEFAULT_TOLERANCES, **(tol or {}))
    results = {}
    ok = True
    if metric == "quadric":
        chart, k1, k2, k3 = mo.quadric_model(n)
        pts = chart.sample_points(samples, seed)
        killing_pts = max(4, samples // 4)
        rows = [
            _quadric_point(chart, (k1, k2, k3), p, i < killing_pts, seed)
            for i, p in enumerate(pts)
        ]
        light = _worst_of(rows, "lightlike")
        orth = _worst_of(rows, "orthogonal")
        killing = _worst_of(rows, "killing")
        results["lightlike"] = light
        results["orthogonal"] = orth
        results["killing"] = killing
        ok &= light < tol["lightlike"] and orth < tol["orthogonal"]
        ok &= killing < tol["killing"]

        weyl_max = _worst_of(rows, "weyl")
        insert_max = _worst_of(rows, "insertions")
        tr_rows = _worst_of(rows, "tractor_rows")
        secder = _worst_of(rows, "second_derivative_identity")
        results["weyl"] = weyl_max
        results["insertions"] = insert_max
        results["tractor_rows"] = tr_rows
        results["second_derivative_identity"] = secder
        ok &= weyl_max < tol["weyl_flat"]
        ok &= insert_max < tol["insertion"]
        ok &= tr_rows < tol["tractor_rows"]
        ok &= secder < tol["second_derivative"]

        sp = ch.sparling_summary([row["sparling"] for row in rows])
        results["chi"] = sp["chi"]
        results["betas"] = {
            "beta1": sp["beta1"],
            "beta2": sp["beta2"],
            "beta3": sp["beta3"],
        }
        results["beta_product_residual"] = sp["beta_product_residual"]
        chi_ok = abs(sp["chi"]["mean"]) < tol["chi"] and sp["chi"]["stddev"] < tol["chi"]
        betas_ok = all(
            sp[b]["mean"] < 0 and sp[b]["stddev"] < tol["beta_stddev"] * (1 + abs(sp[b]["mean"]))
            for b in ("beta1", "beta2", "beta3")
        )
        ok &= chi_ok and betas_ok
        ok &= sp["beta_product_residual"] < tol["beta_product"]

        k3_model = [row["k3_model"] for row in rows]
        num = sum(float(a @ b) for a, b in zip(sp["k3_values"], k3_model))
        den = sum(float(b @ b) for b in k3_model)
        scale = num / den
        k3_res = ch.worst(
            np.max(np.abs(a - scale * b)) for a, b in zip(sp["k3_values"], k3_model)
        )
        results["k3_scale"] = scale
        results["k3_match"] = k3_res
        ok &= k3_res < tol["k3_match"]

        # the only repeat builds: beta1's mean over every point rescales k1
        fel = ch.felipe_conditions(chart, k1, pts[:4], sp["beta1"]["mean"], tol["felipe"])
        results["felipe"] = fel
        ok &= fel["pass"]

        if rescale_seed is not None:
            cf = ch.random_conf_factor(chart.dim, rescale_seed, scale=0.05)
            resc = chart.rescaled(cf)
            sp2 = ch.sparling_invariants(resc, k1, k2, pts[:4])
            inv_res = ch.worst(
                abs(sp2[key]["mean"] - sp[key]["mean"]) for key in ("chi", "beta1", "beta2")
            )
            results["rescale_invariance"] = inv_res
            ok &= inv_res < tol["rescale_invariance"]
    elif metric == "heisenberg":
        qc = mo.heisenberg_qc(n)
        pts = qc.sample_points(samples, seed)
        axioms = qc.structure_report(pts)
        results["qc_axioms"] = axioms
        ok &= all(v < tol["qc_axioms"] for v in axioms.values())

        fields = mo.sp1_fundamental_fields(qc)
        candidates = {}
        vertical = {}
        chosen = None
        for name, rotate in (("maurer_cartan", False), ("adjoint_rotated", True)):
            fm = mo.fefferman_metric(qc, rotate_eta=rotate)
            fpts = fm.sample_points(max(4, samples // 4), seed + 1)
            rows = [_fefferman_point(fm, fields, p) for p in fpts]
            sig_ok = all(row["signature"] == (4 * n + 3, 3) for row in rows)
            weyl = _worst_of(rows, "weyl")
            candidates[name] = {"signature_ok": sig_ok, "weyl": weyl}
            vertical[name] = (_worst_of(rows, "lightlike"), _worst_of(rows, "killing"))
            if sig_ok and weyl < tol["weyl_fefferman"] and chosen is None:
                chosen = name
        results["sigma_candidates"] = candidates
        results["sigma_convention"] = chosen
        ok &= chosen is not None

        # with no candidate chosen, report the Maurer-Cartan figures
        light, vk = vertical[chosen or "maurer_cartan"]
        results["vertical_lightlike"] = light
        results["vertical_killing"] = vk
        ok &= light < tol["vertical_killing"] and vk < tol["vertical_killing"]
    else:
        raise ValueError("unknown model metric %r" % metric)
    return results, bool(ok)


def suite_random_metrics(dim, count=10, seed=0, tol=None):
    from . import charts as ch

    tol = dict(DEFAULT_TOLERANCES, **(tol or {}))
    results = {}
    ok = True
    worst_div, worst_tr, worst_cov, worst_sch = 0.0, 0.0, 0.0, 0.0
    fitted = []
    for s in range(count):
        chart = ch.random_polynomial_chart(dim, seed + s)
        pt = chart.sample_points(1, seed + s)[0]
        curv = ch.CurvatureData(chart, pt)
        res, fit = curv.weyl_divergence_residual()
        tr, sch = curv.weyl_trace_residual(), curv.schouten_residual()
        cf = ch.random_conf_factor(dim, seed + s)
        cov = ch.weyl_conformal_covariance_residual(curv, cf)
        # max() below drops a NaN, so a non-finite residual fails here
        ok &= bool(np.isfinite([res, tr, sch, cov]).all())
        worst_div = max(worst_div, res)
        worst_tr = max(worst_tr, tr)
        worst_sch = max(worst_sch, sch)
        worst_cov = max(worst_cov, cov)
        if fit is not None:
            fitted.append(fit)
    results["divergence_residual"] = worst_div
    results["fitted_constants"] = fitted
    results["expected_constant"] = 3.0 - dim
    results["weyl_trace_residual"] = worst_tr
    results["weyl_covariance_residual"] = worst_cov
    results["schouten_residual"] = worst_sch
    ok &= worst_div < tol["divergence"]
    ok &= worst_tr < tol["weyl_trace"]
    ok &= worst_cov < tol["weyl_covariance"]
    ok &= worst_sch < tol["schouten"]
    ok &= all(abs(f - (3.0 - dim)) < 1e-6 for f in fitted)

    sphere = ch.sphere_chart(4)
    spt = sphere.sample_points(1, seed)[0]
    sc = ch.CurvatureData(sphere, spt)
    sph_res = float(np.max(np.abs(sc.P + 0.5 * sc.g)))
    results["sphere_schouten_residual"] = sph_res
    ok &= sph_res < tol["sphere_schouten"]

    flat = ch.flat_chart(dim)
    fc = ch.CurvatureData(flat, flat.sample_points(1, seed)[0])
    flat_max = ch.worst(np.max(np.abs(t)) for t in (fc.riem, fc.weyl, fc.cotton))
    results["flat_residual"] = flat_max
    ok &= flat_max == 0.0
    return results, bool(ok)


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


class UsageError(ValueError):
    """A command line the suites refuse; main exits 4."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise UsageError(message)


def _parse_tolerances(pairs):
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise UsageError("tolerance overrides take the form KEY=VALUE")
        k, v = item.split("=", 1)
        if k not in DEFAULT_TOLERANCES:
            raise UsageError("unknown tolerance key %r" % k)
        try:
            out[k] = float(v)
        except ValueError:
            raise UsageError("tolerance %s takes a number, not %r" % (k, v)) from None
        # inf would pass every check and 0 or less fail every one; inf and nan are not JSON
        if not (math.isfinite(out[k]) and out[k] > 0):
            raise UsageError("tolerance %s must be finite and positive, not %r" % (k, v))
    return out


def _emit(report, args):
    if args.format == "markdown":
        text = _to_markdown(report)
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _to_markdown(report):
    lines = ["# %s report" % report.get("suite", "verification"), ""]
    lines.append("| key | value |")
    lines.append("| --- | --- |")

    def flatten(prefix, obj):
        if isinstance(obj, dict):
            for k in sorted(obj):
                flatten("%s.%s" % (prefix, k) if prefix else str(k), obj[k])
        elif isinstance(obj, list):
            for i, v in enumerate(obj):
                flatten("%s[%d]" % (prefix, i), v)
        else:
            lines.append("| %s | %s |" % (prefix, obj))

    flatten("", report)
    return "\n".join(lines) + "\n"


def _progress(msg):
    print("... " + msg, file=sys.stderr, flush=True)


def main(argv=None):
    parser = _Parser(
        prog="qcfeff", description="verification suites for qc Fefferman structures"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--samples", type=int, default=20)
        p.add_argument("--tolerance", action="append", metavar="KEY=VAL")
        p.add_argument("--out", default=None)
        p.add_argument("--format", choices=("json", "markdown"), default="json")

    p = sub.add_parser("cohomology", help="harmonic space tables and Hodge checks")
    common(p)

    p = sub.add_parser("inclusions", help="graded inclusion and transfer checks")
    common(p)
    p.add_argument("--seeds", type=int, default=100)
    p.add_argument("--negative-controls", action="store_true")
    p.add_argument("--full", action="store_true", help="solution spaces also for n>1")

    p = sub.add_parser("model", help="model-space verification suites")
    common(p)
    p.add_argument("--metric", choices=("quadric", "heisenberg"), default="quadric")
    p.add_argument("--rescale-seed", type=int, default=None)

    p = sub.add_parser("random-metrics", help="tensor-calculus identity suites")
    common(p)
    p.add_argument("--dim", type=int, default=4)
    p.add_argument("--count", type=int, default=10)

    p = sub.add_parser("dump", help="serialize a graded algebra to JSON")
    common(p)
    p.add_argument("--algebra", choices=("qc", "cr", "co"), default="qc")

    try:
        args = parser.parse_args(argv)
        for flag in ("n", "samples", "seeds", "count"):
            if getattr(args, flag, 1) < 1:
                raise UsageError("--%s must be at least 1" % flag)
        tol = _parse_tolerances(args.tolerance)
        if args.command == "cohomology" and not 1 <= args.n <= 3:
            raise UsageError("cohomology supports n in {1, 2, 3}")
        if args.command == "random-metrics" and args.dim < 3:
            raise UsageError("random-metrics supports dim >= 3")
    except UsageError as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 4
    try:
        config = {
            "n": args.n,
            "seed": args.seed,
            "samples": args.samples,
            "tolerances": dict(DEFAULT_TOLERANCES, **tol),
        }
        if args.command == "cohomology":
            results, ok = suite_cohomology(args.n, progress=_progress if args.n > 1 else None)
        elif args.command == "inclusions":
            results, ok = suite_inclusions(
                args.n,
                seeds=args.seeds,
                negative_controls=args.negative_controls,
                full=args.full,
                progress=_progress,
            )
            config["seeds"] = args.seeds
        elif args.command == "model":
            results, ok = suite_model(
                args.n,
                samples=args.samples,
                seed=args.seed,
                metric=args.metric,
                rescale_seed=args.rescale_seed,
                tol=tol,
            )
            config["metric"] = args.metric
            config["rescale_seed"] = args.rescale_seed
        elif args.command == "random-metrics":
            results, ok = suite_random_metrics(
                args.dim, count=args.count, seed=args.seed, tol=tol
            )
            config["dim"] = args.dim
            config["count"] = args.count
        elif args.command == "dump":
            from .gradedlie import build_co, build_cr, build_qc

            n = args.n
            alg = {
                "qc": lambda: build_qc(n),
                "cr": lambda: build_cr(2 * n + 1, 1),
                "co": lambda: build_co(4 * n + 3, 3),
            }[args.algebra]()
            results, ok = alg.serialize(), True
        else:  # pragma: no cover
            raise ValueError(args.command)
        report = {
            "schema": "1",
            "suite": args.command,
            "config": config,
            "results": results,
            "pass": bool(ok),
        }
        _emit(report, args)
        return 0 if ok else 2
    except BrokenPipeError:  # pragma: no cover
        return 3
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print("internal error: %s" % exc, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
