"""Jet-based pseudo-Riemannian calculus on coordinate charts.

A chart supplies a jet-evaluable metric; curvature tensors are
assembled from Taylor coefficients at sample points, which are exact to
truncation order, so residual noise comes only from float conditioning.
Curvature and tractor data always read jets of order 3: the Cotton
tensor, the Weyl divergence and the derivative rows of the tractor
connection take third derivatives of the metric and of the field.

A check pays only for the fields it reads.  A CurvatureData evaluates
its point's order-3 jets once, in its constructor, and builds eagerly
everything up to the Weyl tensor; the second derivatives of the inverse
metric (d2ginv) and the fields that differentiate the Ricci and Schouten
tensors (gamtr, dgamtr, d2gamtr, dric, dscal, dP, covP, cotton) are
built together on the first read of any of them.  A
TractorData takes the field's jets and its conformal Killing figures,
up to killing_residual, eagerly, and the tractor components from dalpha
through n2k on first read.  A Fefferman point, which reads only g, weyl
and each field's k and killing_residual, builds neither late part.

Apart from the jet tensor d3g, a CurvatureData holds no array with five
indices.  Of the second derivatives of the Christoffel
symbols and the first derivatives of the Riemann tensor it builds only
the two traces that anything reads: d2gamtr (for the tractor data) and
dric (for the derivative of the Schouten tensor and the Cotton tensor).
The full derivative of the Riemann tensor exists only inside
weyl_divergence, which the random-metric identity suite calls.

Sign conventions, fixed here and arbitrated by the identity suites:
R(u,v)w = [nabla_u, nabla_v]w - nabla_[u,v]w (round sphere positively
curved); the Schouten tensor solves Ric + (m-2) P + tr(P) g = 0, so the
round-sphere value is -g/2; Weyl = Riem - KulkarniNomizu(P, g), which
is trace free exactly because of the defining Schouten relation; Cotton
C(u,v,w) = (nabla_u P)(v,w) - (nabla_v P)(u,w).  The contracted Bianchi
identity then reads g^{ae} (nabla_e W)(u,v,w,e_a) = (3-m) C(u,v,w),
which weyl_divergence_residual verifies (and fits empirically).

Index layout: dg[a,b,c] = d_c g_ab, d2g[a,b,c,d] = d_c d_d g_ab,
gamma[a,b,c] = Gamma^a_bc, riem[a,b,c,d] = R^a_bcd (value slot b,
antisymmetric in c,d), r4[x,y,z,t] = g(R(x,y)z, t), d2gamtr[c,e,f] =
d_e d_f Gamma^a_ac, dric[b,d,e] = d_e Ric_bd.
"""

from __future__ import annotations

import math

import numpy as np

from .jets import Jet, jet_space, jet_variables


# candidates per draw in MetricChart.sample_points; a 14-dimensional ball
# keeps about one cube point in 27,000
_SAMPLE_BATCH = 4096

# Fixed pairwise contraction paths, left to right, for the multi-operand
# einsum calls of a CurvatureData build.  einsum's default runs one joint
# loop over every summed index (m^6 terms for "ae,efcd,fb->abcd"); a pair
# at a time it is a few m^5 products, often handed to tensordot.  The paths
# are literals, so none is searched at run time.  The vector-sized
# contractions of the tractor and Sparling checks keep the default, which
# costs less than parsing a path.
_PATH2 = ("einsum_path", (0, 1))
_PATH3 = ("einsum_path", (0, 1), (0, 1))


class ChartError(RuntimeError):
    pass


class NotConformalKilling(ChartError):
    pass


def worst(values):
    """The largest of some non-negative residuals, failing closed.

    A plain max() keeps its running value when a later one is NaN
    (max(0.0, nan) is 0.0); here a NaN anywhere makes the result NaN,
    so every ``worst(...) < tol`` test on it fails.
    """
    out = 0.0
    for v in values:
        v = float(v)
        if math.isnan(v):
            return v
        if v > out:
            out = v
    return out


def signature(g, tol=1e-10):
    """(positive, negative) eigenvalue counts of a metric at a point."""
    ev = np.linalg.eigvalsh(g)
    if np.any(np.abs(ev) <= tol):
        raise ChartError("metric numerically degenerate")
    return int(np.sum(ev > 0)), int(np.sum(ev < 0))


class _BuiltOnFirstRead:
    """The constructor builds the eager fields; ``_build_late`` builds
    those named in ``_LATE`` on the first read of any of them.

    ``__getattr__`` runs only for a name the instance does not hold, so
    later reads are plain attribute lookups.
    """

    def __getattr__(self, name):
        if name not in self._LATE:
            raise AttributeError(
                "%r object has no attribute %r" % (type(self).__name__, name)
            )
        self._build_late()
        return vars(self)[name]


class MetricChart:
    """Coordinate chart with a jet-evaluable metric field."""

    def __init__(self, name, dim, metric_fn, center=None, radius=1.0):
        self.name = name
        self.dim = dim
        self.metric_fn = metric_fn
        self.center = np.zeros(dim) if center is None else np.asarray(center, float)
        self.radius = radius

    def sample_points(self, count, seed=0):
        """``count`` points of the ball of radius 0.9 * radius about the center.

        Candidates u are drawn from the unit cube and kept when
        u.u <= 1.  They are drawn in batches from one generator, which
        yields the same numbers as one draw at a time; a vectorised norm
        with slack for rounding picks the rows that get the exact test,
        so the points are those of the one-at-a-time loop.
        """
        rng = np.random.default_rng(seed)
        pts = []
        while len(pts) < count:
            batch = rng.uniform(-1.0, 1.0, (_SAMPLE_BATCH, self.dim))
            near = np.einsum("ij,ij->i", batch, batch) <= 1.0 + 1e-9
            for i in np.flatnonzero(near):
                u = batch[i]
                if float(np.dot(u, u)) <= 1.0:
                    pts.append(self.center + 0.9 * self.radius * u)
                    if len(pts) == count:
                        break
        return pts

    def metric_jets(self, point, order):
        xs = jet_variables(point, order)
        rows = self.metric_fn(xs)
        sp = jet_space(self.dim, order)
        out = np.zeros((self.dim, self.dim, sp.size))
        for a in range(self.dim):
            for b in range(self.dim):
                v = rows[a][b]
                if isinstance(v, Jet):
                    out[a, b] = v.coef
                else:
                    out[a, b, 0] = float(v)
        return out

    def rescaled(self, conf_fn, name=None):
        """The chart with metric exp(2 phi) g for a jet-evaluable phi."""

        def metric(xs):
            rows = self.metric_fn(xs)
            factor = (conf_fn(xs) * 2.0).exp()
            return [
                [factor * rows[a][b] for b in range(self.dim)] for a in range(self.dim)
            ]

        return MetricChart(
            name or self.name + "+rescaled",
            self.dim,
            metric,
            self.center,
            self.radius,
        )


class VectorFieldOnChart:
    """Jet-evaluable vector field in chart coordinates."""

    def __init__(self, label, dim, components_fn):
        self.label = label
        self.dim = dim
        self.components_fn = components_fn

    def jets(self, point, order):
        xs = jet_variables(point, order)
        comps = self.components_fn(xs)
        sp = jet_space(self.dim, order)
        out = np.zeros((self.dim, sp.size))
        for a in range(self.dim):
            v = comps[a]
            if isinstance(v, Jet):
                out[a] = v.coef
            else:
                out[a, 0] = float(v)
        return out

    def values(self, point):
        return self.jets(point, 1)[:, 0]

    def scaled(self, factor):
        fn = self.components_fn
        return VectorFieldOnChart(
            "%s*%.6g" % (self.label, factor),
            self.dim,
            lambda xs: [c * factor for c in fn(xs)],
        )


class CurvatureData(_BuiltOnFirstRead):
    """Curvature tensors of a chart metric at one point."""

    _LATE = frozenset(
        ("d2ginv", "gamtr", "dgamtr", "d2gamtr", "dric", "dscal", "dP", "covP", "cotton")
    )

    def __init__(self, chart: MetricChart, point):
        self.chart = chart
        self.point = np.asarray(point, float)
        m = chart.dim
        self.m = m
        sp = jet_space(m, 3)
        jets = chart.metric_jets(self.point, 3)
        self.g = jets[:, :, 0].copy()
        if abs(np.linalg.det(self.g)) < 1e-12:
            raise ChartError("metric degenerate at sample point")
        self.dg = sp.derivative_tensor(jets, 1)
        self.d2g = sp.derivative_tensor(jets, 2)
        self.d3g = sp.derivative_tensor(jets, 3)
        self.ginv = np.linalg.inv(self.g)
        self._build()

    def _build(self):
        g, dg, d2g, ginv = self.g, self.dg, self.d2g, self.ginv
        m = self.m
        dginv = -np.einsum("ae,efc,fb->abc", ginv, dg, ginv, optimize=_PATH3)
        self.dginv = dginv

        gamma_low = 0.5 * (
            dg + np.einsum("dcb->dbc", dg) - np.einsum("bcd->dbc", dg)
        )
        self.gamma = np.einsum("ad,dbc->abc", ginv, gamma_low, optimize=_PATH2)

        dgamma_low = 0.5 * (
            d2g + np.einsum("dcbe->dbce", d2g) - np.einsum("bcde->dbce", d2g)
        )
        self.dgamma = np.einsum(
            "ad,dbce->abce", ginv, dgamma_low, optimize=_PATH2
        ) + np.einsum("ade,dbc->abce", dginv, gamma_low, optimize=_PATH2)

        self.gamma_low, self.dgamma_low = gamma_low, dgamma_low

        gam, dgam = self.gamma, self.dgamma
        self.riem = (
            np.einsum("adbc->abcd", dgam)
            - np.einsum("acbd->abcd", dgam)
            + np.einsum("ace,edb->abcd", gam, gam, optimize=_PATH2)
            - np.einsum("ade,ecb->abcd", gam, gam, optimize=_PATH2)
        )
        self.ric = np.einsum("abad->bd", self.riem)
        self.scal = float(np.einsum("bd,bd->", ginv, self.ric, optimize=_PATH2))
        trp = -self.scal / (2.0 * (m - 1))
        self.trP = trp
        self.P = -(self.ric - (self.scal / (2.0 * (m - 1))) * g) / (m - 2)
        self.r4 = np.einsum("ta,azxy->xyzt", g, self.riem, optimize=_PATH2)
        self.weyl = self.r4 - _kulkarni(self.P, g)

    def _build_late(self):
        """The second derivatives of the inverse metric, the derivatives of the
        Ricci and Schouten tensors, and the Cotton tensor."""
        g, dg, d2g, d3g, ginv = self.g, self.dg, self.d2g, self.d3g, self.ginv
        dginv = self.dginv
        d2ginv = -(
            np.einsum("aed,efc,fb->abcd", dginv, dg, ginv, optimize=_PATH3)
            + np.einsum("ae,efcd,fb->abcd", ginv, d2g, ginv, optimize=_PATH3)
            + np.einsum("ae,efc,fbd->abcd", ginv, dg, dginv, optimize=_PATH3)
        )
        self.d2ginv = d2ginv
        gamma_low, dgamma_low = self.gamma_low, self.dgamma_low
        gam, dgam = self.gamma, self.dgamma
        m = self.m

        # Two traces of d2gamma and driem, built without either array.
        # trIJ contracts slots I and J of d3g with ginv.  d3g is symmetric
        # in its three derivative slots, and derivative_tensor stores them
        # outermost, so d3z[c,d,e,a,b] = d3g[a,b,c,d,e] is C-contiguous and
        # each trace is a matrix-vector product on a view of it.
        d3z = d3g.transpose(2, 3, 4, 0, 1)
        w = ginv.T.ravel()  # w[x*m + a] = ginv[a, x]
        tr01 = (d3z.reshape(-1, m * m) @ w).reshape(m, m, m)
        tr34 = (w @ d3z.reshape(m * m, -1)).reshape(m, m, m).transpose(1, 2, 0)
        tr04 = (ginv.ravel() @ d3z.reshape(m * m, m * m, m)).reshape(m, m, m)
        tr04 = tr04.transpose(2, 0, 1)
        self.gamtr = np.einsum("aae->e", gam)
        self.dgamtr = np.einsum("aaec->ec", dgam)
        # d2gamtr[c,e,f] = d_e d_f Gamma^a_ac, where Gamma^a_ac = g^ad d_c g_da / 2
        self.d2gamtr = 0.5 * (
            tr01
            + np.einsum("ade,dacf->cef", dginv, d2g, optimize=_PATH2)
            + np.einsum("adf,dace->cef", dginv, d2g, optimize=_PATH2)
            + np.einsum("adef,dac->cef", d2ginv, dg, optimize=_PATH2)
        )
        # dric[b,d,e] = d_e Ric_bd = d_e R^a_bad: d_a d_e Gamma^a_db, minus
        # d2gamtr, plus the Gamma dGamma products of d_e R^a_bad
        dginv_tr = np.einsum("axa->x", dginv)
        d2ginv_tr = np.einsum("axae->xe", d2ginv)
        div_d2gamma = (
            0.5 * (np.einsum("dbe->bde", tr04 - tr34) + tr04)
            + np.einsum("x,xdbe->bde", dginv_tr, dgamma_low, optimize=_PATH2)
            + np.einsum("axe,xdba->bde", dginv, dgamma_low, optimize=_PATH2)
            + np.einsum("xe,xdb->bde", d2ginv_tr, gamma_low, optimize=_PATH2)
        )
        self.dric = (
            div_d2gamma
            - self.d2gamtr
            + np.einsum("fe,fdb->bde", self.dgamtr, gam, optimize=_PATH2)
            + np.einsum("f,fdbe->bde", self.gamtr, dgam, optimize=_PATH2)
            - np.einsum("adfe,fab->bde", dgam, gam, optimize=_PATH2)
            - np.einsum("adf,fabe->bde", gam, dgam, optimize=_PATH2)
        )
        self.dscal = np.einsum(
            "bd,bde->e", ginv, self.dric, optimize=_PATH2
        ) + np.einsum("bde,bd->e", dginv, self.ric, optimize=_PATH2)
        self.dP = -(
            self.dric
            - np.einsum(
                "e,bd->bde", self.dscal / (2.0 * (m - 1)), g, optimize=_PATH2
            )
            - (self.scal / (2.0 * (m - 1))) * dg
        ) / (m - 2)
        # covP[c,a,b] = (nabla_c P)(a, b)
        self.covP = (
            np.einsum("abc->cab", self.dP)
            - np.einsum("eca,eb->cab", gam, self.P, optimize=_PATH2)
            - np.einsum("ecb,ae->cab", gam, self.P, optimize=_PATH2)
        )
        self.cotton = self.covP - np.einsum("cab->acb", self.covP)

    def _driem(self):
        """driem[a,b,c,d,e] = d_e R^a_bcd, built in full from d2gamma."""
        ginv, d3g, dginv, d2ginv = self.ginv, self.d3g, self.dginv, self.d2ginv
        gamma_low, dgamma_low = self.gamma_low, self.dgamma_low
        gam, dgam = self.gamma, self.dgamma
        d2gamma_low = 0.5 * (
            d3g
            + np.einsum("dcbef->dbcef", d3g)
            - np.einsum("bcdef->dbcef", d3g)
        )
        d2gam = (
            np.einsum("ad,dbcef->abcef", ginv, d2gamma_low, optimize=_PATH2)
            + np.einsum("ade,dbcf->abcef", dginv, dgamma_low, optimize=_PATH2)
            + np.einsum("adf,dbce->abcef", dginv, dgamma_low, optimize=_PATH2)
            + np.einsum("adef,dbc->abcef", d2ginv, gamma_low, optimize=_PATH2)
        )
        return (
            np.einsum("adbce->abcde", d2gam)
            - np.einsum("acbde->abcde", d2gam)
            + np.einsum("acfe,fdb->abcde", dgam, gam, optimize=_PATH2)
            + np.einsum("acf,fdbe->abcde", gam, dgam, optimize=_PATH2)
            - np.einsum("adfe,fcb->abcde", dgam, gam, optimize=_PATH2)
            - np.einsum("adf,fcbe->abcde", gam, dgam, optimize=_PATH2)
        )

    # -- residuals ----------------------------------------------------------

    def schouten_residual(self):
        res = self.ric + (self.m - 2) * self.P + self.trP * self.g
        return float(np.max(np.abs(res))) / (1.0 + float(np.max(np.abs(self.ric))))

    def weyl_trace_residual(self):
        scale = 1.0 + float(np.max(np.abs(self.weyl)))
        specs = ("xz,xyzt->yt", "xt,xyzt->yz", "yt,xyzt->xz", "xy,xyzt->zt")
        return worst(
            np.max(np.abs(np.einsum(spec, self.ginv, self.weyl))) for spec in specs
        ) / scale

    def weyl_divergence(self):
        """g^{et} (nabla_e W)(x, y, z, t).

        The covariant derivative of the Weyl tensor and the derivative of
        the Riemann tensor it starts from are m^5 arrays that only this
        check reads, so they are built here, not with the rest.
        """
        g, dg, weyl = self.g, self.dg, self.weyl
        gam_t = self.gamma.transpose((0, 2, 1))
        dr4 = np.einsum("tae,azxy->xyzte", dg, self.riem) + np.einsum(
            "ta,azxye->xyzte", g, self._driem()
        )
        dweyl = dr4 - _dkulkarni(self.P, self.dP, g, dg)
        covw = (
            np.einsum("xyzte->exyzt", dweyl)
            - np.einsum("fex,fyzt->exyzt", gam_t, weyl)
            - np.einsum("fey,xfzt->exyzt", gam_t, weyl)
            - np.einsum("fez,xyft->exyzt", gam_t, weyl)
            - np.einsum("fet,xyzf->exyzt", gam_t, weyl)
        )
        return np.einsum("et,exyzt->xyz", self.ginv, covw)

    def weyl_divergence_residual(self):
        """Residual against (3-m) Cotton, plus the empirically fitted factor."""
        div = self.weyl_divergence()
        cot = self.cotton
        scale = 1.0 + float(np.max(np.abs(div))) + float(np.max(np.abs(cot)))
        res = float(np.max(np.abs(div - (3.0 - self.m) * cot))) / scale
        denom = float(np.sum(cot * cot))
        fitted = float(np.sum(div * cot) / denom) if denom > 1e-18 else None
        return res, fitted


def _kulkarni(p, g):
    return (
        np.einsum("xz,yt->xyzt", p, g, optimize=_PATH2)
        + np.einsum("yt,xz->xyzt", p, g, optimize=_PATH2)
        - np.einsum("xt,yz->xyzt", p, g, optimize=_PATH2)
        - np.einsum("yz,xt->xyzt", p, g, optimize=_PATH2)
    )


def _dkulkarni(p, dp, g, dg):
    return (
        np.einsum("xze,yt->xyzte", dp, g)
        + np.einsum("xz,yte->xyzte", p, dg)
        + np.einsum("yte,xz->xyzte", dp, g)
        + np.einsum("yt,xze->xyzte", p, dg)
        - np.einsum("xte,yz->xyzte", dp, g)
        - np.einsum("xt,yze->xyzte", p, dg)
        - np.einsum("yze,xt->xyzte", dp, g)
        - np.einsum("yz,xte->xyzte", p, dg)
    )


# ---------------------------------------------------------------------------
# conformal Killing analysis and adjoint-tractor components
# ---------------------------------------------------------------------------


class TractorData(_BuiltOnFirstRead):
    """Adjoint-tractor components (gamma, -alpha, K, k) of a vector field."""

    _LATE = frozenset(
        ("dalpha", "d2alpha", "dkflat", "K", "dK", "Pk", "gamma1", "dPk", "dgamma1", "nk", "n2k")
    )

    def __init__(self, curv: CurvatureData, field: VectorFieldOnChart):
        self.curv = curv
        self.field = field
        sp = jet_space(curv.m, 3)
        kj = field.jets(curv.point, 3)
        self.k = kj[:, 0].copy()
        self.dk = sp.derivative_tensor(kj, 1)
        self.d2k = sp.derivative_tensor(kj, 2)
        self.d3k = sp.derivative_tensor(kj, 3)
        self._build()

    def _build(self):
        c = self.curv
        g, dg, gam = c.g, c.dg, c.gamma
        m = c.m
        k, dk = self.k, self.dk

        self.lie_g = (
            np.einsum("abc,c->ab", dg, k)
            + np.einsum("cb,ca->ab", g, dk)
            + np.einsum("ac,cb->ab", g, dk)
        )
        div = float(np.trace(dk)) + float(np.einsum("aae,e->", gam, k))
        self.lam = 2.0 * div / m
        self.alpha = self.lam / 2.0
        self.killing_residual = float(
            np.max(np.abs(self.lie_g - self.lam * g))
        ) / (1.0 + float(np.max(np.abs(g))))

    def _build_late(self):
        """The derivatives of alpha, the tractor one-form and K, and nabla k."""
        c = self.curv
        g, dg, d2g, ginv, gam = c.g, c.dg, c.d2g, c.ginv, c.gamma
        m = c.m
        k, dk, d2k = self.k, self.dk, self.d2k

        # alpha derivatives (alpha = div(k)/m)
        gamtr, dgamtr, d2gamtr = c.gamtr, c.dgamtr, c.d2gamtr
        dalpha = (
            np.einsum("aac->c", d2k)
            + np.einsum("ec,e->c", dgamtr, k)
            + np.einsum("e,ec->c", gamtr, dk)
        ) / m
        self.dalpha = dalpha
        self.d2alpha = (
            np.einsum("aacd->cd", self.d3k)
            + np.einsum("ecd,e->cd", d2gamtr, k)
            + np.einsum("ec,ed->cd", dgamtr, dk)
            + np.einsum("ed,ec->cd", dgamtr, dk)
            + np.einsum("e,ecd->cd", gamtr, d2k)
        ) / m

        self.dkflat = np.einsum("bce,c->be", dg, k) + np.einsum("bc,ce->be", g, dk)
        dmat = np.einsum("bc->cb", self.dkflat) - self.dkflat  # D[c,b] = d_c kb - d_b kc
        self.K = 0.5 * np.einsum("ab,cb->ac", ginv, dmat)
        d2kflat = (
            np.einsum("bfce,f->bce", d2g, k)
            + np.einsum("bfc,fe->bce", dg, dk)
            + np.einsum("bfe,fc->bce", dg, dk)
            + np.einsum("bf,fce->bce", g, d2k)
        )
        ddmat = np.einsum("bce->cbe", d2kflat) - d2kflat  # d_e D[c,b]
        self.dK = 0.5 * (
            np.einsum("abe,cb->ace", c.dginv, dmat)
            + np.einsum("ab,cbe->ace", ginv, ddmat)
        )

        self.Pk = c.P @ k
        self.gamma1 = self.Pk - dalpha  # the tractor one-form
        self.dPk = np.einsum("bce,c->be", c.dP, k) + np.einsum("bc,ce->be", c.P, dk)
        self.dgamma1 = self.dPk - self.d2alpha

        self.nk = dk + np.einsum("abe,e->ab", gam, k)  # nabla_b k^a
        dnk = (
            d2k
            + np.einsum("abec,e->abc", c.dgamma, k)
            + np.einsum("abe,ec->abc", gam, dk)
        )
        self.n2k = (
            dnk
            + np.einsum("ace,eb->abc", gam, self.nk)
            - np.einsum("ecb,ae->abc", gam, self.nk)
        )

    def wedge(self, x, omega):
        """(x ^ omega)(u) = omega(u) x - f(x, u) omega_sharp, as a matrix."""
        c = self.curv
        sharp = c.ginv @ omega
        xflat = c.g @ x
        return np.outer(x, omega) - np.outer(sharp, xflat)

    def tractor_derivative_rows(self, v):
        """The four rows of the adjoint connection applied in direction v."""
        c = self.curv
        P = c.P
        Pv = P @ v
        # nabla_v gamma1_a = v^e (d_e gamma_a - Gamma^f_{ea} gamma_f)
        nabla_v_gamma = np.einsum("ae,e->a", self.dgamma1, v) - np.einsum(
            "fea,e,f->a", c.gamma, v, self.gamma1
        )
        row1 = nabla_v_gamma + self.alpha * Pv + np.einsum(
            "cb,b,ca->a", P, v, self.K
        )
        row2 = (
            -float(np.dot(self.gamma1, v))
            - float(np.dot(self.dalpha, v))
            + float(np.einsum("ab,a,b->", P, v, self.k))
        )
        nabla_v_K = (
            np.einsum("abe,e->ab", self.dK, v)
            + np.einsum("aef,e,fb->ab", c.gamma, v, self.K)
            - np.einsum("feb,e,af->ab", c.gamma, v, self.K)
        )
        row3 = self.wedge(v, self.gamma1) + nabla_v_K - self.wedge(self.k, Pv)
        row4 = -self.alpha * v - self.K @ v + self.nk @ v
        return row1, row2, row3, row4

    def tractor_residual(self, v):
        r1, r2, r3, r4 = self.tractor_derivative_rows(v)
        return worst((np.max(np.abs(r1)), abs(r2), np.max(np.abs(r3)), np.max(np.abs(r4))))


def _tractors_at(chart, fields, point):
    """One TractorData per field, all sharing one CurvatureData of the point."""
    curv = CurvatureData(chart, point)
    return [TractorData(curv, field) for field in fields]


def second_derivative_identity_residual(td: TractorData):
    """The parallel-tractor curvature identity for Killing fields."""
    c = td.curv
    m = c.m
    lhs = td.n2k  # [a, b, c] = (nabla_c nabla_b k)^a
    kP = np.zeros((m, m, m))
    uP = np.zeros((m, m, m))
    for cc in range(m):
        Pu = c.P[:, cc]
        kP[:, :, cc] = td.wedge(td.k, Pu)
        u = np.zeros(m)
        u[cc] = 1.0
        uP[:, :, cc] = td.wedge(u, c.P @ td.k)
    rhs = kP - uP
    scale = 1.0 + float(np.max(np.abs(lhs)))
    return float(np.max(np.abs(lhs - rhs))) / scale


def sparling_scalars(t1: TractorData, t2: TractorData, tol_pre=1e-8):
    """(chi, beta1, beta2, beta3, alpha3, k3) of two fields at one point.

    Both tractors share one CurvatureData.  Raises unless both fields
    are conformal Killing and light-like there and the two are
    orthogonal.
    """
    curv = t1.curv
    for td in (t1, t2):
        if td.killing_residual > tol_pre:
            raise NotConformalKilling("%s at %s" % (td.field.label, curv.point))
        if abs(float(td.k @ curv.g @ td.k)) > tol_pre:
            raise ChartError("field %s not light-like" % td.field.label)
    if abs(float(t1.k @ curv.g @ t2.k)) > tol_pre:
        raise ChartError("fields not orthogonal")
    chi = (
        float(t1.k @ curv.P @ t2.k)
        + t1.alpha * t2.alpha
        - 0.5 * float(np.dot(t1.k, t2.dalpha))
        - 0.5 * float(np.dot(t2.k, t1.dalpha))
    )
    k3 = t1.K @ t2.k - t2.alpha * t1.k
    lam3 = float(np.dot(t2.k, t1.dalpha)) - float(np.dot(t1.k, t2.dalpha))
    a3 = lam3 / 2.0
    b1 = float(t1.k @ curv.P @ t1.k) + t1.alpha ** 2 - float(np.dot(t1.k, t1.dalpha))
    b2 = float(t2.k @ curv.P @ t2.k) + t2.alpha ** 2 - float(np.dot(t2.k, t2.dalpha))
    da3 = 0.5 * (
        np.einsum("ea,e->a", t2.dk, t1.dalpha)
        + np.einsum("e,ea->a", t2.k, t1.d2alpha)
        - np.einsum("ea,e->a", t1.dk, t2.dalpha)
        - np.einsum("e,ea->a", t1.k, t2.d2alpha)
    )
    b3 = float(k3 @ curv.P @ k3) + a3 ** 2 - float(np.dot(k3, da3))
    return chi, b1, b2, b3, a3, k3


def sparling_summary(rows):
    """Constancy report of the sparling_scalars rows of several points."""
    chis, b1s, b2s, b3s, a3s, k3vals = zip(*rows)

    def stats(vals):
        arr = np.array(vals)
        return {
            "mean": float(arr.mean()),
            "stddev": float(arr.std()),
        }

    return {
        "chi": stats(chis),
        "beta1": stats(b1s),
        "beta2": stats(b2s),
        "beta3": stats(b3s),
        "alpha3": stats(a3s),
        "k3_values": list(k3vals),
        "beta_product_residual": float(
            np.max(np.abs(np.array(b1s) * np.array(b2s) + np.array(b3s)))
        ),
    }


def sparling_invariants(chart, k1, k2, points, tol_pre=1e-8):
    """The quaternionic Sparling scalars chi, beta_i and the third field.

    Checks the light-like/orthogonal/conformal-Killing preconditions at
    each point, evaluates all scalars, and reports their constancy.
    """
    rows = [
        sparling_scalars(*_tractors_at(chart, (k1, k2), pt), tol_pre)
        for pt in points
    ]
    return sparling_summary(rows)


_FELIPE_KEYS = ("eigen_k", "eigen_gamma", "normalization", "complex_structure")


def felipe_residuals(td: TractorData):
    """Eigenvector/normalization/complex-structure residuals at one point.

    ``td`` is the tractor of a field already rescaled to beta = -1.
    """
    curv = td.curv
    a = td.alpha
    r_k = np.max(np.abs(td.K @ td.k - a * td.k))
    gsharp = curv.ginv @ td.gamma1
    r_g = np.max(np.abs(td.K @ (-gsharp) - a * (-gsharp)))
    r_n = abs(float(np.dot(td.gamma1, td.k)) + a * a + 1.0)
    # complement of span(k, gamma_sharp) w.r.t. f-orthogonality
    rows = np.vstack([curv.g @ td.k, td.gamma1])
    _, _, vt = np.linalg.svd(rows)
    ksq = td.K @ td.K + np.eye(curv.m)
    r_c = worst(np.max(np.abs(ksq @ u)) for u in vt[2:])
    return dict(zip(_FELIPE_KEYS, (float(r_k), float(r_g), float(r_n), r_c)))


def felipe_conditions(chart, field, points, beta, tol=1e-8):
    """Eigenvector/normalization/complex-structure conditions of a tractor.

    ``beta`` is the conformally invariant constant of the field; the
    field is rescaled so that beta = -1 before checking.
    """
    if beta >= 0:
        raise ChartError("beta must be negative")
    knorm = field.scaled(1.0 / math.sqrt(-beta))
    rows = [felipe_residuals(*_tractors_at(chart, (knorm,), pt)) for pt in points]
    report = {key: worst(r[key] for r in rows) for key in _FELIPE_KEYS}
    report["pass"] = all(v <= tol for v in report.values())
    return report


def trace_contractions(td: TractorData):
    """Frame traces of the curvature against the derivative of a Killing field."""
    curv = td.curv
    w_tr = np.einsum("xyuv,xb,by->uv", curv.weyl, td.nk, curv.ginv)
    c_tr = np.einsum("xyu,xb,by->u", curv.cotton, td.nk, curv.ginv)
    k_w = np.einsum("xyzt,x->yzt", curv.weyl, td.k)
    k_c1 = np.einsum("xyz,x->yz", curv.cotton, td.k)
    k_c3 = np.einsum("xyz,z->xy", curv.cotton, td.k)
    scale = 1.0 + float(np.max(np.abs(curv.weyl))) + float(np.max(np.abs(curv.cotton)))
    return {
        "weyl_trace": float(np.max(np.abs(w_tr))) / scale,
        "cotton_trace": float(np.max(np.abs(c_tr))) / scale,
        "k_into_weyl": float(np.max(np.abs(k_w))) / scale,
        "k_into_cotton": worst((np.max(np.abs(k_c1)), np.max(np.abs(k_c3)))) / scale,
        "alpha": td.alpha,
    }


# ---------------------------------------------------------------------------
# standard charts
# ---------------------------------------------------------------------------


def flat_chart(dim, signature=None):
    p = dim if signature is None else signature[0]
    diag = [1.0] * p + [-1.0] * (dim - p)

    def metric(xs):
        return [
            [diag[a] if a == b else 0.0 for b in range(dim)] for a in range(dim)
        ]

    return MetricChart("flat%dd" % dim, dim, metric)


def sphere_chart(m):
    """Unit round sphere in stereographic coordinates."""

    def metric(xs):
        r2 = xs[0] * xs[0]
        for x in xs[1:]:
            r2 = r2 + x * x
        conf = (r2 + 1.0).reciprocal()
        factor = 4.0 * conf * conf
        return [
            [factor if a == b else 0.0 for b in range(m)] for a in range(m)
        ]

    return MetricChart("sphere%dd" % m, m, metric, radius=0.8)


def random_polynomial_chart(dim, seed, signature=None, scale=0.05, radius=0.4):
    """Flat metric plus a random quartic polynomial perturbation."""
    rng = np.random.default_rng(seed)
    p = dim if signature is None else signature[0]
    diag = [1.0] * p + [-1.0] * (dim - p)
    n_terms = 6
    coefs = {}
    for a in range(dim):
        for b in range(a, dim):
            terms = []
            for _ in range(n_terms):
                mono = rng.integers(0, dim, size=int(rng.integers(1, 5)))
                cv = scale * float(rng.uniform(-1, 1))
                terms.append((list(mono), cv))
            coefs[(a, b)] = terms

    def metric(xs):
        rows = [[None] * dim for _ in range(dim)]
        for a in range(dim):
            for b in range(a, dim):
                val = diag[a] * 1.0 if a == b else 0.0
                acc = None
                for mono, cv in coefs[(a, b)]:
                    t = None
                    for v in mono:
                        t = xs[v] if t is None else t * xs[v]
                    t = t * cv
                    acc = t if acc is None else acc + t
                entry = acc + val if acc is not None else val
                rows[a][b] = entry
                rows[b][a] = entry
        return rows

    return MetricChart(
        "randpoly%dd-s%d" % (dim, seed), dim, metric, radius=radius
    )


def random_conf_factor(dim, seed, scale=0.1):
    rng = np.random.default_rng(seed + 1000)
    lin = rng.uniform(-1, 1, dim) * scale
    quad = rng.uniform(-1, 1, (dim, dim)) * scale * 0.5

    def phi(xs):
        acc = None
        for a in range(dim):
            t = xs[a] * float(lin[a])
            acc = t if acc is None else acc + t
            for b in range(dim):
                acc = acc + xs[a] * xs[b] * float(quad[a, b])
        return acc

    return phi


def weyl_conformal_covariance_residual(base: CurvatureData, conf_fn):
    """| W(e^{2phi} g) - e^{2phi} W(g) | at the point of ``base``, normalized."""
    resc = CurvatureData(base.chart.rescaled(conf_fn), base.point)
    xs = jet_variables(base.point, 1)
    factor = math.exp(2.0 * conf_fn(xs).value)
    diff = resc.weyl - factor * base.weyl
    return float(np.max(np.abs(diff))) / (1.0 + float(np.max(np.abs(base.weyl))))
