"""Explicit model geometries.

Three builders: the double-sphere quadric (the flat conformal model of
signature (4n+3, 3) with its triple of rotation fields), the flat
quaternionic Heisenberg group with its contact data, and the fiberwise
metric of the Fefferman-type bundle over it.

The fiber group is taken as the unit quaternions (graph coordinates on
the 3-sphere); the connection form of the flat model is the left
Maurer-Cartan form in the (i, j, k) basis.  An alternative pairing that
rotates the contact form along the fiber by the adjoint action is kept
as an explicit fallback; the conformal-flatness suite arbitrates and
records which candidate holds.
"""

from __future__ import annotations

import numpy as np

from .charts import MetricChart, VectorFieldOnChart
from .exact import Q_UNITS, _quat_conj, quat_product

_UNIT_NAMES = ("1", "i", "j", "k")


def _unit_mult_table():
    """table[s][mu] = (sign, nu) with e_s * e_mu = sign * e_nu."""
    table = {}
    for s, us in enumerate(_UNIT_NAMES):
        row = []
        for mu, umu in enumerate(_UNIT_NAMES):
            prod = quat_product(Q_UNITS[us], Q_UNITS[umu])
            for nu, comp in enumerate(prod):
                if comp:
                    row.append((comp, nu))
                    break
        table[s] = row
    return table


_MULT = _unit_mult_table()


def _left_mult_matrix(unit_idx: int) -> np.ndarray:
    """4x4 real matrix of left multiplication by the unit quaternion."""
    m = np.zeros((4, 4))
    for mu in range(4):
        sign, nu = _MULT[unit_idx][mu]
        m[nu, mu] = sign
    return m


# ---------------------------------------------------------------------------
# quadric model
# ---------------------------------------------------------------------------


def _sphere_block_metric(xs, lo, hi, sign):
    """Graph-chart round metric delta + x x^t / (1 - |x|^2) on a slice."""
    r2 = None
    for t in range(lo, hi):
        term = xs[t] * xs[t]
        r2 = term if r2 is None else r2 + term
    conf = (1.0 - r2).reciprocal()
    block = {}
    for a in range(lo, hi):
        for b in range(a, hi):
            v = xs[a] * xs[b] * conf
            if a == b:
                v = v + 1.0
            block[(a, b)] = v * sign
    return block


def _rotation_field_components(xs, lo, hi, unit_idx, quat_slots):
    """Tangential left-multiplication field on a graph-chart sphere factor.

    ``quat_slots`` is the number of quaternionic coordinates of the
    ambient space; coordinate 0 of the ambient is eliminated.
    """
    h2 = None
    for t in range(lo, hi):
        term = xs[t] * xs[t]
        h2 = term if h2 is None else h2 + term
    h = (1.0 - h2).sqrt()
    L = np.zeros((4 * quat_slots, 4 * quat_slots))
    lm = _left_mult_matrix(unit_idx)
    for m in range(quat_slots):
        L[4 * m : 4 * m + 4, 4 * m : 4 * m + 4] = lm
    comps = []
    for i in range(1, 4 * quat_slots):
        acc = None
        if L[i, 0]:
            acc = h * float(L[i, 0])
        for j in range(1, 4 * quat_slots):
            if L[i, j]:
                term = xs[lo + j - 1] * float(L[i, j])
                acc = term if acc is None else acc + term
        comps.append(acc if acc is not None else 0.0)
    return comps


def quadric_model(n: int):
    """Chart and rotation fields of the product-of-spheres conformal model.

    Returns (chart, k1, k2, k3): the metric is round(S^(4n+3)) minus
    round(S^3) in graph coordinates (one coordinate eliminated per
    factor), and k_s is simultaneous left multiplication by i, j, k on
    both quaternionic factors.
    """
    d1 = 4 * n + 3
    dim = d1 + 3

    def metric(xs):
        rows = [[0.0] * dim for _ in range(dim)]
        top = _sphere_block_metric(xs, 0, d1, 1.0)
        bot = _sphere_block_metric(xs, d1, dim, -1.0)
        for (a, b), v in {**top, **bot}.items():
            rows[a][b] = v
            if a != b:
                rows[b][a] = v
        return rows

    chart = MetricChart("quadric(n=%d)" % n, dim, metric, radius=0.62)

    def field(unit_idx):
        def comps(xs):
            first = _rotation_field_components(xs, 0, d1, unit_idx, n + 1)
            second = _rotation_field_components(xs, d1, dim, unit_idx, 1)
            return first + second

        return VectorFieldOnChart(
            "k_%s" % _UNIT_NAMES[unit_idx], dim, comps
        )

    return chart, field(1), field(2), field(3)


# ---------------------------------------------------------------------------
# flat quaternionic Heisenberg group
# ---------------------------------------------------------------------------


class QcData:
    """Contact data of the flat quaternionic Heisenberg model.

    Coordinates (t_1, t_2, t_3, x) with x in R^(4n); the contact form is
    eta^s = dt_s - Im_s(sum_a dx_a conj(x_a)); Reeb fields are the t
    directions; the horizontal metric is flat and the almost complex
    structures act by left quaternion multiplication slotwise.
    """

    def __init__(self, n: int):
        self.n = n
        self.dim = 4 * n + 3
        self.scal = 0.0
        # c[s][mu][nu] = Im_s(e_mu conj(e_nu))
        c = np.zeros((4, 4, 4))
        for mu in range(4):
            for nu in range(4):
                q = quat_product(Q_UNITS[_UNIT_NAMES[mu]], _quat_conj(Q_UNITS[_UNIT_NAMES[nu]]))
                for s in range(4):
                    c[s, mu, nu] = float(q[s])
        self.cmat = c

    def eta_matrix(self, point):
        """Rows eta^s (s = 1..3) as covectors at the point."""
        n = self.n
        x = np.asarray(point[3:], float)
        out = np.zeros((3, self.dim))
        for s in range(3):
            out[s, s] = 1.0
            for a in range(n):
                xa = x[4 * a : 4 * a + 4]
                for mu in range(4):
                    out[s, 3 + 4 * a + mu] = -float(
                        np.dot(self.cmat[s + 1, mu], xa)
                    )
        return out

    def deta(self, s):
        """Constant coefficient matrix of d eta^s on the x block."""
        n = self.n
        m = np.zeros((4 * n, 4 * n))
        # eta^s_x coefficient: eta_(a,mu) = -c[s+1, mu, :] . x_a
        # d eta (d_i, d_j) = d_i eta_j - d_j eta_i
        for a in range(n):
            for mu in range(4):
                for nu in range(4):
                    m[4 * a + nu, 4 * a + mu] += -self.cmat[s + 1, mu, nu]
                    m[4 * a + mu, 4 * a + nu] -= -self.cmat[s + 1, mu, nu]
        return m

    def horizontal_frame(self, point):
        """Columns: lifts of the x-coordinate directions into ker(eta)."""
        n = self.n
        x = np.asarray(point[3:], float)
        frame = np.zeros((self.dim, 4 * n))
        for a in range(n):
            xa = x[4 * a : 4 * a + 4]
            for mu in range(4):
                col = 4 * a + mu
                frame[3 + col, col] = 1.0
                for s in range(3):
                    # t_s component = Im_s(e_mu conj(x_a))
                    frame[s, col] = float(np.dot(self.cmat[s + 1, mu], xa))
        return frame

    def reeb_fields(self):
        out = np.zeros((self.dim, 3))
        for s in range(3):
            out[s, s] = 1.0
        return out

    def complex_structure(self, s):
        """I_s on the horizontal block (left multiplication slotwise)."""
        n = self.n
        m = np.zeros((4 * n, 4 * n))
        lm = _left_mult_matrix(s)
        for a in range(n):
            m[4 * a : 4 * a + 4, 4 * a : 4 * a + 4] = lm
        return m

    def structure_report(self, points):
        """Numerical verification of the contact axioms at sample points."""
        worst_pairing = 0.0
        worst_compat = 0.0
        worst_quat = 0.0
        for pt in points:
            eta = self.eta_matrix(pt)
            xi = self.reeb_fields()
            pair = eta @ xi - np.eye(3)
            worst_pairing = max(worst_pairing, float(np.max(np.abs(pair))))
            frame = self.horizontal_frame(pt)
            for s in range(3):
                resid = np.max(np.abs(eta[s] @ frame))
                worst_pairing = max(worst_pairing, float(resid))
                de = self.deta(s)
                i_s = self.complex_structure(s + 1)
                # 2 g(I_s u, v) = d eta^s(u, v) with flat g on the frame
                lhs = 2.0 * i_s.T
                worst_compat = max(
                    worst_compat, float(np.max(np.abs(lhs - de.T)))
                )
        i1 = self.complex_structure(1)
        i2 = self.complex_structure(2)
        i3 = self.complex_structure(3)
        worst_quat = float(np.max(np.abs(i1 @ i2 - i3)))
        worst_quat = max(worst_quat, float(np.max(np.abs(i1 @ i1 + np.eye(4 * self.n)))))
        return {
            "reeb_pairing": worst_pairing,
            "compatibility": worst_compat,
            "quaternion_relations": worst_quat,
        }

    def sample_points(self, count, seed=0):
        rng = np.random.default_rng(seed)
        return [rng.uniform(-0.9, 0.9, self.dim) for _ in range(count)]


def heisenberg_qc(n: int) -> QcData:
    if n < 1:
        raise ValueError("n must be >= 1")
    return QcData(n)


# ---------------------------------------------------------------------------
# Fefferman metric over the flat model
# ---------------------------------------------------------------------------


def _fiber_sigma(xs, base_dim):
    """Maurer-Cartan components Im_s(conj(q) dq) on the graph chart of S^3.

    Returns a 3x3 list of jets: sigma[s][r] = sigma^s(d/dz_r).
    """
    z = xs[base_dim : base_dim + 3]
    h2 = None
    for t in z:
        term = t * t
        h2 = term if h2 is None else h2 + term
    h = (1.0 - h2).sqrt()
    q = [h, z[0], z[1], z[2]]
    hinv = h.reciprocal()
    sigma = [[None] * 3 for _ in range(3)]
    for r in range(3):
        # dq/dz_r = (-z_r / h, e_r)
        dq = [z[r] * hinv * (-1.0), 0.0, 0.0, 0.0]
        dq[1 + r] = 1.0
        # conj(q) * dq, quaternion product with conj(q) = (h, -z)
        cq = [q[0], q[1] * (-1.0), q[2] * (-1.0), q[3] * (-1.0)]
        prod = quat_product(cq, dq)
        for s in range(3):
            sigma[s][r] = prod[1 + s]
    return sigma


def _adjoint_matrix(xs, base_dim):
    """SO(3) matrix A[s][r] = Im_s(q e_r conj(q)) at the fiber point."""
    z = xs[base_dim : base_dim + 3]
    h2 = None
    for t in z:
        term = t * t
        h2 = term if h2 is None else h2 + term
    h = (1.0 - h2).sqrt()
    q = [h, z[0], z[1], z[2]]
    cq = [q[0], q[1] * (-1.0), q[2] * (-1.0), q[3] * (-1.0)]
    rows = [[None] * 3 for _ in range(3)]
    for r in range(3):
        er = [0.0, 0.0, 0.0, 0.0]
        er[1 + r] = 1.0
        prod = quat_product(quat_product(q, er), cq)
        for s in range(3):
            rows[s][r] = prod[1 + s]
    return rows


def fefferman_metric(qc: QcData, scal=None, rotate_eta=False) -> MetricChart:
    """The bundle metric p*g - 2 sum eta^s (sym) (sigma^s + c eta^s).

    ``rotate_eta`` switches to the fallback pairing in which the contact
    form is rotated along the fiber by the adjoint action before being
    paired with the connection components.
    """
    n = qc.n
    base_dim = qc.dim
    dim = base_dim + 3
    scal_val = qc.scal if scal is None else scal
    c_corr = scal_val / (32.0 * n * (n + 2))
    cmat = qc.cmat

    def metric(xs):
        rows = [[0.0] * dim for _ in range(dim)]
        # horizontal flat part: sum dx (x) dx
        for t in range(3, base_dim):
            rows[t][t] = 1.0
        # eta^s covectors (jets in the x coordinates)
        eta = [[0.0] * dim for _ in range(3)]
        for s in range(3):
            eta[s][s] = 1.0
            for a in range(n):
                for mu in range(4):
                    acc = None
                    for nu in range(4):
                        coef = -float(cmat[s + 1, mu, nu])
                        if coef:
                            term = xs[3 + 4 * a + nu] * coef
                            acc = term if acc is None else acc + term
                    eta[s][3 + 4 * a + mu] = acc if acc is not None else 0.0
        if rotate_eta:
            amat = _adjoint_matrix(xs, base_dim)
            rotated = [[0.0] * dim for _ in range(3)]
            for s in range(3):
                for t in range(dim):
                    acc = None
                    for r in range(3):
                        e = eta[r][t]
                        if isinstance(e, float) and e == 0.0:
                            continue
                        term = amat[s][r] * e
                        acc = term if acc is None else acc + term
                    rotated[s][t] = acc if acc is not None else 0.0
            eta = rotated
        sigma = _fiber_sigma(xs, base_dim)
        # full sigma covectors (only fiber components)
        sig = [[0.0] * dim for _ in range(3)]
        for s in range(3):
            for r in range(3):
                sig[s][base_dim + r] = sigma[s][r]
        for s in range(3):
            blend = [None] * dim
            for t in range(dim):
                term = sig[s][t]
                if c_corr:
                    e = eta[s][t]
                    corr = e * c_corr if not (isinstance(e, float) and e == 0.0) else 0.0
                    term = term + corr if not (isinstance(term, float) and term == 0.0) else corr
                blend[t] = term
            for a in range(dim):
                ea = eta[s][a]
                if isinstance(ea, float) and ea == 0.0:
                    continue
                for b in range(dim):
                    bb = blend[b]
                    if isinstance(bb, float) and bb == 0.0:
                        continue
                    term = ea * bb
                    rows[a][b] = rows[a][b] - term
                    rows[b][a] = rows[b][a] - term
        return rows

    name = "fefferman(n=%d%s)" % (n, ",rotated" if rotate_eta else "")
    return MetricChart(name, dim, metric, radius=0.55)


def sp1_fundamental_fields(qc: QcData):
    """Vertical generators of the structure-group action on the fiber.

    In the graph coordinates used here the principal action of the unit
    quaternions appears as left multiplication; its generators are
    Killing for the bundle metric, light-like, and pair to the identity
    with the connection components at the fiber identity.
    """
    base_dim = qc.dim
    dim = base_dim + 3

    def field(unit_idx):
        def comps(xs):
            z = xs[base_dim : base_dim + 3]
            h2 = None
            for t in z:
                term = t * t
                h2 = term if h2 is None else h2 + term
            h = (1.0 - h2).sqrt()
            q = [h, z[0], z[1], z[2]]
            e = [0.0] * 4
            e[unit_idx] = 1.0
            prod = quat_product(e, q)
            out = [0.0] * dim
            for r in range(3):
                out[base_dim + r] = prod[1 + r]
            return out

        return VectorFieldOnChart("vert_%s" % _UNIT_NAMES[unit_idx], dim, comps)

    return field(1), field(2), field(3)
