"""Shared helpers for the test suite."""

import random
from fractions import Fraction

from oracle import quat_conj, quat_neg

from qcfeff.charts import signature

_ZERO = (0, 0, 0, 0)


def metric_at(chart, point):
    """The chart's metric at a point, from its order-1 jets."""
    return chart.metric_jets(point, 1)[:, :, 0]


def signature_at(chart, point):
    """(positive, negative) eigenvalue counts of the chart's metric at a point."""
    return signature(metric_at(chart, point))


def witt_display_checks(qc, cr, phi1) -> bool:
    """Entry-exact reproduction of the Witt-basis image matrices.

    The degree -1 element with entry u + j v and the degree -2 element
    with corner entry a + j b map to the six-block matrices fixed by the
    Witt transform; the two row blocks involving v carry the signs
    forced by membership in the unitary algebra.
    """
    rng = random.Random(42)
    ok = True
    n = qc.m - 2
    for _ in range(10):
        u = (rng.randint(-4, 4), rng.randint(-4, 4), 0, 0)
        v = (rng.randint(-4, 4), rng.randint(-4, 4), 0, 0)
        vec = {}
        comp = {
            "1": u[0],
            "i": u[1],
            "j": v[0],
            "k": -v[1],
        }
        for unit, c in comp.items():
            if c:
                vec[qc.labels.index("e(1,0)%s" % unit)] = Fraction(c)
        img = cr.native_of_vec(phi1.apply(vec))
        m = cr.m
        expect = {
            (2, 0): u,
            (2 + n, 0): v,
            (2, 1): quat_neg(quat_conj(v)),
            (2 + n, 1): quat_conj(u),
            (m - 2, 2): v,
            (m - 2, 2 + n): quat_neg(u),
            (m - 1, 2): quat_neg(quat_conj(u)),
            (m - 1, 2 + n): quat_neg(quat_conj(v)),
        }
        for a in range(m):
            for b in range(m):
                if img.get((a, b), _ZERO) != expect.get((a, b), _ZERO):
                    ok = False
    for _ in range(10):
        a = (0, rng.randint(-4, 4), 0, 0)
        b = (rng.randint(-4, 4), rng.randint(-4, 4), 0, 0)
        vec = {}
        comp = {"i": a[1], "j": b[0], "k": -b[1]}
        for unit, c in comp.items():
            if c:
                vec[qc.labels.index("e(%d,0)%s" % (qc.m - 1, unit))] = Fraction(c)
        img = cr.native_of_vec(phi1.apply(vec))
        m = cr.m
        expect = {
            (m - 2, 0): b,
            (m - 2, 1): quat_conj(a),
            (m - 1, 0): a,
            (m - 1, 1): quat_neg(quat_conj(b)),
        }
        for r in range(m):
            for c in range(m):
                if img.get((r, c), _ZERO) != expect.get((r, c), _ZERO):
                    ok = False
    return ok
