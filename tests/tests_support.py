"""Shared helpers for the test suite."""

import random
from fractions import Fraction

from qcfeff.exact import Quaternion


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
        u = Quaternion(rng.randint(-4, 4), rng.randint(-4, 4))
        v = Quaternion(rng.randint(-4, 4), rng.randint(-4, 4))
        vec = {}
        comp = {
            "1": u.a,
            "i": u.b,
            "j": v.a,
            "k": -v.b,
        }
        for unit, c in comp.items():
            if c:
                vec[qc.labels.index("e(1,0)%s" % unit)] = Fraction(c)
        img = cr.native_of_vec(phi1.apply(vec))
        m = cr.m
        expect = {
            (2, 0): u,
            (2 + n, 0): v,
            (2, 1): -v.conj(),
            (2 + n, 1): u.conj(),
            (m - 2, 2): v,
            (m - 2, 2 + n): -u,
            (m - 1, 2): -u.conj(),
            (m - 1, 2 + n): -v.conj(),
        }
        for a in range(m):
            for b in range(m):
                if img.entries.get((a, b), Quaternion()) != expect.get((a, b), Quaternion()):
                    ok = False
    for _ in range(10):
        a = Quaternion(0, rng.randint(-4, 4))
        b = Quaternion(rng.randint(-4, 4), rng.randint(-4, 4))
        vec = {}
        comp = {"i": a.b, "j": b.a, "k": -b.b}
        for unit, c in comp.items():
            if c:
                vec[qc.labels.index("e(%d,0)%s" % (qc.m - 1, unit))] = Fraction(c)
        img = cr.native_of_vec(phi1.apply(vec))
        m = cr.m
        expect = {
            (m - 2, 0): b,
            (m - 2, 1): a.conj(),
            (m - 1, 0): a,
            (m - 1, 1): -b.conj(),
        }
        for r in range(m):
            for c in range(m):
                if img.entries.get((r, c), Quaternion()) != expect.get((r, c), Quaternion()):
                    ok = False
    return ok
