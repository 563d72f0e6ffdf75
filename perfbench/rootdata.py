"""Root data for the benchmark's independent checks.

Nothing here imports qcfeff.  The exact reports are checked against
numbers computed from root systems alone:

* Kostant's theorem (Kostant 1961, the Bott-Borel-Weil count): as a
  g_0-module, H^k(g_-, g) is the sum over the Hasse-diagram elements w of
  length k of the irreducible module with highest weight w.lambda, where
  lambda is the highest root and w.lambda = w(lambda + rho) - rho.  Its
  dimension comes from the Weyl dimension formula of the Levi factor and
  its homogeneity is -E(w.lambda) for the grading element E.
* Dual Coxeter numbers h = 1 + <rho, theta^vee>: for the index-one
  embeddings sp(n+1,1) < su(2n+2,2) < so(4n+4,4) the Killing form of the
  smaller algebra is h_small / h_big times the restricted Killing form of
  the bigger one.

Weights and roots are tuples of Fractions in the standard epsilon basis.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb


def _dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def _unit(dim, i, c=1):
    return tuple(Fraction(c) if j == i else Fraction(0) for j in range(dim))


def _add(u, v, c=1):
    return tuple(a + c * b for a, b in zip(u, v))


class RootSystem:
    """Simple roots, positive roots and highest root of a classical type."""

    def __init__(self, simple, positive, highest):
        self.simple = simple
        self.positive = positive
        self.highest = highest
        dim = len(simple[0])
        rho = tuple(Fraction(0) for _ in range(dim))
        for a in positive:
            rho = _add(rho, a, Fraction(1, 2))
        self.rho = rho

    @property
    def rank(self):
        return len(self.simple)

    @property
    def dim(self):
        """Dimension of the simple Lie algebra: rank plus number of roots."""
        return self.rank + 2 * len(self.positive)

    def reflect(self, v, alpha):
        return _add(v, alpha, -2 * _dot(v, alpha) / _dot(alpha, alpha))

    def dual_coxeter(self):
        theta = self.highest
        return 1 + 2 * _dot(self.rho, theta) / _dot(theta, theta)

    def grading_element(self, crossed):
        """E with <E, alpha_j> = 1 for crossed simple roots, 0 otherwise.

        Solved exactly by Gauss-Jordan on the simple roots; the epsilon
        space has the rank's dimension for the types used here.
        """
        rows = [
            list(a) + [Fraction(1 if j in crossed else 0)]
            for j, a in enumerate(self.simple, start=1)
        ]
        n = len(rows[0]) - 1
        if len(rows) != n:
            raise ValueError("grading element needs a square system")
        for c in range(n):
            p = next(i for i in range(c, n) if rows[i][c] != 0)
            rows[c], rows[p] = rows[p], rows[c]
            piv = rows[c][c]
            rows[c] = [x / piv for x in rows[c]]
            for i in range(n):
                if i != c and rows[i][c] != 0:
                    f = rows[i][c]
                    rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
        return tuple(rows[i][n] for i in range(n))


def type_A(r):
    """A_r in R^{r+1}: roots e_i - e_j."""
    d = r + 1
    simple = [_add(_unit(d, i), _unit(d, i + 1), -1) for i in range(r)]
    positive = [
        _add(_unit(d, i), _unit(d, j), -1) for i in range(d) for j in range(i + 1, d)
    ]
    return RootSystem(simple, positive, _add(_unit(d, 0), _unit(d, r), -1))


def type_C(r):
    """C_r in R^r: roots e_i +- e_j and 2 e_i."""
    simple = [_add(_unit(r, i), _unit(r, i + 1), -1) for i in range(r - 1)]
    simple.append(_unit(r, r - 1, 2))
    positive = []
    for i in range(r):
        for j in range(i + 1, r):
            positive.append(_add(_unit(r, i), _unit(r, j), -1))
            positive.append(_add(_unit(r, i), _unit(r, j)))
        positive.append(_unit(r, i, 2))
    return RootSystem(simple, positive, _unit(r, 0, 2))


def type_D(r):
    """D_r in R^r: roots e_i +- e_j."""
    simple = [_add(_unit(r, i), _unit(r, i + 1), -1) for i in range(r - 1)]
    simple.append(_add(_unit(r, r - 2), _unit(r, r - 1)))
    positive = []
    for i in range(r):
        for j in range(i + 1, r):
            positive.append(_add(_unit(r, i), _unit(r, j), -1))
            positive.append(_add(_unit(r, i), _unit(r, j)))
    return RootSystem(simple, positive, _add(_unit(r, 0), _unit(r, 1)))


class Parabolic:
    """A root system graded by crossing some simple roots (|k|-grading)."""

    def __init__(self, rs: RootSystem, crossed):
        self.rs = rs
        self.E = rs.grading_element(set(crossed))
        self.levi_simple = [
            a for j, a in enumerate(rs.simple, start=1) if j not in crossed
        ]
        self.levi_positive = [a for a in rs.positive if _dot(self.E, a) == 0]

    @property
    def dim_minus(self):
        """dim g_-: the positive roots of nonzero grade."""
        return sum(1 for a in self.rs.positive if _dot(self.E, a) != 0)

    def cochain_dim(self, k):
        """dim C^k(g_-, g) = C(dim g_-, k) * dim g."""
        return comb(self.dim_minus, k) * self.rs.dim

    def hasse(self, length):
        """Vectors w(lambda + rho) for the Hasse-diagram elements of a length.

        Elements of the Weyl group are carried as the pair (w rho,
        w(lambda + rho)); s_i w is longer than w exactly when
        <w rho, alpha_i> > 0.  w is in the Hasse diagram when
        w(lambda + rho) is dominant for the Levi factor.
        """
        rs = self.rs
        start = (rs.rho, _add(rs.highest, rs.rho))
        level = {start[0]: start}
        for _ in range(length):
            nxt = {}
            for wr, wl in level.values():
                for a in rs.simple:
                    if _dot(wr, a) > 0:
                        nr = rs.reflect(wr, a)
                        nxt[nr] = (nr, rs.reflect(wl, a))
            level = nxt
        return [
            wl for _, wl in level.values()
            if all(_dot(wl, a) > 0 for a in self.levi_simple)
        ]

    def kostant(self, degree):
        """{homogeneity: dim} of H^degree(g_-, g), g the adjoint module."""
        out = {}
        rho = self.rs.rho
        for wl in self.hasse(degree):
            mu = _add(wl, rho, -1)
            dim = Fraction(1)
            for a in self.levi_positive:
                dim *= _dot(wl, a) / _dot(rho, a)
            hom = -_dot(self.E, mu)
            if dim.denominator != 1 or hom.denominator != 1:
                raise ArithmeticError("non-integral Kostant component")
            out[int(hom)] = out.get(int(hom), 0) + int(dim)
        return out


def qc_parabolic(n):
    """sp(n+1,1), complex type C_{n+2}, with the second node crossed."""
    return Parabolic(type_C(n + 2), {2})


def co_parabolic(p, q):
    """so(p+1,q+1) for even p+q, complex type D_{(p+q+2)/2}, first node crossed."""
    if (p + q) % 2:
        raise ValueError("only even total dimension is of type D")
    return Parabolic(type_D((p + q + 2) // 2), {1})


def killing_ratios(n):
    """Killing constants of qc(n) -> cr -> co as ratios of dual Coxeter numbers."""
    h_qc = type_C(n + 2).dual_coxeter()
    h_cr = type_A(2 * n + 3).dual_coxeter()
    h_co = type_D(2 * n + 4).dual_coxeter()
    return {"qc_cr": h_qc / h_cr, "cr_co": h_cr / h_co, "qc_co": h_qc / h_co}


def weyl_tensor_dim(m):
    """Dimension of the algebraic Weyl tensors in dimension m (closed form)."""
    return (m + 2) * (m + 1) * m * (m - 3) // 12
