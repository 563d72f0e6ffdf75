"""Truncated multivariate Taylor arithmetic (forward-mode jets).

A Jet holds the Taylor coefficients of a smooth function at a point,
up to a fixed total degree, densely indexed by multi-index.  Products
are exact to the truncation order; elementary functions are built by
composing their univariate series with the nilpotent part.

Jet spaces are cached per (num_vars, order).  A space builds its
multiplication table eagerly, in its constructor: the indices are sorted
by degree, so the partners of each index whose degrees sum with its own
to at most the order form a prefix of the index list, and only that
prefix is visited.  The index tables that turn coefficients into
derivative tensors are built on first use, one per derivative order.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import lru_cache

import numpy as np


class JetDomainError(ArithmeticError):
    """Raised when an elementary function hits a pole or branch point."""


@lru_cache(maxsize=None)
def jet_space(num_vars: int, order: int) -> "JetSpace":
    return JetSpace(num_vars, order)


def _multi_indices(num_vars, order):
    idx = [()]

    def rec(prefix, remaining, slots):
        if slots == 0:
            out.append(tuple(prefix))
            return
        for d in range(remaining + 1):
            rec(prefix + [d], remaining - d, slots - 1)

    out = []
    rec([], order, num_vars)
    out.sort(key=lambda a: (sum(a), a))
    return out


class JetSpace:
    """Shared coefficient layout and multiplication table."""

    def __init__(self, num_vars: int, order: int):
        self.num_vars = num_vars
        self.order = order
        self.indices = _multi_indices(num_vars, order)
        self.size = len(self.indices)
        self.position = {a: i for i, a in enumerate(self.indices)}
        degrees = [sum(a) for a in self.indices]
        # indices are sorted by degree: the partners j of i with
        # deg i + deg j <= order are the prefix indices[:ends[deg i]]
        ends = [bisect_right(degrees, order - d) for d in range(order + 1)]
        ii, jj, kk = [], [], []
        for i, a in enumerate(self.indices):
            for j in range(ends[degrees[i]]):
                c = tuple(x + y for x, y in zip(a, self.indices[j]))
                ii.append(i)
                jj.append(j)
                kk.append(self.position[c])
        self._mul_i = np.array(ii, dtype=np.intp)
        self._mul_j = np.array(jj, dtype=np.intp)
        self._mul_k = np.array(kk, dtype=np.intp)
        self._tensor_index = {}

    def derivative_tensor(self, coef, r):
        """The d^r tensors at the base point, from coefficients on the last axis.

        The result has shape ``coef.shape[:-1] + (num_vars,) * r``; its
        entry [..., c1, ..., cr] is d_c1 ... d_cr of the function.  Its
        memory holds the derivative axes outermost, as numpy lays out an
        index on the last axis.
        """
        if r not in self._tensor_index:
            m = self.num_vars
            shape = (m,) * r
            pos = np.zeros(shape, dtype=np.intp)
            fac = np.zeros(shape)
            for idx in np.ndindex(shape):
                alpha = [0] * m
                for c in idx:
                    alpha[c] += 1
                pos[idx] = self.position[tuple(alpha)]
                f = 1.0
                for a in alpha:
                    f *= math.factorial(a)
                fac[idx] = f
            self._tensor_index[r] = pos, fac
        pos, fac = self._tensor_index[r]
        out = coef[..., pos]
        out *= fac  # in place: no second array, the gather's layout kept
        return out

    def mul(self, ca, cb):
        return np.bincount(
            self._mul_k, weights=ca[self._mul_i] * cb[self._mul_j], minlength=self.size
        )


class Jet:
    """Taylor expansion of a scalar function, truncated at total degree."""

    __slots__ = ("space", "coef")

    def __init__(self, space: JetSpace, coef=None):
        self.space = space
        self.coef = np.zeros(space.size) if coef is None else np.asarray(coef, float)

    @classmethod
    def constant(cls, space, value):
        j = cls(space)
        j.coef[0] = value
        return j

    @classmethod
    def variable(cls, space, v, value):
        j = cls(space)
        j.coef[0] = value
        j.coef[space.position[tuple(1 if u == v else 0 for u in range(space.num_vars))]] = 1.0
        return j

    @property
    def value(self) -> float:
        return float(self.coef[0])

    def _coerce(self, o):
        if isinstance(o, Jet):
            if o.space is not self.space:
                raise ValueError("jets from different spaces")
            return o
        return Jet.constant(self.space, float(o))

    def __add__(self, o):
        o = self._coerce(o)
        return Jet(self.space, self.coef + o.coef)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._coerce(o)
        return Jet(self.space, self.coef - o.coef)

    def __rsub__(self, o):
        return self._coerce(o) - self

    def __neg__(self):
        return Jet(self.space, -self.coef)

    def __mul__(self, o):
        if not isinstance(o, Jet):
            return Jet(self.space, self.coef * float(o))
        o = self._coerce(o)
        return Jet(self.space, self.space.mul(self.coef, o.coef))

    def __rmul__(self, o):
        return self.__mul__(o)

    def _compose_series(self, series):
        """sum_m series[m] * (self - value)^m, truncated."""
        sp = self.space
        delta = Jet(sp, self.coef.copy())
        delta.coef[0] = 0.0
        out = Jet.constant(sp, series[0])
        power = Jet.constant(sp, 1.0)
        for m in range(1, sp.order + 1):
            power = power * delta
            if series[m]:
                out = out + power * series[m]
        return out

    def reciprocal(self):
        x0 = self.value
        if x0 == 0.0:
            raise JetDomainError("reciprocal at zero")
        series = [(-1.0) ** m / x0 ** (m + 1) for m in range(self.space.order + 1)]
        return self._compose_series(series)

    def sqrt(self):
        x0 = self.value
        if x0 <= 0.0:
            raise JetDomainError("sqrt branch point")
        series = []
        c = math.sqrt(x0)
        half = 0.5
        for m in range(self.space.order + 1):
            series.append(c)
            c = c * (half - m) / ((m + 1) * x0)
        return self._compose_series(series)

    def exp(self):
        e = math.exp(self.value)
        series = [e / math.factorial(m) for m in range(self.space.order + 1)]
        return self._compose_series(series)


def jet_variables(point, order: int):
    """Seed jets (one per coordinate) for expansion around the point."""
    sp = jet_space(len(point), order)
    return [Jet.variable(sp, v, float(x)) for v, x in enumerate(point)]
