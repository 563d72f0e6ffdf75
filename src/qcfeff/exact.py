"""Exact scalars and exact linear algebra over arbitrary-precision rationals.

A scalar is a quaternion a + bi + cj + dk held as its component 4-tuple
(a, b, c, d) of ints or Fractions (an int stays an int, so integer data
never enters Fraction arithmetic); complex and rational values are the
4-tuples whose upper components vanish.  Convention: i*j = k.  On top of
that: certified null spaces of rational systems (``kernel_basis``) and
coordinates in a fixed span (``SpanSolver``), over sparse dicts.  The
kernel engine keeps its integer rows as zero-free {col: int} dicts from
input to echelon: a row's nonzero count is its ``len``, and each pivot
step visits only the rows that hold the pivot column.
"""

from __future__ import annotations

from fractions import Fraction
from bisect import insort
from math import gcd

try:
    from gmpy2 import mpz
except ImportError:  # gmpy2 is optional (the "gmpy" extra); plain int is exact too
    mpz = int

_F1 = Fraction(1)


def _exact(x):
    """An int or a Fraction as it is, anything else as a Fraction."""
    return x if isinstance(x, (int, Fraction)) else Fraction(x)


def _div(a, b):
    """Exact a / b: a Fraction, or an int when both are ints and b divides a.

    ``/`` alone would give a float for two ints.
    """
    if isinstance(a, int) and isinstance(b, int):
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    return a / b


def _add_scaled(acc, vec, scale=_F1):
    """acc += scale * vec in place on sparse {key: value} dicts.

    The owner of the zero-free invariant: an entry whose sum is 0 is
    dropped, so two such vectors are equal exactly when they compare ==.
    Integer operands give integer sums; a Fraction operand gives a
    Fraction.
    """
    for k, c in vec.items():
        s = acc.get(k, 0) + scale * c
        if s:
            acc[k] = s
        else:
            acc.pop(k, None)


def quat_product(p, q):
    """Components of the quaternion product of two component 4-tuples.

    The components may be any ring elements: ints and Fractions here,
    floats and jets in the model charts.
    """
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


def _quat_conj(q):
    """Components of the conjugate of a quaternion component 4-tuple."""
    a, b, c, d = q
    return (a, -b, -c, -d)


Q_UNITS = {"1": (1, 0, 0, 0), "i": (0, 1, 0, 0), "j": (0, 0, 1, 0), "k": (0, 0, 0, 1)}


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals
# ---------------------------------------------------------------------------


def _int_row(row, ncols):
    """Primitive integer {col: int} form of one dense or sparse rational row."""
    if isinstance(row, dict):
        if not all(0 <= j < ncols for j in row):
            raise ValueError("row column out of range")
        items = [(j, v) for j, v in row.items() if v]
    else:
        if len(row) != ncols:
            raise ValueError("row length mismatch")
        items = [(j, v) for j, v in enumerate(row) if v]
    if all(isinstance(v, int) for _, v in items):
        ints = dict(items)
    else:
        items = [(j, _exact(v)) for j, v in items]
        lcm = 1
        for _, v in items:
            lcm = lcm * v.denominator // gcd(lcm, v.denominator)
        ints = {j: v.numerator * (lcm // v.denominator) for j, v in items}
    g = gcd(*ints.values())
    if g > 1:
        ints = {j: v // g for j, v in ints.items()}
    return ints


def _bareiss_echelon(m, ncols):
    """Fraction-free row echelon of zero-free {col: int} dict rows, which
    are mutated in place; returns (pivot_cols, echelon rows).

    For each column the rows not yet used as pivot rows that hold it are
    listed once, and only they are eliminated.  The pivot is the first
    sparsest (least ``len``) of the first 16 listed, to limit fill-in; an
    entry that cancels to 0 is deleted, so ``len`` is the nonzero count.
    The Bareiss recurrence keeps all entries integral.  It is applied
    lazily: a row without the pivot column would only be rescaled by the
    ratio of consecutive pivots, so it is left as it is, and ``level[i]``
    records after how many pivot steps its stored values were last
    brought up to date (its values then are the stored ones times
    pivots[now] / pivots[level[i]]).  An eliminated row divides by
    pivots[level[i]], and a pivot row is brought up to date before use,
    so every division is exact and the echelon rows are the integers of
    the eager recurrence.
    """
    nr = len(m)
    pivots = [mpz(1)]  # pivots[s]: the pivot of step s, 1 before the first
    level = [0] * nr
    r = 0
    piv_cols = []
    for c in range(ncols):
        if r >= nr:
            break
        holders = [i for i in range(r, nr) if c in m[i]]
        if not holders:
            continue
        best = min(holders[:16], key=lambda i: len(m[i]))
        if best != r:
            m[r], m[best] = m[best], m[r]
            level[r], level[best] = level[best], level[r]
        now = len(pivots) - 1
        mr = m[r]
        if level[r] != now:
            up, down = pivots[now], pivots[level[r]]
            for j, x in mr.items():
                mr[j] = (up * x) // down
        p = mr[c]
        tail = [(j, y) for j, y in mr.items() if j != c]
        for i in holders:
            if i == best:
                continue
            if i == r:
                i = best  # the row that the swap moved down
            mi = m[i]
            f = mi.pop(c)
            down = pivots[level[i]]
            for j, x in mi.items():
                if j not in mr:
                    mi[j] = p * x // down
            for j, y in tail:
                x = (p * mi.get(j, 0) - f * y) // down
                if x:
                    mi[j] = x
                else:
                    del mi[j]
            level[i] = now + 1
        pivots.append(p)
        piv_cols.append(c)
        r += 1
    return piv_cols, m[:r]


def _kernel_from_echelon(piv_cols, ech, ncols):
    """Primitive integer {col: int} kernel vectors, one per free column.

    Back substitution runs in integers: when a pivot does not divide the
    running sum, the vector is scaled by |pivot| / gcd.  The total scale is
    then the lcm of the denominators of the rational solution that is 1 at
    the free column, so each vector is primitive: the unique one that is
    positive at its free column and zero at every other free column.  Its
    keys come in increasing order.
    """
    piv_set = set(piv_cols)
    steps = [
        (pc, int(row[pc]), [(j, int(v)) for j, v in sorted(row.items()) if j != pc])
        for pc, row in zip(piv_cols, ech)
    ]
    steps.reverse()
    basis = []
    for fc in range(ncols):
        if fc in piv_set:
            continue
        x = {fc: 1}
        for pc, p, tail in steps:
            s = sum(v * x[j] for j, v in tail if j in x)
            if s:
                k = abs(p) // gcd(s, p)
                if k > 1:
                    x = {j: v * k for j, v in x.items()}
                    s *= k
                x[pc] = -s // p
        basis.append({j: x[j] for j in sorted(x)})
    return basis


def kernel_basis(rows, ncols):
    """Exact basis of the rational null space of the given rows.

    Accepts rows as sequences of Fractions/ints or sparse {col: value}
    dicts.  The columns are split into the connected components of the
    row/column incidence graph and each component is solved on its own; a
    column that no row touches contributes its unit vector.  Vectors are
    zero-free {col: int} dicts with their keys in increasing order,
    primitive, positive at their free column (the largest key) and
    ordered by it.  A dense row must have length ncols, and a dict row
    may only name columns 0..ncols-1 (ValueError otherwise).

    The result is certified: every vector is verified to satisfy M v = 0
    exactly against every row of the whole system.
    """
    sparse_rows = [r for r in (_int_row(row, ncols) for row in rows) if r]
    parent = list(range(ncols))

    def find(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for row in sparse_rows:
        js = iter(row)
        root = find(next(js))
        for j in js:
            rj = find(j)
            if rj != root:
                parent[rj] = root
    comp_cols, comp_rows = {}, {}
    for c in range(ncols):
        comp_cols.setdefault(find(c), []).append(c)
    for row in sparse_rows:
        comp_rows.setdefault(find(next(iter(row))), []).append(row)
    basis = []
    for root, cols in comp_cols.items():
        local = {c: t for t, c in enumerate(cols)}
        local_rows = [
            {local[j]: v for j, v in row.items()} for row in comp_rows.get(root, ())
        ]
        for lvec in _component_kernel(local_rows, len(cols)):
            basis.append({cols[t]: v for t, v in lvec.items()})
    basis.sort(key=max)  # by free column
    if not _verify_kernel(sparse_rows, basis):
        raise ArithmeticError("kernel verification failed")
    return basis


def _component_kernel(sparse_rows, ncols):
    """Kernel of one connected system of nonzero primitive integer rows.

    Fraction-free (Bareiss) elimination followed by integer back
    substitution.  A single column that no row touches comes back as its
    unit vector.
    """
    piv_cols, ech = _bareiss_echelon(sparse_rows, ncols)
    return _kernel_from_echelon(piv_cols, ech, ncols)


def _verify_kernel(sparse_rows, basis):
    """True when every row annihilates every integer vector of basis exactly.

    A row sharing no column with a vector's support annihilates it as an
    empty sum, so each vector is multiplied out against the rows that
    touch its support.
    """
    touching = {}
    for i, row in enumerate(sparse_rows):
        for j in row:
            touching.setdefault(j, []).append(i)
    for vec in basis:
        hit = set()
        for j in vec:
            hit.update(touching.get(j, ()))
        for i in hit:
            if sum(rv * vec[j] for j, rv in sparse_rows[i].items() if j in vec):
                return False
    return True


class SpanSolver:
    """Express vectors exactly in the span of a fixed generating set.

    Vectors are sparse dicts over arbitrary hashable coordinate keys.
    Reduction data is prepared once; ``coords`` then answers membership
    queries with exact coefficients (or raises ValueError).  Integer
    data stays integer wherever the reduction divides exactly.
    """

    def __init__(self, generators):
        self.n = 0
        self.pivots = []  # (key, reduced_row, coeff_vector), in insertion order
        self._position = {}  # pivot key -> its index in self.pivots
        for gen in generators:
            if not self.append(gen):
                raise ValueError("generators are linearly dependent")

    def append(self, gen) -> bool:
        """Add a generator; False when it is dependent on the current span."""
        row = {k: v for k, v in gen.items() if v != 0}
        coeff = {self.n: 1}
        row, coeff = self._reduce(row, coeff)
        if not row:
            return False
        self.n += 1
        key = min(row)
        pv = row[key]
        row = {k: _div(v, pv) for k, v in row.items()}
        coeff = {k: _div(v, pv) for k, v in coeff.items()}
        self._position[key] = len(self.pivots)
        self.pivots.append((key, row, coeff))
        return True

    def _reduce(self, row, coeff):
        """Eliminate the pivot keys of row, pivot by pivot in insertion order.

        A pivot row holds no key of an earlier pivot, so eliminating pivot
        t only brings in keys of later pivots: a sorted list of the pending
        pivot positions visits exactly the pivots a scan of all of them
        would act on, in the same order.
        """
        position = self._position
        pending = sorted(position[k] for k in row if k in position)
        queued = set(pending)
        while pending:
            t = pending.pop(0)
            key, prow, pcoeff = self.pivots[t]
            v = row.get(key)
            if v:
                _add_scaled(row, prow, -v)
                _add_scaled(coeff, pcoeff, -v)
                for k in prow:
                    s = position.get(k)
                    if s is not None and s not in queued:
                        queued.add(s)
                        insort(pending, s)
        return row, coeff

    def coords(self, vec):
        """{position: coefficient} of vec over the generators, zero-free, by position."""
        row = {k: v for k, v in vec.items() if v != 0}
        coeff = {}
        row, coeff = self._reduce(row, coeff)
        if row:
            raise ValueError("vector not in span")
        return {k: -coeff[k] for k in sorted(coeff)}
