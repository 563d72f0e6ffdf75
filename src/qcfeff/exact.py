"""Exact scalar and matrix arithmetic over arbitrary-precision rationals.

Scalars are quaternions with int or Fraction components (an int stays
an int, so integer data never enters Fraction arithmetic); complex and rational
values are quaternions whose upper components vanish.  Matrices carry a
``kind`` tag ("rational" | "complex" | "quaternion") restricting which
components their entries may use, so the realification maps can dispatch
on it.  Everything here is immutable after construction and pure.

Conventions: quaternions act as left scalar matrices on column vectors
(right H-module coordinates); i*j = k.  A quaternion a+bi+cj+dk splits
over C as U + jV with U = a+bi, V = c-di.
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

KINDS = ("rational", "complex", "quaternion")


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
    """Components of the quaternion product of two component 4-tuples."""
    a1, b1, c1, d1 = p
    a2, b2, c2, d2 = q
    return (
        a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
        a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
        a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
        a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
    )


class Quaternion:
    """Exact quaternion a + b*i + c*j + d*k over int or Fraction components."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a = _exact(a)
        self.b = _exact(b)
        self.c = _exact(c)
        self.d = _exact(d)

    @property
    def comps(self):
        return (self.a, self.b, self.c, self.d)

    def __add__(self, o):
        o = as_quat(o)
        return Quaternion(self.a + o.a, self.b + o.b, self.c + o.c, self.d + o.d)

    def __sub__(self, o):
        o = as_quat(o)
        return Quaternion(self.a - o.a, self.b - o.b, self.c - o.c, self.d - o.d)

    def __neg__(self):
        return Quaternion(-self.a, -self.b, -self.c, -self.d)

    def __mul__(self, o):
        return Quaternion(*quat_product(self.comps, as_quat(o).comps))

    __radd__ = __add__

    def conj(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def scale(self, r) -> "Quaternion":
        return Quaternion(self.a * r, self.b * r, self.c * r, self.d * r)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    # complex split q = U + jV, U = a+bi, V = c-di
    def complex_split(self):
        return (Quaternion(self.a, self.b), Quaternion(self.c, -self.d))

    def __eq__(self, o):
        if not isinstance(o, Quaternion):
            o = as_quat(o)
        return self.comps == o.comps


def as_quat(x) -> Quaternion:
    if isinstance(x, Quaternion):
        return x
    if isinstance(x, (int, Fraction)):
        return Quaternion(x)
    raise TypeError("cannot coerce %r to Quaternion" % (x,))


Q_ONE = Quaternion(1)
Q_I = Quaternion(0, 1)
Q_J = Quaternion(0, 0, 1)
Q_K = Quaternion(0, 0, 0, 1)
Q_UNITS = {"1": Q_ONE, "i": Q_I, "j": Q_J, "k": Q_K}


class ExactMatrix:
    """Immutable sparse exact matrix of homogeneous scalar kind."""

    __slots__ = ("rows", "cols", "kind", "entries", "_row_index")

    def __init__(self, rows, cols, entries=None, kind="rational"):
        if kind not in KINDS:
            raise ValueError("bad kind %r" % kind)
        self.rows = rows
        self.cols = cols
        self.kind = kind
        ent = {}
        if entries:
            for (i, j), v in entries.items():
                v = as_quat(v)
                if not v.is_zero():
                    ent[(i, j)] = v
        self.entries = ent
        self._row_index = None

    @classmethod
    def zero(cls, rows, cols, kind="rational"):
        return cls(rows, cols, {}, kind)

    def _rows_of(self):
        if self._row_index is None:
            idx = {}
            for (i, j), v in self.entries.items():
                idx.setdefault(i, []).append((j, v))
            self._row_index = idx
        return self._row_index

    def __add__(self, o):
        self._check_shape(o)
        ent = dict(self.entries)
        for k, v in o.entries.items():
            ent[k] = ent.get(k, Quaternion()) + v
        return ExactMatrix(self.rows, self.cols, ent, self._join_kind(o))

    def __sub__(self, o):
        self._check_shape(o)
        ent = dict(self.entries)
        for k, v in o.entries.items():
            ent[k] = ent.get(k, Quaternion()) - v
        return ExactMatrix(self.rows, self.cols, ent, self._join_kind(o))

    def scale(self, r):
        return ExactMatrix(
            self.rows, self.cols, {k: v.scale(r) for k, v in self.entries.items()}, self.kind
        )

    def __mul__(self, o):
        if not isinstance(o, ExactMatrix):
            return self.scale(o)
        if self.cols != o.rows:
            raise ValueError("shape mismatch %sx%s @ %sx%s" % (self.rows, self.cols, o.rows, o.cols))
        orows = o._rows_of()
        acc = {}
        for (i, k), v in self.entries.items():
            row = orows.get(k)
            if not row:
                continue
            for j, w in row:
                key = (i, j)
                prod = v * w
                if key in acc:
                    acc[key] = acc[key] + prod
                else:
                    acc[key] = prod
        return ExactMatrix(self.rows, o.cols, acc, self._join_kind(o))

    def transpose(self):
        return ExactMatrix(
            self.cols, self.rows, {(j, i): v for (i, j), v in self.entries.items()}, self.kind
        )

    def conj(self):
        return ExactMatrix(
            self.rows, self.cols, {k: v.conj() for k, v in self.entries.items()}, self.kind
        )

    def trace(self) -> Quaternion:
        t = Quaternion()
        for (i, j), v in self.entries.items():
            if i == j:
                t = t + v
        return t

    def is_zero(self) -> bool:
        return not self.entries

    def __eq__(self, o):
        return (
            isinstance(o, ExactMatrix)
            and self.rows == o.rows
            and self.cols == o.cols
            and (self - o).is_zero()
        )

    def _check_shape(self, o):
        if self.rows != o.rows or self.cols != o.cols:
            raise ValueError("shape mismatch")

    def _join_kind(self, o):
        return self.kind if KINDS.index(self.kind) >= KINDS.index(o.kind) else o.kind


def realify_H(m: ExactMatrix) -> ExactMatrix:
    """Complex 2Nx2N block image [[U, -conj(V)], [V, conj(U)]] of M = U + jV."""
    if m.kind == "rational":
        m = ExactMatrix(m.rows, m.cols, m.entries, "quaternion")
    if m.kind != "quaternion" and m.kind != "complex":
        raise ValueError("realify_H expects quaternionic entries")
    n, p = m.rows, m.cols
    ent = {}
    for (i, j), q in m.entries.items():
        u, v = q.complex_split()
        if not u.is_zero():
            ent[(i, j)] = u
            ent[(n + i, p + j)] = u.conj()
        if not v.is_zero():
            ent[(i, p + j)] = -v.conj()
            ent[(n + i, j)] = v
    return ExactMatrix(2 * n, 2 * p, ent, "complex")


def realify_C(m: ExactMatrix) -> ExactMatrix:
    """Real 2Nx2N block image [[A, -B], [B, A]] of M = A + iB."""
    if m.kind == "quaternion":
        raise ValueError("realify_C expects complex entries")
    n, p = m.rows, m.cols
    ent = {}
    for (i, j), q in m.entries.items():
        if q.c != 0 or q.d != 0:
            raise ValueError("realify_C expects complex entries")
        if q.a != 0:
            ent[(i, j)] = Quaternion(q.a)
            ent[(n + i, p + j)] = Quaternion(q.a)
        if q.b != 0:
            ent[(i, p + j)] = Quaternion(-q.b)
            ent[(n + i, j)] = Quaternion(q.b)
    return ExactMatrix(2 * n, 2 * p, ent, "rational")


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
    """Fraction-free row echelon; returns (pivot_cols, echelon rows).

    Rows are mutated in place.  Pivot selection prefers sparse rows to
    limit fill-in; the Bareiss recurrence keeps all entries integral.
    The recurrence is applied lazily: a row with a zero in the pivot
    column would only be rescaled by the ratio of consecutive pivots, so
    it is left as it is, and ``level[i]`` records after how many pivot
    steps its stored values were last brought up to date (its values
    then are the stored ones times pivots[now] / pivots[level[i]]).  An
    eliminated row divides by pivots[level[i]], and a pivot row is brought
    up to date before use, so every division is exact and the echelon
    rows are the integers of the eager recurrence.
    """
    nr = len(m)
    pivots = [mpz(1)]  # pivots[s]: the pivot of step s, 1 before the first
    level = [0] * nr
    r = 0
    piv_cols = []
    for c in range(ncols):
        if r >= nr:
            break
        best = -1
        best_count = None
        scanned = 0
        for i in range(r, nr):
            if m[i][c]:
                cnt = sum(1 for x in m[i] if x)
                if best_count is None or cnt < best_count:
                    best, best_count = i, cnt
                scanned += 1
                if scanned >= 16:
                    break
        if best < 0:
            continue
        if best != r:
            m[r], m[best] = m[best], m[r]
            level[r], level[best] = level[best], level[r]
        now = len(pivots) - 1
        mr = m[r]
        if level[r] != now:
            up, down = pivots[now], pivots[level[r]]
            for j in range(c, ncols):
                if mr[j]:
                    mr[j] = (up * mr[j]) // down
        p = mr[c]
        for i in range(r + 1, nr):
            mi = m[i]
            f = mi[c]
            if f:
                down = pivots[level[i]]
                for j in range(c + 1, ncols):
                    mi[j] = (p * mi[j] - f * mr[j]) // down
                mi[c] = mpz(0)
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
        (pc, int(row[pc]), [(j, int(row[j])) for j in range(pc + 1, ncols) if row[j]])
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
    int_rows = []
    for row in sparse_rows:
        dense = [mpz(0)] * ncols
        for j, v in row.items():
            dense[j] = mpz(v)
        int_rows.append(dense)
    piv_cols, ech = _bareiss_echelon(int_rows, ncols)
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
