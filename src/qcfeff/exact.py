"""Exact scalar and matrix arithmetic over arbitrary-precision rationals.

Scalars are quaternions with Fraction components; complex and rational
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
from math import gcd

try:
    from gmpy2 import mpz
except ImportError:  # pragma: no cover - gmpy2 is a declared dependency
    mpz = int

_F0 = Fraction(0)
_F1 = Fraction(1)

KINDS = ("rational", "complex", "quaternion")


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class Quaternion:
    """Exact quaternion a + b*i + c*j + d*k over Fraction components."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a=0, b=0, c=0, d=0):
        self.a = _frac(a)
        self.b = _frac(b)
        self.c = _frac(c)
        self.d = _frac(d)

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
        o = as_quat(o)
        a1, b1, c1, d1 = self.comps
        a2, b2, c2, d2 = o.comps
        return Quaternion(
            a1 * a2 - b1 * b2 - c1 * c2 - d1 * d2,
            a1 * b2 + b1 * a2 + c1 * d2 - d1 * c2,
            a1 * c2 - b1 * d2 + c1 * a2 + d1 * b2,
            a1 * d2 + b1 * c2 - c1 * b2 + d1 * a2,
        )

    def __rmul__(self, o):
        return as_quat(o) * self

    __radd__ = __add__

    def __rsub__(self, o):
        return as_quat(o) - self

    def conj(self) -> "Quaternion":
        return Quaternion(self.a, -self.b, -self.c, -self.d)

    def norm2(self) -> Fraction:
        return self.a ** 2 + self.b ** 2 + self.c ** 2 + self.d ** 2

    def inverse(self) -> "Quaternion":
        n = self.norm2()
        if n == 0:
            raise ZeroDivisionError("inverse of zero quaternion")
        return Quaternion(self.a / n, -self.b / n, -self.c / n, -self.d / n)

    def scale(self, r) -> "Quaternion":
        r = _frac(r)
        return Quaternion(self.a * r, self.b * r, self.c * r, self.d * r)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0 and self.c == 0 and self.d == 0

    def kind(self) -> str:
        if self.c == 0 and self.d == 0:
            return "rational" if self.b == 0 else "complex"
        return "quaternion"

    # complex split q = U + jV, U = a+bi, V = c-di
    def complex_split(self):
        return (Quaternion(self.a, self.b), Quaternion(self.c, -self.d))

    def __eq__(self, o):
        if not isinstance(o, Quaternion):
            o = as_quat(o)
        return self.comps == o.comps

    def __hash__(self):
        return hash(self.comps)

    def __repr__(self):
        return "Quaternion(%s, %s, %s, %s)" % self.comps


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
    def from_rows(cls, data, kind="rational"):
        ent = {}
        for i, row in enumerate(data):
            for j, v in enumerate(row):
                v = as_quat(v)
                if not v.is_zero():
                    ent[(i, j)] = v
        return cls(len(data), len(data[0]) if data else 0, ent, kind)

    @classmethod
    def identity(cls, n, kind="rational"):
        return cls(n, n, {(i, i): Q_ONE for i in range(n)}, kind)

    @classmethod
    def zero(cls, rows, cols, kind="rational"):
        return cls(rows, cols, {}, kind)

    def at(self, i, j) -> Quaternion:
        return self.entries.get((i, j), Quaternion())

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

    def __neg__(self):
        return ExactMatrix(
            self.rows, self.cols, {k: -v for k, v in self.entries.items()}, self.kind
        )

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

    def commutator(self, o):
        return self * o - o * self

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

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.entries.items())))

    def _check_shape(self, o):
        if self.rows != o.rows or self.cols != o.cols:
            raise ValueError("shape mismatch")

    def _join_kind(self, o):
        return self.kind if KINDS.index(self.kind) >= KINDS.index(o.kind) else o.kind

    def __repr__(self):
        return "ExactMatrix(%dx%d, %s, %d nonzero)" % (
            self.rows, self.cols, self.kind, len(self.entries)
        )


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
        items = [(j, _frac(v)) for j, v in row.items() if v]
    else:
        if len(row) != ncols:
            raise ValueError("row length mismatch")
        items = [(j, _frac(v)) for j, v in enumerate(row) if v]
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
    """
    nr = len(m)
    prev = mpz(1)
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
        p = m[r][c]
        for i in range(r + 1, nr):
            mi = m[i]
            f = mi[c]
            mr = m[r]
            if f:
                for j in range(c + 1, ncols):
                    mi[j] = (p * mi[j] - f * mr[j]) // prev
                mi[c] = mpz(0)
            elif prev != 1 or p != 1:
                for j in range(c + 1, ncols):
                    if mi[j]:
                        mi[j] = (p * mi[j]) // prev
        prev = p
        piv_cols.append(c)
        r += 1
    return piv_cols, m[:r]


def _kernel_from_echelon(piv_cols, ech, ncols):
    rank = len(piv_cols)
    piv_set = set(piv_cols)
    free_cols = [c for c in range(ncols) if c not in piv_set]
    basis = []
    for fc in free_cols:
        x = [_F0] * ncols
        x[fc] = _F1
        for r in range(rank - 1, -1, -1):
            pc = piv_cols[r]
            s = _F0
            row = ech[r]
            for j in range(pc + 1, ncols):
                if row[j] and x[j]:
                    s += Fraction(int(row[j])) * x[j]
            if s:
                x[pc] = -s / Fraction(int(row[pc]))
        # scale to integer vector
        lcm = 1
        for v in x:
            if v:
                lcm = lcm * v.denominator // gcd(lcm, v.denominator)
        g = 0
        ints = [v.numerator * (lcm // v.denominator) for v in x]
        for v in ints:
            g = gcd(g, v)
        if g > 1:
            ints = [v // g for v in ints]
        basis.append(tuple(Fraction(v) for v in ints))
    return basis


_PRIMES = (999983, 999979, 999961, 999959, 999953)


def _modp_pivots(int_rows, ncols, p):
    """Row-reduce mod p (numpy); returns (pivot_row_indices, pivot_cols)."""
    import numpy as np

    nr = len(int_rows)
    a = np.empty((nr, ncols), dtype=np.int64)
    for i, row in enumerate(int_rows):
        a[i] = [int(x) % p for x in row]
    perm = list(range(nr))
    piv_rows, piv_cols = [], []
    r = 0
    for c in range(ncols):
        if r >= nr:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
            perm[r], perm[i] = perm[i], perm[r]
        inv = pow(int(a[r, c]), p - 2, p)
        a[r] = (a[r] * inv) % p
        col = a[r + 1:, c].copy()
        mask = col != 0
        if mask.any():
            a[r + 1:][mask] = (a[r + 1:][mask] - col[mask, None] * a[r][None, :]) % p
        piv_rows.append(perm[r])
        piv_cols.append(c)
        r += 1
    return piv_rows, piv_cols


def kernel_basis(rows, ncols):
    """Exact basis of the rational null space of the given rows.

    Accepts rows as sequences of Fractions/ints or sparse {col: value}
    dicts.  The columns are split into the connected components of the
    row/column incidence graph and each component is solved on its own; a
    column that no row touches contributes its unit vector.  Vectors are
    ordered by their free column, the largest index in their support.

    The result is certified: every vector is verified to satisfy M v = 0
    exactly against every row of the whole system, and for the lifting
    path the pivot minor is nonzero mod p, which bounds the rank from
    below over Q.
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
    keyed = []
    for root, cols in comp_cols.items():
        local = {c: t for t, c in enumerate(cols)}
        local_rows = [
            {local[j]: v for j, v in row.items()} for row in comp_rows.get(root, ())
        ]
        for lvec in _component_kernel(local_rows, len(cols)):
            vec = [_F0] * ncols
            for t, v in enumerate(lvec):
                if v:
                    vec[cols[t]] = v
                    free = cols[t]
            keyed.append((free, tuple(vec)))
    keyed.sort(key=lambda fv: fv[0])
    basis = [vec for _, vec in keyed]
    if not _verify_kernel(sparse_rows, basis):
        raise ArithmeticError("kernel verification failed")
    return basis


def _component_kernel(sparse_rows, ncols):
    """Kernel of one connected system of nonzero primitive integer rows.

    Small systems take fraction-free elimination; larger ones take modular
    pivots plus batched p-adic lifting, falling back to elimination when
    no prime yields a verified basis.  A single column that no row touches
    comes back as its unit vector.
    """
    int_rows = []
    for row in sparse_rows:
        dense = [mpz(0)] * ncols
        for j, v in row.items():
            dense[j] = mpz(v)
        int_rows.append(dense)
    if ncols > 220 or len(int_rows) > 600:
        for p in _PRIMES:
            piv_rows, piv_cols = _modp_pivots(int_rows, ncols, p)
            sub = [int_rows[i] for i in piv_rows]
            try:
                basis = _kernel_dixon_batched(sub, piv_cols, ncols, p)
            except ArithmeticError:
                continue
            if basis is not None and _verify_kernel(sparse_rows, basis):
                return basis
    piv_cols, ech = _bareiss_echelon(int_rows, ncols)
    return _kernel_from_echelon(piv_cols, ech, ncols)


def _verify_kernel(sparse_rows, basis):
    """True when every row annihilates every vector of basis exactly.

    A row sharing no column with a vector's support annihilates it as an
    empty sum, so each vector is multiplied out against the rows that
    touch its support.
    """
    touching = {}
    for i, row in enumerate(sparse_rows):
        for j in row:
            touching.setdefault(j, []).append(i)
    for vec in basis:
        support = [(j, v) for j, v in enumerate(vec) if v]
        lcm = 1
        for _, v in support:
            lcm = lcm * v.denominator // gcd(lcm, v.denominator)
        ints = {j: int(v.numerator) * (lcm // v.denominator) for j, v in support}
        hit = set()
        for j in ints:
            hit.update(touching.get(j, ()))
        for i in hit:
            if sum(rv * ints.get(j, 0) for j, rv in sparse_rows[i].items()):
                return False
    return True


def _kernel_dixon_batched(piv_rows, piv_cols, ncols, p):
    """Kernel vectors via batched p-adic lifting on the pivot submatrix.

    All free columns are lifted simultaneously; residual updates use a
    float64 matmul when the exactness bound allows it (every intermediate
    stays below 2^53), falling back to object-dtype products otherwise.
    """
    import numpy as np

    r = len(piv_rows)
    piv_set = set(piv_cols)
    free_cols = [c for c in range(ncols) if c not in piv_set]
    if r == 0:
        return [
            tuple(_F1 if j == c else _F0 for j in range(ncols)) for c in free_cols
        ]
    if not free_cols:
        return []
    a_int = [[int(row[c]) for c in piv_cols] for row in piv_rows]
    amax = max(1, max(abs(v) for row in a_int for v in row))
    lu = _ModPLU(a_int, p)
    nfree = len(free_cols)
    exact_f64 = amax * p * r < 2 ** 52
    a_np = np.array(a_int, dtype=np.float64) if exact_f64 else None
    a_obj = None if exact_f64 else np.array(a_int, dtype=object)
    if exact_f64:
        residual = np.array(
            [[-int(row[c]) for c in free_cols] for row in piv_rows], dtype=np.int64
        )
    else:
        residual = np.array(
            [[-int(row[c]) for c in free_cols] for row in piv_rows], dtype=object
        )
    digits = []
    pk = mpz(1)
    step = 0
    check_at = 6
    max_steps = 4000
    while step < max_steps:
        if exact_f64:
            b_mod = residual % p
        else:
            b_mod = np.array(
                [[int(v % p) for v in row] for row in residual], dtype=np.int64
            )
        x = lu.solve_matrix(b_mod)
        digits.append(x)
        if exact_f64:
            ax = a_np @ x.astype(np.float64)
            residual = (residual - ax.astype(np.int64)) // p
        else:
            residual = (residual - a_obj @ x.astype(object)) // p
        pk *= p
        step += 1
        done = not residual.any()
        if step >= check_at or done:
            sol = _reconstruct_matrix(digits, pk, p, r, nfree)
            if sol is not None:
                basis = []
                for t, fc in enumerate(free_cols):
                    vec = [_F0] * ncols
                    vec[fc] = _F1
                    for idx, c in enumerate(piv_cols):
                        vec[c] = sol[idx][t]
                    basis.append(tuple(vec))
                return basis
            if done:
                return None
            check_at = max(check_at + 6, int(check_at * 1.7))
    return None


def _reconstruct_matrix(digits, pk, p, r, nfree):
    sol = []
    for i in range(r):
        row = []
        for t in range(nfree):
            v = 0
            for x in reversed(digits):
                v = v * p + int(x[i, t])
            rec = _rational_reconstruct(v, pk)
            if rec is None:
                return None
            row.append(rec)
        sol.append(row)
    return sol


class _ModPLU:
    """Dense LU factorisation mod p with partial pivoting (numpy int64)."""

    def __init__(self, a_int, p):
        import numpy as np

        self.p = p
        n = len(a_int)
        a = np.array([[int(x) % p for x in row] for row in a_int], dtype=np.int64)
        perm = np.arange(n)
        for k in range(n):
            nz = np.nonzero(a[k:, k])[0]
            if nz.size == 0:
                raise ArithmeticError("singular mod p")
            i = k + int(nz[0])
            if i != k:
                a[[k, i]] = a[[i, k]]
                perm[[k, i]] = perm[[i, k]]
            inv = pow(int(a[k, k]), p - 2, p)
            a[k + 1:, k] = (a[k + 1:, k] * inv) % p
            if k + 1 < n:
                sub = a[k + 1:, k + 1:]
                sub -= a[k + 1:, k, None] * a[k, k + 1:][None, :]
                sub %= p
        self.a = a
        self.perm = perm
        self.n = n

    def solve_matrix(self, b_mod):
        """Forward/back substitution for a matrix of right-hand sides.

        Forward steps reduce every row operation mod p.  Back substitution
        sums up to n products below p^2 in float64, which is exact only
        while n * p^2 < 2^53; otherwise ArithmeticError, as for a singular
        factorisation.
        """
        import numpy as np

        p, a, n = self.p, self.a, self.n
        if n * p * p >= 2 ** 53:
            raise ArithmeticError("float64 back substitution inexact mod p")
        x = b_mod[self.perm].copy()
        for k in range(n):
            row = x[k]
            if row.any():
                x[k + 1:] = (x[k + 1:] - np.outer(a[k + 1:, k], row)) % p
        inv_diag = [pow(int(a[k, k]), p - 2, p) for k in range(n)]
        for k in range(n - 1, -1, -1):
            if k + 1 < n:
                acc = (a[k, k + 1:].astype(np.float64) @ x[k + 1:].astype(np.float64))
                x[k] = (x[k] - acc.astype(np.int64) % p) % p
            x[k] = (x[k] * inv_diag[k]) % p
        return x


def _rational_reconstruct(a, m):
    """Unique n/d with a*d = n mod m and |n|, d <= sqrt(m/2), if it exists."""
    from math import isqrt

    m = int(m)
    a = int(a) % m
    lo = isqrt(m // 2)
    r0, r1 = m, a
    s0, s1 = 0, 1
    while r1 > lo:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if s1 == 0 or abs(s1) > lo:
        return None
    if s1 < 0:
        r1, s1 = -r1, -s1
    if (a * s1 - r1) % m != 0:
        return None
    return Fraction(r1, s1)


def solve_exact(rows, rhs, ncols):
    """One exact solution x of M x = rhs, or None when inconsistent.

    Small dense Fraction elimination; intended for the modest systems in
    algebra construction (dual bases, membership, grading elements).
    """
    m = []
    for row, r in zip(rows, rhs):
        if isinstance(row, dict):
            dense = [_F0] * ncols
            for j, v in row.items():
                dense[j] = _frac(v)
        else:
            dense = [_frac(v) for v in row]
        m.append(dense + [_frac(r)])
    nr = len(m)
    piv = []
    r = 0
    for c in range(ncols):
        if r >= nr:
            break
        sel = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        pivval = m[r][c]
        m[r] = [v / pivval for v in m[r]]
        for i in range(nr):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        piv.append(c)
        r += 1
    for i in range(r, nr):
        if m[i][ncols] != 0:
            return None
    x = [_F0] * ncols
    for i, c in enumerate(piv):
        x[c] = m[i][ncols]
    return x


class SpanSolver:
    """Express vectors exactly in the span of a fixed generating set.

    Vectors are sparse dicts over arbitrary hashable coordinate keys.
    Reduction data is prepared once; ``coords`` then answers membership
    queries with exact coefficients (or raises ValueError).
    """

    def __init__(self, generators):
        self.n = 0
        self.pivots = []  # (key, reduced_row, coeff_vector)
        for gen in generators:
            if not self.append(gen):
                raise ValueError("generators are linearly dependent")

    @classmethod
    def empty(cls):
        return cls([])

    def append(self, gen) -> bool:
        """Add a generator; False when it is dependent on the current span."""
        idx = self.n
        row = {k: _frac(v) for k, v in gen.items() if v != 0}
        coeff = {idx: _F1}
        row, coeff = self._reduce(row, coeff)
        self.n += 1
        if not row:
            self.n -= 1
            return False
        key = min(row)
        pv = row[key]
        row = {k: v / pv for k, v in row.items()}
        coeff = {k: v / pv for k, v in coeff.items()}
        self.pivots.append((key, row, coeff))
        return True

    def _reduce(self, row, coeff):
        for key, prow, pcoeff in self.pivots:
            v = row.get(key)
            if v:
                for k, w in prow.items():
                    nv = row.get(k, _F0) - v * w
                    if nv:
                        row[k] = nv
                    else:
                        row.pop(k, None)
                for k, w in pcoeff.items():
                    nv = coeff.get(k, _F0) - v * w
                    if nv:
                        coeff[k] = nv
                    else:
                        coeff.pop(k, None)
        return row, coeff

    def coords(self, vec):
        row = {k: _frac(v) for k, v in vec.items() if v != 0}
        coeff = {}
        row, coeff = self._reduce(row, coeff)
        if row:
            raise ValueError("vector not in span")
        out = [_F0] * self.n
        for k, v in coeff.items():
            out[k] = -v
        return out

    def contains(self, vec) -> bool:
        try:
            self.coords(vec)
            return True
        except ValueError:
            return False
