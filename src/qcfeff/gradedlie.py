"""Graded matrix Lie algebras in Witt bases, with exact structure data.

Three families are built from one constructor: the symplectic unitary
algebra of an indefinite quaternionic hermitian form (|2|-graded), the
special unitary algebra of a complex form (|2|-graded), and the
orthogonal algebra of a real form (|1|-graded).  The defining form is
the modified Witt form: light-like dual pairs at both ends, an
orthonormal middle block.  Elements satisfy  X^t S + S conj(X) = 0
(plus zero trace in the complex case), and the grading element is
diag(1, 0, ..., 0, -1).

A matrix is a zero-free dict {(row, col): quaternion 4-tuple} (see
``qcfeff.exact``); quaternions act as left scalar matrices on column
vectors (right H-module coordinates).  Basis matrices are chosen with
entries among the scalar units, ordered by ascending degree and then by
a fixed enumeration of entry positions, so structure constants are
reproducible; each is checked against the defining identity entry by
entry.  Brackets are multiplied out in integers from the matrix units
(E_ab E_cd = delta_bc E_ad times the quaternion product of the entries).
The Killing form is computed intrinsically as trace(ad . ad) on the
abstract basis, on the pairs of opposite degree: every other pair pairs
to 0 by the grading.

The chain sp(n+1,1) < su(2n+2,2) < so(4n+4,4) shares one real ambient:
realification sends an entry a + bi + cj + dk, split over C as U + jV
with U = a + bi and V = c - di, to the complex block [[U, -conj V],
[V, conj U]], and a complex entry A + iB to the real block [[A, -B],
[B, A]]; a permutation then reorders the doubled coordinates into a Witt
basis (``witt_double_perm``).  Each step only moves entries to new
indices.
"""

from __future__ import annotations

from fractions import Fraction

from .exact import Q_UNITS, SpanSolver, _add_scaled, _quat_conj, quat_product

_F0 = Fraction(0)
_F1 = Fraction(1)

_UNITS_BY_KIND = {
    "rational": ("1",),
    "complex": ("1", "i"),
    "quaternion": ("1", "i", "j", "k"),
}
_IM_UNITS_BY_KIND = {
    "rational": (),
    "complex": ("i",),
    "quaternion": ("i", "j", "k"),
}


class ClosureError(RuntimeError):
    """A bracket left the exact span of the basis (construction bug)."""


class SingularPairingError(RuntimeError):
    """The Killing pairing between opposite degrees degenerated."""


def _witt_tau(m, q, a):
    """The partner of a under the Witt form, whose 1s sit at (a, tau(a)):
    q hyperbolic pairs at the ends and an orthonormal middle."""
    if a < q or a >= m - q:
        return m - 1 - a
    return a


def witt_double_perm(m: int, q: int):
    """Index map w -> f for realifying a Witt basis (size m, q light pairs).

    The doubled space carries the form diag(S, S); the returned
    permutation reorders the 2m realified coordinates into a Witt basis
    with 2q light pairs, Re/Im interleaved at the front and mirrored at
    the back.
    """
    M = m
    pi = [0] * (2 * m)
    for a in range(q):
        pi[2 * a] = a
        pi[2 * a + 1] = M + a
        pi[2 * M - 1 - 2 * a] = m - 1 - a
        pi[2 * M - 2 - 2 * a] = M + m - 1 - a
    mids = list(range(q, m - q)) + list(range(M + q, M + m - q))
    for t, f in enumerate(mids):
        pi[2 * q + t] = f
    return pi


def _permuted(mat, pi):
    """P M P^t for the permutation matrix P with its 1s at (t, pi[t]):
    entry (pi[t], pi[s]) moves to (t, s)."""
    inv = {f: t for t, f in enumerate(pi)}
    return {(inv[i], inv[j]): x for (i, j), x in mat.items()}


def _realify_H(mat, m):
    """Complex 2m x 2m image [[U, -conj V], [V, conj U]] of an m x m M = U + jV."""
    out = {}
    for (i, j), (a, b, c, d) in mat.items():
        if a or b:
            out[(i, j)] = (a, b, 0, 0)
            out[(m + i, m + j)] = (a, -b, 0, 0)
        if c or d:
            out[(i, m + j)] = (-c, -d, 0, 0)
            out[(m + i, j)] = (c, -d, 0, 0)
    return out


def _realify_C(mat, m):
    """Real 2m x 2m image [[A, -B], [B, A]] of an m x m M = A + iB."""
    out = {}
    for (i, j), (a, b, c, d) in mat.items():
        if c or d:
            raise ValueError("realify_C expects complex entries")
        if a:
            out[(i, j)] = out[(m + i, m + j)] = (a, 0, 0, 0)
        if b:
            out[(i, m + j)] = (-b, 0, 0, 0)
            out[(m + i, j)] = (b, 0, 0, 0)
    return out


def _scaled(x, r):
    """r times the quaternion 4-tuple x."""
    return tuple(r * c for c in x)


def _diag_weight(m, a):
    if a == 0:
        return 1
    if a == m - 1:
        return -1
    return 0


def _orbit_partner(m, q, a, b):
    return (_witt_tau(m, q, b), _witt_tau(m, q, a))


def _enumerate_basis(kind, m, q):
    """Yield (label, degree, native matrix) in canonical order."""
    units = _UNITS_BY_KIND[kind]
    im_units = _IM_UNITS_BY_KIND[kind]
    by_degree = {}
    seen = set()
    for a in range(m):
        for b in range(m):
            if a == b:
                continue
            if (a, b) in seen:
                continue
            pa, pb = _orbit_partner(m, q, a, b)
            seen.add((a, b))
            seen.add((pa, pb))
            deg = _diag_weight(m, a) - _diag_weight(m, b)
            gens = by_degree.setdefault(deg, [])
            if (pa, pb) == (a, b):
                for u in im_units:
                    uq = Q_UNITS[u]
                    gens.append((f"e({a},{b}){u}", {(a, b): uq}))
            else:
                for u in units:
                    uq = Q_UNITS[u]
                    ent = {(a, b): uq, (pa, pb): _scaled(_quat_conj(uq), -1)}
                    gens.append((f"e({a},{b}){u}", ent))
    # diagonal generators, degree 0
    diag = by_degree.setdefault(0, [])
    trace_carriers = []  # (label, entries, trace coefficient of i-part)
    for a in range(q):
        ta = _witt_tau(m, q, a)
        for u in units:
            uq = Q_UNITS[u]
            ent = {(a, a): uq, (ta, ta): _scaled(_quat_conj(uq), -1)}
            if kind == "complex" and u == "i":
                trace_carriers.append((f"d({a}){u}", ent, 2))
            else:
                diag.append((f"d({a}){u}", ent))
    for a in range(q, m - q):
        for u in im_units:
            uq = Q_UNITS[u]
            ent = {(a, a): uq}
            if kind == "complex":
                trace_carriers.append((f"d({a}){u}", ent, 1))
            else:
                diag.append((f"d({a}){u}", ent))
    # complex case: combine trace carriers into traceless differences
    for idx in range(len(trace_carriers) - 1):
        la, ea, ta = trace_carriers[idx]
        lb, eb, tb = trace_carriers[idx + 1]
        # the two carriers sit on disjoint diagonal positions
        ent = {k: _scaled(v, tb) for k, v in ea.items()}
        ent.update((k, _scaled(v, -ta)) for k, v in eb.items())
        diag.append((f"{la}-{lb}", ent))
    return [(label, deg, ent) for deg in sorted(by_degree) for label, ent in by_degree[deg]]


def _check_member(kind, m, q, mat):
    """X^t S + S conj(X) = 0 for the Witt form S, entry by entry.

    S has its 1s at (a, tau(a)), so the identity reads X[tau(j), tau(i)]
    = -conj X[i, j]; tau is an involution, so checking it at every
    entry of the zero-free dict also covers every zero entry.  The
    complex case also needs zero trace.
    """
    for (i, j), x in mat.items():
        if mat.get((_witt_tau(m, q, j), _witt_tau(m, q, i))) != _scaled(_quat_conj(x), -1):
            raise ClosureError("matrix fails the defining form identity")
    if kind == "complex":
        if any(sum(x[t] for (i, j), x in mat.items() if i == j) for t in range(4)):
            raise ClosureError("complex matrix not trace free")


def matrix_to_coordvec(mat):
    """Flatten to {(row, col, component): value} over nonzero entries."""
    out = {}
    for (i, j), v in mat.items():
        for c, comp in enumerate(v):
            if comp:
                out[(i, j, c)] = comp
    return out


def _commutator_vec(x, y):
    """[X, Y] as {(row, col, component): value}, zero-free.

    X and Y are lists of matrix-unit terms (row, col, components); the
    product of two terms is E_ab E_cd = delta_bc E_ad times the
    quaternion product of their entries.
    """
    acc = {}
    for sign, left, right in ((1, x, y), (-1, y, x)):
        for a, b, p in left:
            for c, d, q in right:
                if b == c:
                    term = {(a, d, t): v for t, v in enumerate(quat_product(p, q))}
                    _add_scaled(acc, term, sign)
    return acc


class GradedLieAlgebra:
    """A |k|-graded matrix Lie algebra with exact structure constants."""

    def __init__(self, name, kind, m, q, ambient_map=None):
        self.name = name
        self.kind = kind
        self.m = m
        self.q = q
        basis = _enumerate_basis(kind, m, q)
        for _, _, mat in basis:
            _check_member(kind, m, q, mat)
        self.labels = [b[0] for b in basis]
        self.degrees = [b[1] for b in basis]
        self.native = [b[2] for b in basis]
        self.dim = len(basis)
        self.k = max(abs(d) for d in self.degrees)
        self.by_degree = {}
        for i, d in enumerate(self.degrees):
            self.by_degree.setdefault(d, []).append(i)
        if ambient_map is None:
            self.ambient = list(self.native)
        else:
            self.ambient = [ambient_map(mat) for mat in self.native]
        self._solvers = {
            d: SpanSolver([matrix_to_coordvec(self.native[i]) for i in idxs])
            for d, idxs in self.by_degree.items()
        }
        self._bracket_table = self._build_brackets()
        self.killing = self._build_killing()
        self.grading_element = self._find_grading_element()
        self._dual = None

    # -- construction ---------------------------------------------------

    def _coords_in_degree(self, vec, deg):
        """Coordinates of a {(row, col, comp): value} vector in the degree deg block.

        Whole-number coefficients come back as int.
        """
        if not vec:
            return {}
        idxs = self.by_degree.get(deg)
        if idxs is None:
            raise ClosureError("bracket landed in missing degree %d" % deg)
        coeffs = self._solvers[deg].coords(vec)
        return {idxs[t]: c.numerator if c.denominator == 1 else c for t, c in coeffs.items()}

    def _build_brackets(self):
        units = [
            [(a, b, q) for (a, b), q in mat.items()] for mat in self.native
        ]
        table = {}
        n = self.dim
        for i in range(n):
            for j in range(i + 1, n):
                deg = self.degrees[i] + self.degrees[j]
                vec = _commutator_vec(units[i], units[j])
                if not vec:
                    continue
                if abs(deg) > self.k:
                    raise ClosureError("degree additivity violated")
                try:
                    coeffs = self._coords_in_degree(vec, deg)
                except ValueError as exc:
                    raise ClosureError("bracket closure failed") from exc
                table[(i, j)] = coeffs
                table[(j, i)] = {l: -c for l, c in coeffs.items()}
        return table

    def _build_killing(self):
        n = self.dim
        ad = []
        for i in range(n):
            rows = {}
            for j in range(n):
                br = self._bracket_table.get((i, j))
                if br:
                    rows[j] = br
            ad.append(rows)
        gram = [[_F0] * n for _ in range(n)]
        for i in range(n):
            for j in self.by_degree.get(-self.degrees[i], ()):
                if j < i:
                    continue
                s = 0
                adj = ad[j]
                for mdx, row in ad[i].items():
                    for l, c in row.items():
                        other = adj.get(l)
                        if other:
                            back = other.get(mdx)
                            if back:
                                s += c * back
                gram[i][j] = s
                gram[j][i] = s
        return gram

    def _find_grading_element(self):
        diag = {(0, 0, 0): 1, (self.m - 1, self.m - 1, 0): -1}
        try:
            elem = self._coords_in_degree(diag, 0)
        except ValueError as exc:
            raise ClosureError("grading element outside g_0") from exc
        for j, deg in enumerate(self.degrees):
            if self.bracket_vec(elem, {j: _F1}) != ({j: deg} if deg else {}):
                raise ClosureError("grading element fails [E, e_%d] = deg e_%d" % (j, j))
        return elem

    # -- queries ---------------------------------------------------------

    def bracket_indices(self, i, j):
        return self._bracket_table.get((i, j), {})

    def bracket_vec(self, u, v):
        """Bracket of two coefficient dicts over the basis."""
        out = {}
        table = self._bracket_table
        for i, a in u.items():
            for j, b in v.items():
                br = table.get((i, j))
                if br:
                    _add_scaled(out, br, a * b)
        return out

    def killing_vec(self, u, v) -> Fraction:
        s = _F0
        for i, a in u.items():
            row = self.killing[i]
            for j, b in v.items():
                kij = row[j]
                if kij:
                    s += a * b * kij
        return s

    def minus_indices(self):
        return [i for i in range(self.dim) if self.degrees[i] < 0]

    def plus_indices(self):
        return [i for i in range(self.dim) if self.degrees[i] > 0]

    def component(self, vec, deg):
        return {i: c for i, c in vec.items() if self.degrees[i] == deg}

    def native_of_vec(self, vec):
        """The matrix sum of vec[i] times basis matrix i, zero-free."""
        out = {}
        for i, c in vec.items():
            for pos, x in self.native[i].items():
                s = tuple(a + c * b for a, b in zip(out.get(pos, (0, 0, 0, 0)), x))
                if any(s):
                    out[pos] = s
                else:
                    del out[pos]
        return out

    def dual_basis(self):
        """Killing-dual basis of p+ indexed like the g_- basis.

        Returns (minus_indices, duals) where duals[t] is a coefficient
        dict supported in the degree -deg block of p+ with
        B(e_alpha, e^beta) = delta exactly.
        """
        if self._dual is not None:
            return self._dual
        minus = self.minus_indices()
        duals = [None] * len(minus)
        pos_of = {i: t for t, i in enumerate(minus)}
        for d in range(1, self.k + 1):
            lo = self.by_degree.get(-d, [])
            hi = self.by_degree.get(d, [])
            if len(lo) != len(hi):
                raise SingularPairingError("unbalanced degree blocks")
            try:
                gram = SpanSolver(
                    [{t: self.killing[a][b] for t, a in enumerate(lo)} for b in hi]
                )
                for t, a in enumerate(lo):
                    col = gram.coords({t: _F1})
                    duals[pos_of[a]] = {hi[s]: c for s, c in col.items()}
            except ValueError:
                raise SingularPairingError("Killing pairing degenerate") from None
        self._dual = (minus, duals)
        return self._dual

    def serialize(self):
        n = self.dim
        consts = {}
        for (i, j), row in sorted(self._bracket_table.items()):
            if i < j:
                consts["%d,%d" % (i, j)] = {
                    str(l): str(c) for l, c in sorted(row.items())
                }
        return {
            "name": self.name,
            "dimension": n,
            "depth": self.k,
            "basis": [
                {"label": self.labels[i], "degree": self.degrees[i]} for i in range(n)
            ],
            "structure_constants": consts,
        }


def _qc_ambient_map(n):
    m = n + 2
    pi_cr = witt_double_perm(m, 1)
    pi_co = witt_double_perm(2 * m, 2)

    def to_ambient(mat):
        return _permuted(_realify_C(_permuted(_realify_H(mat, m), pi_cr), 2 * m), pi_co)

    return to_ambient


def _cr_ambient_map(m_cr, q_cr):
    pi_co = witt_double_perm(m_cr, q_cr)

    def to_ambient(mat):
        return _permuted(_realify_C(mat, m_cr), pi_co)

    return to_ambient


def build_qc(n: int) -> GradedLieAlgebra:
    """sp(n+1,1) in the quaternionic Witt basis, |2|-graded."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return GradedLieAlgebra("qc(n=%d)" % n, "quaternion", n + 2, 1, _qc_ambient_map(n))


def build_cr(p: int, q: int) -> GradedLieAlgebra:
    """su(p+1,q+1) in the complex Witt basis, |2|-graded."""
    if p < q or q < 0:
        raise ValueError("need p >= q >= 0")
    m = p + q + 2
    return GradedLieAlgebra("cr(%d,%d)" % (p, q), "complex", m, q + 1, _cr_ambient_map(m, q + 1))


def build_co(p: int, q: int) -> GradedLieAlgebra:
    """so(p+1,q+1) in the real Witt basis, |1|-graded."""
    if p < q or q < 0:
        raise ValueError("need p >= q >= 0")
    m = p + q + 2
    return GradedLieAlgebra("co(%d,%d)" % (p, q), "rational", m, q + 1)


def build_chain(n: int):
    """The nested triple for parameter n (common real ambient)."""
    return build_qc(n), build_cr(2 * n + 1, 1), build_co(4 * n + 3, 3)
