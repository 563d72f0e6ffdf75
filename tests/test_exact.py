import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
import qcfeff.exact as exact
import qcfeff.gradedlie as gl
from qcfeff.exact import Q_UNITS, SpanSolver, _quat_conj, kernel_basis, quat_product

fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
)
quats = st.tuples(fracs, fracs, fracs, fracs)


def _norm2(x):
    return sum(c * c for c in x)


def _from_rows(data):
    """The zero-free {(i, j): 4-tuple} matrix with the given dense rows of
    4-tuples or rational scalars."""
    entries = {}
    for i, row in enumerate(data):
        for j, v in enumerate(row):
            v = v if isinstance(v, tuple) else (v, 0, 0, 0)
            if any(v):
                entries[(i, j)] = v
    return entries


def _identity(n):
    return {(i, i): Q_UNITS["1"] for i in range(n)}


def _commutator(a, b, n):
    out = dict(oracle.matmul(a, b, n))
    for key, v in oracle.matmul(b, a, n).items():
        out[key] = tuple(s - t for s, t in zip(out.get(key, (0, 0, 0, 0)), v))
    return {key: v for key, v in out.items() if any(v)}


@given(quats, quats)
@settings(max_examples=60, deadline=None)
def test_norm_multiplicative(x, y):
    assert _norm2(quat_product(x, y)) == _norm2(x) * _norm2(y)


@given(quats, quats)
@settings(max_examples=60, deadline=None)
def test_conjugation_antiautomorphism(x, y):
    assert _quat_conj(quat_product(x, y)) == quat_product(_quat_conj(y), _quat_conj(x))
    assert _quat_conj(_quat_conj(x)) == x


@given(quats)
@settings(max_examples=60, deadline=None)
def test_norm_is_real(x):
    assert quat_product(x, _quat_conj(x)) == (_norm2(x), 0, 0, 0)


@given(quats, quats, quats)
@settings(max_examples=40, deadline=None)
def test_associativity(x, y, z):
    assert quat_product(quat_product(x, y), z) == quat_product(x, quat_product(y, z))


def _random_scalar(rng, kind):
    if kind == "quaternion":
        return tuple(rng.randint(-3, 3) for _ in range(4))
    if kind == "complex":
        return (rng.randint(-3, 3), rng.randint(-3, 3), 0, 0)
    return (rng.randint(-3, 3), 0, 0, 0)


def _random_matrix(rng, rows, cols, kind="quaternion"):
    return _from_rows([[_random_scalar(rng, kind) for _ in range(cols)] for _ in range(rows)])


def _random_terms(rng, m, kind, count=6):
    """A sum of count random matrix-unit terms of an m x m matrix."""
    out = {}
    for _ in range(count):
        out[(rng.randrange(m), rng.randrange(m))] = _random_scalar(rng, kind)
    return {key: v for key, v in out.items() if any(v)}


def test_matrix_trace_commute():
    rng = random.Random(0)
    for _ in range(10):
        a = _random_matrix(rng, 3, 4)
        b = _random_matrix(rng, 4, 3)
        ta = oracle.trace(oracle.matmul(a, b, 3))
        tb = oracle.trace(oracle.matmul(b, a, 4))
        # quaternionic traces of AB and BA agree in the real part
        assert ta[0] == tb[0]


def test_matrix_associativity():
    rng = random.Random(1)
    for _ in range(5):
        a = _random_matrix(rng, 2, 3)
        b = _random_matrix(rng, 3, 4)
        c = _random_matrix(rng, 4, 2)
        mm = oracle.matmul
        assert mm(mm(a, b, 4), c, 2) == mm(a, mm(b, c, 2), 2)


def test_realify_H_of_j():
    img = gl._realify_H(_from_rows([[Q_UNITS["j"]]]), 1)
    assert img == _from_rows([[0, -1], [1, 0]])


def test_realify_H_of_one():
    assert gl._realify_H(_identity(1), 1) == _identity(2)


def test_realify_C_of_i():
    assert gl._realify_C(_from_rows([[Q_UNITS["i"]]]), 1) == _from_rows([[0, -1], [1, 0]])


def test_realify_C_of_one():
    assert gl._realify_C(_identity(1), 1) == _identity(2)


def _realify_HC(x):
    return gl._realify_C(gl._realify_H(x, 3), 6)


def _assert_homomorphism(f, a, b, m, size):
    """f(ab) = f(a) f(b) for m x m matrices a and b whose images are size x size."""
    assert f(oracle.matmul(a, b, m)) == oracle.matmul(f(a), f(b), size)


def test_realify_H_homomorphism():
    rng = random.Random(2)
    for _ in range(10):
        a = _random_matrix(rng, 3, 3)
        b = _random_matrix(rng, 3, 3)
        _assert_homomorphism(lambda x: gl._realify_H(x, 3), a, b, 3, 6)


def test_realify_C_homomorphism():
    rng = random.Random(3)
    for _ in range(10):
        a = _random_matrix(rng, 3, 3, "complex")
        b = _random_matrix(rng, 3, 3, "complex")
        _assert_homomorphism(lambda x: gl._realify_C(x, 3), a, b, 3, 6)


def test_realified_commutators():
    rng = random.Random(4)
    for _ in range(20):
        a = _random_matrix(rng, 3, 3)
        b = _random_matrix(rng, 3, 3)
        lhs = _realify_HC(_commutator(a, b, 3))
        rhs = _commutator(_realify_HC(a), _realify_HC(b), 12)
        assert lhs == rhs


@pytest.mark.parametrize(
    "to_ambient, kind, m",
    [
        (gl._qc_ambient_map(1), "quaternion", 3),
        (gl._qc_ambient_map(2), "quaternion", 4),
        (gl._cr_ambient_map(6, 2), "complex", 6),
    ],
    ids=["qc1", "qc2", "cr31"],
)
def test_ambient_maps_are_homomorphisms(to_ambient, kind, m):
    """Realification followed by the Witt reordering of the doubled
    coordinates takes products of random matrix-unit sums to products."""
    size = {"quaternion": 4, "complex": 2}[kind] * m
    rng = random.Random(5)
    for _ in range(20):
        a = _random_terms(rng, m, kind)
        b = _random_terms(rng, m, kind)
        _assert_homomorphism(to_ambient, a, b, m, size)


# ---------------------------------------------------------------------------
# exact linear algebra
# ---------------------------------------------------------------------------


def test_kernel_identity_matrix():
    rows = [[1 if i == j else 0 for j in range(5)] for i in range(5)]
    assert kernel_basis(rows, 5) == []


def test_kernel_rank_one():
    basis = kernel_basis([[1, 1], [1, 1]], 2)
    assert len(basis) == 1
    v = basis[0]
    assert v[0] + v[1] == 0 and v[0] != 0


def _check_kernel(rows, ncols, expect_dim):
    basis = kernel_basis(rows, ncols)
    assert len(basis) == expect_dim
    for v in basis:
        for row in rows:
            assert _dot(row, v) == 0
    # independence: stacked matrix has full row rank
    if basis:
        stacked = list(basis)
        ann = kernel_basis(stacked, ncols)
        assert len(ann) == ncols - len(basis)


def test_kernel_constructed_rank():
    rng = random.Random(5)
    r = 12
    left = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(20)]
    right = [[rng.randint(-2, 2) for _ in range(30)] for _ in range(r)]
    prod = [
        [sum(left[i][k] * right[k][j] for k in range(r)) for j in range(30)]
        for i in range(20)
    ]
    # ensure the factors have full rank r
    assert len(kernel_basis(right, 30)) == 30 - r
    _check_kernel(prod, 30, 30 - r)


def test_kernel_large_dense_system():
    rng = random.Random(6)
    r = 230
    n = 260
    left = [[rng.randint(-1, 1) for _ in range(r)] for _ in range(n)]
    right = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(r)]
    prod = [
        [sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)]
        for i in range(n)
    ]
    basis = kernel_basis(prod, n)
    assert len(basis) >= n - r
    for v in basis[:3]:
        for row in prod[:40]:
            assert _dot(row, v) == 0


def test_kernel_sparse_dict_rows():
    rows = [{0: Fraction(1), 2: Fraction(-1)}, {1: Fraction(2)}]
    basis = kernel_basis(rows, 3)
    assert len(basis) == 1
    assert basis[0][0] == basis[0][2] and 1 not in basis[0]


entries = st.one_of(
    st.integers(-3, 3), st.fractions(min_value=-3, max_value=3, max_denominator=4)
)


@st.composite
def small_systems(draw):
    ncols = draw(st.integers(1, 7))
    rows = draw(st.lists(st.lists(entries, min_size=ncols, max_size=ncols), max_size=7))
    return rows, ncols


@given(small_systems())
@settings(max_examples=150, deadline=None)
def test_kernel_vectors_are_primitive_int_certified(system):
    rows, ncols = system
    basis = kernel_basis(rows, ncols)
    solver = SpanSolver([])
    rank = sum(solver.append(dict(enumerate(row))) for row in rows)
    assert len(basis) == ncols - rank
    frees = [_free_col(v) for v in basis]
    assert frees == sorted(set(frees))
    for v, fc in zip(basis, frees):
        assert isinstance(v, dict)
        assert all(type(j) is int and 0 <= j < ncols for j in v)
        assert all(type(x) is int and x != 0 for x in v.values())
        assert gcd(*v.values()) == 1
        assert v[fc] > 0
        assert all(f not in v for f in frees if f != fc)
        for row in rows:
            assert _dot(row, v) == 0


sparse_vecs = st.dictionaries(st.integers(0, 6), fracs.filter(bool), max_size=6)


@given(sparse_vecs, sparse_vecs, st.one_of(st.none(), fracs))
@settings(max_examples=200, deadline=None)
def test_add_scaled_matches_dense_sum(acc, vec, scale):
    r = 1 if scale is None else scale
    expect = [acc.get(k, 0) + r * vec.get(k, 0) for k in range(7)]
    exact._add_scaled(acc, vec, *(() if scale is None else (scale,)))  # updates acc in place
    assert all(c != 0 for c in acc.values())
    assert [acc.get(k, 0) for k in range(7)] == expect


def test_span_solver():
    # the columns of [[2, 0], [1, 1]]: 2 * (2, 1) + 1 * (0, 1) = (4, 3)
    assert SpanSolver([{0: 2, 1: 1}, {1: 1}]).coords({0: 4, 1: 3}) == {0: 2, 1: 1}
    with pytest.raises(ValueError, match="linearly dependent"):
        SpanSolver([{0: 1, 1: 1}, {0: 2, 1: 2}])
    with pytest.raises(ValueError, match="not in span"):
        SpanSolver([{0: 1, 1: 1}]).coords({0: 0, 1: 1})


class _FullScanSpan:
    """Reference span solver: reduces through every pivot in insertion order."""

    def __init__(self):
        self.n = 0
        self.pivots = []

    def append(self, gen):
        row = {k: Fraction(v) for k, v in gen.items() if v}
        coeff = self._reduce(row, {self.n: Fraction(1)})
        if not row:
            return False
        self.n += 1
        key = min(row)
        pv = row[key]
        self.pivots.append(
            (key, {k: v / pv for k, v in row.items()}, {k: v / pv for k, v in coeff.items()})
        )
        return True

    def _reduce(self, row, coeff):
        for key, prow, pcoeff in self.pivots:
            v = row.get(key)
            if v:
                for k, c in prow.items():
                    row[k] = row.get(k, 0) - v * c
                    if not row[k]:
                        del row[k]
                for k, c in pcoeff.items():
                    coeff[k] = coeff.get(k, 0) - v * c
                    if not coeff[k]:
                        del coeff[k]
        return coeff

    def coords(self, vec):
        row = {k: Fraction(v) for k, v in vec.items() if v}
        coeff = self._reduce(row, {})
        if row:
            raise ValueError("vector not in span")
        return {k: -c for k, c in sorted(coeff.items())}


span_entries = st.one_of(st.integers(-3, 3), fracs)
span_vecs = st.dictionaries(st.integers(0, 9), span_entries, max_size=4)


@given(
    st.lists(span_vecs, max_size=8),
    st.lists(st.one_of(span_vecs, st.lists(span_entries, min_size=8, max_size=8)), max_size=6),
)
@settings(max_examples=200, deadline=None)
def test_span_solver_matches_full_scan(gens, queries):
    """Coordinates and refusals equal those of a reduction through every pivot.

    A query given as a list is the combination of the generators with
    those coefficients, so it lies in the span.
    """
    solver, ref = SpanSolver([]), _FullScanSpan()
    for gen in gens:
        assert solver.append(gen) == ref.append(gen)
    for query in queries:
        if isinstance(query, list):
            vec = {}
            for c, gen in zip(query, gens):
                exact._add_scaled(vec, gen, c)
        else:
            vec = query
        try:
            expect = ref.coords(vec)
        except ValueError:
            with pytest.raises(ValueError, match="not in span"):
                solver.coords(vec)
        else:
            got = solver.coords(vec)
            assert got == expect
            assert all(type(c) in (int, Fraction) for c in got.values())


@st.composite
def integer_systems(draw):
    """Small integer systems, some with dependent rows and zero columns."""
    ncols = draw(st.integers(1, 8))
    rows = draw(
        st.lists(st.lists(st.integers(-4, 4), min_size=ncols, max_size=ncols), max_size=8)
    )
    if len(rows) >= 2 and draw(st.booleans()):
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        rows.append([a * x + b * y for x, y in zip(rows[0], rows[1])])
    for c in draw(st.sets(st.integers(0, ncols - 1), max_size=2)):
        for row in rows:
            row[c] = 0
    return rows, ncols


@given(integer_systems())
@settings(max_examples=300, deadline=None)
def test_bareiss_matches_eager_recurrence(system):
    rows, ncols = system
    lazy = exact._bareiss_echelon(_dict_rows(rows), ncols)
    assert lazy == _eager_dict_echelon(rows, ncols)


def _dict_rows(rows):
    """Zero-free {col: mpz} forms of dense integer rows."""
    return [{j: exact.mpz(x) for j, x in enumerate(row) if x} for row in rows]


def _eager_dict_echelon(rows, ncols):
    """The oracle's echelon of dense rows, its rows as zero-free dicts."""
    piv_cols, ech = oracle.eager_echelon([list(row) for row in rows], ncols)
    return piv_cols, [{j: x for j, x in enumerate(row) if x} for row in ech]


def _capped_system(rng):
    """At least 20 rows through column 0, so the 16-candidate pivot scan
    stops early, plus planted rows: integer combinations of two rows, some
    with a unit added, which cancel to few or no entries."""
    ncols = rng.randint(8, 14)
    rows = []
    for _ in range(rng.randint(20, 26)):
        row = [rng.choice((0, 0, 0, rng.randint(-3, 3))) for _ in range(ncols)]
        row[0] = rng.choice((-2, -1, 1, 2, 3))
        rows.append(row)
    for _ in range(rng.randint(4, 8)):
        u, v = rng.sample(rows, 2)
        a, b = rng.randint(-2, 2), rng.randint(-2, 2)
        row = [a * x + b * y for x, y in zip(u, v)]
        if rng.random() < 0.5:
            row[rng.randrange(ncols)] += 1
        rows.append(row)
    rng.shuffle(rows)
    return rows, ncols


def test_bareiss_pivot_cap_matches_eager_recurrence():
    rng = random.Random(19)
    for _ in range(60):
        rows, ncols = _capped_system(rng)
        assert sum(1 for row in rows if row[0]) >= 20
        piv_cols, ech = exact._bareiss_echelon(_dict_rows(rows), ncols)
        assert (piv_cols, ech) == _eager_dict_echelon(rows, ncols)
        assert all(all(row.values()) for row in ech)


def test_kernel_dense_row_length_mismatch():
    with pytest.raises(ValueError, match="row length mismatch"):
        kernel_basis([[1, 2, 3]], 2)
    for row in ({3: 1}, {-1: 1}):
        with pytest.raises(ValueError, match="out of range"):
            kernel_basis([row], 3)


def _embed(rows, cols):
    """Rows over local columns 0..len(cols)-1, placed at global columns cols."""
    return [{cols[j]: v for j, v in enumerate(row) if v} for row in rows]


def _free_col(vec):
    return max(vec)


def _dot(row, vec):
    """Value of a dense rational row on a sparse {col: value} vector."""
    return sum(Fraction(row[j]) * x for j, x in vec.items())


def test_kernel_splits_interleaved_blocks():
    rng = random.Random(7)
    ncols = 40
    perm = list(range(ncols))
    rng.shuffle(perm)
    blocks = [sorted(perm[0:12]), sorted(perm[12:22]), sorted(perm[22:35])]
    untouched = sorted(perm[35:])
    rows, expect = [], []
    for cols in blocks:
        local = [[rng.randint(-3, 3) for _ in cols] for _ in range(len(cols) // 2)]
        rows += _embed(local, cols)
        for lvec in kernel_basis(local, len(cols)):
            expect.append({cols[t]: v for t, v in lvec.items()})
    for c in untouched:
        expect.append({c: 1})
    rng.shuffle(rows)
    expect.sort(key=_free_col)
    assert kernel_basis(rows, ncols) == expect
    assert [_free_col(v) for v in expect] == sorted({_free_col(v) for v in expect})


def test_kernel_certificate_rejects_wrong_vector(monkeypatch):
    monkeypatch.setattr(
        exact, "_component_kernel", lambda rows, n: [{j: 1 for j in range(n)}]
    )
    with pytest.raises(ArithmeticError, match="verification"):
        kernel_basis([[1, 2], [0, 1]], 2)
