import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qcfeff.exact as exact
from qcfeff.exact import (
    ExactMatrix,
    Quaternion,
    Q_I,
    Q_J,
    Q_K,
    kernel_basis,
    realify_C,
    realify_H,
    solve_exact,
)

fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
)
quats = st.builds(Quaternion, fracs, fracs, fracs, fracs)


@given(quats, quats)
@settings(max_examples=60, deadline=None)
def test_norm_multiplicative(x, y):
    assert (x * y).norm2() == x.norm2() * y.norm2()


@given(quats, quats)
@settings(max_examples=60, deadline=None)
def test_conjugation_antiautomorphism(x, y):
    assert (x * y).conj() == y.conj() * x.conj()
    assert x.conj().conj() == x


@given(quats)
@settings(max_examples=60, deadline=None)
def test_norm_is_real(x):
    n = x * x.conj()
    assert n.b == 0 and n.c == 0 and n.d == 0
    assert n.a == x.norm2()


@given(quats, quats, quats)
@settings(max_examples=40, deadline=None)
def test_associativity(x, y, z):
    assert (x * y) * z == x * (y * z)


def test_inverse():
    x = Quaternion(1, 2, -3, Fraction(1, 2))
    assert x * x.inverse() == Quaternion(1)
    with pytest.raises(ZeroDivisionError):
        Quaternion().inverse()


def _random_matrix(rng, rows, cols, kind="quaternion"):
    def scalar():
        if kind == "quaternion":
            return Quaternion(*(rng.randint(-3, 3) for _ in range(4)))
        if kind == "complex":
            return Quaternion(rng.randint(-3, 3), rng.randint(-3, 3))
        return Quaternion(rng.randint(-3, 3))

    return ExactMatrix.from_rows(
        [[scalar() for _ in range(cols)] for _ in range(rows)], kind
    )


def test_matrix_trace_commute():
    rng = random.Random(0)
    for _ in range(10):
        a = _random_matrix(rng, 3, 4)
        b = _random_matrix(rng, 4, 3)
        ta = (a * b).trace()
        tb = (b * a).trace()
        # quaternionic traces of AB and BA agree in the real part
        assert ta.a == tb.a


def test_matrix_associativity():
    rng = random.Random(1)
    for _ in range(5):
        a = _random_matrix(rng, 2, 3)
        b = _random_matrix(rng, 3, 4)
        c = _random_matrix(rng, 4, 2)
        assert (a * b) * c == a * (b * c)


def test_realify_H_of_j():
    m = ExactMatrix.from_rows([[Q_J]], "quaternion")
    img = realify_H(m)
    expect = ExactMatrix.from_rows([[0, -1], [1, 0]], "complex")
    assert img == expect


def test_realify_H_of_one():
    m = ExactMatrix.identity(1, "quaternion")
    assert realify_H(m) == ExactMatrix.identity(2, "complex")


def test_realify_C_of_i():
    m = ExactMatrix.from_rows([[Q_I]], "complex")
    assert realify_C(m) == ExactMatrix.from_rows([[0, -1], [1, 0]])


def test_realify_C_of_one():
    assert realify_C(ExactMatrix.identity(1, "complex")) == ExactMatrix.identity(2)


def test_realify_H_homomorphism():
    rng = random.Random(2)
    for _ in range(10):
        a = _random_matrix(rng, 3, 3)
        b = _random_matrix(rng, 3, 3)
        assert realify_H(a * b) == realify_H(a) * realify_H(b)


def test_realify_C_homomorphism():
    rng = random.Random(3)
    for _ in range(10):
        a = _random_matrix(rng, 3, 3, "complex")
        b = _random_matrix(rng, 3, 3, "complex")
        assert realify_C(a * b) == realify_C(a) * realify_C(b)


def test_realified_commutators():
    rng = random.Random(4)
    for _ in range(20):
        a = _random_matrix(rng, 3, 3)
        b = _random_matrix(rng, 3, 3)
        lhs = realify_C(realify_H(a.commutator(b)))
        rhs = realify_C(realify_H(a)).commutator(realify_C(realify_H(b)))
        assert lhs == rhs


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
            assert sum(Fraction(r) * x for r, x in zip(row, v)) == 0
    # independence: stacked matrix has full row rank
    if basis:
        stacked = [list(v) for v in basis]
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


def test_kernel_large_uses_lifting():
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
            assert sum(Fraction(c) * x for c, x in zip(row, v)) == 0


def test_kernel_sparse_dict_rows():
    rows = [{0: Fraction(1), 2: Fraction(-1)}, {1: Fraction(2)}]
    basis = kernel_basis(rows, 3)
    assert len(basis) == 1
    assert basis[0][0] == basis[0][2] and basis[0][1] == 0


def test_solve_exact():
    x = solve_exact([[2, 0], [1, 1]], [4, 3], 2)
    assert x == [Fraction(2), Fraction(1)]
    assert solve_exact([[1, 1], [1, 1]], [0, 1], 2) is None


def test_kernel_dense_row_length_mismatch():
    with pytest.raises(ValueError, match="row length mismatch"):
        kernel_basis([[1, 2, 3]], 2)


def test_modp_solve_refuses_inexact_float64():
    lu = exact._ModPLU([[1, 2], [3, 4]], 2 ** 31 - 1)
    with pytest.raises(ArithmeticError):
        lu.solve_matrix(np.zeros((2, 1), dtype=np.int64))


def _embed(rows, cols):
    """Rows over local columns 0..len(cols)-1, placed at global columns cols."""
    return [{cols[j]: v for j, v in enumerate(row) if v} for row in rows]


def _free_col(vec):
    return max(j for j, x in enumerate(vec) if x)


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
            vec = [Fraction(0)] * ncols
            for t, v in enumerate(lvec):
                vec[cols[t]] = v
            expect.append(tuple(vec))
    for c in untouched:
        expect.append(tuple(Fraction(int(j == c)) for j in range(ncols)))
    rng.shuffle(rows)
    expect.sort(key=_free_col)
    assert kernel_basis(rows, ncols) == expect
    assert [_free_col(v) for v in expect] == sorted({_free_col(v) for v in expect})


def test_kernel_large_component_uses_lifting(monkeypatch):
    rng = random.Random(8)
    n, r = 240, 200
    left = [[rng.randint(-1, 1) for _ in range(r)] for _ in range(n)]
    right = [[rng.randint(-1, 1) for _ in range(n)] for _ in range(r)]
    big = [[sum(left[i][k] * right[k][j] for k in range(r)) for j in range(n)] for i in range(n)]
    ncols = n + 30
    cols = sorted(rng.sample(range(ncols), n))
    rest = [c for c in range(ncols) if c not in set(cols)]
    rows = _embed(big, cols) + [{a: 1, b: -2} for a, b in zip(rest[0::2], rest[1::2])]
    lifted = []
    real = exact._kernel_dixon_batched

    def counting(piv_rows, piv_cols, ncols, p):
        lifted.append(ncols)
        return real(piv_rows, piv_cols, ncols, p)

    monkeypatch.setattr(exact, "_kernel_dixon_batched", counting)
    basis = kernel_basis(rows, ncols)
    assert lifted == [n]
    assert len(basis) == (n - r) + len(rest) // 2


def test_kernel_certificate_rejects_wrong_vector(monkeypatch):
    monkeypatch.setattr(
        exact, "_component_kernel", lambda rows, n: [tuple(Fraction(1) for _ in range(n))]
    )
    with pytest.raises(ArithmeticError, match="verification"):
        kernel_basis([[1, 2], [0, 1]], 2)
