import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

import oracle
import qcfeff.gradedlie as gl
from qcfeff.exact import Q_UNITS, kernel_basis
from qcfeff.gradedlie import (
    ClosureError,
    SingularPairingError,
    build_qc,
)

F1 = Fraction(1)

# SHA-256 of _build_digest, taken with the algebras built through
# Fraction-valued ExactMatrix commutators and an all-pairs Killing sum
_BUILD_DIGESTS = {
    "qc(n=1)": "817c0e6c27f4a09bfea9cd9ef7a1b41987837ad980112044451ece82e118897f",
    "qc(n=2)": "32d0fa0459caff8bbb3e703b60736e6173abdce0443ae2ceef351062a92d94da",
    "qc(n=3)": "8b236302301049af744a12aedaa17c743185906890018701b1218226849258d9",
    "cr(3,1)": "47546c005096222d9e0448de75e78fcd75a32aab4f51f5cc6b17683d3c984e3c",
    "cr(5,1)": "a9b571442f332afd446e1b04cdf0647d78c20a12fa46e130f995b4c403915c41",
    "co(7,3)": "1b3b7315b29e82e84e8afce8d1dbcf39e0ca8482ad1bd6c3c2cbced682bb4401",
    "co(11,3)": "bb432c16558b1749b34d0058527554ce57d38f163ddc046f97fef837e08396b4",
}


def centralizer_in_degree(alg, degree, subspace):
    """Exact basis of {X in g_degree : [Z, X] = 0 for all Z in subspace}.

    ``subspace`` is a list of coefficient dicts over the basis of alg.
    Returns a list of coefficient dicts supported in the degree block.
    """
    idxs = alg.by_degree.get(degree, [])
    rows = []
    for z in subspace:
        cols = {}
        for t, i in enumerate(idxs):
            for l, c in alg.bracket_vec(z, {i: F1}).items():
                cols.setdefault(l, {})[t] = c
        rows.extend(cols.values())
    basis = kernel_basis(rows, len(idxs))
    return [{idxs[t]: c for t, c in vec.items()} for vec in basis]


def test_qc_dimensions(chain1):
    qc, _, _ = chain1
    assert qc.dim == 21
    dims = {d: len(ix) for d, ix in qc.by_degree.items()}
    assert dims == {-2: 3, -1: 4, 0: 7, 1: 4, 2: 3}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_qc_dimension_formula(n):
    qc = build_qc(n)
    assert qc.dim == (n + 2) * (2 * n + 5)


def test_cr_dimension(chain1):
    _, cr, _ = chain1
    p, q = 3, 1
    assert cr.dim == (p + q + 2) ** 2 - 1
    assert len(cr.by_degree[-2]) == 1
    assert cr.k == 2


def test_co_shape(chain1):
    _, _, co = chain1
    assert co.dim == 66
    assert co.k == 1
    assert sorted(co.by_degree) == [-1, 0, 1]
    assert len(co.by_degree[-1]) == 7 + 3


def test_bracket_degree_additivity(chain1):
    for alg in chain1:
        for i in range(alg.dim):
            for j in range(alg.dim):
                expect = alg.degrees[i] + alg.degrees[j]
                for l in alg.bracket_indices(i, j):
                    assert alg.degrees[l] == expect


def test_degree_minus_one_brackets_land_in_minus_two(chain1):
    qc, _, _ = chain1
    m1 = qc.by_degree[-1]
    for i in m1:
        for j in m1:
            for l in qc.bracket_indices(i, j):
                assert qc.degrees[l] == -2


def _jacobi_zero(alg, i, j, k):
    a = alg.bracket_vec({i: F1}, alg.bracket_vec({j: F1}, {k: F1}))
    b = alg.bracket_vec({j: F1}, alg.bracket_vec({k: F1}, {i: F1}))
    c = alg.bracket_vec({k: F1}, alg.bracket_vec({i: F1}, {j: F1}))
    acc = dict(a)
    for src in (b, c):
        for l, v in src.items():
            acc[l] = acc.get(l, Fraction(0)) + v
    return not any(acc.values())


def test_jacobi_full_qc(chain1):
    qc, _, _ = chain1
    for i, j, k in itertools.combinations(range(qc.dim), 3):
        assert _jacobi_zero(qc, i, j, k)


def test_jacobi_full_cr(chain1):
    _, cr, _ = chain1
    for i, j, k in itertools.combinations(range(cr.dim), 3):
        assert _jacobi_zero(cr, i, j, k)


def test_jacobi_co_sampled(chain1):
    _, _, co = chain1
    rng = random.Random(0)
    for _ in range(4000):
        i, j, k = rng.sample(range(co.dim), 3)
        assert _jacobi_zero(co, i, j, k)


def test_killing_degree_orthogonality(chain1):
    for alg in chain1:
        for i in range(alg.dim):
            for j in range(alg.dim):
                if alg.degrees[i] + alg.degrees[j] != 0:
                    assert alg.killing[i][j] == 0
        assert all(
            alg.killing[i][j] == alg.killing[j][i]
            for i in range(alg.dim)
            for j in range(alg.dim)
        )


def test_killing_pairing_nondegenerate(chain1):
    for alg in chain1:
        minus, duals = alg.dual_basis()
        for t, a in enumerate(minus):
            for s in range(len(minus)):
                v = alg.killing_vec({a: F1}, duals[s])
                assert v == (1 if s == t else 0)


def test_b_g1_g1_vanishes(chain1):
    _, cr, _ = chain1
    for i in cr.by_degree[1]:
        for j in cr.by_degree[1]:
            assert cr.killing[i][j] == 0


def test_dual_basis_grading(chain1):
    for alg in chain1:
        minus, duals = alg.dual_basis()
        for t, a in enumerate(minus):
            d = alg.degrees[a]
            assert all(alg.degrees[i] == -d for i in duals[t])


def test_dual_basis_permutation_equivariance(chain1):
    qc, _, _ = chain1
    minus, duals = qc.dual_basis()
    perm = list(range(len(minus)))[::-1]
    # the defining property B(e_b, dual(e_a)) = delta_ab, in permuted order
    for t_old in perm:
        a = minus[t_old]
        for b in qc.by_degree[qc.degrees[a]]:
            assert qc.killing_vec({b: F1}, duals[t_old]) == (F1 if b == a else 0)


def test_dual_basis_singular_pairing():
    qc = build_qc(1)
    qc.killing[qc.minus_indices()[0]] = [Fraction(0)] * qc.dim
    qc._dual = None
    with pytest.raises(SingularPairingError):
        qc.dual_basis()


def test_grading_element_checked_against_degrees():
    qc = build_qc(1)
    qc.degrees[0] += 1
    with pytest.raises(ClosureError):
        qc._find_grading_element()


def test_grading_element_action(chain1):
    for alg in chain1:
        e = alg.grading_element
        for j in range(alg.dim):
            br = alg.bracket_vec(e, {j: F1})
            expect = {j: Fraction(alg.degrees[j])} if alg.degrees[j] else {}
            assert br == expect


def test_grading_element_unique(chain1):
    qc, _, _ = chain1
    # the centralizer of all of g inside g_0 is trivial, so E is unique
    zero = centralizer_in_degree(
        qc, 0, [{i: F1} for i in range(qc.dim)]
    )
    assert zero == []


def test_centralizer_of_gminus2_in_g0(inclusions1):
    """The g_-2 centralizer is the sp(n) block, sitting inside the
    degree-0 part of the conformal parabolic (which adds the grading line)."""
    qc, cr, co, phi1, phi2, phic = inclusions1
    n = 1
    sub = [{i: F1} for i in qc.by_degree[-2]]
    cent = centralizer_in_degree(qc, 0, sub)
    assert len(cent) == n * (2 * n + 1)
    zero_idx = qc.by_degree[0]
    rows = {}
    for col, i in enumerate(zero_idx):
        for t, c in phic.img[i].items():
            if co.degrees[t] < 0:
                rows.setdefault(t, {})[col] = c
    cap0 = kernel_basis(list(rows.values()), len(zero_idx))
    assert len(cap0) == 1 + n * (2 * n + 1)
    # containment: the centralizer lies inside the parabolic intersection
    span_rows = list(cap0)
    rank_cap = len(zero_idx) - len(kernel_basis(span_rows, len(zero_idx)))
    joint = span_rows + [
        [v.get(i, Fraction(0)) for i in zero_idx] for v in cent
    ]
    rank_joint = len(zero_idx) - len(kernel_basis(joint, len(zero_idx)))
    assert rank_cap == rank_joint == len(cap0)


def test_centralizer_trivial_cases(chain1):
    qc, _, _ = chain1
    everything = centralizer_in_degree(qc, -1, [])
    assert len(everything) == len(qc.by_degree[-1])
    # degree -2 part is abelian
    sub = [{i: F1} for i in qc.by_degree[-2]]
    cent = centralizer_in_degree(qc, -2, sub)
    assert len(cent) == len(qc.by_degree[-2])


def test_serialize_roundtrip(chain1):
    import json

    qc, _, _ = chain1
    doc = qc.serialize()
    text = json.dumps(doc, sort_keys=True)
    back = json.loads(text)
    assert back["dimension"] == 21
    assert back["depth"] == 2
    assert len(back["basis"]) == 21
    some = next(iter(back["structure_constants"].values()))
    for coeff in some.values():
        Fraction(coeff)  # parses exactly


def _witt_form(m, q):
    """The Witt form: q hyperbolic pairs at the ends, an orthonormal middle."""
    return {(a, m - 1 - a if a < q or a >= m - q else a): (1, 0, 0, 0) for a in range(m)}


def test_native_matrices_satisfy_defining_identity(chain1):
    for alg in chain1:
        m = alg.m
        s = _witt_form(m, alg.q)
        for mat in alg.native:
            lhs = oracle.matmul(oracle.transpose(mat), s, m)
            rhs = oracle.matmul(s, oracle.conj(mat), m)
            assert lhs == {key: oracle.quat_neg(v) for key, v in rhs.items()}
            if alg.kind == "complex":
                assert not any(oracle.trace(mat))


def test_membership_check_fails_closed(chain1):
    """An entry with a flipped sign breaks the defining identity, and a
    diagonal element of nonzero trace is not in the complex algebra."""
    qc, cr, _ = chain1
    mat = dict(qc.native[qc.labels.index("e(1,0)j")])
    gl._check_member(qc.kind, qc.m, qc.q, mat)
    mat[(1, 0)] = oracle.quat_neg(mat[(1, 0)])
    with pytest.raises(ClosureError, match="defining form identity"):
        gl._check_member(qc.kind, qc.m, qc.q, mat)
    # the trace carrier d(2)i of the middle block, on its own
    with pytest.raises(ClosureError, match="trace free"):
        gl._check_member(cr.kind, cr.m, cr.q, {(2, 2): Q_UNITS["i"]})


def _build_digest(alg):
    """SHA-256 over the built data, every scalar as its str."""
    size = {"quaternion": 4, "complex": 2, "rational": 1}[alg.kind] * alg.m
    doc = {
        "serialize": alg.serialize(),
        "killing": [[str(v) for v in row] for row in alg.killing],
        "grading_element": sorted((i, str(c)) for i, c in alg.grading_element.items()),
        "ambient": [
            [size, size, "rational", sorted([i, j, [str(x) for x in q]] for (i, j), q in m.items())]
            for m in alg.ambient
        ],
    }
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


@pytest.fixture(scope="module")
def pinned_algebras(chain1, chain2):
    return [*chain1, *chain2, build_qc(3)]


def test_built_data_pinned(pinned_algebras):
    assert {alg.name: _build_digest(alg) for alg in pinned_algebras} == _BUILD_DIGESTS


def test_killing_matches_all_pairs_sum(pinned_algebras):
    """The degree-filtered Killing form equals the sum over every pair, zeros included."""
    for alg in pinned_algebras:
        assert alg.killing == oracle.killing_form(alg)
