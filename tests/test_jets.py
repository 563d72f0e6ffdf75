import math
import random
from fractions import Fraction

import numpy as np
import oracle
import pytest

from qcfeff.jets import Jet, JetDomainError, JetSpace, jet_space, jet_variables


def _jet_eval(f, point, order):
    """Taylor coefficients of f at the point, to total degree ``order``."""
    out = f(*jet_variables(point, order))
    if not isinstance(out, Jet):
        out = Jet.constant(jet_space(len(point), order), float(out))
    return out


def _derivative_value(jet, alpha):
    """The partial derivative d^alpha at the base point, read off one coefficient."""
    fac = 1.0
    for a in alpha:
        fac *= math.factorial(a)
    return float(jet.coef[jet.space.position[tuple(alpha)]] * fac)


def test_constant_field():
    j = _jet_eval(lambda x, y: 2.5, [0.3, -0.4], 4)
    assert j.value == 2.5
    assert np.count_nonzero(j.coef) == 1


def test_square_of_sum():
    j = _jet_eval(lambda x, y: (x + y) * (x + y), [1.0, 1.0], 2)
    assert j.value == pytest.approx(4.0)
    assert _derivative_value(j, (1, 0)) == pytest.approx(4.0)
    assert _derivative_value(j, (0, 1)) == pytest.approx(4.0)
    assert _derivative_value(j, (2, 0)) == pytest.approx(2.0)
    assert _derivative_value(j, (1, 1)) == pytest.approx(2.0)


def _poly_eval_exact(terms, pt, alpha):
    """Exact partial derivative of a polynomial sum of monomials."""
    total = Fraction(0)
    for coef, expo in terms:
        c = Fraction(coef)
        term = Fraction(1)
        ok = True
        for v, (e, a) in enumerate(zip(expo, alpha)):
            if e < a:
                ok = False
                break
            fall = Fraction(1)
            for t in range(a):
                fall *= e - t
            term *= fall * Fraction(pt[v]) ** (e - a)
        if ok:
            total += c * term
    return total


def test_product_rule_exact_on_polynomials():
    rng = random.Random(0)
    nv, order = 3, 4
    for _ in range(5):
        f = [(rng.randint(-3, 3), tuple(rng.randint(0, 2) for _ in range(nv))) for _ in range(4)]
        g = [(rng.randint(-3, 3), tuple(rng.randint(0, 2) for _ in range(nv))) for _ in range(4)]
        pt = [Fraction(rng.randint(-2, 2), 2) for _ in range(nv)]

        def poly(terms):
            def fn(*xs):
                acc = None
                for coef, expo in terms:
                    t = None
                    for v, e in enumerate(expo):
                        for _ in range(e):
                            t = xs[v] if t is None else t * xs[v]
                    t = (t * coef) if t is not None else float(coef) + 0.0 * xs[0]
                    acc = t if acc is None else acc + t
                return acc if acc is not None else 0.0 * xs[0]

            return fn

        jf = _jet_eval(poly(f), [float(p) for p in pt], order)
        jg = _jet_eval(poly(g), [float(p) for p in pt], order)
        jprod = jf * jg
        # product polynomial, exact
        prod_terms = []
        for cf, ef in f:
            for cg, eg in g:
                prod_terms.append((cf * cg, tuple(a + b for a, b in zip(ef, eg))))
        sp = jprod.space
        for alpha in sp.indices:
            exact = _poly_eval_exact(prod_terms, pt, alpha)
            fac = 1.0
            for a in alpha:
                fac *= math.factorial(a)
            got = jprod.coef[sp.position[alpha]] * fac
            assert got == pytest.approx(float(exact), rel=1e-12, abs=1e-12)


def test_elementary_ode_coefficients():
    # univariate jets: series coefficients satisfy the defining ODEs
    x0 = 0.7
    order = 6
    sp = jet_space(1, order)
    j = Jet.variable(sp, 0, x0)
    e = j.exp()

    def cf(jet, k):
        return jet.coef[sp.position[(k,)]]

    for k in range(order - 1):
        # (exp)' = exp
        assert cf(e, k + 1) * (k + 1) == pytest.approx(cf(e, k), rel=1e-12)
    r = j.reciprocal()
    assert (j * r).coef == pytest.approx(np.eye(1, sp.size, 0)[0], abs=1e-13)
    q = j.sqrt()
    assert (q * q).coef == pytest.approx(j.coef, abs=1e-13)


def test_chain_rule_against_finite_differences():
    funcs = [
        ("sqrt(exp)", lambda x: x.exp().sqrt(), lambda t: math.sqrt(math.exp(t))),
        (
            "sqrt(1+x^2)",
            lambda x: (1.0 + x * x).sqrt(),
            lambda t: math.sqrt(1 + t * t),
        ),
        (
            "1/(2+exp(-x))",
            lambda x: (2.0 + (-x).exp()).reciprocal(),
            lambda t: 1.0 / (2 + math.exp(-t)),
        ),
    ]
    h = 1e-2
    weights = {  # 4th-order central differences
        1: [(-2, 1 / 12), (-1, -8 / 12), (1, 8 / 12), (2, -1 / 12)],
        2: [(-2, -1 / 12), (-1, 16 / 12), (0, -30 / 12), (1, 16 / 12), (2, -1 / 12)],
    }
    for name, jf, pf in funcs:
        for t0 in (0.2, -0.5, 1.1):
            j = _jet_eval(jf, [t0], 4)
            for order_d in (1, 2):
                fd = sum(
                    w * pf(t0 + s * h) for s, w in weights[order_d]
                ) / h ** order_d
                got = _derivative_value(j, (order_d,))
                assert got == pytest.approx(fd, rel=1e-6, abs=1e-6), (name, t0, order_d)


def test_division_and_pow():
    """x^3 / y as repeated products and the reciprocal."""
    j = _jet_eval(lambda x, y: (x * x * x * y.reciprocal() - 2.0) * 0.5, [2.0, 4.0], 2)
    assert j.value == pytest.approx((8 / 4 - 2) / 2)
    assert _derivative_value(j, (1, 0)) == pytest.approx(3 * 4 / 4 / 2)


def test_domain_errors():
    with pytest.raises(JetDomainError):
        _jet_eval(lambda x: x.sqrt(), [-1.0], 3)
    with pytest.raises(JetDomainError):
        _jet_eval(lambda x: x.reciprocal(), [0.0], 3)


def test_derivative_tensor_matches_derivative_value():
    sp = jet_space(3, 3)
    f = _jet_eval(
        lambda x, y, z: (x * y + z + 1.0).sqrt() * (x - 2.0 * z).exp(), [0.1, 0.2, 0.3], 3
    )
    g = _jet_eval(lambda x, y, z: x * x * y + z, [0.1, 0.2, 0.3], 3)
    stacked = np.array([f.coef, g.coef])
    for r in (1, 2, 3):
        t = sp.derivative_tensor(stacked, r)
        assert t.shape == (2,) + (3,) * r
        for idx in np.ndindex((3,) * r):
            alpha = [0, 0, 0]
            for c in idx:
                alpha[c] += 1
            assert t[(0,) + idx] == _derivative_value(f, alpha)
            assert t[(1,) + idx] == _derivative_value(g, alpha)


@pytest.mark.parametrize(
    "m, order", [(m, order) for m in range(1, 5) for order in range(5)] + [(10, 3), (14, 3)]
)
def test_product_table_matches_all_pairs_scan(m, order):
    """The tables built from degree prefixes equal the scan of every index pair."""
    sp = JetSpace(m, order)
    have = (sp._mul_i, sp._mul_j, sp._mul_k)
    for got, want in zip(have, oracle.jet_product_table(m, order)):
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
