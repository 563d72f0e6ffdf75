"""Rational per-cochain reference operators, the tests' oracle for the integer engine.

``qcfeff.cohomology`` and ``qcfeff.inclusions`` decide every claim on
integer tables: d and d* are assembled as block columns, and the
transfer checks run on integer multiples of the rational maps.  The
functions here compute the same operators one cochain at a time in
Fraction arithmetic, straight from their formulas: the
Chevalley-Eilenberg differential, the dual-basis codifferential
part1 - 1/2 part2 and the Lie homology boundary on Lambda^n p_+ (x) g
(the wedge picture), plus cochain induction and recovery along an
inclusion, and the Killing form summed over every pair of basis
elements.  They read an algebra only through its brackets, Killing form
and dual basis, and never through the integer tables, so the tests
compare the engine against a separate reference.

Rational cochains exist only here: ``Cochain`` holds strictly
increasing tuples of minus-basis indices mapped to zero-free Fraction
value vectors, and ``integer_coeffs`` turns one into the integer
coefficient dicts {key: {m: int}} that the engine reads.  Integer draws
of ``qcfeff.cohomology.random_cochain`` enter as ``Cochain(alg, n,
coeffs)``, as ``draw`` does.  ``laplacian_rows`` composes the Kostant Laplacian
d d* + d* d of a homogeneity block from ``differential`` and
``codifferential_wedge``, the reference for the engine's harmonic
spaces, which it computes as ker d cap ker d* instead.

``matmul`` multiplies matrices held, as in ``qcfeff.gradedlie``, as
zero-free {(row, col): quaternion 4-tuple} dicts, with its own
quaternion product ``quat_mul`` from the unit table i^2 = j^2 = k^2 =
ijk = -1: the reference for the defining identity, the realification
maps and the trace pairings.

``curvature_reference`` is the numerical stack's reference: the full
curvature pipeline of one point, the m^5 second derivatives of the
Christoffel symbols and first derivatives of the Riemann tensor
included, summed by numpy's naive einsum loops from the metric jets.
``qcfeff.charts.CurvatureData`` builds only the traces of those two
arrays that its checks read.

``jet_product_table`` lists the index triples of the truncated jet
product by testing every pair of multi-indices, the reference for the
tables that ``qcfeff.jets`` builds from degree prefixes.

``eager_echelon`` is the exact kernel engine's reference: Bareiss
elimination on dense integer lists that rescales every row below the
pivot at every step and recounts each candidate row's nonzeros, where
``qcfeff.exact`` eliminates zero-free dict rows lazily.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from math import lcm
from typing import NamedTuple

import numpy as np

from qcfeff.cohomology import _WEDGE_SIGN, _insert_sorted, block_basis, random_cochain
from qcfeff.exact import SpanSolver, _add_scaled
from qcfeff.inclusions import _holonomy_solutions, _normal_torsionfree_solutions, _pair

_F0 = Fraction(0)
_F1 = Fraction(1)


class Cochain:
    """Element of C^n(g_-, g) with exact coefficients."""

    __slots__ = ("alg", "degree", "coeffs")

    def __init__(self, alg, degree: int, coeffs=None):
        self.alg = alg
        self.degree = degree
        self.coeffs = {}
        if coeffs:
            for key, vec in coeffs.items():
                v = {m: _F0 + c for m, c in vec.items() if c}
                if v:
                    self.coeffs[tuple(key)] = v

    def is_zero(self):
        return not self.coeffs

    def add_term(self, key, vec, scale=_F1):
        if not vec:
            return
        tgt = self.coeffs.setdefault(key, {})
        _add_scaled(tgt, vec, scale)
        if not tgt:
            del self.coeffs[key]


def draw(alg, n, seed, **kwargs) -> Cochain:
    """The seeded integer draw ``random_cochain(alg, n, seed, ...)`` as a Cochain."""
    return Cochain(alg, n, random_cochain(alg, n, seed, **kwargs))


def integer_coeffs(phi: Cochain):
    """(L, the coefficients of L * phi as ints), L the lcm of their denominators."""
    scale = lcm(*(c.denominator for vec in phi.coeffs.values() for c in vec.values()))
    return scale, {
        key: {m: int(c * scale) for m, c in vec.items()} for key, vec in phi.coeffs.items()
    }


class _Tables(NamedTuple):
    """Rational structure tables of one algebra, from its dual basis."""

    minus: list  # minus-basis indices
    duals: list  # duals[t]: Killing dual of e_minus[t] in p+
    pos_of: dict  # minus index -> its position t
    br_to_minus: dict  # minus index m -> [(a, b, c)]: c = [e_a, e_b]_m, a < b
    pair_brackets: dict  # (s, t), s < t -> {pos: B([e^s, e^t], e_minus[pos])}
    minus_brackets: list  # minus_brackets[i]: [(t, [e_i, e^t]_-)], nonzero ones


@lru_cache(maxsize=None)
def _tables(alg) -> _Tables:
    minus, duals = alg.dual_basis()
    br_to_minus = {}
    for ia, a in enumerate(minus):
        for b in minus[ia + 1:]:
            for m, c in alg.bracket_indices(a, b).items():
                br_to_minus.setdefault(m, []).append((a, b, c))
    pair_brackets = {}
    for i in range(len(duals)):
        for j in range(i + 1, len(duals)):
            br = alg.bracket_vec(duals[i], duals[j])
            exp = {}
            for t, m in enumerate(minus):
                val = alg.killing_vec(br, {m: _F1})
                if val:
                    exp[t] = val
            if exp:
                pair_brackets[(i, j)] = exp
    minus_brackets = []
    for i in range(alg.dim):
        row = []
        for t, dual in enumerate(duals):
            br = alg.bracket_vec({i: _F1}, dual)
            br_minus = {j: c for j, c in br.items() if alg.degrees[j] < 0}
            if br_minus:
                row.append((t, br_minus))
        minus_brackets.append(row)
    return _Tables(
        minus,
        duals,
        {m: t for t, m in enumerate(minus)},
        br_to_minus,
        pair_brackets,
        minus_brackets,
    )


# ---------------------------------------------------------------------------
# quaternion matrices
# ---------------------------------------------------------------------------

# (s, t) -> (sign, u) with e_s e_t = sign e_u for the units e = 1, i, j, k
_UNIT_TABLE = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def quat_mul(p, q):
    """Quaternion product of two component 4-tuples, unit by unit."""
    out = [0, 0, 0, 0]
    for s, x in enumerate(p):
        for t, y in enumerate(q):
            sign, u = _UNIT_TABLE[(s, t)]
            out[u] += sign * x * y
    return tuple(out)


def quat_conj(q):
    return (q[0], -q[1], -q[2], -q[3])


def quat_neg(q):
    return tuple(-c for c in q)


def matmul(x, y, cols):
    """The product of two matrices as a zero-free dict; y has cols columns."""
    out = {}
    for (i, k), a in x.items():
        for j in range(cols):
            b = y.get((k, j))
            if b is not None:
                acc = out.get((i, j), (0, 0, 0, 0))
                out[(i, j)] = tuple(s + t for s, t in zip(acc, quat_mul(a, b)))
    return {key: v for key, v in out.items() if any(v)}


def transpose(x):
    return {(j, i): v for (i, j), v in x.items()}


def conj(x):
    return {key: quat_conj(v) for key, v in x.items()}


def trace(x):
    """The quaternion trace of a square matrix, as a 4-tuple."""
    return tuple(sum(v[t] for (i, j), v in x.items() if i == j) for t in range(4))


# ---------------------------------------------------------------------------
# Killing form
# ---------------------------------------------------------------------------


def killing_form(alg):
    """Gram matrix of trace(ad_i . ad_j) over every pair, degrees not consulted."""
    n = alg.dim
    ad = [{j: alg.bracket_indices(i, j) for j in range(n)} for i in range(n)]
    gram = [[_F0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            s = _F0
            for mdx, row in ad[i].items():
                for l, c in row.items():
                    back = ad[j].get(l, {}).get(mdx)
                    if back:
                        s += c * back
            gram[i][j] = gram[j][i] = s
    return gram


# ---------------------------------------------------------------------------
# cochain arithmetic
# ---------------------------------------------------------------------------


def add(phi: Cochain, psi: Cochain, r=_F1) -> Cochain:
    """phi + r psi."""
    out = Cochain(phi.alg, phi.degree, phi.coeffs)
    for key, vec in psi.coeffs.items():
        out.add_term(key, vec, _F0 + r)
    return out


def equal(phi: Cochain, psi: Cochain) -> bool:
    """Equality of two cochains of one algebra; their coefficients are zero-free."""
    return phi.alg is psi.alg and phi.degree == psi.degree and phi.coeffs == psi.coeffs


def _perm_sign(order):
    sign = 1
    seen = [False] * len(order)
    for i in range(len(order)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = order[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def value_at(phi: Cochain, key):
    """Value on a possibly unsorted index tuple (antisymmetric lookup)."""
    if len(set(key)) != len(key):
        return {}
    order = sorted(range(len(key)), key=lambda t: key[t])
    vec = phi.coeffs.get(tuple(key[t] for t in order))
    if not vec:
        return {}
    return vec if _perm_sign(order) == 1 else {m: -c for m, c in vec.items()}


def eval_vectors(phi: Cochain, *args):
    """Multilinear evaluation on coefficient dicts over the basis."""
    out = {}
    items = [list(a.items()) for a in args]

    def rec(pos, idx, coef):
        if pos == len(items):
            _add_scaled(out, value_at(phi, tuple(idx)), coef)
            return
        for i, a in items[pos]:
            rec(pos + 1, idx + [i], coef * a)

    rec(0, [], _F1)
    return out


def homogeneity_split(phi: Cochain):
    """Decomposition by grading weight; keys are the weights l."""
    alg = phi.alg
    parts = {}
    for key, vec in phi.coeffs.items():
        base = sum(alg.degrees[i] for i in key)
        for m, c in vec.items():
            part = parts.setdefault(alg.degrees[m] - base, Cochain(alg, phi.degree))
            part.add_term(key, {m: c})
    return parts


# ---------------------------------------------------------------------------
# the differential and both codifferentials
# ---------------------------------------------------------------------------


def differential(phi: Cochain) -> Cochain:
    """Chevalley-Eilenberg differential C^n -> C^(n+1)."""
    alg = phi.alg
    out = Cochain(alg, phi.degree + 1)
    tables = _tables(alg)
    for key, vec in phi.coeffs.items():
        # first sum: (-1)^i [X_i, phi(rest)]
        for x in tables.minus:
            ins = _insert_sorted(key, x)
            if ins is None:
                continue
            pos, tkey = ins
            bracket = alg.bracket_vec({x: _F1}, vec)
            if bracket:
                out.add_term(tkey, bracket, _F1 * ((-1) ** pos))
        # second sum: (-1)^(i+j) phi([X_i, X_j], rest)
        for t, mm in enumerate(key):
            rest = key[:t] + key[t + 1:]
            sign_front = (-1) ** t
            for a, b, c in tables.br_to_minus.get(mm, ()):
                if a in rest or b in rest:
                    continue
                _, t1 = _insert_sorted(rest, a)
                _, tkey = _insert_sorted(t1, b)
                i = tkey.index(a)
                j = tkey.index(b)
                out.add_term(tkey, vec, c * ((-1) ** (i + j)) * sign_front)
    return out


def part1(phi: Cochain) -> Cochain:
    """First part of the dual-basis codifferential on C^2.

    Its value at e_a is the sum over b of [phi(e_a, e_b), e^b].
    """
    alg = phi.alg
    tables = _tables(alg)
    duals, pos_of = tables.duals, tables.pos_of
    out = Cochain(alg, 1)
    for (a, b), vec in phi.coeffs.items():
        # X = e_a with alpha = b, and X = e_b with alpha = a (antisymmetry)
        out.add_term((a,), alg.bracket_vec(vec, duals[pos_of[b]]))
        out.add_term((b,), alg.bracket_vec(vec, duals[pos_of[a]]), -_F1)
    return out


def codiff_part2_at(phi: Cochain, yvec):
    """Sum over alpha of phi([Y, e^alpha]_-, e_alpha) for an element Y."""
    tables = _tables(phi.alg)
    # [Y, e^t]_- for every t, by linearity in Y from the [e_i, e^t]_- table
    brackets = {}
    for i, y in yvec.items():
        for t, br in tables.minus_brackets[i]:
            _add_scaled(brackets.setdefault(t, {}), br, y)
    out = {}
    for t, br_minus in sorted(brackets.items()):
        if br_minus:
            _add_scaled(out, eval_vectors(phi, br_minus, {tables.minus[t]: _F1}))
    return out


def part2(phi: Cochain) -> Cochain:
    """Second part of the dual-basis codifferential on C^2.

    Its value at Y is the sum over alpha of phi([Y, e^alpha]_-, e_alpha);
    the wedge-picture map Z1 ^ Z2 (x) A -> [Z1, Z2] (x) A is -1/2 of it.
    """
    out = Cochain(phi.alg, 1)
    for m in _tables(phi.alg).minus:
        vec = codiff_part2_at(phi, {m: _F1})
        if vec:
            out.add_term((m,), vec)
    return out


def codifferential_minus(phi: Cochain):
    """Both parts of the dual-basis codifferential on C^2.

    Returns (part1, part2) as degree-1 cochains; the codifferential is
    part1 - 1/2 part2.
    """
    if phi.degree != 2:
        raise ValueError("codifferential_minus expects a degree-2 cochain")
    return part1(phi), part2(phi)


def codifferential(phi: Cochain) -> Cochain:
    """Total codifferential part1 - 1/2 part2 on C^2."""
    p1, p2 = codifferential_minus(phi)
    return add(p1, p2, Fraction(-1, 2))


def _wedge_boundary(alg, coeffs):
    """Lie homology boundary on Lambda^n p_+ (x) g in dual-basis coords.

    ``coeffs``: {increasing minus-position tuple: value vector}; returns
    the same structure one degree lower.
    """
    tables = _tables(alg)
    duals, pair_brackets = tables.duals, tables.pair_brackets
    out = {}

    def add_to(key, vec, scl):
        tgt = out.setdefault(key, {})
        _add_scaled(tgt, vec, scl)
        if not tgt:
            del out[key]

    for key, vec in coeffs.items():
        for t, zi in enumerate(key):
            rest = key[:t] + key[t + 1:]
            # (-1)^i Z_1 ... ^ ... Z_k (x) [Z_i, A]   (0-based: (-1)^t matches
            # the alternating boundary with the k=2 display)
            bracket = alg.bracket_vec(duals[zi], vec)
            if bracket:
                add_to(rest, bracket, -_F1 * ((-1) ** t))
        for t in range(len(key)):
            for u in range(t + 1, len(key)):
                exp = pair_brackets.get((min(key[t], key[u]), max(key[t], key[u])))
                if not exp:
                    continue
                flip = 1 if key[t] < key[u] else -1
                rest = tuple(x for s, x in enumerate(key) if s != t and s != u)
                for pos, c in exp.items():
                    ins = _insert_sorted(rest, pos)
                    if ins is None:
                        continue
                    ppos, tkey = ins
                    add_to(tkey, vec, c * flip * ((-1) ** (t + u)) * ((-1) ** ppos))
    return out


def codifferential_wedge(phi: Cochain) -> Cochain:
    """Codifferential via the wedge picture, degrees 1..3."""
    n = phi.degree
    if n not in (1, 2, 3):
        raise ValueError("wedge codifferential defined for degrees 1..3")
    tables = _tables(phi.alg)
    sign_in = _WEDGE_SIGN[n]
    coeffs = {
        tuple(tables.pos_of[i] for i in key): {m: sign_in * c for m, c in vec.items()}
        for key, vec in phi.coeffs.items()
    }
    out = Cochain(phi.alg, n - 1)
    sign_out = _F1 * _WEDGE_SIGN.get(n - 1, 1)
    for key, vec in _wedge_boundary(phi.alg, coeffs).items():
        out.add_term(tuple(tables.minus[t] for t in key), vec, sign_out)
    return out


def laplacian_rows(alg, n, l):
    """Rows of the Kostant Laplacian d d* + d* d on the homogeneity-l block of C^n.

    Composed one basis cochain at a time from ``differential`` and
    ``codifferential_wedge``; returns (rational rows over the block
    basis, the block basis).
    """
    src = block_basis(alg, n, l)
    index = {km: t for t, km in enumerate(src)}
    rows = [{} for _ in src]
    for col, (key, m) in enumerate(src):
        single = Cochain(alg, n, {key: {m: _F1}})
        box = add(
            differential(codifferential_wedge(single)), codifferential_wedge(differential(single))
        )
        for tkey, vec in box.coeffs.items():
            for tm, c in vec.items():
                rows[index[(tkey, tm)]][col] = c
    return rows, src


# ---------------------------------------------------------------------------
# induction and recovery along an inclusion
# ---------------------------------------------------------------------------


def induce_cochain(phi, kappa: Cochain) -> Cochain:
    """Push a degree-2 cochain to the target through the projection rule."""
    if kappa.degree != 2:
        raise ValueError("degree-2 cochains only")
    tminus, xi, _ = phi._induction()
    out = Cochain(phi.target, 2)
    for a in range(len(tminus)):
        xa = xi[a][1]
        if not xa:
            continue
        for b in range(a + 1, len(tminus)):
            xb = xi[b][1]
            if not xb:
                continue
            val = eval_vectors(kappa, xa, xb)
            if val:
                out.add_term((tminus[a], tminus[b]), phi.apply(val))
    return out


def recover_cochain(phi, tilde: Cochain) -> Cochain:
    """Pull back through phi: kappa(X, Y) = phi^{-1} tilde(phi_- X, phi_- Y)."""
    src = phi.source
    image = SpanSolver(phi.img)  # exact coordinates over the phi(e_i)
    out = Cochain(src, 2)
    minus = src.minus_indices()
    for ia, a in enumerate(minus):
        fa = phi.minus_part({a: _F1})
        for b in minus[ia + 1:]:
            val = eval_vectors(tilde, fa, phi.minus_part({b: _F1}))
            if val:
                out.add_term((a, b), image.coords(val))
    return out


def project_to_image(phi, tvec):
    """Killing-orthogonal projection of a target vector onto phi(g)."""
    covs, gram = phi._projection()
    return phi.apply(gram.coords({i: _pair(cov, tvec) for i, cov in enumerate(covs)}))


def normal_torsionfree_space(qc, phi_qc_co):
    """Exact basis of {kappa : values in p_co ∩ g_qc, both codiff parts zero}, as cochains."""
    sols, vals = _normal_torsionfree_solutions(qc, phi_qc_co)
    return [Cochain(qc, 2, coeffs) for coeffs in sols], vals


def holonomy_sample_space(qc, cr, co, phi2, phic, with_traces=True):
    """The upstairs holonomy solutions: the induced cochains of the downstairs ones."""
    return [
        induce_cochain(phic, Cochain(qc, 2, coeffs))
        for coeffs in _holonomy_solutions(qc, cr, co, phi2, phic, with_traces)
    ]


# ---------------------------------------------------------------------------
# curvature of a chart metric at one point, in full
# ---------------------------------------------------------------------------


def curvature_reference(g, dg, d2g, d3g, ginv):
    """Every curvature tensor of the jets g, dg, d2g, d3g by the full formulas.

    Index layout as in ``qcfeff.charts``; d2gamma[a,b,c,e,f] =
    d_e d_f Gamma^a_bc and driem[a,b,c,d,e] = d_e R^a_bcd.  Each einsum
    runs numpy's naive joint loop.
    """
    es = np.einsum
    m = g.shape[0]
    dginv = -es("ae,efc,fb->abc", ginv, dg, ginv)
    gamma_low = 0.5 * (dg + es("dcb->dbc", dg) - es("bcd->dbc", dg))
    gamma = es("ad,dbc->abc", ginv, gamma_low)
    dgamma_low = 0.5 * (d2g + es("dcbe->dbce", d2g) - es("bcde->dbce", d2g))
    dgamma = es("ad,dbce->abce", ginv, dgamma_low) + es("ade,dbc->abce", dginv, gamma_low)
    d2ginv = -(
        es("aed,efc,fb->abcd", dginv, dg, ginv)
        + es("ae,efcd,fb->abcd", ginv, d2g, ginv)
        + es("ae,efc,fbd->abcd", ginv, dg, dginv)
    )
    d2gamma_low = 0.5 * (d3g + es("dcbef->dbcef", d3g) - es("bcdef->dbcef", d3g))
    d2gamma = (
        es("ad,dbcef->abcef", ginv, d2gamma_low)
        + es("ade,dbcf->abcef", dginv, dgamma_low)
        + es("adf,dbce->abcef", dginv, dgamma_low)
        + es("adef,dbc->abcef", d2ginv, gamma_low)
    )
    riem = (
        es("adbc->abcd", dgamma)
        - es("acbd->abcd", dgamma)
        + es("ace,edb->abcd", gamma, gamma)
        - es("ade,ecb->abcd", gamma, gamma)
    )
    ric = es("abad->bd", riem)
    scal = float(es("bd,bd->", ginv, ric))
    P = -(ric - (scal / (2.0 * (m - 1))) * g) / (m - 2)
    kulkarni = (
        es("xz,yt->xyzt", P, g)
        + es("yt,xz->xyzt", P, g)
        - es("xt,yz->xyzt", P, g)
        - es("yz,xt->xyzt", P, g)
    )
    weyl = es("ta,azxy->xyzt", g, riem) - kulkarni
    driem = (
        es("adbce->abcde", d2gamma)
        - es("acbde->abcde", d2gamma)
        + es("acfe,fdb->abcde", dgamma, gamma)
        + es("acf,fdbe->abcde", gamma, dgamma)
        - es("adfe,fcb->abcde", dgamma, gamma)
        - es("adf,fcbe->abcde", gamma, dgamma)
    )
    dric = es("abade->bde", driem)
    dscal = es("bd,bde->e", ginv, dric) + es("bde,bd->e", dginv, ric)
    dP = -(
        dric - es("e,bd->bde", dscal / (2.0 * (m - 1)), g) - (scal / (2.0 * (m - 1))) * dg
    ) / (m - 2)
    covP = es("abc->cab", dP) - es("eca,eb->cab", gamma, P) - es("ecb,ae->cab", gamma, P)
    return {
        "dginv": dginv,
        "gamma": gamma,
        "dgamma": dgamma,
        "d2gamma": d2gamma,
        "gamtr": es("aae->e", gamma),
        "dgamtr": es("aaec->ec", dgamma),
        "d2gamtr": es("aaecd->ecd", d2gamma),
        "riem": riem,
        "ric": ric,
        "scal": scal,
        "weyl": weyl,
        "driem": driem,
        "dric": dric,
        "dP": dP,
        "covP": covP,
        "cotton": covP - es("cab->acb", covP),
    }


# ---------------------------------------------------------------------------
# the truncated jet product, pair by pair
# ---------------------------------------------------------------------------


def jet_product_table(num_vars, order):
    """(i, j, k) intp arrays of the product of jets truncated at ``order``.

    Coefficients are laid out by multi-index sorted by (degree, index).
    Every pair (i, j) is tested, i outer and j inner; it enters when the
    degrees sum to at most ``order``, with k the position of the sum.
    """
    indices = []
    for degree in range(order + 1):
        for combo in combinations_with_replacement(range(num_vars), degree):
            alpha = [0] * num_vars
            for v in combo:
                alpha[v] += 1
            indices.append(tuple(alpha))
    indices.sort(key=lambda a: (sum(a), a))
    position = {a: i for i, a in enumerate(indices)}
    ii, jj, kk = [], [], []
    for i, a in enumerate(indices):
        for j, b in enumerate(indices):
            if sum(a) + sum(b) <= order:
                ii.append(i)
                jj.append(j)
                kk.append(position[tuple(x + y for x, y in zip(a, b))])
    return tuple(np.array(v, dtype=np.intp) for v in (ii, jj, kk))


# ---------------------------------------------------------------------------
# fraction-free echelon, every row at every step
# ---------------------------------------------------------------------------


def eager_echelon(m, ncols):
    """Bareiss elimination that rescales every row below the pivot at every step."""
    nr = len(m)
    prev = 1
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
                mi[c] = 0
            elif prev != 1 or p != 1:
                for j in range(c + 1, ncols):
                    if mi[j]:
                        mi[j] = (p * mi[j]) // prev
        prev = p
        piv_cols.append(c)
        r += 1
    return piv_cols, m[:r]
