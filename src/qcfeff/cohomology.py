"""Cochain complex of the negative nilpotent part with adjoint values.

Cochains C^n(g_-, g) have one format: integer coefficient dicts
{key: {m: int}}, strictly increasing tuples of minus-basis indices
mapped to zero-free value vectors over the full basis (antisymmetry is
structural).  Every operator acts on integer multiples of per-algebra
structure tables (``_IntTables``).  On a homogeneity block the
differential (the Chevalley-Eilenberg formula) and the codifferential
(the Lie homology boundary of p_+ on Lambda^n p_+ (x) g, the wedge
picture) are assembled once as integer columns.  d* is Kostant's
adjoint of d, so the harmonic space ker(box) of the Kostant Laplacian
is ker d cap ker d*, the kernel of the stacked rows of both.
``hodge_check`` is the one pass over the blocks of a degree: on each it
certifies C^n_l = im d (+) ker box (+) im d* (the ranks of the three
parts add up to the block dimension, and so does the rank of their
stacked spans) and keeps the harmonic dimension, which is the H^n table
the cohomology suite reports.  On C^2
both parts of the dual-basis codifferential ((d*phi)_1 - 1/2 (d*phi)_2)
act on integer cochains for the inclusion checks: part 1 is read off
dual_brackets, and part 2 is -2 times the wedge ``pairs`` table of the d*
columns, since a minus pair (a, b) enters it at e_y with
[e_y, e^b]_a - [e_y, e^a]_b = -2 B([e^a, e^b], e_y) by ad-invariance of
the Killing form B.  The rational per-cochain forms of these operators,
and the composed Laplacian, live with the tests, as the reference the
integer columns are checked against.

Sign conventions: the identification of C^2 with Lambda^2 p_+ (x) g
carries a global factor -1 (and C^3 a factor +1) so that the wedge
boundary reproduces the dual-basis codifferential exactly and the
Hodge decomposition verifies; the kernel statements are insensitive to
these factors.
"""

from __future__ import annotations

import random
import weakref
from fractions import Fraction
from itertools import combinations
from math import comb, lcm
from typing import NamedTuple

from .exact import _add_scaled, kernel_basis

_F1 = Fraction(1)

# identification signs between C^n(g_-, g) and Lambda^n p_+ (x) g
_WEDGE_SIGN = {1: 1, 2: -1, 3: 1}


def _insert_sorted(tup, x):
    """Insert x into the sorted tuple; returns (position, new tuple) or None."""
    if x in tup:
        return None
    pos = 0
    while pos < len(tup) and tup[pos] < x:
        pos += 1
    return pos, tup[:pos] + (x,) + tup[pos:]


class _IntTables(NamedTuple):
    """Integer multiples of the tables that assemble d and d* on a block.

    Every d entry carries the factor d_scale and every d* entry the factor
    c_scale, so a composite of one d and one d* is the rational operator
    times d_scale * c_scale.
    """

    d_scale: int  # lcm of the denominators of [e_x, e_m], x in g_-
    left: list  # left[m]: [(x, {l: d_scale [e_x, e_m]_l})], x in g_-, nonzero
    br_to_minus: dict  # m in g_- -> [(a, b, d_scale [e_a, e_b]_m)], a < b in g_-
    c_scale: int  # lcm of the denominators of dual_brackets and pairs
    dual_brackets: list  # dual_brackets[m][t]: {l: c_scale [e_m, e^t]_l}
    pairs: dict  # (a, b) in g_-, a < b -> {x: c_scale B([e^a, e^b], e_x)}


class _Tables(NamedTuple):
    """Structure tables of one algebra that the cochain operators share."""

    minus: list  # minus-basis indices
    pos_of: dict  # minus index -> its position t
    ints: _IntTables


_TABLES = weakref.WeakKeyDictionary()


def _tables(alg) -> _Tables:
    """The tables of alg, built on first use and kept while alg lives."""
    tables = _TABLES.get(alg)
    if tables is not None:
        return tables
    minus, duals = alg.dual_basis()
    tables = _Tables(minus, {m: t for t, m in enumerate(minus)}, _int_tables(alg, minus, duals))
    _TABLES[alg] = tables
    return tables


def _int_tables(alg, minus, duals):
    left = [
        [(x, br) for x in minus if (br := alg.bracket_indices(x, m))]
        for m in range(alg.dim)
    ]
    # [e_a, e_b] for a < b in g_-, by the minus index it reaches
    br_to_minus = {}
    for a, b in combinations(minus, 2):
        for m, c in alg.bracket_indices(a, b).items():
            br_to_minus.setdefault(m, []).append((a, b, c))
    # dual_brackets[i][t] = [e_i, e^t]
    dual_brackets = [
        [alg.bracket_vec({i: _F1}, dual) for dual in duals] for i in range(alg.dim)
    ]
    # B([e^a, e^b], e_x) for a < b and x in g_-
    pairs = {}
    for s, t in combinations(range(len(minus)), 2):
        br = alg.bracket_vec(duals[s], duals[t])
        exp = {x: val for x in minus if (val := alg.killing_vec(br, {x: _F1}))}
        if exp:
            pairs[(minus[s], minus[t])] = exp
    d_scale = _denominator_lcm(br for row in left for _, br in row)
    c_scale = _denominator_lcm(
        [br for row in dual_brackets for br in row] + list(pairs.values())
    )
    return _IntTables(
        d_scale,
        [[(x, _scaled(br, d_scale)) for x, br in row] for row in left],
        {
            m: [(a, b, _times(c, d_scale)) for a, b, c in row]
            for m, row in br_to_minus.items()
        },
        c_scale,
        [[_scaled(br, c_scale) for br in row] for row in dual_brackets],
        {key: _scaled(exp, c_scale) for key, exp in pairs.items()},
    )


def _denominator_lcm(vecs):
    out = 1
    for vec in vecs:
        for c in vec.values():
            out = lcm(out, c.denominator)
    return out


def _times(c, scale) -> int:
    """scale * c as an int; scale must be a multiple of c's denominator."""
    return c.numerator * (scale // c.denominator)


def _scaled(vec, scale):
    return {k: _times(c, scale) for k, c in vec.items()}


def _part1_ints(alg, coeffs):
    """c_scale times part 1 of an integer C^2 cochain, as {x: {l: int}}.

    ``coeffs`` maps increasing minus pairs (a, b) to {m: int}; the value
    at e_a gains [phi(e_a, e_b), e^b] and the value at e_b gains
    -[phi(e_a, e_b), e^a], read off dual_brackets.
    """
    tables = _tables(alg)
    dual, pos_of = tables.ints.dual_brackets, tables.pos_of
    out = {}
    for (a, b), vec in coeffs.items():
        at_a, at_b = out.setdefault(a, {}), out.setdefault(b, {})
        pa, pb = pos_of[a], pos_of[b]
        for m, c in vec.items():
            _add_scaled(at_a, dual[m][pb], c)
            _add_scaled(at_b, dual[m][pa], -c)
    return {x: vec for x, vec in out.items() if vec}


def _part2_ints(alg, coeffs):
    """c_scale times part 2 of an integer C^2 cochain on every minus basis
    vector, as {y: {l: int}}, read off the wedge ``pairs`` table.

    Part 2 at Y is the sum over t of phi([Y, e^t]_-, e_t), so a minus pair
    (a, b) enters at e_y with [e_y, e^b]_a - [e_y, e^a]_b.  The e_a
    coefficient of v is B(v, e^a) and B is ad-invariant, so this is
    -2 B([e^a, e^b], e_y) = -2 pairs[(a, b)][y]; by grading it is 0 for y
    of degree >= 0, so part 2 at any Y reads only Y's minus part.
    """
    pairs = _tables(alg).ints.pairs
    out = {}
    for key, vec in coeffs.items():
        for y, c in pairs.get(key, {}).items():
            _add_scaled(out.setdefault(y, {}), vec, -2 * c)
    return {y: vec for y, vec in out.items() if vec}


def _codifferential_ints(alg, coeffs):
    """2 c_scale times the codifferential part1 - 1/2 part2 of an integer C^2 cochain."""
    out = {}
    for part, scale in ((_part1_ints(alg, coeffs), 2), (_part2_ints(alg, coeffs), -1)):
        for x, vec in part.items():
            _add_scaled(out.setdefault(x, {}), vec, scale)
    return {x: vec for x, vec in out.items() if vec}


# ---------------------------------------------------------------------------
# homogeneity blocks and harmonic spaces
# ---------------------------------------------------------------------------


def cochain_space_dim(alg, n):
    return comb(len(alg.minus_indices()), n) * alg.dim


def block_basis(alg, n, l):
    """Ordered (key, value-index) pairs of the homogeneity-l block of C^n."""
    minus = alg.minus_indices()
    out = []
    for key in combinations(minus, n):
        base = sum(alg.degrees[i] for i in key)
        for m in range(alg.dim):
            if alg.degrees[m] - base == l:
                out.append((key, m))
    return out


def homogeneity_range(alg, n):
    minus = alg.minus_indices()
    degs = sorted({alg.degrees[m] for m in range(alg.dim)})
    sums = sorted({sum(alg.degrees[i] for i in key) for key in combinations(minus, n)})
    if not sums:
        return []
    lo = degs[0] - sums[-1]
    hi = degs[-1] - sums[0]
    return [l for l in range(lo, hi + 1) if block_basis(alg, n, l)]


class _Block(NamedTuple):
    """Bases of the (n, l) block and its neighbours, and the integer operators
    out of the block.

    Each operator is a list of sparse {row: int} columns, one per element
    of its source basis; every d column is d_scale times the rational one
    and every d* column c_scale times it (see _IntTables).
    """

    src: list  # block basis of C^n
    down: list  # block basis of C^(n-1)
    up: list  # block basis of C^(n+1)
    c_src: list  # d*: C^n -> C^(n-1), rows over down
    d_src: list  # d: C^n -> C^(n+1), rows over up


def _block_operators(alg, n, l) -> _Block:
    tables = _tables(alg)
    src, down, up = (block_basis(alg, k, l) for k in (n, n - 1, n + 1))
    idx_down, idx_up = ({km: t for t, km in enumerate(basis)} for basis in (down, up))
    return _Block(
        src,
        down,
        up,
        _codifferential_columns(tables, n, src, idx_down),
        _differential_columns(tables, src, idx_up),
    )


def _operators_into(alg, n, blk: _Block):
    """Columns of d: C^(n-1) -> C^n and d*: C^(n+1) -> C^n into the block,
    rows over blk.src, with the scales of _Block."""
    tables = _tables(alg)
    idx_src = {km: t for t, km in enumerate(blk.src)}
    return (
        _differential_columns(tables, blk.down, idx_src),
        _codifferential_columns(tables, n + 1, blk.up, idx_src),
    )


def _add_entry(col, index, target, value):
    """col[index[target]] += value, keeping no zero entries."""
    row = index.get(target)
    if row is None:
        raise AssertionError("operator left the homogeneity block")
    s = col.get(row, 0) + value
    if s:
        col[row] = s
    else:
        del col[row]


def _differential_columns(tables, basis, index):
    """Columns of d_scale * d on the basis cochains (key, m), by the
    Chevalley-Eilenberg formula."""
    ints = tables.ints
    cols = []
    for key, m in basis:
        col = {}
        # first sum: (-1)^i [X_i, phi(rest)]
        for x, br in ints.left[m]:
            ins = _insert_sorted(key, x)
            if ins is None:
                continue
            pos, tkey = ins
            sign = -1 if pos % 2 else 1
            for l, c in br.items():
                _add_entry(col, index, (tkey, l), sign * c)
        # second sum: (-1)^(i+j) phi([X_i, X_j], rest)
        for t, mm in enumerate(key):
            rest = key[:t] + key[t + 1:]
            for a, b, c in ints.br_to_minus.get(mm, ()):
                if a in rest or b in rest:
                    continue
                _, t1 = _insert_sorted(rest, a)
                _, tkey = _insert_sorted(t1, b)
                sign = (-1) ** (tkey.index(a) + tkey.index(b) + t)
                _add_entry(col, index, (tkey, m), sign * c)
        cols.append(col)
    return cols


def _codifferential_columns(tables, n, basis, index):
    """Columns of c_scale * d* on the basis cochains of C^n, by the wedge-picture
    boundary (keys are increasing, so no pair is flipped)."""
    if basis and n not in _WEDGE_SIGN:
        raise ValueError("wedge codifferential defined for degrees 1..3")
    ints = tables.ints
    sign = _WEDGE_SIGN.get(n, 1) * _WEDGE_SIGN.get(n - 1, 1)
    cols = []
    for key, m in basis:
        col = {}
        for t, z in enumerate(key):
            rest = key[:t] + key[t + 1:]
            # -(-1)^t [e^z, e_m] = (-1)^t [e_m, e^z]
            s = -sign if t % 2 else sign
            for l, c in ints.dual_brackets[m][tables.pos_of[z]].items():
                _add_entry(col, index, (rest, l), s * c)
        for t in range(len(key)):
            for u in range(t + 1, len(key)):
                exp = ints.pairs.get((key[t], key[u]))
                if not exp:
                    continue
                rest = key[:t] + key[t + 1:u] + key[u + 1:]
                for x, c in exp.items():
                    ins = _insert_sorted(rest, x)
                    if ins is None:
                        continue
                    ppos, tkey = ins
                    _add_entry(col, index, (tkey, m), sign * (-1) ** (t + u + ppos) * c)
        cols.append(col)
    return cols


def _harmonic_vectors(blk: _Block):
    """Primitive integer kernel vectors of the stacked rows of d and d* on the block.

    d* is adjoint to d, so ker d cap ker d* is the kernel of the Kostant
    Laplacian d d* + d* d; the scales d_scale and c_scale do not move it.
    """
    rows = [{} for _ in blk.up] + [{} for _ in blk.down]
    for c, (d_col, c_col) in enumerate(zip(blk.d_src, blk.c_src)):
        for r, v in d_col.items():
            rows[r][c] = v
        for r, v in c_col.items():
            rows[len(blk.up) + r][c] = v
    return kernel_basis(rows, len(blk.src))


def harmonic_space(alg, n, l):
    """Exact kernel of the Kostant Laplacian on the homogeneity-l block of C^n,
    computed as ker d cap ker d*.

    Returns (dimension, basis cochains as {key: {m: int}}, block basis);
    each basis cochain is a primitive integer kernel vector of the block.
    """
    blk = _block_operators(alg, n, l)
    vecs = _harmonic_vectors(blk)
    cochains = []
    for vec in vecs:
        coeffs = {}
        for t, v in vec.items():
            key, m = blk.src[t]
            coeffs.setdefault(key, {})[m] = v
        cochains.append(coeffs)
    return len(vecs), cochains, blk.src


def contained_in_wedge_g0(alg, coeffs) -> bool:
    """True when every term of a C^2 cochain has both inputs in g_-1 and value in g_0."""
    for (a, b), vec in coeffs.items():
        if alg.degrees[a] != -1 or alg.degrees[b] != -1:
            return False
        if any(alg.degrees[m] != 0 for m in vec):
            return False
    return True


def _rank_of_vectors(vectors, dim):
    if not vectors:
        return 0
    return dim - len(kernel_basis(vectors, dim))


def hodge_check(alg, n):
    """The degree-n Hodge pass: C^n = im(del) + ker(box) + im(cod), certified
    blockwise by homogeneity with exact ranks.

    A block of dimension dim passes when the ranks of del into it and of
    cod into it and its harmonic dimension add up to dim and the three
    spans stacked together also have rank dim, which makes the sum direct
    and the whole block; ker(box) is read as ker(del) cap ker(cod), as in
    harmonic_space.  "harmonic" maps each homogeneity, in
    homogeneity_range order, to the dimension of its harmonic space.
    """
    total = cochain_space_dim(alg, n)
    covered = 0
    harmonic = {}
    ok = True
    for l in homogeneity_range(alg, n):
        blk = _block_operators(alg, n, l)
        dim = len(blk.src)
        covered += dim
        hvecs = _harmonic_vectors(blk)
        harmonic[l] = len(hvecs)
        im_del, im_cod = ([v for v in cols if v] for cols in _operators_into(alg, n, blk))
        ranks = _rank_of_vectors(im_del, dim) + len(hvecs) + _rank_of_vectors(im_cod, dim)
        ok = ok and ranks == dim == _rank_of_vectors(im_del + hvecs + im_cod, dim)
    ok = ok and covered == total
    return {"degree": n, "dim_total": total, "harmonic": harmonic, "pass": ok}


def random_cochain(alg, n, seed, lo=-3, hi=3, value_indices=None):
    """Deterministic small-integer C^n coefficients {key: {m: int}} for seeded checks."""
    rng = random.Random(seed)
    values = list(range(alg.dim)) if value_indices is None else list(value_indices)
    coeffs = {}
    for key in combinations(alg.minus_indices(), n):
        vec = {m: c for m in values if (c := rng.randint(lo, hi))}
        if vec:
            coeffs[key] = vec
    return coeffs
