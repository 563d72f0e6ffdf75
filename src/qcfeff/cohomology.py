"""Cochain complex of the negative nilpotent part with adjoint values.

Cochains C^n(g_-, g) are stored sparsely: strictly increasing tuples of
minus-basis indices mapped to value vectors over the full basis
(antisymmetry is structural).  The differential is the Chevalley-
Eilenberg formula; the codifferential is implemented twice, once
through the dual-basis formula ((d*phi)_1 - 1/2 (d*phi)_2) and once
through the wedge picture on Lambda^n p_+ (x) g, where it is the Lie
homology boundary of p_+.  The two routes are exact cross-oracles.
On a homogeneity block the Laplacian is assembled once from integer
multiples of the same structure tables; the per-cochain operators are
the reference its columns are tested against.  Both codifferential
parts on C^2 also act on integer cochains through those tables
(``_part1_ints``, ``_part2_ints_at``) for the inclusion checks.

Sign conventions: the identification of C^2 with Lambda^2 p_+ (x) g
carries a global factor -1 (and C^3 a factor +1) so that the wedge
boundary reproduces the dual-basis codifferential exactly and the
Hodge decomposition of the Kostant Laplacian verifies; the kernel
statements are insensitive to these factors.
"""

from __future__ import annotations

import random
import weakref
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .exact import _add_scaled, kernel_basis
from .gradedlie import GradedLieAlgebra

_F0 = Fraction(0)
_F1 = Fraction(1)

# identification signs between C^n(g_-, g) and Lambda^n p_+ (x) g
_WEDGE_SIGN = {1: 1, 2: -1, 3: 1}


class Cochain:
    """Element of C^n(g_-, g) with exact coefficients."""

    __slots__ = ("alg", "degree", "coeffs")

    def __init__(self, alg: GradedLieAlgebra, degree: int, coeffs=None):
        self.alg = alg
        self.degree = degree
        self.coeffs = {}
        if coeffs:
            for key, vec in coeffs.items():
                v = {m: _F0 + c for m, c in vec.items() if c}
                if v:
                    self.coeffs[tuple(key)] = v

    def copy(self):
        return _cochain(self.alg, self.degree, {k: dict(v) for k, v in self.coeffs.items()})

    def is_zero(self):
        return not self.coeffs

    def add_term(self, key, vec, scale=_F1):
        if not vec:
            return
        tgt = self.coeffs.setdefault(key, {})
        _add_scaled(tgt, vec, scale)
        if not tgt:
            del self.coeffs[key]

    def __add__(self, o):
        out = self.copy()
        for k, v in o.coeffs.items():
            out.add_term(k, v)
        return out

    def __sub__(self, o):
        out = self.copy()
        for k, v in o.coeffs.items():
            out.add_term(k, v, _F1 * -1)
        return out

    def scale(self, r):
        r = _F0 + r
        if not r:
            return Cochain(self.alg, self.degree)
        return _cochain(
            self.alg,
            self.degree,
            {k: {m: c * r for m, c in v.items()} for k, v in self.coeffs.items()},
        )

    def value_at(self, key):
        """Value on a possibly unsorted index tuple (antisymmetric lookup)."""
        if len(set(key)) != len(key):
            return {}
        order = sorted(range(len(key)), key=lambda t: key[t])
        sign = _perm_sign(order)
        skey = tuple(key[t] for t in order)
        vec = self.coeffs.get(skey)
        if not vec:
            return {}
        return vec if sign == 1 else {m: -c for m, c in vec.items()}

    def eval_vectors(self, *args):
        """Multilinear evaluation on coefficient dicts over the basis."""
        out = {}
        items = [list(a.items()) for a in args]

        def rec(pos, idx, coef):
            if pos == len(items):
                _add_scaled(out, self.value_at(tuple(idx)), coef)
                return
            for i, a in items[pos]:
                rec(pos + 1, idx + [i], coef * a)

        rec(0, [], _F1)
        return out

    def homogeneity_split(self):
        """Decomposition by grading weight; keys are the weights l."""
        alg = self.alg
        parts = {}
        for key, vec in self.coeffs.items():
            base = sum(alg.degrees[i] for i in key)
            for m, c in vec.items():
                l = alg.degrees[m] - base
                part = parts.setdefault(l, Cochain(alg, self.degree))
                part.add_term(key, {m: c})
        return parts

    def __eq__(self, o):
        return (
            isinstance(o, Cochain)
            and self.alg is o.alg
            and self.degree == o.degree
            and (self - o).is_zero()
        )


def _cochain(alg, degree, coeffs):
    """A Cochain over coeffs that already hold nonzero Fractions only."""
    out = Cochain(alg, degree)
    out.coeffs = coeffs
    return out


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


def _insert_sorted(tup, x):
    """Insert x into the sorted tuple; returns (position, new tuple) or None."""
    if x in tup:
        return None
    pos = 0
    while pos < len(tup) and tup[pos] < x:
        pos += 1
    return pos, tup[:pos] + (x,) + tup[pos:]


def differential(phi: Cochain) -> Cochain:
    """Chevalley-Eilenberg differential C^n -> C^(n+1)."""
    alg = phi.alg
    n = phi.degree
    out = Cochain(alg, n + 1)
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


class _IntTables(NamedTuple):
    """Integer multiples of the tables that assemble d and d* on a block.

    Every d entry carries the factor d_scale and every d* entry the factor
    c_scale, so a composite of one d and one d* is the rational operator
    times d_scale * c_scale.
    """

    d_scale: int  # lcm of the denominators of [e_x, e_m], x in g_-
    left: list  # left[m]: [(x, {l: d_scale [e_x, e_m]_l})], x in g_-, nonzero
    br_to_minus: dict  # m -> [(a, b, d_scale c)] from _Tables.br_to_minus
    c_scale: int  # lcm of the denominators of dual_brackets and pairs
    dual_brackets: list  # dual_brackets[m][t]: {l: c_scale [e_m, e^t]_l}
    pairs: dict  # (a, b) in g_-, a < b -> {x: c_scale B([e^a, e^b], e_x)}


class _Tables(NamedTuple):
    """Structure tables of one algebra that the cochain operators share."""

    minus: list  # minus-basis indices
    duals: list  # duals[t]: Killing dual of e_minus[t] in p+
    pos_of: dict  # minus index -> its position t
    br_to_minus: dict  # minus index m -> [(a, b, c)]: c = [e_a, e_b]_m, a < b
    pair_brackets: dict  # (s, t), s < t -> {pos: B([e^s, e^t], e_minus[pos])}
    minus_brackets: list  # minus_brackets[i]: [(t, [e_i, e^t]_-)], nonzero ones
    ints: _IntTables


_TABLES = weakref.WeakKeyDictionary()


def _tables(alg) -> _Tables:
    """The tables of alg, built on first use and kept while alg lives."""
    tables = _TABLES.get(alg)
    if tables is not None:
        return tables
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
    # dual_brackets[i][t] = [e_i, e^t]
    dual_brackets = [
        [alg.bracket_vec({i: _F1}, dual) for dual in duals] for i in range(alg.dim)
    ]
    minus_brackets = []
    for row in dual_brackets:
        out = []
        for t, br in enumerate(row):
            br_minus = {j: c for j, c in br.items() if alg.degrees[j] < 0}
            if br_minus:
                out.append((t, br_minus))
        minus_brackets.append(out)
    tables = _Tables(
        minus,
        duals,
        {m: t for t, m in enumerate(minus)},
        br_to_minus,
        pair_brackets,
        minus_brackets,
        _int_tables(alg, minus, br_to_minus, pair_brackets, dual_brackets),
    )
    _TABLES[alg] = tables
    return tables


def _int_tables(alg, minus, br_to_minus, pair_brackets, dual_brackets):
    left = [
        [(x, br) for x in minus if (br := alg.bracket_indices(x, m))]
        for m in range(alg.dim)
    ]
    d_scale = _denominator_lcm(br for row in left for _, br in row)
    c_scale = _denominator_lcm(
        [br for row in dual_brackets for br in row] + list(pair_brackets.values())
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
        {
            (minus[s], minus[t]): {minus[p]: _times(c, c_scale) for p, c in exp.items()}
            for (s, t), exp in pair_brackets.items()
        },
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


def _part1(phi: Cochain) -> Cochain:
    """First part of the dual-basis codifferential on C^2.

    Its value at e_a is the sum over b of [phi(e_a, e_b), e^b].
    """
    alg = phi.alg
    tables = _tables(alg)
    duals, pos_of = tables.duals, tables.pos_of
    part1 = Cochain(alg, 1)
    for (a, b), vec in phi.coeffs.items():
        # X = e_a with alpha = b, and X = e_b with alpha = a (antisymmetry)
        part1.add_term((a,), alg.bracket_vec(vec, duals[pos_of[b]]))
        part1.add_term((b,), alg.bracket_vec(vec, duals[pos_of[a]]), -_F1)
    return part1


def _integer_coeffs(phi: Cochain):
    """(L, the coefficients of L * phi as ints), L the lcm of their denominators."""
    scale = _denominator_lcm(phi.coeffs.values())
    return scale, {key: _scaled(vec, scale) for key, vec in phi.coeffs.items()}


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


def _part2_ints_at(alg, coeffs, yvec):
    """c_scale times part 2 at Y of an integer C^2 cochain, for integer Y.

    Part 2 at Y is the sum over t of phi([Y, e^t]_-, e_t); a minus pair
    (a, b) enters through the coefficient of e_a in [Y, e^b] and of e_b
    in [Y, e^a], so the degree < 0 part of dual_brackets is all it reads.
    """
    tables = _tables(alg)
    dual, pos_of = tables.ints.dual_brackets, tables.pos_of
    out = {}
    for (a, b), vec in coeffs.items():
        pa, pb = pos_of[a], pos_of[b]
        c = sum(y * (dual[i][pb].get(a, 0) - dual[i][pa].get(b, 0)) for i, y in yvec.items())
        if c:
            _add_scaled(out, vec, c)
    return out


def _part2_ints(alg, coeffs):
    """c_scale times part 2 on every minus basis vector, as {y: {l: int}}."""
    out = {}
    for y in _tables(alg).minus:
        vec = _part2_ints_at(alg, coeffs, {y: 1})
        if vec:
            out[y] = vec
    return out


def _codifferential_ints(alg, coeffs):
    """2 c_scale times the codifferential part1 - 1/2 part2 of an integer C^2 cochain."""
    out = {x: {l: 2 * c for l, c in vec.items()} for x, vec in _part1_ints(alg, coeffs).items()}
    for y, vec in _part2_ints(alg, coeffs).items():
        acc = out.setdefault(y, {})
        _add_scaled(acc, vec, -1)
        if not acc:
            del out[y]
    return out


def codifferential_minus(phi: Cochain):
    """Both parts of the dual-basis codifferential on C^2.

    Returns (part1, part2) as degree-1 cochains; the codifferential is
    part1 - 1/2 part2.
    """
    if phi.degree != 2:
        raise ValueError("codifferential_minus expects a degree-2 cochain")
    alg = phi.alg
    part2 = Cochain(alg, 1)
    for m in _tables(alg).minus:
        vec = codiff_part2_at(phi, {m: _F1})
        if vec:
            part2.add_term((m,), vec)
    return _part1(phi), part2


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
        if not br_minus:
            continue
        _add_scaled(out, phi.eval_vectors(br_minus, {tables.minus[t]: _F1}))
    return out


def codifferential(phi: Cochain) -> Cochain:
    """Total codifferential part1 - 1/2 part2 on C^2."""
    p1, p2 = codifferential_minus(phi)
    return p1 - p2.scale(Fraction(1, 2))


def _wedge_boundary(alg, n, coeffs):
    """Lie homology boundary on Lambda^n p_+ (x) g in dual-basis coords.

    ``coeffs``: {increasing minus-position tuple: value vector}; returns
    the same structure for degree n-1.
    """
    tables = _tables(alg)
    duals, pair_brackets = tables.duals, tables.pair_brackets
    out = {}

    def add(key, vec, scl):
        tgt = out.setdefault(key, {})
        _add_scaled(tgt, vec, scl)
        if not tgt:
            del out[key]

    for key, vec in coeffs.items():
        for t, zi in enumerate(key):
            rest = key[:t] + key[t + 1:]
            sgn = _F1 * ((-1) ** t)
            # (-1)^i Z_1 ... ^ ... Z_k (x) [Z_i, A]   (0-based: (-1)^t matches
            # the alternating boundary with the k=2 display)
            bracket = alg.bracket_vec(duals[zi], vec)
            if bracket:
                add(rest, bracket, -sgn)
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
                    add(
                        tkey,
                        vec,
                        c * flip * ((-1) ** (t + u)) * ((-1) ** ppos),
                    )
    return out


def codifferential_wedge(phi: Cochain) -> Cochain:
    """Codifferential via the wedge picture, degrees 1..3."""
    n = phi.degree
    if n not in (1, 2, 3):
        raise ValueError("wedge codifferential defined for degrees 1..3")
    alg = phi.alg
    tables = _tables(alg)
    coeffs = {
        tuple(tables.pos_of[i] for i in key): vec for key, vec in phi.coeffs.items()
    }
    sign_in = _WEDGE_SIGN[n]
    sign_out = _WEDGE_SIGN.get(n - 1, 1)
    if sign_in != 1:
        coeffs = {k: {m: sign_in * c for m, c in v.items()} for k, v in coeffs.items()}
    bnd = _wedge_boundary(alg, n, coeffs)
    out = Cochain(alg, n - 1)
    for key, vec in bnd.items():
        out.add_term(tuple(tables.minus[t] for t in key), vec, _F1 * sign_out)
    return out


def bracket_tensor_id(phi: Cochain) -> Cochain:
    """Wedge-picture map Z1 ^ Z2 (x) A -> [Z1, Z2] (x) A on C^2.

    Equals -1/2 of the codifferential's second part under the duality
    (documented sign convention).
    """
    if phi.degree != 2:
        raise ValueError("degree-2 cochains only")
    alg = phi.alg
    tables = _tables(alg)
    out = Cochain(alg, 1)
    for (a, b), vec in phi.coeffs.items():
        i, j = tables.pos_of[a], tables.pos_of[b]
        exp = tables.pair_brackets.get((min(i, j), max(i, j)))
        if not exp:
            continue
        flip = 1 if i < j else -1
        for pos, c in exp.items():
            out.add_term((tables.minus[pos],), vec, c * flip)
    return out


# ---------------------------------------------------------------------------
# homogeneity blocks, Laplacian, harmonic spaces
# ---------------------------------------------------------------------------


def cochain_space_dim(alg, n):
    from math import comb

    return comb(len(alg.minus_indices()), n) * alg.dim


def block_basis(alg, n, l):
    """Ordered (key, value-index) pairs of the homogeneity-l block of C^n."""
    from itertools import combinations

    minus = alg.minus_indices()
    out = []
    for key in combinations(minus, n):
        base = sum(alg.degrees[i] for i in key)
        for m in range(alg.dim):
            if alg.degrees[m] - base == l:
                out.append((key, m))
    return out


def homogeneity_range(alg, n):
    from itertools import combinations

    minus = alg.minus_indices()
    degs = sorted({alg.degrees[m] for m in range(alg.dim)})
    sums = sorted({sum(alg.degrees[i] for i in key) for key in combinations(minus, n)})
    if not sums:
        return []
    lo = degs[0] - sums[-1]
    hi = degs[-1] - sums[0]
    return [l for l in range(lo, hi + 1) if block_basis(alg, n, l)]


class _Block(NamedTuple):
    """Bases of the (n, l) block and its neighbours, and the integer operators.

    Each operator is a list of sparse {row: int} columns, one per element
    of its source basis; every d column is d_scale times the rational one
    and every d* column c_scale times it (see _IntTables).
    """

    src: list  # block basis of C^n
    down: list  # block basis of C^(n-1)
    up: list  # block basis of C^(n+1)
    d_down: list  # d: C^(n-1) -> C^n, rows over src
    c_src: list  # d*: C^n -> C^(n-1), rows over down
    d_src: list  # d: C^n -> C^(n+1), rows over up
    c_up: list  # d*: C^(n+1) -> C^n, rows over src


def _block_operators(alg, n, l) -> _Block:
    tables = _tables(alg)
    src, down, up = (block_basis(alg, k, l) for k in (n, n - 1, n + 1))
    idx_src, idx_down, idx_up = (
        {km: t for t, km in enumerate(basis)} for basis in (src, down, up)
    )
    return _Block(
        src,
        down,
        up,
        _differential_columns(tables, down, idx_src),
        _codifferential_columns(tables, n, src, idx_down),
        _differential_columns(tables, src, idx_up),
        _codifferential_columns(tables, n + 1, up, idx_src),
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
    """Columns of d_scale * d on the basis cochains (key, m), as in differential."""
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
    """Columns of c_scale * d* on the basis cochains of C^n, as in
    codifferential_wedge (keys are increasing, so no pair is flipped)."""
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


def _laplacian_rows(blk: _Block):
    """Rows of d d* + d* d on the block, composed column by column in int."""
    rows = [{} for _ in blk.src]
    for c in range(len(blk.src)):
        col = {}
        for left, right in ((blk.d_down, blk.c_src[c]), (blk.c_up, blk.d_src[c])):
            for mid, v in right.items():
                for r, w in left[mid].items():
                    col[r] = col.get(r, 0) + v * w
        for r, v in col.items():
            if v:
                rows[r][c] = v
    return rows


def laplacian_block(alg, n, l):
    """Sparse integer rows of the Kostant Laplacian on the (n, l) block.

    The rows are d_scale * c_scale times the rational Laplacian's, a
    positive multiple, so the kernel and the primitive rows are the same.
    """
    return _laplacian_rows(_block_operators(alg, n, l))


def harmonic_space(alg, n, l):
    """Exact kernel of the Laplacian on the homogeneity-l block of C^n.

    Returns (dimension, basis cochains, block basis).
    """
    src = block_basis(alg, n, l)
    if not src:
        return 0, [], src
    rows = laplacian_block(alg, n, l)
    vecs = kernel_basis(rows, len(src))
    cochains = []
    for vec in vecs:
        c = Cochain(alg, n)
        for t, v in enumerate(vec):
            if v:
                key, m = src[t]
                c.add_term(key, {m: v})
        cochains.append(c)
    return len(vecs), cochains, src


def contained_in_wedge_g0(alg, coch: Cochain) -> bool:
    """True when every term has both inputs in g_-1 and value in g_0."""
    for (a, b), vec in coch.coeffs.items():
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
    """Exact Hodge-decomposition check on C^n, blockwise by homogeneity.

    Verifies dim im(del) + dim ker(box) + dim im(cod) = dim C^n and the
    pairwise triviality of intersections, using exact ranks.
    """
    total = cochain_space_dim(alg, n)
    covered = 0
    per_block = {}
    ok = True
    for l in homogeneity_range(alg, n):
        # one assembly per block serves im(del), im(cod) and ker(box)
        blk = _block_operators(alg, n, l)
        dim = len(blk.src)
        covered += dim
        hvecs = kernel_basis(_laplacian_rows(blk), dim)
        hdim = len(hvecs)
        im_del = [v for v in blk.d_down if v]
        im_cod = [v for v in blk.c_up if v]
        r_del = _rank_of_vectors(im_del, dim)
        r_cod = _rank_of_vectors(im_cod, dim)
        segs = {
            "im_del": (im_del, r_del),
            "ker_box": (hvecs, hdim),
            "im_cod": (im_cod, r_cod),
        }
        sum_ok = r_del + hdim + r_cod == dim
        pair_ok = True
        names = list(segs)
        for i in range(len(names)):
            for j in range(i + 1, len(names)):
                va, ra = segs[names[i]]
                vb, rb = segs[names[j]]
                if _rank_of_vectors(va + vb, dim) != ra + rb:
                    pair_ok = False
        per_block[l] = {
            "dim": dim,
            "im_del": r_del,
            "ker_box": hdim,
            "im_cod": r_cod,
            "sum_ok": sum_ok,
            "pairwise_trivial": pair_ok,
        }
        ok = ok and sum_ok and pair_ok
    ok = ok and covered == total
    return {"degree": n, "dim_total": total, "blocks": per_block, "pass": ok}


def random_cochain(alg, n, seed, lo=-3, hi=3, value_indices=None, keys=None):
    """Deterministic small-integer cochain for seeded tests.

    ``keys``, when given, are distinct sorted index tuples, as the
    combinations drawn by default are.
    """
    from itertools import combinations

    rng = random.Random(seed)
    minus = alg.minus_indices()
    values = list(range(alg.dim)) if value_indices is None else list(value_indices)
    coeffs = {}
    for key in keys if keys is not None else combinations(minus, n):
        vec = {}
        for m in values:
            c = rng.randint(lo, hi)
            if c:
                vec[m] = Fraction(c)
        if vec:
            coeffs[tuple(key)] = vec
    return _cochain(alg, n, coeffs)
