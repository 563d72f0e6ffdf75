"""Graded inclusions between the Witt-basis algebras and their transfer laws.

The inclusion maps are determined by expressing the shared real ambient
matrices of the smaller algebra in the basis of the larger one, so a
"map" is an exact coordinate matrix.  On top of that this module checks
the structural conditions a Fefferman-type inclusion must satisfy,
induces curvature-type cochains along an inclusion, and verifies the
two codifferential transfer identities and the normality-transfer
consequences, all in exact arithmetic.  Cochains enter in the one format
of ``qcfeff.cohomology``, integer coefficient dicts {(a, b): {m: int}},
and the transfer checks run on integer multiples of the rational maps
(``_IntTransfer``).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .cohomology import (
    _codifferential_ints,
    _denominator_lcm,
    _part1_ints,
    _part2_ints,
    _part2_ints_at,
    _scaled,
    _tables,
    random_cochain,
)
from .exact import Q_UNITS, SpanSolver, _add_scaled, _div, kernel_basis, quat_product
from .gradedlie import GradedLieAlgebra, matrix_to_coordvec

_F0 = Fraction(0)
_F1 = Fraction(1)


class InclusionError(RuntimeError):
    pass


def _one_ratio(pairs):
    """The exact lhs / rhs shared by every (lhs, rhs) pair that is not (0, 0).

    None when no pair is left, a pair has rhs 0 or two ratios differ;
    the pairs are read only up to the first failure.
    """
    ratio = None
    for lhs, rhs in pairs:
        if lhs == 0 and rhs == 0:
            continue
        if rhs == 0:
            return None
        r = _div(lhs, rhs)
        if ratio is None:
            ratio = r
        elif ratio != r:
            return None
    return ratio


class _IntTransfer(NamedTuple):
    """Integer tables of one inclusion that the transfer checks and solution spaces read.

    Each table is an integer multiple of its rational map: img and
    weights carry den, the induction minors xi_den ** 2, and proj
    proj_den.
    """

    den: int  # lcm of the denominators of phi's image vectors
    img: list  # img[i]: {t: den phi(e_i)_t}
    weights: dict  # weights[x]: {t: den phi_-(e_x)_t}, x in the source g_-
    xi_den: int  # lcm of the denominators of the minus-only xi vectors
    induce: dict  # (i, j) -> [(target pair, xi_den^2 (xi_a^i xi_b^j - xi_a^j xi_b^i))]
    proj_den: int
    proj: dict  # proj[t]: {i: proj_den x_i(e_t)}, x the Killing projection's coordinates


class GradedInclusion:
    """Exact Lie algebra inclusion with Killing compatibility constant."""

    def __init__(
        self, source: GradedLieAlgebra, target: GradedLieAlgebra, img=None, killing_constant=None
    ):
        """img defaults to the coordinates of the shared ambient matrices;
        killing_constant, when given, is taken as it is instead of solved for."""
        self.source = source
        self.target = target
        if img is None:
            solver = SpanSolver([matrix_to_coordvec(m) for m in target.ambient])
            img = [solver.coords(matrix_to_coordvec(m)) for m in source.ambient]
        self.img = img
        if killing_constant is None:
            killing_constant = self._solve_killing_constant()
        self.killing_constant = killing_constant
        # data derived from img, each piece built on first use
        self._induce_data = None
        self._proj_data = None
        self._transfer_data = None

    # -- basic maps -------------------------------------------------------

    def apply(self, vec):
        return _apply_ints(self.img, vec)

    def component_split(self, vec):
        """Decomposition of phi(vec) by target degree; zero parts omitted."""
        full = self.apply(vec)
        parts = {}
        for t, c in full.items():
            parts.setdefault(self.target.degrees[t], {})[t] = c
        return parts

    def minus_part(self, vec):
        return {
            t: c for t, c in self.apply(vec).items() if self.target.degrees[t] < 0
        }

    def degree_part(self, vec, deg):
        return {
            t: c for t, c in self.apply(vec).items() if self.target.degrees[t] == deg
        }

    def _solve_killing_constant(self):
        src, tgt = self.source, self.target
        c = _one_ratio(
            (src.killing[i][j], tgt.killing_vec(self.img[i], self.img[j]))
            for i in range(src.dim)
            for j in range(i, src.dim)
        )
        if not c:
            raise InclusionError("no single nonzero Killing constant fits")
        return c

    def is_homomorphism(self) -> bool:
        src, tgt = self.source, self.target
        for i in range(src.dim):
            for j in range(i + 1, src.dim):
                lhs = self.apply(src.bracket_indices(i, j))
                if lhs != tgt.bracket_vec(self.img[i], self.img[j]):
                    return False
        return True

    # -- Killing projection onto the image ---------------------------------

    def _projection(self):
        """Killing covectors of the image vectors and the reduced Gram columns."""
        if self._proj_data is None:
            # Killing covectors of the image vectors, and the Gram columns
            # reduced once; coords then solves gram x = rhs
            killing = self.target.killing
            covs = []
            for gim in self.img:
                cov = {}
                for s, a in gim.items():
                    for t, k in enumerate(killing[s]):
                        if k:
                            cov[t] = cov.get(t, _F0) + a * k
                covs.append(cov)
            columns = [{i: _pair(cov, gim) for i, cov in enumerate(covs)} for gim in self.img]
            try:
                self._proj_data = (covs, SpanSolver(columns))
            except ValueError:
                raise InclusionError("projection failed: degenerate Gram (bug)") from None
        return self._proj_data

    # -- cochain induction --------------------------------------------------

    def _induction(self):
        """Adapted complement and the xi map used to induce cochains.

        Solves phi_-(xi) = e for every minus basis vector e of the
        target, with xi drawn from g_- plus a recorded minimal set of
        degree-0 complement generators.
        """
        if self._induce_data is not None:
            return self._induce_data
        src, tgt = self.source, self.target
        tminus = tgt.minus_indices()
        tpos = {t: p for p, t in enumerate(tminus)}
        cols = list(src.minus_indices())
        probe = SpanSolver([])
        for i in cols:
            neg = self.minus_part({i: _F1})
            if not probe.append({tpos[t]: c for t, c in neg.items()}):
                raise InclusionError("phi_- degenerate on g_-")
        # extend with degree-0 complement generators
        complement = []
        for i in src.by_degree.get(0, []):
            if len(cols) == len(tminus):
                break
            neg = self.minus_part({i: _F1})
            if probe.append({tpos[t]: c for t, c in neg.items()}):
                cols.append(i)
                complement.append(i)
        if len(cols) != len(tminus):
            raise InclusionError("phi_- span does not cover target g_-")
        # xi_p: coordinates of the p-th target minus basis vector over cols
        xi = []
        for p in range(len(tminus)):
            full = {cols[t]: c for t, c in probe.coords({p: _F1}).items()}
            minus_only = {i: c for i, c in full.items() if src.degrees[i] < 0}
            xi.append((full, minus_only))
        self._induce_data = (tminus, xi, complement)
        return self._induce_data

    def complement_labels(self):
        _, _, complement = self._induction()
        return [self.source.labels[i] for i in complement]

    def _transfer(self) -> _IntTransfer:
        """The integer tables of the transfer checks, built on first use."""
        if self._transfer_data is not None:
            return self._transfer_data
        src, tgt = self.source, self.target
        den = _denominator_lcm(self.img)
        img = [_scaled(vec, den) for vec in self.img]
        weights = {
            x: {t: c for t, c in img[x].items() if tgt.degrees[t] < 0}
            for x in src.minus_indices()
        }
        tminus, xi, _ = self._induction()
        xi_den = _denominator_lcm(minus_only for _, minus_only in xi)
        xs = [_scaled(minus_only, xi_den) for _, minus_only in xi]
        minors = {}
        for a, b in combinations(range(len(tminus)), 2):
            tkey = (tminus[a], tminus[b])
            for i, u in xs[a].items():
                for j, v in xs[b].items():
                    if i != j:
                        key, sign = ((i, j), 1) if i < j else ((j, i), -1)
                        _add_scaled(minors.setdefault(key, {}), {tkey: sign * u * v}, 1)
        induce = {key: list(row.items()) for key, row in minors.items() if row}
        # x = G^-1 (B(phi(e_k), .))_k: column k of G^-1 from the reduced Gram
        covs, gram = self._projection()
        proj = {}
        for k, cov in enumerate(covs):
            ginv_k = gram.coords({k: _F1})
            for t, c in cov.items():
                _add_scaled(proj.setdefault(t, {}), ginv_k, c)
        proj_den = _denominator_lcm(proj.values())
        proj = {t: _scaled(vec, proj_den) for t, vec in proj.items() if vec}
        self._transfer_data = _IntTransfer(den, img, weights, xi_den, induce, proj_den, proj)
        return self._transfer_data


def _apply_ints(img, vec):
    """sum of vec[i] * img[i]; integer vectors give an integer vector."""
    out = {}
    for i, a in vec.items():
        _add_scaled(out, img[i], a)
    return out


def _induce_ints(data: _IntTransfer, coeffs):
    """xi_den^2 den times the induced cochain of an integer C^2 cochain."""
    out = {}
    for key, vec in coeffs.items():
        row = data.induce.get(key)
        if row:
            val = _apply_ints(data.img, vec)
            for tkey, minor in row:
                _add_scaled(out.setdefault(tkey, {}), val, minor)
    return {key: vec for key, vec in out.items() if vec}


def _induced_closed(phi: GradedInclusion, coeffs) -> bool:
    """True when the induced cochain of an integer C^2 cochain has zero codifferential."""
    return not _codifferential_ints(phi.target, _induce_ints(phi._transfer(), coeffs))


def _equal_scaled(u, su, v, sv):
    """u / su == v / sv for zero-free integer vectors and nonzero scales."""
    return {k: c * sv for k, c in u.items()} == {k: c * su for k, c in v.items()}


def _pair(cov, vec):
    """Value of a sparse covector on a sparse vector."""
    return sum((c * vec[t] for t, c in cov.items() if t in vec), _F0)


def build_phi_qc_cr(qc, cr) -> GradedInclusion:
    return GradedInclusion(qc, cr)


def build_phi_cr_co(cr, co) -> GradedInclusion:
    return GradedInclusion(cr, co)


def compose(phi1: GradedInclusion, phi2: GradedInclusion) -> GradedInclusion:
    if phi1.target is not phi2.source:
        raise ValueError("cannot compose: target/source mismatch")
    img = [phi2.apply(phi1.img[i]) for i in range(phi1.source.dim)]
    return GradedInclusion(phi1.source, phi2.target, img)


# ---------------------------------------------------------------------------
# structural conditions
# ---------------------------------------------------------------------------


def _corner_index(alg, unit):
    """Basis index of the lowest-corner generator with the given unit."""
    label = "e(%d,0)%s" % (alg.m - 1, unit)
    return alg.labels.index(label)


def g0_scalar_index(alg, unit):
    """Index of the diagonal degree-0 generator d(0)<unit> (I, J, K)."""
    return alg.labels.index("d(0)%s" % unit)


def check_structural_conditions(phi: GradedInclusion) -> dict:
    """Exact verification of the Fefferman-inclusion hypotheses."""
    src, tgt = phi.source, phi.target
    report = {"inclusion": "%s->%s" % (src.name, tgt.name), "checks": {}}
    checks = report["checks"]

    checks["homomorphism"] = phi.is_homomorphism()

    # local transitivity: phi(g) + p~ = g~
    tdim = tgt.dim
    vectors = phi.img + [{t: 1} for t in range(tdim) if tgt.degrees[t] >= 0]
    rank = tdim - len(kernel_basis(vectors, tdim))
    checks["transitivity"] = rank == tdim

    # phi(g) ∩ p~ ⊆ phi(p): solutions of "phi(v) has no negative part"
    checks["intersection_in_p"] = all(
        all(src.degrees[i] >= 0 for i in vec) for vec in p_co_cap_gqc(phi)
    )

    # phi(p+) ⊆ p~
    checks["pplus_into_ptilde"] = all(
        not phi.minus_part({i: _F1}) for i in src.plus_indices()
    )

    # phi(g0) ∩ p~ ⊆ g~0
    ok = True
    zrows = {}
    zero_idx = src.by_degree.get(0, [])
    for col, i in enumerate(zero_idx):
        for t, c in phi.img[i].items():
            if tgt.degrees[t] < 0:
                zrows.setdefault(t, {})[col] = c
    for vec in kernel_basis(list(zrows.values()), len(zero_idx)):
        full = phi.apply({zero_idx[t]: c for t, c in vec.items()})
        if any(tgt.degrees[t] != 0 for t in full):
            ok = False
    checks["g0_condition"] = ok

    # pairing hypotheses of the first transfer lemma
    pairing_ok = True
    killing = tgt.killing_vec
    for z in src.plus_indices():
        z0 = phi.degree_part({z: _F1}, 0)
        if not z0:
            continue
        zplus = {
            t: c for t, c in phi.apply({z: _F1}).items() if tgt.degrees[t] > 0
        }
        for x in src.minus_indices():
            xm = phi.minus_part({x: _F1})
            x0 = phi.degree_part({x: _F1}, 0)
            if killing(xm, zplus) != killing(x0, z0):
                pairing_ok = False
    for a in src.by_degree.get(0, []):
        am = phi.minus_part({a: _F1})
        a0 = phi.degree_part({a: _F1}, 0)
        for z in src.plus_indices():
            z0 = phi.degree_part({z: _F1}, 0)
            zplus = {
                t: c for t, c in phi.apply({z: _F1}).items() if tgt.degrees[t] > 0
            }
            if killing(am, zplus) != 0 or killing(a0, z0) != 0:
                pairing_ok = False
    checks["pairing_hypotheses"] = pairing_ok

    # second transfer lemma hypotheses at the distinguished corner element
    if src.k == 2 and src.kind == "quaternion":
        xi_idx = _corner_index(src, "i")
        split = phi.component_split({xi_idx: _F1})
        shape_ok = set(split) <= {-2, 0} and -2 in split
        comm_ok = True
        for z in src.plus_indices():
            z0 = phi.degree_part({z: _F1}, 0)
            if z0 and tgt.bracket_vec(split.get(-2, {}), z0):
                comm_ok = False
        # phi_0 injective on g_1
        g1 = src.by_degree.get(1, [])
        zrows = {}
        for col, i in enumerate(g1):
            for t, c in phi.degree_part({i: _F1}, 0).items():
                zrows.setdefault(t, {})[col] = c
        inj = not kernel_basis(list(zrows.values()), len(g1)) if g1 else True
        checks["corner_lemma_hypotheses"] = shape_ok and comm_ok and inj
    report["pass"] = all(checks.values())
    return report


# ---------------------------------------------------------------------------
# transfer identity checks
# ---------------------------------------------------------------------------


def del1_identity_check(phi: GradedInclusion, coeffs) -> dict:
    """Exact residuals of the first transfer identity on every g_- basis.

    c phi(part1(kappa)(x)) = proj(part1(tilde)(phi_-(x))) for the integer
    C^2 coefficients kappa = ``coeffs`` ({(a, b): {m: int}}), with tilde
    the induced cochain; both sides lie in phi(g), so they are compared
    in source coordinates.  Everything runs on integer multiples of the
    rational values (see _IntTransfer, cohomology._IntTables), and the
    two sides are compared by cross-multiplying their scales.
    """
    src, tgt = phi.source, phi.target
    data = phi._transfer()
    part1 = _part1_ints(src, coeffs)
    tilde_part1 = _part1_ints(tgt, _induce_ints(data, coeffs))
    c = phi.killing_constant
    # part1 is c_src times part 1 of kappa, coords (below) is
    # proj_den den^2 c_tgt xi_den^2 times the projected coordinates, and
    # c = c_num / c_den: the sides agree when part1 / lhs_scale == coords / rhs_scale
    lhs_scale = c.denominator * _tables(src).ints.c_scale
    rhs_scale = (
        c.numerator * data.proj_den * data.den ** 2 * _tables(tgt).ints.c_scale * data.xi_den ** 2
    )
    all_zero = True
    for x in src.minus_indices():
        # part 1 is linear in its argument: phi_-(x)'s value from the basis values
        at_image = {}
        for t, w in data.weights[x].items():
            _add_scaled(at_image, tilde_part1.get(t, {}), w)
        coords = {}
        for t, a in at_image.items():
            _add_scaled(coords, data.proj.get(t, {}), a)
        if not _equal_scaled(part1.get(x, {}), lhs_scale, coords, rhs_scale):
            all_zero = False
    return {
        "inclusion": "%s->%s" % (src.name, phi.target.name),
        "lemma": "codiff-part1",
        "all_exact_zero": all_zero,
    }


def del2_identity_check(phi: GradedInclusion, coeffs, unit="i") -> dict:
    """Exact three-way check of the second transfer identity at a corner,
    for integer C^2 coefficients {(a, b): {m: int}}."""
    src, tgt = phi.source, phi.target
    xi_idx = _corner_index(src, unit)
    data = phi._transfer()
    tilde = _induce_ints(data, coeffs)
    c = phi.killing_constant
    # lhs is c_src den times phi(part2(kappa)(xi)); mid and rhs are
    # c_tgt xi_den^2 den^2 times part2(tilde) at phi(xi) and at its
    # degree -2 part; with c = c_num / c_den, 2c phi(part2(kappa)(xi))
    # equals part2(tilde)(phi(xi)) when lhs / lhs_scale == mid / mid_scale
    lhs = _apply_ints(data.img, _part2_ints_at(src, coeffs, {xi_idx: 1}))
    y = data.img[xi_idx]
    mid = _part2_ints_at(tgt, tilde, y)
    rhs = _part2_ints_at(tgt, tilde, {t: v for t, v in y.items() if tgt.degrees[t] == -2})
    lhs_scale = c.denominator * _tables(src).ints.c_scale
    mid_scale = 2 * c.numerator * _tables(tgt).ints.c_scale * data.xi_den ** 2 * data.den
    return {
        "inclusion": "%s->%s" % (src.name, tgt.name),
        "lemma": "codiff-part2",
        "element": unit,
        "all_exact_zero": mid == rhs and _equal_scaled(lhs, lhs_scale, mid, mid_scale),
    }


# ---------------------------------------------------------------------------
# normality transfer
# ---------------------------------------------------------------------------


def p_co_cap_gqc(phi_qc_co: GradedInclusion):
    """Basis of the subspace of the source mapping into the target parabolic."""
    src = phi_qc_co.source
    rows = {}
    for i in range(src.dim):
        for t, c in phi_qc_co.img[i].items():
            if phi_qc_co.target.degrees[t] < 0:
                rows.setdefault(t, {})[i] = c
    return kernel_basis(list(rows.values()), src.dim)


def _solution_coeffs(cols, vec):
    """Integer C^2 coefficients of one kernel vector: the sum of vec[t] cols[t].

    cols[t] is the basis cochain (minus pair, integer value vector) of
    column t of a solution-space system.
    """
    out = {}
    for t, c in vec.items():
        key, val = cols[t]
        _add_scaled(out.setdefault(key, {}), val, c)
    return {key: val for key, val in out.items() if val}


def _normal_torsionfree_solutions(qc, phi_qc_co):
    """Integer C^2 coefficients of a basis of the normal torsion-free space, and its values.

    The rows are c_scale times both codifferential parts of each column's
    basis cochain, read off the integer tables.
    """
    vals = p_co_cap_gqc(phi_qc_co)
    cols = [(key, vec) for key in combinations(qc.minus_indices(), 2) for vec in vals]
    rows = {}
    for t, (key, vec) in enumerate(cols):
        basis_cochain = {key: vec}
        for tag, part in (
            ("p1", _part1_ints(qc, basis_cochain)),
            ("p2", _part2_ints(qc, basis_cochain)),
        ):
            for x, tvec in part.items():
                for m, c in tvec.items():
                    rows.setdefault((tag, (x,), m), {})[t] = c
    sols = kernel_basis(list(rows.values()), len(cols))
    return [_solution_coeffs(cols, vec) for vec in sols], vals


def normality_transfer_check(qc, phi1, phic) -> dict:
    """Induced cochains of the exact solution space stay codifferential-closed.

    Induction and the codifferential are linear, so closure on a basis
    of the solution space proves it on the whole space.
    """
    sols, _ = _normal_torsionfree_solutions(qc, phic)
    ok = all(_induced_closed(phi, coeffs) for coeffs in sols for phi in (phi1, phic))
    return {
        "inclusion": "chain",
        "lemma": "normality-transfer",
        "certificate": "basis",
        "dim_solution_space": len(sols),
        "all_exact_zero": ok and len(sols) > 0,
    }


def normality_negative_control(qc, phi1, seed=5) -> dict:
    """A generic g_0-valued cochain with nonzero part1 must fail upstairs."""
    g0 = qc.by_degree[0]
    coeffs = random_cochain(qc, 2, seed, value_indices=g0)
    part1_nonzero = bool(_part1_ints(qc, coeffs))
    failed = not _induced_closed(phi1, coeffs)
    return {
        "inclusion": "%s->%s" % (qc.name, phi1.target.name),
        "lemma": "normality-negative-control",
        "counterexample_seed": seed,
        "source_part1_nonzero": part1_nonzero,
        "induced_nonclosed": failed,
        "pass": part1_nonzero and failed,
    }


def _holonomy_solutions(qc, cr, co, phi2, phic, with_traces):
    """Integer C^2 coefficients of a basis of the holonomy sample space, downstairs.

    The induction complement of phic is the fiber I, J, K, so the induced
    cochain of e^a ^ e^b (x) e_v is the upstairs column
    eps^a ^ eps^b (x) phi(e_v), eps the coframe of phi_-(g_-) and the
    fiber; it vanishes on the fiber directions.  Each row is a positive
    integer multiple of its rational constraint: the upstairs
    codifferential of the induced column, and a trace row is the value
    of the induced form on its pairs times phi(e_v).
    """
    if phic.complement_labels() != ["d(0)%s" % unit for unit in "ijk"]:
        raise InclusionError("induction complement is not the fiber I, J, K")
    data = phic._transfer()
    cols = [(key, {v: 1}) for key in combinations(qc.minus_indices(), 2) for v in range(qc.dim)]
    traces = []
    if with_traces:
        traces = [(("qtrace", unit), _qc_trace_pairs(qc, phic, unit)) for unit in "ijk"]
        traces.append((("ctrace",), _cr_trace_pairs(cr, phi2)))
    traces = [(tag, _trace_scalars(pairs, data.induce)) for tag, pairs in traces]
    rows = {}
    for t, (key, val) in enumerate(cols):
        for x, tvec in _codifferential_ints(co, _induce_ints(data, {key: val})).items():
            for m, c in tvec.items():
                rows.setdefault(("cod", (x,), m), {})[t] = c
        for tag, scalars in traces:
            if scalars.get(key):
                for m, w in _apply_ints(data.img, val).items():
                    rows.setdefault(tag + (m,), {})[t] = scalars[key] * w
    sols = kernel_basis(list(rows.values()), len(cols))
    return [_solution_coeffs(cols, vec) for vec in sols]


def _entry_right_mult(alg, idx, unit):
    """(sign, index) with entry(e_idx) * q_unit = sign * entry(e_index)."""
    label = alg.labels[idx]
    if not label.startswith("e(") or label[-1] not in "1ijk":
        return None
    base, u = label[:-1], label[-1]
    prod = quat_product(Q_UNITS[u], Q_UNITS[unit])
    comp_names = ("1", "i", "j", "k")
    for t, c in enumerate(prod):
        if c:
            return (c, alg.labels.index(base + comp_names[t]))
    return None


def corner_bracket_map(alg, unit):
    """Matrix of X -> [corner_unit, dual(X)]_- on the degree -1 block."""
    minus, duals = alg.dual_basis()
    pos = {m: t for t, m in enumerate(minus)}
    qidx = _corner_index(alg, unit)
    out = {}
    for a in alg.by_degree[-1]:
        br = alg.bracket_vec({qidx: _F1}, duals[pos[a]])
        out[a] = {i: c for i, c in br.items() if alg.degrees[i] < 0}
    return out


def corner_trace_constant(alg, unit="i"):
    """Exact c with [corner, dual(X)]_- = c * (X right-multiplied by unit).

    The proportionality is the algebraic content of the quaternionic
    trace formula; returns None when it fails (it must not).
    """
    pairs = []
    for a, row in corner_bracket_map(alg, unit).items():
        r = _entry_right_mult(alg, a, unit)
        if r is None:
            return None
        sgn, idx = r
        if len(row) != 1 or idx not in row:
            return None
        pairs.append((row[idx], sgn))
    return _one_ratio(pairs)


def corner_square_constant(alg, unit="i"):
    """lambda with (X -> [corner, dual(X)]_-) squared = lambda * Id, if it holds."""
    tmap = corner_bracket_map(alg, unit)
    pairs = []
    for a, row in tmap.items():
        sq = {}
        for i, c in row.items():
            _add_scaled(sq, tmap.get(i, {}), c)
        if list(sq) != [a]:
            return None
        pairs.append((sq[a], 1))
    return _one_ratio(pairs)


def _trace_scalars(pairs, induce):
    """{(i, j): sum of sign tilde(u, w)} over the pairs, tilde the induced e^i ^ e^j.

    The value of the induced form on (u, w) is read off its minors
    induce[(i, j)] on the target minus pairs.
    """
    return {
        key: sum(
            sgn * minor * (u.get(p, 0) * w.get(q, 0) - u.get(q, 0) * w.get(p, 0))
            for sgn, u, w in pairs
            for (p, q), minor in row
        )
        for key, row in induce.items()
    }


def _qc_trace_pairs(qc, phic, unit):
    """(sign, u, w) pairs of the qc trace: the sum of tilde(phi(e_a . q_s), phi(e_a))
    over the real basis of g_-1."""
    pairs = []
    for a in qc.by_degree[-1]:
        ia = _entry_right_mult(qc, a, unit)
        if ia is not None:
            sgn, idx = ia
            pairs.append((sgn, phic.minus_part({idx: _F1}), phic.minus_part({a: _F1})))
    return pairs


def _cr_trace_pairs(cr, phi2):
    """(sign, u, w) pairs of the complex trace of the intermediate picture at
    its corner element.

    Implemented through the exact bracket map X -> [i, dual(X)]_-, which
    carries the pseudo-unitary signs of the light-cone directions.
    """
    pairs = []
    for a, row in corner_bracket_map(cr, "i").items():
        arg1 = {}
        for i, c in row.items():
            _add_scaled(arg1, phi2.minus_part({i: _F1}), c)
        if arg1:
            pairs.append((_F1, arg1, phi2.minus_part({a: _F1})))
    return pairs


def inverse_normality_check(qc, cr, co, phi2, phic) -> dict:
    """Downstairs codifferential closure of reduced upstairs cochains.

    Each holonomy solution is the induced cochain of its downstairs
    coefficients, so its pullback through phi is those coefficients; both
    codifferential parts are linear, so closure on a basis of the solution
    space proves it on the whole space.
    """
    sols = _holonomy_solutions(qc, cr, co, phi2, phic, with_traces=True)
    part1_all_zero = not any(_part1_ints(qc, coeffs) for coeffs in sols)
    part2_all_zero = not any(_part2_ints(qc, coeffs) for coeffs in sols)
    c_qc = corner_trace_constant(qc, "i")
    c_cr = corner_square_constant(cr, "i")
    return {
        "inclusion": "chain-inverse",
        "lemma": "inverse-normality",
        "certificate": "basis",
        "dim_solution_space": len(sols),
        "part1_all_zero": part1_all_zero,
        "part2_all_zero": part2_all_zero,
        "qc_trace_identity_constant": str(c_qc) if c_qc is not None else None,
        "cr_corner_square_constant": str(c_cr) if c_cr is not None else None,
        "all_exact_zero": part1_all_zero and part2_all_zero and len(sols) > 0,
    }


def inverse_negative_control(qc, cr, co, phi2, phic) -> dict:
    """Dropping the trace constraints must admit failing samples."""
    sols = _holonomy_solutions(qc, cr, co, phi2, phic, with_traces=False)
    failing = sum(1 for coeffs in sols if _part2_ints(qc, coeffs))
    return {
        "lemma": "inverse-negative-control",
        "dim_without_traces": len(sols),
        "failing_samples": failing,
        "pass": failing > 0,
    }


# ---------------------------------------------------------------------------
# trace pairings and scaling elements
# ---------------------------------------------------------------------------


def _pairing_involution(co: GradedLieAlgebra):
    """The involution sigma of the (1, Q) pairing, whose matrix has its 1s at (a, sigma(a)).

    In the conformal splitting R w_0 + R^(m-2) + R w_last the middle
    block carries the signature-(p, q) Witt form, which pairs a with
    m - 1 - a for a < q or a >= m - q and a with itself otherwise; the
    two light slots 0 and m - 1 are fixed.
    """
    m, q = co.m, co.q
    return [m - 1 - a if 0 < a < m - 1 and (a < q or a >= m - q) else a for a in range(m)]


def trace_pairing(phi_qc_co: GradedInclusion, u, v) -> Fraction:
    """tr((1,Q) phi_-(u) (1,Q) phi_-(v)^t) for source coefficient vectors.

    (1,Q) permutes by sigma, so the trace is the sum of mu_kl nu_(sigma k, sigma l).
    """
    co = phi_qc_co.target
    sigma = _pairing_involution(co)
    mu = co.native_of_vec(phi_qc_co.minus_part(u))
    nu = co.native_of_vec(phi_qc_co.minus_part(v))
    t = 0
    for (k, l), x in mu.items():
        y = nu.get((sigma[k], sigma[l]))
        if y is not None:
            t += quat_product(x, y)[0]
    return t


def real_trace_pairing(qc, u, v) -> Fraction:
    """tr_R(x conj(y)^t) = twice the real part of the quaternionic trace.

    The real part of the (i, i) entry of x conj(y)^t is the sum over j of
    the component dot products of x_ij and y_ij; rows 1..m-2 count.
    """
    x = qc.native_of_vec(qc.component(u, -1))
    y = qc.native_of_vec(qc.component(v, -1))
    tr = 0
    for (i, j), a in x.items():
        b = y.get((i, j))
        if b is not None and 1 <= i <= qc.m - 2:
            tr += sum(p * r for p, r in zip(a, b))
    return 2 * tr


def minus2_element(qc, unit):
    """Matrix-form labelled element of g_-2: the corner entry is conj(unit)."""
    return {_corner_index(qc, unit): -_F1}


def trace_pairing_check(qc, phic) -> dict:
    """The closing pairing identities of the metric-recovery formula."""
    minus1 = qc.by_degree[-1]
    ok_xy = True
    for a in minus1:
        for b in minus1:
            lhs = trace_pairing(phic, {a: _F1}, {b: _F1})
            rhs = real_trace_pairing(qc, {a: _F1}, {b: _F1})
            if lhs != rhs:
                ok_xy = False
    pair_vals = {}
    for unit in ("i", "j", "k"):
        g0 = g0_scalar_index(qc, unit)
        pair_vals[unit] = trace_pairing(phic, minus2_element(qc, unit), {g0: _F1})
    ok_diag = all(v == Fraction(-2) for v in pair_vals.values())
    ok_mixed = True
    units = ("i", "j", "k")
    for ua in units:
        for ub in units:
            if ua != ub:
                if trace_pairing(phic, minus2_element(qc, ua), {g0_scalar_index(qc, ub): _F1}) != 0:
                    ok_mixed = False
        for b in minus1:
            if trace_pairing(phic, {b: _F1}, {g0_scalar_index(qc, ua): _F1}) != 0:
                ok_mixed = False
            if trace_pairing(phic, minus2_element(qc, ua), {b: _F1}) != 0:
                ok_mixed = False
    return {
        "lemma": "trace-pairings",
        "xy_matches_real_trace": ok_xy,
        "scalar_pairings": {u: str(v) for u, v in pair_vals.items()},
        "mixed_vanish": ok_mixed,
        "pass": ok_xy and ok_diag and ok_mixed,
    }


def scaling_compat_check(phi: GradedInclusion, wrong_element=False) -> dict:
    """Existence of one exact constant relating the scale pairings."""
    src, tgt = phi.source, phi.target
    e_src = src.grading_element
    e_tgt = dict(tgt.grading_element)
    if wrong_element:
        # perturb by a non-central degree-0 generator
        for i in tgt.by_degree[0]:
            probe = {i: _F1}
            if any(tgt.bracket_vec(probe, {j: _F1}) for j in tgt.by_degree[0]):
                e_tgt = probe
                break
    const = _one_ratio(
        (src.killing_vec(e_src, {i: _F1}), tgt.killing_vec(e_tgt, phi.apply({i: _F1})))
        for i in range(src.dim)
    )
    return {
        "lemma": "scaling-compatibility",
        "inclusion": "%s->%s" % (src.name, tgt.name),
        "constant": str(const) if const is not None else None,
        "pass": const is not None,
    }


def degree_shuffled_inclusion(phi: GradedInclusion) -> GradedInclusion:
    """Negative control: swap the degree +-1 images (breaks the inclusion laws)."""
    src = phi.source
    img = [dict(phi.img[i]) for i in range(src.dim)]
    for a, b in zip(src.by_degree[-1], src.by_degree[1]):
        img[a], img[b] = img[b], img[a]
    return GradedInclusion(src, phi.target, img, killing_constant=phi.killing_constant)
