"""Graded inclusions between the Witt-basis algebras and their transfer laws.

The inclusion maps are determined by expressing the shared real ambient
matrices of the smaller algebra in the basis of the larger one, so a
"map" is an exact coordinate matrix.  On top of that this module checks
the structural conditions a Fefferman-type inclusion must satisfy,
induces curvature-type cochains along an inclusion, and verifies the
two codifferential transfer identities and the normality-transfer
consequences, all in exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from .cohomology import (
    Cochain,
    codiff_part2_at,
    codifferential_minus,
    random_cochain,
)
from .exact import ExactMatrix, SpanSolver, kernel_basis, solve_exact
from .gradedlie import GradedLieAlgebra, matrix_to_coordvec

_F0 = Fraction(0)
_F1 = Fraction(1)


class InclusionError(RuntimeError):
    pass


class GradedInclusion:
    """Exact Lie algebra inclusion with Killing compatibility constant."""

    def __init__(self, source: GradedLieAlgebra, target: GradedLieAlgebra, img=None):
        self.source = source
        self.target = target
        if img is None:
            solver = SpanSolver([matrix_to_coordvec(m) for m in target.ambient])
            img = []
            for m in source.ambient:
                coeffs = solver.coords(matrix_to_coordvec(m))
                img.append({t: c for t, c in enumerate(coeffs) if c})
        self.img = img
        self.killing_constant = self._solve_killing_constant()
        self._span = None
        self._induce_data = None
        self._proj_data = None

    # -- basic maps -------------------------------------------------------

    def apply(self, vec):
        out = {}
        for i, a in vec.items():
            for t, c in self.img[i].items():
                s = out.get(t, _F0) + a * c
                if s:
                    out[t] = s
                else:
                    out.pop(t, None)
        return out

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
        c = None
        for i in range(src.dim):
            for j in range(i, src.dim):
                lhs = src.killing[i][j]
                rhs = tgt.killing_vec(self.img[i], self.img[j])
                if lhs == 0 and rhs == 0:
                    continue
                if rhs == 0:
                    raise InclusionError("no Killing constant fits (zero target)")
                ratio = lhs / rhs
                if c is None:
                    c = ratio
                elif c != ratio:
                    raise InclusionError("inconsistent Killing constant")
        if c is None or c == 0:
            raise InclusionError("degenerate Killing pairing")
        return c

    def is_homomorphism(self) -> bool:
        src, tgt = self.source, self.target
        for i in range(src.dim):
            for j in range(i + 1, src.dim):
                lhs = self.apply(src.bracket_indices(i, j))
                rhs = tgt.bracket_vec(self.img[i], self.img[j])
                if _sub(lhs, rhs):
                    return False
        return True

    # -- span of the image and projection ----------------------------------

    def image_solver(self) -> SpanSolver:
        if self._span is None:
            self._span = SpanSolver(self.img)
        return self._span

    def preimage(self, tvec):
        """Exact phi^{-1} of a target vector in the image (ValueError else)."""
        coeffs = self.image_solver().coords(tvec)
        return {i: c for i, c in enumerate(coeffs) if c}

    def project_to_image(self, tvec):
        """Killing-orthogonal projection of a target vector onto phi(g)."""
        if self._proj_data is None:
            # Killing covectors of the image vectors, and the Gram columns
            # reduced once; coords then solves gram x = rhs on every call
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
        covs, gram = self._proj_data
        x = gram.coords({i: _pair(cov, tvec) for i, cov in enumerate(covs)})
        return self.apply({i: c for i, c in enumerate(x) if c})

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
        vecs = []
        probe = SpanSolver.empty()
        for i in cols:
            neg = self.minus_part({i: _F1})
            v = {tpos[t]: c for t, c in neg.items()}
            vecs.append(v)
            if not probe.append(v):
                raise InclusionError("phi_- degenerate on g_-")
        # extend with degree-0 complement generators
        complement = []
        for i in src.by_degree.get(0, []):
            if len(cols) == len(tminus):
                break
            neg = self.minus_part({i: _F1})
            if not neg:
                continue
            v = {tpos[t]: c for t, c in neg.items()}
            if probe.append(v):
                cols.append(i)
                vecs.append(v)
                complement.append(i)
        if len(cols) != len(tminus):
            raise InclusionError("phi_- span does not cover target g_-")
        # invert the square system: xi coordinates for each target minus index
        rows = []
        for p in range(len(tminus)):
            rows.append({c: vecs[c].get(p, _F0) for c in range(len(cols))})
        xi = []
        n_minus = len(src.minus_indices())
        for p in range(len(tminus)):
            rhs = [_F1 if q == p else _F0 for q in range(len(tminus))]
            sol = solve_exact(
                [rows[q] for q in range(len(tminus))], rhs, len(cols)
            )
            if sol is None:
                raise InclusionError("xi solve failed")
            full = {cols[t]: c for t, c in enumerate(sol) if c}
            minus_only = {
                i: c for i, c in full.items() if self.source.degrees[i] < 0
            }
            xi.append((full, minus_only))
        self._induce_data = (tminus, xi, complement)
        return self._induce_data

    def complement_labels(self):
        _, _, complement = self._induction()
        return [self.source.labels[i] for i in complement]

    def induce_cochain(self, kappa: Cochain) -> Cochain:
        """Push a degree-2 cochain to the target through the projection rule."""
        if kappa.degree != 2:
            raise ValueError("degree-2 cochains only")
        tminus, xi, _ = self._induction()
        out = Cochain(self.target, 2)
        n = len(tminus)
        for a in range(n):
            xa = xi[a][1]
            if not xa:
                continue
            for b in range(a + 1, n):
                xb = xi[b][1]
                if not xb:
                    continue
                val = kappa.eval_vectors(xa, xb)
                if val:
                    out.add_term((tminus[a], tminus[b]), self.apply(val))
        return out

    def recover_cochain(self, tilde: Cochain) -> Cochain:
        """Pull back through phi: kappa(X, Y) = phi^{-1} tilde(phi_- X, phi_- Y)."""
        src = self.source
        out = Cochain(src, 2)
        minus = src.minus_indices()
        for ia, a in enumerate(minus):
            fa = self.minus_part({a: _F1})
            for b in minus[ia + 1:]:
                fb = self.minus_part({b: _F1})
                val = tilde.eval_vectors(fa, fb)
                if val:
                    out.add_term((a, b), self.preimage(val))
        return out


def _pair(cov, vec):
    """Value of a sparse covector on a sparse vector."""
    return sum((c * vec[t] for t, c in cov.items() if t in vec), _F0)


def _sub(u, v):
    out = dict(u)
    for k, c in v.items():
        s = out.get(k, _F0) - c
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


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
    vectors = []
    tdim = tgt.dim
    for im in phi.img:
        vectors.append([im.get(t, _F0) for t in range(tdim)])
    for t in range(tdim):
        if tgt.degrees[t] >= 0:
            vectors.append([_F1 if s == t else _F0 for s in range(tdim)])
    rank = tdim - len(kernel_basis(vectors, tdim))
    checks["transitivity"] = rank == tdim

    # phi(g) ∩ p~ ⊆ phi(p): solutions of "phi(v) has no negative part"
    rows = {}
    for i in range(src.dim):
        for t, c in phi.img[i].items():
            if tgt.degrees[t] < 0:
                rows.setdefault(t, {})[i] = c
    inter = kernel_basis(list(rows.values()), src.dim)
    checks["intersection_in_p"] = all(
        all(src.degrees[i] >= 0 for i, c in enumerate(vec) if c) for vec in inter
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
        v = {zero_idx[t]: c for t, c in enumerate(vec) if c}
        full = phi.apply(v)
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


def part1_at(kappa: Cochain, yvec):
    """First codifferential part evaluated at an arbitrary minus element."""
    alg = kappa.alg
    minus, duals = alg.dual_basis()
    out = {}
    for t, m in enumerate(minus):
        val = kappa.eval_vectors(yvec, {m: _F1})
        if not val:
            continue
        br = alg.bracket_vec(val, duals[t])
        for l, c in br.items():
            s = out.get(l, _F0) + c
            if s:
                out[l] = s
            else:
                out.pop(l, None)
    return out


def del1_identity_check(phi: GradedInclusion, kappa: Cochain) -> dict:
    """Exact residuals of the first transfer identity on every g_- basis."""
    src = phi.source
    tilde = phi.induce_cochain(kappa)
    c = phi.killing_constant
    residuals = []
    for x in src.minus_indices():
        lhs = phi.apply(part1_at(kappa, {x: _F1}))
        lhs = {k: c * v for k, v in lhs.items()}
        rhs = phi.project_to_image(part1_at(tilde, phi.minus_part({x: _F1})))
        residuals.append(_sub(lhs, rhs))
    return {
        "inclusion": "%s->%s" % (src.name, phi.target.name),
        "lemma": "codiff-part1",
        "all_exact_zero": all(not r for r in residuals),
    }


def del2_identity_check(phi: GradedInclusion, kappa: Cochain, unit="i") -> dict:
    """Exact three-way check of the second transfer identity at a corner."""
    src = phi.source
    xi_idx = _corner_index(src, unit)
    tilde = phi.induce_cochain(kappa)
    c = phi.killing_constant
    lhs = phi.apply(codiff_part2_at(kappa, {xi_idx: _F1}))
    lhs = {k: 2 * c * v for k, v in lhs.items()}
    mid = codiff_part2_at(tilde, phi.apply({xi_idx: _F1}))
    split = phi.component_split({xi_idx: _F1})
    rhs = codiff_part2_at(tilde, split.get(-2, {}))
    return {
        "inclusion": "%s->%s" % (src.name, phi.target.name),
        "lemma": "codiff-part2",
        "element": unit,
        "all_exact_zero": not _sub(lhs, mid) and not _sub(mid, rhs),
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
    vecs = kernel_basis(list(rows.values()), src.dim)
    return [{i: c for i, c in enumerate(vec) if c} for vec in vecs]


def _cochain_from_params(alg, pair_keys, value_vectors, coeffs):
    out = Cochain(alg, 2)
    t = 0
    for key in pair_keys:
        for vec in value_vectors:
            c = coeffs[t]
            if c:
                out.add_term(key, {m: c * v for m, v in vec.items()})
            t += 1
    return out


def normal_torsionfree_space(qc, phi_qc_co):
    """Exact basis of {kappa : values in p_co ∩ g_qc, both codiff parts zero}."""
    from itertools import combinations

    vals = p_co_cap_gqc(phi_qc_co)
    minus = qc.minus_indices()
    pair_keys = list(combinations(minus, 2))
    cols = []
    for key in pair_keys:
        for vec in vals:
            cols.append((key, vec))
    rows = {}
    for t, (key, vec) in enumerate(cols):
        basis_cochain = Cochain(qc, 2, {key: vec})
        p1, p2 = codifferential_minus(basis_cochain)
        for tag, part in (("p1", p1), ("p2", p2)):
            for tkey, tvec in part.coeffs.items():
                for m, c in tvec.items():
                    rows.setdefault((tag, tkey, m), {})[t] = c
    sols = kernel_basis(list(rows.values()), len(cols))
    out = []
    for vec in sols:
        out.append(_cochain_from_params(qc, pair_keys, vals, vec))
    return out, vals


def normality_transfer_check(qc, cr, co, phi1, phi2, phic, seeds=10) -> dict:
    """Induced cochains of the exact solution space stay codifferential-closed."""
    import random as _random

    sols, vals = normal_torsionfree_space(qc, phic)
    samples = list(sols)
    rng = _random.Random(20)
    for _ in range(seeds):
        if not sols:
            break
        combo = Cochain(qc, 2)
        for s in sols:
            combo = combo + s.scale(Fraction(rng.randint(-2, 2)))
        samples.append(combo)
    ok = True
    for kappa in samples:
        t_cr = phi1.induce_cochain(kappa)
        p1, p2 = codifferential_minus(t_cr)
        if not (p1 - p2.scale(Fraction(1, 2))).is_zero():
            ok = False
        t_co = phic.induce_cochain(kappa)
        q1, q2 = codifferential_minus(t_co)
        if not (q1 - q2.scale(Fraction(1, 2))).is_zero():
            ok = False
    return {
        "inclusion": "chain",
        "lemma": "normality-transfer",
        "seeds": seeds,
        "dim_solution_space": len(sols),
        "all_exact_zero": ok and len(sols) > 0,
    }


def normality_negative_control(qc, phi1, seed=5) -> dict:
    """A generic g_0-valued cochain with nonzero part1 must fail upstairs."""
    g0 = qc.by_degree[0]
    kappa = random_cochain(qc, 2, seed, value_indices=g0)
    p1, _ = codifferential_minus(kappa)
    tilde = phi1.induce_cochain(kappa)
    q1, q2 = codifferential_minus(tilde)
    failed = not (q1 - q2.scale(Fraction(1, 2))).is_zero()
    return {
        "inclusion": "%s->%s" % (qc.name, phi1.target.name),
        "lemma": "normality-negative-control",
        "counterexample_seed": seed,
        "source_part1_nonzero": not p1.is_zero(),
        "induced_nonclosed": failed,
        "pass": (not p1.is_zero()) and failed,
    }


def _adapted_minus_frame(phi_qc_co: GradedInclusion):
    """phi_-(g_- basis) followed by the fiber directions phi_-(I), phi_-(J), phi_-(K)."""
    qc = phi_qc_co.source
    frame = []
    for i in qc.minus_indices():
        frame.append(phi_qc_co.minus_part({i: _F1}))
    fiber = []
    for unit in ("i", "j", "k"):
        idx = g0_scalar_index(qc, unit)
        v = phi_qc_co.minus_part({idx: _F1})
        frame.append(v)
        fiber.append(v)
    return frame, fiber


def holonomy_sample_space(qc, cr, co, phi1, phi2, phic, with_traces=True):
    """Exact basis of upstairs cochains modelling a reduced normal curvature.

    Constraints: values in phi(g_qc); vanishing when a slot is a fiber
    direction; closed for the upstairs codifferential; and (optionally)
    the three quaternionic trace constraints plus the complex-trace
    constraint of the intermediate algebra.
    """
    from itertools import combinations

    frame, fiber = _adapted_minus_frame(phic)
    qminus = qc.minus_indices()
    nq = len(qminus)
    pair_keys = list(combinations(range(nq), 2))
    values = [phic.apply({i: _F1}) for i in range(qc.dim)]
    # change of basis: express the standard target minus basis in the frame
    tminus = co.minus_indices()
    tpos = {t: p for p, t in enumerate(tminus)}
    frame_rows = []
    for v in frame:
        frame_rows.append({tpos[t]: c for t, c in v.items()})
    inv = []
    for p in range(len(tminus)):
        rhs = [_F1 if q == p else _F0 for q in range(len(tminus))]
        sol = solve_exact(
            [
                {c: frame_rows[c].get(q, _F0) for c in range(len(frame))}
                for q in range(len(tminus))
            ],
            rhs,
            len(frame),
        )
        inv.append(sol)
    # columns: (pair of qc minus positions, value index in g_qc)
    cols = [(key, v) for key in pair_keys for v in range(qc.dim)]

    def column_cochain(key, valv):
        a, b = key
        out = Cochain(co, 2)
        tvec = values[valv]
        for p in range(len(tminus)):
            ca_p = inv[p][a]
            cb_p = inv[p][b]
            for q in range(p + 1, len(tminus)):
                coeff = ca_p * inv[q][b] - inv[p][b] * inv[q][a]
                if coeff:
                    out.add_term(
                        (tminus[p], tminus[q]), {m: coeff * c for m, c in tvec.items()}
                    )
        return out

    col_cochains = [column_cochain(key, v) for key, v in cols]
    rows = {}
    for t, coch in enumerate(col_cochains):
        p1, p2 = codifferential_minus(coch)
        total = p1 - p2.scale(Fraction(1, 2))
        for tkey, tvec in total.coeffs.items():
            for m, c in tvec.items():
                rows.setdefault(("cod", tkey, m), {})[t] = c
        if with_traces:
            for s, unit in enumerate(("i", "j", "k")):
                tr = _qc_trace(qc, phic, coch, unit)
                for m, c in tr.items():
                    rows.setdefault(("qtrace", unit, m), {})[t] = c
            tr = _cr_trace(cr, phi2, coch)
            for m, c in tr.items():
                rows.setdefault(("ctrace", m), {})[t] = c
    sols = kernel_basis(list(rows.values()), len(cols))
    out = []
    for vec in sols:
        coch = Cochain(co, 2)
        for t, c in enumerate(vec):
            if c:
                coch = coch + col_cochains[t].scale(c)
        out.append(coch)
    return out


def quaternion_structure_map(alg, unit):
    """The map e_a -> q * e_a on the degree -1 entry coordinates.

    Entry labels are conjugate to the matrix-form labels, so this is
    right multiplication on the stored entries; it is the complex
    structure the quaternionic trace constraints refer to.
    """
    out = {}
    for a in alg.by_degree[-1]:
        ia = _entry_right_mult(alg, a, unit)
        if ia is not None:
            out[a] = ia
    return out


def _entry_right_mult(alg, idx, unit):
    """(sign, index) with entry(e_idx) * q_unit = sign * entry(e_index)."""
    from .exact import Q_UNITS

    label = alg.labels[idx]
    if not label.startswith("e(") or label[-1] not in "1ijk":
        return None
    base, u = label[:-1], label[-1]
    prod = Q_UNITS[u] * Q_UNITS[unit]
    comp_names = ("1", "i", "j", "k")
    for t, c in enumerate(prod.comps):
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
    tmap = corner_bracket_map(alg, unit)
    c = None
    for a, row in tmap.items():
        r = _entry_right_mult(alg, a, unit)
        if r is None:
            return None
        sgn, idx = r
        expect = {idx: sgn}
        if len(row) != 1 or idx not in row:
            return None
        ratio = row[idx] / sgn
        if c is None:
            c = ratio
        elif c != ratio:
            return None
    return c


def corner_square_constant(alg, unit="i"):
    """lambda with (X -> [corner, dual(X)]_-) squared = lambda * Id, if it holds."""
    tmap = corner_bracket_map(alg, unit)
    lam = None
    for a, row in tmap.items():
        sq = {}
        for i, c in row.items():
            for m, d in tmap.get(i, {}).items():
                sq[m] = sq.get(m, _F0) + c * d
        sq = {m: c for m, c in sq.items() if c}
        if list(sq) != [a]:
            return None
        if lam is None:
            lam = sq[a]
        elif lam != sq[a]:
            return None
    return lam


def _qc_trace(qc, phic, tilde: Cochain, unit):
    """Sum of tilde(phi(e_a . q_s), phi(e_a)) over the real basis of g_-1."""
    out = {}
    for a in qc.by_degree[-1]:
        ia = _entry_right_mult(qc, a, unit)
        if ia is None:
            continue
        sgn, idx = ia
        val = tilde.eval_vectors(
            phic.minus_part({idx: _F1}), phic.minus_part({a: _F1})
        )
        for m, c in val.items():
            s = out.get(m, _F0) + sgn * c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def _cr_trace(cr, phi2, tilde: Cochain):
    """Complex trace of the intermediate picture at its corner element.

    Implemented through the exact bracket map X -> [i, dual(X)]_-, which
    carries the pseudo-unitary signs of the light-cone directions.
    """
    tmap = corner_bracket_map(cr, "i")
    out = {}
    for a, row in tmap.items():
        arg1 = {}
        for i, c in row.items():
            for t, cc in phi2.minus_part({i: _F1}).items():
                s = arg1.get(t, _F0) + c * cc
                if s:
                    arg1[t] = s
                else:
                    arg1.pop(t, None)
        if not arg1:
            continue
        val = tilde.eval_vectors(arg1, phi2.minus_part({a: _F1}))
        for m, c in val.items():
            s = out.get(m, _F0) + c
            if s:
                out[m] = s
            else:
                out.pop(m, None)
    return out


def inverse_normality_check(qc, cr, co, phi1, phi2, phic, seeds=10) -> dict:
    """Downstairs codifferential closure of reduced upstairs cochains."""
    import random as _random

    sols = holonomy_sample_space(qc, cr, co, phi1, phi2, phic, with_traces=True)
    samples = list(sols)
    rng = _random.Random(21)
    for _ in range(seeds):
        if not sols:
            break
        combo = Cochain(co, 2)
        for s in sols:
            combo = combo + s.scale(Fraction(rng.randint(-2, 2)))
        samples.append(combo)
    ok = True
    part1_all_zero = True
    part2_all_zero = True
    for tilde in samples:
        kappa = phic.recover_cochain(tilde)
        p1, p2 = codifferential_minus(kappa)
        if not p1.is_zero():
            part1_all_zero = False
        if not p2.is_zero():
            part2_all_zero = False
        if not (p1 - p2.scale(Fraction(1, 2))).is_zero():
            ok = False
    c_qc = corner_trace_constant(qc, "i")
    c_cr = corner_square_constant(cr, "i")
    return {
        "inclusion": "chain-inverse",
        "lemma": "inverse-normality",
        "seeds": seeds,
        "dim_solution_space": len(sols),
        "part1_all_zero": part1_all_zero,
        "part2_all_zero": part2_all_zero,
        "qc_trace_identity_constant": str(c_qc) if c_qc is not None else None,
        "cr_corner_square_constant": str(c_cr) if c_cr is not None else None,
        "all_exact_zero": ok and part1_all_zero and part2_all_zero and len(sols) > 0,
    }


def inverse_negative_control(qc, cr, co, phi1, phi2, phic) -> dict:
    """Dropping the trace constraints must admit failing samples."""
    sols = holonomy_sample_space(qc, cr, co, phi1, phi2, phic, with_traces=False)
    failing = 0
    for tilde in sols:
        kappa = phic.recover_cochain(tilde)
        _, p2 = codifferential_minus(kappa)
        if not p2.is_zero():
            failing += 1
    return {
        "lemma": "inverse-negative-control",
        "dim_without_traces": len(sols),
        "failing_samples": failing,
        "pass": failing > 0,
    }


# ---------------------------------------------------------------------------
# trace pairings and scaling elements
# ---------------------------------------------------------------------------


def _pairing_form(co: GradedLieAlgebra) -> ExactMatrix:
    """The (1, Q) pairing matrix: the middle-block Witt metric padded by 1s.

    In the conformal splitting R w_0 + R^(m-2) + R w_last the middle
    block carries the signature-(p, q) Witt form; the two light slots
    enter with coefficient 1.
    """
    from .exact import Quaternion

    m, q = co.m, co.q
    ent = {(0, 0): Quaternion(1), (m - 1, m - 1): Quaternion(1)}
    for a in range(1, m - 1):
        ta = m - 1 - a if (a < q or a >= m - q) else a
        ent[(a, ta)] = Quaternion(1)
    return ExactMatrix(m, m, ent)


def trace_pairing(phi_qc_co: GradedInclusion, u, v) -> Fraction:
    """tr((1,Q) phi_-(u) (1,Q) phi_-(v)^t) for source coefficient vectors."""
    co = phi_qc_co.target
    q = _pairing_form(co)
    mu = co.native_of_vec(phi_qc_co.minus_part(u))
    mv = co.native_of_vec(phi_qc_co.minus_part(v))
    t = (q * mu * q * mv.transpose()).trace()
    return t.a


def real_trace_pairing(qc, u, v) -> Fraction:
    """tr_R(x conj(y)^t) = twice the real part of the quaternionic trace."""
    x = qc.native_of_vec(qc.component(u, -1))
    y = qc.native_of_vec(qc.component(v, -1))
    prod = x * y.conj().transpose()
    tr = Fraction(0)
    for (i, j), val in prod.entries.items():
        if i == j and 1 <= i <= qc.m - 2:
            tr += val.a
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
    const = None
    consistent = True
    for i in range(src.dim):
        lhs = src.killing_vec(e_src, {i: _F1})
        rhs = tgt.killing_vec(e_tgt, phi.apply({i: _F1}))
        if lhs == 0 and rhs == 0:
            continue
        if rhs == 0:
            consistent = False
            break
        ratio = lhs / rhs
        if const is None:
            const = ratio
        elif const != ratio:
            consistent = False
            break
    return {
        "lemma": "scaling-compatibility",
        "inclusion": "%s->%s" % (src.name, tgt.name),
        "constant": str(const) if consistent and const is not None else None,
        "pass": consistent and const is not None,
    }


def degree_shuffled_inclusion(phi: GradedInclusion) -> GradedInclusion:
    """Negative control: swap the degree +-1 images (breaks the inclusion laws)."""
    src = phi.source
    img = [dict(phi.img[i]) for i in range(src.dim)]
    for a, b in zip(src.by_degree[-1], src.by_degree[1]):
        img[a], img[b] = img[b], img[a]
    flipped = GradedInclusion.__new__(GradedInclusion)
    flipped.source = src
    flipped.target = phi.target
    flipped.img = img
    flipped.killing_constant = phi.killing_constant
    flipped._span = None
    flipped._induce_data = None
    flipped._proj_data = None
    return flipped
