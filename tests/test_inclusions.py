import copy
import hashlib
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracle
from qcfeff import cohomology as coh
from qcfeff import inclusions as inc
from qcfeff.cohomology import random_cochain

F0 = Fraction(0)
F1 = Fraction(1)
_ZERO = (0, 0, 0, 0)


def _qc_minus1_vector(qc, u, v):
    """Coefficients of the g_-1 element with entry u + j v (u, v complex)."""
    ur, ui = u
    vr, vi = v
    base = "e(%d,0)" % 1
    comp = {
        base + "1": ur,
        base + "i": ui,
        base + "j": vr,
        base + "k": -vi,
    }
    return {qc.labels.index(k): c for k, c in comp.items() if c}


def _qc_minus2_vector(qc, a_im, b):
    """Coefficients of the g_-2 element with corner entry a + j b, a = i a_im."""
    br, bi = b
    base = "e(%d,0)" % (qc.m - 1)
    comp = {base + "i": a_im, base + "j": br, base + "k": -bi}
    return {qc.labels.index(k): c for k, c in comp.items() if c}


def test_witt_image_of_minus1(inclusions1):
    """The displayed Witt-basis image matrix of a degree -1 element."""
    qc, cr, _, phi1, _, _ = inclusions1
    rng = random.Random(0)
    for _ in range(5):
        u = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        v = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        vec = _qc_minus1_vector(qc, u, v)
        img = cr.native_of_vec(phi1.apply(vec))
        cu = (u[0], u[1], 0, 0)
        cv = (v[0], v[1], 0, 0)
        expect = {
            (2, 0): cu,
            (3, 0): cv,
            (2, 1): oracle.quat_neg(oracle.quat_conj(cv)),
            (3, 1): oracle.quat_conj(cu),
            (4, 2): cv,
            (4, 3): oracle.quat_neg(cu),
            (5, 2): oracle.quat_neg(oracle.quat_conj(cu)),
            (5, 3): oracle.quat_neg(oracle.quat_conj(cv)),
        }
        for pos in [(a, b) for a in range(6) for b in range(6)]:
            assert img.get(pos, _ZERO) == expect.get(pos, _ZERO), pos


def test_witt_image_of_minus2(inclusions1):
    qc, cr, _, phi1, _, _ = inclusions1
    rng = random.Random(1)
    for _ in range(5):
        a_im = Fraction(rng.randint(-3, 3))
        b = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        vec = _qc_minus2_vector(qc, a_im, b)
        img = cr.native_of_vec(phi1.apply(vec))
        ca = (0, a_im, 0, 0)
        cb = (b[0], b[1], 0, 0)
        expect = {
            (4, 0): cb,
            (4, 1): oracle.quat_conj(ca),
            (5, 0): ca,
            (5, 1): oracle.quat_neg(oracle.quat_conj(cb)),
        }
        for pos in [(a, bb) for a in range(6) for bb in range(6)]:
            assert img.get(pos, _ZERO) == expect.get(pos, _ZERO), pos


def test_corner_degree_splits(inclusions1):
    qc, _, _, phi1, _, _ = inclusions1
    i_idx = inc._corner_index(qc, "i")
    split = phi1.component_split({i_idx: F1})
    assert sorted(split) == [-2, 0]
    for unit in ("j", "k"):
        idx = inc._corner_index(qc, unit)
        assert sorted(phi1.component_split({idx: F1})) == [-1]


def test_pplus_images_nonnegative(inclusions1):
    qc, _, _, phi1, _, phic = inclusions1
    for phi in (phi1, phic):
        for i in qc.plus_indices():
            assert not phi.minus_part({i: F1})


def test_homomorphism_property(inclusions1):
    _, _, _, phi1, phi2, phic = inclusions1
    assert phi1.is_homomorphism()
    assert phi2.is_homomorphism()
    assert phic.is_homomorphism()


@pytest.mark.parametrize("n", [1, 2])
def test_killing_constants(n, inclusions1, inclusions2):
    qc, cr, co, phi1, phi2, phic = inclusions1 if n == 1 else inclusions2
    assert phi1.killing_constant == Fraction(2 * n + 6, 4 * n + 8)
    assert phi2.killing_constant == Fraction(2 * n + 4, 4 * n + 6)
    assert phic.killing_constant == phi1.killing_constant * phi2.killing_constant


def test_composition_coherence(inclusions1):
    qc, _, co, phi1, phi2, phic = inclusions1
    direct = inc.GradedInclusion(qc, co)
    assert all(direct.img[i] == phic.img[i] for i in range(qc.dim))


def test_structural_conditions_pass(inclusions1, inclusions2):
    for fix in (inclusions1, inclusions2):
        _, _, _, phi1, phi2, _ = fix
        assert inc.check_structural_conditions(phi1)["pass"]
        assert inc.check_structural_conditions(phi2)["pass"]


def test_structural_negative_control(inclusions1):
    _, _, _, phi1, _, _ = inclusions1
    bad = inc.degree_shuffled_inclusion(phi1)
    assert not bad.is_homomorphism()
    assert not inc.check_structural_conditions(bad)["pass"]
    assert bad.killing_constant == phi1.killing_constant
    given = inc.GradedInclusion(phi1.source, phi1.target, phi1.img, killing_constant=Fraction(5))
    assert given.killing_constant == 5  # taken as given, not solved for


def test_induce_recover_roundtrip(inclusions1):
    qc, _, _, phi1, _, phic = inclusions1
    for seed in range(20):
        kappa = oracle.draw(qc, 2, seed, lo=-2, hi=2)
        for phi in (phi1, phic):
            tilde = oracle.induce_cochain(phi, kappa)
            assert oracle.equal(oracle.recover_cochain(phi, tilde), kappa)


def test_induced_vanishes_on_fiber_directions(inclusions1):
    qc, _, _, phi1, _, _ = inclusions1
    kappa = oracle.draw(qc, 2, 9)
    tilde = oracle.induce_cochain(phi1, kappa)
    for lbl in phi1.complement_labels():
        w = phi1.minus_part({qc.labels.index(lbl): F1})
        for b in phi1.target.minus_indices():
            assert not oracle.eval_vectors(tilde, w, {b: F1})


def test_zero_cochain_trivial(inclusions1):
    qc, _, _, phi1, _, _ = inclusions1
    assert oracle.induce_cochain(phi1, oracle.Cochain(qc, 2)).is_zero()
    assert inc.del1_identity_check(phi1, {})["all_exact_zero"]
    assert inc.del2_identity_check(phi1, {})["all_exact_zero"]


def test_del1_identity(inclusions1):
    qc, cr, _, phi1, phi2, _ = inclusions1
    for seed in range(25):
        assert inc.del1_identity_check(phi1, random_cochain(qc, 2, seed))[
            "all_exact_zero"
        ]
        assert inc.del1_identity_check(phi2, random_cochain(cr, 2, seed, lo=-2, hi=2))[
            "all_exact_zero"
        ]


def test_del1_fails_for_wrong_killing_constant(inclusions1):
    qc, cr, _, phi1, _, _ = inclusions1
    kappa = random_cochain(qc, 2, 3, lo=-2, hi=2)
    assert inc.del1_identity_check(phi1, kappa)["all_exact_zero"]
    doubled = inc.GradedInclusion(qc, cr, phi1.img)
    doubled.killing_constant = 2 * phi1.killing_constant
    assert not inc.del1_identity_check(doubled, kappa)["all_exact_zero"]


def test_part1_is_the_dual_basis_sum(inclusions1):
    """Part 1 at e_x is the sum over m of [kappa(e_x, e_m), e^m], in both the
    oracle and the integer tables (there times c_scale and the cochain's scale);
    the integer part 2, which the cohomology report's bracket-tensor flag reads,
    is the oracle's part 2 times the same factor."""
    qc, _, _, phi1, _, _ = inclusions1
    kappa = oracle.draw(qc, 2, 3, lo=-2, hi=2)
    for k in (kappa, oracle.induce_cochain(phi1, kappa)):
        alg = k.alg
        minus, duals = alg.dual_basis()
        part1 = oracle.part1(k)
        scale, coeffs = oracle.integer_coeffs(k)
        ints = coh._part1_ints(alg, coeffs)
        factor = scale * coh._tables(alg).ints.c_scale
        for x in minus:
            expect = {}
            for m, dual in zip(minus, duals):
                value = oracle.eval_vectors(k, {x: F1}, {m: F1})
                for l, c in alg.bracket_vec(value, dual).items():
                    expect[l] = expect.get(l, F0) + c
            expect = {l: c for l, c in expect.items() if c}
            assert part1.coeffs.get((x,), {}) == expect
            assert ints.get(x, {}) == {l: factor * c for l, c in expect.items()}
        part2 = oracle.part2(k)
        assert not part2.is_zero()
        assert coh._part2_ints(alg, coeffs) == {
            x: {l: factor * c for l, c in vec.items()} for (x,), vec in part2.coeffs.items()
        }


def test_del2_identity(inclusions1):
    qc, _, _, phi1, _, _ = inclusions1
    for seed in range(25):
        assert inc.del2_identity_check(phi1, random_cochain(qc, 2, seed), "i")[
            "all_exact_zero"
        ]


def test_del_identities_n2(inclusions2):
    qc, cr, _, phi1, phi2, _ = inclusions2
    for seed in range(3):
        assert inc.del1_identity_check(phi1, random_cochain(qc, 2, seed, lo=-1, hi=1))[
            "all_exact_zero"
        ]
        assert inc.del1_identity_check(phi2, random_cochain(cr, 2, seed, lo=-1, hi=1))[
            "all_exact_zero"
        ]
        assert inc.del2_identity_check(phi1, random_cochain(qc, 2, seed, lo=-1, hi=1))[
            "all_exact_zero"
        ]


def test_del2_fails_for_wrong_killing_constant(inclusions1):
    qc, cr, _, phi1, _, _ = inclusions1
    kappa = random_cochain(qc, 2, 3, lo=-2, hi=2)
    assert inc.del2_identity_check(phi1, kappa)["all_exact_zero"]
    doubled = inc.GradedInclusion(qc, cr, phi1.img)
    doubled.killing_constant = 2 * phi1.killing_constant
    assert not inc.del2_identity_check(doubled, kappa)["all_exact_zero"]


def test_del2_supported_away(inclusions1):
    """Both sides vanish for cochains not reachable from the corner element."""
    qc, _, _, phi1, _, _ = inclusions1
    i_idx = inc._corner_index(qc, "i")
    # kappa supported only on pairs of degree -2 inputs: [i, p_+]_- lies in
    # g_-1, so part 2 at the corner cannot reach it
    kappa = {
        key: vec
        for key, vec in random_cochain(qc, 2, 3).items()
        if all(qc.degrees[x] == -2 for x in key)
    }
    assert len(kappa) == 3
    assert not oracle.codiff_part2_at(oracle.Cochain(qc, 2, kappa), {i_idx: F1})
    rep = inc.del2_identity_check(phi1, kappa, "i")
    assert rep["all_exact_zero"]


def test_normality_transfer(inclusions1):
    qc, _, _, phi1, _, phic = inclusions1
    rep = inc.normality_transfer_check(qc, phi1, phic)
    assert rep["all_exact_zero"]
    assert rep["dim_solution_space"] > 0


def test_normality_negative_control(inclusions1):
    qc, _, _, phi1, _, _ = inclusions1
    rep = inc.normality_negative_control(qc, phi1)
    assert rep["pass"]


def test_inverse_normality(inclusions1):
    qc, cr, co, _, phi2, phic = inclusions1
    rep = inc.inverse_normality_check(qc, cr, co, phi2, phic)
    assert rep["all_exact_zero"]
    assert rep["part1_all_zero"] and rep["part2_all_zero"]
    assert rep["dim_solution_space"] > 0
    assert rep["qc_trace_identity_constant"] is not None


def test_solution_space_checks_certify_on_their_basis(inclusions1, monkeypatch):
    """Each solution-space check runs on its basis once, with no sampled combinations."""
    qc, cr, co, phi1, phi2, phic = inclusions1
    read = inc._solution_coeffs
    calls = []

    def counting_read(cols, vec):
        calls.append(None)
        return read(cols, vec)

    monkeypatch.setattr(inc, "_solution_coeffs", counting_read)
    it = inc.inverse_normality_check(qc, cr, co, phi2, phic)
    assert it["all_exact_zero"]
    assert len(calls) == it["dim_solution_space"] == 161
    nt = inc.normality_transfer_check(qc, phi1, phic)
    for rep in (nt, it):
        assert rep["certificate"] == "basis"
        assert "seeds" not in rep


def test_inverse_normality_holds_on_rational_combinations(inclusions1):
    """A rational combination of holonomy solutions recovers to a closed cochain.

    This is the linearity that lets inverse_normality_check certify the
    solution space on its basis alone.
    """
    qc, cr, co, _, phi2, phic = inclusions1
    sols = oracle.holonomy_sample_space(qc, cr, co, phi2, phic, with_traces=True)
    rng = random.Random(21)
    tilde = oracle.Cochain(co, 2)
    for sol in rng.sample(sols, 3):
        r = Fraction(rng.choice((-7, -2, 1, 3, 5)), rng.randint(2, 6))
        for key, vec in sol.coeffs.items():
            tilde.add_term(key, vec, r)
    kappa = oracle.recover_cochain(phic, tilde)
    assert not kappa.is_zero()
    p1, p2 = oracle.codifferential_minus(kappa)
    assert p1.is_zero() and p2.is_zero()


def test_holonomy_traces_build_their_arguments_once(inclusions1, monkeypatch):
    """The trace arguments are fixed data: built once per call, not once per column."""
    qc, cr, co, _, phi2, phic = inclusions1
    calls = {"corner": 0, "right_mult": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    monkeypatch.setattr(inc, "corner_bracket_map", counted("corner", inc.corner_bracket_map))
    monkeypatch.setattr(inc, "_entry_right_mult", counted("right_mult", inc._entry_right_mult))
    sols = inc._holonomy_solutions(qc, cr, co, phi2, phic, with_traces=True)
    assert sols
    assert calls["corner"] <= 1
    assert calls["right_mult"] <= 3 * len(qc.by_degree[-1])


@pytest.mark.parametrize("n", [1, 2])
def test_induction_complement_is_the_fiber(n, inclusions1, inclusions2):
    """The holonomy columns are induced cochains only when the complement is I, J, K."""
    phic = (inclusions1 if n == 1 else inclusions2)[5]
    assert phic.complement_labels() == ["d(0)i", "d(0)j", "d(0)k"]


def test_holonomy_solutions_recover_to_their_coefficients(inclusions1):
    """Each upstairs holonomy solution induces from, and recovers to, its downstairs
    coefficients; the integer induction is the rational one times xi_den^2 den."""
    qc, cr, co, _, phi2, phic = inclusions1
    data = phic._transfer()
    den = data.xi_den ** 2 * data.den
    for traces in (True, False):
        downstairs = inc._holonomy_solutions(qc, cr, co, phi2, phic, with_traces=traces)
        assert downstairs
        for coeffs in downstairs:
            kappa = oracle.Cochain(qc, 2, coeffs)
            tilde = oracle.induce_cochain(phic, kappa)
            assert oracle.equal(oracle.recover_cochain(phic, tilde), kappa)
            assert inc._induce_ints(data, coeffs) == {
                key: {m: c * den for m, c in vec.items()} for key, vec in tilde.coeffs.items()
            }


def _cochain_digest(cochains):
    """SHA-256 over every (key, value index, coefficient) of a list of cochains."""
    h = hashlib.sha256()
    for coch in cochains:
        for key in sorted(coch.coeffs):
            vec = coch.coeffs[key]
            for m in sorted(vec):
                h.update(("%s %s %s;" % (key, m, vec[m])).encode())
        h.update(b"|")
    return h.hexdigest()


# taken from the per-cochain construction (one Cochain per column through
# the oracle's codifferential_minus / codifferential and the traces' eval_vectors)
_SOLUTION_DIGESTS = {
    "normal_torsionfree": "4bf860b6e345962bcbfa142e366bf0831a863c79bc32a20436a2e86dd6a91ae6",
    "holonomy_traces": "c4463f2579014402c84c351b736ba2a1b1e4acb8146bd3dba638b1aa4084e219",
    "holonomy_no_traces": "30b70edef63da72f7afc88d7265f910c652624736e51c3b3a10d4b3fb87dae9a",
}


def test_solution_spaces_pinned(inclusions1):
    """The integer rows give the same solution cochains as the per-cochain rows."""
    qc, cr, co, _, phi2, phic = inclusions1
    sols, _ = oracle.normal_torsionfree_space(qc, phic)
    assert len(sols) == 161
    assert _cochain_digest(sols) == _SOLUTION_DIGESTS["normal_torsionfree"]
    for traces, tag, dim in ((True, "holonomy_traces", 161), (False, "holonomy_no_traces", 182)):
        sols = oracle.holonomy_sample_space(qc, cr, co, phi2, phic, with_traces=traces)
        assert len(sols) == dim
        assert _cochain_digest(sols) == _SOLUTION_DIGESTS[tag]


def _fraction_cochain(alg, rng):
    """A C^2 cochain on a few random pairs; every entry p/q has q in 2..6."""
    out = oracle.Cochain(alg, 2)
    pairs = list(combinations(alg.minus_indices(), 2))
    for key in rng.sample(pairs, rng.randint(1, 6)):
        vec = {
            m: Fraction(rng.choice((-7, -1, 1, 7)), rng.randint(2, 6))
            for m in rng.sample(range(alg.dim), 4)
        }
        out.add_term(key, vec)
    return out


def _del1_oracle(phi, kappa):
    """The first transfer identity through the per-cochain Fraction operators."""
    tilde = oracle.induce_cochain(phi, kappa)
    c = phi.killing_constant
    part1 = oracle.part1(kappa).coeffs
    tilde_part1 = oracle.part1(tilde).coeffs
    for x in phi.source.minus_indices():
        lhs = {k: c * v for k, v in phi.apply(part1.get((x,), {})).items()}
        at_image = {}
        for t, a in phi.minus_part({x: F1}).items():
            for k, v in tilde_part1.get((t,), {}).items():
                at_image[k] = at_image.get(k, F0) + a * v
        if lhs != oracle.project_to_image(phi, {k: v for k, v in at_image.items() if v}):
            return False
    return True


def _del2_oracle(phi, kappa, unit="i"):
    xi_idx = inc._corner_index(phi.source, unit)
    tilde = oracle.induce_cochain(phi, kappa)
    c = phi.killing_constant
    lhs = {
        k: 2 * c * v
        for k, v in phi.apply(oracle.codiff_part2_at(kappa, {xi_idx: F1})).items()
    }
    mid = oracle.codiff_part2_at(tilde, phi.apply({xi_idx: F1}))
    rhs = oracle.codiff_part2_at(tilde, phi.component_split({xi_idx: F1}).get(-2, {}))
    return lhs == mid == rhs


def _closed_oracle(phi, kappa):
    return oracle.codifferential(oracle.induce_cochain(phi, kappa)).is_zero()


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    factor=st.sampled_from([F1, Fraction(2), Fraction(-1, 3)]),
    perturb=st.booleans(),
)
def test_integer_transfer_checks_match_fraction_oracle(inclusions1, seed, factor, perturb):
    """del1, del2 and the normality closure give the Fraction oracle's verdict.

    The cochains have entries with non-unit denominators; a Killing
    constant scaled by factor != 1 makes the del identities fail, and
    closed cochains (combinations of the normal solution space and their
    induced images) make the closure test pass unless perturbed.
    """
    qc, cr, _, phi1, phi2, phic = inclusions1
    rng = random.Random(seed)
    for phi in (phi1, phi2):
        scaled = copy.copy(phi)
        scaled.killing_constant = factor * phi.killing_constant
        kappa = _fraction_cochain(phi.source, rng)
        scale, coeffs = oracle.integer_coeffs(kappa)
        assert scale > 1
        data = phi._transfer()
        tilde = inc._induce_ints(data, coeffs)
        den = scale * data.xi_den ** 2 * data.den
        assert tilde == {
            k: {m: c * den for m, c in v.items()}
            for k, v in oracle.induce_cochain(phi, kappa).coeffs.items()
        }
        verdict = inc.del1_identity_check(scaled, coeffs)["all_exact_zero"]
        assert verdict == _del1_oracle(scaled, kappa)
        assert verdict == (factor == 1 or not oracle.part1(kappa).coeffs)
        if phi is phi1:
            assert inc.del2_identity_check(scaled, coeffs)["all_exact_zero"] == _del2_oracle(scaled, kappa)
    sols, _ = oracle.normal_torsionfree_space(qc, phic)
    kappa = oracle.Cochain(qc, 2)
    for sol in rng.sample(sols, 3):
        for key, vec in sol.coeffs.items():
            kappa.add_term(key, vec, Fraction(rng.randint(-3, 3), rng.randint(1, 6)))
    if perturb:
        kappa = oracle.add(kappa, _fraction_cochain(qc, rng))
    for phi, source in ((phi1, kappa), (phic, kappa), (phi2, oracle.induce_cochain(phi1, kappa))):
        _, coeffs = oracle.integer_coeffs(source)
        assert inc._induced_closed(phi, coeffs) == _closed_oracle(phi, source)


def test_seeded_del_checks_stay_in_integers(inclusions1):
    """The del1, del2 and solution-space checks have no per-cochain Fraction operator to run.

    Rational cochains, the per-cochain operators on them and the composed
    Laplacian live only in the tests' oracle, so the package defines none
    of them; the checks then pass on integers alone.
    """
    qc, cr, co, phi1, phi2, phic = inclusions1
    for module in (coh, inc):
        for name in ("Cochain", "_integer_coeffs", "differential", "codifferential",
                     "codifferential_minus", "codifferential_wedge", "_part1",
                     "codiff_part2_at", "bracket_tensor_id", "laplacian_block",
                     "_laplacian_rows"):
            assert not hasattr(module, name), (module.__name__, name)
    for name in ("induce_cochain", "recover_cochain", "preimage", "project_to_image"):
        assert not hasattr(inc.GradedInclusion, name), name
    fresh = inc.GradedInclusion(qc, cr, phi1.img)  # its tables are built inside the checks
    kappa = random_cochain(qc, 2, 3, lo=-2, hi=2)
    assert inc.del1_identity_check(fresh, kappa)["all_exact_zero"]
    assert inc.del2_identity_check(fresh, kappa)["all_exact_zero"]
    assert inc.normality_transfer_check(qc, phi1, phic)["all_exact_zero"]
    assert inc.inverse_normality_check(qc, cr, co, phi2, phic)["all_exact_zero"]
    assert inc.inverse_negative_control(qc, cr, co, phi2, phic)["pass"]


def test_shuffled_inclusion_rebuilds_every_cache(inclusions1):
    """The shuffled copy starts from the same empty caches as a new inclusion."""
    _, _, _, phi1, _, _ = inclusions1
    phi1._transfer()
    bad = inc.degree_shuffled_inclusion(phi1)
    fresh = inc.GradedInclusion(phi1.source, phi1.target, phi1.img)
    cached = [k for k in vars(fresh) if k.startswith("_")]
    assert cached and all(getattr(bad, k) is None for k in cached)


def test_inverse_negative_control(inclusions1):
    qc, cr, co, _, phi2, phic = inclusions1
    rep = inc.inverse_negative_control(qc, cr, co, phi2, phic)
    assert rep["pass"]
    assert rep["dim_without_traces"] > 0


def test_corner_trace_structure(inclusions1):
    qc, cr, _, _, _, _ = inclusions1
    for unit in ("i", "j", "k"):
        c = inc.corner_trace_constant(qc, unit)
        assert c is not None and c != 0
    lam = inc.corner_square_constant(cr, "i")
    assert lam is not None and lam < 0


@pytest.mark.parametrize("fixture", ["inclusions1", "inclusions2"])
def test_exact_data_holds_no_float(fixture, request):
    """Integer data divided with / would turn float; every exact value is int or Fraction."""
    qc, cr, co, phi1, phi2, phic = request.getfixturevalue(fixture)
    values = [phi.killing_constant for phi in (phi1, phi2, phic)]
    values += [inc.corner_trace_constant(qc, unit) for unit in ("i", "j", "k")]
    for alg in (qc, cr, co):
        values += [v for row in alg.killing for v in row]
        values += [c for row in alg._bracket_table.values() for c in row.values()]
    assert {type(v) for v in values} <= {int, Fraction}


def test_trace_pairings(inclusions1):
    qc, _, _, _, _, phic = inclusions1
    rep = inc.trace_pairing_check(qc, phic)
    assert rep["pass"]
    assert set(rep["scalar_pairings"].values()) == {"-2"}


def _product_trace_pairing(phic, u, v):
    """tr((1,Q) phi_-(u) (1,Q) phi_-(v)^t) by matrix products, Q the Witt form."""
    co = phic.target
    m, q = co.m, co.q
    one = (1, 0, 0, 0)
    form = {(0, 0): one, (m - 1, m - 1): one}
    for a in range(1, m - 1):
        form[(a, m - 1 - a if (a < q or a >= m - q) else a)] = one
    mu = co.native_of_vec(phic.minus_part(u))
    mv = co.native_of_vec(phic.minus_part(v))
    mm = oracle.matmul
    return oracle.trace(mm(mm(mm(form, mu, m), form, m), oracle.transpose(mv), m))[0]


def _product_real_trace_pairing(qc, u, v):
    """tr_R(x conj(y)^t) over rows 1..m-2, by a matrix product."""
    x = qc.native_of_vec(qc.component(u, -1))
    y = qc.native_of_vec(qc.component(v, -1))
    prod = oracle.matmul(x, oracle.transpose(oracle.conj(y)), qc.m)
    return 2 * sum(val[0] for (i, j), val in prod.items() if i == j and 1 <= i <= qc.m - 2)


@pytest.mark.parametrize("n", [1, 2])
def test_trace_pairings_match_the_product_formula(n, inclusions1, inclusions2):
    """Both pairings equal their matrix-product definitions on every pair of
    basis elements of degree at most 0."""
    qc, _, _, _, _, phic = inclusions1 if n == 1 else inclusions2
    low = [i for i in range(qc.dim) if qc.degrees[i] <= 0]
    assert len(low) ** 2 == {1: 196, 2: 625}[n]
    for a in low:
        for b in low:
            u, v = {a: F1}, {b: F1}
            assert inc.trace_pairing(phic, u, v) == _product_trace_pairing(phic, u, v)
            assert inc.real_trace_pairing(qc, u, v) == _product_real_trace_pairing(qc, u, v)


def test_scaling_compatibility(inclusions1):
    _, _, _, phi1, phi2, _ = inclusions1
    r1 = inc.scaling_compat_check(phi1)
    r2 = inc.scaling_compat_check(phi2)
    assert r1["pass"] and r2["pass"]
    assert r1["constant"] is not None
    bad = inc.scaling_compat_check(phi1, wrong_element=True)
    assert not bad["pass"]


def test_scaling_vanishes_on_minus_one(inclusions1):
    qc, cr, _, phi1, _, _ = inclusions1
    e_src = qc.grading_element
    e_tgt = cr.grading_element
    for i in qc.by_degree[-1]:
        assert qc.killing_vec(e_src, {i: F1}) == 0
        assert cr.killing_vec(e_tgt, phi1.apply({i: F1})) == 0


def test_projection_is_killing_orthogonal(inclusions1):
    qc, cr, _, phi1, _, _ = inclusions1
    rng = random.Random(7)
    vec = {i: Fraction(rng.randint(-3, 3)) for i in range(cr.dim)}
    proj = oracle.project_to_image(phi1, vec)
    rest = dict(vec)
    for k, c in proj.items():
        rest[k] = rest.get(k, F0) - c
        if not rest[k]:
            del rest[k]
    for im in phi1.img:
        assert cr.killing_vec(im, rest) == 0


def test_projection_degenerate_gram_raises(inclusions1):
    qc, cr, _, phi1, _, _ = inclusions1
    phi1._induction()
    broken = copy.copy(phi1)  # keeps the induction data of the valid image
    broken.img = [dict(phi1.img[0])] + phi1.img[:-1]
    broken._proj_data = broken._transfer_data = None
    with pytest.raises(inc.InclusionError, match="degenerate Gram"):
        broken._transfer()
