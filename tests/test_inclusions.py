import random
from fractions import Fraction

import pytest

from qcfeff import inclusions as inc
from qcfeff.cohomology import Cochain, codifferential_minus, codiff_part2_at, random_cochain
from qcfeff.exact import Quaternion
from qcfeff.gradedlie import build_co

F0 = Fraction(0)
F1 = Fraction(1)


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
        cu = Quaternion(u[0], u[1])
        cv = Quaternion(v[0], v[1])
        expect = {
            (2, 0): cu,
            (3, 0): cv,
            (2, 1): -cv.conj(),
            (3, 1): cu.conj(),
            (4, 2): cv,
            (4, 3): -cu,
            (5, 2): -cu.conj(),
            (5, 3): -cv.conj(),
        }
        for pos in [(a, b) for a in range(6) for b in range(6)]:
            assert img.at(*pos) == expect.get(pos, Quaternion()), pos


def test_witt_image_of_minus2(inclusions1):
    qc, cr, _, phi1, _, _ = inclusions1
    rng = random.Random(1)
    for _ in range(5):
        a_im = Fraction(rng.randint(-3, 3))
        b = (Fraction(rng.randint(-3, 3)), Fraction(rng.randint(-3, 3)))
        vec = _qc_minus2_vector(qc, a_im, b)
        img = cr.native_of_vec(phi1.apply(vec))
        ca = Quaternion(0, a_im)
        cb = Quaternion(b[0], b[1])
        expect = {
            (4, 0): cb,
            (4, 1): ca.conj(),
            (5, 0): ca,
            (5, 1): -cb.conj(),
        }
        for pos in [(a, bb) for a in range(6) for bb in range(6)]:
            assert img.at(*pos) == expect.get(pos, Quaternion()), pos


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
    assert not inc.check_structural_conditions(bad)["pass"]


def test_induce_recover_roundtrip(inclusions1):
    qc, _, _, phi1, _, phic = inclusions1
    for seed in range(20):
        kappa = random_cochain(qc, 2, seed, lo=-2, hi=2)
        for phi in (phi1, phic):
            tilde = phi.induce_cochain(kappa)
            assert phi.recover_cochain(tilde) == kappa


def test_induced_vanishes_on_fiber_directions(inclusions1):
    qc, _, _, phi1, _, _ = inclusions1
    kappa = random_cochain(qc, 2, 9)
    tilde = phi1.induce_cochain(kappa)
    for lbl in phi1.complement_labels():
        w = phi1.minus_part({qc.labels.index(lbl): F1})
        for b in phi1.target.minus_indices():
            assert not tilde.eval_vectors(w, {b: F1})


def test_zero_cochain_trivial(inclusions1):
    qc, _, _, phi1, _, _ = inclusions1
    zero = Cochain(qc, 2)
    assert phi1.induce_cochain(zero).is_zero()
    assert inc.del1_identity_check(phi1, zero)["all_exact_zero"]
    assert inc.del2_identity_check(phi1, zero)["all_exact_zero"]


def test_del1_identity(inclusions1):
    qc, cr, _, phi1, phi2, _ = inclusions1
    for seed in range(25):
        assert inc.del1_identity_check(phi1, random_cochain(qc, 2, seed))[
            "all_exact_zero"
        ]
        assert inc.del1_identity_check(phi2, random_cochain(cr, 2, seed, lo=-2, hi=2))[
            "all_exact_zero"
        ]


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


def test_del2_supported_away(inclusions1):
    """Both sides vanish for cochains not reachable from the corner element."""
    qc, _, _, phi1, _, _ = inclusions1
    i_idx = inc._corner_index(qc, "i")
    # kappa supported only on pairs of degree -2 inputs: [i, p_+]_- lies in
    # g_-1, so part 2 at the corner cannot reach it
    keys = [
        (a, b)
        for a in qc.by_degree[-2]
        for b in qc.by_degree[-2]
        if a < b
    ]
    kappa = random_cochain(qc, 2, 3, keys=keys)
    assert not codiff_part2_at(kappa, {i_idx: F1})
    rep = inc.del2_identity_check(phi1, kappa, "i")
    assert rep["all_exact_zero"]


def test_normality_transfer(inclusions1):
    qc, cr, co, phi1, phi2, phic = inclusions1
    rep = inc.normality_transfer_check(qc, cr, co, phi1, phi2, phic, seeds=5)
    assert rep["all_exact_zero"]
    assert rep["dim_solution_space"] > 0


def test_normality_negative_control(inclusions1):
    qc, _, _, phi1, _, _ = inclusions1
    rep = inc.normality_negative_control(qc, phi1)
    assert rep["pass"]


def test_inverse_normality(inclusions1):
    qc, cr, co, phi1, phi2, phic = inclusions1
    rep = inc.inverse_normality_check(qc, cr, co, phi1, phi2, phic, seeds=5)
    assert rep["all_exact_zero"]
    assert rep["part1_all_zero"] and rep["part2_all_zero"]
    assert rep["dim_solution_space"] > 0
    assert rep["qc_trace_identity_constant"] is not None


def test_inverse_negative_control(inclusions1):
    qc, cr, co, phi1, phi2, phic = inclusions1
    rep = inc.inverse_negative_control(qc, cr, co, phi1, phi2, phic)
    assert rep["pass"]
    assert rep["dim_without_traces"] > 0


def test_corner_trace_structure(inclusions1):
    qc, cr, _, _, _, _ = inclusions1
    for unit in ("i", "j", "k"):
        c = inc.corner_trace_constant(qc, unit)
        assert c is not None and c != 0
    lam = inc.corner_square_constant(cr, "i")
    assert lam is not None and lam < 0


def test_trace_pairings(inclusions1):
    qc, _, _, _, _, phic = inclusions1
    rep = inc.trace_pairing_check(qc, phic)
    assert rep["pass"]
    assert set(rep["scalar_pairings"].values()) == {"-2"}


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
    proj = phi1.project_to_image(vec)
    rest = dict(vec)
    for k, c in proj.items():
        rest[k] = rest.get(k, F0) - c
        if not rest[k]:
            del rest[k]
    for im in phi1.img:
        assert cr.killing_vec(im, rest) == 0


def test_projection_degenerate_gram_raises(inclusions1):
    import copy

    qc, cr, _, phi1, _, _ = inclusions1
    broken = copy.copy(phi1)
    broken.img = [dict(phi1.img[0])] + phi1.img[:-1]
    broken._proj_data = None
    with pytest.raises(inc.InclusionError, match="degenerate Gram"):
        broken.project_to_image({0: F1})
