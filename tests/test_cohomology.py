import hashlib
from collections import Counter
from fractions import Fraction

import pytest

from oracle import (
    Cochain,
    add,
    codifferential,
    codifferential_minus,
    codifferential_wedge,
    differential,
    draw,
    equal,
    homogeneity_split,
    laplacian_rows,
    part2,
)
from qcfeff import cohomology as coh
from qcfeff.cohomology import (
    contained_in_wedge_g0,
    harmonic_space,
    hodge_check,
    random_cochain,
)
from qcfeff.exact import kernel_basis

F1 = Fraction(1)


def test_differential_squares_to_zero(chain1):
    for alg in chain1:
        for seed in range(7):
            phi = draw(alg, 1, seed, lo=-2, hi=2)
            assert differential(differential(phi)).is_zero()


def test_degree_zero_differential_sign(chain1):
    qc, _, _ = chain1
    e = Cochain(qc, 0, {(): qc.grading_element})
    de = differential(e)
    for (x,), vec in de.coeffs.items():
        assert vec == {x: Fraction(-qc.degrees[x])}


def test_codifferential_squares_to_zero(chain1):
    for alg in chain1:
        for seed in range(5):
            phi3 = draw(alg, 3, seed, lo=-1, hi=1)
            assert codifferential_wedge(codifferential_wedge(phi3)).is_zero()
            phi2 = draw(alg, 2, seed, lo=-2, hi=2)
            assert codifferential_wedge(codifferential_wedge(phi2)).is_zero()


def test_cross_oracle_agreement(chain1):
    """The dual-basis formula and the wedge-picture boundary agree exactly."""
    for alg in chain1:
        for seed in range(50):
            phi = draw(alg, 2, seed, lo=-2, hi=2)
            p1, p2 = codifferential_minus(phi)
            assert equal(add(p1, p2, Fraction(-1, 2)), codifferential_wedge(phi))


def test_cross_oracle_n2(chain2):
    for alg in chain2:
        for seed in range(3):
            phi = draw(alg, 2, seed, lo=-1, hi=1)
            assert equal(codifferential(phi), codifferential_wedge(phi))


def test_complexes_square_to_zero_n2(chain2):
    for alg in chain2:
        phi1 = draw(alg, 1, 0, lo=-1, hi=1)
        assert differential(differential(phi1)).is_zero()
        phi2 = draw(alg, 2, 0, lo=-1, hi=1)
        assert codifferential_wedge(codifferential_wedge(phi2)).is_zero()
        phi3 = draw(alg, 3, 0, lo=-1, hi=1)
        assert codifferential_wedge(codifferential_wedge(phi3)).is_zero()


def test_part2_vanishes_for_one_graded(chain1):
    _, _, co = chain1
    for seed in range(5):
        phi = draw(co, 2, seed, lo=-2, hi=2)
        _, p2 = codifferential_minus(phi)
        assert p2.is_zero()


def test_homogeneity_preserved(chain1):
    qc, _, _ = chain1
    for seed in range(5):
        phi = draw(qc, 2, seed)
        for l, part in homogeneity_split(phi).items():
            img = differential(part)
            assert set(homogeneity_split(img)) <= {l}
            cod = codifferential_wedge(part)
            assert set(homogeneity_split(cod)) <= {l}


def test_homogeneity_recomposition(chain1):
    qc, _, _ = chain1
    phi = draw(qc, 2, 11)
    parts = homogeneity_split(phi)
    acc = Cochain(qc, 2)
    for part in parts.values():
        acc = add(acc, part)
    assert equal(acc, phi)


def test_h1_vanishes_for_nonnegative_homogeneity(chain1):
    qc, _, _ = chain1
    for l in coh.homogeneity_range(qc, 1):
        dim, _, _ = harmonic_space(qc, 1, l)
        if l >= 0:
            assert dim == 0


def test_h2_structure_n1(chain1):
    qc, _, _ = chain1
    dim1, _, _ = harmonic_space(qc, 2, 1)
    assert dim1 > 0
    dim2, basis2, _ = harmonic_space(qc, 2, 2)
    assert dim2 > 0
    assert all(contained_in_wedge_g0(qc, c) for c in basis2)
    assert all(part2(Cochain(qc, 2, c)).is_zero() for c in basis2)


def test_hodge_degree1_dimension(chain1):
    qc, _, co = chain1
    rep = hodge_check(qc, 1)
    assert rep["pass"] and rep["dim_total"] == 7 * 21 == 147
    rep2 = hodge_check(co, 1)
    assert rep2["pass"] and rep2["dim_total"] == 10 * 66


def test_hodge_degree2_qc(chain1):
    qc, _, _ = chain1
    rep = hodge_check(qc, 2)
    assert rep["pass"]


def test_hodge_pass_returns_the_harmonic_dimensions(chain1, chain2):
    """The Hodge pass reads each block's harmonic dimension, in
    homogeneity_range order, as harmonic_space does."""
    qc1, _, co = chain1
    for alg, n in ((qc1, 1), (qc1, 2), (chain2[0], 1), (co, 1)):
        got = list(hodge_check(alg, n)["harmonic"].items())
        assert got == [(l, harmonic_space(alg, n, l)[0]) for l in coh.homogeneity_range(alg, n)]


def test_hodge_pass_refuses_a_sum_that_is_not_direct(chain1, monkeypatch):
    """im d = <e0>, ker box = <e1>, im d* = <e0 + e1, e3, ...> on one block:
    the ranks add up to the block dimension and every two of the spans are
    independent, but together they miss e2, so the block must fail."""
    qc, _, _ = chain1
    l = max(coh.homogeneity_range(qc, 1), key=lambda l: len(coh.block_basis(qc, 1, l)))
    src = coh.block_basis(qc, 1, l)
    dim = len(src)
    im_del = [{0: 1}]
    hvecs = [{1: 1}]
    im_cod = [{0: 1, 1: 1}] + [{t: 1} for t in range(3, dim)]
    spans = (im_del, hvecs, im_cod)
    rank = coh._rank_of_vectors
    assert sum(len(s) for s in spans) == dim
    for i in range(3):
        for j in range(i + 1, 3):
            assert rank(spans[i] + spans[j], dim) == len(spans[i]) + len(spans[j])
    assert rank(im_del + hvecs + im_cod, dim) == dim - 1

    harmonic_vectors, operators_into = coh._harmonic_vectors, coh._operators_into
    monkeypatch.setattr(
        coh, "_harmonic_vectors", lambda blk: hvecs if blk.src == src else harmonic_vectors(blk)
    )
    monkeypatch.setattr(
        coh,
        "_operators_into",
        lambda alg, n, blk: (im_del, im_cod) if blk.src == src else operators_into(alg, n, blk),
    )
    rep = hodge_check(qc, 1)
    assert rep["pass"] is False
    assert rep["harmonic"][l] == 1


@pytest.mark.parametrize("n", [1, 3])
def test_cohomology_suite_solves_each_degree1_block_once(n, monkeypatch):
    """The H^1 table comes from the Hodge pass: one harmonic solve per block."""
    from qcfeff.cli import suite_cohomology
    from qcfeff.gradedlie import build_qc

    block_of, solves = {}, Counter()
    block_operators, harmonic_vectors = coh._block_operators, coh._harmonic_vectors

    def recording_block_operators(alg, deg, l):
        blk = block_operators(alg, deg, l)
        block_of[id(blk)] = (alg.name, deg, l, blk)
        return blk

    def counting_harmonic_vectors(blk):
        solves[block_of[id(blk)][:3]] += 1
        return harmonic_vectors(blk)

    monkeypatch.setattr(coh, "_block_operators", recording_block_operators)
    monkeypatch.setattr(coh, "_harmonic_vectors", counting_harmonic_vectors)
    _, ok = suite_cohomology(n)
    assert ok
    qc = build_qc(n)
    got = {key: c for key, c in solves.items() if key[:2] == (qc.name, 1)}
    assert got == {(qc.name, 1, l): 1 for l in coh.homogeneity_range(qc, 1)}


def _block_coords(coeffs, basis):
    index = {km: t for t, km in enumerate(basis)}
    return {index[(key, m)]: c for key, vec in coeffs.items() for m, c in vec.items()}


def _assert_laplacian_kernel(alg, n, l):
    """harmonic_space, the kernel of the stacked d and d* columns, equals the
    kernel of the oracle's composed Laplacian vector for vector; returns its dim."""
    dim, basis, src = harmonic_space(alg, n, l)
    rows, lap_src = laplacian_rows(alg, n, l)
    assert lap_src == src
    assert [_block_coords(c, src) for c in basis] == kernel_basis(rows, len(src))
    for c in basis:
        assert differential(Cochain(alg, n, c)).is_zero()
        assert codifferential_wedge(Cochain(alg, n, c)).is_zero()
    return dim


def test_kernel_equality_qc(chain1, chain2):
    """ker(box) = ker(del) cap ker(cod) as exact subspaces, on every block of
    degree 1 and 2 of qc(1) and qc(2)."""
    for qc in (chain1[0], chain2[0]):
        for n in (1, 2):
            for l in coh.homogeneity_range(qc, n):
                _assert_laplacian_kernel(qc, n, l)


def test_kernel_equality_co_degree2_block(chain1):
    _, _, co = chain1
    # small homogeneity blocks of the conformal algebra, exact equality
    for l in (1, 3):
        _assert_laplacian_kernel(co, 2, l)


def test_kernel_equality_co_degree2_main_block(chain1):
    """The kernel equality on the large conformal block."""
    _, _, co = chain1
    dim = _assert_laplacian_kernel(co, 2, 2)
    # the harmonic block is the Weyl-tensor module of a 10-dimensional space
    m = len(co.minus_indices())
    assert dim == (m + 2) * (m + 1) * m * (m - 3) // 12


def test_block_operators_match_per_cochain_operators(chain1):
    """Each assembled integer column is its operator's scale times the image
    of the basis cochain under differential or codifferential_wedge."""
    qc, _, co = chain1
    for alg, degrees in ((qc, (1, 2)), (co, (1,))):
        ints = coh._tables(alg).ints
        for n in degrees:
            for l in coh.homogeneity_range(alg, n):
                blk = coh._block_operators(alg, n, l)
                d_down, c_up = coh._operators_into(alg, n, blk)
                for op, factor, deg, basis, target, cols in (
                    (differential, ints.d_scale, n - 1, blk.down, blk.src, d_down),
                    (codifferential_wedge, ints.c_scale, n, blk.src, blk.down, blk.c_src),
                    (differential, ints.d_scale, n, blk.src, blk.up, blk.d_src),
                    (codifferential_wedge, ints.c_scale, n + 1, blk.up, blk.src, c_up),
                ):
                    assert len(cols) == len(basis)
                    for (key, m), col in zip(basis, cols):
                        assert all(type(v) is int for v in col.values())
                        img = op(Cochain(alg, deg, {key: {m: F1}}))
                        expect = _block_coords(img.coeffs, target)
                        assert col == {t: factor * c for t, c in expect.items()}


def test_harmonic_bases_pinned(chain1):
    """Every harmonic basis vector of qc(1) in degrees 1 and 2, hashed.

    The digests were taken when the Laplacian was still composed in
    Fraction arithmetic; the kernel of the stacked integer d and d*
    columns reproduces it bit for bit.
    """
    qc, _, _ = chain1
    digests = {
        1: "3b37812445c453c8f5c0ce5b341b7de1c011d4d32b8f77827acfb9b1f91d3905",
        2: "2a75c2a7e2256c53a948039e0d39a72a10c9b43e5ca8c142e1f2bfeffb781560",
    }
    for n, digest in digests.items():
        assert _harmonic_digest(qc, n) == digest


def test_harmonic_bases_pinned_qc2(chain2):
    """Every degree-2 harmonic basis vector of qc(2), every homogeneity
    block, hashed.

    The digest was taken when the elimination still ran on dense rows;
    the zero-free dict rows reproduce it bit for bit.
    """
    qc, _, _ = chain2
    digest = "1f04c76b42476328460e173c140d049110d53e63f5c19d2d2c7cabe194014143"
    assert _harmonic_digest(qc, 2) == digest


def _harmonic_digest(alg, n):
    """SHA-256 of the harmonic bases of degree n, block by block, as coordinates."""
    h = hashlib.sha256()
    for l in coh.homogeneity_range(alg, n):
        _, basis, src = harmonic_space(alg, n, l)
        for c in basis:
            coords = [str(c.get(key, {}).get(m, 0)) for key, m in src]
            h.update(("%d:%s\n" % (l, ",".join(coords))).encode())
    return h.hexdigest()


def test_bracket_tensor_id_conventions(chain1):
    """The bracket tensor map is -1/2 part 2, which vanishes identically for
    the abelian positive part of the conformal algebra."""
    _, _, co = chain1
    assert coh._part2_ints(co, random_cochain(co, 2, 4, lo=-2, hi=2)) == {}


def test_wedge_degenerate_input(chain1):
    qc, _, _ = chain1
    # a cochain with equal wedge slots is structurally zero
    c = Cochain(qc, 2)
    key = tuple(qc.minus_indices()[:2])
    c.add_term(key, {0: F1})
    c.add_term(key, {0: -F1})
    assert c.is_zero()
    assert codifferential_wedge(c).is_zero()

