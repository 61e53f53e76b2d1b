import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import example, given, settings
from hypothesis import strategies as st

from weylcheck.discretization import (
    OperatorPencil,
    SymmetricOperator,
    assemble_buckling_pencil,
    assemble_clamped_bilaplacian,
    assemble_dirichlet_laplacian,
)
from weylcheck.geometry import DomainSpec, rasterize
from weylcheck.heat import heat_trace
from weylcheck.spectral import (
    MaskForms,
    counting,
    robust_count,
    split_separated,
    verify_chain,
)
from weylcheck import eigensolve
from weylcheck.eigensolve import (
    ShiftOnEigenvalueError,
    SolverError,
    Spectrum,
    dense_spectrum,
    generalized_spectrum,
    inertia_count,
    lowest_k,
)
from weylcheck.geometry import GridMask

from conftest import random_mask


def op_from_dense(a):
    return SymmetricOperator(sp.csr_matrix(np.asarray(a, dtype=float)))


def dense_eigenvalues(target):
    """Oracle spectrum of an operator or pencil from scipy's dense eigh."""
    if hasattr(target, "b"):
        return la.eigh(target.b.dense(), target.a.dense(), eigvals_only=True)
    return la.eigh(target.dense(), eigvals_only=True)


def gap_midpoints(w, count):
    """Midpoints of the widest gap in each of count equal index ranges of
    the ascending spectrum w, so no threshold lies near an eigenvalue."""
    gaps = np.diff(w)
    edges = np.linspace(0, gaps.size, count + 1).astype(int)
    picks = [lo + int(np.argmax(gaps[lo:hi])) for lo, hi in zip(edges[:-1], edges[1:])
             if hi > lo]
    return [0.5 * (w[k] + w[k + 1]) for k in picks]


def symmetric_mask(seed, size, fill):
    """Random mask mirrored in x, y and the diagonal; the symmetry group of
    the square forces doubly degenerate eigenvalues."""
    m = random_mask(seed, dims=(size, size), fill=fill).interior
    m = m | m.T
    m = m | m[::-1] | m[:, ::-1] | m[::-1, ::-1]
    return GridMask(1.0, (0.0, 0.0), (size, size), m)


def grid_rectangle_spectrum(a, b, h):
    """Closed-form spectrum of the 5-point Dirichlet Laplacian on the
    (0,a)x(0,b) grid: (4/h^2)(sin^2(m pi h / 2a) + sin^2(n pi h / 2b))."""
    m = np.arange(1, round(a / h))
    n = np.arange(1, round(b / h))
    values = (4.0 / h**2) * (np.sin(m * math.pi * h / (2 * a))[:, None] ** 2
                             + np.sin(n * math.pi * h / (2 * b))[None, :] ** 2)
    return np.sort(values.ravel())


def traced_peak(f, *args):
    """Result of f(*args) and the peak of memory allocated during the call."""
    tracemalloc.start()
    try:
        return f(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def csr_parts(op):
    m = op.matrix
    return [x.copy() for x in (m.data, m.indices, m.indptr)]


def assert_same_parts(op, parts):
    for x, y in zip(csr_parts(op), parts):
        assert np.array_equal(x, y)


def square_and_disk(offset, h):
    """The unit square and a disk of radius 0.3 at offset beside it, placed
    so that no lattice mirror maps the mask onto itself."""
    return rasterize(DomainSpec.union([DomainSpec.rectangle(1.0, 1.0),
                                       DomainSpec.disk(0.3)],
                                      [(0.0, 0.0), offset]), h)


@pytest.fixture
def asymmetric_mask():
    # 1,399 nodes, with the disk touching the square: one connected piece
    # and no mirror, so every solver's split is a single block
    return square_and_disk((1.3, 0.3), 0.03)


def parity_blocks(target):
    """Sizes of the diagonal blocks that every eigensolver but inertia_count
    splits target into, by symmetry character and connected piece."""
    return [p.stop - p.start for _, pieces, _ in eigensolve._parity_bases(target)
            for p in pieces]


def multiplicities(target):
    """The multiplicity of each block of parity_blocks(target)."""
    return [mult for _, pieces, mult in eigensolve._parity_bases(target)
            for _ in pieces]


def twin_squares_and_bar():
    """Two 4 x 5 squares that mirror each other across the mid-line x = 6 of
    a 13 x 5 lattice and a 1 x 3 bar on that line, each two nodes clear of
    the next so that B does not couple them either."""
    interior = np.zeros((13, 5), dtype=bool)
    interior[:4] = interior[9:] = True
    interior[6, 1:4] = True
    return GridMask(1.0, (0.0, 0.0), (13, 5), interior)


def mirrored_mask(seed, dims, fill, axes):
    """Random mask made symmetric under the mirrors named in axes."""
    m = random_mask(seed, dims=dims, fill=fill).interior
    if "x" in axes:
        m = m | m[::-1]
    if "y" in axes:
        m = m | m[:, ::-1]
    return GridMask(1.0, (0.0, 0.0), dims, m)


def spy_block_lowest(monkeypatch):
    """List that records (block, pairs asked) for every _block_lowest call."""
    block_lowest, solved = eigensolve._block_lowest, []

    def spy(m, k, *args):
        solved.append((m, k))
        return block_lowest(m, k, *args)

    monkeypatch.setattr(eigensolve, "_block_lowest", spy)
    return solved


def spy_splu(monkeypatch):
    """List that records the size of every matrix that splu factors."""
    splu, factored = spla.splu, []

    def spy(a, **kw):
        factored.append(a.shape[0])
        return splu(a, **kw)

    monkeypatch.setattr(spla, "splu", spy)
    return factored


def moved_eigh(call, where, delta):
    """la.eigh that moves value round(where * (n - 1)) of the block solved
    on the given call by delta, and passes every other call through."""
    eigh, calls = la.eigh, []

    def moved(*args, **kw):
        w = eigh(*args, **kw)
        if len(calls) == call:
            w[round(where * (w.size - 1))] += delta
        calls.append(w.size)
        return w

    return moved


class TestSpectrum:
    def test_sorted_and_positive(self):
        s = Spectrum("dirichlet", [3.0, 1.0, 2.0])
        assert list(s.values) == [1.0, 2.0, 3.0]

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            Spectrum("dirichlet", [0.0, 1.0])

    def test_unknown_problem_rejected(self):
        with pytest.raises(ValueError):
            Spectrum("neumann", [1.0])

    def test_dump(self, tmp_path):
        s = Spectrum("buckling", [5.0], cutoff=10.0)
        s.dump(tmp_path / "s.csv", h=0.25)
        text = (tmp_path / "s.csv").read_text()
        assert "problem=buckling" in text and "0,5.0" in text


class TestDenseSpectrum:
    def test_one_by_one(self):
        assert dense_spectrum(op_from_dense([[4.0]])).values == pytest.approx([4.0])

    def test_tridiagonal_closed_form(self):
        a = 16.0 * np.array([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
        w = dense_spectrum(op_from_dense(a)).values
        expected = [16 * (2 - math.sqrt(2)), 32.0, 16 * (2 + math.sqrt(2))]
        assert w == pytest.approx(expected)

    def test_square_oracle(self, square_mask_64):
        w = dense_spectrum(assemble_dirichlet_laplacian(square_mask_64)).values
        exact = sorted(
            math.pi**2 * (m**2 + n**2)
            for m in range(1, 10)
            for n in range(1, 10)
        )[:20]
        for got, want in zip(w[:20], exact):
            assert got == pytest.approx(want, rel=0.01)

    def test_size_limit(self):
        big = SymmetricOperator(sp.identity(8193, format="csr"))
        with pytest.raises(SolverError):
            dense_spectrum(big)

    def test_one_copy_reduced_in_place(self, asymmetric_mask):
        # one n x n copy and LAPACK's O(n) workspace; two copies at 2 n^2 * 8 B
        op = assemble_dirichlet_laplacian(asymmetric_mask)
        n, parts = op.n_rows, csr_parts(op)
        assert parity_blocks(op) == [n]
        spectrum, peak = traced_peak(dense_spectrum, op)
        assert peak <= 1.25 * n * n * 8
        assert np.array_equal(spectrum.values,
                              la.eigh(op.dense(), eigvals_only=True))
        assert_same_parts(op, parts)

    def test_duplicate_entries_summed(self):
        # a CSR matrix may store an entry twice; the Frobenius identity
        # needs each stored once
        m = sp.csr_matrix((np.array([1.0, 3.0, 2.0]), np.array([0, 0, 1]),
                           np.array([0, 2, 3])), shape=(2, 2))
        assert dense_spectrum(SymmetricOperator(m)).values == pytest.approx(
            [2.0, 4.0])

    @pytest.mark.parametrize("assemble", [assemble_dirichlet_laplacian,
                                          assemble_clamped_bilaplacian])
    def test_moved_value_raises(self, assemble, monkeypatch):
        # one eigenvalue of one block off by 1e-8*|M|, at either end or the
        # middle, breaks that block's trace identity on the 1,521-node
        # square; the last block is the doubled one
        op = assemble(rasterize(DomainSpec.rectangle(1.0, 1.0), 1 / 40))
        assert parity_blocks(op) == [210, 190, 190, 171, 380]
        assert multiplicities(op) == [1, 1, 1, 1, 2]
        dense_spectrum(op)
        for call, where in ((0, 0.0), (1, 0.5), (3, 1.0), (4, 0.5)):
            monkeypatch.setattr(la, "eigh", moved_eigh(
                call, where, 1e-8 * op.norm_estimate()))
            with pytest.raises(SolverError):
                dense_spectrum(op)

class TestGeneralizedSpectrum:
    def test_single_node_pencil(self):
        mask = GridMask(1.0, (0, 0), (1, 1), np.array([[True]]))
        pencil = assemble_buckling_pencil(mask)
        assert generalized_spectrum(pencil).values == pytest.approx([5.0])

    def test_matches_explicit_reduction(self):
        masks = [
            random_mask(4, dims=(8, 8)),
            # taller than wide: _parity_bases puts x, the shorter axis,
            # inside each slab
            random_mask(5, dims=(6, 15)),
            rasterize(DomainSpec.disk(1.0), 1 / 20),
            # 18 connected pieces
            random_mask(1, dims=(12, 12), fill=0.35),
        ]
        for mask in masks:
            pencil = assemble_buckling_pencil(mask)
            mu = generalized_spectrum(pencil).values
            # C = R^{-T} B R^{-1} for A = R^T R has the pencil's eigenvalues
            r = la.cholesky(pencil.a.dense(), lower=False)
            rt_inv_b = la.solve_triangular(r, pencil.b.dense(), trans="T")
            c = la.solve_triangular(r, rt_inv_b.T, trans="T")
            ref = np.linalg.eigvalsh(0.5 * (c + c.T))
            assert np.allclose(mu, ref, rtol=1e-9)

    def test_no_boundary_term(self):
        # B = A^2 leaves S = B - A^2 empty and C = L^T L, with A's spectrum
        a = np.array([[2.0, 1.0], [1.0, 3.0]])
        pencil = OperatorPencil(op_from_dense(a @ a), op_from_dense(a))
        assert np.allclose(generalized_spectrum(pencil).values,
                           np.linalg.eigvalsh(a), rtol=1e-12)

    def test_indefinite_a_raises(self):
        a = op_from_dense([[1.0, 2.0], [2.0, 1.0]])
        pencil = OperatorPencil(op_from_dense(np.eye(2)), a)
        with pytest.raises(SolverError):
            generalized_spectrum(pencil)

    def test_one_dense_array_reduced_in_place(self, asymmetric_mask):
        # C = L^-1 B L^-T in one n x n array, plus the n x |J| solves of the
        # boundary term; dense copies of B and A took 2 n^2 * 8 B
        pencil = assemble_buckling_pencil(asymmetric_mask)
        n = pencil.n_rows
        parts = csr_parts(pencil.a), csr_parts(pencil.b)
        assert parity_blocks(pencil) == [n]
        spectrum, peak = traced_peak(generalized_spectrum, pencil)
        assert peak <= 1.5 * n * n * 8
        ref = la.eigh(pencil.b.dense(), pencil.a.dense(), eigvals_only=True)
        assert np.allclose(spectrum.values, ref, rtol=1e-10, atol=0)
        assert_same_parts(pencil.a, parts[0])
        assert_same_parts(pencil.b, parts[1])

    def test_moved_value_raises(self, monkeypatch):
        # one value of one block of C off by 1e-8*|C|, at either end or the
        # middle, breaks that block's trace identity on the 1,521-node
        # square; the last block is the doubled one
        pencil = assemble_buckling_pencil(
            rasterize(DomainSpec.rectangle(1.0, 1.0), 1 / 40))
        assert parity_blocks(pencil) == [210, 190, 190, 171, 380]
        assert multiplicities(pencil) == [1, 1, 1, 1, 2]
        w = generalized_spectrum(pencil).values
        for call, where in ((0, 0.0), (2, 0.5), (3, 1.0), (4, 0.0)):
            monkeypatch.setattr(la, "eigh", moved_eigh(call, where, 1e-8 * w[-1]))
            with pytest.raises(SolverError):
                generalized_spectrum(pencil)

    def test_truncated_cutoff(self):
        mask = rasterize(DomainSpec.rectangle(1.0, 1.0), 1 / 16)
        pencil = assemble_buckling_pencil(mask)
        full = generalized_spectrum(pencil)
        low = generalized_spectrum(pencil, 5)
        assert full.cutoff == math.inf
        assert low.cutoff == full.values[5]
        assert counting(low, low.cutoff) == counting(full, low.cutoff)
        with pytest.raises(ValueError):
            counting(low, 1e4)

    def test_mu_at_least_lambda1(self):
        # chain consequence: mu_j >= lambda_1 on the same grid
        for seed in range(20):
            mask = random_mask(seed)
            mu = generalized_spectrum(assemble_buckling_pencil(mask)).values
            lam = dense_spectrum(assemble_dirichlet_laplacian(mask)).values
            assert mu[0] >= lam[0] - 1e-9 * lam[0]


class TestLowestK:
    def test_trivial_1x1(self):
        assert lowest_k(op_from_dense([[4.0]]), 1).values == pytest.approx([4.0])

    def test_square_matches_dense(self, square_mask_64):
        a = assemble_dirichlet_laplacian(square_mask_64)
        dense = dense_spectrum(a).values[:20]
        fast = lowest_k(a, 20, tol=1e-8).values
        assert np.abs(fast - dense).max() / dense[0] < 1e-6

    def test_full_spectrum_small_mask(self):
        mask = random_mask(9, dims=(5, 5), fill=0.8)
        a = assemble_dirichlet_laplacian(mask)
        dense = dense_spectrum(a).values
        full = lowest_k(a, a.n_rows, tol=1e-8).values
        assert np.allclose(full, dense, rtol=1e-7, atol=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_agrees_with_dense_on_random_masks(self, seed):
        mask = random_mask(seed, dims=(12, 12))
        a = assemble_dirichlet_laplacian(mask)
        k = min(6, a.n_rows)
        dense = dense_spectrum(a).values[:k]
        fast = lowest_k(a, k, tol=1e-9).values
        assert np.allclose(fast, dense, rtol=1e-7)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), size=st.sampled_from([8, 11, 12]),
           fill=st.sampled_from([0.05, 0.1, 0.2]),
           k=st.sampled_from([1, 2, 5, 6, 10, 20]))
    # eigenvalue 3 of A eight-fold over disjoint pieces, two copies missed
    # by a single ARPACK run
    @example(seed=1195, size=11, fill=0.05, k=20)
    # a double eigenvalue of B half found, and the start vector of that
    # run has no component along the missed copy
    @example(seed=5186, size=12, fill=0.1, k=6)
    # the second copy of a double eigenvalue of B, found by a probe, misses
    # the residual bound until one step of inverse iteration refines it
    @example(seed=239, size=12, fill=0.2, k=2)
    def test_multiplicity_on_symmetric_masks(self, seed, size, fill, k):
        mask = symmetric_mask(seed, size, fill)
        for op in (assemble_dirichlet_laplacian(mask),
                   assemble_clamped_bilaplacian(mask)):
            kk = min(k, op.n_rows)
            dense = la.eigh(op.dense(), eigvals_only=True)[:kk]
            assert np.allclose(lowest_k(op, kk).values, dense, rtol=1e-9)

    @pytest.mark.parametrize("assemble", [assemble_dirichlet_laplacian,
                                          assemble_clamped_bilaplacian])
    def test_disk_matches_dense(self, assemble):
        # 1,789 nodes on the unit disk at h = 1/24: B on a real domain,
        # where the small mirrored masks are the only other dense check
        op = assemble(rasterize(DomainSpec.disk(1.0), 1 / 24))
        dense = la.eigh(op.dense(), eigvals_only=True)[:20]
        assert np.allclose(lowest_k(op, 20).values, dense, rtol=1e-9)

    @pytest.mark.parametrize("mask, k", [
        (symmetric_mask(1195, 11, 0.05), 20),
        (symmetric_mask(5186, 12, 0.1), 6),
        # one eigsh on its unsplit A fails in a fresh process and
        # succeeds on a second call
        (symmetric_mask(83, 12, 0.05), 20),
        (rasterize(DomainSpec.disk(1.0), 1 / 24), 20),
    ], ids=["seed1195", "seed5186", "seed83", "disk24"])
    def test_rerun_bit_identical(self, mask, k):
        # ARPACK keeps process-wide state between calls; an unrelated
        # eigsh from its own random start in between must not move a bit
        for op in (assemble_dirichlet_laplacian(mask),
                   assemble_clamped_bilaplacian(mask)):
            kk = min(k, op.n_rows)
            first = lowest_k(op, kk).values
            spla.eigsh(sp.diags(np.arange(1.0, 41.0)), k=3)
            assert np.array_equal(lowest_k(op, kk).values, first)

    def test_k_out_of_range(self):
        with pytest.raises(SolverError):
            lowest_k(op_from_dense([[4.0]]), 2)

    def test_singular_operator_is_solver_error(self):
        with pytest.raises(SolverError):
            lowest_k(op_from_dense(np.diag([0.0, 1.0, 2.0, 3.0])), 2)

    def test_residual_check(self):
        a = assemble_dirichlet_laplacian(random_mask(5, dims=(12, 12)))
        with pytest.raises(SolverError):
            lowest_k(a, 3, tol=0.0)

    @pytest.mark.parametrize("assemble", [assemble_dirichlet_laplacian,
                                          assemble_clamped_bilaplacian])
    def test_moved_value_fails_residual_check(self, assemble, monkeypatch):
        # on the 1/24 disk, tol * |A| admits a lowest value moved by 1e-6
        # relative, 8 times over for A and 2,000 times over for B;
        # tol * w + eps * |A| does not. k = n solves every block densely,
        # on the branch that has no refinement to repair the move
        op = assemble(rasterize(DomainSpec.disk(1.0), 1 / 24))
        eigh = la.eigh

        def moved(*args, **kw):
            w, v = eigh(*args, **kw)
            w[0] *= 1 + 1e-6
            return w, v

        monkeypatch.setattr(la, "eigh", moved)
        with pytest.raises(SolverError, match="residual"):
            lowest_k(op, op.n_rows)

    @pytest.mark.parametrize("assemble", [assemble_dirichlet_laplacian,
                                          assemble_clamped_bilaplacian])
    def test_moved_lanczos_value_is_refined(self, assemble, monkeypatch):
        # the same move on each block's Lanczos pairs misses the bound, and
        # the inverse iteration and Rayleigh-Ritz step repair it
        op = assemble(rasterize(DomainSpec.disk(1.0), 1 / 24))
        complete = eigensolve._complete_multiplicities

        def moved(*args):
            w, v = complete(*args)
            return w * np.r_[1 + 1e-6, np.ones(w.size - 1)], v

        monkeypatch.setattr(eigensolve, "_complete_multiplicities", moved)
        dense = la.eigh(op.dense(), eigvals_only=True)[:20]
        assert np.allclose(lowest_k(op, 20).values, dense, rtol=1e-9)

    def test_dense_block_past_the_limit_refused(self, monkeypatch):
        # k = n densifies the block, which past DENSE_LIMIT is refused like
        # every other dense solve; k < n stays sparse. A 7 x 5 rectangle with
        # a 3 x 2 notch in one corner: connected, with no mirror, one block
        interior = np.ones((7, 5), dtype=bool)
        interior[:3, :2] = False
        op = assemble_dirichlet_laplacian(GridMask(1 / 8, (0.0, 0.0), (7, 5),
                                                   interior))
        assert parity_blocks(op) == [op.n_rows]
        monkeypatch.setattr(eigensolve, "DENSE_LIMIT", op.n_rows - 1)
        with pytest.raises(SolverError, match="dense solve refused"):
            lowest_k(op, op.n_rows)
        assert len(lowest_k(op, op.n_rows - 1)) == op.n_rows - 1

    @pytest.mark.parametrize("assemble", [assemble_dirichlet_laplacian,
                                          assemble_clamped_bilaplacian])
    def test_solves_the_split_blocks(self, assemble, monkeypatch):
        # the h = 1/24 disk has all eight symmetries of the square: each of
        # its five blocks is asked for its share of k plus two,
        # min(cap, ceil(20 n_i / n) + 2) with cap = min(ceil(20 / m_i), n_i)
        # for multiplicity m_i, in split order; the shares are complete, so
        # no block is solved again
        op = assemble(rasterize(DomainSpec.disk(1.0), 1 / 24))
        solved = spy_block_lowest(monkeypatch)
        low = lowest_k(op, 20)
        sizes = parity_blocks(op)
        assert sizes == [244, 227, 220, 204, 447]
        assert multiplicities(op) == [1, 1, 1, 1, 2]
        assert [(m.shape[0], k) for m, k in solved] == [
            (244, 5), (227, 5), (220, 5), (204, 5), (447, 7)]
        dense = la.eigh(op.dense(), eigvals_only=True)[:20]
        assert np.allclose(low.values, dense, rtol=1e-9)

    @pytest.mark.parametrize("assemble", [assemble_dirichlet_laplacian,
                                          assemble_clamped_bilaplacian])
    @pytest.mark.parametrize("k", [6, 12])
    def test_block_short_of_its_share_solved_again(self, assemble, k,
                                                   monkeypatch):
        # a 10 x 10 square and a 2 x 50 strip, three nodes apart: two pieces
        # of 100 nodes each and no mirror. The square, first in node order
        # and so solved first, holds the lowest value and more of the lowest
        # k than its share of ceil(k / 2) + 2, so it alone is asked again,
        # for min(k, 2 share) = k pairs
        interior = np.zeros((15, 50), dtype=bool)
        interior[:10, :10] = True
        interior[13:, :] = True
        op = assemble(GridMask(1.0, (0.0, 0.0), (15, 50), interior))
        solved = spy_block_lowest(monkeypatch)
        factored = spy_splu(monkeypatch)
        low = lowest_k(op, k)
        assert parity_blocks(op) == [100, 100]
        share = -(-k // 2) + 2
        assert [(m.shape[0], ask) for m, ask in solved] == [
            (100, share), (100, share), (100, k)]
        assert solved[2][0] is solved[0][0]
        # each solve factors its block afresh
        assert factored == [100, 100, 100]
        dense = la.eigh(op.dense(), eigvals_only=True)
        assert la.eigh(solved[0][0].toarray(), eigvals_only=True)[0] == \
            pytest.approx(dense[0], rel=1e-12)
        assert np.allclose(low.values, dense[:k], rtol=1e-10)

    @pytest.mark.parametrize("assemble", [assemble_dirichlet_laplacian,
                                          assemble_clamped_bilaplacian])
    def test_short_block_asked_again_for_twice_its_pairs(self, assemble,
                                                         monkeypatch):
        # on the h = 1/24 disk the trivial character's block of 244 nodes
        # holds more low values than its share ceil(k * 244 / 1789) + 2 and
        # is asked again for twice the pairs it holds, not for its whole
        # cap of k; every solve factors its block once
        op = assemble(rasterize(DomainSpec.disk(1.0), 1 / 24))
        assert parity_blocks(op) == [244, 227, 220, 204, 447]
        dense = la.eigh(op.dense(), eigvals_only=True)
        solved = spy_block_lowest(monkeypatch)
        factored = spy_splu(monkeypatch)
        for k, asks in [(32, [7, 14]), (51, [9, 18]), (57, [10, 20]),
                        (63, [11, 22]), (69, [12, 24])]:
            solved.clear()
            factored.clear()
            low = lowest_k(op, k)
            assert [ask for m, ask in solved if m.shape[0] == 244] == asks, k
            assert factored == [m.shape[0] for m, _ in solved], k
            assert np.allclose(low.values, dense[:k], rtol=1e-9), k

    @pytest.mark.parametrize("assemble", [assemble_dirichlet_laplacian,
                                          assemble_clamped_bilaplacian])
    def test_ties_across_characters(self, assemble):
        # on the h = 1/16 unit square the modes (i, j) and (j, i) of a double
        # eigenvalue make two blocks' values when i and j have the same
        # parity (their sum and difference, even and odd under the
        # transposition) and a value of the doubled block otherwise, so for
        # some k the k-th value has a copy in another block or in its own
        op = assemble(rasterize(DomainSpec.rectangle(1.0, 1.0), 1 / 16))
        dense = la.eigh(op.dense(), eigvals_only=True)
        for k in range(1, 31):
            low = lowest_k(op, k)
            assert np.allclose(low.values, dense[:k], rtol=1e-9), k
            assert low.cutoff == low.values[-1]

    def test_truncated_cutoff(self):
        # 5 of the 225 eigenvalues below 1e4 on the 1/16 square: counting
        # and the heat tail must not treat the rest as absent
        mask = rasterize(DomainSpec.rectangle(1.0, 1.0), 1 / 16)
        a = assemble_dirichlet_laplacian(mask)
        low = lowest_k(a, 5)
        assert low.cutoff == low.values[-1]
        assert inertia_count(a, 1e4) == 225
        with pytest.raises(ValueError):
            counting(low, 1e4)
        samples = heat_trace(low, [1e-3, 1e-2], 2, mask.volume())
        assert np.all(samples.tail_bounds > 0)
        assert not samples.trusted.any()
        assert lowest_k(a, a.n_rows).cutoff == math.inf


class TestInertiaCount:
    def test_one_by_one(self):
        op = op_from_dense([[4.0]])
        assert inertia_count(op, 5.0) == 1
        assert inertia_count(op, 3.0) == 0

    def test_pencil_single_node(self):
        mask = GridMask(1.0, (0, 0), (1, 1), np.array([[True]]))
        pencil = assemble_buckling_pencil(mask)
        assert inertia_count(pencil, 6.0) == 1
        assert inertia_count(pencil, 4.0) == 0

    def test_square_matches_dense(self, square_mask_64):
        a = assemble_dirichlet_laplacian(square_mask_64)
        w = dense_spectrum(a).values
        assert inertia_count(a, 100.0) == int((w < 100.0).sum())

    def test_monotone_and_jump_by_multiplicity(self):
        mask = random_mask(13, dims=(10, 10))
        a = assemble_dirichlet_laplacian(mask)
        w = dense_spectrum(a).values
        u = np.unique(w)
        # midpoints of well-separated gaps only: a shift landing inside a
        # numerically split multiplet would be flagged as on-spectrum
        wide = np.diff(u) > 1e-8 * u[1:]
        shifts = (0.5 * (u[:-1] + u[1:]))[wide]
        prev = 0
        for theta in shifts[:20]:
            c = inertia_count(a, theta)
            assert c == int((w < theta).sum())
            assert c >= prev
            prev = c

    def test_shift_on_eigenvalue_raises(self):
        op = op_from_dense(np.diag([1.0, 2.0, 3.0]))
        with pytest.raises(ShiftOnEigenvalueError):
            inertia_count(op, 2.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000),
           dims=st.sampled_from([(19, 7), (7, 19), (12, 12)]),
           fill=st.sampled_from([0.3, 0.55, 0.8]),
           picks=st.lists(st.tuples(st.floats(0, 1), st.floats(0, 1)),
                          min_size=1, max_size=6))
    def test_matches_dense_oracle(self, seed, dims, fill, picks):
        # wide and tall masks take the two slab orientations; each pick is
        # a gap of the spectrum and a position inside it
        pencil = assemble_buckling_pencil(random_mask(seed, dims=dims, fill=fill))
        for target in (pencil.a, pencil.b, pencil):
            w = dense_eigenvalues(target)
            edges = np.concatenate([[0.5 * w[0]], w, [1.5 * w[-1]]])
            for gap, pos in picks:
                k = min(int(gap * (edges.size - 1)), edges.size - 2)
                theta = edges[k] + pos * (edges[k + 1] - edges[k])
                if np.abs(w - theta).min() < 1e-9 * theta:
                    continue
                assert inertia_count(target, theta) == int((w < theta).sum())

    @pytest.mark.parametrize("f", [1e-12, 1e-11, 1e-10])
    def test_singular_slab_below_multiple_eigenvalue(self, f):
        # at h = 1/40 the first slab of A - theta I is singular at
        # theta = 4/h^2 = 6400, which is also a 39-fold grid eigenvalue;
        # eliminating that slab unguarded miscounts just below it
        h = 1 / 40
        mask = rasterize(DomainSpec.rectangle(2.0, 1.0), h)
        exact = grid_rectangle_spectrum(2.0, 1.0, h)
        theta = 6400.0 * (1 - f)
        assert int((exact < theta).sum()) == 1521
        assert inertia_count(assemble_dirichlet_laplacian(mask), theta) == 1521

    @pytest.mark.parametrize("seed", range(8))
    def test_ldl_update_matches_eigh(self, seed):
        # weakly coupled blocks [[eps, 1], [1, eps]] among diagonal +-2,
        # shuffled, force 2x2 pivots and row interchanges
        rng = np.random.default_rng(seed)
        s = 1e-3 * rng.standard_normal((24, 24))
        s = s + s.T
        for i in range(0, 16, 2):
            s[i:i + 2, i:i + 2] = [[1e-9, 1.0], [1.0, 1e-9]]
        s[np.arange(16, 24), np.arange(16, 24)] = rng.choice([-2.0, 2.0], 8)
        p = rng.permutation(24)
        s = s[p][:, p]
        ipiv = la.lapack.dsytrf(s, lower=1)[1]
        assert (ipiv < 0).any() and (np.abs(ipiv) != np.arange(1, 25)).any()
        e = np.asfortranarray(rng.standard_normal((24, 5)))
        before = e.copy()
        neg, update = eigensolve._ldl_update(s, e, 1e-12)
        lam, q = la.eigh(s)
        g = q.T @ e
        reference = g.T @ (g / lam[:, None])
        assert neg == int((lam < 0).sum())
        assert np.abs(update - reference).max() <= 1e-12 * np.abs(reference).max()
        # a merge after a refused elimination reuses the coupling
        assert np.array_equal(e, before)

    @pytest.mark.parametrize("s", [
        # an exactly zero pivot: dsytrf reports it
        [[1e-9, 1.0, 0.0], [1.0, 1e-9, 0.0], [0.0, 0.0, 0.0]],
        # a 1x1 pivot below the tolerance
        [[2.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 1e-13]],
        # a 2x2 pivot with eigenvalues +-1e-13
        [[1e-15, 1e-13, 0.0], [1e-13, 1e-15, 0.0], [0.0, 0.0, 1.0]],
    ], ids=["zero-pivot", "small-1x1", "small-2x2"])
    def test_ldl_update_refuses_near_singular(self, s):
        e = np.asfortranarray(np.ones((3, 2)))
        assert eigensolve._ldl_update(np.array(s), e, 1e-12) is None

    def test_slab_order_follows_the_interior_not_its_box(self, monkeypatch):
        # the part of the disk left of an x split keeps the disk's 41 x 41
        # lattice box, but its interior is 19 x 39 nodes, so one lattice
        # line along x, not along y, bounds the half-bandwidth
        part = split_separated(rasterize(DomainSpec.disk(1.0), 0.05), seed=1)[0]
        x, y = np.nonzero(part.interior)
        assert part.n_nodes == 603 and part.dims == (41, 41)
        assert (np.ptp(x) + 1, np.ptp(y) + 1) == (19, 39)
        widths = []
        slab_inertia = eigensolve._slab_inertia

        def spy(m, scale):
            rows = np.repeat(np.arange(m.shape[0]), np.diff(m.indptr))
            widths.append(int(np.abs(rows - m.indices).max()))
            return slab_inertia(m, scale)

        monkeypatch.setattr(eigensolve, "_slab_inertia", spy)
        pencil = assemble_buckling_pencil(part)
        for target, width in ((pencil.a, 19), (pencil.b, 38), (pencil, 38)):
            w = dense_eigenvalues(target)
            for theta in gap_midpoints(w, 4):
                assert inertia_count(target, theta) == int((w < theta).sum())
            assert 0 < max(widths) <= width
            widths.clear()

    @pytest.mark.parametrize("h", [0.1, 0.05])
    def test_split_parts_match_dense_oracle(self, h):
        # parts split along x and along y, each ordered by its own extent
        mask = rasterize(DomainSpec.disk(1.0), h)
        for seed in range(10):
            for part in split_separated(mask, seed):
                if not part.n_nodes:
                    continue
                pencil = assemble_buckling_pencil(part)
                for target in (pencil.a, pencil.b, pencil):
                    w = dense_eigenvalues(target)
                    for theta in gap_midpoints(w, 3):
                        assert inertia_count(target, theta) == int((w < theta).sum())

    def test_isolated_node_at_its_eigenvalue(self):
        # node 0 of the first slab is isolated, so A - theta I at
        # theta = 4 / h^2 has a zero row with no coupling to the next slab;
        # 4 / h^2 is no eigenvalue of the 15 x 6 rectangle beside it
        h = 0.125
        interior = np.zeros((20, 8), dtype=bool)
        interior[4:19, 1:7] = True
        interior[1, 4] = True
        a = assemble_dirichlet_laplacian(GridMask(h, (0.0, 0.0), (20, 8), interior))
        theta = 4 / h**2
        w = dense_eigenvalues(a)
        assert np.sum(w == theta) == 1 and np.sort(np.abs(w - theta))[1] > 1
        with pytest.raises(ShiftOnEigenvalueError):
            inertia_count(a, theta)
        with pytest.raises(ShiftOnEigenvalueError):
            robust_count(a, theta)
        for t in (theta * (1 - 1e-10), theta * (1 + 1e-10)):
            assert inertia_count(a, t) == robust_count(a, t) == int((w < t).sum())

    def test_past_dense_limit(self):
        h = 1 / 70
        mask = rasterize(DomainSpec.rectangle(2.0, 1.0), h)
        assert mask.n_nodes == 9591
        a = assemble_dirichlet_laplacian(mask)
        exact = grid_rectangle_spectrum(2.0, 1.0, h)
        for theta in (300.0, 3000.0, 30000.0):
            assert inertia_count(a, theta) == int((exact < theta).sum())
        rows = verify_chain(MaskForms(mask), [100.0, 1000.0, 3000.0])
        assert [n_d for *_, n_d in rows] == [int((exact < l).sum())
                                             for l in (100.0, 1000.0, 3000.0)]


class TestParitySplit:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000),
           dims=st.sampled_from([(10, 12), (12, 10), (11, 11), (9, 8)]),
           fill=st.sampled_from([0.3, 0.55, 0.8]),
           axes=st.sampled_from(["", "x", "y", "xy"]))
    def test_split_matches_unsplit_eigh(self, seed, dims, fill, axes):
        # odd and even widths: orbits with and without fixed points on the
        # mirror lines
        pencil = assemble_buckling_pencil(mirrored_mask(seed, dims, fill, axes))
        for target in (pencil.a, pencil.b, pencil):
            assert len(parity_blocks(target)) >= 2 ** len(axes)
        k = min(6, pencil.n_rows)
        for target, solve in ((pencil.a, dense_spectrum),
                              (pencil.b, dense_spectrum),
                              (pencil, generalized_spectrum),
                              (pencil.a, lambda op: lowest_k(op, k)),
                              (pencil.b, lambda op: lowest_k(op, k))):
            values = solve(target).values
            assert np.allclose(values, dense_eigenvalues(target)[:values.size],
                               rtol=1e-10, atol=0)

    @pytest.mark.parametrize("mask, sizes", [
        # the square and the disk at h = 1/32: two pieces, no mirror
        (square_and_disk((1.4, 0.3), 1 / 32), [961, 289]),
        # per character, the twin squares' orbits make one block of 12 or 8
        # and the bar's one of 2 or 1 (the bar has no node off x = 6)
        (twin_squares_and_bar(), [12, 2, 8, 1, 12, 8]),
    ], ids=["square-and-disk", "twin-squares"])
    @pytest.mark.parametrize("assemble", [assemble_dirichlet_laplacian,
                                          assemble_clamped_bilaplacian,
                                          assemble_buckling_pencil])
    def test_pieces_split(self, mask, sizes, assemble):
        target = assemble(mask)
        assert parity_blocks(target) == sizes
        solve = generalized_spectrum if hasattr(target, "b") else dense_spectrum
        assert np.allclose(solve(target).values, dense_eigenvalues(target),
                           rtol=1e-10, atol=0)

    def test_operator_not_invariant_is_not_split(self):
        # the mask has both mirrors, the operators do not: one diagonal
        # entry moved; a split that trusted the mask would drop the
        # coupling between the parity blocks
        mask = rasterize(DomainSpec.rectangle(1.0, 1.0), 1 / 16)
        pencil = assemble_buckling_pencil(mask)
        assert len(parity_blocks(pencil)) == 5
        bump = sp.csr_matrix(([1e-2], ([3], [3])), shape=pencil.a.matrix.shape)
        a = SymmetricOperator(pencil.a.matrix + bump * pencil.a.norm_estimate(), mask)
        b = SymmetricOperator(pencil.b.matrix + bump * pencil.b.norm_estimate(), mask)
        for target in (a, b, OperatorPencil(b, pencil.a),
                       OperatorPencil(pencil.b, a)):
            assert parity_blocks(target) == [mask.n_nodes]
        for target in (a, b):
            assert np.allclose(dense_spectrum(target).values,
                               dense_eigenvalues(target), rtol=1e-10, atol=0)
        for target in (OperatorPencil(b, pencil.a), OperatorPencil(pencil.b, a)):
            assert np.allclose(generalized_spectrum(target).values,
                               dense_eigenvalues(target), rtol=1e-10, atol=0)

    def test_split_square_in_largest_block(self):
        # the 1,521-node square splits into blocks of 210, 190, 190, 171 and
        # 380 nodes, solved one after another: the dense arrays are a block's
        op = assemble_dirichlet_laplacian(
            rasterize(DomainSpec.rectangle(1.0, 1.0), 1 / 40))
        pencil = assemble_buckling_pencil(op.grid)
        for target, solve in ((op, dense_spectrum),
                              (pencil.b, dense_spectrum),
                              (pencil, generalized_spectrum)):
            big = max(parity_blocks(target))
            assert big == 380
            spectrum, peak = traced_peak(solve, target)
            assert peak <= 1.5 * big * big * 8
            assert np.allclose(spectrum.values, dense_eigenvalues(target),
                               rtol=1e-10, atol=0)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), size=st.sampled_from([8, 9, 11, 12]),
           fill=st.sampled_from([0.1, 0.3, 0.55]),
           group=st.sampled_from(["square", "diagonal"]))
    # the transposed pairs (0, 3), (3, 0) and (3, 6), (6, 3): the mask
    # cropped to its box is mirrored in x and y too; a lone node at the
    # centre of its 1 x 1 box; the diagonal nodes (5, 5) and (6, 6), one
    # piece for B, fixed by the transposition: B has a single block
    @example(seed=4, size=8, fill=0.1, group="diagonal")
    @example(seed=358, size=8, fill=0.1, group="diagonal")
    @example(seed=2195, size=8, fill=0.1, group="diagonal")
    def test_square_symmetries_match_unsplit_eigh(self, seed, size, fill, group):
        # all eight symmetries of the square, whose two-dimensional
        # character makes a doubled block, or the transposition, which
        # with either flip of the mask's box makes all eight; odd and even
        # sizes: orbits with and without nodes on the mirror lines
        if group == "square":
            mask = symmetric_mask(seed, size, fill)
        else:
            m = random_mask(seed, dims=(size, size), fill=fill).interior
            mask = GridMask(1.0, (0.0, 0.0), (size, size), m | m.T)
        # a node off the diagonal spans the transposition's odd character;
        # in a box mirrored in x or y as well, one off the centre also
        # spans the two-dimensional character of all eight symmetries
        x, y = np.nonzero(mask.interior)
        box = mask.interior[x.min():x.max() + 1, y.min():y.max() + 1]
        off_diagonal = bool((x != y).any())
        doubled = off_diagonal and (np.array_equal(box, box[::-1])
                                    or np.array_equal(box, box[:, ::-1]))
        pencil = assemble_buckling_pencil(mask)
        for target in (pencil.a, pencil.b, pencil):
            sizes, mults = parity_blocks(target), multiplicities(target)
            assert sum(s * m for s, m in zip(sizes, mults)) == pencil.n_rows
            assert (2 in mults) == doubled
            assert len(sizes) >= 2 or not off_diagonal
        k = min(6, pencil.n_rows)
        for target, solve in ((pencil.a, dense_spectrum),
                              (pencil.b, dense_spectrum),
                              (pencil, generalized_spectrum),
                              (pencil.a, lambda op: lowest_k(op, k)),
                              (pencil.b, lambda op: lowest_k(op, k))):
            values = solve(target).values
            assert np.allclose(values, dense_eigenvalues(target)[:values.size],
                               rtol=1e-10, atol=0)

    @pytest.mark.parametrize("assemble", [assemble_dirichlet_laplacian,
                                          assemble_clamped_bilaplacian])
    def test_unbuilt_block_has_the_doubled_spectrum(self, assemble):
        # the (x-odd, y-even) block, formed here from the projector
        # (I - X)(I + Y) / 4 of the two flips, is the transposition's image
        # of the doubled (x-even, y-odd) block, which stands for both
        op = assemble(rasterize(DomainSpec.rectangle(1.0, 1.0), 1 / 40))
        index = op.grid.node_index()
        x, y = np.nonzero(op.grid.interior)
        n, mid = op.n_rows, x.min() + x.max()
        flip_x = sp.csr_matrix((np.ones(n), (np.arange(n), index[mid - x, y])))
        flip_y = sp.csr_matrix((np.ones(n), (np.arange(n), index[x, mid - y])))
        eye = sp.identity(n)
        q = la.orth(((eye - flip_x) @ (eye + flip_y)).toarray() / 4)
        assert q.shape[1] == 380
        unbuilt = la.eigh(q.T @ (op.matrix @ q), eigvals_only=True)
        scale = op.norm_estimate()
        blocks = eigensolve._blocks(op.matrix, eigensolve._parity_bases(op), scale)
        doubled = [m for m, mult in blocks if mult == 2]
        assert len(doubled) == 1
        solved = la.eigh(doubled[0].toarray(), eigvals_only=True)
        assert np.abs(unbuilt - solved).max() <= 1e-12 * scale

    def test_mirrors_without_transposition_make_four_blocks(self):
        # the diagonal bumped at the node (2, 5) and at its x and y images
        # on the 15 x 15 lattice: both flips still hold bitwise, the
        # transposition does not
        mask = rasterize(DomainSpec.rectangle(1.0, 1.0), 1 / 16)
        pencil = assemble_buckling_pencil(mask)
        lo = np.nonzero(mask.interior)[0].min()
        bumped = mask.node_index()[lo + np.array([2, 12, 2, 12]),
                                   lo + np.array([5, 5, 9, 9])]
        bump = sp.csr_matrix((np.full(4, 1e-2), (bumped, bumped)),
                             shape=pencil.a.matrix.shape)
        a = SymmetricOperator(pencil.a.matrix + bump * pencil.a.norm_estimate(), mask)
        b = SymmetricOperator(pencil.b.matrix + bump * pencil.b.norm_estimate(), mask)
        for target in (a, b, OperatorPencil(b, pencil.a),
                       OperatorPencil(pencil.b, a)):
            assert parity_blocks(target) == [64, 56, 56, 49]
            assert multiplicities(target) == [1, 1, 1, 1]
        for target in (a, b):
            assert np.allclose(dense_spectrum(target).values,
                               dense_eigenvalues(target), rtol=1e-10, atol=0)
            assert np.allclose(lowest_k(target, 20).values,
                               dense_eigenvalues(target)[:20], rtol=1e-10, atol=0)
        for target in (OperatorPencil(b, pencil.a), OperatorPencil(pencil.b, a)):
            assert np.allclose(generalized_spectrum(target).values,
                               dense_eigenvalues(target), rtol=1e-10, atol=0)

    def test_split_checked_against_the_operator(self, monkeypatch):
        # the blocks' traces and Frobenius norms, by multiplicity, must sum
        # to the operator's: the doubled block counted once, or the square's
        # split applied to an operator without the transposition, raises
        mask = rasterize(DomainSpec.rectangle(1.0, 1.0), 1 / 16)
        pencil = assemble_buckling_pencil(mask)
        parity_bases = eigensolve._parity_bases
        monkeypatch.setattr(eigensolve, "_parity_bases", lambda target: [
            (q, pieces, 1) for q, pieces, _ in parity_bases(target)])
        for run in (lambda: dense_spectrum(pencil.a),
                    lambda: dense_spectrum(pencil.b),
                    lambda: generalized_spectrum(pencil),
                    lambda: lowest_k(pencil.a, 20),
                    lambda: lowest_k(pencil.b, 20)):
            with pytest.raises(SolverError, match="split"):
                run()
        index = mask.node_index()
        bump = sp.csr_matrix(([1e-2], ([index[2, 5]], [index[2, 5]])),
                             shape=pencil.a.matrix.shape)
        a = SymmetricOperator(pencil.a.matrix + bump * pencil.a.norm_estimate(), mask)
        monkeypatch.setattr(eigensolve, "_parity_bases",
                            lambda target: parity_bases(pencil.a))
        for run in (lambda: dense_spectrum(a), lambda: lowest_k(a, 20),
                    lambda: generalized_spectrum(OperatorPencil(pencil.b, a))):
            with pytest.raises(SolverError, match="split"):
                run()
