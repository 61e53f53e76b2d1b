import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from weylcheck.discretization import (
    AssemblyError,
    OperatorPencil,
    SymmetricOperator,
    assemble_buckling_pencil,
    assemble_clamped_bilaplacian,
    assemble_dirichlet_laplacian,
    extension_laplacian_factor,
)
from weylcheck.eigensolve import dense_spectrum
from weylcheck.geometry import DomainSpec, GridMask, rasterize

from conftest import random_mask

SINGLE = GridMask(1.0, (0, 0), (1, 1), np.array([[True]]))


def test_single_node_laplacian():
    a = assemble_dirichlet_laplacian(SINGLE)
    assert a.dense()[0, 0] == pytest.approx(4.0)
    assert a.dense().shape == (1, 1)


def test_single_node_bilaplacian():
    b = assemble_clamped_bilaplacian(SINGLE)
    assert b.dense()[0, 0] == pytest.approx(20.0)
    assert b.dense().shape == (1, 1)


def test_1d_analog_strip():
    # a 3-node row at h=1/4 reproduces the textbook tridiagonal up to the
    # extra 2/h^2 from the transverse Dirichlet neighbors
    mask = GridMask(0.25, (0, 0), (3, 1), np.ones((3, 1), dtype=bool))
    a = assemble_dirichlet_laplacian(mask).dense()
    expected = 16.0 * np.array([[4, -1, 0], [-1, 4, -1], [0, -1, 4]])
    assert a == pytest.approx(expected)


def test_bulk_13_point_stencil():
    mask = rasterize(DomainSpec.rectangle(1, 1), 1 / 8)
    b = assemble_clamped_bilaplacian(mask)
    idx = mask.node_index()
    center = idx[3, 3]
    row = b.matrix[center].toarray().ravel() * mask.h**4
    got = {}
    for i in range(7):
        for j in range(7):
            v = row[idx[i, j]]
            if v:
                got[(i - 3, j - 3)] = v
    expected = {(0, 0): 20.0}
    for d in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        expected[d] = -8.0
    for d in ((1, 1), (1, -1), (-1, 1), (-1, -1)):
        expected[d] = 2.0
    for d in ((2, 0), (-2, 0), (0, 2), (0, -2)):
        expected[d] = 1.0
    assert got == pytest.approx(expected)


def test_pencil_shares_grid_and_dimension():
    mask = random_mask(0)
    pencil = assemble_buckling_pencil(mask)
    assert pencil.b.n_rows == pencil.a.n_rows == mask.n_nodes
    assert pencil.b.grid is pencil.a.grid


def test_pencil_rejects_mismatched_grids():
    a = assemble_dirichlet_laplacian(random_mask(1))
    b = assemble_clamped_bilaplacian(random_mask(2))
    with pytest.raises(AssemblyError):
        OperatorPencil(b, a)


def test_empty_mask_rejected():
    empty = GridMask(1.0, (0, 0), (2, 2), np.zeros((2, 2), dtype=bool))
    with pytest.raises(AssemblyError):
        assemble_dirichlet_laplacian(empty)


def test_exact_symmetry():
    mask = random_mask(7)
    for op in (assemble_dirichlet_laplacian(mask),
               assemble_clamped_bilaplacian(mask)):
        diff = op.matrix - op.matrix.T
        assert diff.nnz == 0 or abs(diff).max() == 0.0


@pytest.mark.parametrize("i, j, value", [
    (0, 1, np.nextafter(-1.0, 0.0)),  # one ulp off its mirror entry
    (1, 1, np.nan),  # NaN equals no entry, not even itself
], ids=["one-ulp", "nan"])
def test_inexact_symmetry_rejected(i, j, value):
    m = np.diag([2.0, 2.0, 2.0]) - np.eye(3, k=1) - np.eye(3, k=-1)
    m[i, j] = value
    with pytest.raises(AssemblyError):
        SymmetricOperator(sp.csr_matrix(m))


def test_laplacian_positive_definite_small():
    mask = random_mask(11, dims=(8, 8))
    w = dense_spectrum(assemble_dirichlet_laplacian(mask)).values
    assert w[0] > 0


def test_square_lowest_eigenvalue(square_mask_64):
    a = assemble_dirichlet_laplacian(square_mask_64)
    w = dense_spectrum(a).values
    assert w[0] == pytest.approx(2 * math.pi**2, rel=0.01)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_cauchy_schwarz_identity(seed):
    # <A u, u> = <D u, E u>, hence <A u, u> <= sqrt(<B u, u> <u, u>)
    mask = random_mask(seed, dims=(10, 10), h=0.5)
    a = assemble_dirichlet_laplacian(mask).dense()
    b = assemble_clamped_bilaplacian(mask).dense()
    d = extension_laplacian_factor(mask)
    rng = np.random.default_rng(seed)
    for _ in range(5):
        u = rng.standard_normal(mask.n_nodes)
        au = u @ a @ u
        bu = u @ b @ u
        uu = u @ u
        # the factored form reproduces both quadratic forms
        du = d @ u
        assert bu == pytest.approx(du @ du, rel=1e-12)
        ext = np.zeros(d.shape[0])
        nx, ny = mask.dims
        ii, jj = np.nonzero(mask.interior)
        ext[(ii + 1) * (ny + 2) + (jj + 1)] = u
        assert au == pytest.approx(du @ ext, rel=1e-12)
        assert au <= math.sqrt(bu * uu) * (1 + 1e-12)


def reference_forms(mask):
    """A * h^2 and B * h^4 as integer arrays, by explicit loops over the
    padded lattice: column p of D * h^2 is 4 at node p and -1 at each of
    its four neighbors, inside the mask or not."""
    nx, ny = mask.dims
    index = {}
    for ij in itertools.product(range(nx), range(ny)):
        if mask.interior[ij]:
            index[ij] = len(index)
    n = len(index)
    steps = ((1, 0), (-1, 0), (0, 1), (0, -1))
    a = np.zeros((n, n), dtype=np.int64)
    for (i, j), p in index.items():
        a[p, p] = 4
        for di, dj in steps:
            if (i + di, j + dj) in index:
                a[p, index[i + di, j + dj]] = -1
    b = np.zeros((n, n), dtype=np.int64)
    for i, j in itertools.product(range(-1, nx + 1), range(-1, ny + 1)):
        # row (i, j) of D * h^2: the nodes whose stencil reaches (i, j)
        row = {index[i, j]: 4} if (i, j) in index else {}
        for di, dj in steps:
            if (i + di, j + dj) in index:
                row[index[i + di, j + dj]] = -1
        for (p, dp), (q, dq) in itertools.product(row.items(), repeat=2):
            b[p, q] += dp * dq
    return a, b


def lattice_mask(rows):
    """Mask from ASCII rows, '#' interior, first row at x index 0."""
    interior = np.array([[c == "#" for c in r] for r in rows])
    return GridMask(0.5, (0.0, 0.0), interior.shape, interior)


@pytest.mark.parametrize("mask", [
    lattice_mask(["#"]),
    lattice_mask(["#####"]),
    lattice_mask(["#.#", "#.#", "#.#"]),  # one-node gap between columns
    lattice_mask(["#.#.", ".#.#", "#.#.", ".#.#"]),  # diagonal neighbors only
    lattice_mask(["##.##", "#...#", "##.##"]),
    *(random_mask(seed, dims=dims, h=0.5)
      for seed, dims in enumerate([(9, 9), (3, 14), (14, 3), (6, 11)] * 3)),
])
def test_forms_match_explicit_loops(mask):
    # at h = 0.5 every entry is an integer multiple of 1/h^2 = 4, so the
    # comparison is exact
    a, b = reference_forms(mask)
    assert np.array_equal(assemble_dirichlet_laplacian(mask).dense(), a * 4.0)
    assert np.array_equal(assemble_clamped_bilaplacian(mask).dense(), b * 16.0)


def test_restriction_consistency():
    mask = random_mask(5, dims=(12, 12))
    rng = np.random.default_rng(5)
    keep = rng.random(mask.dims) < 0.5
    sub = mask.restrict(keep)
    if sub.n_nodes == 0:
        pytest.skip("empty submask")
    a_big = assemble_dirichlet_laplacian(mask).dense()
    b_big = assemble_clamped_bilaplacian(mask).dense()
    a_sub = assemble_dirichlet_laplacian(sub).dense()
    b_sub = assemble_clamped_bilaplacian(sub).dense()
    # embed a submask vector into the big indexing
    idx_big = mask.node_index()
    ii, jj = np.nonzero(sub.interior)
    embed = idx_big[ii, jj]
    for trial in range(5):
        u = rng.standard_normal(sub.n_nodes)
        u_big = np.zeros(mask.n_nodes)
        u_big[embed] = u
        assert u_big @ a_big @ u_big == pytest.approx(u @ a_sub @ u, rel=1e-12)
        assert u_big @ b_big @ u_big == pytest.approx(u @ b_sub @ u, rel=1e-12)


def test_dirichlet_convergence_order():
    exact = 2 * math.pi**2
    errors = {}
    for h in (1 / 32, 1 / 64):
        mask = rasterize(DomainSpec.rectangle(1, 1), h)
        w = dense_spectrum(assemble_dirichlet_laplacian(mask)).values
        errors[h] = abs(w[0] - exact)
    ratio = errors[1 / 32] / errors[1 / 64]
    assert 3.5 <= ratio <= 4.5
