"""Finite-difference quadratic forms on grid masks.

Three forms on the interior nodes of a mask, all with nodal mass h^2 * I:

* A: Dirichlet energy, the 5-point Laplacian with extension by zero,
  scaled 1/h^2.
* B: square of the zero-extended Laplacian, B = D^T D, where D maps an
  interior vector to the 5-point Laplacian of its zero-extension on the
  full lattice (a 13-point stencil in the bulk), scaled 1/h^4.
* The buckling pencil (B, A).

Because B is defined as D^T D, the discrete counterparts of the
Cauchy-Schwarz chain and of superadditivity are exact identities:
<A u, u> = <D u, E u> for the zero-extension E, and restricting a mask
restricts all three forms without changing any matrix entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .geometry import GridMask


class AssemblyError(ValueError):
    pass


@dataclass(frozen=True)
class SymmetricOperator:
    """Sparse symmetric matrix tied to the grid it was assembled on."""

    matrix: sp.csr_matrix
    grid: GridMask | None = None

    def __post_init__(self):
        m = self.matrix.tocsr()
        if m.shape[0] != m.shape[1]:
            raise AssemblyError("operator must be square")
        if (m - m.T).nnz and abs(m - m.T).max() > 0:
            raise AssemblyError("operator must be exactly symmetric")
        m.sum_duplicates()  # each entry stored once: data @ data = ||M||_F^2
        object.__setattr__(self, "matrix", m)

    @property
    def n_rows(self) -> int:
        return self.matrix.shape[0]

    def dense(self) -> np.ndarray:
        return self.matrix.toarray()

    def norm_estimate(self) -> float:
        """Row-sum (infinity) norm; equals the 2-norm bound for symmetric."""
        return float(np.abs(self.matrix).sum(axis=1).max())


@dataclass(frozen=True)
class OperatorPencil:
    """Generalized problem B u = mu A u on a shared node indexing."""

    b: SymmetricOperator
    a: SymmetricOperator

    def __post_init__(self):
        if self.b.n_rows != self.a.n_rows:
            raise AssemblyError("pencil operators must have equal dimension")
        if self.b.grid is not self.a.grid:
            raise AssemblyError("pencil operators must share the grid")

    @property
    def n_rows(self) -> int:
        return self.a.n_rows


def _neighbor_pairs(mask: GridMask):
    """(i-indices, j-indices) of interior-interior 4-neighbor pairs, and the
    node index array."""
    idx = mask.node_index()
    pairs = []
    nx, ny = mask.dims
    interior = mask.interior
    right = interior[:-1, :] & interior[1:, :]
    up = interior[:, :-1] & interior[:, 1:]
    ri, rj = np.nonzero(right)
    ui, uj = np.nonzero(up)
    rows = np.concatenate([idx[ri, rj], idx[ui, uj]])
    cols = np.concatenate([idx[ri + 1, rj], idx[ui, uj + 1]])
    return rows, cols, idx


def assemble_dirichlet_laplacian(mask: GridMask) -> SymmetricOperator:
    """5-point Laplacian with extension by zero, scaled 1/h^2."""
    if mask.n_nodes == 0:
        raise AssemblyError("cannot assemble on an empty mask")
    n = mask.n_nodes
    rows, cols, _ = _neighbor_pairs(mask)
    scale = 1.0 / mask.h**2
    diag = sp.eye(n, format="coo") * (4.0 * scale)
    off = sp.coo_matrix(
        (np.full(rows.size, -scale), (rows, cols)), shape=(n, n)
    )
    matrix = (diag + off + off.T).tocsr()
    return SymmetricOperator(matrix, mask)


def extension_laplacian_factor(mask: GridMask) -> sp.csr_matrix:
    """D: interior vector -> 5-point Laplacian of its zero-extension on the
    padded lattice (one ring around the bounding box), scaled 1/h^2.

    Row order is the dense enumeration of padded lattice nodes; rows not
    touching the interior are zero.
    """
    if mask.n_nodes == 0:
        raise AssemblyError("cannot assemble on an empty mask")
    nx, ny = mask.dims
    px, py = nx + 2, ny + 2
    idx = mask.node_index()
    scale = 1.0 / mask.h**2

    def prow(i, j):  # padded lattice row index of mask node (i, j)
        return (i + 1) * py + (j + 1)

    ii, jj = np.nonzero(mask.interior)
    col = idx[ii, jj]
    rows = [prow(ii, jj)]
    cols = [col]
    vals = [np.full(col.size, 4.0 * scale)]
    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
        rows.append(prow(ii + di, jj + dj))
        cols.append(col)
        vals.append(np.full(col.size, -scale))
    d = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(px * py, mask.n_nodes),
    )
    return d.tocsr()


def assemble_clamped_bilaplacian(mask: GridMask) -> SymmetricOperator:
    """B = D^T D; the 13-point bilaplacian in the bulk, scaled 1/h^4."""
    d = extension_laplacian_factor(mask)
    b = (d.T @ d).tocsr()
    b = ((b + b.T) * 0.5).tocsr()  # symmetrize away roundoff asymmetry
    return SymmetricOperator(b, mask)


def assemble_buckling_pencil(mask: GridMask) -> OperatorPencil:
    return OperatorPencil(
        assemble_clamped_bilaplacian(mask), assemble_dirichlet_laplacian(mask)
    )
