"""Finite-difference quadratic forms on grid masks.

All three forms on the interior nodes of a mask, with nodal mass h^2 * I,
come from one factor D, which maps an interior vector to the 5-point
Laplacian of its zero-extension on the full lattice, scaled 1/h^2:

* A = E^T D for the zero-extension E: the rows of D at the interior
  nodes, the 5-point Dirichlet Laplacian, scaled 1/h^2.
* B = D^T D: the clamped bilaplacian (a 13-point stencil in the bulk),
  scaled 1/h^4.
* The buckling pencil (B, A).

So the discrete counterparts of the Cauchy-Schwarz chain and of
superadditivity are exact identities by construction: <A u, u> =
<D u, E u>, and restricting a mask restricts all three forms without
changing any matrix entry.

Splitting the rows of D into those at interior nodes (E^T D = A) and the
rest, R, gives B = A^2 + R^T R. A row of R holds the Laplacian at a lattice
node outside the mask, which involves only its interior neighbours, so
R^T R is supported on the nodes next to the boundary, those with a
neighbour outside the mask; this keeps the dense pencil reduction of
``eigensolve.generalized_spectrum`` cheap.
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
        if (m != m.T).nnz:  # a NaN entry differs from itself
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


def extension_laplacian_factor(mask: GridMask) -> sp.csr_matrix:
    """D: interior vector -> 5-point Laplacian of its zero-extension on the
    padded lattice (one ring around the bounding box), scaled 1/h^2.

    Rows enumerate the padded lattice nodes densely, columns the interior
    nodes in node order; rows not touching the interior are zero.
    """
    if mask.n_nodes == 0:
        raise AssemblyError("cannot assemble on an empty mask")
    n, py = mask.n_nodes, mask.dims[1] + 2
    scale = 1.0 / mask.h**2
    ii, jj = np.nonzero(mask.interior)
    rows = np.concatenate([(ii + 1 + di) * py + (jj + 1 + dj) for di, dj in
                           ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1))])
    vals = np.repeat([4.0 * scale, -scale, -scale, -scale, -scale], n)
    d = sp.coo_matrix((vals, (rows, np.tile(np.arange(n), 5))),
                      shape=((mask.dims[0] + 2) * py, n))
    return d.tocsr()


def assemble_dirichlet_laplacian(mask: GridMask) -> SymmetricOperator:
    """A = E^T D: the rows of D at the interior nodes, the 5-point Laplacian
    with extension by zero, scaled 1/h^2."""
    rows = np.flatnonzero(np.pad(mask.interior, 1))
    return SymmetricOperator(extension_laplacian_factor(mask)[rows], mask)


def assemble_clamped_bilaplacian(mask: GridMask) -> SymmetricOperator:
    """B = D^T D; the 13-point bilaplacian in the bulk, scaled 1/h^4.

    Entries (i, j) and (j, i) sum the same products D[r, i] * D[r, j] in
    the same order of r, so B is exactly symmetric."""
    d = extension_laplacian_factor(mask)
    b = (d.T @ d).tocsr()
    del d  # freed before the symmetry check
    return SymmetricOperator(b, mask)


def assemble_buckling_pencil(mask: GridMask) -> OperatorPencil:
    return OperatorPencil(
        assemble_clamped_bilaplacian(mask), assemble_dirichlet_laplacian(mask)
    )
