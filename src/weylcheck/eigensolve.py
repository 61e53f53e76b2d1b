"""Eigenvalue computation and exact below-threshold counting.

Spectra carry a completeness cutoff: values above it are absent, and the
counting machinery refuses to evaluate past it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretization import OperatorPencil, SymmetricOperator

DENSE_LIMIT = 8192

PROBLEMS = ("dirichlet", "buckling", "bilaplacian_root")


class SolverError(RuntimeError):
    pass


class ShiftOnEigenvalueError(SolverError):
    """The counting shift is too close to the spectrum to factor safely."""


@dataclass(frozen=True)
class Spectrum:
    """Ascending eigenvalues of one of the three problems.

    For the bilaplacian the stored values are the square roots of the
    operator eigenvalues, so all three counting functions share one scale.
    """

    problem: str
    values: np.ndarray
    cutoff: float = math.inf
    source: str = "grid"

    def __post_init__(self):
        if self.problem not in PROBLEMS and self.problem != "synthetic":
            raise ValueError(f"unknown problem tag {self.problem!r}")
        v = np.sort(np.asarray(self.values, dtype=float))
        if v.size and v[0] <= 0:
            raise ValueError("spectrum values must be positive")
        object.__setattr__(self, "values", v)
        v.setflags(write=False)

    def __len__(self):
        return self.values.size

    def dump(self, path, h: float | None = None) -> None:
        with open(path, "w") as fh:
            fh.write(f"# problem={self.problem} source={self.source}")
            if h is not None:
                fh.write(f" h={h!r}")
            fh.write(f" cutoff={self.cutoff!r}\n")
            fh.write("index,value\n")
            for i, v in enumerate(self.values):
                fh.write(f"{i},{float(v)!r}\n")


def _check_dense(op: SymmetricOperator, limit: int):
    if op.n_rows > limit:
        raise SolverError(
            f"dense solve refused: n={op.n_rows} exceeds limit {limit}"
        )


def _spot_check_pairs(a: np.ndarray, w: np.ndarray, v: np.ndarray, rng) -> None:
    norm = np.abs(a).sum(axis=1).max()
    for i in rng.choice(w.size, size=min(5, w.size), replace=False):
        res = np.linalg.norm(a @ v[:, i] - w[i] * v[:, i])
        if res > 1e-8 * max(norm, 1.0):
            raise SolverError(f"backward error {res:.3e} exceeds 1e-8*|A|")


def dense_spectrum(op: SymmetricOperator, dense_limit: int = DENSE_LIMIT,
                   problem: str = "dirichlet") -> Spectrum:
    """All eigenvalues via tridiagonal reduction (LAPACK syevd path)."""
    _check_dense(op, dense_limit)
    a = op.dense()
    w, v = la.eigh(a)
    _spot_check_pairs(a, w, v, np.random.default_rng(0))
    return Spectrum(problem, w, cutoff=math.inf, source="grid")


def generalized_spectrum(pencil: OperatorPencil, k: int | None = None,
                         dense_limit: int = DENSE_LIMIT) -> Spectrum:
    """Lowest k eigenvalues of B u = mu A u by Cholesky reduction of A."""
    _check_dense(pencil.a, dense_limit)
    a = pencil.a.dense()
    b = pencil.b.dense()
    try:
        r = la.cholesky(a, lower=False)
    except la.LinAlgError as exc:
        raise SolverError("Laplacian form is not positive definite") from exc
    # C = R^{-T} B R^{-1}
    c = la.solve_triangular(r, la.solve_triangular(r, b.T, trans="T").T, trans="T")
    c = 0.5 * (c + c.T)
    w = la.eigh(c, eigvals_only=True)
    if k is not None:
        w = w[:k]
    return Spectrum("buckling", w, cutoff=math.inf, source="grid")


def _lanczos_lowest(a, lu, norm, k, tol, cap, rng, deflate):
    """Shift-inverted Lanczos with full reorthogonalization on the
    complement of the deflation space. Returns (values, vectors) for the
    k smallest eigenvalues reachable from a single Krylov sequence."""
    n = a.shape[0]
    free = n - (deflate.shape[1] if deflate is not None else 0)
    k = min(k, free)
    if k == 0:
        return np.empty(0), np.empty((n, 0))
    cap = min(cap, free)

    def project_out(x):
        if deflate is not None:
            x -= deflate @ (deflate.T @ x)
        return x

    q = np.empty((n, cap))
    alphas = np.empty(cap)
    betas = np.zeros(cap)  # betas[m-1] couples q[:, m-1] and q[:, m]
    v = project_out(rng.standard_normal(n))
    q[:, 0] = v / np.linalg.norm(v)
    last_resid = None
    m = 0
    while m < cap:
        u = lu.solve(q[:, m])
        alphas[m] = float(q[:, m] @ u)
        # full reorthogonalization (two sweeps) subsumes the short recurrence
        for _ in range(2):
            u = project_out(u)
            u -= q[:, : m + 1] @ (q[:, : m + 1].T @ u)
        m += 1
        beta = float(np.linalg.norm(u))

        if m >= k and (m == cap or beta < 1e-13 or m % 5 == 0):
            theta, s = la.eigh_tridiagonal(alphas[:m], betas[: m - 1])
            # largest Ritz values of the inverse = smallest eigenvalues of A
            order = np.argsort(theta)[::-1][:k]
            vecs = q[:, :m] @ s[:, order]
            w = 1.0 / theta[order]
            last_resid = np.array(
                [np.linalg.norm(a @ x - wi * x) for wi, x in zip(w, vecs.T)]
            )
            if np.all(last_resid <= tol * max(norm, 1.0)):
                asc = np.argsort(w)
                return w[asc], vecs[:, asc]
            if m == cap:
                break

        if m == cap:
            break
        if beta < 1e-13:
            # invariant subspace: restart with a fresh orthogonal direction
            v = project_out(rng.standard_normal(n))
            v -= q[:, :m] @ (q[:, :m].T @ v)
            nv = np.linalg.norm(v)
            if nv < 1e-13:
                break
            q[:, m] = v / nv
            betas[m - 1] = 0.0
        else:
            q[:, m] = u / beta
            betas[m - 1] = beta
    raise SolverError(
        f"Lanczos did not converge within {m} iterations; "
        f"achieved residuals {last_resid}"
    )


def lowest_k(op: SymmetricOperator, k: int, tol: float = 1e-8,
             max_iter: int | None = None, seed: int = 0) -> Spectrum:
    """Lowest k eigenvalues by shift-inverted Lanczos with full
    reorthogonalization, restarted on Krylov breakdown.

    The single shift sits at zero (the operators here are positive
    definite); convergence is declared on the residual in the original
    operator, ||A v - w v|| <= tol * |A|. A single Krylov sequence sees
    each eigenspace once, so after convergence the solver probes the
    orthogonal complement of the found vectors until no missed copy of a
    degenerate eigenvalue remains below the k-th value.
    """
    n = op.n_rows
    if not 1 <= k <= n:
        raise SolverError(f"k={k} out of range for n={n}")
    a = op.matrix.tocsc()
    try:
        lu = spla.splu(a)
    except RuntimeError as exc:
        raise SolverError("shift-invert factorization failed") from exc
    norm = op.norm_estimate()
    rng = np.random.default_rng(seed)
    cap = max_iter if max_iter is not None else min(n, max(6 * k + 60, 120))

    w, vecs = _lanczos_lowest(a, lu, norm, k, tol, cap, rng, deflate=None)
    for _ in range(k):
        if vecs.shape[1] >= n:
            break
        probe_w, probe_v = _lanczos_lowest(
            a, lu, norm, 1, tol, cap, rng, deflate=vecs
        )
        if probe_w.size == 0 or probe_w[0] > w[k - 1] * (1 + 10 * tol):
            break
        merged = np.argsort(np.append(w, probe_w[0]))
        vecs = np.hstack([vecs, probe_v])[:, merged]
        w = np.append(w, probe_w[0])[merged]
        if w.size > k and w[k] > w[k - 1] * (1 + 10 * tol):
            w, vecs = w[:k], vecs[:, :k]
    return Spectrum("dirichlet", w[:k], source="grid")


# A slab whose elimination would add an entry above this multiple of the
# matrix scale to the next slab is merged into it instead.
SLAB_GROWTH = 1e2


def _slab_order(target) -> np.ndarray | None:
    """Node permutation that puts the shorter grid axis inside each slab:
    ``node_index`` runs along y within each x column, so a grid taller than
    it is wide is renumbered row by row. None keeps the given order."""
    grid = target.a.grid if isinstance(target, OperatorPencil) else target.grid
    if grid is None or grid.dims[1] <= grid.dims[0]:
        return None
    return grid.node_index().T[grid.interior.T]


def _slab_inertia(m: sp.csr_matrix, scale: float) -> int:
    """Number of negative eigenvalues of a sparse symmetric matrix by block
    elimination over slabs of consecutive rows.

    Slabs as wide as the half-bandwidth make the matrix block tridiagonal,
    so its inertia is the sum of the inertias of the slab Schur complements
    (Haynsworth additivity with Sylvester's law). Each complement is
    diagonalized; a complement that is numerically singular, or whose
    update to the next slab would grow past SLAB_GROWTH * scale, is merged
    with the next slab instead of eliminated. Only a singular last block
    raises ShiftOnEigenvalueError.
    """
    n = m.shape[0]
    coo = m.tocoo()
    w = max(int(np.abs(coo.row - coo.col).max(initial=0)), 1)
    tol = 1e-12 * max(scale, 1.0)
    neg = 0
    lo, hi = 0, min(w, n)
    s = m[lo:hi, lo:hi].toarray()
    while hi < n:
        nxt = min(hi + w, n)
        e = m[lo:hi, hi:nxt].toarray()
        d = m[hi:nxt, hi:nxt].toarray()
        lam, q = np.linalg.eigh(s)
        if np.abs(lam).min() > tol:
            g = q.T @ e
            update = g.T @ (g / lam[:, None])
            if np.abs(update).max() <= SLAB_GROWTH * scale:
                neg += int((lam < 0).sum())
                s = d - update
                lo, hi = hi, nxt
                continue
        s = np.block([[s, e], [e.T, d]])
        hi = nxt
    lam = np.linalg.eigvalsh(s)
    if np.abs(lam).min() <= tol:
        raise ShiftOnEigenvalueError(
            f"last-slab eigenvalue {lam[np.abs(lam).argmin()]:.3e} below "
            f"{tol:.3e}: shift too close to spectrum"
        )
    return neg + int((lam < 0).sum())


def inertia_count(target: SymmetricOperator | OperatorPencil,
                  threshold: float) -> int:
    """Exact number of eigenvalues strictly below the threshold, from the
    inertia of A - theta*I (or B - theta*A for a pencil), computed by
    guarded slab elimination in O(n w^2) time for half-bandwidth w.

    Raises ShiftOnEigenvalueError when the shifted matrix is numerically
    singular; the caller retries with a perturbed threshold.
    """
    if isinstance(target, OperatorPencil):
        shifted = target.b.matrix - threshold * target.a.matrix
        scale = target.b.norm_estimate() + abs(threshold) * target.a.norm_estimate()
    else:
        shifted = target.matrix - threshold * sp.identity(target.n_rows,
                                                          format="csr")
        scale = target.norm_estimate() + abs(threshold)
    order = _slab_order(target)
    if order is not None:
        shifted = shifted[order][:, order]
    return _slab_inertia(shifted, scale)
