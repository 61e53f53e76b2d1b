"""Eigenvalue computation and exact below-threshold counting.

Spectra carry a completeness cutoff: values above it are absent, and the
counting machinery refuses to evaluate past it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
from scipy.linalg import blas, lapack
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
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


def _check_dense(n: int):
    if n > DENSE_LIMIT:
        raise SolverError(
            f"dense solve refused: n={n} exceeds limit {DENSE_LIMIT}"
        )


def _checked_eigenvalues(m: np.ndarray, trace: float, frob2: float,
                         scale: float) -> np.ndarray:
    """All eigenvalues of the symmetric m from its lower triangle, by
    LAPACK's eigenvalue-only driver reducing m in place, checked through two
    identities that every value enters: sum w = tr M and sum w^2 = ||M||_F^2,
    to 1e-12 * n * scale and 1e-12 * n * scale^2 for a bound scale >= ||M||_2.
    The caller reads tr M and ||M||_F^2 from M before m is overwritten."""
    w = la.eigh(m, eigvals_only=True, overwrite_a=True)
    _check_identities("eigenvalues", w.sum() - trace, w @ w - frob2, w.size, scale)
    return w


def _check_identities(what: str, trace_res: float, frob_res: float, n: int,
                      scale: float):
    """SolverError unless the trace residual is at most 1e-12 * n * scale
    and the Frobenius residual at most 1e-12 * n * scale^2."""
    tol = 1e-12 * n * scale
    if abs(trace_res) > tol or abs(frob_res) > tol * scale:
        raise SolverError(
            f"{what} fail the trace identities: trace residual "
            f"{abs(trace_res):.3e} (tolerance {tol:.3e}), Frobenius residual "
            f"{abs(frob_res):.3e} (tolerance {tol * scale:.3e})"
        )


def _slab_label(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Labels that put the lattice nodes (x, y), counted from 0, in slab
    order: the shorter side of the box [0, max] inside each slab, y on a tie."""
    nx, ny = x.max() + 1, y.max() + 1
    return x * ny + y if ny <= nx else y * nx + x


def _parity_bases(target) -> list[tuple[sp.csr_matrix, list[slice], int]]:
    """Orthonormal bases Q, one per block of the split by the lattice
    symmetries that the operator commutes with (for a pencil, both A and B),
    each with the column ranges of its connected pieces and its
    multiplicity: Q^T M Q is block diagonal, one block per range, and M's
    spectrum is the union of theirs, each value repeated by the
    multiplicity.

    Pieces are the components of the graph of |M|, or of |A| + |B| for a
    pencil (S = B - A^2 couples only nodes that B couples). A symmetry is
    the flip of the mask's bounding box along x or y or, when the box is
    square, its transposition (x, y) -> (y, x); it is kept only when it maps
    the mask onto itself and every matrix is bitwise invariant under the
    node permutation it induces: a split is exact, never assumed from the
    mask. A kept transposition with one flip implies the other.

    Without the transposition there is one block per character of the
    group of kept flips (1, 2 or 4). With it and both flips the group is
    D4, the square's eight symmetries: four blocks for its one-dimensional
    characters (the same sign under both flips, either sign under the
    transposition) and one, of multiplicity 2, for its two-dimensional
    character. That block is the (x-even, y-odd) one of the flips alone;
    the transposition maps it, signed and permuted, onto the (x-odd,
    y-even) one, which is bitwise the same problem and is not built.

    A column of Q is one orbit of at most 8 nodes under the block's group:
    the coefficient of a node is the sum of chi(g) over the group elements
    g that carry it onto the orbit's lowest node, summed over the abstract
    group, so a flip that fixes every node of a one-column mask still
    cancels its odd characters; a nonzero column has entries +-1/sqrt(m)
    on its m nodes. A piece and its images share their orbits and so one
    range, in which the orbits run in slab order (_slab_label) of the
    folded coordinates, or of their (max, min) in the octant, so a banded
    matrix stays banded; with no grid, nodes run in index order."""
    if isinstance(target, OperatorPencil):
        grid, mats = target.a.grid, [target.a.matrix, target.b.matrix]
    else:
        grid, mats = target.grid, [target.matrix]
    n = target.n_rows
    piece = csgraph.connected_components(sum(abs(m) for m in mats),
                                         directed=False)[1]
    flips, swap, label = [], None, np.arange(n)
    if grid is not None and grid.n_nodes == n:
        coords = np.nonzero(grid.interior)
        index = grid.node_index()

        def kept(image):
            p = index[image]
            if (p >= 0).all() and all((m[p][:, p] != m).nnz == 0 for m in mats):
                return p
            return None

        (x, y), lo, hi = coords, [c.min() for c in coords], [c.max() for c in coords]
        px = kept((lo[0] + hi[0] - x, y))
        if hi[0] - lo[0] == hi[1] - lo[1]:
            swap = kept((lo[0] + y - lo[1], lo[1] + x - lo[0]))
        # the y flip is the x flip conjugated by a kept transposition
        py = (kept((x, lo[1] + hi[1] - y)) if swap is None else
              None if px is None else swap[px[swap]])
        flips = [p for p in (px, py) if p is not None]
        fx, fy = (c - l if p is None else np.minimum(c - l, h - c)
                  for c, l, h, p in zip(coords, lo, hi, (px, py)))
        label = _slab_label(fx, fy)
    # (generators, orbit labels, characters as signs per generator,
    # multiplicity) of each group whose orbits make the columns
    if swap is None:
        groups = [(flips, label, list(itertools.product((1, -1),
                                                        repeat=len(flips))), 1)]
    else:
        # the folds agree across the diagonal: (max, min) is the octant
        octant = _slab_label(np.maximum(fx, fy), np.minimum(fx, fy))
        groups = [(flips + [swap], octant,
                   [(s,) * len(flips) + (t,) for s in ((1, -1) if flips else (1,))
                    for t in (1, -1)], 1)]
        if flips:
            groups.append((flips, label, [(1, -1)], 2))
    bases = []
    for gens, label, characters, mult in groups:
        elements = [(np.arange(n), ())]  # (node permutation, exponents)
        for p in gens:
            elements = ([(q, e + (0,)) for q, e in elements]
                        + [(p[q], e + (1,)) for q, e in elements])
        perms = [q for q, _ in elements]
        rep = np.minimum.reduce(perms)
        hits = [q == rep for q in perms]
        # an orbit joins the range of the lowest-labelled piece it meets
        group = np.full(label.max() + 1, n)
        group[label] = np.minimum.reduce([piece[q] for q in perms])
        weight = 1.0 / np.sqrt(np.bincount(label)[label])
        for signs in characters:
            coef = sum(math.prod(s for s, b in zip(signs, e) if b) * hit
                       for (_, e), hit in zip(elements, hits))
            sign = np.sign(coef)
            keep = np.flatnonzero(sign)
            if not keep.size:
                continue
            alive = np.zeros(group.size, dtype=bool)
            alive[label[keep]] = True
            order = np.flatnonzero(alive)
            order = order[np.argsort(group[order], kind="stable")]
            col = np.empty(group.size, dtype=np.int64)
            col[order] = np.arange(order.size)
            cuts = np.r_[0, np.flatnonzero(np.diff(group[order])) + 1,
                         order.size].tolist()
            q = sp.csr_matrix((sign[keep] * weight[keep], col[label[keep]],
                               np.r_[0, np.cumsum(sign != 0)]),
                              shape=(n, order.size))
            bases.append((q, [slice(*c) for c in zip(cuts[:-1], cuts[1:])], mult))
    return bases


def _blocks(m: sp.csr_matrix, bases, scale: float) -> list[tuple[sp.csr_matrix, int]]:
    """The diagonal blocks of m in the split _parity_bases gives, each with
    its multiplicity: Q^T M Q for each basis, made exactly symmetric from
    its lower triangle, cut at its pieces' column ranges. M commutes with
    the basis's group, so row i of Q^T M Q is sqrt|O_i| times row rep_i of
    M Q, rep_i the lowest node of the orbit O_i of column i: one product
    over the representatives' rows of M, about 1/|G| of it.

    The split is checked against the whole of m, which stores each entry
    once: sum mult_i tr M_i = tr M and sum mult_i ||M_i||_F^2 = ||M||_F^2,
    to 1e-12 * n * scale and 1e-12 * n * scale^2 for a bound scale >=
    ||M||_2, or SolverError. Both hold exactly for a correct split, whose
    dropped couplings are zero, so a wrong multiplicity or a symmetry kept
    wrongly raises."""
    blocks = []
    for q, pieces, mult in bases:
        qt = q.T.tocsr()  # row i lists O_i in ascending order
        mq = m[qt.indices[qt.indptr[:-1]]] @ q
        mq.data *= np.repeat(np.sqrt(np.diff(qt.indptr)), np.diff(mq.indptr))
        low = sp.tril(mq, format="csr")
        full = (low + sp.tril(low, -1).T).tocsr()
        blocks += [(full[p, p], mult) for p in pieces]
    # sums of squares by reduction, not numpy's BLAS dot: its threads, woken
    # past 10^4 entries, would spin beside scipy's (see _ldl_update)
    _check_identities(
        "the split's blocks",
        sum(mult * b.diagonal().sum() for b, mult in blocks) - m.diagonal().sum(),
        sum(mult * np.square(b.data).sum() for b, mult in blocks)
        - np.square(m.data).sum(),
        m.shape[0], scale)
    return blocks


def dense_spectrum(op: SymmetricOperator) -> Spectrum:
    """All eigenvalues, one diagonal block of the split by symmetry
    characters and connected pieces (_parity_bases) after another, each
    repeated by its multiplicity. The split is checked against the operator
    (_blocks), and each block by _checked_eigenvalues against its own trace
    and Frobenius norm, both at the row-sum norm of the operator, which
    bounds every block's.

    A block is densified once, in LAPACK's column-major layout, and the
    reduction overwrites that copy; the identities read the sparse block,
    whose CSR storage holds each entry once. So the largest dense array is
    the largest block: about a quarter of n on a mask with two mirrors, and
    on a mask with all eight symmetries of the square too, where the block
    of the two-dimensional character is that size and the four others are
    an eighth."""
    _check_dense(op.n_rows)
    scale = max(op.norm_estimate(), 1.0)
    values = []
    for m, mult in _blocks(op.matrix, _parity_bases(op), scale):
        values.append(np.repeat(_checked_eigenvalues(
            m.toarray(order="F"), m.diagonal().sum(), m.data @ m.data, scale), mult))
    return Spectrum("dirichlet", np.concatenate(values), cutoff=math.inf,
                    source="grid")


def _banded_cholesky(a: sp.csr_matrix) -> np.ndarray:
    """The Cholesky factor A = L L^T in LAPACK's lower band storage,
    lb[t, j] = L[j + t, j]; SolverError when A is not positive definite."""
    low = sp.tril(a, format="coo")
    ab = np.zeros((int((low.row - low.col).max(initial=0)) + 1, a.shape[0]))
    ab[low.row - low.col, low.col] = low.data
    try:
        return la.cholesky_banded(ab, lower=True, overwrite_ab=True)
    except la.LinAlgError as exc:
        raise SolverError(f"pencil eigensolve failed: {exc}") from exc


def _pencil_block(a: sp.csr_matrix, s: sp.csr_matrix) -> np.ndarray:
    """Eigenvalues of the pencil (A^2 + S, A) for a banded A, checked by
    _checked_eigenvalues; see generalized_spectrum."""
    lb = _banded_cholesky(a)
    n, w = a.shape[0], lb.shape[0] - 1
    c = np.zeros((n, n), order="F")
    diagonals = c.T.reshape(-1)  # a view: C[i + d, i] is diagonals[d::n + 1][i]
    for d in range(w + 1):
        diagonals[d::n + 1][:n - d] = np.einsum("ti,ti->i", lb[d:, :n - d],
                                                lb[:w + 1 - d, d:])
    s = sp.tril(s, format="coo")
    s.eliminate_zeros()
    j = np.union1d(s.row, s.col)
    if j.size:  # S = 0 when B = A^2
        s_jj = np.zeros((j.size, j.size), order="F")
        s_jj[np.searchsorted(j, s.row), np.searchsorted(j, s.col)] = s.data
        y = np.zeros((n, j.size), order="F")
        y[j, np.arange(j.size)] = 1.0
        y, info = lapack.dtbtrs(lb, y, uplo="L", overwrite_b=1)
        if info != 0:
            raise SolverError(f"pencil reduction failed: dtbtrs info {info}")
        z = blas.dsymm(1.0, s_jj, y, side=1, lower=1)
        c = blas.dsyr2k(0.5, y, z, beta=1.0, c=c, lower=1, overwrite_c=1)
        del y, z  # before C is reduced
    diag = c.diagonal()
    scale = max(lapack.dlange("1", c) + lapack.dlange("I", c), 1.0)
    frob2 = 2.0 * lapack.dlange("F", c) ** 2 - diag @ diag
    return _checked_eigenvalues(c, diag.sum(), frob2, scale)


def generalized_spectrum(pencil: OperatorPencil, k: int | None = None) -> Spectrum:
    """Lowest k eigenvalues of B u = mu A u; a truncated spectrum is complete
    below its cutoff, the (k+1)-th value.

    The pencil is split by the symmetries that both A and B commute with
    and by its connected pieces (_parity_bases) into the block pencils
    (Q^T B Q, Q^T A Q), solved one after another; their values, each
    repeated by its block's multiplicity, are merged and sorted. The
    splits of A and of S = B - A^2 are checked against the whole (_blocks).
    Each block is reduced to C = L^-1 B L^-T for the banded
    Cholesky factor A = L L^T (columns of Q in slab order of the
    fundamental domain, which sets the bandwidth w), formed in the
    lower triangle of one column-major array as C = L^T L + Y S_JJ Y^T.
    S = B - A^2 is sparse: for the assembled forms B = A^2 + R^T R, with R
    the rows of D outside the mask, so J, the orbits where Q^T S Q has an
    entry, are those next to the boundary; for any other pencil J grows and
    C stays exact, since Q^T A^2 Q = (Q^T A Q)^2 when A commutes with the
    symmetries and couples no two pieces. Y = L^-1 I_J is one banded
    triangular solve, L^T L is written diagonal by diagonal, and the
    rank-|J| term is added by one BLAS-3 ``syr2k``. C's eigenvalues are
    then computed in place and checked by _checked_eigenvalues, with the
    scale max row sum + max column sum of C's lower triangle."""
    _check_dense(pencil.n_rows)
    a, b = pencil.a.matrix, pencil.b.matrix
    bases = _parity_bases(pencil)
    norm_a = max(pencil.a.norm_estimate(), 1.0)
    blocks = zip(_blocks(a, bases, norm_a),
                 _blocks(b - a @ a, bases, pencil.b.norm_estimate() + norm_a**2))
    mu = np.sort(np.concatenate([np.repeat(_pencil_block(ma, ms), mult)
                                 for (ma, mult), (ms, _) in blocks]))
    cutoff = math.inf
    if k is not None and k < mu.size:
        mu, cutoff = mu[:k], float(mu[k])
    return Spectrum("buckling", mu, cutoff=cutoff, source="grid")


def _complete_multiplicities(lu, w, v, k, tol, rng):
    """Add the copies of repeated eigenvalues that ARPACK missed.

    A Krylov sequence sees each eigenspace once, so a copy that roundoff
    never brought into it is absent, and a larger value takes its place.
    Each probe runs ARPACK on the inverse restricted to the orthogonal
    complement of the found vectors, from a fresh random vector (the first
    start vector has no component along a missed copy); a value at most
    the k-th one (with ties at relative 10 * tol) joins the spectrum, and
    the probing stops at the first value above it. A Ritz pair (1/w, x) of
    the inverse at ARPACK's relative tolerance tol / 10 leaves its residual
    along the next Lanczos vector, which the inverse has smoothed, so its
    residual in A is of the order of tol * w / 10 rather than tol * |A| /
    10, inside the check tol * w + eps * |A| of _block_lowest, which refines
    a pair that misses it; eight Lanczos vectors keep the probe's memory to
    a few copies of v. The deflation x - V (V^T x) is two ``dgemv`` calls on
    a column-major copy of V, in scipy's BLAS for the reason _ldl_update
    gives.
    """
    n = v.shape[0]
    while v.shape[1] < n:
        def deflate(x, vf=np.asfortranarray(v)):
            return blas.dgemv(-1.0, vf, blas.dgemv(1.0, vf, x, trans=1),
                              beta=1.0, y=x)

        def deflated_solve(x, deflate=deflate):
            return deflate(lu.solve(deflate(x)))

        nu, x = spla.eigsh(spla.LinearOperator((n, n), deflated_solve,
                                               dtype=float),
                           k=1, which="LA", v0=rng.standard_normal(n),
                           ncv=min(n, 8), tol=tol / 10)
        if nu[0] * w[k - 1] * (1 + 10 * tol) < 1.0:
            break
        w = np.append(w, 1.0 / nu[0])
        order = np.argsort(w)
        w, v = w[order], np.hstack([v, x])[:, order]
        keep = w <= w[k - 1] * (1 + 10 * tol)
        w, v = w[keep], v[:, keep]
    return w[:k], v[:, :k]


def _residuals(m, w, v) -> np.ndarray:
    return np.linalg.norm(m @ v - v * w, axis=0)


def _residual_bound(w, tol: float, scale: float) -> np.ndarray:
    """The residual each pair must meet: min(tol * |A|, tol * |w| + eps * |A|)."""
    return np.minimum(tol * scale, tol * np.abs(w) + np.finfo(float).eps * scale)


def _block_lowest(m: sp.csr_matrix, k: int, tol: float, scale: float) -> np.ndarray:
    """Lowest k eigenvalues of one block of the split, each pair checked:
    ||M v - w v|| <= min(tol * |A|, tol * |w| + eps * |A|) for the operator
    scale |A|, and the lowest value positive, or SolverError is raised. The
    second bound is relative to the value itself, up to the rounding of the
    residual's own evaluation, so it still means something where |A| is
    many orders above the lowest values, as for the bilaplacian.

    ARPACK's shift-invert Lanczos at zero from a fixed-seed random vector,
    completed by _complete_multiplicities; dense for k = n, which ARPACK
    cannot do, and refused like every dense solve above DENSE_LIMIT. The
    block is factored once per call, and the factor is dropped when the
    call returns. When a Lanczos pair misses the bound, the block's pairs
    take one step of inverse iteration with the block's factor and a
    Rayleigh-Ritz step on the span, and are checked again: ARPACK leaves a
    probe's residual along the next Lanczos vector, and the inverse damps
    it by the ratio of the eigenvalues. Pairs that meet the bound are
    returned untouched.

    The block is symmetric positive definite, so elimination is stable
    without row interchanges: SuperLU factors it in symmetric mode (a
    minimum-degree order on M + M^T, diagonal pivots), with about half the
    fill of its default column order and partial pivoting."""
    n = m.shape[0]
    if k == n:
        _check_dense(n)
        w, v = la.eigh(m.toarray())
        resid = _residuals(m, w, v)
    else:
        rng = np.random.default_rng(0)
        # m is exactly symmetric, so its CSR arrays are its CSC arrays
        csc = sp.csc_matrix((m.data, m.indices, m.indptr), shape=m.shape)
        lu = spla.splu(csc, permc_spec="MMD_AT_PLUS_A",
                       diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
        w, v = spla.eigsh(m, k=k, sigma=0, which="LM", v0=rng.standard_normal(n),
                          OPinv=spla.LinearOperator((n, n), lu.solve, dtype=float),
                          tol=tol / 10)
        w, v = _complete_multiplicities(lu, w, v, k, tol, rng)
        resid = _residuals(m, w, v)
        if np.any(resid > _residual_bound(w, tol, scale)):
            q = np.linalg.qr(lu.solve(v))[0]
            w, s = la.eigh(q.T @ (m @ q))
            resid = _residuals(m, w, q @ s)
    bound = _residual_bound(w, tol, scale)
    if np.any(resid > bound):
        i = np.argmax(resid - bound)
        raise SolverError(
            f"residual {resid[i]:.3e} of the pair at {w[i]:.6g} exceeds "
            f"min({tol:g}*|A|, {tol:g}*|w| + eps*|A|) = {bound[i]:.3e}"
        )
    if w.min() <= 0:
        raise SolverError(f"operator is not positive definite: eigenvalue "
                          f"{w.min():.3e}")
    return w


def lowest_k(op: SymmetricOperator, k: int, tol: float = 1e-8) -> Spectrum:
    """Lowest k eigenvalues by ARPACK's implicitly restarted Lanczos in
    shift-invert mode at zero (``scipy.sparse.linalg.eigsh``) on each
    diagonal block Q^T A Q of _parity_bases, merged with each value repeated
    by its block's multiplicity; the split is checked against A (_blocks).
    Within a block, missed copies of repeated eigenvalues are added by
    deflated probes, and every pair is checked where it is solved
    (_block_lowest). The residual in the block is A's own for (w, Q v),
    since A Q = Q (Q^T A Q) and Q is orthonormal.

    A block of n_i of the n nodes with multiplicity m_i can hold at most
    cap_i = min(ceil(k / m_i), n_i) distinct values of the lowest k. It is
    first asked for its share, min(cap_i, ceil(k * n_i / n) + 2) pairs: a
    doubled block spans 2 n_i dimensions, so its share of distinct values
    is the same. Let w_k be the k-th smallest value of the merge. A block
    is complete when it was asked for cap_i pairs or when its largest value
    lies above w_k (1 + 10 tol), the tie tolerance of
    _complete_multiplicities: its missing values lie above that too. A
    block short of that is asked again for min(cap_i, 2 p) pairs, p the
    pairs it holds, until it is complete, with w_k taken again from the
    merge after each solve. A solve for more pairs only adds values, so
    w_k only falls and a block found complete stays complete: the lowest k
    of the final merge are the lowest k of A.

    The blocks are solved in split order, each factored afresh by
    _block_lowest, so one factor is held at a time. The block that falls
    short is, in practice, the first: the trivial character's, whose
    quotient has Neumann conditions on the mirror lines and so more low
    values than its share.

    Start vectors are fixed-seed random, so reruns are bit-identical. A
    truncated spectrum is cut off at its largest value, below which every
    eigenvalue is returned."""
    n = op.n_rows
    if not 1 <= k <= n:
        raise SolverError(f"k={k} out of range for n={n}")
    scale = max(op.norm_estimate(), 1.0)
    try:
        blocks = _blocks(op.matrix, _parity_bases(op), scale)
        caps = [min(-(-k // mult), m.shape[0]) for m, mult in blocks]
        asks = [min(cap, -(-k * m.shape[0] // n) + 2)
                for (m, _), cap in zip(blocks, caps)]
        solved = [_block_lowest(m, ask, tol, scale)
                  for (m, _), ask in zip(blocks, asks)]

        def merged():
            return np.concatenate([np.repeat(w, mult)
                                   for w, (_, mult) in zip(solved, blocks)])

        for i, ((m, _), cap) in enumerate(zip(blocks, caps)):
            while (solved[i].size < cap and solved[i].max()
                   <= np.partition(merged(), k - 1)[k - 1] * (1 + 10 * tol)):
                solved[i] = _block_lowest(m, min(cap, 2 * solved[i].size),
                                          tol, scale)
    except SolverError:
        raise
    except (RuntimeError, la.LinAlgError) as exc:
        raise SolverError(f"shift-invert eigensolve failed: {exc}") from exc
    w = np.sort(merged())[:k]
    cutoff = math.inf if k == n else float(w[-1])
    return Spectrum("dirichlet", w, cutoff=cutoff, source="grid")


# A slab whose elimination would add an entry above this multiple of the
# matrix scale to the next slab is merged into it instead.
SLAB_GROWTH = 1e2


def _ldl_update(s: np.ndarray, e: np.ndarray, tol: float):
    """Number of negative eigenvalues of the symmetric s and the update
    e^T s^-1 e, from the Bunch-Kaufman factor s = P L D L^T P^T (LAPACK's
    ``dsytrf`` with its queried workspace, converted by ``dsyconv``); only
    the lower triangle of s is read. None when s is numerically singular:
    ``dsytrf`` reports an exactly zero pivot, or a 1x1 or 2x2 pivot block of
    D has an eigenvalue of magnitude at most tol.

    By Sylvester's law s has the inertia of D, whose blocks are diagonalized
    in closed form. The update is Y^T D^-1 Y with Y = L^-1 P^T e, from one
    triangular solve; ``dsyconv`` leaves the interchanges of P^T as the
    forward row swaps that ``dlaswp`` applies, the first row of each 2x2
    block swapping with itself. Every BLAS call, the product included, goes
    to scipy's BLAS: numpy links its own copy of OpenBLAS, and switching
    between the two thread pools costs milliseconds per call."""
    lwork = int(lapack.dsytrf_lwork(s.shape[0], lower=1)[0])
    ldu, ipiv, info = lapack.dsytrf(s, lower=1, lwork=lwork)
    if info != 0:
        return None
    ldu, off, _ = lapack.dsyconv(ldu, ipiv, lower=1, overwrite_a=1)
    k = np.flatnonzero(ipiv < 0)[::2]  # first rows of the 2x2 blocks
    d = np.diagonal(ldu)
    a, c, b = d[k], d[k + 1], off[k]
    det = a * c - b * b
    big = 0.5 * (a + c)
    big += np.copysign(np.hypot(0.5 * (a - c), b), big)
    lam = d.copy()
    lam[k], lam[k + 1] = big, det / big
    if np.abs(lam).min() <= tol:
        return None
    piv = np.abs(ipiv) - 1
    piv[k] = k
    y = blas.dtrsm(1.0, ldu, lapack.dlaswp(e, piv), lower=1, diag=1,
                   overwrite_b=1)
    inv = 1.0 / lam
    inv[k], inv[k + 1] = c / det, a / det
    z = y * inv[:, None]
    z[k] -= (b / det)[:, None] * y[k + 1]
    z[k + 1] -= (b / det)[:, None] * y[k]
    return int((lam < 0).sum()), blas.dgemm(1.0, y, z, trans_a=1)


def _slab_inertia(m: sp.csr_matrix, scale: float) -> int:
    """Number of negative eigenvalues of a sparse symmetric matrix by block
    elimination over slabs of consecutive rows.

    Slabs as wide as the half-bandwidth w make the matrix block tridiagonal,
    so its inertia is the sum of the inertias of the slab Schur complements
    (Haynsworth additivity with Sylvester's law). Each complement is
    factored by Bunch-Kaufman LDL^T per slab (_ldl_update). It is merged
    with the next slab instead of eliminated when ``dsytrf`` reports a zero
    pivot, when a pivot block has an eigenvalue of magnitude at most
    1e-12 * scale, or when its update to the next slab is non-finite or has
    an entry above SLAB_GROWTH * scale. The last block is diagonalized, and
    only a singular last block raises ShiftOnEigenvalueError. Each slab's
    rows are read once from the CSR arrays.
    """
    n = m.shape[0]
    rows = np.repeat(np.arange(n), np.diff(m.indptr))
    w = max(int(np.abs(rows - m.indices).max(initial=0)), 1)
    tol = 1e-12 * max(scale, 1.0)

    def band(r0, r1):
        # rows r0:r1 over columns r0 - w : r1 + w, which hold all their entries
        i, j = m.indptr[r0], m.indptr[r1]
        out = np.zeros((r1 - r0, r1 - r0 + 2 * w))
        out[rows[i:j] - r0, m.indices[i:j] - (r0 - w)] = m.data[i:j]
        return out

    neg = 0
    lo, hi = 0, min(w, n)
    s = band(lo, hi)[:, w:w + hi]
    while hi < n:
        nxt = min(hi + w, n)
        below = band(hi, nxt)
        d = below[:, w:w + nxt - hi]
        # only the last w rows of the block couple to the next slab
        e = np.zeros((hi - lo, nxt - hi), order="F")
        e[-w:] = below[:, :w].T
        step = _ldl_update(s, e, tol)
        if step is not None and np.abs(step[1]).max() <= SLAB_GROWTH * scale:
            neg += step[0]
            s = d - step[1]
            lo, hi = hi, nxt
            continue
        s = np.block([[s, e], [e.T, d]])
        hi = nxt
    lam = la.eigh(s, eigvals_only=True)
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
    guarded slab elimination with a Bunch-Kaufman LDL^T per slab, in
    O(n w^2) time for half-bandwidth w, grid nodes in slab order of the
    interior (_slab_label). A slab is merged into the next one
    instead of eliminated when its factor has a zero pivot or a pivot block
    with an eigenvalue of magnitude at most 1e-12 * scale, or when its
    update is non-finite or exceeds SLAB_GROWTH * scale.

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
    grid = (target.a if isinstance(target, OperatorPencil) else target).grid
    if grid is not None:
        x, y = np.nonzero(grid.interior)
        order = np.argsort(_slab_label(x - x.min(), y - y.min()))
        if (np.diff(order) < 0).any():  # else node order is slab order
            shifted = shifted[order][:, order]
    return _slab_inertia(shifted, scale)
