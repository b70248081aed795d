"""Shared complex linear algebra: column-stacked vectorization, guarded
Hermitian solves, PSD square roots, power iteration, the diagonal-plus-low-
rank matrix type, and the structured operators (X^T kron I, I kron H) used
throughout the library."""

import math

import numpy as np
import scipy.linalg as sla

_TINY = np.finfo(float).tiny


def vec(a):
    """Column-stacking vectorization, vec(A) = [A[:,0]; A[:,1]; ...]."""
    return np.asarray(a).reshape(-1, order="F")


def unvec(v, rows, cols):
    """Inverse of :func:`vec`."""
    v = np.asarray(v)
    if v.size != rows * cols:
        raise ValueError(f"cannot unvec length {v.size} into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def hermitian_factor(a, jitter_scale=1e-12):
    """Cholesky factor of a Hermitian PSD matrix with jitter fallback.

    Returns (factor, lower_flag) in the scipy ``cho_factor`` convention.
    When the plain factorization fails, the diagonal is lifted by
    jitter_scale * trace(a)/n, escalating twice by 10x before giving up.
    """
    a = np.asarray(a)
    n = a.shape[0]
    base = jitter_scale * max(np.trace(a).real / max(n, 1), np.finfo(float).tiny)
    for k in range(4):
        jitter = 0.0 if k == 0 else base * 10.0 ** (k - 1)
        try:
            return sla.cho_factor(a + jitter * np.eye(n), lower=True)
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError("matrix not positive definite even after jitter")


def hermitian_solve(a, b, jitter_scale=1e-12):
    """Solve a @ x = b for Hermitian positive definite a (jittered Cholesky)."""
    return sla.cho_solve(hermitian_factor(a, jitter_scale), np.asarray(b))


def chol_logdet(factor):
    """log det from a ``cho_factor`` result."""
    c, _ = factor
    return 2.0 * np.sum(np.log(np.abs(np.diag(c))))


def psd_sqrt(a, tol=1e-10):
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues in [-tol * scale, 0) are clamped to zero; anything more
    negative raises, since the input is then not a correlation/covariance.
    """
    a = np.asarray(a)
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    scale = max(abs(w[-1]), 1.0)
    if w[0] < -tol * scale:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def _norm(v):
    """np.linalg.norm of a vector, by the same sums, minus its dispatch cost
    (power iteration calls it once per matvec)."""
    if np.iscomplexobj(v):
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(v.dot(v))


def power_iteration(matvec, n, tol=1e-8, max_iter=10000, seed=0, v0=None):
    """Largest eigenvalue of a Hermitian PSD operator given by ``matvec``.

    Returns (lam, v, converged); v is the last iterate, reusable as a warm
    start. Deterministic for a fixed seed / v0.
    """
    if v0 is not None and np.linalg.norm(v0) > 0:
        v = np.asarray(v0, dtype=complex)
    else:
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = v / np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = matvec(v)
        nw = _norm(w)
        if nw == 0.0:
            return 0.0, v, True
        lam_new = float(np.vdot(v, w).real)
        v = w / nw
        if abs(lam_new - lam) <= tol * max(abs(lam_new), _TINY):
            return lam_new, v, True
        lam = lam_new
    return lam, v, False


class DiagLowRank:
    """Matrix diag(d) + U V^H held by its factors (n x k U and V, k << n).

    Products, sums, inverses (Woodbury) and traces stay in this form at
    O(n k^2) cost; ``dense()`` materializes the matrix for checks only.
    """

    __slots__ = ("d", "u", "v")

    def __init__(self, d, u, v):
        self.d = np.asarray(d)
        self.u = np.asarray(u)
        self.v = np.asarray(v)

    @property
    def rank(self):
        return self.u.shape[1]

    def _lr_diag(self):
        return np.einsum("ik,ik->i", self.u, self.v.conj())

    def diag(self):
        return self.d + self._lr_diag()

    def matvec(self, x):
        """M @ x for a vector or an n x m matrix x."""
        x = np.asarray(x)
        dx = self.d * x if x.ndim == 1 else self.d[:, None] * x
        return dx + self.u @ (self.v.conj().T @ x)

    def scaled(self, left=None, right=None):
        """diag(left) M diag(right) for real or complex scaling vectors."""
        d, u, v = self.d, self.u, self.v
        if left is not None:
            d, u = left * d, left[:, None] * u
        if right is not None:
            d, v = d * right, np.conj(right)[:, None] * v
        return DiagLowRank(d, u, v)

    def with_diagonal(self, target):
        """Same off-diagonal part with the diagonal pinned to ``target``
        (to the last bit where ``target`` is zero)."""
        return DiagLowRank(target - self._lr_diag(), self.u, self.v)

    def __add__(self, other):
        return DiagLowRank(self.d + other.d, np.concatenate((self.u, other.u), axis=1),
                           np.concatenate((self.v, other.v), axis=1))

    def __matmul__(self, other):
        if not isinstance(other, DiagLowRank):
            return self.matvec(other)
        # (Da + Ua Va^H)(Db + Ub Vb^H)
        #   = Da Db + (Da Ub + Ua Va^H Ub) Vb^H + Ua (Db^H Va)^H
        core = self.v.conj().T @ other.u
        u = np.concatenate((self.d[:, None] * other.u + self.u @ core, self.u), axis=1)
        v = np.concatenate((other.v, np.conj(other.d)[:, None] * self.v), axis=1)
        return DiagLowRank(self.d * other.d, u, v)

    def inv(self):
        """Woodbury inverse; needs a diagonal with no zero entry."""
        dinv = 1.0 / self.d
        if self.rank == 0:
            return DiagLowRank(dinv, self.u, self.v)
        ud = dinv[:, None] * self.u
        k = np.eye(self.rank) + self.v.conj().T @ ud
        # D^-1 - D^-1 U K^-1 V^H D^-1
        return DiagLowRank(dinv, -np.linalg.solve(k.T, ud.T).T,
                           np.conj(dinv)[:, None] * self.v)

    def solve(self, b):
        """M^{-1} b for a vector, matrix or DiagLowRank right-hand side."""
        return self.inv() @ b

    def hermitian(self):
        """(M + M^H)/2 as diag + W S W^H with W of minimal numerical rank.

        Low-rank directions whose weight is below 1e-14 times the largest one
        are dropped; that moves the matrix by at most that relative amount.
        """
        d = self.d.real
        if self.rank == 0:
            return DiagLowRank(d, self.u, self.v)
        k = self.rank
        basis = np.concatenate((self.u, self.v), axis=1)
        # unit columns keep the QR accurate when U and V differ in scale
        norms = np.linalg.norm(basis, axis=0)
        norms[norms == 0.0] = 1.0
        q, r = np.linalg.qr(basis / norms)
        r = r * norms
        core = r[:, :k] @ r[:, k:].conj().T
        lam, vecs = np.linalg.eigh((core + core.conj().T) / 2.0)
        keep = np.abs(lam) > 1e-14 * np.max(np.abs(lam))
        w = q @ vecs[:, keep]
        return DiagLowRank(d, w * lam[keep], w)

    def trace_prod(self, other):
        """tr(M @ other) for another DiagLowRank of the same size."""
        cross = np.einsum("ij,ji->", self.v.conj().T @ other.u, other.v.conj().T @ self.u)
        return (self.d @ other.d + self.d @ other._lr_diag() + other.d @ self._lr_diag()
                + cross)

    def dense(self):
        return np.diag(self.d).astype(complex) + self.u @ self.v.conj().T


def complex_normal(rng, shape, scale=1.0):
    """Circularly symmetric complex Gaussian, per-entry variance scale**2."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * (
        scale / np.sqrt(2.0)
    )


class XtildeOperator:
    """Action of X^T kron I_{n_r} without forming the Kronecker product.

    Maps a vectorized n_r x n_t response matrix A to vec(A @ X), the stacked
    length-(n_r * L) echo block.
    """

    def __init__(self, x_matrix, n_r):
        self.x = np.asarray(x_matrix)
        self.n_t, self.block_len = self.x.shape
        self.n_r = int(n_r)

    def apply(self, a):
        return vec(unvec(a, self.n_r, self.n_t) @ self.x)

    def right_multiply(self, c):
        """X~ @ C for a matrix C with n_r * n_t rows."""
        c = np.asarray(c)
        if c.shape[0] != self.n_r * self.n_t:
            raise ValueError("row count mismatch in right_multiply")
        c4 = c.reshape((self.n_r, self.n_t, c.shape[1]), order="F")
        out = np.einsum("bl,rbj->rlj", self.x, c4)
        return out.reshape((self.n_r * self.block_len, c.shape[1]), order="F")


def h_tilde_apply(h, x, block_len):
    """(I_L kron H) @ x, i.e. vec(H @ unvec(x))."""
    h = np.asarray(h)
    return vec(h @ unvec(x, h.shape[1], block_len))


def h_tilde_adjoint(h, y, block_len):
    """(I_L kron H)^H @ y."""
    h = np.asarray(h)
    return vec(h.conj().T @ unvec(y, h.shape[0], block_len))


def project_power_ball(x, power):
    """Scale x onto the ball ||x||^2 <= power when it lies outside."""
    n2 = float(np.vdot(x, x).real)
    if n2 <= power:
        return x
    return x * np.sqrt(power / n2)
