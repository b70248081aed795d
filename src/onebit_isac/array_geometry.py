"""ULA steering vectors, their angle derivatives, the receive basis of the
point-target chain, and target-response construction for point-like and
extended targets."""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import check_count, complex_from_normals, psd_sqrt, unvec, vec

HALF_PI = np.pi / 2.0


def _check_angle(theta):
    if not np.all((-HALF_PI - 1e-12 <= theta) & (theta <= HALF_PI + 1e-12)):
        raise ValueError(f"angle {theta} outside [-pi/2, pi/2]")


def steering(n, theta):
    """Unit-norm steering vector of an n-element half-wavelength ULA.

    Entry m is exp(-j pi m sin(theta)) / sqrt(n). An array of angles gives
    one vector per angle along a new last axis. Raises ValueError unless n
    is an integer of at least 1.
    """
    check_count("n", n)
    _check_angle(theta)
    m = np.arange(n)
    return np.exp(-1j * np.pi * m * np.sin(theta)[..., None]) / np.sqrt(n)


def steering_derivative(n, theta):
    """Elementwise angle derivative of :func:`steering`."""
    check_count("n", n)
    _check_angle(theta)
    m = np.arange(n)
    return steering(n, theta) * (-1j * np.pi * m * np.cos(theta))


def receive_basis(n_r, theta):
    """Orthonormal n_r x k basis Q (k = min(n_r, 2)) of span{a_r, da_r/dtheta}.

    Q = [a_r, a_r o (m - mean(m)) / norm] with m = 0..n_r-1. Since
    da_r = a_r o (-j pi cos(theta) m), Q holds it at every angle, endfire
    included; n_r = 1 gives Q = [a_r].
    """
    a_r = steering(n_r, theta)
    if n_r == 1:
        return a_r[:, None]
    tilt = a_r * (np.arange(n_r) - (n_r - 1) / 2.0)
    return np.column_stack((a_r, tilt / np.linalg.norm(tilt)))


class BlockRankOneOperator:
    """I_L kron (u v^T) applied without materialization.

    Acting on x = vec(X) this returns vec(u (v^T X)) at O(n L) cost instead
    of O(n^2 L^2).
    """

    def __init__(self, u, v, block_len):
        self.u = np.asarray(u)
        self.v = np.asarray(v)
        self.block_len = int(block_len)

    def apply(self, x):
        x = np.asarray(x)
        if x.size != self.v.size * self.block_len:
            raise ValueError(f"expected length {self.v.size * self.block_len}, got {x.size}")
        return vec(np.outer(self.u, self.v @ unvec(x, self.v.size, self.block_len)))


def pt_response_operator(theta, block_len, n_t, n_r):
    """Structured operator for I_L kron (a_r a_t^T); block_len must be an
    integer of at least 1."""
    check_count("block_len", block_len)
    return BlockRankOneOperator(steering(n_r, theta), steering(n_t, theta), block_len)


def exponential_correlation(n, coeff=0.5):
    """n x n correlation matrix [Phi]_{m,n} = coeff**|m - n| with real
    coeff; n must be an integer of at least 1."""
    check_count("n", n)
    idx = np.arange(n)
    return coeff ** np.abs(idx[:, None] - idx[None, :]).astype(float)


@dataclass(frozen=True)
class PtTarget:
    """Point-like target: scalar direction plus reflection-coefficient power."""

    theta: float
    sigma_alpha_sq: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.sigma_alpha_sq < math.inf:
            raise ValueError(f"sigma_alpha_sq must be positive and finite, "
                             f"got {self.sigma_alpha_sq!r}")
        _check_angle(self.theta)


@dataclass(frozen=True)
class EtTarget:
    """Extended target: Kronecker-correlated Gaussian response prior.

    c_aa is the prior covariance of the vectorized response,
    transpose(Phi_T) kron Phi_R. Both correlations are checked PSD once,
    here; their square roots serve every response of :meth:`responses`.
    """

    phi_r: np.ndarray
    phi_t: np.ndarray
    c_aa: np.ndarray = field(init=False, repr=False)
    roots: tuple = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "roots", (psd_sqrt(self.phi_r), psd_sqrt(self.phi_t)))
        c = np.kron(np.asarray(self.phi_t).T, self.phi_r)
        object.__setattr__(self, "c_aa", (c + c.conj().T) / 2.0)

    def responses(self, normals):
        """Responses Phi_R^{1/2} A Phi_T^{1/2} from standard normals of shape
        (..., 2 n_r n_t): the real parts of the n_r x n_t matrix A row by row,
        then its imaginary parts, so A is iid CN(0, 1). A (T, 2 n_r n_t)
        stack gives T responses, each with the bits of its own 2-D products.
        """
        sr, st = self.roots
        k = self.c_aa.shape[0]
        shape = np.shape(normals)[:-1] + (sr.shape[0], st.shape[0])
        return sr @ complex_from_normals(normals[..., :k].reshape(shape),
                                         normals[..., k:].reshape(shape)) @ st
