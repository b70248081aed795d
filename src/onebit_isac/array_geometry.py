"""ULA steering vectors, their angle derivatives, and target-response
construction for point-like and extended targets."""

from dataclasses import dataclass, field

import numpy as np

from .linalg import psd_sqrt, unvec, vec, complex_normal

HALF_PI = np.pi / 2.0


def _check_angle(theta):
    if not (-HALF_PI - 1e-12 <= theta <= HALF_PI + 1e-12):
        raise ValueError(f"angle {theta} outside [-pi/2, pi/2]")


def steering(n, theta):
    """Unit-norm steering vector of an n-element half-wavelength ULA.

    Entry m is exp(-j pi m sin(theta)) / sqrt(n).
    """
    if n < 1:
        raise ValueError("array needs at least one element")
    _check_angle(theta)
    m = np.arange(n)
    return np.exp(-1j * np.pi * m * np.sin(theta)) / np.sqrt(n)


def steering_derivative(n, theta):
    """Elementwise angle derivative of :func:`steering`."""
    if n < 1:
        raise ValueError("array needs at least one element")
    _check_angle(theta)
    m = np.arange(n)
    return steering(n, theta) * (-1j * np.pi * m * np.cos(theta))


class BlockRankOneOperator:
    """I_L kron B applied without materialization, B = sum_i u_i v_i^T.

    Acting on x = vec(X) this returns vec(B @ X); the rank-one kernels keep
    every apply at O(n L) instead of O(n^2 L^2).
    """

    def __init__(self, factors, n_t, n_r, block_len):
        self.factors = [(np.asarray(u), np.asarray(v)) for u, v in factors]
        self.n_t = int(n_t)
        self.n_r = int(n_r)
        self.block_len = int(block_len)

    @property
    def shape(self):
        return (self.n_r * self.block_len, self.n_t * self.block_len)

    def kernel(self):
        b = np.zeros((self.n_r, self.n_t), dtype=complex)
        for u, v in self.factors:
            b += np.outer(u, v)
        return b

    def apply(self, x):
        x = np.asarray(x)
        if x.size != self.n_t * self.block_len:
            raise ValueError(
                f"expected length {self.n_t * self.block_len}, got {x.size}"
            )
        xm = unvec(x, self.n_t, self.block_len)
        out = np.zeros((self.n_r, self.block_len), dtype=complex)
        for u, v in self.factors:
            out += np.outer(u, v @ xm)
        return vec(out)

    def adjoint(self, y):
        y = np.asarray(y)
        if y.size != self.n_r * self.block_len:
            raise ValueError(
                f"expected length {self.n_r * self.block_len}, got {y.size}"
            )
        ym = unvec(y, self.n_r, self.block_len)
        out = np.zeros((self.n_t, self.block_len), dtype=complex)
        for u, v in self.factors:
            out += np.outer(v.conj(), u.conj() @ ym)
        return vec(out)

    def dense(self, max_entries=65536):
        total = self.shape[0] * self.shape[1]
        if total > max_entries:
            raise ValueError(f"refusing to materialize {total} entries")
        return np.kron(np.eye(self.block_len), self.kernel())


def pt_response_operator(theta, block_len, n_t, n_r):
    """Structured operator for I_L kron (a_r a_t^T)."""
    if block_len < 1:
        raise ValueError("block length must be positive")
    a_r = steering(n_r, theta)
    a_t = steering(n_t, theta)
    return BlockRankOneOperator([(a_r, a_t)], n_t, n_r, block_len)


def pt_response_derivative_operator(theta, block_len, n_t, n_r):
    """Structured operator for the angle derivative of the response,
    I_L kron (da_r a_t^T + a_r da_t^T)."""
    if block_len < 1:
        raise ValueError("block length must be positive")
    a_r = steering(n_r, theta)
    a_t = steering(n_t, theta)
    da_r = steering_derivative(n_r, theta)
    da_t = steering_derivative(n_t, theta)
    return BlockRankOneOperator([(da_r, a_t), (a_r, da_t)], n_t, n_r, block_len)


def exponential_correlation(n, coeff=0.5):
    """Correlation matrix [Phi]_{m,n} = coeff**|m - n| with real coeff."""
    idx = np.arange(n)
    return coeff ** np.abs(idx[:, None] - idx[None, :]).astype(float)


def et_prior_covariance(phi_r, phi_t):
    """Prior covariance of the vectorized response, transpose(Phi_T) kron Phi_R."""
    phi_r = np.asarray(phi_r)
    phi_t = np.asarray(phi_t)
    psd_sqrt(phi_r)  # validates PSD
    psd_sqrt(phi_t)
    c = np.kron(phi_t.T, phi_r)
    return (c + c.conj().T) / 2.0


def et_sample(phi_r, phi_t, rng):
    """Draw a response matrix Phi_R^{1/2} A_iid Phi_T^{1/2}, A_iid iid CN(0,1)."""
    sr = psd_sqrt(phi_r)
    st = psd_sqrt(phi_t)
    a_iid = complex_normal(rng, (sr.shape[0], st.shape[0]))
    return sr @ a_iid @ st


@dataclass(frozen=True)
class PtTarget:
    """Point-like target: scalar direction plus reflection-coefficient power."""

    theta: float
    sigma_alpha_sq: float = 1.0

    def __post_init__(self):
        if self.sigma_alpha_sq <= 0:
            raise ValueError("sigma_alpha_sq must be positive")
        _check_angle(self.theta)


@dataclass(frozen=True)
class EtTarget:
    """Extended target: Kronecker-correlated Gaussian response prior."""

    phi_r: np.ndarray
    phi_t: np.ndarray
    c_aa: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.c_aa is None:
            object.__setattr__(self, "c_aa", et_prior_covariance(self.phi_r, self.phi_t))

    @classmethod
    def from_kronecker(cls, phi_r, phi_t):
        return cls(np.asarray(phi_r), np.asarray(phi_t))

    def sample(self, rng):
        return et_sample(self.phi_r, self.phi_t, rng)
