"""Estimation-accuracy metrics: the one-bit DOA bound for point-like targets
with its full derivative chain, the Bayesian trace bound for extended
targets, their infinite-resolution / quantization-unaware counterparts, and
the point-target chain factors, the point-target P = C^{-1} dC C^{-1} and
the extended-target anchor the optimizers reuse."""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import XtildeOperator, hermitian_solve, unvec
from .array_geometry import receive_basis, steering, steering_derivative
from .quantization import TWO_OVER_PI

INFINITE_CRB_FLOOR = 1e-18
SQRT_TWO_OVER_PI = math.sqrt(TWO_OVER_PI)


def _outer(u, v):
    return u.reshape(-1, 1) * v.reshape(1, -1).conj()


@dataclass
class PtModel:
    """Point-target problem data with the transmit steering vectors and the
    receive basis Q (:func:`receive_basis`) with beta = Q^H da_r."""

    theta: float
    sigma_alpha_sq: float
    sigma_v_sq: float
    n_t: int
    n_r: int
    block_len: int
    a_t: np.ndarray = field(init=False, repr=False, compare=False)
    da_t: np.ndarray = field(init=False, repr=False, compare=False)
    q: np.ndarray = field(init=False, repr=False, compare=False)
    beta: np.ndarray = field(init=False, repr=False, compare=False)
    # (waveform, factors) of the last call: the MM loop asks for the factors
    # at the anchor and at the accepted step more than once
    _last: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.sigma_alpha_sq) and self.sigma_alpha_sq >= 0.0):
            raise ValueError("target power must be finite and non-negative")
        if self.sigma_v_sq <= 0.0:
            raise ValueError("noise power must be positive")
        if self.block_len < 1:
            raise ValueError("block length must be positive")
        self.a_t = steering(self.n_t, self.theta)
        self.da_t = steering_derivative(self.n_t, self.theta)
        self.q = receive_basis(self.n_r, self.theta)
        self.beta = self.q.conj().T @ steering_derivative(self.n_r, self.theta)

    def chain_factors(self, s, s_d):
        """Per-sample pieces of the covariance chain at s = X^T a_t and
        s_d = X^T da_t: L-vectors, or (K, L) stacks for K waveforms, every
        result carrying the same leading axes.

        The diagonals are per sample because the ULA has |a_r,i|^2 = 1/n_r
        and conj(a_r) o da_r purely imaginary.
        """
        sa, sv = self.sigma_alpha_sq, self.sigma_v_sq
        gp = s[..., None] * self.beta
        gp[..., 0] += s_d
        diag_crr = sa * np.abs(s) ** 2 / self.n_r + sv
        diag_dcrr = 2.0 * sa * (s_d * s.conj()).real / self.n_r
        f = SQRT_TWO_OVER_PI / np.sqrt(diag_crr)
        d_f = -0.5 * SQRT_TWO_OVER_PI * diag_dcrr / diag_crr**1.5
        # F C_rr F + (1 - 2/pi) I has the unit quantizer diagonal; pin it
        c_pin = 1.0 - sa * np.abs(f * s) ** 2 / self.n_r
        # the diagonal of dF C F + F dC F + F C dF is analytically zero; pin it
        d_pin = -2.0 * sa * ((d_f * s + f * s_d) * (f * s).conj()).real / self.n_r
        q = f[..., None] * gp
        q[..., 0] += d_f * s
        return ChainFactors(s, s_d, gp, diag_crr, diag_dcrr, f, d_f, c_pin, d_pin, q)

    def workspace(self, x):
        """The chain factors at waveform x."""
        x = np.asarray(x, dtype=complex)
        last = self._last
        if last is not None and np.array_equal(last[0], x):
            return last[1]
        xm = unvec(x, self.n_t, self.block_len)
        fac = self.chain_factors(xm.T @ self.a_t, xm.T @ self.da_t)
        self._last = (x.copy(), fac)
        return fac

    def chain_p(self, x, quantized=True):
        """P = C^{-1} dC C^{-1} of the one-bit (or, quantized=False, the
        unquantized) chain at waveform x, with tr(P dC).

        By Sherman-Morrison C^{-1} = diag(1/d0) - c b b^H with b = h e_0 / d0
        and c = sa / (1 + sa h^H b), and sa C^{-1} h = c b, so
        P = diag(d1 / d0^2) + v b^H + b v^H in closed form.
        """
        sa = self.sigma_alpha_sq
        d0, d1, h, q = self.workspace(x).low_rank(self.sigma_v_sq, quantized)
        block_len, k = q.shape
        b = np.zeros_like(q)
        b[:, 0] = h / d0
        c = sa / (1.0 + sa * np.vdot(h, b[:, 0]).real)
        c_inv_q = q / d0[:, None] - c * np.vdot(b, q) * b
        # C^{-1} diag(d1) C^{-1} = diag(d1 / d0^2) - c (u b^H + b u^H)
        # + c^2 (b^H diag(d1) b) b b^H with u = diag(d1 / d0) b
        v = c * (c_inv_q - (d1 / d0)[:, None] * b) + 0.5 * c**2 * (d1 @ np.abs(b[:, 0]) ** 2) * b
        p_perp = d1 / d0**2
        vb = _outer(v, b)
        p = np.diag(np.repeat(p_perp, k)) + vb + vb.conj().T
        n_perp = self.n_r - k
        p4 = p.reshape(block_len, k, block_len, k)
        diag_p = np.einsum("ljlj->l", p4).real + n_perp * p_perp
        abs_p2 = np.einsum("ajbi->ab", (p4 * p4.conj()).real) + np.diag(n_perp * p_perp**2)
        return ChainP(p, diag_p, abs_p2, float(trace_p_dc(sa, p, diag_p, d1, h, q)[0]))

    def bound(self, x, quantized=True):
        """1 / tr(C^{-1} dC C^{-1} dC) at waveform x: the one-bit bound, or
        the infinite-resolution one when quantized is False; math.inf when
        the trace falls below INFINITE_CRB_FLOOR (unidentifiable direction)."""
        return bound_from_trace(self.chain_p(x, quantized).trace)


def bound_from_trace(t):
    """1 / t for the trace t = tr(P dC), or math.inf below INFINITE_CRB_FLOOR."""
    return math.inf if t < INFINITE_CRB_FLOOR else 1.0 / t


class ChainFactors(NamedTuple):
    """Per-sample pieces of the point-target chain (see
    :meth:`PtModel.chain_factors`): s = X^T a_t, s_d = X^T da_t, g' in
    receive-subspace coordinates, diag(C_rr) and its angle derivative, F
    and dF, the pinned diagonals of the one-bit C_zz_hat and its
    derivative, and q = dF g + F g'."""

    s: np.ndarray
    s_d: np.ndarray
    g_prime: np.ndarray
    diag_crr: np.ndarray
    diag_dcrr: np.ndarray
    f: np.ndarray
    d_f: np.ndarray
    c_pin: np.ndarray
    d_pin: np.ndarray
    q: np.ndarray

    def low_rank(self, sigma_v_sq, quantized):
        """(d0, d1, h, q) of the one-bit or the unquantized chain.

        In receive-subspace coordinates C = diag(d0) + sa (h e_0)(h e_0)^H
        and dC = diag(d1) + sa (q (h e_0)^H + (h e_0) q^H), each diagonal
        repeated over the k coordinates of a sample and continued on the
        complement; h lives on the first coordinate (g = s e_0). One-bit:
        h = F g, q = dF g + F g', pinned diagonals. Unquantized: h = g,
        q = g', d0 = sigma_v^2, d1 = 0.
        """
        if quantized:
            return self.c_pin, self.d_pin, self.f * self.s, self.q
        return np.full(self.s.shape, sigma_v_sq), np.zeros(self.s.shape), self.s, self.g_prime


class ChainP(NamedTuple):
    """P = C^{-1} dC C^{-1} of one chain at one waveform
    (:meth:`PtModel.chain_p`): mat is P on the receive subspace (kL x kL,
    index j + k l), diag and abs2 are the per-sample sums of P's diagonal
    (L) and of |P|^2 (L x L), the complement included, and
    trace = tr(P dC) = tr(C^{-1} dC C^{-1} dC)."""

    mat: np.ndarray
    diag: np.ndarray
    abs2: np.ndarray
    trace: float


def trace_p_dc(sa, p, diag_p, d1, h, q):
    """tr(P dC) = d1 . diag(P) + 2 sa Re((P h)^H q) for a Hermitian P (kL x
    kL, with per-sample diagonal sums diag_p) and dC = diag(d1) +
    sa (q h^H + h q^H) (:meth:`ChainFactors.low_rank`), for one waveform or
    a (K, ...) stack; returned with P h as (..., L, k)."""
    k = q.shape[-1]
    ph = (h @ p[:, ::k].T).reshape(q.shape)
    return d1 @ diag_p + 2.0 * sa * (q.conj() * ph).real.sum(axis=(-2, -1)), ph


def crb_pt(x, theta, sigma_alpha_sq, sigma_v_sq, n_r, block_len):
    """Worst-case one-bit DOA bound for a point-like target (rad^2).

    Returns math.inf when the direction is unidentifiable (trace below the
    configured floor), e.g. at theta = +/- pi/2.
    """
    x = np.asarray(x)
    return PtModel(theta, sigma_alpha_sq, sigma_v_sq, x.size // block_len, n_r,
                   block_len).bound(x)


def crb_pt_infinite_resolution(x, theta, sigma_alpha_sq, sigma_v_sq, n_r, block_len):
    """Same trace bound with the unquantized echo covariance."""
    x = np.asarray(x)
    return PtModel(theta, sigma_alpha_sq, sigma_v_sq, x.size // block_len, n_r,
                   block_len).bound(x, quantized=False)


@dataclass(frozen=True)
class EtAnchor:
    """The extended-target bound's pieces at one waveform.

    l_mat = X~ C_aa, m = M(x) and m_inv_l = M^{-1} L, where M is
    X~ C X~^H + (pi/2 - 1) diag(X~ C X~^H) + (pi/2) sigma_v^2 I for the
    one-bit bound and X~ C X~^H + sigma_v^2 I for the unquantized LMMSE
    (both Hermitian-symmetrized); gain = tr(L^H M^{-1} L) and
    bound = tr(C_aa) - gain, the one-bit bound (crb_et) or the unquantized
    LMMSE MSE (mse_et_quantization_unaware).
    """

    l_mat: np.ndarray
    m: np.ndarray
    m_inv_l: np.ndarray
    gain: float
    bound: float


def et_l_and_m(x_matrix, c_aa, sigma_v_sq, quantization_aware=True):
    """L = X~ C_aa and the Hermitian M of the extended-target bound at X.

    Unaware, M is the unquantized C_rr = X~ C_aa X~^H + sigma_v^2 I.
    """
    if sigma_v_sq <= 0.0:
        raise ValueError("noise power must be positive")
    x_matrix = np.asarray(x_matrix)
    c_aa = np.asarray(c_aa)
    op = XtildeOperator(x_matrix, c_aa.shape[0] // x_matrix.shape[0])
    l_mat = op.right_multiply(c_aa)
    # X~ C_aa X~^H = (X~ L^H)^H
    gram = op.right_multiply(l_mat.conj().T).conj().T
    if quantization_aware:
        m = gram + (np.pi / 2.0 - 1.0) * np.diag(np.diag(gram))
        m += (np.pi / 2.0) * sigma_v_sq * np.eye(gram.shape[0])
    else:
        m = gram + sigma_v_sq * np.eye(gram.shape[0])
    return l_mat, (m + m.conj().T) / 2.0


def et_anchor(x_matrix, c_aa, sigma_v_sq, quantization_aware=True):
    """L, M, M^{-1} L, the gain and the bound of the extended target at X."""
    l_mat, m = et_l_and_m(x_matrix, c_aa, sigma_v_sq, quantization_aware)
    m_inv_l = hermitian_solve(m, l_mat)
    gain = float(np.einsum("ij,ij->", l_mat.conj(), m_inv_l).real)
    return EtAnchor(l_mat=l_mat, m=m, m_inv_l=m_inv_l, gain=gain,
                    bound=float(np.trace(np.asarray(c_aa)).real - gain))


def crb_et(x_matrix, c_aa, sigma_v_sq):
    """One-bit Bayesian trace bound for the extended-target response.

    Uses the expanded form tr(C_aa) - tr(L^H M^{-1} L), which stays valid for
    merely PSD priors.
    """
    return et_anchor(x_matrix, c_aa, sigma_v_sq).bound


def mse_et_quantization_unaware(x_matrix, c_aa, sigma_v_sq):
    """Unquantized LMMSE MSE, tr(C_aa) - tr(C_aa X~^H (X~ C X~^H + s^2 I)^{-1} X~ C_aa)."""
    return et_anchor(x_matrix, c_aa, sigma_v_sq, quantization_aware=False).bound
