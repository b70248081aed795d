"""Waveform subproblem solver for extended targets: the trace-to-inner-
product reduction of the linear term, the quadratic-form matrix with its
spectral bound (G kron Phi_T on a Kronecker prior, dense otherwise), and the
closed-form majorize-minimize update (for the quantization-unaware variant
too, through EtProblem)."""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .crb_metrics import KronAnchor, bound_anchor, kronecker_prior
from .linalg import (check_power, h_tilde_adjoint, h_tilde_apply, penalty_value,
                     project_power_ball, unvec, vec)


def _partial_trace_to_x(w, n_r, n_t, block_len):
    """Adjoint of x -> vec(X^T kron I_{n_r}) applied to vec(W).

    W has shape (n_r L, n_r n_t); the result collapses the receive index:
    out[nt, l] = sum_r W[(r, l), (r, nt)].
    """
    w4 = np.asarray(w).reshape((n_r, block_len, n_r, n_t), order="F")
    out = np.einsum("rlrn->nl", w4)
    return out.reshape(-1, order="F")


@dataclass
class EtProblem:
    """Extended-target objective data; quantization_aware=False drops the
    one-bit correction terms (the quantization-unaware baseline). A prior
    that is one Kronecker product Phi_T^T kron Phi_R with a constant
    diag(Phi_R), as every EtTarget's is, takes the L x L eigenbasis path
    (:func:`~onebit_isac.crb_metrics.kronecker_prior`); any other takes the
    dense chain."""

    c_aa: np.ndarray
    sigma_v_sq: float
    n_t: int
    n_r: int
    block_len: int
    quantization_aware: bool = True
    # (waveform, anchor) of the last call: the MM loop and the ADMM driver
    # ask for the anchor at an accepted iterate up to three times
    _last: tuple = field(default=None, init=False, repr=False, compare=False)
    # the KronPrior of c_aa, or None for a prior that takes the dense path
    _kron: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sigma_v_sq <= 0.0:
            raise ValueError("noise power must be positive")
        self.c_aa = np.asarray(self.c_aa)
        dim = self.n_r * self.n_t
        if self.c_aa.shape != (dim, dim):
            raise ValueError(f"c_aa must be {dim} x {dim} (n_r n_t), got {self.c_aa.shape}")
        self._kron = kronecker_prior(self.c_aa, self.n_r)

    def anchor(self, x):
        """The anchor at waveform x: a :class:`~onebit_isac.crb_metrics.KronAnchor`
        on a Kronecker prior, else an :class:`~onebit_isac.crb_metrics.EtAnchor`."""
        x = np.asarray(x)
        last = self._last
        if last is not None and np.array_equal(last[0], x):
            return last[1]
        anchor = bound_anchor(unvec(x, self.n_t, self.block_len), self.c_aa,
                              self.sigma_v_sq, self.quantization_aware, self._kron)
        self._last = (x.copy(), anchor)
        return anchor

    def objective(self, x):
        """h(x) = -tr(L(x)^H M(x)^{-1} L(x)); the bound is tr(C_aa) + h."""
        return -self.anchor(x).gain


def build_lt(x_t, c_aa, m_inv_l, n_r):
    """Linear-term vector: tr(L_t^H M_t^{-1} L(x)) = l_t^H x for all x.

    m_inv_l is M_t^{-1} L_t; everything reduces to a receive-index partial
    trace of G = M_t^{-1} L_t C_aa (index arithmetic, no Kronecker factors).
    """
    x_t = np.asarray(x_t)
    n_t, block_len = x_t.shape if x_t.ndim == 2 else (None, None)
    if n_t is None:
        raise ValueError("x_t must be the n_t x L waveform matrix")
    g = m_inv_l @ c_aa
    return _partial_trace_to_x(g, n_r, n_t, block_len)


def m_tilde_matrix(anchor, quantization_aware=True):
    """Mtilde = Y Y^H, Y = M^{-1} L, plus (pi/2 - 1) diag(Y Y^H) when aware."""
    y = anchor.m_inv_l
    m_tilde = y @ y.conj().T
    if quantization_aware:
        m_tilde = m_tilde + (np.pi / 2.0 - 1.0) * np.diag(np.diag(m_tilde))
    return (m_tilde + m_tilde.conj().T) / 2.0


class KronMbar(NamedTuple):
    """Mbar = G kron Phi_T, applied as Mbar @ x = vec(Phi_T X G^T)."""

    g: np.ndarray
    phi_t: np.ndarray

    def __matmul__(self, x):
        return vec(self.phi_t @ unvec(x, self.phi_t.shape[0], self.g.shape[0]) @ self.g.T)


def build_mbar(anchor, c_aa, n_r, quantization_aware=True):
    """Quadratic-form matrix Mbar at an anchor plus a safe spectral upper
    bound. Returns (m_bar, lam_max); m_bar @ x applies Mbar on both paths.

    Mbar realizes x^H Mbar x = tr(Mtilde X~ C_aa X~^H); it is one
    contraction of Mtilde with C_aa over the two receive indices:
    Mbar[(n, l), (b, k)] = sum_{r, s} Mtilde[(r, l), (s, k)] C_aa[(s, b), (r, n)].
    On a Kronecker prior (a KronAnchor) this is the :class:`KronMbar`
    G kron Phi_T (:meth:`~onebit_isac.crb_metrics.KronAnchor.g_matrix`), with
    lambda_max(Mbar) = lambda_max(G) lambda_max(Phi_T); otherwise it is the
    dense matrix. The bound is the largest eigenvalue (eigvalsh, which raises
    if it fails) inflated by 1.01.
    """
    if isinstance(anchor, KronAnchor):
        g = anchor.g_matrix(quantization_aware)
        lam = float(np.linalg.eigvalsh(g)[-1]) * anchor.prior.lam_max_t
        return KronMbar(g, anchor.prior.phi_t), 1.01 * lam
    c_aa = np.asarray(c_aa)
    n_t = c_aa.shape[0] // n_r
    block_len = anchor.m_inv_l.shape[0] // n_r
    dim = n_t * block_len
    m4 = m_tilde_matrix(anchor, quantization_aware).reshape(
        (n_r, block_len, n_r, block_len), order="F")
    c4 = c_aa.reshape((n_r, n_t, n_r, n_t), order="F")
    lkbn = np.tensordot(m4, c4, axes=([0, 2], [2, 0]))
    m_bar = lkbn.transpose(3, 0, 2, 1).reshape((dim, dim), order="F")
    return m_bar, 1.01 * float(np.linalg.eigvalsh(m_bar)[-1])


@dataclass
class EtSurrogate:
    """All anchor-dependent pieces of the closed-form update."""

    lam_max_mbar: float
    lam_max_hth: float
    m_t: np.ndarray
    rho: float

    @property
    def denominator(self):
        return self.lam_max_mbar + self.rho * self.lam_max_hth

    def value(self, x):
        x = np.asarray(x)
        return self.denominator * float(np.vdot(x, x).real) - 2.0 * float(
            np.vdot(self.m_t, x).real
        )


def lam_max_channel(channel):
    """Largest eigenvalue of H~^H H~, which equals that of H^H H."""
    if channel is None or channel.size == 0:
        return 0.0
    h = np.asarray(channel)
    return float(np.linalg.eigvalsh(h.conj().T @ h)[-1])


def build_et_surrogate(problem, x_t, rho=0.0, u_i=None, lambda_i=None,
                       channel=None, lam_hth=None):
    x_t = np.asarray(x_t, dtype=complex)
    anchor = problem.anchor(x_t)
    m_bar, lam_mbar = build_mbar(anchor, problem.c_aa, problem.n_r,
                                 problem.quantization_aware)
    if isinstance(anchor, KronAnchor):
        l_t = anchor.linear_term()
    else:
        l_t = build_lt(unvec(x_t, problem.n_t, problem.block_len), problem.c_aa,
                       anchor.m_inv_l, problem.n_r)
    m_t = l_t + lam_mbar * x_t - m_bar @ x_t
    if rho != 0.0 and channel is not None and channel.size:
        if lam_hth is None:
            lam_hth = lam_max_channel(channel)
        hx = h_tilde_apply(channel, x_t, problem.block_len)
        m_t = m_t + rho * h_tilde_adjoint(channel, u_i - lambda_i, problem.block_len)
        m_t = m_t + rho * (
            lam_hth * x_t - h_tilde_adjoint(channel, hx, problem.block_len)
        )
    else:
        lam_hth = 0.0
        rho = float(rho)
    return EtSurrogate(lam_max_mbar=lam_mbar, lam_max_hth=float(lam_hth), m_t=m_t,
                       rho=float(rho))


def mm_update_et(x_t, surrogate, power=1.0):
    """Closed-form minimizer of the spectral surrogate over the power ball."""
    denom = surrogate.denominator
    if denom <= 1e-300:
        return np.asarray(x_t, dtype=complex)
    return project_power_ball(surrogate.m_t / denom, power)


def augmented_objective_et(problem, x, rho=0.0, u_i=None, lambda_i=None,
                           channel=None):
    return problem.objective(x) + penalty_value(x, problem.block_len, rho, u_i, lambda_i,
                                                channel)


def solve_x_et(problem, x_init, rho=0.0, u_i=None, lambda_i=None, channel=None,
               power=1.0, tol=1e-6, max_iter=20, lam_hth=None):
    """Closed-form MM loop for the extended-target subproblem.

    Returns (x, info); the true augmented objective is tracked and is
    non-increasing across iterations. info["bound"] is tr(C_aa) - gain at x
    (crb_et, or mse_et_quantization_unaware for an EtProblem with
    quantization_aware=False, the quantization-unaware variant).
    """
    x = check_power(x_init, power)
    if lam_hth is None:
        lam_hth = lam_max_channel(channel)
    f_prev = augmented_objective_et(problem, x, rho, u_i, lambda_i, channel)
    history = [f_prev]
    for _ in range(max_iter):
        surrogate = build_et_surrogate(problem, x, rho, u_i, lambda_i, channel, lam_hth)
        x = mm_update_et(x, surrogate, power)
        f_new = augmented_objective_et(problem, x, rho, u_i, lambda_i, channel)
        history.append(f_new)
        if abs(f_new - f_prev) <= tol * (abs(f_prev) + 1e-30):
            f_prev = f_new
            break
        f_prev = f_new
    return x, {"objective_history": history, "n_iter": len(history) - 1,
               "bound": problem.anchor(x).bound}
