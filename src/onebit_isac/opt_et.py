"""Waveform subproblem solver for extended targets: the trace-to-inner-
product reduction of the linear term, the quadratic-form matrix with its
spectral bound, both read from the prior's anchor (G kron Phi_T on a
Kronecker prior, dense otherwise), and the closed-form majorize-minimize
update (for the quantization-unaware variant too, through EtProblem)."""

from dataclasses import dataclass, field

import numpy as np

from .crb_metrics import check_waveform, et_prior
from .linalg import check_counts, last_call, mm_loop, project_power_ball, unvec, vec


@dataclass(frozen=True)
class EtProblem:
    """Extended-target objective data; quantization_aware=False drops the
    one-bit correction terms (the quantization-unaware baseline). The prior
    (:func:`~onebit_isac.crb_metrics.et_prior`) takes the L x L eigenbasis
    path when c_aa is one Kronecker product Phi_T^T kron Phi_R with a
    constant diag(Phi_R), as every EtTarget's is, and the dense chain
    otherwise. It is built once, here, and holds sigma_v_sq and
    quantization_aware for every anchor and Mbar of the problem; the
    problem is frozen, so neither can be set again later."""

    c_aa: np.ndarray
    sigma_v_sq: float
    n_t: int
    n_r: int
    block_len: int
    quantization_aware: bool = True
    # (waveform, anchor) of the last call: each solve of an ADMM run starts
    # from the iterate the previous solve ended on
    _last: tuple = field(default=None, init=False, repr=False, compare=False)
    # the KronPrior or DensePrior of c_aa
    _prior: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        check_counts(self, ("n_t", "n_r", "block_len"))
        object.__setattr__(self, "c_aa", np.asarray(self.c_aa))
        object.__setattr__(self, "_prior", et_prior(self.c_aa, self.n_r, self.n_t,
                                                    self.sigma_v_sq, self.quantization_aware))

    def anchor(self, x):
        """The prior's anchor at waveform x: a
        :class:`~onebit_isac.crb_metrics.KronAnchor` or an
        :class:`~onebit_isac.crb_metrics.EtAnchor`. Raises ValueError
        when x is not finite."""
        return last_call(self, np.asarray(x), self._anchor)

    def _anchor(self, x):
        return self._prior.anchor(check_waveform(unvec(x, self.n_t, self.block_len)))

    def objective(self, x):
        """h(x) = -tr(L(x)^H M(x)^{-1} L(x)); the bound is tr(C_aa) + h."""
        return -self.anchor(x).gain


def build_mbar(anchor):
    """Quadratic-form matrix Mbar at an anchor plus a safe spectral upper
    bound. Returns (m_bar, lam_max); m_bar @ x applies Mbar on both paths.

    Mbar realizes x^H Mbar x = tr(Mtilde X~ C_aa X~^H) (the anchor's
    ``mbar``: a :class:`~onebit_isac.crb_metrics.KronMbar` on a Kronecker
    prior, a dense matrix otherwise), of the variant its prior holds. The
    bound is its largest eigenvalue inflated by 1.01.
    """
    m_bar, lam = anchor.mbar()
    return m_bar, 1.01 * lam


@dataclass
class EtSurrogate:
    """The spectral surrogate denominator ||x||^2 - 2 Re(m_t^H x) at one
    anchor (up to a constant), whose minimizer over the power ball is the
    closed-form update; denominator = 1.01 lambda_max(Mbar) +
    rho lambda_max(H^H H)."""

    denominator: float
    m_t: np.ndarray

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


def _mm_parts(problem, rho, u_i, lambda_i, channel, lam_hth):
    """(evaluate, surrogate) of one solve: evaluate(x) is the augmented objective
    at waveform x with the state (anchor, H X), H X None without a penalty, and
    surrogate(state, x) the :class:`EtSurrogate` at x from that state, formed as
    n_t x L matrices. The solve's rho H^H (U - Lambda) is formed once, here."""
    shape = (problem.n_t, problem.block_len)
    penalized = rho != 0.0 and channel is not None and channel.size > 0
    if penalized:
        target = unvec(u_i - lambda_i, channel.shape[0], shape[1])
        rho_h_adj = rho * channel.conj().T
        rhs = rho_h_adj @ target

    def evaluate(x):
        anchor = problem.anchor(x)
        if not penalized:
            return -anchor.gain, (anchor, None)
        hx = channel @ unvec(x, *shape)
        w = hx - target
        return -anchor.gain + rho * float(np.vdot(w, w).real), (anchor, hx)

    def surrogate(state, x):
        anchor, hx = state
        x_mat = unvec(x, *shape)
        m_bar, lam_mbar = build_mbar(anchor)
        denominator = lam_mbar + float(rho) * lam_hth
        m_t = anchor.descent(m_bar, x_mat) + denominator * x_mat
        if penalized:
            m_t += rhs - rho_h_adj @ hx
        return EtSurrogate(denominator, vec(m_t))

    return evaluate, surrogate


def build_et_surrogate(problem, x_t, rho, u_i, lambda_i, channel, lam_hth):
    """The :class:`EtSurrogate` at x_t for penalty rho and the channel's
    bound lam_hth = lam_max_channel(channel), which is 0.0 without a
    channel; without a penalty rho * lam_hth adds 0.0."""
    x_t = np.asarray(x_t, dtype=complex)
    evaluate, surrogate = _mm_parts(problem, rho, u_i, lambda_i, channel, lam_hth)
    return surrogate(evaluate(x_t)[1], x_t)


def mm_update_et(x_t, surrogate, power=1.0):
    """Closed-form minimizer of the spectral surrogate over the power ball."""
    denom = surrogate.denominator
    if denom <= 1e-300:
        return np.asarray(x_t, dtype=complex)
    return project_power_ball(surrogate.m_t / denom, power)


def augmented_objective_et(problem, x, rho=0.0, u_i=None, lambda_i=None,
                           channel=None):
    evaluate, _ = _mm_parts(problem, rho, u_i, lambda_i, channel, 0.0)
    return evaluate(np.asarray(x))[0]


def solve_x_et(problem, x_init, rho=0.0, u_i=None, lambda_i=None, channel=None,
               power=1.0, tol=1e-6, max_iter=20):
    """Closed-form MM loop (linalg.mm_loop) for the extended-target
    subproblem; each iterate's anchor and H X are computed once and handed to
    the step as the loop's state, lam_max_channel(channel) once per call.

    Returns (x, info); the true augmented objective is tracked and is
    non-increasing across iterations. info["bound"] is tr(C_aa) - gain at x
    (crb_et, or mse_et_quantization_unaware for an EtProblem with
    quantization_aware=False, the quantization-unaware variant).
    """
    evaluate, surrogate = _mm_parts(problem, rho, u_i, lambda_i, channel,
                                    lam_max_channel(channel))

    def step(state, x):
        return mm_update_et(x, surrogate(state, x), power), False

    return mm_loop(evaluate, step, lambda state, _: state[0].bound, x_init, power, tol,
                   max_iter)
