"""Waveform subproblem solver for extended targets: the trace-to-inner-
product reduction of the linear term, the quadratic-form matrix with its
spectral bound, both read from the prior's anchor (G kron Phi_T on a
Kronecker prior, dense otherwise), and the closed-form majorize-minimize
update (for the quantization-unaware variant too, through EtProblem)."""

from dataclasses import dataclass, field

import numpy as np

from .crb_metrics import check_waveform, et_prior
from .linalg import (build_penalty, check_counts, last_call, mm_loop, project_power_ball,
                     unvec, vec)


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

    def bound(self, x):
        """tr(C_aa) - gain at waveform x: crb_et, or mse_et_quantization_unaware
        when quantization_aware is False."""
        return self.anchor(x).bound

    def objective(self, x):
        """h(x) = -tr(L(x)^H M(x)^{-1} L(x)); the bound is tr(C_aa) + h."""
        return -self.anchor(x).gain


def build_mbar(anchor):
    """Quadratic-form matrix Mbar at an anchor plus a safe spectral upper
    bound. Returns (m_bar, lam_max).

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
    closed-form update; denominator = 1.01 lambda_max(Mbar) plus the
    penalty's curvature rho lambda_max(H^H H)."""

    denominator: float
    m_t: np.ndarray

    def value(self, x):
        x = np.asarray(x)
        return self.denominator * float(np.vdot(x, x).real) - 2.0 * float(
            np.vdot(self.m_t, x).real
        )


def _mm_parts(problem, penalty):
    """(evaluate, surrogate) of one solve: evaluate(x) is the augmented objective
    at waveform x with the state (anchor, H X - T), the residual None without a
    penalty, and surrogate(state, x) the :class:`EtSurrogate` at x from that
    state, formed as n_t x L matrices; the penalty's curvature is taken once."""
    shape = (problem.n_t, problem.block_len)
    curvature = 0.0 if penalty is None else penalty.curvature()

    def evaluate(x):
        anchor = problem.anchor(x)
        if penalty is None:
            return -anchor.gain, (anchor, None)
        w = penalty.residual(unvec(x, *shape))
        return -anchor.gain + float(penalty.value(w)), (anchor, w)

    def surrogate(state, x):
        anchor, w = state
        x_mat = unvec(x, *shape)
        m_bar, lam_mbar = build_mbar(anchor)
        denominator = lam_mbar + curvature
        m_t = anchor.descent(m_bar, x_mat) + denominator * x_mat
        if penalty is not None:
            m_t += penalty.descent(w)
        return EtSurrogate(denominator, vec(m_t))

    return evaluate, surrogate


def build_et_surrogate(problem, x_t, penalty=None):
    """The :class:`EtSurrogate` at x_t under penalty (a linalg.Penalty or None)."""
    x_t = np.asarray(x_t, dtype=complex)
    evaluate, surrogate = _mm_parts(problem, penalty)
    return surrogate(evaluate(x_t)[1], x_t)


def mm_update_et(x_t, surrogate, power=1.0):
    """Closed-form minimizer of the spectral surrogate over the power ball."""
    denom = surrogate.denominator
    if denom <= 1e-300:
        return np.asarray(x_t, dtype=complex)
    return project_power_ball(surrogate.m_t / denom, power)


def solve_x_et(problem, x_init, rho=0.0, u_i=None, lambda_i=None, channel=None,
               power=1.0, tol=1e-6, max_iter=20):
    """Closed-form MM loop (linalg.mm_loop) for the extended-target
    subproblem; each iterate's anchor and penalty residual H X - T are computed
    once and handed to the step as the loop's state, the penalty once per call.

    Returns (x, info); the true augmented objective is tracked and is
    non-increasing across iterations. info["bound"] is tr(C_aa) - gain at x
    (crb_et, or mse_et_quantization_unaware for an EtProblem with
    quantization_aware=False, the quantization-unaware variant).
    """
    penalty = build_penalty(rho, u_i, lambda_i, channel, problem.n_t, problem.block_len)
    evaluate, surrogate = _mm_parts(problem, penalty)

    def step(state, x):
        return mm_update_et(x, surrogate(state, x), power), False

    return mm_loop(evaluate, step, lambda state, _: state[0].bound, x_init, power, tol,
                   max_iter)
