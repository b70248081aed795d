"""Waveform subproblem solver for point-like targets: concave-Taylor
surrogate of the trace objective, its analytic conjugate gradient (built
from the receive-subspace blocks of the covariance chain, never from
materialized Kronecker products or n x n matrices), one-step normalized
projected gradient descent with backtracking, and the outer
majorize-minimize loop."""

import math
from dataclasses import dataclass

import numpy as np

from .crb_metrics import PtModel, ReceiveBlock, SQRT_TWO_OVER_PI, _chain, _trace_form
from .linalg import h_tilde_adjoint, h_tilde_apply, project_power_ball, vec

# backtracking schedule: start at 0.1 sqrt(P), halve until accepted or below
# STEP_FLOOR; a candidate may exceed the anchor value by RELATIVE_SLACK * (|m0| + 1)
STEP_FLOOR = 1e-12
RELATIVE_SLACK = 1e-12


@dataclass
class SurrogateAnchor:
    """Taylor anchor of the trace surrogate at one iterate.

    p_big is unvec(Q_t^{-1} p_t) = C^{-1} dC C^{-1} evaluated at the anchor
    (quantized or infinite-resolution covariance chain as configured), held
    as a Hermitian :class:`ReceiveBlock`.
    """

    model: PtModel
    x_t: np.ndarray
    p_big: ReceiveBlock
    quantized: bool


def build_anchor(model, x_t, quantized=True):
    base, dbase = _chain(model.workspace(x_t), quantized)
    # C^{-1} (C^{-1} dC)^H = C^{-1} dC C^{-1}, as dC is Hermitian
    p_big = base.solve(base.solve(dbase).adjoint()).hermitian()
    return SurrogateAnchor(model=model, x_t=np.asarray(x_t, dtype=complex),
                           p_big=p_big, quantized=quantized)


def _penalty_residual(model, x, u_i, lambda_i, channel):
    if channel is None or channel.size == 0:
        return None
    return h_tilde_apply(channel, x, model.block_len) - u_i + lambda_i


def penalty_value(model, x, rho, u_i, lambda_i, channel):
    if rho == 0.0 or channel is None or channel.size == 0:
        return 0.0
    w = _penalty_residual(model, x, u_i, lambda_i, channel)
    return rho * float(np.vdot(w, w).real)


def objective_value(model, x, quantized=True, workspace=None):
    """True objective f(x) = -tr(C^{-1} dC C^{-1} dC) at waveform x."""
    ws = workspace or model.workspace(x)
    return -_trace_form(*_chain(ws, quantized))


def augmented_objective(model, x, rho, u_i=None, lambda_i=None, channel=None,
                        quantized=True):
    return objective_value(model, x, quantized) + penalty_value(
        model, x, rho, u_i, lambda_i, channel
    )


def surrogate_value(anchor, x, rho=0.0, u_i=None, lambda_i=None, channel=None):
    """Surrogate -2 Re tr(P dC(x)) + tr(P C(x) P C(x)) + penalty.

    Touches the true augmented objective at the anchor (the Taylor constant
    vanishes for this parameterization).
    """
    model = anchor.model
    base, dbase = _chain(model.workspace(x), anchor.quantized)
    p = anchor.p_big
    lin = -2.0 * float((p @ dbase).trace().real)
    pc = p @ base
    quad = float((pc @ pc).trace().real)
    return lin + quad + penalty_value(model, x, rho, u_i, lambda_i, channel)


def _row(model, alpha, gamma=None):
    """Row conj(b) of an adjoint image b = vec(conj(a_t) alpha^T +
    conj(da_t) gamma^T), the form every A^H y and dA^H y takes."""
    row = np.outer(model.a_t, np.conj(alpha))
    if gamma is not None:
        row += np.outer(model.da_t, np.conj(gamma))
    return vec(row)


def gradient_rows(anchor, x, rho=0.0, u_i=None, lambda_i=None, channel=None):
    """Per-term rows of the surrogate derivative d m / d x^T.

    Keys m11..m16 cover the six linear-term paths (quantized chain), m3 the
    quadratic term, m4 the penalty. The infinite-resolution chain collapses
    to keys m1 and m3. P, C and dC are Hermitian and F, dF real diagonal,
    so diag(P dF C) and diag(dC F P) are the conjugates of diag(C dF P) and
    diag(P F dC); only real parts of those diagonals enter.

    In receive-subspace coordinates y ((L, k) arrays), A^H y keeps only
    y[:, 0] along conj(a_t), and dA^H y has y conj(beta) along conj(a_t) and
    y[:, 0] along conj(da_t). A^H (v o g) for a diagonal v needs only its
    receive partial trace ptr(v): it is s o ptr(v) / n_r along conj(a_t).
    The two m15 paths dA^H (v o g) + A^H (v o g') sum to s_d o ptr(v) / n_r
    and s o ptr(v) / n_r, their cos(theta)-weighted parts cancelling.
    """
    model = anchor.model
    ws = model.workspace(x)
    p = anchor.p_big
    sa = model.sigma_alpha_sq
    g, gp, s = ws.g, ws.g_prime, ws.s
    beta_h = model.beta.conj()
    rows = {}
    if anchor.quantized:
        c, dc = ws.c_rr, ws.d_crr_dtheta
        f, df = ws.f, ws.d_f_dtheta
        fc, dfc = f[:, None], df[:, None]
        # j1 j2 / n_r with j1 = 1 / diag(C), j2 = diag(C)^{-1/2}
        j12 = ws.diag_crr**-1.5 / model.n_r
        pfg = p.matvec(fc * g)
        y11 = fc * p.matvec(dfc * g) + dfc * pfg
        rows["m11"] = _row(model, -sa * y11[:, 0])
        y_ad = fc * pfg
        y_a = fc * p.matvec(fc * gp)
        rows["m12"] = _row(model, -sa * (y_ad @ beta_h + y_a[:, 0]), -sa * y_ad[:, 0])
        ptr_k1 = 2.0 * ((c.scaled(df) @ p).receive_trace()
                        + (p.scaled(f) @ dc).receive_trace()).real
        coef = 0.5 * sa * SQRT_TWO_OVER_PI
        rows["m13"] = _row(model, coef * j12 * ptr_k1 * s)
        ptr_k2 = 2.0 * (c.scaled(f) @ p).receive_trace().real
        v15 = j12 * ptr_k2
        v46 = v15 * ws.diag_dcrr / ws.diag_crr
        rows["m14"] = _row(model, -coef * v46 * s)
        rows["m15"] = _row(model, coef * v15 * ws.s_d, coef * v15 * s)
        rows["m16"] = _row(model, -0.5 * coef * v46 * s)
        w_mat = p @ ws.c_zz_hat @ p
        ptr_cfw = 2.0 * (c.scaled(f) @ w_mat).receive_trace().real
        y3 = fc * w_mat.matvec(fc * g)
        rows["m3"] = _row(model, 2.0 * sa * y3[:, 0] - 2.0 * coef * j12 * ptr_cfw * s)
        linear_keys = ("m11", "m12", "m13", "m14", "m15", "m16")
    else:
        y_ad = p.matvec(g)
        y_a = p.matvec(gp)
        rows["m1"] = _row(model, -sa * (y_ad @ beta_h + y_a[:, 0]), -sa * y_ad[:, 0])
        y3 = p.matvec(ws.c_rr.matvec(y_ad))
        rows["m3"] = _row(model, 2.0 * sa * y3[:, 0])
        linear_keys = ("m1",)
    if rho != 0.0 and channel is not None and channel.size:
        w = _penalty_residual(model, x, u_i, lambda_i, channel)
        rows["m4"] = rho * np.conj(h_tilde_adjoint(channel, w, model.block_len))
    else:
        rows["m4"] = np.zeros(model.n_t * model.block_len, dtype=complex)
    total = rows["m4"].copy() + rows["m3"]
    for key in linear_keys:
        total = total + 2.0 * rows[key]
    rows["total"] = total
    return rows


def surrogate_gradient(anchor, x, rho=0.0, u_i=None, lambda_i=None, channel=None,
                       return_terms=False):
    """Conjugate (Wirtinger) gradient of the surrogate, the descent direction."""
    rows = gradient_rows(anchor, x, rho, u_i, lambda_i, channel)
    grad = np.conj(rows["total"])
    if return_terms:
        return grad, rows
    return grad


def pgd_step(anchor, x_t, rho=0.0, u_i=None, lambda_i=None, channel=None,
             power=1.0):
    """One normalized projected-gradient step with backtracking.

    Returns (x_next, mu, stalled). A zero gradient or an exhausted line
    search returns the anchor point unchanged (stalled flags the latter).
    """
    grad = surrogate_gradient(anchor, x_t, rho, u_i, lambda_i, channel)
    gn = float(np.linalg.norm(grad))
    m0 = surrogate_value(anchor, x_t, rho, u_i, lambda_i, channel)
    if gn <= 1e-12 * (abs(m0) + 1.0):
        # normalized steps along a numerically-zero gradient only add noise
        return np.asarray(x_t, dtype=complex), 0.0, False
    ghat = grad / gn
    slack = RELATIVE_SLACK * (abs(m0) + 1.0)
    mu = 0.1 * math.sqrt(power)
    while mu >= STEP_FLOOR:
        x_new = project_power_ball(x_t - mu * ghat, power)
        m1 = surrogate_value(anchor, x_new, rho, u_i, lambda_i, channel)
        rhs = (2.0 * mu / gn) * float(np.vdot(grad, x_new - x_t).real)
        if m1 - m0 <= rhs + slack and m1 <= m0 + slack:
            return x_new, mu, False
        mu *= 0.5
    return np.asarray(x_t, dtype=complex), 0.0, True


def solve_x_pt(model, x_init, rho=0.0, u_i=None, lambda_i=None, channel=None,
               power=1.0, tol=1e-6, max_iter=20, quantized=True):
    """Majorize-minimize loop: re-anchor, take one PGD step, repeat.

    The true augmented objective is non-increasing across anchors; iteration
    stops on a relative change below tol, a stalled line search, or the
    iteration cap. Returns (x, info).
    """
    x = np.asarray(x_init, dtype=complex)
    if float(np.vdot(x, x).real) > power * (1.0 + 1e-9):
        raise ValueError("initial waveform violates the power constraint")
    f_prev = augmented_objective(model, x, rho, u_i, lambda_i, channel, quantized)
    history = [f_prev]
    stalled = False
    for _ in range(max_iter):
        anchor = build_anchor(model, x, quantized)
        x, _, stalled = pgd_step(anchor, x, rho, u_i, lambda_i, channel, power)
        f_new = augmented_objective(model, x, rho, u_i, lambda_i, channel, quantized)
        history.append(f_new)
        if stalled:
            break
        if abs(f_new - f_prev) <= tol * (abs(f_prev) + 1e-30):
            f_prev = f_new
            break
        f_prev = f_new
    return x, {
        "objective_history": history,
        "n_iter": len(history) - 1,
        "stalled": stalled,
    }
