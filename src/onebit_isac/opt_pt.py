"""Waveform subproblem solver for point-like targets: concave-Taylor
surrogate of the trace objective, its analytic conjugate gradient (built
from the diagonal-plus-rank-one covariance chain and the anchor's P held as
diagonal plus rank two, never from materialized Kronecker products or
kL x kL matrices), one-step normalized projected gradient descent with
backtracking, and the outer majorize-minimize loop."""

import math
from dataclasses import dataclass

import numpy as np

from .crb_metrics import ChainP, PtModel, SQRT_TWO_OVER_PI, bound_from_trace, trace_p_dc
from .linalg import build_penalty, mm_loop, unvec, vec

# backtracking schedule: start at 0.1 sqrt(P), halve until accepted or below
# STEP_FLOOR; a candidate may exceed the anchor value by RELATIVE_SLACK * (|m0| + 1)
STEP_FLOOR = 1e-12
RELATIVE_SLACK = 1e-12


@dataclass
class SurrogateAnchor:
    """Taylor anchor of the trace surrogate at one iterate.

    p is P = C^{-1} dC C^{-1} evaluated at the anchor on the model's chain
    (one-bit, or infinite-resolution when model.quantized is False), held
    as diagonal plus rank two with the true objective's trace tr(P dC)
    (:meth:`PtModel.chain_p`).
    """

    model: PtModel
    x_t: np.ndarray
    p: ChainP


def build_anchor(model, x_t):
    return SurrogateAnchor(model=model, x_t=np.asarray(x_t, dtype=complex),
                           p=model.chain_p(x_t))


def surrogate_values(anchor, xs, penalty=None):
    """Surrogate -2 Re tr(P dC(x)) + tr(P C(x) P C(x)) + penalty at every row
    of a (K, n_t L) stack of waveforms (penalty a linalg.Penalty or None).

    Per row the chain is C = diag(d0) + sa h h^H and
    dC = diag(d1) + sa (q h^H + h q^H) in receive-subspace coordinates
    (:meth:`ChainFactors.low_rank`), with h on the first coordinate of each
    sample. For the Hermitian anchor P that gives

        tr(P dC)   = d1 . diag(P) + 2 sa Re((P h)^H q)   (:func:`trace_p_dc`),
        tr(P C P C) = d0^T |P|^2 d0 + 2 sa sum(|P h|^2 d0) + sa^2 (h^H P h)^2,

    with diag(P) and |P|^2 summed per sample, the complement included. From
    P's factors (:class:`ChainP`) the stack costs O(K k L), with no per-row
    solve and no kL x kL array. The surrogate touches the true
    augmented objective at the anchor (the Taylor constant vanishes for this
    parameterization).
    """
    model = anchor.model
    xs = np.asarray(xs, dtype=complex)
    n_rows, block_len = xs.shape[0], model.block_len
    # row k L + l: sample l of waveform k
    samples = xs.reshape(-1, model.n_t)
    s = (samples @ model.a_t).reshape(n_rows, block_len)
    s_d = (samples @ model.da_t).reshape(n_rows, block_len)
    d0, d1, h, q = model.chain_factors(s, s_d).low_rank(model.sigma_v_sq, model.quantized)
    p = anchor.p
    sa = model.sigma_alpha_sq
    lin, ph = trace_p_dc(sa, p, d1, h, q)
    hph = (h.conj() * ph[:, :, 0]).real.sum(axis=1)
    quad = (np.sum(d0 * p.abs2_apply(d0), axis=-1)
            + 2.0 * sa * np.sum((ph * ph.conj()).real.sum(axis=2) * d0, axis=1)
            + (sa * hph) ** 2)
    values = quad - 2.0 * lin
    if penalty is not None:
        # row k of xs is vec of waveform k, so its samples are rows of X^T
        stack = np.swapaxes(samples.reshape(n_rows, block_len, model.n_t), 1, 2)
        values += penalty.value(penalty.residual(stack))
    return values


def surrogate_value(anchor, x, penalty=None):
    """Surrogate -2 Re tr(P dC(x)) + tr(P C(x) P C(x)) + penalty at one
    waveform: the one-row case of :func:`surrogate_values`."""
    return float(surrogate_values(anchor, np.asarray(x)[None, :], penalty)[0])


def _row(model, alpha, gamma=None):
    """Row conj(b) of an adjoint image b = vec(conj(a_t) alpha^T +
    conj(da_t) gamma^T), the form every A^H y and dA^H y takes."""
    # built as the L x n_t transpose, whose rows in order are vec's columns
    row = np.conj(alpha)[:, None] * model.a_t
    if gamma is not None:
        row += np.conj(gamma)[:, None] * model.da_t
    return row.reshape(-1)


def _apply_c(sa, d0, h, v):
    """C v for C = diag(d0) + sa (h e_0)(h e_0)^H and (L, k) coordinates v;
    d0 is an L-vector or a scalar."""
    out = np.reshape(d0, (-1, 1)) * v
    out[:, 0] += sa * np.vdot(h, v[:, 0]) * h
    return out


def _ptr_crr(model, s, v, ptr_x, x_vg):
    """Per-sample receive trace of C_rr diag(v) X for a Hermitian X with
    receive traces ptr_x, C_rr = sigma_v^2 I + sa g g^H and g = s e_0:
    sigma_v^2 v ptr_x + sa s conj(x_vg) with x_vg = (X (v o g))[:, 0]."""
    return model.sigma_v_sq * v * ptr_x + model.sigma_alpha_sq * s * x_vg.conj()


def gradient_rows(anchor, x, penalty=None):
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
    Every receive trace follows from the diagonal-plus-rank-one chain,
    P's per-sample sums and products of P with (L, k) arrays, e.g.
    ptr(P C_zz P) = |P|^2 d0 + sa |P h|^2.
    """
    model = anchor.model
    fac = model.workspace(x)
    p = anchor.p
    sa = model.sigma_alpha_sq
    s, gp = fac.s, fac.g_prime
    g = np.zeros_like(gp)
    g[:, 0] = s
    beta_h = model.beta.conj()
    rows = {}
    if model.quantized:
        f, df = fac.f, fac.d_f
        fc, dfc = f[:, None], df[:, None]
        # j1 j2 / n_r with j1 = 1 / diag(C), j2 = diag(C)^{-1/2}
        j12 = fac.diag_crr**-1.5 / model.n_r
        pdfg, pfg, pfgp = p.apply(np.array((dfc * g, fc * g, fc * gp)))
        y11 = fc * pdfg + dfc * pfg
        rows["m11"] = _row(model, -sa * y11[:, 0])
        y_ad = fc * pfg
        y_a = fc * pfgp
        rows["m12"] = _row(model, -sa * (y_ad @ beta_h + y_a[:, 0]), -sa * y_ad[:, 0])
        # ptr(P F dC_rr) with dC_rr = sa (g' g^H + g g'^H)
        ptr_pfdc = sa * (pfgp[:, 0] * s.conj() + (pfg * gp.conj()).sum(axis=1))
        ptr_k1 = 2.0 * (_ptr_crr(model, s, df, p.diag, pdfg[:, 0]) + ptr_pfdc).real
        coef = 0.5 * sa * SQRT_TWO_OVER_PI
        rows["m13"] = _row(model, coef * j12 * ptr_k1 * s)
        ptr_k2 = 2.0 * _ptr_crr(model, s, f, p.diag, pfg[:, 0]).real
        v15 = j12 * ptr_k2
        v46 = v15 * fac.diag_dcrr / fac.diag_crr
        rows["m14"] = _row(model, -coef * v46 * s)
        rows["m15"] = _row(model, coef * v15 * fac.s_d, coef * v15 * s)
        rows["m16"] = _row(model, -0.5 * coef * v46 * s)
        # W = P C_zz P with C_zz = diag(c_pin) + sa (F g)(F g)^H and P F g = pfg
        d0, _, h, _ = fac.low_rank(model.sigma_v_sq, True)
        w_fg = p.apply(_apply_c(sa, d0, h, pfg))
        ptr_w = p.abs2_apply(d0) + sa * (pfg * pfg.conj()).real.sum(axis=1)
        ptr_cfw = 2.0 * _ptr_crr(model, s, f, ptr_w, w_fg[:, 0]).real
        rows["m3"] = _row(model, 2.0 * sa * f * w_fg[:, 0] - 2.0 * coef * j12 * ptr_cfw * s)
        linear_keys = ("m11", "m12", "m13", "m14", "m15", "m16")
    else:
        y_ad, y_a = p.apply(np.array((g, gp)))
        rows["m1"] = _row(model, -sa * (y_ad @ beta_h + y_a[:, 0]), -sa * y_ad[:, 0])
        d0, _, h, _ = fac.low_rank(model.sigma_v_sq, False)
        y3 = p.apply(_apply_c(sa, d0, h, y_ad))
        rows["m3"] = _row(model, 2.0 * sa * y3[:, 0])
        linear_keys = ("m1",)
    rows["m4"] = np.zeros_like(rows["m3"])
    if penalty is not None:
        w = penalty.residual(unvec(x, model.n_t, model.block_len))
        rows["m4"] = -np.conj(vec(penalty.descent(w)))
    total = rows["m4"] + rows["m3"]
    for key in linear_keys:
        total = total + 2.0 * rows[key]
    rows["total"] = total
    return rows


def surrogate_gradient(anchor, x, penalty=None):
    """Conjugate (Wirtinger) gradient of the surrogate, the descent direction."""
    return np.conj(gradient_rows(anchor, x, penalty)["total"])


def pgd_step(anchor, x_t, penalty=None, power=1.0):
    """One normalized projected-gradient step with backtracking.

    The schedule mu = 0.1 sqrt(power), halved down to STEP_FLOOR, is built
    at once: each candidate x_t - mu g/|g| is projected onto the power ball
    and one :func:`surrogate_values` call scores them all with the anchor
    value m0. The first candidate with m1 - m0 <= (2 mu / |g|) Re(g^H (x1 -
    x_t)) and m1 <= m0, both up to the slack, is taken.

    Returns (x_next, mu, stalled). A zero gradient or an exhausted line
    search returns the anchor point unchanged (stalled flags the latter).
    """
    x_t = np.asarray(x_t, dtype=complex)
    grad = surrogate_gradient(anchor, x_t, penalty)
    gn = float(np.linalg.norm(grad))
    ghat = grad / gn if gn > 0.0 else grad
    mus = []
    mu = 0.1 * math.sqrt(power)
    while mu >= STEP_FLOOR:
        mus.append(mu)
        mu *= 0.5
    mus = np.array(mus)
    steps = x_t - mus[:, None] * ghat
    norm2 = (steps * steps.conj()).real.sum(axis=1)
    # rows inside the ball keep a unit scale
    candidates = steps * np.sqrt(power / np.maximum(norm2, power))[:, None]
    values = surrogate_values(anchor, np.concatenate((x_t[None], candidates)), penalty)
    m0, m1 = values[0], values[1:]
    if gn <= 1e-12 * (abs(m0) + 1.0):
        # normalized steps along a numerically-zero gradient only add noise
        return x_t, 0.0, False
    slack = RELATIVE_SLACK * (abs(m0) + 1.0)
    rhs = (2.0 * mus / gn) * ((candidates - x_t) @ grad.conj()).real
    accepted = np.flatnonzero((m1 - m0 <= rhs + slack) & (m1 <= m0 + slack))
    if accepted.size == 0:
        return x_t, 0.0, True
    first = accepted[0]
    return candidates[first], float(mus[first]), False


def solve_x_pt(model, x_init, rho=0.0, u_i=None, lambda_i=None, channel=None,
               power=1.0, tol=1e-6, max_iter=20):
    """Majorize-minimize loop (linalg.mm_loop): re-anchor, take one PGD step, repeat.

    The true augmented objective is non-increasing across anchors; iteration
    stops on a relative change below tol, a stalled line search, or the
    iteration cap. Returns (x, info); info["bound"] is PtModel.bound at x,
    read from the last anchor's trace; the penalty is built once (build_penalty).
    """
    penalty = build_penalty(rho, u_i, lambda_i, channel, model.n_t, model.block_len)

    def evaluate(x):
        # the anchor at x carries the true objective there
        anchor = build_anchor(model, x)
        if penalty is None:
            return -anchor.p.trace, anchor
        w = penalty.residual(unvec(x, model.n_t, model.block_len))
        return -anchor.p.trace + float(penalty.value(w)), anchor

    def step(anchor, x):
        x, _, stalled = pgd_step(anchor, x, penalty, power)
        return x, stalled

    return mm_loop(evaluate, step, lambda anchor, _: bound_from_trace(anchor.p.trace),
                   x_init, power, tol, max_iter)
