"""Shared test oracles: the dense form of a block rank-one operator,
Wirtinger finite differences, slot functions that isolate each derivative
path of the point-target surrogate, the dense derivative of the
point-target response, the lift of the library's receive-subspace chain
factors to n x n matrices (an anchor's P solved densely from them), the
dense n x n point-target covariance chain (workspace, trace form, anchor,
true augmented objective, surrogate value and gradient rows) that the
library holds as diagonal plus rank one, the ADMM penalty with I_L kron H
formed explicitly, the projected-gradient step that scores its
backtracking candidates one at a time, the extended-target chain as the
library computed it before the shared anchor and the dense Mbar (explicit
Kronecker bound and linear term, matrix-free Mbar apply, uncached MM loop,
a Kronecker Mbar formed densely), the library's dense path forced onto any
prior, the information form of the extended-target bound, the
explicit-Kronecker BLMMSE estimator, dense Kronecker/commutation builders
for small instances, the point-target arcsine covariances gathered entry by
entry from their lags, the per-trial, per-angle one-bit MLE on dense
arcsine covariances, one extended-target response drawn from a generator,
the Monte-Carlo trials drawn and scored one at a time, the symbol error
rate counted one noise draw at a time, and the SEP projection solver that
scores every interval."""

import math
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
import scipy.linalg as sla

from onebit_isac.array_geometry import pt_response_operator, steering, steering_derivative
from onebit_isac.comm_sep import _slice_to_level
from onebit_isac.crb_metrics import ChainFactors, DensePrior, PtModel, crb_et
from onebit_isac.estimators import blmmse_matrix
from onebit_isac.linalg import (
    complex_normal,
    hermitian_factor,
    hermitian_solve,
    project_power_ball,
    unvec,
    vec,
    xtilde_multiply,
)
from onebit_isac import opt_pt
from onebit_isac.opt_pt import (
    SurrogateAnchor,
    surrogate_gradient,
    surrogate_value,
)
from onebit_isac.quantization import (
    arcsine_law,
    bussgang_gain,
    covariance_czz_exact,
    positive_diagonal,
    quantize_one_bit,
)
from onebit_isac.sep_projection import _clamp_u, boundary_points

TWO_OVER_PI = 2.0 / np.pi
SQRT_TWO_OVER_PI = np.sqrt(TWO_OVER_PI)


def dense_operator(op, max_entries=65536):
    """I_L kron (u v^T) of a BlockRankOneOperator formed explicitly, guarded
    to test-scale sizes."""
    total = op.u.size * op.v.size * op.block_len**2
    if total > max_entries:
        raise ValueError(f"refusing to materialize {total} entries")
    return np.kron(np.eye(op.block_len), np.outer(op.u, op.v))


def pt_response_derivative_operator(theta, block_len, n_t, n_r):
    """Dense angle derivative of the point-target response,
    I_L kron (da_r a_t^T + a_r da_t^T)."""
    kernel = (np.outer(steering_derivative(n_r, theta), steering(n_t, theta))
              + np.outer(steering(n_r, theta), steering_derivative(n_t, theta)))
    return np.kron(np.eye(block_len), kernel)


def _lift_block(model: PtModel, w, c):
    """(I_L kron Q) w (I_L kron Q)^H + diag(c) kron (I - Q Q^H)."""
    basis = np.kron(np.eye(model.block_len), model.q)
    perp = np.eye(model.n_r) - model.q @ model.q.conj().T
    return basis @ w @ basis.conj().T + np.kron(np.diag(c), perp)


def lift(model: PtModel, obj, quantized=True):
    """Dense n x n form of the library's receive-subspace chain.

    ChainFactors give the pair (C, dC) of the one-bit chain, or of the
    unquantized one when quantized is False; a SurrogateAnchor gives
    P = C^{-1} dC C^{-1} from the lifted (C, dC) of the model's chain at its
    anchor point, by dense solves, independent of the library's P. A dense
    array passes through."""
    if isinstance(obj, SurrogateAnchor):
        return _dense_p(*lift(model, model.workspace(obj.x_t), model.quantized))
    if not isinstance(obj, ChainFactors):
        return np.asarray(obj)
    d0, d1, h, q = obj.low_rank(model.sigma_v_sq, quantized)
    # the unquantized diagonals come as scalars
    d0, d1 = (np.broadcast_to(d, h.shape) for d in (d0, d1))
    k = q.shape[1]
    hv = np.zeros_like(q)
    hv[:, 0] = h
    hv, qv = hv.reshape(-1), q.reshape(-1)
    sa = model.sigma_alpha_sq
    cov = np.diag(np.repeat(d0, k)) + sa * np.outer(hv, hv.conj())
    dcov = np.diag(np.repeat(d1, k)) + sa * (np.outer(qv, hv.conj()) + np.outer(hv, qv.conj()))
    return _lift_block(model, cov, d0), _lift_block(model, dcov, d1)


def lift_vector(model: PtModel, v):
    """Length-n vector of an (L, k) array of receive-subspace coordinates,
    or of a per-sample diagonal (an L-vector)."""
    v = np.asarray(v)
    if v.ndim == 2:
        return vec(model.q @ v.T)
    return np.repeat(v, model.n_r)


def linearized_czz(c_rr):
    """Linearized arcsine covariance F C_rr F + (1 - 2/pi) I, unit diagonal."""
    c_rr = np.asarray(c_rr)
    f = np.sqrt(TWO_OVER_PI / np.diag(c_rr).real)
    czz = np.outer(f, f) * c_rr + (1.0 - TWO_OVER_PI) * np.eye(c_rr.shape[0])
    czz = (czz + czz.conj().T) / 2.0
    np.fill_diagonal(czz, 1.0)
    return czz


def _response(model: PtModel):
    return dense_operator(pt_response_operator(model.theta, model.block_len, model.n_t,
                                               model.n_r), max_entries=1 << 22)


def _response_derivative(model: PtModel):
    return pt_response_derivative_operator(model.theta, model.block_len, model.n_t,
                                           model.n_r)


def dense_pt_workspace(model: PtModel, x):
    """The point-target covariance chain with every matrix dense n x n."""
    x = np.asarray(x, dtype=complex)
    n = model.n_r * model.block_len
    g = _response(model) @ x
    gp = _response_derivative(model) @ x
    sa = model.sigma_alpha_sq
    c_rr = sa * np.outer(g, g.conj()) + model.sigma_v_sq * np.eye(n)
    d_crr = sa * (np.outer(gp, g.conj()) + np.outer(g, gp.conj()))
    diag_crr = np.abs(g) ** 2 * sa + model.sigma_v_sq
    f = SQRT_TWO_OVER_PI / np.sqrt(diag_crr)
    diag_dcrr = 2.0 * sa * (gp * g.conj()).real
    d_f = -0.5 * SQRT_TWO_OVER_PI * diag_dcrr / diag_crr**1.5
    c_zz_hat = np.outer(f, f) * c_rr + (1.0 - TWO_OVER_PI) * np.eye(n)
    np.fill_diagonal(c_zz_hat, 1.0)
    d_czz = np.outer(d_f, f) * c_rr + np.outer(f, f) * d_crr + np.outer(f, d_f) * c_rr
    np.fill_diagonal(d_czz, 0.0)
    return SimpleNamespace(g=g, g_prime=gp, c_rr=c_rr, d_crr_dtheta=d_crr,
                           diag_crr=diag_crr, f=f, d_f_dtheta=d_f,
                           c_zz_hat=c_zz_hat, d_czz_dtheta=d_czz)


def _dense_chain(ws, quantized):
    if quantized:
        return ws.c_zz_hat, ws.d_czz_dtheta
    return ws.c_rr, ws.d_crr_dtheta


def dense_trace_form(cov, dcov):
    """tr(C^{-1} dC C^{-1} dC) via one dense Hermitian solve."""
    s = hermitian_solve(cov, dcov)
    return float(np.einsum("ij,ji->", s, s).real)


def _dense_p(cov, dcov):
    """P = C^{-1} dC C^{-1} by two dense solves, symmetrized."""
    s1 = hermitian_solve(cov, dcov)
    p_big = hermitian_solve(cov, s1.conj().T).conj().T
    return (p_big + p_big.conj().T) / 2.0


def dense_anchor_p(model: PtModel, x_t, quantized=True):
    """Anchor P = C^{-1} dC C^{-1} from the dense workspace."""
    return _dense_p(*_dense_chain(dense_pt_workspace(model, x_t), quantized))


def dense_h_tilde(channel, block_len):
    """H~ = I_L kron H formed explicitly."""
    return np.kron(np.eye(block_len), channel)


def _penalized(rho, channel):
    return rho != 0.0 and channel is not None and np.size(channel) > 0


def dense_penalty(x, block_len, rho, u_i=None, lambda_i=None, channel=None):
    """ADMM penalty rho ||H~ x - u + lambda||^2 with H~ formed explicitly; 0
    without a penalty or without users."""
    if not _penalized(rho, channel):
        return 0.0
    w = dense_h_tilde(channel, block_len) @ x - u_i + lambda_i
    return rho * float(np.vdot(w, w).real)


def augmented_objective(model, x, rho, u_i=None, lambda_i=None, channel=None):
    """True objective -tr(C^{-1} dC C^{-1} dC) of the model's chain plus the
    dense penalty at x."""
    return -model.chain_p(x).trace + dense_penalty(
        x, model.block_len, rho, u_i, lambda_i, channel
    )


def dense_surrogate_value(model: PtModel, p_big, x, quantized=True, rho=0.0,
                          u_i=None, lambda_i=None, channel=None):
    """-2 Re tr(P dC(x)) + tr(P C(x) P C(x)) + penalty, all dense."""
    p = lift(model, p_big)
    base, dbase = _dense_chain(dense_pt_workspace(model, x), quantized)
    lin = -2.0 * float(np.einsum("ij,ji->", p, dbase).real)
    pc = p @ base
    quad = float(np.einsum("ij,ji->", pc, pc).real)
    return lin + quad + dense_penalty(x, model.block_len, rho, u_i, lambda_i, channel)


def scalar_pgd_step(anchor, x_t, penalty=None, power=1.0):
    """opt_pt.pgd_step as a loop: score one backtracking candidate at a time,
    halving mu from 0.1 sqrt(power) until one passes or mu drops below
    opt_pt.STEP_FLOOR. Returns (x_next, mu, stalled)."""
    grad = surrogate_gradient(anchor, x_t, penalty)
    gn = float(np.linalg.norm(grad))
    m0 = surrogate_value(anchor, x_t, penalty)
    if gn <= 1e-12 * (abs(m0) + 1.0):
        return np.asarray(x_t, dtype=complex), 0.0, False
    ghat = grad / gn
    slack = opt_pt.RELATIVE_SLACK * (abs(m0) + 1.0)
    mu = 0.1 * np.sqrt(power)
    while mu >= opt_pt.STEP_FLOOR:
        x_new = project_power_ball(x_t - mu * ghat, power)
        m1 = surrogate_value(anchor, x_new, penalty)
        rhs = (2.0 * mu / gn) * float(np.vdot(grad, x_new - x_t).real)
        if m1 - m0 <= rhs + slack and m1 <= m0 + slack:
            return x_new, mu, False
        mu *= 0.5
    return np.asarray(x_t, dtype=complex), 0.0, True


def _diag_of_triple(a, dvec, b):
    return np.einsum("nk,k,kn->n", a, dvec, b)


def _row(coef, v, mat_vec, op):
    w = mat_vec * v if mat_vec.ndim == 1 else mat_vec @ v
    return coef * np.conj(op.conj().T @ w)


def dense_chain_gradient_rows(model: PtModel, p_big, x, quantized=True, rho=0.0,
                              u_i=None, lambda_i=None, channel=None):
    """Every surrogate gradient row (m11..m16/m1, m3, m4, total) from dense
    n x n matrices, term by term as the library's gradient_rows keys them."""
    ws = dense_pt_workspace(model, x)
    p = lift(model, p_big)
    sa = model.sigma_alpha_sq
    g, gp = ws.g, ws.g_prime
    op_a, op_ad = _response(model), _response_derivative(model)
    rows = {}
    if quantized:
        c, dc = ws.c_rr, ws.d_crr_dtheta
        f, df = ws.f, ws.d_f_dtheta
        j1 = 1.0 / ws.diag_crr
        j2 = 1.0 / np.sqrt(ws.diag_crr)
        diag_dc = np.diag(dc).real
        fpf = np.outer(f, f) * p
        fpdf = np.outer(f, df) * p + np.outer(df, f) * p
        coef = 0.5 * sa * SQRT_TWO_OVER_PI
        rows["m11"] = _row(-sa, g, fpdf, op_a)
        rows["m12"] = _row(-sa, g, fpf, op_ad) + _row(-sa, gp, fpf, op_a)
        diag_k1 = (_diag_of_triple(c, df, p) + _diag_of_triple(p, f, dc)
                   + _diag_of_triple(p, df, c) + _diag_of_triple(dc, f, p)).real
        rows["m13"] = _row(coef, g, j1 * j2 * diag_k1, op_a)
        diag_k2 = 2.0 * _diag_of_triple(c, f, p).real
        v46 = j1 * j1 * j2 * diag_dc * diag_k2
        rows["m14"] = _row(-coef, g, v46, op_a)
        v15 = j1 * j2 * diag_k2
        rows["m15"] = _row(coef, g, v15, op_ad) + _row(coef, gp, v15, op_a)
        rows["m16"] = _row(-0.5 * coef, g, v46, op_a)
        w_mat = p @ ws.c_zz_hat @ p
        w_mat = (w_mat + w_mat.conj().T) / 2.0
        diag_cfw = 2.0 * _diag_of_triple(c, f, w_mat).real
        rows["m3"] = _row(2.0 * sa, g, np.outer(f, f) * w_mat, op_a) + _row(
            -2.0 * coef, g, j1 * j2 * diag_cfw, op_a)
        linear_keys = ("m11", "m12", "m13", "m14", "m15", "m16")
    else:
        rows["m1"] = _row(-sa, g, p, op_ad) + _row(-sa, gp, p, op_a)
        w_mat = p @ ws.c_rr @ p
        rows["m3"] = _row(2.0 * sa, g, (w_mat + w_mat.conj().T) / 2.0, op_a)
        linear_keys = ("m1",)
    rows["m4"] = np.zeros(model.n_t * model.block_len, dtype=complex)
    if _penalized(rho, channel):
        h_tilde = dense_h_tilde(channel, model.block_len)
        rows["m4"] = rho * np.conj(h_tilde.conj().T @ (h_tilde @ x - u_i + lambda_i))
    rows["total"] = rows["m4"] + rows["m3"] + 2.0 * sum(rows[k] for k in linear_keys)
    return rows


def wirtinger_dx(fn, x, h=1e-6):
    """d fn / d x (holding x* fixed) by central differences, entrywise."""
    out = np.zeros(x.size, dtype=complex)
    for j in range(x.size):
        e = np.zeros(x.size, dtype=complex)
        e[j] = 1.0
        dre = (fn(x + h * e) - fn(x - h * e)) / (2.0 * h)
        dim = (fn(x + 1j * h * e) - fn(x - 1j * h * e)) / (2.0 * h)
        out[j] = 0.5 * (dre - 1j * dim)
    return out


def conjugate_gradient_fd(fn, x, h=1e-6):
    """d fn / d x* for a real-valued fn, by central differences."""
    out = np.zeros(x.size, dtype=complex)
    for j in range(x.size):
        e = np.zeros(x.size, dtype=complex)
        e[j] = 1.0
        dre = (fn(x + h * e) - fn(x - h * e)) / (2.0 * h)
        dim = (fn(x + 1j * h * e) - fn(x - 1j * h * e)) / (2.0 * h)
        out[j] = 0.5 * (dre + 1j * dim)
    return out


class PtSlotOracle:
    """Evaluates the linear surrogate term with all but one derivative path
    frozen at the anchor, for per-term gradient checks.

    Slots: "c" (echo covariance in the sandwich products), "dc" (its angle
    derivative), "f" (the Bussgang gain everywhere it appears), and the three
    factors of the gain derivative ("df_j1", "df_delta", "df_j2").
    """

    SLOTS = ("c", "dc", "f", "df_j1", "df_delta", "df_j2")

    def __init__(self, model: PtModel, anchor_p, x0):
        self.model = model
        self.p = lift(model, anchor_p)
        ws0 = dense_pt_workspace(model, x0)
        self.c0 = ws0.c_rr
        self.dc0 = ws0.d_crr_dtheta
        self.f0 = np.diag(ws0.f)
        self.df0 = np.diag(ws0.d_f_dtheta)
        self.j1_0 = np.diag(1.0 / ws0.diag_crr)
        self.j2_0 = np.diag(1.0 / np.sqrt(ws0.diag_crr))
        self.delta0 = np.diag(np.diag(ws0.d_crr_dtheta).real)

    def _pieces(self, x):
        ws = dense_pt_workspace(self.model, x)
        f = np.diag(ws.f)
        j1 = np.diag(1.0 / ws.diag_crr)
        j2 = np.diag(1.0 / np.sqrt(ws.diag_crr))
        delta = np.diag(np.diag(ws.d_crr_dtheta).real)
        return ws.c_rr, ws.d_crr_dtheta, f, j1, j2, delta

    @staticmethod
    def _df(j1, delta, j2):
        return -0.5 * np.sqrt(TWO_OVER_PI) * j1 @ delta @ j2

    def linear_term(self, x, slot):
        c, dc, f, j1, j2, delta = self._pieces(x)
        if slot == "c":
            cu, dcu, fu, dfu = c, self.dc0, self.f0, self.df0
        elif slot == "dc":
            cu, dcu, fu, dfu = self.c0, dc, self.f0, self.df0
        elif slot == "f":
            cu, dcu, fu, dfu = self.c0, self.dc0, f, self.df0
        elif slot == "df_j1":
            cu, dcu, fu = self.c0, self.dc0, self.f0
            dfu = self._df(j1, self.delta0, self.j2_0)
        elif slot == "df_delta":
            cu, dcu, fu = self.c0, self.dc0, self.f0
            dfu = self._df(self.j1_0, delta, self.j2_0)
        elif slot == "df_j2":
            cu, dcu, fu = self.c0, self.dc0, self.f0
            dfu = self._df(self.j1_0, self.delta0, j2)
        else:
            raise ValueError(slot)
        d_chat = dfu @ cu @ fu + fu @ dcu @ fu + fu @ cu @ dfu
        return -np.einsum("ij,ji->", self.p, d_chat)

    def quadratic_term(self, x):
        c, dc, f, j1, j2, delta = self._pieces(x)
        chat = f @ c @ f + (1.0 - TWO_OVER_PI) * np.eye(c.shape[0])
        pc = self.p @ chat
        return np.einsum("ij,ji->", pc, pc)


def dense_gradient_rows(model: PtModel, anchor_p, x):
    """Verbatim dense evaluation of every surrogate gradient term using
    explicit Kronecker products and the commutation matrix (small sizes)."""
    n = model.n_r * model.block_len
    sa = model.sigma_alpha_sq
    ws = dense_pt_workspace(model, x)
    anchor_p = lift(model, anchor_p)
    a_dense = _response(model)
    ad_dense = _response_derivative(model)
    g = ws.g
    c, dc = ws.c_rr, ws.d_crr_dtheta
    f_m = np.diag(ws.f)
    df_m = np.diag(ws.d_f_dtheta)
    j1 = np.diag(1.0 / ws.diag_crr)
    j2 = np.diag(1.0 / np.sqrt(ws.diag_crr))
    p_vec_row = ws_vec(anchor_p).conj()[None, :]  # vec(P)^H

    gxh = (x.conj()[None, :] @ a_dense.conj().T)  # x^H A^H as a row
    last_a = np.kron(gxh.T, a_dense)  # (x^H A^H)^T kron A
    last_ad = np.kron(gxh.T, ad_dense)
    gxh_d = (x.conj()[None, :] @ ad_dense.conj().T)
    last_a_from_d = np.kron(gxh_d.T, a_dense)

    rows = {}
    rows["m11"] = -sa * (
        p_vec_row @ (np.kron(df_m, f_m) + np.kron(f_m, df_m)) @ last_a
    )[0]
    rows["m12"] = -sa * (
        p_vec_row @ np.kron(f_m, f_m) @ (last_ad + last_a_from_d)
    )[0]
    k1 = c @ df_m @ anchor_p + anchor_p @ f_m @ dc + anchor_p @ df_m @ c + dc @ f_m @ anchor_p
    k2 = c @ f_m @ anchor_p + anchor_p @ f_m @ c
    coef = 0.5 * sa * np.sqrt(TWO_OVER_PI)
    x_row = x.conj()[None, :]
    rows["m13"] = coef * (
        x_row @ a_dense.conj().T @ np.diag(np.diag(j2 @ k1.conj().T @ j1)) @ a_dense
    )[0]
    ddc = np.diag(np.diag(dc))
    rows["m14"] = -coef * (
        x_row @ a_dense.conj().T
        @ np.diag(np.diag(j1 @ ddc @ j2 @ k2.conj().T @ j1)) @ a_dense
    )[0]
    d15 = np.diag(np.diag(j2 @ k2.conj().T @ j1))
    rows["m15"] = coef * (
        (x_row @ a_dense.conj().T @ d15 @ ad_dense)[0]
        + (x_row @ ad_dense.conj().T @ d15 @ a_dense)[0]
    )
    rows["m16"] = -0.5 * coef * (
        x_row @ a_dense.conj().T
        @ np.diag(np.diag(j2 @ k2.conj().T @ j1 @ ddc @ j1)) @ a_dense
    )[0]
    # m3 through the commutation-matrix expression
    czz = ws.c_zz_hat
    t_mat = commutation_matrix(n, n, max_entries=1 << 22)
    nn = -np.kron(anchor_p.conj(), anchor_p)
    k_vec = t_mat @ nn.T @ ws_vec(czz.conj()) + nn @ t_mat @ ws_vec(czz.conj())
    k3 = k_vec.reshape((n, n), order="F")
    rows["m3"] = (
        coef * (x_row @ a_dense.conj().T
                @ np.diag(np.diag(j2 @ c @ f_m @ k3.conj().T @ j1)) @ a_dense)[0]
        + coef * (x_row @ a_dense.conj().T
                  @ np.diag(np.diag(j2 @ k3.conj().T @ f_m @ c @ j1)) @ a_dense)[0]
        - sa * (x_row @ a_dense.conj().T @ f_m @ k3.conj().T @ f_m @ a_dense)[0]
    )
    return rows


def ws_vec(m):
    return np.asarray(m).reshape(-1, order="F")


def random_ball_point(rng, dim, power=1.0):
    x = complex_normal(rng, dim)
    x *= (power * rng.uniform(0.0, 1.0)) ** 0.5 / np.linalg.norm(x)
    return x


DENSE_GUARD = 4096


def commutation_permutation(m, n):
    """Index map realizing vec(A) -> vec(A^T) for A of shape m x n."""
    j = np.arange(m * n)
    return (j // n) + m * (j % n)


def commutation_apply(m, n, v):
    """Apply the m,n commutation to a length-mn vector (pure permutation)."""
    v = np.asarray(v)
    if v.size != m * n:
        raise ValueError(f"expected length {m * n}, got {v.size}")
    return v[commutation_permutation(m, n)]


def commutation_matrix(m, n, max_entries=DENSE_GUARD):
    """Dense commutation matrix, guarded to test-scale sizes."""
    size = m * n
    if size * size > max_entries:
        raise ValueError(f"refusing to materialize {size * size} entries")
    t = np.zeros((size, size))
    t[np.arange(size), commutation_permutation(m, n)] = 1.0
    return t


def dense_mbar_commutation(m_tilde, c_aa, n_t, n_r, block_len):
    """Mbar = T~^T (C_aa^T kron Mtilde) T~ with the explicit commutation
    matrices (small sizes only)."""
    vec_i = np.eye(n_r).reshape(-1, order="F")[:, None]
    ttilde = np.kron(
        np.eye(n_t), np.kron(commutation_matrix(n_r, block_len), np.eye(n_r))
    ) @ np.kron(commutation_matrix(n_t, block_len), vec_i)
    return ttilde.T @ np.kron(np.asarray(c_aa).T, m_tilde) @ ttilde


def mbar_apply_matrix_free(m_tilde, c_aa, n_t, n_r, block_len):
    """x -> Mbar x as Mtilde @ X~(x) @ C_aa followed by the receive partial
    trace, never forming Mbar."""

    def apply(xv):
        w4 = (m_tilde @ xtilde_multiply(unvec(xv, n_t, block_len), c_aa)).reshape(
            (n_r, block_len, n_r, n_t), order="F")
        return np.einsum("rlrn->nl", w4).reshape(-1, order="F")

    return apply


def dense_et_anchor(x, c_aa, sigma_v_sq, n_t, n_r, block_len, quantization_aware=True):
    """(L, M, M^{-1} L, gain) of the extended-target bound with X~ = X^T kron I
    formed explicitly."""
    xt = np.kron(unvec(x, n_t, block_len).T, np.eye(n_r))
    gram = xt @ c_aa @ xt.conj().T
    n = gram.shape[0]
    if quantization_aware:
        m = gram + (np.pi / 2.0 - 1.0) * np.diag(np.diag(gram))
        m = m + (np.pi / 2.0) * sigma_v_sq * np.eye(n)
    else:
        m = gram + sigma_v_sq * np.eye(n)
    m = (m + m.conj().T) / 2.0
    l_mat = xt @ c_aa
    y = hermitian_solve(m, l_mat)
    return l_mat, m, y, float(np.einsum("ij,ij->", l_mat.conj(), y).real)


def forced_dense_prior(c_aa, n_r, sigma_v_sq, quantization_aware):
    """The library's dense path forced onto c_aa, a Kronecker prior or not."""
    return DensePrior(np.asarray(c_aa), n_r, float(np.trace(c_aa).real), float(sigma_v_sq),
                      quantization_aware)


def dense_linear_term(y, c_aa, n_t, n_r, block_len):
    """l_t with tr(Y^H X~(x) C_aa) = l_t^H x for every x, where Y = M_t^{-1} L_t:
    l_t[j] = <X~(e_j) C_aa, Y> with X~(e_j) = E_j^T kron I formed explicitly
    for each basis waveform e_j."""
    identity = np.eye(n_t * block_len)
    return np.array([np.vdot(np.kron(unvec(e, n_t, block_len).T, np.eye(n_r)) @ c_aa, y)
                     for e in identity])


def anchor_linear_term(anchor, x_mat):
    """l_t of a library anchor, Kronecker or dense: its descent l_t - Mbar x
    at the zero waveform, of the shape of x_mat."""
    return vec(anchor.descent(anchor.mbar()[0], np.zeros_like(x_mat, dtype=complex)))


def dense_mbar(m_bar):
    """A library Mbar as a dense matrix: G kron Phi_T of a KronMbar, a dense
    one as it is."""
    return np.kron(m_bar.g, m_bar.phi_t) if isinstance(m_bar, tuple) else m_bar


def dense_m_tilde(y, quantization_aware=True):
    m_tilde = y @ y.conj().T
    if quantization_aware:
        m_tilde = m_tilde + (np.pi / 2.0 - 1.0) * np.diag(np.diag(m_tilde))
    return (m_tilde + m_tilde.conj().T) / 2.0


def uncached_solve_x_et(problem, x_init, rho=0.0, u_i=None, lambda_i=None,
                        channel=None, power=1.0, tol=1e-6, max_iter=20):
    """The MM loop of ``solve_x_et`` with nothing shared between steps: the
    bound's pieces are rebuilt from the explicit Kronecker X~ at every use
    and the spectral bound is 1.01 times the largest eigenvalue of the
    matrix-free Mbar apply taken column by column. Returns the objective
    history."""
    dims = (problem.n_t, problem.n_r, problem.block_len)
    aware = problem.quantization_aware

    def objective(x):
        return (-dense_et_anchor(x, problem.c_aa, problem.sigma_v_sq, *dims, aware)[3]
                + dense_penalty(x, problem.block_len, rho, u_i, lambda_i, channel))

    penalized = _penalized(rho, channel)
    if penalized:
        h_tilde = dense_h_tilde(channel, problem.block_len)
        hth = h_tilde.conj().T @ h_tilde
        lam_hth = float(np.linalg.eigvalsh(hth)[-1])
    x = np.asarray(x_init, dtype=complex)
    f_prev = objective(x)
    history = [f_prev]
    identity = np.eye(problem.n_t * problem.block_len, dtype=complex)
    for _ in range(max_iter):
        _, _, y, _ = dense_et_anchor(x, problem.c_aa, problem.sigma_v_sq, *dims, aware)
        apply = mbar_apply_matrix_free(dense_m_tilde(y, aware), problem.c_aa, *dims)
        m_bar = np.column_stack([apply(e) for e in identity])
        lam_mbar = 1.01 * float(np.linalg.eigvalsh(m_bar)[-1])
        l_t = dense_linear_term(y, problem.c_aa, *dims)
        m_t = l_t + lam_mbar * x - apply(x)
        denom = lam_mbar
        if penalized:
            m_t = m_t + rho * (h_tilde.conj().T @ (u_i - lambda_i))
            m_t = m_t + rho * (lam_hth * x - hth @ x)
            denom = lam_mbar + rho * lam_hth
        x = project_power_ball(m_t / denom, power)
        f_new = objective(x)
        history.append(f_new)
        if abs(f_new - f_prev) <= tol * (abs(f_prev) + 1e-30):
            break
        f_prev = f_new
    return history


def xtilde_dense(x_matrix, n_r, max_entries=65536):
    """X~ = X^T kron I_{n_r} formed explicitly, guarded to test-scale sizes."""
    x_matrix = np.asarray(x_matrix)
    n_t, block_len = x_matrix.shape
    total = (n_r * block_len) * (n_r * n_t)
    if total > max_entries:
        raise ValueError(f"refusing to materialize {total} entries")
    return np.kron(x_matrix.T, np.eye(n_r))


@dataclass
class EtCrbInputs:
    """Pieces of the extended-target bound: dense X~, prior, effective noise."""

    x_tilde: np.ndarray
    c_aa: np.ndarray
    c_vv_tilde: np.ndarray  # diagonal, stored as a vector
    f: np.ndarray


def et_crb_inputs(x_matrix, c_aa, sigma_v_sq):
    if sigma_v_sq <= 0.0:
        raise ValueError("noise power must be positive")
    x_matrix = np.asarray(x_matrix)
    c_aa = np.asarray(c_aa)
    xd = xtilde_dense(x_matrix, c_aa.shape[0] // x_matrix.shape[0], max_entries=1 << 22)
    diag_crr = np.einsum("ij,jk,ik->i", xd, c_aa, xd.conj()).real + sigma_v_sq
    f = SQRT_TWO_OVER_PI / np.sqrt(diag_crr)
    c_vv = sigma_v_sq * f**2 + (1.0 - TWO_OVER_PI)
    return EtCrbInputs(x_tilde=xd, c_aa=c_aa, c_vv_tilde=c_vv, f=f)


def crb_et_information_form(x_matrix, c_aa, sigma_v_sq):
    """Information-form bound tr((C_aa^{-1} + X~^H F Cvv^{-1} F X~)^{-1}).

    Requires an invertible prior.
    """
    inputs = et_crb_inputs(x_matrix, c_aa, sigma_v_sq)
    xd = inputs.x_tilde
    w = inputs.f**2 / inputs.c_vv_tilde
    info = xd.conj().T @ (w[:, None] * xd)
    info += np.linalg.inv(np.asarray(c_aa))
    return float(np.trace(hermitian_solve(info, np.eye(info.shape[0]))).real)


def crb_et_forms_equal(x_matrix, c_aa, sigma_v_sq, rtol=1e-9):
    """Compare the library's expanded form of the extended-target bound with
    the information form."""
    a = crb_et(x_matrix, c_aa, sigma_v_sq)
    b = crb_et_information_form(x_matrix, c_aa, sigma_v_sq)
    gap = abs(a - b) / max(abs(a), abs(b), np.finfo(float).tiny)
    return gap <= rtol, gap


def dense_blmmse_matrix(x_matrix, c_aa, sigma_v_sq):
    """C_aa X~^H F C_zz^{-1} with X~ = X^T kron I formed explicitly and the
    exact arcsine C_zz inverted directly."""
    c_aa = np.asarray(c_aa)
    xd = xtilde_dense(x_matrix, c_aa.shape[0] // np.shape(x_matrix)[0], max_entries=1 << 22)
    c_rr = xd @ c_aa @ xd.conj().T + sigma_v_sq * np.eye(xd.shape[0])
    f = bussgang_gain(c_rr)
    return c_aa @ xd.conj().T @ np.diag(f) @ np.linalg.inv(covariance_czz_exact(c_rr))


def chol_logdet(factor):
    """log det from a ``cho_factor`` result."""
    c, _ = factor
    return 2.0 * np.sum(np.log(np.abs(np.diag(c))))


def dense_pt_czz(grid, theta):
    """Exact arcsine C_zz of the point-target echo of an MleGrid at one angle,
    from the dense echo covariance sigma_alpha_sq g g^H + sigma_v_sq I."""
    g = pt_response_operator(theta, grid.block_len, grid.n_t, grid.n_r).apply(grid.x)
    c_rr = grid.sigma_alpha_sq * np.outer(g, g.conj()) + grid.sigma_v_sq * np.eye(g.size)
    return covariance_czz_exact(c_rr)


def gathered_pt_czz(x_matrix, thetas, sigma_alpha_sq, sigma_v_sq, n_r):
    """estimators.pt_covariance_czz with every entry gathered by one
    fancy index into its lags: the same arcsines, and a new C-ordered
    (len(thetas), n_r L, n_r L) array."""
    thetas = np.asarray(thetas, dtype=float)
    block_len = x_matrix.shape[1]
    s = steering(x_matrix.shape[0], thetas) @ x_matrix
    d = positive_diagonal(sigma_alpha_sq * (s.real**2 + s.imag**2) / n_r + sigma_v_sq)
    beta = s * np.sqrt(sigma_alpha_sq / n_r / d)
    t = steering(n_r, thetas) * math.sqrt(n_r)
    lag = np.concatenate((t[:, :0:-1].conj(), t), axis=1)
    rho = (beta[:, :, None] * beta.conj()[:, None, :])[..., None] * lag[:, None, None, :]
    diag = (slice(None), np.arange(block_len), np.arange(block_len), n_r - 1)
    vals = arcsine_law(rho, diag)
    # vec index r + n_r l: entry (i, i') reads (l, l', r - r')
    l_idx = np.repeat(np.arange(block_len), n_r)
    r_idx = np.tile(np.arange(n_r), block_len)
    return vals[:, l_idx[:, None], l_idx[None, :], r_idx[:, None] - r_idx[None, :] + n_r - 1]


def dense_mle_objective(grid, z, theta):
    """z^H C_zz^{-1} z + log det C_zz of one observation at one angle, with its
    own jittered Cholesky factor and cho_solve."""
    factor = hermitian_factor(dense_pt_czz(grid, theta))
    return float(np.vdot(z, sla.cho_solve(factor, z)).real) + chol_logdet(factor)


def dense_mle_estimate(grid, z, visited=None):
    """One observation's hierarchical search over grid.thetas and the
    refinement levels of grid.cfg, one dense_mle_objective per angle. Each
    level's refinement grid is appended to ``visited`` when it is a list."""
    vals = [dense_mle_objective(grid, z, t) for t in grid.thetas]
    theta_hat = float(grid.thetas[int(np.argmin(vals))])
    step = grid.cfg.coarse_grid_step
    for _ in range(grid.cfg.refine_levels):
        fine = step * grid.cfg.refine_shrink
        offsets = np.arange(-10, 11) * fine
        angles = np.clip(theta_hat + offsets, -np.pi / 2, np.pi / 2)
        if visited is not None:
            visited.append(angles)
        fvals = [dense_mle_objective(grid, z, t) for t in angles]
        theta_hat = float(angles[int(np.argmin(fvals))])
        step = fine
    return theta_hat


def pt_trial_observations(scenario, x, n_trials, base_seed):
    """One-bit point-target echoes, one column per trial. Trial t draws from
    seed base_seed + t a reflection coefficient of unit modulus and uniform
    phase, scaled to sigma_alpha, and then the noise."""
    target = scenario.target
    g = pt_response_operator(target.theta, scenario.block_len, scenario.n_t,
                             scenario.n_r).apply(x)
    cols = []
    for seed in range(base_seed, base_seed + n_trials):
        rng = np.random.default_rng(seed)
        alpha = complex_normal(rng, ())
        alpha = alpha / np.abs(alpha) * np.sqrt(target.sigma_alpha_sq)
        noise = complex_normal(rng, g.size, scale=np.sqrt(scenario.sigma_v_sq))
        cols.append(quantize_one_bit(alpha * g + noise))
    return np.column_stack(cols)


def sample_response(target, rng):
    """One response of an EtTarget, from 2 n_r n_t standard normals of rng."""
    return target.responses(rng.standard_normal(2 * target.c_aa.shape[0]))


def per_trial_et_errors(scenario, x_matrix, n_trials, base_seed, unquantized=False):
    """Squared errors of extended-target trials run one at a time: trial t
    draws from seed base_seed + t the response A and then the noise, forms
    vec(A X) + noise, quantizes it unless unquantized, and applies the
    BLMMSE (unquantized: LMMSE) matrix to that one vector."""
    target = scenario.target
    if unquantized:
        # C_aa X~^H C_rr^{-1} = (C_rr^{-1} L)^H with X~ formed explicitly
        estimator = dense_et_anchor(vec(x_matrix), target.c_aa, scenario.sigma_v_sq,
                                    scenario.n_t, scenario.n_r, scenario.block_len,
                                    quantization_aware=False)[2].conj().T
    else:
        estimator = blmmse_matrix(x_matrix, target.c_aa, scenario.sigma_v_sq)
    errors = []
    for seed in range(base_seed, base_seed + n_trials):
        rng = np.random.default_rng(seed)
        a = sample_response(target, rng)
        noise = complex_normal(rng, scenario.n_r * scenario.block_len,
                               scale=np.sqrt(scenario.sigma_v_sq))
        r = vec(a @ x_matrix) + noise
        err = estimator @ (r if unquantized else quantize_one_bit(r)) - vec(a)
        errors.append(float(np.vdot(err, err).real))
    return np.array(errors)


def per_draw_ser(x_matrix, h, s, d, sigma_w, n_noise_draws, seed, order):
    """empirical_ser with its noise drawn, sliced and counted one draw at a
    time: each draw is complex_normal(rng, (K, L), scale=sigma_w) of one
    default_rng(seed)."""
    k, block_len = s.shape
    d_r, d_i = d[:k][:, None], d[k:][:, None]
    noiseless = h @ x_matrix
    rng = np.random.default_rng(seed)
    errors = np.zeros(k, dtype=np.int64)
    for _ in range(n_noise_draws):
        y = noiseless + complex_normal(rng, (k, block_len), scale=sigma_w)
        dec_r = _slice_to_level(y.real / d_r, order)
        dec_i = _slice_to_level(y.imag / d_i, order)
        errors += np.sum((dec_r != s.real) | (dec_i != s.imag), axis=1)
    return errors / float(n_noise_draws * block_len)


def sequential_boundary_points(inst):
    """boundary_points as one Python pass per instance: gamma and every
    finite candidate above gamma + 1e-12, sorted, each point kept when it
    lies more than 1e-12 above the last point kept, then +inf."""
    with np.errstate(divide="ignore", invalid="ignore"):
        cands = np.concatenate(((inst.chi + inst.a_tilde) / (1.0 + inst.s_tilde),
                                (inst.b_tilde - inst.chi) / (1.0 - inst.s_tilde)))
    pts = sorted(c for c in cands.tolist() if np.isfinite(c) and c > inst.gamma + 1e-12)
    merged = [float(inst.gamma)]
    for p in pts:
        if p - merged[-1] > 1e-12:
            merged.append(p)
    return np.array(merged + [np.inf])


def _objective_at(inst, d):
    u = _clamp_u(inst.chi, inst.s_tilde, inst.a_tilde, inst.b_tilde, d)
    return float(np.sum((u - inst.chi) ** 2)), u


def enumerate_user_qp(inst):
    """Per-user SEP subproblem solved by scoring every interval between
    boundary points: clamp each interval's stationary point into it, keep
    the best objective, ties to the earlier, smaller decision value."""
    pts = boundary_points(inst)
    s = inst.s_tilde
    chi = inst.chi
    a = inst.a_tilde
    b = inst.b_tilde
    best_d = None
    best_obj = np.inf
    for i in range(len(pts) - 1):
        lo, hi = pts[i], pts[i + 1]
        probe = 0.5 * (lo + hi) if np.isfinite(hi) else lo + 1.0
        with np.errstate(invalid="ignore"):
            in_gamma = chi > (s + 1.0) * probe - a
            in_omega = chi < (s - 1.0) * probe + b
        den = np.sum((s + 1.0)[in_gamma] ** 2) + np.sum((s - 1.0)[in_omega] ** 2)
        if den == 0.0:
            d_hat = lo
        else:
            num = np.sum(((a + chi) * (s + 1.0))[in_gamma]) + np.sum(
                ((chi - b) * (s - 1.0))[in_omega]
            )
            d_hat = min(max(num / den, lo), hi)
        obj, _ = _objective_at(inst, d_hat)
        if obj < best_obj:
            best_obj = obj
            best_d = d_hat
    obj, u = _objective_at(inst, best_d)
    return float(best_d), u, obj
