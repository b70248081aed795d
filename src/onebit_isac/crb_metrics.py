"""Estimation-accuracy metrics: the one-bit DOA bound for point-like targets
with its full derivative chain, the Bayesian trace bound for extended
targets, their infinite-resolution / quantization-unaware counterparts, and
the point-target workspace and extended-target anchor the optimizers reuse."""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import XtildeOperator, hermitian_solve, unvec
from .array_geometry import receive_basis, steering, steering_derivative
from .quantization import TWO_OVER_PI

INFINITE_CRB_FLOOR = 1e-18
SQRT_TWO_OVER_PI = math.sqrt(TWO_OVER_PI)


class ReceiveBlock:
    """An n x n matrix of the point-target chain, n = n_r L, held in the
    receive subspace.

    With Q the model's receive basis (k columns) the matrix is
    (I_L kron Q) w (I_L kron Q)^H + diag(c) kron (I - Q Q^H): w is kL x kL
    with index j + k l, c an L-vector on the n_perp = n_r - k dimensional
    complement. Products, solves and scalings by diag(v) kron I_{n_r} keep
    this form.
    """

    __slots__ = ("w", "c", "n_perp")

    def __init__(self, w, c, n_perp):
        self.w = w
        self.c = c
        self.n_perp = n_perp

    def __matmul__(self, other):
        return ReceiveBlock(self.w @ other.w, self.c * other.c, self.n_perp)

    def solve(self, other):
        """self^{-1} other."""
        return ReceiveBlock(np.linalg.solve(self.w, other.w), other.c / self.c, self.n_perp)

    def adjoint(self):
        return ReceiveBlock(self.w.conj().T, self.c, self.n_perp)

    def hermitian(self):
        return ReceiveBlock((self.w + self.w.conj().T) / 2.0, self.c, self.n_perp)

    def scaled(self, right):
        """self (diag(right) kron I_{n_r}) for a real L-vector right."""
        k = self.w.shape[0] // right.size
        return ReceiveBlock(self.w * np.repeat(right, k), self.c * right, self.n_perp)

    def matvec(self, v):
        """self applied to an (L, k) array of receive-subspace coordinates."""
        return (self.w @ v.reshape(-1)).reshape(v.shape)

    def trace(self):
        return np.trace(self.w) + self.n_perp * np.sum(self.c)

    def receive_trace(self):
        """Per-sample receive partial trace: the L-vector of sums of the
        diagonal over the n_r receive elements."""
        block_len = self.c.size
        k = self.w.shape[0] // block_len
        w4 = self.w.reshape(block_len, k, block_len, k)
        return np.einsum("ljlj->l", w4) + self.n_perp * self.c


@dataclass
class PtCrbWorkspace:
    """Covariance chain of the point-target bound at one waveform.

    With s = X^T a_t and s_d = X^T da_t, the echo is g = s kron a_r and its
    angle derivative g' = s kron da_r + s_d kron a_r; g and g_prime hold them
    as (L, k) receive-subspace coordinates. Every matrix is a
    :class:`ReceiveBlock`: c_rr = sigma_v^2 I + sigma_alpha^2 g g^H, the
    linearized one-bit c_zz_hat, and their angle derivatives. Their
    diagonals (diag_crr, f, d_f_dtheta) depend only on the sample index and
    are L-vectors.
    """

    s: np.ndarray
    s_d: np.ndarray
    g: np.ndarray
    g_prime: np.ndarray
    c_rr: ReceiveBlock
    d_crr_dtheta: ReceiveBlock
    diag_crr: np.ndarray
    diag_dcrr: np.ndarray
    f: np.ndarray
    d_f_dtheta: np.ndarray
    c_zz_hat: ReceiveBlock
    d_czz_dtheta: ReceiveBlock


def _outer(u, v):
    return np.outer(u.reshape(-1), v.reshape(-1).conj())


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
    # (waveform, workspace) of the last call: the MM loop asks for the
    # workspace at the anchor and at the accepted step more than once
    _last: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sigma_v_sq <= 0.0:
            raise ValueError("noise power must be positive")
        if self.block_len < 1:
            raise ValueError("block length must be positive")
        self.a_t = steering(self.n_t, self.theta)
        self.da_t = steering_derivative(self.n_t, self.theta)
        self.q = receive_basis(self.n_r, self.theta)
        self.beta = self.q.conj().T @ steering_derivative(self.n_r, self.theta)

    def workspace(self, x):
        """Build the full covariance/derivative chain at waveform x.

        The diagonals are per sample because the ULA has |a_r,i|^2 = 1/n_r
        and conj(a_r) o da_r purely imaginary.
        """
        x = np.asarray(x, dtype=complex)
        last = self._last
        if last is not None and np.array_equal(last[0], x):
            return last[1]
        xm = unvec(x, self.n_t, self.block_len)
        s = xm.T @ self.a_t
        s_d = xm.T @ self.da_t
        k = self.q.shape[1]
        n_perp = self.n_r - k
        sa, sv = self.sigma_alpha_sq, self.sigma_v_sq
        g = np.zeros((self.block_len, k), dtype=complex)
        g[:, 0] = s
        gp = np.outer(s, self.beta)
        gp[:, 0] += s_d
        c_rr = ReceiveBlock(sv * np.eye(g.size) + sa * _outer(g, g),
                            np.full(self.block_len, sv), n_perp)
        d_crr = ReceiveBlock(sa * (_outer(gp, g) + _outer(g, gp)),
                             np.zeros(self.block_len), n_perp)
        diag_crr = sa * np.abs(s) ** 2 / self.n_r + sv
        diag_dcrr = 2.0 * sa * (s_d * s.conj()).real / self.n_r
        f = SQRT_TWO_OVER_PI / np.sqrt(diag_crr)
        d_f = -0.5 * SQRT_TWO_OVER_PI * diag_dcrr / diag_crr**1.5
        # F C_rr F + (1 - 2/pi) I has the unit quantizer diagonal; pin it:
        # diag(c) + sa h h^H with h = F g
        h = f[:, None] * g
        c_pin = 1.0 - sa * np.abs(f * s) ** 2 / self.n_r
        c_zz_hat = ReceiveBlock(np.diag(np.repeat(c_pin, k)) + sa * _outer(h, h),
                                c_pin, n_perp)
        # dF C F + F dC F + F C dF = diag + sa (q h^H + h q^H) with
        # q = dF g + F g'; the diagonal is analytically zero, so pin it
        q = d_f[:, None] * g + f[:, None] * gp
        d_pin = -2.0 * sa * ((d_f * s + f * s_d) * (f * s).conj()).real / self.n_r
        d_czz = ReceiveBlock(np.diag(np.repeat(d_pin, k)) + sa * (_outer(q, h) + _outer(h, q)),
                             d_pin, n_perp)
        ws = PtCrbWorkspace(
            s=s,
            s_d=s_d,
            g=g,
            g_prime=gp,
            c_rr=c_rr,
            d_crr_dtheta=d_crr,
            diag_crr=diag_crr,
            diag_dcrr=diag_dcrr,
            f=f,
            d_f_dtheta=d_f,
            c_zz_hat=c_zz_hat,
            d_czz_dtheta=d_czz,
        )
        self._last = (x.copy(), ws)
        return ws


def _trace_form(cov, dcov):
    """tr(C^{-1} dC C^{-1} dC) for receive blocks C and dC."""
    s = cov.solve(dcov)
    return float((s @ s).trace().real)


def _chain(ws, quantized):
    """(C, dC/dtheta) of the one-bit or the unquantized covariance chain."""
    if quantized:
        return ws.c_zz_hat, ws.d_czz_dtheta
    return ws.c_rr, ws.d_crr_dtheta


def pt_bound(ws, quantized=True):
    """1 / tr(C^{-1} dC C^{-1} dC) of a workspace: the one-bit bound, or the
    infinite-resolution one when quantized is False; math.inf when the trace
    falls below INFINITE_CRB_FLOOR (unidentifiable direction)."""
    t = _trace_form(*_chain(ws, quantized))
    if t < INFINITE_CRB_FLOOR:
        return math.inf
    return 1.0 / t


def crb_pt(x, theta, sigma_alpha_sq, sigma_v_sq, n_r, block_len):
    """Worst-case one-bit DOA bound for a point-like target (rad^2).

    Returns math.inf when the direction is unidentifiable (trace below the
    configured floor), e.g. at theta = +/- pi/2.
    """
    x = np.asarray(x)
    model = PtModel(theta, sigma_alpha_sq, sigma_v_sq, x.size // block_len, n_r, block_len)
    return pt_bound(model.workspace(x))


def crb_pt_infinite_resolution(x, theta, sigma_alpha_sq, sigma_v_sq, n_r, block_len):
    """Same trace bound with the unquantized echo covariance."""
    x = np.asarray(x)
    model = PtModel(theta, sigma_alpha_sq, sigma_v_sq, x.size // block_len, n_r, block_len)
    return pt_bound(model.workspace(x), quantized=False)


@dataclass(frozen=True)
class EtAnchor:
    """The extended-target bound's pieces at one waveform.

    l_mat = X~ C_aa, m = M(x) and m_inv_l = M^{-1} L, where M is
    X~ C X~^H + (pi/2 - 1) diag(X~ C X~^H) + (pi/2) sigma_v^2 I for the
    one-bit bound and X~ C X~^H + sigma_v^2 I for the unquantized LMMSE
    (both Hermitian-symmetrized); gain = tr(L^H M^{-1} L).
    """

    l_mat: np.ndarray
    m: np.ndarray
    m_inv_l: np.ndarray
    gain: float


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
    """L, M, M^{-1} L and the gain of the extended-target bound at X."""
    l_mat, m = et_l_and_m(x_matrix, c_aa, sigma_v_sq, quantization_aware)
    m_inv_l = hermitian_solve(m, l_mat)
    gain = float(np.einsum("ij,ij->", l_mat.conj(), m_inv_l).real)
    return EtAnchor(l_mat=l_mat, m=m, m_inv_l=m_inv_l, gain=gain)


def crb_et(x_matrix, c_aa, sigma_v_sq):
    """One-bit Bayesian trace bound for the extended-target response.

    Uses the expanded form tr(C_aa) - tr(L^H M^{-1} L), which stays valid for
    merely PSD priors.
    """
    gain = et_anchor(x_matrix, c_aa, sigma_v_sq).gain
    return float(np.trace(np.asarray(c_aa)).real - gain)


def mse_et_quantization_unaware(x_matrix, c_aa, sigma_v_sq):
    """Unquantized LMMSE MSE, tr(C_aa) - tr(C_aa X~^H (X~ C X~^H + s^2 I)^{-1} X~ C_aa)."""
    gain = et_anchor(x_matrix, c_aa, sigma_v_sq, quantization_aware=False).gain
    return float(np.trace(np.asarray(c_aa)).real - gain)
