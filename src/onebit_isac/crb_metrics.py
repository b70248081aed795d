"""Estimation-accuracy metrics: the one-bit DOA bound for point-like targets
with its full derivative chain, the Bayesian trace bound for extended
targets, their infinite-resolution / quantization-unaware counterparts, and
the point-target workspace and extended-target anchor the optimizers reuse."""

import math
from dataclasses import dataclass, field

import numpy as np

from .linalg import DiagLowRank, XtildeOperator, hermitian_solve
from .array_geometry import pt_response_operator, pt_response_derivative_operator
from .quantization import TWO_OVER_PI

INFINITE_CRB_FLOOR = 1e-18
SQRT_TWO_OVER_PI = math.sqrt(TWO_OVER_PI)


@dataclass
class PtCrbWorkspace:
    """Covariance chain of the point-target bound at one waveform.

    Every matrix is a :class:`DiagLowRank`. With g = A x and h = f g,
    c_rr = sigma_v^2 I + sigma_alpha^2 g g^H and c_zz_hat = diag +
    sigma_alpha^2 h h^H are diagonal plus rank one, and their angle
    derivatives diagonal plus rank two. Diagonal matrices (f, d_f_dtheta and
    the diagonal of c_rr) are stored as vectors.
    """

    g: np.ndarray
    g_prime: np.ndarray
    c_rr: DiagLowRank
    d_crr_dtheta: DiagLowRank
    diag_crr: np.ndarray
    f: np.ndarray
    d_f_dtheta: np.ndarray
    c_zz_hat: DiagLowRank
    d_czz_dtheta: DiagLowRank


@dataclass
class PtModel:
    """Point-target problem data with cached response operators."""

    theta: float
    sigma_alpha_sq: float
    sigma_v_sq: float
    n_t: int
    n_r: int
    block_len: int
    response: object = field(default=None, repr=False)
    response_derivative: object = field(default=None, repr=False)
    # (waveform, workspace) of the last call: the MM loop asks for the
    # workspace at the anchor and at the accepted step more than once
    _last: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.sigma_v_sq <= 0.0:
            raise ValueError("noise power must be positive")
        if self.response is None:
            self.response = pt_response_operator(
                self.theta, self.block_len, self.n_t, self.n_r
            )
        if self.response_derivative is None:
            self.response_derivative = pt_response_derivative_operator(
                self.theta, self.block_len, self.n_t, self.n_r
            )

    @property
    def dim(self):
        return self.n_r * self.block_len

    def workspace(self, x):
        """Build the full covariance/derivative chain at waveform x."""
        x = np.asarray(x, dtype=complex)
        last = self._last
        if last is not None and np.array_equal(last[0], x):
            return last[1]
        g = self.response.apply(x)
        gp = self.response_derivative.apply(x)
        sa = self.sigma_alpha_sq
        zero = np.zeros(g.size)
        c_rr = DiagLowRank(np.full(g.size, self.sigma_v_sq), sa * g[:, None], g[:, None])
        d_crr = DiagLowRank(zero, sa * np.array([gp, g]).T, np.array([g, gp]).T)
        diag_crr = np.abs(g) ** 2 * sa + self.sigma_v_sq
        f = SQRT_TWO_OVER_PI / np.sqrt(diag_crr)
        diag_dcrr = 2.0 * sa * (gp * g.conj()).real
        d_f = -0.5 * SQRT_TWO_OVER_PI * diag_dcrr / diag_crr**1.5
        # F C_rr F + (1 - 2/pi) I has the unit quantizer diagonal; pin it
        h = f * g
        c_zz_hat = DiagLowRank(zero, sa * h[:, None], h[:, None]).with_diagonal(1.0)
        # dF C F + F dC F + F C dF = diag + sa (q h^H + h q^H); the diagonal
        # is analytically zero, so pin it exactly
        q = d_f * g + f * gp
        d_czz = DiagLowRank(zero, sa * np.array([q, h]).T,
                            np.array([h, q]).T).with_diagonal(0.0)
        ws = PtCrbWorkspace(
            g=g,
            g_prime=gp,
            c_rr=c_rr,
            d_crr_dtheta=d_crr,
            diag_crr=diag_crr,
            f=f,
            d_f_dtheta=d_f,
            c_zz_hat=c_zz_hat,
            d_czz_dtheta=d_czz,
        )
        self._last = (x.copy(), ws)
        return ws


def _trace_form(cov, dcov):
    """tr(C^{-1} dC C^{-1} dC) for diagonal-plus-low-rank C and dC."""
    s = cov.solve(dcov)
    return float(s.trace_prod(s).real)


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
