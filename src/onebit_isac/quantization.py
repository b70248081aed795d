"""One-bit quantizer, Bussgang gain, arcsine-law covariance, and the
extended-target echo-covariance builder. The point-target chain, with the
linearized arcsine covariance, lives in ``crb_metrics.PtModel.workspace``."""

from dataclasses import dataclass, field

import numpy as np

from .linalg import XtildeOperator

TWO_OVER_PI = 2.0 / np.pi


def quantize_one_bit(r):
    """Per-component sign quantizer onto the unit QPSK circle.

    sign(0) maps to +1 so the output is deterministic on measure-zero inputs.
    """
    r = np.asarray(r)
    re = np.where(r.real >= 0.0, 1.0, -1.0)
    im = np.where(r.imag >= 0.0, 1.0, -1.0)
    return (re + 1j * im) / np.sqrt(2.0)


def bussgang_gain(c_rr):
    """Diagonal Bussgang gain sqrt(2/pi) diag(C_rr)^{-1/2}, stored as a vector."""
    c_rr = np.asarray(c_rr)
    d = np.diag(c_rr).real if c_rr.ndim == 2 else c_rr.real
    if np.any(d <= 0.0):
        raise ValueError("covariance diagonal must be strictly positive")
    return np.sqrt(TWO_OVER_PI / d)


def _normalized_correlation(c_rr):
    c_rr = np.asarray(c_rr)
    d = np.diag(c_rr).real
    if np.any(d <= 0.0):
        raise ValueError("covariance diagonal must be strictly positive")
    scale = 1.0 / np.sqrt(d)
    return c_rr * np.outer(scale, scale)


def covariance_czz_exact(c_rr):
    """Arcsine-law covariance of the one-bit output.

    (2/pi) arcsin applied separately to the real and imaginary parts of the
    normalized input correlation; the diagonal is exactly one.
    """
    s = _normalized_correlation(c_rr)
    mod = np.abs(s)
    np.fill_diagonal(mod, 0.0)
    if mod.max(initial=0.0) > 1.0 + 1e-9:
        raise ValueError(
            f"normalized correlation modulus {mod.max():.6g} exceeds 1"
        )
    re = np.clip(s.real, -1.0, 1.0)
    im = np.clip(s.imag, -1.0, 1.0)
    czz = TWO_OVER_PI * (np.arcsin(re) + 1j * np.arcsin(im))
    czz = (czz + czz.conj().T) / 2.0
    np.fill_diagonal(czz, 1.0)
    return czz


@dataclass
class EchoCovariance:
    """Covariance of the unquantized echo, rank-one + diagonal for PT.

    For PT the matrix is held as factor factor^H + noise_floor I and only
    materialized on demand; ET instances carry the dense matrix directly.
    """

    model_tag: str
    noise_floor: float
    factor: np.ndarray = None
    dense_matrix: np.ndarray = None
    _cache: np.ndarray = field(default=None, repr=False)

    @property
    def n(self):
        if self.dense_matrix is not None:
            return self.dense_matrix.shape[0]
        return self.factor.size

    @property
    def matrix(self):
        if self.dense_matrix is not None:
            return self.dense_matrix
        if self._cache is None:
            self._cache = np.outer(self.factor, self.factor.conj()) + (
                self.noise_floor * np.eye(self.n)
            )
        return self._cache

    def diagonal(self):
        if self.dense_matrix is not None:
            return np.diag(self.dense_matrix).real
        return np.abs(self.factor) ** 2 + self.noise_floor


def crr_et(x_matrix, c_aa, sigma_v_sq):
    """Extended-target echo covariance X~ C_aa X~^H + sigma_v^2 I."""
    if sigma_v_sq <= 0.0:
        raise ValueError("noise power must be positive")
    x_matrix = np.asarray(x_matrix)
    c_aa = np.asarray(c_aa)
    n_t = x_matrix.shape[0]
    if c_aa.shape[0] % n_t != 0:
        raise ValueError("prior covariance size incompatible with waveform")
    n_r = c_aa.shape[0] // n_t
    op = XtildeOperator(x_matrix, n_r)
    dense = op.gram(c_aa) + sigma_v_sq * np.eye(n_r * x_matrix.shape[1])
    dense = (dense + dense.conj().T) / 2.0
    return EchoCovariance(model_tag="et", noise_floor=float(sigma_v_sq), dense_matrix=dense)
