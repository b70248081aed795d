"""One-bit quantizer, Bussgang gain and arcsine-law covariance. The
point-target chain, with the linearized arcsine covariance, lives in
``crb_metrics.PtModel.chain_factors``; the extended-target echo covariance is
the quantization-unaware M of ``crb_metrics.et_anchor``."""

import numpy as np

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
