"""One-bit quantizer, Bussgang gain and arcsine-law covariance. The
point-target chain, with the linearized arcsine covariance, lives in
``crb_metrics.PtModel.chain_factors``; the extended-target echo covariance is
the quantization-unaware M of ``crb_metrics.et_l_and_m``."""

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


def positive_diagonal(d):
    """The real covariance diagonal d, checked strictly positive (NaN fails)."""
    if not np.all(d > 0.0):
        raise ValueError("covariance diagonal must be strictly positive")
    return d


def bussgang_gain(c_rr):
    """Diagonal Bussgang gain sqrt(2/pi) diag(C_rr)^{-1/2}, stored as a vector."""
    return np.sqrt(TWO_OVER_PI / positive_diagonal(np.diag(c_rr).real))


def arcsine_law(rho, unit):
    """(2/pi) (arcsin Re rho + j arcsin Im rho) of a normalized correlation
    rho, with the entries at index unit (its diagonal) set to exactly one.

    Raises if an entry off the diagonal has modulus above 1 + 1e-9 or is NaN;
    smaller excesses from rounding are clipped.
    """
    mod = np.abs(rho)
    mod[unit] = 0.0
    if not mod.max(initial=0.0) <= 1.0 + 1e-9:
        raise ValueError(f"normalized correlation modulus {mod.max():.6g} exceeds 1")
    del mod  # as large as rho's real part: free it before the arcsines
    re = np.arcsin(np.clip(rho.real, -1.0, 1.0))
    im = np.arcsin(np.clip(rho.imag, -1.0, 1.0))
    vals = TWO_OVER_PI * (re + 1j * im)
    vals[unit] = 1.0
    return vals


def covariance_czz_exact(c_rr):
    """Arcsine-law covariance of the one-bit output.

    (2/pi) arcsin applied separately to the real and imaginary parts of the
    normalized input correlation; the diagonal is exactly one.
    """
    c_rr = np.asarray(c_rr)
    scale = 1.0 / np.sqrt(positive_diagonal(np.diag(c_rr).real))
    czz = arcsine_law(c_rr * np.outer(scale, scale), np.diag_indices(c_rr.shape[0]))
    return (czz + czz.conj().T) / 2.0
