"""QAM constellation handling, symbol-error-probability threshold
construction, constraint evaluation, and empirical SER measurement.
scipy.special is loaded on the first call of q_function or q_inverse."""

from dataclasses import dataclass

import numpy as np

from .linalg import check_count, complex_from_normals

# standard normals per chunk of empirical_ser's noise draws
_CHUNK_NORMALS = 1 << 18


def q_function(x):
    """Gaussian tail probability Q(x)."""
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(x, dtype=float) / np.sqrt(2.0))


def q_inverse(p):
    """Inverse Gaussian tail, Q^{-1}(p) for p in (0, 1)."""
    from scipy.special import ndtri

    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("q_inverse requires probabilities strictly inside (0, 1)")
    out = -ndtri(p)
    return float(out) if out.ndim == 0 else out


def qam_levels(order):
    """Per-dimension amplitude levels of square M-QAM, odd integers."""
    root = int(round(np.sqrt(order)))
    if root * root != order or order < 4:
        raise ValueError("QAM order must be a perfect square >= 4")
    return np.arange(-(root - 1), root, 2).astype(float)


def random_qam_symbols(n_users, block_len, order, rng):
    levels = qam_levels(order)
    re = rng.choice(levels, size=(n_users, block_len))
    im = rng.choice(levels, size=(n_users, block_len))
    return re + 1j * im


def validate_qam(s, order):
    levels = qam_levels(order)
    s = np.asarray(s)
    for part in (s.real, s.imag):
        if not np.all(np.isin(part, levels)):
            raise ValueError("symbol entry outside the constellation")


def check_thresholds(a, b, gamma):
    """The solvable SEP thresholds: gamma > 0, and a + b <= 2*gamma on every
    row with both thresholds finite; its box [(s-1)d + b, (s+1)d - a] is
    otherwise empty at d = gamma and the projection is not convex."""
    if not gamma > 0.0:
        raise ValueError("gamma must be positive")
    two_sided = np.isfinite(a) & np.isfinite(b)
    if np.any(a[two_sided] + b[two_sided] > 2.0 * gamma):
        raise ValueError("a two-sided row needs a + b <= 2*gamma")


@dataclass
class SepSpec:
    """Linear SEP constraints as the 2K real rows of a K x L block, real
    dimensions first, in the order of d: levels s, thresholds a and b (-inf
    marks a vacuous, one-sided threshold) and the least decision value
    gamma. Checked once, here: s, a and b become float arrays of one (2K, L)
    shape."""

    s: np.ndarray
    a: np.ndarray
    b: np.ndarray
    gamma: float

    def __post_init__(self):
        self.s, self.a, self.b = (np.asarray(v, dtype=float) for v in (self.s, self.a, self.b))
        shape = self.s.shape
        if len(shape) != 2 or shape[0] % 2 or not shape == self.a.shape == self.b.shape:
            raise ValueError("s, a and b must share one (2K, L) shape, got "
                             f"{self.s.shape}, {self.a.shape} and {self.b.shape}")
        check_thresholds(self.a, self.b, self.gamma)

    @property
    def n_users(self):
        return self.s.shape[0] // 2


def real_rows(z):
    """The 2K real rows of a K x L complex block: real parts, then imaginary."""
    return np.concatenate((np.real(z), np.imag(z)))


def complex_block(rows):
    """Inverse of :func:`real_rows`."""
    k = rows.shape[0] // 2
    return rows[:k] + 1j * rows[k:]


def _threshold_pair(part, order, epsilon, sigma_w):
    """(a, b) thresholds for the real dimensions in part, and gamma."""
    root = int(round(np.sqrt(order)))
    extreme = float(root - 1)
    p_interior = (1.0 - np.sqrt(1.0 - epsilon)) / 2.0
    p_edge = 1.0 - np.sqrt(1.0 - epsilon)
    gamma = sigma_w / np.sqrt(2.0) * q_inverse(p_interior)
    edge = sigma_w / np.sqrt(2.0) * q_inverse(p_edge)
    a = np.where(part == extreme, -np.inf, np.where(part == -extreme, edge, gamma))
    b = np.where(part == -extreme, -np.inf, np.where(part == extreme, edge, gamma))
    return a, b, gamma


def check_epsilon(epsilon):
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")


def build_sep_spec(s, epsilon, sigma_w, order):
    """Threshold rows realizing the per-symbol SEP target epsilon."""
    check_epsilon(epsilon)
    s = np.asarray(s)
    validate_qam(s, order)
    levels = real_rows(s)
    a, b, gamma = _threshold_pair(levels, order, epsilon, sigma_w)
    return SepSpec(s=levels, a=a, b=b, gamma=float(gamma))


def sep_constraints_satisfied(u, d, spec, atol=1e-9):
    """Check the linear SEP constraints; returns (ok, worst margin).

    Per row, -d + b <= u - d*s <= d - a, with -inf dropping a side, and
    d >= gamma. Violations are reported through a negative margin rather
    than rejected.
    """
    d = np.asarray(d, dtype=float)[:, None]
    centered = real_rows(u) - d * spec.s
    upper = np.where(np.isfinite(spec.a), (d - spec.a) - centered, np.inf)
    lower = np.where(np.isfinite(spec.b), centered - (spec.b - d), np.inf)
    worst = min(upper.min(initial=np.inf), lower.min(initial=np.inf),
                (d - spec.gamma).min(initial=np.inf))
    return bool(worst >= -atol), float(worst)


def _slice_to_level(values, order):
    root = int(round(np.sqrt(order)))
    lev = 2.0 * np.round((values - 1.0) / 2.0) + 1.0
    return np.clip(lev, -(root - 1), root - 1)


def empirical_ser(x_matrix, h, s, d, sigma_w, n_noise_draws, seed, order=None):
    """Per-user symbol error rate of the hard-decision receiver.

    Simulates Y = H X + W, equalizes each dimension by its decision
    variable, slices to the nearest constellation level, and counts a symbol
    error whenever either real dimension decides wrongly. ``order`` defaults
    to the smallest square constellation containing the block. The noise of
    every draw comes from one default_rng(seed), in memory-bounded chunks of
    draws that are sliced and counted at once.
    """
    check_count("n_noise_draws", n_noise_draws)
    h = np.asarray(h)
    s = np.asarray(s)
    x_matrix = np.asarray(x_matrix)
    k, block_len = s.shape
    if order is None:
        order = int((max(np.max(np.abs(s.real)), np.max(np.abs(s.imag))) + 1) ** 2)
    d = np.asarray(d, dtype=float)
    if d.shape != (2 * k,) or not np.all(np.isfinite(d)) or np.any(d <= 0.0):
        raise ValueError(f"d must hold 2K = {2 * k} finite positive decision values")
    d_r = d[:k][:, None]
    d_i = d[k:][:, None]
    noiseless = h @ x_matrix
    rng = np.random.default_rng(seed)
    errors = np.zeros(k, dtype=np.int64)
    chunk = max(1, _CHUNK_NORMALS // max(1, 2 * s.size))
    for lo in range(0, n_noise_draws, chunk):
        # draw by draw: the real parts of W, then its imaginary parts
        normals = rng.standard_normal((min(chunk, n_noise_draws - lo), 2, k, block_len))
        y = noiseless + complex_from_normals(normals[:, 0], normals[:, 1], sigma_w)
        dec_r = _slice_to_level(y.real / d_r, order)
        dec_i = _slice_to_level(y.imag / d_i, order)
        errors += np.sum((dec_r != s.real) | (dec_i != s.imag), axis=(0, 2))
    return errors / float(n_noise_draws * block_len)
