"""Shared complex linear algebra: column-stacked vectorization, guarded
Hermitian solves, PSD square roots, power iteration, the structured
operator X^T kron I used throughout the library, the ADMM penalty, power
check, majorize-minimize loop and last-call cache that both waveform solvers
share, the integer check of sizes and counts, and the single-BLAS-thread
window of the one-bit MLE."""

import contextlib
import ctypes
import math
import numbers
import threading
from typing import NamedTuple

import numpy as np

_TINY = np.finfo(float).tiny
# first diagonal lift of hermitian_factor, relative to trace(a)/n
JITTER_SCALE = 1e-12
# psd_sqrt clamps eigenvalues down to -PSD_TOL times the largest to zero
PSD_TOL = 1e-10


def vec(a):
    """Column-stacking vectorization, vec(A) = [A[:,0]; A[:,1]; ...]."""
    return np.asarray(a).reshape(-1, order="F")


def vec_rows(stack):
    """vec of each matrix of a (T, m, n) stack, as the C-contiguous rows of a
    (T, m n) array."""
    stack = np.asarray(stack)
    return np.swapaxes(stack, 1, 2).reshape(stack.shape[0], -1)


def unvec(v, rows, cols):
    """Inverse of :func:`vec`."""
    v = np.asarray(v)
    if v.size != rows * cols:
        raise ValueError(f"cannot unvec length {v.size} into {rows}x{cols}")
    return v.reshape((rows, cols), order="F")


def hermitian_factor(a):
    """Cholesky factor of a Hermitian PSD matrix with jitter fallback.

    Returns (factor, lower_flag) in the scipy ``cho_factor`` convention.
    When the plain factorization fails, the diagonal is lifted by
    JITTER_SCALE * trace(a)/n, escalating twice by 10x before giving up.
    The first call loads scipy.linalg, which ``import onebit_isac`` does not.
    """
    from scipy.linalg import cho_factor

    a = np.asarray(a)
    n = a.shape[0]
    base = JITTER_SCALE * max(np.trace(a).real / max(n, 1), np.finfo(float).tiny)
    for k in range(4):
        jitter = 0.0 if k == 0 else base * 10.0 ** (k - 1)
        try:
            return cho_factor(a + jitter * np.eye(n), lower=True)
        except np.linalg.LinAlgError:
            continue
    raise np.linalg.LinAlgError("matrix not positive definite even after jitter")


def hermitian_solve(a, b):
    """Solve a @ x = b for Hermitian positive definite a (jittered Cholesky)."""
    from scipy.linalg import cho_solve

    return cho_solve(hermitian_factor(a), np.asarray(b))


def psd_sqrt(a):
    """Hermitian PSD square root via eigendecomposition.

    Eigenvalues in [-PSD_TOL * scale, 0) are clamped to zero; anything more
    negative, or a non-finite entry, raises ValueError, since the input is
    then not a correlation/covariance.
    """
    a = np.asarray(a)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix has non-finite entries")
    w, v = np.linalg.eigh((a + a.conj().T) / 2.0)
    scale = max(abs(w[-1]), 1.0)
    if w[0] < -PSD_TOL * scale:
        raise ValueError(f"matrix is not PSD (min eigenvalue {w[0]:.3e})")
    w = np.clip(w, 0.0, None)
    return (v * np.sqrt(w)) @ v.conj().T


def _norm(v):
    """np.linalg.norm of a vector, by the same sums, minus its dispatch cost
    (power iteration calls it once per matvec)."""
    if np.iscomplexobj(v):
        re, im = v.real, v.imag
        return math.sqrt(re.dot(re) + im.dot(im))
    return math.sqrt(v.dot(v))


def power_iteration(matvec, n, tol=1e-8, max_iter=10000, seed=0, v0=None):
    """Largest eigenvalue of a Hermitian PSD operator given by ``matvec``.

    Returns (lam, v, converged); v is the last iterate, reusable as a warm
    start. Deterministic for a fixed seed / v0.
    """
    if v0 is not None and np.linalg.norm(v0) > 0:
        v = np.asarray(v0, dtype=complex)
    else:
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = v / np.linalg.norm(v)
    lam = 0.0
    for _ in range(max_iter):
        w = matvec(v)
        nw = _norm(w)
        if nw == 0.0:
            return 0.0, v, True
        lam_new = float(np.vdot(v, w).real)
        v = w / nw
        if abs(lam_new - lam) <= tol * max(abs(lam_new), _TINY):
            return lam_new, v, True
        lam = lam_new
    return lam, v, False


def complex_from_normals(re, im, scale=1.0):
    """Circularly symmetric complex Gaussian, per-entry variance scale**2,
    from standard normal real and imaginary parts of the same shape."""
    return (re + 1j * im) * (scale / np.sqrt(2.0))


def complex_normal(rng, shape, scale=1.0):
    """Circularly symmetric complex Gaussian, per-entry variance scale**2; the
    real parts are drawn first, then the imaginary parts."""
    return complex_from_normals(rng.standard_normal(shape), rng.standard_normal(shape), scale)


def xtilde_multiply(x_matrix, c):
    """X~ @ C with X~ = X^T kron I_{n_r}, without forming the Kronecker
    product, for a matrix C of n_r n_t rows: each column, the vec of an
    n_r x n_t response matrix A, maps to vec(A @ X), a length-(n_r L) echo."""
    x_matrix, c = np.asarray(x_matrix), np.asarray(c)
    n_t, block_len = x_matrix.shape
    n_r, rest = divmod(c.shape[0], n_t)
    if rest:
        raise ValueError(f"C has {c.shape[0]} rows, not a multiple of n_t = {n_t}")
    c4 = c.reshape((n_r, n_t, c.shape[1]), order="F")
    out = np.einsum("bl,rbj->rlj", x_matrix, c4)
    return out.reshape((n_r * block_len, c.shape[1]), order="F")


class Penalty(NamedTuple):
    """The ADMM penalty rho ||H~ x - u + lambda||^2 = rho ||H X - T||^2 of both
    waveform solvers, H~ = I_L kron H, T = unvec(u - lambda) (build_penalty)."""

    rho: float
    channel: np.ndarray  # H, K x n_t
    target: np.ndarray  # T, K x L
    adjoint: np.ndarray  # -rho H^H, formed once for every descent

    def residual(self, x_mat):
        """H X - T of an n_t x L waveform X, or per matrix of an (m, n_t, L) stack."""
        if x_mat.ndim == 2:
            return self.channel @ x_mat - self.target
        # one product over the samples (columns) of all m matrices, not m products
        samples = np.swapaxes(x_mat, -1, -2)
        hx = samples.reshape(-1, samples.shape[-1]) @ self.channel.T
        return np.swapaxes(hx.reshape(samples.shape[:-1] + (-1,)), -1, -2) - self.target

    def value(self, w):
        """rho ||W||^2 of a residual W, per matrix of a stack."""
        if w.ndim == 2:
            return self.rho * float(np.vdot(w, w).real)
        return self.rho * (w * w.conj()).real.sum(axis=(-2, -1))

    def descent(self, w):
        """-rho H^H W, the penalty's descent direction in X at residual W."""
        return self.adjoint @ w

    def curvature(self):
        """rho lambda_max(H^H H), the largest eigenvalue of rho H~^H H~."""
        return self.rho * float(np.linalg.eigvalsh(self.channel.conj().T @ self.channel)[-1])


def build_penalty(rho, u_i, lambda_i, channel, n_t, block_len):
    """The :class:`Penalty` of one solve, None without one (rho 0, no channel
    or no users). Raises ValueError unless rho is finite and non-negative,
    the channel a finite K x n_t matrix and, with a penalty, u_i and
    lambda_i finite vectors of length K L."""
    if not 0.0 <= rho < math.inf:
        raise ValueError(f"rho must be finite and non-negative, got {rho!r}")
    if channel is None:
        return None
    channel = np.asanyarray(channel)
    if channel.ndim != 2 or channel.shape[1] != n_t or not np.isfinite(channel).all():
        raise ValueError(f"channel must be a finite K x {n_t} matrix, got {channel.shape}")
    k = channel.shape[0]
    if rho == 0.0 or k == 0:
        return None
    u_i, lambda_i = np.asarray(u_i), np.asarray(lambda_i)
    if (u_i.shape != (k * block_len,) or lambda_i.shape != u_i.shape
            or not (np.isfinite(u_i).all() and np.isfinite(lambda_i).all())):
        raise ValueError(f"u_i and lambda_i must be finite vectors of length K L = "
                         f"{k * block_len}")
    rho = float(rho)
    return Penalty(rho, channel, unvec(u_i - lambda_i, k, block_len), -rho * channel.conj().T)


def integer_at_least(value, low):
    """True when value is an integer (bool excluded) of at least low."""
    return (not isinstance(value, bool) and isinstance(value, numbers.Integral)
            and value >= low)


def check_count(name, value):
    """Raise ValueError unless value is an integer of at least 1."""
    if not integer_at_least(value, 1):
        raise ValueError(f"{name} must be an integer of at least 1, got {value!r}")


def check_counts(owner, names):
    """Raise ValueError unless each named attribute of owner is an integer
    of at least 1."""
    for name in names:
        check_count(name, getattr(owner, name))


def check_power(x, power):
    """x as a complex array, checked to be finite and to satisfy
    ||x||^2 <= power up to a relative 1e-9."""
    x = np.asarray(x, dtype=complex)
    if not np.all(np.isfinite(x)):
        raise ValueError("waveform has non-finite entries")
    if float(np.vdot(x, x).real) > power * (1.0 + 1e-9):
        raise ValueError("initial waveform violates the power constraint")
    return x


def mm_loop(evaluate, step, bound, x_init, power, tol, max_iter):
    """Majorize-minimize loop of both waveform solvers: evaluate(x) gives
    (objective, state) and step(state, x) gives (x_next, stalled); the state
    of x is all the step at x reads. Stops on a stall, a relative objective
    change of at most tol, or max_iter steps, and info["stop"] says which:
    "stalled", "tol" or "max_iter". Returns (x, info); info["bound"] is
    bound(state, x) at the last x. Raises ValueError unless tol is finite and
    non-negative and max_iter an integer of at least 0."""
    if not 0.0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and non-negative, got {tol!r}")
    if not integer_at_least(max_iter, 0):
        raise ValueError(f"max_iter must be an integer of at least 0, got {max_iter!r}")
    x = check_power(x_init, power)
    f_prev, state = evaluate(x)
    history = [f_prev]
    stop = "max_iter"
    for _ in range(max_iter):
        x, stalled = step(state, x)
        f_new, state = evaluate(x)
        history.append(f_new)
        if stalled or abs(f_new - f_prev) <= tol * (abs(f_prev) + 1e-30):
            stop = "stalled" if stalled else "tol"
            break
        f_prev = f_new
    return x, {"objective_history": history, "n_iter": len(history) - 1,
               "stalled": stop == "stalled", "stop": stop, "bound": bound(state, x)}


def last_call(owner, x, build):
    """build(x), or the value of owner's last call while x keeps its bytes (a
    stricter test than equal values); owner is a frozen dataclass whose _last
    field holds that call's (x, value)."""
    last = owner._last
    if last is None or last[0].tobytes() != x.tobytes():
        last = (x.copy(), build(x))
        object.__setattr__(owner, "_last", last)
    return last[1]


def project_power_ball(x, power):
    """Scale x onto the ball ||x||^2 <= power when it lies outside."""
    n2 = float(np.vdot(x, x).real)
    if n2 <= power:
        return x
    return x * np.sqrt(power / n2)


# (get, set) thread-count symbols of numpy's and of scipy's OpenBLAS build
_BLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)
_blas_lock = threading.Lock()
_blas = {"controls": None, "depth": 0, "saved": ()}


def _blas_thread_controls():
    """(get, set) ctypes functions of each OpenBLAS build mapped into this
    process, found through /proc/self/maps; empty where there is no /proc
    or no such build."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _BLAS_THREAD_SYMBOLS:
            get, put = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return tuple(controls)


@contextlib.contextmanager
def single_blas_thread():
    """Run the body with every loaded OpenBLAS build at one thread, and
    restore each build's thread count on the way out, also on an exception.

    The count is process-wide, so BLAS calls of other threads run
    single-threaded too while any body is inside. Nested and concurrent
    bodies share one depth count under a lock: the first entry saves the
    counts and the last exit restores them. The builds are looked up once,
    on first use, so a caller imports the libraries whose calls it caps
    before its first entry; where none is found this does nothing.
    """
    with _blas_lock:
        if _blas["controls"] is None:
            _blas["controls"] = _blas_thread_controls()
        if _blas["depth"] == 0:
            _blas["saved"] = tuple(get() for get, _ in _blas["controls"])
            for _, put in _blas["controls"]:
                put(1)
        _blas["depth"] += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas["depth"] -= 1
            if _blas["depth"] == 0:
                for (_, put), count in zip(_blas["controls"], _blas["saved"]):
                    put(count)
