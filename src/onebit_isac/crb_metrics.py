"""Estimation-accuracy metrics: the one-bit DOA bound for point-like targets
with its full derivative chain, the Bayesian trace bound for extended
targets, their infinite-resolution / quantization-unaware counterparts, and
the point-target chain factors, the point-target P = C^{-1} dC C^{-1} and
the extended-target priors and anchors the optimizers reuse
(:func:`et_prior`): in the L x L eigenbasis of a Kronecker prior
(:class:`KronPrior`), dense for any other prior (:class:`DensePrior`)."""

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .linalg import check_counts, hermitian_solve, last_call, unvec, vec, xtilde_multiply
from .array_geometry import receive_basis, steering, steering_derivative
from .quantization import TWO_OVER_PI

INFINITE_CRB_FLOOR = 1e-18
SQRT_TWO_OVER_PI = math.sqrt(TWO_OVER_PI)


@dataclass(frozen=True)
class PtModel:
    """Point-target problem data with the transmit steering vectors and the
    receive basis Q (:func:`receive_basis`) with beta = Q^H da_r.

    quantized picks the chain of every bound, anchor and surrogate built on
    this model: the one-bit chain (True, the PT design) or the unquantized
    one (False, the PT_INF baseline). It must be a bool. The model is frozen,
    as its steering vectors and basis are built once, from theta and the sizes.
    """

    theta: float
    sigma_alpha_sq: float
    sigma_v_sq: float
    n_t: int
    n_r: int
    block_len: int
    quantized: bool = True
    a_t: np.ndarray = field(init=False, repr=False, compare=False)
    da_t: np.ndarray = field(init=False, repr=False, compare=False)
    q: np.ndarray = field(init=False, repr=False, compare=False)
    beta: np.ndarray = field(init=False, repr=False, compare=False)
    # (waveform, factors) of the last call: the MM loop asks for the factors
    # at the anchor and at the accepted step more than once
    _last: tuple = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.sigma_alpha_sq) and self.sigma_alpha_sq >= 0.0):
            raise ValueError("target power must be finite and non-negative")
        check_noise_power(self.sigma_v_sq)
        check_counts(self, ("n_t", "n_r", "block_len"))
        check_flag("quantized", self.quantized)
        q = receive_basis(self.n_r, self.theta)
        for name, value in (("a_t", steering(self.n_t, self.theta)),
                            ("da_t", steering_derivative(self.n_t, self.theta)), ("q", q),
                            ("beta", q.conj().T @ steering_derivative(self.n_r, self.theta))):
            object.__setattr__(self, name, value)

    def chain_factors(self, s, s_d):
        """Per-sample pieces of the covariance chain at s = X^T a_t and
        s_d = X^T da_t: L-vectors, or (K, L) stacks for K waveforms, every
        result carrying the same leading axes.

        The diagonals are per sample because the ULA has |a_r,i|^2 = 1/n_r
        and conj(a_r) o da_r purely imaginary.
        """
        san = self.sigma_alpha_sq / self.n_r
        gp = s[..., None] * self.beta
        gp[..., 0] += s_d
        diag_crr = san * np.abs(s) ** 2 + self.sigma_v_sq
        diag_dcrr = 2.0 * san * (s_d * s.conj()).real
        f = SQRT_TWO_OVER_PI / np.sqrt(diag_crr)
        d_f = -0.5 * diag_dcrr / diag_crr * f
        fs = f * s
        # F C_rr F + (1 - 2/pi) I has the unit quantizer diagonal; pin it
        c_pin = 1.0 - san * np.abs(fs) ** 2
        # the diagonal of dF C F + F dC F + F C dF is analytically zero; pin it
        d_pin = -2.0 * san * ((d_f * s + f * s_d) * fs.conj()).real
        q = f[..., None] * gp
        q[..., 0] += d_f * s
        return ChainFactors(s, s_d, gp, diag_crr, diag_dcrr, f, d_f, c_pin, d_pin, q)

    def workspace(self, x):
        """The chain factors at waveform x."""
        return last_call(self, np.asarray(x, dtype=complex), self._factors)

    def keep_row(self, xs, factors, row):
        """Keep a row of a waveform stack and of its chain factors as the last call
        of :meth:`workspace`. They have a fresh build's bits where the BLAS rounds each
        row of a product alike whatever the row count, as the tests check for the BLAS
        in use; not at L = 1, where a fresh build's one-row product takes another path."""
        if self.block_len > 1:
            kept = ChainFactors(*(f[row] for f in factors))
            object.__setattr__(self, "_last", (xs[row].copy(), kept))

    def _factors(self, x):
        xm = unvec(x, self.n_t, self.block_len)
        return self.chain_factors(xm.T @ self.a_t, xm.T @ self.da_t)

    def chain_p(self, x):
        """P = C^{-1} dC C^{-1} of the model's chain (one-bit, or unquantized
        when quantized is False) at waveform x, as a :class:`ChainP`.

        By Sherman-Morrison C^{-1} = diag(1/d0) - c b b^H with b = (h / d0) e_0
        and c = sa / (1 + sa h^H b), and sa C^{-1} h = c b, so
        P = diag(d1 / d0^2) + v b^H + b v^H in closed form, where
        v = c C^{-1} q - c diag(d1 / d0) b + (c^2 / 2) (b^H diag(d1) b) b.
        """
        sa = self.sigma_alpha_sq
        d0, d1, h, q = self.workspace(x).low_rank(self.sigma_v_sq, self.quantized)
        b0 = h / d0
        c = sa / (1.0 + sa * np.vdot(h, b0).real)
        u = np.zeros((2,) + q.shape, dtype=complex)
        # C^{-1} q = q / d0 - c (b^H q) b; d0 is a scalar for the unquantized chain
        u[0] = (c / d0)[..., None] * q
        u[0, :, 0] += (0.5 * c**2 * np.sum(d1 * np.abs(b0) ** 2) - c**2 * np.vdot(b0, q[:, 0])
                       - c * d1 / d0) * b0
        u[1, :, 0] = b0
        p_perp = d1 / d0**2
        diag = self.n_r * p_perp + 2.0 * (u[0, :, 0] * b0.conj()).real
        n = (u * u.conj()).real.sum(axis=-1)
        w = (u[0] * u[1].conj()).sum(axis=-1)
        flat = u.reshape(2, -1)
        p = ChainP(p_perp, flat, flat.conj().T, diag, np.concatenate((n, w[None])),
                   np.concatenate((n[::-1], 2.0 * w[None])), p_perp * (diag + 2.0 * w.real), 0.0)
        return p._replace(trace=float(trace_p_dc(sa, p, d1, h, q)[0]))

    def bound(self, x):
        """1 / tr(C^{-1} dC C^{-1} dC) at waveform x: the one-bit bound, or
        the infinite-resolution one when quantized is False; math.inf when
        the trace falls below INFINITE_CRB_FLOOR (unidentifiable direction)."""
        return bound_from_trace(self.chain_p(x).trace)


def check_noise_power(sigma_v_sq):
    """Raise ValueError unless the noise power sigma_v_sq is finite and positive."""
    if not (math.isfinite(sigma_v_sq) and sigma_v_sq > 0.0):
        raise ValueError(f"noise power must be finite and positive, got {sigma_v_sq}")


def check_flag(name, value):
    """Raise ValueError unless the variant flag value is a bool (numpy's
    included)."""
    if not isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be a bool, got {value!r}")


def check_waveform(x_matrix):
    """x_matrix as an array; raise ValueError unless it is an n_t x L matrix
    with n_t, L >= 1 and finite entries."""
    x_matrix = np.asarray(x_matrix)
    if x_matrix.ndim != 2 or 0 in x_matrix.shape:
        raise ValueError(f"waveform must be an n_t x L matrix with n_t, L >= 1, "
                         f"got shape {x_matrix.shape}")
    if not np.isfinite(x_matrix).all():
        raise ValueError("waveform has non-finite entries")
    return x_matrix


def bound_from_trace(t):
    """1 / t for the trace t = tr(P dC), or math.inf below INFINITE_CRB_FLOOR."""
    return math.inf if t < INFINITE_CRB_FLOOR else 1.0 / t


class ChainFactors(NamedTuple):
    """Per-sample pieces of the point-target chain (see
    :meth:`PtModel.chain_factors`): s = X^T a_t, s_d = X^T da_t, g' in
    receive-subspace coordinates, diag(C_rr) and its angle derivative, F
    and dF, the pinned diagonals of the one-bit C_zz_hat and its
    derivative, and q = dF g + F g'."""

    s: np.ndarray
    s_d: np.ndarray
    g_prime: np.ndarray
    diag_crr: np.ndarray
    diag_dcrr: np.ndarray
    f: np.ndarray
    d_f: np.ndarray
    c_pin: np.ndarray
    d_pin: np.ndarray
    q: np.ndarray

    def low_rank(self, sigma_v_sq, quantized):
        """(d0, d1, h, q) of the one-bit or the unquantized chain.

        In receive-subspace coordinates C = diag(d0) + sa (h e_0)(h e_0)^H
        and dC = diag(d1) + sa (q (h e_0)^H + (h e_0) q^H), each diagonal
        repeated over the k coordinates of a sample and continued on the
        complement; h lives on the first coordinate (g = s e_0). One-bit:
        h = F g, q = dF g + F g', pinned diagonals. Unquantized: h = g,
        q = g' and the scalars d0 = sigma_v^2, d1 = 0.
        """
        if quantized:
            return self.c_pin, self.d_pin, self.f * self.s, self.q
        return sigma_v_sq, 0.0, self.s, self.g_prime


class ChainP(NamedTuple):
    """P = C^{-1} dC C^{-1} of one chain at one waveform
    (:meth:`PtModel.chain_p`) as diagonal plus rank two: P = diag(p_perp) +
    v b^H + b v^H on the receive subspace, u = (v, b) as a (2, L k) array with
    its conjugate transpose u_h, and p_perp on each sample's complement (an
    L-vector, the scalar 0 unquantized). diag holds the per-sample sums of
    P's diagonal, the complement included, trace = tr(P dC), and z, z_right
    and lift the tables of :meth:`abs2_apply`, built once with P."""

    p_perp: np.ndarray
    u: np.ndarray
    u_h: np.ndarray
    diag: np.ndarray
    z: np.ndarray
    z_right: np.ndarray
    lift: np.ndarray
    trace: float

    def apply(self, y):
        """P y for receive-subspace coordinates y of shape (..., L, k)."""
        yu = y.reshape(y.shape[:-2] + (-1,)) @ self.u_h  # (v^H y, b^H y)
        return (yu[..., ::-1] @ self.u).reshape(y.shape) + np.reshape(self.p_perp, (-1, 1)) * y

    def abs2_apply(self, d):
        """A d for d of shape (..., L), or a scalar d constant over L, where
        A[l, m] sums |P|^2 over the coordinates of samples l and m, the
        complement included: with the per-sample norms n_v, n_b of v, b and
        w = b^H v, A = n_v n_b^T + n_b n_v^T + 2 Re(w w^T) +
        diag(n_r p_perp^2 + 4 p_perp Re w), and n_r p_perp + 2 Re w = diag;
        z = (n_v, n_b, w), z_right = (n_b, n_v, 2 w), lift = p_perp (diag + 2 Re w)."""
        dz = d * self.z.sum(axis=-1) if np.ndim(d) == 0 else d @ self.z.T
        return (dz @ self.z_right).real + self.lift * d


def trace_p_dc(sa, p, d1, h, q):
    """tr(P dC) = d1 . diag(P) + 2 sa Re((P h)^H q) for the anchor's P (a
    :class:`ChainP`) and dC = diag(d1) + sa (q h^H + h q^H)
    (:meth:`ChainFactors.low_rank`), for one waveform or a (K, ...) stack;
    returned with P h as (..., L, k)."""
    he0 = np.zeros_like(q)
    he0[..., 0] = h
    ph = p.apply(he0)
    return (d1 * p.diag).sum(axis=-1) + 2.0 * sa * (q.conj() * ph).real.sum(axis=(-2, -1)), ph


def crb_pt(x, theta, sigma_alpha_sq, sigma_v_sq, n_r, block_len):
    """Worst-case one-bit DOA bound for a point-like target (rad^2).

    Returns math.inf when the direction is unidentifiable (trace below the
    configured floor), e.g. at theta = +/- pi/2.
    """
    x = np.asarray(x)
    return PtModel(theta, sigma_alpha_sq, sigma_v_sq, x.size // block_len, n_r,
                   block_len).bound(x)


def crb_pt_infinite_resolution(x, theta, sigma_alpha_sq, sigma_v_sq, n_r, block_len):
    """Same trace bound with the unquantized echo covariance."""
    x = np.asarray(x)
    return PtModel(theta, sigma_alpha_sq, sigma_v_sq, x.size // block_len, n_r,
                   block_len, quantized=False).bound(x)


def et_l_and_m(x_matrix, c_aa, sigma_v_sq, quantization_aware=True):
    """L = X~ C_aa and the Hermitian M of the extended-target bound at X.

    Aware, M is X~ C X~^H + (pi/2 - 1) diag(X~ C X~^H) + (pi/2) sigma_v^2 I;
    unaware, it is the unquantized C_rr = X~ C_aa X~^H + sigma_v^2 I.
    """
    check_noise_power(sigma_v_sq)
    l_mat = xtilde_multiply(x_matrix, c_aa)
    # X~ C_aa X~^H = (X~ L^H)^H
    gram = xtilde_multiply(x_matrix, l_mat.conj().T).conj().T
    if quantization_aware:
        m = gram + (np.pi / 2.0 - 1.0) * np.diag(np.diag(gram))
        m += (np.pi / 2.0) * sigma_v_sq * np.eye(gram.shape[0])
    else:
        m = gram + sigma_v_sq * np.eye(gram.shape[0])
    return l_mat, (m + m.conj().T) / 2.0


class DensePrior(NamedTuple):
    """An extended-target prior that is not one Kronecker product with a
    constant diag(Phi_R), held whole with n_r and tr(C_aa), and the noise
    power and variant of every anchor built on it (one-bit when
    quantization_aware, else the unquantized LMMSE). Build it with
    :func:`et_prior`."""

    c_aa: np.ndarray
    n_r: int
    trace: float
    sigma_v_sq: float
    quantization_aware: bool

    def anchor(self, x_matrix):
        """The :class:`EtAnchor` of the bound at waveform X: M^{-1} L by one
        Hermitian solve (:func:`et_l_and_m`)."""
        l_mat, m = et_l_and_m(x_matrix, self.c_aa, self.sigma_v_sq, self.quantization_aware)
        m_inv_l = hermitian_solve(m, l_mat)
        gain = float(np.einsum("ij,ij->", l_mat.conj(), m_inv_l).real)
        return EtAnchor(self, m_inv_l, gain, self.trace - gain)


class EtAnchor(NamedTuple):
    """The extended-target bound's pieces at one waveform on a
    :class:`DensePrior`: m_inv_l = M^{-1} L (:func:`et_l_and_m`),
    gain = tr(L^H M^{-1} L) and bound = tr(C_aa) - gain, the one-bit bound
    (crb_et) or the unquantized LMMSE MSE (mse_et_quantization_unaware)."""

    prior: DensePrior
    m_inv_l: np.ndarray
    gain: float
    bound: float

    def descent(self, m_bar, x_mat):
        """l_t - Mbar x as an n_t x L matrix, for this anchor's dense Mbar, where
        l_t with tr(L_t^H M_t^{-1} L(x)) = l_t^H x is the receive-index partial
        trace l_t[n, l] = sum_r W[(r, l), (r, n)] of W = M_t^{-1} L_t C_aa."""
        n_r = self.prior.n_r
        rows, cols = self.m_inv_l.shape
        w4 = (self.m_inv_l @ self.prior.c_aa).reshape((n_r, rows // n_r, n_r, cols // n_r),
                                                       order="F")
        return np.einsum("rlrn->nl", w4) - unvec(m_bar @ vec(x_mat), *x_mat.shape)

    def mbar(self):
        """(Mbar, lambda_max(Mbar)) with Mbar dense.

        x^H Mbar x = tr(Mtilde X~ C_aa X~^H) for Mtilde = Y Y^H, Y = M^{-1} L,
        plus (pi/2 - 1) diag(Y Y^H) when the prior is aware; Mbar is one
        contraction of Mtilde with C_aa over the two receive indices:
        Mbar[(n, l), (b, k)] = sum_{r, s} Mtilde[(r, l), (s, k)] C_aa[(s, b), (r, n)].
        lambda_max comes from eigvalsh, which raises if it fails.
        """
        y = self.m_inv_l
        m_tilde = y @ y.conj().T
        if self.prior.quantization_aware:
            m_tilde = m_tilde + (np.pi / 2.0 - 1.0) * np.diag(np.diag(m_tilde))
        m_tilde = (m_tilde + m_tilde.conj().T) / 2.0
        n_r = self.prior.n_r
        block_len, n_t = y.shape[0] // n_r, y.shape[1] // n_r
        m4 = m_tilde.reshape((n_r, block_len, n_r, block_len), order="F")
        c4 = self.prior.c_aa.reshape((n_r, n_t, n_r, n_t), order="F")
        lkbn = np.tensordot(m4, c4, axes=([0, 2], [2, 0]))
        dim = n_t * block_len
        m_bar = lkbn.transpose(3, 0, 2, 1).reshape((dim, dim), order="F")
        return m_bar, float(np.linalg.eigvalsh(m_bar)[-1])


# relative tolerance of the Kronecker-structure test of an extended-target prior
KRON_RTOL = 1e-12


class KronPrior(NamedTuple):
    """An extended-target prior C_aa = Phi_T^T kron Phi_R whose Phi_R has a
    constant diagonal c (every correlation matrix has c = 1), held as the
    pieces the bound's chain needs: Phi_T, the eigenvalues s of Phi_R with s^2
    and s^3, c, lambda_max(Phi_T) and tr(C_aa), with the noise power and variant of
    every anchor built on it (one-bit when quantization_aware, else the
    unquantized LMMSE). Build it with :func:`et_prior`."""

    phi_t: np.ndarray
    sigma_r: np.ndarray
    sigma_r2: np.ndarray
    sigma_r3: np.ndarray
    c: float
    lam_max_t: float
    trace: float
    sigma_v_sq: float
    quantization_aware: bool

    def anchor(self, x_matrix):
        """The :class:`KronAnchor` of the bound at waveform X.

        With P = X^T Phi_T^T and A = P conj(X) (L x L), M = A kron Phi_R +
        B kron I for the diagonal B = (pi/2 - 1) c diag(A) + (pi/2) sigma_v^2
        (aware) or sigma_v^2 I (unaware). B^{-1/2} A B^{-1/2} = V diag(l) V^H
        and Phi_R = U diag(s) U^H diagonalize M, so with Bv = B^{-1/2} V and
        Q = Bv^H P the gain is sum_ij ||Q[i, :]||^2 s_j^2 / (l_i s_j + 1);
        no n_r L matrix is formed.
        """
        x = np.asarray(x_matrix)
        p = x.T @ self.phi_t.T
        a = p @ x.conj()
        # r is the column of B^{-1/2}, or one number when B = sigma_v^2 I
        if self.quantization_aware:
            r = 1.0 / np.sqrt((np.pi / 2.0 - 1.0) * self.c * a.diagonal().real[:, None]
                              + (np.pi / 2.0) * self.sigma_v_sq)
        else:
            r = np.float64(1.0 / math.sqrt(self.sigma_v_sq))
        lam, v = np.linalg.eigh(r * a * r.T)
        bv = r * v
        q = bv.conj().T @ p
        e = 1.0 / (1.0 + lam[:, None] * self.sigma_r)
        w = e @ self.sigma_r2
        gain = float(np.vdot(q, w[:, None] * q).real)
        return KronAnchor(self, bv, q, e, w, gain, self.trace - gain)


class KronAnchor(NamedTuple):
    """The extended-target bound's pieces at one waveform on a
    :class:`KronPrior`: Bv, Q = Bv^H X^T Phi_T^T, E[i, j] = 1 / (l_i s_j + 1),
    w = E s^2, gain = tr(L^H M^{-1} L) and bound = tr(C_aa) - gain."""

    prior: KronPrior
    bv: np.ndarray
    q: np.ndarray
    e: np.ndarray
    w: np.ndarray
    gain: float
    bound: float

    def descent(self, m_bar, x_mat):
        """l_t - Mbar x as the n_t x L matrix Phi_T (Q^T diag(w) Bv^T - X G^T)
        for this anchor's Mbar; its first term is the linear term l_t with
        tr(L_t^H M_t^{-1} L(x)) = l_t^H x."""
        return self.prior.phi_t @ ((self.q.T * self.w) @ self.bv.T - x_mat @ m_bar.g.T)

    def mbar(self):
        """(Mbar, lambda_max(Mbar)) with Mbar = G kron Phi_T a :class:`KronMbar`
        and lambda_max(Mbar) = lambda_max(G) lambda_max(Phi_T).

        G = Bv (K3 o S) Bv^H, plus (pi/2 - 1) c diag(Bv (K2 o S) Bv^H) when
        the prior is aware, where S = Q Q^H and
        Kp[i, i'] = sum_j s_j^p / ((l_i s_j + 1)(l_i' s_j + 1)).
        """
        e, prior = self.e, self.prior
        ss = self.q @ self.q.conj().T
        bv_h = self.bv.conj().T
        g = self.bv @ ((e * prior.sigma_r3) @ e.T * ss) @ bv_h
        if prior.quantization_aware:
            d = (self.bv @ ((e * prior.sigma_r2) @ e.T * ss) * bv_h.T).sum(axis=1).real
            # g is a fresh product, so ravel() is a view and this adds to its diagonal
            g.ravel()[::g.shape[0] + 1] += (np.pi / 2.0 - 1.0) * prior.c * d
        g = (g + g.conj().T) / 2.0
        return KronMbar(g, prior.phi_t), float(np.linalg.eigvalsh(g)[-1]) * prior.lam_max_t


class KronMbar(NamedTuple):
    """Mbar = G kron Phi_T by its factors; its action Mbar x = vec(Phi_T X G^T)
    enters :meth:`KronAnchor.descent`."""

    g: np.ndarray
    phi_t: np.ndarray


def et_prior(c_aa, n_r, n_t, sigma_v_sq, quantization_aware):
    """The prior of an n_r x n_t extended-target response: a
    :class:`KronPrior` when c_aa is one Kronecker product Phi_T^T kron Phi_R
    (to KRON_RTOL) with a constant diag(Phi_R), as every EtTarget's is, else
    a :class:`DensePrior`. Raises ValueError unless c_aa is
    (n_r n_t) x (n_r n_t), sigma_v_sq is finite and positive and
    quantization_aware is a bool.

    The prior holds the noise power and the variant, so every anchor built
    on it, and every Mbar built from such an anchor, is of the one bound:
    crb_et when quantization_aware, mse_et_quantization_unaware otherwise.

    The factors are read from c_aa itself, Phi_R' = c_aa[:n_r, :n_r] and
    Phi_T'^T = c_aa[::n_r, ::n_r] / c_aa[0, 0]; they equal Phi_R and Phi_T
    up to reciprocal scalars, which leaves their Kronecker product unchanged.
    """
    check_noise_power(sigma_v_sq)
    check_flag("quantization_aware", quantization_aware)
    sigma_v_sq = float(sigma_v_sq)
    c_aa = np.asarray(c_aa)
    dim = n_r * n_t
    if dim < 1 or c_aa.shape != (dim, dim):
        raise ValueError(f"c_aa must be {dim} x {dim} (n_r = {n_r} times n_t = {n_t}), "
                         f"got shape {c_aa.shape}")
    trace = float(np.trace(c_aa).real)
    c = float(c_aa[0, 0].real)
    if not c > 0.0:
        return DensePrior(c_aa, n_r, trace, sigma_v_sq, quantization_aware)
    phi_r = c_aa[:n_r, :n_r]
    phi_t_t = c_aa[::n_r, ::n_r] / c
    d = np.diag(phi_r).real
    # written so that a NaN in c_aa fails the test
    if not (np.linalg.norm(np.kron(phi_t_t, phi_r) - c_aa) <= KRON_RTOL * np.linalg.norm(c_aa)
            and np.ptp(d) <= KRON_RTOL * c):
        return DensePrior(c_aa, n_r, trace, sigma_v_sq, quantization_aware)
    s = np.linalg.eigvalsh(phi_r)
    # Phi_T is stored complex, so its products with a waveform need no cast
    return KronPrior(phi_t=np.ascontiguousarray(phi_t_t.T, dtype=complex), sigma_r=s,
                     sigma_r2=s**2, sigma_r3=s**3, c=c,
                     lam_max_t=float(np.linalg.eigvalsh(phi_t_t)[-1]), trace=trace,
                     sigma_v_sq=sigma_v_sq, quantization_aware=quantization_aware)


def _prior_bound(x_matrix, c_aa, sigma_v_sq, quantization_aware):
    x_matrix = check_waveform(x_matrix)
    n_t = x_matrix.shape[0]
    prior = et_prior(c_aa, np.shape(c_aa)[0] // n_t, n_t, sigma_v_sq, quantization_aware)
    return prior.anchor(x_matrix).bound


def crb_et(x_matrix, c_aa, sigma_v_sq):
    """One-bit Bayesian trace bound for the extended-target response.

    Uses the expanded form tr(C_aa) - tr(L^H M^{-1} L), which stays valid for
    merely PSD priors; a Kronecker prior takes the L x L eigenbasis
    (:func:`et_prior`).
    """
    return _prior_bound(x_matrix, c_aa, sigma_v_sq, True)


def mse_et_quantization_unaware(x_matrix, c_aa, sigma_v_sq):
    """Unquantized LMMSE MSE, tr(C_aa) - tr(C_aa X~^H (X~ C X~^H + s^2 I)^{-1} X~ C_aa)."""
    return _prior_bound(x_matrix, c_aa, sigma_v_sq, False)
