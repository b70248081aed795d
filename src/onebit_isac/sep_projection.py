"""Exact solver for the SEP-feasible projection subproblem: per-user box
QPs with a shared decision variable d >= gamma. The objective in d is a sum
of squared hinges of affine functions of d, convex when a + b <= 2*gamma on
every two-sided row, so one sweep over the sorted breakpoints finds the
interval that holds the minimizer (as in the Duchi et al., ICML 2008, and
Condat, Math. Prog. 2016, projections)."""

from dataclasses import dataclass

import numpy as np

DEDUP_TOL = 1e-12


@dataclass
class UserQpInstance:
    """One real dimension of one user's subproblem.

    chi are the projection targets, s_tilde the constellation levels, and
    a_tilde/b_tilde the threshold vectors (-inf marks a vacuous side). gamma
    must be positive, and a row with both thresholds finite needs
    a + b <= 2*gamma: its box [(s-1)d + b, (s+1)d - a] is otherwise empty at
    d = gamma and the objective is not convex.
    """

    chi: np.ndarray
    s_tilde: np.ndarray
    a_tilde: np.ndarray
    b_tilde: np.ndarray
    gamma: float

    def __post_init__(self):
        self.chi = np.asarray(self.chi, dtype=float)
        self.s_tilde = np.asarray(self.s_tilde, dtype=float)
        self.a_tilde = np.asarray(self.a_tilde, dtype=float)
        self.b_tilde = np.asarray(self.b_tilde, dtype=float)
        if not np.all(np.isfinite(self.chi)):
            raise ValueError("projection targets must be finite")
        if not self.gamma > 0.0:
            raise ValueError("gamma must be positive")
        two_sided = np.isfinite(self.a_tilde) & np.isfinite(self.b_tilde)
        if np.any(self.a_tilde[two_sided] + self.b_tilde[two_sided] > 2.0 * self.gamma):
            raise ValueError("a two-sided row needs a + b <= 2*gamma")


def boundary_points(inst):
    """Sorted candidate interval endpoints {gamma, ...} with +inf appended.

    Collects every finite point (chi + a)/(1 + s) and (b - chi)/(1 - s)
    strictly above gamma; candidates generated from -inf thresholds drop out
    as non-finite. Duplicates are merged at 1e-12.
    """
    pts = [float(inst.gamma)]
    with np.errstate(divide="ignore", invalid="ignore"):
        cand_a = (inst.chi + inst.a_tilde) / (1.0 + inst.s_tilde)
        cand_b = (inst.b_tilde - inst.chi) / (1.0 - inst.s_tilde)
    for cand in (cand_a, cand_b):
        good = cand[np.isfinite(cand) & (cand > inst.gamma + DEDUP_TOL)]
        pts.extend(good.tolist())
    pts.sort()
    merged = [pts[0]]
    for p in pts[1:]:
        if p - merged[-1] > DEDUP_TOL:
            merged.append(p)
    merged.append(np.inf)
    return np.asarray(merged)


def _clamp_u(chi, s, a, b, d):
    """Optimal per-symbol coordinate at fixed d: clamp chi into its box."""
    upper = np.where(np.isfinite(a), (s + 1.0) * d - a, np.inf)
    lower = np.where(np.isfinite(b), (s - 1.0) * d + b, -np.inf)
    return np.clip(chi, lower, upper)


def _objective_at(inst, d):
    u = _clamp_u(inst.chi, inst.s_tilde, inst.a_tilde, inst.b_tilde, d)
    return float(np.sum((u - inst.chi) ** 2)), u


def solve_user_qp(inst):
    """Smallest global minimizer (d*, u*, objective) of one per-user subproblem.

    Each interval between consecutive boundary points has a constant
    active-set classification (evaluated at the midpoint, or at tau + 1 on
    the unbounded last interval), so the objective is one quadratic there
    with stationary point num/den. By convexity the first interval whose
    stationary point is not past its right end, or whose objective is
    constant (den == 0), holds the smallest minimizer: clamp into it.
    """
    pts = boundary_points(inst)
    lo, hi = pts[:-1], pts[1:]
    probe = np.where(np.isfinite(hi), 0.5 * (lo + hi), lo + 1.0)[:, None]
    s, chi, a, b = inst.s_tilde, inst.chi, inst.a_tilde, inst.b_tilde
    with np.errstate(divide="ignore", invalid="ignore"):
        in_gamma = chi > (s + 1.0) * probe - a
        in_omega = chi < (s - 1.0) * probe + b
        den = in_gamma @ (s + 1.0) ** 2 + in_omega @ (s - 1.0) ** 2
        term_a = np.where(np.isfinite(a), (a + chi) * (s + 1.0), 0.0)
        term_b = np.where(np.isfinite(b), (chi - b) * (s - 1.0), 0.0)
        num = in_gamma @ term_a + in_omega @ term_b
        stationary = num / den
    i = int(np.argmax((den == 0.0) | (stationary <= hi)))
    d = lo[i] if den[i] == 0.0 else max(stationary[i], lo[i])
    obj, u = _objective_at(inst, d)
    return float(d), u, obj


def solve_block(lambda_tilde, spec):
    """Project a K x L complex block onto the SEP-feasible set.

    Splits into 2K independent real subproblems (real and imaginary
    dimension per user) and reassembles (u, d).
    """
    lam = np.asarray(lambda_tilde)
    k, block_len = spec.s_real.shape
    if lam.shape != (k, block_len):
        raise ValueError("block shape does not match the SEP spec")
    u = np.zeros((k, block_len), dtype=complex)
    d = np.zeros(2 * k)
    for kk in range(k):
        inst_r = UserQpInstance(
            lam[kk].real, spec.s_real[kk], spec.a_r[kk], spec.b_r[kk], spec.gamma
        )
        d_r, u_r, _ = solve_user_qp(inst_r)
        inst_i = UserQpInstance(
            lam[kk].imag, spec.s_imag[kk], spec.a_i[kk], spec.b_i[kk], spec.gamma
        )
        d_i, u_i, _ = solve_user_qp(inst_i)
        u[kk] = u_r + 1j * u_i
        d[kk] = d_r
        d[k + kk] = d_i
    return u, d
