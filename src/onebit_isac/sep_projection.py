"""Exact solver for the SEP-feasible projection subproblem: per-user box
QPs with a shared decision variable d >= gamma. The objective in d is a sum
of squared hinges of affine functions of d, convex when a + b <= 2*gamma on
every two-sided row, so one sweep over the sorted breakpoints finds the
interval that holds the minimizer (as in the Duchi et al., ICML 2008, and
Condat, Math. Prog. 2016, projections)."""

from dataclasses import dataclass

import numpy as np

from .comm_sep import check_thresholds, complex_block, real_rows

DEDUP_TOL = 1e-12


@dataclass
class UserQpInstance:
    """One real dimension of one user's subproblem, a row of a
    :class:`~onebit_isac.comm_sep.SepSpec` with projection targets chi:
    levels s_tilde and thresholds a_tilde/b_tilde (-inf: a vacuous side)."""

    chi: np.ndarray
    s_tilde: np.ndarray
    a_tilde: np.ndarray
    b_tilde: np.ndarray
    gamma: float

    def __post_init__(self):
        for name in ("chi", "s_tilde", "a_tilde", "b_tilde"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=float))
        if not np.all(np.isfinite(self.chi)):
            raise ValueError("projection targets must be finite")
        check_thresholds(self.a_tilde, self.b_tilde, self.gamma)

    def rows(self):
        """(chi, s, a, b) as one-row arrays, and gamma."""
        return *(v[None] for v in (self.chi, self.s_tilde, self.a_tilde, self.b_tilde)), self.gamma


def _breakpoints(chi, s, a, b, gamma):
    """Per row of (R, L) arrays, the sorted interval endpoints {gamma, ...},
    padded with +inf to 2L + 2 points whatever the row's count: a row's
    arrays then have one shape alone or in a block, so its sums keep their
    bits (a BLAS matvec can round an entry by the number of entries).

    Collects every finite point (chi + a)/(1 + s) and (b - chi)/(1 - s)
    strictly above gamma; candidates generated from -inf thresholds drop out
    as non-finite. Each point within 1e-12 of the last point kept, in
    ascending order, merges into it.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        cand = np.concatenate(((chi + a) / (1.0 + s), (b - chi) / (1.0 - s)), axis=1)
    cand[~(np.isfinite(cand) & (cand > gamma + DEDUP_TOL))] = np.inf
    n_rows = cand.shape[0]
    pts = np.concatenate((np.full((n_rows, 1), float(gamma)), np.sort(cand, axis=1),
                          np.full((n_rows, 1), np.inf)), axis=1)
    # only a column holding a point within 1e-12 of its left neighbour, in
    # some row, can merge; between such columns every point is kept
    with np.errstate(invalid="ignore"):  # inf - inf past each row's points
        close = np.flatnonzero((np.diff(pts, axis=1) <= DEDUP_TOL).any(axis=0)) + 1
        last, prev = pts[:, 0], 0
        for j in close:
            if j - 1 != prev:
                last = pts[:, j - 1]
            keep = pts[:, j] - last > DEDUP_TOL
            last = np.where(keep, pts[:, j], last)
            pts[~keep, j] = np.inf
            prev = j
    pts.sort(axis=1)
    return pts


def boundary_points(inst):
    """Sorted candidate interval endpoints of one instance, +inf appended:
    the one-row case of :func:`_breakpoints`."""
    pts = _breakpoints(*inst.rows())[0]
    return pts[:np.isfinite(pts).sum() + 1]


def _clamp_u(chi, s, a, b, d):
    """Optimal per-symbol coordinate at fixed d: clamp chi into its box."""
    upper = np.where(np.isfinite(a), (s + 1.0) * d - a, np.inf)
    lower = np.where(np.isfinite(b), (s - 1.0) * d + b, -np.inf)
    return np.clip(chi, lower, upper)


def _solve_rows(chi, s, a, b, gamma):
    """Smallest global minimizers d* (R,) and u* (R, L) of R independent rows.

    Each interval between consecutive breakpoints has a constant
    active-set classification (evaluated at the midpoint, or at tau + 1 on
    the unbounded last interval), so a row's objective is one quadratic
    there with stationary point num/den. By convexity the first interval
    whose stationary point is not past its right end, or whose objective is
    constant (den == 0), holds the smallest minimizer: clamp into it. A
    row's padded intervals come after its unbounded one, which qualifies.
    """
    pts = _breakpoints(chi, s, a, b, gamma)
    lo, hi = pts[:, :-1], pts[:, 1:]
    probe = np.where(np.isfinite(hi), 0.5 * (lo + hi), lo + 1.0)[:, :, None]
    x, sp, sm, ra, rb = chi[:, None], s[:, None] + 1.0, s[:, None] - 1.0, a[:, None], b[:, None]

    def per_interval(mask, w):
        # one (P, L) @ (L,) matvec per row
        return (mask @ w.mT)[:, :, 0]

    # padded intervals give inf - inf and 0 * inf, den == 0 gives 0 / 0
    with np.errstate(divide="ignore", invalid="ignore"):
        in_gamma = x > sp * probe - ra
        in_omega = x < sm * probe + rb
        den = per_interval(in_gamma, sp**2) + per_interval(in_omega, sm**2)
        num = (per_interval(in_gamma, np.where(np.isfinite(ra), (ra + x) * sp, 0.0))
               + per_interval(in_omega, np.where(np.isfinite(rb), (x - rb) * sm, 0.0)))
        stationary = num / den
    rows = np.arange(pts.shape[0])
    i = np.argmax((den == 0.0) | (stationary <= hi), axis=1)
    lo, den, stationary = lo[rows, i], den[rows, i], stationary[rows, i]
    d = np.where(den == 0.0, lo, np.maximum(stationary, lo))
    return d, _clamp_u(chi, s, a, b, d[:, None])


def solve_user_qp(inst):
    """Smallest global minimizer (d*, u*, objective) of one per-user
    subproblem: the one-row case of :func:`_solve_rows`."""
    d, u = _solve_rows(*inst.rows())
    return float(d[0]), u[0], float(np.sum((u[0] - inst.chi) ** 2))


def solve_block(lambda_tilde, spec):
    """Project a K x L complex block onto the SEP-feasible set.

    Splits into the spec's 2K independent real rows (real and imaginary
    dimension per user), solves them in one pass and reassembles (u, d).
    """
    lam = np.asarray(lambda_tilde)
    if lam.shape != (spec.n_users, spec.s.shape[1]):
        raise ValueError("block shape does not match the SEP spec")
    chi = real_rows(lam)
    if not np.all(np.isfinite(chi)):
        raise ValueError("projection targets must be finite")
    d, u = _solve_rows(chi, spec.s, spec.a, spec.b, spec.gamma)
    return complex_block(u), d
