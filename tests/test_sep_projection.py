import numpy as np
import pytest
from scipy.optimize import minimize

from helpers_oracles import enumerate_user_qp, sequential_boundary_points
from onebit_isac.comm_sep import (
    SepSpec,
    build_sep_spec,
    random_qam_symbols,
    sep_constraints_satisfied,
)
from onebit_isac.linalg import complex_normal
from onebit_isac.sep_projection import (
    UserQpInstance,
    _clamp_u,
    boundary_points,
    solve_block,
    solve_user_qp,
)


def random_instance(rng, n_symbols, order=16, gamma=None, chi_scale=3.0):
    """Instance with spec-shaped thresholds (interior gamma, one-sided edges)."""
    levels = np.arange(-(int(np.sqrt(order)) - 1), int(np.sqrt(order)), 2).astype(float)
    s = rng.choice(levels, size=n_symbols)
    gamma = gamma if gamma is not None else float(rng.uniform(0.05, 0.6))
    edge = gamma * float(rng.uniform(0.3, 1.0))
    extreme = levels[-1]
    a = np.full(n_symbols, gamma)
    b = np.full(n_symbols, gamma)
    a[s == extreme] = -np.inf
    b[s == extreme] = edge
    a[s == -extreme] = edge
    b[s == -extreme] = -np.inf
    chi = rng.normal(scale=chi_scale, size=n_symbols)
    return UserQpInstance(chi, s, a, b, gamma)


# grid points scored per pass, so that every symbol's pass stays in cache
BRUTE_FORCE_CHUNK = 1 << 15


def brute_force_objective(inst, step=1e-5, span=20.0):
    """Grid the decision variable; per symbol, accumulate the squared
    clamping penalty over the grid and take the best value. The grid is
    scored chunk by chunk, keeping the smallest chunk minimum."""
    n_total = int(round(span / step)) + 1
    best = np.inf
    for lo in range(0, n_total, BRUTE_FORCE_CHUNK):
        d = inst.gamma + np.arange(lo, min(lo + BRUTE_FORCE_CHUNK, n_total)) * step
        obj = np.zeros(d.size)
        for l in range(inst.chi.size):
            if np.isfinite(inst.a_tilde[l]):
                over = inst.chi[l] - ((inst.s_tilde[l] + 1.0) * d - inst.a_tilde[l])
                np.maximum(over, 0.0, out=over)
                obj += over * over
            if np.isfinite(inst.b_tilde[l]):
                under = ((inst.s_tilde[l] - 1.0) * d + inst.b_tilde[l]) - inst.chi[l]
                np.maximum(under, 0.0, out=under)
                obj += under * under
        best = min(best, obj.min())
    return float(best)


def test_boundary_points_degenerate_empty():
    inst = UserQpInstance(np.zeros(0), np.zeros(0), np.zeros(0), np.zeros(0), 0.3)
    pts = boundary_points(inst)
    assert pts[0] == pytest.approx(0.3)
    assert pts[-1] == np.inf
    assert len(pts) == 2


def test_boundary_points_sentinel_sides_skipped():
    # all a = -inf: only the b-side candidates can contribute
    inst = UserQpInstance(
        chi=np.array([2.0, -1.0]),
        s_tilde=np.array([3.0, 3.0]),
        a_tilde=np.array([-np.inf, -np.inf]),
        b_tilde=np.array([0.1, 0.1]),
        gamma=0.2,
    )
    pts = boundary_points(inst)
    assert np.all(np.isfinite(pts[:-1]))
    assert pts[0] == pytest.approx(0.2)
    # b-side candidate: (b - chi)/(1 - s) = (0.1 - 2)/(-2) = 0.95
    assert any(np.isclose(pts, 0.95))


def test_boundary_points_sorted_dedup():
    rng = np.random.default_rng(0)
    for trial in range(220):
        inst = random_instance(rng, 6 if trial < 20 else int(rng.integers(1, 33)))
        if trial >= 20:
            # repeated targets, some 1e-13 apart: chains of points within
            # 1e-12 of each other, merged into the first of each chain
            inst.chi = np.round(inst.chi) + rng.choice([0.0, 1e-13, 6e-13], inst.chi.size)
        pts = boundary_points(inst)
        assert np.array_equal(pts, sequential_boundary_points(inst))
        assert np.all(np.diff(pts[:-1]) > 1e-12)
        assert pts[-1] == np.inf
        assert np.all(pts[:-1] >= inst.gamma - 1e-15)


def test_interval_classification_constant():
    rng = np.random.default_rng(1)
    for _ in range(20):
        inst = random_instance(rng, 6)
        pts = boundary_points(inst)
        for i in range(len(pts) - 1):
            lo, hi = pts[i], pts[i + 1]
            if not np.isfinite(hi):
                probes = lo + np.array([0.5, 1.0, 5.0])
            else:
                probes = lo + (hi - lo) * np.array([0.25, 0.5, 0.75])
            sets = []
            for t in probes:
                g = inst.chi > (inst.s_tilde + 1.0) * t - inst.a_tilde
                o = inst.chi < (inst.s_tilde - 1.0) * t + inst.b_tilde
                sets.append((tuple(g), tuple(o)))
            assert sets[0] == sets[1] == sets[2]


def test_single_symbol_feasible_target():
    # extreme symbol: box at d = gamma is [2*gamma + b, inf); chi inside it
    # leaves the unconstrained optimum feasible at the smallest decision value
    gamma, edge = 0.4, 0.1
    inst = UserQpInstance(
        chi=np.array([1.5]),
        s_tilde=np.array([3.0]),
        a_tilde=np.array([-np.inf]),
        b_tilde=np.array([edge]),
        gamma=gamma,
    )
    d, u, obj = solve_user_qp(inst)
    assert d == pytest.approx(gamma)
    assert u[0] == pytest.approx(1.5)
    assert obj == pytest.approx(0.0, abs=1e-15)
    # interior symbol: the box at d = gamma collapses to the point s*gamma
    inst2 = UserQpInstance(
        chi=np.array([1.0 * gamma]),
        s_tilde=np.array([1.0]),
        a_tilde=np.array([gamma]),
        b_tilde=np.array([gamma]),
        gamma=gamma,
    )
    d2, u2, obj2 = solve_user_qp(inst2)
    assert d2 == pytest.approx(gamma)
    assert u2[0] == pytest.approx(gamma)
    assert obj2 == pytest.approx(0.0, abs=1e-15)


def test_solve_user_qp_brute_force_oracle():
    # 50-instance smoke version; the full 200-instance run is an acceptance
    # criterion in test_acceptance.py
    rng = np.random.default_rng(2)
    for trial in range(50):
        n = int(rng.integers(1, 9))
        inst = random_instance(rng, n)
        d, u, obj = solve_user_qp(inst)
        oracle = brute_force_objective(inst)
        assert obj <= oracle + 1e-6, f"trial {trial}: {obj} vs {oracle}"
        # optimal u is feasible at d
        up = np.where(np.isfinite(inst.a_tilde), (inst.s_tilde + 1) * d - inst.a_tilde, np.inf)
        lo = np.where(np.isfinite(inst.b_tilde), (inst.s_tilde - 1) * d + inst.b_tilde, -np.inf)
        assert np.all(u <= up + 1e-9) and np.all(u >= lo - 1e-9)
        assert d >= inst.gamma - 1e-12


def test_solve_user_qp_matches_slsqp_reference():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        inst = random_instance(rng, n)
        d_star, u_star, obj = solve_user_qp(inst)

        def fun(z):
            return np.sum((z[:-1] - inst.chi) ** 2)

        cons = [{"type": "ineq", "fun": lambda z: z[-1] - inst.gamma}]
        for l in range(n):
            if np.isfinite(inst.a_tilde[l]):
                cons.append(
                    {"type": "ineq",
                     "fun": lambda z, l=l: (inst.s_tilde[l] + 1) * z[-1]
                     - inst.a_tilde[l] - z[l]}
                )
            if np.isfinite(inst.b_tilde[l]):
                cons.append(
                    {"type": "ineq",
                     "fun": lambda z, l=l: z[l] - (inst.s_tilde[l] - 1) * z[-1]
                     - inst.b_tilde[l]}
                )
        z0 = np.concatenate([inst.chi, [max(inst.gamma, 1.0)]])
        ref = minimize(fun, z0, constraints=cons, method="SLSQP",
                       options={"maxiter": 500, "ftol": 1e-12})
        assert obj <= ref.fun + 1e-5


def test_solve_block_feasible_and_separable():
    rng = np.random.default_rng(4)
    k, block_len = 3, 5
    s = random_qam_symbols(k, block_len, 16, rng)
    spec = build_sep_spec(s, 1e-2, 0.3, 16)
    lam = complex_normal(rng, (k, block_len))
    u, d = solve_block(lam, spec)
    ok, margin = sep_constraints_satisfied(u, d, spec)
    assert ok, margin
    # block objective equals the sum of per-user objectives
    total = np.sum(np.abs(u - lam) ** 2)
    parts = 0.0
    for kk in range(k):
        _, _, o_r = solve_user_qp(UserQpInstance(
            lam[kk].real, spec.s[kk], spec.a[kk], spec.b[kk], spec.gamma))
        _, _, o_i = solve_user_qp(UserQpInstance(
            lam[kk].imag, spec.s[k + kk], spec.a[k + kk], spec.b[k + kk], spec.gamma))
        parts += o_r + o_i
    assert total == pytest.approx(parts, abs=1e-10)


def test_solve_block_feasible_input_unchanged():
    rng = np.random.default_rng(5)
    k, block_len = 2, 4
    s = random_qam_symbols(k, block_len, 16, rng)
    spec = build_sep_spec(s, 1e-2, 0.3, 16)
    d0 = np.full(2 * k, spec.gamma)
    lam = d0[:k, None] * s.real + 1j * d0[k:, None] * s.imag
    u, d = solve_block(lam, spec)
    assert np.allclose(u, lam, atol=1e-12)
    assert np.allclose(d, spec.gamma)


def test_solve_block_shape_mismatch():
    rng = np.random.default_rng(6)
    s = random_qam_symbols(2, 4, 16, rng)
    spec = build_sep_spec(s, 1e-2, 0.3, 16)
    with pytest.raises(ValueError):
        solve_block(np.zeros((3, 4), dtype=complex), spec)


def test_solve_block_rejects_non_finite_block():
    rng = np.random.default_rng(9)
    s = random_qam_symbols(2, 4, 16, rng)
    spec = build_sep_spec(s, 1e-2, 0.3, 16)
    for bad in (np.nan, np.inf, 1j * np.inf):
        lam = complex_normal(rng, (2, 4))
        lam[1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            solve_block(lam, spec)


def random_block(rng, trial):
    """A K x L block and its spec, K 1-6, L 1-32, QAM 4/16/64. Block 3i + 1
    is random. The others sit near u = d0*s, where the objective is often
    zero on a range of d; block 3i shrinks the two-sided thresholds (a + b <
    2*gamma) every other time, and block 3i + 2 is rounded to half-integers,
    so that its targets repeat and a row has few breakpoints but many
    active terms."""
    k, block_len = int(rng.integers(1, 7)), int(rng.integers(1, 33))
    order = int(rng.choice([4, 16, 64]))
    s = random_qam_symbols(k, block_len, order, rng)
    spec = build_sep_spec(s, float(rng.choice([1e-3, 1e-2, 1e-1])),
                          float(rng.uniform(0.05, 1.0)), order)
    if trial % 3 == 1:
        return complex_normal(rng, (k, block_len), scale=float(rng.choice([0.3, 3.0]))), spec
    if trial % 6 == 3:
        two_sided = np.isfinite(spec.a) & np.isfinite(spec.b)
        a, b = spec.a.copy(), spec.b.copy()
        a[two_sided] *= rng.uniform(0.2, 1.0, two_sided.sum())
        b[two_sided] *= rng.uniform(0.2, 1.0, two_sided.sum())
        spec = SepSpec(spec.s, a, b, spec.gamma)
    d0 = spec.gamma * rng.uniform(1.0, 4.0, 2 * k)
    lam = d0[:k, None] * s.real + 1j * d0[k:, None] * s.imag
    lam = lam + complex_normal(rng, (k, block_len), scale=spec.gamma * 0.1)
    return (np.round(2.0 * lam) / 2.0 if trial % 3 == 2 else lam), spec


def test_solve_block_matches_per_row_solves_bitwise():
    # every row is padded to the same breakpoint count alone or in a block,
    # so it keeps the bits of its own one-row solve, tie rule included
    rng = np.random.default_rng(10)
    flat = 0
    for trial in range(3000):
        lam, spec = random_block(rng, trial)
        u, d = solve_block(lam, spec)
        chi = np.concatenate((lam.real, lam.imag))
        got = np.concatenate((u.real, u.imag))
        for row in range(chi.shape[0]):
            inst = UserQpInstance(chi[row], spec.s[row], spec.a[row], spec.b[row], spec.gamma)
            d_row, u_row, obj = solve_user_qp(inst)
            assert d[row] == d_row and np.array_equal(got[row], u_row), (trial, row)
            # zero on a range of d above gamma, where the tie rule decides
            flat += bool(obj == 0.0 and d_row > spec.gamma and np.array_equal(
                _clamp_u(inst.chi, inst.s_tilde, inst.a_tilde, inst.b_tilde, 1.001 * d_row),
                inst.chi))
    assert flat >= 1000


def test_spec_is_checked_when_built():
    s = np.array([[1.0, 3.0], [-1.0, 1.0]])
    a = np.array([[0.3, -np.inf], [0.3, 0.3]])
    b = np.array([[0.3, 0.1], [0.3, 0.3]])
    SepSpec(s, a, b, 0.3)
    for gamma in (0.0, -0.3):
        with pytest.raises(ValueError, match="gamma must be positive"):
            SepSpec(s, a, b, gamma)
    b[1, 1] = 0.31
    with pytest.raises(ValueError, match=r"a \+ b <= 2\*gamma"):
        SepSpec(s, a, b, 0.3)


def test_spec_from_lists_solves_like_one_from_arrays():
    rng = np.random.default_rng(11)
    lam, spec = random_block(rng, 1)
    listed = SepSpec(spec.s.tolist(), spec.a.tolist(), spec.b.tolist(), spec.gamma)
    assert all(np.array_equal(getattr(listed, f), getattr(spec, f)) for f in "sab")
    u, d = solve_block(lam, spec)
    u_listed, d_listed = solve_block(lam, listed)
    assert np.array_equal(u, u_listed) and np.array_equal(d, d_listed)


@pytest.mark.parametrize("shapes", [
    ((1, 2), (1, 2), (1, 2)),  # odd row count
    ((2, 2), (2, 3), (2, 2)),  # a does not match s
    ((2, 2), (2, 2), (4, 2)),  # b does not match s
    ((4,), (4,), (4,)),  # not 2-D
])
def test_spec_rejects_mismatched_shapes(shapes):
    s, a, b = (np.full(shape, f) for shape, f in zip(shapes, (1.0, 0.3, 0.3)))
    with pytest.raises(ValueError, match=r"\(2K, L\) shape"):
        SepSpec(s, a, b, 0.3)


def test_gamma_must_be_positive():
    with pytest.raises(ValueError, match="gamma must be positive"):
        UserQpInstance(np.array([0.0]), np.array([1.0]), np.array([0.1]),
                       np.array([0.1]), 0.0)


def test_two_sided_row_must_keep_its_box_at_gamma():
    # a + b > 2*gamma empties [(s-1)d + b, (s+1)d - a] at d = gamma
    with pytest.raises(ValueError, match=r"a \+ b <= 2\*gamma"):
        UserQpInstance(np.array([0.0, 0.0]), np.array([1.0, 3.0]), np.array([0.3, -np.inf]),
                       np.array([0.31, 0.5]), 0.3)
    rng = np.random.default_rng(7)
    for order in (4, 16, 64):
        s = random_qam_symbols(3, 6, order, rng)
        spec = build_sep_spec(s, 1e-2, 0.3, order)
        for row in range(6):
            UserQpInstance(np.zeros(6), spec.s[row], spec.a[row], spec.b[row], spec.gamma)


def test_tie_goes_to_smallest_minimizer():
    # the objective is zero on [0.76374..., 2.12288...]; scoring every interval
    # lets a 4.9e-32 rounding residue at the smaller end lose the tie
    gamma = 0.33030000273662885
    edge = 0.10653833755354956
    inst = UserQpInstance(
        chi=np.array([-1.1971806150305142, 4.930216351495398, 4.352300747794231]),
        s_tilde=np.array([-1.0, 3.0, 3.0]),
        a_tilde=np.array([gamma, -np.inf, -np.inf]),
        b_tilde=np.array([gamma, edge, edge]),
        gamma=gamma,
    )
    d, u, obj = solve_user_qp(inst)
    assert d == pytest.approx(0.7637403088835715, rel=1e-12)
    assert obj == pytest.approx(0.0, abs=1e-15)
    assert np.allclose(u, inst.chi, atol=1e-15)


def test_sweep_matches_enumerating_oracle():
    rng = np.random.default_rng(8)
    for trial in range(2000):
        n = int(rng.integers(1, 33))
        inst = random_instance(rng, n, order=int(rng.choice([4, 16, 64])),
                               chi_scale=float(rng.choice([0.3, 3.0])))
        if trial % 2:
            # two-sided rows with a + b < 2*gamma, targets near s*d0 so that
            # the objective is often zero on a whole range of d
            two_sided = np.isfinite(inst.a_tilde) & np.isfinite(inst.b_tilde)
            inst.a_tilde[two_sided] *= rng.uniform(0.2, 1.0, two_sided.sum())
            inst.b_tilde[two_sided] *= rng.uniform(0.2, 1.0, two_sided.sum())
            d0 = inst.gamma * rng.uniform(1.0, 4.0)
            inst.chi = d0 * inst.s_tilde + rng.uniform(-1.0, 1.0, n) * inst.gamma
        d, _, obj = solve_user_qp(inst)
        d_ref, _, obj_ref = enumerate_user_qp(inst)
        tol = 1e-12 * (1.0 + obj_ref)
        assert obj <= obj_ref + tol, f"trial {trial}: {obj} vs {obj_ref}"
        if abs(obj - obj_ref) <= tol:
            assert d <= d_ref + 1e-12, f"trial {trial}: d {d} vs {d_ref}"
