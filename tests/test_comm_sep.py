import numpy as np
import pytest
from helpers_oracles import per_draw_ser
from scipy.integrate import quad

from onebit_isac import comm_sep
from onebit_isac.comm_sep import (
    build_sep_spec,
    empirical_ser,
    q_function,
    q_inverse,
    qam_levels,
    random_qam_symbols,
    sep_constraints_satisfied,
    validate_qam,
)
from onebit_isac.linalg import complex_normal


def test_q_function_at_zero():
    assert q_function(0.0) == pytest.approx(0.5)


def test_q_inverse_roundtrip():
    # below x ~ -5.5, Q(x) is within ~1e-9 of 1 and a float64 probability
    # cannot carry 1e-9 absolute precision back; widen only that end
    for x in np.linspace(-5.0, 6.0, 23):
        assert q_inverse(q_function(x)) == pytest.approx(x, abs=1e-9)
    for x in (-5.5, -6.0):
        assert q_inverse(q_function(x)) == pytest.approx(x, abs=5e-8)


def _q_oracle(x):
    # numerically integrated Gaussian tail, independent of erfc/ndtri
    val, _ = quad(lambda u: np.exp(-u * u / 2.0) / np.sqrt(2 * np.pi), x, 40.0)
    return val


def test_q_inverse_against_quadrature_bisection():
    p = 0.025
    lo, hi = -10.0, 10.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _q_oracle(mid) > p:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    assert q_inverse(p) == pytest.approx(oracle, abs=1e-9)
    assert q_inverse(p) == pytest.approx(1.95996, abs=1e-4)


def test_q_inverse_rejects_out_of_range():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(ValueError):
            q_inverse(p)


def test_qam_levels():
    assert np.array_equal(qam_levels(16), [-3.0, -1.0, 1.0, 3.0])
    assert np.array_equal(qam_levels(4), [-1.0, 1.0])
    with pytest.raises(ValueError):
        qam_levels(8)


def test_build_sep_spec_16qam_interior_and_extreme():
    sigma_w, eps = 0.2, 1e-2
    s = np.array([[1 + 3j, 3 - 1j, -3 + 1j]])
    spec = build_sep_spec(s, eps, sigma_w, 16)
    gamma = sigma_w / np.sqrt(2) * q_inverse((1 - np.sqrt(1 - eps)) / 2)
    edge = sigma_w / np.sqrt(2) * q_inverse(1 - np.sqrt(1 - eps))
    assert spec.gamma == pytest.approx(gamma)
    # row 0 is the real dimension of the one user, row 1 its imaginary one
    assert np.array_equal(spec.s, [[1.0, 3.0, -3.0], [3.0, -1.0, 1.0]])
    # Re(s)=1 interior
    assert spec.a[0, 0] == pytest.approx(gamma)
    assert spec.b[0, 0] == pytest.approx(gamma)
    # Re(s)=3 extreme positive
    assert spec.a[0, 1] == -np.inf
    assert spec.b[0, 1] == pytest.approx(edge)
    # Re(s)=-3 extreme negative, mirrored
    assert spec.a[0, 2] == pytest.approx(edge)
    assert spec.b[0, 2] == -np.inf
    # Im thresholds by the same rule
    assert spec.b[1, 0] == pytest.approx(edge)
    assert spec.a[1, 0] == -np.inf


def test_build_sep_spec_monotone_in_epsilon():
    rng = np.random.default_rng(0)
    s = random_qam_symbols(3, 5, 16, rng)
    specs = [build_sep_spec(s, e, 0.3, 16) for e in (1e-3, 1e-2, 1e-1)]
    for tight, loose in zip(specs, specs[1:]):
        for attr in ("a", "b"):
            t, l = getattr(tight, attr), getattr(loose, attr)
            mask = np.isfinite(t)
            assert np.all(l[mask] <= t[mask] + 1e-15)
        assert loose.gamma < tight.gamma


def test_gamma_diverges_as_epsilon_vanishes():
    s = np.array([[1 + 1j]])
    gammas = [build_sep_spec(s, e, 1.0, 16).gamma for e in (1e-2, 1e-4, 1e-8)]
    assert gammas[0] < gammas[1] < gammas[2]


def test_build_sep_spec_rejects_bad_input():
    with pytest.raises(ValueError):
        build_sep_spec(np.array([[2 + 1j]]), 0.01, 1.0, 16)
    with pytest.raises(ValueError):
        build_sep_spec(np.array([[1 + 1j]]), 0.0, 1.0, 16)
    validate_qam(np.array([[1 + 1j]]), 4)


def test_sep_constraints_scaled_symbols_feasible():
    rng = np.random.default_rng(1)
    s = random_qam_symbols(2, 4, 16, rng)
    spec = build_sep_spec(s, 1e-2, 0.2, 16)
    d = np.full(4, 2.0 * spec.gamma)
    u = d[:2, None] * s.real + 1j * d[2:, None] * s.imag
    ok, margin = sep_constraints_satisfied(u, d, spec)
    assert ok
    assert margin == pytest.approx(spec.gamma, rel=1e-9)  # min(d - gamma) = gamma


def test_sep_constraints_violation_detected():
    s = np.array([[1 + 1j]])
    spec = build_sep_spec(s, 1e-2, 0.2, 16)
    d = np.full(2, spec.gamma)
    ok, margin = sep_constraints_satisfied(np.zeros((1, 1), dtype=complex), d, spec)
    assert not ok
    assert margin < 0


def test_empirical_ser_zero_noise():
    rng = np.random.default_rng(2)
    s = random_qam_symbols(2, 4, 16, rng)
    h = complex_normal(rng, (2, 4))
    d = np.full(4, 0.5)
    u = d[:2, None] * s.real + 1j * d[2:, None] * s.imag
    x = np.linalg.pinv(h) @ u
    ser = empirical_ser(x, h, s, d, sigma_w=1e-12, n_noise_draws=50, seed=0, order=16)
    assert np.all(ser == 0.0)


def test_empirical_ser_hits_design_epsilon():
    # with u = d*s at d = gamma and interior-only symbols, the per-symbol
    # SEP equals epsilon exactly (extreme levels would sit strictly below)
    rng = np.random.default_rng(3)
    eps, sigma_w = 5e-2, 0.3
    re = rng.choice([-1.0, 1.0], size=(2, 6))
    im = rng.choice([-1.0, 1.0], size=(2, 6))
    s = re + 1j * im
    spec = build_sep_spec(s, eps, sigma_w, 16)
    d = np.full(4, spec.gamma)
    u = d[:2, None] * s.real + 1j * d[2:, None] * s.imag
    h = complex_normal(rng, (2, 4))
    x = np.linalg.pinv(h) @ u
    n_draws = 10000
    ser = empirical_ser(x, h, s, d, sigma_w, n_draws, seed=1, order=16)
    se = np.sqrt(eps * (1 - eps) / (n_draws * 6))
    assert np.all(ser <= eps + 3 * se)
    assert np.all(ser >= eps - 5 * se)  # sanity: the bound is active, not slack


def test_empirical_ser_deterministic():
    rng = np.random.default_rng(4)
    s = random_qam_symbols(2, 3, 16, rng)
    h = complex_normal(rng, (2, 4))
    x = complex_normal(rng, (4, 3))
    d = np.full(4, 1.0)
    a = empirical_ser(x, h, s, d, 0.5, 200, seed=7, order=16)
    b = empirical_ser(x, h, s, d, 0.5, 200, seed=7, order=16)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("k,block_len,order,sigma_w,chunk_normals", [
    (2, 3, 16, 0.5, None),  # 21,845 draws per chunk: 21,852 draws cross one boundary
    (3, 4, 16, 0.8, 60),  # 2 draws per chunk
    (1, 5, 4, 1.0, 70),  # 7 draws per chunk
    (2, 2, 64, 0.9, 1),  # a chunk smaller than one draw still holds one draw
])
def test_empirical_ser_matches_per_draw_oracle(monkeypatch, k, block_len, order, sigma_w,
                                               chunk_normals):
    rng = np.random.default_rng(k + 10 * block_len)
    s = random_qam_symbols(k, block_len, order, rng)
    h = complex_normal(rng, (k, 4))
    d = rng.uniform(0.5, 1.5, 2 * k)
    x = np.linalg.pinv(h) @ (d[:k, None] * s.real + 1j * d[k:, None] * s.imag)
    if chunk_normals is None:
        n_draws = comm_sep._CHUNK_NORMALS // (2 * k * block_len) + 7
    else:
        monkeypatch.setattr(comm_sep, "_CHUNK_NORMALS", chunk_normals)
        n_draws = 23
    got = empirical_ser(x, h, s, d, sigma_w, n_draws, seed=9, order=order)
    want = per_draw_ser(x, h, s, d, sigma_w, n_draws, seed=9, order=order)
    assert np.array_equal(got, want) and np.any(want > 0.0)


@pytest.mark.parametrize("d", [
    np.full(3, 1.0), np.full(5, 1.0), np.full((2, 2), 1.0),
    np.array([1.0, 0.0, 1.0, 1.0]), np.array([1.0, -0.5, 1.0, 1.0]),
    np.array([1.0, np.nan, 1.0, 1.0]), np.array([1.0, np.inf, 1.0, 1.0]),
])
def test_empirical_ser_rejects_bad_decision_values(d):
    rng = np.random.default_rng(5)
    s = random_qam_symbols(2, 3, 16, rng)
    h = complex_normal(rng, (2, 4))
    x = complex_normal(rng, (4, 3))
    with pytest.raises(ValueError):
        empirical_ser(x, h, s, d, 0.5, 10, seed=0, order=16)


@pytest.mark.parametrize("n_draws", [0, -3, 2.5, True, None])
def test_empirical_ser_rejects_a_bad_draw_count(n_draws):
    # 2.5 used to raise TypeError from range and True to count as one draw
    rng = np.random.default_rng(6)
    s = random_qam_symbols(2, 3, 16, rng)
    h = complex_normal(rng, (2, 4))
    x = complex_normal(rng, (4, 3))
    with pytest.raises(ValueError, match="n_noise_draws must be an integer of at least 1"):
        empirical_ser(x, h, s, np.ones(4), 0.5, n_draws, seed=0, order=16)
