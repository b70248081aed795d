import dataclasses
import math

import numpy as np
import pytest
from helpers_oracles import crb_et_forms_equal, crb_et_information_form, et_crb_inputs, lift

from onebit_isac.array_geometry import EtTarget, exponential_correlation
from onebit_isac.crb_metrics import (
    PtModel,
    crb_et,
    crb_pt,
    crb_pt_infinite_resolution,
    et_prior,
    mse_et_quantization_unaware,
)
from onebit_isac.linalg import complex_normal, unvec
from onebit_isac.opt_et import EtProblem


def random_et_instance(rng, n_t=2, n_r=2, block_len=2, corr=0.5):
    c_aa = EtTarget(exponential_correlation(n_r, corr), exponential_correlation(n_t, corr)).c_aa
    x = unvec(complex_normal(rng, n_t * block_len), n_t, block_len)
    return x, c_aa


def test_crb_pt_infinite_at_endfire():
    rng = np.random.default_rng(0)
    x = complex_normal(rng, 6)
    assert math.isinf(crb_pt(x, np.pi / 2, 1.0, 0.1, 3, 2))
    assert math.isinf(crb_pt(x, -np.pi / 2, 1.0, 0.1, 3, 2))


@pytest.mark.parametrize("sigma_alpha_sq", [-1.0, math.nan, math.inf])
def test_pt_model_rejects_bad_target_power(sigma_alpha_sq):
    with pytest.raises(ValueError):
        crb_pt(np.ones(16) / 4, 0.3, sigma_alpha_sq, 0.1, 4, 2)


@pytest.mark.parametrize("sigma_v_sq", [0.0, -0.1, math.nan, math.inf])
def test_bounds_and_models_reject_bad_noise_power(sigma_v_sq):
    x, c_aa = random_et_instance(np.random.default_rng(3))
    calls = [
        lambda: crb_pt(np.ones(16) / 4, 0.3, 1.0, sigma_v_sq, 4, 2),
        lambda: crb_pt_infinite_resolution(np.ones(16) / 4, 0.3, 1.0, sigma_v_sq, 4, 2),
        lambda: PtModel(0.3, 1.0, sigma_v_sq, 4, 4, 2),
        lambda: crb_et(x, c_aa, sigma_v_sq),
        lambda: mse_et_quantization_unaware(x, c_aa, sigma_v_sq),
        lambda: crb_et(x, np.eye(4) + 0.3 * np.ones((4, 4)), sigma_v_sq),  # dense path
        lambda: EtProblem(c_aa, sigma_v_sq, 2, 2, 2),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="noise power must be finite and positive"):
            call()


@pytest.mark.parametrize("bad", [math.nan, math.inf, "rows", "columns", "vector"])
def test_et_bounds_and_problem_reject_bad_waveforms(bad):
    x, c_aa = random_et_instance(np.random.default_rng(4))
    dense = np.eye(4) + 0.3 * np.ones((4, 4))
    if isinstance(bad, float):
        x[1, 0] = bad
        match = "waveform has non-finite entries"
    else:
        x = {"rows": np.ones((0, 2)), "columns": np.ones((2, 0)), "vector": np.ones(4)}[bad]
        match = "waveform must be an n_t x L matrix"
    calls = [
        lambda: crb_et(x, c_aa, 0.1),
        lambda: mse_et_quantization_unaware(x, c_aa, 0.1),
        lambda: crb_et(x, dense, 0.1),  # dense path
    ]
    if isinstance(bad, float):
        for prior in (c_aa, dense):
            for aware in (True, False):
                problem = EtProblem(prior, 0.1, 2, 2, 2, quantization_aware=aware)
                calls += [lambda p=problem: p.anchor(x.reshape(-1, order="F")),
                          lambda p=problem: p.objective(x.reshape(-1, order="F"))]
    for call in calls:
        with pytest.raises(ValueError, match=match):
            call()


@pytest.mark.parametrize("field", ["n_t", "n_r", "block_len"])
@pytest.mark.parametrize("bad", [0, -1, 2.0, True, None])
def test_et_problem_rejects_bad_sizes(field, bad):
    sizes = {"n_t": 2, "n_r": 2, "block_len": 2, field: bad}
    _, c_aa = random_et_instance(np.random.default_rng(5))
    with pytest.raises(ValueError, match=f"{field} must be an integer of at least 1"):
        EtProblem(c_aa, 0.1, **sizes)


@pytest.mark.parametrize("field", ["n_t", "n_r", "block_len"])
@pytest.mark.parametrize("bad", [0, -1, 2.0, 2.5, 8.0, True, None])
def test_pt_model_rejects_bad_sizes(field, bad):
    # a float or bool size used to pass construction and fail later in the
    # solver with a TypeError; a zero size failed inside numpy
    sizes = {"n_t": 8, "n_r": 8, "block_len": 10, field: bad}
    with pytest.raises(ValueError, match=f"{field} must be an integer of at least 1"):
        PtModel(0.3, 1.0, 0.1, **sizes)


def test_pt_model_accepts_numpy_integer_sizes():
    model = PtModel(0.3, 1.0, 0.1, np.int64(4), np.int32(3), np.int64(2))
    assert model.a_t.shape == (4,) and model.q.shape[0] == 3


@pytest.mark.parametrize("bad", ["no", 0, 1, None])
def test_variant_flags_must_be_bools(bad):
    # EtProblem(..., quantization_aware="no") used to build the aware bound
    _, c_aa = random_et_instance(np.random.default_rng(6))
    calls = [
        lambda: PtModel(0.3, 1.0, 0.1, 4, 4, 2, quantized=bad),
        lambda: EtProblem(c_aa, 0.1, 2, 2, 2, quantization_aware=bad),
        lambda: et_prior(c_aa, 2, 2, 0.1, bad),
        lambda: et_prior(np.eye(4) + 0.3 * np.ones((4, 4)), 2, 2, 0.1, bad),  # dense path
    ]
    for call in calls:
        with pytest.raises(ValueError, match="must be a bool"):
            call()


def test_et_problem_variant_and_noise_cannot_be_set_again():
    # the prior holds both, so a later assignment would be silently ignored
    _, c_aa = random_et_instance(np.random.default_rng(8))
    problem = EtProblem(c_aa, 0.1, 2, 2, 2)
    for name, value in (("quantization_aware", False), ("sigma_v_sq", 0.2)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(problem, name, value)


def test_pt_model_fields_cannot_be_set_again():
    # the steering vectors and receive basis are built from theta and the
    # sizes once, so an assignment to theta used to leave the bound at the
    # old angle: 0.0197 where a model built at 0.6 gives 0.265
    model = PtModel(0.3, 1.0, 0.1, 4, 4, 2)
    x = np.ones(8, dtype=complex) / np.sqrt(8.0)
    before = model.bound(x)
    for f in dataclasses.fields(PtModel):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, f.name, getattr(model, f.name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        model.theta = 0.6
    assert model.bound(x) == before == crb_pt(x, 0.3, 1.0, 0.1, 4, 2)
    assert PtModel(0.6, 1.0, 0.1, 4, 4, 2).bound(x) == pytest.approx(0.2646, rel=1e-3)


def test_variant_flags_accept_numpy_bools():
    x, c_aa = random_et_instance(np.random.default_rng(7))
    x_pt = np.ones(8) / np.sqrt(8.0)
    model = PtModel(0.3, 1.0, 0.1, 4, 4, 2, quantized=np.False_)
    assert model.bound(x_pt) == crb_pt_infinite_resolution(x_pt, 0.3, 1.0, 0.1, 4, 2)
    problem = EtProblem(c_aa, 0.1, 2, 2, 2, quantization_aware=np.False_)
    assert problem.anchor(x.reshape(-1, order="F")).bound == mse_et_quantization_unaware(
        x, c_aa, 0.1)


def test_pt_workspace_derivatives_match_finite_differences():
    rng = np.random.default_rng(1)
    x = complex_normal(rng, 6)
    theta, sa, sv, h = 0.35, 1.2, 0.08, 1e-6
    model = PtModel(theta, sa, sv, 3, 3, 2)
    ws = model.workspace(x)
    mp, mm = PtModel(theta + h, sa, sv, 3, 3, 2), PtModel(theta - h, sa, sv, 3, 3, 2)
    wp, wm = mp.workspace(x), mm.workspace(x)
    for quantized in (False, True):
        got = lift(model, ws, quantized)[1]
        hi, lo = lift(mp, wp, quantized)[0], lift(mm, wm, quantized)[0]
        fd = (hi - lo) / (2 * h)
        rel = np.linalg.norm(got - fd) / np.linalg.norm(fd)
        assert rel < 1e-6, quantized
    fd_f = (wp.f - wm.f) / (2 * h)
    assert np.linalg.norm(ws.d_f - fd_f) / np.linalg.norm(fd_f) < 1e-6


def test_pt_workspace_hermitian_structure():
    rng = np.random.default_rng(2)
    x = complex_normal(rng, 8)
    model = PtModel(0.5, 1.0, 0.2, 4, 4, 2)
    ws = model.workspace(x)
    for mat in lift(model, ws, quantized=False) + lift(model, ws):
        assert np.linalg.norm(mat - mat.conj().T) < 1e-12
    assert np.all(np.isreal(ws.d_f))
    c_zz_hat, d_czz = lift(model, ws)
    assert np.allclose(np.diag(c_zz_hat), 1.0)
    assert np.allclose(np.diag(d_czz), 0.0)


def test_crb_pt_scale_invariance():
    rng = np.random.default_rng(3)
    x = complex_normal(rng, 6)
    args = (x, 0.4, 1.3, 0.07, 3, 2)
    base_q = crb_pt(*args)
    base_i = crb_pt_infinite_resolution(*args)
    for c in (0.1, 10.0):
        scaled = (x, 0.4, 1.3 * c, 0.07 * c, 3, 2)
        assert crb_pt(*scaled) == pytest.approx(base_q, rel=1e-9)
        assert crb_pt_infinite_resolution(*scaled) == pytest.approx(base_i, rel=1e-9)


def test_crb_pt_decreases_with_power():
    rng = np.random.default_rng(4)
    for _ in range(20):
        x = complex_normal(rng, 6)
        x /= np.linalg.norm(x)
        theta = rng.uniform(-1.2, 1.2)
        prev_q = prev_i = np.inf
        for k in range(5):
            xs = x * math.sqrt(0.05 * 2.0**k)
            q = crb_pt(xs, theta, 1.0, 0.1, 3, 2)
            i = crb_pt_infinite_resolution(xs, theta, 1.0, 0.1, 3, 2)
            assert q < prev_q and i < prev_i
            prev_q, prev_i = q, i


def test_crb_et_zero_waveform_equals_prior_trace():
    rng = np.random.default_rng(5)
    _, c_aa = random_et_instance(rng)
    zero = np.zeros((2, 2), dtype=complex)
    assert crb_et(zero, c_aa, 0.3) == pytest.approx(np.trace(c_aa).real, rel=1e-12)
    assert mse_et_quantization_unaware(zero, c_aa, 0.3) == pytest.approx(
        np.trace(c_aa).real, rel=1e-12
    )


def test_crb_et_bounded_by_prior():
    rng = np.random.default_rng(6)
    for _ in range(20):
        x, c_aa = random_et_instance(rng)
        v = crb_et(x, c_aa, 10 ** rng.uniform(-3, 1))
        assert 0.0 < v <= np.trace(c_aa).real + 1e-12


def test_crb_et_forms_agree():
    rng = np.random.default_rng(7)
    for _ in range(10):
        x, c_aa = random_et_instance(rng)
        ok, gap = crb_et_forms_equal(x, c_aa, 0.2)
        assert ok, gap
    # identity prior case
    x = unvec(complex_normal(rng, 4), 2, 2)
    ok, gap = crb_et_forms_equal(x, np.eye(4), 0.5)
    assert ok, gap


def test_crb_et_forms_zero_waveform():
    c_aa = np.eye(4)
    zero = np.zeros((2, 2), dtype=complex)
    a = crb_et(zero, c_aa, 1.0)
    b = crb_et_information_form(zero, c_aa, 1.0)
    assert a == pytest.approx(4.0, rel=1e-12)
    assert b == pytest.approx(4.0, rel=1e-9)


def test_mse_qu_never_exceeds_one_bit_bound():
    rng = np.random.default_rng(8)
    for _ in range(50):
        x, c_aa = random_et_instance(rng, n_t=3, n_r=3, block_len=4)
        sv = 10 ** rng.uniform(-3, 1)
        assert mse_et_quantization_unaware(x, c_aa, sv) <= crb_et(x, c_aa, sv) + 1e-12


def test_mse_qu_high_noise_limit():
    rng = np.random.default_rng(9)
    x, c_aa = random_et_instance(rng)
    x /= np.linalg.norm(x)
    val = mse_et_quantization_unaware(x, c_aa, 1e9)
    assert val == pytest.approx(np.trace(c_aa).real, rel=1e-6)


def test_crb_et_decreases_with_power():
    rng = np.random.default_rng(10)
    for _ in range(20):
        x, c_aa = random_et_instance(rng)
        x /= np.linalg.norm(x)
        prev = np.inf
        for k in range(5):
            v = crb_et(x * math.sqrt(0.1 * 2.0**k), c_aa, 0.1)
            assert v < prev
            prev = v


def test_et_crb_inputs_noise_positive_definite():
    rng = np.random.default_rng(11)
    x, c_aa = random_et_instance(rng)
    inputs = et_crb_inputs(x, c_aa, 0.05)
    assert np.all(inputs.c_vv_tilde > 0.0)
    expected = 0.05 * inputs.f**2 + (1.0 - 2.0 / np.pi)
    assert np.allclose(inputs.c_vv_tilde, expected, atol=1e-14)


def test_noise_validation():
    rng = np.random.default_rng(12)
    x, c_aa = random_et_instance(rng)
    with pytest.raises(ValueError):
        crb_et(x, c_aa, 0.0)
    with pytest.raises(ValueError):
        mse_et_quantization_unaware(x, c_aa, -1.0)
    with pytest.raises(ValueError):
        crb_pt(complex_normal(rng, 6), 0.3, 1.0, 0.0, 3, 2)
