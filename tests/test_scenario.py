"""The scenario builders check their sizes, SEP target and power budget
before drawing anything."""

import math

import pytest

from onebit_isac.scenario import et_scenario, pt_scenario


@pytest.mark.parametrize("build", [pt_scenario, et_scenario])
@pytest.mark.parametrize("change,match", [
    (dict(power=-1.0), "power must be finite and positive"),
    (dict(power=0.0), "power must be finite and positive"),
    (dict(power=math.nan), "power must be finite and positive"),
    (dict(power=math.inf), "power must be finite and positive"),
    (dict(epsilon=2.0), "epsilon must lie in"),
    (dict(epsilon=0.0), "epsilon must lie in"),
    (dict(n_users=-1), "n_users must be an integer of at least 0"),
    (dict(n_users=2.0), "n_users must be an integer of at least 0"),
    (dict(block_len=2.5), "block_len must be an integer of at least 1"),
    (dict(block_len=0), "block_len must be an integer of at least 1"),
    (dict(n_t=0), "n_t must be an integer of at least 1"),
    (dict(n_r=True), "n_r must be an integer of at least 1"),
])
def test_builders_reject_bad_input(build, change, match):
    # power -1 used to give a negative noise power and epsilon 2 to pass
    # until the first sep_spec(); n_users -1 and block_len 2.5 failed in numpy
    with pytest.raises(ValueError, match=match):
        build(**change)


@pytest.mark.parametrize("build", [pt_scenario, et_scenario])
def test_builders_accept_a_sensing_only_scenario(build):
    sc = build(n_users=0, power=2.0)
    assert sc.channel.shape == (0, sc.n_t)
    assert sc.sigma_v_sq == pytest.approx(2.0e-3)
