"""Full problem instances: array sizes, block length, noise powers, target
model, downlink channel, constellation block, and the SEP target."""

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .array_geometry import EtTarget, PtTarget, exponential_correlation
from .comm_sep import build_sep_spec, check_epsilon, random_qam_symbols
from .linalg import check_count, complex_normal, integer_at_least


@dataclass
class Scenario:
    n_t: int
    n_r: int
    n_users: int
    block_len: int
    qam_order: int
    power: float
    sigma_v_sq: float
    sigma_w_sq: float
    epsilon: float
    target: Union[PtTarget, EtTarget]
    channel: np.ndarray  # K x N_t
    symbols: np.ndarray  # K x L

    @property
    def kind(self):
        return "pt" if isinstance(self.target, PtTarget) else "et"

    @property
    def sigma_w(self):
        return math.sqrt(self.sigma_w_sq)

    def sep_spec(self):
        return build_sep_spec(self.symbols, self.epsilon, self.sigma_w, self.qam_order)

    def unvec_waveform(self, x):
        return np.asarray(x).reshape((self.n_t, self.block_len), order="F")


def min_sep_power(scenario):
    """Power needed to meet the SEP constraints with the tightest decisions.

    Uses the minimum-norm waveform placing every noiseless symbol exactly at
    gamma * s; a scenario whose budget falls below this cannot reach zero
    ADMM residual.
    """
    if scenario.n_users == 0:
        return 0.0
    spec = scenario.sep_spec()
    x = np.linalg.pinv(scenario.channel) @ (spec.gamma * scenario.symbols)
    return float(np.vdot(x, x).real)


def _common(n_t, n_r, n_users, block_len, qam_order, snr_sensing_db, snr_comm_db,
            epsilon, power, seed):
    """Channel, symbols and noise powers of a scenario. Raises ValueError
    unless n_t, n_r and block_len are integers of at least 1, n_users one of
    at least 0, epsilon lies in (0, 1) and power is finite and positive."""
    for name, value in (("n_t", n_t), ("n_r", n_r), ("block_len", block_len)):
        check_count(name, value)
    if not integer_at_least(n_users, 0):
        raise ValueError(f"n_users must be an integer of at least 0, got {n_users!r}")
    check_epsilon(epsilon)
    if not 0.0 < power < math.inf:
        raise ValueError(f"power must be finite and positive, got {power!r}")
    rng = np.random.default_rng(seed)
    channel = complex_normal(rng, (n_users, n_t))
    symbols = random_qam_symbols(n_users, block_len, qam_order, rng)
    sigma_v_sq = power / 10.0 ** (snr_sensing_db / 10.0)
    sigma_w_sq = power / 10.0 ** (snr_comm_db / 10.0)
    return channel, symbols, sigma_v_sq, sigma_w_sq


def pt_scenario(n_t=8, n_r=8, n_users=4, block_len=10, qam_order=16,
                snr_sensing_db=30.0, snr_comm_db=30.0, epsilon=1e-2,
                theta=math.radians(30.0), sigma_alpha_sq=1.0, power=1.0, seed=0):
    """Desk-scale point-target instance with an i.i.d. Gaussian channel."""
    channel, symbols, sv, sw = _common(
        n_t, n_r, n_users, block_len, qam_order,
        snr_sensing_db, snr_comm_db, epsilon, power, seed,
    )
    return Scenario(
        n_t=n_t, n_r=n_r, n_users=n_users, block_len=block_len,
        qam_order=qam_order, power=power, sigma_v_sq=sv, sigma_w_sq=sw,
        epsilon=epsilon, target=PtTarget(theta, sigma_alpha_sq),
        channel=channel, symbols=symbols,
    )


def et_scenario(n_t=4, n_r=4, n_users=2, block_len=8, qam_order=16,
                snr_sensing_db=30.0, snr_comm_db=30.0, epsilon=1e-2,
                correlation=0.5, power=1.0, seed=0):
    """Desk-scale extended-target instance with exponential correlations."""
    channel, symbols, sv, sw = _common(
        n_t, n_r, n_users, block_len, qam_order,
        snr_sensing_db, snr_comm_db, epsilon, power, seed,
    )
    target = EtTarget(
        exponential_correlation(n_r, correlation),
        exponential_correlation(n_t, correlation),
    )
    return Scenario(
        n_t=n_t, n_r=n_r, n_users=n_users, block_len=block_len,
        qam_order=qam_order, power=power, sigma_v_sq=sv, sigma_w_sq=sw,
        epsilon=epsilon, target=target, channel=channel, symbols=symbols,
    )
