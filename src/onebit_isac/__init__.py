"""One-bit quantized MIMO ISAC toolkit: estimation-accuracy bounds,
one-bit estimators, SEP-constrained ADMM waveform optimizers, and a
reproducible benchmark CLI."""

from .array_geometry import (
    EtTarget,
    PtTarget,
    exponential_correlation,
    pt_response_operator,
    steering,
    steering_derivative,
)
from .quantization import (
    bussgang_gain,
    covariance_czz_exact,
    quantize_one_bit,
)
from .crb_metrics import (
    EtAnchor,
    PtModel,
    crb_et,
    crb_pt,
    crb_pt_infinite_resolution,
    mse_et_quantization_unaware,
)
from .estimators import MleConfig, MleGrid, TrialsSummary, run_trials
from .comm_sep import (
    SepSpec,
    build_sep_spec,
    empirical_ser,
    q_function,
    q_inverse,
    sep_constraints_satisfied,
)
from .linalg import Penalty, build_penalty
from .sep_projection import UserQpInstance, boundary_points, solve_block, solve_user_qp
from .opt_pt import SurrogateAnchor, build_anchor, pgd_step, solve_x_pt, surrogate_gradient, surrogate_value
from .opt_et import (
    EtProblem,
    EtSurrogate,
    build_et_surrogate,
    build_mbar,
    mm_update_et,
    solve_x_et,
)
from .admm import AdmmConfig, AdmmResult, AdmmTrace, admm_run, initialize
from .scenario import Scenario, et_scenario, pt_scenario

__version__ = "0.1.0"
