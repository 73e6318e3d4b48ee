"""Ground states of a weighted fourth-order Kirchhoff problem on the unit
ball of R^4, computed by Nehari-manifold minimization, with a verification
suite for every constant and inequality the construction relies on."""

from .radial import (
    RadialGrid,
    build_grid,
    log_weight,
    ball_integral,
    lebesgue_norm,
    full_sobolev_norm,
    pointwise_bound_coeff,
    random_clamped_profile,
    write_profile_csv,
    read_profile_csv,
)
from .model import (
    KirchhoffSpec,
    NonlinearitySpec,
    ModelParams,
    RangeOverflowError,
    adams_constant,
    growth_exponent,
    default_params,
    params_to_dict,
)
from .energy import (
    EnergyBreakdown,
    FiberMap,
    energy,
    fibering,
)
from .nehari import (
    ProjectionError,
    SearchConfig,
    GroundStateResult,
    AuxResult,
    BoundsReport,
    project,
    ground_state,
    aux_ground_state,
    level_bounds,
    min_admissible_cp,
    resolve_auto_cp,
    power_envelope_max,
)
from .verify import SuiteReport, check_hypotheses, run_suite

__version__ = "0.1.0"
