"""Queue-based Monte-Carlo localization with baseline MCL variants.

A particle filter over the joint distribution of past, present and planned
future robot states in a fixed-lag window, three reference MCL variants, an
exact discrete oracle for validation, and a seeded benchmark harness.
"""

from .filters import (
    BeliefSnapshot,
    FilterConfig,
    FilterDegeneracyError,
    InitializationError,
    QueueState,
    deq_init,
    deq_step,
    effective_sample_size,
    init_belief,
    mcl_map_motion_step,
    mcl_smoother_step,
    mcl_step,
    systematic_resample,
)
from .gridmap import MapFormatError, OccupancyGrid, Point2, load_grid
from .metrics import TrialMetrics, belief_entropy, belief_variance, error_from_mean, mean_state, trial_rmse
from .worldsim import (
    Action,
    ActionPlan,
    BeamConfig,
    DepthScan,
    NoiseParams,
    PlanError,
    Pose,
    apply_action,
    build_loop_plan,
    sense,
    step_true,
)

__version__ = "0.1.0"
