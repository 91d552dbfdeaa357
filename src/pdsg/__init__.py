"""Constrained stochastic optimization: sampled primal-dual solver and benchmarks."""

from .auglag import PenaltyEval, penalty, penalty_mean, primal_subgradient
from .baselines import (
    MirrorProxConfig,
    ReferenceSolution,
    full_batch_reference,
    mirror_prox_run,
    mirror_prox_step,
    zmax_from_reference,
)
from .errors import (
    AccountingError,
    BoundInfeasibleError,
    CapacityError,
    ConfigError,
    DimensionError,
    DivergenceError,
)
from .metrics import (
    KktResidual,
    Recorder,
    RunRecord,
    RunRow,
    infeasibility,
    kkt_residual,
    objective_error,
)
from .problems import (
    ProblemInstance,
    QcqpData,
    QuadraticInstance,
    TheoryConstants,
    certify_constants,
    instance_digest,
    load_instance,
    random_qcqp,
    random_scenario_lp,
    save_instance,
    scenario_count_discarding,
    scenario_count_robust,
)
from .solver import (
    ParamSchedule,
    ScheduleReport,
    SolverState,
    anytime,
    fixed_horizon,
    init_state,
    max_equal_steps,
    pdsg_step,
    project_box,
    run,
    strongly_convex,
    validate_schedule,
)
from .theory import (
    BoundInputs,
    RateEnvelope,
    dual_bound,
    dual_constant,
    rate_constant,
    rate_envelope,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
