"""Energy-aware controllers for adaptive neural inference on harvesting devices.

Layout: `env` models the harvesting chain, battery, and slot/epoch kernels;
`confidence` generates and calibrates per-exit confidence data; `mdp` holds
the finite-MDP solvers and structural checks; `oracle` the confidence-aware
planner, solved by policy iteration on the empirical operator, and its
decision regions; `dqn` the from-scratch Q-network controllers; `harness`
the simulator, exit probabilities, and parameter sweeps; `cli` the command
line front end.
"""

from .env import (
    ArrivalModel,
    BatteryConfig,
    EpochConfig,
    HarvestChain,
    HarvestEnvironment,
    InfeasibleAction,
    NonErgodicChain,
    battery_step,
    energy_rate,
    epoch_kernel,
    slot_kernel,
    stationary_distribution,
    two_state_env,
)
from .confidence import (
    ConfidenceDataset,
    SyntheticSpec,
    default_spec,
    distort_calibration,
    exit_accuracy,
    generate_synthetic,
    reliability_report,
    temperature_scale,
)
from .mdp import (
    FiniteMdp,
    NotConverged,
    ValueTable,
    build_inc_iag_mdp,
    build_mms_mdp,
    check_monotone,
    check_superadditive,
    dominance_margin,
    evaluate_policy,
    policy_iteration,
    state_keys,
    value_iteration,
)
from .oracle import (
    OracleSolution,
    build_partition_matrices,
    region_of,
    solve_oracle,
)
from .dqn import (
    QNetwork,
    ReplayBuffer,
    TrainConfig,
    train,
)
from .harness import (
    FixedModeController,
    IncDqnController,
    IncTableController,
    MmsController,
    OracleController,
    OsDqnController,
    RandomFeasibleController,
    SweepGrid,
    exit_probability_matrix,
    simulate,
    sweep,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
