"""Tree-search planning over model rollouts on a simulated block tabletop.

A beam search chains short model-predicted rollouts into long-horizon plans
under a steps-to-go heuristic, guarded against dynamics-model exploitation;
plans are executed closed-loop with receding-horizon replanning.
"""

from .errors import (
    BlockplanError,
    CapacityError,
    ConfigError,
    InvalidActionError,
    InvalidGoalError,
)
from .executor import (
    EpisodeResult,
    ExecutionConfig,
    Extractor,
    execute_segmentwise,
    run_episode,
)
from .harness import (
    brute_force_oracle,
    execution_suite,
    plan_accuracy_suite,
    replay_plan,
    scaling_suite,
)
from .planner import (
    Plan,
    Planner,
    PlannerConfig,
    apply_guard,
    replace_beams,
)
from .submodels import (
    AbstractAction,
    FaultConfig,
    ModelConfig,
    Rollout,
    Submodels,
    action_grammar,
    goal_policy,
    heuristic,
    inverse_dynamics,
    parse_action,
    propose_actions,
    rollout_dynamics,
    simulator_submodels,
)
from .world import (
    Color,
    ControlAction,
    Corner,
    GoalKind,
    TaskGoal,
    WorldConfig,
    WorldState,
    group_by_color,
    is_complete,
    make_line,
    move_to_area,
    reward,
    sample_initial_state,
    step_true,
)

__version__ = "0.1.0"
