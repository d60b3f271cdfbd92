"""Closed-loop execution: plan, push blocks, replan until the goal holds.

The executor plans with a short 2-step horizon, tracks the first 16 predicted
frames with 4 low-level pushes each, then replans from wherever the noisy
environment actually ended up. Compare against the open-loop baseline that
commits to its first plan:

    python3 demos/closed_loop.py 3
"""

import sys

from blockplan import (
    ExecutionConfig,
    Planner,
    PlannerConfig,
    group_by_color,
    run_episode,
    sample_initial_state,
)


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    goal = group_by_color()
    x0 = sample_initial_state(6, seed=seed)
    pcfg = PlannerConfig(beams=2, text_branch=4, video_branch=4, horizon=2, root_seed=seed)
    ecfg = ExecutionConfig(env_seed=seed)

    print(f"seed {seed}: grouping 6 blocks, budget {ecfg.total_budget} pushes")

    closed = run_episode(x0, goal, pcfg, ecfg, Planner())
    print(
        f"closed loop: reward {closed.final_reward:.0f}%, "
        f"completed={closed.completed}, {closed.steps_used} pushes, "
        f"{closed.replan_count} replans"
    )

    open_ = run_episode(x0, goal, pcfg, ecfg, Planner(), open_loop=True)
    print(
        f"open loop:   reward {open_.final_reward:.0f}%, "
        f"completed={open_.completed}, {open_.steps_used} pushes, no replanning"
    )


if __name__ == "__main__":
    main()
