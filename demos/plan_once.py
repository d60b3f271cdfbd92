"""Plan once on a random block arrangement and walk through the result.

Builds a 6-block world, asks the beam search for a grouping plan, and prints
the chosen action sequence alongside the heuristic's steps-to-go estimate
after each action. Run with no arguments, or pass a seed:

    python3 demos/plan_once.py 7
"""

import sys

from blockplan import (
    Planner,
    PlannerConfig,
    group_by_color,
    heuristic,
    reward,
    sample_initial_state,
)


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    goal = group_by_color()
    x0 = sample_initial_state(6, seed=seed)

    print(f"seed {seed}: 6 blocks, goal '{goal.text}'")
    for bid, color in zip(x0.ids, x0.colors):
        x, y = x0.positions[bid]
        print(f"  {color.value}{bid} at ({x:.3f}, {y:.3f})")
    print(f"start heuristic: {heuristic([x0], goal)[0]:.0f} (0 means done)")
    print()

    cfg = PlannerConfig(beams=2, text_branch=4, video_branch=4, horizon=16, root_seed=seed)
    plan = Planner().plan(x0, goal, cfg)

    print(f"planned {len(plan.actions)} actions (beam {plan.beam_index} won):")
    for action, value in zip(plan.actions, plan.heuristic_trace):
        print(f"  {action.text(plan.start):40s} -> steps-to-go {-value:.0f}")
    final = plan.frames()[-1]
    print()
    print(f"final steps-to-go {-plan.final_value:.0f}, predicted reward {reward(final, goal):.0f}%")


if __name__ == "__main__":
    main()
