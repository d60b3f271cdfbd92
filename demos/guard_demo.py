"""Why the exploitation guard exists.

The rollout model here sometimes teleports the pushed block straight to its
target (p_teleport=0.3). An unguarded search loves those rollouts: the plan's
frames claim the goal is met, but re-executing the chosen pushes in the true
environment gets nowhere near it. The guard discards any rollout whose
heuristic jumps by more than 3 steps, which physical pushing cannot produce.

    python3 demos/guard_demo.py
"""

from blockplan import (
    FaultConfig,
    Planner,
    PlannerConfig,
    group_by_color,
    is_complete,
    sample_initial_state,
    simulator_submodels,
)
from blockplan.harness import replay_plan
from blockplan.seeding import derive

N_EPISODES = 20


def evaluate(guard_threshold):
    goal = group_by_color()
    planner = Planner(simulator_submodels(faults=FaultConfig(p_teleport=0.3)))
    claimed = verified = 0
    for ep in range(N_EPISODES):
        x0 = sample_initial_state(6, derive(7, ep))
        cfg = PlannerConfig(
            beams=2, text_branch=4, video_branch=4, horizon=8,
            guard_threshold=guard_threshold,
        )
        plan = planner.plan(x0, goal, cfg, ep)
        if any(is_complete(f, goal) for f in plan.frames()):
            claimed += 1
            if replay_plan(x0, plan, goal, derive(9, ep)):
                verified += 1
    return claimed, verified


def main():
    print(f"teleporting rollout model, {N_EPISODES} grouping episodes\n")
    for label, threshold in (("guard at 3 steps", 3.0), ("guard disabled", 1e9)):
        claimed, verified = evaluate(threshold)
        print(f"{label}:")
        print(f"  plans claiming success:   {claimed}/{N_EPISODES}")
        print(f"  claims surviving replay:  {verified}/{claimed if claimed else 1}")
        print(f"  false successes:          {claimed - verified}\n")


if __name__ == "__main__":
    main()
