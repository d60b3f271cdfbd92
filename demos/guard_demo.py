"""Why the exploitation guard exists.

The rollout model here sometimes teleports the pushed block straight to its
target (p_teleport=0.3). An unguarded search loves those rollouts: the plan's
frames claim the goal is met, but re-executing the chosen pushes in the true
environment gets nowhere near it. The guard discards any rollout whose
heuristic jumps by more than 3 steps, which physical pushing cannot produce.

Both arms plan on the same initial states, and `scaling_suite` scores each
plan twice: naively from its frames, and by replay in the true environment.

    python3 demos/guard_demo.py
"""

from blockplan import FaultConfig, PlannerConfig, group_by_color
from blockplan.config import RunConfig
from blockplan.harness import scaling_suite

N_EPISODES = 20


def main():
    cfg = RunConfig(
        n_blocks=6, faults=FaultConfig(p_teleport=0.3), task=group_by_color(), seeds=(7,)
    )
    arms = {"guard at 3 steps": 3.0, "guard disabled": 1e9}
    cells = [
        PlannerConfig(beams=2, text_branch=4, video_branch=4, horizon=8, guard_threshold=t)
        for t in arms.values()
    ]
    print(f"teleporting rollout model, {N_EPISODES} grouping episodes\n")
    for label, row in zip(arms, scaling_suite(cfg, cells, N_EPISODES)):
        claimed = round(row.naive_success * N_EPISODES)
        verified = round(row.replay_success * N_EPISODES)
        print(f"{label}:")
        print(f"  plans claiming success:   {claimed}/{N_EPISODES}")
        print(f"  claims surviving replay:  {verified}/{claimed if claimed else 1}")
        print(f"  false successes:          {claimed - verified}\n")


if __name__ == "__main__":
    main()
