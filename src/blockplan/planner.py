"""Beam-parallel forward tree search over (action, rollout) branches.

Each planning step proposes A text actions from a beam's last frame, rolls
each D times through the dynamics model, discards rollouts whose heuristic
improvement exceeds the exploitation guard threshold, and appends the best
survivor. Every ``replace_period`` steps the worst beam is overwritten by the
best. The returned plan is the beam with the highest final heuristic.

All branch seeds are derived from (root seed, beam, step, branch indices), so
the result is independent of evaluation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .seeding import derive
from .submodels import Rollout, Submodels, simulator_submodels
from .tracing import round9
from .world import TaskGoal, WorldState, require

# Seed-stream salts, one per kind of draw.
_SEED_PROPOSE = 1
_SEED_ROLLOUT = 2
_SEED_RESAMPLE = 3


@dataclass(frozen=True)
class PlannerConfig:
    beams: int = 2
    text_branch: int = 4
    video_branch: int = 4
    horizon: int = 16
    guard_threshold: float = 3.0
    replace_period: int = 5
    policy_temperature: float = 0.3
    root_seed: int = 0

    def __post_init__(self):
        require(self, ">= 1", "beams", "text_branch", "video_branch", "horizon", "replace_period")
        require(self, "> 0", "guard_threshold")
        require(self, ">= 0", "policy_temperature", "root_seed")


@dataclass
class Plan:
    """A long-horizon plan: rollouts chained from ``start``. Each beam of the
    search is a plan; ``final_value`` is the value of its last frame and
    ``beam_index`` the index of the beam the search returned."""

    start: WorldState
    segments: list[Rollout] = field(default_factory=list)
    final_value: float = 0.0
    beam_index: int = 0

    @property
    def last_frame(self) -> WorldState:
        return self.segments[-1].last if self.segments else self.start

    @property
    def actions(self) -> list:
        return [seg.action for seg in self.segments]

    @property
    def heuristic_trace(self) -> list[float]:
        return [s.end_heuristic for s in self.segments]

    def frames(self) -> list[WorldState]:
        """Flattened frame sequence with junction frames stored once."""
        return [self.start, *(f for seg in self.segments for f in seg.frames[1:])]

    def positions(self) -> np.ndarray:
        """The positions of `frames` as one ``(F, n, 2)`` stack, built from
        the segments' arrays without their frame states."""
        tails = (seg.positions[1:] for seg in self.segments)
        return np.concatenate([self.start.positions[None], *tails])

    def segment_ends(self) -> list[int]:
        """Index in `frames` of each segment's last frame."""
        return list(accumulate(len(seg.frames) - 1 for seg in self.segments))


def apply_guard(rollout: Rollout, guard_threshold: float) -> bool:
    """True to keep the rollout, False to discard it.

    Discards exactly when the heuristic improvement over the rollout strictly
    exceeds the threshold; a suspiciously large jump signals the dynamics
    model teleporting or hiding blocks rather than real progress.
    """
    return (rollout.end_heuristic - rollout.start_heuristic) <= guard_threshold


def replace_beams(beams: list[Plan]) -> tuple[list[Plan], int, int]:
    """Overwrite the lowest-value beam with a copy of the highest-value beam.

    Ties break toward the lowest beam index. Returns (beams, src, dst);
    a single beam is returned unchanged.
    """
    src = max(range(len(beams)), key=lambda i: beams[i].final_value)
    dst = min(range(len(beams)), key=lambda i: beams[i].final_value)
    if src != dst:
        beams[dst] = replace(beams[src], segments=list(beams[src].segments))
    return beams, src, dst


class Planner:
    """Tree-search planner over a pluggable submodel bundle.

    ``events`` holds the trace records (guard discards and fallbacks, chosen
    branches, beam replacements) of the most recent `plan` call.
    """

    def __init__(self, submodels: Submodels | None = None):
        self.submodels = submodels if submodels is not None else simulator_submodels()
        self.events: list[dict] = []

    def plan(self, x0: WorldState, goal: TaskGoal, cfg: PlannerConfig, *unit: int) -> Plan:
        """Run the full H-step beam search and return the best plan. Its root
        seed is ``derive(cfg.root_seed, *unit)``: ``unit`` holds the indices of
        the caller's work unit (a run seed, an episode, a replan).

        Each step appends to each beam the best surviving rollout of its
        A x D candidates (on ties the first: `max` and `min` return the first
        extreme).
        """
        sm = self.submodels
        root = derive(cfg.root_seed, *unit)
        events: list[dict] = []

        def candidates(beam: Plan, b: int, h: int, salt: int) -> list[Rollout]:
            """A x D rollouts from the beam's last frame, whose value is
            ``final_value``, valued in one call once all are made."""
            frame = beam.last_frame
            actions = sm.propose(
                frame,
                goal,
                cfg.text_branch,
                cfg.policy_temperature,
                derive(root, salt, _SEED_PROPOSE, b, h),
            )
            rollouts = [
                sm.rollout(frame, action, derive(root, salt, _SEED_ROLLOUT, b, h, i, j))
                for i, action in enumerate(actions)
                for j in range(cfg.video_branch)
            ]
            for r, v in zip(rollouts, sm.value([r.last for r in rollouts], goal)):
                r.start_heuristic = beam.final_value
                r.end_heuristic = v
            return rollouts

        v0 = sm.value([x0], goal)[0]
        beams = [Plan(start=x0, final_value=v0) for _ in range(cfg.beams)]
        for h in range(1, cfg.horizon + 1):
            for b, beam in enumerate(beams):
                found = candidates(beam, b, h, 0)
                kept = [r for r in found if apply_guard(r, cfg.guard_threshold)]
                if len(kept) < len(found):
                    events.append(
                        {
                            "kind": "GuardDiscard",
                            "beam": b,
                            "step": h,
                            "discarded": len(found) - len(kept),
                            "of": len(found),
                        }
                    )
                if not kept:
                    # Total discard is not covered by the search rule: resample once
                    # with fresh seeds, then fall back to the least-suspect candidate.
                    resampled = candidates(beam, b, h, _SEED_RESAMPLE)
                    kept = [r for r in resampled if apply_guard(r, cfg.guard_threshold)]
                    if not kept:
                        kept = [min(resampled, key=lambda r: r.end_heuristic - r.start_heuristic)]
                        gain = round9(kept[0].end_heuristic - kept[0].start_heuristic)
                        events.append(
                            {"kind": "GuardFallback", "beam": b, "step": h, "improvement": gain}
                        )
                chosen = max(kept, key=lambda r: r.end_heuristic)
                events.append(
                    {
                        "kind": "PlanStep",
                        "beam": b,
                        "step": h,
                        "action": chosen.action.text(beam.last_frame),
                        "value": round9(chosen.end_heuristic),
                    }
                )
                beam.segments.append(chosen)
                beam.final_value = chosen.end_heuristic
            if h % cfg.replace_period == 0:
                beams, src, dst = replace_beams(beams)
                if src != dst:
                    events.append({"kind": "BeamReplace", "step": h, "src": src, "dst": dst})
        self.events = events
        best = max(range(cfg.beams), key=lambda i: beams[i].final_value)
        return replace(beams[best], beam_index=best)


def greedy_chain(sm: Submodels, x0: WorldState, goal: TaskGoal, cfg: PlannerConfig) -> Plan:
    """No-search baseline over the bundle ``sm``: chain propose(1) -> rollout
    -> append with no selection and no guard (the "no value function"
    structure). With beams = text_branch = video_branch = 1 and a non-binding
    guard, ``Planner(sm).plan`` reduces to exactly this chain."""
    beam = Plan(start=x0, final_value=sm.value([x0], goal)[0])
    for h in range(1, cfg.horizon + 1):
        frame = beam.last_frame
        action = sm.propose(
            frame,
            goal,
            1,
            cfg.policy_temperature,
            derive(cfg.root_seed, 0, _SEED_PROPOSE, 0, h),
        )[0]
        r = sm.rollout(frame, action, derive(cfg.root_seed, 0, _SEED_ROLLOUT, 0, h, 0, 0))
        r.start_heuristic = beam.final_value
        [r.end_heuristic] = sm.value([r.last], goal)
        beam.segments.append(r)
        beam.final_value = r.end_heuristic
    return beam
