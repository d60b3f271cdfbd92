"""Beam-parallel forward tree search over (action, rollout) branches.

Each planning step proposes A text actions from a beam's last frame, rolls
each D times through the dynamics model, discards rollouts whose heuristic
improvement exceeds the exploitation guard threshold, and appends the best
survivor. Every ``replace_period`` steps the worst beam is overwritten by the
best. The returned plan is the beam with the highest final heuristic.

Every draw depends only on the root seed and the indices of its work unit,
so the result is independent of evaluation order: a step's proposal is seeded
from (root seed, salt, beam, step), and its rollouts draw from one Philox
generator keyed once per plan, whose counter holds (salt, beam, step, action,
rollout).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import accumulate

import numpy as np

from .seeding import derive, rollout_streams
from .submodels import Rollout, Submodels, action_grammar, simulator_submodels
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
        # Each index of a rollout stream's counter is one uint32 word
        # (`seeding.rollout_streams`); `text_branch` is capped at the grammar
        # size before any stream is drawn.
        require(self, "<= 4294967295", "beams", "video_branch", "horizon")
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

    def plan(
        self,
        x0: WorldState,
        goal: TaskGoal,
        cfg: PlannerConfig,
        *unit: int,
        memo: dict | None = None,
    ) -> Plan:
        """Run the full H-step beam search and return the best plan. Its root
        seed is ``derive(cfg.root_seed, *unit)``: ``unit`` holds the indices of
        the caller's work unit (a run seed, an episode, a replan).

        Each step builds every beam's A x D candidates first and values all
        the new ones in one `value` call (a guard resample makes its own),
        then appends to each beam its best surviving rollout (on ties the
        first: `max` and `min` return the first extreme).

        ``memo`` lets plans share their candidate sets: a set is keyed by
        every input it depends on but its grid, ``(root, salt, b, h,
        policy_temperature, frame positions)``, and stored with the ``(A0,
        D0)`` it was built on. A request with A <= A0 and D <= D0 gets its
        sub-grid, valued, without a propose, rollout or value call (see
        `Submodels`); any other builds its own set and stores it. The guard,
        ``beams``, ``horizon`` and ``replace_period`` act only after a set is
        built, so plans that differ in them share it. A memo may be shared
        only by plans from one start state and goal on this planner:
        `harness.scaling_suite` hands the cells of one episode one memo, and
        keeps none across episodes, suite calls or CLI calls. With no memo,
        nothing is kept past the call.
        """
        sm = self.submodels
        root = derive(cfg.root_seed, *unit)
        # Propose returns at most the grammar's actions: draw no stream beyond.
        A, D = min(cfg.text_branch, len(action_grammar(x0))), cfg.video_branch
        stream = rollout_streams(derive(root, _SEED_ROLLOUT))
        events: list[dict] = []

        def candidates(todo: list[tuple[int, Plan]], h: int, salt: int) -> list[list[Rollout]]:
            """The A x D rollouts from each listed beam's last frame, whose
            value is the beam's ``final_value``. A set the memo lacks is built
            unvalued, and every rollout built for the list is then valued in
            one call. Rollout (i, j) of beam b draws from ``stream(salt, b, h,
            i, j)``."""
            sets, fresh = [], []
            for b, beam in todo:
                frame = beam.last_frame
                if memo is not None:
                    key = (root, salt, b, h, cfg.policy_temperature, frame.positions.tobytes())
                    A0, D0, stored = memo.get(key, (0, 0, None))
                    if A <= A0 and D <= D0:
                        sets.append([stored[i * D0 + j] for i in range(A) for j in range(D)])
                        continue
                actions = sm.propose(
                    frame, goal, A, cfg.policy_temperature, derive(root, salt, _SEED_PROPOSE, b, h)
                )
                rollouts = [
                    sm.rollout(frame, action, stream(salt, b, h, i, j))
                    for i, action in enumerate(actions)
                    for j in range(D)
                ]
                for r in rollouts:
                    r.start_heuristic = beam.final_value
                if memo is not None:
                    memo[key] = (A, D, rollouts)
                sets.append(rollouts)
                fresh += rollouts
            if fresh:
                for r, v in zip(fresh, sm.value([r.last for r in fresh], goal)):
                    r.end_heuristic = v
            return sets

        v0 = sm.value([x0], goal)[0]
        beams = [Plan(start=x0, final_value=v0) for _ in range(cfg.beams)]
        for h in range(1, cfg.horizon + 1):
            step = candidates(list(enumerate(beams)), h, 0)
            for b, (beam, found) in enumerate(zip(beams, step)):
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
                    (resampled,) = candidates([(b, beam)], h, _SEED_RESAMPLE)
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

