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

from .errors import ConfigError
from .seeding import SeedLike, derive
from .submodels import Rollout, Submodels, simulator_submodels
from .world import TaskGoal, WorldState

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
        for name in ("beams", "text_branch", "video_branch", "horizon", "replace_period"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if not self.guard_threshold > 0:
            raise ConfigError(f"guard_threshold must be > 0, got {self.guard_threshold}")
        if not self.policy_temperature >= 0:
            raise ConfigError(f"policy_temperature must be >= 0, got {self.policy_temperature}")
        if self.root_seed < 0:
            raise ConfigError(f"root_seed must be >= 0, got {self.root_seed}")


@dataclass
class PlanBeam:
    """One candidate long-horizon plan under construction; ``value`` is the
    value of its last frame."""

    start: WorldState
    segments: list[Rollout] = field(default_factory=list)
    value: float = 0.0

    @property
    def last_frame(self) -> WorldState:
        return self.segments[-1].last if self.segments else self.start

    def finish(self, beam_index: int) -> "Plan":
        """The finished plan this beam holds: its value trace is each segment's
        end heuristic, its final value the beam's value."""
        return Plan(
            start=self.start,
            segments=list(self.segments),
            heuristic_trace=[s.end_heuristic for s in self.segments],
            final_value=self.value,
            beam_index=beam_index,
        )


@dataclass
class Plan:
    """A finished plan: chained rollouts, chosen actions, and value trace."""

    start: WorldState
    segments: list[Rollout]
    heuristic_trace: list[float]
    final_value: float
    beam_index: int

    @property
    def actions(self) -> list:
        return [seg.action for seg in self.segments]

    def frames(self) -> list[WorldState]:
        """Flattened frame sequence with junction frames stored once."""
        if not self.segments:
            return [self.start]
        out = list(self.segments[0].frames)
        for seg in self.segments[1:]:
            out.extend(seg.frames[1:])
        return out


def apply_guard(rollout: Rollout, guard_threshold: float) -> bool:
    """True to keep the rollout, False to discard it.

    Discards exactly when the heuristic improvement over the rollout strictly
    exceeds the threshold; a suspiciously large jump signals the dynamics
    model teleporting or hiding blocks rather than real progress.
    """
    return (rollout.end_heuristic - rollout.start_heuristic) <= guard_threshold


def replace_beams(beams: list[PlanBeam]) -> tuple[list[PlanBeam], int, int]:
    """Overwrite the lowest-value beam with a copy of the highest-value beam.

    Ties break toward the lowest beam index. Returns (beams, src, dst);
    a single beam is returned unchanged.
    """
    src = max(range(len(beams)), key=lambda i: (beams[i].value, -i))
    dst = min(range(len(beams)), key=lambda i: (beams[i].value, i))
    if src != dst:
        beams[dst] = replace(beams[src], segments=list(beams[src].segments))
    return beams, src, dst


class Planner:
    """Tree-search planner over a pluggable submodel bundle.

    ``events`` accumulates trace records (guard discards, chosen branches,
    beam replacements) for the most recent `plan` call.
    """

    def __init__(self, submodels: Submodels | None = None):
        self.submodels = submodels if submodels is not None else simulator_submodels()
        self.events: list[dict] = []

    # -- single-step expansion -------------------------------------------

    def _candidates(
        self,
        beam: PlanBeam,
        goal: TaskGoal,
        cfg: PlannerConfig,
        root: SeedLike,
        beam_index: int,
        step_index: int,
        salt: int,
    ) -> list[Rollout]:
        """A x D rollouts from the beam's last frame, whose value is ``beam.value``."""
        sm = self.submodels
        frame = beam.last_frame
        actions = sm.propose(
            frame,
            goal,
            cfg.text_branch,
            cfg.policy_temperature,
            derive(root, salt, _SEED_PROPOSE, beam_index, step_index),
        )
        rollouts: list[Rollout] = []
        for i, action in enumerate(actions):
            for j in range(cfg.video_branch):
                r = sm.rollout(
                    frame,
                    action,
                    derive(root, salt, _SEED_ROLLOUT, beam_index, step_index, i, j),
                )
                r.start_heuristic = beam.value
                r.end_heuristic = sm.value(r.last, goal)
                rollouts.append(r)
        return rollouts

    def expand_step(
        self,
        beam: PlanBeam,
        goal: TaskGoal,
        cfg: PlannerConfig,
        step_index: int,
        beam_index: int,
        root: SeedLike,
    ) -> None:
        """Append the best surviving rollout of A x D candidates to the beam."""
        frame = beam.last_frame
        candidates = self._candidates(beam, goal, cfg, root, beam_index, step_index, 0)
        kept = [r for r in candidates if apply_guard(r, cfg.guard_threshold)]
        n_discarded = len(candidates) - len(kept)
        if n_discarded:
            self.events.append(
                {
                    "kind": "GuardDiscard",
                    "beam": beam_index,
                    "step": step_index,
                    "discarded": n_discarded,
                    "of": len(candidates),
                }
            )
        if not kept:
            # Total discard is not covered by the search rule: resample once
            # with fresh seeds, then fall back to the least-suspect candidate.
            resampled = self._candidates(
                beam, goal, cfg, root, beam_index, step_index, _SEED_RESAMPLE
            )
            kept = [r for r in resampled if apply_guard(r, cfg.guard_threshold)]
            if not kept:
                best = min(
                    range(len(resampled)),
                    key=lambda i: (
                        resampled[i].end_heuristic - resampled[i].start_heuristic,
                        i,
                    ),
                )
                kept = [resampled[best]]
        choice = max(range(len(kept)), key=lambda i: (kept[i].end_heuristic, -i))
        chosen = kept[choice]
        beam.segments.append(chosen)
        beam.value = chosen.end_heuristic
        self.events.append(
            {
                "kind": "PlanStep",
                "beam": beam_index,
                "step": step_index,
                "action": chosen.action.text(frame),
                "value": chosen.end_heuristic,
            }
        )

    # -- full search ------------------------------------------------------

    def plan(
        self,
        x0: WorldState,
        goal: TaskGoal,
        cfg: PlannerConfig,
        root_seed: SeedLike | None = None,
    ) -> Plan:
        """Run the full H-step beam search and return the best plan."""
        root = cfg.root_seed if root_seed is None else root_seed
        self.events = []
        v0 = self.submodels.value(x0, goal)
        beams = [PlanBeam(start=x0, value=v0) for _ in range(cfg.beams)]
        for h in range(1, cfg.horizon + 1):
            for b in range(cfg.beams):
                self.expand_step(beams[b], goal, cfg, h, b, root)
            if h % cfg.replace_period == 0:
                beams, src, dst = replace_beams(beams)
                if src != dst:
                    self.events.append(
                        {"kind": "BeamReplace", "step": h, "src": src, "dst": dst}
                    )
        best = max(range(cfg.beams), key=lambda i: (beams[i].value, -i))
        return beams[best].finish(best)


def greedy_chain(x0: WorldState, goal: TaskGoal, cfg: PlannerConfig) -> Plan:
    """No-search baseline: chain propose(1) -> rollout -> append with no
    selection and no guard (the "no value function" structure). With
    beams = text_branch = video_branch = 1 and a non-binding guard, `Planner.plan`
    reduces to exactly this chain."""
    sm = simulator_submodels()
    beam = PlanBeam(start=x0, value=sm.value(x0, goal))
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
        r.start_heuristic = sm.value(frame, goal)
        r.end_heuristic = sm.value(r.last, goal)
        beam.segments.append(r)
        beam.value = r.end_heuristic
    return beam.finish(0)
