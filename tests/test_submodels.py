import hashlib
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blockplan import submodels
from blockplan.errors import ConfigError, InvalidActionError, InvalidGoalError
from blockplan.seeding import rng_from
from blockplan.submodels import (
    AbstractAction,
    FaultConfig,
    ModelConfig,
    Target,
    action_grammar,
    goal_policy,
    heuristic,
    idealized_outcome,
    idealized_outcomes,
    inverse_dynamics,
    parse_action,
    propose_actions,
    rollout_dynamics,
    simulator_submodels,
    steps_needed,
)
from blockplan.world import (
    SENTINEL_POS,
    Color,
    Corner,
    WorldConfig,
    group_by_color,
    is_complete,
    make_line,
    move_to_area,
    sample_initial_state,
    step_true,
)

from helpers import EXACT_WORLD, make_state, reference_resolve

WCFG = WorldConfig()
EXACT = ModelConfig(sigma_model=0.0)


class TestGrammar:
    def test_round_trip_exact(self):
        s = sample_initial_state(6, seed=4)
        for a in action_grammar(s):
            text = a.text(s)
            back = parse_action(text, s)
            assert back == a
            assert back.text(s) == text

    def test_size_formula(self):
        # Per subject: 4 corners + center + (n-1) block targets + one centroid
        # per present color.
        for n in (2, 5, 8):
            s = sample_initial_state(n, seed=0)
            n_colors = len(set(s.colors))
            assert len(action_grammar(s)) == n * (5 + (n - 1) + n_colors)

    def test_order_deterministic(self):
        s = sample_initial_state(5, seed=2)
        a = [x.text(s) for x in action_grammar(s)]
        b = [x.text(s) for x in action_grammar(s)]
        assert a == b

    def test_one_immutable_grammar_per_ids_and_colors(self):
        s = sample_initial_state(4, seed=0)
        moved = s.with_positions(s.positions + 0.01)
        assert action_grammar(moved) is action_grammar(s)
        with pytest.raises(TypeError):
            action_grammar(s)[0] = action_grammar(s)[1]

    def test_same_ids_other_colors_other_grammar(self):
        positions = [(0.1, 0.1), (0.3, 0.2), (0.5, 0.3)]
        two_red = make_state(positions, [Color.RED, Color.RED, Color.BLUE])
        all_red = make_state(positions, [Color.RED] * 3)
        assert action_grammar(two_red) != action_grammar(all_red)
        assert len(action_grammar(two_red)) == len(action_grammar(all_red)) + 3

    def test_parse_rejects_garbage(self):
        s = sample_initial_state(3, seed=0)
        for bad in (
            "shove red0 to center",
            "push red9 to center",
            "push red0 to nowhere",
            "",
            "push red00 to center",
            "push red0 to blue01",
            "push red0 to red0",
            "push red0 to yellow_group",
        ):
            with pytest.raises(InvalidActionError):
                parse_action(bad, s)

    def test_centroid_resolves_to_peer_mean(self):
        s = make_state(
            [(0.1, 0.1), (0.3, 0.1), (0.5, 0.3)],
            colors=[Color.RED, Color.RED, Color.RED],
        )
        t = Target("color_centroid", color=Color.RED)
        resolved = t.point(s, subject=0, cfg=WCFG)
        assert np.allclose(resolved, [(0.3 + 0.5) / 2, (0.1 + 0.3) / 2])

    def test_centroid_of_a_missing_subject_rejected(self):
        # As for a block target: block 99 has no peers because it is absent.
        s = make_state([(0.1, 0.1), (0.3, 0.1)], colors=[Color.RED, Color.RED])
        with pytest.raises(InvalidActionError):
            Target("color_centroid", color=Color.RED).point(s, 99, WCFG)

    def test_centroid_of_an_absent_color_rejected(self):
        # No block is yellow, so the push has no target; it is not a
        # zero-length push of the subject onto itself.
        s = make_state([(0.1, 0.1), (0.3, 0.1)], colors=[Color.RED, Color.BLUE])
        to_yellow = AbstractAction(0, Target("color_centroid", color=Color.YELLOW))
        with pytest.raises(InvalidActionError):
            simulator_submodels().rollout(s, to_yellow, rng_from(0))

    def test_own_color_centroid_without_peers_is_the_subject(self):
        s = make_state([(0.1, 0.1), (0.3, 0.1)], colors=[Color.RED, Color.BLUE])
        resolved = Target("color_centroid", color=Color.RED).point(s, 0, WCFG)
        assert resolved == (0.1, 0.1)


class TestRollout:
    def test_frame_zero_is_input(self):
        s = sample_initial_state(4, seed=1)
        a = AbstractAction(0, Target("center"))
        r = rollout_dynamics(s, a, rng_from(0), mcfg=EXACT)
        assert r.frames[0] is s
        assert len(r.frames) == EXACT.frames_per_rollout

    def test_noise_free_constant_speed(self):
        s = make_state([(0.10, 0.175)])
        a = AbstractAction(0, Target("corner", corner=Corner.BOTTOM_RIGHT))
        r = rollout_dynamics(s, a, rng_from(0), mcfg=EXACT)
        for t in range(1, len(r.frames)):
            step = np.linalg.norm(r.frames[t].positions[0] - r.frames[t - 1].positions[0])
            assert step == pytest.approx(EXACT.v_model)

    def test_total_travel_equals_push_reach(self):
        s = make_state([(0.10, 0.175)])
        a = AbstractAction(0, Target("corner", corner=Corner.BOTTOM_RIGHT))
        r = rollout_dynamics(s, a, rng_from(0), mcfg=EXACT)
        moved = np.linalg.norm(r.last.positions[0] - s.positions[0])
        assert moved == pytest.approx(EXACT.push_reach)

    def test_non_subject_blocks_frozen(self):
        s = sample_initial_state(5, seed=7)
        a = AbstractAction(2, Target("center"))
        r = rollout_dynamics(s, a, rng_from(3))
        idx = s.index_of(2)
        others = [i for i in range(5) if i != idx]
        for f in r.frames:
            assert np.array_equal(f.positions[others], s.positions[others])

    def test_stops_at_target(self):
        s = make_state([(0.29, 0.175)])
        a = AbstractAction(0, Target("center"))
        r = rollout_dynamics(s, a, rng_from(0), mcfg=EXACT)
        assert np.allclose(r.last.positions[0], WCFG.center_point, atol=1e-12)

    def test_closed_form_matches_simulated(self):
        for seed in range(20):
            s = sample_initial_state(6, seed=seed)
            for a in action_grammar(s)[::7]:
                r = rollout_dynamics(s, a, rng_from(0), mcfg=EXACT)
                idx = s.index_of(a.subject)
                closed = idealized_outcome(s, a, WCFG, EXACT).positions[idx]
                assert np.allclose(r.last.positions[idx], closed, atol=1e-9)

    def test_seed_determinism(self):
        s = sample_initial_state(4, seed=2)
        a = AbstractAction(1, Target("corner", corner=Corner.TOP_LEFT))
        r1 = rollout_dynamics(s, a, rng_from((5, 6)))
        r2 = rollout_dynamics(s, a, rng_from((5, 6)))
        for f1, f2 in zip(r1.frames, r2.frames):
            assert np.array_equal(f1.positions, f2.positions)

    def test_teleport_jumps_to_target(self):
        s = make_state([(0.05, 0.05)])
        a = AbstractAction(0, Target("corner", corner=Corner.TOP_RIGHT))
        r = rollout_dynamics(
            s, a, rng_from(0), faults=FaultConfig(p_teleport=1.0), mcfg=EXACT
        )
        corner = WCFG.corner_xy(Corner.TOP_RIGHT)
        assert np.allclose(r.last.positions[0], corner)
        # A fault-free rollout could only cover push_reach of the distance.
        assert np.linalg.norm(corner - s.positions[0]) > 2 * EXACT.push_reach

    def test_vanish_drops_to_sentinel(self):
        s = make_state([(0.3, 0.2)])
        a = AbstractAction(0, Target("center"))
        r = rollout_dynamics(
            s, a, rng_from(0), faults=FaultConfig(p_vanish=1.0), mcfg=EXACT
        )
        assert np.array_equal(r.last.positions[0], SENTINEL_POS)

    def test_unknown_subject_rejected(self):
        s = make_state([(0.3, 0.2)])
        with pytest.raises(InvalidActionError):
            rollout_dynamics(s, AbstractAction(9, Target("center")), rng_from(0))

    def test_fault_probability_rejected(self):
        with pytest.raises(ConfigError, match=r"p_teleport must be <= 1, got 1.5"):
            FaultConfig(p_teleport=1.5)

    @pytest.mark.parametrize("faults", [FaultConfig(), FaultConfig(p_teleport=0.5, p_vanish=0.5)])
    def test_frames_are_views_of_the_array(self, faults):
        s = sample_initial_state(4, seed=2)
        for k, a in enumerate(action_grammar(s)[::3]):
            r = rollout_dynamics(s, a, rng_from((2, k)), faults)
            assert r.positions.shape == (ModelConfig().frames_per_rollout, 4, 2)
            assert not r.positions.flags.writeable
            assert r.start is s and r.frames[0] is s
            assert np.array_equal(r.positions[0], s.positions)
            for row, f in zip(r.positions[1:], r.frames[1:]):
                assert np.shares_memory(f.positions, row) and np.array_equal(f.positions, row)
            assert np.array_equal(r.last.positions, r.positions[-1])


def reference_rollout(state, action, faults, seed, wcfg=WCFG, mcfg=ModelConfig()):
    """The per-frame loop `rollout_dynamics` had before its noise was drawn in
    one call and its frames filled into one array: the positions of each
    frame, kept as the bit-exact reference of that rewrite."""
    subj = state.index_of(action.subject)
    rng = rng_from(seed)
    target = reference_resolve(action.target, state, action.subject, wcfg)
    S = mcfg.frames_per_rollout
    teleport_frame = -1
    if faults.p_teleport > 0 and rng.random() < faults.p_teleport:
        teleport_frame = int(rng.integers(1, S))
    vanish_frame = -1
    vanish_idx = -1
    if faults.p_vanish > 0 and rng.random() < faults.p_vanish:
        vanish_frame = int(rng.integers(1, S))
        vanish_idx = int(rng.integers(0, state.n_blocks))
    frames = [state.positions.copy()]
    pos = state.positions.copy()
    for t in range(1, S):
        if t == teleport_frame:
            pos[subj] = target
        else:
            delta = target - pos[subj]
            d = float(np.sqrt(np.add.reduce(delta * delta)))
            if d > mcfg.v_model:
                delta = delta / d * mcfg.v_model
            step = delta
            if mcfg.sigma_model > 0:
                step = step + rng.normal(0.0, mcfg.sigma_model, 2)
            pos[subj] = np.clip(pos[subj] + step, 0.0, wcfg.board)
        if 0 < vanish_frame <= t:
            pos[vanish_idx] = SENTINEL_POS
        frames.append(pos.copy())
    return frames, vanish_idx == subj


class TestRolloutParity:
    FAULTS = [
        FaultConfig(),
        FaultConfig(p_teleport=1.0),
        FaultConfig(p_vanish=1.0),
        FaultConfig(p_teleport=0.5, p_vanish=0.5),
    ]

    @pytest.mark.parametrize("faults", FAULTS, ids=["off", "teleport", "vanish", "both"])
    @pytest.mark.parametrize("sigma", [0.0, ModelConfig().sigma_model])
    @pytest.mark.parametrize("frames", [2, 16])
    def test_every_frame_bit_equal_to_the_reference(self, faults, sigma, frames):
        mcfg = ModelConfig(sigma_model=sigma, frames_per_rollout=frames)
        subject_vanished = 0
        for seed in range(8):
            for n in (1, 3, 6):
                s = sample_initial_state(n, seed=seed)
                for k, a in enumerate(action_grammar(s)[::4]):
                    r = rollout_dynamics(s, a, rng_from((seed, k)), faults, WCFG, mcfg)
                    ref, vanished = reference_rollout(s, a, faults, (seed, k), WCFG, mcfg)
                    assert len(r.frames) == len(ref)
                    for f, expected in zip(r.frames, ref):
                        assert f.positions.tobytes() == expected.tobytes()
                    subject_vanished += vanished
        # A lone block is the only block a vanish can pick: the subject.
        assert subject_vanished > 0 or faults.p_vanish == 0.0

    def test_frames_are_read_only(self):
        s = sample_initial_state(4, seed=1)
        r = rollout_dynamics(s, action_grammar(s)[5], rng_from(0))
        with pytest.raises(ValueError):
            r.frames[1].positions[0, 0] = 0.5
        assert r.frames[0] is s and s.positions.flags.writeable


W, H = WCFG.board


def coordinate(top):
    """A coordinate on the board, often exactly on one of the clamp's edges."""
    return st.one_of(st.sampled_from([0.0, -0.0, top]), st.floats(0.0, top))


@st.composite
def rollout_inputs(draw):
    """A state of 1-8 blocks, maybe one block lost at the sentinel as the
    subject or the target, and an action."""
    n = draw(st.integers(1, 8))
    s = make_state([(draw(coordinate(W)), draw(coordinate(H))) for _ in range(n)])
    lost = draw(st.sampled_from(["none", "subject", "target"] if n > 1 else ["none", "subject"]))
    grammar = action_grammar(s)
    if lost == "none":
        return s, draw(st.sampled_from(grammar))
    k = draw(st.integers(0, n - 1))
    s = s.with_positions(np.where(np.arange(n)[:, None] == k, SENTINEL_POS, s.positions))
    if lost == "subject":
        return s, draw(st.sampled_from([a for a in grammar if a.subject == k]))
    return s, draw(st.sampled_from([a for a in grammar if a.target.block == k]))


class TestRolloutProperty:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(
        rollout_inputs(),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from([0.0, 0.5, 1.0]),
        st.sampled_from([0.0, ModelConfig().sigma_model, 0.05]),
        st.integers(2, 16),
        st.integers(0, 2**32 - 1),
    )
    def test_every_frame_bit_equal_to_the_reference(
        self, inputs, p_teleport, p_vanish, sigma, frames, seed
    ):
        """Both clamps bind (large noise, edge coordinates, lost blocks), and
        `reference_rollout`'s np.clip and array norm check them."""
        s, a = inputs
        faults = FaultConfig(p_teleport=p_teleport, p_vanish=p_vanish)
        mcfg = ModelConfig(sigma_model=sigma, frames_per_rollout=frames)
        r = rollout_dynamics(s, a, rng_from(seed), faults, WCFG, mcfg)
        ref, _ = reference_rollout(s, a, faults, seed, WCFG, mcfg)
        assert len(r.positions) == len(ref)
        for got, want in zip(r.positions, ref):
            assert got.tobytes() == want.tobytes()


def norm_panel_digest():
    """sha256 of a fixed panel of distances at work: the `idealized_outcomes`
    stack of 40 states of 1-6 blocks and the rollout array of every fourth
    grammar action of each, with both faults possible."""
    faults = FaultConfig(p_teleport=0.3, p_vanish=0.3)
    h = hashlib.sha256()
    for seed in range(40):
        s = sample_initial_state(1 + seed % 6, seed)
        h.update(idealized_outcomes(s).tobytes())
        for k, a in enumerate(action_grammar(s)[::4]):
            h.update(rollout_dynamics(s, a, rng_from((seed, k)), faults).positions.tobytes())
    return h.hexdigest()


class TestNormContract:
    """The platform contract of the README's determinism paragraph: no
    distance goes through BLAS, so rollouts and proposal outcomes are the
    same bits whichever CPU kernel OpenBLAS runs. Its Haswell (AVX2) and
    Prescott (SSE3) kernels round a 2-vector's ``ddot`` differently from its
    AVX-512 ones, so a BLAS norm fails this on an AVX-512 machine."""

    @pytest.mark.parametrize("coretype", ["Haswell", "Prescott"])
    def test_panel_is_the_same_under_another_blas_kernel(self, coretype):
        tests = Path(__file__).resolve().parent
        path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_CORETYPE": coretype}
        code = "from test_submodels import norm_panel_digest; print(norm_panel_digest())"
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == norm_panel_digest()


class TestHeuristic:
    def test_zero_iff_complete(self):
        done = make_state([(0.1, 0.1), (0.13, 0.1)], colors=[Color.RED, Color.RED])
        assert heuristic([done], group_by_color())[0] == 0.0
        assert is_complete(done, group_by_color())

    def test_hand_solved_three_steps(self):
        # Block at x=0.0: distance to the centre line band is
        # |0.0 - 0.3| - 0.05 = 0.25, so ceil(0.25 / 0.1) = 3 actions.
        s = make_state([(0.0, 0.1), (0.3, 0.2)])
        assert heuristic([s], make_line())[0] == -3.0

    def test_exact_multiple_no_extra_step(self):
        # Distance exactly 0.2 must cost 2 steps, not 3.
        s = make_state([(0.05, 0.1), (0.3, 0.2)])
        assert heuristic([s], make_line())[0] == -2.0

    def test_nonpositive_everywhere(self):
        for seed in range(200):
            s = sample_initial_state(6, seed=seed)
            for goal in (move_to_area(Corner.TOP_LEFT), group_by_color(), make_line()):
                v = heuristic([s], goal)[0]
                assert v <= 0.0
                assert v == math.floor(v)
                assert (v == 0.0) == is_complete(s, goal)

    def test_monotone_under_approach(self):
        # Moving the lone unsatisfied block straight at its region can only
        # raise (or keep) the heuristic for the single-block area goal.
        goal = move_to_area(Corner.BOTTOM_LEFT)
        for seed in range(50):
            rng = np.random.default_rng(seed)
            p = rng.uniform([0.3, 0.15], [0.6, 0.35])
            s = make_state([p])
            prev = heuristic([s], goal)[0]
            while not is_complete(s, goal):
                direction = np.array([0.0, 0.0]) - s.positions[0]
                direction = direction / np.linalg.norm(direction)
                s = s.with_positions(s.positions + direction * 0.02)
                cur = heuristic([s], goal)[0]
                assert cur >= prev
                prev = cur

    def test_sentinel_block_counts(self):
        s = make_state([SENTINEL_POS, (0.3, 0.2)])
        v = heuristic([s], make_line())[0]
        # The vanished block projects onto the board edge and still owes steps.
        assert v < 0.0

    def test_steps_needed_edges(self):
        assert steps_needed(0.0, 0.1) == 0
        assert steps_needed(1e-12, 0.1) == 0
        assert steps_needed(0.1, 0.1) == 1
        assert steps_needed(0.1 + 1e-6, 0.1) == 2
        assert steps_needed(0.25, 0.1) == 3
        # A distance past the tolerance costs a step even when the reach is
        # longer than 1, so a heuristic of 0 still means complete.
        assert steps_needed(2e-9, 2.0) == 1


class TestControllers:
    def test_goal_policy_fixed_point(self):
        s = sample_initial_state(4, seed=0)
        u = goal_policy(s, s)
        assert u.displacement == (0.0, 0.0)

    def test_goal_policy_clips_to_u_max(self):
        s = make_state([(0.2, 0.2)])
        g = make_state([(0.3, 0.2)])
        u = goal_policy(s, g)
        assert u.target_block == 0
        assert u.displacement == pytest.approx((WCFG.u_max, 0.0))

    def test_goal_policy_picks_largest_discrepancy(self):
        s = make_state([(0.2, 0.2), (0.4, 0.2)])
        g = make_state([(0.22, 0.2), (0.45, 0.2)])
        u = goal_policy(s, g)
        assert u.target_block == 1

    def test_goal_policy_ignores_sentinel(self):
        s = make_state([(0.2, 0.2), (0.4, 0.2)])
        g = make_state([SENTINEL_POS, (0.42, 0.2)])
        u = goal_policy(s, g)
        assert u.target_block == 1

    def test_goal_policy_id_mismatch(self):
        a = sample_initial_state(3, seed=0)
        b = sample_initial_state(4, seed=0)
        with pytest.raises(InvalidGoalError):
            goal_policy(a, b)

    def test_goal_policy_converges(self):
        from blockplan.world import ControlAction, step_true

        cfg = WorldConfig(sigma_env=0.0)
        s = make_state([(0.1, 0.1)])
        g = make_state([(0.22, 0.1)])
        budget = math.ceil(0.12 / cfg.u_max)
        for t in range(budget):
            u = goal_policy(s, g, cfg)
            s = step_true(s, u, rng_from(t), cfg=cfg)
        assert np.allclose(s.positions, g.positions, atol=1e-9)

    def test_simulator_controller_is_goal_policy_within_reach(self):
        controller = simulator_submodels().controller
        reach = ModelConfig().controller_reach
        assert reach == pytest.approx(ModelConfig().push_reach / 2)
        s = make_state([(0.2, 0.2), (0.4, 0.2)])
        for dx in (0.0, 0.01, 0.03, reach):
            g = make_state([(0.2, 0.2), (0.4 + dx, 0.2)])
            assert controller(s, g) == goal_policy(s, g)

    def test_simulator_controller_abstains_beyond_reach(self):
        controller = simulator_submodels().controller
        reach = ModelConfig().controller_reach
        s = make_state([(0.2, 0.2), (0.4, 0.2)])
        g = make_state([(0.2, 0.2), (0.4 + reach + 1e-6, 0.2)])
        assert controller(s, g) is None
        # A goal frame whose far block sits at the sentinel is not out of reach.
        g = make_state([SENTINEL_POS, (0.42, 0.2)])
        assert controller(s, g) == goal_policy(s, g)

    def test_simulator_controller_measures_once_through_the_module_global(self):
        """One control builds the frames' discrepancies once, and still calls
        the `goal_policy` a caller finds in `blockplan.submodels`."""
        controller = simulator_submodels().controller
        s = make_state([(0.2, 0.2), (0.4, 0.2)])
        g = make_state([(0.2, 0.2), (0.43, 0.21)])
        with (
            mock.patch.object(
                submodels, "_goal_discrepancies", wraps=submodels._goal_discrepancies
            ) as measure,
            mock.patch.object(submodels, "goal_policy", wraps=goal_policy) as policy,
        ):
            u = controller(s, g)
        assert measure.call_count == 1 and policy.call_count == 1
        assert u == goal_policy(s, g)

    def test_inverse_dynamics_exact_small_delta(self):
        a = make_state([(0.2, 0.2)])
        b = make_state([(0.21, 0.19)])
        u = inverse_dynamics(a, b)
        assert u.displacement == pytest.approx((0.01, -0.01))

    def test_inverse_dynamics_clips(self):
        a = make_state([(0.2, 0.2)])
        b = make_state([(0.3, 0.2)])
        u = inverse_dynamics(a, b)
        assert np.linalg.norm(u.displacement) == pytest.approx(WCFG.u_max)

    def test_inverse_dynamics_skips_a_vanished_block(self):
        # Block 1 drops to the sentinel, a push far longer than block 2's.
        a = make_state([(0.2, 0.2), (0.4, 0.2), (0.3, 0.1)])
        b = make_state([(0.2, 0.2), SENTINEL_POS, (0.31, 0.1)])
        u = inverse_dynamics(a, b)
        assert u.target_block == 2
        assert u.displacement == pytest.approx((0.01, 0.0))
        # Back out of the sentinel is no move either.
        assert inverse_dynamics(b, a).target_block == 2

    @pytest.mark.parametrize(
        "after",
        [[SENTINEL_POS, SENTINEL_POS], [SENTINEL_POS, (0.4, 0.2)]],
        ids=["all_vanished", "vanished_or_unmoved"],
    )
    def test_inverse_dynamics_with_nothing_moved_is_zero(self, after):
        a = make_state([(0.2, 0.2), (0.4, 0.2)])
        u = inverse_dynamics(a, make_state(after))
        assert u.displacement == (0.0, 0.0)
        assert np.array_equal(step_true(a, u, rng_from(0), cfg=EXACT_WORLD).positions, a.positions)


class TestProposals:
    def test_zero_temperature_targets_worst_block(self):
        # One block far off the line, the rest already satisfied: the best
        # scored action must push that block.
        s = make_state([(0.58, 0.2), (0.3, 0.1), (0.28, 0.3)])
        top = propose_actions(s, make_line(), A=1, temperature=0.0, seed=0)
        assert top[0].subject == 0

    def test_zero_temperature_deterministic_and_sorted(self):
        s = sample_initial_state(5, seed=3)
        goal = group_by_color()
        a = propose_actions(s, goal, A=6, temperature=0.0, seed=1)
        b = propose_actions(s, goal, A=6, temperature=0.0, seed=99)
        assert a == b
        scores = [heuristic([idealized_outcome(s, x)], goal)[0] for x in a]
        assert scores == sorted(scores, reverse=True)

    def test_distinct_actions(self):
        s = sample_initial_state(4, seed=5)
        for temp in (0.0, 0.3, 2.0):
            acts = propose_actions(s, make_line(), A=8, temperature=temp, seed=7)
            assert len(set(acts)) == len(acts) == 8

    def test_nested_in_branch_count(self):
        # The first k proposals of a larger request equal the k-request.
        s = sample_initial_state(5, seed=8)
        goal = group_by_color()
        for temp in (0.0, 0.3):
            small = propose_actions(s, goal, A=3, temperature=temp, seed=11)
            big = propose_actions(s, goal, A=9, temperature=temp, seed=11)
            assert big[:3] == small

    def test_request_larger_than_grammar(self):
        s = make_state([(0.1, 0.1), (0.5, 0.3)])
        grammar = action_grammar(s)
        acts = propose_actions(s, make_line(), A=1000, temperature=0.3, seed=0)
        assert sorted(a.text(s) for a in acts) == sorted(a.text(s) for a in grammar)

    def test_positive_temperature_covers_grammar(self):
        # At high temperature every grammar action should eventually appear.
        s = make_state([(0.1, 0.1), (0.5, 0.3)])
        grammar = {a.text(s) for a in action_grammar(s)}
        seen = set()
        for seed in range(400):
            a = propose_actions(s, make_line(), A=1, temperature=5.0, seed=seed)[0]
            seen.add(a.text(s))
            if seen == grammar:
                break
        assert seen == grammar

    def test_invalid_args(self):
        s = sample_initial_state(3, seed=0)
        with pytest.raises(ValueError):
            propose_actions(s, make_line(), A=0, temperature=0.3, seed=0)
        with pytest.raises(ValueError):
            propose_actions(s, make_line(), A=2, temperature=-1.0, seed=0)

    def test_subnormal_temperature_raises_no_warning(self):
        # The score gaps overflow to -inf at 5e-324: those actions weigh 0.
        s = sample_initial_state(4, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            acts = propose_actions(s, make_line(), A=4, temperature=5e-324, seed=0)
        assert len(set(acts)) == len(acts) == 4
        assert set(acts) <= set(action_grammar(s))

    def test_nan_temperature_rejected(self):
        s = sample_initial_state(3, seed=0)
        with pytest.raises(ValueError, match="temperature must be >= 0"):
            propose_actions(s, make_line(), A=2, temperature=float("nan"), seed=0)


class TestSimulatorBundle:
    def test_roles_are_the_module_functions_with_configs_bound(self):
        # Non-default configs of all three kinds: a narrower board, a shorter
        # reach over more frames, and rollouts that teleport and vanish. Each
        # role also differs from the default bundle's at least once, so a
        # config left unbound would show.
        wcfg = WorldConfig(width=0.5)
        mcfg = ModelConfig(push_reach=0.08, frames_per_rollout=9, sigma_model=0.01)
        faults = FaultConfig(p_teleport=0.5, p_vanish=0.5)
        sm, default = simulator_submodels(wcfg, mcfg, faults), simulator_submodels()
        goal = group_by_color()
        differs = {"propose": False, "rollout": False, "value": False}
        for seed in range(4):
            s = sample_initial_state(5, seed, wcfg)
            actions = sm.propose(s, goal, 6, 0.3, seed)
            assert actions == propose_actions(s, goal, 6, 0.3, seed, wcfg, mcfg)
            differs["propose"] |= actions != default.propose(s, goal, 6, 0.3, seed)
            for i, action in enumerate(actions):
                got = sm.rollout(s, action, rng_from((seed, i))).positions.tobytes()
                want = rollout_dynamics(s, action, rng_from((seed, i)), faults, wcfg, mcfg)
                assert got == want.positions.tobytes()
                other = default.rollout(s, action, rng_from((seed, i))).positions.tobytes()
                differs["rollout"] |= got != other
                frames = want.frames
                got = np.array(sm.value(frames, goal)).tobytes()
                assert got == np.array(heuristic(frames, goal, wcfg, mcfg)).tobytes()
                differs["value"] |= got != np.array(default.value(frames, goal)).tobytes()
        assert all(differs.values())
