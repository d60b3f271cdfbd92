import json
import os
from unittest import mock

import pytest

from blockplan import cli
from blockplan.cli import main
from blockplan.config import RunConfig, config_to_dict
from blockplan.planner import Planner
from blockplan.seeding import derive
from blockplan.tracing import digest, read_trace, state_from_dict
from blockplan.submodels import parse_action
from blockplan.world import WorldConfig, sample_initial_state


@pytest.fixture
def outdir(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("BLOCKPLAN_OUT", str(out))
    return out


def run(args):
    return main(args)


def assert_config_error(capsys):
    """The run ended on one ``error:`` line on stderr, not a traceback."""
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err


def _leaves(node, prefix=""):
    for key, value in node.items():
        if isinstance(value, dict):
            yield from _leaves(value, f"{prefix}{key}.")
        else:
            yield prefix + key, value


def _wrong_typed_overrides():
    """(path, ``--set`` value) pairs whose value has the wrong type for the field."""
    for path, default in _leaves(config_to_dict(RunConfig())):
        enum_or_str = default is None or isinstance(default, str)
        values = ["5" if enum_or_str else "abc", "{}", "[1]", "null"]
        if default is None:
            values.remove("null")  # task.corner is optional
        if isinstance(default, tuple):
            values[2] = '["abc"]'  # [1] is a valid seed list
        for value in values:
            yield pytest.param(path, value, id=f"{path}={value}")


# Files that Python's JSON decoder refuses with something other than a decode
# error.
TOO_LONG_INT = "1" * 5001
UNDECODABLE = [
    pytest.param(TOO_LONG_INT.encode(), id="int_of_5001_digits"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, id="nested_100000_deep"),
    pytest.param(b"\xff\xfe{}", id="not_utf8"),
]


# One value just outside each range-checked world and model field, some
# planner and execution fields, and integers too large for a float field.
OUT_OF_RANGE = [
    *(f"world.{name}={v}" for name in ("width", "height", "block_radius", "u_max") for v in (0, -1)),
    *(
        f"world.{name}=-0.1"
        for name in ("sigma_env", "group_dist", "area_dx", "area_dy", "line_dist")
    ),
    "world.collision_iters=0",
    "model.push_reach=0",
    "model.push_reach=-0.1",
    "model.sigma_model=-0.1",
    "model.goal_eps=-0.1",
    "model.frames_per_rollout=0",
    "model.frames_per_rollout=1",
    "faults.p_teleport=1.5",
    "faults.p_vanish=-0.1",
    "faults.p_vanish=NaN",
    "seeds=[-1]",
    "planner.root_seed=-1",
    "execution.env_seed=-1",
    "planner.policy_temperature=NaN",
    "world.width=Infinity",
    "world.height=Infinity",
    "model.push_reach=Infinity",
    "world.sigma_env=Infinity",
    "planner.guard_threshold=Infinity",
    "planner.policy_temperature=Infinity",
    "planner.beams=0",
    # Each index of a rollout stream's counter is one uint32 word.
    "planner.beams=5000000000",
    "planner.video_branch=5000000000",
    "planner.horizon=5000000000",
    "planner.guard_threshold=0",
    "execution.total_budget=0",
    "n_blocks=0",
    pytest.param("world.width=1" + "0" * 200, id="world.width=int_10**200"),
    pytest.param("world.u_max=1" + "0" * 400, id="world.u_max=int_10**400"),
    pytest.param("model.sigma_model=1" + "0" * 400, id="model.sigma_model=int_10**400"),
]


# Command lines that argparse itself refuses.
USAGE_ERRORS = [
    pytest.param(["oracle", "--horizon", "0", "--set", "-=null"], id="set_starts_with_dash"),
    pytest.param(["ablate", "--cells", "-1,1,1", "--episodes", "1"], id="cells_start_with_dash"),
    pytest.param(["plan", "--seed", "x"], id="seed_not_int"),
    pytest.param(["nope"], id="no_such_command"),
    pytest.param([], id="no_command"),
]


class TestConfigBoundary:
    @pytest.mark.parametrize(
        "path,value",
        [
            *_wrong_typed_overrides(),
            # Left a bare string, which the type check rejects.
            pytest.param("n_blocks", TOO_LONG_INT, id="n_blocks=int_of_5001_digits"),
            pytest.param("n_blocks", "[" * 100_000, id="n_blocks=nested_100000_deep"),
        ],
    )
    def test_wrong_typed_value_exit_two(self, outdir, capsys, path, value):
        assert run(["plan", "--set", f"{path}={value}"]) == 2
        assert_config_error(capsys)

    def test_move_to_area_without_corner_exit_two(self, outdir, capsys):
        assert run(["plan", "--set", "task.kind=move_to_area"]) == 2
        assert_config_error(capsys)

    def test_non_numeric_cells_exit_two(self, outdir, capsys):
        assert run(["ablate", "--cells", "a,b,c", "--episodes", "1"]) == 2
        assert_config_error(capsys)

    def test_zero_episodes_exit_two(self, outdir, capsys):
        assert run(["ablate", "--episodes", "0"]) == 2
        assert_config_error(capsys)

    @pytest.mark.parametrize("argv", USAGE_ERRORS)
    def test_usage_error_exit_two(self, outdir, capsys, argv):
        assert run(argv) == 2
        assert_config_error(capsys)

    def test_negative_oracle_horizon_exit_two(self, outdir, capsys):
        assert run(["oracle", "--horizon", "-1", "--set", "n_blocks=2"]) == 2
        assert_config_error(capsys)

    @pytest.mark.parametrize("override", OUT_OF_RANGE)
    def test_out_of_range_value_exit_two(self, outdir, capsys, override):
        assert run(["plan", "--set", override]) == 2
        assert_config_error(capsys)

    def test_lowest_in_range_values_run(self, outdir):
        overrides = [
            "world.collision_iters=1",
            "world.sigma_env=0",
            "world.group_dist=0",
            "world.area_dx=0",
            "world.area_dy=0",
            "world.line_dist=0",
            "model.frames_per_rollout=2",
            "model.sigma_model=0",
            "model.goal_eps=0",
            "planner.horizon=1",
            "n_blocks=6",
        ]
        assert run(["plan", *(a for o in overrides for a in ("--set", o))]) == 0
        assert len(read_trace(str(outdir / "plan_0.jsonl"))[-1]["plan"]["actions"]) == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            ["n_blocks=1", "world.width=10", "world.block_radius=0.2"],  # taller than the board
            ["n_blocks=2", "task.kind=make_line", "model.push_reach=1e-320"],
            ["n_blocks=2", "task.kind=make_line", "world.width=1e308"],
        ],
    )
    def test_board_too_narrow_or_too_large_to_measure_exit_two(self, outdir, capsys, overrides):
        sets = [a for o in overrides for a in ("--set", o)]
        assert run(["oracle", "--horizon", "0", *sets]) == 2
        assert_config_error(capsys)

    def test_u_max_too_small_for_replay_exit_two(self, outdir, capsys):
        # A replayed action would get ceil(push_reach / u_max) = ceil(inf) controls.
        argv = ["ablate", "--episodes", "1", "--cells", "1,1,1,1", "--set", "world.u_max=1e-320"]
        assert run(argv) == 2
        assert_config_error(capsys)

    def test_radius_too_large_to_square_exit_two(self, outdir, capsys):
        overrides = ["n_blocks=3", "planner.horizon=1", "world.block_radius=1e300"]
        assert run(["plan", *(a for o in overrides for a in ("--set", o))]) == 2
        assert_config_error(capsys)

    def test_allocation_past_any_address_space_exit_two(self, outdir, capsys):
        # A rollout's noise would take 14 PiB, more than any 64-bit user
        # address space: refused at once, whatever the overcommit setting.
        # Six blocks, so that the start is not complete and a rollout is made.
        overrides = ["n_blocks=6", "model.frames_per_rollout=1000000000000000"]
        assert run(["plan", *(a for o in overrides for a in ("--set", o))]) == 2
        assert_config_error(capsys)

    def test_directory_as_config_exit_two(self, outdir, capsys, tmp_path):
        assert run(["plan", "--config", str(tmp_path)]) == 2
        assert_config_error(capsys)

    def test_directory_as_trace_exit_two(self, outdir, capsys, tmp_path):
        assert run(["replay", str(tmp_path)]) == 2
        assert_config_error(capsys)

    @pytest.mark.parametrize("command", [["plan", "--config"], ["replay"]], ids=["config", "trace"])
    @pytest.mark.parametrize("data", UNDECODABLE)
    def test_undecodable_json_file_exit_two(self, outdir, capsys, tmp_path, command, data):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        assert run([*command, str(path)]) == 2
        assert_config_error(capsys)

    def test_repeated_key_in_config_file_exit_two(self, outdir, capsys, tmp_path):
        # json keeps a repeated key's last value: 5 blocks and no horizon 2.
        path = tmp_path / "cfg.json"
        path.write_text(
            '{"n_blocks": 3, "n_blocks": 5, "planner": {"horizon": 2}, "planner": {"beams": 1}}'
        )
        assert run(["plan", "--config", str(path)]) == 2
        assert "repeated JSON key 'n_blocks'" in capsys.readouterr().err
        assert not outdir.exists()

    def test_repeated_key_in_override_exit_two(self, outdir, capsys):
        assert run(["plan", "--set", 'planner={"horizon": 2, "horizon": 3}']) == 2
        assert "repeated JSON key 'horizon'" in capsys.readouterr().err
        assert not outdir.exists()

    def test_output_dir_naming_a_file_exit_two(self, capsys, tmp_path, monkeypatch):
        taken = tmp_path / "taken"
        taken.write_text("")
        monkeypatch.setenv("BLOCKPLAN_OUT", str(taken))
        assert run(["plan", "--set", "planner.horizon=1"]) == 2
        assert_config_error(capsys)

    @pytest.mark.parametrize("source", ["set", "config"])
    def test_output_dir_is_no_config_field_exit_two(self, outdir, capsys, tmp_path, source):
        # BLOCKPLAN_OUT alone places output, so no header names a directory.
        path = tmp_path / "cfg.json"
        path.write_text('{"output_dir": "elsewhere"}')
        options = {"set": ["--set", "output_dir=elsewhere"], "config": ["--config", str(path)]}
        assert run(["plan", *options[source]]) == 2
        assert_config_error(capsys)
        assert not outdir.exists()

    @pytest.mark.parametrize(
        "argv",
        [["ablate", "--episodes", "1", "--cells", "1,1,1,1"], ["oracle", "--horizon", "0"]],
        ids=["ablate", "oracle"],
    )
    def test_one_seed_command_refuses_a_seed_list_exit_two(self, outdir, capsys, argv):
        # Each runs one seed, so a longer list must not run its first alone.
        assert run([*argv, "--set", "n_blocks=2", "--set", "seeds=[0,1]"]) == 2
        assert_config_error(capsys)
        assert not outdir.exists()


class TestRepeatedMain:
    """``main`` calls in one process share no state: each ends with the code
    and writes the output it does when run in the other order, and
    ``--set`` values do not pile up from one call to the next."""

    # A plan with an override, a usage error, a plan with none and an
    # ablation over the default cells, with the exit code each ends with.
    CALLS = [
        (["plan", "--seed", "3", "--set", "n_blocks=6"], 0),
        (["plan", "--seed", "x"], 2),
        (["plan", "--seed", "4"], 0),
        (["ablate", "--episodes", "1"], 0),
    ]

    def run_calls(self, root, monkeypatch, capsys, order):
        results = {}
        for k in order:
            argv = self.CALLS[k][0]
            out = root / str(k)
            monkeypatch.setenv("BLOCKPLAN_OUT", str(out))
            code = main(argv)
            printed = capsys.readouterr()
            files = {p.name: p.read_text() for p in sorted(out.glob("*"))}
            text = [printed.out.replace(str(out), "<out>"), printed.err]
            if argv[0] == "ablate":  # rows without wall_clock_s, a timing
                text[0] = [row.rsplit(",", 1)[0] for row in text[0].splitlines()]
                rows = files["ablation.csv"].splitlines()
                files["ablation.csv"] = [row.rsplit(",", 1)[0] for row in rows]
            results[k] = (code, text, files)
        return results

    def test_calls_in_either_order_run_alike(self, tmp_path, monkeypatch, capsys):
        sets = []
        load = cli._load

        def spy(args):
            sets.append(list(args.set))
            return load(args)

        monkeypatch.setattr(cli, "_load", spy)
        order = range(len(self.CALLS))
        forward = self.run_calls(tmp_path / "forward", monkeypatch, capsys, order)
        assert sets == [["n_blocks=6"], [], []]
        backward = self.run_calls(tmp_path / "backward", monkeypatch, capsys, order[::-1])
        assert [forward[k][0] for k in order] == [code for _, code in self.CALLS]
        assert forward == backward
        assert all(files for code, _, files in forward.values() if code == 0)
        assert sets[3:] == [[], [], ["n_blocks=6"]]

class TestPlanCommand:
    def test_writes_trace_and_exits_zero(self, outdir, capsys):
        code = run(["plan", "--seed", "3", "--set", "planner.horizon=4", "--set", "n_blocks=6"])
        assert code == 0
        trace = read_trace(str(outdir / "plan_3.jsonl"))
        kinds = [r["kind"] for r in trace]
        assert kinds[0] == "Header"
        assert "InitialState" in kinds
        assert "PlanResult" in kinds
        out = capsys.readouterr().out
        assert "plan: 4 actions" in out

    def test_seed_list_writes_a_trace_per_seed(self, outdir, capsys):
        argv = ["plan", "--set", "seeds=[3,4]", "--set", "planner.horizon=2", "--set", "n_blocks=6"]
        assert run(argv) == 0
        out = capsys.readouterr().out
        assert out.count("plan: 2 actions") == 2
        for seed in (3, 4):
            path = outdir / f"plan_{seed}.jsonl"
            assert f"trace written to {path}\n" in out
            assert read_trace(str(path))[0]["config"]["run"]["seeds"] == [seed]

    def test_complete_start_prints_a_plan_of_no_actions(self, outdir, capsys):
        # Seed 0's four blocks start grouped by color, so no beam expands.
        assert run(["plan", "--seed", "0"]) == 0
        path = outdir / "plan_0.jsonl"
        assert capsys.readouterr().out == (
            "plan: 0 actions, final value -0.0, final-frame reward 100.0\n"
            f"trace written to {path}\n"
        )
        assert read_trace(str(path))[-1]["plan"]["actions"] == []

    def test_seed_changes_output_bytes(self, outdir):
        run(["plan", "--seed", "1", "--set", "planner.horizon=2", "--set", "n_blocks=6"])
        run(["plan", "--seed", "2", "--set", "planner.horizon=2", "--set", "n_blocks=6"])
        a = (outdir / "plan_1.jsonl").read_text()
        b = (outdir / "plan_2.jsonl").read_text()
        assert a != b
        assert '"kind":"PlanStep"' in a and '"kind":"PlanStep"' in b

    def test_same_seed_reproduces_bytes(self, outdir):
        run(["plan", "--seed", "1", "--set", "planner.horizon=2", "--set", "n_blocks=6"])
        a = (outdir / "plan_1.jsonl").read_text()
        assert '"kind":"PlanStep"' in a
        run(["plan", "--seed", "1", "--set", "planner.horizon=2", "--set", "n_blocks=6"])
        assert (outdir / "plan_1.jsonl").read_text() == a

    def test_invalid_override_exit_two(self, outdir, capsys):
        assert run(["plan", "--set", "planner.beams=0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_config_file_exit_two(self, outdir, capsys):
        assert run(["plan", "--config", "/nonexistent.json"]) == 2

    def test_config_file_used(self, outdir, tmp_path):
        cfg = tmp_path / "cfg.json"
        config = {"planner": {"horizon": 2, "beams": 1}, "seeds": [9], "n_blocks": 6}
        cfg.write_text(json.dumps(config))
        assert run(["plan", "--config", str(cfg)]) == 0
        plan = read_trace(str(outdir / "plan_9.jsonl"))[-1]["plan"]
        assert len(plan["actions"]) == 2


class TestExecuteCommand:
    def test_csv_and_traces(self, outdir, capsys):
        code = run(
            [
                "execute",
                "--set",
                "seeds=[1,2]",
                "--set",
                "planner.horizon=2",
                "--set",
                "n_blocks=6",
                "--set",
                "execution.total_budget=400",
            ]
        )
        assert code == 0
        csv = (outdir / "episodes.csv").read_text().strip().splitlines()
        assert csv[0] == "seed,reward,completed,steps_used,replan_count"
        assert len(csv) == 3
        assert (outdir / "episode_1.jsonl").exists()
        assert (outdir / "episode_2.jsonl").exists()

    def test_repeated_seed_exit_two(self, outdir, capsys):
        # A repeated seed would run, write its trace and print its row twice.
        argv = ["execute", "--set", "seeds=[1,1]", "--set", "planner.horizon=1"]
        assert run([*argv, "--set", "n_blocks=2"]) == 2
        assert_config_error(capsys)
        assert not outdir.exists()

    def test_seed_list_and_lone_seed_write_the_same_trace(self, tmp_path, monkeypatch):
        # A header records the trace's own seed and no output directory, so
        # the same run hashes alike wherever it was written and whatever
        # other seeds its command line listed.
        argvs = {"list": ["--set", "seeds=[0,1]"], "lone": ["--seed", "1"]}
        for name, argv in argvs.items():
            monkeypatch.setenv("BLOCKPLAN_OUT", str(tmp_path / name))
            assert run(["execute", *argv, "--set", "n_blocks=3", "--set", "planner.horizon=2"]) == 0
        traces = [(tmp_path / name / "episode_1.jsonl").read_bytes() for name in argvs]
        assert traces[0] == traces[1]


class TestAblateCommand:
    def test_csv_rows_match_cells(self, outdir):
        code = run(
            [
                "ablate",
                "--cells",
                "1,1,1;1,2,2",
                "--episodes",
                "2",
                "--set",
                "planner.horizon=3",
                "--set",
                "n_blocks=5",
                "--set",
                "task.kind=make_line",
            ]
        )
        assert code == 0
        lines = (outdir / "ablation.csv").read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("label,episodes,")
        assert lines[1].startswith("B1_A1_D1_H3,")
        assert lines[2].startswith("B1_A2_D2_H3,")
        for column in ("naive_success", "replay_success"):
            dat = (outdir / f"ablation_{column}.dat").read_text().strip().splitlines()
            assert len(dat) == 2

    # An ablation CSV kept from an earlier commit, so scores that drift
    # between commits fail here. Written by
    #   blockplan ablate --cells "1,1,1,8;1,1,4,8;1,4,4,8;2,4,4,8"
    #     --episodes 16 --seed 5 --set n_blocks=6 --set faults.p_teleport=0.2
    # and compared without its wall_clock_s column, which is a timing.
    def test_golden_ablation_csv(self, outdir):
        argv = ["ablate", "--cells", "1,1,1,8;1,1,4,8;1,4,4,8;2,4,4,8", "--episodes", "16"]
        argv += ["--seed", "5", "--set", "n_blocks=6", "--set", "faults.p_teleport=0.2"]
        assert run(argv) == 0
        golden = os.path.join(os.path.dirname(__file__), "data", "golden_ablation.csv")

        def scores(path):
            with open(path) as fh:
                return [line.rsplit(",", 1)[0] for line in fh.read().splitlines()]

        assert scores(outdir / "ablation.csv") == scores(golden)

    def test_bad_cells_exit_two(self, outdir):
        assert run(["ablate", "--cells", "1,2", "--episodes", "1"]) == 2
        assert run(["ablate", "--cells", "1,1,5000000000,1", "--episodes", "1"]) == 2

    def test_bad_later_cell_refused_before_any_episode(self, outdir, capsys):
        # Every episode of every cell runs through `Planner.plan`.
        with mock.patch.object(Planner, "plan", autospec=True, side_effect=Planner.plan) as plan:
            assert run(["ablate", "--cells", "1,1,1,1;1,0,1", "--episodes", "1"]) == 2
        assert plan.call_count == 0
        assert capsys.readouterr().err == "error: text_branch must be >= 1, got 0\n"


class TestOracleCommand:
    def test_micro_instance(self, outdir, capsys):
        code = run(
            [
                "oracle",
                "--horizon",
                "2",
                "--set",
                "n_blocks=2",
                "--set",
                "task.kind=make_line",
                "--seed",
                "5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle value over horizon 2:" in out

    def test_capacity_exit_two(self, outdir, capsys):
        assert run(["oracle", "--horizon", "4", "--set", "n_blocks=6"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "cap of 500000 nodes" in err

    def test_horizon_far_past_the_cap_exit_two(self, outdir, capsys):
        # The node count at this horizon has more digits than Python prints.
        assert run(["oracle", "--horizon", "5000", "--set", "n_blocks=2"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "cap of 500000 nodes" in err


class TestReplayCommand:
    def test_fresh_plan_trace_verifies(self, outdir, capsys):
        run(["plan", "--seed", "4", "--set", "planner.horizon=3", "--set", "n_blocks=6"])
        assert '"kind":"PlanStep"' in (outdir / "plan_4.jsonl").read_text()
        code = run(["replay", str(outdir / "plan_4.jsonl")])
        assert code == 0
        assert "replay verified" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "extra",
        [
            pytest.param([], id="every_frame"),
            pytest.param(["--set", "execution.extractor=inverse_dynamics"], id="inverse_dynamics"),
            pytest.param(["--set", "faults.p_vanish=0.3"], id="p_vanish"),
        ],
    )
    def test_fresh_episode_trace_verifies(self, outdir, extra):
        run(
            [
                "execute",
                "--seed",
                "5",
                "--set",
                "planner.horizon=2",
                "--set",
                "n_blocks=6",
                "--set",
                "execution.total_budget=300",
                *extra,
            ]
        )
        assert run(["replay", str(outdir / "episode_5.jsonl")]) == 0

    def test_board_past_int64_writes_exact_integers_and_verifies(self, outdir):
        # Lengths are unbounded counts of 1e-9 board units: an int64 count
        # would wrap past 9.2e9 units on this 1e12-wide board.
        sets = ["world.width=1e12", "planner.horizon=2", "n_blocks=6"]
        assert run(["plan", *(a for o in sets for a in ("--set", o))]) == 0
        path = str(outdir / "plan_0.jsonl")
        records = read_trace(path)
        x0 = sample_initial_state(6, derive(0), WorldConfig(width=1e12))
        want = [[round(x * 1e9), round(y * 1e9)] for x, y in x0.positions.tolist()]
        assert records[1]["state"]["positions"] == want
        assert 636961687321448808448 in want[0]
        frames = records[-1]["plan"]["frames"]
        assert frames[0] == want and len(frames) > 1
        assert max(v for f in frames[1:] for row in f for v in row) > 2**63
        assert run(["replay", path]) == 0

    def test_tampered_trace_exit_three(self, outdir, capsys):
        run(["plan", "--seed", "6", "--set", "planner.horizon=2", "--set", "n_blocks=6"])
        path = outdir / "plan_6.jsonl"
        lines = path.read_text().splitlines()
        assert '"kind":"PlanStep"' in path.read_text()
        rec = json.loads(lines[2])
        # Tamper with whichever payload field exists on this record.
        for k in list(rec):
            if k not in ("kind", "ordinal"):
                rec[k] = -999.0
                break
        lines[2] = json.dumps(rec)
        path.write_text("\n".join(lines) + "\n")
        code = run(["replay", str(path)])
        assert code == 3
        assert "divergence at ordinal 2" in capsys.readouterr().err

    # Traces kept from an earlier commit, each with the command that wrote it,
    # so a header or record layout that drifts between commits fails here; a
    # deliberate schema change regenerates them with these commands.
    # The third holds three guard discards, one of them total and followed by
    # a guard fallback, and a beam replacement. The fourth is the benchmark's
    # block count, and its plan pushes to a color centroid that has peers.
    # The last is one episode of the benchmark's execute workload: three
    # replans, and controls whose collision pass moves a block.
    GOLDEN_TRACES = {
        "golden_plan_move_to_area.jsonl": [
            "plan", "--seed", "2", "--set", "n_blocks=3", "--set", "planner.horizon=2",
            "--set", "task.kind=move_to_area", "--set", "task.corner=top_left",
            "--set", "faults.p_teleport=0.5",
        ],
        "golden_episode_make_line.jsonl": [
            "execute", "--seed", "1", "--set", "n_blocks=3", "--set", "planner.horizon=2",
            "--set", "task.kind=make_line",
        ],
        "golden_plan_guard_fallback.jsonl": [
            "plan", "--seed", "10", "--set", "n_blocks=5", "--set", "planner.horizon=4",
            "--set", "planner.replace_period=2", "--set", "faults.p_teleport=1.0",
        ],
        "golden_plan_group_by_color.jsonl": [
            "plan", "--seed", "0", "--set", "n_blocks=6", "--set", "planner.horizon=4",
        ],
        "golden_episode_group_by_color.jsonl": [
            "execute", "--seed", "4", "--set", "n_blocks=6", "--set", "planner.horizon=2",
        ],
    }
    FIRST_GOLDEN = next(iter(GOLDEN_TRACES))

    @staticmethod
    def golden(name):
        return read_trace(os.path.join(os.path.dirname(__file__), "data", name))

    def test_each_golden_holds_the_case_it_was_kept_for(self):
        # A regenerated golden must not lose the case named above.
        fallback = self.golden("golden_plan_guard_fallback.jsonl")
        kinds = [r["kind"] for r in fallback]
        discards = [r for r in fallback if r["kind"] == "GuardDiscard"]
        assert sum(r["discarded"] == r["of"] for r in discards) == 1
        assert kinds.count("GuardFallback") == kinds.count("BeamReplace") == 1

        plan = self.golden("golden_plan_group_by_color.jsonl")[-1]["plan"]
        x0 = state_from_dict({**plan, "positions": plan["frames"][0]})
        peers = []
        for text in plan["actions"]:
            action = parse_action(text, x0)
            if action.target.kind == "color_centroid":
                subject = x0.index_of(action.subject)
                peers += [
                    j for j, c in enumerate(x0.colors) if c == action.target.color and j != subject
                ]
        assert peers

        episode = self.golden("golden_episode_group_by_color.jsonl")
        assert [r["kind"] for r in episode].count("PlanStep") == 3
        assert episode[-1]["replan_count"] == 3

    @pytest.mark.parametrize("seeds", [[], [1, 2]], ids=["no_seed", "two_seeds"])
    def test_header_of_other_than_one_seed_exit_two(self, capsys, tmp_path, seeds):
        # The hash is rewritten to match: only the seed list is wrong.
        with open(os.path.join(os.path.dirname(__file__), "data", self.FIRST_GOLDEN)) as fh:
            lines = fh.read().splitlines()
        header = json.loads(lines[0])
        header["config"]["run"]["seeds"] = seeds
        header["config_hash"] = digest(header["config"])
        path = tmp_path / "seeds.jsonl"
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        assert run(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        assert "a trace holds one seed" in err

    @pytest.mark.parametrize("name", GOLDEN_TRACES)
    def test_golden_trace_verifies(self, name):
        path = os.path.join(os.path.dirname(__file__), "data", name)
        assert run(["replay", path]) == 0

    @pytest.mark.parametrize("name", GOLDEN_TRACES)
    def test_golden_trace_is_a_fresh_run(self, outdir, name):
        # Replay alone misses a stale header: a config field the header lacks
        # takes its default.
        assert run(self.GOLDEN_TRACES[name]) == 0
        (written,) = outdir.glob("*.jsonl")
        with open(os.path.join(os.path.dirname(__file__), "data", name), "rb") as fh:
            assert written.read_bytes() == fh.read()

    # Each edits the header of a golden trace: a schema-1 to schema-8 trace,
    # and a config that no longer matches its hash.
    HEADER_EDITS = {
        "schema_version_1": lambda header: header.update(schema_version=1),
        "schema_version_2": lambda header: header.update(schema_version=2),
        "schema_version_3": lambda header: header.update(schema_version=3),
        "schema_version_4": lambda header: header.update(schema_version=4),
        "schema_version_5": lambda header: header.update(schema_version=5),
        "schema_version_6": lambda header: header.update(schema_version=6),
        "schema_version_7": lambda header: header.update(schema_version=7),
        "schema_version_8": lambda header: header.update(schema_version=8),
        "horizon_edited": lambda header: header["config"]["run"]["planner"].update(horizon=3),
    }

    @pytest.mark.parametrize("edit", HEADER_EDITS)
    def test_edited_golden_header_exit_two(self, capsys, tmp_path, edit):
        with open(os.path.join(os.path.dirname(__file__), "data", self.FIRST_GOLDEN)) as fh:
            lines = fh.read().splitlines()
        header = json.loads(lines[0])
        self.HEADER_EDITS[edit](header)
        path = tmp_path / "edited.jsonl"
        path.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        assert run(["replay", str(path)]) == 2
        assert_config_error(capsys)

    # Each breaks the middle line of a golden trace.
    BROKEN_LINES = {
        "truncated": lambda line: line[: len(line) // 2],
        "not_an_object": lambda line: b"[1, 2]",
        "not_utf8": lambda line: b"\xff\xfe" + line,
    }

    @pytest.mark.parametrize("name", GOLDEN_TRACES)
    @pytest.mark.parametrize("broken", BROKEN_LINES)
    def test_broken_golden_line_exit_two(self, capsys, tmp_path, name, broken):
        with open(os.path.join(os.path.dirname(__file__), "data", name), "rb") as fh:
            lines = fh.read().splitlines()
        mid = len(lines) // 2
        lines[mid] = self.BROKEN_LINES[broken](lines[mid])
        path = tmp_path / name
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert run(["replay", str(path)]) == 2
        assert_config_error(capsys)

    def test_repeated_key_in_golden_record_exit_two(self, capsys, tmp_path):
        # The Reward record reads -1.0 and then its true 100.0: json would
        # keep the 100.0 and verify the trace.
        with open(os.path.join(os.path.dirname(__file__), "data", self.FIRST_GOLDEN)) as fh:
            text = fh.read()
        record = '"kind":"Reward","ordinal":6,"value":100.0}'
        assert record in text
        path = tmp_path / "repeated.jsonl"
        path.write_text(text.replace("{" + record, '{"value":-1.0,' + record))
        assert run(["replay", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "repeated JSON key 'value'" in err

    def test_config_float_past_wire_precision_verifies(self, outdir, capsys):
        # The header keeps all 11 significant digits of sigma_model; rounded
        # to 9, the replay ran another model and diverged.
        sets = ["n_blocks=6", "planner.horizon=4", "model.sigma_model=0.0031234567891"]
        assert run(["plan", "--seed", "1", *(a for o in sets for a in ("--set", o))]) == 0
        assert run(["replay", str(outdir / "plan_1.jsonl")]) == 0

    def test_missing_trace_exit_two(self, outdir):
        assert run(["replay", str(outdir / "nope.jsonl")]) == 2

    @pytest.fixture
    def plan_trace(self, outdir, capsys):
        run(["plan", "--seed", "6", "--set", "planner.horizon=2", "--set", "n_blocks=6"])
        capsys.readouterr()
        assert '"kind":"PlanStep"' in (outdir / "plan_6.jsonl").read_text()
        return outdir / "plan_6.jsonl"

    def test_truncated_trace_exit_two(self, plan_trace, capsys):
        text = plan_trace.read_text()
        plan_trace.write_text(text[: len(text) // 2])
        assert run(["replay", str(plan_trace)]) == 2
        assert_config_error(capsys)

    def test_header_without_run_config_exit_two(self, plan_trace, capsys):
        lines = plan_trace.read_text().splitlines()
        header = json.loads(lines[0])
        del header["config"]["run"]
        plan_trace.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        assert run(["replay", str(plan_trace)]) == 2
        assert_config_error(capsys)

    @pytest.mark.parametrize(
        "seeds", [[-1], [1.5], [True], [], [1, 2]], ids=["-1", "1.5", "True", "none", "two"]
    )
    def test_header_seed_not_a_seed_exit_two(self, plan_trace, capsys, seeds):
        # The hash is rewritten to match, so only the seed list is wrong.
        lines = plan_trace.read_text().splitlines()
        header = json.loads(lines[0])
        header["config"]["run"]["seeds"] = seeds
        header["config_hash"] = digest(header["config"])
        plan_trace.write_text("\n".join([json.dumps(header), *lines[1:]]) + "\n")
        assert run(["replay", str(plan_trace)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1, err
        assert "config_hash" not in err

    def test_non_object_record_exit_two(self, plan_trace, capsys):
        plan_trace.write_text(plan_trace.read_text() + "[1, 2]\n")
        assert run(["replay", str(plan_trace)]) == 2
        assert_config_error(capsys)
