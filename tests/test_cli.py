from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import threading
from http.server import HTTPServer
from pathlib import Path

import pytest

import rebel
from rebel.cli import _build_provider, build_parser, main, parse_preferences
from rebel.bench import BenchDeps, ExperimentSpec, random_scenario, run_experiment
from rebel.core import Objective, Tier
from rebel.llm import StubProvider
from rebel.retrieval import ExperienceDatabase, RulesDatabase
from rebel.sim import SimConfig
from conftest import DEEPLY_NESTED
from test_llm import ScriptedHandler


class TestParsePreferences:
    def test_single_objective(self):
        prefs = parse_preferences("MT")
        assert prefs.weights == ((Objective.MISSION_TIME, 1.0),)

    def test_weighted_list(self):
        prefs = parse_preferences("TP=0.5, MT=0.25, HW=0.25")
        assert prefs.weight(Objective.TASK_PERFORMANCE) == pytest.approx(0.5)
        assert prefs.weight(Objective.HUMAN_WORKLOAD) == pytest.approx(0.25)

    def test_unknown_objective_rejected(self):
        with pytest.raises(ValueError):
            parse_preferences("XX=1.0")


def test_simulate_round_trip(tmp_path, capsys):
    scenario = random_scenario(2, 3, 4, seed=9)
    scenario_path = tmp_path / "scenario.txt"
    scenario_path.write_text(scenario.serialize() + "\n")
    plan_path = tmp_path / "plan.txt"
    plan_path.write_text(
        "\n".join(f"{t.id}: ({scenario.robots[0].id})" for t in scenario.tasks) + "\n"
    )
    trace_path = tmp_path / "trace.txt"
    code = main([
        "simulate", "--scenario", str(scenario_path), "--plan", str(plan_path),
        "--seed", "5", "--trace", str(trace_path),
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert out.startswith("Performance: [")
    assert trace_path.read_text().count("capture") == len(scenario.tasks)


def test_bench_subcommand_writes_reports(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "mode": "SOO",
        "humans": 2, "robots": 3, "pois": 4,
        "trials": 4,
        "methods": ["heuristic", "random", "zero_shot"],
        "seed": 2,
    }))
    out_dir = tmp_path / "out"
    code = main(["bench", "--spec", str(spec_path), "--out-dir", str(out_dir)])
    assert code == 0
    assert (out_dir / "report.csv").exists()
    summary = (out_dir / "summary.txt").read_text()
    assert "trials per cell: 4" in summary
    assert "check FAIL" not in summary
    stdout = capsys.readouterr().out
    assert "report written" in stdout


def test_bench_plans_under_the_sim_config_it_simulates(tmp_path, capsys):
    # a tied vector reaches the greedy branch that reads the speed multiplier
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "mode": "MOO", "humans": 2, "robots": 3, "pois": 5, "trials": 4, "seed": 3,
        "methods": ["heuristic", "zero_shot"], "preferences": [{"TP": 1, "MT": 1, "HW": 1}],
    }))
    fast = SimConfig(shared_speed_multiplier={tier: 3.0 for tier in Tier})
    fast.dump(tmp_path / "fast.json")
    SimConfig().dump(tmp_path / "default.json")
    summaries = {}
    for name in ("fast", "default"):
        out_dir = tmp_path / name
        assert main([
            "bench", "--spec", str(spec_path), "--out-dir", str(out_dir),
            "--sim-config", str(tmp_path / f"{name}.json"),
        ]) == 0
        summaries[name] = (out_dir / "summary.txt").read_text()
    spec = ExperimentSpec.from_json(spec_path)
    deps = BenchDeps(
        provider=StubProvider(fast), rules_db=RulesDatabase(), exp_db=ExperienceDatabase(),
        sim_cfg=fast,
    )
    assert summaries["fast"] == run_experiment(spec, deps).summary_text()
    assert summaries["fast"] != summaries["default"]


def test_gen_rules_then_infer_via_cli(tmp_path, capsys):
    rules_path = tmp_path / "rules.jsonl"
    exp_path = tmp_path / "exp.jsonl"
    assert main(["gen-rules", "--rules-db", str(rules_path), "--objectives", "MT"]) == 0

    scenario = random_scenario(2, 3, 4, seed=31)
    scenario_path = tmp_path / "scenario.txt"
    scenario_path.write_text(scenario.serialize() + "\n")
    capsys.readouterr()
    code = main([
        "infer", "--rules-db", str(rules_path), "--exp-db", str(exp_path),
        "--scenario", str(scenario_path), "--prefs", "MT",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "T_0: (" in out
    # empty experience database degrades gracefully: no exemplar provenance
    assert "# retrieved experiences: []" in out
    assert "# retrieved rules: [" in out and "# retrieved rules: []" not in out


@pytest.mark.parametrize(
    "argv, message",
    [
        (["infer", "--prefs", "XX"], "argument --prefs: invalid parse_preferences value: 'XX'"),
        (["infer", "--prefs", "TP=-1"], "argument --prefs: invalid parse_preferences value"),
        (["infer", "--prefs", "MT", "--rule-k", "0"], "argument --rule-k: must be >= 1, got 0"),
        (["infer", "--prefs", "MT", "--exp-k", "0"], "argument --exp-k: must be >= 1, got 0"),
        (["infer", "--prefs", "MT", "--embed-dim", "0"], "argument --embed-dim: must be >= 1"),
        (["infer", "--prefs", "MT", "--rule-k", "two"], "invalid positive_int value: 'two'"),
        (["gen-exp", "--missions", "0"], "argument --missions: must be >= 1, got 0"),
        (["gen-exp", "--refine-every", "0"], "argument --refine-every: must be >= 1, got 0"),
        (["gen-exp", "--min-robots", "0"], "argument --min-robots: must be >= 1, got 0"),
        (["gen-exp", "--objectives", "ZZ"], "invalid parse_objectives value: 'ZZ'"),
        (["gen-exp", "--objectives", ""], "invalid parse_objectives value: ''"),
        (["gen-rules", "--objectives", "TP,,MT"], "invalid parse_objectives value"),
        (["gen-exp", "--min-tasks", "9", "--max-tasks", "3"], "--min-tasks must be <= --max-tasks"),
        (["gen-exp", "--min-humans", "6"], "--min-humans must be <= --max-humans"),
    ],
)
def test_bad_flag_values_are_usage_errors(tmp_path, capsys, argv, message):
    paths = {
        "infer": ["--exp-db", "e.jsonl", "--scenario", "s.txt"],
        "gen-exp": ["--exp-db", "e.jsonl"],
        "gen-rules": [],
    }
    argv = [argv[0], "--rules-db", str(tmp_path / "r.jsonl"), *paths[argv[0]], *argv[1:]]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["infer", "--exp-m", "-1"], "argument --exp-m: must be >= 0, got -1"),
        (["gen-exp", "--min-humans", "-2"], "argument --min-humans: must be >= 0, got -2"),
        (["gen-exp", "--min-humans", "-3", "--max-humans", "-1"], "argument --min-humans"),
        (["gen-exp", "--max-humans", "-1"], "argument --max-humans: must be >= 0, got -1"),
        (["gen-exp", "--min-tasks", "-3", "--max-tasks", "-1"], "argument --min-tasks: must be >= 0"),
        (["gen-exp", "--max-tasks", "-1"], "argument --max-tasks: must be >= 0, got -1"),
        (["gen-rules", "--retries", "-1"], "argument --retries: must be >= 0, got -1"),
        (["infer", "--timeout", "0"], "argument --timeout: must be a finite number > 0, got 0"),
        (["infer", "--timeout", "-2.5"], "argument --timeout: must be a finite number > 0"),
        (["gen-exp", "--timeout", "nan"], "argument --timeout: must be a finite number > 0, got nan"),
        (["infer", "--timeout", "soon"], "invalid positive_float value: 'soon'"),
        (["bench", "--workers", "0"], "argument --workers: must be >= 1, got 0"),
        (["bench", "--workers", "-3"], "argument --workers: must be >= 1, got -3"),
    ],
)
def test_negative_counts_and_bad_timeouts_are_usage_errors(tmp_path, capsys, argv, message):
    required = {
        "infer": ["--rules-db", "r.jsonl", "--exp-db", "e.jsonl", "--scenario", "s.txt",
                  "--prefs", "MT"],
        "gen-exp": ["--rules-db", "r.jsonl", "--exp-db", "e.jsonl"],
        "gen-rules": ["--rules-db", "r.jsonl"],
        "bench": ["--spec", "spec.json"],
    }
    argv = [argv[0], *(str(tmp_path / a) if "." in a else a for a in required[argv[0]]), *argv[1:]]
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err
    assert list(tmp_path.iterdir()) == []


def test_zero_counts_stay_valid():
    parser = build_parser()
    args = parser.parse_args([
        "infer", "--rules-db", "r", "--exp-db", "e", "--scenario", "s", "--prefs", "MT",
        "--exp-m", "0", "--retries", "0", "--timeout", "0.5",
    ])
    assert (args.exp_m, args.retries, args.timeout) == (0, 0, 0.5)
    args = parser.parse_args([
        "gen-exp", "--rules-db", "r", "--exp-db", "e", "--min-humans", "0", "--max-humans", "0",
        "--min-tasks", "0",
    ])
    assert (args.min_humans, args.max_humans, args.min_tasks) == (0, 0, 0)


def test_infer_passes_exp_m_through(tmp_path, capsys):
    rules, exp = str(tmp_path / "rules.jsonl"), str(tmp_path / "exp.jsonl")
    assert main(["gen-rules", "--rules-db", rules]) == 0
    assert main(["gen-exp", "--rules-db", rules, "--exp-db", exp, "--missions", "3"]) == 0
    scenario_path = tmp_path / "scenario.txt"
    scenario_path.write_text(random_scenario(2, 3, 5, seed=1).serialize() + "\n")
    exemplars = {}
    for m in ("0", "1", "3"):
        capsys.readouterr()
        assert main([
            "infer", "--rules-db", rules, "--exp-db", exp, "--scenario", str(scenario_path),
            "--prefs", "MT", "--exp-k", "3", "--exp-m", m,
        ]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("# retrieved experiences: ")
        exemplars[m] = json.loads(line.partition(": ")[2])
    assert exemplars["0"] == [] and len(exemplars["1"]) == 1 and len(exemplars["3"]) == 3
    assert exemplars["3"][:1] == exemplars["1"]


@pytest.mark.parametrize("command", ["infer", "gen-exp"])
@pytest.mark.parametrize("store, line", [("exp", '{"kind": "experience"}'), ("rules", "[1, 2]")])
def test_a_wrong_shape_store_line_is_a_one_line_error(tmp_path, capsys, command, store, line):
    paths = {name: tmp_path / f"{name}.jsonl" for name in ("rules", "exp")}
    assert main(["gen-rules", "--rules-db", str(paths["rules"])]) == 0
    assert main([
        "gen-exp", "--rules-db", str(paths["rules"]), "--exp-db", str(paths["exp"]), "--missions", "1",
    ]) == 0
    with open(paths[store], "a", encoding="utf-8") as handle:
        handle.write(line + "\n")
    number = len(paths[store].read_text(encoding="utf-8").splitlines())
    scenario_path = tmp_path / "scenario.txt"
    scenario_path.write_text(random_scenario(2, 3, 5, seed=1).serialize() + "\n")
    stores = ["--rules-db", str(paths["rules"]), "--exp-db", str(paths["exp"])]
    argv = (
        ["infer", *stores, "--scenario", str(scenario_path), "--prefs", "MT"] if command == "infer"
        else ["gen-exp", *stores, "--missions", "1"]
    )
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {paths[store]}, line {number}: not a record: ")
    assert captured.err.count("\n") == 1


def test_infer_plans_under_its_sim_config(tmp_path, capsys):
    # a tied vector reaches the greedy branch that reads the speed multiplier,
    # in the stub's answer as in the fallback
    rules_path = tmp_path / "rules.jsonl"
    assert main(["gen-rules", "--rules-db", str(rules_path)]) == 0
    scenario_path = tmp_path / "scenario.txt"
    scenario_path.write_text(random_scenario(2, 3, 5, seed=3).serialize() + "\n")
    SimConfig(shared_speed_multiplier={tier: 3.0 for tier in Tier}).dump(tmp_path / "fast.json")
    SimConfig().dump(tmp_path / "default.json")
    outputs = {}
    for name, extra in (
        ("none", []),
        ("default", ["--sim-config", str(tmp_path / "default.json")]),
        ("fast", ["--sim-config", str(tmp_path / "fast.json")]),
    ):
        capsys.readouterr()
        assert main([
            "infer", "--rules-db", str(rules_path), "--exp-db", str(tmp_path / "exp.jsonl"),
            "--scenario", str(scenario_path), "--prefs", "TP=1,MT=1,HW=1", *extra,
        ]) == 0
        outputs[name] = capsys.readouterr().out
    assert outputs["default"] == outputs["none"]
    plan = lambda out: [line for line in out.splitlines() if line.startswith("T_")]
    assert plan(outputs["fast"]) != plan(outputs["none"])


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"change": 5}, "change must be an object"),
        ({"preferences": [5]}, "a preferences entry must be an object"),
        ({"methods": "random"}, "methods must be a list"),
        ({"methods": ["brute_force"], "brute_force_samples": 0}, "brute_force_samples must be"),
        (
            {"humans": 5, "robots": 7, "pois": 30, "trials": 1, "methods": ["brute_force"]},
            "brute_force would search (7 x (1 + 5))^30 plans, more than the 100000 plan cap",
        ),
        ([], "a spec must be an object"),
        ({"trials": "3"}, 'trials must be an integer, got "3"'),
        ({"humans": -1, "trials": 1}, "humans must be >= 0"),
        ({"change": {"remove_ids": "H_0"}}, "change.remove_ids must be a list of strings"),
        ({"mode": "SituationalAwareness", "robots": 1}, "change.remove_robots must be < robots"),
        ({"change": {"remove_ids": [5]}}, "change.remove_ids must be a list of strings, got [5]"),
        *(
            ({"preferences": [{"TP": weight}]}, f"a preferences weight must be a number, got {shown}")
            for weight, shown in (
                (None, "null"), ([1], "[1]"), ({"v": 1}, '{"v": 1}'), ("0.5", '"0.5"'),
                (True, "true"), (10**400, "1" + "0" * 20),  # past the float range
            )
        ),
    ],
)
def test_bench_rejects_a_bad_spec_with_one_line(tmp_path, capsys, spec, message):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    assert main(["bench", "--spec", str(spec_path), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {spec_path}: ")
    assert captured.err.count("\n") == 1 and message in captured.err
    assert not (tmp_path / "out").exists()


def test_bench_rejects_a_change_one_trial_cannot_apply_with_one_line(tmp_path, capsys):
    # robot ids are drawn per trial: trials 0 and 2 have a UAV_0, trial 1 has not
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({
        "mode": "SituationalAwareness", "humans": 1, "robots": 2, "pois": 2, "trials": 3,
        "seed": 1, "methods": ["zero_shot"], "change": {"remove_ids": ["UAV_0"]},
    }))
    assert main(["bench", "--spec", str(spec_path), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {spec_path}: trial 1: cannot remove unknown agents: ['UAV_0']\n"
    )
    assert not (tmp_path / "out").exists()


def test_bench_rejects_rebel_on_empty_stores_with_one_line(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"humans": 2, "trials": 1}))  # default methods run rebel
    assert main(["bench", "--spec", str(spec_path), "--out-dir", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: rebel needs populated databases; run `rebel gen-rules` and `rebel gen-exp` first\n"
    )
    assert not (tmp_path / "out").exists()


def test_model_flag_reaches_the_http_provider():
    args = build_parser().parse_args([
        "gen-rules", "--rules-db", "unused.jsonl", "--provider", "http", "--model", "local-model",
    ])
    assert _build_provider(args).cfg.model == "local-model"


def _loaded_after_import(modules: str, names: set[str]) -> str:
    """Which of `names` a fresh interpreter holds in `sys.modules` after
    importing `modules`, as a printed sorted list."""
    src = str(Path(rebel.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = {**os.environ, "PYTHONPATH": path}
    probe = f"import sys, {modules}; print(sorted({names!r} & set(sys.modules)))"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr
    return result.stdout.strip()


def test_importing_the_cli_loads_neither_requests_nor_scipy_stats():
    assert _loaded_after_import("rebel.cli", {"requests", "scipy.stats"}) == "[]"


def test_importing_the_package_loads_no_http_transport():
    # the HTTP modules load on the first request, not at startup
    names = {"ssl", "http.client", "urllib.request"}
    assert _loaded_after_import("rebel.cli, rebel.bench, rebel.pipeline", names) == "[]"


def _input_files(tmp_path):
    """A valid scenario, a valid plan for it, and a spec that needs no store."""
    scenario = random_scenario(2, 3, 4, seed=9)
    paths = {name: tmp_path / name for name in ("scenario.txt", "plan.txt", "spec.json")}
    paths["scenario.txt"].write_text(scenario.serialize() + "\n")
    paths["plan.txt"].write_text(
        "\n".join(f"{t.id}: ({scenario.robots[0].id})" for t in scenario.tasks) + "\n"
    )
    paths["spec.json"].write_text(json.dumps(
        {"humans": 1, "robots": 1, "pois": 1, "trials": 1, "methods": ["heuristic"]}
    ))
    return paths


def _argv(command, tmp_path, paths):
    stores = ["--rules-db", str(tmp_path / "rules.jsonl"), "--exp-db", str(tmp_path / "exp.jsonl")]
    return {
        "gen-exp": ["gen-exp", *stores, "--missions", "1"],
        "infer": ["infer", *stores, "--scenario", str(paths["scenario.txt"]), "--prefs", "MT"],
        "simulate": ["simulate", "--scenario", str(paths["scenario.txt"]), "--plan", str(paths["plan.txt"])],
        "bench": ["bench", "--spec", str(paths["spec.json"]), "--out-dir", str(tmp_path / "out")],
    }[command]


def _assert_one_line_error(capsys, argv, path, message):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {path}: ")
    assert captured.err.count("\n") == 1 and message in captured.err
    return captured.err


@pytest.mark.parametrize("command", ["infer", "simulate"])
@pytest.mark.parametrize(
    "content, message",
    [
        (None, "No such file or directory"),
        ("dir", "Is a directory"),
        (b"\xff\xfe not text", "can't decode"),
        ("Human Attributes: {}\nRobot Details: {UAV_0: [5, Hi]}\n", "all three attribute dictionaries"),
        (
            "Human Attributes: {H_0: [Med]}\nRobot Details: {UAV_0: [5, Hi]}\nTask Info: {}\n",
            'Human Attributes: unreadable entry "H_0: [Med]"',
        ),
        (
            "Human Attributes: {H_0: [Med, Huge]}\nRobot Details: {UAV_0: [5, Hi]}\nTask Info: {}\n",
            'Human Attributes: unknown tier "Huge" in entry "H_0: [Med, Huge]"',
        ),
        ("Arena Side: wide\nHuman Attributes: {}\nRobot Details: {}\nTask Info: {}\n", "wide"),
    ],
    ids=["missing", "directory", "not-utf8", "no-task-section", "unreadable-entry", "unknown-tier", "bad-arena"],
)
def test_a_bad_scenario_file_is_a_one_line_error(tmp_path, capsys, command, content, message):
    paths = _input_files(tmp_path)
    scenario = paths["scenario.txt"]
    scenario.unlink()
    if content == "dir":
        scenario.mkdir()
    elif isinstance(content, bytes):
        scenario.write_bytes(content)
    elif content is not None:
        scenario.write_text(content)
    _assert_one_line_error(capsys, _argv(command, tmp_path, paths), scenario, message)


def test_infer_on_a_scenario_with_no_robots_is_a_one_line_error(tmp_path, capsys):
    paths = _input_files(tmp_path)
    paths["scenario.txt"].write_text("Human Attributes: {H_0: [Med, Lo]}\nRobot Details: {}\nTask Info: {}\n")
    _assert_one_line_error(capsys, _argv("infer", tmp_path, paths), paths["scenario.txt"], "no robots")


@pytest.mark.parametrize(
    "plan, message",
    [
        (None, "No such file or directory"),
        ("no assignments here\n", ""),
        ("T_0: (UAV_99)\n", "UAV_99"),
    ],
    ids=["missing", "unparseable", "unknown-agent"],
)
def test_a_bad_simulate_plan_is_a_one_line_error(tmp_path, capsys, plan, message):
    paths = _input_files(tmp_path)
    paths["plan.txt"].unlink()
    if plan is not None:
        paths["plan.txt"].write_text(plan)
    _assert_one_line_error(capsys, _argv("simulate", tmp_path, paths), paths["plan.txt"], message)


def _underflow_inputs(tmp_path):
    """`_input_files` with a robot whose shared-control speed underflows to
    0.0 under the `--sim-config` file also written: each value is accepted
    on its own; their product is 0.0."""
    paths = _input_files(tmp_path)
    paths["scenario.txt"].write_text(
        "Human Attributes: {H_0: [Med, Med]}\nRobot Details: {UAV_0: [1e-300, Med]}\n"
        "Task Info: {T_0: [(10, 20), Lo]}\n"
    )
    paths["plan.txt"].write_text("T_0: (H_0, UAV_0)\n")
    sim_config = tmp_path / "sim.json"
    sim_config.write_text('{"shared_speed_multiplier": {"Lo": 1e-300, "Med": 1e-300, "Hi": 1e-300}}')
    return paths, sim_config


def test_a_shared_speed_that_underflows_to_zero_is_a_one_line_simulate_error(tmp_path, capsys):
    paths, sim_config = _underflow_inputs(tmp_path)
    argv = [*_argv("simulate", tmp_path, paths), "--sim-config", str(sim_config)]
    _assert_one_line_error(
        capsys, argv, paths["scenario.txt"], "cannot simulate the plan: speed must be > 0, got 0.0"
    )


@pytest.mark.parametrize(
    "provider",
    [[], ["--provider", "http", "--endpoint", "http://127.0.0.1:9/v1", "--retries", "0"]],
    ids=["stub", "unreachable-http"],
)
def test_a_shared_speed_that_underflows_to_zero_is_a_one_line_infer_error(tmp_path, capsys, provider):
    # the stub plans greedily, and so does the fallback when the endpoint is unreachable
    paths, sim_config = _underflow_inputs(tmp_path)
    argv = [*_argv("infer", tmp_path, paths)[:-1], "TP=0.5,MT=0.5", "--sim-config", str(sim_config), *provider]
    _assert_one_line_error(
        capsys, argv, paths["scenario.txt"], "cannot allocate a plan: speed must be > 0, got 0.0"
    )


@pytest.mark.parametrize("command", ["gen-exp", "infer", "simulate", "bench"])
@pytest.mark.parametrize(
    "content, message",
    [
        (None, "No such file or directory"),
        ("{not json", "Expecting property name"),
        ('{"fatigue_flor": 0.5}', 'unknown sim config keys ["fatigue_flor"]'),
        ('{"skill_multiplier": {"Lo": 1, "Med": 1}}', "skill_multiplier gives no number for tier Hi"),
        ('{"workload_coef": NaN}', "workload_coef must be a finite number"),
        ('{"shared_speed_multiplier": {"Lo": 0, "Med": 0, "Hi": 0}}', "shared_speed_multiplier.Lo must be > 0"),
        ('{"analysis_service_s": {"Lo": -20, "Med": 40, "Hi": 60}}', "analysis_service_s.Lo must be >= 0"),
        ('{"points_per_correct": -5}', "points_per_correct must be >= 0, got -5"),
        ('{"workload_coef": -1.0}', "workload_coef must be >= 0, got -1.0"),
        (DEEPLY_NESTED, "JSON nested too deeply to decode"),
        ('{"points_per_correct": 1' + "0" * 400 + "}", "points_per_correct must be a finite number"),
        ('{"skill_multiplier": {"Lo": 1, "Med": 1, "Hi": 1' + "0" * 400 + "}}",
         "skill_multiplier.Hi must be a finite number"),
    ],
    ids=["missing", "not-json", "unknown-key", "missing-tier", "nan",
         "zero-speed", "negative-service", "negative-points", "negative-workload",
         "nested-too-deeply", "huge-int", "huge-int-tier"],
)
def test_a_bad_sim_config_is_a_one_line_error(tmp_path, capsys, command, content, message):
    paths = _input_files(tmp_path)
    sim_config = tmp_path / "sim.json"
    if content is not None:
        sim_config.write_text(content)
    argv = [*_argv(command, tmp_path, paths), "--sim-config", str(sim_config)]
    _assert_one_line_error(capsys, argv, sim_config, message)
    assert not (tmp_path / "out").exists() and not (tmp_path / "exp.jsonl").exists()


_LONG = "x" * 10_000
_LONG_INT = 10**3999  # 4,000 digits, as long as JSON decodes an integer on every supported Python


@pytest.mark.parametrize(
    "file, content, message",
    [
        ("sim", _LONG, "a sim config must be an object, got "),
        ("sim", {"seed": _LONG}, "seed must be an integer, got "),
        ("sim", {"points_per_correct": _LONG}, "points_per_correct must be a finite number, got "),
        ("sim", {"skill_multiplier": _LONG}, "skill_multiplier must be an object giving each tier a number, got "),
        ("spec", {"methods": _LONG}, "methods must be a list, got "),
        ("spec", {"preferences": [{"TP": _LONG}]}, "a preferences weight must be a number, got "),
        ("spec", {"trials": _LONG}, "trials must be an integer, got "),
        ("spec", {"change": {"remove_ids": [_LONG, 5]}}, "change.remove_ids must be a list of strings, got "),
        (
            "spec",
            {"humans": _LONG_INT, "robots": _LONG_INT, "pois": _LONG_INT, "trials": 1, "methods": ["brute_force"]},
            "brute_force would search (",
        ),
    ],
    ids=["sim-object", "sim-seed", "sim-finite", "sim-tier-map", "spec-expect", "spec-weight",
         "spec-count", "spec-remove-ids", "spec-plan-cap"],
)
def test_an_echoed_input_value_is_cut_short(tmp_path, capsys, file, content, message):
    path, err = _error_for_input(tmp_path, capsys, file, content, message)
    # each echoed value (three in the plan cap's line) is cut to 64 characters
    assert "…" in err and len(err) - len(str(path)) < 400


@pytest.mark.parametrize(
    "file, content, message",
    [
        ("sim", {_LONG: 1}, "unknown sim config keys "),
        ("sim", {"skill_multiplier": {"Lo": 1, _LONG: 1}}, "skill_multiplier: unknown tier "),
        ("spec", {_LONG: 1}, "unknown spec keys "),
        ("spec", {"mode": "SituationalAwareness", "change": {_LONG: 1}}, "unknown change keys "),
    ],
    ids=["sim-key", "sim-tier-word", "spec-key", "spec-change-key"],
)
def test_an_unknown_key_is_echoed_cut_short(tmp_path, capsys, file, content, message):
    # the line also lists every known key: the sim config's alone take 298 characters
    _, err = _error_for_input(tmp_path, capsys, file, content, message)
    assert "…" in err and len(err.encode("utf-8")) < 1024


_LONG_TIER_SCENARIO = f"Human Attributes: {{H_0: [Med, {_LONG}]}}\nRobot Details: {{UAV_0: [5, Hi]}}\nTask Info: {{}}\n"


@pytest.mark.parametrize(
    "command, file, content, message",
    [
        ("bench", "spec.json", json.dumps({"preferences": [{_LONG: 1}]}), "unknown objective "),
        ("simulate", "scenario.txt", _LONG_TIER_SCENARIO, "Human Attributes: unknown tier "),
        ("infer", "scenario.txt", _LONG_TIER_SCENARIO, "Human Attributes: unknown tier "),
        (
            "simulate", "sim.json",
            json.dumps({"skill_multiplier": {"Lo" + " " * 10_000: "bad", "Med": 1, "Hi": 1}}),
            'skill_multiplier.Lo must be a finite number, got "bad"',
        ),
    ],
    ids=["spec-objective", "simulate-tier-word", "infer-tier-word", "sim-padded-tier-key"],
)
def test_an_oversized_name_is_cut_short(tmp_path, capsys, command, file, content, message):
    paths = _input_files(tmp_path)
    path = tmp_path / file
    path.write_text(content)
    argv = _argv(command, tmp_path, paths)
    if file == "sim.json":
        argv += ["--sim-config", str(path)]
    err = _assert_one_line_error(capsys, argv, path, message)
    assert len(err.encode("utf-8")) < 1024


@pytest.mark.parametrize(
    "store, fields, message",
    [
        ("exp", {"performance": _LONG}, "unparseable performance line: "),
        ("exp", {"id": _LONG}, "record id "),
        ("exp", {"fallback": _LONG}, "fallback "),
        ("exp", {"scenario": [_LONG]}, "bad scenario: not text: "),
        ("rules", {"kind": "rule", "id": _LONG, "objective": "MT", "text": "t"}, "rule id "),
        ("rules", {"kind": "retire", "objective": "MT", "ids": [_LONG]}, "retired ids "),
        ("rules", {"kind": _LONG}, "unknown rules-log record kind "),
    ],
    ids=["performance", "experience-id", "fallback", "scenario", "rule-id", "retired-ids", "rules-kind"],
)
def test_an_oversized_store_field_is_cut_short(tmp_path, capsys, store, fields, message):
    paths = _input_files(tmp_path)
    rules, exp = tmp_path / "rules.jsonl", tmp_path / "exp.jsonl"
    assert main(["gen-rules", "--rules-db", str(rules)]) == 0
    assert main(["gen-exp", "--rules-db", str(rules), "--exp-db", str(exp), "--missions", "1"]) == 0
    capsys.readouterr()
    path = rules if store == "rules" else exp
    line = fields if store == "rules" else {**json.loads(exp.read_text().splitlines()[0]), **fields}
    path.write_text(json.dumps(line) + "\n")
    assert main(_argv("infer", tmp_path, paths)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}") and err.count("\n") == 1 and message in err
    assert "…" in err and len(err.encode("utf-8")) < 1024


def _error_for_input(tmp_path, capsys, file, content, message):
    """(input path, stderr) of `simulate --sim-config` ("sim") or `bench
    --spec` ("spec") on `content`, checked to be one `error:` line naming
    the file and holding `message`."""
    paths = _input_files(tmp_path)
    if file == "sim":
        path = tmp_path / "sim.json"
        argv = [*_argv("simulate", tmp_path, paths), "--sim-config", str(path)]
    else:
        path = paths["spec.json"]
        argv = _argv("bench", tmp_path, paths)
    path.write_text(json.dumps(content))
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and err.count("\n") == 1 and message in err
    return path, err


def test_a_spec_nested_too_deeply_is_a_one_line_error(tmp_path, capsys):
    paths = _input_files(tmp_path)
    paths["spec.json"].write_text(DEEPLY_NESTED)
    _assert_one_line_error(
        capsys, _argv("bench", tmp_path, paths), paths["spec.json"], "JSON nested too deeply to decode"
    )
    assert not (tmp_path / "out").exists()


def _assert_aborted_stage(capsys, argv, message, stored):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert captured.err.endswith(f" ({stored} records stored before the abort)\n")
    assert captured.err.count("\n") == 1


def test_gen_rules_against_an_unreachable_provider_is_a_one_line_error(tmp_path, capsys):
    argv = [
        "gen-rules", "--rules-db", str(tmp_path / "rules.jsonl"),
        "--provider", "http", "--endpoint", "http://127.0.0.1:9/v1", "--retries", "0",
    ]
    _assert_aborted_stage(capsys, argv, "rule generation aborted at objective TP: ", 0)


def test_gen_rules_counts_the_rules_stored_before_the_abort(tmp_path, capsys):
    rules = tmp_path / "rules.jsonl"
    server = HTTPServer(("127.0.0.1", 0), ScriptedHandler)
    ScriptedHandler.requests_seen = []
    ScriptedHandler.script = [
        (200, {"choices": [{"message": {"content": "- Rule one.\n- Rule two."}}]}),
        (401, {"error": "bad key"}),
    ]
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    try:
        argv = [
            "gen-rules", "--rules-db", str(rules), "--objectives", "TP,MT",
            "--provider", "http", "--endpoint", f"http://127.0.0.1:{server.server_port}/v1",
        ]
        _assert_aborted_stage(capsys, argv, "rule generation aborted at objective MT: ", 2)
    finally:
        server.shutdown()
        server.server_close()
    assert len(RulesDatabase(rules)) == 2  # what was stored stays stored


def test_gen_exp_on_an_empty_rules_store_is_a_one_line_error(tmp_path, capsys):
    argv = ["gen-exp", "--rules-db", str(tmp_path / "rules.jsonl"), "--exp-db", str(tmp_path / "exp.jsonl")]
    _assert_aborted_stage(capsys, argv, "rules database has no rules for objective TP", 0)


@pytest.mark.parametrize("command", ["infer", "bench"])
def test_an_embedder_of_another_dimension_is_a_one_line_error(tmp_path, capsys, command):
    paths = _input_files(tmp_path)
    rules, exp = tmp_path / "rules.jsonl", tmp_path / "exp.jsonl"
    assert main(["gen-rules", "--rules-db", str(rules)]) == 0
    assert main(["gen-exp", "--rules-db", str(rules), "--exp-db", str(exp), "--missions", "1"]) == 0
    paths["spec.json"].write_text(json.dumps({"humans": 2, "robots": 2, "pois": 3, "trials": 1, "methods": ["rebel"]}))
    argv = _argv(command, tmp_path, paths)
    if command == "bench":
        argv += ["--rules-db", str(rules), "--exp-db", str(exp)]
    capsys.readouterr()
    assert main([*argv, "--embed-dim", "64"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {exp}: embedded at dim 256, query at dim 64\n"
    assert not (tmp_path / "out").exists()
    assert main([*argv, "--embed-dim", "256"]) == 0  # the store's own dimension


def test_gen_exp_at_another_dimension_is_a_one_line_error_that_stores_nothing(tmp_path, capsys):
    rules, exp = tmp_path / "rules.jsonl", tmp_path / "exp.jsonl"
    assert main(["gen-rules", "--rules-db", str(rules)]) == 0
    argv = ["gen-exp", "--rules-db", str(rules), "--exp-db", str(exp), "--missions", "1"]
    assert main(argv) == 0
    before = exp.read_bytes()
    capsys.readouterr()
    assert main([*argv, "--embed-dim", "64", "--seed", "5"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {exp}: embedded at dim 256, query at dim 64\n"
    assert exp.read_bytes() == before
    assert ExperienceDatabase(exp).dim == 256


@pytest.mark.parametrize("command, stored", [("infer", True), ("gen-exp", True), ("gen-exp", False)])
def test_an_unreachable_embedder_is_a_one_line_error(tmp_path, capsys, command, stored):
    paths = _input_files(tmp_path)
    rules, exp = tmp_path / "rules.jsonl", tmp_path / "exp.jsonl"
    assert main(["gen-rules", "--rules-db", str(rules)]) == 0
    if stored:
        assert main(["gen-exp", "--rules-db", str(rules), "--exp-db", str(exp), "--missions", "1"]) == 0
    before = exp.read_bytes() if stored else b""
    capsys.readouterr()
    endpoint = "http://127.0.0.1:9/v1"
    argv = [*_argv(command, tmp_path, paths), "--embedder", "http", "--endpoint", endpoint, "--retries", "0"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {endpoint}: ") and captured.err.count("\n") == 1
    assert (exp.read_bytes() if exp.exists() else b"") == before  # nothing stored


@pytest.mark.parametrize("command", ["infer", "bench"])
def test_a_stored_plan_that_does_not_decode_is_a_one_line_error(tmp_path, capsys, command):
    paths = _input_files(tmp_path)
    rules, exp = tmp_path / "rules.jsonl", tmp_path / "exp.jsonl"
    assert main(["gen-rules", "--rules-db", str(rules)]) == 0
    assert main(["gen-exp", "--rules-db", str(rules), "--exp-db", str(exp), "--missions", "1"]) == 0
    records = [json.loads(line) for line in exp.read_text(encoding="utf-8").splitlines()]
    exp.write_text("".join(json.dumps({**r, "plan": "T_0: (NOPE_9)"}) + "\n" for r in records))
    paths["spec.json"].write_text(json.dumps({"trials": 1, "methods": ["rebel"]}))
    argv = _argv(command, tmp_path, paths)
    if command == "bench":
        argv += ["--rules-db", str(rules), "--exp-db", str(exp)]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert re.match(rf"error: {re.escape(str(exp))}: experience record \d+: bad plan: ", captured.err)


@pytest.mark.parametrize("command", ["infer", "bench"])
def test_a_stored_section_of_zero_norm_is_a_one_line_error(tmp_path, capsys, command):
    paths = _input_files(tmp_path)
    rules, exp = tmp_path / "rules.jsonl", tmp_path / "exp.jsonl"
    assert main(["gen-rules", "--rules-db", str(rules)]) == 0
    assert main(["gen-exp", "--rules-db", str(rules), "--exp-db", str(exp), "--missions", "1"]) == 0
    lines = exp.read_text(encoding="utf-8").splitlines()
    record = json.loads(lines[1])
    lines[1] = json.dumps({**record, "emb_humans": [0.0] * len(record["emb_humans"])})
    exp.write_text("\n".join(lines) + "\n")
    paths["spec.json"].write_text(json.dumps({"trials": 1, "methods": ["rebel"]}))
    argv = _argv(command, tmp_path, paths)
    if command == "bench":
        argv += ["--rules-db", str(rules), "--exp-db", str(exp)]
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: {exp}: experience record {record['id']}: zero vectors carry no direction\n"
    )
