from __future__ import annotations

import hashlib
import json
import random
import statistics
import tempfile
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rebel.bench import enumerate_plans, random_scenario
from rebel.core import (
    Assignment,
    HumanProfile,
    ItaPlan,
    MissionScenario,
    RobotProfile,
    TaskSpec,
    Tier,
)
from rebel.sim import (
    SimConfig,
    complexity_factor,
    fatigue_factor,
    human_accuracy_probability,
    robot_accuracy_probability,
    run_mission,
    schedule_plans,
    travel_time,
    workload_factor,
)
from conftest import DEEPLY_NESTED, json_values, make_scenario

CFG = SimConfig()


class TestTravelTime:
    def test_straight_line(self):
        assert travel_time((0, 0), (0, 1000), 10) == pytest.approx(100.0)

    def test_zero_distance(self):
        assert travel_time((0, 0), (0, 0), 5) == 0.0

    def test_345_triangle(self):
        assert travel_time((0, 0), (300, 400), 10) == pytest.approx(50.0)

    def test_nonpositive_speed_rejected(self):
        with pytest.raises(ValueError):
            travel_time((0, 0), (1, 1), 0)


class TestHumanAccuracy:
    def test_fresh_medium_operator_at_midpoint_difficulty(self):
        # 0.80 base * 1.0 skill * 1.0 fatigue * 1.0 workload * 0.75 complexity
        profile = HumanProfile("H_0", cognition=Tier.MED, skill=Tier.MED)
        p = human_accuracy_probability(profile, 0.0, 0, Tier.MED, CFG)
        assert p == pytest.approx(0.60, abs=1e-12)

    def test_sigmoid_midpoint_forces_three_quarters_factor(self):
        profile = HumanProfile("H_0", cognition=Tier.HIGH, skill=Tier.MED)
        expected = CFG.human_base_accuracy[Tier.HIGH] * CFG.skill_multiplier[Tier.MED] * 0.75
        p = human_accuracy_probability(profile, 0.0, 0, Tier.MED, CFG)
        assert p == pytest.approx(expected, abs=1e-12)

    def test_fatigue_floor_saturates(self):
        threshold = CFG.fatigue_horizon_s * (1 - CFG.fatigue_floor)
        assert fatigue_factor(threshold, CFG) == pytest.approx(CFG.fatigue_floor)
        assert fatigue_factor(threshold + 5000, CFG) == CFG.fatigue_floor

    def test_monotone_in_elapsed_load_and_difficulty(self):
        profile = HumanProfile("H_0", cognition=Tier.MED, skill=Tier.HIGH)
        grid_t = [0, 100, 500, 1000, 2000, 4000]
        grid_load = [0, 1, 2, 5, 10]
        for difficulty in Tier:
            for load in grid_load:
                ps = [human_accuracy_probability(profile, t, load, difficulty, CFG) for t in grid_t]
                assert ps == sorted(ps, reverse=True) or all(
                    a >= b - 1e-12 for a, b in zip(ps, ps[1:])
                )
            for t in grid_t:
                ps = [human_accuracy_probability(profile, t, q, difficulty, CFG) for q in grid_load]
                assert all(a >= b - 1e-12 for a, b in zip(ps, ps[1:]))
        for t in grid_t:
            for load in grid_load:
                by_difficulty = [
                    human_accuracy_probability(profile, t, load, d, CFG) for d in Tier
                ]
                assert all(a >= b - 1e-12 for a, b in zip(by_difficulty, by_difficulty[1:]))

    def test_clamped_to_floor_and_ceiling(self):
        weak = HumanProfile("H_0", cognition=Tier.LOW, skill=Tier.LOW)
        p = human_accuracy_probability(weak, 1e6, 1000, Tier.HIGH, CFG)
        assert p == 0.05

    def test_negative_elapsed_rejected(self):
        profile = HumanProfile("H_0", cognition=Tier.MED, skill=Tier.MED)
        with pytest.raises(ValueError):
            human_accuracy_probability(profile, -1.0, 0, Tier.LOW, CFG)


class TestRobotAccuracy:
    def test_high_camera_easy_task_default(self):
        assert robot_accuracy_probability(Tier.HIGH, Tier.LOW, None, CFG) == pytest.approx(0.85)

    def test_low_camera_hard_task_hits_at_least_floor(self):
        assert robot_accuracy_probability(Tier.LOW, Tier.HIGH, None, CFG) >= 0.05

    def test_monotone_in_camera_and_difficulty(self):
        for difficulty in Tier:
            ps = [robot_accuracy_probability(cam, difficulty, None, CFG) for cam in Tier]
            assert all(a <= b + 1e-12 for a, b in zip(ps, ps[1:]))
        for camera in Tier:
            ps = [robot_accuracy_probability(camera, d, None, CFG) for d in Tier]
            assert all(a >= b - 1e-12 for a, b in zip(ps, ps[1:]))

    def test_shared_control_quality_boost(self):
        solo = robot_accuracy_probability(Tier.MED, Tier.MED, None, CFG)
        helped = robot_accuracy_probability(Tier.MED, Tier.MED, Tier.HIGH, CFG)
        hindered = robot_accuracy_probability(Tier.MED, Tier.MED, Tier.LOW, CFG)
        assert helped > solo > hindered


def single_task_scenario() -> MissionScenario:
    return make_scenario(
        humans=(),
        robots=(("UAV_0", 10.0, Tier.HIGH),),
        tasks=(("T_0", (0.0, 1000.0), Tier.LOW),),
    )


class TestRunMission:
    def test_empty_mission_is_all_zero(self):
        scenario = make_scenario(tasks=())
        record, trace = run_mission(scenario, ItaPlan({}), CFG)
        assert (record.accuracy_points, record.mission_seconds, record.human_utilization) == (0, 0, 0)
        assert trace.outcomes == {}

    def test_determinism_bit_identical(self, scenario, shared_plan):
        cfg = CFG.with_seed(123)
        first = run_mission(scenario, shared_plan, cfg)
        second = run_mission(scenario, shared_plan, cfg)
        assert first == second

    def test_invalid_plan_rejected_with_first_violation(self, scenario):
        plan = ItaPlan({"T_0": Assignment("UAV_0")})
        with pytest.raises(ValueError, match="T_1 unassigned"):
            run_mission(scenario, plan, CFG)

    def test_monte_carlo_matches_bernoulli_parameter(self):
        scenario = single_task_scenario()
        plan = ItaPlan({"T_0": Assignment("UAV_0")})
        hits = 0
        n = 10_000
        for seed in range(n):
            record, _ = run_mission(scenario, plan, CFG.with_seed(seed))
            hits += record.accuracy_points > 0
        assert hits / n == pytest.approx(0.85, abs=0.02)

    def test_all_autonomous_mission_has_zero_utilization(self, scenario, autonomous_plan):
        record, _ = run_mission(scenario, autonomous_plan, CFG.with_seed(3))
        assert record.human_utilization == 0.0

    def test_shared_control_scales_travel_speed(self, scenario):
        # H_1 has high skill: the same route finishes faster under its control.
        solo = ItaPlan({
            "T_0": Assignment("UAV_0"),
            "T_1": Assignment("UAV_0"),
        })
        helped = ItaPlan({
            "T_0": Assignment("UAV_0", "H_1"),
            "T_1": Assignment("UAV_0", "H_1"),
        })
        solo_record, solo_trace = run_mission(scenario, solo, CFG.with_seed(1))
        helped_record, helped_trace = run_mission(scenario, helped, CFG.with_seed(1))
        solo_last_arrival = max(end for _, end in solo_trace.busy["UAV_0"])
        helped_last_arrival = max(end for _, end in helped_trace.busy["UAV_0"])
        assert helped_last_arrival < solo_last_arrival

    def test_analysis_queue_is_fifo_and_busy_intervals_recorded(self, scenario, shared_plan):
        record, trace = run_mission(scenario, shared_plan, CFG.with_seed(9))
        assert record.human_utilization > 0
        for agent, spans in trace.busy.items():
            for (s0, e0), (s1, e1) in zip(spans, spans[1:]):
                assert e0 <= s1 + 1e-9
                assert s0 <= e0 and s1 <= e1

    def test_trace_covers_all_tasks_and_renders(self, scenario, shared_plan):
        _, trace = run_mission(scenario, shared_plan, CFG.with_seed(9))
        assert set(trace.outcomes) == scenario.task_ids()
        rendered = trace.render_events()
        assert "classify" in rendered and "enqueue" in rendered

    def test_mission_time_includes_analysis_tail(self, scenario, shared_plan):
        _, trace = run_mission(scenario, shared_plan, CFG.with_seed(9))
        last_arrival = max(end for agent in ("UAV_0", "UGV_0") for _, end in trace.busy[agent])
        completions = [o.completion_s for o in trace.outcomes.values()]
        assert max(completions) > last_arrival  # analysts finish after capture


def random_plan(scenario, rng) -> ItaPlan:
    robots = [r.id for r in scenario.robots]
    humans = [h.id for h in scenario.humans]
    assignments = {}
    for task in scenario.tasks:
        robot = rng.choice(robots)
        roll = rng.random()
        if not humans or roll < 1 / 3:
            assignments[task.id] = Assignment(robot)
        else:
            assignments[task.id] = Assignment(robot, rng.choice(humans))
    return ItaPlan(assignments)


def random_small_scenario(rng) -> MissionScenario:
    tiers = list(Tier)
    humans = tuple(
        HumanProfile(f"H_{i}", rng.choice(tiers), rng.choice(tiers))
        for i in range(rng.randint(1, 3))
    )
    robots = tuple(
        RobotProfile(f"UGV_{i}", rng.uniform(3, 15), rng.choice(tiers))
        for i in range(rng.randint(1, 4))
    )
    tasks = tuple(
        TaskSpec(f"T_{i}", (rng.uniform(0, 2000), rng.uniform(0, 2000)), rng.choice(tiers))
        for i in range(rng.randint(0, 8))
    )
    return MissionScenario(humans=humans, robots=robots, tasks=tasks)


class TestSimInvariants:
    def test_randomized_invariant_sweep(self):
        rng = random.Random(2024)
        for trial in range(300):
            scenario = random_small_scenario(rng)
            plan = random_plan(scenario, rng)
            cfg = CFG.with_seed(trial)
            record, trace = run_mission(scenario, plan, cfg)

            assert 0.0 <= record.human_utilization <= 1.0
            assert record.accuracy_points <= cfg.points_per_correct * len(scenario.tasks)

            # geometric lower bound per robot route
            for robot in scenario.robots:
                spans = trace.busy[robot.id]
                if spans:
                    assert record.mission_seconds >= spans[-1][1] - 1e-9

            # agent timelines are non-decreasing
            for spans in trace.busy.values():
                flat = [t for span in spans for t in span]
                assert flat == sorted(flat)

    def test_geometric_lower_bound_explicit(self):
        rng = random.Random(7)
        for trial in range(100):
            scenario = random_small_scenario(rng)
            plan = random_plan(scenario, rng)
            cfg = CFG.with_seed(trial)
            record, _ = run_mission(scenario, plan, cfg)
            tasks = {t.id: t for t in scenario.tasks}
            humans = {h.id: h for h in scenario.humans}
            for robot in scenario.robots:
                pos = (0.0, 0.0)
                total = 0.0
                for task_id, (agent, human) in plan.assignments.items():
                    if agent != robot.id:
                        continue
                    task = tasks[task_id]
                    speed = robot.speed
                    if human is not None:
                        speed *= cfg.shared_speed_multiplier[humans[human].skill]
                    total += travel_time(pos, task.location, speed)
                    pos = task.location
                assert record.mission_seconds >= total - 1e-9

    def test_raising_speeds_never_slows_mission(self):
        rng = random.Random(99)
        for trial in range(60):
            scenario = random_small_scenario(rng)
            plan = random_plan(scenario, rng)
            cfg = CFG.with_seed(trial)
            faster = MissionScenario(
                humans=scenario.humans,
                robots=tuple(
                    RobotProfile(r.id, r.speed * 1.5, r.camera_quality)
                    for r in scenario.robots
                ),
                tasks=scenario.tasks,
                arena_side=scenario.arena_side,
            )
            base_record, _ = run_mission(scenario, plan, cfg)
            fast_record, _ = run_mission(faster, plan, cfg)
            assert fast_record.mission_seconds <= base_record.mission_seconds + 1e-9

    def test_outcome_keyed_per_agent_task(self):
        # Adding an unrelated task on another robot leaves T_0's draw unchanged.
        base = make_scenario(
            humans=(),
            robots=(("UAV_0", 10.0, Tier.HIGH), ("UGV_0", 8.0, Tier.MED)),
            tasks=(("T_0", (100.0, 100.0), Tier.LOW),),
        )
        extended = make_scenario(
            humans=(),
            robots=(("UAV_0", 10.0, Tier.HIGH), ("UGV_0", 8.0, Tier.MED)),
            tasks=(("T_0", (100.0, 100.0), Tier.LOW), ("T_1", (1500.0, 900.0), Tier.MED)),
        )
        plan_base = ItaPlan({"T_0": Assignment("UAV_0")})
        plan_ext = ItaPlan(
            {
                "T_0": Assignment("UAV_0"),
                "T_1": Assignment("UGV_0"),
            }
        )
        for seed in range(50):
            _, trace_a = run_mission(base, plan_base, CFG.with_seed(seed))
            _, trace_b = run_mission(extended, plan_ext, CFG.with_seed(seed))
            assert trace_a.outcomes["T_0"].correct == trace_b.outcomes["T_0"].correct


class TestSimGolden:
    # sha256 over records, rendered events, busy spans and outcomes, recorded
    # from an earlier implementation of the simulator: any change to a time,
    # a probability, a coin flip or the order of the trace changes the digest
    GOLDEN = "192a619591946368fbb3e4fa4d2b9f316a69c7cae9ee9f90e0e5d77c68f3441d"

    def test_missions_match_the_pinned_digest(self):
        rng = random.Random(606)
        digest = hashlib.sha256()
        for case in range(320):
            # the last 20 cases are long queues, where waiting counts grow
            tasks = rng.randint(0, 10) if case < 300 else 40
            scenario = random_scenario(rng.randint(0, 3), rng.randint(1, 4), tasks, seed=case)
            plan = random_plan(scenario, rng)
            for _ in range(2):
                record, trace = run_mission(scenario, plan, CFG.with_seed(rng.randrange(10**6)))
                for part in (
                    record.serialize(),
                    trace.render_events(),
                    repr(list(trace.busy.items())),
                    repr(list(trace.outcomes.values())),
                ):
                    digest.update(part.encode() + b"\n")
        assert digest.hexdigest() == self.GOLDEN

    # the same parts of a trace under constants other than the defaults,
    # recorded before the trace was built lazily
    CONFIG_GOLDEN = "89be9d51b486eaba4557fa14a2743a2a67a3c289bcf3e20a8bac6f09b2ae12ac"
    CONFIGS = (
        SimConfig(shared_speed_multiplier={Tier.LOW: 0.5, Tier.MED: 1.5, Tier.HIGH: 2.5}),
        SimConfig(fatigue_floor=0.3, fatigue_horizon_s=600.0, workload_coef=0.5,
                  analysis_service_s={Tier.LOW: 5.0, Tier.MED: 90.0, Tier.HIGH: 200.0}),
    )

    def test_missions_under_other_constants_match_the_pinned_digest(self):
        rng = random.Random(707)
        digest = hashlib.sha256()
        for case in range(200):
            scenario = random_scenario(
                rng.randint(0, 4), rng.randint(1, 5), rng.randint(0, 15), seed=10_000 + case
            )
            cfg = self.CONFIGS[case % 2].with_seed(rng.randrange(10**6))
            record, trace = run_mission(scenario, random_plan(scenario, rng), cfg)
            for part in (
                record.serialize(),
                trace.render_events(),
                repr(list(trace.outcomes.values())),
                repr(list(trace.busy.items())),
            ):
                digest.update(part.encode() + b"\n")
        assert digest.hexdigest() == self.CONFIG_GOLDEN

    @pytest.mark.parametrize("multiplier", [0.0, -1.0, float("nan")])
    def test_shared_speed_at_or_below_zero_is_a_value_error(self, multiplier):
        # refused where the config is made, before any plan or mission divides by it
        speeds = {Tier.LOW: 1.0, Tier.MED: multiplier, Tier.HIGH: 1.0}
        with pytest.raises(ValueError, match=f"^shared_speed_multiplier.Med must be > 0, got {multiplier}$"):
            SimConfig(shared_speed_multiplier=speeds)

    def test_a_scaled_speed_that_underflows_to_zero_is_a_value_error(self):
        # both factors pass their own checks, their product does not
        cfg = SimConfig(shared_speed_multiplier={tier: 1e-300 for tier in Tier})
        scenario = make_scenario(robots=(("UAV_0", 1e-300, Tier.MED),), tasks=(("T_0", (300.0, 400.0), Tier.HIGH),))
        with pytest.raises(ValueError, match=r"^speed must be > 0, got 0\.0$"):
            run_mission(scenario, ItaPlan({"T_0": Assignment("UAV_0", "H_0")}), cfg)


class TestQueueScaling:
    @staticmethod
    def median_run_s(tasks: int) -> float:
        # one analyst shares every task, so its queue is as long as the mission
        scenario = random_scenario(1, 10, tasks, seed=tasks)
        robots = [r.id for r in scenario.robots]
        plan = ItaPlan({
            task.id: Assignment(robots[i % len(robots)], "H_0")
            for i, task in enumerate(scenario.tasks)
        })
        # CPU time of this process: other processes on the vCPUs do not count
        times = []
        for _ in range(5):
            start = time.process_time()
            run_mission(scenario, plan, CFG)
            times.append(time.process_time() - start)
        return statistics.median(times)

    def test_one_analyst_queue_grows_near_linearly(self):
        # 4x the tasks: a quadratic waiting count would take about 16x as long
        ratio = self.median_run_s(2000) / self.median_run_s(500)
        assert ratio < 8.0


def plan_indices(scenario, plans):
    """`schedule_plans`'s robot and human index arrays for `plans`."""
    robots = {r.id: i for i, r in enumerate(scenario.robots)}
    humans = {h.id: i for i, h in enumerate(scenario.humans)}
    shape = (len(plans), len(scenario.tasks))
    robot_of = [robots[p.assignments[t.id].robot] for p in plans for t in scenario.tasks]
    human_of = [
        humans.get(p.assignments[t.id].human, -1) for p in plans for t in scenario.tasks
    ]
    return (
        np.array(robot_of, dtype=np.intp).reshape(shape),
        np.array(human_of, dtype=np.intp).reshape(shape),
    )


# the fatigue floor binds for every analysis, since each ends after 10 s
FLOORED = SimConfig(fatigue_floor=0.95, fatigue_horizon_s=200.0, workload_coef=0.7)


class TestSchedulePlans:
    def assert_equal_to_one_plan_missions(self, scenario, cfg):
        plans = enumerate_plans(scenario)
        arrays = schedule_plans(scenario, *plan_indices(scenario, plans), cfg)
        agents = [a.id for a in scenario.robots + scenario.humans]
        for n, plan in enumerate(plans):
            record, trace = run_mission(scenario, plan, cfg)
            assert arrays.mission_seconds[n] == record.mission_seconds
            assert arrays.utilization[n] == record.human_utilization
            assert {
                task.id: (agents[arrays.classifier[n, t]], arrays.p_correct[n, t])
                for t, task in enumerate(scenario.tasks)
            } == {task_id: (agent, p) for task_id, _, agent, _, p in trace.classifications}

    # (1, 3, 3) and (2, 1, 4) include plans that leave robots without tasks
    @pytest.mark.parametrize("team", [(2, 2, 3), (1, 3, 3), (3, 2, 2), (0, 2, 3), (2, 1, 4)])
    @pytest.mark.parametrize("cfg", [CFG, FLOORED], ids=["default", "floored"])
    def test_equal_to_one_plan_at_a_time(self, team, cfg):
        for seed in (0, 1):
            self.assert_equal_to_one_plan_missions(random_scenario(*team, seed=seed), cfg)

    @pytest.mark.parametrize("cfg", [CFG, FLOORED], ids=["default", "floored"])
    def test_simultaneous_captures_for_one_human(self, cfg):
        # equal speeds and distances: T_0 and T_1 reach an analyst at one time
        scenario = make_scenario(
            robots=(("UAV_0", 10.0, Tier.MED), ("UGV_0", 10.0, Tier.LOW)),
            tasks=(
                ("T_0", (300.0, 400.0), Tier.HIGH),
                ("T_1", (400.0, 300.0), Tier.LOW),
                ("T_2", (600.0, 800.0), Tier.MED),
            ),
        )
        plan = ItaPlan({
            "T_0": Assignment("UAV_0", "H_0"),
            "T_1": Assignment("UGV_0", "H_0"),
            "T_2": Assignment("UGV_0"),
        })
        captures = run_mission(scenario, plan, cfg)[1].captures
        assert captures[0][0] == captures[1][0] and captures[0][3] == captures[1][3] == "H_0"
        self.assert_equal_to_one_plan_missions(scenario, cfg)

    def test_no_tasks_and_no_plans(self):
        empty = make_scenario(tasks=())
        arrays = schedule_plans(empty, *plan_indices(empty, [ItaPlan({})]), CFG)
        assert arrays.mission_seconds.tolist() == arrays.utilization.tolist() == [0.0]
        none = schedule_plans(make_scenario(), *plan_indices(make_scenario(), []), CFG)
        assert none.p_correct.shape == (0, 2) and none.mission_seconds.shape == (0,)


class TestSimConfigFile:
    def test_config_file_round_trip(self, tmp_path):
        cfg = SimConfig(seed=42, workload_coef=0.2)
        path = tmp_path / "sim.json"
        cfg.dump(path)
        assert SimConfig.load(path) == cfg

    def test_invalid_horizon_rejected(self):
        with pytest.raises(ValueError):
            SimConfig(fatigue_horizon_s=0.0)

    @pytest.mark.parametrize(
        "raw, message",
        [
            ({"fatigue_flor": 0.5}, 'unknown sim config keys ["fatigue_flor"]'),
            ([0.5], "a sim config must be an object, got [0.5]"),
            ({"skill_multiplier": 1.0}, "skill_multiplier must be an object giving each tier a number"),
            ({"skill_multiplier": {"Lo": 0.8, "Med": 1.0}}, "skill_multiplier gives no number for tier Hi"),
            ({"skill_multiplier": {"Lo": 1, "Med": 1, "Hi": 1, "Top": 2}}, 'skill_multiplier: unknown tier "Top"'),
            ({"skill_multiplier": {"Lo": 1, "Med": 1, "Hi": "1"}}, 'skill_multiplier.Hi must be a finite number, got "1"'),
            ({"workload_coef": float("nan")}, "workload_coef must be a finite number, got NaN"),
            ({"points_per_correct": float("inf")}, "points_per_correct must be a finite number"),
            ({"fatigue_floor": None}, "fatigue_floor must be a finite number, got null"),
            ({"fatigue_floor": True}, "fatigue_floor must be a finite number, got true"),
            ({"seed": 1.5}, "seed must be an integer, got 1.5"),
            ({"points_per_correct": 10**400}, "points_per_correct must be a finite number, got 1000"),
            ({"skill_multiplier": {"Lo": 1, "Med": 1, "Hi": -(10**400)}}, "skill_multiplier.Hi must be a finite number"),
        ],
    )
    def test_a_bad_file_is_a_value_error_naming_the_key(self, tmp_path, raw, message):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(ValueError) as info:
            SimConfig.load(path)
        assert message in str(info.value)

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"fatigue_horizon_s": 0.0}, "fatigue_horizon_s must be > 0, got 0.0"),
            ({"fatigue_floor": 1.5}, "fatigue_floor must lie in [0, 1], got 1.5"),
            ({"analysis_service_s": {Tier.LOW: -20.0, Tier.MED: 40.0, Tier.HIGH: 60.0}},
             "analysis_service_s.Lo must be >= 0, got -20.0"),
            ({"points_per_correct": -5.0}, "points_per_correct must be >= 0, got -5.0"),
            ({"workload_coef": -1.0}, "workload_coef must be >= 0, got -1.0"),
            ({"workload_coef": float("nan")}, "workload_coef must be >= 0, got nan"),
        ],
        ids=["horizon", "floor", "service", "points", "workload", "workload-nan"],
    )
    def test_a_constant_out_of_range_is_a_value_error_naming_the_key(self, values, message):
        with pytest.raises(ValueError) as info:
            SimConfig(**values)
        assert str(info.value) == message

    def test_zero_service_time_points_and_workload_are_allowed(self):
        zero = SimConfig(analysis_service_s={tier: 0.0 for tier in Tier}, points_per_correct=0, workload_coef=0)
        assert zero.points_per_correct == zero.workload_coef == 0

    @pytest.mark.parametrize("text", [DEEPLY_NESTED, '{"seed": ' + DEEPLY_NESTED], ids=["bare", "under-a-key"])
    def test_json_nested_too_deeply_is_a_value_error(self, tmp_path, text):
        path = tmp_path / "sim.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ValueError, match="JSON nested too deeply to decode"):
            SimConfig.load(path)

    @settings(max_examples=60, deadline=None)
    @given(raw=st.dictionaries(
        st.sampled_from([f.name for f in fields(SimConfig)]),
        json_values() | st.dictionaries(st.sampled_from(["Lo", "Med", "Hi"]), json_values(), min_size=3),
        min_size=1, max_size=3,
    ))
    @example(raw={"points_per_correct": 10**400})
    @example(raw={"analysis_service_s": {"Lo": 1, "Med": 2**1024, "Hi": 3}})
    def test_any_json_value_under_any_key_loads_or_is_a_value_error(self, raw):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "sim.json"
            path.write_text(json.dumps(raw), encoding="utf-8")
            try:
                SimConfig.load(path)
            except ValueError:
                pass  # any other exception type fails the test

    def test_a_partial_file_keeps_the_other_defaults(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text('{"seed": 7, "workload_coef": 0, "skill_multiplier": {"low": 1, "MED": 2, "Hi": 3}}')
        want = SimConfig(seed=7, workload_coef=0, skill_multiplier={Tier.LOW: 1.0, Tier.MED: 2.0, Tier.HIGH: 3.0})
        assert SimConfig.load(path) == want


def test_workload_and_complexity_shapes():
    assert workload_factor(0, CFG) == 1.0
    assert workload_factor(10, CFG) < workload_factor(1, CFG)
    assert complexity_factor(Tier.MED, CFG) == pytest.approx(0.75)
    assert complexity_factor(Tier.LOW, CFG) > 0.75 > complexity_factor(Tier.HIGH, CFG)
