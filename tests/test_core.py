from __future__ import annotations

import copy
import dataclasses
import json
import math
import pickle
import random

import pytest

from rebel.core import (
    Assignment,
    HumanProfile,
    ItaPlan,
    MissionScenario,
    NormalizationBounds,
    Objective,
    ObjectiveBounds,
    PerformanceRecord,
    PreferenceVector,
    Tier,
    aggregate_objective,
    echo,
    fmt_num,
    natural_key,
    normalize_objective,
    ordered_sum,
    validate_plan,
)
from rebel.sim import SimConfig
from conftest import make_scenario


class TestNormalizeObjective:
    def test_max_value_maximize_is_one(self):
        bounds = ObjectiveBounds(0.0, 10.0)
        assert normalize_objective(10.0, Objective.TASK_PERFORMANCE, bounds) == 1.0

    def test_max_value_minimize_is_zero(self):
        bounds = ObjectiveBounds(0.0, 10.0)
        assert normalize_objective(10.0, Objective.MISSION_TIME, bounds) == 0.0

    def test_midpoint_is_half_either_direction(self):
        for objective in Objective:
            bounds = ObjectiveBounds(2.0, 6.0)
            assert normalize_objective(4.0, objective, bounds) == pytest.approx(0.5)

    def test_clamped_to_unit_interval(self):
        bounds = ObjectiveBounds(0.0, 1.0)
        assert normalize_objective(-5.0, Objective.TASK_PERFORMANCE, bounds) == 0.0
        assert normalize_objective(7.0, Objective.TASK_PERFORMANCE, bounds) == 1.0

    def test_non_finite_value_rejected(self):
        bounds = ObjectiveBounds(0.0, 1.0)
        with pytest.raises(ValueError):
            normalize_objective(float("nan"), Objective.TASK_PERFORMANCE, bounds)

    def test_bounds_require_lo_below_hi(self):
        with pytest.raises(ValueError):
            ObjectiveBounds(1.0, 1.0)


def bounds_for(tp=(0.0, 100.0), mt=(0.0, 1000.0), hw=(0.0, 1.0)) -> NormalizationBounds:
    return NormalizationBounds(
        {
            Objective.TASK_PERFORMANCE: ObjectiveBounds(*tp),
            Objective.MISSION_TIME: ObjectiveBounds(*mt),
            Objective.HUMAN_WORKLOAD: ObjectiveBounds(*hw),
        }
    )


class TestAggregateObjective:
    def test_single_objective_collapse(self):
        record = PerformanceRecord(80.0, 500.0, 0.3)
        prefs = PreferenceVector.single(Objective.TASK_PERFORMANCE)
        assert aggregate_objective(record, prefs, bounds_for()) == pytest.approx(0.8)

    def test_all_best_scores_give_one(self):
        record = PerformanceRecord(100.0, 0.0, 0.0)
        prefs = PreferenceVector.of(TP=0.5, MT=0.25, HW=0.25)
        assert aggregate_objective(record, prefs, bounds_for()) == pytest.approx(1.0)

    def test_weighted_substitution(self):
        # Best TP, worst MT and HW: only the TP weight survives.
        record = PerformanceRecord(100.0, 1000.0, 1.0)
        prefs = PreferenceVector.of(TP=0.5, MT=0.25, HW=0.25)
        assert aggregate_objective(record, prefs, bounds_for()) == pytest.approx(0.5)

    def test_missing_bounds_is_error(self):
        record = PerformanceRecord(10.0, 10.0, 0.1)
        prefs = PreferenceVector.single(Objective.HUMAN_WORKLOAD)
        partial = NormalizationBounds(
            {Objective.TASK_PERFORMANCE: ObjectiveBounds(0, 1)}
        )
        with pytest.raises(KeyError):
            aggregate_objective(record, prefs, partial)

    def test_monotone_in_each_normalized_score(self):
        prefs = PreferenceVector.of(TP=0.4, MT=0.4, HW=0.2)
        rng = random.Random(11)
        for _ in range(200):
            a = PerformanceRecord(rng.uniform(0, 100), rng.uniform(0, 1000), rng.random())
            # improve one objective, keep the rest
            better = PerformanceRecord(
                min(100.0, a.accuracy_points + rng.uniform(0, 20)),
                a.mission_seconds,
                a.human_utilization,
            )
            b = bounds_for()
            assert aggregate_objective(better, prefs, b) >= aggregate_objective(a, prefs, b) - 1e-12

    def test_weight_order_irrelevant(self):
        record = PerformanceRecord(42.0, 420.0, 0.42)
        fwd = PreferenceVector.of(TP=0.5, MT=0.3, HW=0.2)
        rev = PreferenceVector.of(HW=0.2, MT=0.3, TP=0.5)
        assert aggregate_objective(record, fwd, bounds_for()) == pytest.approx(
            aggregate_objective(record, rev, bounds_for())
        )

    def test_single_objective_sign_matches_raw_comparison(self):
        rng = random.Random(5)
        b = bounds_for()
        for objective in Objective:
            prefs = PreferenceVector.single(objective)
            for _ in range(50):
                r1 = PerformanceRecord(rng.uniform(1, 99), rng.uniform(1, 999), rng.random())
                r2 = PerformanceRecord(rng.uniform(1, 99), rng.uniform(1, 999), rng.random())
                j_diff = aggregate_objective(r1, prefs, b) - aggregate_objective(r2, prefs, b)
                raw_diff = r1.value(objective) - r2.value(objective)
                if not objective.maximized:
                    raw_diff = -raw_diff
                if abs(raw_diff) > 1e-9:
                    assert math.copysign(1, j_diff) == math.copysign(1, raw_diff)


class TestPreferenceVector:
    def test_weights_normalized_to_unit_sum(self):
        prefs = PreferenceVector.of(TP=0.5, MT=0.5, HW=0.5)
        assert sum(w for _, w in prefs.weights) == pytest.approx(1.0, abs=1e-9)

    def test_duplicate_objectives_rejected(self):
        with pytest.raises(ValueError):
            PreferenceVector(((Objective.MISSION_TIME, 0.5), (Objective.MISSION_TIME, 0.5)))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            PreferenceVector(((Objective.MISSION_TIME, -0.1),))

    def test_weights_are_divided_by_their_left_to_right_total(self):
        # built-in `sum` gives 1.3 from Python 3.12 on
        total = 0.1 + 0.5 + 0.7
        assert total == 1.2999999999999998
        prefs = PreferenceVector.of(TP=0.1, MT=0.5, HW=0.7)
        assert [w for _, w in prefs.weights] == [0.1 / total, 0.5 / total, 0.7 / total]

    def test_dominant_detection(self):
        assert PreferenceVector.of(TP=0.5, MT=0.25, HW=0.25).dominant() is Objective.TASK_PERFORMANCE
        assert PreferenceVector.of(TP=0.5, MT=0.5).dominant() is None


def test_ordered_sum_adds_left_to_right_from_zero():
    # built-in `sum` compensates float rounding from Python 3.12 on and gives 1.0
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert ordered_sum([]) == 0.0
    assert math.copysign(1.0, ordered_sum([-0.0])) == 1.0  # 0.0 + -0.0, as `sum` gives


class TestValidatePlan:
    def test_full_coverage_ok(self, scenario, shared_plan):
        assert validate_plan(shared_plan, scenario).ok

    def test_ok_implies_task_coverage(self, scenario, shared_plan):
        check = validate_plan(shared_plan, scenario)
        assert check.ok
        assert shared_plan.task_ids() >= scenario.task_ids()

    def test_missing_task_reported(self, scenario):
        plan = ItaPlan({"T_0": Assignment("UAV_0")})
        check = validate_plan(plan, scenario)
        assert not check.ok
        assert any("T_1 unassigned" in v for v in check.violations)

    def test_unknown_agent_reported(self, scenario):
        plan = ItaPlan(
            {
                "T_0": Assignment("UAV_9"),
                "T_1": Assignment("UGV_0"),
            }
        )
        check = validate_plan(plan, scenario)
        assert not check.ok
        assert any("unknown agent UAV_9" in v for v in check.violations)

    def test_unknown_analyst_reported(self, scenario):
        plan = ItaPlan(
            {
                "T_0": Assignment("UAV_0", "H_9"),
                "T_1": Assignment("UGV_0"),
            }
        )
        check = validate_plan(plan, scenario)
        assert not check.ok
        assert any("unknown human H_9" in v for v in check.violations)

    def test_unknown_task_reported(self, scenario, shared_plan):
        plan = ItaPlan(
            dict(shared_plan.assignments) | {"T_9": Assignment("UAV_0")}
        )
        check = validate_plan(plan, scenario)
        assert any("unknown task T_9" in v for v in check.violations)


class TestScenarioSerialization:
    def test_round_trip_is_bit_exact(self, scenario):
        text = scenario.serialize()
        again = MissionScenario.parse(text)
        assert again == scenario
        assert again.serialize() == text

    def test_canonical_rendering_sorts_ids(self):
        base = make_scenario()
        shuffled = MissionScenario(
            humans=tuple(reversed(base.humans)),
            robots=tuple(reversed(base.robots)),
            tasks=tuple(reversed(base.tasks)),
            arena_side=base.arena_side,
        )
        assert shuffled.render_spf() == base.render_spf()

    def test_spf_section_feeds_serialization(self, scenario):
        assert scenario.render_spf() in scenario.serialize()

    def test_parse_without_arena_uses_default(self, scenario):
        parsed = MissionScenario.parse(scenario.render_spf())
        assert parsed.arena_side == 2000.0

    def test_task_outside_arena_rejected(self):
        with pytest.raises(ValueError):
            make_scenario(tasks=(("T_0", (2500.0, 10.0), Tier.LOW),))

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            make_scenario(
                humans=(("H_0", Tier.LOW, Tier.LOW), ("H_0", Tier.LOW, Tier.LOW))
            )

    @pytest.mark.parametrize(
        "section, entry",
        [
            ("Human Attributes:", "H_1: [Med]"),
            ("Human Attributes:", "H_1: [Med, Lo, Hi]"),
            ("Robot Details:", "UAV_1: [fast, Hi]"),
            ("Robot Details:", "UGV_1: [5 Hi]"),
            ("Task Info:", "T_1: [10, 20, Lo]"),
            ("Task Info:", "T_1: [(10, 20)]"),
        ],
    )
    def test_an_unreadable_entry_is_named_not_dropped(self, scenario, section, entry):
        lines = scenario.serialize().splitlines()
        index = next(i for i, line in enumerate(lines) if line.startswith(section))
        body = lines[index][len(section):].strip()
        lines[index] = f"{section} {{{entry}, {body[1:-1]}}}" if body != "{}" else f"{section} {{{entry}}}"
        with pytest.raises(ValueError) as info:
            MissionScenario.parse("\n".join(lines))
        assert str(info.value) == f"{section} unreadable entry {echo(entry)}"

    @pytest.mark.parametrize(
        "section, entry, reason",
        [
            ("Human Attributes:", "H_1: [Med, Huge]", 'unknown tier "Huge"'),
            ("Human Attributes:", "H_1: [Top, Lo]", 'unknown tier "Top"'),
            ("Robot Details:", "UAV_1: [5, Best]", 'unknown tier "Best"'),
            ("Robot Details:", "UGV_1: [0, Hi]", "robot UGV_1: speed must be > 0, got 0.0"),
            ("Task Info:", "T_1: [(10, 20), Easy]", 'unknown tier "Easy"'),
        ],
    )
    def test_an_entry_a_member_cannot_take_is_named_with_its_section(self, scenario, section, entry, reason):
        lines = scenario.serialize().splitlines()
        index = next(i for i, line in enumerate(lines) if line.startswith(section))
        lines[index] = lines[index].replace("{", "{" + entry + ", ", 1)
        with pytest.raises(ValueError) as info:
            MissionScenario.parse("\n".join(lines))
        assert str(info.value) == f"{section} {reason} in entry {echo(entry)}"

    def test_empty_sections_parse_to_no_members(self):
        parsed = MissionScenario.parse("Human Attributes: {}\nRobot Details: {}\nTask Info: { }")
        assert parsed.humans == parsed.robots == parsed.tasks == ()

    @pytest.mark.parametrize("side", [math.nan, 0.0, -5.0])
    def test_an_arena_side_that_is_not_above_zero_is_refused(self, side):
        with pytest.raises(ValueError, match=r"^arena side must be > 0, got"):
            make_scenario(tasks=(), arena_side=side)
        with pytest.raises(ValueError, match=r"^arena side must be > 0, got"):
            MissionScenario.parse(f"Arena Side: {side}\nHuman Attributes: {{}}\nRobot Details: {{}}\nTask Info: {{}}")

    def test_an_infinite_arena_is_unbounded_and_round_trips(self):
        scenario = make_scenario(tasks=(("T_0", (1e300, 0.0), Tier.LOW),), arena_side=math.inf)
        assert scenario.serialize().startswith("Arena Side: inf\n")
        assert MissionScenario.parse(scenario.serialize()) == scenario

    def test_a_text_with_no_arena_line_takes_the_side_given(self, scenario):
        wide = make_scenario(tasks=(("T_0", (3000.0, 100.0), Tier.LOW),), arena_side=math.inf)
        assert MissionScenario.parse(wide.render_spf(), math.inf) == wide
        with pytest.raises(ValueError, match=r"^task T_0 outside \[0, 2000.0\]\^2$"):
            MissionScenario.parse(wide.render_spf())
        assert MissionScenario.parse(scenario.serialize(), math.inf) == scenario  # the line wins

    def test_of_two_entries_a_member_cannot_take_the_first_is_named(self, scenario):
        lines = scenario.serialize().splitlines()
        lines[1] = "Human Attributes: {H_0: [Med, Med], H_1: [Top, Lo], H_2: [Hi, Huge]}"
        with pytest.raises(ValueError) as info:
            MissionScenario.parse("\n".join(lines))
        assert str(info.value) == f'Human Attributes: unknown tier "Top" in entry {echo("H_1: [Top, Lo]")}'


class TestDomainEnums:
    """`Tier` and `Objective` members hash by identity; what that relies on."""

    @pytest.mark.parametrize(
        "text, tier",
        [
            ("Lo", Tier.LOW), ("lo", Tier.LOW), (" lo ", Tier.LOW), ("LOW", Tier.LOW),
            ("low", Tier.LOW), ("\tLow\n", Tier.LOW), ("LO", Tier.LOW),
            ("Med", Tier.MED), ("med", Tier.MED), (" Med", Tier.MED), ("MEDIUM", Tier.MED),
            ("medium", Tier.MED), ("Medium ", Tier.MED),
            ("Hi", Tier.HIGH), ("hi", Tier.HIGH), ("Hi ", Tier.HIGH), ("HIGH", Tier.HIGH),
            ("high", Tier.HIGH), (" High\t", Tier.HIGH),
        ],
    )
    def test_every_spelling_parse_accepts_gives_the_member(self, text, tier):
        assert Tier.parse(text) is tier

    @pytest.mark.parametrize("text", ["", " ", "L", "Huge", "lowest", "Med ium", "Hi!", "0", "Tier.LOW", "LOW_"])
    def test_an_unknown_spelling_keeps_its_message(self, text):
        with pytest.raises(ValueError) as info:
            Tier.parse(text)
        assert str(info.value) == f"unknown tier {echo(text)}"

    def test_rank_and_axis(self):
        assert [tier.rank for tier in (Tier.LOW, Tier.MED, Tier.HIGH)] == [0, 1, 2]
        assert [tier.axis for tier in (Tier.LOW, Tier.MED, Tier.HIGH)] == [-1.0, 0.0, 1.0]
        assert all(type(tier.axis) is float for tier in Tier)
        assert [tier.value for tier in Tier] == ["Lo", "Med", "Hi"]
        assert [o.short for o in Objective] == ["TP", "MT", "HW"]

    def test_a_copied_or_unpickled_member_is_the_same_member(self):
        for member in (*Tier, *Objective):
            copies = [copy.copy(member), copy.deepcopy(member)] + [
                pickle.loads(pickle.dumps(member, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)
            ]
            for other in copies:
                assert other is member
                assert hash(other) == hash(member) == object.__hash__(member)
                assert {member: 1}[other] == 1

    def test_a_tier_map_read_by_load_looks_up_by_member(self, tmp_path):
        path = tmp_path / "sim.json"
        path.write_text(json.dumps({"analysis_service_s": {" hi ": 61.5, "LOW": 19, "Medium": 40.25}}))
        service = SimConfig.load(path).analysis_service_s
        assert list(service) == [Tier.HIGH, Tier.LOW, Tier.MED]  # in the file's order
        for text, seconds in (("Hi", 61.5), ("Lo", 19.0), ("Med", 40.25)):
            assert service[Tier.parse(text)] == seconds
        parsed = MissionScenario.parse("Human Attributes: {}\nRobot Details: {}\nTask Info: {T_0: [(1, 2), Hi]}")
        assert service[parsed.tasks[0].difficulty] == 61.5


class TestScenarioTextCache:
    HUMANS = "Human Attributes: {H_0: [Med, Med], H_1: [Hi, Lo]}"
    ROBOTS = "Robot Details: {UAV_0: [13, Lo], UGV_0: [6, Med]}"
    TASKS = "Task Info: {T_0: [(900, 500), Hi], T_1: [(200, 700), Lo]}"

    def test_cached_renders_equal_fresh_ones(self, scenario):
        for _ in range(2):  # the first call renders, the second reads the kept texts
            assert scenario.sections == (self.HUMANS, self.ROBOTS, self.TASKS)
            assert scenario.render_spf() == "\n".join((self.HUMANS, self.ROBOTS, self.TASKS))
            assert scenario.serialize() == "Arena Side: 2000\n" + scenario.render_spf()

    def test_random_scenarios_render_as_their_parsed_copies(self):
        from rebel.bench import random_scenario

        for seed in range(20):
            scenario = random_scenario(3, 4, 8, seed=seed)
            text = scenario.serialize()
            copy = MissionScenario.parse(text)
            assert copy.serialize() == text == scenario.serialize()
            assert copy.render_spf() == scenario.render_spf()

    def test_replaced_copy_renders_its_own_members(self, scenario):
        scenario.serialize()  # fill the original's texts first
        copy = dataclasses.replace(
            scenario,
            humans=(HumanProfile("H_9", cognition=Tier.HIGH, skill=Tier.LOW),),
            arena_side=3000.0,
        )
        assert copy.sections[:2] == ("Human Attributes: {H_9: [Lo, Hi]}", self.ROBOTS)
        assert copy.serialize() == (
            "Arena Side: 3000\nHuman Attributes: {H_9: [Lo, Hi]}\n"
            + self.ROBOTS + "\n" + self.TASKS
        )
        assert scenario.sections[0] == self.HUMANS

    def test_kept_texts_leave_equality_and_hashing_alone(self, scenario):
        fresh = make_scenario()
        scenario.render_spf()
        assert scenario == fresh and hash(scenario) == hash(fresh)
        assert len({scenario, fresh}) == 1


class TestPerformanceRecord:
    def test_round_trip(self):
        record = PerformanceRecord(25.0, 369.7444822419306, 0.0797986306)
        assert PerformanceRecord.parse(record.serialize()) == record
        assert PerformanceRecord.parse(record.serialize()).serialize() == record.serialize()

    def test_utilization_bounds_enforced(self):
        with pytest.raises(ValueError):
            PerformanceRecord(1.0, 1.0, 1.5)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            PerformanceRecord(float("inf"), 1.0, 0.5)


class TestPlanRendering:
    def test_render_sorts_tasks_naturally(self):
        plan = ItaPlan(
            {
                "T_10": Assignment("UAV_0"),
                "T_2": Assignment("UGV_0"),
            }
        )
        lines = plan.render().splitlines()
        assert lines[0].startswith("T_2:")
        assert lines[1].startswith("T_10:")

    def test_members_are_assignments_and_one_given_is_kept(self):
        given = Assignment("UAV_0", "H_0")
        plan = ItaPlan({"T_1": given, "T_0": ("UGV_0",)})
        assert plan.assignments["T_1"] is given
        assert type(plan.assignments["T_0"]) is Assignment
        assert plan.assignments["T_0"] == ("UGV_0", None)

    def test_shared_control_renders_human_first(self, shared_plan):
        assert "T_0: (H_1, UAV_0)" in shared_plan.render()

    def test_natural_key_orders_mixed_ids(self):
        ids = ["T_10", "T_2", "T_1"]
        assert sorted(ids, key=natural_key) == ["T_1", "T_2", "T_10"]


class TestBoundsFromRecords:
    def test_degenerate_batch_widens_and_centers(self):
        records = [PerformanceRecord(10.0, 100.0, 0.5)] * 3
        bounds = NormalizationBounds.from_records(records)
        for objective in Objective:
            assert normalize_objective(
                records[0].value(objective), objective, bounds.entry(objective)
            ) == pytest.approx(0.5)

    def test_observed_extremes_map_to_unit_interval(self):
        records = [
            PerformanceRecord(0.0, 100.0, 0.1),
            PerformanceRecord(50.0, 400.0, 0.9),
        ]
        bounds = NormalizationBounds.from_records(records)
        tp, mt = Objective.TASK_PERFORMANCE, Objective.MISSION_TIME
        assert normalize_objective(50.0, tp, bounds.entry(tp)) == 1.0
        assert normalize_objective(100.0, mt, bounds.entry(mt)) == 1.0


def test_fmt_num_round_trips():
    for value in (13.0, 13.5, 0.1, 2000.0, 369.7444822419306):
        assert float(fmt_num(value)) == value
