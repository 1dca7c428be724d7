from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rebel.bench import random_scenario
from rebel.core import (
    Assignment,
    ItaPlan,
    Objective,
    PreferenceVector,
    validate_plan,
)
from rebel.prompt import (
    BACKGROUND_FORMAT,
    GOAL_GENERATE_RULES,
    GOAL_PERFORM_ITA,
    Exemplar,
    ParseFailure,
    PlanInvalid,
    SECTION_BACKGROUND,
    SECTION_SCENARIO,
    build_prompt,
    extract_section,
    objectives_text,
    parse_ita_plan,
    parse_objectives_text,
)
from conftest import make_scenario
from oracles import ref_parse_ita_plan

GOLDENS = Path(__file__).parent / "goldens"


def stage1_prompt() -> str:
    return build_prompt(
        scenario_label=SECTION_BACKGROUND,
        scenario_text=BACKGROUND_FORMAT,
        goal=GOAL_GENERATE_RULES,
        objectives=objectives_text(PreferenceVector.single(Objective.MISSION_TIME)),
    )


def stage3_prompt() -> str:
    scenario = make_scenario()
    return build_prompt(
        scenario_label=SECTION_SCENARIO,
        scenario_text=scenario.render_spf(),
        goal=GOAL_PERFORM_ITA,
        objectives=objectives_text(PreferenceVector.of(MT=0.55, TP=0.35, HW=0.10)),
        rules=(
            "Assign faster robots to tasks farther away.",
            "Assign skilled humans to difficult tasks.",
        ),
        exemplars=(
            Exemplar(scenario.render_spf(), "T_0: (H_1, UAV_0)\nT_1: (H_0, UGV_0)"),
        ),
    )


class TestBuildPrompt:
    def test_stage1_matches_golden(self):
        assert stage1_prompt() == (GOLDENS / "stage1_rules_prompt.txt").read_text()

    def test_stage3_matches_golden(self):
        assert stage3_prompt() == (GOLDENS / "stage3_inference_prompt.txt").read_text()

    def test_stage1_has_exactly_three_sections(self):
        text = stage1_prompt()
        headers = [line for line in text.splitlines() if line and not line.startswith("  ")]
        assert headers == ["Background", "Goal", "Mission Objectives"]

    def test_stage3_has_all_five_sections(self):
        text = stage3_prompt()
        headers = [line for line in text.splitlines() if line and not line.startswith("  ")]
        assert headers == [
            "Mission Scenario",
            "Goal",
            "Mission Objectives",
            "Rules",
            "Prior Experience",
        ]

    def test_weighted_objective_lines(self):
        text = stage3_prompt()
        objectives = extract_section(text, "Mission Objectives")
        assert objectives.splitlines() == [
            "Minimize mission time (weight = 0.55)",
            "Maximize task performance (weight = 0.35)",
            "Minimize human workload (weight = 0.1)",
        ]

    def test_deterministic(self):
        assert stage3_prompt() == stage3_prompt()

    def test_goal_rendered_verbatim(self):
        assert GOAL_PERFORM_ITA in stage3_prompt()
        assert GOAL_GENERATE_RULES in stage1_prompt()

    def test_empty_goal_rejected(self):
        with pytest.raises(ValueError):
            build_prompt(
                scenario_label=SECTION_BACKGROUND,
                scenario_text="x",
                goal="  ",
                objectives="y",
            )

    def test_empty_objectives_rejected(self):
        with pytest.raises(ValueError):
            build_prompt(
                scenario_label=SECTION_BACKGROUND,
                scenario_text="x",
                goal="y",
                objectives="",
            )


class TestObjectivesTextRoundTrip:
    def test_single_objective(self):
        prefs = PreferenceVector.single(Objective.HUMAN_WORKLOAD)
        assert parse_objectives_text(objectives_text(prefs)) == prefs

    def test_weighted_objectives(self):
        prefs = PreferenceVector.of(TP=0.5, MT=0.25, HW=0.25)
        parsed = parse_objectives_text(objectives_text(prefs))
        assert parsed.objectives() == prefs.objectives()
        for obj, w in prefs.weights:
            assert parsed.weight(obj) == pytest.approx(w, abs=1e-9)

    def test_unrecognizable_text_is_error(self):
        with pytest.raises(ValueError):
            parse_objectives_text("do whatever seems nice")


class TestParseItaPlan:
    def test_two_agent_tuples_mean_shared_control(self, scenario):
        plan = parse_ita_plan("T_0: (H_1, UAV_0)\nT_1: (H_0, UGV_0)", scenario)
        assert plan.assignments["T_0"] == Assignment("UAV_0", "H_1")
        assert plan.assignments["T_1"] == Assignment("UGV_0", "H_0")

    def test_single_robot_means_autonomous(self, scenario):
        plan = parse_ita_plan("T_0: (UAV_0)\nT_1: (UGV_0)", scenario)
        assert plan.assignments["T_0"].human is None

    def test_prose_only_is_parse_failure(self, scenario):
        with pytest.raises(ParseFailure):
            parse_ita_plan("no assignments here", scenario)

    def test_surrounding_prose_ignored(self, scenario):
        text = (
            "Here is my allocation plan:\n"
            "- T_0: (H_1, UAV_0)\n"
            "2. T_1: (UGV_0)\n"
            "Let me know if you need anything else!"
        )
        plan = parse_ita_plan(text, scenario)
        assert set(plan.assignments) == {"T_0", "T_1"}

    def test_unknown_agent_becomes_plan_invalid(self, scenario):
        with pytest.raises(PlanInvalid) as exc_info:
            parse_ita_plan("T_0: (UAV_9)\nT_1: (UGV_0)", scenario)
        assert any("unknown agent UAV_9" in v for v in exc_info.value.violations)

    def test_missing_task_becomes_plan_invalid(self, scenario):
        with pytest.raises(PlanInvalid):
            parse_ita_plan("T_0: (UAV_0)", scenario)

    def test_line_order_irrelevant(self, scenario):
        forward = parse_ita_plan("T_0: (UAV_0)\nT_1: (H_0, UGV_0)", scenario)
        backward = parse_ita_plan("T_1: (H_0, UGV_0)\nT_0: (UAV_0)", scenario)
        assert forward == backward

    def test_whitespace_tolerance(self, scenario):
        plan = parse_ita_plan("  T_0 :  ( H_1 ,  UAV_0 )  \nT_1:(UGV_0)", scenario)
        assert plan.assignments["T_0"].robot == "UAV_0"


class TestRenderParseFixedPoint:
    def test_round_trip_on_random_plans(self, scenario):
        rng = random.Random(31)
        robots = sorted(scenario.robot_ids())
        humans = sorted(scenario.human_ids())
        for _ in range(100):
            assignments = {}
            for task in scenario.tasks:
                robot = rng.choice(robots)
                human = rng.choice([None] + humans)
                assignments[task.id] = Assignment(robot, human)
            plan = ItaPlan(assignments)
            rendered = plan.render()
            reparsed = parse_ita_plan(rendered, scenario)
            assert reparsed == plan
            assert reparsed.render() == rendered
            assert validate_plan(reparsed, scenario).ok


@st.composite
def scenarios_with_plans(draw):
    scenario = random_scenario(
        humans=draw(st.integers(0, 4)),
        robots=draw(st.integers(1, 5)),
        tasks=draw(st.integers(1, 12)),
        seed=draw(st.integers(0, 2**30)),
    )
    robots = st.sampled_from([r.id for r in scenario.robots])
    humans = st.sampled_from([None] + [h.id for h in scenario.humans])
    plan = ItaPlan({t.id: Assignment(draw(robots), draw(humans)) for t in scenario.tasks})
    return scenario, plan


@settings(max_examples=200, deadline=None)
@given(scenarios_with_plans())
def test_parse_inverts_render(case):
    scenario, plan = case
    assert parse_ita_plan(plan.render(), scenario) == plan


@st.composite
def plan_texts(draw):
    """Plan lines for `make_scenario()` (H_0, H_1, UAV_0, UGV_0; T_0, T_1)
    naming one to three agents each, drawn from its ids and unknown ones, so
    lists come unknown, reversed, duplicated and tripled. Half the texts
    name each task once; the rest may repeat, miss or invent tasks."""
    agents = st.lists(
        st.sampled_from(["H_0", "H_1", "UAV_0", "UGV_0", "UAV_9", "H_7"]), min_size=1, max_size=3
    )
    tasks = draw(
        st.permutations(["T_0", "T_1"]) | st.lists(st.sampled_from(["T_0", "T_1", "T_9"]), max_size=4)
    )
    return "\n".join(f"{task}: ({', '.join(draw(agents))})" for task in tasks)


def _parsed(parse, text, scenario):
    """The plan's (task, assignment) pairs in order, or the error's type and text."""
    try:
        return list(parse(text, scenario).assignments.items())
    except (ParseFailure, PlanInvalid) as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(plan_texts())
@example("T_0: (UAV_9)\nT_1: (H_7, X_1)")  # unknown
@example("T_0: (UAV_0, H_1)\nT_1: (UGV_0, H_0)")  # reversed
@example("T_0: (UAV_0, UAV_0)\nT_1: (H_0, H_0, UGV_0)")  # duplicate
@example("T_0: (H_0, UAV_0, UGV_0)\nT_1: (UGV_0, H_1, H_0)")  # triple
@example("T_0: (H_0, UAV_9, X_1)\nT_1: (UAV_9, H_7, UGV_0)")  # triple with unknowns
def test_parse_matches_the_frozen_parser(text):
    scenario = make_scenario()
    assert _parsed(parse_ita_plan, text, scenario) == _parsed(ref_parse_ita_plan, text, scenario)

