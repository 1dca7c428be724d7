"""Prompt assembly and allocation-plan parsing: the text contract with the LLM.

Prompts follow a fixed five-section layout (Background or Mission Scenario,
Goal, Mission Objectives, Rules, Prior Experience); absent sections are
omitted entirely and rendering is byte-deterministic. Answers come back as
`T_<id>: (<agent>[, <agent>]*)` plan lines amid any prose, or one rule a
line; either may carry list bullets or numbers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .core import (
    Assignment,
    ItaPlan,
    MissionScenario,
    Objective,
    PreferenceVector,
    clip,
    fmt_num,
    validate_plan,
)

GOAL_GENERATE_RULES = "Generate a set of rules to follow during ITA."
GOAL_PERFORM_ITA = "Perform ITA for the provided mission."
GOAL_REFINE_RULES = (
    "Refine the rules so future ITA plans better meet the stated objective, "
    "using the observed mission results."
)

# Stage-1 background: tells the model how team compositions will be written.
BACKGROUND_FORMAT = (
    "Human Attributes: {H_#: [Skill, Cognition], ...}\n"
    "Robot Details: {R_#: [Speed, Camera Quality], ...}\n"
    "Task Info: {T_#: [(x, y), Difficulty], ...}"
)

SECTION_BACKGROUND = "Background"
SECTION_SCENARIO = "Mission Scenario"
SECTION_GOAL = "Goal"
SECTION_OBJECTIVES = "Mission Objectives"
SECTION_RULES = "Rules"
SECTION_EXPERIENCE = "Prior Experience"

_INDENT = "  "

_BULLET = r"(?:[-*•]|\d+[.)])"  # a list bullet or number, either answer format may carry
_BULLET_RE = re.compile(rf"^\s*{_BULLET}\s*")
_PLAN_LINE_RE = re.compile(
    rf"^\s*(?:{_BULLET}\s*)?(T_\w+)\s*:\s*\(\s*([\w\s,]*?)\s*\)\s*[.;,]?\s*$"
)


class ParseFailure(Exception):
    """No assignment lines could be extracted from the text."""


class PlanInvalid(Exception):
    """Assignment lines parsed but the plan fails validation. The message
    joins the first five violations, each cut (`clip`), and says how many
    more there are; `violations` holds them all."""

    def __init__(self, violations: tuple[str, ...]):
        shown = [clip(violation) for violation in violations[:5]]
        more = len(violations) - len(shown)
        super().__init__("; ".join(shown) + (f" (and {more} more)" if more else ""))
        self.violations = violations


@dataclass(frozen=True)
class Exemplar:
    """A prior mission shown to the model: scenario, plan, optional outcome."""

    scenario_text: str
    plan_text: str
    performance_text: str | None = None


# how objectives_text phrases an objective alone, and in a weighted list
_SOO_TEXT = {
    Objective.TASK_PERFORMANCE: "Maximize the overall task performance.",
    Objective.MISSION_TIME: "Minimize the overall mission time.",
    Objective.HUMAN_WORKLOAD: "Minimize the overall human workload.",
}
_WEIGHTED_TEXT = {
    Objective.TASK_PERFORMANCE: "Maximize task performance",
    Objective.MISSION_TIME: "Minimize mission time",
    Objective.HUMAN_WORKLOAD: "Minimize human workload",
}


def objectives_text(prefs: PreferenceVector) -> str:
    """Render preferences: a single full-weight objective becomes one
    imperative sentence, mixed weights become one `(weight = w)` line each."""
    if len(prefs.weights) == 1:
        return _SOO_TEXT[prefs.weights[0][0]]
    return "\n".join(
        f"{_WEIGHTED_TEXT[obj]} (weight = {fmt_num(round(w, 6))})" for obj, w in prefs.weights
    )


_SOO_PATTERNS = {
    "task performance": Objective.TASK_PERFORMANCE,
    "accuracy": Objective.TASK_PERFORMANCE,
    "mission time": Objective.MISSION_TIME,
    "workload": Objective.HUMAN_WORKLOAD,
}

_WEIGHT_RE = re.compile(r"\(\s*weight\s*=\s*([-+]?\d*\.?\d+)\s*\)")


def parse_objectives_text(text: str) -> PreferenceVector:
    """Inverse of objectives_text, tolerant of phrasing variations."""
    pairs: list[tuple[Objective, float]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        objective = None
        for needle, obj in _SOO_PATTERNS.items():
            if needle in line.lower():
                objective = obj
                break
        if objective is None:
            continue
        weight_match = _WEIGHT_RE.search(line)
        weight = float(weight_match.group(1)) if weight_match else 1.0
        pairs.append((objective, weight))
    if not pairs:
        raise ValueError(f"no objectives recognized in {text!r}")
    return PreferenceVector(tuple(pairs))


def _indent_block(text: str, depth: int = 1) -> list[str]:
    return [_INDENT * depth + line if line else line for line in text.splitlines()]


def build_prompt(
    scenario_label: str, scenario_text: str, goal: str, objectives: str,
    rules: Sequence[str] = (), exemplars: Sequence[Exemplar] = (),
) -> str:
    """Render the five sections in fixed order as canonical prompt text; the
    Rules and Prior Experience sections are left out when empty."""
    if not goal.strip():
        raise ValueError("prompt goal must be non-empty")
    if not objectives.strip():
        raise ValueError("prompt objectives must be non-empty")

    lines: list[str] = [scenario_label]
    lines += _indent_block(scenario_text)
    lines.append(SECTION_GOAL)
    lines += _indent_block(goal)
    lines.append(SECTION_OBJECTIVES)
    lines += _indent_block(objectives)
    if rules:
        lines.append(SECTION_RULES)
        for rule in rules:
            lines += _indent_block(rule)
    if exemplars:
        lines.append(SECTION_EXPERIENCE)
        for index, exemplar in enumerate(exemplars, start=1):
            lines.append(f"{_INDENT}Example {index}:")
            lines += _indent_block(exemplar.scenario_text, depth=2)
            lines += _indent_block(exemplar.plan_text, depth=2)
            if exemplar.performance_text:
                lines += _indent_block(exemplar.performance_text, depth=2)
    return "\n".join(lines) + "\n"


def extract_section(prompt_text: str, header: str) -> str:
    """Pull one section's dedented body back out of rendered prompt text."""
    lines = prompt_text.splitlines()
    body: list[str] = []
    collecting = False
    for line in lines:
        if line == header:
            collecting = True
            continue
        if collecting:
            if line and not line.startswith(_INDENT):
                break
            body.append(line[len(_INDENT):] if line.startswith(_INDENT) else line)
    if not collecting:
        raise KeyError(f"section {header!r} not found")
    return "\n".join(body).rstrip("\n")


def rule_lines(text: str) -> list[str]:
    """One rule per non-empty line, with list bullets/numbering stripped."""
    return [rule for line in text.splitlines() if (rule := _BULLET_RE.sub("", line).strip())]


def assignment_lines(text: str) -> list[tuple[str, list[str]]]:
    """All `T_i: (a, b, ...)` lines in order of appearance."""
    found: list[tuple[str, list[str]]] = []
    for line in text.splitlines():
        match = _PLAN_LINE_RE.match(line)
        if not match:
            continue
        agents = [part.strip() for part in match.group(2).split(",") if part.strip()]
        if agents:
            found.append((match.group(1), agents))
    return found


def parse_ita_plan(text: str, scenario: MissionScenario) -> ItaPlan:
    """Extract an allocation plan from model output and validate it.

    A lone robot means autonomous capture and onboard classification; a
    (human, robot) tuple means the robot travels under that human's shared
    control and the human analyzes the captured image. Unknown ids pass
    through so validation can name them. Raises ParseFailure when nothing
    matches the grammar and PlanInvalid when the plan fails validation.
    """
    lines = assignment_lines(text)
    if not lines:
        raise ParseFailure("no assignment lines matched the plan grammar")

    human_ids = scenario.human_ids()
    robot_ids = scenario.robot_ids()
    assignments: dict[str, Assignment] = {}
    for task_id, agents in lines:
        known_robots, known_humans, unknowns = [], [], []
        for agent in agents:
            if agent in robot_ids:
                known_robots.append(agent)
            elif agent in human_ids:
                known_humans.append(agent)
            else:
                unknowns.append(agent)

        # Convention is (human, robot); unknown ids fill the empty slot so the
        # validator can report them by name.
        robot = known_robots[0] if known_robots else (unknowns.pop() if unknowns else None)
        analyst = known_humans[0] if known_humans else (unknowns.pop(0) if unknowns else None)
        if robot is None:
            robot, analyst = analyst, None
        assignments[task_id] = Assignment(robot, analyst)

    plan = ItaPlan(assignments)
    check = validate_plan(plan, scenario)
    if not check.ok:
        raise PlanInvalid(check.violations)
    return plan
