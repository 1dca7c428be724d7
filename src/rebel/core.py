"""Domain model for multi-human multi-robot initial task allocation.

Agents, tasks, allocation plans, preference weights, and the scalarized
objective used to compare mission outcomes. All types are immutable after
construction and every operation here is pure.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, fields
from enum import Enum
from typing import Iterable, NamedTuple, Sequence

import numpy as np

ARENA_SIDE_DEFAULT = 2000.0

_NUM = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"


def fmt_num(value: float) -> str:
    """Render a number compactly; integral floats drop the trailing '.0'.

    repr() is used for fractional values so text round-trips exactly.
    """
    f = float(value)
    if math.isfinite(f) and f.is_integer():
        return str(int(f))
    return repr(f)


# the most characters of an input value that an error message echoes
ECHO_CHARS = 64


def echo(value) -> str:
    """`value` as JSON (its repr where JSON has no form for it) for an error
    message, cut after `ECHO_CHARS` characters with `…`."""
    text = json.dumps(value, default=repr)
    return text if len(text) <= ECHO_CHARS else text[: ECHO_CHARS - 1] + "…"


def reject_unknown_keys(raw: dict, where: str, known: set[str]) -> None:
    """ValueError unless every key of `raw` is in `known`; the unknown keys
    are echoed (`echo`), the known ones listed in full."""
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"unknown {where} keys {echo(unknown)}; known keys are {json.dumps(sorted(known))}")


def ordered_sum(values: Iterable[float]) -> float:
    """The float sum of `values`, added one at a time from the left, from
    0.0. Built-in `sum` adds floats so before Python 3.12 and compensates
    their rounding from 3.12 on, so a sum whose bits reach an output uses
    this to be the same on every interpreter."""
    total = 0.0
    for value in values:
        total += value
    return total


@functools.lru_cache(maxsize=4096)
def natural_key(text: str) -> tuple:
    """Sort key treating digit runs numerically, so T_2 sorts before T_10.

    Memoized: keys are immutable, and the same few ids are sorted over and
    over (every scenario and plan canonicalizes its members).
    """
    return tuple(
        (0, int(part)) if part.isdigit() else (1, part)
        for part in re.split(r"(\d+)", text)
        if part
    )


class Tier(Enum):
    """Three-level attribute scale used for all qualitative agent/task traits.

    Members hash by identity (`object.__hash__`, one C call, where Enum's
    own hash is a Python-level call on the name), which is sound because
    each member is a singleton: Enum equality is already identity, and
    pickle and deepcopy give back the same member. An identity hash differs
    from process to process, so no output may depend on a member's hash:
    a dict keyed by members keeps insertion order, but a set of them must
    not be iterated into an output.
    """

    LOW = "Lo"
    MED = "Med"
    HIGH = "Hi"

    __hash__ = object.__hash__

    @property
    def rank(self) -> int:
        return _TIER_RANK[self]

    @property
    def axis(self) -> float:
        """Tier mapped onto the symmetric {-1, 0, +1} difficulty axis."""
        return _TIER_AXIS[self]

    @classmethod
    def parse(cls, text: str) -> "Tier":
        """The tier an alias (`_TIER_ALIASES`) names, in any case and with
        any surrounding blanks; the rendered spelling is found as given."""
        tier = _TIER_ALIASES.get(text) or _TIER_ALIASES.get(text.strip().lower())
        if tier is None:
            raise ValueError(f"unknown tier {echo(text)}")
        return tier


_TIER_RANK = {tier: rank for rank, tier in enumerate(Tier)}
_TIER_AXIS = {tier: float(rank - 1) for tier, rank in _TIER_RANK.items()}
_TIER_ALIASES = {
    "Lo": Tier.LOW, "lo": Tier.LOW, "low": Tier.LOW,
    "Med": Tier.MED, "med": Tier.MED, "medium": Tier.MED,
    "Hi": Tier.HIGH, "hi": Tier.HIGH, "high": Tier.HIGH,
}


class Objective(Enum):
    """Mission objectives a stakeholder can weight against each other.

    Members hash by identity, as `Tier`'s do and for the same reasons; no
    output may depend on a member's hash.
    """

    TASK_PERFORMANCE = "TP"
    MISSION_TIME = "MT"
    HUMAN_WORKLOAD = "HW"

    __hash__ = object.__hash__

    @property
    def short(self) -> str:
        return self._value_

    @property
    def maximized(self) -> bool:
        """Task performance is maximized; time and workload are minimized."""
        return self is Objective.TASK_PERFORMANCE

    @classmethod
    def parse(cls, text: str) -> "Objective":
        objective = _OBJECTIVE_KEYS.get(text.strip().upper())
        if objective is None:
            raise ValueError(f"unknown objective {echo(text)}")
        return objective


_OBJECTIVE_KEYS = {key: obj for obj in Objective for key in (obj.value, obj.name)}
# each objective's position in `Objective` order, that of `PerformanceRecord.values()`
_COLUMN = {obj: index for index, obj in enumerate(Objective)}


@dataclass(frozen=True)
class HumanProfile:
    """Human operator described by cognitive ability and operational skill."""

    id: str
    cognition: Tier
    skill: Tier


@dataclass(frozen=True)
class RobotProfile:
    """Robot described by travel speed and camera quality; its id's `UAV` or
    `UGV` prefix names the platform."""

    id: str
    speed: float
    camera_quality: Tier

    def __post_init__(self) -> None:
        if not (math.isfinite(self.speed) and self.speed > 0):
            raise ValueError(f"robot {self.id}: speed must be > 0, got {self.speed}")


@dataclass(frozen=True)
class TaskSpec:
    """Point of interest requiring image capture and hazard classification."""

    id: str
    location: tuple[float, float]
    difficulty: Tier

    def __post_init__(self) -> None:
        x, y = self.location
        object.__setattr__(self, "location", (float(x), float(y)))


class Assignment(NamedTuple):
    """One task's allocation in the plan grammar.

    `robot` travels to the point of interest and captures the image. With
    `human` set (`T_i: (H_j, R_k)`), that human shares control of the robot,
    which scales its travel speed, and analyzes the image; with `human` None
    (`T_i: (R_k)`), capture is autonomous and classification is onboard.
    """

    robot: str
    human: str | None = None


# One `id: [...]` entry of each attribute dictionary of a scenario's text.
_HUMAN_ENTRY = re.compile(r"(\w+)\s*:\s*\[\s*(\w+)\s*,\s*(\w+)\s*\]")
_ROBOT_ENTRY = re.compile(rf"(\w+)\s*:\s*\[\s*({_NUM})\s*,\s*(\w+)\s*\]")
_TASK_ENTRY = re.compile(rf"(\w+)\s*:\s*\[\s*\(\s*({_NUM})\s*,\s*({_NUM})\s*\)\s*,\s*(\w+)\s*\]")


def _members(line: str, header: str, entry: re.Pattern[str], build) -> tuple:
    """`build(*groups)` for each `entry` in the dictionary after `header`. A
    ValueError names the section and the text no entry matched, or the
    section and the first entry `build` rejects. Every entry holds exactly
    one colon, so counting them finds an entry left unread."""
    body = line[len(header):]
    found = entry.findall(body)
    if len(found) != body.count(":"):
        raise ValueError(f"{header} unreadable entry {echo(entry.sub('', body).strip(' {},'))}")
    try:
        return tuple([build(*groups) for groups in found])
    except ValueError:
        # scanned again only to name the entry
        for match in entry.finditer(body):
            try:
                build(*match.groups())
            except ValueError as exc:
                raise ValueError(f"{header} {exc} in entry {echo(match[0])}") from None
        raise


@dataclass(frozen=True)
class MissionScenario:
    """Team composition plus the task list, with the arena bound they live
    in: a side above 0, where an infinite one leaves the arena unbounded.

    The three section texts of `sections`, behind `render_spf` and
    `serialize`, are rendered on first use and kept on the instance; a copy
    made with `dataclasses.replace` renders its own.
    """

    humans: tuple[HumanProfile, ...]
    robots: tuple[RobotProfile, ...]
    tasks: tuple[TaskSpec, ...]
    arena_side: float = ARENA_SIDE_DEFAULT

    def __post_init__(self) -> None:
        if not self.arena_side > 0:  # NaN too, which would not round-trip
            raise ValueError(f"arena side must be > 0, got {self.arena_side}")
        # canonical member order: natural id sort, so logically equal teams
        # compare equal and render identically regardless of input order
        for name in ("humans", "robots", "tasks"):
            members = sorted(getattr(self, name), key=lambda a: natural_key(a.id))
            object.__setattr__(self, name, tuple(members))
        ids: list[str] = [a.id for a in self.humans + self.robots + self.tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("agent and task ids must be unique and disjoint")
        for task in self.tasks:
            x, y = task.location
            if not (0 <= x <= self.arena_side and 0 <= y <= self.arena_side):
                raise ValueError(f"task {task.id} outside [0, {self.arena_side}]^2")

    @property
    def runnable(self) -> bool:
        return bool(self.robots)

    def human_ids(self) -> set[str]:
        return {h.id for h in self.humans}

    def robot_ids(self) -> set[str]:
        return {r.id for r in self.robots}

    def task_ids(self) -> set[str]:
        return {t.id for t in self.tasks}

    # Canonical text renderings: members are already in natural id order, so
    # logically equal scenarios always produce byte-identical text.
    @functools.cached_property
    def sections(self) -> tuple[str, str, str]:
        """The human, robot and task dictionaries, rendered once per instance."""
        humans = ", ".join([f"{h.id}: [{h.skill._value_}, {h.cognition._value_}]" for h in self.humans])
        robots = ", ".join([f"{r.id}: [{fmt_num(r.speed)}, {r.camera_quality._value_}]" for r in self.robots])
        tasks = ", ".join([
            f"{t.id}: [({fmt_num(t.location[0])}, {fmt_num(t.location[1])}), {t.difficulty._value_}]"
            for t in self.tasks
        ])
        return (
            "Human Attributes: {" + humans + "}",
            "Robot Details: {" + robots + "}",
            "Task Info: {" + tasks + "}",
        )

    def render_spf(self) -> str:
        """Three-dictionary form used verbatim in prompts and for embeddings."""
        return "\n".join(self.sections)

    def serialize(self) -> str:
        return f"Arena Side: {fmt_num(self.arena_side)}\n" + self.render_spf()

    @classmethod
    def parse(cls, text: str, arena_side: float = ARENA_SIDE_DEFAULT) -> "MissionScenario":
        """The scenario `serialize` rendered as `text`; `arena_side` when the
        text has no `Arena Side:` line."""
        arena = arena_side
        human_line = robot_line = task_line = ""
        for line in text.splitlines():
            stripped = line.strip()
            if stripped.startswith("Arena Side:"):
                arena = float(stripped.split(":", 1)[1].strip())
            elif stripped.startswith("Human Attributes:"):
                human_line = stripped
            elif stripped.startswith("Robot Details:"):
                robot_line = stripped
            elif stripped.startswith("Task Info:"):
                task_line = stripped
        if not (human_line and robot_line and task_line):
            raise ValueError("scenario text must contain all three attribute dictionaries")

        humans = _members(
            human_line, "Human Attributes:", _HUMAN_ENTRY,
            lambda h_id, skill, cognition: HumanProfile(h_id, Tier.parse(cognition), Tier.parse(skill)),
        )
        robots = _members(
            robot_line, "Robot Details:", _ROBOT_ENTRY,
            lambda r_id, speed, camera: RobotProfile(r_id, float(speed), Tier.parse(camera)),
        )
        tasks = _members(
            task_line, "Task Info:", _TASK_ENTRY,
            lambda t_id, x, y, difficulty: TaskSpec(t_id, (float(x), float(y)), Tier.parse(difficulty)),
        )
        return cls(humans=humans, robots=robots, tasks=tasks, arena_side=arena)


@dataclass(frozen=True)
class ItaPlan:
    """Allocation: each task maps to exactly one Assignment.

    Tasks are canonicalized to natural id order at construction, and
    render() is lossless: parsing its text against the scenario gives back
    an equal plan.
    """

    assignments: dict[str, Assignment]

    def __post_init__(self) -> None:
        canonical = {}
        for task_id in sorted(self.assignments, key=natural_key):
            value = self.assignments[task_id]
            canonical[task_id] = value if isinstance(value, Assignment) else Assignment(*value)
        object.__setattr__(self, "assignments", canonical)

    def task_ids(self) -> set[str]:
        return set(self.assignments)

    def referenced_agents(self, task_id: str) -> set[str]:
        robot, human = self.assignments[task_id]
        return {robot} if human is None else {robot, human}

    def render(self) -> str:
        """Canonical plan-grammar text: one `T_i: (H_j, R_k)` or `T_i: (R_k)`
        line per task."""
        return "\n".join(
            f"{task_id}: ({robot})" if human is None else f"{task_id}: ({human}, {robot})"
            for task_id, (robot, human) in self.assignments.items()
        )


@dataclass(frozen=True)
class PreferenceVector:
    """Objective weights; normalized to sum to 1 at construction."""

    weights: tuple[tuple[Objective, float], ...]

    def __post_init__(self) -> None:
        pairs = tuple((obj, float(w)) for obj, w in self.weights)
        seen = [obj for obj, _ in pairs]
        if len(set(seen)) != len(seen):
            raise ValueError("objectives in a preference vector must be distinct")
        for obj, w in pairs:
            if not (math.isfinite(w) and 0.0 <= w <= 1.0):
                raise ValueError(f"weight for {obj.short} must lie in [0, 1], got {w}")
        total = ordered_sum(w for _, w in pairs)
        if total <= 0:
            raise ValueError("at least one weight must be positive")
        object.__setattr__(self, "weights", tuple((obj, w / total) for obj, w in pairs))

    @staticmethod
    def single(objective: Objective) -> "PreferenceVector":
        return PreferenceVector(((objective, 1.0),))

    @staticmethod
    def of(**shorts: float) -> "PreferenceVector":
        return PreferenceVector(tuple((Objective.parse(k), v) for k, v in shorts.items()))

    def weight(self, objective: Objective) -> float:
        for obj, w in self.weights:
            if obj is objective:
                return w
        return 0.0

    def objectives(self) -> tuple[Objective, ...]:
        return tuple(obj for obj, _ in self.weights)

    def dominant(self) -> Objective | None:
        """The unique highest-weighted objective, or None on a tie."""
        best = max(w for _, w in self.weights)
        top = [obj for obj, w in self.weights if w == best]
        return top[0] if len(top) == 1 else None

    def label(self) -> str:
        if len(self.weights) == 1:
            return self.weights[0][0].short
        return ",".join(f"{obj.short}={fmt_num(round(w, 6))}" for obj, w in self.weights)


_PERFORMANCE_LINE = re.compile(rf"Performance:\s*\[\s*({_NUM})\s*,\s*({_NUM})\s*,\s*({_NUM})\s*\]")


@dataclass(frozen=True)
class PerformanceRecord:
    """Mission outcome triple: accuracy points, duration, human utilization,
    one field per objective in `Objective` order."""

    accuracy_points: float
    mission_seconds: float
    human_utilization: float

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, self.values())):
            name = next(f.name for f in fields(self) if not math.isfinite(getattr(self, f.name)))
            raise ValueError(f"{name} must be finite")
        if self.accuracy_points < 0 or self.mission_seconds < 0:
            raise ValueError("accuracy points and mission seconds must be >= 0")
        if not (0.0 <= self.human_utilization <= 1.0):
            raise ValueError("human utilization must lie in [0, 1]")

    def values(self) -> tuple[float, float, float]:
        """The three values in `Objective` order."""
        return (self.accuracy_points, self.mission_seconds, self.human_utilization)

    def value(self, objective: Objective) -> float:
        return self.values()[_COLUMN[objective]]

    def serialize(self) -> str:
        return f"Performance: [{', '.join(map(fmt_num, self.values()))}]"

    @classmethod
    def parse(cls, text: str) -> "PerformanceRecord":
        m = _PERFORMANCE_LINE.search(text)
        if not m:
            raise ValueError(f"unparseable performance line: {echo(text)}")
        return cls(*map(float, m.groups()))


@dataclass(frozen=True)
class ObjectiveBounds:
    """Observed value range for one objective."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)) or self.lo >= self.hi:
            raise ValueError(f"bounds need lo < hi, got [{self.lo}, {self.hi}]")


@dataclass(frozen=True)
class NormalizationBounds:
    """Per-objective min/max used to put raw metrics on a common [0, 1] scale."""

    entries: dict[Objective, ObjectiveBounds]

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", dict(self.entries))

    def entry(self, objective: Objective) -> ObjectiveBounds:
        if objective not in self.entries:
            raise KeyError(f"no normalization bounds for objective {objective.short}")
        return self.entries[objective]

    @classmethod
    def from_records(cls, records: Sequence[PerformanceRecord]) -> "NormalizationBounds":
        """Empirical bounds over a batch (`from_columns`)."""
        return cls.from_columns(performance_columns(records))

    @classmethod
    def from_columns(cls, columns: np.ndarray) -> "NormalizationBounds":
        """Empirical bounds over the records of `performance_columns`;
        degenerate ranges are widened by 0.5 on each side so every value
        normalizes to the neutral 0.5."""
        if not columns.shape[1]:
            raise ValueError("cannot derive bounds from an empty batch")
        entries = {}
        for obj, values in zip(Objective, columns):
            lo, hi = float(values.min()), float(values.max())
            if hi - lo < 1e-12:
                lo, hi = lo - 0.5, hi + 0.5
            entries[obj] = ObjectiveBounds(lo, hi)
        return cls(entries)


def normalize_objective(value: float, objective: Objective, bounds: ObjectiveBounds) -> float:
    """Map a raw metric of `objective` into [0, 1] where 1 is always the
    preferred end."""
    if not math.isfinite(value):
        raise ValueError(f"cannot normalize non-finite value {value}")
    return float(_unit_score(value, bounds.lo, bounds.hi, objective.maximized))


def _unit_score(value, lo: float, hi: float, maximize: bool):
    """`value` (a float or an array) on the [0, 1] scale of [lo, hi]."""
    span = hi - lo
    # a subnormal span can overflow the quotient; inf clamps to the end of
    # the scale, as it does for Python floats
    with np.errstate(over="ignore"):
        score = (value - lo) / span if maximize else (hi - value) / span
    return np.minimum(1.0, np.maximum(0.0, score))


def performance_columns(records: Sequence[PerformanceRecord]) -> np.ndarray:
    """The records as one row per objective, in `Objective` order, for
    `aggregate_scores`."""
    values = [r.values() for r in records]
    return np.array(values, dtype=float).reshape(len(records), len(Objective)).T


def check_performance_columns(columns: np.ndarray) -> None:
    """`PerformanceRecord`'s checks on every record of `performance_columns`."""
    if not np.isfinite(columns).all():
        raise ValueError("performance values must be finite")
    points, seconds, utilization = columns
    if (points < 0).any() or (seconds < 0).any():
        raise ValueError("accuracy points and mission seconds must be >= 0")
    if not ((0.0 <= utilization) & (utilization <= 1.0)).all():
        raise ValueError("human utilization must lie in [0, 1]")


def aggregate_scores(
    columns: np.ndarray, prefs: PreferenceVector, bounds: NormalizationBounds
) -> np.ndarray:
    """Weighted sum of direction-corrected normalized objective scores, one
    per column of `performance_columns`. Terms are added from 0 in the order
    of `prefs.weights`, so each score is the float that summing them one by
    one in Python gives."""
    total = np.zeros(columns.shape[1])
    for obj, w in prefs.weights:
        entry = bounds.entry(obj)
        total = total + w * _unit_score(columns[_COLUMN[obj]], entry.lo, entry.hi, obj.maximized)
    return total


def aggregate_objective(
    record: PerformanceRecord,
    prefs: PreferenceVector,
    bounds: NormalizationBounds,
) -> float:
    """Weighted sum of direction-corrected normalized objective scores of
    one record (`aggregate_scores`)."""
    return float(aggregate_scores(performance_columns([record]), prefs, bounds)[0])


@dataclass(frozen=True)
class PlanValidation:
    ok: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def validate_plan(plan: ItaPlan, scenario: MissionScenario) -> PlanValidation:
    """Structural feasibility: full task coverage, known ids, a robot as the
    travel agent of every task, and every shared-control human in the team."""
    violations: list[str] = []
    human_ids = scenario.human_ids()
    robot_ids = scenario.robot_ids()
    task_ids = scenario.task_ids()

    for task_id in sorted(task_ids - plan.task_ids(), key=natural_key):
        violations.append(f"{task_id} unassigned")
    for task_id in sorted(plan.task_ids() - task_ids, key=natural_key):
        violations.append(f"unknown task {task_id}")

    for task_id, (robot, human) in plan.assignments.items():
        if robot not in robot_ids and robot not in human_ids:
            violations.append(f"{task_id}: unknown agent {robot}")
        if human is not None and human not in human_ids:
            violations.append(f"{task_id}: unknown human {human}")
        if robot not in robot_ids:
            violations.append(f"{task_id}: no robot responsible for travel")

    return PlanValidation(ok=not violations, violations=tuple(violations))
