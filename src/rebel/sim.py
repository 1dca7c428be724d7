"""Deterministic, seedable surveillance-mission simulator.

Robots travel to points of interest and capture images; classification is
resolved either onboard (autonomous assignment) or, under shared control, by
the controlling human working a sequential FIFO analysis queue. Human
accuracy decays with fatigue and backlog and drops non-linearly with task
complexity; robot accuracy depends on camera quality and task difficulty.
Every stochastic draw is keyed by (seed, agent id, task id), so a task's
coin flip never depends on which other tasks exist.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from pathlib import Path
import numpy as np

from .core import (
    ItaPlan,
    MissionScenario,
    PerformanceRecord,
    Tier,
    echo,
    fmt_num,
    natural_key,
    ordered_sum,
    validate_plan,
)

P_FLOOR = 0.05
P_CEIL = 0.99

def _tier_map(lo: float, med: float, hi: float) -> dict[Tier, float]:
    return {Tier.LOW: lo, Tier.MED: med, Tier.HIGH: hi}


@dataclass(frozen=True)
class SimConfig:
    """All human/robot model constants plus the mission RNG seed.

    Defaults: human base accuracy 0.70/0.80/0.90 by cognition tier, robot
    autonomous base 0.55/0.70/0.85 by camera tier, fatigue floor 0.6 reached
    over a 3600 s horizon, complexity sigmoid centered on Med difficulty,
    analysis service times 20/40/60 s, 5 points per correct classification.
    A constant the simulator cannot run with (a horizon or speed multiplier
    not > 0, a floor outside [0, 1], a negative service time, points or
    workload coefficient) is a ValueError naming its key.
    """

    human_base_accuracy: dict[Tier, float] = field(default_factory=lambda: _tier_map(0.70, 0.80, 0.90))
    skill_multiplier: dict[Tier, float] = field(default_factory=lambda: _tier_map(0.80, 1.00, 1.25))
    fatigue_floor: float = 0.6
    fatigue_horizon_s: float = 3600.0
    workload_coef: float = 0.1
    complexity_steepness: float = 1.0
    complexity_midpoint: float = 0.0
    robot_base_accuracy: dict[Tier, float] = field(default_factory=lambda: _tier_map(0.55, 0.70, 0.85))
    difficulty_penalty: dict[Tier, float] = field(default_factory=lambda: _tier_map(0.0, 0.2, 0.4))
    shared_speed_multiplier: dict[Tier, float] = field(default_factory=lambda: _tier_map(0.8, 1.0, 1.2))
    shared_quality_multiplier: dict[Tier, float] = field(default_factory=lambda: _tier_map(0.9, 1.0, 1.1))
    analysis_service_s: dict[Tier, float] = field(default_factory=lambda: _tier_map(20.0, 40.0, 60.0))
    points_per_correct: float = 5.0
    seed: int = 0

    def __post_init__(self) -> None:
        # every check names its key, and each comparison is False for NaN
        if not self.fatigue_horizon_s > 0:
            raise ValueError(f"fatigue_horizon_s must be > 0, got {self.fatigue_horizon_s}")
        if not 0.0 <= self.fatigue_floor <= 1.0:
            raise ValueError(f"fatigue_floor must lie in [0, 1], got {self.fatigue_floor}")
        # a robot under shared control travels at its speed times the multiplier
        for tier, speed in self.shared_speed_multiplier.items():
            if not speed > 0:
                raise ValueError(f"shared_speed_multiplier.{tier.value} must be > 0, got {speed}")
        for tier, seconds in self.analysis_service_s.items():
            if not seconds >= 0:
                raise ValueError(f"analysis_service_s.{tier.value} must be >= 0, got {seconds}")
        for name in ("points_per_correct", "workload_coef"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")

    def with_seed(self, seed: int) -> "SimConfig":
        return replace(self, seed=seed)

    def dump(self, path: str | Path) -> None:
        payload = {}
        for f in fields(self):
            value = getattr(self, f.name)
            payload[f.name] = {t.value: v for t, v in value.items()} if isinstance(value, dict) else value
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "SimConfig":
        """The config a `dump` file holds; a key it omits keeps its default.
        ValueError, naming the key, for a key that names no setting, a tier
        map that does not give every tier a number, or a value that is not a
        finite number (for `seed`, an integer)."""
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except RecursionError:  # JSON nested past the interpreter's stack
            raise ValueError("JSON nested too deeply to decode") from None
        if not isinstance(raw, dict):
            raise ValueError(f"a sim config must be an object, got {echo(raw)}")
        default, known = cls(), {f.name for f in fields(cls)}
        unknown = sorted(set(raw) - known)
        if unknown:
            raise ValueError(f"unknown sim config keys {unknown}; known keys are {sorted(known)}")
        values = {}
        for name, value in raw.items():
            if isinstance(getattr(default, name), dict):
                values[name] = _read_tier_map(name, value)
            elif name == "seed" and type(value) is not int:
                raise ValueError(f"seed must be an integer, got {echo(value)}")
            else:
                values[name] = _finite(name, value)
        return cls(**values)


def _finite(name: str, value):
    """`value`, or a ValueError naming `name` unless it is a finite number:
    not a bool, NaN, an infinity or an int beyond the float range."""
    if not (type(value) in (int, float) and abs(value) <= sys.float_info.max):
        raise ValueError(f"{name} must be a finite number, got {echo(value)}")
    return value


def _read_tier_map(name: str, value) -> dict[Tier, float]:
    """The tier map a JSON object gives for setting `name`, or a ValueError
    naming it unless the object gives every tier a finite number."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object giving each tier a number, got {echo(value)}")
    tiers = {}
    for key, number in value.items():
        try:
            tier = Tier.parse(key)
        except ValueError as exc:
            raise ValueError(f"{name}: {exc}") from None
        tiers[tier] = float(_finite(f"{name}.{key}", number))
    missing = [tier.value for tier in Tier if tier not in tiers]
    if missing:
        raise ValueError(f"{name} gives no number for tier {', '.join(missing)}")
    return tiers


def travel_time(start: tuple[float, float], end: tuple[float, float], speed: float) -> float:
    """Seconds to cover the straight-line distance at constant speed."""
    if speed <= 0:
        raise ValueError(f"speed must be > 0, got {speed}")
    return math.dist(start, end) / speed


def fatigue_factor(elapsed_s: float, cfg: SimConfig) -> float:
    """Linear decay from 1.0 down to the fatigue floor over the horizon."""
    return max(cfg.fatigue_floor, 1.0 - elapsed_s / cfg.fatigue_horizon_s)


def workload_factor(queue_load: int, cfg: SimConfig) -> float:
    """Soft penalty for items waiting behind the one being serviced."""
    return 1.0 / (1.0 + cfg.workload_coef * queue_load)


def complexity_factor(difficulty: Tier, cfg: SimConfig) -> float:
    """1 - 0.5 * sigmoid(steepness * (d - midpoint)) on the {-1, 0, 1} axis."""
    z = cfg.complexity_steepness * (difficulty.axis - cfg.complexity_midpoint)
    return 1.0 - 0.5 / (1.0 + math.exp(-z))


def _clamp(p: float) -> float:
    return min(P_CEIL, max(P_FLOOR, p))


def human_accuracy_probability(
    profile, elapsed_s: float, queue_load: int, difficulty: Tier, cfg: SimConfig
) -> float:
    """Probability a human classifies correctly at a given moment.

    Multiplicative composition of cognition base, skill adjustment, fatigue,
    workload, and complexity; clamped to [0.05, 0.99]. Monotone non-increasing
    in elapsed time, queue load, and difficulty.
    """
    if elapsed_s < 0:
        raise ValueError("elapsed time must be >= 0")
    if queue_load < 0:
        raise ValueError("queue load must be >= 0")
    p = (
        cfg.human_base_accuracy[profile.cognition]
        * cfg.skill_multiplier[profile.skill]
        * fatigue_factor(elapsed_s, cfg)
        * workload_factor(queue_load, cfg)
        * complexity_factor(difficulty, cfg)
    )
    return _clamp(p)


def robot_accuracy_probability(
    camera: Tier, difficulty: Tier, shared_with: Tier | None, cfg: SimConfig
) -> float:
    """Probability of a correct onboard classification.

    Camera-tier base, multiplied by the operator-skill quality factor when the
    capture happens under shared control, minus a difficulty penalty.
    """
    quality = cfg.shared_quality_multiplier[shared_with] if shared_with is not None else 1.0
    p = cfg.robot_base_accuracy[camera] * quality - cfg.difficulty_penalty[difficulty]
    return _clamp(p)


def _unit_draw(seed: int, agent_id: str, task_id: str) -> float:
    """Uniform [0, 1) draw keyed by (seed, agent, task)."""
    digest = hashlib.sha256(f"{seed}|{agent_id}|{task_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") / 2.0**64


@dataclass(frozen=True)
class TaskOutcome:
    task_id: str
    classified_by: str  # "robot" | "human"
    classifier_id: str
    correct: bool
    completion_s: float
    probability: float


@dataclass(frozen=True)
class SimTrace:
    """What `run_mission` worked out. `classifications` holds (task, "robot" |
    "human", classifier id, completion time, probability correct) in outcome
    order; `captures` holds (arrival time, robot, task, analyst | None) per
    task, `services` (start, end, human, task, items waiting) per analysis,
    and `correct` the coin flip per task. The per-task outcomes and the flat
    event log are built when first read."""

    classifications: tuple[tuple[str, str, str, float, float], ...]
    busy: dict[str, tuple[tuple[float, float], ...]]
    captures: tuple[tuple[float, str, str, str | None], ...]
    services: tuple[tuple[float, float, str, str, int], ...]
    correct: dict[str, bool]

    @cached_property
    def outcomes(self) -> dict[str, TaskOutcome]:
        return {
            task_id: TaskOutcome(task_id, kind, agent_id, self.correct[task_id], completion_s, p)
            for task_id, kind, agent_id, completion_s, p in self.classifications
        }

    @cached_property
    def events(self) -> tuple[tuple[float, str, str, str, str], ...]:
        correct = self.correct
        events: list[tuple[float, str, str, str, str]] = []
        for t, robot_id, task_id, analyst_id in self.captures:
            events.append((t, "capture", robot_id, task_id, ""))
            if analyst_id is None:
                events.append((t, "classify", robot_id, task_id, f"correct={correct[task_id]}"))
            else:
                events.append((t, "enqueue", analyst_id, task_id, ""))
        for start, end, human_id, task_id, waiting in self.services:
            events.append((start, "service_start", human_id, task_id, f"load={waiting}"))
            events.append((end, "classify", human_id, task_id, f"correct={correct[task_id]}"))
        # (time, kind, agent, task) is unique per event, so the detail never
        # decides the order
        events.sort()
        return tuple(events)

    def render_events(self) -> str:
        """One line per event: time, kind, agent, task, detail."""
        return "\n".join(
            f"t={fmt_num(t)} {kind} agent={agent} task={task}" + (f" {detail}" if detail else "")
            for t, kind, agent, task, detail in self.events
        )


def run_mission(
    scenario: MissionScenario, plan: ItaPlan, cfg: SimConfig
) -> tuple[PerformanceRecord, SimTrace]:
    """Execute an allocation and flip its coins under `cfg.seed`. Returns the
    performance triple and the trace, whose outcomes and event log are built
    only when read.

    Robots start at the arena origin and visit their tasks in plan order;
    shared control scales travel speed by the operator's skill tier. Captures
    are classified onboard for autonomous assignments, otherwise queued to the
    controlling human (FIFO, fixed service time per difficulty) and resolved
    at service completion.
    """
    check = validate_plan(plan, scenario)
    if not check.ok:
        raise ValueError(f"invalid plan: {check.violations[0]}")

    captures: list[tuple[float, str, str, str | None]] = []
    services: list[tuple[float, float, str, str, int]] = []
    busy: dict[str, list[tuple[float, float]]] = {
        a.id: [] for a in scenario.humans + scenario.robots
    }
    classified: list[tuple[str, str, str, float, float]] = []
    analysis_queue: dict[str, list[tuple[float, str]]] = {h.id: [] for h in scenario.humans}

    tasks = {t.id: t for t in scenario.tasks}
    humans = {h.id: h for h in scenario.humans}
    # Each robot's tasks, in canonical plan order.
    routes: dict[str, list[tuple[str, str | None]]] = {r.id: [] for r in scenario.robots}
    for task_id, (robot_id, human_id) in plan.assignments.items():
        routes[robot_id].append((task_id, human_id))

    for robot in scenario.robots:
        pos = (0.0, 0.0)
        now = 0.0
        for task_id, analyst_id in routes[robot.id]:
            task = tasks[task_id]
            speed = robot.speed
            if analyst_id is not None:
                speed *= cfg.shared_speed_multiplier[humans[analyst_id].skill]
            leg = travel_time(pos, task.location, speed)
            depart, now = now, now + leg
            pos = task.location
            busy[robot.id].append((depart, now))
            captures.append((now, robot.id, task_id, analyst_id))
            if analyst_id is None:
                p = robot_accuracy_probability(robot.camera_quality, task.difficulty, None, cfg)
                classified.append((task_id, "robot", robot.id, now, p))
            else:
                analysis_queue[analyst_id].append((now, task_id))

    for profile in scenario.humans:
        items = sorted(analysis_queue[profile.id], key=lambda it: (it[0], natural_key(it[1])))
        arrivals = [arrival for arrival, _ in items]
        free_at = 0.0
        for idx, (arrival, task_id) in enumerate(items):
            difficulty = tasks[task_id].difficulty
            start = max(arrival, free_at)
            # items are in arrival order, so those waiting are the run after idx
            waiting = bisect_right(arrivals, start, idx + 1) - (idx + 1)
            end = start + cfg.analysis_service_s[difficulty]
            p = human_accuracy_probability(profile, end, waiting, difficulty, cfg)
            classified.append((task_id, "human", profile.id, end, p))
            busy[profile.id].append((start, end))
            services.append((start, end, profile.id, task_id, waiting))
            free_at = end

    # every classification ends a busy span: a robot's capture or an analysis
    mission_seconds = max((end for spans in busy.values() for _, end in spans), default=0.0)

    if scenario.humans and mission_seconds > 0:
        utilization = ordered_sum(
            ordered_sum(end - start for start, end in busy[h.id]) for h in scenario.humans
        ) / (len(scenario.humans) * mission_seconds)
    else:
        utilization = 0.0

    correct = {
        task_id: _unit_draw(cfg.seed, agent_id, task_id) < p
        for task_id, _, agent_id, _, p in classified
    }
    points = cfg.points_per_correct * sum(correct.values())
    return PerformanceRecord(points, mission_seconds, utilization), SimTrace(
        classifications=tuple(classified),
        busy={agent: tuple(spans) for agent, spans in busy.items()},
        captures=tuple(captures),
        services=tuple(services),
        correct=correct,
    )


@dataclass(frozen=True)
class PlanSchedules:
    """Many plans of one scenario up to their coin flips, one row per plan.
    `classifier[n, t]` indexes `scenario.robots + scenario.humans`: the
    agent that classifies task t in plan n, correctly with probability
    `p_correct[n, t]`."""

    classifier: np.ndarray
    p_correct: np.ndarray
    mission_seconds: np.ndarray
    utilization: np.ndarray


def schedule_plans(
    scenario: MissionScenario, robot_of: np.ndarray, human_of: np.ndarray, cfg: SimConfig
) -> PlanSchedules:
    """Many plans' missions up to their coin flips, as arrays; each value is
    the float `run_mission` gives for that plan alone.

    `robot_of[n, t]` is the index in `scenario.robots` of the robot that
    travels to `scenario.tasks[t]` in plan n, and `human_of[n, t]` the index
    in `scenario.humans` of the human sharing its control, or -1 for an
    autonomous capture.
    """
    humans, robots, tasks = scenario.humans, scenario.robots, scenario.tasks
    plans, n_tasks = robot_of.shape
    rows = np.arange(plans)
    columns = np.arange(n_tasks)

    # row 0 leaves from the arena origin, row i + 1 from task i
    stops = [(0.0, 0.0)] + [task.location for task in tasks]
    dist = np.array([[math.dist(stop, task.location) for task in tasks] for stop in stops])
    dist = dist.reshape(n_tasks + 1, n_tasks)
    # column 0 is autonomous travel, column h + 1 shared with humans[h]
    speed = np.array([
        [robot.speed] + [robot.speed * cfg.shared_speed_multiplier[h.skill] for h in humans]
        for robot in robots
    ]).reshape(len(robots), len(humans) + 1)
    robot_p = np.array([
        robot_accuracy_probability(robot.camera_quality, task.difficulty, None, cfg)
        for robot in robots
        for task in tasks
    ]).reshape(len(robots), n_tasks)

    # robots visit their tasks in task order: one leg per task
    last_stop = np.zeros((plans, len(robots)), dtype=np.intp)
    now = np.zeros((plans, len(robots)))
    arrival = np.empty((plans, n_tasks))
    for t in range(n_tasks):
        robot = robot_of[:, t]
        leg = dist[last_stop[rows, robot], t] / speed[robot, human_of[:, t] + 1]
        now[rows, robot] = now[rows, robot] + leg
        arrival[:, t] = now[rows, robot]
        last_stop[rows, robot] = t + 1
    p_correct = robot_p[robot_of, columns]

    service = np.array([cfg.analysis_service_s[task.difficulty] for task in tasks])
    complexity = np.array([complexity_factor(task.difficulty, cfg) for task in tasks])
    workload = np.array([workload_factor(waiting, cfg) for waiting in range(n_tasks)])
    mission_seconds = now.max(axis=1, initial=0.0)
    busy = np.zeros(plans)  # humans' busy seconds, summed as `run_mission` sums them
    for h, profile in enumerate(humans):
        # the FIFO queue: by arrival, then task order; other tasks sort last
        queue = np.where(human_of == h, arrival, np.inf)
        order = np.argsort(queue, axis=1, kind="stable")
        queue = np.take_along_axis(queue, order, axis=1)
        length = (human_of == h).sum(axis=1)
        base = cfg.human_base_accuracy[profile.cognition] * cfg.skill_multiplier[profile.skill]
        free_at = np.zeros(plans)
        spent = np.zeros(plans)
        for j in range(length.max(initial=0)):
            n = np.flatnonzero(length > j)  # the plans with a j-th item
            task = order[n, j]
            start = np.maximum(queue[n, j], free_at[n])
            waiting = (queue[n, j + 1 :] <= start[:, None]).sum(axis=1)
            end = start + service[task]
            fatigue = np.maximum(cfg.fatigue_floor, 1.0 - end / cfg.fatigue_horizon_s)
            p = base * fatigue * workload[waiting] * complexity[task]
            p_correct[n, task] = np.minimum(P_CEIL, np.maximum(P_FLOOR, p))
            spent[n] = spent[n] + (end - start)
            free_at[n] = end
        busy = busy + spent
        mission_seconds = np.maximum(mission_seconds, free_at)

    utilization = np.zeros(plans)
    if humans:
        timed = mission_seconds > 0
        utilization[timed] = busy[timed] / (len(humans) * mission_seconds[timed])
    return PlanSchedules(
        classifier=np.where(human_of >= 0, len(robots) + human_of, robot_of),
        p_correct=p_correct,
        mission_seconds=mission_seconds,
        utilization=utilization,
    )
