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
from dataclasses import dataclass, field, replace
from pathlib import Path

from .core import (
    ItaPlan,
    MissionScenario,
    PerformanceRecord,
    Tier,
    fmt_num,
    natural_key,
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
        if self.fatigue_horizon_s <= 0:
            raise ValueError("fatigue horizon must be > 0")
        if not (0.0 <= self.fatigue_floor <= 1.0):
            raise ValueError("fatigue floor must lie in [0, 1]")

    def with_seed(self, seed: int) -> "SimConfig":
        return replace(self, seed=seed)

    def dump(self, path: str | Path) -> None:
        def tiers(m: dict[Tier, float]) -> dict[str, float]:
            return {t.value: v for t, v in m.items()}

        payload = {
            "human_base_accuracy": tiers(self.human_base_accuracy),
            "skill_multiplier": tiers(self.skill_multiplier),
            "fatigue_floor": self.fatigue_floor,
            "fatigue_horizon_s": self.fatigue_horizon_s,
            "workload_coef": self.workload_coef,
            "complexity_steepness": self.complexity_steepness,
            "complexity_midpoint": self.complexity_midpoint,
            "robot_base_accuracy": tiers(self.robot_base_accuracy),
            "difficulty_penalty": tiers(self.difficulty_penalty),
            "shared_speed_multiplier": tiers(self.shared_speed_multiplier),
            "shared_quality_multiplier": tiers(self.shared_quality_multiplier),
            "analysis_service_s": tiers(self.analysis_service_s),
            "points_per_correct": self.points_per_correct,
            "seed": self.seed,
        }
        Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "SimConfig":
        raw = json.loads(Path(path).read_text(encoding="utf-8"))

        def tiers(m: dict[str, float]) -> dict[Tier, float]:
            return {Tier.parse(k): float(v) for k, v in m.items()}

        kwargs = {}
        for name, value in raw.items():
            kwargs[name] = tiers(value) if isinstance(value, dict) else value
        return cls(**kwargs)


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
    """Per-task outcomes, per-agent busy intervals, and a flat event log."""

    outcomes: dict[str, TaskOutcome]
    busy: dict[str, tuple[tuple[float, float], ...]]
    events: tuple[tuple[float, str, str, str, str], ...]

    def render_events(self) -> str:
        """One line per event: time, kind, agent, task, detail."""
        return "\n".join(
            f"t={fmt_num(t)} {kind} agent={agent} task={task}" + (f" {detail}" if detail else "")
            for t, kind, agent, task, detail in self.events
        )


def run_mission(
    scenario: MissionScenario, plan: ItaPlan, cfg: SimConfig
) -> tuple[PerformanceRecord, SimTrace]:
    """Execute an allocation and score it.

    Robots start at the arena origin and visit their tasks in plan order;
    shared control scales travel speed by the operator's skill tier. Captures
    are classified onboard for autonomous assignments, otherwise queued to the
    controlling human (FIFO, fixed service time per difficulty) and resolved
    at service completion. Returns the performance triple and the full trace.
    """
    check = validate_plan(plan, scenario)
    if not check.ok:
        raise ValueError(f"invalid plan: {check.violations[0]}")

    events: list[tuple[float, str, str, str, str]] = []
    busy: dict[str, list[tuple[float, float]]] = {
        a.id: [] for a in scenario.humans + scenario.robots
    }
    outcomes: dict[str, TaskOutcome] = {}
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
            events.append((now, "capture", robot.id, task_id, ""))
            if analyst_id is None:
                p = robot_accuracy_probability(robot.camera_quality, task.difficulty, None, cfg)
                correct = _unit_draw(cfg.seed, robot.id, task_id) < p
                outcomes[task_id] = TaskOutcome(task_id, "robot", robot.id, correct, now, p)
                events.append((now, "classify", robot.id, task_id, f"correct={correct}"))
            else:
                analysis_queue[analyst_id].append((now, task_id))
                events.append((now, "enqueue", analyst_id, task_id, ""))

    for human_id, queue in analysis_queue.items():
        items = sorted(queue, key=lambda it: (it[0], natural_key(it[1])))
        if not items:
            continue
        profile = humans[human_id]
        free_at = 0.0
        for idx, (arrival, task_id) in enumerate(items):
            difficulty = tasks[task_id].difficulty
            start = max(arrival, free_at)
            waiting = sum(1 for later_arrival, _ in items[idx + 1:] if later_arrival <= start)
            end = start + cfg.analysis_service_s[difficulty]
            p = human_accuracy_probability(profile, end, waiting, difficulty, cfg)
            correct = _unit_draw(cfg.seed, human_id, task_id) < p
            outcomes[task_id] = TaskOutcome(task_id, "human", human_id, correct, end, p)
            busy[human_id].append((start, end))
            events.append((start, "service_start", human_id, task_id, f"load={waiting}"))
            events.append((end, "classify", human_id, task_id, f"correct={correct}"))
            free_at = end

    completion_times = [o.completion_s for o in outcomes.values()]
    completion_times += [interval[1] for spans in busy.values() for interval in spans]
    mission_seconds = max(completion_times, default=0.0)

    accuracy_points = cfg.points_per_correct * sum(1 for o in outcomes.values() if o.correct)

    if scenario.humans and mission_seconds > 0:
        utilization = sum(
            sum(end - start for start, end in busy[h.id]) for h in scenario.humans
        ) / (len(scenario.humans) * mission_seconds)
    else:
        utilization = 0.0

    record = PerformanceRecord(accuracy_points, mission_seconds, utilization)
    trace = SimTrace(
        outcomes=outcomes,
        busy={agent: tuple(spans) for agent, spans in busy.items()},
        events=tuple(sorted(events, key=lambda e: (e[0], e[1], e[2], e[3]))),
    )
    return record, trace
