"""Experiment harness: scenario generation, baseline allocators, a brute-force
optimum for desk-scale instances, team composition changes, and the
single/multi-objective and situational-awareness experiment drivers.

Because absolute metric values depend on configurable model constants, the
harness's primary reproducible outputs are relative orderings (Welch tests),
normalized preference-alignment tables, and invariant checks; absolute means
are still logged for calibration.
"""

from __future__ import annotations

import csv
import json
import math
import random
import statistics
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from .core import (
    ARENA_SIDE_DEFAULT,
    Assignment,
    HumanProfile,
    ItaPlan,
    MissionScenario,
    NormalizationBounds,
    Objective,
    ObjectiveBounds,
    PerformanceRecord,
    PreferenceVector,
    RobotKind,
    RobotProfile,
    TaskSpec,
    Tier,
    aggregate_scores,
    check_performance_columns,
    echo,
    natural_key,
    normalize_objective,
    performance_columns,
)
from .llm import CompletionProvider, heuristic_allocate
from .pipeline import RetrievalConfig, allocate_with_model, derive_seed, infer
from .retrieval import ExperienceDatabase, RulesDatabase
from .sim import SimConfig, _unit_draw, run_mission, schedule_plans

METHODS = ("rebel", "zero_shot", "heuristic", "random", "brute_force")
ADAPTIVE_METHODS = ("rebel", "zero_shot")  # can re-plan after composition changes

MOO_PRIMARY_WEIGHT = 0.5
BRUTE_FORCE_CAP = 100_000


class Mode:
    SOO = "SOO"
    MOO = "MOO"
    SITUATIONAL = "SituationalAwareness"


@dataclass(frozen=True)
class TeamSpec:
    humans: int = 5
    robots: int = 7
    pois: int = 30


@dataclass(frozen=True)
class CompositionChange:
    """Post-planning team edit: explicit removals and/or count-based ones."""

    remove_ids: tuple[str, ...] = ()
    remove_robots: int = 0
    remove_humans: int = 0
    add_robots: int = 0
    add_humans: int = 0


# what a situational-awareness spec without a `change` does
DEFAULT_CHANGE = CompositionChange(remove_robots=1, remove_humans=1)


class CompositionError(ValueError):
    """A composition change that cannot apply to a scenario."""


@dataclass(frozen=True)
class ExperimentSpec:
    mode: str = Mode.SOO
    team: TeamSpec = TeamSpec()
    trials: int = 100
    methods: tuple[str, ...] = ("rebel", "random")
    seed: int = 0
    preferences: tuple[PreferenceVector, ...] = ()
    change: CompositionChange | None = None
    brute_force_samples: int = 8

    def __post_init__(self) -> None:
        situational = self.mode == Mode.SITUATIONAL
        change = self.change or (DEFAULT_CHANGE if situational else CompositionChange())
        counts = {
            "trials": (self.trials, 1),
            "seed": (self.seed, None),
            "brute_force_samples": (self.brute_force_samples, 1),
            "humans": (self.team.humans, 0),
            "robots": (self.team.robots, 1),
            "pois": (self.team.pois, 0),
            **{
                f"change.{name}": (getattr(change, name), 0)
                for name in ("remove_robots", "remove_humans", "add_robots", "add_humans")
            },
        }
        for name, (value, minimum) in counts.items():
            # bool is an int subclass
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an integer, got {echo(value)}")
            if minimum is not None and value < minimum:
                raise ValueError(f"{name} must be >= {minimum}, got {value}")
        ids = change.remove_ids
        if not isinstance(ids, tuple) or not all(isinstance(agent, str) for agent in ids):
            raise ValueError(f"change.remove_ids must be a list of strings, got {echo(ids)}")
        if self.change and not situational:
            raise ValueError(f"a change applies only in {Mode.SITUATIONAL} mode, not {self.mode}")
        if change.remove_robots >= self.team.robots:  # robots go before any are added
            note = "" if self.change else " (the default change)"
            raise ValueError(f"change.remove_robots must be < robots ({self.team.robots}), "
                             f"got {change.remove_robots}{note}")
        if not self.methods:
            raise ValueError("at least one method is required")
        for method in self.methods:
            if method not in METHODS:
                raise ValueError(f"unknown method {method!r}; pick from {METHODS}")
        if self.mode not in (Mode.SOO, Mode.MOO, Mode.SITUATIONAL):
            raise ValueError(f"unknown mode {self.mode!r}")
        if "brute_force" in self.methods and not situational:  # N/A there: it cannot re-plan
            # the trial's plans number candidates ** pois (`_plan_rows`); multiplied
            # out only until past the cap, so a vast team builds no vast integer
            candidates, plans = self.team.robots * (1 + self.team.humans), 1
            for _ in range(self.team.pois if candidates > 1 else 0):
                plans *= candidates
                if plans > BRUTE_FORCE_CAP:
                    raise ValueError(
                        f"brute_force would search ({echo(self.team.robots)} x "
                        f"(1 + {echo(self.team.humans)}))^{echo(self.team.pois)} plans, more than "
                        f"the {BRUTE_FORCE_CAP} plan cap; use a smaller team or fewer pois"
                    )
        if not self.preferences:
            object.__setattr__(self, "preferences", default_preferences(self.mode))
        if situational:
            object.__setattr__(self, "change", change)

    @classmethod
    def from_json(cls, path: str | Path) -> "ExperimentSpec":
        """A spec from a JSON file; every key it omits keeps the dataclass
        default, and a key that names no setting is a ValueError."""
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except RecursionError:  # JSON nested past the interpreter's stack
            raise ValueError("JSON nested too deeply to decode") from None
        _expect(raw, dict, "a spec", "an object")
        _reject_unknown_keys(raw, "spec", cls, TeamSpec, skip="team")
        kwargs = _present_fields(cls, raw)
        kwargs["team"] = TeamSpec(**_present_fields(TeamSpec, raw))
        if "methods" in raw:
            kwargs["methods"] = tuple(_expect(raw["methods"], list, "methods", "a list"))
        preferences = _expect(raw.get("preferences", []), list, "preferences", "a list")
        kwargs["preferences"] = tuple(
            PreferenceVector(tuple(
                (Objective.parse(k), _weight(v))
                for k, v in _expect(p, dict, "a preferences entry", "an object").items()
            ))
            for p in preferences
        )
        if "change" in raw:
            _expect(raw["change"], dict, "change", "an object")
            _reject_unknown_keys(raw["change"], "change", CompositionChange)
            change = _present_fields(CompositionChange, raw["change"])
            if "remove_ids" in change:
                change["remove_ids"] = tuple(
                    _expect(change["remove_ids"], list, "change.remove_ids", "a list of strings")
                )
            kwargs["change"] = CompositionChange(**change)
        return cls(**kwargs)


def _expect(value, kind: type, what: str, name: str):
    """`value`, or a ValueError unless it is a `kind`."""
    if not isinstance(value, kind):
        raise ValueError(f"{what} must be {name}, got {echo(value)}")
    return value


def _weight(value) -> float:
    """A preferences weight as a float, or a ValueError unless it is a JSON
    number (not a boolean, and not an integer past the float range)."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValueError(f"a preferences weight must be a number, got {echo(value)}")


def _reject_unknown_keys(raw: dict, where: str, *classes, skip: str = "") -> None:
    """ValueError unless every key of `raw` names a field of one of `classes`."""
    known = {f.name for cls in classes for f in fields(cls)} - {skip}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ValueError(f"unknown {where} keys {unknown}; known keys are {sorted(known)}")


def _present_fields(cls, raw: dict) -> dict:
    """The entries of `raw` that name a field of dataclass `cls`."""
    return {f.name: raw[f.name] for f in fields(cls) if f.name in raw}


def default_preferences(mode: str) -> tuple[PreferenceVector, ...]:
    if mode == Mode.SOO:
        return tuple(PreferenceVector.single(obj) for obj in Objective)
    if mode == Mode.MOO:
        return tuple(rotation_preferences())
    return (PreferenceVector.single(Objective.TASK_PERFORMANCE),)


def rotation_preferences() -> list[PreferenceVector]:
    """One preference vector per objective, giving it `MOO_PRIMARY_WEIGHT`
    and splitting the remainder evenly over the others."""
    primary = MOO_PRIMARY_WEIGHT
    rest = (1.0 - primary) / (len(Objective) - 1)
    return [
        PreferenceVector(tuple((obj, primary if obj is focus else rest) for obj in Objective))
        for focus in Objective
    ]


_TIERS = tuple(Tier)


def _free_id(prefix: str, taken: set[str]) -> str:
    """The first `<prefix>_<n>` not in `taken`, which it is added to."""
    n = 0
    while f"{prefix}_{n}" in taken:
        n += 1
    taken.add(f"{prefix}_{n}")
    return f"{prefix}_{n}"


def _draw_human(rng: random.Random, taken: set[str]) -> HumanProfile:
    return HumanProfile(_free_id("H", taken), cognition=rng.choice(_TIERS), skill=rng.choice(_TIERS))


def _draw_robot(rng: random.Random, kind: RobotKind, taken: set[str]) -> RobotProfile:
    return RobotProfile(
        _free_id(kind.value, taken),
        kind,
        speed=round(rng.uniform(5.0, 15.0), 1),
        camera_quality=rng.choice(_TIERS),
    )


def random_scenario(humans: int, robots: int, tasks: int, seed: int) -> MissionScenario:
    """Uniformly random team and task layout in the default arena,
    deterministic in the seed."""
    rng = random.Random(seed)
    taken: set[str] = set()
    human_profiles = tuple(_draw_human(rng, taken) for _ in range(humans))
    robot_profiles = tuple(
        _draw_robot(rng, rng.choice((RobotKind.UAV, RobotKind.UGV)), taken) for _ in range(robots)
    )
    task_specs = tuple(
        TaskSpec(
            f"T_{i}",
            tuple(round(rng.uniform(0, ARENA_SIDE_DEFAULT), 1) for _ in range(2)),
            rng.choice(_TIERS),
        )
        for i in range(tasks)
    )
    return MissionScenario(humans=human_profiles, robots=robot_profiles, tasks=task_specs)


def random_allocate(scenario: MissionScenario, seed: int) -> ItaPlan:
    """Uniform feasible baseline: random robot, random collaboration pattern."""
    if not scenario.robots:
        raise ValueError("scenario has no robots")
    rng = random.Random(seed)
    options = _pattern_options(scenario)
    return ItaPlan({
        task.id: Assignment(rng.choice(scenario.robots).id, rng.choice(options))
        for task in scenario.tasks
    })


def _pattern_options(scenario: MissionScenario) -> list[str | None]:
    """The 1 + H collaboration patterns: autonomous, or one human's shared control."""
    return [None] + [h.id for h in scenario.humans]


def _candidates(scenario: MissionScenario) -> list[Assignment]:
    """The robot x collaboration-pattern candidates of one task, robot by
    robot: candidate c is robot `c // (1 + H)`, autonomous when `c % (1 + H)`
    is 0 and else shared with human `c % (1 + H) - 1`."""
    options = _pattern_options(scenario)
    return [Assignment(robot.id, human) for robot in scenario.robots for human in options]


def _plan_rows(scenario: MissionScenario) -> np.ndarray:
    """Every feasible plan as a row of candidate indices, one per task, in
    `itertools.product` order; `ValueError` past `BRUTE_FORCE_CAP` plans."""
    candidates, tasks = len(_candidates(scenario)), len(scenario.tasks)
    if candidates**tasks > BRUTE_FORCE_CAP:
        raise ValueError(f"search space exceeds the {BRUTE_FORCE_CAP} plan cap; use a smaller instance")
    grid = np.indices((candidates,) * tasks, dtype=np.intp)
    return grid.reshape(tasks, candidates**tasks).T


def _plans_of(scenario: MissionScenario, rows: np.ndarray) -> list[ItaPlan]:
    """The plans that rows of candidate indices stand for."""
    task_ids = [t.id for t in scenario.tasks]
    candidates = _candidates(scenario)
    return [
        ItaPlan({task_id: candidates[c] for task_id, c in zip(task_ids, row)})
        for row in rows.tolist()
    ]


def enumerate_plans(scenario: MissionScenario) -> list[ItaPlan]:
    """Every feasible plan over the robot x collaboration-pattern candidate set."""
    return _plans_of(scenario, _plan_rows(scenario))


@dataclass(frozen=True, eq=False)
class PlanTable:
    """Every enumerated plan of one scenario, simulated once per sample seed.

    `rows[n]` holds plan n's candidate index per task, and `columns` its
    records in the layout of `performance_columns`, one (plan, sample) grid
    per objective. The normalization bounds are shared across every record,
    so scores are comparable across plans. Nothing here depends on a
    preference vector: one table scores any number of them. Plans are built
    only when read.
    """

    scenario: MissionScenario
    rows: np.ndarray
    columns: np.ndarray
    bounds: NormalizationBounds

    def __post_init__(self) -> None:
        check_performance_columns(self.columns.reshape(len(Objective), -1))

    @cached_property
    def plans(self) -> list[ItaPlan]:
        return _plans_of(self.scenario, self.rows)

    def _per_sample(self, prefs: PreferenceVector) -> np.ndarray:
        """Aggregate score per (plan, sample)."""
        flat = self.columns.reshape(len(Objective), -1)
        return aggregate_scores(flat, prefs, self.bounds).reshape(self.columns.shape[1:])

    def scores(self, prefs: PreferenceVector) -> list[float]:
        """Mean aggregate score per plan under common random numbers."""
        return list(map(statistics.fmean, self._per_sample(prefs).tolist()))

    def best(self, prefs: PreferenceVector) -> tuple[ItaPlan, float]:
        """The top-scoring plan; ties break toward the lexicographically
        smallest plan text. Only the tied plans are built and rendered.

        numpy row means screen the plans: a per-sample score lies in [0, 1],
        so a row mean is within about 1e-15 of its `fmean`, and only the rows
        within 1e-9 of the best screened mean get the exact score."""
        per_sample = self._per_sample(prefs)
        screen = per_sample.mean(axis=1)
        near = np.flatnonzero(screen >= screen.max() - 1e-9)
        scores = list(map(statistics.fmean, per_sample[near].tolist()))
        top = max(scores)
        tied = _plans_of(self.scenario, self.rows[near[[score == top for score in scores]]])
        return (tied[0] if len(tied) == 1 else min(tied, key=ItaPlan.render)), top


def simulate_plans(
    scenario: MissionScenario,
    sim_cfg: SimConfig,
    samples_per_plan: int = 8,
    base_seed: int = 0,
) -> PlanTable:
    """Enumerate the plans and simulate each on seeds `base_seed + s`.

    Samples differ only in their coin flips, so the plans are scheduled once,
    all together (`schedule_plans`), and each (seed, agent, task) coin is
    flipped once for the whole table.
    """
    rows = _plan_rows(scenario)
    patterns = len(scenario.humans) + 1
    schedules = schedule_plans(scenario, rows // patterns, rows % patterns - 1, sim_cfg)
    agents = [agent.id for agent in scenario.robots + scenario.humans]
    seeds = range(base_seed, base_seed + samples_per_plan)
    draws = np.array([
        [[_unit_draw(seed, agent, task.id) for task in scenario.tasks] for agent in agents]
        for seed in seeds
    ]).reshape(len(seeds), len(agents), len(scenario.tasks))
    tasks = np.arange(len(scenario.tasks))
    hits = (draws[:, schedules.classifier, tasks] < schedules.p_correct).sum(axis=2).T
    shape = hits.shape
    performance = np.stack((
        sim_cfg.points_per_correct * hits,
        np.broadcast_to(schedules.mission_seconds[:, None], shape),
        np.broadcast_to(schedules.utilization[:, None], shape),
    ))
    return PlanTable(
        scenario, rows, performance,
        NormalizationBounds.from_columns(performance.reshape(len(Objective), -1)),
    )


def brute_force_table(
    scenario: MissionScenario,
    prefs: PreferenceVector,
    sim_cfg: SimConfig,
    samples_per_plan: int = 8,
    base_seed: int = 0,
) -> list[tuple[ItaPlan, float]]:
    """Mean aggregate score per enumerated plan (see `simulate_plans`)."""
    table = simulate_plans(scenario, sim_cfg, samples_per_plan, base_seed)
    return list(zip(table.plans, table.scores(prefs)))


def brute_force_optimal(
    scenario: MissionScenario,
    prefs: PreferenceVector,
    sim_cfg: SimConfig,
    samples_per_plan: int = 8,
    base_seed: int = 0,
) -> tuple[ItaPlan, float]:
    """Exhaustive argmax of the mean aggregate score; ties break toward the
    lexicographically smallest plan text."""
    return simulate_plans(scenario, sim_cfg, samples_per_plan, base_seed).best(prefs)


@dataclass(frozen=True)
class ChangeReport:
    removed: tuple[str, ...]
    added: tuple[str, ...]
    orphaned_tasks: tuple[str, ...]


def apply_composition_change(
    scenario: MissionScenario, plan: ItaPlan, change: CompositionChange
) -> tuple[MissionScenario, ChangeReport]:
    """Strip/add team members and report plan assignments left dangling."""
    remove = set(change.remove_ids)
    if change.remove_robots:
        remove.update(r.id for r in scenario.robots[-change.remove_robots:])
    if change.remove_humans:
        remove.update(h.id for h in scenario.humans[-change.remove_humans:])

    taken = scenario.human_ids() | scenario.robot_ids()
    unknown = remove - taken
    if unknown:
        raise CompositionError(f"cannot remove unknown agents: {sorted(unknown)}")

    humans = tuple(h for h in scenario.humans if h.id not in remove)
    robots = tuple(r for r in scenario.robots if r.id not in remove)
    if not robots:
        raise CompositionError("composition change would leave the team with no robots")

    rng = random.Random(derive_seed("composition", *sorted(remove)))
    new_humans = tuple(_draw_human(rng, taken) for _ in range(change.add_humans))
    new_robots = tuple(_draw_robot(rng, RobotKind.UGV, taken) for _ in range(change.add_robots))

    orphaned = tuple(
        task_id
        for task_id in plan.assignments
        if plan.referenced_agents(task_id) & remove
    )
    modified = MissionScenario(
        humans=humans + new_humans,
        robots=robots + new_robots,
        tasks=scenario.tasks,
        arena_side=scenario.arena_side,
    )
    return modified, ChangeReport(
        removed=tuple(sorted(remove, key=natural_key)),
        added=tuple(member.id for member in new_humans + new_robots),
        orphaned_tasks=orphaned,
    )


def welch_test(sample_a: list[float], sample_b: list[float]) -> tuple[float, float]:
    """Two-sided Welch t-test; returns (statistic, p-value).

    Agrees with `scipy.stats.ttest_ind(a, b, equal_var=False)`, degenerate
    cases included: a sample of fewer than two values gives (nan, nan), and
    two constant samples give an infinite statistic with p = 0 (nan, nan when
    their means are equal).
    """
    na, nb = len(sample_a), len(sample_b)
    if na < 2 or nb < 2:
        return math.nan, math.nan
    diff = statistics.fmean(sample_a) - statistics.fmean(sample_b)
    va = statistics.variance(sample_a) / na
    vb = statistics.variance(sample_b) / nb
    if va + vb == 0:
        return (math.copysign(math.inf, diff), 0.0) if diff else (math.nan, math.nan)
    t = diff / math.sqrt(va + vb)
    df = (va + vb) ** 2 / (va**2 / (na - 1) + vb**2 / (nb - 1))
    # P(|T| > |t|) for Student's T with df degrees of freedom is I_x(df/2, 1/2)
    # at x = df / (df + t^2)
    t2 = t * t
    return t, _betainc(df / 2, 0.5, df / (df + t2), t2 / (df + t2))


def _betainc(a: float, b: float, x: float, y: float) -> float:
    """Regularized incomplete beta function I_x(a, b), given y = 1 - x
    computed without cancellation, by Lentz's method on its continued
    fraction."""
    if x <= 0.0:
        return 0.0
    if y <= 0.0:
        return 1.0
    if x > (a + 1.0) / (a + b + 2.0):  # the fraction converges fast only below this
        return 1.0 - _betainc(b, a, y, x)
    log_front = (
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b) + a * math.log(x) + b * math.log(y)
    )
    tiny = 1e-300
    f, c, d = 1.0, 1.0, 0.0
    for i in range(1000):
        m = i // 2
        if i == 0:
            num = 1.0
        elif i % 2:
            num = -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))
        else:
            num = m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m))
        d = 1.0 + num * d
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = 1.0 + num / c
        c = c if abs(c) > tiny else tiny
        f *= c * d
        if abs(1.0 - c * d) < 1e-15:
            return math.exp(log_front) / a * (f - 1.0)
    raise ArithmeticError(f"incomplete beta I_{x}({a}, {b}) did not converge")


@dataclass
class BenchDeps:
    """Everything run_experiment needs beyond the spec itself."""

    provider: CompletionProvider
    rules_db: RulesDatabase
    exp_db: ExperienceDatabase
    sim_cfg: SimConfig = field(default_factory=SimConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    workers: int = 1


@dataclass
class CellResult:
    method: str
    pref_label: str
    prefs: PreferenceVector
    prioritized: str | None
    records: list[PerformanceRecord]
    fallbacks: int
    runtime_s: float
    na: bool = False
    changed_records: list[PerformanceRecord] | None = None
    norms: dict[Objective, float] = field(default_factory=dict)
    aligned: bool | None = None
    # per-trial weighted normalized scores on batch-wide bounds; the input
    # for method-vs-method Welch comparisons
    trial_scores: list[float] = field(default_factory=list)

    def mean(self, objective: Objective) -> float:
        return statistics.fmean(r.value(objective) for r in self.records)

    def stdev(self, objective: Objective) -> float:
        return statistics.stdev(self.values(objective)) if len(self.records) > 1 else 0.0

    def values(self, objective: Objective) -> list[float]:
        return [r.value(objective) for r in self.records]

    def mean_score(self) -> float:
        return statistics.fmean(self.trial_scores) if self.trial_scores else float("nan")


@dataclass
class ExperimentReport:
    spec: ExperimentSpec
    cells: list[CellResult]
    checks: list[tuple[str, bool]]

    def cell(self, method: str, pref_label: str) -> CellResult:
        for cell in self.cells:
            if cell.method == method and cell.pref_label == pref_label:
                return cell
        raise KeyError((method, pref_label))

    def all_checks_pass(self) -> bool:
        return all(ok for _, ok in self.checks)

    def to_csv(self, path: str | Path) -> None:
        columns = [
            "method", "preferences", "prioritized", "trials", "na",
            "mean_accuracy_points", "std_accuracy_points",
            "mean_mission_seconds", "std_mission_seconds",
            "mean_human_utilization", "std_human_utilization",
            "norm_TP", "norm_MT", "norm_HW", "aligned", "mean_aggregate_score",
            "fallback_rate", "runtime_s",
            "changed_mean_accuracy_points",
        ]
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(columns)
            for cell in self.cells:
                if cell.na:
                    writer.writerow(
                        [cell.method, cell.pref_label, cell.prioritized or "", 0, "NA"]
                        + ["NA"] * (len(columns) - 5)
                    )
                    continue
                row = [
                    cell.method, cell.pref_label, cell.prioritized or "",
                    len(cell.records), "",
                ]
                for objective in Objective:
                    row += [f"{cell.mean(objective):.6f}", f"{cell.stdev(objective):.6f}"]
                for objective in Objective:
                    row.append("" if objective not in cell.norms else f"{cell.norms[objective]:.6f}")
                row.append("" if cell.aligned is None else str(cell.aligned))
                row.append(f"{cell.mean_score():.6f}")
                row.append(f"{cell.fallbacks / max(1, len(cell.records)):.4f}")
                row.append(f"{cell.runtime_s:.3f}")
                if cell.changed_records:
                    row.append(f"{statistics.fmean(r.accuracy_points for r in cell.changed_records):.6f}")
                else:
                    row.append("")
                writer.writerow(row)

    def summary_text(self) -> str:
        lines = [
            f"mode: {self.spec.mode}",
            f"team: {self.spec.team.humans} humans / {self.spec.team.robots} robots / "
            f"{self.spec.team.pois} POIs",
            f"trials per cell: {self.spec.trials}",
            "",
        ]
        for cell in self.cells:
            if cell.na:
                lines.append(f"[{cell.method} | {cell.pref_label}] N/A (method cannot re-plan)")
                continue
            parts = [
                f"TP={cell.mean(Objective.TASK_PERFORMANCE):.2f}",
                f"MT={cell.mean(Objective.MISSION_TIME):.2f}s",
                f"HW={cell.mean(Objective.HUMAN_WORKLOAD):.4f}",
            ]
            if cell.norms:
                parts.append(
                    "norm=("
                    + ", ".join(f"{obj.short}:{cell.norms[obj]:.3f}" for obj in Objective)
                    + ")"
                )
            if cell.trial_scores:
                parts.append(f"J={cell.mean_score():.3f}")
            if cell.aligned is not None:
                parts.append(f"aligned={cell.aligned}")
            if cell.changed_records is not None:
                changed = statistics.fmean(r.accuracy_points for r in cell.changed_records)
                parts.append(f"post-change TP={changed:.2f}")
            lines.append(f"[{cell.method} | {cell.pref_label}] " + "  ".join(parts))
        lines.append("")
        for name, ok in self.checks:
            lines.append(f"check {'PASS' if ok else 'FAIL'}: {name}")
        return "\n".join(lines) + "\n"


def _plan_for(
    method: str,
    scenario: MissionScenario,
    prefs: PreferenceVector,
    trial_seed: int,
    spec: ExperimentSpec,
    deps: BenchDeps,
    optima: dict[PreferenceVector, ItaPlan],
) -> tuple[ItaPlan, bool]:
    """Returns (plan, used_fallback)."""
    if method == "rebel":
        result = infer(
            scenario, prefs, deps.rules_db, deps.exp_db, deps.provider, deps.retrieval,
            deps.sim_cfg,
        )
        return result.plan, result.used_fallback
    if method == "zero_shot":
        return allocate_with_model(scenario, prefs, deps.provider, sim_cfg=deps.sim_cfg)
    if method == "heuristic":
        return heuristic_allocate(scenario, prefs, deps.sim_cfg), False
    if method == "random":
        return random_allocate(scenario, derive_seed(trial_seed, "alloc")), False
    if method == "brute_force":
        # the table does not depend on the preference vector: the trial's first
        # brute-force cell keeps the best plan per vector for the others (brute
        # force has no re-plan, so it only sees the trial's own scenario)
        if not optima:
            table = simulate_plans(
                scenario, deps.sim_cfg, samples_per_plan=spec.brute_force_samples,
                base_seed=derive_seed(trial_seed, "bf"),
            )
            optima.update((p, table.best(p)[0]) for p in spec.preferences)
        return optima[prefs], False
    raise ValueError(f"unknown method {method!r}")


def _run_trial(
    trial: int, cells: list[tuple[str, PreferenceVector]], spec: ExperimentSpec, deps: BenchDeps
) -> list[tuple[PerformanceRecord, bool, PerformanceRecord | None, float]]:
    """One trial of each (method, preferences) cell, in order: its record,
    whether its plan fell back, its post-change record (None outside
    situational awareness) and its planning and simulation seconds. Cells
    share the trial's scenario, brute-force table and distinct missions."""
    scenario = random_scenario(
        spec.team.humans, spec.team.robots, spec.team.pois,
        seed=derive_seed(spec.seed, "scenario", trial),
    )
    sim_cfg = deps.sim_cfg.with_seed(derive_seed(spec.seed, "sim", trial))
    optima: dict[PreferenceVector, ItaPlan] = {}
    missions: dict[tuple[bool, tuple[tuple[str, Assignment], ...]], PerformanceRecord] = {}

    def simulate(replanned: bool, scenario: MissionScenario, plan: ItaPlan) -> PerformanceRecord:
        key = (replanned, tuple(plan.assignments.items()))  # tells the two scenarios apart
        if key not in missions:
            missions[key] = run_mission(scenario, plan, sim_cfg)[0]
        return missions[key]

    results = []
    for method, prefs in cells:
        start = time.perf_counter()
        plan, fallback = _plan_for(
            method, scenario, prefs, derive_seed(spec.seed, method, trial), spec, deps, optima
        )
        record = simulate(False, scenario, plan)
        changed = None
        if spec.mode == Mode.SITUATIONAL:
            try:
                modified, _report = apply_composition_change(scenario, plan, spec.change)
            except CompositionError as exc:
                raise CompositionError(f"trial {trial}: {exc}") from None
            new_plan, _ = _plan_for(
                method, modified, prefs, derive_seed(spec.seed, method, trial, "re"), spec, deps,
                optima,
            )
            # `modified` depends on the scenario and the change alone
            changed = simulate(True, modified, new_plan)
        results.append((record, fallback, changed, time.perf_counter() - start))
    return results


def require_stores(spec: ExperimentSpec, deps: BenchDeps) -> None:
    """ValueError when the spec runs `rebel` and a store is empty."""
    if "rebel" in spec.methods and (not len(deps.rules_db) or not len(deps.exp_db)):
        raise ValueError(
            "rebel needs populated databases; run `rebel gen-rules` and `rebel gen-exp` first"
        )


def run_experiment(spec: ExperimentSpec, deps: BenchDeps) -> ExperimentReport:
    """Run every (method x preference) cell and assemble the report."""
    require_stores(spec, deps)

    # methods that cannot re-plan have no situational-awareness result
    na = {m: spec.mode == Mode.SITUATIONAL and m not in ADAPTIVE_METHODS for m in spec.methods}
    planned = [(m, p) for m in spec.methods for p in spec.preferences if not na[m]]
    run = partial(_run_trial, cells=planned, spec=spec, deps=deps)

    if deps.workers > 1:
        with ThreadPoolExecutor(max_workers=deps.workers) as pool:
            trials = list(pool.map(run, range(spec.trials)))
    else:
        trials = [run(trial) for trial in range(spec.trials)]

    per_cell = iter(zip(*trials))  # each planned cell's results, trial by trial
    cells = []
    for method in spec.methods:
        for prefs in spec.preferences:
            results = () if na[method] else next(per_cell)
            records, fallbacks, changed, seconds = zip(*results) if results else ((),) * 4
            prioritized = prefs.dominant()
            cells.append(CellResult(
                method, prefs.label(), prefs, prioritized.short if prioritized else None,
                records=list(records), fallbacks=sum(fallbacks), runtime_s=sum(seconds),
                na=na[method], changed_records=[c for c in changed if c is not None] or None,
            ))

    live = [c for c in cells if not c.na]
    if spec.mode == Mode.MOO and live:
        for objective in Objective:
            means = [cell.mean(objective) for cell in live]
            lo, hi = min(means), max(means)
            for cell, value in zip(live, means):
                cell.norms[objective] = (
                    0.5 if hi - lo < 1e-12
                    else normalize_objective(value, ObjectiveBounds(lo, hi, objective.direction))
                )
        for cell in live:
            if cell.prioritized is None:
                continue
            target = Objective.parse(cell.prioritized)
            cell.aligned = cell.norms[target] >= max(cell.norms.values()) - 1e-12

    if live:
        batch_bounds = NormalizationBounds.from_records(
            [record for cell in live for record in cell.records]
        )
        for cell in live:
            columns = performance_columns(cell.records)
            cell.trial_scores = aggregate_scores(columns, cell.prefs, batch_bounds).tolist()

    checks: list[tuple[str, bool]] = []
    max_points = deps.sim_cfg.points_per_correct * spec.team.pois
    for cell in live:
        tag = f"{cell.method}|{cell.pref_label}"
        checks.append(
            (f"{tag}: utilization in [0,1]",
             all(0.0 <= r.human_utilization <= 1.0 for r in cell.records))
        )
        checks.append(
            (f"{tag}: accuracy points <= {max_points}",
             all(r.accuracy_points <= max_points + 1e-9 for r in cell.records))
        )
        if cell.norms:
            checks.append(
                (f"{tag}: normalized values in [0,1]",
                 all(-1e-12 <= v <= 1 + 1e-12 for v in cell.norms.values()))
            )
    if spec.mode == Mode.MOO and live:
        for objective in Objective:
            means = [cell.mean(objective) for cell in live]
            column = [cell.norms[objective] for cell in live]
            if max(means) - min(means) < 1e-12:
                # every cell ties on this objective, so each sits at the midpoint
                checks.append(
                    (f"norm column {objective.short} is 0.5 throughout (all cells tie)",
                     all(v == 0.5 for v in column))
                )
            else:
                checks.append(
                    (f"norm column {objective.short} attains 0 and 1",
                     min(column) <= 1e-9 and max(column) >= 1 - 1e-9)
                )

    return ExperimentReport(spec=spec, cells=cells, checks=checks)
