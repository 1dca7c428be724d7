"""The benchmark's four workloads, each driving one public path of rebel on the
stub provider and the hashed embedder.

A workload makes every input from the run's seed. `setup` is what a user
pays before the first operation; `op(state, i, clock)` does operation i and
times, with `clock.time`, only the part a user waits for; `check` verifies
the operation's outputs outside any timed region and returns a digest of
them. Operations call the
package through module attributes (`pipeline.infer`, `bench.run_experiment`)
so that a traced run sees them.

Which layer each workload is built to stress, at the seed commit:
- acquire: stage-2 dedup (`ExperienceDatabase.contains`) and store appends.
- infer_large: experience retrieval over a 900-record store.
- experiment: the greedy allocator's mixed-weight branch (tied preferences).
- brute_force: the simulator, through exhaustive plan search.
"""

from __future__ import annotations

import csv
import hashlib
import io
import shutil
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

from rebel import bench, pipeline
from rebel.core import Objective, PreferenceVector, validate_plan
from rebel.llm import StubProvider
from rebel.retrieval import ExperienceDatabase, HashedEmbedder, RulesDatabase
from rebel.sim import SimConfig

from clock import Clock

# Captured before any tracing: the benchmark makes its query scenarios with
# it, and that input generation is not part of the program's work.
make_scenario = bench.random_scenario

OBJECTIVES = (Objective.TASK_PERFORMANCE, Objective.MISSION_TIME, Objective.HUMAN_WORKLOAD)
SINGLE_PREFS = tuple(PreferenceVector.single(obj) for obj in OBJECTIVES)
# The three 0.5/0.25/0.25 rotations have a dominant objective; the tied vector
# has none, so only it reaches the allocator's mixed-weight branch.
MIXED_PREFS = tuple(
    PreferenceVector(tuple((obj, 0.5 if obj is focus else 0.25) for obj in OBJECTIVES))
    for focus in OBJECTIVES
) + (PreferenceVector(tuple((obj, 1.0) for obj in OBJECTIVES)),)

STORE_MISSIONS_PER_OBJECTIVE = 300
EXPERIMENT_MISSIONS_PER_OBJECTIVE = 10


def derive(*parts: object) -> int:
    """Stable 63-bit input seed from labels."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def tied_share(prefs: tuple[PreferenceVector, ...]) -> float:
    return sum(1 for p in prefs if p.dominant() is None) / len(prefs)


@dataclass
class OpResult:
    work: int
    payload: Any = None
    latencies_s: list[float] = field(default_factory=list)


@dataclass
class Checked:
    failed: int
    digest: bytes
    fallbacks: int = 0
    plans: int = 0


class _KeyedExperienceDatabase(ExperienceDatabase):
    """Writes the same log as ExperienceDatabase, but answers `contains`
    from a key set, so the untimed 900-record fixture builds in linear time."""

    def __init__(self, path):
        super().__init__(path)
        self._keys = set()

    def contains(self, objective, scenario, plan):
        return (objective, scenario.serialize(), plan.render()) in self._keys

    def store(self, objective, scenario, plan, *args, **kwargs):
        record = super().store(objective, scenario, plan, *args, **kwargs)
        self._keys.add((objective, scenario.serialize(), plan.render()))
        return record


def _build_stores(directory: Path, missions: int, seed: int, exp_cls=ExperienceDatabase):
    """Stage 1 and 2 into fresh JSONL stores, as `rebel gen-rules` and
    `rebel gen-exp --missions <missions>` write them."""
    directory.mkdir(parents=True)
    rules = RulesDatabase(directory / "rules.jsonl")
    pipeline.generate_rules(OBJECTIVES, StubProvider(), rules)
    exp = exp_cls(directory / "exp.jsonl")
    cfg = pipeline.KnowledgeAcquisitionConfig(missions_per_objective=missions, base_seed=seed)
    pipeline.generate_experiences(cfg, StubProvider(), rules, exp, SimConfig(), HashedEmbedder())
    return rules, exp


def _csv_without_runtime(path: Path) -> bytes:
    rows = list(csv.reader(path.read_text(encoding="utf-8").splitlines()))
    drop = rows[0].index("runtime_s")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(
        [value for index, value in enumerate(row) if index != drop] for row in rows
    )
    return out.getvalue().encode("utf-8")


class Workload:
    name = ""
    unit = ""
    # operations every run completes; the output digest covers exactly these
    min_ops = 1
    # set up afresh every this many operations (0: never)
    setup_every = 0
    prefs: tuple[PreferenceVector, ...] = ()

    def __init__(self, seed: int, scratch: Path):
        self.seed = seed
        self.scratch = scratch
        self._dirs = 0

    def fresh_dir(self) -> Path:
        self._dirs += 1
        return self.scratch / f"{self.name}-{self._dirs}"

    def prepare(self) -> None:
        """Untimed fixtures made from the seed."""

    def setup(self) -> Any:
        raise NotImplementedError

    def op(self, state: Any, index: int, clock: Clock) -> OpResult:
        raise NotImplementedError

    def check(self, state: Any, result: OpResult) -> Checked:
        raise NotImplementedError

    def with_workers(self, state: Any, workers: int) -> Any:
        raise NotImplementedError(f"{self.name} has no worker setting")

    def extra(self) -> dict[str, tuple[float, str]]:
        """Workload-specific figures for the record line."""
        return {}


class Acquire(Workload):
    """Stage 1 is the set-up; each operation is a full stage 2 of 300
    missions per objective into fresh file-backed stores. Stage 2 runs one
    objective at a time, which stores exactly what one call for all three
    objectives stores, so the clock can probe between the batches."""

    name = "acquire"
    unit = "mission"
    min_ops = 1
    prefs = SINGLE_PREFS
    bytes_per_record = 0.0

    def setup(self) -> Any:
        """Stage 1 into a fresh directory; returns (directory, rules)."""
        directory = self.fresh_dir()
        directory.mkdir(parents=True)
        rules = RulesDatabase(directory / "rules.jsonl")
        pipeline.generate_rules(OBJECTIVES, StubProvider(), rules)
        return directory, rules

    def op(self, state: Any, index: int, clock: Clock) -> OpResult:
        directory, rules = self.setup()  # untimed: every stage 2 needs fresh stores
        exp = ExperienceDatabase(directory / "exp.jsonl")
        provider = StubProvider()
        stored = []
        for objective in OBJECTIVES:
            cfg = pipeline.KnowledgeAcquisitionConfig(
                objectives=(objective,),
                missions_per_objective=STORE_MISSIONS_PER_OBJECTIVE,
                base_seed=derive(self.seed, index),
            )
            batch, _ = clock.time(
                pipeline.generate_experiences,
                cfg, provider, rules, exp, SimConfig(), HashedEmbedder(),
            )
            stored += batch
        expected = STORE_MISSIONS_PER_OBJECTIVE * len(OBJECTIVES)
        return OpResult(expected, (directory, rules, exp, stored))

    def check(self, state: Any, result: OpResult) -> Checked:
        directory, rules, exp, stored = result.payload
        try:
            ok = (
                len(stored) == result.work
                and len(exp) == result.work
                and ExperienceDatabase(exp.path).records() == exp.records()
                and RulesDatabase(rules.path).rules() == rules.rules()
            )
            log = exp.path.read_bytes()
            self.bytes_per_record = len(log) / max(1, len(exp))
            digest = hashlib.sha256(log + rules.path.read_bytes()).digest()
            fallbacks = sum(1 for r in stored if r.fallback)
        finally:
            shutil.rmtree(directory)
        return Checked(0 if ok else result.work, digest, fallbacks, len(stored))

    def extra(self) -> dict[str, tuple[float, str]]:
        return {"store_bytes_per_record": (self.bytes_per_record, "B")}


class InferLarge(Workload):
    """A closed loop with one client: `infer` on unseen 5h/7r/30t scenarios
    against a 900-record experience store and 9 rules loaded from JSONL.
    Loading the stores is the set-up every `rebel infer` call pays. Each
    operation is one cycle through the four preference vectors."""

    name = "infer_large"
    unit = "query"
    min_ops = 25  # 100 queries, so p90 has at least 10 samples above it
    # Query speed depends on where the loaded store's objects land in memory,
    # by about 10% between loads, so a run spreads its queries over loads.
    setup_every = 5
    prefs = MIXED_PREFS

    def prepare(self) -> None:
        self.store_dir = self.fresh_dir()
        _build_stores(
            self.store_dir, STORE_MISSIONS_PER_OBJECTIVE, derive(self.seed, "store"),
            exp_cls=_KeyedExperienceDatabase,
        )
        records = len(ExperienceDatabase(self.store_dir / "exp.jsonl"))
        expected = STORE_MISSIONS_PER_OBJECTIVE * len(OBJECTIVES)
        if records != expected:
            raise RuntimeError(f"fixture store holds {records} records, expected {expected}")
        self.bytes_per_record = (self.store_dir / "exp.jsonl").stat().st_size / records

    def setup(self) -> Any:
        rules = RulesDatabase(self.store_dir / "rules.jsonl")
        exp = ExperienceDatabase(self.store_dir / "exp.jsonl")
        return rules, exp, StubProvider()

    def op(self, state: Any, index: int, clock: Clock) -> OpResult:
        rules, exp, provider = state
        latencies, outputs = [], []
        for offset, prefs in enumerate(self.prefs):
            query = index * len(self.prefs) + offset
            scenario = make_scenario(5, 7, 30, seed=derive(self.seed, "query", query))
            result, seconds = clock.time(pipeline.infer, scenario, prefs, rules, exp, provider)
            latencies.append(seconds)
            outputs.append((scenario, result))
        return OpResult(len(latencies), outputs, latencies)

    def check(self, state: Any, result: OpResult) -> Checked:
        failed, fallbacks, text = 0, 0, []
        for scenario, inferred in result.payload:
            ok = validate_plan(inferred.plan, scenario).ok and inferred.rules and inferred.exemplars
            failed += 0 if ok else 1
            fallbacks += inferred.used_fallback
            text.append(
                f"{inferred.plan.render()}\n# rules {list(inferred.rule_ids)}"
                f"\n# exemplars {list(inferred.exemplar_ids)}\n"
            )
        digest = hashlib.sha256("".join(text).encode("utf-8")).digest()
        return Checked(failed, digest, fallbacks, len(result.payload))

    def extra(self) -> dict[str, tuple[float, str]]:
        return {"store_bytes_per_record": (self.bytes_per_record, "B")}


class _Experiment(Workload):
    """Shared by the two `run_experiment` workloads: each operation runs one
    spec with its own seed and checks the report's invariants."""

    def spec(self, index: int) -> bench.ExperimentSpec:
        raise NotImplementedError

    def setup(self) -> Any:
        return bench.BenchDeps(
            provider=StubProvider(), rules_db=RulesDatabase(), exp_db=ExperienceDatabase()
        )

    def with_workers(self, state: Any, workers: int) -> Any:
        return replace(state, workers=workers)

    def op(self, state: Any, index: int, clock: Clock) -> OpResult:
        spec = self.spec(index)
        report, _ = clock.time(bench.run_experiment, spec, state)
        return OpResult(spec.trials, report)

    def check(self, state: Any, result: OpResult) -> Checked:
        report = result.payload
        directory = self.fresh_dir()
        directory.mkdir(parents=True)
        try:
            report.to_csv(directory / "report.csv")
            digest = hashlib.sha256(_csv_without_runtime(directory / "report.csv")).digest()
        finally:
            shutil.rmtree(directory)
        planned = [c for c in report.cells if c.method in ("rebel", "zero_shot")]
        fallbacks = sum(c.fallbacks for c in planned)
        plans = sum(len(c.records) for c in planned)
        return Checked(0 if report.all_checks_pass() else result.work, digest, fallbacks, plans)


class Experiment(_Experiment):
    """MOO study, team 5/7/30, REBEL against zero-shot, heuristic and random,
    with a 30-record store (10 missions per objective) built in set-up."""

    name = "experiment"
    unit = "trial"
    min_ops = 3
    prefs = MIXED_PREFS

    def setup(self) -> Any:
        """Build the stores as `rebel gen-rules` and `rebel gen-exp` do, then
        load them as `rebel bench` does."""
        directory = self.fresh_dir()
        _build_stores(directory, EXPERIMENT_MISSIONS_PER_OBJECTIVE, derive(self.seed, "store"))
        return bench.BenchDeps(
            provider=StubProvider(),
            rules_db=RulesDatabase(directory / "rules.jsonl"),
            exp_db=ExperienceDatabase(directory / "exp.jsonl"),
        )

    def spec(self, index: int) -> bench.ExperimentSpec:
        return bench.ExperimentSpec(
            mode=bench.Mode.MOO,
            team=bench.TeamSpec(humans=5, robots=7, pois=30),
            trials=2,
            methods=("rebel", "zero_shot", "heuristic", "random"),
            seed=derive(self.seed, "spec", index),
            preferences=self.prefs,
        )


class BruteForce(_Experiment):
    """SOO study, team 2/2/3, heuristic and random against the brute-force
    optimum: 1,000 enumerated plans, each simulated 8 times, per trial."""

    name = "brute_force"
    unit = "trial"
    min_ops = 2
    prefs = SINGLE_PREFS

    def spec(self, index: int) -> bench.ExperimentSpec:
        return bench.ExperimentSpec(
            mode=bench.Mode.SOO,
            team=bench.TeamSpec(humans=2, robots=2, pois=3),
            trials=1,
            methods=("heuristic", "random", "brute_force"),
            seed=derive(self.seed, "spec", index),
            preferences=self.prefs,
            brute_force_samples=8,
        )


WORKLOADS = {cls.name: cls for cls in (Acquire, InferLarge, Experiment, BruteForce)}
