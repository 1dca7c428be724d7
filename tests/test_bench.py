from __future__ import annotations

import csv
import hashlib
import json
import math
import random
import re
import statistics
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rebel import bench, sim
from rebel.bench import (
    BenchDeps,
    CellResult,
    DEFAULT_CHANGE,
    CompositionChange,
    ExperimentSpec,
    Mode,
    PlanTable,
    TeamSpec,
    apply_composition_change,
    brute_force_optimal,
    brute_force_table,
    enumerate_plans,
    random_allocate,
    random_scenario,
    rotation_preferences,
    run_experiment,
    welch_test,
)
from rebel.core import (
    Assignment,
    ItaPlan,
    NormalizationBounds,
    Objective,
    ObjectiveBounds,
    PerformanceRecord,
    PreferenceVector,
    Tier,
    aggregate_objective,
    aggregate_scores,
    performance_columns,
    validate_plan,
)
from rebel.llm import StubProvider, heuristic_allocate
from rebel.pipeline import (
    KnowledgeAcquisitionConfig,
    RetrievalConfig,
    ScenarioRanges,
    derive_seed,
    generate_experiences,
    generate_rules,
    infer,
)
from rebel.retrieval import ExperienceDatabase, HashedEmbedder, RulesDatabase
from rebel.sim import SimConfig, run_mission
from conftest import DEEPLY_NESTED, json_values, make_scenario
from oracles import ref_stdev


class TestRandomScenario:
    def test_same_seed_identical(self):
        assert random_scenario(3, 4, 5, seed=11) == random_scenario(3, 4, 5, seed=11)

    def test_team_sizes_match_spec(self):
        scenario = random_scenario(5, 7, 30, seed=0)
        assert len(scenario.humans) == 5
        assert len(scenario.robots) == 7
        assert len(scenario.tasks) == 30

    def test_hundred_seeds_all_distinct(self):
        scenarios = [random_scenario(3, 4, 8, seed=s) for s in range(100)]
        rendered = {s.serialize() for s in scenarios}
        assert len(rendered) == 100

    def test_positions_inside_arena(self):
        scenario = random_scenario(2, 3, 50, seed=4)
        assert scenario.arena_side == 2000.0
        for task in scenario.tasks:
            assert 0 <= task.location[0] <= scenario.arena_side
            assert 0 <= task.location[1] <= scenario.arena_side


class TestRandomAllocate:
    def test_always_validates(self):
        for seed in range(30):
            scenario = random_scenario(2, 3, 6, seed=seed)
            plan = random_allocate(scenario, seed=seed * 13)
            assert validate_plan(plan, scenario).ok

    def test_same_seed_same_plan(self):
        scenario = random_scenario(2, 3, 6, seed=5)
        assert random_allocate(scenario, seed=9) == random_allocate(scenario, seed=9)

    def test_single_robot_single_task_forced(self):
        scenario = make_scenario(
            humans=(), robots=(("UGV_0", 5.0, Tier.MED),), tasks=(("T_0", (10.0, 10.0), Tier.LOW),)
        )
        plan = random_allocate(scenario, seed=0)
        assert plan.assignments["T_0"].robot == "UGV_0"


def micro_scenario():
    return make_scenario(
        humans=(("H_0", Tier.HIGH, Tier.HIGH), ("H_1", Tier.LOW, Tier.LOW)),
        robots=(("UAV_0", 12.0, Tier.HIGH), ("UGV_0", 7.0, Tier.LOW)),
        tasks=(("T_0", (400.0, 300.0), Tier.HIGH), ("T_1", (1200.0, 900.0), Tier.LOW)),
    )


class TestBruteForce:
    def test_mission_time_dominance_picks_faster_robot(self):
        scenario = make_scenario(
            humans=(),
            robots=(("UAV_0", 13.0, Tier.MED), ("UGV_0", 6.0, Tier.MED)),
            tasks=(("T_0", (800.0, 600.0), Tier.MED),),
        )
        plan, _ = brute_force_optimal(
            scenario, PreferenceVector.single(Objective.MISSION_TIME), SimConfig(), 4
        )
        assert plan.assignments["T_0"].robot == "UAV_0"

    def test_workload_dominance_is_all_autonomous(self):
        plan, _ = brute_force_optimal(
            micro_scenario(), PreferenceVector.single(Objective.HUMAN_WORKLOAD), SimConfig(), 4
        )
        for assignment in plan.assignments.values():
            assert assignment.human is None

    def test_exhaustive_table_matches_independent_enumeration(self):
        scenario = micro_scenario()
        prefs = PreferenceVector.of(TP=0.5, MT=0.25, HW=0.25)
        cfg = SimConfig()
        samples = 4
        table = brute_force_table(scenario, prefs, cfg, samples_per_plan=samples, base_seed=3)

        # independent re-enumeration with explicit nested loops, keyed by
        # the (lossless) plan text
        robots = ["UAV_0", "UGV_0"]
        patterns = [None, "H_0", "H_1"]
        candidates = [Assignment(r, p) for r in robots for p in patterns]
        ref_records = {}
        for entry_0 in candidates:
            for entry_1 in candidates:
                plan = ItaPlan({"T_0": entry_0, "T_1": entry_1})
                ref_records[plan.render()] = [
                    run_mission(scenario, plan, cfg.with_seed(3 + s))[0]
                    for s in range(samples)
                ]
        assert len(ref_records) == 36
        assert len(table) == 36

        flat = [r for records in ref_records.values() for r in records]
        spans = {}
        for objective in Objective:
            values = [r.value(objective) for r in flat]
            lo, hi = min(values), max(values)
            if hi - lo < 1e-12:
                lo, hi = lo - 0.5, hi + 0.5
            spans[objective] = (lo, hi)

        def ref_norm(record, objective):
            lo, hi = spans[objective]
            raw = (record.value(objective) - lo) / (hi - lo)
            if objective is not Objective.TASK_PERFORMANCE:
                raw = 1.0 - raw
            return min(1.0, max(0.0, raw))

        def ref_j(record):
            return sum(w * ref_norm(record, obj) for obj, w in prefs.weights)

        for plan, mean_j in table:
            want = statistics.fmean(ref_j(r) for r in ref_records[plan.render()])
            assert mean_j == pytest.approx(want, abs=1e-9)

        _, best_j = brute_force_optimal(
            scenario, prefs, cfg, samples_per_plan=samples, base_seed=3
        )
        assert best_j == pytest.approx(max(mean for _, mean in table), abs=1e-12)

    def test_dominates_heuristic_and_random_under_common_randoms(self):
        scenario = micro_scenario()
        cfg = SimConfig()
        for prefs in rotation_preferences():
            table = brute_force_table(scenario, prefs, cfg, samples_per_plan=4, base_seed=7)
            scores = {plan.render(): mean_j for plan, mean_j in table}
            _, best_j = brute_force_optimal(scenario, prefs, cfg, samples_per_plan=4, base_seed=7)
            heuristic_j = scores[heuristic_allocate(scenario, prefs).render()]
            random_j = scores[random_allocate(scenario, seed=21).render()]
            assert best_j >= heuristic_j - 1e-12
            assert best_j >= random_j - 1e-12

    @pytest.mark.parametrize("team", [(2, 2, 3, 4), (1, 3, 3, 5)])
    @pytest.mark.parametrize("base_seed", [0, 11, 1000])
    def test_table_equals_one_full_simulation_per_sample(self, team, base_seed):
        # the table must be exactly what simulating every (plan, sample) pair
        # on its own seed gives: same records, same bounds, same means
        humans, robots, tasks, scenario_seed = team
        scenario = random_scenario(humans, robots, tasks, seed=scenario_seed + base_seed)
        prefs = PreferenceVector.of(TP=0.5, MT=0.3, HW=0.2)
        cfg = SimConfig(seed=99)
        samples = 8
        per_plan = [
            (plan, [run_mission(scenario, plan, cfg.with_seed(base_seed + s))[0]
                    for s in range(samples)])
            for plan in enumerate_plans(scenario)
        ]
        bounds = NormalizationBounds.from_records(
            [record for _, records in per_plan for record in records]
        )
        naive = [
            (plan, statistics.fmean(aggregate_objective(r, prefs, bounds) for r in records))
            for plan, records in per_plan
        ]
        assert brute_force_table(scenario, prefs, cfg, samples, base_seed=base_seed) == naive

    def test_best_matches_a_sort_by_score_then_plan_text(self):
        table = bench.simulate_plans(micro_scenario(), SimConfig(), samples_per_plan=4, base_seed=5)
        singles = [PreferenceVector.single(o) for o in Objective]
        for prefs in (*singles, *rotation_preferences(), PreferenceVector.of(TP=1, MT=1, HW=1)):
            scores = table.scores(prefs)
            assert table.best(prefs) == min(
                zip(table.plans, scores), key=lambda pair: (-pair[1], pair[0].render())
            )
        # every all-autonomous plan ties on workload, so the text decides there
        workload = table.scores(PreferenceVector.single(Objective.HUMAN_WORKLOAD))
        assert workload.count(max(workload)) > 1

    def test_enumeration_renders_are_pairwise_distinct(self):
        plans = enumerate_plans(random_scenario(2, 2, 3, seed=1))
        assert len(plans) == 216
        assert len({plan.render() for plan in plans}) == 216

    def test_search_space_cap_enforced(self):
        # 3 robots x (1 + 3 humans) = 12 candidates per task: 12**6, about
        # 3.0M plans, is past the cap, which refuses before building any row
        scenario = random_scenario(3, 3, 6, seed=1)
        assert 12**6 > bench.BRUTE_FORCE_CAP
        with pytest.raises(ValueError, match="cap"):
            enumerate_plans(scenario)


class TestBruteForceDoesNoPerSampleWork:
    def test_scoring_builds_no_trace_and_no_record(self, monkeypatch):
        def per_sample(self, *args, **kwargs):
            raise AssertionError("brute force built a one-mission trace or record")

        # a trace holds the event log; the table holds its records as columns
        monkeypatch.setattr(sim.SimTrace, "__init__", per_sample)
        monkeypatch.setattr(PerformanceRecord, "__post_init__", per_sample)
        table = bench.simulate_plans(random_scenario(2, 2, 3, seed=1), SimConfig(), 8, base_seed=5)
        for prefs in rotation_preferences():
            assert len(table.scores(prefs)) == 216
            table.best(prefs)


class TestBestBuildsOnlyTiedPlans:
    def test_large_table_builds_a_plan_per_tied_row(self, monkeypatch):
        table = bench.simulate_plans(random_scenario(2, 3, 5, seed=1), SimConfig(), 8)
        assert len(table.rows) == 9**5
        built = [0]
        canonicalize = ItaPlan.__post_init__

        def counting(plan):
            built[0] += 1
            canonicalize(plan)

        monkeypatch.setattr(ItaPlan, "__post_init__", counting)
        for prefs in (
            PreferenceVector.of(TP=0.2, MT=0.7, HW=0.1),
            PreferenceVector.single(Objective.HUMAN_WORKLOAD),
        ):
            built[0] = 0
            scores = table.scores(prefs)
            plan, top = table.best(prefs)
            assert top == max(scores)
            assert built[0] == scores.count(top) < len(scores)
        # every all-autonomous plan ties on workload: 3 robots on 5 tasks
        assert built[0] == 3**5
        assert all(assignment.human is None for assignment in plan.assignments.values())


class TestBestScreensRowMeans:
    # per-sample TP scores: A's samples sum to one ulp above B's, but numpy's
    # row mean ranks B above A, and A's reversal ties A exactly
    A = [0.45, 0.7, 0.2, 0.45, 0.3, 0.1, 0.3, 0.1, 0.1]
    B = [0.1, 0.1, 0.1, 0.7, 0.2, 0.3, 0.3, 0.4499999999999999, 0.45]

    def test_rows_one_ulp_apart_keep_the_exact_order_and_tie_break(self):
        scenario = make_scenario(
            humans=(),
            robots=(("UAV_0", 10.0, Tier.MED), ("UAV_1", 10.0, Tier.MED), ("UAV_2", 10.0, Tier.MED)),
            tasks=(("T_0", (100.0, 100.0), Tier.LOW),),
        )
        points = np.array([self.B, self.A, self.A[::-1]])
        columns = np.stack((points, np.full(points.shape, 10.0), np.zeros(points.shape)))
        bounds = NormalizationBounds({
            Objective.TASK_PERFORMANCE: ObjectiveBounds(0.0, 1.0),
            Objective.MISSION_TIME: ObjectiveBounds(0.0, 20.0),
            Objective.HUMAN_WORKLOAD: ObjectiveBounds(0.0, 1.0),
        })
        table = PlanTable(scenario, np.arange(3, dtype=np.intp).reshape(3, 1), columns, bounds)
        prefs = PreferenceVector.single(Objective.TASK_PERFORMANCE)
        scores = table.scores(prefs)
        assert scores[0] == statistics.fmean(self.B)
        assert scores[1] == scores[2] == statistics.fmean(self.A)
        assert scores[1] - scores[0] == math.ulp(scores[0])
        assert np.argmax(points.mean(axis=1)) == 0  # the screen alone would pick B
        plan, top = table.best(prefs)
        assert top == max(scores)
        assert plan == table.plans[1] == ItaPlan({"T_0": Assignment("UAV_1")})


@pytest.mark.parametrize(
    "record, message",
    [
        ((5.0, math.nan, 0.5), "finite"),
        ((5.0, math.inf, 0.5), "finite"),
        ((-5.0, 10.0, 0.5), ">= 0"),
        ((5.0, -10.0, 0.5), ">= 0"),
        ((5.0, 10.0, 1.5), r"\[0, 1\]"),
        ((5.0, 10.0, -0.1), r"\[0, 1\]"),
    ],
)
def test_table_applies_the_record_checks_to_its_columns(record, message):
    with pytest.raises(ValueError, match=message):
        PerformanceRecord(*record)
    good = (10.0, 100.0, 0.25)
    columns = np.array([good, record, good]).T.reshape(len(Objective), 1, 3)
    bounds = NormalizationBounds.from_records([PerformanceRecord(*good)])
    with pytest.raises(ValueError, match=message):
        PlanTable(micro_scenario(), np.zeros((1, 2), dtype=np.intp), columns, bounds)


class TestBruteForceGolden:
    # sha256 over every plan's mean score and the chosen plan, per vector,
    # recorded from an earlier implementation of the table: any change to a
    # record, a bound, a float of the scoring or a tie-break changes the digest
    GOLDEN = "5fbd48634b03799f97a94462f6b22d1482d4233fab86c170f6cdd3596fe21264"

    def test_tables_match_the_pinned_digest(self):
        vectors = (
            *(PreferenceVector.single(o) for o in Objective),
            PreferenceVector.of(TP=1, MT=1, HW=1),
            *rotation_preferences(),
            PreferenceVector.of(TP=0.2, MT=0.7, HW=0.1),
        )
        digest = hashlib.sha256()
        for case in range(60):
            humans, robots, tasks = ((2, 2, 3), (1, 3, 3), (3, 2, 2))[case % 3]
            scenario = random_scenario(humans, robots, tasks, seed=700 + case)
            table = bench.simulate_plans(scenario, SimConfig(), samples_per_plan=8, base_seed=case)
            for prefs in vectors:
                plan, _ = table.best(prefs)
                digest.update(repr(table.scores(prefs)).encode() + b"\n")
                digest.update(plan.render().encode() + b"\n")
        assert digest.hexdigest() == self.GOLDEN


class TestCompositionChange:
    def test_removing_analyst_orphans_its_task(self, scenario, shared_plan):
        modified, report = apply_composition_change(
            scenario, shared_plan, CompositionChange(remove_ids=("H_1",))
        )
        assert report.orphaned_tasks == ("T_0",)
        assert "H_1" not in modified.human_ids()

    def test_adding_robot_keeps_plan_untouched(self, scenario, shared_plan):
        modified, report = apply_composition_change(
            scenario, shared_plan, CompositionChange(add_robots=1)
        )
        assert len(modified.robots) == len(scenario.robots) + 1
        assert report.orphaned_tasks == ()
        assert validate_plan(shared_plan, modified).ok

    def test_removing_unassigned_human_orphans_nothing(self, scenario, autonomous_plan):
        _, report = apply_composition_change(
            scenario, autonomous_plan, CompositionChange(remove_ids=("H_0",))
        )
        assert report.orphaned_tasks == ()

    def test_removing_all_robots_is_error(self, scenario, shared_plan):
        with pytest.raises(ValueError):
            apply_composition_change(
                scenario, shared_plan, CompositionChange(remove_ids=("UAV_0", "UGV_0"))
            )

    def test_count_based_removal_strips_last_ids(self, scenario, shared_plan):
        modified, report = apply_composition_change(
            scenario, shared_plan, CompositionChange(remove_robots=1, remove_humans=1)
        )
        assert report.removed == ("H_1", "UGV_0")
        assert len(modified.robots) == 1 and len(modified.humans) == 1

    # sha256 over the modified scenario and the report of 40 changes,
    # recorded from an earlier implementation: pins the ids, tiers and speeds
    # that additions draw, and what removals strip and orphan
    GOLDEN = "4ee5998a7e0b2ac36dc47ec762b5e7a529b5d53edf20a95a637d962296bccf2f"

    def test_changes_match_the_pinned_digest(self):
        digest = hashlib.sha256()
        for case in range(40):
            rng = random.Random(case)
            scenario = random_scenario(
                rng.randint(1, 4), rng.randint(3, 5), rng.randint(2, 6), seed=900 + case
            )
            change = CompositionChange(
                remove_robots=case % 3,
                remove_humans=case // 3 % 3,
                add_humans=rng.randint(0, 2),
                add_robots=rng.randint(0, 2),
            )
            modified, report = apply_composition_change(
                scenario, random_allocate(scenario, case), change
            )
            digest.update(modified.serialize().encode() + b"\n")
            digest.update(repr(report).encode() + b"\n")
        assert digest.hexdigest() == self.GOLDEN


def deps(workers: int = 1) -> BenchDeps:
    return BenchDeps(
        provider=StubProvider(),
        rules_db=RulesDatabase(),
        exp_db=ExperienceDatabase(),
        workers=workers,
    )


def small_spec(**overrides) -> ExperimentSpec:
    defaults = dict(
        mode=Mode.SOO,
        team=TeamSpec(humans=2, robots=3, pois=5),
        trials=6,
        methods=("heuristic", "random"),
        seed=3,
    )
    defaults.update(overrides)
    return ExperimentSpec(**defaults)


class TestRunExperiment:
    def test_report_has_method_by_preference_cells(self):
        report = run_experiment(small_spec(), deps())
        assert len(report.cells) == 2 * 3
        labels = {(c.method, c.pref_label) for c in report.cells}
        assert ("heuristic", "TP") in labels and ("random", "HW") in labels

    def test_deterministic_given_seed(self):
        first = run_experiment(small_spec(), deps())
        second = run_experiment(small_spec(), deps())
        for a, b in zip(first.cells, second.cells):
            assert a.records == b.records

    def test_rebel_requires_populated_databases(self):
        with pytest.raises(ValueError, match="gen-rules"):
            run_experiment(small_spec(methods=("rebel",)), deps())

    def test_invariant_checks_pass_on_small_run(self):
        report = run_experiment(small_spec(), deps())
        assert report.all_checks_pass()

    def test_moo_mode_defaults_to_the_half_quarter_quarter_rotations(self):
        assert small_spec(mode=Mode.MOO).preferences == (
            PreferenceVector.of(TP=0.5, MT=0.25, HW=0.25),
            PreferenceVector.of(TP=0.25, MT=0.5, HW=0.25),
            PreferenceVector.of(TP=0.25, MT=0.25, HW=0.5),
        )

    def test_moo_mode_sets_alignment_flags(self):
        report = run_experiment(small_spec(mode=Mode.MOO, methods=("heuristic",)), deps())
        for cell in report.cells:
            assert cell.aligned is not None
            assert set(cell.norms) == set(Objective)

    def test_soo_heuristic_beats_random_on_mission_time(self):
        spec = small_spec(team=TeamSpec(humans=3, robots=4, pois=10), trials=30)
        report = run_experiment(spec, deps())
        heuristic_mt = report.cell("heuristic", "MT").mean(Objective.MISSION_TIME)
        random_mt = report.cell("random", "MT").mean(Objective.MISSION_TIME)
        assert heuristic_mt <= random_mt

    def test_per_trial_scores_support_welch_comparisons(self):
        spec = small_spec(team=TeamSpec(humans=3, robots=4, pois=10), trials=30)
        report = run_experiment(spec, deps())
        heuristic_cell = report.cell("heuristic", "MT")
        random_cell = report.cell("random", "MT")
        assert len(heuristic_cell.trial_scores) == spec.trials
        assert all(0.0 <= score <= 1.0 for score in heuristic_cell.trial_scores)
        stat, p = welch_test(heuristic_cell.trial_scores, random_cell.trial_scores)
        assert heuristic_cell.mean_score() > random_cell.mean_score()
        assert p < 0.05 and stat > 0

    def test_moo_workload_cell_attains_best_normalized_workload(self):
        spec = small_spec(mode=Mode.MOO, methods=("heuristic",),
                          team=TeamSpec(humans=3, robots=4, pois=10), trials=20)
        report = run_experiment(spec, deps())
        hw_cell = next(c for c in report.cells if c.prioritized == "HW")
        assert hw_cell.norms[Objective.HUMAN_WORKLOAD] == pytest.approx(1.0)
        assert hw_cell.aligned

    def test_moo_column_where_every_cell_ties_passes_its_check(self):
        # zero_shot on empty stores falls back to the heuristic plan, so both
        # cells tie on every objective and every norm is the midpoint 0.5
        spec = small_spec(mode=Mode.MOO, methods=("zero_shot", "heuristic"), trials=3,
                          preferences=(PreferenceVector.of(TP=0.5, MT=0.25, HW=0.25),))
        report = run_experiment(spec, deps())
        assert all(v == 0.5 for cell in report.cells for v in cell.norms.values())
        assert report.all_checks_pass()
        names = [name for name, _ in report.checks if name.startswith("norm column")]
        assert names == [
            f"norm column {o.short} is 0.5 throughout (all cells tie)" for o in Objective
        ]

    def test_moo_columns_that_spread_must_attain_0_and_1(self):
        report = run_experiment(small_spec(mode=Mode.MOO, trials=3), deps())
        checks = dict(report.checks)
        for objective in Objective:
            column = [cell.norms[objective] for cell in report.cells]
            assert min(column) == 0.0 and max(column) == 1.0
            assert checks[f"norm column {objective.short} attains 0 and 1"]

    def test_situational_mode_marks_fixed_methods_na(self):
        report = run_experiment(
            small_spec(mode=Mode.SITUATIONAL, methods=("zero_shot", "random"),
                       change=CompositionChange(remove_robots=1, remove_humans=1)),
            deps(),
        )
        zero_shot_cell = next(c for c in report.cells if c.method == "zero_shot")
        random_cell = next(c for c in report.cells if c.method == "random")
        assert not zero_shot_cell.na
        assert zero_shot_cell.changed_records
        assert random_cell.na

    def test_situational_mode_with_added_members(self):
        spec = small_spec(mode=Mode.SITUATIONAL, methods=("zero_shot",),
                          change=CompositionChange(add_robots=2, add_humans=1))
        report = run_experiment(spec, deps())
        cell = next(c for c in report.cells if c.method == "zero_shot")
        assert len(cell.changed_records) == spec.trials
        for record in cell.changed_records:
            assert record.accuracy_points >= 0

    @pytest.mark.parametrize("workers", [1, 2])
    def test_change_that_cannot_apply_to_a_trial_names_it(self, workers):
        # robot ids are drawn per trial: trials 0 and 2 have a UAV_0, trial 1 has not
        spec = small_spec(mode=Mode.SITUATIONAL, methods=("zero_shot",), seed=1, trials=3,
                          team=TeamSpec(1, 2, 2), change=CompositionChange(remove_ids=("UAV_0",)))
        message = "trial 1: cannot remove unknown agents: ['UAV_0']"
        with pytest.raises(bench.CompositionError, match=re.escape(message)):
            run_experiment(spec, deps(workers))

    def test_parallel_workers_match_sequential(self):
        sequential = run_experiment(small_spec(), deps(workers=1))
        parallel = run_experiment(small_spec(), deps(workers=4))
        for a, b in zip(sequential.cells, parallel.cells):
            assert a.records == b.records

    def test_parallel_rebel_trials_share_databases_safely(self):
        rules_db = RulesDatabase()
        generate_rules(tuple(Objective), StubProvider(), rules_db)
        exp_db = ExperienceDatabase()
        generate_experiences(
            KnowledgeAcquisitionConfig(
                missions_per_objective=2,
                scenario_ranges=ScenarioRanges(humans=(1, 2), robots=(2, 3), tasks=(2, 4)),
                base_seed=1,
            ),
            StubProvider(), rules_db, exp_db, SimConfig(), HashedEmbedder(dim=32),
        )
        shared = BenchDeps(
            provider=StubProvider(), rules_db=rules_db, exp_db=exp_db,
            retrieval=RetrievalConfig(embedder=HashedEmbedder(dim=32)),
            workers=4,
        )
        spec = small_spec(methods=("rebel",), trials=8)
        parallel = run_experiment(spec, shared)
        shared.workers = 1
        sequential = run_experiment(spec, shared)
        for a, b in zip(parallel.cells, sequential.cells):
            assert a.records == b.records

    @pytest.mark.parametrize("mode", [Mode.MOO, Mode.SITUATIONAL])
    def test_zero_shot_builds_no_store(self, monkeypatch, mode):
        def refuse(store, *args, **kwargs):
            raise AssertionError(f"run_experiment built a {type(store).__name__}")

        stores = deps()
        for cls in (RulesDatabase, ExperienceDatabase):
            monkeypatch.setattr(cls, "__init__", refuse)
        spec = small_spec(mode=mode, methods=("zero_shot",), trials=3)
        assert run_experiment(spec, stores).all_checks_pass()

    def test_zero_shot_leaves_other_inference_warnings_alone(self, caplog):
        # an `infer` on empty stores that runs while a zero_shot trial is
        # planning (here from inside the provider) still logs its warnings
        class InferringProvider(StubProvider):
            def complete(self, prompt, temperature):
                infer(make_scenario(), PreferenceVector.single(Objective.MISSION_TIME),
                      RulesDatabase(), ExperienceDatabase(), StubProvider())
                return super().complete(prompt, temperature)

        spec = small_spec(methods=("zero_shot",), trials=1)
        with caplog.at_level("WARNING", logger="rebel.pipeline"):
            run_experiment(spec, BenchDeps(InferringProvider(), RulesDatabase(), ExperienceDatabase()))
        messages = [record.getMessage() for record in caplog.records]
        assert "rules database empty; inferring without a Rules section" in messages
        assert "experience database empty; inferring without Prior Experience" in messages

    def test_csv_and_summary_emission(self, tmp_path):
        report = run_experiment(small_spec(), deps())
        out = tmp_path / "report.csv"
        report.to_csv(out)
        with open(out, newline="") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 1 + len(report.cells)
        summary = report.summary_text()
        assert "check PASS" in summary
        assert "trials per cell: 6" in summary


FAST_SHARED = SimConfig(shared_speed_multiplier={tier: 3.0 for tier in Tier})


class ProseProvider:
    def complete(self, prompt, temperature):
        return "no plan here"


class TestPlannersUseTheRunsSimConfig:
    @pytest.mark.parametrize("provider", [StubProvider(FAST_SHARED), ProseProvider()])
    def test_greedy_plans_under_the_runs_constants(self, provider):
        # only the mixed-weight greedy branch reads the speed multiplier
        tied = PreferenceVector.of(TP=1, MT=1, HW=1)
        spec = small_spec(mode=Mode.MOO, methods=("heuristic", "zero_shot"), preferences=(tied,))
        run = BenchDeps(
            provider=provider, rules_db=RulesDatabase(), exp_db=ExperienceDatabase(),
            sim_cfg=FAST_SHARED,
        )
        report = run_experiment(spec, run)
        changed = 0
        for trial in range(spec.trials):
            scenario = random_scenario(2, 3, 5, seed=derive_seed(spec.seed, "scenario", trial))
            cfg = FAST_SHARED.with_seed(derive_seed(spec.seed, "sim", trial))
            want, _ = run_mission(scenario, heuristic_allocate(scenario, tied, FAST_SHARED), cfg)
            for method in spec.methods:
                assert report.cell(method, tied.label()).records[trial] == want
            changed += want != run_mission(scenario, heuristic_allocate(scenario, tied), cfg)[0]
        assert changed  # planning under the default constants gives other missions
        fallbacks = spec.trials if isinstance(provider, ProseProvider) else 0
        assert report.cell("zero_shot", tied.label()).fallbacks == fallbacks


def soo_brute_force_spec() -> ExperimentSpec:
    return ExperimentSpec(
        mode=Mode.SOO,
        team=TeamSpec(humans=2, robots=2, pois=3),
        trials=3,
        methods=("brute_force", "heuristic"),
        seed=4,
    )


def reference_scenario(spec: ExperimentSpec, trial: int):
    team = spec.team
    return random_scenario(
        team.humans, team.robots, team.pois, seed=derive_seed(spec.seed, "scenario", trial)
    )


def reference_plan(spec: ExperimentSpec, method: str, prefs, trial: int) -> ItaPlan:
    """A brute_force or heuristic cell's plan for one trial, found on its own."""
    scenario = reference_scenario(spec, trial)
    if method == "heuristic":
        return heuristic_allocate(scenario, prefs)
    base_seed = derive_seed(derive_seed(spec.seed, method, trial), "bf")
    plan, _ = brute_force_optimal(
        scenario, prefs, SimConfig(), spec.brute_force_samples, base_seed=base_seed
    )
    return plan


class TestPreferenceFreeWorkOncePerTrial:
    def test_one_scenario_and_one_brute_force_table_per_trial(self, monkeypatch):
        counts: Counter[str] = Counter()

        def counting(name, function):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return function(*args, **kwargs)
            return wrapper

        # brute force schedules a table through bench's reference to the array
        # scheduler, and every other mission is one `run_mission` call
        for module, name, label in (
            (bench, "schedule_plans", "brute_force"),
            (bench, "run_mission", "run_mission"),
            (bench, "random_scenario", "scenario"),
        ):
            monkeypatch.setattr(module, name, counting(label, getattr(module, name)))
        spec = soo_brute_force_spec()
        assert spec.preferences == tuple(PreferenceVector.single(o) for o in Objective)
        report = run_experiment(spec, deps())
        seen = counts.copy()  # the reference plans below schedule tables too
        assert report.all_checks_pass()
        assert seen["brute_force"] == spec.trials
        assert seen["scenario"] == spec.trials
        # one mission per distinct (trial, plan), however many cells share it
        distinct = {
            (trial, reference_plan(spec, method, prefs, trial).render())
            for method in spec.methods
            for prefs in spec.preferences
            for trial in range(spec.trials)
        }
        assert seen["run_mission"] == len(distinct) < len(report.cells) * spec.trials

    def test_records_build_no_trace(self, monkeypatch):
        def unread(trace):
            raise AssertionError("a mission's outcomes or event log was built")

        monkeypatch.setattr(sim.SimTrace, "events", property(unread))
        monkeypatch.setattr(sim.SimTrace, "outcomes", property(unread))
        spec = small_spec(mode=Mode.SITUATIONAL, methods=("zero_shot",),
                          change=CompositionChange(remove_robots=1, add_humans=1))
        assert run_experiment(spec, deps()).all_checks_pass()

    @pytest.mark.parametrize("change", [
        CompositionChange(remove_robots=1, remove_humans=1, add_robots=1),
        # an added analyst the greedy plan may leave idle: the same plan as
        # before the change, but with one more human to share the workload
        CompositionChange(add_humans=1),
    ])
    def test_situational_cells_equal_one_mission_per_cell(self, change):
        # zero_shot on empty stores gets the stub's greedy plan; the cells share
        # missions before and after the change, and their records must not mix
        spec = small_spec(
            mode=Mode.SITUATIONAL, methods=("zero_shot",), change=change, trials=8,
            preferences=(
                PreferenceVector.single(Objective.MISSION_TIME),
                PreferenceVector.single(Objective.HUMAN_WORKLOAD),
                PreferenceVector.single(Objective.TASK_PERFORMANCE),
                PreferenceVector.of(TP=1, MT=1, HW=1),
            ),
        )
        report = run_experiment(spec, deps(2))
        for cell in report.cells:
            records, changed = [], []
            for trial in range(spec.trials):
                scenario = reference_scenario(spec, trial)
                cfg = SimConfig(seed=derive_seed(spec.seed, "sim", trial))
                plan = heuristic_allocate(scenario, cell.prefs)
                modified, _ = apply_composition_change(scenario, plan, change)
                records.append(run_mission(scenario, plan, cfg)[0])
                changed.append(
                    run_mission(modified, heuristic_allocate(modified, cell.prefs), cfg)[0]
                )
            assert (cell.records, cell.changed_records) == (records, changed)
        assert report.cells[0].records != report.cells[2].records

    def test_threaded_trials_search_once_each(self, monkeypatch):
        # four worker threads and frequent thread switches: each trial's
        # table is still simulated once, and the plans do not change
        spec = replace(soo_brute_force_spec(), trials=4)
        sequential = run_experiment(spec, deps(1))
        calls, lock = [0], threading.Lock()
        schedule = bench.schedule_plans

        def counting(*args, **kwargs):
            with lock:
                calls[0] += 1
            return schedule(*args, **kwargs)

        monkeypatch.setattr(bench, "schedule_plans", counting)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threaded = run_experiment(spec, deps(4))
        finally:
            sys.setswitchinterval(interval)
        assert calls[0] == spec.trials
        assert [c.records for c in threaded.cells] == [c.records for c in sequential.cells]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cells_equal_one_search_per_cell(self, workers):
        spec = soo_brute_force_spec()
        report = run_experiment(spec, deps(workers))
        cfg = SimConfig()
        want = {}
        for method in spec.methods:
            for prefs in spec.preferences:
                records = []
                for trial in range(spec.trials):
                    scenario = reference_scenario(spec, trial)
                    plan = reference_plan(spec, method, prefs, trial)
                    sim_seed = derive_seed(spec.seed, "sim", trial)
                    records.append(run_mission(scenario, plan, cfg.with_seed(sim_seed))[0])
                want[method, prefs.label()] = records
        assert {(c.method, c.pref_label): c.records for c in report.cells} == want
        # the optimum differs by objective, so one vector's plans cannot stand in for another's
        assert len({tuple(want["brute_force", p.label()]) for p in spec.preferences}) > 1

        bounds = NormalizationBounds.from_records(
            [record for records in want.values() for record in records]
        )
        for cell in report.cells:
            assert cell.trial_scores == [
                aggregate_objective(record, cell.prefs, bounds) for record in cell.records
            ]


def populated_deps(workers: int) -> BenchDeps:
    """Stub-built rule and experience stores, so `rebel` cells can run."""
    embedder = HashedEmbedder(dim=32)
    rules_db, exp_db = RulesDatabase(), ExperienceDatabase()
    generate_rules(tuple(Objective), StubProvider(), rules_db)
    generate_experiences(
        KnowledgeAcquisitionConfig(
            missions_per_objective=2,
            scenario_ranges=ScenarioRanges(humans=(1, 3), robots=(2, 3), tasks=(2, 5)),
            base_seed=2,
        ),
        StubProvider(), rules_db, exp_db, SimConfig(), embedder,
    )
    return BenchDeps(
        provider=StubProvider(), rules_db=rules_db, exp_db=exp_db,
        retrieval=RetrievalConfig(embedder=embedder), workers=workers,
    )


def test_rebel_scores_each_trials_scenario_once_across_its_vectors(top_rows_calls):
    spec = ExperimentSpec(
        mode=Mode.MOO, team=TeamSpec(2, 3, 5), trials=3, seed=5, methods=("rebel",),
        preferences=(*rotation_preferences(), PreferenceVector.of(TP=1, MT=1, HW=1)),
    )
    report = run_experiment(spec, populated_deps(1))
    assert [len(cell.records) for cell in report.cells] == [3] * 4
    assert top_rows_calls == [3] * 3  # one per trial, not one per (trial, vector)


def report_bytes(report, directory) -> bytes:
    """`report.csv` without its `runtime_s` column, then `summary.txt`."""
    report.to_csv(directory / "report.csv")
    with open(directory / "report.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    drop = rows[0].index("runtime_s")
    kept = "\n".join(",".join(row[:drop] + row[drop + 1:]) for row in rows)
    return (kept + "\n" + report.summary_text()).encode()


class TestReportsGolden:
    # sha256 over the reports of four specs, recorded before `run_experiment`
    # ran trial by trial: any change to a record, a plan, a fallback, a cell's
    # position or the report layout changes the digest, at any worker count
    GOLDEN = "baf365cc874063538f7d64c61b4dfe60f70fa09043ad18d369477fecab8d1a2f"
    TP = PreferenceVector.single(Objective.TASK_PERFORMANCE)
    MT = PreferenceVector.single(Objective.MISSION_TIME)
    SPECS = (
        soo_brute_force_spec(),
        ExperimentSpec(
            mode=Mode.MOO, team=TeamSpec(2, 3, 5), trials=3, seed=5,
            methods=("rebel", "zero_shot", "heuristic", "random"),
        ),
        ExperimentSpec(
            mode=Mode.SITUATIONAL, team=TeamSpec(3, 3, 5), trials=3, seed=6,
            methods=("rebel", "zero_shot", "heuristic"),
            change=CompositionChange(
                remove_ids=("H_0",), remove_robots=1, add_robots=2, add_humans=1
            ),
        ),
        # one method and one vector listed twice: every cell keeps its position
        ExperimentSpec(
            mode=Mode.MOO, team=TeamSpec(2, 3, 5), trials=3, seed=7,
            methods=("random", "heuristic", "random"), preferences=(TP, MT, TP),
        ),
    )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_reports_match_the_pinned_digest(self, tmp_path, workers):
        run = populated_deps(workers)
        digest = hashlib.sha256()
        for spec in self.SPECS:
            digest.update(report_bytes(run_experiment(spec, run), tmp_path))
        assert digest.hexdigest() == self.GOLDEN


def _reference_aggregate(record, prefs, bounds) -> float:
    """The aggregate score written out term by term: a sum from 0 of each
    weight times the clamped, direction-corrected normalized value."""
    def normalized(objective):
        entry = bounds.entry(objective)
        value = record.value(objective)
        if objective.maximized:
            score = (value - entry.lo) / (entry.hi - entry.lo)
        else:
            score = (entry.hi - value) / (entry.hi - entry.lo)
        return min(1.0, max(0.0, score))

    return sum(w * normalized(objective) for objective, w in prefs.weights)


_finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)
_records = st.builds(
    PerformanceRecord,
    st.floats(min_value=0.0, max_value=1e4),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1.0),
)


@st.composite
def _bounds(draw) -> NormalizationBounds:
    entries = {}
    for objective in Objective:
        lo, hi = sorted(draw(st.lists(_finite, min_size=2, max_size=2, unique=True)))
        entries[objective] = ObjectiveBounds(lo, hi)
    return NormalizationBounds(entries)


@st.composite
def _preferences(draw) -> PreferenceVector:
    objectives = draw(st.permutations(list(Objective)))[: draw(st.integers(1, len(Objective)))]
    count = len(objectives)
    weights = draw(st.lists(st.floats(0.0, 1.0), min_size=count, max_size=count))
    if not any(weights):
        weights[0] = 1.0
    return PreferenceVector(tuple(zip(objectives, weights)))


@given(
    groups=st.integers(1, 8).flatmap(
        lambda samples: st.lists(
            st.lists(_records, min_size=samples, max_size=samples), min_size=1, max_size=6
        )
    ),
    bounds=_bounds(),
    prefs=_preferences(),
)
def test_table_scorer_equals_aggregate_objective_exactly(groups, bounds, prefs):
    for records in groups:
        columns = performance_columns(records)
        expected = [_reference_aggregate(record, prefs, bounds) for record in records]
        assert [aggregate_objective(record, prefs, bounds) for record in records] == expected
        assert aggregate_scores(columns, prefs, bounds).tolist() == expected
    # a task-free scenario has one plan per row of zero candidate indices
    scenario = make_scenario(humans=(), robots=(("UAV_0", 10.0, Tier.MED),), tasks=())
    flat = performance_columns([record for records in groups for record in records])
    table = PlanTable(
        scenario=scenario,
        rows=np.zeros((len(groups), 0), dtype=np.intp),
        columns=flat.reshape(len(Objective), len(groups), len(groups[0])),
        bounds=bounds,
    )
    assert table.scores(prefs) == [
        statistics.fmean([aggregate_objective(record, prefs, bounds) for record in records])
        for records in groups
    ]


class TestExperimentSpecJson:
    def test_round_trip_from_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(
            """
            {
              "mode": "SituationalAwareness",
              "humans": 3, "robots": 4, "pois": 8,
              "trials": 5,
              "methods": ["zero_shot"],
              "seed": 12,
              "change": {"remove_robots": 1}
            }
            """
        )
        spec = ExperimentSpec.from_json(path)
        assert spec.mode == Mode.SITUATIONAL
        assert spec.team == TeamSpec(3, 4, 8)
        assert spec.change == CompositionChange(remove_robots=1)
        assert spec.preferences == (PreferenceVector.single(Objective.TASK_PERFORMANCE),)

    def test_empty_file_gives_the_defaults(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{}")
        assert ExperimentSpec.from_json(path) == ExperimentSpec()

    def test_partial_file_keeps_the_other_defaults(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"mode": "SituationalAwareness", "robots": 2, "trials": 3, '
                        '"change": {"add_humans": 1}}')
        spec = ExperimentSpec.from_json(path)
        assert spec == ExperimentSpec(
            mode=Mode.SITUATIONAL, team=TeamSpec(robots=2), trials=3,
            change=CompositionChange(add_humans=1),
        )
        assert spec.team == TeamSpec(5, 2, 30)
        assert (spec.methods, spec.seed, spec.brute_force_samples) == (("rebel", "random"), 0, 8)

    @pytest.mark.parametrize("mode", [Mode.SOO, Mode.MOO])
    def test_change_outside_situational_awareness_rejected(self, tmp_path, mode):
        path = tmp_path / "spec.json"
        path.write_text(f'{{"mode": "{mode}", "change": {{"remove_robots": 1}}}}')
        message = f"a change applies only in SituationalAwareness mode, not {mode}"
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentSpec.from_json(path)

    def test_situational_default_change_is_resolved_at_construction(self):
        spec = ExperimentSpec(mode=Mode.SITUATIONAL)
        assert spec.change == DEFAULT_CHANGE
        assert spec == ExperimentSpec(mode=Mode.SITUATIONAL, change=DEFAULT_CHANGE)
        assert ExperimentSpec(mode=Mode.MOO).change is None

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(methods=("alien",))

    def test_misspelled_key_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"trails": 3, "robots": 2}')
        with pytest.raises(ValueError, match=r'unknown spec keys \["trails"\]'):
            ExperimentSpec.from_json(path)

    def test_team_is_not_a_spec_key(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"team": {"robots": 2}}')
        with pytest.raises(ValueError, match=r'unknown spec keys \["team"\]'):
            ExperimentSpec.from_json(path)

    def test_misspelled_change_key_rejected(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"mode": "SituationalAwareness", "change": {"remove_robot": 1}}')
        with pytest.raises(ValueError, match=r'unknown change keys \["remove_robot"\]'):
            ExperimentSpec.from_json(path)


    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"trials": "3"}', 'trials must be an integer, got "3"'),
            ('{"trials": true}', "trials must be an integer, got true"),
            ('{"trials": 2.0}', "trials must be an integer, got 2.0"),
            ('{"seed": 1.5}', "seed must be an integer, got 1.5"),
            ('{"brute_force_samples": null}', "brute_force_samples must be an integer, got null"),
            ('{"humans": "2"}', 'humans must be an integer, got "2"'),
            ('{"humans": -1}', "humans must be >= 0, got -1"),
            ('{"robots": 0}', "robots must be >= 1, got 0"),
            ('{"pois": -3}', "pois must be >= 0, got -3"),
            ('{"change": {"add_humans": -1}}', "change.add_humans must be >= 0, got -1"),
            ('{"change": {"remove_robots": false}}', "change.remove_robots must be an integer"),
        ],
    )
    def test_counts_must_be_integers_at_their_minimum(self, tmp_path, text, message):
        path = tmp_path / "spec.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentSpec.from_json(path)

    @pytest.mark.parametrize(
        "change, message",
        [
            ('{"remove_ids": "H_0"}', 'change.remove_ids must be a list of strings, got "H_0"'),
            ('{"remove_ids": [5]}', "change.remove_ids must be a list of strings, got [5]"),
            ('{"remove_ids": null}', "change.remove_ids must be a list of strings, got null"),
            ('{"remove_robots": 2}', "change.remove_robots must be < robots (2), got 2"),
            (None, "change.remove_robots must be < robots (1), got 1 (the default change)"),
        ],
    )
    def test_change_that_cannot_apply_to_any_trial_rejected(self, tmp_path, change, message):
        # robots are removed before any are added, so none may be left
        path = tmp_path / "spec.json"
        robots = 1 if change is None else 2
        path.write_text(
            f'{{"mode": "SituationalAwareness", "robots": {robots}'
            + ("" if change is None else f', "change": {change}') + "}"
        )
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentSpec.from_json(path)

    def test_change_keeping_one_robot_accepted(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"mode": "SituationalAwareness", "robots": 2, '
                        '"change": {"remove_robots": 1, "add_robots": 3, "remove_ids": ["H_0"]}}')
        change = ExperimentSpec.from_json(path).change
        assert change == CompositionChange(("H_0",), remove_robots=1, add_robots=3)

    def test_negative_seed_and_empty_team_edges_accepted(self):
        spec = ExperimentSpec(team=TeamSpec(humans=0, robots=1, pois=0), seed=-4)
        assert (spec.team, spec.seed) == (TeamSpec(0, 1, 0), -4)

    @pytest.mark.parametrize("mode", [Mode.SOO, Mode.MOO])
    def test_brute_force_past_the_plan_cap_rejected(self, tmp_path, mode):
        # 1 robot x (1 + 9 humans) = 10 candidates per task: 10**5 plans is the cap
        assert bench.BRUTE_FORCE_CAP == 10**5
        spec = ExperimentSpec(mode=mode, team=TeamSpec(9, 1, 5), methods=("brute_force",))
        assert spec.team.pois == 5
        message = r"^brute_force would search \(1 x \(1 \+ 9\)\)\^6 plans, more than the 100000 plan cap"
        with pytest.raises(ValueError, match=message):
            ExperimentSpec(mode=mode, team=TeamSpec(9, 1, 6), methods=("heuristic", "brute_force"))
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"mode": mode, "humans": 9, "robots": 1, "pois": 6, "methods": ["brute_force"]}))
        with pytest.raises(ValueError, match=message):
            ExperimentSpec.from_json(path)

    @pytest.mark.parametrize("humans, robots", [(0, 1), (0, 2), (1, 1), (2, 3), (3, 2)])
    def test_the_spec_refuses_exactly_what_the_search_refuses(self, humans, robots):
        pois = 0
        while pois < 40:  # one candidate a task never passes the cap
            try:
                ExperimentSpec(team=TeamSpec(humans, robots, pois + 1), methods=("brute_force",))
            except ValueError:
                break
            pois += 1
        assert len(bench._plan_rows(random_scenario(humans, robots, pois, seed=1))) <= bench.BRUTE_FORCE_CAP
        if pois < 40:
            with pytest.raises(ValueError, match="plan cap"):
                bench._plan_rows(random_scenario(humans, robots, pois + 1, seed=1))

    def test_a_vast_brute_force_team_is_refused_at_once(self):
        huge = 10**4000
        with pytest.raises(ValueError, match="more than the 100000 plan cap"):
            ExperimentSpec(team=TeamSpec(huge, huge, huge), methods=("brute_force",))

    def test_situational_brute_force_is_not_refused_since_it_never_runs(self):
        spec = ExperimentSpec(mode=Mode.SITUATIONAL, team=TeamSpec(5, 7, 30), methods=("zero_shot", "brute_force"))
        assert spec.team == TeamSpec(5, 7, 30)

    def test_brute_force_samples_below_one_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="brute_force_samples must be >= 1"):
            ExperimentSpec(methods=("brute_force",), brute_force_samples=0)
        path = tmp_path / "spec.json"
        path.write_text('{"methods": ["brute_force"], "brute_force_samples": 0}')
        with pytest.raises(ValueError, match="brute_force_samples must be >= 1"):
            ExperimentSpec.from_json(path)

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"change": 5}', "change must be an object, got 5"),
            ('{"change": ["add_humans"]}', "change must be an object"),
            ('{"preferences": [5]}', "a preferences entry must be an object, got 5"),
            ('{"preferences": {"TP": 1}}', "preferences must be a list"),
            ('{"methods": "random"}', 'methods must be a list, got "random"'),
            ("[1, 2]", "a spec must be an object"),
            pytest.param(DEEPLY_NESTED, "JSON nested too deeply to decode", id="nested-too-deeply"),
            pytest.param(
                '{"change": ' + DEEPLY_NESTED, "JSON nested too deeply to decode", id="nested-too-deeply-under-a-key"
            ),
        ],
    )
    def test_values_of_the_wrong_shape_rejected(self, tmp_path, text, message):
        path = tmp_path / "spec.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(message)):
            ExperimentSpec.from_json(path)

    @settings(max_examples=60, deadline=None)
    @given(raw=st.dictionaries(
        st.sampled_from(sorted(
            {f.name for f in fields(ExperimentSpec)} - {"team"} | {f.name for f in fields(TeamSpec)}
        )),
        json_values()
        | st.sampled_from([Mode.SOO, Mode.MOO, Mode.SITUATIONAL])
        | st.lists(st.dictionaries(st.sampled_from(["TP", "MT", "HW"]), json_values()), max_size=2)
        | st.dictionaries(st.sampled_from([f.name for f in fields(CompositionChange)]), json_values()),
        min_size=1, max_size=4,
    ))
    @example(raw={"trials": 10**400, "preferences": [{"TP": 2**1024}]})
    @example(raw={"mode": Mode.SITUATIONAL, "change": {"remove_ids": [10**400]}})
    def test_any_json_value_under_any_key_loads_or_is_a_value_error(self, raw):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "spec.json"
            path.write_text(json.dumps(raw), encoding="utf-8")
            try:
                ExperimentSpec.from_json(path)
            except ValueError:
                pass  # any other exception type fails the test


def test_welch_test_detects_obvious_difference():
    a = [1.0 + 0.01 * i for i in range(40)]
    b = [5.0 + 0.01 * i for i in range(40)]
    stat, p = welch_test(a, b)
    assert p < 1e-6
    assert stat < 0


def test_welch_test_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    rng = random.Random(5)
    for _ in range(300):
        a = [rng.gauss(0.0, 1.0) for _ in range(rng.randint(2, 120))]
        b = [rng.gauss(rng.uniform(-2, 2), rng.uniform(0.1, 5)) for _ in range(rng.randint(2, 120))]
        expected = stats.ttest_ind(a, b, equal_var=False)
        stat, p = welch_test(a, b)
        assert stat == pytest.approx(float(expected.statistic), rel=1e-10)
        assert p == pytest.approx(float(expected.pvalue), rel=1e-10)


def test_welch_test_degenerate_samples():
    assert welch_test([1.0, 1.0], [2.0, 2.0]) == (-math.inf, 0.0)
    for a, b in (([1.0, 1.0], [1.0, 1.0]), ([1.0], [1.0, 2.0])):
        assert all(math.isnan(value) for value in welch_test(a, b))


# Python 3.10's `statistics.stdev` gives 0x1.56ca70e7690c8p+10 here, one bit
# below the correctly rounded root
_ROUNDED_LOW_ON_3_10 = [
    1559.261571090097, 720.587451092437, 3748.3696022121544, 3701.7561221404703, 2393.1097175499563,
    3460.2838442265465, 2581.6725948116077, 1026.0750335077034, 4760.104735503248,
]
_STDEV_VALUES = st.lists(
    st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 0.1]), min_size=2, max_size=12
)


class TestCellStdev:
    """A cell's stdev is the correctly rounded root of the exact sample
    variance on every interpreter, so `report.csv` and every digest that
    hashes it are too."""

    @settings(max_examples=300, deadline=None)
    @given(_STDEV_VALUES)
    @example(_ROUNDED_LOW_ON_3_10)
    def test_equals_the_correctly_rounded_root(self, values):
        got = bench._sample_stdev(values)
        assert got.hex() == ref_stdev(values).hex()
        if sys.version_info >= (3, 11):  # the same method as `statistics.stdev` from 3.11 on
            assert got.hex() == statistics.stdev(values).hex()

    def test_a_cell_of_records(self):
        records = [PerformanceRecord(v, 100.0, 0.5) for v in _ROUNDED_LOW_ON_3_10]
        cell = CellResult("rebel", PreferenceVector.single(Objective.TASK_PERFORMANCE), records, 0, 0.0)
        assert cell.stdev(Objective.TASK_PERFORMANCE).hex() == "0x1.56ca70e7690c9p+10"
        assert cell.stdev(Objective.MISSION_TIME) == 0.0
        assert CellResult("rebel", cell.prefs, records[:1], 0, 0.0).stdev(Objective.TASK_PERFORMANCE) == 0.0
