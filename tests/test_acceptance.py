"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

from __future__ import annotations

import random
import statistics
import time
from types import SimpleNamespace

import pytest

from rebel.bench import (
    BenchDeps,
    CompositionChange,
    ExperimentSpec,
    Mode,
    TeamSpec,
    brute_force_optimal,
    brute_force_table,
    random_allocate,
    random_scenario,
    rotation_preferences,
    run_experiment,
    welch_test,
)
from rebel.cli import main as cli_main
from rebel.core import (
    Assignment,
    ItaPlan,
    MissionScenario,
    Objective,
    PerformanceRecord,
    PreferenceVector,
    Tier,
    validate_plan,
)
from rebel.llm import StubProvider, heuristic_allocate
from rebel.pipeline import (
    KnowledgeAcquisitionConfig,
    RetrievalConfig,
    ScenarioRanges,
    generate_experiences,
    generate_rules,
)
from rebel.prompt import parse_ita_plan
from rebel.retrieval import (
    CorpusStats,
    ExperienceDatabase,
    HashedEmbedder,
    RuleEntry,
    RulesDatabase,
    bm25_score,
    dense_score,
    embed_scenario_sections,
    ensemble_retrieve,
    idf,
    retrieve_experiences,
    tokenize,
)
from rebel.sim import SimConfig, run_mission, travel_time
from conftest import make_scenario
from oracles import (
    ref_bm25,
    ref_cosine,
    ref_experience_order,
    ref_fusion_order,
    ref_idf,
)

EMBEDDER = HashedEmbedder(dim=64)


def passed(criterion: int, label: str) -> None:
    print(f"\nACCEPTANCE {criterion} ({label}): PASS")


VOCAB = (
    "robots humans tasks faster slower camera skill easy hard queue time "
    "assign balance capture analysis workload autonomous shared quality route idle"
).split()


def random_rule_corpus(rng: random.Random) -> RulesDatabase:
    db = RulesDatabase()
    n = rng.randint(1, 20)
    for index in range(n):
        if index and rng.random() < 0.2:
            text = db.rules()[rng.randrange(len(db))].text  # force exact-tie duplicates
        else:
            text = " ".join(rng.choices(VOCAB, k=rng.randint(2, 9)))
        db.store(rng.choice(list(Objective)), text)
    return db


def test_acceptance_1_retrieval_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(2025)
    bm25_params, fusion = SimpleNamespace(k1=1.5, b=0.75), SimpleNamespace(alpha=0.5, c=60.0)

    for _ in range(25):
        db = random_rule_corpus(rng)
        rules = db.rules()
        texts = [r.text for r in rules]
        stats = CorpusStats.from_rules(rules)
        query = " ".join(rng.choices(VOCAB, k=rng.randint(1, 4)))

        for rule in rules:
            got = bm25_score(tokenize(query), rule, stats)
            want = ref_bm25(query, rule.text, texts, bm25_params.k1, bm25_params.b)
            assert got == pytest.approx(want, abs=1e-9)
        for term in set(tokenize(query)):
            assert idf(term, stats) == pytest.approx(ref_idf(term, texts), abs=1e-9)

        got_order = [r.id for r in ensemble_retrieve(query, db, k=len(db), embedder=EMBEDDER)]
        want_order = ref_fusion_order(
            query, rules, EMBEDDER, fusion.alpha, fusion.c, bm25_params.k1, bm25_params.b
        )
        assert got_order == want_order

    # dense cosine against explicit loops
    for _ in range(50):
        u = tuple(rng.uniform(-1, 1) for _ in range(16))
        v = tuple(rng.uniform(-1, 1) for _ in range(16))
        assert dense_score(u, v) == pytest.approx(ref_cosine(u, v), abs=1e-9)

    # sectioned experience retrieval against an exhaustive reference
    for round_index in range(5):
        db = ExperienceDatabase()
        count = rng.randint(2, 10)
        for index in range(count):
            scenario = random_scenario(
                rng.randint(1, 3), rng.randint(1, 4), rng.randint(1, 6),
                seed=1000 * round_index + index,
            )
            performance = PerformanceRecord(
                rng.uniform(0, 50), rng.uniform(10, 900), rng.uniform(0, 1)
            )
            plan = heuristic_allocate(scenario, PreferenceVector.single(Objective.MISSION_TIME))
            db.store(
                Objective.MISSION_TIME, scenario, plan, performance,
                embed_scenario_sections(scenario, EMBEDDER),
            )
        query_scenario = random_scenario(2, 3, 4, seed=555 + round_index)
        prefs = PreferenceVector.of(TP=0.5, MT=0.25, HW=0.25)
        for k in (1, min(3, count), count):
            for m in (1, k):
                got = [
                    e.id
                    for e in retrieve_experiences(
                        query_scenario, prefs, db, k=k, m=m, embedder=EMBEDDER
                    )
                ]
                want = ref_experience_order(query_scenario, prefs, db.records(), EMBEDDER, k, m)
                assert got == want

    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    passed(1, f"retrieval math matches brute-force oracles in {elapsed:.2f}s")


def test_acceptance_2_bm25_analytic_identities():
    # absent term contributes zero
    rules = tuple(
        RuleEntry(i, Objective.MISSION_TIME, text)
        for i, text in enumerate(["assign faster robots", "keep humans idle", "watch the queue"])
    )
    stats = CorpusStats.from_rules(rules)
    assert bm25_score(["zeppelin"], rules[0], stats) == 0.0

    # TF = 1 at exactly average length: contribution equals IDF
    uniform = tuple(
        RuleEntry(i, Objective.MISSION_TIME, text)
        for i, text in enumerate(["alpha beta gamma", "delta epsilon zeta", "eta theta iota"])
    )
    uniform_stats = CorpusStats.from_rules(uniform)
    assert bm25_score(["delta"], uniform[1], uniform_stats) == idf("delta", uniform_stats)

    # term in exactly half the corpus has IDF exactly zero
    for k in (1, 3, 7):
        texts = ["pivot word"] * k + ["other stuff"] * k
        half = CorpusStats.from_rules(
            tuple(RuleEntry(i, Objective.MISSION_TIME, t) for i, t in enumerate(texts))
        )
        assert idf("pivot", half) == 0.0

    passed(2, "analytic identities hold exactly")


def _random_triple(rng: random.Random):
    scenario = random_scenario(
        humans=rng.randint(0, 4),
        robots=rng.randint(1, 5),
        tasks=rng.randint(0, 10),
        seed=rng.randrange(1 << 30),
    )
    humans = sorted(scenario.human_ids())
    robots = sorted(scenario.robot_ids())
    all_autonomous = rng.random() < 1 / 3
    assignments = {}
    for task in scenario.tasks:
        robot = rng.choice(robots)
        if all_autonomous or not humans or rng.random() < 1 / 3:
            assignments[task.id] = Assignment(robot)
        else:
            assignments[task.id] = Assignment(robot, rng.choice(humans))
    return scenario, ItaPlan(assignments), rng.randrange(1 << 30), all_autonomous


def test_acceptance_3_simulator_invariants_thousand_triples():
    start = time.perf_counter()
    rng = random.Random(777)
    base_cfg = SimConfig()
    for _ in range(1000):
        scenario, plan, seed, all_autonomous = _random_triple(rng)
        cfg = base_cfg.with_seed(seed)
        record, trace = run_mission(scenario, plan, cfg)
        record2, trace2 = run_mission(scenario, plan, cfg)
        assert (record, trace) == (record2, trace2)  # bit-identical rerun

        assert 0.0 <= record.human_utilization <= 1.0
        assert record.accuracy_points <= 5.0 * len(scenario.tasks) + 1e-9

        tasks = {t.id: t for t in scenario.tasks}
        humans = {h.id: h for h in scenario.humans}
        for robot in scenario.robots:
            pos, lower_bound = (0.0, 0.0), 0.0
            for task_id, (agent, human) in plan.assignments.items():
                if agent != robot.id:
                    continue
                task = tasks[task_id]
                speed = robot.speed
                if human is not None:
                    speed *= cfg.shared_speed_multiplier[humans[human].skill]
                lower_bound += travel_time(pos, task.location, speed)
                pos = task.location
            assert record.mission_seconds >= lower_bound - 1e-9

        if all_autonomous:
            assert record.human_utilization == 0.0

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    passed(3, f"1000 randomized triples hold all invariants in {elapsed:.1f}s")


def test_acceptance_4_monte_carlo_calibration():
    scenario = make_scenario(
        humans=(),
        robots=(("UAV_0", 10.0, Tier.HIGH),),
        tasks=(("T_0", (0.0, 1000.0), Tier.LOW),),
    )
    plan = ItaPlan({"T_0": Assignment("UAV_0")})
    cfg = SimConfig()
    # configured probability: base(High camera) - penalty(Low difficulty) = 0.85
    hits = sum(
        run_mission(scenario, plan, cfg.with_seed(seed))[0].accuracy_points > 0
        for seed in range(10_000)
    )
    rate = hits / 10_000
    assert rate == pytest.approx(0.85, abs=0.02)
    passed(4, f"empirical rate {rate:.4f} within 0.85 +/- 0.02 over 10000 seeds")


def _run_hermetic_flow(workdir, capsys) -> tuple[bytes, bytes, str]:
    rules_path = workdir / "rules.jsonl"
    exp_path = workdir / "exp.jsonl"
    scenario_path = workdir / "scenario.txt"
    scenario_path.write_text(random_scenario(5, 7, 12, seed=4242).serialize() + "\n")

    assert cli_main(["gen-rules", "--rules-db", str(rules_path)]) == 0
    assert cli_main([
        "gen-exp", "--rules-db", str(rules_path), "--exp-db", str(exp_path),
        "--missions", "10", "--seed", "99",
    ]) == 0
    capsys.readouterr()
    assert cli_main([
        "infer", "--rules-db", str(rules_path), "--exp-db", str(exp_path),
        "--scenario", str(scenario_path), "--prefs", "TP=0.5,MT=0.25,HW=0.25",
    ]) == 0
    infer_stdout = capsys.readouterr().out
    return rules_path.read_bytes(), exp_path.read_bytes(), infer_stdout


def test_acceptance_5_hermetic_end_to_end(tmp_path, capsys):
    start = time.perf_counter()
    run_a = tmp_path / "a"
    run_b = tmp_path / "b"
    run_a.mkdir()
    run_b.mkdir()

    rules_a, exp_a, out_a = _run_hermetic_flow(run_a, capsys)
    rules_b, exp_b, out_b = _run_hermetic_flow(run_b, capsys)

    # bit-reproducible across independent runs
    assert rules_a == rules_b
    assert exp_a == exp_b
    assert out_a == out_b

    # the netted experience count: 3 objectives x 10 missions
    assert sum(1 for line in exp_a.splitlines() if line.strip()) == 30

    # the inferred plan validates against the scenario and carries provenance
    scenario = MissionScenario.parse((run_a / "scenario.txt").read_text())
    plan = parse_ita_plan(out_a, scenario)
    assert validate_plan(plan, scenario).ok
    assert "# retrieved rules: [" in out_a and "# retrieved experiences: [" in out_a
    rule_ids = out_a.split("# retrieved rules: ")[1].splitlines()[0]
    exp_ids = out_a.split("# retrieved experiences: ")[1].splitlines()[0]
    assert rule_ids != "[]" and exp_ids != "[]"

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    passed(5, f"stub-provider KA + inference bit-reproducible in {elapsed:.1f}s")


@pytest.fixture(scope="module")
def knowledge_bases():
    rules_db = RulesDatabase()
    generate_rules(tuple(Objective), StubProvider(), rules_db)
    exp_db = ExperienceDatabase()
    generate_experiences(
        KnowledgeAcquisitionConfig(
            missions_per_objective=3,
            scenario_ranges=ScenarioRanges(humans=(2, 4), robots=(3, 5), tasks=(4, 10)),
            base_seed=5,
        ),
        StubProvider(),
        rules_db,
        exp_db,
        SimConfig(),
        EMBEDDER,
    )
    return rules_db, exp_db


def bench_deps(knowledge_bases) -> BenchDeps:
    rules_db, exp_db = knowledge_bases
    return BenchDeps(
        provider=StubProvider(),
        rules_db=rules_db,
        exp_db=exp_db,
        retrieval=RetrievalConfig(embedder=EMBEDDER),
    )


def test_acceptance_6_soo_relative_ordering(knowledge_bases):
    spec = ExperimentSpec(
        mode=Mode.SOO, team=TeamSpec(5, 7, 30), trials=100, methods=("rebel", "random"), seed=11
    )
    report = run_experiment(spec, bench_deps(knowledge_bases))

    for objective in Objective:
        label = objective.short
        rebel_values = report.cell("rebel", label).values(objective)
        random_values = report.cell("random", label).values(objective)
        _, p = welch_test(rebel_values, random_values)
        rebel_mean = statistics.fmean(rebel_values)
        random_mean = statistics.fmean(random_values)
        if objective is Objective.TASK_PERFORMANCE:
            assert rebel_mean > random_mean
        else:
            assert rebel_mean < random_mean
        assert p < 0.05

    # exact dominance on a desk-scale instance
    scenario = make_scenario(
        humans=(("H_0", Tier.HIGH, Tier.HIGH), ("H_1", Tier.LOW, Tier.LOW)),
        robots=(("UAV_0", 12.0, Tier.HIGH), ("UGV_0", 7.0, Tier.LOW)),
        tasks=(("T_0", (400.0, 300.0), Tier.HIGH), ("T_1", (1200.0, 900.0), Tier.LOW)),
    )
    cfg = SimConfig()

    for prefs in [PreferenceVector.single(obj) for obj in Objective] + rotation_preferences():
        table = brute_force_table(scenario, prefs, cfg, samples_per_plan=4, base_seed=7)
        scores = {plan.render(): mean_j for plan, mean_j in table}
        _, best_j = brute_force_optimal(scenario, prefs, cfg, samples_per_plan=4, base_seed=7)
        assert best_j >= scores[heuristic_allocate(scenario, prefs).render()] - 1e-12
        assert best_j >= scores[random_allocate(scenario, seed=21).render()] - 1e-12

    passed(6, "stub-guided pipeline beats random per SOO cell (Welch p<0.05); "
              "brute force dominates exactly")


def test_acceptance_7_moo_preference_alignment(knowledge_bases):
    spec = ExperimentSpec(
        mode=Mode.MOO, team=TeamSpec(5, 7, 30), trials=100, methods=("rebel",), seed=11
    )
    report = run_experiment(spec, bench_deps(knowledge_bases))
    assert len(report.cells) == 3
    for cell in report.cells:
        assert cell.prioritized is not None
        assert cell.aligned, (
            f"cell {cell.pref_label}: prioritized {cell.prioritized} norms {cell.norms}"
        )
    passed(7, "prioritized objective attains the best in-cell normalized value "
              "in all three weight rotations")


def test_acceptance_8_situational_awareness(knowledge_bases):
    spec = ExperimentSpec(
        mode=Mode.SITUATIONAL,
        team=TeamSpec(5, 7, 30),
        trials=100,
        methods=("rebel", "random"),
        seed=11,
        change=CompositionChange(remove_robots=1, remove_humans=1),
    )
    deps = bench_deps(knowledge_bases)
    report = run_experiment(spec, deps)

    rebel_cell = report.cell("rebel", "TP")
    assert not rebel_cell.na
    assert len(rebel_cell.changed_records) == 100
    static_tp = rebel_cell.mean(Objective.TASK_PERFORMANCE)
    changed_tp = statistics.fmean(r.accuracy_points for r in rebel_cell.changed_records)
    degradation = (static_tp - changed_tp) / static_tp
    assert degradation < 0.25

    random_cell = report.cell("random", "TP")
    assert random_cell.na  # fixed-input baseline cannot re-plan

    # spot-check that re-inference restores full coverage after the change
    scenario = random_scenario(5, 7, 30, seed=123)
    from rebel.bench import apply_composition_change
    from rebel.pipeline import infer

    plan = heuristic_allocate(scenario, PreferenceVector.single(Objective.TASK_PERFORMANCE))
    modified, change_report = apply_composition_change(
        scenario, plan, CompositionChange(remove_robots=1, remove_humans=1)
    )
    assert len(change_report.removed) == 2
    result = infer(
        modified,
        PreferenceVector.single(Objective.TASK_PERFORMANCE),
        deps.rules_db,
        deps.exp_db,
        deps.provider,
        deps.retrieval,
    )
    check = validate_plan(result.plan, modified)
    assert check.ok
    assert result.plan.task_ids() == modified.task_ids()

    passed(8, f"re-inference restores coverage; TP degradation {degradation * 100:.1f}% < 25%; "
              "fixed methods report N/A")


def test_acceptance_9_persistence_round_trip(tmp_path):
    rules_path = tmp_path / "rules.jsonl"
    rules_db = RulesDatabase(rules_path)
    generate_rules(tuple(Objective), StubProvider(), rules_db)
    rules_db.replace_objective(Objective.MISSION_TIME, ["Replacement generation rule."])

    reloaded_rules = RulesDatabase(rules_path)
    assert reloaded_rules.rules() == rules_db.rules()

    exp_path = tmp_path / "exp.jsonl"
    exp_db = ExperienceDatabase(exp_path)
    rng = random.Random(8)
    for index in range(6):
        scenario = random_scenario(2, 3, 4, seed=index)
        plan = heuristic_allocate(scenario, PreferenceVector.single(Objective.MISSION_TIME))
        exp_db.store(
            Objective.MISSION_TIME,
            scenario,
            plan,
            PerformanceRecord(rng.uniform(0, 20), rng.uniform(10, 500), rng.random()),
            embed_scenario_sections(scenario, EMBEDDER),
            fallback=bool(index % 2),
        )
    reloaded_exp = ExperienceDatabase(exp_path)
    assert reloaded_exp.records() == exp_db.records()
    for original, loaded in zip(exp_db.records(), reloaded_exp.records()):
        assert loaded.emb_humans == original.emb_humans
        assert loaded.emb_robots == original.emb_robots
        assert loaded.emb_tasks == original.emb_tasks

    passed(9, "rules and experience databases reload bit-identically, embeddings included")
