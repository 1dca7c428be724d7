from __future__ import annotations

import hashlib

from dataclasses import replace

import pytest

from rebel import llm, pipeline
from rebel.core import Objective, PerformanceRecord, PreferenceVector, Tier
from rebel.llm import (
    STUB_RULES,
    StubProvider,
    Unavailable,
    heuristic_allocate,
)
from rebel.pipeline import (
    KnowledgeAcquisitionConfig,
    RetrievalConfig,
    ScenarioRanges,
    StageError,
    generate_experiences,
    generate_rules,
    infer,
)
from rebel.prompt import SECTION_EXPERIENCE, assignment_lines, extract_section
from rebel.retrieval import (
    ExperienceDatabase,
    HashedEmbedder,
    RulesDatabase,
    embed_scenario_sections,
)
from rebel.sim import SimConfig
from conftest import make_scenario
from oracles import ref_fusion_order

EMBEDDER = HashedEmbedder(dim=64)


class EmptyProvider:
    def complete(self, request):
        return "   \n  "


class ProseProvider:
    def complete(self, request):
        return "I would love to help, but here are some musings instead."


class FailingProvider:
    def __init__(self, fail_after: int = 1):
        self.calls = 0
        self.fail_after = fail_after

    def complete(self, request):
        self.calls += 1
        if self.calls > self.fail_after:
            raise Unavailable("provider is down")
        return "Rule that made it in."


class CopyExemplarProvider:
    """Answers allocation prompts by copying the first prior-experience plan."""

    def __init__(self):
        self.fallback = StubProvider()

    def complete(self, request):
        try:
            section = extract_section(request.prompt, SECTION_EXPERIENCE)
        except KeyError:
            return self.fallback.complete(request)
        first_block = section.split("Example 2:")[0]
        lines = assignment_lines(first_block)
        return "\n".join(
            f"{task}: ({', '.join(agents)})" for task, agents in lines
        )


class TestGenerateRules:
    def test_three_objectives_three_bullets_each(self):
        db = RulesDatabase()
        stored = generate_rules(tuple(Objective), StubProvider(), db)
        assert len(stored) == 9
        for objective in Objective:
            assert [r.text for r in db.for_objective(objective)] == list(STUB_RULES[objective])

    def test_rerun_deduplicates_exact_text(self):
        db = RulesDatabase()
        generate_rules(tuple(Objective), StubProvider(), db)
        second = generate_rules(tuple(Objective), StubProvider(), db)
        assert second == ()
        assert len(db) == 9

    def test_empty_response_stores_nothing_and_continues(self):
        db = RulesDatabase()
        stored = generate_rules(tuple(Objective), EmptyProvider(), db)
        assert stored == ()
        assert len(db) == 0

    def test_provider_failure_aborts_with_partial_progress(self):
        db = RulesDatabase()
        with pytest.raises(StageError) as exc_info:
            generate_rules(tuple(Objective), FailingProvider(fail_after=1), db)
        assert len(exc_info.value.stored) == 1
        assert len(db) == 1  # first objective's rule is already durable

    def test_no_objectives_rejected(self):
        with pytest.raises(ValueError):
            generate_rules((), StubProvider(), RulesDatabase())


def ka_config(k=3, seed=7) -> KnowledgeAcquisitionConfig:
    return KnowledgeAcquisitionConfig(
        objectives=tuple(Objective),
        missions_per_objective=k,
        scenario_ranges=ScenarioRanges(humans=(1, 3), robots=(2, 4), tasks=(2, 6)),
        base_seed=seed,
    )


class TestGenerateExperiences:
    def test_stub_provider_yields_full_batch_without_fallbacks(self):
        rules_db = RulesDatabase()
        generate_rules(tuple(Objective), StubProvider(), rules_db)
        exp_db = ExperienceDatabase()
        stored = generate_experiences(
            ka_config(k=3), StubProvider(), rules_db, exp_db, SimConfig(), EMBEDDER
        )
        assert len(stored) == 9
        assert all(not record.fallback for record in stored)
        assert len(exp_db.for_objective(Objective.MISSION_TIME)) == 3

    def test_rerun_against_reloaded_store_stores_nothing(self, tmp_path):
        rules_db = RulesDatabase(tmp_path / "rules.jsonl")
        generate_rules(tuple(Objective), StubProvider(), rules_db)
        exp_path = tmp_path / "exp.jsonl"
        exp_db = ExperienceDatabase(exp_path)
        first = generate_experiences(
            ka_config(k=3), StubProvider(), rules_db, exp_db, SimConfig(), EMBEDDER
        )
        assert len(first) == 9
        reloaded = ExperienceDatabase(exp_path)
        second = generate_experiences(
            ka_config(k=3), StubProvider(), rules_db, reloaded, SimConfig(), EMBEDDER
        )
        assert second == ()
        assert len(ExperienceDatabase(exp_path)) == 9

    def test_prose_provider_falls_back_to_heuristic(self):
        rules_db = RulesDatabase()
        generate_rules(tuple(Objective), StubProvider(), rules_db)
        exp_db = ExperienceDatabase()
        stored = generate_experiences(
            ka_config(k=1),
            ProseProvider(),
            rules_db,
            exp_db,
            SimConfig(),
            EMBEDDER,
        )
        # prose provider cannot refine either, so rules stay put; every record
        # is a fallback but still carries a valid plan that was simulated
        assert len(stored) == 3
        assert all(record.fallback for record in stored)

    def test_refinement_with_echo_stub_keeps_rules_unchanged(self):
        rules_db = RulesDatabase()
        generate_rules(tuple(Objective), StubProvider(), rules_db)
        before = rules_db.rules()
        generate_experiences(
            ka_config(k=2), StubProvider(), rules_db, ExperienceDatabase(), SimConfig(), EMBEDDER
        )
        assert rules_db.rules() == before

    def test_missing_rules_for_objective_is_stage_error(self):
        rules_db = RulesDatabase()
        rules_db.store(Objective.MISSION_TIME, "only time rules exist")
        with pytest.raises(StageError):
            generate_experiences(
                ka_config(k=1), StubProvider(), rules_db, ExperienceDatabase(), SimConfig(), EMBEDDER
            )

    @pytest.mark.parametrize("stub", [True, False])
    def test_greedy_plans_under_the_runs_sim_config(self, stub, monkeypatch):
        # a single-objective greedy plan reads none of the model constants, so
        # only the config handed to the allocator can show which one it used
        fast = SimConfig(shared_speed_multiplier={tier: 3.0 for tier in Tier})
        seen = []

        def spy(scenario, prefs, cfg=None):
            seen.append(cfg)
            return heuristic_allocate(scenario, prefs, cfg)

        monkeypatch.setattr(llm, "heuristic_allocate", spy)
        monkeypatch.setattr(pipeline, "heuristic_allocate", spy)
        rules_db = RulesDatabase()
        generate_rules(tuple(Objective), StubProvider(), rules_db)
        provider = StubProvider(fast) if stub else ProseProvider()
        stored = generate_experiences(
            ka_config(k=2), provider, rules_db, ExperienceDatabase(), fast, EMBEDDER
        )
        assert all(record.fallback is not stub for record in stored)
        # a prose answer is asked for twice, then the fallback plans once
        assert len(seen) == len(stored) and all(cfg is fast for cfg in seen)

    def test_rerun_appends_nothing_new_for_same_seed(self):
        rules_db = RulesDatabase()
        generate_rules(tuple(Objective), StubProvider(), rules_db)
        exp_db = ExperienceDatabase()
        cfg = ka_config(k=2)
        first = generate_experiences(cfg, StubProvider(), rules_db, exp_db, SimConfig(), EMBEDDER)
        again = generate_experiences(cfg, StubProvider(), rules_db, exp_db, SimConfig(), EMBEDDER)
        assert len(first) == 6
        assert again == ()  # exact duplicates are skipped
        assert len(exp_db) == 6


def populated_dbs():
    rules_db = RulesDatabase()
    generate_rules(tuple(Objective), StubProvider(), rules_db)
    exp_db = ExperienceDatabase()
    generate_experiences(
        ka_config(k=2), StubProvider(), rules_db, exp_db, SimConfig(), EMBEDDER
    )
    return rules_db, exp_db


def retrieval_cfg() -> RetrievalConfig:
    return RetrievalConfig(embedder=EMBEDDER)


class TestInfer:
    def test_empty_databases_degrade_to_heuristic(self, scenario):
        prefs = PreferenceVector.of(TP=0.5, MT=0.25, HW=0.25)
        result = infer(
            scenario, prefs, RulesDatabase(), ExperienceDatabase(), StubProvider(), retrieval_cfg()
        )
        assert result.plan == heuristic_allocate(scenario, prefs)
        assert result.rules == () and result.exemplars == ()
        assert not result.used_fallback  # stub answered; no fallback needed

    def test_copy_through_returns_stored_plan(self, scenario):
        # store the query scenario itself with a distinctive plan and a
        # dominant performance record so it survives the re-rank
        rules_db, exp_db = populated_dbs()
        prefs = PreferenceVector.single(Objective.TASK_PERFORMANCE)
        stored_plan = heuristic_allocate(scenario, prefs)
        exp_db.store(
            Objective.TASK_PERFORMANCE,
            scenario,
            stored_plan,
            PerformanceRecord(10_000.0, 1.0, 0.0),
            embed_scenario_sections(scenario, EMBEDDER),
        )
        result = infer(
            scenario, prefs, rules_db, exp_db, CopyExemplarProvider(), retrieval_cfg()
        )
        assert result.plan == stored_plan
        assert result.exemplars[0].scenario == scenario

    def test_provenance_lists_exactly_the_prompt_rules(self, scenario):
        rules_db, exp_db = populated_dbs()
        prefs = PreferenceVector.single(Objective.MISSION_TIME)

        class PromptCapture:
            def __init__(self):
                self.inner = StubProvider()
                self.prompts = []

            def complete(self, request):
                self.prompts.append(request.prompt)
                return self.inner.complete(request)

        capture = PromptCapture()
        result = infer(scenario, prefs, rules_db, exp_db, capture, retrieval_cfg())
        assert result.query == "Minimize the overall mission time."
        assert len(result.rules) == 5
        assert len(result.exemplars) == 2
        assert result.rule_ids == tuple(r.id for r in result.rules)

        # the provenance is exactly what went into the prompt
        prompt = capture.prompts[0]
        rules_section = extract_section(prompt, "Rules")
        assert rules_section.splitlines() == [r.text for r in result.rules]
        experience_section = extract_section(prompt, SECTION_EXPERIENCE)
        for exemplar in result.exemplars:
            assert exemplar.plan.render().splitlines()[0] in experience_section

    def test_retrieved_rules_match_independent_fusion_oracle(self, scenario):
        rules_db, exp_db = populated_dbs()
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        result = infer(scenario, prefs, rules_db, exp_db, StubProvider(), retrieval_cfg())
        want = ref_fusion_order(
            result.query, rules_db.rules(), EMBEDDER, alpha=0.5, c=60.0, k1=1.5, b=0.75
        )
        assert list(result.rule_ids) == want[:5]

    def test_prose_provider_falls_back_but_still_validates(self, scenario):
        rules_db, exp_db = populated_dbs()
        prefs = PreferenceVector.single(Objective.HUMAN_WORKLOAD)
        result = infer(scenario, prefs, rules_db, exp_db, ProseProvider(), retrieval_cfg())
        assert result.used_fallback
        assert result.plan == heuristic_allocate(scenario, prefs)

    def test_not_runnable_scenario_rejected(self):
        scenario = make_scenario(robots=(), tasks=())
        with pytest.raises(ValueError):
            infer(
                scenario,
                PreferenceVector.single(Objective.MISSION_TIME),
                RulesDatabase(),
                ExperienceDatabase(),
                StubProvider(),
                retrieval_cfg(),
            )


class RecordingProvider:
    """Keeps every request it passes on to the stub."""

    def __init__(self):
        self.inner = StubProvider()
        self.requests = []

    def complete(self, request):
        self.requests.append(request)
        return self.inner.complete(request)


class TestPromptsSent:
    # sha256 over every (temperature, prompt) the three stages send, recorded
    # from an earlier implementation of the prompt builders
    GOLDEN = "8e37173bf0ebe29aeab277c9db954211486013ed238f357563fd174ef0b4e483"

    def test_prompts_match_the_pinned_digest(self, scenario):
        provider = RecordingProvider()
        rules_db, exp_db = RulesDatabase(), ExperienceDatabase()
        generate_rules(tuple(Objective), provider, rules_db)
        cfg = replace(ka_config(k=4), refine_every=2)
        generate_experiences(cfg, provider, rules_db, exp_db, SimConfig(), EMBEDDER)
        prefs = PreferenceVector.of(TP=0.5, MT=0.25, HW=0.25)
        infer(scenario, prefs, rules_db, exp_db, provider, retrieval_cfg())
        infer(scenario, prefs, RulesDatabase(), ExperienceDatabase(), provider, retrieval_cfg())

        # 3 rule lists, 12 missions, 6 refinements (after missions 2 and 4), 2 inferences
        assert len(provider.requests) == 3 + 12 + 6 + 2
        digest = hashlib.sha256()
        for request in provider.requests:
            digest.update(f"{request.temperature}\n{request.prompt}\n".encode())
        assert digest.hexdigest() == self.GOLDEN


class TestReproducibility:
    def test_knowledge_acquisition_is_bit_reproducible(self, tmp_path):
        def build(tag: str):
            rules_path = tmp_path / f"rules_{tag}.jsonl"
            exp_path = tmp_path / f"exp_{tag}.jsonl"
            rules_db = RulesDatabase(rules_path)
            generate_rules(tuple(Objective), StubProvider(), rules_db)
            exp_db = ExperienceDatabase(exp_path)
            generate_experiences(
                ka_config(k=2), StubProvider(), rules_db, exp_db, SimConfig(), EMBEDDER
            )
            return rules_path.read_bytes(), exp_path.read_bytes()

        assert build("a") == build("b")
