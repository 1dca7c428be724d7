from __future__ import annotations

import json
import logging
import math
import random
import sys
import threading
from dataclasses import dataclass

import pytest

from rebel.core import (
    Assignment,
    ItaPlan,
    MissionScenario,
    Objective,
    PerformanceRecord,
    PreferenceVector,
    Tier,
)
from rebel.retrieval import (
    Bm25Params,
    CorpusStats,
    ExperienceDatabase,
    FusionParams,
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
    unit_vector,
)
from rebel.bench import random_scenario
from rebel.llm import heuristic_allocate
from conftest import make_scenario


class TestTokenize:
    def test_basic_sentence(self):
        assert tokenize("Assign faster robots.") == ["assign", "faster", "robots"]

    def test_empty_string(self):
        assert tokenize("") == []

    def test_ids_split_on_underscore(self):
        assert tokenize("UAV_0, UAV_0") == ["uav", "0", "uav", "0"]


def rules_from_texts(texts, objective=Objective.MISSION_TIME):
    return tuple(RuleEntry(i, objective, t) for i, t in enumerate(texts))


class TestIdf:
    def test_single_rule_corpus(self):
        stats = CorpusStats.from_rules(rules_from_texts(["robots"]))
        assert idf("robots", stats) == pytest.approx(math.log(1 / 3), abs=1e-12)

    def test_three_rule_corpus(self):
        stats = CorpusStats.from_rules(rules_from_texts(["robots fly", "humans walk", "tasks wait"]))
        assert idf("robots", stats) == pytest.approx(math.log(5 / 3), abs=1e-12)

    def test_half_corpus_term_is_exactly_zero(self):
        for k in (1, 2, 5):
            texts = ["shared term"] * k + ["other text"] * k
            stats = CorpusStats.from_rules(rules_from_texts(texts))
            assert idf("shared", stats) == 0.0

    def test_strictly_decreasing_in_document_frequency(self):
        n_rules = 10
        values = []
        for n in range(0, n_rules + 1):
            texts = ["target word here"] * n + ["filler text only"] * (n_rules - n)
            stats = CorpusStats.from_rules(rules_from_texts(texts))
            values.append(idf("target", stats))
        assert all(a > b for a, b in zip(values, values[1:]))


class TestBm25:
    def test_absent_term_contributes_zero(self):
        rules = rules_from_texts(["assign faster robots", "keep humans idle"])
        stats = CorpusStats.from_rules(rules)
        assert bm25_score(["zeppelin"], rules[0], stats) == 0.0

    def test_unit_tf_at_average_length_equals_idf(self):
        # all rules share one length, so |rule| / avg == 1 and the
        # denominator collapses to k1 + 1 exactly
        rules = rules_from_texts(["alpha beta gamma", "delta epsilon zeta", "eta theta iota"])
        stats = CorpusStats.from_rules(rules)
        params = Bm25Params(k1=1.5, b=0.75)
        assert bm25_score(["alpha"], rules[0], stats, params) == idf("alpha", stats)

    def test_toy_corpus_full_score_table(self):
        # Hand-evaluated term by term. Corpus document frequencies for the
        # query terms: n(faster) = 1, n(robots) = 2 of N = 4; token lengths
        # 7, 6, 4, 5 so avg = 5.5.
        texts = [
            "Assign faster robots to tasks farther away.",
            "Assign skilled humans to difficult tasks.",
            "Keep easy tasks autonomous.",
            "Use robots with better cameras.",
        ]
        rules = rules_from_texts(texts)
        stats = CorpusStats.from_rules(rules)
        params = Bm25Params(k1=1.5, b=0.75)
        query = tokenize("faster robots")

        idf_faster = math.log((4 - 1 + 0.5) / (1 + 0.5))
        idf_robots = math.log((4 - 2 + 0.5) / (2 + 0.5))

        def contribution(term_idf: float, length: int) -> float:
            denom = 1 + 1.5 * (1 - 0.75 + 0.75 * (length / 5.5))
            return term_idf * 1 * (1.5 + 1) / denom

        expected = [
            contribution(idf_faster, 7) + contribution(idf_robots, 7),
            0.0,
            0.0,
            contribution(idf_robots, 5),
        ]
        for rule, want in zip(rules, expected):
            assert bm25_score(query, rule, stats, params) == pytest.approx(want, abs=1e-12)

    def test_corpus_order_permutation_invariant(self):
        texts = ["faster robots win", "skilled humans analyze", "easy tasks first"]
        rules = rules_from_texts(texts)
        stats_fwd = CorpusStats.from_rules(rules)
        stats_rev = CorpusStats.from_rules(tuple(reversed(rules)))
        query = tokenize("faster humans")
        for rule in rules:
            assert bm25_score(query, rule, stats_fwd) == bm25_score(query, rule, stats_rev)

    def test_b_zero_term_factors_survive_unrelated_rule(self):
        # With b = 0 the length channel is off: an unrelated rule shifts only
        # the shared IDF table. Both query terms sit in the same minority of
        # rules, so their IDFs stay equal and positive in either corpus and
        # the old rules' relative order cannot change.
        params = Bm25Params(k1=1.2, b=0.0)
        texts = [
            "faster robots now",
            "faster faster convoy robots",
            "slow walkers",
            "lazy crawlers rest",
            "idle minds wander",
        ]
        extended = texts + ["unrelated filler words entirely"]
        rules = rules_from_texts(texts)
        rules_ext = rules_from_texts(extended)
        stats, stats_ext = CorpusStats.from_rules(rules), CorpusStats.from_rules(rules_ext)
        query = tokenize("faster robots")

        def order(stats_used, rule_set):
            scored = [(bm25_score(query, r, stats_used, params), -r.id) for r in rule_set[:5]]
            return [(-neg_id) for _, neg_id in sorted(scored, reverse=True)]

        assert order(stats, rules) == order(stats_ext, rules_ext)

        # the per-term TF factor itself is corpus independent at b = 0
        for rule in rules:
            tf = tokenize(rule.text).count("faster")
            if tf:
                factor_small = bm25_score(["faster"], rule, stats, params) / idf("faster", stats)
                factor_big = bm25_score(["faster"], rule, stats_ext, params) / idf("faster", stats_ext)
                assert factor_small == pytest.approx(factor_big, abs=1e-12)

    def test_b_positive_average_length_shift_changes_scores(self):
        # the exact contrast to the b = 0 case: with b > 0 an unrelated rule
        # moves avg length, so the per-term TF factor itself shifts
        params = Bm25Params(k1=1.2, b=0.75)
        texts = ["faster robots now", "slow walkers", "idle minds wander"]
        rules = rules_from_texts(texts)
        stats = CorpusStats.from_rules(rules)
        longer = rules_from_texts(texts + ["an unrelated but quite long filler sentence indeed"])
        stats_ext = CorpusStats.from_rules(longer)
        query = ["faster"]
        factor_small = bm25_score(query, rules[0], stats, params) / idf("faster", stats)
        factor_big = bm25_score(query, longer[0], stats_ext, params) / idf("faster", stats_ext)
        assert abs(factor_small - factor_big) > 1e-6

    def test_empty_corpus_is_error(self):
        rule = RuleEntry(0, Objective.MISSION_TIME, "anything")
        empty = CorpusStats(total=0, doc_freq={}, lengths={}, avg_length=0.0)
        with pytest.raises(ValueError):
            bm25_score(["x"], rule, empty)

    def test_tokenless_corpus_scores_zero_without_error(self):
        rules = rules_from_texts(["...", "!!!"])
        stats = CorpusStats.from_rules(rules)
        assert bm25_score(["anything"], rules[0], stats) == 0.0


class TestDense:
    def test_identical_vectors(self):
        v = unit_vector((1.0, 2.0, 2.0))
        assert dense_score(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert dense_score((1.0, 0.0), (0.0, 1.0)) == 0.0

    def test_opposite_vectors(self):
        v = unit_vector((0.6, 0.8))
        neg = tuple(-x for x in v)
        assert dense_score(v, neg) == pytest.approx(-1.0)

    def test_dimension_mismatch_is_error(self):
        with pytest.raises(ValueError):
            dense_score((1.0, 0.0), (1.0, 0.0, 0.0))

    def test_symmetry(self):
        rng = random.Random(3)
        for _ in range(20):
            a = tuple(rng.uniform(-1, 1) for _ in range(8))
            b = tuple(rng.uniform(-1, 1) for _ in range(8))
            assert dense_score(a, b) == pytest.approx(dense_score(b, a), abs=1e-12)


class TestHashedEmbedder:
    def test_deterministic_and_unit_norm(self):
        embedder = HashedEmbedder(dim=64)
        a = embedder.embed("Assign faster robots")
        b = embedder.embed("Assign faster robots")
        assert a == b
        assert math.sqrt(sum(x * x for x in a)) == pytest.approx(1.0, abs=1e-9)

    def test_empty_text_maps_to_first_basis_vector(self):
        embedder = HashedEmbedder(dim=16)
        v = embedder.embed("")
        assert v[0] == 1.0 and all(x == 0.0 for x in v[1:])


class FakeEmbedder:
    """Test embedder with hand-assigned directions per exact text."""

    def __init__(self, table: dict[str, tuple[float, ...]], default_dim: int = 4):
        self.table = table
        self.default_dim = default_dim

    def embed(self, text: str) -> tuple[float, ...]:
        if text in self.table:
            return unit_vector(self.table[text])
        v = [0.0] * self.default_dim
        v[-1] = 1.0
        return tuple(v)


class TestEnsembleRetrieve:
    def test_double_rank_one_gets_maximal_fused_score(self):
        db = RulesDatabase()
        db.store(Objective.MISSION_TIME, "assign faster robots to far tasks")
        db.store(Objective.MISSION_TIME, "humans should rest")
        top = ensemble_retrieve("faster robots", db, k=1)
        assert top[0].text.startswith("assign faster")
        # winner holds rank 1 in both lists: fused = 0.5/61 + 0.5/61
        fusion = FusionParams()
        assert fusion.alpha / (fusion.c + 1) * 2 == pytest.approx(1 / 61, abs=1e-9)

    def test_mirrored_ranks_tie_breaks_to_lower_id(self):
        db = RulesDatabase()
        db.store(Objective.MISSION_TIME, "faster robots")  # id 0: sparse winner
        db.store(Objective.MISSION_TIME, "speedy platforms")  # id 1: dense winner
        embedder = FakeEmbedder(
            {
                "faster robots": (1.0, 0.0, 0.0, 0.0),
                "speedy platforms": (0.0, 1.0, 0.0, 0.0),
                "query text": (0.1, 0.9, 0.0, 0.0),
            }
        )
        ranked = ensemble_retrieve("query text", db, k=2, embedder=embedder)
        # query tokens miss rule 1 entirely, so sparse ranks are (1, 2);
        # the fake embedding points at rule 1, so dense ranks are (2, 1)
        assert [r.id for r in ranked] == [0, 1]

    def test_matches_brute_force_fusion_oracle(self):
        texts = [
            "Assign faster robots to tasks farther away.",
            "Assign skilled humans to difficult tasks.",
            "Keep tasks in robot autonomous mode whenever possible.",
            "Use robots with high camera quality for image capture.",
            "Minimize the number of analyses queued to any single human.",
        ]
        db = RulesDatabase()
        for text in texts:
            db.store(Objective.MISSION_TIME, text)
        embedder = HashedEmbedder(dim=64)
        query = "Minimize the overall mission time."
        got = [r.id for r in ensemble_retrieve("Minimize the overall mission time.", db, k=5, embedder=embedder)]

        # independent reference: recompute both rankings and the fusion from
        # first principles
        rules = db.rules()
        k1, b, alpha, c = 1.5, 0.75, 0.5, 60.0
        docs = {r.id: tokenize(r.text) for r in rules}
        n_docs = len(rules)
        avg_len = sum(len(t) for t in docs.values()) / n_docs

        def ref_bm25(rule_id):
            score = 0.0
            for term in tokenize(query):
                tf = docs[rule_id].count(term)
                if not tf:
                    continue
                n_t = sum(1 for toks in docs.values() if term in toks)
                term_idf = math.log((n_docs - n_t + 0.5) / (n_t + 0.5))
                score += term_idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(docs[rule_id]) / avg_len))
            return score

        def ref_cosine(rule_id):
            qv = embedder.embed(query)
            dv = embedder.embed(next(r.text for r in rules if r.id == rule_id))
            return sum(a * b2 for a, b2 in zip(qv, dv))

        sparse_order = sorted(docs, key=lambda rid: (-ref_bm25(rid), rid))
        dense_order = sorted(docs, key=lambda rid: (-ref_cosine(rid), rid))
        sparse_rank = {rid: i + 1 for i, rid in enumerate(sparse_order)}
        dense_rank = {rid: i + 1 for i, rid in enumerate(dense_order)}
        fused = {
            rid: alpha / (c + sparse_rank[rid]) + (1 - alpha) / (c + dense_rank[rid])
            for rid in docs
        }
        want = sorted(docs, key=lambda rid: (-fused[rid], rid))
        assert got == want

    def test_fused_scores_bounded_by_double_rank_one(self):
        # alpha/(c+r_s) + (1-alpha)/(c+r_d) is positive and at most 1/(c+1)
        fusion = FusionParams()
        bound = 1.0 / (fusion.c + 1.0)
        for rank_s in range(1, 8):
            for rank_d in range(1, 8):
                fused = fusion.alpha / (fusion.c + rank_s) + (1 - fusion.alpha) / (
                    fusion.c + rank_d
                )
                assert 0.0 < fused <= bound + 1e-15

    def test_retrieval_is_deterministic(self):
        db = RulesDatabase()
        for text in ("faster robots", "skilled humans", "easy tasks first"):
            db.store(Objective.MISSION_TIME, text)
        first = [r.id for r in ensemble_retrieve("faster tasks", db, k=3)]
        second = [r.id for r in ensemble_retrieve("faster tasks", db, k=3)]
        assert first == second

    def test_empty_db_is_error(self):
        with pytest.raises(ValueError):
            ensemble_retrieve("anything", RulesDatabase(), k=1)


class CountingEmbedder:
    """HashedEmbedder that records every text it embeds."""

    def __init__(self, dim: int = 64):
        self.inner = HashedEmbedder(dim=dim)
        self.texts: list[str] = []

    def embed(self, text: str) -> tuple[float, ...]:
        self.texts.append(text)
        return self.inner.embed(text)


class TestRuleEmbeddingCache:
    TEXTS = (
        "Assign faster robots to tasks farther away.",
        "Assign skilled humans to difficult tasks.",
        "Keep tasks in robot autonomous mode whenever possible.",
        "Use robots with high camera quality for image capture.",
    )

    def rules_db(self):
        db = RulesDatabase()
        for text in self.TEXTS:
            db.store(Objective.MISSION_TIME, text)
        return db

    def test_second_retrieval_embeds_only_the_query(self):
        db, embedder = self.rules_db(), CountingEmbedder()
        first = ensemble_retrieve("faster robots", db, k=3, embedder=embedder)
        assert sorted(embedder.texts) == sorted(self.TEXTS + ("faster robots",))
        embedder.texts.clear()
        second = ensemble_retrieve("faster robots", db, k=3, embedder=embedder)
        assert embedder.texts == ["faster robots"]
        assert second == first

    def test_store_and_replacement_each_embed_one_new_rule(self):
        db, embedder = self.rules_db(), CountingEmbedder()
        ensemble_retrieve("query", db, k=1, embedder=embedder)
        db.store(Objective.HUMAN_WORKLOAD, "Spread analyses across humans.")
        embedder.texts.clear()
        ensemble_retrieve("query", db, k=1, embedder=embedder)
        assert sorted(embedder.texts) == ["Spread analyses across humans.", "query"]
        db.replace_objective(Objective.HUMAN_WORKLOAD, ["Rest humans between analyses."])
        embedder.texts.clear()
        ensemble_retrieve("query", db, k=1, embedder=embedder)
        assert sorted(embedder.texts) == ["Rest humans between analyses.", "query"]

    def test_each_embedder_instance_embeds_the_rules_itself(self):
        db, a, b = self.rules_db(), CountingEmbedder(), CountingEmbedder()
        ensemble_retrieve("query", db, k=1, embedder=a)
        ensemble_retrieve("query", db, k=1, embedder=b)
        assert len(a.texts) == len(b.texts) == len(self.TEXTS) + 1

    def test_rules_are_embedded_outside_the_lock(self):
        db, held = self.rules_db(), []

        @dataclass
        class LockProbe:  # not frozen, so unhashable; the cache compares with ==
            def embed(self, text: str) -> tuple[float, ...]:
                held.append(db._lock.locked())
                return HashedEmbedder(dim=64).embed(text)

        ensemble_retrieve("query", db, k=1, embedder=LockProbe())
        assert len(held) == len(self.TEXTS) + 1 and not any(held)

    def test_cached_rankings_match_fresh_store(self):
        db, embedder = self.rules_db(), HashedEmbedder(dim=64)
        for query in ("faster robots", "skilled humans", "camera quality", "nothing shared"):
            cached = ensemble_retrieve(query, db, k=len(db), embedder=embedder)
            fresh = ensemble_retrieve(query, self.rules_db(), k=len(db), embedder=embedder)
            assert [r.id for r in cached] == [r.id for r in fresh]


class TestScenarioSectionEmbedding:
    def test_self_similarity_is_one(self):
        embedder = HashedEmbedder(dim=64)
        scenario = make_scenario()
        h, r, t = embed_scenario_sections(scenario, embedder)
        assert dense_score(h, h) == pytest.approx(1.0)
        assert dense_score(r, r) == pytest.approx(1.0)
        assert dense_score(t, t) == pytest.approx(1.0)

    def test_identical_human_sections_embed_identically(self):
        embedder = HashedEmbedder(dim=64)
        a = make_scenario()
        b = make_scenario(robots=(("UGV_5", 9.0, Tier.HIGH),))
        ha, _, _ = embed_scenario_sections(a, embedder)
        hb, _, _ = embed_scenario_sections(b, embedder)
        assert ha == hb

    def test_member_order_does_not_change_embeddings(self):
        embedder = HashedEmbedder(dim=64)
        base = make_scenario()
        shuffled = MissionScenario(
            humans=tuple(reversed(base.humans)),
            robots=tuple(reversed(base.robots)),
            tasks=tuple(reversed(base.tasks)),
            arena_side=base.arena_side,
        )
        assert embed_scenario_sections(base, embedder) == embed_scenario_sections(
            shuffled, embedder
        )


def store_mission(db, objective, scenario, performance, embedder, fallback=False):
    plan = heuristic_allocate(scenario, PreferenceVector.single(objective))
    return db.store(
        objective,
        scenario,
        plan,
        performance,
        embed_scenario_sections(scenario, embedder),
        fallback=fallback,
    )


def toy_experience_db(embedder):
    """Six stored missions of varying similarity to the base scenario."""
    db = ExperienceDatabase()
    base = make_scenario()
    variants = [
        base,
        make_scenario(humans=(("H_0", Tier.MED, Tier.MED),)),
        make_scenario(robots=(("UGV_9", 4.5, Tier.LOW),)),
        make_scenario(tasks=(("T_0", (10.0, 20.0), Tier.MED),)),
        make_scenario(
            humans=(("H_7", Tier.HIGH, Tier.HIGH),),
            robots=(("UAV_3", 11.0, Tier.HIGH),),
            tasks=(("T_5", (500.0, 600.0), Tier.LOW),),
        ),
        make_scenario(tasks=(("T_0", (900.0, 500.0), Tier.HIGH),)),
    ]
    rng = random.Random(4)
    for index, variant in enumerate(variants):
        performance = PerformanceRecord(
            rng.uniform(0, 50), rng.uniform(100, 900), rng.uniform(0, 0.8)
        )
        store_mission(db, Objective.MISSION_TIME, variant, performance, embedder)
    return db, base


class TestRetrieveExperiences:
    def test_identical_scenario_scores_maximum_similarity(self):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        h, r, t = embed_scenario_sections(base, embedder)
        record = db.records()[0]
        total = (
            dense_score(h, record.emb_humans)
            + dense_score(r, record.emb_robots)
            + dense_score(t, record.emb_tasks)
        )
        assert total == pytest.approx(3.0, abs=1e-9)
        top = retrieve_experiences(
            base, PreferenceVector.single(Objective.MISSION_TIME), db, k=3, m=3, embedder=embedder
        )
        assert record.id in [e.id for e in top]

    def test_k_equals_db_m_one_returns_best_aggregate(self):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        best = retrieve_experiences(base, prefs, db, k=len(db), m=1, embedder=embedder)
        fastest = min(db.records(), key=lambda r: (r.performance.mission_seconds, r.id))
        assert best[0].id == fastest.id

    def test_matches_exhaustive_oracle(self):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        prefs = PreferenceVector.of(TP=0.5, MT=0.25, HW=0.25)
        k, m = 4, 3
        got = [e.id for e in retrieve_experiences(base, prefs, db, k=k, m=m, embedder=embedder)]

        # independent reference: exhaustive similarity sums, then a re-rank by
        # a from-scratch weighted min-max score over the k survivors
        h, r, t = embed_scenario_sections(base, embedder)

        def cos(a, b):
            return sum(x * y for x, y in zip(a, b)) / (
                math.sqrt(sum(x * x for x in a)) * math.sqrt(sum(y * y for y in b))
            )

        sims = {
            rec.id: cos(h, rec.emb_humans) + cos(r, rec.emb_robots) + cos(t, rec.emb_tasks)
            for rec in db.records()
        }
        survivors = sorted(db.records(), key=lambda rec: (-sims[rec.id], rec.id))[:k]

        metrics = {
            "TP": [rec.performance.accuracy_points for rec in survivors],
            "MT": [rec.performance.mission_seconds for rec in survivors],
            "HW": [rec.performance.human_utilization for rec in survivors],
        }

        def ref_norm(value, values, maximize):
            lo, hi = min(values), max(values)
            if hi - lo < 1e-12:
                return 0.5
            frac = (value - lo) / (hi - lo)
            return frac if maximize else 1 - frac

        def ref_score(rec):
            return (
                0.5 * ref_norm(rec.performance.accuracy_points, metrics["TP"], True)
                + 0.25 * ref_norm(rec.performance.mission_seconds, metrics["MT"], False)
                + 0.25 * ref_norm(rec.performance.human_utilization, metrics["HW"], False)
            )

        want = [rec.id for rec in sorted(survivors, key=lambda rec: (-ref_score(rec), rec.id))][:m]
        assert got == want

    def test_full_retrieval_is_permutation_of_db(self):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        prefs = PreferenceVector.single(Objective.HUMAN_WORKLOAD)
        everything = retrieve_experiences(
            base, prefs, db, k=len(db), m=len(db), embedder=embedder
        )
        assert sorted(e.id for e in everything) == [r.id for r in db.records()]

    def test_m_greater_than_k_rejected(self):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        with pytest.raises(ValueError):
            retrieve_experiences(
                base, PreferenceVector.single(Objective.MISSION_TIME), db, k=1, m=2,
                embedder=embedder,
            )

    def test_empty_db_is_error(self):
        with pytest.raises(ValueError):
            retrieve_experiences(
                make_scenario(),
                PreferenceVector.single(Objective.MISSION_TIME),
                ExperienceDatabase(),
                k=1,
                m=1,
            )


def _task_variant(index: int) -> MissionScenario:
    return make_scenario(tasks=(("T_0", (40.0 * index + 10.0, 20.0), Tier.LOW),))


def _ids(records) -> list[int]:
    return [rec.id for rec in records]


class TestSectionMatrix:
    """`retrieve_experiences` scores against a section matrix cached on the
    store; these pin what the per-record cosine loop guaranteed."""

    @pytest.mark.parametrize("seed", range(6, 14))
    def test_duplicate_rows_tie_exactly(self, seed):
        embedder = HashedEmbedder(dim=64)
        db = ExperienceDatabase()
        duplicate = random_scenario(2, 3, 4, seed=seed)
        # every residue mod 4, and the last rows of a 14-row matrix, where
        # BLAS gemv switches kernels and can score identical rows differently
        positions = [0, 2, 3, 5, 6, 9, 10, 12, 13]
        rng = random.Random(9)
        for position in range(14):
            if position in positions:
                scenario, performance = duplicate, PerformanceRecord(10, 300, 0.2)
            else:
                scenario = _task_variant(position)
                performance = PerformanceRecord(rng.uniform(0, 50), rng.uniform(100, 900), rng.uniform(0, 0.8))
            store_mission(db, Objective.MISSION_TIME, scenario, performance, embedder)
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        n = len(db)
        everything = _ids(retrieve_experiences(duplicate, prefs, db, k=n, m=n, embedder=embedder))
        assert [i for i in everything if i in positions] == positions
        # wherever the similarity cut falls inside the tied duplicates, the
        # lowest ids survive
        for k in range(1, len(positions) + 1):
            top = retrieve_experiences(duplicate, prefs, db, k=k, m=k, embedder=embedder)
            assert sorted(_ids(top)) == positions[:k]

    @pytest.mark.parametrize("factors", [(3.0, 3.0, 3.0), (3.0, 1.0, 0.25)])
    def test_scaled_stored_vectors_rank_alike(self, factors):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        scaled = ExperienceDatabase()
        for rec in db.records():
            sections = (rec.emb_humans, rec.emb_robots, rec.emb_tasks)
            # uneven factors rotate per record, so only a cosine ranks alike
            turn = rec.id % 3
            rotated = factors[turn:] + factors[:turn]
            scaled.store(
                rec.objective, rec.scenario, rec.plan, rec.performance,
                tuple(tuple(f * x for x in vec) for f, vec in zip(rotated, sections)),
            )
        prefs = PreferenceVector.of(TP=0.5, MT=0.25, HW=0.25)
        for k in range(1, len(db) + 1):
            want = _ids(retrieve_experiences(base, prefs, db, k=k, m=k, embedder=embedder))
            assert _ids(retrieve_experiences(base, prefs, scaled, k=k, m=k, embedder=embedder)) == want

    def test_zero_stored_section_is_error(self):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        h, r, t = embed_scenario_sections(base, embedder)
        plan = heuristic_allocate(base, PreferenceVector.single(Objective.MISSION_TIME))
        db.store(Objective.MISSION_TIME, base, plan, PerformanceRecord(1, 2, 0.3), (h, (0.0,) * len(r), t))
        with pytest.raises(ValueError, match="zero"):
            retrieve_experiences(
                base, PreferenceVector.single(Objective.MISSION_TIME), db, k=1, m=1, embedder=embedder
            )

    def test_query_dimension_mismatch_is_error(self):
        db, base = toy_experience_db(HashedEmbedder(dim=64))
        with pytest.raises(ValueError, match="dimension"):
            retrieve_experiences(
                base, PreferenceVector.single(Objective.MISSION_TIME), db, k=1, m=1,
                embedder=HashedEmbedder(dim=32),
            )

    def test_store_after_retrieval_is_retrievable(self):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        retrieve_experiences(base, prefs, db, k=1, m=1, embedder=embedder)
        novel = make_scenario(
            humans=(("H_4", Tier.LOW, Tier.LOW),),
            robots=(("UAV_8", 7.5, Tier.MED),),
            tasks=(("T_3", (1500.0, 1500.0), Tier.MED),),
        )
        record = store_mission(db, Objective.MISSION_TIME, novel, PerformanceRecord(1, 2, 0.3), embedder)
        assert _ids(retrieve_experiences(novel, prefs, db, k=1, m=1, embedder=embedder)) == [record.id]

    def test_reloaded_store_retrieves_alike(self, tmp_path):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        persisted = ExperienceDatabase(tmp_path / "exp.jsonl")
        for rec in db.records():
            persisted.store(
                rec.objective, rec.scenario, rec.plan, rec.performance,
                (rec.emb_humans, rec.emb_robots, rec.emb_tasks),
            )
        reloaded = ExperienceDatabase(tmp_path / "exp.jsonl")
        for prefs in (PreferenceVector.single(Objective.HUMAN_WORKLOAD), PreferenceVector.of(TP=1, MT=1, HW=1)):
            for k in range(1, len(db) + 1):
                want = _ids(retrieve_experiences(base, prefs, db, k=k, m=k, embedder=embedder))
                assert _ids(retrieve_experiences(base, prefs, reloaded, k=k, m=k, embedder=embedder)) == want

    def test_store_while_retrieving_returns_whole_snapshots(self):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        pending = []
        for index in range(40):
            scenario = _task_variant(index)
            pending.append((scenario, heuristic_allocate(scenario, prefs), embed_scenario_sections(scenario, embedder)))
        writing_done = threading.Event()
        errors, bad = [], []

        def writer():
            try:
                for scenario, plan, sections in pending:
                    db.store(Objective.MISSION_TIME, scenario, plan, PerformanceRecord(5, 50, 0.5), sections)
            except Exception as exc:  # reported by the assertions below
                errors.append(exc)
            finally:
                writing_done.set()

        def reader():
            try:
                while not writing_done.is_set():
                    before = len(db)
                    got = sorted(_ids(retrieve_experiences(base, prefs, db, k=10**6, m=10**6, embedder=embedder)))
                    # ids are dense from 0, so a whole snapshot is exactly range(its size)
                    if got != list(range(len(got))) or not before <= len(got) <= len(db):
                        bad.append(got)
            except Exception as exc:  # reported by the assertions below
                errors.append(exc)

        threads = [threading.Thread(target=writer)] + [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and bad == []
        assert len(db) == 6 + len(pending)


class TestRulesDatabasePersistence:
    def test_store_then_reload_is_identical(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        db = RulesDatabase(path)
        db.store(Objective.MISSION_TIME, "Assign faster robots to tasks farther away.")
        db.store(Objective.TASK_PERFORMANCE, "Assign skilled humans to difficult tasks.")
        reloaded = RulesDatabase(path)
        assert reloaded.rules() == db.rules()

    def test_ids_strictly_increase(self, tmp_path):
        db = RulesDatabase(tmp_path / "rules.jsonl")
        first = db.store(Objective.MISSION_TIME, "one")
        second = db.store(Objective.MISSION_TIME, "two")
        assert second.id > first.id

    def test_objective_filter(self):
        db = RulesDatabase()
        entry = db.store(Objective.MISSION_TIME, "time rule")
        db.store(Objective.HUMAN_WORKLOAD, "workload rule")
        assert db.for_objective(Objective.MISSION_TIME) == (entry,)

    def test_replace_objective_retires_old_generation(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        db = RulesDatabase(path)
        db.store(Objective.MISSION_TIME, "old rule a")
        db.store(Objective.MISSION_TIME, "old rule b")
        keep = db.store(Objective.HUMAN_WORKLOAD, "untouched")
        db.replace_objective(Objective.MISSION_TIME, ["new rule"])
        live = db.rules()
        assert [r.text for r in db.for_objective(Objective.MISSION_TIME)] == ["new rule"]
        assert keep in live
        reloaded = RulesDatabase(path)
        assert reloaded.rules() == live

    def test_replace_with_same_texts_is_noop(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        db = RulesDatabase(path)
        db.store(Objective.MISSION_TIME, "stable rule")
        before = db.rules()
        db.replace_objective(Objective.MISSION_TIME, ["stable rule"])
        assert db.rules() == before
        assert RulesDatabase(path).rules() == before

    def test_racing_identical_replacements_leave_one_generation(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        db = RulesDatabase(path)
        db.store(Objective.MISSION_TIME, "old rule")
        # each replacement pauses after reading the live rules until the other
        # has read them too; holding the lock across compare and write makes
        # the second wait time out and then see the first one's generation
        both_read = threading.Barrier(2, timeout=0.5)
        read = db.for_objective

        def read_then_wait(objective):
            current = read(objective)
            try:
                both_read.wait()
            except threading.BrokenBarrierError:
                pass
            return current

        db.for_objective = read_then_wait
        texts = ["new rule a", "new rule b"]
        errors = []

        def replace():
            try:
                db.replace_objective(Objective.MISSION_TIME, texts)
            except Exception as exc:  # reported by the assertions below
                errors.append(exc)

        threads = [threading.Thread(target=replace) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        del db.for_objective
        assert [r.text for r in db.for_objective(Objective.MISSION_TIME)] == texts
        assert RulesDatabase(path).rules() == db.rules()


class TestExperienceDatabasePersistence:
    def test_round_trip_bit_identical_including_embeddings(self, tmp_path):
        path = tmp_path / "exp.jsonl"
        embedder = HashedEmbedder(dim=32)
        db = ExperienceDatabase(path)
        scenario = make_scenario()
        record = store_mission(
            db,
            Objective.TASK_PERFORMANCE,
            scenario,
            PerformanceRecord(25.0, 369.7444822419306, 0.0797986306),
            embedder,
            fallback=True,
        )
        reloaded = ExperienceDatabase(path)
        assert reloaded.records() == db.records()
        loaded = reloaded.records()[0]
        assert loaded.emb_humans == record.emb_humans
        assert loaded.fallback is True
        assert loaded.scenario == scenario

    def test_objective_filter_finds_entry(self):
        embedder = HashedEmbedder(dim=16)
        db = ExperienceDatabase()
        store_mission(
            db, Objective.MISSION_TIME, make_scenario(), PerformanceRecord(5, 100, 0.1), embedder
        )
        assert len(db.for_objective(Objective.MISSION_TIME)) == 1
        assert len(db.for_objective(Objective.HUMAN_WORKLOAD)) == 0

    def test_ids_increase(self, tmp_path):
        embedder = HashedEmbedder(dim=16)
        db = ExperienceDatabase(tmp_path / "exp.jsonl")
        a = store_mission(
            db, Objective.MISSION_TIME, make_scenario(), PerformanceRecord(5, 100, 0.1), embedder
        )
        b = store_mission(
            db,
            Objective.MISSION_TIME,
            make_scenario(tasks=(("T_0", (1.0, 2.0), Tier.LOW),)),
            PerformanceRecord(10, 50, 0.0),
            embedder,
        )
        assert b.id > a.id


def _write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


class TestStoreOrderAtLoad:
    def test_rules_with_retire_then_new_rules_reload_in_memory_order(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        db = RulesDatabase(path)
        db.store(Objective.MISSION_TIME, "time a")
        db.store(Objective.HUMAN_WORKLOAD, "workload a")
        db.store(Objective.MISSION_TIME, "time b")
        db.replace_objective(Objective.MISSION_TIME, ["time c", "time d"])
        db.store(Objective.TASK_PERFORMANCE, "performance a")
        db.replace_objective(Objective.HUMAN_WORKLOAD, ["workload b"])
        reloaded = RulesDatabase(path)
        assert reloaded.rules() == db.rules()
        assert [r.text for r in reloaded.rules()] == [
            "time c", "time d", "performance a", "workload b"
        ]
        assert len(reloaded) == 4
        assert reloaded.store(Objective.MISSION_TIME, "time e").id == 7

    def test_rules_log_out_of_id_order_loads_sorted(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        _write_lines(path, [
            json.dumps({"kind": "rule", "id": 4, "objective": "MT", "text": "four"}),
            json.dumps({"kind": "rule", "id": 1, "objective": "MT", "text": "one"}),
            json.dumps({"kind": "retire", "objective": "MT", "ids": [1]}),
            json.dumps({"kind": "rule", "id": 2, "objective": "MT", "text": "two"}),
        ])
        db = RulesDatabase(path)
        assert [r.id for r in db.rules()] == [2, 4]
        assert [r.id for r in db.for_objective(Objective.MISSION_TIME)] == [2, 4]

    def test_experience_log_out_of_id_order_loads_sorted(self, tmp_path):
        path = tmp_path / "exp.jsonl"
        db = ExperienceDatabase(path)
        embedder = HashedEmbedder(dim=16)
        for index in range(3):
            scenario = make_scenario(tasks=(("T_0", (10.0 * index, 5.0), Tier.LOW),))
            performance = PerformanceRecord(5, 100, 0.1)
            store_mission(db, Objective.MISSION_TIME, scenario, performance, embedder)
        _write_lines(path, reversed(path.read_text(encoding="utf-8").splitlines()))
        reloaded = ExperienceDatabase(path)
        assert [r.id for r in reloaded.records()] == [0, 1, 2]
        assert reloaded.records() == db.records()


class TestExperienceContains:
    """`contains` matches on the whole (objective, scenario, plan) key, both for
    keys added by `store` and for keys rebuilt when the log is loaded."""

    @pytest.mark.parametrize("reload", [False, True], ids=["in_memory", "reloaded"])
    def test_only_the_full_key_matches(self, tmp_path, shared_plan, reload):
        path = tmp_path / "exp.jsonl"
        db = ExperienceDatabase(path)
        scenario = make_scenario()
        other = make_scenario(
            tasks=(("T_0", (901.0, 500.0), Tier.HIGH), ("T_1", (200.0, 700.0), Tier.LOW))
        )
        embedder = HashedEmbedder(dim=16)
        performance = PerformanceRecord(5, 100, 0.1)
        db.store(Objective.MISSION_TIME, scenario, shared_plan, performance,
                 embed_scenario_sections(scenario, embedder))
        store_mission(db, Objective.HUMAN_WORKLOAD, other, performance, embedder)
        if reload:
            db = ExperienceDatabase(path)
        for record in db.records():
            assert db.contains(record.objective, record.scenario, record.plan)
        autonomous = ItaPlan(
            {"T_0": Assignment("UAV_0", None), "T_1": Assignment("UGV_0", "H_0")}
        )
        assert not db.contains(Objective.TASK_PERFORMANCE, scenario, shared_plan)
        assert not db.contains(Objective.MISSION_TIME, scenario, autonomous)
        assert not db.contains(Objective.MISSION_TIME, other, shared_plan)


def _store_one(db, objective):
    performance = PerformanceRecord(5, 100, 0.1)
    return store_mission(db, objective, make_scenario(), performance, HashedEmbedder(dim=16))


def _two_record_store(path):
    db = ExperienceDatabase(path)
    _store_one(db, Objective.MISSION_TIME)
    _store_one(db, Objective.HUMAN_WORKLOAD)
    return db


class TestTornLogTail:
    """A crash mid-append leaves a final line with no newline; loading skips
    it with a warning and the next append writes a clean line after it."""

    def test_torn_experience_tail_is_skipped_then_overwritten(self, tmp_path, caplog):
        path = tmp_path / "exp.jsonl"
        _two_record_store(path)
        with open(path, "ab") as handle:
            handle.write(b'{"emb_humans": [0.25, 0.')
        torn = path.read_bytes()
        with caplog.at_level(logging.WARNING, logger="rebel.retrieval"):
            db = ExperienceDatabase(path)
        assert len(db) == 2
        assert "torn final line" in caplog.text
        assert path.read_bytes() == torn  # loading alone never rewrites
        _store_one(db, Objective.TASK_PERFORMANCE)
        reloaded = ExperienceDatabase(path)
        assert len(reloaded) == 3
        assert reloaded.records() == db.records()

    def test_torn_rules_tail_is_skipped_then_overwritten(self, tmp_path, caplog):
        path = tmp_path / "rules.jsonl"
        RulesDatabase(path).store(Objective.MISSION_TIME, "kept rule")
        with open(path, "ab") as handle:
            handle.write(b'{"id": 1, "kind": "ru')
        with caplog.at_level(logging.WARNING, logger="rebel.retrieval"):
            db = RulesDatabase(path)
        assert [r.text for r in db.rules()] == ["kept rule"]
        assert "torn final line" in caplog.text
        db.store(Objective.MISSION_TIME, "next rule")
        assert [r.text for r in RulesDatabase(path).rules()] == ["kept rule", "next rule"]

    def test_complete_final_record_without_newline_is_kept(self, tmp_path):
        path = tmp_path / "exp.jsonl"
        _two_record_store(path)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        db = ExperienceDatabase(path)
        assert len(db) == 2
        _store_one(db, Objective.TASK_PERFORMANCE)
        assert len(ExperienceDatabase(path)) == 3

    def test_corrupt_middle_line_raises(self, tmp_path):
        path = tmp_path / "exp.jsonl"
        _two_record_store(path)
        first, second = path.read_text(encoding="utf-8").splitlines()
        _write_lines(path, [first, first[: len(first) // 2], second])
        with pytest.raises(ValueError):
            ExperienceDatabase(path)
