from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import itertools
import json
import logging
import math
import mmap
import os
import random
import re
import struct
import sys
import tempfile
import threading
import tracemalloc
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
    CorpusStats,
    CorruptLogError,
    ExperienceDatabase,
    HashedEmbedder,
    RRF_ALPHA,
    RRF_C,
    RuleEntry,
    RulesDatabase,
    bm25_score,
    cosines,
    dense_score,
    embed_all,
    embed_scenario_sections,
    ensemble_retrieve,
    idf,
    retrieve_experiences,
    tokenize,
    unit_rows,
)
from rebel import retrieval
from rebel.bench import random_scenario
from rebel.llm import STUB_RULES, StubProvider, heuristic_allocate
from rebel.pipeline import RetrievalConfig, infer
from rebel.prompt import objectives_text
from conftest import DEEPLY_NESTED, make_scenario
from oracles import (
    ref_dense_score,
    ref_experience_order,
    ref_fusion_order,
    ref_hashed_embed,
    ref_section_matrix,
    ref_similarities,
    ref_top_k,
    ref_unit_vector,
)


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
        assert bm25_score(["alpha"], rules[0], stats) == idf("alpha", stats)

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
            assert bm25_score(query, rule, stats) == pytest.approx(want, abs=1e-12)

    def test_corpus_order_permutation_invariant(self):
        texts = ["faster robots win", "skilled humans analyze", "easy tasks first"]
        rules = rules_from_texts(texts)
        stats_fwd = CorpusStats.from_rules(rules)
        stats_rev = CorpusStats.from_rules(tuple(reversed(rules)))
        query = tokenize("faster humans")
        for rule in rules:
            assert bm25_score(query, rule, stats_fwd) == bm25_score(query, rule, stats_rev)

    def test_b_positive_average_length_shift_changes_scores(self):
        # with b > 0 an unrelated rule moves avg length, so the per-term TF
        # factor itself shifts
        texts = ["faster robots now", "slow walkers", "idle minds wander"]
        rules = rules_from_texts(texts)
        stats = CorpusStats.from_rules(rules)
        longer = rules_from_texts(texts + ["an unrelated but quite long filler sentence indeed"])
        stats_ext = CorpusStats.from_rules(longer)
        query = ["faster"]
        factor_small = bm25_score(query, rules[0], stats) / idf("faster", stats)
        factor_big = bm25_score(query, longer[0], stats_ext) / idf("faster", stats_ext)
        assert abs(factor_small - factor_big) > 1e-6

    def test_empty_corpus_is_error(self):
        rule = RuleEntry(0, Objective.MISSION_TIME, "anything")
        empty = CorpusStats(total=0, doc_freq={}, avg_length=0.0)
        with pytest.raises(ValueError):
            bm25_score(["x"], rule, empty)

    def test_tokenless_corpus_scores_zero_without_error(self):
        rules = rules_from_texts(["...", "!!!"])
        stats = CorpusStats.from_rules(rules)
        assert bm25_score(["anything"], rules[0], stats) == 0.0


class TestDense:
    def test_identical_vectors(self):
        v = ref_unit_vector((1.0, 2.0, 2.0))
        assert dense_score(v, v) == pytest.approx(1.0)

    def test_orthogonal_vectors(self):
        assert dense_score((1.0, 0.0), (0.0, 1.0)) == 0.0

    def test_opposite_vectors(self):
        v = ref_unit_vector((0.6, 0.8))
        neg = tuple(-x for x in v)
        assert dense_score(v, neg) == pytest.approx(-1.0)

    def test_dimension_mismatch_is_error(self):
        with pytest.raises(ValueError):
            dense_score((1.0, 0.0), (1.0, 0.0, 0.0))

    @pytest.mark.parametrize(
        "vec, norm",
        [((0.0, 0.0), "0.0"), ((math.nan, 1.0), "nan"), ((1.0, math.inf), "inf"), ((-math.inf, 0.0), "inf"),
         ((1e200, 1e200), "inf")],
        ids=["zero", "nan", "inf", "minus-inf", "overflow"],
    )
    def test_unit_rows_refuses_a_zero_or_non_finite_norm(self, vec, norm):
        with pytest.raises(ValueError, match=f"^cannot normalize a vector of norm {norm}$"):
            unit_rows(np.array([vec]))

    @pytest.mark.parametrize(
        "vec, norm",
        [((0.0, 0.0), "0.0"), ((math.nan, 1.0), "nan"), ((1.0, math.inf), "inf"), ((1e200, 1e200), "inf")],
        ids=["zero", "nan", "inf", "overflow"],
    )
    def test_dense_score_refuses_a_zero_or_non_finite_norm_on_either_side(self, vec, norm):
        for q, d in ((vec, (0.6, 0.8)), ((0.6, 0.8), vec)):
            with pytest.raises(ValueError, match=f"^cannot score a vector of norm {norm}$"):
                dense_score(q, d)

    def test_sums_add_left_to_right_on_every_interpreter(self):
        # built-in `sum` compensates float rounding from Python 3.12 on: it
        # would give a dot product of 1.0 here, and 0.3 for the squares below
        assert dense_score((1e16, 1.0, -1e16), (1.0, 1.0, 1.0)) == 0.0
        squares = 0.5 * 0.5 + 0.2 * 0.2 + 0.1 * 0.1
        assert squares == 0.30000000000000004
        want = [v / math.sqrt(squares) for v in (0.5, 0.2, 0.1)]
        assert unit_rows(np.array([[0.5, 0.2, 0.1]]))[0].tolist() == want

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

    @pytest.mark.parametrize("dim", [0, -1, -256])
    def test_a_dimension_below_one_is_rejected_at_construction(self, dim):
        with pytest.raises(ValueError, match=f"dim must be >= 1, got {dim}"):
            HashedEmbedder(dim=dim)

    def test_dimension_one_embeds_every_text_to_the_one_basis_vector(self):
        assert HashedEmbedder(dim=1).embed("faster robots") == HashedEmbedder(dim=1).embed("") == (1.0,)


class FakeEmbedder:
    """Test embedder with hand-assigned directions per exact text."""

    def __init__(self, table: dict[str, tuple[float, ...]], default_dim: int = 4):
        self.table = table
        self.default_dim = default_dim

    def embed(self, text: str) -> tuple[float, ...]:
        if text in self.table:
            return ref_unit_vector(self.table[text])
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
        assert RRF_ALPHA / (RRF_C + 1) * 2 == pytest.approx(1 / 61, abs=1e-9)

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
        got = [r.id for r in ensemble_retrieve(query, db, k=5, embedder=embedder)]
        want = ref_fusion_order(query, db.rules(), embedder, alpha=0.5, c=60.0, k1=1.5, b=0.75)
        assert got == want

    def test_fused_scores_bounded_by_double_rank_one(self):
        # alpha/(c+r_s) + (1-alpha)/(c+r_d) is positive and at most 1/(c+1)
        bound = 1.0 / (RRF_C + 1.0)
        for rank_s in range(1, 8):
            for rank_d in range(1, 8):
                fused = RRF_ALPHA / (RRF_C + rank_s) + (1 - RRF_ALPHA) / (RRF_C + rank_d)
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

    @pytest.mark.parametrize("nan_text", ["faster robots", "humans should rest"], ids=["query", "rule"])
    def test_a_nan_vector_is_refused(self, nan_text):
        db = RulesDatabase()
        texts = ("assign faster robots to far tasks", "humans should rest", "keep every robot busy")
        for text in texts:
            db.store(Objective.MISSION_TIME, text)
        table = {text: (0.0, 1.0, 0.0) for text in (*texts, "faster robots")}
        table[nan_text] = (math.nan, 1.0, 0.0)
        with pytest.raises(ValueError, match="^cannot score a vector of norm nan$"):
            ensemble_retrieve("faster robots", db, k=3, embedder=RawEmbedder(table))
        # the store still ranks once the vectors are finite
        finite = RawEmbedder({**table, nan_text: (1.0, 0.0, 0.0)})
        want = ref_fusion_order("faster robots", db.rules(), finite, 0.5, 60.0, 1.5, 0.75)
        assert [r.id for r in ensemble_retrieve("faster robots", db, k=3, embedder=finite)] == want


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
        # the store keeps the query's ranking too, so not even the query is embedded
        assert embedder.texts == []
        assert second == first

    def test_a_change_embeds_every_live_rule_once_then_only_queries(self):
        db, embedder = self.rules_db(), CountingEmbedder()
        ensemble_retrieve("query", db, k=1, embedder=embedder)
        changes = (
            lambda: db.store(Objective.HUMAN_WORKLOAD, "Spread analyses across humans."),
            lambda: db.replace_objective(Objective.HUMAN_WORKLOAD, ["Rest humans between analyses."]),
        )
        for change in changes:
            change()
            embedder.texts.clear()
            ensemble_retrieve("query", db, k=1, embedder=embedder)
            assert sorted(embedder.texts) == sorted([r.text for r in db.rules()] + ["query"])
            embedder.texts.clear()
            ensemble_retrieve("another query", db, k=1, embedder=embedder)
            assert embedder.texts == ["another query"]

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


@pytest.fixture
def bm25_calls(monkeypatch):
    """Counts BM25 scoring calls: one per rule per ranking pass."""
    calls = []
    real = retrieval.bm25_score

    def counting(*args, **kwargs):
        calls.append(args[1].id)
        return real(*args, **kwargs)

    monkeypatch.setattr(retrieval, "bm25_score", counting)
    return calls


class TestRankingMemo:
    TEXTS = TestRuleEmbeddingCache.TEXTS + (
        "Minimize the number of analyses queued to any single human.",
        "Send UAVs to far tasks and UGVs to near ones.",
    )
    QUERIES = (
        "Minimize the overall mission time.",
        "Maximize task performance (weight 0.5)",
        "faster robots",
        "nothing shared",
    )

    def rules_db(self, path=None):
        db = RulesDatabase(path)
        for index, text in enumerate(self.TEXTS):
            db.store(tuple(Objective)[index % 3], text)
        return db

    def oracle(self, query, db, embedder):
        return ref_fusion_order(query, db.rules(), embedder, alpha=0.5, c=60.0, k1=1.5, b=0.75)

    def test_repeated_query_embeds_nothing_and_scores_no_rule(self, bm25_calls):
        db, embedder = self.rules_db(), CountingEmbedder()
        first = {q: ensemble_retrieve(q, db, k=3, embedder=embedder) for q in self.QUERIES}
        assert len(bm25_calls) == len(self.QUERIES) * len(self.TEXTS)
        embedder.texts.clear()
        bm25_calls.clear()
        for query in self.QUERIES * 3:
            assert ensemble_retrieve(query, db, k=3, embedder=embedder) == first[query]
        assert embedder.texts == [] and bm25_calls == []

    def test_equal_embedder_reuses_the_ranking(self, bm25_calls):
        db = self.rules_db()
        ensemble_retrieve("faster robots", db, k=2, embedder=HashedEmbedder(dim=64))
        bm25_calls.clear()
        ensemble_retrieve("faster robots", db, k=2, embedder=HashedEmbedder(dim=64))
        assert bm25_calls == []

    def test_unequal_embedder_ranks_afresh(self, bm25_calls):
        db = self.rules_db()
        a, b = CountingEmbedder(dim=64), CountingEmbedder(dim=64)
        ensemble_retrieve("faster robots", db, k=2, embedder=a)
        bm25_calls.clear()
        ensemble_retrieve("faster robots", db, k=2, embedder=b)
        assert b.texts.count("faster robots") == 1 and len(bm25_calls) == len(self.TEXTS)
        for query in self.QUERIES:
            for dim in (64, 8):
                got = ensemble_retrieve(query, db, k=len(db), embedder=HashedEmbedder(dim=dim))
                assert [r.id for r in got] == self.oracle(query, db, HashedEmbedder(dim=dim))

    def test_every_k_gives_the_oracle_prefix(self):
        db, embedder = self.rules_db(), HashedEmbedder(dim=64)
        for query in self.QUERIES:
            want = self.oracle(query, db, embedder)
            # small k first, so a memo of a cut ranking would show at larger k
            for k in list(range(1, len(db) + 1)) + list(range(len(db), 0, -1)):
                assert [r.id for r in ensemble_retrieve(query, db, k=k, embedder=embedder)] == want[:k]
            assert len(ensemble_retrieve(query, db, k=len(db) + 5, embedder=embedder)) == len(db)

    def test_errors_keep_their_order(self):
        with pytest.raises(ValueError, match="rules database is empty"):
            ensemble_retrieve("anything", RulesDatabase(), k=0)
        db = self.rules_db()
        ensemble_retrieve("anything", db, k=1)
        with pytest.raises(ValueError, match="k must be >= 1"):
            ensemble_retrieve("anything", db, k=0)

    def test_returned_lists_do_not_reach_the_memo(self):
        db = self.rules_db()
        got = ensemble_retrieve("faster robots", db, k=3)
        want = list(got)
        got.clear()
        assert ensemble_retrieve("faster robots", db, k=3) == want

    @pytest.mark.parametrize("change", ["store", "replace", "retire", "same texts"])
    def test_rankings_after_a_change_equal_a_fresh_stores(self, tmp_path, bm25_calls, change):
        path = tmp_path / "rules.jsonl"
        db, embedder = self.rules_db(path), HashedEmbedder(dim=64)
        for query in self.QUERIES:
            ensemble_retrieve(query, db, k=2, embedder=embedder)
        if change == "store":
            db.store(Objective.MISSION_TIME, "Minimize mission time with faster robots.")
        elif change == "replace":
            db.replace_objective(Objective.MISSION_TIME, ["Faster robots first.", "Mission time matters."])
        elif change == "retire":
            db.replace_objective(Objective.MISSION_TIME, [])
        else:
            db.replace_objective(
                Objective.MISSION_TIME, [r.text for r in db.for_objective(Objective.MISSION_TIME)]
            )
        bm25_calls.clear()
        got = {query: ensemble_retrieve(query, db, k=len(db), embedder=embedder) for query in self.QUERIES}
        # a fixed-point replacement changes nothing, so only it keeps the rankings
        assert (bm25_calls == []) == (change == "same texts")
        fresh = RulesDatabase(path)  # the same ids, read back from the log
        for query in self.QUERIES:
            assert got[query] == ensemble_retrieve(query, fresh, k=len(fresh), embedder=embedder)
            assert [r.id for r in got[query]] == self.oracle(query, fresh, embedder)

    def test_a_store_during_ranking_is_never_hidden(self):
        db = self.rules_db()
        query = "faster robots"
        stored = []

        class StoringEmbedder:
            """Lands a store from another thread while the query is ranked,
            after the rules were read and before the ranking is kept."""

            def embed(self, text: str) -> tuple[float, ...]:
                if text == query and not stored:
                    writer = threading.Thread(
                        target=lambda: stored.append(db.store(Objective.MISSION_TIME, "faster robots win"))
                    )
                    writer.start()
                    writer.join()
                return HashedEmbedder(dim=64).embed(text)

        embedder = StoringEmbedder()
        before = ensemble_retrieve(query, db, k=len(db) + 1, embedder=embedder)
        assert stored and stored[0] not in before  # ranked from the state it read
        after = ensemble_retrieve(query, db, k=len(db), embedder=embedder)
        assert stored[0] in after
        assert [r.id for r in after] == self.oracle(query, db, HashedEmbedder(dim=64))

    def test_stores_racing_queries_are_always_seen(self):
        db, embedder = self.rules_db(), HashedEmbedder(dim=32)
        writing_done = threading.Event()
        errors, missed = [], []

        def writer():
            try:
                for index in range(60):
                    entry = db.store(Objective.HUMAN_WORKLOAD, f"rule {index} about faster robots")
                    got = ensemble_retrieve(self.QUERIES[index % 4], db, k=10**6, embedder=embedder)
                    if entry not in got or len(got) < entry.id + 1:
                        missed.append(entry.id)
            except Exception as exc:  # reported by the assertions below
                errors.append(exc)
            finally:
                writing_done.set()

        def reader(offset):
            try:
                while not writing_done.is_set():
                    for query in self.QUERIES[offset:] + self.QUERIES[:offset]:
                        ensemble_retrieve(query, db, k=3, embedder=embedder)
            except Exception as exc:  # reported by the assertions below
                errors.append(exc)

        threads = [threading.Thread(target=writer)]
        threads += [threading.Thread(target=reader, args=(i,)) for i in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == [] and missed == []
        for query in self.QUERIES:
            got = ensemble_retrieve(query, db, k=len(db), embedder=embedder)
            assert [r.id for r in got] == self.oracle(query, db, embedder)

    def test_a_ranking_survives_a_fixed_point_replacement_and_not_a_real_one(self, bm25_calls):
        db, embedder = self.rules_db(), HashedEmbedder(dim=64)
        query, objective = "faster robots", Objective.MISSION_TIME
        first = ensemble_retrieve(query, db, k=len(db), embedder=embedder)
        bm25_calls.clear()
        db.replace_objective(objective, [r.text for r in db.for_objective(objective)])
        assert ensemble_retrieve(query, db, k=len(db), embedder=embedder) == first
        assert bm25_calls == []
        new = db.replace_objective(objective, ["Faster robots cut mission time."])
        got = ensemble_retrieve(query, db, k=len(db), embedder=embedder)
        assert len(bm25_calls) == len(db) and set(new) <= set(got)
        assert [r.id for r in got] == self.oracle(query, db, embedder)

    def test_kept_query_texts_are_bounded(self, bm25_calls):
        db = self.rules_db()
        queries = [f"query number {i}" for i in range(retrieval._RANKINGS_KEPT + 1)]
        for query in queries:
            ensemble_retrieve(query, db, k=1)
        assert len(db._slot[3]) <= retrieval._RANKINGS_KEPT
        bm25_calls.clear()
        ensemble_retrieve(queries[-1], db, k=1)
        assert bm25_calls == []


def reference_hashed_embedding(dim: int, text: str) -> tuple[float, ...]:
    """`HashedEmbedder.embed` written out without any cache."""
    counts = [0.0] * dim
    for token in re.findall(r"[a-z0-9]+", text.lower()):
        bucket = int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:4], "big") % dim
        counts[bucket] += 1.0
    if not any(counts):
        counts[0] = 1.0
    norm = math.sqrt(sum(c * c for c in counts))
    return tuple(c / norm for c in counts)


class TestHashedEmbeddingCache:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(min_value=1, max_value=300),
        st.text(alphabet=st.sampled_from("ab cd_01 ZÉ-"), max_size=40) | st.text(max_size=40),
    )
    def test_cached_embedding_equals_an_uncached_one(self, dim, text):
        embedder = HashedEmbedder(dim=dim)
        want = reference_hashed_embedding(dim, text)
        assert embedder.embed(text) == want
        assert embedder.embed(text) == want  # asked again
        assert HashedEmbedder(dim=dim).embed(text) == want

    def test_returned_vectors_are_immutable(self):
        assert isinstance(HashedEmbedder(dim=16).embed("faster robots"), tuple)


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
        want = ref_experience_order(base, prefs, db.records(), embedder, k, m)
        assert got == want

    def test_full_retrieval_is_permutation_of_db(self):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        prefs = PreferenceVector.single(Objective.HUMAN_WORKLOAD)
        everything = retrieve_experiences(
            base, prefs, db, k=len(db), m=len(db), embedder=embedder
        )
        assert sorted(e.id for e in everything) == [r.id for r in db.records()]

    def test_a_k_above_the_store_size_takes_every_record(self):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        prefs = PreferenceVector.single(Objective.HUMAN_WORKLOAD)
        want = retrieve_experiences(base, prefs, db, k=len(db), m=len(db), embedder=embedder)
        for k, m in ((len(db) + 1, len(db) + 1), (len(db) + 5, 2)):
            got = retrieve_experiences(base, prefs, db, k=k, m=m, embedder=embedder)
            assert got == want[:m]

    def test_empty_db_is_error(self):
        with pytest.raises(ValueError):
            retrieve_experiences(
                make_scenario(),
                PreferenceVector.single(Objective.MISSION_TIME),
                ExperienceDatabase(),
                k=1,
                m=1,
            )

    @pytest.mark.parametrize(
        "k, m, message",
        [
            (0, 0, "k must be >= 1"),
            (-1, -2, "k must be >= 1"),
            (3, -1, "m must be >= 0"),
            (1, 2, "m must be <= k"),
        ],
    )
    def test_bad_k_or_m_is_rejected_before_scoring(self, k, m, message, exact_rows):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        with pytest.raises(ValueError, match=f"^{message}$"):
            retrieve_experiences(base, prefs, db, k=k, m=m, embedder=embedder)
        assert exact_rows == []
        with pytest.raises(ValueError, match="^experience database is empty$"):
            retrieve_experiences(base, prefs, ExperienceDatabase(), k=k, m=m)

    def test_m_zero_returns_nothing(self):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        assert retrieve_experiences(base, prefs, db, k=3, m=0, embedder=embedder) == []


@pytest.fixture
def exact_rows(monkeypatch):
    """The row count of each call of `cosines`, which scores rows exactly
    (the float32 screen is not counted), made while the test runs."""
    counts = []
    score = retrieval.cosines

    def counting(rows, query):
        counts.append(len(rows))
        return score(rows, query)

    monkeypatch.setattr(retrieval, "cosines", counting)
    return counts


class RawEmbedder(FakeEmbedder):
    """A FakeEmbedder that returns each vector as given, leaving the
    normalising to `embed_scenario_sections`."""

    def embed(self, text: str) -> tuple[float, ...]:
        return self.table[text]


def _query_embedder(scenario: MissionScenario, query) -> RawEmbedder:
    """Embeds the human, robot and task section texts of `scenario` as the
    first, second and last third of `query`, unnormalised."""
    dim = len(query) // 3
    return RawEmbedder(
        {text: tuple(query[i * dim : (i + 1) * dim]) for i, text in enumerate(scenario.sections)}
    )


def _vector_store(rows) -> tuple[ExperienceDatabase, MissionScenario]:
    """An in-memory store of one record per row of raw section vectors (human,
    robot and task end to end), all with one scenario, plan and performance,
    so `retrieve_experiences` returns its similarity top k in id order."""
    scenario = make_scenario()
    plan = heuristic_allocate(scenario, PreferenceVector.single(Objective.MISSION_TIME))
    db = ExperienceDatabase()
    for row in np.asarray(rows, dtype=float).tolist():
        dim = len(row) // 3
        sections = (row[:dim], row[dim : 2 * dim], row[2 * dim :])
        db.store(Objective.MISSION_TIME, scenario, plan, PerformanceRecord(5, 100, 0.1), sections)
    return db, scenario


@st.composite
def _screened_cases(draw):
    """1-60 rows of raw section vectors at dim 4-1536 and a query. Each row
    is fresh, a copy of an earlier row, or such a copy with one element moved
    by 1 ulp; the query is fresh, a stored row, a stored row so moved, or
    sparse: 1-8 nonzero elements per section, as a hashed query mostly is.
    A disjoint sparse query's nonzero elements are zero in every row, so
    every score is 0 and the lowest ids win. Values are normal draws or
    small counts, which tie like hashed embeddings do."""
    dim, n = draw(st.integers(4, 1536)), draw(st.integers(1, 60))
    kinds = draw(st.lists(st.sampled_from(["fresh", "copy", "ulp"]), min_size=n, max_size=n))
    query_kind = draw(st.sampled_from(["fresh", "stored", "ulp", "sparse", "disjoint"]))
    counts = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def fresh(shape):
        if not counts:
            return rng.standard_normal(shape)
        values = rng.integers(0, 3, shape).astype(float)
        values[..., ::dim] += 1.0  # no section is all zeros
        return values

    def moved(row):
        row = row.copy()
        j = rng.integers(len(row))
        row[j] = np.nextafter(row[j], np.inf)
        return row

    rows = fresh((n, 3 * dim))
    for i, kind in enumerate(kinds):
        if i and kind != "fresh":
            rows[i] = rows[rng.integers(i)]
            if kind == "ulp":
                rows[i] = moved(rows[i])
    if query_kind in ("sparse", "disjoint"):
        # element 0 of each section is left out, so a disjoint row keeps it
        first = 0 if query_kind == "sparse" else 1
        sizes = rng.integers(1, min(8, dim - first) + 1, 3)
        support = np.concatenate([
            section * dim + rng.choice(np.arange(first, dim), size, replace=False)
            for section, size in enumerate(sizes)
        ])
        query = np.zeros(3 * dim)
        query[support] = rng.integers(1, 3, len(support)) if counts else rng.standard_normal(len(support))
        if query_kind == "disjoint":
            rows[:, support] = 0.0
        return rows, query
    query = fresh(3 * dim) if query_kind == "fresh" else rows[rng.integers(n)].copy()
    return rows, moved(query) if query_kind == "ulp" else query


def _margin(dim: int) -> float:
    """How far below the k-th largest screened score `_top_rows` still scores
    a row exactly, at section dimension `dim`."""
    return (3 * dim + 2) * 2.0**-21


class TestScreenedRetrieval:
    """Every store is screened by one float32 matrix product, and only the
    rows within `_margin(dim)` of its k-th largest score are scored exactly;
    the top k stay those of scoring every row exactly (`ref_top_k`), bit
    for bit."""

    @settings(max_examples=60, deadline=None)
    @given(case=_screened_cases())
    def test_every_k_gives_the_exhaustive_top_k(self, case):
        rows, raw_query = case
        db, scenario = _vector_store(rows)
        embedder = _query_embedder(scenario, raw_query.tolist())
        queries = embed_scenario_sections(scenario, embedder)
        records = db.records()
        sections = retrieval._section_matrix(records, db.dim)
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        for k in range(1, len(db) + 1):
            want = ref_top_k(queries, records, k)
            assert retrieval._top_rows(records, sections, np.array(queries).ravel(), k) == want
            got = retrieve_experiences(scenario, prefs, db, k=k, m=k, embedder=embedder)
            assert _ids(got) == sorted(want)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_a_non_finite_query_section_is_refused_before_scoring(self, bad, exact_rows):
        rng = np.random.default_rng(3)
        db, scenario = _vector_store(rng.standard_normal((100, 3 * 16)))
        query = rng.standard_normal(3 * 16)
        query[20] = bad  # an element of the robot section
        embedder = _query_embedder(scenario, query.tolist())
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        with pytest.raises(ValueError, match="^cannot normalize a vector of norm (nan|inf)$"):
            retrieve_experiences(scenario, prefs, db, k=3, m=3, embedder=embedder)
        assert exact_rows == []

    def test_only_the_near_top_rows_are_scored_exactly(self, exact_rows):
        rng = np.random.default_rng(5)
        dim, k = 64, 3
        n = 96
        db, scenario = _vector_store(rng.standard_normal((n, 3 * dim)))
        embedder = _query_embedder(scenario, rng.standard_normal(3 * dim).tolist())
        similarity = np.array(ref_similarities(embed_scenario_sections(scenario, embedder), db.records()))
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        for top in range(1, k + 1):
            # a kept row screens within the margin of the cut, and each
            # screened score is within half the margin of the exact one
            tied = int((similarity >= np.sort(similarity)[-top] - 2 * _margin(dim)).sum())
            exact_rows.clear()
            retrieve_experiences(scenario, prefs, db, k=top, m=top, embedder=embedder)
            assert len(exact_rows) == 1 and top <= exact_rows[0] <= tied
        # a 30-row store at k = 3 is screened too: fewer rows are scored exactly
        db, scenario = _vector_store(rng.standard_normal((30, 3 * dim)))
        embedder = _query_embedder(scenario, rng.standard_normal(3 * dim).tolist())
        exact_rows.clear()
        retrieve_experiences(scenario, prefs, db, k=k, m=k, embedder=embedder)
        assert len(exact_rows) == 1 and k <= exact_rows[0] < 30

    @pytest.mark.parametrize("dim", [2, 64])
    def test_the_margin_keeps_a_row_exactly_at_it(self, dim, exact_rows):
        # query e0 in every section: a row whose sections are (x, 1, 0, ...),
        # e1 and e1 screens at exactly x when x is a float32 value this
        # small, since its float32 unit row is x and 1 again
        margin = _margin(dim)
        past = float(np.nextafter(np.float32(-margin), np.float32(-1.0)))
        assert np.float32(-margin) == -margin and past < -margin
        e0, e1 = np.eye(dim)[:2]
        n = 31
        rows = np.tile(np.concatenate([-e0] * 3), (n, 1))
        rows[5] = np.concatenate([e1] * 3)
        rows[20] = np.concatenate([e1 - margin * e0, e1, e1])
        rows[30] = np.concatenate([e1 + past * e0, e1, e1])
        db, scenario = _vector_store(rows)
        query = np.concatenate([e0] * 3)
        screen = np.einsum("ij,j->i", retrieval._section_matrix(db.records(), dim), query.astype(np.float32))
        assert (screen[5], screen[20], screen[30]) == (0.0, -margin, past)
        embedder = _query_embedder(scenario, query.tolist())
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        got = retrieve_experiences(scenario, prefs, db, k=1, m=1, embedder=embedder)
        assert _ids(got) == [5]
        assert exact_rows == [2]  # rows 5 and 20, not row 30

    def test_distinct_records_of_equal_exact_similarity_come_back_in_id_order(self):
        # sections (b, a, c) and (a, b, c) against the query (q, q, q): the
        # same three cosines, added in another order, so the sums are equal
        rng = np.random.default_rng(23)
        dim = 12
        q = rng.standard_normal(dim)
        a, b, c = q + 0.3 * rng.standard_normal((3, dim))
        query = np.concatenate([q] * 3)
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        for first, second in (((b, a, c), (a, b, c)), ((a, b, c), (b, a, c))):
            rows = [np.concatenate(sections) for sections in ((-q, -q, -q), first, second, (-a, b, c))]
            db, scenario = _vector_store(rows)
            embedder = _query_embedder(scenario, query.tolist())
            queries = embed_scenario_sections(scenario, embedder)
            sims = ref_similarities(queries, db.records())
            assert sims[1] == sims[2] and sims[1] > max(sims[0], sims[3])
            assert ref_dense_score(queries[0], a) != ref_dense_score(queries[0], b)
            sections = retrieval._section_matrix(db.records(), dim)
            for k in (1, 2):
                got = retrieve_experiences(scenario, prefs, db, k=k, m=k, embedder=embedder)
                assert _ids(got) == [1, 2][:k]
                assert retrieval._top_rows(db.records(), sections, np.ravel(queries), k) == [1, 2][:k]


class TestRetrievalGolden:
    """sha256 over the ids `retrieve_experiences` returns, recorded while the
    store was screened with a float64 matrix: any change in which records are
    retrieved, or in their order, changes the digest."""

    GOLDEN = "4e8d569acd4ec21a7474a9542045f2e72f171f0dd28e5a2ba5f0ddf9f95a8c26"
    # one 0.5/0.25/0.25 rotation per objective and the tied vector
    PREFS = (
        PreferenceVector.of(TP=0.5, MT=0.25, HW=0.25),
        PreferenceVector.of(TP=0.25, MT=0.5, HW=0.25),
        PreferenceVector.of(TP=0.25, MT=0.25, HW=0.5),
        PreferenceVector.of(TP=1.0, MT=1.0, HW=1.0),
    )

    @staticmethod
    def _store() -> tuple[ExperienceDatabase, list[MissionScenario]]:
        """300 records of seeded scenarios; every fifth repeats an earlier
        scenario under another objective, so some rows tie exactly."""
        embedder = HashedEmbedder()
        rng = random.Random(22)
        db, scenarios = ExperienceDatabase(), []
        for index in range(300):
            if index % 5 == 4:
                scenario = scenarios[rng.randrange(len(scenarios))]
            else:
                sizes = rng.randint(1, 5), rng.randint(1, 7), rng.randint(1, 30)
                scenario = random_scenario(*sizes, seed=index)
                scenarios.append(scenario)
            performance = PerformanceRecord(rng.uniform(0, 50), rng.uniform(100, 900), rng.uniform(0, 0.8))
            store_mission(db, list(Objective)[index % 3], scenario, performance, embedder)
        return db, scenarios

    def test_retrieved_ids_match_the_pinned_digest(self):
        db, stored = self._store()
        rng = random.Random(23)
        # 30 unseen scenarios and 10 stored ones, whose duplicates tie
        queries = [
            random_scenario(rng.randint(1, 5), rng.randint(1, 7), rng.randint(1, 30), seed=1000 + i)
            for i in range(30)
        ]
        queries += [stored[rng.randrange(len(stored))] for _ in range(10)]
        digest = hashlib.sha256()
        for scenario in queries:
            for prefs in self.PREFS:
                for k, m in ((3, 2), (10, 10)):
                    ids = _ids(retrieve_experiences(scenario, prefs, db, k=k, m=m))
                    digest.update(f"{ids}\n".encode("utf-8"))
        assert digest.hexdigest() == self.GOLDEN


@pytest.fixture
def embedded_scenarios(monkeypatch):
    """The scenarios `_section_queries` embeds while the test runs."""
    seen = []
    real = retrieval._section_queries

    def counting(scenario, embedder):
        seen.append(scenario)
        return real(scenario, embedder)

    monkeypatch.setattr(retrieval, "_section_queries", counting)
    return seen


class TestNearestMemo:
    """The store keeps each scenario's k nearest records per store state
    and equal embedder (`ExperienceDatabase._nearest`), so asking about a
    scenario again, under any preference vector, only re-ranks."""

    PREFS = TestRetrievalGolden.PREFS

    @staticmethod
    def _persisted_store(path) -> list[MissionScenario]:
        """30 records of seeded scenarios in a log at `path`; returns the scenarios."""
        embedder, rng = HashedEmbedder(dim=64), random.Random(26)
        db, scenarios = ExperienceDatabase(path), []
        for index in range(30):
            sizes = rng.randint(1, 5), rng.randint(1, 7), rng.randint(1, 30)
            scenarios.append(random_scenario(*sizes, seed=300 + index))
            performance = PerformanceRecord(rng.uniform(0, 50), rng.uniform(100, 900), rng.uniform(0, 0.8))
            store_mission(db, list(Objective)[index % 3], scenarios[-1], performance, embedder)
        return scenarios

    def test_every_order_of_four_vectors_retrieves_as_a_fresh_store(self, tmp_path, top_rows_calls):
        path = tmp_path / "exp.jsonl"
        stored = self._persisted_store(path)
        queries = (stored[3], random_scenario(3, 4, 10, seed=999))
        sizes = ((3, 2), (10, 10), (40, 5))

        def ask(db, query, prefs, k, m):
            return retrieve_experiences(query, prefs, db, k=k, m=m, embedder=HashedEmbedder(dim=64))

        want = {
            (q, prefs, k): ask(ExperienceDatabase(path), query, prefs, k, m)
            for q, query in enumerate(queries)
            for prefs in self.PREFS
            for k, m in sizes
        }
        for order in itertools.permutations(self.PREFS):
            db = ExperienceDatabase(path)
            top_rows_calls.clear()
            for prefs in order:
                for q, query in enumerate(queries):
                    for k, m in sizes:
                        assert ask(db, query, prefs, k, m) == want[q, prefs, k]
            # one scoring per scenario and k; a k past the store's 30 is k = 30
            assert sorted(top_rows_calls) == [3, 3, 10, 10, 30, 30]

    def test_a_repeated_scenario_embeds_nothing_and_scores_no_row(
        self, top_rows_calls, embedded_scenarios
    ):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        embedded_scenarios.clear()  # the six stored missions' sections
        first = {prefs: retrieve_experiences(base, prefs, db, k=4, m=2, embedder=embedder) for prefs in self.PREFS}
        assert top_rows_calls == [4] and embedded_scenarios == [base]
        # an equal scenario and an equal embedder hit too
        again = make_scenario()
        for prefs in self.PREFS:
            got = retrieve_experiences(again, prefs, db, k=4, m=2, embedder=HashedEmbedder(dim=64))
            assert got == first[prefs]
            assert _ids(got) == ref_experience_order(base, prefs, db.records(), embedder, 4, 2)
        assert top_rows_calls == [4] and embedded_scenarios == [base]
        retrieve_experiences(base, self.PREFS[0], db, k=3, m=2, embedder=embedder)
        assert top_rows_calls == [4, 3]  # another k scores afresh

    def test_a_store_between_two_queries_is_seen(self, tmp_path):
        path = tmp_path / "exp.jsonl"
        stored = self._persisted_store(path)
        db, embedder = ExperienceDatabase(path), HashedEmbedder(dim=64)
        query, prefs = stored[7], self.PREFS[1]
        before = retrieve_experiences(query, prefs, db, k=3, m=3, embedder=embedder)
        # the same scenario, so it ties the stored one's similarity; best on every objective
        record = store_mission(db, Objective.MISSION_TIME, query, PerformanceRecord(50, 100, 0.0), embedder)
        after = retrieve_experiences(query, prefs, db, k=3, m=3, embedder=embedder)
        assert record not in before and after[0] == record
        assert after == retrieve_experiences(query, prefs, ExperienceDatabase(path), k=3, m=3, embedder=embedder)

    def test_a_store_during_scoring_is_never_hidden(self):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        prefs = self.PREFS[1]
        stored = []

        class StoringEmbedder:
            """Lands a store from another thread while the query is embedded,
            after the records were read and before the answer is kept."""

            def embed(self, text: str) -> tuple[float, ...]:
                if not stored:
                    # the same scenario, so it ties the base's similarity; best on every objective
                    performance = PerformanceRecord(50, 100, 0.0)
                    writer = threading.Thread(
                        target=lambda: stored.append(
                            store_mission(db, Objective.MISSION_TIME, base, performance, embedder)
                        )
                    )
                    writer.start()
                    writer.join()
                return embedder.embed(text)

        storing = StoringEmbedder()
        before = retrieve_experiences(base, prefs, db, k=3, m=3, embedder=storing)
        assert stored and stored[0] not in before  # scored from the records it read
        assert _ids(before) == ref_experience_order(base, prefs, db.records()[:-1], embedder, 3, 3)
        after = retrieve_experiences(base, prefs, db, k=3, m=3, embedder=storing)
        assert after[0] == stored[0]
        assert _ids(after) == ref_experience_order(base, prefs, db.records(), embedder, 3, 3)

    def test_records_are_one_tuple_until_the_next_store(self):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        held = db.records()
        assert type(held) is tuple and db.records() is held
        retrieve_experiences(base, self.PREFS[0], db, k=2, m=1, embedder=embedder)
        assert db.records() is held
        record = store_mission(db, Objective.MISSION_TIME, _task_variant(3), PerformanceRecord(5, 50, 0.5), embedder)
        assert db.records() is not held and db.records() == held + (record,)
        assert db.records() is db.records()

    def test_an_unequal_embedder_misses(self, top_rows_calls):
        db, base = toy_experience_db(HashedEmbedder(dim=64))
        prefs = self.PREFS[3]
        a, b = CountingEmbedder(dim=64), CountingEmbedder(dim=64)  # unequal, alike answers
        want = retrieve_experiences(base, prefs, db, k=3, m=3, embedder=a)
        assert retrieve_experiences(base, prefs, db, k=3, m=3, embedder=b) == want
        assert retrieve_experiences(base, prefs, db, k=3, m=3, embedder=b) == want
        assert (len(a.texts), len(b.texts), top_rows_calls) == (3, 3, [3, 3])
        assert retrieve_experiences(base, prefs, db, k=3, m=3, embedder=a) == want
        assert len(a.texts) == 6  # the slot holds one embedder's answers

    def test_an_embedder_of_another_dimension_misses_and_raises(self):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        prefs = self.PREFS[0]
        want = retrieve_experiences(base, prefs, db, k=3, m=2, embedder=embedder)
        held = db._slot
        for _ in range(2):
            with pytest.raises(ValueError, match="^embedding dimension mismatch: 32 vs 64$"):
                retrieve_experiences(base, prefs, db, k=3, m=2, embedder=HashedEmbedder(dim=32))
            assert db._slot is held  # a miss that raises keeps nothing
        assert retrieve_experiences(base, prefs, db, k=3, m=2, embedder=embedder) == want

    def test_errors_keep_their_order_after_a_hit(self):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        prefs = self.PREFS[0]
        retrieve_experiences(base, prefs, db, k=1, m=1, embedder=embedder)
        for k, m, message in ((0, 0, "k must be >= 1"), (1, -1, "m must be >= 0"), (1, 2, "m must be <= k")):
            with pytest.raises(ValueError, match=f"^{message}$"):
                retrieve_experiences(base, prefs, db, k=k, m=m, embedder=embedder)

    def test_returned_lists_do_not_reach_the_memo(self):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        prefs = self.PREFS[2]
        got = retrieve_experiences(base, prefs, db, k=4, m=4, embedder=embedder)
        want = list(got)
        got.clear()
        assert retrieve_experiences(base, prefs, db, k=4, m=4, embedder=embedder) == want

    def test_kept_scenarios_are_bounded(self, top_rows_calls):
        embedder = HashedEmbedder(dim=64)
        db, _ = toy_experience_db(embedder)
        queries = [random_scenario(2, 2, 3, seed=index) for index in range(retrieval._RANKINGS_KEPT + 1)]
        for query in queries:
            retrieve_experiences(query, self.PREFS[0], db, k=1, m=1, embedder=embedder)
            assert len(db._slot[3]) <= retrieval._RANKINGS_KEPT
        top_rows_calls.clear()
        retrieve_experiences(queries[-1], self.PREFS[1], db, k=1, m=1, embedder=embedder)
        assert top_rows_calls == []


def _task_variant(index: int) -> MissionScenario:
    return make_scenario(tasks=(("T_0", (40.0 * index + 10.0, 20.0), Tier.LOW),))


def _ids(records) -> list[int]:
    return [rec.id for rec in records]


class TestSectionMatrix:
    """`retrieve_experiences` scores against a section matrix cached on the
    store; these pin what the per-record cosine loop guaranteed."""

    def test_the_matrix_is_built_once_per_record_count(self, monkeypatch):
        embedder = HashedEmbedder(dim=64)
        db, base = toy_experience_db(embedder)
        builds = []
        real = retrieval._section_matrix

        def counting(records, dim):
            builds.append(len(records))
            return real(records, dim)

        monkeypatch.setattr(retrieval, "_section_matrix", counting)
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        first = retrieve_experiences(base, prefs, db, k=3, m=3, embedder=embedder)
        assert retrieve_experiences(base, prefs, db, k=3, m=3, embedder=embedder) == first
        assert builds == [6]
        variant = _task_variant(30)
        stored = store_mission(db, Objective.MISSION_TIME, variant, PerformanceRecord(5, 50, 0.5), embedder)
        for _ in range(2):
            got = retrieve_experiences(variant, prefs, db, k=1, m=1, embedder=embedder)
            assert got == [stored]
        assert builds == [6, 7]

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


def _float64_bytes(values) -> bytes:
    return struct.pack(f"<{len(values)}d", *values)


# every kind of value an embedding element may be: any finite float (which
# includes -0.0), the subnormals at both ends of their range, and integers
_EMBEDDING_ELEMENTS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310]),
    st.integers(-(2**53), 2**53),
)


# finite elements whose squares, summed over three sections of up to 300,
# stay in the float range, and subnormals, whose squares underflow to zero
_SCALED_ELEMENTS = st.one_of(
    st.floats(-1e150, 1e150, allow_nan=False),
    st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1e-310]),
)


@st.composite
def _sections(draw, elements=_EMBEDDING_ELEMENTS, dims=st.integers(1, 300)):
    """Three sections of one length, most not a multiple of 8, so the
    nonzero bitmap ends mid-byte: dense, or mostly 0.0 as in a hashed
    embedding; in one draw of four, one section is all 0.0 or all -0.0.
    A section draws some of its elements and sets the rest to one fill
    value, drawn from the elements or 0.0, so an example takes far fewer
    draws than it has elements."""
    dim = draw(dims)
    fill = draw(st.sampled_from([elements, st.just(0.0)]))
    section = arrays(object, dim, elements=elements, fill=fill).map(tuple)
    sections = [draw(section) for _ in range(3)]
    zeroed = draw(st.integers(0, 3))
    if zeroed < 3:
        sections[zeroed] = (draw(st.sampled_from([0.0, -0.0])),) * dim
    return tuple(sections)


def _stored(db, sections):
    scenario = make_scenario()
    plan = heuristic_allocate(scenario, PreferenceVector.single(Objective.MISSION_TIME))
    return db.store(Objective.MISSION_TIME, scenario, plan, PerformanceRecord(5, 100, 0.1), sections)


class TestPackedEmbeddings:
    """Records hold their three section embeddings as a nonzero bitmap and
    the nonzero float64 values; the sections, the log and the section matrix
    are what they were, bit for bit, -0.0 and subnormals included."""

    @settings(max_examples=40, deadline=None)
    @given(sections=_sections())
    def test_store_and_reload_keep_every_bit(self, sections):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "exp.jsonl"
            db = ExperienceDatabase(path)
            _stored(db, sections)
            reloaded = ExperienceDatabase(path)
        assert reloaded.records() == db.records()
        for record in (db.records()[0], reloaded.records()[0]):
            decoded = (record.emb_humans, record.emb_robots, record.emb_tasks)
            assert [_float64_bytes(vec) for vec in decoded] == [_float64_bytes(vec) for vec in sections]

    @settings(max_examples=40, deadline=None)
    @given(sections=_sections())
    def test_an_encoding_is_a_header_a_bitmap_and_the_nonzero_values(self, sections):
        record = _stored(ExperienceDatabase(), sections)
        dim = len(sections[0])
        nonzero = sum(_float64_bytes([value]) != bytes(8) for section in sections for value in section)
        assert record.dim == dim
        assert len(record.embedding) == 4 + math.ceil(3 * dim / 8) + 8 * nonzero

    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_sparse_rows_decode_to_the_reference_matrix(self, data):
        first = data.draw(_sections(_SCALED_ELEMENTS))
        dim = len(first[0])
        # up to 40 rows: past the first block of 32
        rows = [first] + data.draw(st.lists(_sections(_SCALED_ELEMENTS, st.just(dim)), max_size=39))
        db = ExperienceDatabase()
        for sections in rows:
            _stored(db, sections)
        records = db.records()
        vectors = np.array([vec for row in rows for vec in row])
        zero = np.flatnonzero(np.einsum("ij,ij->i", vectors, vectors) == 0)
        if len(zero):
            with pytest.raises(ValueError, match=rf"^experience record {zero[0] // 3}: zero vectors"):
                retrieval._section_matrix(records, dim)
            return
        # the reference reads the drawn tuples, not the records' encodings
        want = ref_section_matrix([SimpleNamespace(emb_humans=h, emb_robots=r, emb_tasks=t) for h, r, t in rows])
        assert retrieval._section_matrix(records, dim).tobytes() == want.tobytes()

    # A 5/7/30 scenario embeds about 110 nonzero elements: 0.16 of dense at
    # the default dim, which the bitmap's 3·dim bits keep above an eighth
    @pytest.mark.parametrize("dim, share", [(256, 1 / 5), (512, 1 / 8), (1024, 1 / 8)])
    def test_a_hashed_record_at_5_7_30_is_a_small_share_of_dense(self, dim, share):
        for seed in range(5):
            sections = embed_scenario_sections(random_scenario(5, 7, 30, seed=seed), HashedEmbedder(dim=dim))
            record = _stored(ExperienceDatabase(), sections)
            assert len(record.embedding) < share * 24 * dim  # dense float64 takes 24·dim bytes

    # 150 rows span five of the blocks the float32 matrix is built in
    @pytest.mark.parametrize("dim, n", [(1, 20), (7, 20), (64, 20), (7, 150)])
    def test_section_matrix_equals_the_tuple_built_one(self, tmp_path, dim, n):
        rng = random.Random(dim)
        scenario = make_scenario()
        plan = heuristic_allocate(scenario, PreferenceVector.single(Objective.MISSION_TIME))
        db = ExperienceDatabase(tmp_path / "exp.jsonl")
        for _ in range(n):
            scale = 10.0 ** rng.randint(-100, 100)
            sections = tuple(tuple(scale * rng.gauss(0, 1) for _ in range(dim)) for _ in range(3))
            db.store(Objective.MISSION_TIME, scenario, plan, PerformanceRecord(5, 100, 0.1), sections)
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        for store in (db, ExperienceDatabase(tmp_path / "exp.jsonl")):
            records = store.records()
            want = ref_section_matrix(records)
            assert retrieval._section_matrix(records, dim).tobytes() == want.tobytes()
            retrieve_experiences(scenario, prefs, store, k=1, m=1, embedder=HashedEmbedder(dim=dim))
            assert store._slot[2].tobytes() == want.tobytes()

    def test_the_cached_matrix_is_float32_with_no_float64_copy(self):
        dim, n = 16, 1000
        rows = np.random.default_rng(11).standard_normal((n, 3 * dim))
        db, scenario = _vector_store(rows)
        embedder, prefs = HashedEmbedder(dim=dim), PreferenceVector.single(Objective.MISSION_TIME)
        gc.collect()
        tracemalloc.start()
        try:
            retrieve_experiences(scenario, prefs, db, k=1, m=1, embedder=embedder)
            sections = db._slot[2]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert sections.dtype == np.float32 and sections.shape == (n, 3 * dim)
        assert sections.flags.f_contiguous  # the screen gathers whole columns
        assert sections.nbytes == 4 * n * 3 * dim
        base = sections
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base.obj, mmap.mmap)  # pages of its own
        # a float64 copy of the store would add 8·n·3·dim bytes at once
        assert peak < 1.5 * sections.nbytes
        # another scenario misses the kept answers but not the matrix
        retrieve_experiences(make_scenario(humans=()), prefs, db, k=1, m=1, embedder=embedder)
        assert db._slot[2] is sections  # kept, not rebuilt

    def test_sparse_and_dense_blocks_build_the_reference_matrix(self):
        dim = 16
        rng = np.random.default_rng(13)
        rows = rng.standard_normal((80, 3 * dim))
        rows[:32, np.arange(3 * dim) % dim != 0] = 0.0  # one nonzero per section: written element by element
        rows[64:, np.arange(3 * dim) % 4 != 0] = 0.0  # a quarter nonzero: dense, written as a slab
        db, _ = _vector_store(rows)
        records = db.records()
        sections = retrieval._section_matrix(records, dim)
        assert sections.flags.f_contiguous
        assert sections.tobytes() == ref_section_matrix(records).tobytes()

    @pytest.mark.parametrize("sparse", [True, False])
    def test_the_screen_makes_no_copy_of_the_whole_matrix(self, sparse):
        dim, n = 16, 1000
        rng = np.random.default_rng(17)
        db, _ = _vector_store(rng.standard_normal((n, 3 * dim)))
        records = db.records()
        sections = retrieval._section_matrix(records, dim)
        raw = rng.standard_normal(3 * dim)
        if sparse:
            raw[np.arange(3 * dim) % dim != 0] = 0.0  # the gathered columns: 3 of 48
        queries = [ref_unit_vector(section) for section in raw.reshape(3, dim).tolist()]
        gc.collect()
        tracemalloc.start()
        try:
            got = retrieval._top_rows(records, sections, np.array(queries).ravel(), 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == ref_top_k(queries, records, 3)
        # gathering every column of a dense query would copy the whole matrix
        assert peak < sections.nbytes / 4

    def test_unequal_sections_are_rejected_at_store(self, tmp_path):
        path = tmp_path / "exp.jsonl"
        db = _two_record_store(path)
        before = path.read_bytes()
        h, r, t = embed_scenario_sections(make_scenario(), HashedEmbedder(dim=16))
        plan = heuristic_allocate(make_scenario(), PreferenceVector.single(Objective.MISSION_TIME))
        with pytest.raises(ValueError, match=r"experience record 2: section embeddings differ in length: 16, 15, 16"):
            db.store(Objective.MISSION_TIME, make_scenario(), plan, PerformanceRecord(5, 100, 0.1), (h, r[:-1], t))
        assert len(db) == 2 and path.read_bytes() == before
        assert _store_one(db, Objective.TASK_PERFORMANCE).id == 2  # the id was not used up

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_elements_are_rejected_at_store(self, tmp_path, bad):
        path = tmp_path / "exp.jsonl"
        db = _two_record_store(path)
        before = path.read_bytes()
        h, r, t = embed_scenario_sections(make_scenario(), HashedEmbedder(dim=16))
        plan = heuristic_allocate(make_scenario(), PreferenceVector.single(Objective.MISSION_TIME))
        with pytest.raises(ValueError, match=r"^experience record 2: embedding element is not finite$"):
            db.store(
                Objective.MISSION_TIME, make_scenario(), plan, PerformanceRecord(5, 100, 0.1), (h, r, t[:-1] + (bad,))
            )
        assert len(db) == 2 and path.read_bytes() == before
        assert _store_one(db, Objective.TASK_PERFORMANCE).id == 2  # the id was not used up

    def test_unequal_sections_are_rejected_at_load(self, tmp_path):
        path = tmp_path / "exp.jsonl"
        _two_record_store(path)
        emb_tasks = json.loads(path.read_text(encoding="utf-8").splitlines()[1])["emb_tasks"]
        _rewrite_record(path, 1, emb_tasks=emb_tasks[:-1])
        with pytest.raises(CorruptLogError) as caught:
            ExperienceDatabase(path)
        assert str(caught.value) == (
            f"{path}, line 2: not a record: ValueError: "
            "experience record 1: section embeddings differ in length: 16, 16, 15"
        )

    def test_loaded_records_are_small(self, tmp_path):
        path = tmp_path / "exp.jsonl"
        store_mission(
            ExperienceDatabase(path), Objective.MISSION_TIME, make_scenario(),
            PerformanceRecord(5, 100, 0.1), HashedEmbedder(dim=256),
        )
        payload = json.loads(path.read_text(encoding="utf-8"))
        _write_lines(path, [json.dumps(dict(payload, id=i), sort_keys=True) for i in range(300)])
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            db = ExperienceDatabase(path)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(db) == 300
        # about 1 KiB, 324 B of it the embeddings' encoding; packed dense
        # float64 took 6.7 KiB and float tuples 25 KiB
        assert retained / len(db) <= 2 * 1024


class TestStoreDimension:
    """The first record sets the store's `dim`; a record at another
    dimension, or at dimension 0, is refused at load and at store."""

    def test_dim_is_set_by_the_first_record(self, tmp_path):
        path = tmp_path / "exp.jsonl"
        db = ExperienceDatabase(path)
        assert db.dim is None
        _store_one(db, Objective.MISSION_TIME)
        assert db.dim == 16 and ExperienceDatabase(path).dim == 16

    @pytest.mark.parametrize("dim, want", [(8, "not the store's 16"), (0, "not above 0")])
    def test_another_dimension_is_refused_at_load_naming_the_line(self, tmp_path, dim, want):
        path = tmp_path / "exp.jsonl"
        _two_record_store(path)
        vectors = {name: [1.0] * dim for name in ("emb_humans", "emb_robots", "emb_tasks")}
        record = 0 if dim == 0 else 1  # a dim-0 first line is refused too
        _rewrite_record(path, record, **vectors)
        with pytest.raises(CorruptLogError) as caught:
            ExperienceDatabase(path)
        assert str(caught.value) == (
            f"{path}, line {record + 1}: not a record: ValueError: "
            f"experience record {record}: embedded at dim {dim}, {want}"
        )

    @pytest.mark.parametrize("dim", [8, 0])
    def test_another_dimension_is_refused_at_store(self, tmp_path, dim):
        path = tmp_path / "exp.jsonl"
        db = _two_record_store(path)
        before = path.read_bytes()
        plan = heuristic_allocate(make_scenario(), PreferenceVector.single(Objective.MISSION_TIME))
        sections = ((1.0,) * dim,) * 3
        with pytest.raises(ValueError, match=rf"^experience record 2: embedded at dim {dim}, not "):
            db.store(Objective.MISSION_TIME, make_scenario(), plan, PerformanceRecord(5, 100, 0.1), sections)
        assert len(db) == 2 and db.dim == 16 and path.read_bytes() == before
        assert _store_one(db, Objective.TASK_PERFORMANCE).id == 2  # the id was not used up

    def test_a_refused_first_record_sets_no_dim(self, tmp_path):
        path = tmp_path / "exp.jsonl"
        db = ExperienceDatabase(path)
        plan = heuristic_allocate(make_scenario(), PreferenceVector.single(Objective.MISSION_TIME))
        with pytest.raises(ValueError, match=r"^experience record 0: embedded at dim 0, not above 0$"):
            db.store(Objective.MISSION_TIME, make_scenario(), plan, PerformanceRecord(5, 100, 0.1), ((), (), ()))
        assert db.dim is None and not path.exists()
        assert _store_one(db, Objective.MISSION_TIME).id == 0 and db.dim == 16


class TestStoreRefusesWhatLoadRefuses:
    """A store builds what it appends as its load builds it, so an entry the
    load would refuse raises before its id is used or a byte is written."""

    @pytest.mark.parametrize("fallback", [1, np.True_], ids=["int", "numpy_bool"])
    def test_an_experience_fallback_that_is_not_a_bool(self, tmp_path, fallback):
        path = tmp_path / "exp.jsonl"
        db = _two_record_store(path)
        before = path.read_bytes()
        scenario = make_scenario()
        plan = heuristic_allocate(scenario, PreferenceVector.single(Objective.MISSION_TIME))
        sections = embed_scenario_sections(scenario, HashedEmbedder(dim=16))
        with pytest.raises(ValueError, match=r"^experience record 2: fallback .+ is not a boolean$"):
            db.store(Objective.MISSION_TIME, scenario, plan, PerformanceRecord(5, 100, 0.1), sections, fallback)
        assert path.read_bytes() == before and len(db) == 2
        assert _store_one(db, Objective.TASK_PERFORMANCE).id == 2
        assert ExperienceDatabase(path).records() == db.records()

    def test_experience_embeddings_that_are_not_json_numbers(self, tmp_path):
        path = tmp_path / "exp.jsonl"
        db = _two_record_store(path)
        before = path.read_bytes()
        scenario = make_scenario()
        plan = heuristic_allocate(scenario, PreferenceVector.single(Objective.MISSION_TIME))
        humans, robots, tasks = embed_scenario_sections(scenario, HashedEmbedder(dim=16))
        sections = (humans, tuple(np.float32(x) for x in robots), tasks)
        message = r"^experience record 2: not JSON: Object of type float32 is not JSON serializable$"
        with pytest.raises(ValueError, match=message):
            db.store(Objective.MISSION_TIME, scenario, plan, PerformanceRecord(5, 100, 0.1), sections)
        assert path.read_bytes() == before and len(db) == 2
        assert _store_one(db, Objective.TASK_PERFORMANCE).id == 2
        assert ExperienceDatabase(path).records() == db.records()

    def test_a_rule_text_that_is_not_json_text(self, tmp_path):
        path = tmp_path / "rules.jsonl"
        db = RulesDatabase(path)
        db.store(Objective.MISSION_TIME, "one")
        before = path.read_bytes()
        with pytest.raises(ValueError, match=r"^rule 1: not JSON: Object of type bytes "):
            db.store(Objective.MISSION_TIME, b"two")
        assert path.read_bytes() == before and len(db) == 1
        assert db.store(Objective.HUMAN_WORKLOAD, "three").id == 1
        assert RulesDatabase(path).rules() == db.rules()

    def test_stores_with_no_log_encode_no_line(self, monkeypatch):
        encoded = []
        monkeypatch.setattr(retrieval.json, "dumps", lambda *args, **kwargs: encoded.append(args))
        rules = RulesDatabase()
        rules.store(Objective.MISSION_TIME, "one")
        rules.replace_objective(Objective.MISSION_TIME, ["two"])
        _store_one(ExperienceDatabase(), Objective.MISSION_TIME)
        assert encoded == [] and len(rules) == 1

    @pytest.mark.parametrize("texts", [["  "], ["new rule", "  "]], ids=["blank", "valid_then_blank"])
    def test_a_refused_replacement_leaves_the_old_rules_live(self, tmp_path, texts):
        path = tmp_path / "rules.jsonl"
        db = RulesDatabase(path)
        old = db.store(Objective.MISSION_TIME, "old rule")
        other = db.store(Objective.HUMAN_WORKLOAD, "other rule")
        before = path.read_bytes()
        with pytest.raises(ValueError, match="^rule text must be non-empty$"):
            db.replace_objective(Objective.MISSION_TIME, texts)
        assert path.read_bytes() == before
        assert db.rules() == (old, other)
        assert RulesDatabase(path).rules() == (old, other)
        assert db.store(Objective.TASK_PERFORMANCE, "next rule").id == 2

    @pytest.mark.parametrize("objective", ["MT", None], ids=["text", "none"])
    def test_a_rule_objective_that_is_not_an_objective(self, tmp_path, objective):
        path = tmp_path / "rules.jsonl"
        db = RulesDatabase(path)
        db.store(Objective.MISSION_TIME, "one")
        before = path.read_bytes()
        with pytest.raises(AttributeError):
            db.store(objective, "two")
        assert path.read_bytes() == before and len(db) == 1
        assert db.store(Objective.HUMAN_WORKLOAD, "three").id == 1
        assert RulesDatabase(path).rules() == db.rules()


@pytest.fixture
def built_digests(monkeypatch):
    """One entry per sha256 object or log prefix the retrieval module builds."""
    built = []
    sha256, prefix = hashlib.sha256, retrieval._Prefix

    def counting(make, name):
        def build(*args, **kwargs):
            built.append(name)
            return make(*args, **kwargs)

        return build

    monkeypatch.setattr(retrieval.hashlib, "sha256", counting(sha256, "sha256"))
    monkeypatch.setattr(retrieval, "_Prefix", counting(prefix, "prefix"))
    return built


class TestOnlyAnExperienceLogIsHashed:
    """Only a file-backed experience-store load builds and advances a log
    prefix digest, which its snapshot needs."""

    def test_a_rules_load_and_a_store_with_no_log_hash_nothing(self, tmp_path, built_digests):
        path = tmp_path / "rules.jsonl"
        RulesDatabase(path).store(Objective.MISSION_TIME, "one")
        assert len(RulesDatabase(path)) == 1
        assert len(ExperienceDatabase()) == 0
        assert built_digests == []

    def test_a_file_backed_experience_load_does(self, tmp_path, built_digests):
        path = tmp_path / "exp.jsonl"
        _two_record_store(path)
        assert len(ExperienceDatabase(path)) == 2
        assert "prefix" in built_digests and "sha256" in built_digests


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


def _experience_line(**fields) -> str:
    """A well-formed experience-log line at dim 1, with `fields` replaced."""
    scenario = make_scenario()
    payload = {
        "kind": "experience", "id": 7, "objective": "MT", "scenario": scenario.serialize(),
        "plan": heuristic_allocate(scenario, PreferenceVector.single(Objective.MISSION_TIME)).render(),
        "performance": PerformanceRecord(5, 100, 0.1).serialize(),
        "emb_humans": [1.0], "emb_robots": [1.0], "emb_tasks": [1.0],
    }
    return json.dumps({**payload, **fields})


# (line, what the error names after "not a record: "), for each store
WRONG_SHAPE_LINES = {
    "experience": {
        "no_fields": ('{"kind": "experience"}', "KeyError: 'id'"),
        "a_list": ("[1, 2]", "TypeError"),
        "a_string_id": (_experience_line(id="7"), 'ValueError: record id "7" is not an integer'),
        "a_text_embedding_element": (
            _experience_line(emb_robots=["1.0"]), "ValueError: experience record 7: embedding element"
        ),
        "a_number_objective": (_experience_line(objective=5), "AttributeError"),
        "a_performance_in_junk": (
            _experience_line(performance="junk Performance: [5, 100, 0.1] trailing junk"),
            'ValueError: experience record 7: performance "junk Performance: [5, 100, 0.1] trailing junk" '
            "is not canonical",
        ),
        **{
            f"a_{name}_embedding_element": (
                _experience_line().replace('"emb_robots": [1.0]', f'"emb_robots": [{text}]'),
                "ValueError: experience record 7: embedding element is not finite",
            )
            for name, text in [
                ("nan", "NaN"), ("infinite", "Infinity"), ("negative_infinite", "-Infinity"), ("overflowing", "1e999")
            ]
        },
        **{
            f"a_{name}_fallback": (
                _experience_line(fallback=value),
                f"ValueError: experience record 7: fallback {json.dumps(value)} is not a boolean",
            )
            for name, value in [("string", "false"), ("number", 0), ("null", None)]
        },
    },
    "rules": {
        "no_fields": ('{"kind": "rule"}', "KeyError: 'id'"),
        "a_list": ("[1, 2]", "TypeError"),
        "an_unknown_kind": ('{"kind": "note", "id": 3}', 'ValueError: unknown rules-log record kind "note"'),
        **{
            f"a_{name}_id": (
                f'{{"id": {text}, "kind": "rule", "objective": "MT", "text": "three"}}',
                f"ValueError: rule id {shown} is not an integer",
            )
            for name, text, shown in [
                ("string", '"3"', '"3"'), ("float", "1.5", "1.5"), ("whole_float", "2.0", "2.0"),
                ("boolean", "true", "true"), ("null", "null", "null"),
            ]
        },
        **{
            f"retired_ids_{name}": (
                f'{{"ids": {text}, "kind": "retire"}}',
                f"ValueError: retired ids {shown} are not a list of integers",
            )
            for name, text, shown in [
                ("of_text", '["0"]', '["0"]'), ("of_a_boolean", "[false]", "[false]"),
                ("of_a_float", "[0.0]", "[0.0]"), ("as_a_string", '"01"', '"01"'),
                ("as_an_object", '{"0": 1}', '{"0": 1}'),
            ]
        },
    },
}


def _store_lines(store, tmp_path):
    """A two-line log of the store's kind, and its path."""
    if store == "rules":
        path = tmp_path / "rules.jsonl"
        db = RulesDatabase(path)
        db.store(Objective.MISSION_TIME, "one")
        db.store(Objective.MISSION_TIME, "two")
    else:
        path = tmp_path / "exp.jsonl"
        _two_record_store(path)
    return path, path.read_text(encoding="utf-8").splitlines()


_STORES = {"rules": RulesDatabase, "experience": ExperienceDatabase}


class TestWrongShapeLines:
    """A line that is JSON but not one of the store's records fails the load
    with one `CorruptLogError` naming the file and the line number, wherever
    it is; only a torn final line is ever skipped."""

    CASES = [(store, name) for store, lines in WRONG_SHAPE_LINES.items() for name in lines]

    @pytest.mark.parametrize("store, name", CASES, ids=[f"{s}-{n}" for s, n in CASES])
    @pytest.mark.parametrize("where", ["middle", "last", "last_without_newline"])
    def test_load_names_the_file_and_line(self, tmp_path, store, name, where):
        path, (first, second) = _store_lines(store, tmp_path)
        bad, names = WRONG_SHAPE_LINES[store][name]
        lines = [first, bad, second] if where == "middle" else [first, second, bad]
        text = "\n".join(lines) + ("" if where == "last_without_newline" else "\n")
        path.write_text(text, encoding="utf-8")
        number = lines.index(bad) + 1
        with pytest.raises(CorruptLogError) as caught:
            _STORES[store](path)
        message = str(caught.value)
        assert message.startswith(f"{path}, line {number}: not a record: ")
        assert names in message
        assert "\n" not in message
        assert path.read_text(encoding="utf-8") == text

    def test_text_that_is_not_json_names_the_line(self, tmp_path):
        path, (first, second) = _store_lines("experience", tmp_path)
        _write_lines(path, [first, "", "not json", second])
        with pytest.raises(CorruptLogError, match=re.escape(f"{path}, line 3: not JSON: ")):
            ExperienceDatabase(path)

    @pytest.mark.parametrize("store", list(_STORES))
    def test_json_nested_too_deeply_names_the_line(self, tmp_path, store):
        path, (first, second) = _store_lines(store, tmp_path)
        _write_lines(path, [first, DEEPLY_NESTED, second])
        with pytest.raises(CorruptLogError, match=re.escape(f"{path}, line 2: not JSON: maximum recursion")):
            _STORES[store](path)


class TestFailedLoadLeavesTheLog:
    """A load that fails on a bad middle line sets no repair for the next
    append, even with a torn final line after it, and rewrites nothing."""

    @pytest.mark.parametrize("bad", ['{"kind": "experience"}', '{"emb_humans": [0.25, 0.'])
    def test_no_repair_and_no_rewrite(self, tmp_path, bad):
        path, (first, second) = _store_lines("experience", tmp_path)
        path.write_text(f"{first}\n{bad}\n{second}\n" + '{"emb_humans": [0.25, 0.', encoding="utf-8")
        before = path.read_bytes()
        log = retrieval._AppendLog(path)
        with pytest.raises(CorruptLogError, match="line 2"):
            list(log.read_all(retrieval._experience_record))
        assert log._repair is None
        with pytest.raises(CorruptLogError, match="line 2"):
            ExperienceDatabase(path)
        assert path.read_bytes() == before

    def test_a_bad_complete_final_line_sets_no_repair(self, tmp_path):
        path, (first, second) = _store_lines("experience", tmp_path)
        path.write_text(f"{first}\n{second}\n" + '{"kind": "experience"}', encoding="utf-8")
        log = retrieval._AppendLog(path)
        with pytest.raises(CorruptLogError, match="line 3"):
            list(log.read_all(retrieval._experience_record))
        assert log._repair is None


def _rewrite_record(path, record_id, **fields):
    """Replace fields of one stored record's JSON line."""
    lines = path.read_text(encoding="utf-8").splitlines()
    payloads = [json.loads(line) for line in lines]
    for payload in payloads:
        if payload["id"] == record_id:
            payload.update(fields)
    _write_lines(path, [json.dumps(payload, sort_keys=True) for payload in payloads])


_SCENARIO_TEXT = make_scenario().serialize()
_PLAN_TEXT = heuristic_allocate(
    make_scenario(), PreferenceVector.single(Objective.HUMAN_WORKLOAD)
).render()

# field overrides for stored record 1, and whether its scenario still decodes
CORRUPT_RECORDS = {
    "scenario_unparseable": ({"scenario": "Arena Side: 2000\nno teams here"}, False),
    "scenario_not_canonical": ({"scenario": _SCENARIO_TEXT.replace(": 2000", ": 2000.0")}, False),
    "scenario_not_text": ({"scenario": 7}, False),
    "scenario_a_list": ({"scenario": ["x" * 10_000]}, False),
    "plan_unparseable": ({"plan": "no assignments"}, True),
    "plan_invalid": ({"plan": "T_0: (UAV_0)\nT_1: (UGV_9)"}, True),
    "plan_not_canonical": ({"plan": "\n".join(reversed(_PLAN_TEXT.splitlines()))}, True),
    "plan_an_object": ({"plan": {"T_0": "UAV_0"}}, True),
}


class TestLazyRecords:
    """Loading a store decodes no scenario or plan; a record parses,
    validates and round-trip checks them on first read, naming itself when
    they are bad. Only a torn final line is ever skipped."""

    @pytest.fixture
    def parse_calls(self, monkeypatch):
        calls = []
        parse_scenario = MissionScenario.parse.__func__
        parse_plan = retrieval.parse_ita_plan

        def counting_scenario(cls, text):
            calls.append("scenario")
            return parse_scenario(cls, text)

        def counting_plan(text, scenario):
            calls.append("plan")
            return parse_plan(text, scenario)

        monkeypatch.setattr(MissionScenario, "parse", classmethod(counting_scenario))
        monkeypatch.setattr(retrieval, "parse_ita_plan", counting_plan)
        return calls

    def test_loading_900_records_parses_nothing(self, tmp_path, parse_calls):
        path = tmp_path / "exp.jsonl"
        _store_one(ExperienceDatabase(path), Objective.MISSION_TIME)
        payload = json.loads(path.read_text(encoding="utf-8"))
        _write_lines(path, [json.dumps(dict(payload, id=i), sort_keys=True) for i in range(900)])
        parse_calls.clear()
        db = ExperienceDatabase(path)
        assert len(db) == 900
        assert parse_calls == []
        record = db.records()[899]
        assert record.plan.render() == record.plan_text
        assert record.scenario.serialize() == record.scenario_text
        record.plan
        assert parse_calls == ["scenario", "plan"]  # decoded once, then cached

    def test_store_keeps_the_given_objects(self, tmp_path, shared_plan, parse_calls):
        """`store` keeps the given plan as decoded; the scenario, which would
        hold its text a second time, is parsed once, on first read."""
        db = ExperienceDatabase(tmp_path / "exp.jsonl")
        scenario = make_scenario()
        record = db.store(
            Objective.MISSION_TIME, scenario, shared_plan, PerformanceRecord(5, 100, 0.1),
            embed_scenario_sections(scenario, HashedEmbedder(dim=16)),
        )
        assert record.plan is shared_plan
        assert "scenario" not in vars(record)
        assert parse_calls == []
        assert record.scenario == scenario and record.scenario is not scenario
        assert record.scenario is record.scenario
        assert parse_calls == ["scenario"]

    def test_reload_equals_stored_records(self, tmp_path):
        path = tmp_path / "exp.jsonl"
        db = _two_record_store(path)
        reloaded = ExperienceDatabase(path)
        assert reloaded.records() == db.records()
        for loaded, stored in zip(reloaded.records(), db.records()):
            assert (loaded.scenario, loaded.plan) == (stored.scenario, stored.plan)
        assert ExperienceDatabase(path).records() == db.records()  # decoding changes no field

    @pytest.mark.parametrize("corruption", CORRUPT_RECORDS, ids=list(CORRUPT_RECORDS))
    def test_corrupt_record_loads_and_fails_on_first_read(self, tmp_path, corruption):
        path = tmp_path / "exp.jsonl"
        _two_record_store(path)
        fields, scenario_decodes = CORRUPT_RECORDS[corruption]
        _rewrite_record(path, 1, **fields)
        with open(path, "ab") as handle:
            handle.write(b'{"emb_humans": [0.25, 0.')
        db = ExperienceDatabase(path)
        assert [r.id for r in db.records()] == [0, 1]  # only the torn tail is skipped
        good, bad = db.records()
        mission_time = PreferenceVector.single(Objective.MISSION_TIME)
        assert good.plan == heuristic_allocate(make_scenario(), mission_time)
        with pytest.raises(ValueError, match="experience record 1"):
            bad.plan
        if scenario_decodes:
            assert bad.scenario == make_scenario()
        else:
            with pytest.raises(ValueError, match="experience record 1"):
                bad.scenario

    @pytest.mark.parametrize("corruption", CORRUPT_RECORDS, ids=list(CORRUPT_RECORDS))
    def test_infer_names_a_corrupt_exemplar(self, tmp_path, corruption):
        path = tmp_path / "exp.jsonl"
        _two_record_store(path)
        _rewrite_record(path, 1, **CORRUPT_RECORDS[corruption][0])
        db = ExperienceDatabase(path)
        prefs = PreferenceVector.single(Objective.MISSION_TIME)

        def run(m):
            config = RetrievalConfig(exp_k=2, exp_m=m, embedder=HashedEmbedder(dim=16))
            return infer(make_scenario(), prefs, RulesDatabase(), db, StubProvider(), config)

        assert run(m=1).exemplar_ids == (0,)  # the corrupt record is not used
        with pytest.raises(ValueError, match="experience record 1"):
            run(m=2)

    def test_infer_raises_a_corrupt_exemplar_as_a_corrupt_log_naming_the_store(self, tmp_path):
        path = tmp_path / "exp.jsonl"
        _two_record_store(path)
        _rewrite_record(path, 1, plan="T_0: (NOPE_9)")
        config = RetrievalConfig(exp_k=2, exp_m=2, embedder=HashedEmbedder(dim=16))
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        with pytest.raises(CorruptLogError) as caught:
            infer(make_scenario(), prefs, RulesDatabase(), ExperienceDatabase(path), StubProvider(), config)
        assert str(caught.value).startswith(f"{path}: experience record 1: bad plan: ")


class TestReusedIds:
    """A load refuses a record or rule id that an earlier line of the log
    already holds, as a `CorruptLogError` naming the line: two writers on one
    log number their records from counts of their own."""

    @pytest.mark.parametrize("snapshot", [False, True], ids=["parsed", "after_a_snapshot"])
    def test_an_experience_id_is_not_loaded_twice(self, tmp_path, snapshot):
        path = tmp_path / "exp.jsonl"
        first, second = ExperienceDatabase(path), ExperienceDatabase(path)
        _store_one(first, Objective.MISSION_TIME)
        if snapshot:
            ExperienceDatabase(path)  # snapshots the first line
            assert retrieval._snapshot_path(path).is_file()
        _store_one(second, Objective.HUMAN_WORKLOAD)
        message = f"{path}, line 2: not a record: ValueError: record id 0 is reused"
        with pytest.raises(CorruptLogError, match=re.escape(message)):
            ExperienceDatabase(path)

    @pytest.mark.parametrize("retired", [False, True], ids=["live", "retired"])
    def test_a_rule_id_is_not_loaded_twice(self, tmp_path, retired):
        path = tmp_path / "rules.jsonl"
        first, second = RulesDatabase(path), RulesDatabase(path)
        first.store(Objective.MISSION_TIME, "one")
        if retired:
            first.replace_objective(Objective.MISSION_TIME, ["two"])
        second.store(Objective.HUMAN_WORKLOAD, "other")
        line = 4 if retired else 2
        message = f"{path}, line {line}: not a record: ValueError: rule id 0 is reused"
        with pytest.raises(CorruptLogError, match=re.escape(message)):
            RulesDatabase(path)


@pytest.fixture
def parsed_ids(monkeypatch):
    """The id of every experience-log line a load parses, in order; the
    records `store` builds are not counted."""
    ids = []
    read_all = retrieval._AppendLog.read_all

    def counting(log, convert, prefix=None):
        def parse(payload):
            ids.append(payload["id"])
            return convert(payload)

        return read_all(log, parse, prefix)

    monkeypatch.setattr(retrieval._AppendLog, "read_all", counting)
    return ids


class TestSnapshot:
    """A load restores the records of the log prefix its snapshot covers and
    parses only the lines after it; one that parsed whole lines the snapshot
    did not cover writes a new one. A snapshot that cannot be used costs a
    full parse, logged at debug level only."""

    def test_a_load_parses_only_the_lines_after_the_snapshot(self, tmp_path, parsed_ids):
        path = tmp_path / "exp.jsonl"
        db = _two_record_store(path)
        assert not retrieval._snapshot_path(path).exists()  # appends write none
        assert ExperienceDatabase(path).records() == db.records()
        assert parsed_ids == [0, 1]
        assert ExperienceDatabase(path).records() == db.records()
        assert parsed_ids == [0, 1]
        _store_one(db, Objective.TASK_PERFORMANCE)
        assert ExperienceDatabase(path).records() == db.records()
        assert ExperienceDatabase(path).records() == db.records()
        assert parsed_ids == [0, 1, 2]

    def test_an_unterminated_last_line_is_parsed_every_time(self, tmp_path, parsed_ids):
        path = tmp_path / "exp.jsonl"
        db = _two_record_store(path)
        path.write_bytes(path.read_bytes().rstrip(b"\n"))
        assert ExperienceDatabase(path).records() == db.records()
        assert ExperienceDatabase(path).records() == db.records()
        assert parsed_ids == [0, 1, 1]

    def test_a_corrupt_snapshot_is_logged_at_debug_level_only(self, tmp_path, caplog):
        path = tmp_path / "exp.jsonl"
        db = _two_record_store(path)
        ExperienceDatabase(path)
        snapshot = retrieval._snapshot_path(path)
        data = bytearray(snapshot.read_bytes())
        data[-1] ^= 1
        snapshot.write_bytes(bytes(data))
        with caplog.at_level(logging.DEBUG, logger="rebel.retrieval"):
            assert ExperienceDatabase(path).records() == db.records()
        assert [(r.levelno, r.getMessage().split(": ")[:2]) for r in caplog.records] == [
            (logging.DEBUG, [str(snapshot), "not used, the whole log is parsed"])
        ]
        assert snapshot.read_bytes() != data  # the full parse wrote a new one


# built once, not on every draw, since hypothesis checks each new strategy;
# the texts are any Unicode, with a lone surrogate in about half their characters
_ANY_TEXT = st.text(st.characters() | st.integers(0xD800, 0xDFFF).map(chr), max_size=5)
_STORED_SCENARIO = st.just(_SCENARIO_TEXT) | _ANY_TEXT
_STORED_PLAN = st.just(_PLAN_TEXT) | _ANY_TEXT
_SNAPSHOT_SECTIONS = {
    dim: st.lists(
        st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0, 5e-324]),
        min_size=dim, max_size=dim,
    )
    for dim in (1, 2, 3)
}
_PERFORMANCE_VALUE = st.floats(0, 1e6) | st.sampled_from([-0.0, 5e-324])
_UTILIZATION = st.floats(0, 1)
_OBJECTIVE_CODE = st.sampled_from([o.short for o in Objective])
_RECORD_IDS = st.lists(st.integers(-3, 30), unique=True, max_size=7)
_SPOILERS = st.sampled_from(["none"] * 6 + ["scenario", "id"])
_TAILS = st.sampled_from(["none", "torn", "unterminated", "blank", "a_reused_id"])
_SNAPSHOT_FAULTS = st.sampled_from(["none", "deleted", "truncated", "flipped", "a_directory", "stale"])


def _experience_payload(draw, record_id: int, dim: int) -> dict:
    """One experience-log line's payload at `dim`, drawn with `draw`; its
    scenario and plan texts need not decode, as a load admits them
    undecoded."""
    section = _SNAPSHOT_SECTIONS[dim]
    performance = PerformanceRecord(draw(_PERFORMANCE_VALUE), draw(_PERFORMANCE_VALUE), draw(_UTILIZATION))
    return {
        "kind": "experience", "id": record_id, "objective": draw(_OBJECTIVE_CODE),
        "scenario": draw(_STORED_SCENARIO), "plan": draw(_STORED_PLAN),
        "performance": performance.serialize(),
        "emb_humans": draw(section), "emb_robots": draw(section), "emb_tasks": draw(section),
        "fallback": draw(st.booleans()),
    }


@st.composite
def _snapshot_cases(draw):
    """(head lines, lines appended after the head is snapshotted, the tail
    written after them, what is done to the snapshot, a position in it, a
    byte mask). In one draw of eight a record cannot be snapshotted: its
    scenario is a number, or its id lies past int64."""
    dim = draw(st.integers(1, 3))
    payloads = [_experience_payload(draw, record_id, dim) for record_id in draw(_RECORD_IDS)]
    spoiler = draw(_SPOILERS)
    if payloads and spoiler == "scenario":
        payloads[-1]["scenario"] = 7
    elif payloads and spoiler == "id":
        payloads[-1]["id"] = 2**70
    lines = [json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n" for payload in payloads]
    split = draw(st.integers(0, len(lines)))
    return (
        lines[:split], lines[split:], draw(_TAILS), draw(_SNAPSHOT_FAULTS),
        draw(st.integers(0, 2**20)), draw(st.integers(1, 255)),
    )


def _load_state(path: Path):
    """What a load of `path` gives (its records field by field, float bits
    included, and the store's dim, dedup keys, next id and repair), or its
    error; with what it wrote to stderr and logged above debug level."""
    logged = []
    handler = logging.Handler(logging.INFO)
    handler.emit = lambda record: logged.append((record.levelno, record.getMessage()))
    logger = logging.getLogger("rebel.retrieval")
    logger.addHandler(handler)
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            db = ExperienceDatabase(path)
        state = (
            db.records(),
            [
                (r.id, type(r.id), r.objective, r.scenario_text, r.plan_text, r.embedding,
                 struct.pack("<3d", r.performance.accuracy_points, r.performance.mission_seconds,
                             r.performance.human_utilization), r.fallback, type(r.fallback))
                for r in db.records()
            ],
            db.dim, db._dedup, db._next_id, db._log._repair,
        )
    except CorruptLogError as exc:
        state = ("error", str(exc))
    finally:
        logger.removeHandler(handler)
    return state, stderr.getvalue(), logged


class TestSnapshotEqualsAFullParse:
    @settings(max_examples=100, deadline=None)
    @given(_snapshot_cases())
    def test_a_load_with_the_snapshot_equals_one_without_it(self, case):
        head, appended, tail, fault, position, mask = case
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "exp.jsonl"
            snapshot = retrieval._snapshot_path(path)
            if fault == "a_directory":  # unwritable, even by root
                snapshot.mkdir()
            path.write_bytes(b"".join(head))
            _load_state(path)  # snapshots the head
            with open(path, "ab") as handle:
                handle.write(b"".join(appended))
                handle.write({"torn": b'{"emb_humans": [0.25, 0.', "blank": b"\n \n",
                              "a_reused_id": (head + appended + [b""])[0]}.get(tail, b""))
            if tail == "unterminated":
                path.write_bytes(path.read_bytes().removesuffix(b"\n"))
            if fault == "stale":
                path.write_bytes(path.read_bytes().partition(b"\n")[2])
            if snapshot.is_file():
                data = bytearray(snapshot.read_bytes())
                if fault == "deleted":
                    snapshot.unlink()
                elif fault == "truncated":
                    snapshot.write_bytes(data[: position % len(data)])
                elif fault == "flipped":
                    data[position % len(data)] ^= mask
                    snapshot.write_bytes(bytes(data))
            log = path.read_bytes()
            loaded = _load_state(path)
            again = _load_state(path)  # from the snapshot that load wrote, if it could
            assert set(os.listdir(directory)) <= {path.name, snapshot.name}  # no temporary file is left
            if snapshot.is_dir():
                snapshot.rmdir()
            else:
                snapshot.unlink(missing_ok=True)
            parsed = _load_state(path)
            assert path.read_bytes() == log
        assert loaded == parsed
        assert again == parsed
        assert parsed[1] == ""


# computed with the generator-expression sums and per-token sha256 calls that
# dense_score, the unit scaling of a vector and HashedEmbedder used before
GOLDEN_EMBEDDING_DIGEST = "691e64b6ab212166b5dbf7a0867b3f45a2d71b4780649a3a47127ceb2198c27b"


def _embedding_digest() -> str:
    """sha256 over the exact float64 bits of scenario section embeddings and of
    rule-to-query dense scores, for seeded scenarios and the stub rules."""
    embedder = HashedEmbedder()
    rule_vectors = [embedder.embed(text) for texts in STUB_RULES.values() for text in texts]
    queries = [objectives_text(PreferenceVector.single(obj)) for obj in Objective]
    queries.append(objectives_text(PreferenceVector.of(TP=0.5, MT=0.25, HW=0.25)))
    rng = random.Random(8)
    digest = hashlib.sha256()
    for seed in range(40):
        scenario = random_scenario(rng.randint(1, 6), rng.randint(1, 8), rng.randint(1, 30), seed)
        for section in embed_scenario_sections(scenario, embedder):
            digest.update(struct.pack(f"<{len(section)}d", *section))
        queries.append(scenario.render_spf())
    for query in queries:
        query_vector = embedder.embed(query)
        scores = [dense_score(query_vector, vector) for vector in rule_vectors]
        digest.update(struct.pack(f"<{len(scores)}d", *scores))
    return digest.hexdigest()


def test_embeddings_and_rule_scores_are_bit_identical():
    """Pinned before the embedder and `dense_score` were rewritten for speed
    (memoized token hashes, map-based sums): any drift, by even one ulp,
    changes the digest."""
    assert _embedding_digest() == GOLDEN_EMBEDDING_DIGEST


# Built once, not on every draw. A text is one `st.binary` draw mapped onto
# an alphabet of ASCII letters and digits (so digit runs), separators, and
# Unicode that lowercases to ASCII (the Kelvin sign, dotted capital I), to
# non-ASCII letters, or not at all (a lone surrogate).
_ALPHABET = "aZq09 9-_.,:[\u212a\u0130\u00e9\u00dc\u03a3\U0001f600\ud800"
_EMBED_TEXT = st.binary(max_size=40).map(lambda raw: "".join(_ALPHABET[b % len(_ALPHABET)] for b in raw))
_EMBED_TEXTS = st.lists(_EMBED_TEXT, max_size=5)
_EMBED_DIM = st.integers(1, 300)
# finite elements, -0.0 and subnormals (whose squares underflow to zero);
# a row's elements past those drawn take one fill value, often a zero
_UNIT_ELEMENTS = st.floats(-1e150, 1e150) | st.sampled_from([-0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072009e-308])
_UNIT_FILL = st.sampled_from([0.0, -0.0, 5e-324, 0.5])
_UNIT_SHAPE = st.tuples(st.integers(1, 4), st.integers(1, 300))
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf, 1e200, -1e300])


def _bits(rows) -> list[bytes]:
    return [np.asarray(row, np.float64).tobytes() for row in rows]


def _oracle_rows(rows):
    """`ref_unit_vector` of each row, or the message of the first row it refuses."""
    try:
        return [ref_unit_vector(row) for row in rows.tolist()]
    except ValueError as exc:
        return str(exc)


class TestBatchEmbedding:
    """`HashedEmbedder.embed_batch`, `embed` and `unit_rows` give the float64
    bits of the per-text Python versions they replaced (`ref_hashed_embed`,
    `ref_unit_vector`), and every embedding call of a query is one call."""

    @settings(max_examples=60, deadline=None)
    @given(texts=_EMBED_TEXTS, dim=_EMBED_DIM)
    def test_hashed_rows_equal_the_per_text_oracle(self, texts, dim):
        embedder = HashedEmbedder(dim=dim)
        want = [ref_hashed_embed(text, dim) for text in texts]
        rows = embedder.embed_batch(texts)
        assert rows.shape == (len(texts), dim) and rows.dtype == np.float64
        assert _bits(rows) == _bits(want)
        assert _bits(embed_all(embedder, texts)) == _bits(want)
        assert _bits([embedder.embed(text) for text in texts]) == _bits(want)
        assert all(type(v) is float for text in texts[:1] for v in embedder.embed(text))

    @settings(max_examples=60, deadline=None)
    @given(shape=_UNIT_SHAPE, data=st.data())
    def test_unit_scaling_equals_the_per_vector_oracle(self, shape, data):
        rows = data.draw(arrays(np.float64, shape, elements=_UNIT_ELEMENTS, fill=_UNIT_FILL))
        self._check(rows)

    @settings(max_examples=40, deadline=None)
    @given(shape=_UNIT_SHAPE, data=st.data())
    def test_a_non_finite_or_overflowing_row_raises_the_oracle_error(self, shape, data):
        rows = data.draw(arrays(np.float64, shape, elements=_UNIT_ELEMENTS, fill=_UNIT_FILL))
        places = st.tuples(st.integers(0, shape[0] - 1), st.integers(0, shape[1] - 1))
        for row, column in data.draw(st.lists(places, min_size=1, max_size=3)):
            rows[row, column] = data.draw(_NON_FINITE)
        assert isinstance(_oracle_rows(rows), str)
        self._check(rows)

    @staticmethod
    def _check(rows):
        want = _oracle_rows(rows)
        if isinstance(want, str):
            with pytest.raises(ValueError) as raised:
                unit_rows(rows)
            assert str(raised.value) == want
        else:
            assert _bits(unit_rows(rows)) == _bits(want)

    def test_an_empty_vector_and_an_empty_batch(self):
        with pytest.raises(ValueError, match="^cannot normalize a vector of norm 0.0$"):
            unit_rows(np.zeros((2, 0)))
        assert unit_rows(np.zeros((0, 4))).shape == (0, 4)
        assert HashedEmbedder(dim=8).embed_batch([]).shape == (0, 8)
        assert embed_all(CountingEmbedder(dim=8), []).shape == (0, 0)

    def test_a_per_text_embedder_is_called_once_per_text_in_order(self):
        embedder, texts = CountingEmbedder(dim=32), ["b a", "", "a b c", "b a"]
        rows = embed_all(embedder, texts)
        assert embedder.texts == texts
        assert _bits(rows) == _bits(HashedEmbedder(dim=32).embed_batch(texts))

    @pytest.mark.parametrize("lengths", [(3, 2, 3), (2, 3, 3), (3, 3, 4)])
    def test_a_per_text_embedder_of_two_lengths_is_a_dimension_mismatch(self, lengths):
        scenario = make_scenario()
        table = {text: (1.0,) * n for text, n in zip(scenario.sections, lengths)}
        embedder = FakeEmbedder(table)
        with pytest.raises(ValueError, match=r"^embedding dimension mismatch: \d vs \d$"):
            embed_all(embedder, scenario.sections)
        for embed in (embed_scenario_sections, retrieval._section_queries):
            with pytest.raises(ValueError, match="^embedding dimension mismatch: "):
                embed(scenario, embedder)
        db = ExperienceDatabase()
        store_mission(db, Objective.MISSION_TIME, scenario, PerformanceRecord(5, 100, 0.1), HashedEmbedder(dim=3))
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        with pytest.raises(ValueError, match="^embedding dimension mismatch: "):
            retrieve_experiences(scenario, prefs, db, k=1, m=1, embedder=embedder)
        rules = RulesDatabase()
        rules.store(Objective.MISSION_TIME, scenario.sections[0])
        rules.store(Objective.MISSION_TIME, scenario.sections[1])
        with pytest.raises(ValueError, match="^embedding dimension mismatch: "):
            ensemble_retrieve(scenario.sections[2], rules, k=1, embedder=embedder)

    def test_each_query_embeds_in_one_batch_call(self):
        batches = []

        @dataclass(frozen=True)
        class Batching(HashedEmbedder):
            def embed(self, text):
                raise AssertionError("embedded one text alone")

            def embed_batch(self, texts):
                batches.append(list(texts))
                return super().embed_batch(texts)

        embedder = Batching(dim=64)
        rules = TestRuleEmbeddingCache().rules_db()
        ensemble_retrieve("faster robots", rules, k=2, embedder=embedder)
        ensemble_retrieve("another query", rules, k=2, embedder=embedder)
        assert batches == [[*TestRuleEmbeddingCache.TEXTS, "faster robots"], ["another query"]]
        batches.clear()
        db, base = toy_experience_db(HashedEmbedder(dim=64))
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        got = retrieve_experiences(base, prefs, db, k=3, m=2, embedder=embedder)
        assert batches == [list(base.sections)]
        assert got == retrieve_experiences(base, prefs, db, k=3, m=2, embedder=HashedEmbedder(dim=64))


# rows of 1-4 vectors in one or three sections, as the rules and the
# experience store score them
_COSINE_SHAPE = st.tuples(st.integers(1, 4), st.sampled_from([1, 3]), st.integers(0, 300))


def _oracle_cosines(rows, query):
    """`ref_dense_score` of each vector in `rows` with its query section, or
    the message of the first refusal: every query section is checked before
    any row, as `cosines` checks them."""
    try:
        for q in query:
            ref_dense_score(q, [1.0] * len(rows[0][0]))
        return [[ref_dense_score(q, d) for q, d in zip(query, row)] for row in rows]
    except ValueError as exc:
        return str(exc)


class TestCosines:
    """`cosines`, the one cosine of both stores, gives the bits and the
    errors of the plain-loop `ref_dense_score` for every vector, and
    `dense_score` is its one-row case."""

    @staticmethod
    def _check(rows, query):
        want = _oracle_cosines(rows.tolist(), query.tolist())
        if isinstance(want, str):
            with pytest.raises(ValueError) as raised:
                cosines(rows, query)
            assert str(raised.value) == want
        else:
            got = cosines(rows, query)
            assert got.shape == rows.shape[:-1]
            assert _bits(got) == _bits(want)
        for q, d in zip(query.tolist(), rows[0].tolist()):
            try:
                expected = ref_dense_score(q, d)
            except ValueError as exc:
                with pytest.raises(ValueError) as raised:
                    dense_score(q, d)
                assert str(raised.value) == str(exc)
            else:
                assert _bits([dense_score(q, d)]) == _bits([expected])

    @settings(max_examples=60, deadline=None)
    @given(shape=_COSINE_SHAPE, data=st.data())
    def test_every_cosine_equals_the_oracle(self, shape, data):
        rows = data.draw(arrays(np.float64, shape, elements=_UNIT_ELEMENTS, fill=_UNIT_FILL))
        query = data.draw(arrays(np.float64, shape[1:], elements=_UNIT_ELEMENTS, fill=_UNIT_FILL))
        self._check(rows, query)

    @settings(max_examples=40, deadline=None)
    @given(shape=_COSINE_SHAPE, data=st.data())
    def test_a_bad_vector_raises_the_oracle_error(self, shape, data):
        rows = data.draw(arrays(np.float64, shape, elements=_UNIT_ELEMENTS, fill=_UNIT_FILL))
        query_dim = data.draw(st.sampled_from([shape[2], shape[2] + 1, max(shape[2] - 1, 0)]))
        query = data.draw(arrays(np.float64, (shape[1], query_dim), elements=_UNIT_ELEMENTS, fill=_UNIT_FILL))
        for array in (rows, query):
            if array.shape[-1] and data.draw(st.booleans()):
                place = tuple(data.draw(st.integers(0, size - 1)) for size in array.shape)
                array[place] = data.draw(_NON_FINITE)
        self._check(rows, query)

    @pytest.mark.parametrize(
        "q, d, want",
        [
            ((1.0, -0.0), (-0.0, 1.0), "0.0"),  # every product -0.0: the sum starts from 0.0
            ((5e-324, 1.0), (-0.5, 1e-300), "2e-300"),
            ((1e150, -1e150), (1e150, 1e150), "0.0"),
            ((0.0, 0.0), (0.6, 0.8), "cannot score a vector of norm 0.0"),
            ((0.6, 0.8), (-0.0, 5e-324), "cannot score a vector of norm 0.0"),  # squares underflow
            ((math.nan, 1.0), (0.6, 0.8), "cannot score a vector of norm nan"),
            ((0.6, 0.8), (1.0, -math.inf), "cannot score a vector of norm inf"),
            ((1e200, 1.0), (0.6, 0.8), "cannot score a vector of norm inf"),
            ((0.0, math.nan), (1e200, 0.0), "cannot score a vector of norm nan"),  # the query first
            ((), (), "cannot score a vector of norm 0.0"),
            ((1.0, 0.0), (1.0, 0.0, 0.0), "embedding dimension mismatch: 2 vs 3"),
            ((1.0, math.nan, 0.0), (1.0,), "embedding dimension mismatch: 3 vs 1"),
        ],
        ids=["negative-zeros", "subnormal", "1e150", "zero-query", "underflow", "nan", "inf", "overflow",
             "query-first", "empty", "wrong-length", "wrong-length-first"],
    )
    def test_each_named_case(self, q, d, want):
        try:
            got = repr(ref_dense_score(q, d))
        except ValueError as exc:
            got = str(exc)
        assert got == want
        self._check(np.array([[d]], np.float64).reshape(1, 1, len(d)), np.array([q], np.float64))

    @settings(max_examples=40, deadline=None)
    @given(shape=_COSINE_SHAPE, data=st.data())
    def test_the_rules_store_ranks_by_the_oracle_or_raises_its_error(self, shape, data):
        n, _, dim = shape
        broken = data.draw(st.booleans())
        dim = dim if broken else max(dim, 1)
        vectors = data.draw(arrays(np.float64, (n, dim), elements=_UNIT_ELEMENTS, fill=_UNIT_FILL))
        query_dim = data.draw(st.sampled_from([dim, dim + 1])) if broken else dim
        query = data.draw(arrays(np.float64, (query_dim,), elements=_UNIT_ELEMENTS, fill=_UNIT_FILL))
        for array in (vectors, query) if broken else ():
            if array.size and data.draw(st.booleans()):
                place = tuple(data.draw(st.integers(0, size - 1)) for size in array.shape)
                array[place] = data.draw(_NON_FINITE)
        if not broken:
            vectors[:, 0] = query[0] = 0.5  # no norm is zero, and none is past the float range
        texts = [f"rule {i}" for i in range(n)]
        table = dict(zip(texts, map(tuple, vectors.tolist())))
        embedder = RawEmbedder({**table, "query": tuple(query.tolist()), "again": tuple(query.tolist())})
        db = RulesDatabase()
        for text in texts:
            db.store(Objective.MISSION_TIME, text)
        try:
            want = ref_fusion_order("query", db.rules(), embedder, 0.5, 60.0, 1.5, 0.75, ref_dense_score)
        except ValueError as exc:
            want = str(exc)
        # the first query embeds every rule; the second scores the kept embeddings
        for text in ("query", "again"):
            if isinstance(want, str):
                with pytest.raises(ValueError) as raised:
                    ensemble_retrieve(text, db, k=n, embedder=embedder)
                assert str(raised.value) == want
            else:
                assert [r.id for r in ensemble_retrieve(text, db, k=n, embedder=embedder)] == want
