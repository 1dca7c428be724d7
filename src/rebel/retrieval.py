"""Rule and experience stores with hybrid lexical + embedding retrieval.

Rules are ranked by a fusion of BM25 keyword scores and embedding cosine
similarity (reciprocal rank fusion). Experiences are retrieved by summing
per-section cosine similarities of the scenario's three attribute
dictionaries, then re-ranked by how well each stored mission served the
requested preference weights. Both stores persist as append-only JSON-lines
files that reload bit-identically, embedding vectors included.
"""

from __future__ import annotations

import json
import logging
import math
import os
import re
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .core import (
    ItaPlan,
    MissionScenario,
    NormalizationBounds,
    Objective,
    PerformanceRecord,
    PreferenceVector,
    aggregate_objective,
)
from .prompt import parse_ita_plan

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; deterministic."""
    return _TOKEN_RE.findall(text.lower())


@dataclass(frozen=True)
class Bm25Params:
    """Term-frequency saturation (k1) and length normalization (b)."""

    k1: float = 1.5
    b: float = 0.75

    def __post_init__(self) -> None:
        if self.k1 <= 0:
            raise ValueError("k1 must be > 0")
        if not (0.0 <= self.b <= 1.0):
            raise ValueError("b must lie in [0, 1]")


@dataclass(frozen=True)
class FusionParams:
    """Sparse/dense mixing proportion and the rank-smoothing constant."""

    alpha: float = 0.5
    c: float = 60.0

    def __post_init__(self) -> None:
        if not (0.0 <= self.alpha <= 1.0):
            raise ValueError("alpha must lie in [0, 1]")
        if self.c <= 0:
            raise ValueError("c must be > 0")


@dataclass(frozen=True)
class RuleEntry:
    """One objective-tagged prescriptive allocation rule, stored as plain text."""

    id: int
    objective: Objective
    text: str

    def __post_init__(self) -> None:
        if not self.text.strip():
            raise ValueError("rule text must be non-empty")


@dataclass(frozen=True)
class CorpusStats:
    """Corpus-level token statistics backing the BM25 score."""

    total: int
    doc_freq: dict[str, int]
    lengths: dict[int, int]
    avg_length: float

    @classmethod
    def from_rules(cls, rules: Sequence[RuleEntry]) -> "CorpusStats":
        doc_freq: Counter[str] = Counter()
        lengths: dict[int, int] = {}
        for rule in rules:
            tokens = tokenize(rule.text)
            lengths[rule.id] = len(tokens)
            doc_freq.update(set(tokens))
        avg = sum(lengths.values()) / len(lengths) if lengths else 0.0
        return cls(total=len(rules), doc_freq=dict(doc_freq), lengths=lengths, avg_length=avg)


def idf(term: str, stats: CorpusStats) -> float:
    """ln((N - n + 0.5) / (n + 0.5)) with n the rule count containing term."""
    if stats.total < 1:
        raise ValueError("corpus must contain at least one rule")
    n = stats.doc_freq.get(term, 0)
    return math.log((stats.total - n + 0.5) / (n + 0.5))


def bm25_score(
    query_tokens: Sequence[str],
    rule: RuleEntry,
    stats: CorpusStats,
    params: Bm25Params = Bm25Params(),
) -> float:
    """Sum of saturated, length-normalized term contributions over the query.

    Query tokens are scored as given, so repeated tokens contribute repeatedly.
    """
    if stats.total < 1:
        raise ValueError("corpus must contain at least one rule")
    rule_tokens = tokenize(rule.text)
    tf = Counter(rule_tokens)
    length = len(rule_tokens)
    # avg length can only be 0 when no rule has tokens; length matching then
    ratio = length / stats.avg_length if stats.avg_length > 0 else 1.0
    norm = 1.0 - params.b + params.b * ratio
    score = 0.0
    for term in query_tokens:
        freq = tf.get(term, 0)
        if freq == 0:
            continue
        score += idf(term, stats) * freq * (params.k1 + 1.0) / (freq + params.k1 * norm)
    return score


def dense_score(q: Sequence[float], d: Sequence[float]) -> float:
    """Cosine similarity; equals the dot product for unit-norm inputs."""
    if len(q) != len(d):
        raise ValueError(f"embedding dimension mismatch: {len(q)} vs {len(d)}")
    dot = sum(a * b for a, b in zip(q, d))
    nq = math.sqrt(sum(a * a for a in q))
    nd = math.sqrt(sum(b * b for b in d))
    if nq == 0 or nd == 0:
        raise ValueError("zero vectors carry no direction")
    return dot / (nq * nd)


class Embedder(Protocol):
    """Text to fixed-dimension unit vector."""

    def embed(self, text: str) -> tuple[float, ...]: ...


@dataclass(frozen=True)
class HashedEmbedder:
    """Hermetic embedder: L2-normalized hashed term-frequency vector.

    Token buckets come from a stable digest, so the output depends only on the
    text. All-zero vectors (empty text) map to the first basis vector.
    """

    dim: int = 256

    def embed(self, text: str) -> tuple[float, ...]:
        import hashlib

        counts = [0.0] * self.dim
        for token in tokenize(text):
            bucket = int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:4], "big")
            counts[bucket % self.dim] += 1.0
        if not any(counts):
            counts[0] = 1.0
        return unit_vector(counts)


def unit_vector(vec: Sequence[float]) -> tuple[float, ...]:
    norm = math.sqrt(sum(v * v for v in vec))
    if norm == 0:
        raise ValueError("cannot normalize the zero vector")
    return tuple(v / norm for v in vec)


def _ranks_best_first(scored: list[tuple[int, float]]) -> dict[int, int]:
    """1-based ranks, highest score first, ties broken by ascending id."""
    ordered = sorted(scored, key=lambda pair: (-pair[1], pair[0]))
    return {entry_id: position + 1 for position, (entry_id, _) in enumerate(ordered)}


def ensemble_retrieve(
    query_text: str,
    db: "RulesDatabase",
    k: int,
    fusion: FusionParams = FusionParams(),
    bm25: Bm25Params = Bm25Params(),
    embedder: Embedder | None = None,
) -> list[RuleEntry]:
    """Top-k rules under reciprocal rank fusion of sparse and dense rankings.

    Rule embeddings come from the store's per-embedder cache; only the query
    is embedded per call.
    """
    embedder = embedder or HashedEmbedder()
    rules, vectors = db._embedded_rules(embedder)
    if not rules:
        raise ValueError("rules database is empty")
    if k < 1:
        raise ValueError("k must be >= 1")

    stats = CorpusStats.from_rules(rules)
    query_tokens = tokenize(query_text)
    sparse_ranks = _ranks_best_first(
        [(r.id, bm25_score(query_tokens, r, stats, bm25)) for r in rules]
    )
    query_emb = embedder.embed(query_text)
    dense_ranks = _ranks_best_first(
        [(r.id, dense_score(query_emb, vec)) for r, vec in zip(rules, vectors)]
    )

    def fused(rule: RuleEntry) -> float:
        return fusion.alpha / (fusion.c + sparse_ranks[rule.id]) + (1.0 - fusion.alpha) / (
            fusion.c + dense_ranks[rule.id]
        )

    ranked = sorted(rules, key=lambda r: (-fused(r), r.id))
    return ranked[:k]


def embed_scenario_sections(
    scenario: MissionScenario, embedder: Embedder
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """Embed the three canonical attribute dictionaries independently."""
    return (
        unit_vector(embedder.embed(scenario.render_human_section())),
        unit_vector(embedder.embed(scenario.render_robot_section())),
        unit_vector(embedder.embed(scenario.render_task_section())),
    )


@dataclass(frozen=True)
class ExperienceRecord:
    """A stored mission: scenario, plan, outcome, plus section embeddings."""

    id: int
    objective: Objective
    scenario: MissionScenario
    plan: ItaPlan
    performance: PerformanceRecord
    emb_humans: tuple[float, ...]
    emb_robots: tuple[float, ...]
    emb_tasks: tuple[float, ...]
    fallback: bool = False


def retrieve_experiences(
    scenario: MissionScenario,
    prefs: PreferenceVector,
    db: "ExperienceDatabase",
    k: int,
    m: int,
    embedder: Embedder | None = None,
) -> list[ExperienceRecord]:
    """Top-k most similar stored missions, re-ranked by preference fit.

    Similarity is the sum of the three per-section cosines, scored at once
    against the store's cached matrix of unit section rows. The k candidates
    are then ordered by the weighted normalized objective score of their
    recorded performance (bounds taken over the candidates) and the best m
    returned. All ties, in similarity and in score, break toward the lower
    record id.
    """
    records, sections = db._scoring_snapshot()
    if not records:
        raise ValueError("experience database is empty")
    if m > k:
        raise ValueError("m must be <= k")
    embedder = embedder or HashedEmbedder()

    dim = sections.shape[1] // 3
    scores = np.zeros(len(records))
    for start, query in zip((0, dim, 2 * dim), embed_scenario_sections(scenario, embedder)):
        if len(query) != dim:
            raise ValueError(f"embedding dimension mismatch: {len(query)} vs {dim}")
        # the query sections are unit vectors already. A row-wise reduction
        # scores identical rows identically; BLAS gemv (`@`) does not, which
        # would break the id tie-break
        scores += np.einsum("ij,j->i", sections[:, start : start + dim], np.array(query))
    # rows are in id order, so a stable sort ranks by (-similarity, id)
    top_k = [records[row] for row in np.argsort(-scores, kind="stable")[:k]]

    bounds = NormalizationBounds.from_records([rec.performance for rec in top_k])
    reranked = sorted(
        top_k,
        key=lambda rec: (-aggregate_objective(rec.performance, prefs, bounds), rec.id),
    )
    return reranked[:m]


def _section_matrix(records: Sequence[ExperienceRecord]) -> np.ndarray:
    """Row i: record i's human, robot and task embeddings, each scaled to unit
    length, so a dot product with a unit query section is a cosine."""
    dim = len(records[0].emb_humans) if records else 0
    matrix = np.empty((len(records), 3 * dim))
    for row, rec in zip(matrix, records):
        for start, vec in zip((0, dim, 2 * dim), (rec.emb_humans, rec.emb_robots, rec.emb_tasks)):
            if len(vec) != dim:
                raise ValueError(f"embedding dimension mismatch: {len(vec)} vs {dim}")
            row[start : start + dim] = vec
    for start in (0, dim, 2 * dim):
        block = matrix[:, start : start + dim]
        norms = np.sqrt(np.einsum("ij,ij->i", block, block))
        if not norms.all():
            raise ValueError("zero vectors carry no direction")
        block /= norms[:, None]
    return matrix


class _AppendLog:
    """Append-only JSON-lines log with write-through durability. A torn final
    line (a crash mid-append) is skipped with a warning on load and cut off by
    the next append; a bad line anywhere else is an error."""

    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._repair: tuple[int, bytes] | None = None  # (truncate to, then write)

    def append(self, payload: dict) -> None:
        if self.path is None:
            return
        line = json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
        with self._lock:
            with open(self.path, "ab") as handle:
                if self._repair is not None:
                    size, prefix = self._repair
                    handle.truncate(size)
                    line = prefix + line
                    self._repair = None
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())

    def read_all(self) -> list[dict]:
        if self.path is None or not self.path.exists():
            return []
        data = self.path.read_bytes()
        *lines, tail = data.split(b"\n")  # tail: whatever follows the last newline
        payloads = [json.loads(line) for line in lines if line.strip()]
        if tail.strip():
            try:
                payloads.append(json.loads(tail))
                self._repair = (len(data), b"\n")
            except ValueError:
                logger.warning("%s: skipping torn final line (%d bytes)", self.path, len(tail))
                self._repair = (len(data) - len(tail), b"")
        return payloads


class RulesDatabase:
    """Objective-tagged rule store; in-memory view over an append-only log.

    Refinement retires an objective's current generation and appends the new
    one, so the file never rewrites history. Stores and replacements hold a
    lock, so threads may share the store. The rule embeddings of the last
    retrieval are kept, so a store queried again and again with one embedder
    embeds each rule once.
    """

    def __init__(self, path: str | Path | None = None):
        self._log = _AppendLog(path)
        self._live: dict[int, RuleEntry] = {}  # id order: sorted here, appended in order after
        # (embedder, rule id -> embedding); replaced whole, never mutated
        self._rule_vectors: tuple[Embedder | None, dict[int, tuple[float, ...]]] = (None, {})
        self._next_id = 0
        self._lock = threading.Lock()
        for payload in self._log.read_all():
            self._apply(payload)
        self._live = dict(sorted(self._live.items()))

    @property
    def path(self) -> Path | None:
        return self._log.path

    def _apply(self, payload: dict) -> None:
        if payload["kind"] == "rule":
            entry = RuleEntry(payload["id"], Objective.parse(payload["objective"]), payload["text"])
            self._live[entry.id] = entry
            self._next_id = max(self._next_id, entry.id + 1)
        elif payload["kind"] == "retire":
            for entry_id in payload["ids"]:
                self._live.pop(entry_id, None)
        else:
            raise ValueError(f"unknown rules-log record kind {payload['kind']!r}")

    def rules(self) -> tuple[RuleEntry, ...]:
        return tuple(self._live.values())

    def for_objective(self, objective: Objective) -> tuple[RuleEntry, ...]:
        return tuple(r for r in self._live.values() if r.objective is objective)

    def __len__(self) -> int:
        return len(self._live)

    def contains_text(self, objective: Objective, text: str) -> bool:
        return any(r.text == text for r in self.for_objective(objective))

    def _embedded_rules(
        self, embedder: Embedder
    ) -> tuple[tuple[RuleEntry, ...], tuple[tuple[float, ...], ...]]:
        """The live rules in id order and their embeddings, from one state of
        the store. Rules the cache lacks for an equal (`==`) embedder are
        embedded outside the lock, so a slow embedder holds up no store."""
        with self._lock:
            rules = tuple(self._live.values())
            cached_by, cached = self._rule_vectors
        if cached_by != embedder:
            cached = {}
        vectors = {r.id: cached[r.id] if r.id in cached else embedder.embed(r.text) for r in rules}
        self._rule_vectors = (embedder, vectors)  # retired rules drop out here
        return rules, tuple(vectors.values())

    def store(self, objective: Objective, text: str) -> RuleEntry:
        with self._lock:
            return self._store(objective, text)

    def _store(self, objective: Objective, text: str) -> RuleEntry:
        """`store` for a caller that holds the lock."""
        entry = RuleEntry(self._next_id, objective, text)
        self._next_id += 1
        self._log.append({"kind": "rule", "id": entry.id, "objective": objective.short, "text": text})
        self._live[entry.id] = entry
        return entry

    def replace_objective(self, objective: Objective, texts: Sequence[str]) -> tuple[RuleEntry, ...]:
        """Swap an objective's live rule set for a new generation.

        A no-op when the new texts match the live ones exactly, which keeps
        fixed-point refinements from growing the log.
        """
        with self._lock:
            current = self.for_objective(objective)
            if [r.text for r in current] == list(texts):
                return current
            if current:
                retire = {"kind": "retire", "objective": objective.short, "ids": [r.id for r in current]}
                self._log.append(retire)
                self._apply(retire)
            return tuple(self._store(objective, text) for text in texts)


class ExperienceDatabase:
    """Append-only store of (scenario, plan, performance) mission records, kept
    in id order with a set of (objective, scenario text, plan text) dedup keys
    and, once retrieved from, a matrix of their section embeddings."""

    def __init__(self, path: str | Path | None = None):
        self._log = _AppendLog(path)
        self._records: dict[int, ExperienceRecord] = {}
        self._dedup: set[tuple[Objective, str, str]] = set()
        self._sections: np.ndarray | None = None  # see _scoring_snapshot; dropped by store
        self._next_id = 0
        self._lock = threading.Lock()
        for payload in sorted(self._log.read_all(), key=lambda p: p["id"]):
            scenario = MissionScenario.parse(payload["scenario"])
            record = ExperienceRecord(
                id=payload["id"],
                objective=Objective.parse(payload["objective"]),
                scenario=scenario,
                plan=parse_ita_plan(payload["plan"], scenario),
                performance=PerformanceRecord.parse(payload["performance"]),
                emb_humans=tuple(payload["emb_humans"]),
                emb_robots=tuple(payload["emb_robots"]),
                emb_tasks=tuple(payload["emb_tasks"]),
                fallback=payload.get("fallback", False),
            )
            self._records[record.id] = record
            self._dedup.add((record.objective, payload["scenario"], payload["plan"]))
            self._next_id = record.id + 1

    @property
    def path(self) -> Path | None:
        return self._log.path

    def records(self) -> tuple[ExperienceRecord, ...]:
        return tuple(self._records.values())

    def for_objective(self, objective: Objective) -> tuple[ExperienceRecord, ...]:
        return tuple(r for r in self._records.values() if r.objective is objective)

    def __len__(self) -> int:
        return len(self._records)

    def contains(self, objective: Objective, scenario: MissionScenario, plan: ItaPlan) -> bool:
        return (objective, scenario.serialize(), plan.render()) in self._dedup

    def _scoring_snapshot(self) -> tuple[tuple[ExperienceRecord, ...], np.ndarray]:
        """The records in id order and their section matrix (`_section_matrix`),
        from one state of the store. The matrix is built on first use after a
        store."""
        with self._lock:
            records = self.records()
            if self._sections is None:
                self._sections = _section_matrix(records)
            return records, self._sections

    def store(
        self,
        objective: Objective,
        scenario: MissionScenario,
        plan: ItaPlan,
        performance: PerformanceRecord,
        embeddings: tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]],
        fallback: bool = False,
    ) -> ExperienceRecord:
        with self._lock:
            record = ExperienceRecord(
                id=self._next_id,
                objective=objective,
                scenario=scenario,
                plan=plan,
                performance=performance,
                emb_humans=tuple(embeddings[0]),
                emb_robots=tuple(embeddings[1]),
                emb_tasks=tuple(embeddings[2]),
                fallback=fallback,
            )
            self._next_id += 1
            key = (objective, scenario.serialize(), plan.render())
            self._log.append(
                {
                    "kind": "experience",
                    "id": record.id,
                    "objective": objective.short,
                    "scenario": key[1],
                    "plan": key[2],
                    "performance": performance.serialize(),
                    "emb_humans": list(record.emb_humans),
                    "emb_robots": list(record.emb_robots),
                    "emb_tasks": list(record.emb_tasks),
                    "fallback": fallback,
                }
            )
            self._records[record.id] = record
            self._dedup.add(key)
            self._sections = None
            return record
