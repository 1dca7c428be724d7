"""Rule and experience stores with hybrid lexical + embedding retrieval.

Rules are ranked by a fusion of BM25 keyword scores and embedding cosine
similarity (reciprocal rank fusion). Experiences are retrieved by summing
per-section cosine similarities of the scenario's three attribute
dictionaries, then re-ranked by how well each stored mission served the
requested preference weights. Both stores persist as append-only JSON-lines
files that reload bit-identically, embedding vectors included, and load them
one line at a time.
"""

from __future__ import annotations

import functools
import hashlib
import json
import logging
import math
import mmap
import operator
import os
import re
import struct
import threading
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Protocol, Sequence

import numpy as np

from .core import (
    ItaPlan,
    MissionScenario,
    NormalizationBounds,
    Objective,
    PerformanceRecord,
    PreferenceVector,
    aggregate_scores,
    ordered_sum,
    performance_columns,
)
from .prompt import ParseFailure, PlanInvalid, parse_ita_plan

logger = logging.getLogger(__name__)

_TOKEN_RE = re.compile(r"[a-z0-9]+")


def tokenize(text: str) -> list[str]:
    """Lowercase and split on non-alphanumeric runs; deterministic."""
    return _TOKEN_RE.findall(text.lower())


# BM25 term-frequency saturation and length normalization, and the
# reciprocal-rank-fusion weight of the sparse ranking and its rank smoothing
BM25_K1, BM25_B = 1.5, 0.75
RRF_ALPHA, RRF_C = 0.5, 60.0


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
    avg_length: float

    @classmethod
    def from_rules(cls, rules: Sequence[RuleEntry]) -> "CorpusStats":
        doc_freq: Counter[str] = Counter()
        total_length = 0
        for rule in rules:
            tokens = tokenize(rule.text)
            total_length += len(tokens)
            doc_freq.update(set(tokens))
        avg = total_length / len(rules) if rules else 0.0
        return cls(total=len(rules), doc_freq=dict(doc_freq), avg_length=avg)


def idf(term: str, stats: CorpusStats) -> float:
    """ln((N - n + 0.5) / (n + 0.5)) with n the rule count containing term."""
    if stats.total < 1:
        raise ValueError("corpus must contain at least one rule")
    n = stats.doc_freq.get(term, 0)
    return math.log((stats.total - n + 0.5) / (n + 0.5))


def bm25_score(query_tokens: Sequence[str], rule: RuleEntry, stats: CorpusStats) -> float:
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
    norm = 1.0 - BM25_B + BM25_B * ratio
    score = 0.0
    for term in query_tokens:
        freq = tf.get(term, 0)
        if freq == 0:
            continue
        score += idf(term, stats) * freq * (BM25_K1 + 1.0) / (freq + BM25_K1 * norm)
    return score


def dense_score(q: Sequence[float], d: Sequence[float]) -> float:
    """Cosine similarity; equals the dot product for unit-norm inputs.
    `ValueError` when the lengths differ or either norm is zero or not finite
    (a NaN or infinite element, or squares past the float range)."""
    if len(q) != len(d):
        raise ValueError(f"embedding dimension mismatch: {len(q)} vs {len(d)}")
    dot = ordered_sum(map(operator.mul, q, d))
    nq = math.sqrt(ordered_sum(map(operator.mul, q, q)))
    nd = math.sqrt(ordered_sum(map(operator.mul, d, d)))
    for norm in (nq, nd):
        if not 0 < norm < math.inf:
            raise ValueError(f"cannot score a vector of norm {norm}")
    return dot / (nq * nd)


class Embedder(Protocol):
    """Text to fixed-dimension unit vector."""

    def embed(self, text: str) -> tuple[float, ...]: ...


@dataclass(frozen=True)
class HashedEmbedder:
    """Hermetic embedder: L2-normalized hashed term-frequency vector.

    Token buckets come from a stable digest, so the output depends only on the
    text and `dim`. All-zero vectors (empty text) map to the first basis
    vector.
    """

    dim: int = 256

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError(f"dim must be >= 1, got {self.dim}")

    def embed(self, text: str) -> tuple[float, ...]:
        return _hashed_embedding(self.dim, text)


def _hashed_embedding(dim: int, text: str) -> tuple[float, ...]:
    counts = [0.0] * dim
    for token in tokenize(text):
        counts[_token_hash(token) % dim] += 1.0
    if not any(counts):
        counts[0] = 1.0
    # whole numbers, so built-in `sum` adds their squares exactly on every
    # interpreter, and faster than `ordered_sum`
    return _scaled_to_unit(counts, sum(map(operator.mul, counts, counts)))


@functools.lru_cache(maxsize=8192)
def _token_hash(token: str) -> int:
    """First four bytes of the token's sha256, big-endian."""
    return int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:4], "big")


def unit_vector(vec: Sequence[float]) -> tuple[float, ...]:
    """`vec` scaled to unit length. `ValueError` when its norm is zero or not
    finite (a NaN or infinite element, or squares past the float range)."""
    return _scaled_to_unit(vec, ordered_sum(map(operator.mul, vec, vec)))


def _scaled_to_unit(vec: Sequence[float], squares: float) -> tuple[float, ...]:
    """`vec` divided by the root of `squares`, the sum of its squares."""
    norm = math.sqrt(squares)
    if not 0 < norm < math.inf:
        raise ValueError(f"cannot normalize a vector of norm {norm}")
    return tuple([v / norm for v in vec])


def _ranks_best_first(scored: list[tuple[int, float]]) -> dict[int, int]:
    """1-based ranks, highest score first, ties broken by ascending id."""
    ordered = sorted(scored, key=lambda pair: (-pair[1], pair[0]))
    return {entry_id: position + 1 for position, (entry_id, _) in enumerate(ordered)}


def ensemble_retrieve(
    query_text: str,
    db: "RulesDatabase",
    k: int,
    embedder: Embedder = HashedEmbedder(),
) -> list[RuleEntry]:
    """Top-k rules under reciprocal rank fusion (`RRF_ALPHA`, `RRF_C`) of
    the BM25 (`BM25_K1`, `BM25_B`) and dense rankings.

    The store ranks all its rules once per query text and equal embedder
    (`RulesDatabase._ranking`) until its next store or retirement, so a
    repeated query embeds nothing and scores no rule. `ValueError` for an
    empty store, k < 1, or a query or rule vector the embedder gives a zero
    or non-finite norm (`dense_score`).
    """
    ranking = db._ranking(query_text, embedder)
    if not ranking:
        raise ValueError("rules database is empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    return list(ranking[:k])


def _fused_ranking(
    query_text: str,
    rules: tuple[RuleEntry, ...],
    vectors: tuple[tuple[float, ...], ...],
    embedder: Embedder,
) -> tuple[RuleEntry, ...]:
    """`rules` (embedded as `vectors`) best first under the fusion of
    `ensemble_retrieve`, ties broken by ascending id."""
    stats = CorpusStats.from_rules(rules)
    query_tokens = tokenize(query_text)
    sparse_ranks = _ranks_best_first(
        [(r.id, bm25_score(query_tokens, r, stats)) for r in rules]
    )
    query_emb = embedder.embed(query_text)
    dense_ranks = _ranks_best_first(
        [(r.id, dense_score(query_emb, vec)) for r, vec in zip(rules, vectors)]
    )

    def fused(rule: RuleEntry) -> float:
        return RRF_ALPHA / (RRF_C + sparse_ranks[rule.id]) + (1.0 - RRF_ALPHA) / (
            RRF_C + dense_ranks[rule.id]
        )

    return tuple(sorted(rules, key=lambda r: (-fused(r), r.id)))


def embed_scenario_sections(
    scenario: MissionScenario, embedder: Embedder
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """Embed the three canonical attribute dictionaries independently."""
    return (
        unit_vector(embedder.embed(scenario.render_human_section())),
        unit_vector(embedder.embed(scenario.render_robot_section())),
        unit_vector(embedder.embed(scenario.render_task_section())),
    )


def _pack_sections(record_id: int, sections: Sequence[Sequence[float]]) -> bytes:
    """The human, robot and task embeddings end to end as little-endian
    float64, or `ValueError` naming the record if they differ in length or
    hold a non-number, NaN or an infinity."""
    humans, robots, tasks = sections
    if not len(humans) == len(robots) == len(tasks):
        raise ValueError(
            f"experience record {record_id}: section embeddings differ in length: "
            f"{len(humans)}, {len(robots)}, {len(tasks)}"
        )
    try:
        packed = struct.pack(f"<{3 * len(humans)}d", *humans, *robots, *tasks)
    except struct.error as exc:
        raise ValueError(f"experience record {record_id}: embedding element: {exc}") from exc
    if not np.isfinite(np.frombuffer(packed, "<f8")).all():
        raise ValueError(f"experience record {record_id}: embedding element is not finite")
    return packed


@dataclass(frozen=True)
class ExperienceRecord:
    """A stored mission: scenario, plan, outcome, plus section embeddings.

    The scenario and plan are held as their canonical texts (`serialize()` and
    `render()`, as the store writes them) and decoded on first read: `scenario`
    and `plan` parse their text, validate the plan against the scenario and
    check that both render back to the stored text, or raise `ValueError`
    naming the record. Equality compares the texts, which for a canonical
    record is equality of the decoded objects.

    The three section embeddings, of equal length, are held packed end to
    end as float64 in `embedding` (`_pack_sections`); `emb_humans`,
    `emb_robots` and `emb_tasks` decode their section.
    """

    id: int
    objective: Objective
    scenario_text: str
    plan_text: str
    performance: PerformanceRecord
    embedding: bytes
    fallback: bool = False

    @property
    def emb_humans(self) -> tuple[float, ...]:
        return self._section(0)

    @property
    def emb_robots(self) -> tuple[float, ...]:
        return self._section(1)

    @property
    def emb_tasks(self) -> tuple[float, ...]:
        return self._section(2)

    def _section(self, index: int) -> tuple[float, ...]:
        dim = len(self.embedding) // 24
        return struct.unpack_from(f"<{dim}d", self.embedding, 8 * dim * index)

    @functools.cached_property
    def scenario(self) -> MissionScenario:
        return self._decode(
            "scenario", self.scenario_text, MissionScenario.parse, MissionScenario.serialize
        )

    @functools.cached_property
    def plan(self) -> ItaPlan:
        scenario = self.scenario
        return self._decode(
            "plan", self.plan_text, lambda text: parse_ita_plan(text, scenario), ItaPlan.render
        )

    def _decode(self, name: str, text: str, parse, render):
        """`parse(text)`, checked to render back to `text` exactly."""
        try:
            if not isinstance(text, str):
                raise ValueError(f"not text: {text!r}")
            value = parse(text)
        except (ValueError, ParseFailure, PlanInvalid) as exc:
            raise ValueError(f"experience record {self.id}: bad {name}: {exc}") from exc
        if render(value) != text:
            raise ValueError(f"experience record {self.id}: {name} text is not canonical")
        return value


def retrieve_experiences(
    scenario: MissionScenario,
    prefs: PreferenceVector,
    db: "ExperienceDatabase",
    k: int,
    m: int,
    embedder: Embedder = HashedEmbedder(),
) -> list[ExperienceRecord]:
    """Top-k most similar stored missions, re-ranked by preference fit.

    Similarity is the sum of the three per-section cosines (`_top_rows`: the
    store's cached float32 matrix of unit section rows screens it in one
    matrix product, and only the rows near its top are scored exactly, in
    float64 from their records' packed embeddings); a k above the store's
    size takes every record. The store keeps those k per scenario
    (`ExperienceDatabase._nearest`), so asking again under another
    preference vector only re-ranks. The k candidates are then ordered by
    the weighted normalized objective score of their recorded performance
    (bounds taken over the candidates) and the best m returned. All ties,
    in similarity and in score, break toward the lower record id.
    `ValueError` for an empty store, k < 1, m < 0, m > k, or a query section
    the embedder gives a zero or non-finite norm or another dimension than
    the store's.
    """
    if not len(db):
        raise ValueError("experience database is empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    if m > k:
        raise ValueError("m must be <= k")

    top_k = db._nearest(scenario, k, embedder)
    columns = performance_columns([rec.performance for rec in top_k])
    fit = aggregate_scores(columns, prefs, NormalizationBounds.from_columns(columns)).tolist()
    order = sorted(range(len(top_k)), key=lambda i: (-fit[i], top_k[i].id))
    return [top_k[i] for i in order[:m]]


def _top_rows(
    records: Sequence[ExperienceRecord], sections: np.ndarray, query: np.ndarray, k: int
) -> list[int]:
    """The k rows of `sections` (`_section_matrix` of `records`) most similar
    to `query` (the three unit query sections end to end, float64), best
    first, ties broken toward the lower row; 1 <= k <= row count.

    A row's exact score adds its human, robot and task cosines, each a
    row-wise float64 `einsum` over the row `_unit_rows` derives from the
    record's packed bytes, in that order from zero. einsum scores a row alike
    wherever it sits in the block, so identical rows tie exactly.

    One float32 `einsum` of `sections` with the query screens the rows
    first, and only the rows within a margin of the k-th largest screened
    score are scored exactly. (einsum sums on the calling thread. A BLAS
    product hands the work to the BLAS thread pool, which made some whole
    runs of queries far slower on a 2-vCPU machine.) Take n = 3·dim terms
    and u = 2⁻²⁴, the float32 unit roundoff. Every row section and query
    section has unit length, so the terms' magnitudes sum to at most 3
    (Cauchy-Schwarz, per section).
    - Rounding the row and the query to float32 moves each term by at most
      2u of its magnitude: 6u in all.
    - Summing the n products in float32, in whatever order einsum takes,
      errs by at most about n·u of their magnitude sum: 3·n·u.
    So a screened score lies within δ ≈ 3·(n + 2)·u of the exact one, and
    every row of the exact top k screens within 2δ = 3·(n + 2)·2⁻²³ of the
    k-th largest screened score. The margin is 4/3 of that, (n + 2)·2⁻²¹,
    which also covers the second-order terms, the exact score's own float64
    error (about 3·n·2⁻⁵³) and float32 underflow at any dim below 50,000.
    Ranking the rows within it gives the top k of scoring every row.
    """
    dim = len(query) // 3
    screen = np.einsum("ij,j->i", sections, query.astype(np.float32))
    cut = np.partition(screen, len(screen) - k)[len(screen) - k]
    # compared in float64, so the margin is not rounded to float32
    rows = np.flatnonzero(screen >= np.float64(cut) - (3 * dim + 2) * 2.0**-21)
    block = _unit_rows([records[row] for row in rows.tolist()], dim)
    scores = np.zeros(len(rows))
    for start in (0, dim, 2 * dim):
        # the exact score alone decides the order; the screen only picks rows
        scores += np.einsum("ij,j->i", block[:, start : start + dim], query[start : start + dim])
    # rows are in id order, so a stable sort ranks by (-similarity, id)
    return rows[np.argsort(-scores, kind="stable")[:k]].tolist()


# Rows decoded at a time while the section matrix is built: a block is
# normalised in float64 (192 KiB at dim 256) and then cast to float32.
_BLOCK_ROWS = 32


def _section_matrix(records: Sequence[ExperienceRecord], dim: int) -> np.ndarray:
    """`_unit_rows` of `records` (at `dim`) cast to float32, built
    `_BLOCK_ROWS` rows at a time, so no float64 copy of the whole store is made.

    The matrix lives in an anonymous map of its own, so dropping it returns
    its pages at once. A heap block would stay resident, and the next store
    loaded would split it, so the next matrix would need new pages on top.
    """
    size = len(records) * 3 * dim
    pages = mmap.mmap(-1, max(4 * size, 1))  # a map cannot be empty
    matrix = np.frombuffer(pages, np.float32, size).reshape(len(records), 3 * dim)
    for start in range(0, len(records), _BLOCK_ROWS):
        matrix[start : start + _BLOCK_ROWS] = _unit_rows(records[start : start + _BLOCK_ROWS], dim)
    return matrix


def _unit_rows(records: Sequence[ExperienceRecord], dim: int) -> np.ndarray:
    """Row i: record i's human, robot and task embeddings (each `dim` long),
    each scaled to unit length in float64, so a dot product with a unit query
    section is a cosine. The packed bytes are decoded as one buffer."""
    # joined into a bytearray, which numpy can scale in place; bytes cannot be
    sections = np.frombuffer(bytearray().join([rec.embedding for rec in records]), "<f8")
    sections = sections.reshape(len(records), 3, dim)
    norms = np.sqrt(np.einsum("ijk,ijk->ij", sections, sections))
    if not norms.all():
        raise ValueError("zero vectors carry no direction")
    sections /= norms[:, :, None]
    return sections.reshape(len(records), 3 * dim)


class CorruptLogError(ValueError):
    """A store's log holds a line that is not one of its records; the message
    names the file and the line number."""


class _AppendLog:
    """Append-only JSON-lines log with write-through durability. A torn final
    line (a crash mid-append) is skipped with a warning on load and cut off by
    the next append; a bad line anywhere else is a `CorruptLogError`."""

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

    def read_all(self, convert: Callable[[Any], Any]) -> Iterator[Any]:
        """`convert(payload)` for each line's payload in file order, one line
        at a time, so no payload outlives its line. A line that is not JSON
        (or nests too deeply to decode), or whose payload `convert` rejects
        (`KeyError`, `TypeError`, `ValueError`, `AttributeError`), raises
        `CorruptLogError`, unless it is a final line with no newline that is
        not JSON: that torn append is skipped. The next append's repair is
        set only once every line has been converted."""
        if self.path is None or not self.path.exists():
            return
        size, repair = 0, None
        with open(self.path, "rb") as handle:
            for number, line in enumerate(handle, 1):
                size += len(line)
                if not line.strip():
                    continue
                torn = not line.endswith(b"\n")  # only the final line can be
                try:
                    payload = json.loads(line)
                except (RecursionError, ValueError) as exc:  # nested too deeply, or not JSON
                    if not torn:
                        raise CorruptLogError(f"{self.path}, line {number}: not JSON: {exc}") from exc
                    logger.warning("%s: skipping torn final line (%d bytes)", self.path, len(line))
                    repair = (size - len(line), b"")
                    break
                try:
                    item = convert(payload)
                except (AttributeError, KeyError, TypeError, ValueError) as exc:
                    raise CorruptLogError(
                        f"{self.path}, line {number}: not a record: {type(exc).__name__}: {exc}"
                    ) from exc
                yield item
                if torn:
                    repair = (size, b"\n")
        self._repair = repair


# At most this many rankings (of query texts, or of scenarios' nearest
# records) are kept per store state, so a long-lived store asked about ever
# new queries does not grow.
_RANKINGS_KEPT = 64


class RulesDatabase:
    """Objective-tagged rule store; in-memory view over an append-only log.

    Refinement retires an objective's current generation and appends the new
    one, so the file never rewrites history. The live rules are one tuple in
    id order that every store and retirement replaces under a lock, so
    threads may share the store. Retrieval keeps, keyed by that tuple and the
    embedder, the full rankings of up to `_RANKINGS_KEPT` query texts, so a
    repeated query does no ranking work at all, and the rule embeddings, so
    a store queried again and again with one embedder embeds each rule once.
    """

    def __init__(self, path: str | Path | None = None):
        self._log = _AppendLog(path)
        self._lock = threading.Lock()
        self._next_id = 0
        live: dict[int, RuleEntry] = {}

        def apply(payload: dict) -> None:
            # bool is an int subclass, and a float or text id would number the next rule
            if payload["kind"] == "rule":
                if type(payload["id"]) is not int:
                    raise ValueError(f"rule id {payload['id']!r} is not an integer")
                entry = RuleEntry(payload["id"], Objective.parse(payload["objective"]), payload["text"])
                live[entry.id] = entry
                self._next_id = max(self._next_id, entry.id + 1)
            elif payload["kind"] == "retire":
                ids = payload["ids"]
                if type(ids) is not list or any(type(entry_id) is not int for entry_id in ids):
                    raise ValueError(f"retired ids {ids!r} are not a list of integers")
                for entry_id in ids:
                    live.pop(entry_id, None)
            else:
                raise ValueError(f"unknown rules-log record kind {payload['kind']!r}")

        for _ in self._log.read_all(apply):  # applied line by line
            pass
        self._rules: tuple[RuleEntry, ...] = tuple(sorted(live.values(), key=operator.attrgetter("id")))
        # (rules, embedder, rule id -> embedding, query text -> ranking of
        # those rules by that embedder); replaced whole, never mutated
        self._memo: tuple[tuple[RuleEntry, ...], Embedder | None, dict, dict] = ((), None, {}, {})

    @property
    def path(self) -> Path | None:
        return self._log.path

    def rules(self) -> tuple[RuleEntry, ...]:
        return self._rules

    def for_objective(self, objective: Objective) -> tuple[RuleEntry, ...]:
        return tuple(r for r in self._rules if r.objective is objective)

    def __len__(self) -> int:
        return len(self._rules)

    def contains_text(self, objective: Objective, text: str) -> bool:
        return any(r.text == text for r in self.for_objective(objective))

    def _ranking(self, query_text: str, embedder: Embedder) -> tuple[RuleEntry, ...]:
        """The live rules ranked for `query_text` (`_fused_ranking`), at most
        once per query text and equal (`==`) embedder per state of the store.

        It reads the live rules once and takes no lock, so a slow embedder
        holds up no store. A ranking is kept under the rules tuple it was
        made from, so one made before a store is never served after it.
        """
        rules = self._rules
        held_rules, held_by, vectors, rankings = self._memo
        if held_by != embedder:
            vectors, rankings = {}, {}
        elif held_rules is not rules:
            rankings = {}
        elif query_text in rankings:
            return rankings[query_text]
        if not rules:
            return ()
        # retired rules drop out of the carried embeddings here
        vectors = {r.id: vectors[r.id] if r.id in vectors else embedder.embed(r.text) for r in rules}
        ranking = _fused_ranking(query_text, rules, tuple(vectors.values()), embedder)
        if len(rankings) >= _RANKINGS_KEPT:
            rankings = {}
        self._memo = (rules, embedder, vectors, {**rankings, query_text: ranking})
        return ranking

    def store(self, objective: Objective, text: str) -> RuleEntry:
        with self._lock:
            entry = self._append(objective, text)
            self._rules += (entry,)
            return entry

    def _append(self, objective: Objective, text: str) -> RuleEntry:
        """The next rule, logged but not yet live; the caller holds the lock."""
        entry = RuleEntry(self._next_id, objective, text)
        self._next_id += 1
        self._log.append({"kind": "rule", "id": entry.id, "objective": objective.short, "text": text})
        return entry

    def replace_objective(self, objective: Objective, texts: Sequence[str]) -> tuple[RuleEntry, ...]:
        """Swap an objective's live rule set for a new generation, in one
        replacement of the live rules.

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
            kept, added = tuple(r for r in self._rules if r.objective is not objective), []
            try:
                for text in texts:
                    added.append(self._append(objective, text))
            finally:  # what reached the log is live
                self._rules = kept + tuple(added)
            return tuple(added)


def _experience_record(payload: dict) -> ExperienceRecord:
    """The record one experience-log line holds; its scenario and plan stay
    text until first read (see ExperienceRecord)."""
    record_id = payload["id"]
    if type(record_id) is not int:
        raise ValueError(f"record id {record_id!r} is not an integer")
    fallback = payload.get("fallback", False)
    if type(fallback) is not bool:
        raise ValueError(f"experience record {record_id}: fallback {fallback!r} is not a boolean")
    return ExperienceRecord(
        id=record_id,
        objective=Objective.parse(payload["objective"]),
        scenario_text=payload["scenario"],
        plan_text=payload["plan"],
        performance=PerformanceRecord.parse(payload["performance"]),
        embedding=_pack_sections(
            record_id, (payload["emb_humans"], payload["emb_robots"], payload["emb_tasks"])
        ),
        fallback=fallback,
    )


class ExperienceDatabase:
    """Append-only store of (scenario, plan, performance) mission records, kept
    in id order with a set of (objective, scenario text, plan text) dedup
    keys. Every record's sections are embedded at one dimension, `dim`, which
    the first record sets. Once retrieved from, the store keeps one slot
    (`_nearest`): a float32 matrix of the records' unit section rows
    (`_section_matrix`) and the nearest records of the last `_RANKINGS_KEPT`
    scenarios asked about; the records' packed bytes are the only float64
    copy of the embeddings."""

    def __init__(self, path: str | Path | None = None):
        self._log = _AppendLog(path)
        self._dim: int | None = None

        def admit(payload: dict) -> ExperienceRecord:
            record = _experience_record(payload)
            self._dim = self._checked_dim(record)
            return record

        # id order; only ever appended to, so its first n records never change
        self._records = sorted(self._log.read_all(admit), key=operator.attrgetter("id"))
        self._dedup = {(r.objective, r.scenario_text, r.plan_text) for r in self._records}
        self._next_id = self._records[-1].id + 1 if self._records else 0
        # (record count, `_section_matrix` of that many records or None until
        # first used, embedder, {(section texts, min(k, record count)): nearest
        # records}); replaced whole, never mutated
        self._slot: tuple[int, np.ndarray | None, Embedder | None, dict] = (0, None, None, {})
        self._lock = threading.Lock()

    @property
    def path(self) -> Path | None:
        return self._log.path

    @property
    def dim(self) -> int | None:
        """Every record's section length; None while the store is empty."""
        return self._dim

    def _checked_dim(self, record: ExperienceRecord) -> int:
        """`record`'s section length, or `ValueError` naming the record unless
        it is above 0 and the store's (any, while the store is empty)."""
        dim = len(record.embedding) // 24
        if dim == 0 or self._dim not in (None, dim):
            want = "above 0" if self._dim is None else f"the store's {self._dim}"
            raise ValueError(f"experience record {record.id}: embedded at dim {dim}, not {want}")
        return dim

    def records(self) -> tuple[ExperienceRecord, ...]:
        return tuple(self._records)

    def for_objective(self, objective: Objective) -> tuple[ExperienceRecord, ...]:
        return tuple(r for r in self._records if r.objective is objective)

    def __len__(self) -> int:
        return len(self._records)

    def contains(self, objective: Objective, scenario: MissionScenario, plan: ItaPlan) -> bool:
        return (objective, scenario.serialize(), plan.render()) in self._dedup

    def _nearest(self, scenario: MissionScenario, k: int, embedder: Embedder) -> tuple[ExperienceRecord, ...]:
        """The min(k, N) of the store's N >= 1 records most similar to
        `scenario`, best first (`_top_rows`); k >= 1. Kept in the slot under
        the scenario's three section texts and min(k, N) for up to
        `_RANKINGS_KEPT` scenarios, and served while the store holds the
        record count and the equal (`==`) embedder it was found with. A miss
        raises what embedding and scoring raise, and keeps nothing."""
        count, dim = len(self._records), self._dim  # `store` sets dim before the first append
        k = min(k, count)
        texts = (
            scenario.render_human_section(),
            scenario.render_robot_section(),
            scenario.render_task_section(),
        )
        held, sections, held_by, nearest = self._slot
        if held != count:
            sections, nearest = None, {}
        elif held_by != embedder:
            nearest = {}
        elif (texts, k) in nearest:
            return nearest[texts, k]
        queries = embed_scenario_sections(scenario, embedder)
        for query in queries:
            if len(query) != dim:
                raise ValueError(f"embedding dimension mismatch: {len(query)} vs {dim}")
        records = self._records[:count]
        if sections is None:
            sections = _section_matrix(records, dim)
        rows = _top_rows(records, sections, np.array(queries).ravel(), k)
        top = tuple(records[row] for row in rows)
        if len(nearest) >= _RANKINGS_KEPT:
            nearest = {}
        self._slot = (count, sections, embedder, {**nearest, (texts, k): top})
        return top

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
                scenario_text=scenario.serialize(),
                plan_text=plan.render(),
                performance=performance,
                embedding=_pack_sections(self._next_id, embeddings),
                fallback=fallback,
            )
            dim = self._checked_dim(record)
            # the plan's decode cache; the scenario, which would hold its text
            # a second time, is parsed from `scenario_text` on first read
            vars(record)["plan"] = plan
            self._next_id += 1
            self._log.append(
                {
                    "kind": "experience",
                    "id": record.id,
                    "objective": objective.short,
                    "scenario": record.scenario_text,
                    "plan": record.plan_text,
                    "performance": performance.serialize(),
                    "emb_humans": list(embeddings[0]),
                    "emb_robots": list(embeddings[1]),
                    "emb_tasks": list(embeddings[2]),
                    "fallback": fallback,
                }
            )
            self._dim = dim
            self._records.append(record)
            self._dedup.add((objective, record.scenario_text, record.plan_text))
            return record
