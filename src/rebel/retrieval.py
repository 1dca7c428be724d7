"""Rule and experience stores with hybrid lexical + embedding retrieval.

Rules are ranked by a fusion of BM25 keyword scores and embedding cosine
similarity (reciprocal rank fusion). Experiences are retrieved by summing
per-section cosine similarities of the scenario's three attribute
dictionaries, then re-ranked by how well each stored mission served the
requested preference weights. Both stores persist as append-only JSON-lines
files that reload bit-identically, embedding vectors included, and load them
one line at a time; the experience store restores the records of a log
prefix from a derived snapshot beside its log and parses only the lines
after it.
"""

from __future__ import annotations

import functools
import hashlib
import math
import operator
import re
import struct
import threading
from collections import Counter
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Protocol

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .core import (
    ItaPlan,
    MissionScenario,
    NormalizationBounds,
    Objective,
    PerformanceRecord,
    PreferenceVector,
    aggregate_scores,
    check_performance_columns,
    echo,
    performance_columns,
)
from .log import AppendLog, CorruptLogError, read_snapshot, write_snapshot
from .prompt import ParseFailure, PlanInvalid, parse_ita_plan

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
    """The cosine of two vectors: `cosines` of the one row `d` with `q`."""
    return float(cosines(np.array([d], np.float64), np.array(q, np.float64))[0])


def cosines(rows: np.ndarray, query: np.ndarray) -> np.ndarray:
    """The cosine of each vector along the last axis of the float64 array
    `rows` with `query`, broadcast against it: the dot product divided by
    the product of the two norms, every sum added left to right
    (`_row_sums`). `ValueError` when the vectors differ in length, or for a
    zero or non-finite norm (a NaN or infinite element, or squares past the
    float range), the query's checked before any row's."""
    if rows.shape[-1] != query.shape[-1]:
        raise ValueError(f"embedding dimension mismatch: {query.shape[-1]} vs {rows.shape[-1]}")
    query_norms, row_norms = _norms(query, "score"), _norms(rows, "score")
    with np.errstate(over="ignore", invalid="ignore"):  # finite norms can still overflow a product
        return _row_sums(rows * query) / (query_norms * row_norms)


def _norms(vectors: np.ndarray, verb: str) -> np.ndarray:
    """The norm of each vector along the last axis, or `ValueError` ("cannot
    `verb` a vector of norm ...") for the first that is zero or not finite."""
    with np.errstate(over="ignore"):  # squares past the float range are an infinite norm
        norms = np.sqrt(_row_sums(vectors * vectors))
    bad = np.flatnonzero(~((0 < norms) & (norms < math.inf)))
    if len(bad):
        raise ValueError(f"cannot {verb} a vector of norm {float(norms.reshape(-1)[bad[0]])}")
    return norms


def _row_sums(terms: np.ndarray) -> np.ndarray:
    """The sums along the last axis, each added one term at a time from the
    left, from 0.0, as `ordered_sum` adds: `np.cumsum` adds in sequence,
    and adding 0.0 last makes a sum of -0.0 terms 0.0. So the bits are the
    same on every interpreter and numpy build."""
    if not terms.shape[-1]:
        return np.zeros(terms.shape[:-1])
    return np.cumsum(terms, axis=-1)[..., -1] + 0.0


class Embedder(Protocol):
    """Text to fixed-dimension unit vector. An embedder may also have
    `embed_batch(texts)`, the rows of a float64 array `(len(texts), dim)`
    that hold `embed` of each text; `embed_all` then embeds many texts in
    that one call."""

    def embed(self, text: str) -> tuple[float, ...]: ...


def embed_all(embedder: Embedder, texts: Sequence[str]) -> np.ndarray:
    """The embeddings of `texts`, in order, as the rows of a float64 array
    `(len(texts), dim)`: one `embedder.embed_batch(texts)` call when the
    embedder has that method, else `embedder.embed` of each text in turn.
    `ValueError` ("embedding dimension mismatch") when `embed` gives vectors
    of different lengths."""
    batch = getattr(embedder, "embed_batch", None)
    if batch is not None:
        return np.asarray(batch(texts), np.float64)
    return _stacked([embedder.embed(text) for text in texts])


def _stacked(vectors: Sequence[Sequence[float]]) -> np.ndarray:
    """`vectors` as the rows of a float64 array, or `ValueError`
    ("embedding dimension mismatch") when their lengths differ."""
    for vector in vectors:
        if len(vector) != len(vectors[0]):
            raise ValueError(f"embedding dimension mismatch: {len(vector)} vs {len(vectors[0])}")
    return np.array(vectors, np.float64).reshape(len(vectors), len(vectors[0]) if vectors else 0)


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
        return tuple(self.embed_batch([text])[0].tolist())

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """`embed` of each text as the rows of one float64 array: every
        token's bucket, offset by its row times `dim`, is counted in one
        `np.bincount`, and each row divided by the root of its sum of
        squares, which whole counts make exact."""
        hashes: list[int] = []
        lengths = []
        for text in texts:
            tokens = tokenize(text)
            hashes += map(_token_hash, tokens)
            lengths.append(len(tokens))
        offsets = np.repeat(np.arange(len(texts)) * self.dim, lengths)
        buckets = np.array(hashes, np.int64) % self.dim + offsets
        counts = np.bincount(buckets, minlength=len(texts) * self.dim).reshape(len(texts), self.dim)
        counts[np.equal(lengths, 0), 0] = 1
        return counts / np.sqrt(np.einsum("ij,ij->i", counts, counts))[:, None]


@functools.lru_cache(maxsize=8192)
def _token_hash(token: str) -> int:
    """First four bytes of the token's sha256, big-endian."""
    return int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:4], "big")


def unit_rows(rows: np.ndarray) -> np.ndarray:
    """Each row of the float64 array `rows` divided by its norm, the root of
    its squares added left to right (`_row_sums`). `ValueError` for the first
    row whose norm is zero or not finite (a NaN or infinite element, or
    squares past the float range)."""
    return rows / _norms(rows, "normalize")[..., None]


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
    or non-finite norm (`cosines`).
    """
    ranking = db._ranking(query_text, embedder)
    if not ranking:
        raise ValueError("rules database is empty")
    if k < 1:
        raise ValueError("k must be >= 1")
    return list(ranking[:k])


def _fused_ranking(
    query_text: str, rules: tuple[RuleEntry, ...], vectors: np.ndarray, query_emb: np.ndarray
) -> tuple[RuleEntry, ...]:
    """`rules` (embedded as the rows of `vectors`) best first for
    `query_text` (embedded as `query_emb`) under the fusion of
    `ensemble_retrieve`, ties broken by ascending id."""
    stats = CorpusStats.from_rules(rules)
    query_tokens = tokenize(query_text)
    sparse_ranks = _ranks_best_first(
        [(r.id, bm25_score(query_tokens, r, stats)) for r in rules]
    )
    dense = cosines(vectors, query_emb).tolist()
    dense_ranks = _ranks_best_first([(r.id, score) for r, score in zip(rules, dense)])

    def fused(rule: RuleEntry) -> float:
        return RRF_ALPHA / (RRF_C + sparse_ranks[rule.id]) + (1.0 - RRF_ALPHA) / (
            RRF_C + dense_ranks[rule.id]
        )

    return tuple(sorted(rules, key=lambda r: (-fused(r), r.id)))


def embed_scenario_sections(
    scenario: MissionScenario, embedder: Embedder
) -> tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]]:
    """The rows of `_section_queries` as three float tuples."""
    return tuple(map(tuple, _section_queries(scenario, embedder).tolist()))


def _section_queries(scenario: MissionScenario, embedder: Embedder) -> np.ndarray:
    """The scenario's human, robot and task section texts, embedded in one
    call (`embed_all`) and each scaled to unit length (`unit_rows`): a
    float64 array `(3, dim)`."""
    return unit_rows(embed_all(embedder, scenario.sections))


# an encoded record's header: its section length, little-endian
_DIM_HEADER = struct.Struct("<I")


def _pack_sections(record_id: int, sections: Sequence[Sequence[float]], dim: int | None) -> bytes:
    """The human, robot and task embeddings end to end as float64, encoded
    sparse: a 4-byte little-endian header holding the section length, then a
    nonzero bitmap of the 3·dim elements (`np.packbits`, first element in the
    high bit, zero-padded to a whole byte), then the little-endian float64
    bytes of the nonzero elements in element order. An element is nonzero
    when its 64-bit pattern is, so -0.0 and subnormals are kept bit for bit.
    `ValueError` naming the record if the sections differ in length, hold a
    non-number, NaN or an infinity, or are not `dim` long (any length above
    0 when `dim` is None)."""
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
    floats = np.frombuffer(packed, "<f8")
    nonzero = floats.view("<u8").astype(bool)
    values = floats[nonzero]  # zeros are finite, so these are all that need the check
    if not np.isfinite(values).all():
        raise ValueError(f"experience record {record_id}: embedding element is not finite")
    if len(humans) == 0 or dim not in (None, len(humans)):
        want = "above 0" if dim is None else f"the store's {dim}"
        raise ValueError(f"experience record {record_id}: embedded at dim {len(humans)}, not {want}")
    return b"".join((_DIM_HEADER.pack(len(humans)), np.packbits(nonzero), values))


def _dense_rows(codes: Sequence[bytes], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, nonzero): row i holds the 3·dim float64 elements that the
    encoding `codes[i]` (`_pack_sections`, at `dim`) holds, bit for bit, and
    `nonzero` the ascending flat positions in `rows` of the nonzero ones.
    All the bitmaps are unpacked at once, and all the values land in one
    indexed assignment."""
    start = _DIM_HEADER.size
    stop = start + (3 * dim + 7) // 8
    bitmaps = np.frombuffer(b"".join([code[start:stop] for code in codes]), np.uint8)
    bits = np.unpackbits(bitmaps.reshape(len(codes), stop - start), axis=1, count=3 * dim)
    nonzero = bits.view(bool).reshape(-1).nonzero()[0]
    rows = np.zeros((len(codes), 3 * dim))
    rows.reshape(-1)[nonzero] = np.frombuffer(b"".join([code[stop:] for code in codes]), "<f8")
    return rows, nonzero


@dataclass(frozen=True)
class ExperienceRecord:
    """A stored mission: scenario, plan, outcome, plus section embeddings.

    The scenario and plan are held as their canonical texts (`serialize()` and
    `render()`, as the store writes them) and decoded on first read: `scenario`
    and `plan` parse their text, validate the plan against the scenario and
    check that both render back to the stored text, or raise `ValueError`
    naming the record. Equality compares the texts, which for a canonical
    record is equality of the decoded objects.

    The three section embeddings, of equal length `dim`, are held end to end
    in `embedding` as a nonzero bitmap and the nonzero float64 values
    (`_pack_sections`): about 580 bytes for a hashed embedding at dim 256,
    where dense float64 took 6 KiB. `emb_humans`, `emb_robots` and
    `emb_tasks` decode their section bit for bit.
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

    @property
    def dim(self) -> int:
        """The length of each section embedding."""
        return _DIM_HEADER.unpack_from(self.embedding)[0]

    def _section(self, index: int) -> tuple[float, ...]:
        dim = self.dim
        rows, _ = _dense_rows([self.embedding], dim)
        return tuple(rows[0, dim * index : dim * (index + 1)].tolist())

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
                raise ValueError(f"not text: {echo(text)}")
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
    float64 from their records' encoded embeddings); a k above the store's
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


def _top_rows(records: "_Experiences", sections: np.ndarray, query: np.ndarray, k: int) -> list[int]:
    """The k rows of `sections` (`_section_matrix` of `records`) most similar
    to `query` (the three unit query sections end to end, float64), best
    first, ties broken toward the lower row; 1 <= k <= row count.

    A row's exact score adds its human, robot and task cosines (`cosines`
    of the float64 sections decoded from the record's encoded embeddings,
    which builds no record) in that order from zero, so identical rows tie
    exactly.

    One float32 `einsum` screens the rows first, and only the rows within a
    margin of the k-th largest screened score are scored exactly. A sparse
    query (`_is_sparse`: a hashed query section is mostly zeros) is screened
    on a copy of just the columns where the float32 query is nonzero; a
    dense one on the whole matrix, which that copy would duplicate. (einsum
    sums on the calling thread. A BLAS product hands the work to the BLAS
    thread pool, which made some whole runs of queries far slower on a
    2-vCPU machine.) Take n = 3·dim terms and u = 2⁻²⁴, the float32 unit
    roundoff. Every row section and query section has unit length, so the
    terms' magnitudes sum to at most 3 (Cauchy-Schwarz, per section).
    - Rounding the row and the query to float32 moves each term by at most
      2u of its magnitude: 6u in all.
    - The terms left out multiply by a float32 zero, so they are exact
      zeros. Summing the n' <= n others in float32, in whatever order einsum
      takes, errs by at most about n'·u of their magnitude sum: 3·n·u.
    So a screened score lies within δ ≈ 3·(n + 2)·u of the exact one, and
    every row of the exact top k screens within 2δ = 3·(n + 2)·2⁻²³ of the
    k-th largest screened score. The margin is 4/3 of that, (n + 2)·2⁻²¹,
    which also covers the second-order terms, the exact score's own float64
    error (a small multiple of n·2⁻⁵³) and float32 underflow at any dim
    below 50,000.
    Ranking the rows within it gives the top k of scoring every row.
    """
    dim = len(query) // 3
    q32 = query.astype(np.float32)
    nonzero = np.flatnonzero(q32)
    if _is_sparse(len(nonzero), len(q32)):
        screen = np.einsum("ij,j->i", sections[:, nonzero], q32[nonzero])
    else:
        screen = np.einsum("ij,j->i", sections, q32)
    cut = np.partition(screen, len(screen) - k)[len(screen) - k]
    # compared in float64, so the margin is not rounded to float32
    rows = np.flatnonzero(screen >= np.float64(cut) - (3 * dim + 2) * 2.0**-21)
    block, _ = _dense_rows(records.encodings(rows.tolist()), dim)
    # the exact score alone decides the order; the screen only picks rows
    scores = _row_sums(cosines(block.reshape(len(rows), 3, dim), query.reshape(3, dim)))
    # rows are in id order, so a stable sort ranks by (-similarity, id)
    return rows[np.argsort(-scores, kind="stable")[:k]].tolist()


def _is_sparse(nonzero: int, size: int) -> bool:
    """Whether an array of `size` elements, `nonzero` of them nonzero, is
    cheaper to handle by its nonzero elements alone: fewer than a quarter.
    Past about a third, gathering a query's columns for the screen costs
    more than reading the whole matrix (900 rows at dim 256 and 1536)."""
    return 4 * nonzero < size


# Rows decoded at a time while the section matrix is built: a block is
# expanded to float64 (192 KiB at dim 256) to take its section norms.
_BLOCK_ROWS = 32


def _section_matrix(records: "_Experiences", dim: int) -> np.ndarray:
    """Row i: record i's human, robot and task embeddings (at `dim`), each
    divided by its norm (`_section_norms`), as float32, built `_BLOCK_ROWS`
    rows at a time from the records' encodings, so no float64 copy of the
    whole store is made and no record is built.

    The matrix is column-major: element (row, column) sits at
    column·N + row, for N records. `_top_rows` screens a sparse query on
    only the columns where it is nonzero, and gathering a column is then
    one contiguous copy of N floats. Of a sparse block (`_is_sparse`, as
    hashed embeddings are) only the nonzero elements are scaled and written
    at those strided places, as the matrix starts zeroed; a dense block is
    written as one transposed slab, twice as fast for it.
    """
    count, width = len(records), 3 * dim
    matrix = np.zeros(count * width, np.float32)
    columns = matrix.reshape(width, count)
    for start in range(0, count, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, count)
        rows, nonzero = _dense_rows(records.encodings(range(start, stop)), dim)
        norms = _section_norms(records, start, rows, dim)
        if _is_sparse(len(nonzero), rows.size):
            row, column = np.divmod(nonzero, width)
            values = rows.reshape(-1)[nonzero] / norms.reshape(-1)[nonzero // dim]
            matrix[column * count + start + row] = values
        else:
            unit = rows.reshape(stop - start, 3, dim) / norms[:, :, None]
            columns[:, start:stop] = unit.reshape(stop - start, width).T
    return columns.T


def _section_norms(records: "_Experiences", start: int, rows: np.ndarray, dim: int) -> np.ndarray:
    """The (record, section) norms of `rows`, the `_dense_rows` of the
    records from `start` on, or `ValueError` naming the first record with a
    section of zero norm or of one whose squares overflow to inf, which
    would divide to a zero row. They are taken over the dense rows:
    einsum's order of summation follows the element positions, so a sum
    over the nonzero squares alone could round otherwise."""
    sections = rows.reshape(len(rows), 3, dim)
    norms = np.sqrt(np.einsum("ijk,ijk->ij", sections, sections))
    bad = np.flatnonzero((norms == 0) | ~np.isfinite(norms))
    if len(bad):
        record_id = records.ids()[start + bad[0] // 3]
        norm = norms.reshape(-1)[bad[0]]
        reason = "zero vectors carry no direction" if norm == 0 else f"cannot score a vector of norm {norm}"
        raise ValueError(f"experience record {record_id}: {reason}")
    return norms


# At most this many answers (rankings of query texts, or scenarios' nearest
# records) are kept per store state, so a long-lived store asked about ever
# new queries does not grow.
_RANKINGS_KEPT = 64


class _Store:
    """A store's append-only log and its live entries: one read-only
    sequence in id order (a tuple of rules, or an experience store's
    `_Experiences`) that each write replaces under `_lock`, so threads may
    share the store and a reader takes no lock. Retrieval answers for one
    state of the store are kept in one slot (`_answer`)."""

    def __init__(self, path: str | Path | None):
        self._log = AppendLog(path)
        self._lock = threading.Lock()
        self._entries: tuple = ()
        # (entries, embedder, basis, {key: answer}); replaced whole, never mutated
        self._slot: tuple[tuple, Embedder | None, Any, dict] = ((), None, None, {})

    @property
    def path(self) -> Path | None:
        return self._log.path

    def for_objective(self, objective: Objective) -> tuple:
        return tuple(e for e in self._entries if e.objective is objective)

    def __len__(self) -> int:
        return len(self._entries)

    def _answer(self, entries: tuple, key, embedder: Embedder, work: Callable[[Any], tuple[Any, Any]]):
        """The answer for `key` about `entries`, the live entries as the
        caller read them. `work(basis)` finds it at most once per key while
        the slot holds that very tuple and an equal (`==`) embedder; it gets
        the basis every answer of that state is built from, or None, and
        returns (basis, answer). Up to `_RANKINGS_KEPT` answers are kept, and
        nothing when `work` raises."""
        held, held_by, basis, answers = self._slot
        if held is not entries or held_by != embedder:
            basis, answers = None, {}
        elif key in answers:
            return answers[key]
        basis, answer = work(basis)
        if len(answers) >= _RANKINGS_KEPT:
            answers = {}
        self._slot = (entries, embedder, basis, {**answers, key: answer})
        return answer


class RulesDatabase(_Store):
    """Objective-tagged rule store; in-memory view over an append-only log
    (`_Store`). Refinement retires an objective's current generation and
    appends the new one, so the file never rewrites history. Retrieval keeps
    the rule embeddings and the full rankings of up to `_RANKINGS_KEPT`
    query texts per state and embedder, so a repeated query does no ranking
    work at all."""

    def __init__(self, path: str | Path | None = None):
        super().__init__(path)
        self._next_id = 0
        live: dict[int, RuleEntry] = {}
        used: set[int] = set()  # live or retired

        def apply(payload: dict) -> None:
            if payload["kind"] == "rule":
                entry = _rule_entry(payload)
                if entry.id in used:
                    raise ValueError(f"rule id {entry.id} is reused")
                used.add(entry.id)
                live[entry.id] = entry
                self._next_id = max(self._next_id, entry.id + 1)
            elif payload["kind"] == "retire":
                ids = payload["ids"]
                if type(ids) is not list or any(type(entry_id) is not int for entry_id in ids):
                    raise ValueError(f"retired ids {echo(ids)} are not a list of integers")
                for entry_id in ids:
                    live.pop(entry_id, None)
            else:
                raise ValueError(f"unknown rules-log record kind {echo(payload['kind'])}")

        for _ in self._log.read_all(apply):  # applied line by line
            pass
        self._entries = tuple(sorted(live.values(), key=operator.attrgetter("id")))

    def rules(self) -> tuple[RuleEntry, ...]:
        return self._entries

    def contains_text(self, objective: Objective, text: str) -> bool:
        return any(r.text == text for r in self.for_objective(objective))

    def _ranking(self, query_text: str, embedder: Embedder) -> tuple[RuleEntry, ...]:
        """The live rules ranked for `query_text` (`_fused_ranking`), kept
        (`_answer`) with the rule embeddings, a float64 array, as basis. It
        reads the live rules once and takes no lock, so a slow embedder holds
        up no store."""
        rules = self._entries
        if not rules:
            return ()

        def rank(vectors):
            missing = [r.text for r in rules] if vectors is None else []
            embedded = embed_all(embedder, [*missing, query_text])
            if vectors is None:
                vectors = embedded[:-1]
            return vectors, _fused_ranking(query_text, rules, vectors, embedded[-1])

        return self._answer(rules, query_text, embedder, rank)

    def store(self, objective: Objective, text: str) -> RuleEntry:
        with self._lock:
            ((entry, line),) = self._new_rules(objective, [text])
            self._append(entry, line)
            self._entries += (entry,)
            return entry

    def _new_rules(self, objective: Objective, texts: Sequence[str]) -> list[tuple[RuleEntry, bytes]]:
        """The next rules, one per text, numbered from the next id, each with
        its log line. Built as a load builds them and not yet logged, so a
        rule the load would refuse uses no id and writes nothing."""
        rules = []
        for rule_id, text in enumerate(texts, self._next_id):
            payload = {"kind": "rule", "id": rule_id, "objective": objective.short, "text": text}
            rules.append((_rule_entry(payload), self._log.line(payload, f"rule {rule_id}")))
        return rules

    def _append(self, entry: RuleEntry, line: bytes) -> None:
        """Log a rule of `_new_rules`, using up its id; it is not yet live.
        The caller holds the lock."""
        self._next_id = entry.id + 1
        self._log.append(line)

    def replace_objective(self, objective: Objective, texts: Sequence[str]) -> tuple[RuleEntry, ...]:
        """Swap an objective's live rule set for a new generation, in one
        replacement of the live rules.

        A no-op when the new texts match the live ones exactly, which keeps
        fixed-point refinements from growing the log. Every new rule is built
        before the old ones are retired, so a text the load would refuse
        leaves the old generation live.
        """
        with self._lock:
            current = self.for_objective(objective)
            if [r.text for r in current] == list(texts):
                return current
            rules = self._new_rules(objective, texts)
            if current:
                retire = {"kind": "retire", "objective": objective.short, "ids": [r.id for r in current]}
                self._log.append(self._log.line(retire, "retire record"))
            kept, added = tuple(r for r in self._entries if r.objective is not objective), []
            try:
                for entry, line in rules:
                    self._append(entry, line)
                    added.append(entry)
            finally:  # what reached the log is live
                self._entries = kept + tuple(added)
            return tuple(added)


def _rule_entry(payload: dict) -> RuleEntry:
    """The rule one rules-log `rule` line holds."""
    # bool is an int subclass, and a float or text id would number the next rule
    if type(payload["id"]) is not int:
        raise ValueError(f"rule id {echo(payload['id'])} is not an integer")
    return RuleEntry(payload["id"], Objective.parse(payload["objective"]), payload["text"])


def _experience_row(payload: dict, dim: int | None = None) -> tuple:
    """The row (`_Experiences`) one experience-log line holds, embedded at
    `dim` (`_pack_sections`), with its performance text canonical; its
    scenario and plan stay as the line holds them until a record is read
    (see ExperienceRecord)."""
    record_id = payload["id"]
    if type(record_id) is not int:
        raise ValueError(f"record id {echo(record_id)} is not an integer")
    fallback = payload.get("fallback", False)
    if type(fallback) is not bool:
        raise ValueError(f"experience record {record_id}: fallback {echo(fallback)} is not a boolean")
    text = payload["performance"]
    performance = PerformanceRecord.parse(text)
    if performance.serialize() != text:
        raise ValueError(f"experience record {record_id}: performance {echo(text)} is not canonical")
    code = _OBJECTIVES.index(Objective.parse(payload["objective"]))
    scenario, plan = payload["scenario"], payload["plan"]
    sections = (payload["emb_humans"], payload["emb_robots"], payload["emb_tasks"])
    embedding = _pack_sections(record_id, sections, dim)
    return (record_id, code, fallback, *performance.values(), embedding, scenario, plan)


# the suffix of the file beside an experience log that snapshots it (`_snapshot_records`)
_SNAPSHOT_SUFFIX = ".snapshot"
_OBJECTIVES = tuple(Objective)


def _snapshot_path(log: Path) -> Path:
    return log.with_name(log.name + _SNAPSHOT_SUFFIX)


# a snapshot body's header (`_snapshot_records`): its record count, the byte
# length of its embedding blob and the character length of its text blob
_BODY_HEADER = struct.Struct("<QQQ")
# its columns, in order, as (dtype, entries per record)
_BODY_COLUMNS = (("<i8", 1), ("u1", 1), ("?", 1), ("<f8", 3), ("<i8", 1), ("<i8", 2))
_BODY_RECORD_BYTES = sum(np.dtype(dtype).itemsize * width for dtype, width in _BODY_COLUMNS)


def _snapshot_records(rows: "_Experiences") -> bytes:
    """The body `_restored_records` restores `rows` from, in id order: the
    `_BODY_HEADER`, then the `_BODY_COLUMNS` of their ids, objective codes,
    fallback flags, float64 performance triples (bit for bit), the end of
    each encoded embedding in the embedding blob, and the end of each text
    in the text blob, in characters; then the embedding blob (the encodings
    end to end) and the text blob (the scenario texts, then the plan texts,
    as UTF-8 with surrogates passed through). Builds no record. `ValueError`
    for a scenario or plan that is not text, `OverflowError` for an id
    outside int64."""
    ids, codes, fallbacks, *performances, embeddings, scenarios, plans = rows.in_id_order().columns()
    texts = scenarios + plans
    if not all(isinstance(text, str) for text in texts):
        raise ValueError("a record's scenario or plan is not text")
    blob, text = b"".join(embeddings), "".join(texts)
    columns = (
        ids, codes, fallbacks, np.array(performances).T,
        np.cumsum(list(map(len, embeddings))), np.cumsum(list(map(len, texts))),
    )
    return b"".join([
        _BODY_HEADER.pack(len(ids), len(blob), len(text)),
        *(np.array(column, dtype).tobytes() for column, (dtype, _) in zip(columns, _BODY_COLUMNS)),
        blob,
        text.encode("utf-8", "surrogatepass"),
    ])


def _bounds(ends: np.ndarray, size: int, length: int, name: str) -> list[int]:
    """0 and then `ends`, where a blob of `length` is cut, or `ValueError`
    unless `length` is `size` and `ends` rise from 0 to `size` (compared,
    not subtracted, so no int64 difference wraps)."""
    bounds = [0, *ends.tolist()]
    if (ends[:1] < 0).any() or (ends[1:] < ends[:-1]).any() or length != size or bounds[-1] != size:
        raise ValueError(f"the {name} ends do not cut a blob of {length} into the header's {size}")
    return bounds


# the number of bits set in each byte value
_POPCOUNT = np.array([bin(byte).count("1") for byte in range(256)], np.uint8)


def _check_encodings(encodings: list[bytes], blob: bytes, ends: np.ndarray) -> None:
    """`ValueError` unless each of `encodings`, the cuts of `blob` at `ends`
    (which rise to its length), is one `_pack_sections` writes at the first
    one's dim: at least `_DIM_HEADER` long, holding the first one's header
    (not 0), then the bitmap of 3·dim bits with its padding bits clear, then
    exactly 8 bytes for each bit the bitmap sets, each a finite float64. So
    every `emb_*` decodes. The headers and bitmaps of all of them are read
    at once, each through one window of the blob."""
    if not encodings:
        return
    data, lengths = np.frombuffer(blob, np.uint8), np.diff(ends, prepend=0)
    starts = ends - lengths
    if lengths.min() < _DIM_HEADER.size:
        raise ValueError(f"an encoding is shorter than its {_DIM_HEADER.size}-byte header")
    headers = sliding_window_view(data, _DIM_HEADER.size)[starts].view("<u4")[:, 0]
    dim = int(headers[0])
    fixed = _DIM_HEADER.size + (3 * dim + 7) // 8  # the header and the bitmap
    if not dim or (headers != dim).any() or lengths.min() < fixed:
        raise ValueError(f"the encodings do not all hold the header {dim} and its bitmap")
    bitmaps = sliding_window_view(data, fixed)[starts, _DIM_HEADER.size :]
    padding = (1 << (8 * (fixed - _DIM_HEADER.size) - 3 * dim)) - 1
    counts = np.take(_POPCOUNT, bitmaps).sum(axis=1, dtype=np.int64)
    if (bitmaps[:, -1] & padding).any() or (lengths != fixed + 8 * counts).any():
        raise ValueError("an encoding's length is not that of the values its bitmap marks")
    if not np.isfinite(np.frombuffer(b"".join([code[fixed:] for code in encodings]), "<f8")).all():
        raise ValueError("an encoding holds a value that is not finite")


def _restored_records(body: memoryview) -> "_Experiences":
    """The rows `_snapshot_records` wrote `body` from, field for field. Each
    column is read from `body` by one `np.frombuffer`, and the text blob
    decoded once. `ValueError` for a body it did not write: one shorter than
    its header, or than the columns and the embedding blob the header
    sizes; ids that do not ascend; an objective code past the objectives; a
    performance triple `PerformanceRecord` would refuse
    (`check_performance_columns`); ends that do not cut their blob; an
    encoding `_check_encodings` refuses; or text left over. So a body that
    loads fails no later read that rows parsed from a log would pass."""
    try:
        count, blob_size, text_size = _BODY_HEADER.unpack_from(body)
    except struct.error as exc:  # which is not a ValueError
        raise ValueError(f"no body header: {exc}") from exc
    stop = _BODY_HEADER.size + count * _BODY_RECORD_BYTES + blob_size
    if stop > len(body):
        raise ValueError(
            f"{count} records and a {blob_size}-byte embedding blob overrun a {len(body)}-byte body"
        )
    offset, columns = _BODY_HEADER.size, []
    for dtype, width in _BODY_COLUMNS:
        columns.append(np.frombuffer(body, dtype, count * width, offset))
        offset += columns[-1].nbytes
    ids, codes, fallbacks, performances, code_ends, text_ends = columns
    if (ids[1:] <= ids[:-1]).any():
        raise ValueError("the ids do not ascend")
    if count and codes.max() >= len(_OBJECTIVES):
        raise ValueError(f"objective code {codes.max()} is not an objective's")
    performances = performances.reshape(count, 3)
    check_performance_columns(performances.T)
    blob = body[offset:stop].tobytes()
    bounds = _bounds(code_ends, blob_size, len(blob), "embedding")
    encodings = [blob[start:end] for start, end in zip(bounds, bounds[1:])]
    _check_encodings(encodings, blob, code_ends)
    text = str(body[stop:], "utf-8", "surrogatepass")
    bounds = _bounds(text_ends, text_size, len(text), "text")
    texts = [text[start:end] for start, end in zip(bounds, bounds[1:])]
    columns = (ids.tolist(), codes.tolist(), fallbacks.tolist(), *performances.T.tolist(), encodings)
    return _Experiences((*columns, texts[:count], texts[count:]))


class _Experiences(Sequence):
    """The experience store's only in-memory form: its rows in id order as
    columns, one list each of ids, objective codes (in `Objective` order),
    fallback flags, the three performance values (`PerformanceRecord`
    order), encoded embeddings (`_pack_sections`), scenario texts and plan
    texts. A full parse, `store` and a snapshot restore
    (`_restored_records`) all append rows, and a row never changes once
    appended.

    Each instance reads the first `len` rows of lists it shares with the
    instances appended from it (`plus`), so a writer appends under the
    store's lock and publishes the longer instance, and a reader holding
    this one sees the same rows and takes no lock. Only the longest
    instance may be appended to. An index reads one record
    (`ExperienceRecord`), built from its row on the first read and kept for
    every instance; two readers racing on one row build it twice, and
    `dict.setdefault` hands both the first kept. `encodings`, `ids` and
    `keys` read columns without building a record."""

    def __init__(self, columns: tuple[list, ...] | None = None, built: dict | None = None, length=None):
        self._columns = columns or tuple([] for _ in range(9))
        self._length = len(self._columns[0]) if length is None else length
        self._built: dict[int, ExperienceRecord] = {} if built is None else built

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index: int) -> ExperienceRecord:
        row = range(self._length)[index]  # a list's negative indices and IndexError
        record = self._built.get(row)
        if record is None:
            ids, codes, fallbacks, points, seconds, utilization, embeddings, scenarios, plans = self._columns
            record = self._built.setdefault(row, ExperienceRecord(
                ids[row], _OBJECTIVES[codes[row]], scenarios[row], plans[row],
                PerformanceRecord(points[row], seconds[row], utilization[row]), embeddings[row], fallbacks[row],
            ))
        return record

    def columns(self) -> list[list]:
        """A copy of each column, cut to this instance's rows."""
        return [column[: self._length] for column in self._columns]

    def encodings(self, rows: Iterable[int]) -> list[bytes]:
        """The encoded embeddings of the records at `rows`, each 0 <= row < len, in order."""
        return list(map(self._columns[6].__getitem__, rows))

    @property
    def dim(self) -> int | None:
        """The first record's section length, read from its encoding's
        header; None while there is none."""
        return _DIM_HEADER.unpack_from(self._columns[6][0])[0] if self._length else None

    def ids(self) -> list[int]:
        return self._columns[0][: self._length]

    def plus(self, row: tuple) -> "_Experiences":
        """These rows and then `row` (`_experience_row`), appended to the
        shared columns; the records already built are kept."""
        for column, value in zip(self._columns, row):
            column.append(value)
        return _Experiences(self._columns, self._built)

    def in_id_order(self) -> "_Experiences":
        """These rows, or when their ids do not ascend, as in a hand-ordered
        log, a copy sorted by one argsort of the ids."""
        ids = self.ids()
        if all(map(operator.lt, ids, ids[1:])):
            return self
        order = sorted(range(len(ids)), key=ids.__getitem__)
        return _Experiences(tuple(list(map(column.__getitem__, order)) for column in self._columns))

    def keys(self) -> set[tuple[Objective, str, str]]:
        """The (objective, scenario text, plan text) dedup key of every row
        whose scenario and plan are text, read from the columns."""
        codes, scenarios, plans = (self._columns[i][: self._length] for i in (1, 7, 8))
        # a record whose scenario or plan is not text fails on first read and matches no mission
        return {
            (_OBJECTIVES[code], scenario, plan)
            for code, scenario, plan in zip(codes, scenarios, plans)
            if isinstance(scenario, str) and isinstance(plan, str)
        }


class ExperienceDatabase(_Store):
    """Append-only store of (scenario, plan, performance) mission records, kept
    in id order (`_Store`, as `_Experiences` columns) with a set of (objective,
    scenario text, plan text) dedup keys, built on the first `contains` or
    `store`. Every record's sections are embedded at one dimension, `dim`,
    which each record's encoding (`_pack_sections`), the only float64 copy
    of the embeddings, holds. Retrieval keeps, per state and embedder, a
    float32 matrix of the records' unit section rows (`_section_matrix`) and
    the nearest records of up to `_RANKINGS_KEPT` scenarios (`_nearest`).

    A load restores the rows of the log prefix that the log's snapshot
    covers (`read_snapshot`) and parses only the lines after it into rows,
    at the restored records' dim; one that parsed whole lines the snapshot
    did not cover writes a new one (`write_snapshot`) from the rows. A
    record id the log already holds is a `CorruptLogError` naming the line.
    A load builds no record: only `records()` builds every one, a query
    builds the ones it returns and `store` the one it appends."""

    def __init__(self, path: str | Path | None = None):
        super().__init__(path)
        # a store with no log reads and hashes nothing
        self._entries: _Experiences = self._load() if self.path is not None else _Experiences()
        self._dedup_keys: set[tuple[Objective, str, str]] | None = None
        self._next_id = self._entries.ids()[-1] + 1 if self._entries else 0

    def _load(self) -> _Experiences:
        """The log's rows in id order."""
        restored, prefix = read_snapshot(_snapshot_path(self.path), self.path, _restored_records)
        rows = restored or _Experiences()
        covered, ids = prefix.size, set(rows.ids())

        def admit(payload: dict) -> tuple:
            row = _experience_row(payload, rows.dim)
            if row[0] in ids:
                raise ValueError(f"record id {row[0]} is reused")
            ids.add(row[0])
            return row

        for row in self._log.read_all(admit, prefix):
            rows = rows.plus(row)
        if prefix.size > covered:  # whole lines were parsed; an unterminated last one is not covered
            covering = _Experiences(rows._columns, rows._built, prefix.items)  # not appended to
            write_snapshot(_snapshot_path(self.path), self.path, lambda: _snapshot_records(covering), prefix)
        return rows.in_id_order()

    @property
    def dim(self) -> int | None:
        """Every record's section length (the first one's); None while empty."""
        return self._entries.dim

    @property
    def _dedup(self) -> set[tuple[Objective, str, str]]:
        """The records' dedup keys (`_Experiences.keys`), built under the lock on
        first use; `store` adds to this one set."""
        if self._dedup_keys is None:
            with self._lock:
                if self._dedup_keys is None:
                    self._dedup_keys = self._entries.keys()
        return self._dedup_keys

    def records(self) -> tuple[ExperienceRecord, ...]:
        return tuple(self._entries)

    def contains(self, objective: Objective, scenario: MissionScenario, plan: ItaPlan) -> bool:
        return (objective, scenario.serialize(), plan.render()) in self._dedup

    def _nearest(self, scenario: MissionScenario, k: int, embedder: Embedder) -> tuple[ExperienceRecord, ...]:
        """The min(k, N) of the store's N >= 1 records most similar to
        `scenario`, best first (`_top_rows`); k >= 1. Kept (`_answer`) under
        the section texts and min(k, N), with the section matrix as basis.
        A miss checks the query's dimension before it builds the matrix, and
        raises what embedding and scoring raise, a stored section of zero
        or infinite norm as a `CorruptLogError` naming the store and the
        record. Only the records returned are built."""
        records = self._entries
        k = min(k, len(records))

        def score(sections):
            queries = _section_queries(scenario, embedder)
            dim = records.dim
            if queries.shape[1] != dim:
                raise ValueError(f"embedding dimension mismatch: {queries.shape[1]} vs {dim}")
            if sections is None:
                try:
                    sections = _section_matrix(records, dim)
                except ValueError as exc:  # a stored section of zero or infinite norm, which load admits
                    raise CorruptLogError(f"{self.path}: {exc}") from exc
            rows = _top_rows(records, sections, queries.ravel(), k)
            return sections, tuple(records[row] for row in rows)

        return self._answer(records, (scenario.sections, k), embedder, score)

    def store(
        self,
        objective: Objective,
        scenario: MissionScenario,
        plan: ItaPlan,
        performance: PerformanceRecord,
        embeddings: tuple[tuple[float, ...], tuple[float, ...], tuple[float, ...]],
        fallback: bool = False,
    ) -> ExperienceRecord:
        """The next record, built from its log line as a load builds it; a refused one uses no id."""
        humans, robots, tasks = embeddings
        dedup = self._dedup  # built before the lock is taken, under it
        with self._lock:
            payload = {
                "kind": "experience",
                "id": self._next_id,
                "objective": objective.short,
                "scenario": scenario.serialize(),
                "plan": plan.render(),
                "performance": performance.serialize(),
                "emb_humans": list(humans),
                "emb_robots": list(robots),
                "emb_tasks": list(tasks),
                "fallback": fallback,
            }
            row = _experience_row(payload, self.dim)
            line = self._log.line(payload, f"experience record {row[0]}")
            self._next_id += 1
            self._log.append(line)
            self._entries = self._entries.plus(row)
            record = self._entries[-1]
            dedup.add((record.objective, record.scenario_text, record.plan_text))
            return record
