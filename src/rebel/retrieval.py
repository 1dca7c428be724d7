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

import contextlib
import functools
import hashlib
import io
import json
import logging
import math
import mmap
import operator
import os
import re
import stat
import struct
import tempfile
import threading
import zipfile
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
    echo,
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


def _dense_rows(records: Sequence["ExperienceRecord"], dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, nonzero): row i holds the 3·dim float64 elements that record
    i's encoding (`_pack_sections`, at `dim`) holds, bit for bit, and
    `nonzero` the ascending flat positions in `rows` of the nonzero ones.
    All the bitmaps are unpacked at once, and all the values land in one
    indexed assignment."""
    start = _DIM_HEADER.size
    stop = start + (3 * dim + 7) // 8
    codes = [rec.embedding for rec in records]
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
        rows, _ = _dense_rows([self], dim)
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


def _top_rows(
    records: Sequence[ExperienceRecord], sections: np.ndarray, query: np.ndarray, k: int
) -> list[int]:
    """The k rows of `sections` (`_section_matrix` of `records`) most similar
    to `query` (the three unit query sections end to end, float64), best
    first, ties broken toward the lower row; 1 <= k <= row count.

    A row's exact score adds its human, robot and task cosines (`cosines`
    of the float64 sections decoded from the record's embeddings) in that
    order from zero, so identical rows tie exactly.

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
    block, _ = _dense_rows([records[row] for row in rows.tolist()], dim)
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

# Private pages, mapped in by the map call itself: far fewer page faults
# than first writes to a shared map take.
_MATRIX_MAP_FLAGS = mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS | getattr(mmap, "MAP_POPULATE", 0)


def _section_matrix(records: Sequence[ExperienceRecord], dim: int) -> np.ndarray:
    """Row i: record i's human, robot and task embeddings (at `dim`), each
    divided by its norm (`_section_norms`), as float32, built `_BLOCK_ROWS`
    rows at a time, so no float64 copy of the whole store is made.

    The matrix is column-major: element (row, column) sits at
    column·N + row, for N records. `_top_rows` screens a sparse query on
    only the columns where it is nonzero, and gathering a column is then
    one contiguous copy of N floats. Of a sparse block (`_is_sparse`, as
    hashed embeddings are) only the nonzero elements are scaled and written
    at those strided places, as the map's pages start zeroed; a dense block
    is written as one transposed slab, twice as fast for it.

    The matrix lives in an anonymous map of its own, so dropping it returns
    its pages at once. A heap block would stay resident, and the next store
    loaded would split it, so the next matrix would need new pages on top.
    """
    count, width = len(records), 3 * dim
    pages = mmap.mmap(-1, max(4 * count * width, 1), flags=_MATRIX_MAP_FLAGS)  # a map cannot be empty
    matrix = np.frombuffer(pages, np.float32, count * width)
    columns = matrix.reshape(width, count)
    for start in range(0, count, _BLOCK_ROWS):
        block = records[start : start + _BLOCK_ROWS]
        rows, nonzero = _dense_rows(block, dim)
        norms = _section_norms(block, rows, dim)
        if _is_sparse(len(nonzero), rows.size):
            row, column = np.divmod(nonzero, width)
            values = rows.reshape(-1)[nonzero] / norms.reshape(-1)[nonzero // dim]
            matrix[column * count + start + row] = values
        else:
            unit = rows.reshape(len(block), 3, dim) / norms[:, :, None]
            columns[:, start : start + len(block)] = unit.reshape(len(block), width).T
    return columns.T


def _section_norms(records: Sequence[ExperienceRecord], rows: np.ndarray, dim: int) -> np.ndarray:
    """The (record, section) norms of `_dense_rows` of `records`, or
    `ValueError` naming the first record with a section of zero norm. They
    are taken over the dense rows: einsum's order of summation follows the
    element positions, so a sum over the nonzero squares alone could round
    otherwise."""
    sections = rows.reshape(len(records), 3, dim)
    norms = np.sqrt(np.einsum("ijk,ijk->ij", sections, sections))
    if not norms.all():
        record = records[np.flatnonzero(norms == 0)[0] // 3]
        raise ValueError(f"experience record {record.id}: zero vectors carry no direction")
    return norms


class CorruptLogError(ValueError):
    """A store's log holds a line that is not one of its records; the message
    names the file and the line number."""


# An experience-log line is several KiB (768 floats at dim 256), so the
# default 8 KiB read buffer splits most lines across two reads; joining the
# pieces took about 5 µs a line, and this buffer cuts that to about 1.
_READ_BUFFER_BYTES = 64 * 1024


@dataclass
class _Prefix:
    """A log's first `size` bytes, which end at a newline: `lines` whole
    lines, `items` of them converted to records, and `digest`, the running
    sha256 of those bytes."""

    size: int
    lines: int
    items: int
    digest: Any

    def advance(self, line: bytes, items: int) -> None:
        """Take in the next whole line, which held `items` records."""
        self.size += len(line)
        self.lines += 1
        self.items += items
        self.digest.update(line)


class _AppendLog:
    """Append-only JSON-lines log with write-through durability. A torn final
    line (a crash mid-append) is skipped with a warning on load and cut off by
    the next append; a bad line anywhere else is a `CorruptLogError`."""

    def __init__(self, path: str | Path | None):
        self.path = Path(path) if path is not None else None
        self._lock = threading.Lock()
        self._repair: tuple[int, bytes] | None = None  # (truncate to, then write)

    def line(self, payload: dict, name: str) -> bytes:
        """`payload` as one log line, or `ValueError` naming the entry (`name`)
        when it holds a value JSON cannot, such as a numpy float32. Empty for
        a log with no file, which writes nothing and so encodes nothing."""
        if self.path is None:
            return b""
        try:
            return json.dumps(payload, sort_keys=True).encode("utf-8") + b"\n"
        except TypeError as exc:
            raise ValueError(f"{name}: not JSON: {exc}") from exc

    def append(self, entry: dict | bytes) -> None:
        """Write `entry`, a payload or the `line` made of one, at the end of the log."""
        if self.path is None:
            return
        line = entry if isinstance(entry, bytes) else self.line(entry, "log entry")
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

    def read_all(self, convert: Callable[[Any], Any], prefix: _Prefix | None = None) -> Iterator[Any]:
        """`convert(payload)` for each line's payload in file order, one line
        at a time, so no payload outlives its line, from the end of `prefix`,
        which takes in every whole line read, or else from the start of the
        file. A line that is not JSON (or nests too deeply to decode), or
        whose payload `convert` rejects (`KeyError`, `TypeError`,
        `ValueError`, `AttributeError`), raises `CorruptLogError` naming its
        number in the file, unless it is a final line with no newline that is
        not JSON: that torn append is skipped. The next append's repair is
        set only once every line has been converted."""
        if self.path is None or not self.path.exists():
            return
        size, lines = (prefix.size, prefix.lines) if prefix else (0, 0)
        repair = None
        with open(self.path, "rb", buffering=_READ_BUFFER_BYTES) as handle:
            handle.seek(size)
            for number, line in enumerate(handle, lines + 1):
                size += len(line)
                torn = not line.endswith(b"\n")  # only the final line can be
                if not line.strip():
                    if prefix and not torn:
                        prefix.advance(line, 0)
                    continue
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
                elif prefix:
                    prefix.advance(line, 1)
        self._repair = repair


# At most this many answers (rankings of query texts, or scenarios' nearest
# records) are kept per store state, so a long-lived store asked about ever
# new queries does not grow.
_RANKINGS_KEPT = 64


class _Store:
    """A store's append-only log and its live entries: one tuple in id order
    that each write replaces whole under `_lock`, so threads may share the
    store and a reader takes no lock. Retrieval answers for one state of the
    store are kept in one slot (`_answer`)."""

    def __init__(self, path: str | Path | None):
        self._log = _AppendLog(path)
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
                self._log.append(retire)
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


def _experience_record(payload: dict, dim: int | None = None) -> ExperienceRecord:
    """The record one experience-log line holds, embedded at `dim` (`_pack_sections`),
    with its performance text canonical; its scenario and plan stay text
    until first read (see ExperienceRecord)."""
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
    return ExperienceRecord(
        id=record_id,
        objective=Objective.parse(payload["objective"]),
        scenario_text=payload["scenario"],
        plan_text=payload["plan"],
        performance=performance,
        embedding=_pack_sections(
            record_id, (payload["emb_humans"], payload["emb_robots"], payload["emb_tasks"]), dim
        ),
        fallback=fallback,
    )


# An experience log's snapshot is the file beside it named with this suffix:
# `_SNAPSHOT_MAGIC`, the sha256 of the rest of the file, then the rest: the
# `_SNAPSHOT_PREFIX` fields (the size in bytes and in lines of the log prefix
# it covers, and that prefix's sha256) and an uncompressed `.npz` of the
# prefix's records (`_snapshot_records`).
_SNAPSHOT_SUFFIX = ".snapshot"
_SNAPSHOT_MAGIC = b"rebel experience snapshot 1\n"
_SNAPSHOT_PREFIX = struct.Struct("<QQ32s")
_OBJECTIVES = tuple(Objective)


def _snapshot_path(log: Path) -> Path:
    return log.with_name(log.name + _SNAPSHOT_SUFFIX)


def _blob(name: str, parts: Sequence[bytes]) -> dict[str, np.ndarray]:
    """`parts` end to end as array `name`, and the offset where each ends as
    array `name_ends`."""
    ends = np.cumsum([len(part) for part in parts], dtype=np.int64)
    return {name: np.frombuffer(b"".join(parts), np.uint8), f"{name}_ends": ends}


def _unblob(arrays, name: str) -> list[bytes]:
    """The parts `_blob` put in array `name` of the `.npz` `arrays`."""
    blob, ends = arrays[name].tobytes(), arrays[f"{name}_ends"].tolist()
    return [blob[start:stop] for start, stop in zip([0, *ends], ends)]


def _snapshot_records(records: Sequence[ExperienceRecord]) -> bytes:
    """The `.npz` `_restored_records` restores `records` from: their ids,
    objective codes, fallback flags and float64 performance triples (bit
    for bit), their encoded embeddings as one blob, and their scenario
    texts then their plan texts as another (UTF-8, surrogates passed
    through). `ValueError` for a scenario or plan that is not text,
    `OverflowError` for an id outside int64."""
    texts = [r.scenario_text for r in records] + [r.plan_text for r in records]
    if not all(isinstance(text, str) for text in texts):
        raise ValueError("a record's scenario or plan is not text")
    npz = io.BytesIO()
    np.savez(
        npz,
        ids=np.array([r.id for r in records], np.int64),
        objectives=np.array([_OBJECTIVES.index(r.objective) for r in records], np.uint8),
        fallbacks=np.array([r.fallback for r in records], bool),
        performances=np.array([r.performance.values() for r in records], np.float64),
        **_blob("embeddings", [r.embedding for r in records]),
        **_blob("texts", [text.encode("utf-8", "surrogatepass") for text in texts]),
    )
    return npz.getvalue()


def _restored_records(npz: io.BytesIO) -> tuple[ExperienceRecord, ...]:
    """The records `_snapshot_records` wrote the `.npz` that `npz` is at
    from, field for field. Each blob is split before the next is read."""
    with np.load(npz, allow_pickle=False) as arrays:
        texts = [text.decode("utf-8", "surrogatepass") for text in _unblob(arrays, "texts")]
        count = len(texts) // 2
        return tuple(
            map(
                ExperienceRecord,
                arrays["ids"].tolist(),
                [_OBJECTIVES[code] for code in arrays["objectives"].tolist()],
                texts[:count],
                texts[count:],
                [PerformanceRecord(*triple) for triple in arrays["performances"].tolist()],
                _unblob(arrays, "embeddings"),
                arrays["fallbacks"].tolist(),
            )
        )


def _read_snapshot(log: Path) -> tuple[tuple[ExperienceRecord, ...], _Prefix]:
    """The records of the log prefix that `log`'s snapshot covers, in id
    order, and that prefix; or no records and the empty prefix when the
    snapshot is missing, unreadable, corrupt (what follows its
    own sha256 does not hash to it), or stale (the log's first bytes no
    longer hash to its prefix sha256, read `_READ_BUFFER_BYTES` at a time).
    Never raises: a snapshot is derived data, and a fault in it only costs a
    full parse, logged at debug level."""
    path = _snapshot_path(log)
    try:
        raw = path.read_bytes()
        data = memoryview(raw)
        start = len(_SNAPSHOT_MAGIC) + hashlib.sha256().digest_size
        if data[: len(_SNAPSHOT_MAGIC)] != _SNAPSHOT_MAGIC or len(data) < start + _SNAPSHOT_PREFIX.size:
            raise ValueError("not a snapshot")
        if hashlib.sha256(data[start:]).digest() != data[len(_SNAPSHOT_MAGIC) : start]:
            raise ValueError("it does not match its own hash")
        size, lines, prefix_sha = _SNAPSHOT_PREFIX.unpack_from(data, start)
        digest = hashlib.sha256()
        with open(log, "rb", buffering=0) as handle:
            while (remaining := size - handle.tell()) > 0:
                chunk = handle.read(min(remaining, _READ_BUFFER_BYTES))
                if not chunk:
                    raise ValueError(f"the log is shorter than the {size} bytes it covers")
                digest.update(chunk)
        if digest.digest() != prefix_sha:
            raise ValueError(f"the log's first {size} bytes have changed")
        npz = io.BytesIO(raw)  # shares the bytes, where a slice would copy them
        npz.seek(start + _SNAPSHOT_PREFIX.size)
        records = _restored_records(npz)
    except (OSError, ValueError, KeyError, IndexError, zipfile.BadZipFile) as exc:
        logger.debug("%s: not used, the whole log is parsed: %s", path, exc)
        return (), _Prefix(0, 0, 0, hashlib.sha256())
    return records, _Prefix(size, lines, len(records), digest)


def _write_snapshot(log: Path, records: Sequence[ExperienceRecord], prefix: _Prefix) -> None:
    """Snapshot `records`, those of the log prefix `prefix`, beside `log`:
    written to a temporary file in the same directory, with the log's
    permission bits, then moved over the old snapshot in one `os.replace`.
    It is not synced: a torn snapshot fails its own hash and is not used.
    Never raises: a failure is logged at debug level and its temporary file
    removed."""
    path = _snapshot_path(log)
    temp = None
    try:
        fields = _SNAPSHOT_PREFIX.pack(prefix.size, prefix.lines, prefix.digest.digest())
        npz = _snapshot_records(records)
        digest = hashlib.sha256(fields)
        digest.update(npz)
        handle, temp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp", dir=path.parent)
        with os.fdopen(handle, "wb") as out:
            os.fchmod(out.fileno(), stat.S_IMODE(os.stat(log).st_mode))
            out.write(_SNAPSHOT_MAGIC + digest.digest() + fields)
            out.write(npz)
        os.replace(temp, path)
    except (OSError, OverflowError, ValueError) as exc:
        logger.debug("%s: not written: %s", path, exc)
        if temp is not None:
            with contextlib.suppress(OSError):
                os.remove(temp)


class ExperienceDatabase(_Store):
    """Append-only store of (scenario, plan, performance) mission records, kept
    in id order (`_Store`) with a set of (objective, scenario text, plan text)
    dedup keys. Every record's sections are embedded at one dimension, `dim`,
    which each record's encoding (`_pack_sections`), the only float64 copy of
    the embeddings, holds. Retrieval keeps, per state and embedder, a float32
    matrix of the records' unit section rows (`_section_matrix`) and the
    nearest records of up to `_RANKINGS_KEPT` scenarios (`_nearest`).

    A load restores the records of the log prefix that the log's snapshot
    covers (`_read_snapshot`) and parses only the lines after it, at the
    restored records' dim; one that parsed whole lines the snapshot did not
    cover writes a new one (`_write_snapshot`). A record id the log already
    holds is a `CorruptLogError` naming the line."""

    def __init__(self, path: str | Path | None = None):
        super().__init__(path)
        if self.path is not None:  # a store with no log reads and hashes nothing
            self._entries = self._load()
        # a record whose scenario or plan is not text fails on first read and matches no mission
        self._dedup = {
            (r.objective, r.scenario_text, r.plan_text)
            for r in self._entries
            if isinstance(r.scenario_text, str) and isinstance(r.plan_text, str)
        }
        self._next_id = self._entries[-1].id + 1 if self._entries else 0

    def _load(self) -> tuple[ExperienceRecord, ...]:
        """The log's records in id order."""
        restored, prefix = _read_snapshot(self.path)
        covered = prefix.size
        dim = restored[0].dim if restored else None
        ids = {r.id for r in restored}

        def admit(payload: dict) -> ExperienceRecord:
            nonlocal dim
            record = _experience_record(payload, dim)
            if record.id in ids:
                raise ValueError(f"record id {record.id} is reused")
            ids.add(record.id)
            dim = record.dim
            return record

        tail = list(self._log.read_all(admit, prefix))
        if prefix.size > covered:  # whole lines were parsed; an unterminated last one is not covered
            snapshotted = restored + tuple(tail[: prefix.items - len(restored)])
            _write_snapshot(self.path, sorted(snapshotted, key=operator.attrgetter("id")), prefix)
        return tuple(sorted(restored + tuple(tail), key=operator.attrgetter("id")))

    @property
    def dim(self) -> int | None:
        """Every record's section length (the first one's); None while empty."""
        records = self._entries
        return records[0].dim if records else None

    def records(self) -> tuple[ExperienceRecord, ...]:
        return self._entries

    def contains(self, objective: Objective, scenario: MissionScenario, plan: ItaPlan) -> bool:
        return (objective, scenario.serialize(), plan.render()) in self._dedup

    def _nearest(self, scenario: MissionScenario, k: int, embedder: Embedder) -> tuple[ExperienceRecord, ...]:
        """The min(k, N) of the store's N >= 1 records most similar to
        `scenario`, best first (`_top_rows`); k >= 1. Kept (`_answer`) under
        the section texts and min(k, N), with the section matrix as basis.
        A miss checks the query's dimension before it builds the matrix, and
        raises what embedding and scoring raise, a stored section of zero
        norm as a `CorruptLogError` naming the store and the record."""
        records = self._entries
        k = min(k, len(records))

        def score(sections):
            queries = _section_queries(scenario, embedder)
            dim = records[0].dim
            if queries.shape[1] != dim:
                raise ValueError(f"embedding dimension mismatch: {queries.shape[1]} vs {dim}")
            if sections is None:
                try:
                    sections = _section_matrix(records, dim)
                except ValueError as exc:  # a stored section of zero norm, which load admits
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
            record = _experience_record(payload, self.dim)
            line = self._log.line(payload, f"experience record {record.id}")
            # the plan's decode cache; the scenario, which would hold its text
            # a second time, is parsed from `scenario_text` on first read
            vars(record)["plan"] = plan
            self._next_id += 1
            self._log.append(line)
            self._entries += (record,)
            self._dedup.add((record.objective, record.scenario_text, record.plan_text))
            return record
