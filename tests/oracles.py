"""Independent reference implementations of the retrieval math, in plain
loops with no reuse of the library, for the tests to compare against."""

from __future__ import annotations

import itertools
import math

import numpy as np

from rebel.core import Objective


def ref_tokenize(text: str) -> list[str]:
    out, current = [], []
    for ch in text.lower():
        if ch.isalnum():
            current.append(ch)
        elif current:
            out.append("".join(current))
            current = []
    if current:
        out.append("".join(current))
    return out


def ref_idf(term: str, texts: list[str]) -> float:
    n = sum(1 for t in texts if term in ref_tokenize(t))
    big_n = len(texts)
    return math.log((big_n - n + 0.5) / (n + 0.5))


def ref_bm25(query: str, text: str, texts: list[str], k1: float, b: float) -> float:
    tokens = ref_tokenize(text)
    avg = sum(len(ref_tokenize(t)) for t in texts) / len(texts)
    score = 0.0
    for term in ref_tokenize(query):
        tf = tokens.count(term)
        if tf == 0:
            continue
        score += ref_idf(term, texts) * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(tokens) / avg))
    return score


def ref_cosine(u, v) -> float:
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return dot / (nu * nv)


def ref_rank(scores: dict[int, float]) -> dict[int, int]:
    ordered = sorted(scores, key=lambda i: (-scores[i], i))
    return {i: pos + 1 for pos, i in enumerate(ordered)}


def ref_fusion_order(query: str, entries, embedder, alpha, c, k1, b) -> list[int]:
    texts = [e.text for e in entries]
    sparse = {e.id: ref_bm25(query, e.text, texts, k1, b) for e in entries}
    dense = {e.id: ref_cosine(embedder.embed(query), embedder.embed(e.text)) for e in entries}
    sparse_rank, dense_rank = ref_rank(sparse), ref_rank(dense)
    fused = {
        e.id: alpha / (c + sparse_rank[e.id]) + (1 - alpha) / (c + dense_rank[e.id])
        for e in entries
    }
    return sorted(fused, key=lambda i: (-fused[i], i))


def ref_experience_order(scenario, prefs, records, embedder, k: int, m: int) -> list[int]:
    q_h = embedder.embed(scenario.render_human_section())
    q_r = embedder.embed(scenario.render_robot_section())
    q_t = embedder.embed(scenario.render_task_section())
    sims = {
        rec.id: ref_cosine(q_h, rec.emb_humans)
        + ref_cosine(q_r, rec.emb_robots)
        + ref_cosine(q_t, rec.emb_tasks)
        for rec in records
    }
    survivors = sorted(records, key=lambda rec: (-sims[rec.id], rec.id))[:k]

    spans = {}
    for objective in Objective:
        values = [rec.performance.value(objective) for rec in survivors]
        lo, hi = min(values), max(values)
        if hi - lo < 1e-12:
            lo, hi = lo - 0.5, hi + 0.5
        spans[objective] = (lo, hi)

    def score(rec) -> float:
        total = 0.0
        for objective, weight in prefs.weights:
            lo, hi = spans[objective]
            frac = (rec.performance.value(objective) - lo) / (hi - lo)
            if objective is not Objective.TASK_PERFORMANCE:
                frac = 1.0 - frac
            total += weight * min(1.0, max(0.0, frac))
        return total

    return [rec.id for rec in sorted(survivors, key=lambda rec: (-score(rec), rec.id))][:m]


def ref_section_matrix(records) -> np.ndarray:
    """The unit-row section matrix as it was built from per-record float
    tuples with `np.fromiter`, before the store held embeddings packed."""
    dim = len(records[0].emb_humans) if records else 0
    sections = [vec for rec in records for vec in (rec.emb_humans, rec.emb_robots, rec.emb_tasks)]
    floats = itertools.chain.from_iterable(sections)
    matrix = np.fromiter(floats, float, count=len(sections) * dim).reshape(len(records), 3 * dim)
    for start in (0, dim, 2 * dim):
        block = matrix[:, start : start + dim]
        block /= np.sqrt(np.einsum("ij,ij->i", block, block))[:, None]
    return matrix


def ref_einsum_top_k(sections: np.ndarray, queries, k: int) -> list[int]:
    """The top-k rows of the section matrix as `retrieve_experiences` ranked
    them by scoring every row exactly: three row-wise einsums added in human,
    robot, task order from zeros, then a stable sort on the negated sums."""
    dim = sections.shape[1] // 3
    scores = np.zeros(len(sections))
    for start, query in zip((0, dim, 2 * dim), queries):
        scores += np.einsum("ij,j->i", sections[:, start : start + dim], np.array(query))
    return np.argsort(-scores, kind="stable")[:k].tolist()
