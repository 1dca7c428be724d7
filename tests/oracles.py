"""Independent reference implementations of the retrieval math, in plain
loops with no reuse of the library, and frozen copies of earlier versions
of the greedy allocator and the plan parser, for the tests to compare
against."""

from __future__ import annotations

import hashlib
import itertools
import math
import re

import numpy as np

from rebel.core import (
    Assignment,
    ItaPlan,
    MissionScenario,
    Objective,
    PreferenceVector,
    Tier,
    validate_plan,
)
from rebel.prompt import ParseFailure, PlanInvalid, assignment_lines
from rebel.sim import SimConfig, human_accuracy_probability, robot_accuracy_probability, travel_time


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


def ref_hashed_embed(text: str, dim: int) -> tuple[float, ...]:
    """`HashedEmbedder(dim).embed(text)` as it was before it counted tokens
    with numpy: one float per bucket, counted token by token, and each
    divided by the root of the exact sum of their squares."""
    counts = [0.0] * dim
    for token in re.findall(r"[a-z0-9]+", text.lower()):
        counts[int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:4], "big") % dim] += 1.0
    if not any(counts):
        counts[0] = 1.0
    norm = math.sqrt(sum(c * c for c in counts))
    return tuple(c / norm for c in counts)


def ref_unit_vector(vec) -> tuple[float, ...]:
    """`vec` scaled to unit length as `retrieval.unit_rows` scales a row, in
    a plain loop: the squares added one at a time from the left, from 0.0,
    and each element divided by their root."""
    total = 0.0
    for value in vec:
        total += value * value
    norm = math.sqrt(total)
    if not 0 < norm < math.inf:
        raise ValueError(f"cannot normalize a vector of norm {norm}")
    return tuple(value / norm for value in vec)


def ref_dense_score(q, d) -> float:
    """`retrieval.dense_score` as it was before it was a one-row
    `retrieval.cosines`: the dot product and both sums of squares added one
    term at a time from the left, from 0.0, and the dot product divided by
    the product of the roots; the same errors, the query's norm checked
    first."""
    if len(q) != len(d):
        raise ValueError(f"embedding dimension mismatch: {len(q)} vs {len(d)}")
    dot = q_squares = d_squares = 0.0
    for a, b in zip(q, d):
        dot += a * b
        q_squares += a * a
        d_squares += b * b
    nq, nd = math.sqrt(q_squares), math.sqrt(d_squares)
    for norm in (nq, nd):
        if not 0 < norm < math.inf:
            raise ValueError(f"cannot score a vector of norm {norm}")
    return dot / (nq * nd)


def ref_cosine(u, v) -> float:
    dot = sum(a * b for a, b in zip(u, v))
    nu = math.sqrt(sum(a * a for a in u))
    nv = math.sqrt(sum(b * b for b in v))
    return dot / (nu * nv)


def ref_rank(scores: dict[int, float]) -> dict[int, int]:
    ordered = sorted(scores, key=lambda i: (-scores[i], i))
    return {i: pos + 1 for pos, i in enumerate(ordered)}


def ref_fusion_order(query: str, entries, embedder, alpha, c, k1, b, cosine=ref_cosine) -> list[int]:
    texts = [e.text for e in entries]
    sparse = {e.id: ref_bm25(query, e.text, texts, k1, b) for e in entries}
    dense = {e.id: cosine(embedder.embed(query), embedder.embed(e.text)) for e in entries}
    sparse_rank, dense_rank = ref_rank(sparse), ref_rank(dense)
    fused = {
        e.id: alpha / (c + sparse_rank[e.id]) + (1 - alpha) / (c + dense_rank[e.id])
        for e in entries
    }
    return sorted(fused, key=lambda i: (-fused[i], i))


def ref_experience_order(scenario, prefs, records, embedder, k: int, m: int) -> list[int]:
    q_h, q_r, q_t = (embedder.embed(text) for text in scenario.sections)
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
    """The float32 unit-row section matrix as it was built from per-record
    float tuples with `np.fromiter`, before the store held embeddings
    packed."""
    dim = len(records[0].emb_humans) if records else 0
    sections = [vec for rec in records for vec in (rec.emb_humans, rec.emb_robots, rec.emb_tasks)]
    floats = itertools.chain.from_iterable(sections)
    matrix = np.fromiter(floats, float, count=len(sections) * dim).reshape(len(records), 3 * dim)
    for start in (0, dim, 2 * dim):
        block = matrix[:, start : start + dim]
        block /= np.sqrt(np.einsum("ij,ij->i", block, block))[:, None]
    return matrix.astype(np.float32)


def ref_similarities(queries, records) -> list[float]:
    """Each record's exact similarity to the three query sections: its
    human, robot and task `ref_dense_score`s added in that order from 0.0."""
    sims = []
    for rec in records:
        total = 0.0
        for query, section in zip(queries, (rec.emb_humans, rec.emb_robots, rec.emb_tasks)):
            total += ref_dense_score(query, section)
        sims.append(total)
    return sims


def ref_top_k(queries, records, k: int) -> list[int]:
    """The positions in `records` of the k most similar to the three query
    sections (`ref_similarities`), best first, ties toward the lower
    position: `retrieve_experiences` scoring every record exactly."""
    sims = ref_similarities(queries, records)
    return sorted(range(len(records)), key=lambda i: (-sims[i], i))[:k]


def ref_heuristic_allocate(
    scenario: MissionScenario, prefs: PreferenceVector, cfg: SimConfig | None = None
) -> ItaPlan:
    """`llm.heuristic_allocate` as it was before its per-task loops were
    rebuilt around tables made once per call: every pick, tie-break and
    error of that version."""
    if not scenario.robots:
        raise ValueError("cannot allocate: scenario has no robots")

    cfg = SimConfig() if cfg is None else cfg
    robots = scenario.robots
    # route state per robot, indexed as `robots`
    route_end = [(0.0, 0.0)] * len(robots)
    route_time = [0.0] * len(robots)
    load = [0] * len(robots)

    def commit(task, r_index: int, human) -> None:
        """Extend robot r_index's route by `task`; shared control scales the
        travel speed by the operator's skill multiplier."""
        scale = 1.0 if human is None else cfg.shared_speed_multiplier[human.skill]
        route_time[r_index] += travel_time(
            route_end[r_index], task.location, robots[r_index].speed * scale
        )
        route_end[r_index] = task.location
        load[r_index] += 1
        assignments[task.id] = Assignment(robots[r_index].id, None if human is None else human.id)

    assignments: dict[str, Assignment] = {}
    dominant = prefs.dominant()

    # `min` and `max` keep the first of equal candidates, and the scenario
    # holds its members in id order, so ties go to the lowest id.
    if dominant in (Objective.MISSION_TIME, Objective.HUMAN_WORKLOAD):
        speeds = [r.speed for r in robots]  # each > 0, as `RobotProfile` checks
        for task in scenario.tasks:
            location = task.location
            fastest = min(
                range(len(robots)),
                key=lambda i: route_time[i] + math.dist(route_end[i], location) / speeds[i],
            )
            commit(task, fastest, None)
    elif dominant is Objective.TASK_PERFORMANCE:
        # the best three analysts; the stable sort keeps id order among equals
        analysts = sorted(scenario.humans, key=lambda h: (-h.skill.rank, -h.cognition.rank))[:3]
        camera = [-r.camera_quality.rank for r in robots]
        hard_index = 0
        for task in scenario.tasks:
            r_index = min(range(len(robots)), key=lambda i: (load[i], camera[i]))
            if task.difficulty.rank == 2 and analysts:
                commit(task, r_index, analysts[hard_index % len(analysts)])
                hard_index += 1
            else:
                commit(task, r_index, None)
    else:
        # Mixed weights with no single dominant objective: score every
        # (robot, human | None) candidate on normalized proxies for completion
        # time, accuracy, and human load.
        w_time, w_perf, w_load = (
            prefs.weight(o)
            for o in (Objective.MISSION_TIME, Objective.TASK_PERFORMANCE, Objective.HUMAN_WORKLOAD)
        )
        patterns = (None, *scenario.humans)
        candidates = [(r_index, h) for r_index in range(len(robots)) for h in patterns]
        workload = _ref_normalized([0.0 if h is None else 1.0 for _, h in candidates], False)
        # nominal (fresh-operator) success probability, per task difficulty:
        # a robot's when autonomous, else its analyst's
        accuracy = {}
        for tier in Tier:
            humans = [human_accuracy_probability(h, 0.0, 0, tier, cfg) for h in scenario.humans]
            accuracy[tier] = _ref_normalized([
                p
                for r in robots
                for p in (robot_accuracy_probability(r.camera_quality, tier, None, cfg), *humans)
            ], True)
        # A candidate's completion proxy depends on its robot and on its
        # operator's skill tier alone, so per robot there is one value when
        # autonomous and one per skill tier in the team. `speeds[r]` holds
        # robot r's speed for each (autonomous first), and `slot[i]` is
        # candidate i's place in the per-task list of those distinct values.
        skills = list(dict.fromkeys(h.skill for h in scenario.humans))
        scales = [1.0] + [cfg.shared_speed_multiplier[s] for s in skills]
        speeds = [[r.speed * scale for scale in scales] for r in robots]
        slow = [speed for row in speeds for speed in row if speed <= 0]
        if slow and scenario.tasks:
            raise ValueError(f"speed must be > 0, got {slow[0]}")
        slot = [
            r_index * len(scales) + (0 if h is None else 1 + skills.index(h.skill))
            for r_index, h in candidates
        ]
        for task in scenario.tasks:
            service = cfg.analysis_service_s[task.difficulty]
            distinct = []
            for r_index, (autonomous, *shared) in enumerate(speeds):
                start = route_time[r_index]
                distance = math.dist(route_end[r_index], task.location)
                distinct.append(start + distance / autonomous)
                distinct.extend(start + distance / speed + service for speed in shared)
            # the same set of values as one per candidate, so the same bounds
            completion = _ref_normalized(distinct, False)
            scores = [
                w_time * completion[k] + w_perf * a + w_load * w
                for k, a, w in zip(slot, accuracy[task.difficulty], workload)
            ]
            commit(task, *candidates[scores.index(max(scores))])

    return ItaPlan(assignments)


def _ref_normalized(values: list[float], maximize: bool) -> list[float]:
    """Min-max scale to [0, 1], flipped for minimized proxies; 0.5 when all tie."""
    lo, hi = min(values), max(values)
    if hi - lo < 1e-12:
        return [0.5] * len(values)
    if maximize:
        return [(v - lo) / (hi - lo) for v in values]
    return [1.0 - (v - lo) / (hi - lo) for v in values]


def ref_parse_ita_plan(text: str, scenario: MissionScenario) -> ItaPlan:
    """`prompt.parse_ita_plan` as it was when it sorted each line's agents
    with three comprehensions."""
    lines = assignment_lines(text)
    if not lines:
        raise ParseFailure("no assignment lines matched the plan grammar")

    human_ids = scenario.human_ids()
    robot_ids = scenario.robot_ids()
    assignments: dict[str, Assignment] = {}
    for task_id, agents in lines:
        known_robots = [a for a in agents if a in robot_ids]
        known_humans = [a for a in agents if a in human_ids]
        unknowns = [a for a in agents if a not in robot_ids and a not in human_ids]

        # Convention is (human, robot); unknown ids fill the empty slot so the
        # validator can report them by name.
        robot = known_robots[0] if known_robots else (unknowns.pop() if unknowns else None)
        analyst = known_humans[0] if known_humans else (unknowns.pop(0) if unknowns else None)
        if robot is None:
            robot, analyst = analyst, None
        assignments[task_id] = Assignment(robot, analyst)

    plan = ItaPlan(assignments)
    check = validate_plan(plan, scenario)
    if not check.ok:
        raise PlanInvalid(check.violations)
    return plan
