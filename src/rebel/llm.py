"""Completion providers: OpenAI-compatible HTTP clients on one stdlib transport,
deterministic stub, transcript recording, and the greedy fallback allocator.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import json
import math
import os
import sys
import threading
import time
import urllib.parse
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol, Sequence

import numpy as np

from .core import (
    Assignment,
    ItaPlan,
    MissionScenario,
    Objective,
    PreferenceVector,
    Tier,
)
from .log import AppendLog
from .prompt import (
    GOAL_GENERATE_RULES,
    GOAL_PERFORM_ITA,
    GOAL_REFINE_RULES,
    SECTION_GOAL,
    SECTION_OBJECTIVES,
    SECTION_RULES,
    SECTION_SCENARIO,
    extract_section,
    parse_objectives_text,
)
from .retrieval import _stacked, unit_rows
from .sim import SimConfig, human_accuracy_probability, robot_accuracy_probability


class LlmError(Exception):
    pass


class Timeout(LlmError):
    """The provider did not answer within the configured window."""


class ProviderRejected(LlmError):
    """The provider refused the request (HTTP status below 500); retrying will not help."""


class Unavailable(LlmError):
    """Transient failures exhausted the retry budget."""


class MalformedResponse(LlmError):
    """The provider answered 200 with a body that lacks the expected fields."""


# requests one HTTP client holds open at once, across its threads
MAX_CONCURRENCY = 4

# seconds before the first retry of a transient failure; each later one doubles it
BACKOFF_S = 0.5


@dataclass(frozen=True)
class ProviderConfig:
    endpoint: str = "https://api.openai.com/v1"
    model: str = "gpt-4o-mini"  # chat model; HttpEmbedder names its own
    api_key_env: str = "OPENAI_API_KEY"
    timeout_s: float = 60.0
    retries: int = 2

    def __post_init__(self) -> None:
        # urllib also opens file:, ftp: and data: URLs, and raises ValueError on no scheme
        if urllib.parse.urlsplit(self.endpoint).scheme not in ("http", "https"):
            raise ValueError(f"endpoint must be an http(s) URL, not {self.endpoint!r}")
        if self.timeout_s <= 0:
            raise ValueError("timeout must be > 0")
        if self.retries < 0:
            raise ValueError("retry count must be >= 0")


class CompletionProvider(Protocol):
    def complete(self, prompt: str, temperature: float) -> str: ...


def _headers(cfg: ProviderConfig) -> dict[str, str]:
    headers = {"Content-Type": "application/json"}
    key = os.environ.get(cfg.api_key_env, "")
    if key:
        headers["Authorization"] = f"Bearer {key}"
    return headers


def _post(cfg: ProviderConfig, gate: threading.Semaphore, path: str, payload: dict):
    """POST `payload` as JSON to the endpoint's `path` and return the decoded body.

    Transient failures (5xx, connection errors, timeouts) are retried with
    exponential backoff, each attempt holding `gate`; any other HTTP error
    status is rejected immediately.
    """
    # imported here, the only user: they load ssl and email, which a run that
    # makes no request never needs
    import http.client
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        cfg.endpoint.rstrip("/") + path,
        data=json.dumps(payload).encode("utf-8"),
        headers=_headers(cfg),
        method="POST",
    )
    last_error: Exception | None = None
    timed_out = False
    for attempt in range(cfg.retries + 1):
        if attempt:
            time.sleep(BACKOFF_S * 2 ** (attempt - 1))
        try:
            with gate:
                try:
                    with urllib.request.urlopen(request, timeout=cfg.timeout_s) as response:
                        status, body = response.status, response.read()
                except urllib.error.HTTPError as exc:  # caught before URLError, its base class
                    with exc:
                        status, body = exc.code, exc.read()
        except (OSError, http.client.HTTPException) as exc:
            # a read timeout arrives bare, a connect timeout as a URLError's reason
            timed_out = timed_out or isinstance(getattr(exc, "reason", exc), TimeoutError)
            last_error = exc
            continue
        if status >= 500:
            last_error = RuntimeError(f"HTTP {status}")
            continue
        if status >= 300:
            raise ProviderRejected(f"HTTP {status}: {body[:500].decode('utf-8', 'replace')}")
        try:
            return json.loads(body)
        except (RecursionError, ValueError) as exc:  # nested too deeply, or not JSON
            raise MalformedResponse(f"response body is not JSON: {body[:200]!r}") from exc
    if timed_out:
        raise Timeout(f"no response within {cfg.timeout_s}s: {last_error}") from last_error
    raise Unavailable(f"retries exhausted: {last_error}") from last_error


def _body_field(body, kind: type, *path: str | int):
    """The `kind` value at `path` in a decoded JSON body, or MalformedResponse."""
    where = ".".join(map(str, path))
    value = body
    try:
        for key in path:
            value = value[key]
    except (LookupError, TypeError) as exc:
        raise MalformedResponse(f"no {where} in response body {str(body)[:200]}") from exc
    if not isinstance(value, kind):
        raise MalformedResponse(f"{where} is {type(value).__name__}, not {kind.__name__}")
    return value


class HttpCompletionProvider:
    """Chat-completion client for any OpenAI-compatible endpoint."""

    def __init__(self, cfg: ProviderConfig):
        self.cfg = cfg
        self._gate = threading.Semaphore(MAX_CONCURRENCY)

    def complete(self, prompt: str, temperature: float) -> str:
        payload = {
            "model": self.cfg.model,
            "messages": [{"role": "user", "content": prompt}],
            "temperature": temperature,
            "max_tokens": 1024,
        }
        body = _post(self.cfg, self._gate, "/chat/completions", payload)
        return _body_field(body, str, "choices", 0, "message", "content")


class HttpEmbedder:
    """Embedding client for an OpenAI-compatible /embeddings endpoint."""

    def __init__(self, cfg: ProviderConfig, model: str = "text-embedding-3-small"):
        self.cfg = cfg
        self.model = model
        self._gate = threading.Semaphore(MAX_CONCURRENCY)

    def embed(self, text: str) -> tuple[float, ...]:
        return tuple(self.embed_batch([text])[0].tolist())

    def embed_batch(self, texts: Sequence[str]) -> np.ndarray:
        """The unit embeddings of `texts` from one POST whose `input` lists
        them all, as the rows of a float64 array. The answer's `data` holds
        one entry per text: in `index` order when every entry has an
        `index`, else in the order given. `MalformedResponse` for another
        count, a missing, repeated or out-of-range index, a mix of indexed
        and unindexed entries, or an embedding that is not a list of finite
        numbers of one length with a finite, nonzero norm."""
        body = _post(self.cfg, self._gate, "/embeddings", {"model": self.model, "input": list(texts)})
        data = _body_field(body, list, "data")
        if len(data) != len(texts):
            raise MalformedResponse(f"{len(data)} embeddings for {len(texts)} inputs")
        indexed = [isinstance(entry, dict) and "index" in entry for entry in data]
        if all(indexed):
            order = [_body_field(entry, int, "index") for entry in data]
            # bool is an int subclass
            if sorted(order) != list(range(len(data))) or any(type(i) is not int for i in order):
                raise MalformedResponse(f"indices {str(order)[:200]} do not number the inputs once each")
            data = [entry for _, entry in sorted(zip(order, data), key=lambda pair: pair[0])]
        elif any(indexed):
            raise MalformedResponse("some embeddings have an index and some do not")
        vectors = [_body_field(entry, list, "embedding") for entry in data]
        elements = itertools.chain.from_iterable(vectors)
        # bool is an int subclass; NaN, infinities and ints beyond float range fail the bound
        if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in elements):
            raise MalformedResponse("embedding is not a list of finite numbers")
        try:
            return unit_rows(_stacked(vectors))
        except ValueError as exc:  # two lengths, a zero norm, or squares past the float range
            raise MalformedResponse(f"embedding: {exc}") from exc


class TranscriptRecorder:
    """Wraps a provider, appending every exchange to a JSON-lines transcript
    (`AppendLog`, whose first append repairs a torn final line)."""

    def __init__(self, inner: CompletionProvider, path: str | Path):
        self.inner = inner
        self._log = AppendLog(path)

    def complete(self, prompt: str, temperature: float) -> str:
        response = self.inner.complete(prompt, temperature)
        exchange = {
            "prompt_sha256": hashlib.sha256(prompt.encode("utf-8")).hexdigest(),
            "prompt": prompt,
            "response": response,
        }
        self._log.append(self._log.line(exchange, "transcript exchange"))
        return response


STUB_RULES: dict[Objective, tuple[str, ...]] = {
    Objective.MISSION_TIME: (
        "Assign faster robots to tasks farther away.",
        "Balance the number of tasks per robot so no route dominates the mission clock.",
        "Prefer autonomous capture to avoid waiting on analysis queues.",
    ),
    Objective.TASK_PERFORMANCE: (
        "Assign skilled humans to difficult tasks.",
        "Use robots with high camera quality for image capture.",
        "Keep easy tasks on autonomous robots so analysts stay focused on hard ones.",
    ),
    Objective.HUMAN_WORKLOAD: (
        "Keep tasks in robot autonomous mode whenever possible.",
        "Never queue more analyses to a human than strictly necessary.",
        "Reserve shared control for tasks robots cannot handle alone.",
    ),
}


class StubProvider:
    """Deterministic offline provider.

    Rule-generation prompts get a canned objective-specific rule list,
    refinement prompts echo the rules already in the prompt, and allocation
    prompts are answered by rendering the greedy allocator's plan, planned
    under `sim_cfg`, in the plan grammar. This makes the full pipeline
    runnable with no network.
    """

    def __init__(self, sim_cfg: SimConfig | None = None):
        self.sim_cfg = sim_cfg

    def complete(self, prompt: str, temperature: float) -> str:
        goal = extract_section(prompt, SECTION_GOAL)
        if GOAL_GENERATE_RULES in goal:
            prefs = parse_objectives_text(extract_section(prompt, SECTION_OBJECTIVES))
            objective = prefs.weights[0][0]
            return "\n".join(STUB_RULES[objective])
        if GOAL_REFINE_RULES in goal:
            return extract_section(prompt, SECTION_RULES)
        if GOAL_PERFORM_ITA in goal:
            # the prompt's scenario (`render_spf`) carries no arena, so none bounds it
            scenario = MissionScenario.parse(extract_section(prompt, SECTION_SCENARIO), math.inf)
            prefs = parse_objectives_text(extract_section(prompt, SECTION_OBJECTIVES))
            return heuristic_allocate(scenario, prefs, self.sim_cfg).render()
        raise Unavailable("stub provider does not understand this prompt")


@functools.cache
def _default_sim_config() -> SimConfig:
    """`SimConfig()`, built on the first call and shared by every later one."""
    return SimConfig()


def heuristic_allocate(
    scenario: MissionScenario, prefs: PreferenceVector, cfg: SimConfig | None = None
) -> ItaPlan:
    """Greedy, preference-aware allocation that always validates, planned
    with the model constants of `cfg` (the defaults when None).

    Behavior by dominant objective: mission time picks, per task, the robot
    with the smallest projected route completion (all autonomous); human
    workload does the same, guaranteeing zero human involvement; task
    performance routes hard tasks to shared control with the best analysts
    and keeps the rest on the best cameras. Mixed weights score every
    (robot, human | None) candidate on weighted normalized proxies. Ties go
    to the earliest candidate in (robot, autonomous, human) id order.

    What a call does not change per task is built once: each candidate's
    assignment, its robot's speed, and per task difficulty its weighted
    accuracy and workload terms. So a task costs one distance per robot and
    a few flat list passes.
    """
    if not scenario.robots:
        raise ValueError("cannot allocate: scenario has no robots")

    cfg = _default_sim_config() if cfg is None else cfg
    robots = scenario.robots
    # route state per robot, indexed as `robots`
    route_end = [(0.0, 0.0)] * len(robots)
    route_time = [0.0] * len(robots)
    assignments: dict[str, Assignment] = {}
    dominant = prefs.dominant()

    # `min`, `max` and `index` keep the first of equal candidates, and the
    # scenario holds its members in id order, so ties go to the lowest id.
    if dominant in (Objective.MISSION_TIME, Objective.HUMAN_WORKLOAD):
        speeds = [r.speed for r in robots]  # each > 0, as `RobotProfile` checks
        autonomous = [Assignment(r.id) for r in robots]
        for task in scenario.tasks:
            location = task.location
            finish = [
                start + math.dist(end, location) / speed
                for start, end, speed in zip(route_time, route_end, speeds)
            ]
            fastest = finish.index(min(finish))
            route_time[fastest] = finish[fastest]
            route_end[fastest] = location
            assignments[task.id] = autonomous[fastest]
    elif dominant is Objective.TASK_PERFORMANCE:
        # the best three analysts and, for a round robin, every robot best
        # camera first; the stable sorts keep id order among equals
        analysts = sorted(scenario.humans, key=lambda h: (-h.skill.rank, -h.cognition.rank))[:3]
        by_camera = sorted(robots, key=lambda r: -r.camera_quality.rank)
        hard_index = 0
        for t_index, task in enumerate(scenario.tasks):
            robot = by_camera[t_index % len(by_camera)]
            if task.difficulty is Tier.HIGH and analysts:
                analyst = analysts[hard_index % len(analysts)]
                hard_index += 1
                # shared control travels at the scaled speed, which can underflow
                speed = robot.speed * cfg.shared_speed_multiplier[analyst.skill]
                if speed <= 0:
                    raise ValueError(f"speed must be > 0, got {speed}")
                assignments[task.id] = Assignment(robot.id, analyst.id)
            else:
                assignments[task.id] = Assignment(robot.id)
    else:
        # Mixed weights with no single dominant objective: score every
        # (robot, human | None) candidate on normalized proxies for completion
        # time, accuracy, and human load.
        w_time, w_perf, w_load = (
            prefs.weight(o)
            for o in (Objective.MISSION_TIME, Objective.TASK_PERFORMANCE, Objective.HUMAN_WORKLOAD)
        )
        patterns = (None, *scenario.humans)
        workload = _normalized([0.0 if h is None else 1.0 for _ in robots for h in patterns], False)
        # A candidate's completion proxy depends on its robot and on its
        # operator's skill tier alone, so per robot there is one value when
        # autonomous and one per skill tier in the team. `speeds[r]` holds
        # robot r's speed for each (autonomous first), and a candidate's slot
        # is its place in the per-task list of those distinct values.
        skills = list(dict.fromkeys(h.skill for h in scenario.humans))
        scales = [1.0] + [cfg.shared_speed_multiplier[s] for s in skills]
        speeds = [[r.speed * scale for scale in scales] for r in robots]
        slow = [speed for row in speeds for speed in row if speed <= 0]
        if slow and scenario.tasks:
            raise ValueError(f"speed must be > 0, got {slow[0]}")
        # (robot index, slot, assignment) per candidate, in (robot, human) order
        offsets = [0] + [1 + skills.index(h.skill) for h in scenario.humans]
        candidates = [
            (r_index, r_index * len(scales) + offset, Assignment(robot.id, None if h is None else h.id))
            for r_index, robot in enumerate(robots)
            for h, offset in zip(patterns, offsets)
        ]
        # A candidate's nominal (fresh-operator) accuracy is its robot's when
        # autonomous, else its analyst's, and reads only the camera tier or
        # the (cognition, skill) pair. So per task difficulty each distinct
        # one is scored once, and `sources` places each candidate's among
        # them, cameras first.
        cameras = list(dict.fromkeys(r.camera_quality for r in robots))
        profiles = {(h.cognition, h.skill): h for h in scenario.humans}
        pairs = list(profiles)
        human_sources = [len(cameras) + pairs.index((h.cognition, h.skill)) for h in scenario.humans]
        sources = [s for r in robots for s in (cameras.index(r.camera_quality), *human_sources)]
        # Per task difficulty: each slot's (robot index, speed, service) leg,
        # service 0.0 when autonomous (adding it changes no sum), and each
        # candidate's slot and weighted accuracy and workload terms.
        tables = {}
        for tier in Tier:
            service = cfg.analysis_service_s[tier]
            legs = [
                (r_index, speed, service if pattern else 0.0)
                for r_index, row in enumerate(speeds)
                for pattern, speed in enumerate(row)
            ]
            scored = [robot_accuracy_probability(c, tier, None, cfg) for c in cameras]
            scored += [human_accuracy_probability(h, 0.0, 0, tier, cfg) for h in profiles.values()]
            accuracy = _normalized([scored[source] for source in sources], True)
            terms = [
                (slot, w_perf * a, w_load * w)
                for (_, slot, _), a, w in zip(candidates, accuracy, workload)
            ]
            tables[tier] = legs, terms
        for task in scenario.tasks:
            legs, terms = tables[task.difficulty]
            location = task.location
            distance = [math.dist(end, location) for end in route_end]
            # the same set of values as one per candidate, so the same bounds
            completion = _normalized([
                route_time[r_index] + distance[r_index] / speed + service
                for r_index, speed, service in legs
            ], False)
            scores = [w_time * completion[slot] + perf + work for slot, perf, work in terms]
            r_index, slot, assignment = candidates[scores.index(max(scores))]
            route_time[r_index] += distance[r_index] / legs[slot][1]
            route_end[r_index] = location
            assignments[task.id] = assignment

    return ItaPlan(assignments)


def _normalized(values: list[float], maximize: bool) -> list[float]:
    """Min-max scale to [0, 1], flipped for minimized proxies; 0.5 when all tie."""
    lo, hi = min(values), max(values)
    if hi - lo < 1e-12:
        return [0.5] * len(values)
    if maximize:
        return [(v - lo) / (hi - lo) for v in values]
    return [1.0 - (v - lo) / (hi - lo) for v in values]
