"""Completion providers: OpenAI-compatible HTTP client, deterministic stub,
transcript record/replay, and the no-LLM greedy allocator used as fallback.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Protocol

import requests

from .core import (
    Assignment,
    ItaPlan,
    MissionScenario,
    Objective,
    PreferenceVector,
    natural_key,
)
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
from .sim import SimConfig, human_accuracy_probability, robot_accuracy_probability, travel_time


class LlmError(Exception):
    pass


class Timeout(LlmError):
    """The provider did not answer within the configured window."""


class ProviderRejected(LlmError):
    """The provider refused the request (HTTP 4xx); retrying will not help."""


class Unavailable(LlmError):
    """Transient failures exhausted the retry budget."""


class MalformedResponse(LlmError):
    """The provider answered 200 with a body that lacks the expected fields."""


@dataclass(frozen=True)
class CompletionRequest:
    prompt: str
    temperature: float = 0.2
    max_tokens: int = 1024

    def __post_init__(self) -> None:
        if not self.prompt:
            raise ValueError("prompt must be non-empty")
        if not (0.0 <= self.temperature <= 2.0):
            raise ValueError("temperature must lie in [0, 2]")


@dataclass(frozen=True)
class ProviderConfig:
    endpoint: str = "https://api.openai.com/v1"
    model: str = "gpt-4o-mini"  # chat model; HttpEmbedder names its own
    api_key_env: str = "OPENAI_API_KEY"
    timeout_s: float = 60.0
    retries: int = 2
    backoff_s: float = 0.5
    max_concurrency: int = 4

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ValueError("timeout must be > 0")
        if self.retries < 0:
            raise ValueError("retry count must be >= 0")


class CompletionProvider(Protocol):
    def complete(self, request: CompletionRequest) -> str: ...


def _headers(cfg: ProviderConfig) -> dict[str, str]:
    headers = {"Content-Type": "application/json"}
    key = os.environ.get(cfg.api_key_env, "")
    if key:
        headers["Authorization"] = f"Bearer {key}"
    return headers


def _body_field(response: requests.Response, kind: type, *path: str | int):
    """The `kind` value at `path` in a response's JSON body, or MalformedResponse."""
    where = ".".join(map(str, path))
    try:
        value = response.json()
        for key in path:
            value = value[key]
    except (ValueError, LookupError, TypeError) as exc:
        raise MalformedResponse(f"no {where} in response body {response.text[:200]!r}") from exc
    if not isinstance(value, kind):
        raise MalformedResponse(f"{where} is {type(value).__name__}, not {kind.__name__}")
    return value


class HttpCompletionProvider:
    """Chat-completion client for any OpenAI-compatible endpoint.

    Transient failures (5xx, connection errors, timeouts) are retried with
    exponential backoff; 4xx responses are rejected immediately.
    """

    def __init__(self, cfg: ProviderConfig):
        self.cfg = cfg
        self._gate = threading.Semaphore(max(1, cfg.max_concurrency))

    def complete(self, request: CompletionRequest) -> str:
        url = self.cfg.endpoint.rstrip("/") + "/chat/completions"
        payload = {
            "model": self.cfg.model,
            "messages": [{"role": "user", "content": request.prompt}],
            "temperature": request.temperature,
            "max_tokens": request.max_tokens,
        }
        last_error: Exception | None = None
        timed_out = False
        for attempt in range(self.cfg.retries + 1):
            if attempt:
                time.sleep(self.cfg.backoff_s * 2 ** (attempt - 1))
            try:
                with self._gate:
                    response = requests.post(
                        url, json=payload, headers=_headers(self.cfg), timeout=self.cfg.timeout_s
                    )
            except requests.Timeout as exc:
                last_error, timed_out = exc, True
                continue
            except requests.RequestException as exc:
                last_error = exc
                continue
            if 400 <= response.status_code < 500:
                raise ProviderRejected(f"HTTP {response.status_code}: {response.text[:500]}")
            if response.status_code >= 500:
                last_error = RuntimeError(f"HTTP {response.status_code}")
                continue
            return _body_field(response, str, "choices", 0, "message", "content")
        if timed_out:
            raise Timeout(f"no response within {self.cfg.timeout_s}s: {last_error}") from last_error
        raise Unavailable(f"retries exhausted: {last_error}") from last_error


class HttpEmbedder:
    """Embedding client for an OpenAI-compatible /embeddings endpoint."""

    def __init__(self, cfg: ProviderConfig, model: str = "text-embedding-3-small"):
        self.cfg = cfg
        self.model = model

    def embed(self, text: str) -> tuple[float, ...]:
        url = self.cfg.endpoint.rstrip("/") + "/embeddings"
        payload = {"model": self.model, "input": [text]}
        try:
            response = requests.post(
                url, json=payload, headers=_headers(self.cfg), timeout=self.cfg.timeout_s
            )
        except requests.Timeout as exc:
            raise Timeout(str(exc)) from exc
        except requests.RequestException as exc:
            raise Unavailable(str(exc)) from exc
        if 400 <= response.status_code < 500:
            raise ProviderRejected(f"HTTP {response.status_code}: {response.text[:500]}")
        if response.status_code >= 500:
            raise Unavailable(f"HTTP {response.status_code}")
        vector = _body_field(response, list, "data", 0, "embedding")
        if not all(isinstance(v, (int, float)) for v in vector):
            raise MalformedResponse("embedding is not a list of numbers")
        norm = math.sqrt(sum(v * v for v in vector)) or 1.0
        return tuple(v / norm for v in vector)


class TranscriptRecorder:
    """Wraps a provider, appending every exchange to a JSON-lines transcript."""

    def __init__(self, inner: CompletionProvider, path: str | Path):
        self.inner = inner
        self.path = Path(path)
        self._lock = threading.Lock()

    def complete(self, request: CompletionRequest) -> str:
        response = self.inner.complete(request)
        entry = {
            "prompt_sha256": hashlib.sha256(request.prompt.encode("utf-8")).hexdigest(),
            "prompt": request.prompt,
            "response": response,
        }
        line = json.dumps(entry, sort_keys=True) + "\n"
        with self._lock, open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line)
        return response


class TranscriptReplayer:
    """Serves recorded responses by prompt hash; unseen prompts are errors."""

    def __init__(self, path: str | Path):
        self._responses: dict[str, str] = {}
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            if line.strip():
                entry = json.loads(line)
                self._responses[entry["prompt_sha256"]] = entry["response"]

    def complete(self, request: CompletionRequest) -> str:
        digest = hashlib.sha256(request.prompt.encode("utf-8")).hexdigest()
        if digest not in self._responses:
            raise Unavailable(f"no recorded response for prompt {digest[:12]}")
        return self._responses[digest]


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
    prompts are answered by rendering the greedy allocator's plan in the
    plan grammar. This makes the full pipeline runnable with no network.
    """

    def complete(self, request: CompletionRequest) -> str:
        text = request.prompt
        goal = extract_section(text, SECTION_GOAL)
        if GOAL_GENERATE_RULES in goal:
            prefs = parse_objectives_text(extract_section(text, SECTION_OBJECTIVES))
            objective = prefs.weights[0][0]
            return "\n".join(STUB_RULES[objective])
        if GOAL_REFINE_RULES in goal:
            return extract_section(text, SECTION_RULES)
        if GOAL_PERFORM_ITA in goal:
            scenario = MissionScenario.parse(extract_section(text, SECTION_SCENARIO))
            prefs = parse_objectives_text(extract_section(text, SECTION_OBJECTIVES))
            return heuristic_allocate(scenario, prefs).render()
        raise Unavailable("stub provider does not understand this prompt")


def _proxy_accuracy(
    scenario: MissionScenario, candidate: Assignment, difficulty, cfg: SimConfig
) -> float:
    """Nominal (fresh-operator) success probability for a candidate assignment."""
    if candidate.human is None:
        robot = scenario.robot(candidate.robot)
        return robot_accuracy_probability(robot.camera_quality, difficulty, None, cfg)
    return human_accuracy_probability(scenario.human(candidate.human), 0.0, 0, difficulty, cfg)


def heuristic_allocate(scenario: MissionScenario, prefs: PreferenceVector) -> ItaPlan:
    """Greedy, preference-aware allocation that always validates.

    Behavior by dominant objective: mission time picks, per task, the robot
    with the smallest projected route completion (all autonomous); human
    workload does the same, guaranteeing zero human involvement; task
    performance routes hard tasks to shared control with the best analysts
    and keeps the rest on the best cameras. Mixed weights score every
    (robot, human | None) candidate on weighted normalized proxies. Ties
    always go to the lowest id.
    """
    if not scenario.robots:
        raise ValueError("cannot allocate: scenario has no robots")

    cfg = SimConfig()
    robots = scenario.robots
    humans = sorted(
        scenario.humans,
        key=lambda h: (-h.skill.rank, -h.cognition.rank, natural_key(h.id)),
    )

    route_end: dict[str, tuple[float, float]] = {r.id: (0.0, 0.0) for r in robots}
    route_time: dict[str, float] = {r.id: 0.0 for r in robots}
    load: dict[str, int] = {r.id: 0 for r in robots}

    def control_scale(human_id: str | None) -> float:
        if human_id is None:
            return 1.0
        return cfg.shared_speed_multiplier[scenario.human(human_id).skill]

    def projected_completion(robot, location, speed_scale: float = 1.0) -> float:
        return route_time[robot.id] + travel_time(
            route_end[robot.id], location, robot.speed * speed_scale
        )

    def commit(task_id: str, robot, human_id: str | None, location) -> None:
        route_time[robot.id] = projected_completion(robot, location, control_scale(human_id))
        route_end[robot.id] = location
        load[robot.id] += 1
        assignments[task_id] = Assignment(robot.id, human_id)

    assignments: dict[str, Assignment] = {}
    dominant = prefs.dominant()

    if dominant in (Objective.MISSION_TIME, Objective.HUMAN_WORKLOAD):
        for task in scenario.tasks:
            best = min(
                robots, key=lambda r: (projected_completion(r, task.location), natural_key(r.id))
            )
            commit(task.id, best, None, task.location)
    elif dominant is Objective.TASK_PERFORMANCE:
        analysts = humans[: max(1, min(3, len(humans)))] if humans else []
        hard_index = 0
        for task in scenario.tasks:
            robot = min(
                robots,
                key=lambda r: (load[r.id], -r.camera_quality.rank, natural_key(r.id)),
            )
            if task.difficulty.rank == 2 and analysts:
                analyst = analysts[hard_index % len(analysts)]
                hard_index += 1
                commit(task.id, robot, analyst.id, task.location)
            else:
                commit(task.id, robot, None, task.location)
    else:
        # Mixed weights with no single dominant objective: score every
        # (robot, human | None) candidate on normalized proxies for completion
        # time, accuracy, and human load.
        patterns = [None] + [h.id for h in humans]
        for task in scenario.tasks:
            candidates: list[tuple[tuple, object, Assignment, float, float, float]] = []
            for robot in robots:
                for human_id in patterns:
                    candidate = Assignment(robot.id, human_id)
                    extra = 0.0 if human_id is None else cfg.analysis_service_s[task.difficulty]
                    t_proxy = (
                        projected_completion(robot, task.location, control_scale(human_id)) + extra
                    )
                    a_proxy = _proxy_accuracy(scenario, candidate, task.difficulty, cfg)
                    w_proxy = 0.0 if human_id is None else 1.0
                    # autonomous before shared control, then by human id
                    tie = (natural_key(robot.id), human_id is not None, natural_key(human_id or ""))
                    candidates.append((tie, robot, candidate, t_proxy, a_proxy, w_proxy))

            t_values = [c[3] for c in candidates]
            a_values = [c[4] for c in candidates]
            w_values = [c[5] for c in candidates]

            def norm(value: float, values: list[float], maximize: bool) -> float:
                lo, hi = min(values), max(values)
                if hi - lo < 1e-12:
                    return 0.5
                frac = (value - lo) / (hi - lo)
                return frac if maximize else 1.0 - frac

            def score(c) -> float:
                return (
                    prefs.weight(Objective.MISSION_TIME) * norm(c[3], t_values, False)
                    + prefs.weight(Objective.TASK_PERFORMANCE) * norm(c[4], a_values, True)
                    + prefs.weight(Objective.HUMAN_WORKLOAD) * norm(c[5], w_values, False)
                )

            _, robot, candidate, _, _, _ = sorted(
                candidates, key=lambda c: (-score(c), c[0])
            )[0]
            commit(task.id, robot, candidate.human, task.location)

    return ItaPlan(assignments)
