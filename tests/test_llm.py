from __future__ import annotations

import json
import random
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from rebel.bench import random_scenario
from rebel.core import Objective, PreferenceVector, Tier, validate_plan
from rebel.llm import (
    CompletionRequest,
    HttpCompletionProvider,
    HttpEmbedder,
    LlmError,
    MalformedResponse,
    ProviderConfig,
    ProviderRejected,
    STUB_RULES,
    StubProvider,
    Timeout,
    TranscriptRecorder,
    TranscriptReplayer,
    Unavailable,
    heuristic_allocate,
)
from rebel.prompt import (
    BACKGROUND_FORMAT,
    GOAL_GENERATE_RULES,
    GOAL_PERFORM_ITA,
    GOAL_REFINE_RULES,
    SECTION_BACKGROUND,
    SECTION_SCENARIO,
    StructuredPrompt,
    build_prompt,
    objectives_text,
    parse_ita_plan,
)
from rebel.pipeline import RetrievalConfig, infer
from rebel.retrieval import ExperienceDatabase, HashedEmbedder, RulesDatabase
from conftest import make_scenario


class ScriptedHandler(BaseHTTPRequestHandler):
    """Serves scripted (status, payload) responses in order, then a default
    success. A bytes payload is sent as the raw body."""

    script: list = []
    requests_seen: list = []

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        type(self).requests_seen.append((self.path, body))
        step = type(self).script.pop(0) if type(self).script else (200, None)
        if step == "sleep":
            time.sleep(2.0)
            step = (200, None)
        status, payload = step
        if payload is None:
            if self.path.endswith("/embeddings"):
                payload = {"data": [{"embedding": [3.0, 4.0]}]}
            else:
                payload = {"choices": [{"message": {"content": "pong"}}]}
        data = payload if isinstance(payload, bytes) else json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    server = HTTPServer(("127.0.0.1", 0), ScriptedHandler)
    ScriptedHandler.script = []
    ScriptedHandler.requests_seen = []
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1"
    server.shutdown()


class TestHttpProvider:
    def test_happy_path(self, http_server):
        provider = HttpCompletionProvider(ProviderConfig(endpoint=http_server, retries=0))
        assert provider.complete(CompletionRequest(prompt="ping")) == "pong"
        path, body = ScriptedHandler.requests_seen[0]
        assert path.endswith("/chat/completions")
        assert body["messages"] == [{"role": "user", "content": "ping"}]

    def test_401_rejected_without_retry(self, http_server):
        ScriptedHandler.script = [(401, {"error": "bad key"}), (200, None)]
        provider = HttpCompletionProvider(
            ProviderConfig(endpoint=http_server, retries=3, backoff_s=0.01)
        )
        with pytest.raises(ProviderRejected):
            provider.complete(CompletionRequest(prompt="ping"))
        assert len(ScriptedHandler.requests_seen) == 1

    def test_500_retried_then_succeeds(self, http_server):
        ScriptedHandler.script = [(500, {"error": "flaky"}), (200, None)]
        provider = HttpCompletionProvider(
            ProviderConfig(endpoint=http_server, retries=2, backoff_s=0.01)
        )
        assert provider.complete(CompletionRequest(prompt="ping")) == "pong"
        assert len(ScriptedHandler.requests_seen) == 2

    def test_unreachable_with_zero_retries_is_unavailable(self):
        provider = HttpCompletionProvider(
            ProviderConfig(endpoint="http://127.0.0.1:9", retries=0, timeout_s=0.5)
        )
        with pytest.raises(Unavailable):
            provider.complete(CompletionRequest(prompt="ping"))

    def test_slow_server_raises_timeout(self, http_server):
        ScriptedHandler.script = ["sleep"]
        provider = HttpCompletionProvider(
            ProviderConfig(endpoint=http_server, retries=0, timeout_s=0.3)
        )
        with pytest.raises(Timeout):
            provider.complete(CompletionRequest(prompt="ping"))

    def test_embedder_returns_unit_vector(self, http_server):
        embedder = HttpEmbedder(ProviderConfig(endpoint=http_server, retries=0))
        vector = embedder.embed("hello")
        assert vector == pytest.approx((0.6, 0.8))

    def test_configured_model_is_sent(self, http_server):
        provider = HttpCompletionProvider(
            ProviderConfig(endpoint=http_server, model="local-model", retries=0)
        )
        provider.complete(CompletionRequest(prompt="ping"))
        _, body = ScriptedHandler.requests_seen[0]
        assert body["model"] == "local-model"


MALFORMED_CHAT_BODIES = {
    "not_json": b"<html>gateway says hi</html>",
    "null_content": {"choices": [{"message": {"content": None}}]},
    "empty_object": {},
}


class TestMalformedResponses:
    """A 200 whose body lacks the expected fields is an LlmError, never a raw
    decoding or lookup error."""

    @pytest.mark.parametrize("body", MALFORMED_CHAT_BODIES.values(), ids=MALFORMED_CHAT_BODIES)
    def test_chat_body_raises_malformed_response(self, http_server, body):
        ScriptedHandler.script = [(200, body)]
        provider = HttpCompletionProvider(ProviderConfig(endpoint=http_server, retries=0))
        with pytest.raises(MalformedResponse):
            provider.complete(CompletionRequest(prompt="ping"))

    @pytest.mark.parametrize("body", MALFORMED_CHAT_BODIES.values(), ids=MALFORMED_CHAT_BODIES)
    def test_infer_falls_back_to_greedy_plan(self, http_server, scenario, body):
        ScriptedHandler.script = [(200, body), (200, body)]  # first attempt and its retry
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        result = infer(
            scenario,
            prefs,
            RulesDatabase(),
            ExperienceDatabase(),
            HttpCompletionProvider(ProviderConfig(endpoint=http_server, retries=0)),
            RetrievalConfig(embedder=HashedEmbedder(dim=16)),
        )
        assert result.used_fallback
        assert result.plan == heuristic_allocate(scenario, prefs)
        assert len(ScriptedHandler.requests_seen) == 2

    def test_embeddings_body_without_data(self, http_server):
        ScriptedHandler.script = [(200, {"object": "list"})]
        embedder = HttpEmbedder(ProviderConfig(endpoint=http_server, retries=0))
        with pytest.raises(MalformedResponse) as exc_info:
            embedder.embed("hello")
        assert isinstance(exc_info.value, LlmError)


class TestRequestValidation:
    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            CompletionRequest(prompt="")

    def test_temperature_range(self):
        with pytest.raises(ValueError):
            CompletionRequest(prompt="x", temperature=3.0)


def rules_prompt(objective: Objective) -> str:
    return build_prompt(
        StructuredPrompt(
            scenario_label=SECTION_BACKGROUND,
            scenario_text=BACKGROUND_FORMAT,
            goal=GOAL_GENERATE_RULES,
            objectives=objectives_text(PreferenceVector.single(objective)),
        )
    )


def allocation_prompt(scenario, prefs) -> str:
    return build_prompt(
        StructuredPrompt(
            scenario_label=SECTION_SCENARIO,
            scenario_text=scenario.render_spf(),
            goal=GOAL_PERFORM_ITA,
            objectives=objectives_text(prefs),
        )
    )


class TestStubProvider:
    def test_rule_prompts_get_canned_rules(self):
        stub = StubProvider()
        for objective in Objective:
            response = stub.complete(CompletionRequest(prompt=rules_prompt(objective)))
            assert response == "\n".join(STUB_RULES[objective])

    def test_allocation_prompt_returns_heuristic_plan(self, scenario):
        stub = StubProvider()
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        response = stub.complete(CompletionRequest(prompt=allocation_prompt(scenario, prefs)))
        assert response == heuristic_allocate(scenario, prefs).render()
        parsed = parse_ita_plan(response, scenario)
        assert validate_plan(parsed, scenario).ok

    def test_refinement_prompt_echoes_rules(self):
        stub = StubProvider()
        rules = ("Rule one stays.", "Rule two stays.")
        prompt = build_prompt(
            StructuredPrompt(
                scenario_label=SECTION_BACKGROUND,
                scenario_text=BACKGROUND_FORMAT,
                goal=GOAL_REFINE_RULES,
                objectives=objectives_text(PreferenceVector.single(Objective.MISSION_TIME)),
                rules=rules,
            )
        )
        assert stub.complete(CompletionRequest(prompt=prompt)) == "\n".join(rules)

    def test_identical_requests_identical_responses(self, scenario):
        stub = StubProvider()
        prompt = allocation_prompt(scenario, PreferenceVector.of(TP=0.4, MT=0.3, HW=0.3))
        request = CompletionRequest(prompt=prompt)
        assert stub.complete(request) == stub.complete(request)


class TestTranscript:
    def test_record_then_replay(self, tmp_path, scenario):
        path = tmp_path / "transcript.jsonl"
        recorder = TranscriptRecorder(StubProvider(), path)
        prompt = allocation_prompt(scenario, PreferenceVector.single(Objective.MISSION_TIME))
        original = recorder.complete(CompletionRequest(prompt=prompt))
        replayer = TranscriptReplayer(path)
        assert replayer.complete(CompletionRequest(prompt=prompt)) == original

    def test_replay_unknown_prompt_is_unavailable(self, tmp_path, scenario):
        path = tmp_path / "transcript.jsonl"
        TranscriptRecorder(StubProvider(), path).complete(
            CompletionRequest(
                prompt=allocation_prompt(scenario, PreferenceVector.single(Objective.MISSION_TIME))
            )
        )
        with pytest.raises(Unavailable):
            TranscriptReplayer(path).complete(CompletionRequest(prompt="never seen"))

    def test_concurrent_completions_append_whole_lines(self, tmp_path):
        class Echo:
            def complete(self, request):
                return request.prompt[::-1]

        path = tmp_path / "transcript.jsonl"
        recorder = TranscriptRecorder(Echo(), path)
        prompts = [f"prompt {i} " + "x" * 100_000 for i in range(24)]
        errors = []

        def complete_all(batch):
            try:
                for prompt in batch:
                    recorder.complete(CompletionRequest(prompt=prompt))
            except Exception as exc:  # reported by the assertions below
                errors.append(exc)

        threads = [threading.Thread(target=complete_all, args=(prompts[i::6],)) for i in range(6)]
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
        assert errors == []
        entries = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
        assert sorted(entry["prompt"] for entry in entries) == sorted(prompts)
        assert all(entry["response"] == entry["prompt"][::-1] for entry in entries)


class TestHeuristicAllocate:
    def test_mission_time_picks_faster_robot(self):
        scenario = make_scenario(
            humans=(),
            robots=(("UAV_0", 13.0, Tier.LOW), ("UGV_0", 6.0, Tier.MED)),
            tasks=(("T_0", (1000.0, 1000.0), Tier.MED),),
        )
        plan = heuristic_allocate(scenario, PreferenceVector.single(Objective.MISSION_TIME))
        assert plan.assignments["T_0"].robot == "UAV_0"

    def test_workload_priority_never_references_humans(self, scenario):
        plan = heuristic_allocate(scenario, PreferenceVector.single(Objective.HUMAN_WORKLOAD))
        for agent_id, human_id in plan.assignments.values():
            assert agent_id in scenario.robot_ids()
            assert human_id is None

    def test_skilled_human_lands_on_hard_task(self):
        scenario = make_scenario(
            humans=(("H_0", Tier.MED, Tier.HIGH), ("H_1", Tier.MED, Tier.LOW)),
            robots=(("UAV_0", 10.0, Tier.MED), ("UGV_0", 8.0, Tier.MED)),
            tasks=(("T_0", (100.0, 100.0), Tier.HIGH), ("T_1", (200.0, 200.0), Tier.LOW)),
        )
        plan = heuristic_allocate(scenario, PreferenceVector.single(Objective.TASK_PERFORMANCE))
        human_id = plan.assignments["T_0"].human
        assert human_id is not None
        assert human_id == "H_0"

    def test_always_validates_on_random_scenarios(self):
        rng = random.Random(55)
        preference_pool = [
            PreferenceVector.single(Objective.TASK_PERFORMANCE),
            PreferenceVector.single(Objective.MISSION_TIME),
            PreferenceVector.single(Objective.HUMAN_WORKLOAD),
            PreferenceVector.of(TP=0.4, MT=0.3, HW=0.3),
            PreferenceVector.of(TP=1, MT=1, HW=1),
        ]
        for trial in range(60):
            scenario = random_scenario(
                humans=rng.randint(0, 4),
                robots=rng.randint(1, 5),
                tasks=rng.randint(1, 12),
                seed=trial,
            )
            prefs = rng.choice(preference_pool)
            plan = heuristic_allocate(scenario, prefs)
            assert validate_plan(plan, scenario).ok

    def test_deterministic(self, scenario):
        prefs = PreferenceVector.of(TP=0.34, MT=0.33, HW=0.33)
        assert heuristic_allocate(scenario, prefs) == heuristic_allocate(scenario, prefs)

    def test_no_robots_is_error(self):
        scenario = make_scenario(robots=(), tasks=())
        with pytest.raises(ValueError):
            heuristic_allocate(scenario, PreferenceVector.single(Objective.MISSION_TIME))
