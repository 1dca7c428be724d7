from __future__ import annotations

import hashlib
import json
import math
import random
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rebel.bench import random_scenario
from rebel.core import MissionScenario, Objective, PreferenceVector, Tier, validate_plan
from rebel.llm import (
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
    build_prompt,
    objectives_text,
    parse_ita_plan,
)
from rebel.pipeline import INFER_TEMPERATURE, RULE_GEN_TEMPERATURE, RetrievalConfig, infer
from rebel.retrieval import ExperienceDatabase, HashedEmbedder, RulesDatabase
from rebel.sim import SimConfig
from conftest import make_scenario
from oracles import ref_heuristic_allocate


class ScriptedHandler(BaseHTTPRequestHandler):
    """Serves scripted (status, payload) responses in order, then a default
    success. A bytes payload is sent as the raw body; the steps "sleep" and
    "truncate" answer late (after 2 s, or once `released` is set) or cut the
    body short."""

    script: list = []
    requests_seen: list = []
    released = threading.Event()

    def do_POST(self):
        length = int(self.headers.get("Content-Length", 0))
        body = json.loads(self.rfile.read(length) or b"{}")
        type(self).requests_seen.append((self.path, body))
        step = type(self).script.pop(0) if type(self).script else (200, None)
        if step == "sleep":
            type(self).released.wait(2.0)
            step = (200, None)
        if step == "truncate":  # promise 100 bytes, send 2, close
            self.send_response(200)
            self.send_header("Content-Length", "100")
            self.end_headers()
            self.wfile.write(b"{}")
            return
        status, payload = step
        if payload is None:
            if self.path.endswith("/embeddings"):  # one entry per input text
                payload = {"data": [{"embedding": [3.0, 4.0]} for _ in body["input"]]}
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
    ScriptedHandler.released.clear()
    thread = threading.Thread(
        target=server.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
    )
    thread.start()
    yield f"http://127.0.0.1:{server.server_port}/v1"
    ScriptedHandler.released.set()  # a sleeping handler answers now, so shutdown need not wait
    server.shutdown()
    server.server_close()


@pytest.fixture
def short_backoff(monkeypatch):
    monkeypatch.setattr("rebel.llm.BACKOFF_S", 0.01)


def ask_chat(cfg: ProviderConfig):
    return HttpCompletionProvider(cfg).complete("ping", INFER_TEMPERATURE)


def ask_embedder(cfg: ProviderConfig):
    return HttpEmbedder(cfg).embed("ping")


class TransportCases:
    """Failure handling of the transport both HTTP clients share; each
    subclass runs them through one client's `ask`, which returns `answer`
    for the handler's default 200."""

    def test_401_rejected_without_retry(self, http_server, short_backoff):
        ScriptedHandler.script = [(401, {"error": "bad key"}), (200, None)]
        with pytest.raises(ProviderRejected):
            self.ask(ProviderConfig(endpoint=http_server, retries=3))
        assert len(ScriptedHandler.requests_seen) == 1

    def test_500_retried_then_succeeds(self, http_server, short_backoff):
        ScriptedHandler.script = [(500, {"error": "flaky"}), (200, None)]
        cfg = ProviderConfig(endpoint=http_server, retries=2)
        assert self.ask(cfg) == self.answer
        assert len(ScriptedHandler.requests_seen) == 2

    def test_unreachable_with_zero_retries_is_unavailable(self):
        with pytest.raises(Unavailable):
            self.ask(ProviderConfig(endpoint="http://127.0.0.1:9", retries=0, timeout_s=0.5))

    def test_slow_server_raises_timeout(self, http_server):
        ScriptedHandler.script = ["sleep"]
        with pytest.raises(Timeout):
            self.ask(ProviderConfig(endpoint=http_server, retries=0, timeout_s=0.3))

    def test_truncated_body_is_retried_then_unavailable(self, http_server, short_backoff):
        ScriptedHandler.script = ["truncate", "truncate"]
        with pytest.raises(Unavailable):
            self.ask(ProviderConfig(endpoint=http_server, retries=1))
        assert len(ScriptedHandler.requests_seen) == 2

    def test_non_json_200_is_malformed(self, http_server):
        ScriptedHandler.script = [(200, b"<html>gateway says hi</html>")]
        with pytest.raises(MalformedResponse):
            self.ask(ProviderConfig(endpoint=http_server, retries=0))


class TestHttpProvider(TransportCases):
    ask = staticmethod(ask_chat)
    answer = "pong"

    def test_happy_path(self, http_server):
        provider = HttpCompletionProvider(ProviderConfig(endpoint=http_server, retries=0))
        assert provider.complete("ping", INFER_TEMPERATURE) == "pong"
        path, body = ScriptedHandler.requests_seen[0]
        assert path.endswith("/chat/completions")
        assert body["messages"] == [{"role": "user", "content": "ping"}]

    def test_embedder_returns_unit_vector(self, http_server):
        embedder = HttpEmbedder(ProviderConfig(endpoint=http_server, retries=0))
        vector = embedder.embed("hello")
        assert vector == pytest.approx((0.6, 0.8))

    def test_configured_model_is_sent(self, http_server):
        provider = HttpCompletionProvider(
            ProviderConfig(endpoint=http_server, model="local-model", retries=0)
        )
        provider.complete("ping", INFER_TEMPERATURE)
        _, body = ScriptedHandler.requests_seen[0]
        assert body["model"] == "local-model"


DEGENERATE_EMBEDDINGS = {
    "empty": b'{"data": [{"embedding": []}]}',
    "all_zeros": b'{"data": [{"embedding": [0, 0.0]}]}',
    "nan": b'{"data": [{"embedding": [NaN, 1]}]}',
    "infinite": b'{"data": [{"embedding": [1e999, 1]}]}',
    "huge_int": b'{"data": [{"embedding": [1' + b"0" * 400 + b', 1]}]}',
    "booleans": b'{"data": [{"embedding": [true, false]}]}',
    "strings": b'{"data": [{"embedding": ["0.6", "0.8"]}]}',
    "nested_too_deeply": b"[" * 100_000,
}


class TestHttpEmbedder(TransportCases):
    ask = staticmethod(ask_embedder)
    answer = (0.6, 0.8)

    def test_request_body_names_the_model_and_a_list_input(self, http_server):
        cfg = ProviderConfig(endpoint=http_server, retries=0)
        HttpEmbedder(cfg, model="local-embed").embed("hi")
        path, body = ScriptedHandler.requests_seen[0]
        assert path.endswith("/embeddings")
        assert body == {"model": "local-embed", "input": ["hi"]}

    def test_the_norm_adds_the_squares_left_to_right(self, http_server):
        # built-in `sum` gives 0.3 from Python 3.12 on
        ScriptedHandler.script = [(200, {"data": [{"embedding": [0.5, 0.2, 0.1]}]})]
        squares = 0.5 * 0.5 + 0.2 * 0.2 + 0.1 * 0.1
        assert squares == 0.30000000000000004
        got = ask_embedder(ProviderConfig(endpoint=http_server, retries=0))
        assert got == tuple(v / math.sqrt(squares) for v in (0.5, 0.2, 0.1))

    @pytest.mark.parametrize("body", DEGENERATE_EMBEDDINGS.values(), ids=DEGENERATE_EMBEDDINGS)
    def test_degenerate_embedding_is_malformed(self, http_server, body):
        ScriptedHandler.script = [(200, body)]
        with pytest.raises(MalformedResponse):
            ask_embedder(ProviderConfig(endpoint=http_server, retries=0))


def _entries(*indices) -> dict:
    """An /embeddings answer with one entry per index, entry i's embedding
    pointing along axis i; None leaves an entry's `index` out."""
    data = []
    for position, index in enumerate(indices):
        entry = {"embedding": [1.0 if axis == position else 0.0 for axis in range(len(indices))]}
        if index is not None:
            entry["index"] = index
        data.append(entry)
    return {"data": data}


# three inputs, answered with these indices
BAD_INDICES = {
    "repeated": (0, 1, 1),
    "missing_and_out_of_range": (0, 1, 3),
    "negative": (-1, 0, 1),
    "boolean": (False, True, 2),
    "float": (0, 1, 2.0),
    "text": (0, 1, "2"),
    "indexed_and_unindexed": (0, 1, None),
    "unindexed_and_indexed": (None, 1, 2),
    "too_few_entries": (0, 1),
    "too_many_entries": (0, 1, 2, 3),
}


class TestHttpEmbedBatch:
    """`HttpEmbedder.embed_batch` sends every text in one POST and takes back
    exactly one embedding per text, in `index` order when the answer gives
    one."""

    TEXTS = ["first", "second", "third"]

    def test_one_post_lists_every_text(self, http_server):
        embedder = HttpEmbedder(ProviderConfig(endpoint=http_server, retries=0), model="m")
        rows = embedder.embed_batch(self.TEXTS)
        assert rows.tolist() == [[0.6, 0.8]] * 3
        assert ScriptedHandler.requests_seen == [("/v1/embeddings", {"model": "m", "input": self.TEXTS})]

    @pytest.mark.parametrize("indices", [(2, 0, 1), (0, 1, 2), (None, None, None)])
    def test_entries_are_taken_in_index_order(self, http_server, indices):
        ScriptedHandler.script = [(200, _entries(*indices))]
        rows = HttpEmbedder(ProviderConfig(endpoint=http_server, retries=0)).embed_batch(self.TEXTS)
        # entry i points along axis i; row j is the entry indexed j, or the j-th when none is
        order = range(3) if indices[0] is None else [indices.index(j) for j in range(3)]
        assert rows.tolist() == [[1.0 if axis == position else 0.0 for axis in range(3)] for position in order]

    @pytest.mark.parametrize("indices", BAD_INDICES.values(), ids=BAD_INDICES)
    def test_entries_that_do_not_answer_each_text_once_are_malformed(self, http_server, indices):
        ScriptedHandler.script = [(200, _entries(*indices))]
        with pytest.raises(MalformedResponse):
            HttpEmbedder(ProviderConfig(endpoint=http_server, retries=0)).embed_batch(self.TEXTS)
        assert len(ScriptedHandler.requests_seen) == 1

    def test_embeddings_of_two_lengths_are_malformed(self, http_server):
        ScriptedHandler.script = [(200, {"data": [{"embedding": [1.0, 0.0]}, {"embedding": [1.0]}]})]
        with pytest.raises(MalformedResponse, match="^embedding: embedding dimension mismatch: 1 vs 2$"):
            HttpEmbedder(ProviderConfig(endpoint=http_server, retries=0)).embed_batch(["a", "b"])

    def test_a_5xx_then_200_on_a_batch_succeeds(self, http_server, short_backoff):
        ScriptedHandler.script = [(503, {"error": "busy"}), (200, _entries(1, 0, 2))]
        rows = HttpEmbedder(ProviderConfig(endpoint=http_server, retries=1)).embed_batch(self.TEXTS)
        assert rows.tolist() == [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]
        assert [body["input"] for _, body in ScriptedHandler.requests_seen] == [self.TEXTS] * 2

    def test_rebel_infer_makes_three_posts(self, http_server, tmp_path, capsys):
        from rebel.cli import main

        rules, exp, scenario = tmp_path / "rules.jsonl", tmp_path / "exp.jsonl", tmp_path / "scenario.txt"
        scenario.write_text(random_scenario(2, 3, 4, seed=9).serialize() + "\n")
        http = ["--embedder", "http", "--endpoint", http_server, "--retries", "0"]
        assert main(["gen-rules", "--rules-db", str(rules)]) == 0
        assert main(["gen-exp", "--rules-db", str(rules), "--exp-db", str(exp), "--missions", "1", *http]) == 0
        assert len(RulesDatabase(rules)) == 9 and len(ExperienceDatabase(exp)) == 3
        ScriptedHandler.requests_seen.clear()
        capsys.readouterr()
        argv = ["infer", "--rules-db", str(rules), "--exp-db", str(exp), "--scenario", str(scenario), "--prefs", "MT"]
        assert main([*argv, *http]) == 0
        assert capsys.readouterr().err == ""
        inputs = [body["input"] for path, body in ScriptedHandler.requests_seen if path.endswith("/embeddings")]
        assert len(ScriptedHandler.requests_seen) == len(inputs) == 3
        query = objectives_text(PreferenceVector.single(Objective.MISSION_TIME))
        assert inputs == [
            ["dimension probe"],
            [r.text for r in RulesDatabase(rules).rules()] + [query],
            list(MissionScenario.parse(scenario.read_text()).sections),
        ]


MALFORMED_CHAT_BODIES = {
    "not_json": b"<html>gateway says hi</html>",
    "null_content": {"choices": [{"message": {"content": None}}]},
    "empty_object": {},
    "nested_too_deeply": b"[" * 100_000,  # json.loads raises RecursionError
}


class TestMalformedResponses:
    """A 200 whose body lacks the expected fields is an LlmError, never a raw
    decoding or lookup error."""

    @pytest.mark.parametrize("body", MALFORMED_CHAT_BODIES.values(), ids=MALFORMED_CHAT_BODIES)
    def test_chat_body_raises_malformed_response(self, http_server, body):
        ScriptedHandler.script = [(200, body)]
        provider = HttpCompletionProvider(ProviderConfig(endpoint=http_server, retries=0))
        with pytest.raises(MalformedResponse):
            provider.complete("ping", INFER_TEMPERATURE)

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


class TestInferProviderErrors:
    """`infer` asks again only when the model answered with something it
    cannot use; any other provider error goes straight to the greedy plan,
    since the transport has already spent its retries on it."""

    @pytest.mark.parametrize("status", [401, 500])
    def test_error_status_is_sent_once_then_greedy(self, http_server, scenario, caplog, status):
        ScriptedHandler.script = [(status, {"error": "no"}), (status, {"error": "no"})]
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        with caplog.at_level("WARNING", logger="rebel.pipeline"):
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
        assert len(ScriptedHandler.requests_seen) == 1
        assert "retrying" not in caplog.text
        assert "using the greedy plan" in caplog.text

    def test_unusable_answer_logs_retrying_once(self, http_server, scenario, caplog):
        ScriptedHandler.script = [(200, {"choices": [{"message": {"content": "no plan"}}]})] * 2
        with caplog.at_level("WARNING", logger="rebel.pipeline"):
            result = infer(
                scenario,
                PreferenceVector.single(Objective.MISSION_TIME),
                RulesDatabase(),
                ExperienceDatabase(),
                HttpCompletionProvider(ProviderConfig(endpoint=http_server, retries=0)),
                RetrievalConfig(embedder=HashedEmbedder(dim=16)),
            )
        assert result.used_fallback
        assert len(ScriptedHandler.requests_seen) == 2
        assert caplog.text.count("retrying") == 1


class TestRequestValidation:
    @pytest.mark.parametrize("endpoint", ["file:///tmp/v1", "localhost:8000/v1", "api/v1"])
    def test_endpoint_must_be_http(self, endpoint):
        with pytest.raises(ValueError):
            ProviderConfig(endpoint=endpoint)


def rules_prompt(objective: Objective) -> str:
    return build_prompt(
        scenario_label=SECTION_BACKGROUND,
        scenario_text=BACKGROUND_FORMAT,
        goal=GOAL_GENERATE_RULES,
        objectives=objectives_text(PreferenceVector.single(objective)),
    )


def allocation_prompt(scenario, prefs) -> str:
    return build_prompt(
        scenario_label=SECTION_SCENARIO,
        scenario_text=scenario.render_spf(),
        goal=GOAL_PERFORM_ITA,
        objectives=objectives_text(prefs),
    )


class TestStubProvider:
    def test_rule_prompts_get_canned_rules(self):
        stub = StubProvider()
        for objective in Objective:
            response = stub.complete(rules_prompt(objective), RULE_GEN_TEMPERATURE)
            assert response == "\n".join(STUB_RULES[objective])

    def test_allocation_prompt_returns_heuristic_plan(self, scenario):
        stub = StubProvider()
        prefs = PreferenceVector.single(Objective.MISSION_TIME)
        response = stub.complete(allocation_prompt(scenario, prefs), INFER_TEMPERATURE)
        assert response == heuristic_allocate(scenario, prefs).render()
        parsed = parse_ita_plan(response, scenario)
        assert validate_plan(parsed, scenario).ok

    def test_refinement_prompt_echoes_rules(self):
        stub = StubProvider()
        rules = ("Rule one stays.", "Rule two stays.")
        prompt = build_prompt(
            scenario_label=SECTION_BACKGROUND,
            scenario_text=BACKGROUND_FORMAT,
            goal=GOAL_REFINE_RULES,
            objectives=objectives_text(PreferenceVector.single(Objective.MISSION_TIME)),
            rules=rules,
        )
        assert stub.complete(prompt, RULE_GEN_TEMPERATURE) == "\n".join(rules)

    def test_identical_requests_identical_responses(self, scenario):
        stub = StubProvider()
        prompt = allocation_prompt(scenario, PreferenceVector.of(TP=0.4, MT=0.3, HW=0.3))
        assert stub.complete(prompt, INFER_TEMPERATURE) == stub.complete(prompt, INFER_TEMPERATURE)


class TestTranscript:
    def test_record_then_replay(self, tmp_path, scenario):
        path = tmp_path / "transcript.jsonl"
        recorder = TranscriptRecorder(StubProvider(), path)
        prompt = allocation_prompt(scenario, PreferenceVector.single(Objective.MISSION_TIME))
        response = recorder.complete(prompt, INFER_TEMPERATURE)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert [json.loads(line) for line in lines] == [{
            "prompt": prompt,
            "prompt_sha256": hashlib.sha256(prompt.encode("utf-8")).hexdigest(),
            "response": response,
        }]

    def test_concurrent_completions_append_whole_lines(self, tmp_path):
        class Echo:
            def complete(self, prompt, temperature):
                return prompt[::-1]

        path = tmp_path / "transcript.jsonl"
        recorder = TranscriptRecorder(Echo(), path)
        prompts = [f"prompt {i} " + "x" * 100_000 for i in range(24)]
        errors = []

        def complete_all(batch):
            try:
                for prompt in batch:
                    recorder.complete(prompt, INFER_TEMPERATURE)
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

    def test_mixed_weight_ties_go_to_the_lowest_robot_then_human_id(self):
        # two identical robots and two identical analysts, listed out of order:
        # the first task ties on both and lands on the lowest ids by digit run
        scenario = make_scenario(
            humans=(("H_10", Tier.HIGH, Tier.HIGH), ("H_5", Tier.LOW, Tier.LOW),
                    ("H_2", Tier.HIGH, Tier.HIGH)),
            robots=(("UAV_10", 10.0, Tier.LOW), ("UAV_2", 10.0, Tier.LOW)),
            tasks=(("T_0", (1500.0, 2000.0), Tier.HIGH),),
        )
        plan = heuristic_allocate(scenario, PreferenceVector.of(TP=0.45, MT=0.45, HW=0.1))
        assert plan.assignments["T_0"] == ("UAV_2", "H_2")

    # sha256 over the rendered plans, recorded from an earlier implementation of
    # the allocator: any change to a pick or a tie-break changes the digest
    GOLDEN_CASES = {
        "tied_rotations_single": (
            (
                PreferenceVector.of(TP=1, MT=1, HW=1),
                PreferenceVector.of(TP=0.5, MT=0.25, HW=0.25),
                PreferenceVector.of(TP=0.25, MT=0.5, HW=0.25),
                PreferenceVector.of(TP=0.25, MT=0.25, HW=0.5),
                PreferenceVector.of(TP=0.34, MT=0.33, HW=0.33),
                PreferenceVector.single(Objective.TASK_PERFORMANCE),
            ),
            2024, 0, 200,
            "1705424b233edc5b26f46c150b95fe18b2ff4c290e7cac9702e9b4e5a79262ce",
        ),
        "two_way_top_ties": (
            (
                PreferenceVector.of(TP=0.4, MT=0.4, HW=0.2),
                PreferenceVector.of(TP=0.2, MT=0.4, HW=0.4),
            ),
            2025, 1000, 60,
            "da7078798b6728d3d19233886b33fd01fb523128d7eeeaa915d50ce58f4393e4",
        ),
    }

    @pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
    def test_plans_match_the_pinned_digest(self, case):
        vectors, rng_seed, first_seed, count, expected = self.GOLDEN_CASES[case]
        rng = random.Random(rng_seed)
        digest = hashlib.sha256()
        for seed in range(first_seed, first_seed + count):
            scenario = random_scenario(
                rng.randint(0, 6), rng.randint(1, 8), rng.randint(1, 30), seed=seed
            )
            for prefs in vectors:
                digest.update(heuristic_allocate(scenario, prefs).render().encode() + b"\n")
        assert digest.hexdigest() == expected

    # sha256 over the rendered plans of a fixed grid, recorded from an earlier
    # implementation of the allocator: team shapes down to no humans and one
    # robot, every branch (single, rotated, tied and near-tied vectors), and
    # the default constants next to other shared-control speed multipliers
    GRID_SHAPES = ((0, 1, 6), (1, 1, 8), (0, 4, 12), (2, 3, 10), (5, 7, 30))
    GRID_VECTORS = (
        PreferenceVector.single(Objective.TASK_PERFORMANCE),
        PreferenceVector.single(Objective.MISSION_TIME),
        PreferenceVector.of(TP=0.5, MT=0.25, HW=0.25),
        PreferenceVector.of(TP=0.25, MT=0.25, HW=0.5),
        PreferenceVector.of(TP=1, MT=1, HW=1),
        PreferenceVector.of(TP=0.34, MT=0.33, HW=0.33),
        PreferenceVector.of(TP=0.4, MT=0.4, HW=0.2),
    )
    GRID_CONFIGS = (
        SimConfig(),
        SimConfig(shared_speed_multiplier={Tier.LOW: 0.5, Tier.MED: 1.5, Tier.HIGH: 2.5}),
    )
    GRID_GOLDEN = "4db53e6bfc8bc464acd2f01c10c99ed349502e149aec2eb095888b97f53dbbea"

    def test_grid_matches_the_pinned_digest(self):
        digest = hashlib.sha256()
        for humans, robots, tasks in self.GRID_SHAPES:
            for seed in range(25):
                scenario = random_scenario(humans, robots, tasks, seed=seed)
                for cfg in self.GRID_CONFIGS:
                    for prefs in self.GRID_VECTORS:
                        plan = heuristic_allocate(scenario, prefs, cfg)
                        digest.update(plan.render().encode() + b"\n")
        assert digest.hexdigest() == self.GRID_GOLDEN

    @pytest.mark.parametrize("speed, multiplier", [(1e-300, 1e-300), (5e-324, 0.5)])
    @pytest.mark.parametrize("prefs", [
        PreferenceVector.of(TP=1, MT=1, HW=1),
        PreferenceVector.single(Objective.TASK_PERFORMANCE),
    ])
    def test_shared_speed_at_or_below_zero_is_a_value_error(self, speed, multiplier, prefs):
        # the config refuses a multiplier not > 0, but a positive robot speed
        # times a positive multiplier can still underflow to 0.0; the two
        # branches that plan shared control travel at that scaled speed
        cfg = SimConfig(shared_speed_multiplier={tier: multiplier for tier in Tier})
        scenario = make_scenario(
            humans=(("H_0", Tier.HIGH, Tier.HIGH),),
            robots=(("UAV_0", speed, Tier.MED),),
            tasks=(("T_0", (300.0, 400.0), Tier.HIGH),),
        )
        assert speed * multiplier == 0.0
        with pytest.raises(ValueError, match=r"^speed must be > 0, got 0\.0$"):
            heuristic_allocate(scenario, prefs, cfg)
        # autonomous planning never reads the multiplier
        plan = heuristic_allocate(scenario, PreferenceVector.single(Objective.MISSION_TIME), cfg)
        assert plan.assignments["T_0"] == ("UAV_0", None)

    def test_deterministic(self, scenario):
        prefs = PreferenceVector.of(TP=0.34, MT=0.33, HW=0.33)
        assert heuristic_allocate(scenario, prefs) == heuristic_allocate(scenario, prefs)

    def test_no_robots_is_error(self):
        scenario = make_scenario(robots=(), tasks=())
        with pytest.raises(ValueError):
            heuristic_allocate(scenario, PreferenceVector.single(Objective.MISSION_TIME))


_TIER = st.sampled_from(list(Tier))
_WEIGHT = st.floats(0.0, 1.0)

# built once, not on every draw, since hypothesis checks each new strategy
_SPEED = st.sampled_from([6.0, 13.0, 1e-300]) | st.floats(0.5, 30.0)
_PLACE = st.sampled_from([0.0, 700.0, 2000.0]) | st.floats(0.0, 2000.0)
_HUMANS = st.lists(st.tuples(_TIER, _TIER), max_size=6)
_ROBOTS = st.lists(st.tuples(_SPEED, _TIER), min_size=1, max_size=8)
_PLACES = st.lists(_PLACE, min_size=1, max_size=8)
_PREFS = (
    st.sampled_from([
        PreferenceVector.of(TP=1, MT=1, HW=1),
        PreferenceVector.of(TP=0.4, MT=0.4, HW=0.2),
        PreferenceVector.of(TP=0.5, MT=0.25, HW=0.25),
        *(PreferenceVector.single(objective) for objective in Objective),
    ])
    | st.tuples(_WEIGHT, _WEIGHT, _WEIGHT)
    .filter(any)
    .map(lambda w: PreferenceVector.of(TP=w[0], MT=w[1], HW=w[2]))
)
_MULTIPLIER = st.sampled_from([1e-300, math.inf]) | st.floats(0.1, 3.0)
_SERVICE = st.sampled_from([0.0, math.inf]) | st.floats(0.0, 120.0)
_CFG = st.none() | st.builds(
    lambda multipliers, services: SimConfig(
        shared_speed_multiplier=dict(zip(Tier, multipliers)),
        analysis_service_s=dict(zip(Tier, services)),
    ),
    st.tuples(_MULTIPLIER, _MULTIPLIER, _MULTIPLIER),
    st.tuples(_SERVICE, _SERVICE, _SERVICE),
)


@st.composite
def allocation_cases(draw):
    """A team of 0-6 humans and 1-8 robots with 0-40 tasks, whose speeds,
    places and tiers often repeat, so candidates tie; a tied, dominant or
    random preference vector; and the default model constants or drawn
    shared-control speed multipliers and analysis service times, including
    a speed that underflows to 0.0 when shared and infinite values.

    Each task's two coordinates come from 1-8 drawn places and its tier from
    the three, all picked by one draw of bytes: drawing each task's fields
    one by one took nearly all of the test's time."""
    humans = draw(_HUMANS)
    robots = draw(_ROBOTS)
    places = draw(_PLACES)
    count = draw(st.integers(0, 40))  # lists alone would mostly be short
    picks = draw(st.binary(min_size=3 * count, max_size=3 * count))
    tiers = list(Tier)
    tasks = [
        (places[x % len(places)], places[y % len(places)], tiers[t % len(tiers)])
        for x, y, t in zip(picks[0::3], picks[1::3], picks[2::3])
    ]
    scenario = make_scenario(
        humans=[(f"H_{i}", cognition, skill) for i, (cognition, skill) in enumerate(humans)],
        robots=[(f"UAV_{i}", v, camera) for i, (v, camera) in enumerate(robots)],
        tasks=[(f"T_{i}", (x, y), difficulty) for i, (x, y, difficulty) in enumerate(tasks)],
    )
    return scenario, draw(_PREFS), draw(_CFG)


def _allocation(allocate, scenario, prefs, cfg):
    """The plan's (task, assignment) pairs in order, or the error's type and text."""
    try:
        return list(allocate(scenario, prefs, cfg).assignments.items())
    except ValueError as exc:
        return type(exc), str(exc)


_UNDERFLOW_CASE = (
    make_scenario(
        humans=(("H_0", Tier.HIGH, Tier.HIGH),),
        robots=(("UAV_0", 1e-300, Tier.MED),),
        tasks=(("T_0", (300.0, 400.0), Tier.LOW), ("T_1", (300.0, 400.0), Tier.HIGH)),
    ),
    SimConfig(shared_speed_multiplier={tier: 1e-300 for tier in Tier}),
)


@settings(max_examples=200, deadline=None)
@given(allocation_cases())
@example((_UNDERFLOW_CASE[0], PreferenceVector.single(Objective.TASK_PERFORMANCE), _UNDERFLOW_CASE[1]))
@example((_UNDERFLOW_CASE[0], PreferenceVector.of(TP=1, MT=1, HW=1), _UNDERFLOW_CASE[1]))
def test_heuristic_allocate_matches_the_frozen_allocator(case):
    assert _allocation(heuristic_allocate, *case) == _allocation(ref_heuristic_allocate, *case)
