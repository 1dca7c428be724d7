"""The rebel functions a traced run times, and the per-layer metrics made
from their spans.

Span names are `<module>.<function>` or `<module>.<Class>.<method>`.
`heuristic_allocate` spans are split by `PreferenceVector.dominant()`:
`.tied` when no single objective has the highest weight (the mixed-weight
scoring branch), `.dominant` otherwise.
"""

from __future__ import annotations

from rebel import bench, llm, pipeline, prompt, retrieval, sim

from spans import Layer, Tracer

PACKAGE = "rebel"


def _contains_before(tracer: Tracer, args: dict) -> None:
    tracer.counts["contains.records_compared"] += len(args["self"])


def _contains_after(tracer: Tracer, args: dict, result) -> None:
    tracer.counts["contains.hits"] += bool(result)


def _retrieve_before(tracer: Tracer, args: dict) -> None:
    tracer.counts["retrieve_experiences.records_scored"] += len(args["db"])


def _ensemble_before(tracer: Tracer, args: dict) -> None:
    tracer.counts["ensemble_retrieve.rules_scored"] += len(args["db"])


def _heuristic_name(args: dict) -> str:
    tied = args["prefs"].dominant() is None
    return "llm.heuristic_allocate." + ("tied" if tied else "dominant")


def _enumerate_after(tracer: Tracer, args: dict, plans) -> None:
    tracer.counts["enumerate_plans.plans"] += len(plans)
    tracer.counts["enumerate_plans.distinct_renders"] += len({p.render() for p in plans})


LAYERS = [
    Layer(retrieval.ExperienceDatabase, "__init__", "retrieval.ExperienceDatabase.load"),
    Layer(retrieval.RulesDatabase, "__init__", "retrieval.RulesDatabase.load"),
    Layer(
        retrieval.ExperienceDatabase, "contains", "retrieval.ExperienceDatabase.contains",
        before=_contains_before, after=_contains_after,
    ),
    Layer(retrieval.ExperienceDatabase, "store", "retrieval.ExperienceDatabase.store"),
    Layer(retrieval, "embed_scenario_sections", "retrieval.embed_scenario_sections"),
    Layer(
        retrieval, "retrieve_experiences", "retrieval.retrieve_experiences",
        before=_retrieve_before,
    ),
    Layer(retrieval, "ensemble_retrieve", "retrieval.ensemble_retrieve", before=_ensemble_before),
    Layer(llm, "heuristic_allocate", "llm.heuristic_allocate", name_of=_heuristic_name),
    Layer(llm.StubProvider, "complete", "llm.StubProvider.complete"),
    Layer(prompt, "build_prompt", "prompt.build_prompt"),
    Layer(prompt, "parse_ita_plan", "prompt.parse_ita_plan"),
    Layer(pipeline, "infer", "pipeline.infer"),
    Layer(pipeline, "generate_experiences", "pipeline.generate_experiences"),
    Layer(sim, "run_mission", "sim.run_mission"),
    Layer(bench, "brute_force_optimal", "bench.brute_force_optimal"),
    Layer(bench, "enumerate_plans", "bench.enumerate_plans", after=_enumerate_after),
    Layer(bench, "random_scenario", "bench.random_scenario"),
]

# Spans the benchmark opens itself; they are not layers of the program.
OWN_SPANS = ("perfbench.setup", "perfbench.op", "trace.bookkeeping")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics as name -> (value, unit); absent layers read 0."""
    stats = tracer.stats
    counts = tracer.counts

    def calls(name: str) -> float:
        return stats[name].calls if name in stats else 0

    def self_s(name: str) -> float:
        return stats[name].self_s if name in stats else 0.0

    def total_s(name: str) -> float:
        return stats[name].total_s if name in stats else 0.0

    contains = "retrieval.ExperienceDatabase.contains"
    tied, dominant = "llm.heuristic_allocate.tied", "llm.heuristic_allocate.dominant"
    return {
        f"{contains}.calls": (calls(contains), "count"),
        f"{contains}.self_s": (self_s(contains), "s"),
        f"{contains}.records_compared": (counts["contains.records_compared"], "count"),
        f"{contains}.hit_rate": (_ratio(counts["contains.hits"], calls(contains)), "ratio"),
        "retrieval.ExperienceDatabase.store.self_s": (
            self_s("retrieval.ExperienceDatabase.store"), "s"),
        "retrieval.embed_scenario_sections.self_s": (
            self_s("retrieval.embed_scenario_sections"), "s"),
        "retrieval.ExperienceDatabase.load_s": (total_s("retrieval.ExperienceDatabase.load"), "s"),
        "retrieval.RulesDatabase.load_s": (total_s("retrieval.RulesDatabase.load"), "s"),
        "retrieval.retrieve_experiences.calls": (calls("retrieval.retrieve_experiences"), "count"),
        "retrieval.retrieve_experiences.self_s": (self_s("retrieval.retrieve_experiences"), "s"),
        "retrieval.retrieve_experiences.records_scored": (
            counts["retrieve_experiences.records_scored"], "count"),
        "retrieval.ensemble_retrieve.calls": (calls("retrieval.ensemble_retrieve"), "count"),
        "retrieval.ensemble_retrieve.self_s": (self_s("retrieval.ensemble_retrieve"), "s"),
        "retrieval.ensemble_retrieve.rules_scored": (
            counts["ensemble_retrieve.rules_scored"], "count"),
        f"{tied}.calls": (calls(tied), "count"),
        f"{tied}.self_s": (self_s(tied), "s"),
        f"{dominant}.calls": (calls(dominant), "count"),
        f"{dominant}.self_s": (self_s(dominant), "s"),
        "llm.heuristic_allocate.tied_share": (
            _ratio(calls(tied), calls(tied) + calls(dominant)), "ratio"),
        "llm.StubProvider.complete.self_s": (self_s("llm.StubProvider.complete"), "s"),
        "prompt.build_prompt.self_s": (self_s("prompt.build_prompt"), "s"),
        "prompt.parse_ita_plan.self_s": (self_s("prompt.parse_ita_plan"), "s"),
        "pipeline.infer.self_s": (self_s("pipeline.infer"), "s"),
        "sim.run_mission.calls": (calls("sim.run_mission"), "count"),
        "sim.run_mission.self_s": (self_s("sim.run_mission"), "s"),
        "bench.brute_force_optimal.self_s": (self_s("bench.brute_force_optimal"), "s"),
        "bench.enumerate_plans.plans": (counts["enumerate_plans.plans"], "count"),
        "bench.enumerate_plans.distinct_render_ratio": (
            _ratio(counts["enumerate_plans.distinct_renders"], counts["enumerate_plans.plans"]),
            "ratio"),
        "bench.random_scenario.self_s": (self_s("bench.random_scenario"), "s"),
        "pipeline.generate_experiences.self_s": (self_s("pipeline.generate_experiences"), "s"),
    }


def top_layer(tracer: Tracer) -> tuple[str, float]:
    """The program layer with the largest self time; the heuristic's two
    preference branches count as one layer."""
    merged: dict[str, float] = {}
    for name, stats in tracer.stats.items():
        if name in OWN_SPANS:
            continue
        if name.startswith("llm.heuristic_allocate."):
            name = "llm.heuristic_allocate"
        merged[name] = merged.get(name, 0.0) + stats.self_s
    return max(merged.items(), key=lambda item: item[1])
