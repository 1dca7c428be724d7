"""Three-stage orchestration: rule generation, experience generation through
simulated missions (with periodic rule refinement), and retrieval-augmented
inference on unseen missions.

Stages 1 and 2 form the knowledge-acquisition phase that populates the rules
and experience databases before deployment. Stage 3 retrieves the most
relevant rules and prior missions for the user's preferences and asks the
model for an allocation, falling back to the greedy allocator when the model
output cannot be parsed into a valid plan.
"""

from __future__ import annotations

import hashlib
import logging
from dataclasses import dataclass, field

from .core import (
    ItaPlan,
    MissionScenario,
    Objective,
    PreferenceVector,
)
from .llm import (
    CompletionProvider,
    CompletionRequest,
    LlmError,
    MalformedResponse,
    heuristic_allocate,
)
from .prompt import (
    BACKGROUND_FORMAT,
    GOAL_GENERATE_RULES,
    GOAL_PERFORM_ITA,
    GOAL_REFINE_RULES,
    Exemplar,
    ParseFailure,
    PlanInvalid,
    SECTION_BACKGROUND,
    SECTION_SCENARIO,
    build_prompt,
    objectives_text,
    parse_ita_plan,
    rule_lines,
)
from .retrieval import (
    CorruptLogError,
    Embedder,
    ExperienceDatabase,
    ExperienceRecord,
    HashedEmbedder,
    RuleEntry,
    RulesDatabase,
    embed_scenario_sections,
    ensemble_retrieve,
    retrieve_experiences,
)
from .sim import SimConfig, run_mission

logger = logging.getLogger(__name__)

RULE_GEN_TEMPERATURE = 0.7
INFER_TEMPERATURE = 0.2


def derive_seed(*parts: object) -> int:
    """Stable 63-bit seed derived from arbitrary labels."""
    digest = hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class ScenarioRanges:
    """Team-size and task-count ranges for randomized training missions."""

    humans: tuple[int, int] = (2, 5)
    robots: tuple[int, int] = (3, 7)
    tasks: tuple[int, int] = (5, 15)


@dataclass(frozen=True)
class KnowledgeAcquisitionConfig:
    objectives: tuple[Objective, ...] = tuple(Objective)
    missions_per_objective: int = 10
    scenario_ranges: ScenarioRanges = ScenarioRanges()
    refine_every: int | None = None  # None: refine once at the end of each objective batch
    base_seed: int = 0

    def __post_init__(self) -> None:
        if self.missions_per_objective < 1:
            raise ValueError("missions per objective must be >= 1")


@dataclass(frozen=True)
class RetrievalConfig:
    rule_k: int = 5
    exp_k: int = 3
    exp_m: int = 2
    embedder: Embedder = field(default_factory=HashedEmbedder)


@dataclass(frozen=True)
class InferenceResult:
    """An inferred plan plus the exact retrieval provenance behind it."""

    plan: ItaPlan
    rules: tuple[RuleEntry, ...]
    exemplars: tuple[ExperienceRecord, ...]
    used_fallback: bool
    query: str

    @property
    def rule_ids(self) -> tuple[int, ...]:
        return tuple(r.id for r in self.rules)

    @property
    def exemplar_ids(self) -> tuple[int, ...]:
        return tuple(e.id for e in self.exemplars)


class StageError(RuntimeError):
    """A pipeline stage aborted; carries whatever progress was durably stored."""

    def __init__(self, message: str, stored: tuple = ()):
        super().__init__(message)
        self.stored = stored


def generate_rules(
    objectives: tuple[Objective, ...],
    provider: CompletionProvider,
    rules_db: RulesDatabase,
) -> tuple[RuleEntry, ...]:
    """Stage 1: ask the model for prescriptive rules per objective and store
    them, deduplicating exact text matches within an objective."""
    if not objectives:
        raise ValueError("at least one objective is required")
    stored: list[RuleEntry] = []
    for objective in objectives:
        prompt = _background_prompt(objective, GOAL_GENERATE_RULES)
        try:
            response = provider.complete(
                CompletionRequest(prompt=prompt, temperature=RULE_GEN_TEMPERATURE)
            )
        except LlmError as exc:
            raise StageError(
                f"rule generation aborted at objective {objective.short}: {exc}",
                stored=tuple(stored),
            ) from exc
        lines = rule_lines(response)
        if not lines:
            logger.warning("empty rule response for objective %s", objective.short)
            continue
        for text in lines:
            if not rules_db.contains_text(objective, text):
                stored.append(rules_db.store(objective, text))
    return tuple(stored)


def _background_prompt(
    objective: Objective,
    goal: str,
    rules: tuple[RuleEntry, ...] = (),
    exemplars: tuple[Exemplar, ...] = (),
) -> str:
    """A rule-writing prompt: the plan format as background, for one objective."""
    return build_prompt(
        SECTION_BACKGROUND, BACKGROUND_FORMAT, goal,
        objectives_text(PreferenceVector.single(objective)), [r.text for r in rules], exemplars,
    )


def allocate_with_model(
    scenario: MissionScenario,
    prefs: PreferenceVector,
    provider: CompletionProvider,
    rules: tuple[RuleEntry, ...] = (),
    exemplars: tuple[Exemplar, ...] = (),
    sim_cfg: SimConfig | None = None,
) -> tuple[ItaPlan, bool]:
    """Ask the model for a plan with `rules` and `exemplars` in the prompt,
    each section left out when empty (with neither, the zero-shot
    allocator). Returns (plan, used_fallback); the greedy fallback plans
    under `sim_cfg`.

    An answer that is unusable (unparseable, invalid, or a malformed body) is
    asked for once more. Any other provider error goes straight to the
    fallback: the transport has already spent its own retries on it.
    """
    prompt = build_prompt(
        SECTION_SCENARIO, scenario.render_spf(), GOAL_PERFORM_ITA, objectives_text(prefs),
        [r.text for r in rules], exemplars,
    )
    for retry in (True, False):
        try:
            response = provider.complete(
                CompletionRequest(prompt=prompt, temperature=INFER_TEMPERATURE)
            )
            return parse_ita_plan(response, scenario), False
        except (ParseFailure, PlanInvalid, MalformedResponse) as exc:
            then = "retrying" if retry else "using the greedy plan"
            logger.warning("plan attempt failed (%s); %s", exc, then)
        except LlmError as exc:
            logger.warning("plan request failed (%s); using the greedy plan", exc)
            break
    return heuristic_allocate(scenario, prefs, sim_cfg), True


def generate_experiences(
    cfg: KnowledgeAcquisitionConfig,
    provider: CompletionProvider,
    rules_db: RulesDatabase,
    exp_db: ExperienceDatabase,
    sim_cfg: SimConfig,
    embedder: Embedder = HashedEmbedder(),
) -> tuple[ExperienceRecord, ...]:
    """Stage 2: run k randomized missions per objective, store each
    (scenario, plan, performance) with section embeddings, and periodically
    let the model revise the objective's rules from the observed batch."""
    from .bench import random_scenario  # local import; bench builds on this module

    for objective in cfg.objectives:
        if not rules_db.for_objective(objective):
            raise StageError(f"rules database has no rules for objective {objective.short}")

    refine_every = cfg.refine_every or cfg.missions_per_objective
    stored: list[ExperienceRecord] = []
    for objective in cfg.objectives:
        batch: list[tuple[MissionScenario, ItaPlan, object]] = []
        for index in range(cfg.missions_per_objective):
            seed = derive_seed(cfg.base_seed, objective.short, index)
            ranges = cfg.scenario_ranges
            scenario = random_scenario(
                humans=_pick(ranges.humans, seed, "h"),
                robots=_pick(ranges.robots, seed, "r"),
                tasks=_pick(ranges.tasks, seed, "t"),
                seed=seed,
            )
            plan, fallback = allocate_with_model(
                scenario, PreferenceVector.single(objective), provider,
                rules_db.for_objective(objective), sim_cfg=sim_cfg,
            )
            try:
                record, _ = run_mission(scenario, plan, sim_cfg.with_seed(derive_seed(seed, "sim")))
            except ValueError as exc:
                logger.warning(
                    "skipping mission %d for %s: %s", index, objective.short, exc
                )
                continue
            if not exp_db.contains(objective, scenario, plan):
                stored.append(
                    exp_db.store(
                        objective,
                        scenario,
                        plan,
                        record,
                        embed_scenario_sections(scenario, embedder),
                        fallback=fallback,
                    )
                )
            batch.append((scenario, plan, record))

            if (index + 1) % refine_every == 0 and batch:
                _refine_rules(objective, provider, rules_db, batch)
    return tuple(stored)


def _refine_rules(objective, provider, rules_db, batch) -> None:
    exemplars = tuple(
        Exemplar(scenario.render_spf(), plan.render(), record.serialize())
        for scenario, plan, record in batch
    )
    prompt = _background_prompt(
        objective, GOAL_REFINE_RULES, rules_db.for_objective(objective), exemplars
    )
    try:
        response = provider.complete(
            CompletionRequest(prompt=prompt, temperature=RULE_GEN_TEMPERATURE)
        )
    except LlmError as exc:
        logger.warning("rule refinement skipped for %s: %s", objective.short, exc)
        return
    texts = rule_lines(response)
    if texts:
        rules_db.replace_objective(objective, texts)


def infer(
    scenario: MissionScenario,
    prefs: PreferenceVector,
    rules_db: RulesDatabase,
    exp_db: ExperienceDatabase,
    provider: CompletionProvider,
    retrieval: RetrievalConfig = RetrievalConfig(),
    sim_cfg: SimConfig | None = None,
) -> InferenceResult:
    """Stage 3: retrieval-augmented allocation for an unseen mission. The
    greedy fallback plans under `sim_cfg` (the defaults when None).

    Empty databases degrade gracefully: the corresponding prompt sections are
    omitted with a warning (zero-shot behavior). `CorruptLogError` (a
    `ValueError`) naming the store and the record for a retrieved experience
    whose texts do not decode; `ValueError` for an embedding of zero or
    non-finite norm, of the query or of a rule.
    """
    if not scenario.runnable:
        raise ValueError("scenario is not runnable: no robots")

    query = objectives_text(prefs)
    rules: tuple[RuleEntry, ...] = ()
    if len(rules_db):
        rules = tuple(
            ensemble_retrieve(query, rules_db, k=retrieval.rule_k, embedder=retrieval.embedder)
        )
    else:
        logger.warning("rules database empty; inferring without a Rules section")

    exemplars: tuple[ExperienceRecord, ...] = ()
    if len(exp_db):
        k, m = retrieval.exp_k, min(retrieval.exp_m, retrieval.exp_k)
        exemplars = tuple(
            retrieve_experiences(scenario, prefs, exp_db, k=k, m=m, embedder=retrieval.embedder)
        )
    else:
        logger.warning("experience database empty; inferring without Prior Experience")

    try:
        shown = tuple(map(_exemplar, exemplars))
    except ValueError as exc:  # names the record
        raise CorruptLogError(f"{exp_db.path}: {exc}") from exc
    plan, fallback = allocate_with_model(scenario, prefs, provider, rules, shown, sim_cfg)
    return InferenceResult(
        plan=plan, rules=rules, exemplars=exemplars, used_fallback=fallback, query=query
    )


def _exemplar(record: ExperienceRecord) -> Exemplar:
    """The record's stored texts as a prompt exemplar. Reading `record.plan`
    first parses, validates and round-trip checks both texts (ValueError
    naming the record otherwise), so the scenario text is `serialize()`
    output: its `Arena Side` line, then `render_spf()`."""
    record.plan
    spf = record.scenario_text.partition("\n")[2]
    return Exemplar(scenario_text=spf, plan_text=record.plan_text)


def _pick(bounds: tuple[int, int], seed: int, tag: str) -> int:
    lo, hi = bounds
    if lo > hi:
        raise ValueError(f"invalid range {bounds}")
    span = hi - lo + 1
    return lo + derive_seed(seed, tag) % span
