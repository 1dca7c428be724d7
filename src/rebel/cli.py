"""Command line interface: knowledge acquisition, inference, simulation, and
benchmark subcommands. Hermetic mode (the default) uses the deterministic
stub provider and hashed embedder so everything runs offline.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import replace
from pathlib import Path

from .bench import BenchDeps, CompositionError, ExperimentSpec, require_stores, run_experiment
from .core import MissionScenario, Objective, PreferenceVector
from .llm import (
    HttpCompletionProvider,
    HttpEmbedder,
    LlmError,
    ProviderConfig,
    StubProvider,
    TranscriptRecorder,
)
from .pipeline import (
    KnowledgeAcquisitionConfig,
    RetrievalConfig,
    ScenarioRanges,
    StageError,
    generate_experiences,
    generate_rules,
    infer,
)
from .prompt import ParseFailure, PlanInvalid, parse_ita_plan
from .retrieval import CorruptLogError, ExperienceDatabase, HashedEmbedder, RulesDatabase
from .sim import SimConfig, run_mission

logger = logging.getLogger(__name__)


class InputError(Exception):
    """An input file or store a subcommand was given cannot be used; `main`
    prints the message as one line and exits 2."""


def _read(path: str, load):
    """`load(path)`, with any failure to read, parse or validate the file
    raised as an InputError naming it."""
    try:
        return load(path)
    except (OSError, ValueError, ParseFailure, PlanInvalid) as exc:
        reason = exc.strerror if isinstance(exc, OSError) and exc.strerror else exc
        raise InputError(f"{path}: {reason}") from exc


def _read_scenario(path: str) -> MissionScenario:
    return MissionScenario.parse(Path(path).read_text(encoding="utf-8"))


def parse_preferences(text: str) -> PreferenceVector:
    """`MT` or `TP=0.5,MT=0.25,HW=0.25`."""
    pairs = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" in part:
            name, weight = part.split("=", 1)
            pairs.append((Objective.parse(name), float(weight)))
        else:
            pairs.append((Objective.parse(part), 1.0))
    return PreferenceVector(tuple(pairs))


def parse_objectives(text: str) -> tuple[Objective, ...]:
    """`TP,MT,HW`; an empty name is a ValueError."""
    return tuple(Objective.parse(part) for part in text.split(","))


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def positive_float(text: str) -> float:
    """A finite float > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text}")
    return value


def _add_provider_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--provider", choices=("stub", "http"), default="stub",
                        help="stub is deterministic and fully offline")
    parser.add_argument("--endpoint", default="https://api.openai.com/v1")
    parser.add_argument("--model", default="gpt-4o-mini")
    parser.add_argument("--api-key-env", default="OPENAI_API_KEY",
                        help="environment variable holding the API key")
    parser.add_argument("--timeout", type=positive_float, default=60.0)
    parser.add_argument("--retries", type=nonnegative_int, default=2)
    parser.add_argument("--transcript", default=None,
                        help="record every prompt/response to this JSONL file")


def _add_embedder_args(parser: argparse.ArgumentParser) -> None:
    """Flags read by _build_embedder; it also reads the provider's endpoint flags."""
    parser.add_argument("--embedder", choices=("hashed", "http"), default="hashed")
    parser.add_argument("--embed-dim", type=positive_int, default=256)


def _provider_config(args: argparse.Namespace) -> ProviderConfig:
    return ProviderConfig(
        endpoint=args.endpoint,
        model=args.model,
        api_key_env=args.api_key_env,
        timeout_s=args.timeout,
        retries=args.retries,
    )


def _build_provider(args: argparse.Namespace, sim_cfg: SimConfig | None = None):
    """The provider `args` name; the stub plans under `sim_cfg`."""
    provider = (
        StubProvider(sim_cfg) if args.provider == "stub"
        else HttpCompletionProvider(_provider_config(args))
    )
    if args.transcript:
        provider = TranscriptRecorder(provider, args.transcript)
    return provider


def _build_embedder(args: argparse.Namespace):
    if args.embedder == "hashed":
        return HashedEmbedder(dim=args.embed_dim)
    return HttpEmbedder(_provider_config(args))


def _check_embedding_dim(path: str, exp_db: ExperienceDatabase, embedder) -> None:
    """InputError unless `embedder` embeds at `exp_db.dim` (an empty store
    fits any), checked before any record is scored against or stored."""
    if exp_db.dim is not None:
        query = len(embedder.embed("dimension probe"))
        if query != exp_db.dim:
            raise InputError(f"{path}: embedded at dim {exp_db.dim}, query at dim {query}")


def _sim_config(args: argparse.Namespace) -> SimConfig:
    cfg = _read(args.sim_config, SimConfig.load) if args.sim_config else SimConfig()
    if getattr(args, "seed", None) is not None:
        cfg = cfg.with_seed(args.seed)
    return cfg


def cmd_gen_rules(args: argparse.Namespace) -> int:
    db = RulesDatabase(args.rules_db)
    stored = generate_rules(args.objectives, _build_provider(args), db)
    print(f"stored {len(stored)} new rules ({len(db)} live) in {args.rules_db}")
    for entry in stored:
        print(f"  [{entry.id}] {entry.objective.short}: {entry.text}")
    return 0


def cmd_gen_exp(args: argparse.Namespace) -> int:
    rules_db, exp_db = RulesDatabase(args.rules_db), ExperienceDatabase(args.exp_db)
    embedder = _build_embedder(args)
    _check_embedding_dim(args.exp_db, exp_db, embedder)
    cfg = KnowledgeAcquisitionConfig(
        objectives=args.objectives,
        missions_per_objective=args.missions,
        scenario_ranges=ScenarioRanges(
            humans=(args.min_humans, args.max_humans),
            robots=(args.min_robots, args.max_robots),
            tasks=(args.min_tasks, args.max_tasks),
        ),
        refine_every=args.refine_every,
        base_seed=args.seed or 0,
    )
    sim_cfg = _sim_config(args)
    stored = generate_experiences(
        cfg, _build_provider(args, sim_cfg), rules_db, exp_db, sim_cfg, embedder
    )
    fallbacks = sum(1 for r in stored if r.fallback)
    print(
        f"stored {len(stored)} experience records ({fallbacks} fallbacks) in {args.exp_db}; "
        f"rules database now holds {len(rules_db)} rules"
    )
    return 0


def cmd_infer(args: argparse.Namespace) -> int:
    scenario = _read(args.scenario, _read_scenario)
    if not scenario.runnable:
        raise InputError(f"{args.scenario}: scenario is not runnable: no robots")
    retrieval = RetrievalConfig(
        rule_k=args.rule_k, exp_k=args.exp_k, exp_m=args.exp_m, embedder=_build_embedder(args)
    )
    rules_db, exp_db = RulesDatabase(args.rules_db), ExperienceDatabase(args.exp_db)
    _check_embedding_dim(args.exp_db, exp_db, retrieval.embedder)
    sim_cfg = _sim_config(args)
    result = infer(
        scenario, args.prefs, rules_db, exp_db, _build_provider(args, sim_cfg), retrieval, sim_cfg
    )
    plan_text = result.plan.render()
    if args.out:
        Path(args.out).write_text(plan_text + "\n", encoding="utf-8")
    print(plan_text)
    print(f"# fallback: {result.used_fallback}")
    print(f"# retrieved rules: {list(result.rule_ids)}")
    for rule in result.rules:
        print(f"#   [{rule.id}] {rule.objective.short}: {rule.text}")
    print(f"# retrieved experiences: {list(result.exemplar_ids)}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    scenario = _read(args.scenario, _read_scenario)
    plan = _read(args.plan, lambda plan: parse_ita_plan(Path(plan).read_text(encoding="utf-8"), scenario))
    cfg = _sim_config(args)
    try:
        record, trace = run_mission(scenario, plan, cfg)
    except ValueError as exc:  # e.g. a robot speed that scales to 0.0
        raise InputError(f"{args.scenario}: cannot simulate the plan: {exc}") from exc
    print(record.serialize())
    if args.trace:
        Path(args.trace).write_text(trace.render_events() + "\n", encoding="utf-8")
        print(f"# trace written to {args.trace}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    spec = _read(args.spec, ExperimentSpec.from_json)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    sim_cfg = _sim_config(args)
    deps = BenchDeps(
        provider=_build_provider(args, sim_cfg),
        rules_db=RulesDatabase(args.rules_db),
        exp_db=ExperienceDatabase(args.exp_db),
        sim_cfg=sim_cfg,
        retrieval=RetrievalConfig(embedder=_build_embedder(args)),
        workers=args.workers,
    )
    try:
        require_stores(spec, deps)
    except ValueError as exc:
        raise InputError(exc) from exc
    if "rebel" in spec.methods:
        _check_embedding_dim(args.exp_db, deps.exp_db, deps.retrieval.embedder)
    try:
        report = run_experiment(spec, deps)
    except CompositionError as exc:
        raise InputError(f"{args.spec}: {exc}") from exc
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report.to_csv(out_dir / "report.csv")
    (out_dir / "summary.txt").write_text(report.summary_text(), encoding="utf-8")
    print(report.summary_text())
    print(f"report written to {out_dir / 'report.csv'}")
    return 0 if report.all_checks_pass() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rebel",
        description="Rule-based, experience-enhanced initial task allocation",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-rules", help="stage 1: generate and store allocation rules")
    p.add_argument("--rules-db", required=True)
    p.add_argument("--objectives", type=parse_objectives, default="TP,MT,HW")
    _add_provider_args(p)
    p.set_defaults(func=cmd_gen_rules)

    p = sub.add_parser("gen-exp", help="stage 2: simulate missions and store experiences")
    p.add_argument("--rules-db", required=True)
    p.add_argument("--exp-db", required=True)
    p.add_argument("--objectives", type=parse_objectives, default="TP,MT,HW")
    p.add_argument("--missions", type=positive_int, default=10)
    p.add_argument("--refine-every", type=positive_int, default=None)
    p.add_argument("--min-humans", type=nonnegative_int, default=2)
    p.add_argument("--max-humans", type=nonnegative_int, default=5)
    p.add_argument("--min-robots", type=positive_int, default=3)
    p.add_argument("--max-robots", type=positive_int, default=7)
    p.add_argument("--min-tasks", type=nonnegative_int, default=5)
    p.add_argument("--max-tasks", type=nonnegative_int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--sim-config", default=None)
    _add_provider_args(p)
    _add_embedder_args(p)
    p.set_defaults(func=cmd_gen_exp)

    p = sub.add_parser("infer", help="stage 3: allocate an unseen mission")
    p.add_argument("--rules-db", required=True)
    p.add_argument("--exp-db", required=True)
    p.add_argument("--scenario", required=True)
    p.add_argument("--prefs", type=parse_preferences, required=True,
                   help="MT or TP=0.5,MT=0.25,HW=0.25")
    p.add_argument("--rule-k", type=positive_int, default=5)
    p.add_argument("--exp-k", type=positive_int, default=3)
    p.add_argument("--exp-m", type=nonnegative_int, default=2)
    p.add_argument("--out", default=None)
    p.add_argument("--sim-config", default=None)
    _add_provider_args(p)
    _add_embedder_args(p)
    p.set_defaults(func=cmd_infer)

    p = sub.add_parser("simulate", help="run one mission for a scenario and plan")
    p.add_argument("--scenario", required=True)
    p.add_argument("--plan", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sim-config", default=None)
    p.add_argument("--trace", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("bench", help="run an experiment spec and emit reports")
    p.add_argument("--spec", required=True)
    p.add_argument("--rules-db", default=None)
    p.add_argument("--exp-db", default=None)
    p.add_argument("--out-dir", default="bench_out")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--sim-config", default=None)
    p.add_argument("--workers", type=positive_int, default=1)
    _add_provider_args(p)
    _add_embedder_args(p)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for name in ("humans", "robots", "tasks"):
        if getattr(args, f"min_{name}", 0) > getattr(args, f"max_{name}", 0):
            parser.error(f"--min-{name} must be <= --max-{name}")
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.func(args)
    except (CorruptLogError, InputError) as exc:  # a bad store line or input file
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except StageError as exc:  # what the stage stored before it aborted stays stored
        print(f"error: {exc} ({len(exc.stored)} records stored before the abort)", file=sys.stderr)
        return 2
    except LlmError as exc:  # an embedder the command cannot do without failed
        print(f"error: {args.endpoint}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
