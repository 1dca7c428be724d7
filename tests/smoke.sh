#!/usr/bin/env bash
# Hermetic CLI smoke run through the `rebel` console script. Run it with the
# package installed (`pip install -e .`): `bash tests/smoke.sh`. It stops at
# the first case that goes wrong, with a non-zero exit.
#
# CI runs it before the dev extra is installed, so the declared runtime
# dependencies must be enough; stub provider and hashed embedder; the MOO
# spec's two methods plan alike, so every norm column ties and the bench must
# still exit 0; simulating one plan twice under one seed must give identical
# traces; an unreachable HTTP endpoint must end in the greedy fallback, not an
# error; a torn final line in the experience store must be skipped without
# changing the plan, and a whole line that is not a record, or a record with a
# NaN embedding element, must fail without a traceback, naming its line
# number, and a rules log holding a rule with a float id must make `rebel
# infer` exit 2 the same way; an SOO spec with the default single-objective
# preferences runs brute force, and two worker threads must give the report of
# one (summary.txt, and report.csv without its runtime_s column); so must a
# MOO spec whose cells share missions and a situational awareness spec that
# adds humans and robots, which must also pass its checks; a spec with a
# misspelled key must fail, and specs with no brute-force samples, a `change`
# that is not an object, a string count, a `remove_ids` that is not a list of
# strings, a change that removes every robot, an id missing from one trial's
# team, a change in a MOO spec, a null preferences weight, a rebel run without
# stores, and a brute-force spec past the plan cap, must fail without a
# traceback; so must `rebel infer --prefs XX`, `rebel infer --exp-m -1`,
# `rebel gen-exp --missions 0`, `rebel gen-exp --min-humans -2`, `rebel bench
# --workers 0`, a `--sim-config` with an unknown key, a scenario file with an
# unreadable entry and a `rebel simulate` plan naming an unknown agent; a
# `--sim-config` with a zero shared speed multiplier must exit 2 without a
# traceback from `rebel simulate` and from an SOO `rebel bench` that runs
# brute force, and so must `rebel simulate` when a robot speed times its
# multiplier underflows to 0.0; so must (`must_fail`, with its exit code) a
# store whose plans do not decode, a spec and a sim config nested too deeply
# for the JSON decoder, a sim config holding an integer past the float range,
# `rebel gen-rules` against an unreachable endpoint, `rebel gen-exp` on an
# empty rules store, `rebel infer --embed-dim 64` on a store embedded at the
# default 256, `rebel gen-exp --embed-dim 64` on it, which must leave the
# store's bytes unchanged, and `rebel infer` and `rebel gen-exp` with an
# unreachable `--embedder http`; the error line of the sim config's integer
# past the float range must stay short, since an echoed value is cut
set -eo pipefail

d=$(mktemp -d)
trap 'rm -rf "$d"' EXIT
must_fail() {  # must_fail NAME CODE COMMAND...: COMMAND must exit CODE, without a traceback
  name=$1 want=$2; shift 2
  status=0; "$@" 2> "$d/$name.err" || status=$?
  cat "$d/$name.err"
  if [ "$status" -ne "$want" ]; then echo "$name must exit $want, not $status"; exit 1; fi
  if grep -q Traceback "$d/$name.err"; then echo "$name must fail without a traceback"; exit 1; fi
}
drop_runtime='import csv, sys; rows = list(csv.reader(open(sys.argv[1]))); i = rows[0].index("runtime_s"); csv.writer(sys.stdout).writerows(r[:i] + r[i + 1:] for r in rows)'
rebel gen-rules --rules-db "$d/rules.jsonl"
rebel gen-exp --rules-db "$d/rules.jsonl" --exp-db "$d/exp.jsonl" --missions 3
cp "$d/exp.jsonl" "$d/exp-256.jsonl"  # a copy before any case edits the store
python -c 'from rebel.bench import random_scenario; print(random_scenario(2, 3, 5, seed=1).serialize())' > "$d/scenario.txt"
rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/exp.jsonl" --scenario "$d/scenario.txt" --prefs TP=0.5,MT=0.25,HW=0.25 > "$d/infer1.txt"
cat "$d/infer1.txt"
cp "$d/exp.jsonl" "$d/bad-shape.jsonl"
echo '{"kind": "experience"}' >> "$d/bad-shape.jsonl"
if rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/bad-shape.jsonl" --scenario "$d/scenario.txt" --prefs MT 2> "$d/bad-shape.err"; then echo "a wrong-shape store line must fail"; exit 1; fi
cat "$d/bad-shape.err"
if grep -q Traceback "$d/bad-shape.err"; then echo "a wrong-shape store line must fail without a traceback"; exit 1; fi
grep -qF "bad-shape.jsonl, line $(wc -l < "$d/bad-shape.jsonl"):" "$d/bad-shape.err"
cp "$d/exp.jsonl" "$d/nan-embedding.jsonl"
python -c 'import json, sys; line = json.loads(open(sys.argv[1]).readlines()[-1]); line["id"] += 1; line["emb_humans"][0] = float("nan"); print(json.dumps(line))' "$d/exp.jsonl" >> "$d/nan-embedding.jsonl"
if rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/nan-embedding.jsonl" --scenario "$d/scenario.txt" --prefs MT 2> "$d/nan-embedding.err"; then echo "a NaN embedding element must fail"; exit 1; fi
cat "$d/nan-embedding.err"
if grep -q Traceback "$d/nan-embedding.err"; then echo "a NaN embedding element must fail without a traceback"; exit 1; fi
grep -qF "nan-embedding.jsonl, line $(wc -l < "$d/nan-embedding.jsonl"):" "$d/nan-embedding.err"
cp "$d/rules.jsonl" "$d/float-id.jsonl"
echo '{"kind": "rule", "id": 1.5, "objective": "MT", "text": "one and a half"}' >> "$d/float-id.jsonl"
status=0; rebel infer --rules-db "$d/float-id.jsonl" --exp-db "$d/exp.jsonl" --scenario "$d/scenario.txt" --prefs MT 2> "$d/float-id.err" || status=$?
cat "$d/float-id.err"
if [ "$status" -ne 2 ]; then echo "a float rule id must make rebel infer exit 2, not $status"; exit 1; fi
if grep -q Traceback "$d/float-id.err"; then echo "a float rule id must fail without a traceback"; exit 1; fi
grep -qF "float-id.jsonl, line $(wc -l < "$d/float-id.jsonl"):" "$d/float-id.err"
python -c 'import json, sys; [print(json.dumps({**json.loads(line), "plan": "T_0: (NOPE_9)"})) for line in open(sys.argv[1])]' "$d/exp.jsonl" > "$d/corrupt-plan.jsonl"
must_fail corrupt-plan-infer 2 rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/corrupt-plan.jsonl" --scenario "$d/scenario.txt" --prefs MT
grep -qF "corrupt-plan.jsonl: experience record" "$d/corrupt-plan-infer.err"
printf '{"emb_humans": [0.25, 0.' >> "$d/exp.jsonl"
rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/exp.jsonl" --scenario "$d/scenario.txt" --prefs TP=0.5,MT=0.25,HW=0.25 > "$d/infer2.txt"
cmp "$d/infer1.txt" "$d/infer2.txt"
out=$(rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/exp.jsonl" --scenario "$d/scenario.txt" --prefs TP=0.5,MT=0.25,HW=0.25 --provider http --endpoint http://127.0.0.1:9/v1 --retries 0 --timeout 2)
echo "$out"
grep -qxF '# fallback: True' <<< "$out"
python -c 'import sys; from rebel.core import MissionScenario, PreferenceVector; from rebel.llm import heuristic_allocate; print(heuristic_allocate(MissionScenario.parse(open(sys.argv[1]).read()), PreferenceVector.of(TP=0.5, MT=0.25, HW=0.25)).render())' "$d/scenario.txt" > "$d/plan.txt"
rebel simulate --scenario "$d/scenario.txt" --plan "$d/plan.txt" --seed 3 --trace "$d/trace1.txt"
rebel simulate --scenario "$d/scenario.txt" --plan "$d/plan.txt" --seed 3 --trace "$d/trace2.txt"
cmp "$d/trace1.txt" "$d/trace2.txt"
echo '{"mode": "MOO", "humans": 2, "robots": 3, "pois": 5, "trials": 3, "methods": ["zero_shot", "heuristic"], "preferences": [{"TP": 0.5, "MT": 0.25, "HW": 0.25}]}' > "$d/spec.json"
rebel bench --spec "$d/spec.json" --out-dir "$d/bench"
echo '{"mode": "SOO", "humans": 2, "robots": 2, "pois": 3, "trials": 2, "methods": ["brute_force", "heuristic"]}' > "$d/soo.json"
rebel bench --spec "$d/soo.json" --out-dir "$d/bench-soo"
rebel bench --spec "$d/soo.json" --out-dir "$d/bench-soo-2" --workers 2
cmp "$d/bench-soo/summary.txt" "$d/bench-soo-2/summary.txt"
cmp <(python -c "$drop_runtime" "$d/bench-soo/report.csv") <(python -c "$drop_runtime" "$d/bench-soo-2/report.csv")
echo '{"mode": "MOO", "humans": 3, "robots": 4, "pois": 8, "trials": 4, "methods": ["heuristic", "random"]}' > "$d/moo-shared.json"
rebel bench --spec "$d/moo-shared.json" --out-dir "$d/bench-moo-shared"
rebel bench --spec "$d/moo-shared.json" --out-dir "$d/bench-moo-shared-2" --workers 2
cmp "$d/bench-moo-shared/summary.txt" "$d/bench-moo-shared-2/summary.txt"
cmp <(python -c "$drop_runtime" "$d/bench-moo-shared/report.csv") <(python -c "$drop_runtime" "$d/bench-moo-shared-2/report.csv")
echo '{"mode": "SituationalAwareness", "humans": 3, "robots": 3, "pois": 5, "trials": 2, "methods": ["rebel", "zero_shot"], "change": {"remove_robots": 1, "add_humans": 2, "add_robots": 2}}' > "$d/sa.json"
rebel bench --spec "$d/sa.json" --rules-db "$d/rules.jsonl" --exp-db "$d/exp.jsonl" --out-dir "$d/bench-sa"
rebel bench --spec "$d/sa.json" --rules-db "$d/rules.jsonl" --exp-db "$d/exp.jsonl" --out-dir "$d/bench-sa-2" --workers 2
cmp "$d/bench-sa/summary.txt" "$d/bench-sa-2/summary.txt"
cmp <(python -c "$drop_runtime" "$d/bench-sa/report.csv") <(python -c "$drop_runtime" "$d/bench-sa-2/report.csv")
echo '{"mode": "SOO", "humans": 2, "robots": 2, "pois": 3, "methods": ["heuristic"], "trails": 2}' > "$d/typo.json"
if rebel bench --spec "$d/typo.json" --out-dir "$d/bench-typo"; then echo "a misspelled spec key must fail"; exit 1; fi
echo '{"mode": "SOO", "humans": 2, "robots": 2, "pois": 3, "methods": ["brute_force"], "brute_force_samples": 0}' > "$d/no-samples.json"
echo '{"mode": "SituationalAwareness", "change": 5}' > "$d/bad-change.json"
echo '{"trials": "3"}' > "$d/string-count.json"
echo '{"humans": 2, "trials": 1}' > "$d/no-stores.json"
echo '{"mode": "SituationalAwareness", "change": {"remove_ids": "H_0"}}' > "$d/string-ids.json"
echo '{"mode": "SituationalAwareness", "robots": 1}' > "$d/no-robots-left.json"
echo '{"mode": "SituationalAwareness", "change": {"remove_ids": [5]}}' > "$d/number-ids.json"
echo '{"mode": "SituationalAwareness", "humans": 1, "robots": 2, "pois": 2, "trials": 3, "seed": 1, "methods": ["zero_shot"], "change": {"remove_ids": ["UAV_0"]}}' > "$d/missing-id.json"
echo '{"mode": "MOO", "change": {"remove_robots": 1}}' > "$d/moo-change.json"
echo '{"preferences": [{"TP": null}]}' > "$d/null-weight.json"
echo '{"mode": "SOO", "humans": 5, "robots": 7, "pois": 30, "trials": 1, "methods": ["brute_force"]}' > "$d/past-cap.json"
for bad in no-samples bad-change string-count no-stores string-ids no-robots-left number-ids missing-id moo-change null-weight past-cap; do
  if rebel bench --spec "$d/$bad.json" --out-dir "$d/bench-$bad" 2> "$d/$bad.err"; then echo "the $bad spec must fail"; exit 1; fi
  cat "$d/$bad.err"
  if grep -q Traceback "$d/$bad.err"; then echo "the $bad spec must fail without a traceback"; exit 1; fi
done
if rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/exp.jsonl" --scenario "$d/scenario.txt" --prefs XX 2> "$d/bad-prefs.err"; then echo "--prefs XX must fail"; exit 1; fi
if rebel gen-exp --rules-db "$d/rules.jsonl" --exp-db "$d/exp.jsonl" --missions 0 2> "$d/no-missions.err"; then echo "--missions 0 must fail"; exit 1; fi
if rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/exp.jsonl" --scenario "$d/scenario.txt" --prefs MT --exp-m -1 2> "$d/negative-exp-m.err"; then echo "--exp-m -1 must fail"; exit 1; fi
if rebel gen-exp --rules-db "$d/rules.jsonl" --exp-db "$d/exp.jsonl" --min-humans -2 2> "$d/negative-humans.err"; then echo "--min-humans -2 must fail"; exit 1; fi
if rebel bench --spec "$d/soo.json" --out-dir "$d/bench-no-workers" --workers 0 2> "$d/no-workers.err"; then echo "--workers 0 must fail"; exit 1; fi
echo '{"fatigue_flor": 0.5}' > "$d/typo-sim.json"
if rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/exp.jsonl" --scenario "$d/scenario.txt" --prefs MT --sim-config "$d/typo-sim.json" 2> "$d/sim-config-key.err"; then echo "an unknown sim config key must fail"; exit 1; fi
printf 'Human Attributes: {H_0: [Med]}\nRobot Details: {UAV_0: [5, Hi]}\nTask Info: {}\n' > "$d/bad-entry.txt"
if rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/exp.jsonl" --scenario "$d/bad-entry.txt" --prefs MT 2> "$d/scenario-entry.err"; then echo "an unreadable scenario entry must fail"; exit 1; fi
echo 'T_0: (UAV_99)' > "$d/unknown-agent.txt"
if rebel simulate --scenario "$d/scenario.txt" --plan "$d/unknown-agent.txt" 2> "$d/plan-agent.err"; then echo "a plan naming an unknown agent must fail"; exit 1; fi
echo '{"shared_speed_multiplier": {"Lo": 0, "Med": 0, "Hi": 0}}' > "$d/zero-speed-sim.json"
status=0; rebel simulate --scenario "$d/scenario.txt" --plan "$d/plan.txt" --sim-config "$d/zero-speed-sim.json" 2> "$d/zero-speed-simulate.err" || status=$?
if [ "$status" -ne 2 ]; then echo "a zero speed multiplier must make rebel simulate exit 2, not $status"; exit 1; fi
status=0; rebel bench --spec "$d/soo.json" --out-dir "$d/bench-zero-speed" --sim-config "$d/zero-speed-sim.json" 2> "$d/zero-speed-bench.err" || status=$?
if [ "$status" -ne 2 ]; then echo "a zero speed multiplier must make rebel bench exit 2, not $status"; exit 1; fi
printf 'Human Attributes: {H_0: [Med, Med]}\nRobot Details: {UAV_0: [1e-300, Med]}\nTask Info: {T_0: [(10, 20), Lo]}\n' > "$d/slow-robot.txt"
echo 'T_0: (H_0, UAV_0)' > "$d/slow-plan.txt"
echo '{"shared_speed_multiplier": {"Lo": 1e-300, "Med": 1e-300, "Hi": 1e-300}}' > "$d/tiny-speed-sim.json"
status=0; rebel simulate --scenario "$d/slow-robot.txt" --plan "$d/slow-plan.txt" --sim-config "$d/tiny-speed-sim.json" 2> "$d/underflow-speed-simulate.err" || status=$?
if [ "$status" -ne 2 ]; then echo "a shared speed that underflows to 0.0 must make rebel simulate exit 2, not $status"; exit 1; fi
for bad in bad-prefs no-missions negative-exp-m negative-humans no-workers sim-config-key scenario-entry plan-agent zero-speed-simulate zero-speed-bench underflow-speed-simulate; do
  cat "$d/$bad.err"
  if grep -q Traceback "$d/$bad.err"; then echo "the $bad input must fail without a traceback"; exit 1; fi
done
python -c 'print("[" * 100000)' > "$d/nested.json"
python -c 'print("{\"points_per_correct\": 1" + "0" * 400 + "}")' > "$d/huge-int-sim.json"
must_fail nested-spec 2 rebel bench --spec "$d/nested.json" --out-dir "$d/bench-nested"
must_fail nested-sim-config 2 rebel simulate --scenario "$d/scenario.txt" --plan "$d/plan.txt" --sim-config "$d/nested.json"
must_fail huge-int-sim-config 2 rebel simulate --scenario "$d/scenario.txt" --plan "$d/plan.txt" --sim-config "$d/huge-int-sim.json"
must_fail unreachable-gen-rules 2 rebel gen-rules --rules-db "$d/unreachable-rules.jsonl" --provider http --endpoint http://127.0.0.1:9/v1 --retries 0
must_fail empty-rules-gen-exp 2 rebel gen-exp --rules-db "$d/no-rules.jsonl" --exp-db "$d/no-rules-exp.jsonl"
must_fail embed-dim-infer 2 rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/exp.jsonl" --scenario "$d/scenario.txt" --prefs MT --embed-dim 64
grep -qF "exp.jsonl: embedded at dim 256, query at dim 64" "$d/embed-dim-infer.err"
grep -qF "more than the 100000 plan cap" "$d/past-cap.err"
cp "$d/exp-256.jsonl" "$d/exp-256.before"
must_fail embed-dim-gen-exp 2 rebel gen-exp --rules-db "$d/rules.jsonl" --exp-db "$d/exp-256.jsonl" --missions 1 --embed-dim 64 --seed 5
grep -qxF "error: $d/exp-256.jsonl: embedded at dim 256, query at dim 64" "$d/embed-dim-gen-exp.err"
must_fail unreachable-embedder-infer 2 rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/exp-256.jsonl" --scenario "$d/scenario.txt" --prefs MT --embedder http --endpoint http://127.0.0.1:9/v1 --retries 0
must_fail unreachable-embedder-gen-exp 2 rebel gen-exp --rules-db "$d/rules.jsonl" --exp-db "$d/exp-256.jsonl" --missions 1 --embedder http --endpoint http://127.0.0.1:9/v1 --retries 0
for name in embed-dim-gen-exp unreachable-embedder-infer unreachable-embedder-gen-exp; do
  if [ "$(grep -c "^error: " "$d/$name.err")" -ne 1 ]; then echo "$name must print exactly one error line"; exit 1; fi
done
grep -qF "error: http://127.0.0.1:9/v1: " "$d/unreachable-embedder-infer.err"
cmp "$d/exp-256.before" "$d/exp-256.jsonl"
if [ "$(wc -c < "$d/huge-int-sim-config.err")" -gt 300 ]; then echo "an echoed value must be cut short"; exit 1; fi
