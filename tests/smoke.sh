#!/usr/bin/env bash
# Hermetic CLI smoke run through the `rebel` console script: `bash
# tests/smoke.sh`. With the package installed (`pip install -e .`) it runs the
# console script; from a checkout without it, it puts the checkout's `src` on
# PYTHONPATH and runs `python -m rebel.cli`. It stops at the first case that
# goes wrong, with a non-zero exit.
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
# unreachable `--embedder http`, and `rebel infer` on a store holding a
# section embedding of all zeros, each with exactly one error line; the error
# lines of the sim config's integer past the float range and of a sim config
# key 10,000 characters long must stay short, since an echoed value is cut;
# so must (exit 2, exactly one error line under 1 KB) a spec preferences key,
# a scenario tier word under `rebel simulate` and `rebel infer`, and a sim
# config tier-map key padded with spaces, each 10,000 characters long, an
# `Arena Side:` value of 3,000 digits and an x under `rebel infer`, a
# `rebel simulate` plan of 200 lines for tasks the scenario lacks, and a
# whole plan plus a task id 5,000 characters long, and
# an experience-store line whose performance, id or scenario, or a rules-log
# line whose id, is 10,000 characters long, under `rebel infer`; so must
# (naming its line) an experience-store line whose performance carries junk
# around a valid triple, under `rebel infer`; and
# `rebel infer` on the robot whose shared speed underflows to 0.0 must exit 2
# without a traceback, with the stub and with an unreachable endpoint; and
# after `rebel infer` has snapshotted the experience store, a flipped
# snapshot byte, a snapshot of the previous version (which must then be
# rewritten at the current one), and a record appended by `rebel gen-exp`,
# must each leave `rebel infer` printing what it prints with the snapshot
# deleted, with nothing on stderr, and the snapshot rewritten after the
# appended record must be byte for byte the one a full parse writes once it
# is deleted; `rebel infer` with the stub on a scenario
# whose arena is wider than the default 2000 must exit 0 with an assignment
# for every task and no traceback; and a transcript whose last exchange was torn mid-append
# must hold only whole JSON lines after the next `rebel gen-rules --transcript`,
# with no traceback
set -eo pipefail

if ! command -v rebel > /dev/null; then
  PYTHONPATH="$(cd "$(dirname "$0")/../src" && pwd)${PYTHONPATH:+:$PYTHONPATH}"
  export PYTHONPATH
  rebel() { python -m rebel.cli "$@"; }
fi

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
cp "$d/exp.jsonl" "$d/snap.jsonl"
snap_infer() {  # snap_infer NAME: rebel infer on snap.jsonl, into NAME.txt and NAME.err
  rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/snap.jsonl" --scenario "$d/scenario.txt" --prefs TP=0.5,MT=0.25,HW=0.25 > "$d/$1.txt" 2> "$d/$1.err"
  if [ -s "$d/$1.err" ]; then cat "$d/$1.err"; echo "$1 must print nothing on stderr"; exit 1; fi
}
snap_infer snap-cold
test -f "$d/snap.jsonl.snapshot"
python -c 'import sys; data = bytearray(open(sys.argv[1], "rb").read()); data[len(data) // 2] ^= 0xFF; open(sys.argv[1], "wb").write(data)' "$d/snap.jsonl.snapshot"
snap_infer snap-flipped
cmp "$d/snap-cold.txt" "$d/snap-flipped.txt"
python -c 'import sys; data = open(sys.argv[1], "rb").read(); open(sys.argv[1], "wb").write(b"rebel experience snapshot 1\n" + data.partition(b"\n")[2])' "$d/snap.jsonl.snapshot"
snap_infer snap-version-1  # a snapshot of the version before is parsed over and replaced
cmp "$d/snap-cold.txt" "$d/snap-version-1.txt"
test "$(head -n 1 "$d/snap.jsonl.snapshot")" = "rebel experience snapshot 2"
lines=$(wc -l < "$d/snap.jsonl")
rebel gen-exp --rules-db "$d/rules.jsonl" --exp-db "$d/snap.jsonl" --missions 1 --seed 9 > /dev/null
if [ "$(wc -l < "$d/snap.jsonl")" -le "$lines" ]; then echo "gen-exp --seed 9 must append a record"; exit 1; fi
snap_infer snap-appended
cp "$d/snap.jsonl.snapshot" "$d/snap-appended.snapshot"  # the rewrite after the appended record
rm "$d/snap.jsonl.snapshot"
snap_infer snap-deleted
cmp "$d/snap-appended.txt" "$d/snap-deleted.txt"
cmp "$d/snap-appended.snapshot" "$d/snap.jsonl.snapshot"  # a rewrite writes what a full parse writes
printf 'Arena Side: 5000\nHuman Attributes: {H_0: [Hi, Med]}\nRobot Details: {UAV_0: [12, Hi], UGV_0: [5, Lo]}\nTask Info: {T_0: [(3000, 100), Lo], T_1: [(4800, 4900), Hi]}\n' > "$d/wide.txt"
status=0
rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/exp.jsonl" --scenario "$d/wide.txt" --prefs MT > "$d/wide-infer.txt" 2> "$d/wide-infer.err" || status=$?
cat "$d/wide-infer.txt" "$d/wide-infer.err"
if [ "$status" -ne 0 ] || grep -q Traceback "$d/wide-infer.err"; then echo "a wide arena must be planned, not refused"; exit 1; fi
for task in T_0 T_1; do grep -q "^$task: (" "$d/wide-infer.txt" || { echo "a wide arena's $task must be assigned"; exit 1; }; done
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
python -c 'import json, sys
lines = open(sys.argv[1]).read().splitlines()
record = json.loads(lines[1])
lines[1] = json.dumps({**record, "emb_humans": [0.0] * len(record["emb_humans"])})
print("\n".join(lines))' "$d/exp-256.jsonl" > "$d/zero-section.jsonl"
must_fail zero-section-infer 2 rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/zero-section.jsonl" --scenario "$d/scenario.txt" --prefs MT
grep -qF "zero-section.jsonl: experience record 1: zero vectors carry no direction" "$d/zero-section-infer.err"
for name in embed-dim-gen-exp unreachable-embedder-infer unreachable-embedder-gen-exp zero-section-infer; do
  if [ "$(grep -c "^error: " "$d/$name.err")" -ne 1 ]; then echo "$name must print exactly one error line"; exit 1; fi
done
grep -qF "error: http://127.0.0.1:9/v1: " "$d/unreachable-embedder-infer.err"
cmp "$d/exp-256.before" "$d/exp-256.jsonl"
if [ "$(wc -c < "$d/huge-int-sim-config.err")" -gt 300 ]; then echo "an echoed value must be cut short"; exit 1; fi
python -c 'import json; print(json.dumps({"x" * 10000: 1}))' > "$d/long-key-sim.json"
must_fail long-key-sim-config 2 rebel simulate --scenario "$d/scenario.txt" --plan "$d/plan.txt" --sim-config "$d/long-key-sim.json"
if [ "$(wc -c < "$d/long-key-sim-config.err")" -ge 1024 ]; then echo "an echoed unknown key must be cut short"; exit 1; fi
python -c 'import json; print(json.dumps({"preferences": [{"x" * 10000: 1}]}))' > "$d/long-objective.json"
python -c 'print("Human Attributes: {H_0: [Med, " + "x" * 10000 + "]}\nRobot Details: {UAV_0: [5, Hi]}\nTask Info: {}")' > "$d/long-tier.txt"
python -c 'import json; print(json.dumps({"skill_multiplier": {"Lo" + " " * 10000: "bad", "Med": 1, "Hi": 1}}))' > "$d/padded-tier-key-sim.json"
must_fail long-objective-bench 2 rebel bench --spec "$d/long-objective.json" --out-dir "$d/bench-long-objective"
must_fail long-tier-simulate 2 rebel simulate --scenario "$d/long-tier.txt" --plan "$d/plan.txt"
must_fail long-tier-infer 2 rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/exp.jsonl" --scenario "$d/long-tier.txt" --prefs MT
must_fail padded-tier-key-sim-config 2 rebel simulate --scenario "$d/scenario.txt" --plan "$d/plan.txt" --sim-config "$d/padded-tier-key-sim.json"
python -c 'print("Arena Side: " + "1" * 3000 + "x\nHuman Attributes: {}\nRobot Details: {}\nTask Info: {}")' > "$d/long-arena.txt"
python -c 'print("\n".join(f"T_{i}: (UAV_0)" for i in range(100, 300)))' > "$d/many-unknown-tasks.txt"
{ cat "$d/plan.txt"; python -c 'print("T_" + "x" * 4998 + ": (UAV_0)")'; } > "$d/long-task-id.txt"
must_fail long-arena-infer 2 rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/exp.jsonl" --scenario "$d/long-arena.txt" --prefs MT
must_fail many-unknown-tasks-simulate 2 rebel simulate --scenario "$d/scenario.txt" --plan "$d/many-unknown-tasks.txt"
must_fail long-task-id-simulate 2 rebel simulate --scenario "$d/scenario.txt" --plan "$d/long-task-id.txt"
for name in long-objective-bench long-tier-simulate long-tier-infer padded-tier-key-sim-config long-arena-infer many-unknown-tasks-simulate long-task-id-simulate; do
  if [ "$(grep -c "^error: " "$d/$name.err")" -ne 1 ]; then echo "$name must print exactly one error line"; exit 1; fi
  if [ "$(wc -c < "$d/$name.err")" -ge 1024 ]; then echo "$name must echo its name cut short"; exit 1; fi
done
python -c 'import json, sys
line = json.loads(open(sys.argv[1]).readline())
for field in ("performance", "id", "scenario"):
    value = ["x" * 10000] if field == "scenario" else "x" * 10000
    with open(f"{sys.argv[2]}/long-{field}.jsonl", "w") as handle:
        print(json.dumps({**line, field: value}), file=handle)
with open(f"{sys.argv[2]}/long-rule-id.jsonl", "w") as handle:
    print(json.dumps({"kind": "rule", "id": "x" * 10000, "objective": "MT", "text": "t"}), file=handle)' "$d/exp-256.jsonl" "$d"
for name in performance id scenario; do
  must_fail "long-$name-store" 2 rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/long-$name.jsonl" --scenario "$d/scenario.txt" --prefs MT
done
must_fail long-rule-id-store 2 rebel infer --rules-db "$d/long-rule-id.jsonl" --exp-db "$d/exp-256.jsonl" --scenario "$d/scenario.txt" --prefs MT
for name in long-performance-store long-id-store long-scenario-store long-rule-id-store; do
  if [ "$(grep -c "^error: " "$d/$name.err")" -ne 1 ]; then echo "$name must print exactly one error line"; exit 1; fi
  if [ "$(wc -c < "$d/$name.err")" -ge 1024 ]; then echo "$name must echo its field cut short"; exit 1; fi
done
python -c 'import json, sys
line = json.loads(open(sys.argv[1]).readline())
print(json.dumps({**line, "performance": "junk " + line["performance"] + " trailing junk"}))' "$d/exp-256.jsonl" > "$d/junk-performance.jsonl"
must_fail junk-performance-store 2 rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/junk-performance.jsonl" --scenario "$d/scenario.txt" --prefs MT
if [ "$(grep -c "^error: " "$d/junk-performance-store.err")" -ne 1 ]; then echo "junk-performance-store must print exactly one error line"; exit 1; fi
if [ "$(wc -c < "$d/junk-performance-store.err")" -ge 1024 ]; then echo "junk-performance-store must stay under 1 KB"; exit 1; fi
grep -qF "junk-performance.jsonl, line 1: " "$d/junk-performance-store.err"
must_fail underflow-speed-infer 2 rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/exp.jsonl" --scenario "$d/slow-robot.txt" --prefs TP=0.5,MT=0.5 --sim-config "$d/tiny-speed-sim.json"
must_fail underflow-speed-infer-http 2 rebel infer --rules-db "$d/rules.jsonl" --exp-db "$d/exp.jsonl" --scenario "$d/slow-robot.txt" --prefs TP=0.5,MT=0.5 --sim-config "$d/tiny-speed-sim.json" --provider http --endpoint http://127.0.0.1:9/v1 --retries 0
rebel gen-rules --rules-db "$d/t-rules.jsonl" --transcript "$d/t.jsonl" > /dev/null
head -c 40 "$d/t.jsonl" > "$d/torn-exchange"
cat "$d/torn-exchange" >> "$d/t.jsonl"  # an exchange torn 40 bytes in
rebel gen-rules --rules-db "$d/t-rules.jsonl" --transcript "$d/t.jsonl" > /dev/null 2> "$d/t.err"
cat "$d/t.err"
if grep -q Traceback "$d/t.err"; then echo "a torn transcript line must not end in a traceback"; exit 1; fi
if ! python -c 'import json, sys
lines = open(sys.argv[1], encoding="utf-8").read().splitlines()
assert len(lines) == 6 and all(json.loads(line) for line in lines)' "$d/t.jsonl"; then
  echo "every transcript line must parse after a torn one"; exit 1
fi
