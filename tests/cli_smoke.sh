#!/usr/bin/env bash
# Every subcommand once, each as a fresh `python -m gridgram` process, plus
# the reject paths that must exit 1 or 3. Exits non-zero at the first check
# that fails.
#
# Usage: tests/cli_smoke.sh OUTDIR
# OUTDIR receives the generated files. The package is run by the `python`
# on PATH from this checkout's src/, without writing bytecode.
set -eu
mkdir -p "$1"
out=$(cd "$1" && pwd)
cd "$(dirname "$0")/.."
export PYTHONPATH=src PYTHONDONTWRITEBYTECODE=1
grammar=src/gridgram/rulesets/demo_uav.json

# Two processes: this one writes seeds 0 and 1, its one worker seed 2.
GRIDGRAM_THREADS=2 python -m gridgram generate "$grammar" --n-half 2 --count 3 --out-dir "$out"
# One process loads neither dataclasses nor inspect (the records need neither).
python -X importtime -m gridgram generate "$grammar" --n-half 2 --count 1 --out-dir "$out" \
    2> "$out/importtime.txt"
if grep -E '\| +(dataclasses|inspect)$' "$out/importtime.txt"; then exit 1; fi
python -m gridgram replay "$out/log_0.json" "$grammar"
python -m gridgram replay "$out/log_2.json" "$grammar"
test -z "$(find "$out" -name '.*.tmp')"
python -m gridgram validate "$out/design_1.json"
python -m gridgram lint "$grammar"
python -m gridgram assign-dirs "$grammar"
python -m gridgram export "$out/design_0.json" --format dot
python -m gridgram bench "$grammar" --n-half 2 --count 2
python -m gridgram generate "$grammar" --n-half 2 --count 2 --rule-strategy weighted --out-dir "$out/weighted"
# A rule weight past 2**64 exits 3 at parse, not a hang in the weighted draw.
python -c 'import json, sys; o = json.load(open(sys.argv[1])); [r.update(weight=2**64 + 1) for r in o["rules"]]; open(sys.argv[2], "w").write(json.dumps(o))' "$grammar" "$out/heavy.json"
rc=0; timeout 60 python -m gridgram generate "$out/heavy.json" --rule-strategy weighted --out-dir "$out/heavy" || rc=$?
test "$rc" = 3
# The reject paths: a log naming a rule that does not match, and a
# design that is not a JSON object.
python -c 'import json, sys; o = json.load(open(sys.argv[1])); o["steps"][5]["rule"] = "cap_front"; open(sys.argv[2], "w").write(json.dumps(o))' "$out/log_0.json" "$out/bad_log.json"
rc=0; python -m gridgram replay "$out/bad_log.json" "$grammar" 2> "$out/err.txt" || rc=$?
test "$rc" = 1
case "$(cat "$out/err.txt")" in "replay failed: no-match at step 5: "*) ;; *) cat "$out/err.txt"; exit 1 ;; esac
echo '[]' > "$out/bad_design.json"
rc=0; python -m gridgram validate "$out/bad_design.json" || rc=$?
test "$rc" = 3
# A log nested 100,000 deep exits 3 with an error line, not a traceback,
# at the stack depth of a fresh process.
python -c 'import sys; open(sys.argv[1], "w").write("[" * 100000 + "]" * 100000)' "$out/deep_log.json"
rc=0; python -m gridgram replay "$out/deep_log.json" "$grammar" 2> "$out/err.txt" || rc=$?
test "$rc" = 3
if grep -q Traceback "$out/err.txt"; then cat "$out/err.txt"; exit 1; fi
# A header key written again after "steps" is judged as JSON reads it (the
# last value): the next seed's run refutes the recorded steps.
python -c 'import json, sys; t = open(sys.argv[1]).read().rstrip("\n"); g = json.loads(t)["generation_config"]; g["seed"] += 1; open(sys.argv[2], "w").write(t[:-1] + ",\"generation_config\":" + json.dumps(g) + "}")' "$out/log_0.json" "$out/restated_log.json"
rc=0; python -m gridgram replay "$out/restated_log.json" "$grammar" 2> "$out/err.txt" || rc=$?
test "$rc" = 1
case "$(cat "$out/err.txt")" in "replay failed: divergence at step "*) ;; *) cat "$out/err.txt"; exit 1 ;; esac
# A design rendered with other whitespace is read for its content.
python -c 'import json, sys; open(sys.argv[2], "w").write(json.dumps(json.load(open(sys.argv[1])), indent=1))' "$out/design_1.json" "$out/indented_design.json"
python -m gridgram validate "$out/indented_design.json"
