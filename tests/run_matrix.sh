#!/usr/bin/env bash
# The CI version matrix, run on the interpreters this machine has.
#
# Usage: tests/run_matrix.sh
# For each pyenv-installed Python 3.10-3.13, runs:
#   - the byte checks (tests/byte_checks.py);
#   - every subcommand once (tests/cli_smoke.sh);
#   - tier-1, where pytest and hypothesis import.
# Nothing is installed or downloaded. An interpreter without the test
# packages borrows the pure-Python ones of the first interpreter that has
# them, linked into a temporary directory on PYTHONPATH. Where pytest still
# does not import (pytest 9 on 3.10 also needs exceptiongroup), tier-1 is
# reported as skipped. Exits 1 if any check that ran failed, or if pyenv
# lists no Python 3.10-3.13, so an exit of 0 means some interpreter ran.
set -u
cd "$(dirname "$0")/.."
root=$(pyenv root) || { echo "pyenv root failed" >&2; exit 1; }
versions=$(pyenv versions --bare | grep -E '^3\.1[0-3]\.[0-9]+$')
if [ -z "$versions" ]; then
    echo "pyenv lists no Python 3.10-3.13" >&2
    exit 1
fi
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

imports_tests() {  # PYTHON [PYTHONPATH]: do pytest and hypothesis import?
    PYTHONPATH=${2:-} "$1" -c 'import pytest, hypothesis' 2> /dev/null
}

# The borrowed test packages, from the first interpreter that has them.
shim=$tmp/shim
mkdir "$shim"
for v in $versions; do
    py=$root/versions/$v/bin/python
    if imports_tests "$py"; then
        site=$("$py" -c 'import os, pytest; print(os.path.dirname(os.path.dirname(pytest.__file__)))')
        for name in pytest _pytest py.py pluggy iniconfig packaging pygments hypothesis \
                _hypothesis_pytestplugin.py _hypothesis_globals.py _hypothesis_ftz_detector.py \
                attr attrs sortedcontainers; do
            if [ -e "$site/$name" ]; then ln -s "$site/$name" "$shim/$name"; fi
        done
        for dist in pytest pluggy iniconfig packaging pygments hypothesis attrs sortedcontainers; do
            for info in "$site/$dist"-*.dist-info; do
                if [ -e "$info" ]; then ln -s "$info" "$shim/"; fi
            done
        done
        break
    fi
done

failed=0
summary=""
run() {  # LABEL COMMAND...: run one check, record ok or FAIL
    local label=$1
    shift
    if "$@" > "$tmp/log" 2>&1; then
        summary+=" $label=ok"
    else
        summary+=" $label=FAIL"
        failed=1
        tail -20 "$tmp/log"
    fi
}

for v in $versions; do
    py=$root/versions/$v/bin/python
    summary+=$'\n'"$v:"
    echo "== Python $v"
    run bytes env PYTHONPATH=src PYTHONDONTWRITEBYTECODE=1 "$py" tests/byte_checks.py
    run cli env PATH="$root/versions/$v/bin:$PATH" bash tests/cli_smoke.sh "$tmp/cli-$v"
    if imports_tests "$py"; then
        extra=""
    elif imports_tests "$py" "$shim"; then
        extra=$shim
    else
        summary+=" tier1=skipped(pytest-does-not-import)"
        continue
    fi
    run tier1 env PYTHONPATH="src${extra:+:$extra}" PYTHONDONTWRITEBYTECODE=1 \
        "$py" -m pytest -q --continue-on-collection-errors -p no:cacheprovider
    grep -E '^[0-9]+ (passed|failed)' "$tmp/log" | tail -1
done
echo "== Summary${summary}"
exit "$failed"
