"""Set-up time of one workload, measured in a fresh interpreter.

Usage: setup_probe.py GRAMMAR N_HALF MATCHER     (N_HALF 0: build no Engine)

Times, from the first statement: importing ``gridgram.cli``, parsing and
linting the grammar, the contract compile (``optimal_assignment`` and then
``contract_match_fn``) when MATCHER is ``contract``, and building the Engine.
Then runs the reference loop of hostspeed.py for a tenth of the total (at
least five times). Prints one JSON object with each phase, the total and
the mean loop time, in seconds.
"""

from time import perf_counter

start = perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402

import gridgram.cli  # noqa: E402,F401

phases = {"import": perf_counter() - start}


def timed(name, fn, *args, **kwargs):
    t0 = perf_counter()
    value = fn(*args, **kwargs)
    phases[name] = perf_counter() - t0
    return value


from gridgram.constraint_matcher import contract_match_fn, optimal_assignment  # noqa: E402
from gridgram.core import GridConfig  # noqa: E402
from gridgram.generator import Engine  # noqa: E402
from gridgram.grammar import lint_grammar, parse_grammar  # noqa: E402

grammar_path, n_half, matcher = sys.argv[1], int(sys.argv[2]), sys.argv[3]
with open(grammar_path, encoding="utf-8") as f:
    grammar = timed("parse_grammar", parse_grammar, f.read())
timed("lint_grammar", lint_grammar, grammar)
match_fn = None
if matcher == "contract":
    assignment, _ = timed("optimal_assignment", optimal_assignment, grammar)
    match_fn = timed("contract_match_fn", contract_match_fn, grammar, assignment)
if n_half:
    timed("engine_init", Engine, grammar, GridConfig(n_half), match_fn=match_fn)
phases["total"] = perf_counter() - start

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from hostspeed import loop_ns  # noqa: E402

loops = []
while len(loops) < 5 or sum(loops) < phases["total"] * 1e8:
    loops.append(loop_ns())
phases["loop"] = statistics.fmean(loops) / 1e9
print(json.dumps(phases))
