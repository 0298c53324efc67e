"""`python -m gridgram` with the layer functions traced; for cold-start traced runs.

Usage: traced_main.py SPANS_FILE <gridgram arguments...>

Times the import of ``gridgram.cli`` as a ``cli.import`` span, wraps the
layers (see spans.py), runs ``gridgram.cli.main`` and writes the spans and
counts of this process to SPANS_FILE. Exits with gridgram's exit code.
"""

import json
import sys
from pathlib import Path
from time import perf_counter_ns

from spans import Tracer, install

spans_file, argv = Path(sys.argv[1]), sys.argv[2:]
tracer = Tracer()
start = perf_counter_ns()
import gridgram.cli  # noqa: E402

tracer.spans.append([0, None, "cli.import", None, start, perf_counter_ns(), None])
install(tracer)
rc = gridgram.cli.main(argv)
spans_file.write_text(json.dumps({"spans": tracer.spans, "counts": dict(tracer.counts)}))
raise SystemExit(rc)
