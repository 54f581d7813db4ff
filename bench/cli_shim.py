"""Traced command-line child: `python -S cli_shim.py SPANS_FILE ARGS...`.

Times `import stablerank.cli` before the tracer itself is imported, so that
the span covers every module the command line pulls in. Then it wraps the
library's public functions, runs `stablerank.cli.run(ARGS)` and writes the
spans to SPANS_FILE before exiting with the command's exit code. An
exception escaping `run` is recorded and re-raised, so the exit code and
traceback match an untraced launch.
"""

import sys
import time

start = time.perf_counter()
import stablerank.cli  # noqa: E402
end = time.perf_counter()

import tracing  # noqa: E402

tracer = tracing.Tracer()
tracer.record("cli.import", start, end)
tracer.install()
try:
    code = stablerank.cli.run(sys.argv[2:])
finally:
    tracer.dump(sys.argv[1])
sys.exit(code)
