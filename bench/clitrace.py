"""Run one CLI command under the tracer: ``clitrace.py OUT SPAWNED_AT ARGV...``.

Behaves like ``python -m fareyslopes.cli ARGV...`` (same stdout, stderr and
exit code, tracebacks included) and also writes to OUT the command's spans
plus two start-up layers: interpreter start (SPAWNED_AT is the parent's
monotonic clock when it launched this process) and the import of the CLI.
"""

import json
import sys
import time

started = time.monotonic()
out_path, spawned_at, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
import fareyslopes.cli  # noqa: E402  (timed: this is the import every CLI call pays)

imported = time.monotonic()
import tracer  # noqa: E402

trace = tracer.Tracer()
trace.install()
try:
    code = fareyslopes.cli.main(argv)
finally:
    trace.uninstall()
    dump = trace.dump()
    dump["interpreter_s"] = started - spawned_at
    dump["import_s"] = imported - started
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(dump, fh)
sys.exit(code)
