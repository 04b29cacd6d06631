"""Traced stand-in for `python -m sl2weyl.cli ARGS`.

Imports sl2weyl.cli, installs the span wrappers, runs `main(ARGS)` and
appends the span totals to stderr after the marker line prefix, so stdout
is exactly the CLI's.
"""

import json
import sys
from time import perf_counter

t0 = perf_counter()
import sl2weyl.cli  # noqa: E402 - the import is what is being timed

import_s = perf_counter() - t0

from spans import Tracer  # noqa: E402

tracer = Tracer()
tracer.install()
code = sl2weyl.cli.main(sys.argv[1:])
tracer.uninstall()
sys.stdout.flush()
sys.stderr.write("PERFBENCH_SPANS " + json.dumps({"import_s": import_s, **tracer.totals()}))
sys.stderr.flush()
sys.exit(code)
