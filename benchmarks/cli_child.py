"""Run one ``mpembasim`` subcommand in a fresh interpreter with spans on.

Usage: ``python3 cli_child.py SUMMARY.json ARG...`` with ``src`` on
``PYTHONPATH``.  It times the package import, installs the tracer, calls
``mpembasim.cli.main(ARG...)``, writes the span summary and counters to
``SUMMARY.json`` and exits with ``main``'s return code.  Each process is one
operation for the tracer's repeat counter, since nothing is shared between
processes.
"""

import json
import sys
from time import perf_counter

if __name__ == "__main__":
    started = perf_counter()
    import mpembasim.cli

    import_s = perf_counter() - started

    import tracer

    spans = tracer.Tracer()
    spans.install()
    spans.begin_operation()
    called = perf_counter()
    code = mpembasim.cli.main(sys.argv[2:])
    main_s = perf_counter() - called
    spans.uninstall()
    with open(sys.argv[1], "w", encoding="utf-8") as handle:
        json.dump(
            {
                "import_s": import_s,
                "main_s": main_s,
                "functions": spans.summary(),
                "counters": spans.counters(),
            },
            handle,
        )
    sys.exit(code)
