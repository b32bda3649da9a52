"""The sbcubature CLI under the benchmark's spans.

    python3 perfbench/cli_traced.py SPANS_OUT <sbcubature arguments...>

Installs the same spans as the in-process workloads, then calls
``sbcubature.cli.main(argv)`` and writes the spans and counters to
SPANS_OUT as JSON.  Needs the library on PYTHONPATH.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402

import sbcubature.cli  # noqa: E402

IMPORT_S = time.perf_counter() - T0

from tracing import Tracer  # noqa: E402


def main():
    tracer = Tracer()
    tracer.install()
    tracer.install_cli()
    tracer.extras["cli.import_s"] = IMPORT_S
    tracer.spans.append(["cli.import", "cli.import", T0, T0 + IMPORT_S, -1, -1, None, True])
    tracer.recording = True
    code = sbcubature.cli.main(sys.argv[2:])
    tracer.recording = False
    sys.stdout.flush()
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(tracer.dump(), fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
