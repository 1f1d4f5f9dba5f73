"""Run one `minmaxap` command the way its console script does.

    python3 bench/cli_launch.py solve --config experiment.json

With MINMAXAP_BENCH_SPANS set to a file name, the layer wrappers are
installed first and the spans of the command are written to that file.
"""

import os
import sys
import time

start = time.perf_counter()
import minmaxap.cli as cli  # noqa: E402

import_s = time.perf_counter() - start

if __name__ == "__main__":
    argv = sys.argv[1:]
    spans_path = os.environ.get("MINMAXAP_BENCH_SPANS")
    if not spans_path:
        sys.exit(cli.main(argv))
    from spans import Tracer, install

    tracer = Tracer()
    install(tracer)
    try:
        code = tracer.wrap(f"cli.{argv[0]}", cli.main)(argv)
    finally:
        tracer.save(spans_path, extra={"import_s": import_s})
    sys.exit(code)
