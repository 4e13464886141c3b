"""One CLI call with layer tracing on, for the traced rounds of cli-cold.

    BENCH_SPANS=<file> python3 bench/child.py <finitetop arguments>

Behaves like `python -m finitetop.cli`, and appends one JSON line with the
spans, counts and the import time of `finitetop.cli` to <file>.
"""

import json
import os
import sys
import time

if __name__ == "__main__":
    t0 = time.perf_counter()
    import finitetop.cli as cli

    import_s = time.perf_counter() - t0
    import layers

    tracer = layers.Tracer()
    tracer.install()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        tracer.uninstall()
        with open(os.environ["BENCH_SPANS"], "a", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(tracer.dump(), import_s=import_s)) + "\n")
    sys.exit(code)
