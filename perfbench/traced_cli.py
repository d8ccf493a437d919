"""Run one rbhopf command in-process under the tracer.

    python3 perfbench/traced_cli.py STATS_JSON SPANS_DIR ARGV...

`PYTHONPATH` must point at the checkout's `src/`.  The time to import
`rbhopf.cli` in this fresh interpreter is recorded as `cli.import_s`; the
tracer's accumulators go to STATS_JSON and the spans to SPANS_DIR.
"""

import json
import sys
from time import perf_counter

from tracer import Tracer


def main() -> int:
    stats, spans, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    t0 = perf_counter()
    import rbhopf.cli  # noqa: F401
    import_s = perf_counter() - t0
    tracer = Tracer()
    mods = tracer.install()
    tracer.count["cli_processes"] = 1
    tracer.time["import"] = import_s
    try:
        return mods["cli"].main(argv)
    finally:
        sys.stdout.flush()
        with open(stats, "w", encoding="utf-8") as fh:
            json.dump(tracer.raw(), fh)
        tracer.write_spans(spans)


if __name__ == "__main__":
    sys.exit(main())
