"""Run the degmatch CLI with layer spans and write the spans as JSON.

Usage: python3 benchmark/traced_cli.py SPANS_JSON CLI_ARG...

The CLI's output and exit code are those of ``degmatch.cli.main``; the
spans file is written when the run ends, whatever its outcome.
"""

import json
import sys
import time

import checkout


def main() -> int:
    started = time.perf_counter()
    checkout.use_source()
    import degmatch.cli as cli
    from spans import Tracer

    spans_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    with tracer.span("cli.import") as record:
        record["start"] = started
    tracer.install(cli)
    try:
        return cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main())
