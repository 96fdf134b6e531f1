"""Run one ``spheredpp`` command with the per-layer tracer installed.

Usage: python3 traced_cli.py STATS_JSON <spheredpp arguments...>

The command's stdout, stderr and exit code are those of the CLI; the
tracer's aggregates go to STATS_JSON.  ``cli.<command>_s`` is the time
inside the CLI's ``run`` (after the import, which is ``cli.import_s``).
"""

import json
import sys
import time

from layers import Tracer, import_package


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    package, import_s = import_package(tracer)
    tracer.timed = True
    t0 = time.perf_counter()
    try:
        return package.cli.run(argv)
    finally:
        tracer.record_command(argv[0], time.perf_counter() - t0)
        tracer.record_process(import_s)
        with open(stats_path, "w") as fh:
            json.dump(tracer.export(), fh)


if __name__ == "__main__":
    sys.exit(main())
