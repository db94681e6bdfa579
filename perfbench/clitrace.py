"""Run one trottersim CLI command with the layer tracer installed.

    python3 clitrace.py STATS.json COMMAND [CLI ARGS...]

Times the cold import of trottersim.cli, wraps the package's public
functions (see tracer.py), runs trottersim.cli.main on the remaining
arguments, writes the counts and self times to STATS.json and exits with
the CLI's exit code. Expects trottersim on PYTHONPATH.
"""

import json
import sys
import time

from tracer import Tracer


def main(argv):
    stats_path, cli_args = argv[0], argv[1:]
    t0 = time.perf_counter()
    import trottersim.cli

    import_ms = 1e3 * (time.perf_counter() - t0)
    tracer = Tracer()
    tracer.install()
    code = trottersim.cli.main(cli_args)
    with open(stats_path, "w") as fh:
        json.dump({**tracer.snapshot(), "import_ms": import_ms}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
