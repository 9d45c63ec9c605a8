"""Run `phl.cli.main` under the tracer, in a fresh process.

Usage: python bench/launcher.py STATS_FILE CLI_ARGS...

Times `import phl`, installs the tracer, runs the command and writes
the per-layer stats of this process to STATS_FILE as JSON.  The exit
code and standard output are those of the command.
"""

import json
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def main() -> int:
    stats_file, argv = sys.argv[1], sys.argv[2:]
    t0 = perf_counter()
    import phl  # noqa: F401

    import_s = perf_counter() - t0
    import phl.cli

    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.op = 0
    rc = phl.cli.main(argv)
    sys.stdout.flush()
    stats = tracer.layer_stats()
    Path(stats_file).write_text(json.dumps({"import_s": import_s, "stats": stats}))
    return rc


if __name__ == "__main__":
    sys.exit(main())
