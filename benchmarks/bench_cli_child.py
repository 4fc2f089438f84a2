"""Traced stand-in for ``python -m thetasum``.

Usage: python bench_cli_child.py SPANS_JSON CLI_ARGS...

Times the package import, wraps the traced functions, runs the CLI with
CLI_ARGS (stdout, stderr and exit code unchanged) and writes the spans to
SPANS_JSON.
"""

import sys
from time import perf_counter

t0 = perf_counter()
import thetasum.cli as cli  # noqa: E402  (the import is what is timed)
t1 = perf_counter()

from thetasum import hermite, qseries, summation, theta, transform  # noqa: E402

from bench_trace import Tracer  # noqa: E402


def main() -> int:
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.record("cli.import", t0, t1)
    tracer.install({"qseries": qseries, "theta": theta, "transform": transform,
                    "summation": summation, "hermite": hermite, "cli": cli})
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code if isinstance(exc.code, int) else 2
    finally:
        sys.stdout.flush()
        tracer.dump(path)


if __name__ == "__main__":
    sys.exit(main())
