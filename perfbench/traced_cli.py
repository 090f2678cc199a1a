"""Run one `pnp` command with the pnp_online layers traced.

Usage: python3 perfbench/traced_cli.py SPANS_JSON -- pnp arguments...

Installs the wrappers from tracer.py, runs pnp_online.cli.main on the
remaining arguments, writes the spans and counts to SPANS_JSON, and exits
with the command's exit code. Needs src/ on PYTHONPATH.
"""

import sys

from tracer import Tracer, install


def main(argv):
    if len(argv) < 2 or argv[1] != "--":
        print("usage: traced_cli.py SPANS_JSON -- pnp arguments...",
              file=sys.stderr)
        return 2
    tracer = Tracer()
    install(tracer)
    from pnp_online import cli
    try:
        return cli.main(argv[2:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
