"""Run the isingexact CLI with every layer traced.

    python3 perfbench/tracecli.py <ising arguments>

Behaves as `python -m isingexact.cli`; when the command ends, one line
`PERFBENCH_SPANS <json list of spans>` goes to stderr.  The cli workload
uses it for its traced passes.
"""

import importlib
import json
import sys

from spans import SPAN_MARKER, Tracer


def main() -> int:
    cli = importlib.import_module("isingexact.cli")
    tracer = Tracer()
    tracer.request = " ".join(sys.argv[1:])
    with tracer:
        try:
            return cli.run(sys.argv[1:])
        finally:
            print(SPAN_MARKER + json.dumps(tracer.spans), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
