"""Run ``repro.cli`` with spans around its calls into each layer.

Usage: ``python traced_cli.py SPANS.json <repro.cli arguments...>``

The wrapper records, from outside the program, how long the import of
the CLI, the batch trace load and the engine pass took, then writes the
spans (name, start, end, parent; seconds since this script started) to
SPANS.json and exits with the CLI's status.  Nothing inside ``repro`` is
changed: the wrappers replace the names ``repro.cli`` looked up at import.
"""

import json
import sys
import time

STARTED = time.perf_counter()
SPANS = []
_STACK = []


class span:
    def __init__(self, name):
        self.name = name

    def __enter__(self):
        self.start = time.perf_counter() - STARTED
        self.parent = _STACK[-1] if _STACK else None
        _STACK.append(self.name)

    def __exit__(self, *exc):
        _STACK.pop()
        SPANS.append({
            "name": self.name, "start": self.start,
            "end": time.perf_counter() - STARTED, "parent": self.parent,
        })


def traced(name, function):
    def wrapper(*args, **kwargs):
        with span(name):
            return function(*args, **kwargs)
    return wrapper


def main(argv):
    spans_path, cli_args = argv[0], argv[1:]
    with span("cli.import"):
        import repro.cli as cli
    cli.load_trace = traced("trace.load", cli.load_trace)
    cli.run_engine = traced("engine.run", cli.run_engine)
    try:
        with span("cli.main"):
            status = cli.main(cli_args)
    finally:
        with open(spans_path, "w") as handle:
            json.dump(SPANS, handle)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
