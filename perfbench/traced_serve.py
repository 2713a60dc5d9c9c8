"""``repro serve`` with the layer hooks of ``tracer.py`` installed.

Usage::

    python3 perfbench/traced_serve.py SPANS.json serve [repro serve args...]

Runs the program's own CLI entry point in this process after wrapping
its layer calls; when the server has been drained and exits, the spans
are written to ``SPANS.json``.  The untraced runs start ``python3 -m
repro serve`` directly.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import use_program  # noqa: E402
from tracer import Tracer, install  # noqa: E402

use_program()


class _TimedJson:
    """Stands in for the ``json`` module of the HTTP transport so the
    response serialization is a span of its own."""

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(json, name)

    def dumps(self, obj, *args, **kwargs):
        token = self._tracer.begin("protocol.json")
        text = json.dumps(obj, *args, **kwargs)
        self._tracer.end(token, {"bytes": len(text)})
        return text


def main() -> int:
    spans_path = Path(sys.argv[1])
    tracer = install(Tracer())
    try:
        import repro.serve.server as transport

        transport.json = _TimedJson(tracer)
        tracer.installed.add("protocol.json")
    except ImportError:
        tracer.missing.append("repro.serve.server")
    from repro.cli import main as cli_main

    try:
        return cli_main(sys.argv[2:])
    finally:
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main())
