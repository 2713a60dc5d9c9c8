"""What importing the query front door and the ingest layer loads.

``repro.core`` and ``repro.serve`` import their engines and their HTTP
client and server on first attribute access, so a process that only
runs MINE statements over files starts without the SQL engine, the
simulated disk, ``multiprocessing`` or the HTTP stack.  Checked in a
fresh interpreter: module sets, not timings.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: Modules the query and ingest path must not load.
NOT_LOADED = (
    "multiprocessing",
    "repro.sql",
    "repro.relational",
    "repro.storage",
    "http.client",
    "http.server",
    "ssl",
)

_PROBE = """
import json, sys
import repro.query, repro.data.ingest
loaded = sorted(name for name in {names!r} if name in sys.modules)
import repro.core
from repro.core import nested_loop_mine, setm, setm_columnar, setm_sql
from repro.serve import ServeClient
print(json.dumps({{
    "loaded": loaded,
    "names": [f.__name__ for f in (nested_loop_mine, setm, setm_columnar,
                                   setm_sql, ServeClient)],
    "dir": dir(repro.core),
    "all": repro.core.__all__,
}}))
"""


def _probe() -> dict:
    env = {**os.environ, "PYTHONPATH": SRC}
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(names=NOT_LOADED)],
        check=True,
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    ).stdout
    return json.loads(out)


def test_query_and_ingest_load_no_engine_or_http_stack():
    assert _probe()["loaded"] == []


def test_every_public_name_stays_importable():
    probe = _probe()
    assert probe["names"] == [
        "nested_loop_mine", "setm", "setm_columnar", "setm_sql", "ServeClient"
    ]
    assert set(probe["all"]) <= set(probe["dir"])
    assert {"setm_sql", "nested_loop_mine", "TransactionDatabase"} <= set(
        probe["all"]
    )


def test_engine_functions_shadow_their_submodules():
    """``repro.core.setm_columnar`` is the engine function, as it was when
    the package imported its engines eagerly — also once the submodule
    of the same name has been loaded."""
    import importlib

    import repro.core

    importlib.import_module("repro.core.setm_sql")
    importlib.import_module("repro.core.setm_disk")
    for name in ("setm", "setm_columnar", "setm_disk", "setm_sql"):
        value = getattr(repro.core, name)
        assert callable(value) and value.__name__ == name
        assert value.__module__ == f"repro.core.{name}"
