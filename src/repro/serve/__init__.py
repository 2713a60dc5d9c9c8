"""Mining as a service: a long-lived process in front of the miners.

The paper's thesis is that association-rule mining belongs *inside* the
database system rather than in one-shot batch programs; this package
finishes the thought operationally — a resident service that owns the
shared dictionary-encoded :class:`~repro.core.transactions.TransactionDatabase`,
the per-config :class:`~repro.miner.Miner` session caches, and the
``setm_parallel`` thread pools it starts once, and answers small targeted questions
(``mine`` / ``patterns`` / ``support_of`` / ``rules_about``) cheaply
enough to serve interactively.

Layering (each module usable on its own):

* :mod:`repro.serve.protocol` — the JSON request/response vocabulary and
  the mapping from the :class:`~repro.errors.ReproError` hierarchy to
  structured error payloads;
* :mod:`repro.serve.scheduler` — a bounded request queue with admission
  control, per-request deadlines, and requeue-or-fail semantics over
  crashed workers;
* :mod:`repro.serve.service` — the transport-agnostic core: datasets,
  miners, stats, graceful drain;
* :mod:`repro.serve.server` — the stdlib-HTTP transport
  (``repro serve`` runs this);
* :mod:`repro.serve.client` — a stdlib client that raises the same
  typed errors the server answered with.
"""

import importlib

#: Public name -> defining module.  Imported on first attribute access
#: (PEP 562), so importing one submodule — ``repro.serve.protocol`` for
#: the query executor, say — loads neither the HTTP client nor the
#: server.
_EXPORTS = {
    "MiningServer": "repro.serve.server",
    "MiningService": "repro.serve.service",
    "RequestScheduler": "repro.serve.scheduler",
    "ServeClient": "repro.serve.client",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
