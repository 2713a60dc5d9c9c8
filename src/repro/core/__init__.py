"""The paper's core: Algorithm SETM, its variants, and rule generation.

The public names below are imported on first attribute access
(PEP 562), so importing one engine module does not load the others —
``setm_sql`` brings in the SQL engine, the nested-loop and paged
engines the simulated disk.
"""

import importlib
import sys
import types

#: Public name -> defining module.
_EXPORTS = {
    "Item": "repro.core.transactions",
    "ItemCatalog": "repro.core.transactions",
    "IterationStats": "repro.core.result",
    "MiningResult": "repro.core.result",
    "NativeBackend": "repro.core.setm_sql",
    "Pattern": "repro.core.result",
    "Rule": "repro.core.rules",
    "SQLBackend": "repro.core.setm_sql",
    "Transaction": "repro.core.transactions",
    "TransactionDatabase": "repro.core.transactions",
    "generate_rules": "repro.core.rules",
    "nested_loop_mine": "repro.core.nested_loop",
    "nested_loop_mine_disk": "repro.core.nested_loop",
    "rules_as_paper_lines": "repro.core.rules",
    "sales_rows_to_transactions": "repro.core.transactions",
    "setm": "repro.core.setm",
    "setm_columnar": "repro.core.setm_columnar",
    "setm_disk": "repro.core.setm_disk",
    "setm_sql": "repro.core.setm_sql",
}

__all__ = sorted(_EXPORTS)


class _Package(types.ModuleType):
    """Keeps each engine function bound over its same-named submodule.

    ``setm``, ``setm_columnar``, ``setm_disk`` and ``setm_sql`` each
    name a submodule and the engine function it defines; the package
    exports the function.  Loading a submodule binds it on its package
    through ``setattr``, so that binding is turned into the function.
    """

    def __setattr__(self, name: str, value) -> None:
        if (
            isinstance(value, types.ModuleType)
            and _EXPORTS.get(name) == value.__name__
        ):
            value = getattr(value, name)
        super().__setattr__(name, value)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(module), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


sys.modules[__name__].__class__ = _Package
