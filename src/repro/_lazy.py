"""Lazy re-exports for package roots (PEP 562)."""

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, str]):
    """``(__getattr__, __dir__)`` for a package root that re-exports lazily.

    ``exports`` maps each re-exported name to the module defining it.  The
    first access imports that module and caches the value on the package,
    so importing one submodule runs the root without loading its siblings.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str):
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
