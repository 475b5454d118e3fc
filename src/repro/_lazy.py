"""Lazy package surfaces (PEP 562): a public name imports its module on first use.

A package that only re-exports declares which submodule defines each public
name and installs the pair this module returns::

    _EXPORTS = {".tracer": ("Tracer", "use_tracer"), ".metrics": ("MetricsRegistry",)}
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)

``import package`` then imports none of those submodules; ``package.Tracer``
(or ``from package import Tracer``) imports ``.tracer`` once and caches the
object in the package namespace, so later lookups never reach ``__getattr__``.
A name mapped to the submodule of the same name (``".registry":
("registry",)``) resolves to that submodule.
"""

import importlib
import sys

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """The ``(__getattr__, __dir__)`` pair serving ``exports`` for ``package``."""
    where = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str):
        try:
            module_name = where[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        module = importlib.import_module(module_name, package)
        value = module if module_name == "." + name else getattr(module, name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(where))

    return __getattr__, __dir__
