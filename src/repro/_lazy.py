"""PEP 562 lazy exports for the package ``__init__`` modules.

A package built with :func:`lazy_exports` imports nothing when it is
imported: each exported name is resolved from its defining module on
first access (attribute access, ``from package import name``), then
cached in the package namespace.  Any other public name is tried as a
submodule, so ``repro.engine`` stays reachable as an attribute of
``repro`` before anything has imported it.  ``dir()`` lists the exported
names whether or not they have been resolved yet.
"""

import sys


def import_module(name):
    """Import and return module ``name``.

    Goes through the ``import`` statement's machinery rather than
    :func:`importlib.import_module`, so ``python -X importtime`` reports
    the lazily loaded modules too.
    """
    __import__(name)
    return sys.modules[name]


def lazy_exports(package, exports, submodules=()):
    """Return ``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each defining module to the names the package
    re-exports from it; ``submodules`` names the submodules ``__all__``
    lists as well.
    """
    where = {name: module for module, names in exports.items() for name in names}
    public = list(where) + list(submodules)
    namespace = sys.modules[package].__dict__

    def __getattr__(name):
        module = where.get(name)
        if module is not None:
            value = getattr(import_module(module), name)
        elif name.startswith("_"):
            raise AttributeError(
                "module %r has no attribute %r" % (package, name)
            )
        else:
            qualified = "%s.%s" % (package, name)
            try:
                value = import_module(qualified)
            except ModuleNotFoundError as error:
                if error.name != qualified:
                    raise
                raise AttributeError(
                    "module %r has no attribute %r" % (package, name)
                ) from None
        namespace[name] = value
        return value

    def __dir__():
        return sorted(set(namespace) | set(public))

    return public, __getattr__, __dir__
