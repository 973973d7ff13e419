"""Desk-scale solver and verification toolkit for degenerate m-Laplace
Dirichlet problems with boundary-singular reaction terms.

The package's public names are its layers' ``__all__``s, re-exported as
they stand.  ``import mlap1d`` loads no layer: a public name, ``__all__``
and a submodule (``mlap1d.barriers``) are each loaded on first use (PEP
562), so a process compiles only the layers it reads.  A name is looked up
in the layers in ``__all__`` order, each imported only when the ones before
it do not export the name.
"""

from importlib import import_module as _import_module, util as _util

__version__ = "0.1.0"

# the layers whose __all__s, in this order, make the package's
_LAYERS = ("core", "solver", "eigen", "barriers", "analyzer")


def _submodule(name):
    return _import_module(f"{__name__}.{name}")


def __getattr__(name):
    if name == "__all__":
        value = [*(n for layer in _LAYERS for n in _submodule(layer).__all__), "__version__"]
    elif name.startswith("__"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    elif _util.find_spec(f"{__name__}.{name}") is not None:
        return _submodule(name)  # the import binds the submodule here
    else:
        for layer in map(_submodule, _LAYERS):
            if name in layer.__all__:
                value = getattr(layer, name)
                break
        else:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    exported = __getattr__("__all__")  # loads the layers, which bind here
    return sorted({*globals(), *exported})
