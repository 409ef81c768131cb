"""Norms, norming functionals and constructive vectors in Tsirelson-type
and mixed Tsirelson sequence spaces, with exact rational arithmetic.

The public names load lazily (PEP 562): a submodule is imported the first
time one of its names is looked up, so a command-line process pays only for
the modules its subcommand uses.  ``tsirelson.norm`` is the norm function,
also after the submodule ``tsirelson.norm`` has been imported.
"""

import sys
import types
from importlib import import_module

# submodule -> the public names it defines
_EXPORTS = {
    "families": (
        "An",
        "Compose",
        "Decomposition",
        "Sn",
        "decompose",
        "is_admissible",
        "is_member",
        "max_weight_subset",
        "maximal_member",
        "parse_family",
    ),
    "functionals": (
        "eval_functional",
        "is_comparable",
        "make_comparable",
        "parse_functional",
        "split_xk",
        "validate",
    ),
    "norm": ("NormResult", "admissible_sum", "brute_norm", "norm"),
    "spaces": (
        "ExplicitSeq",
        "Geometric",
        "LogReciprocal",
        "PowerLaw",
        "ScaledPowerLaw",
        "SpaceSpec",
        "check_regularity",
        "derived_params",
        "parse_space_config",
        "preset",
        "regularize",
        "theta",
    ),
    "trees": ("Leaf", "Node", "format_functional"),
    "vectors": ("SparseVector", "parse_vector", "sum_vectors"),
}
_SUBMODULES = ("errors", "families", "functionals", "scalars", "spaces", "vectors")
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted([*_ORIGIN, *_SUBMODULES])


def __getattr__(name):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    module = _ORIGIN.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    def __setattr__(self, name, value):
        # importing the submodule ``norm`` binds it on the package; drop that
        # binding so that ``tsirelson.norm`` stays the function
        if name == "norm" and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
