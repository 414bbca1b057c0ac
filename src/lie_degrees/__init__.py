"""Exact character-degree computations for symmetric groups and finite
classical groups, with certified verification of degree bounds.

Importing the package loads none of its modules: each public name below is
imported from its module on first access (PEP 562), so a program that uses
only the Young-diagram modules never compiles the q-arithmetic or symbol ones.
The family table lives here too, so that the CLI builds its parser from it
without loading a module, and so does _record, the validated namedtuple base
of the qexact and maxdegree records.
"""

import contextlib
import importlib
import sys
from collections import namedtuple

# module -> the public names it defines
_EXPORTS = {
    "partitions": (
        "Dominance", "HookTable", "Node", "Partition", "addable_removable",
        "beta_set", "dominance", "hooks", "odd_hook_sequence",
        "partition_from_beta_set", "partitions_of", "sym_degree", "transpose",
    ),
    "symmetric": (
        "DegreeMultiset", "DownUpMove", "OctupleMove", "alt_degrees",
        "downup_neighborhood", "epsilon_of", "octuple_ratio", "ratio_witness",
        "sym_degrees",
    ),
    "qexact": (
        "RationalInterval", "bracket", "bracket_ratio_bounds", "euler_interval",
        "one_plus_interval", "product_bound_suite",
    ),
    "unipotent": (
        "Symbol", "SymbolStats", "a_value_gl", "canonicalize",
        "degree_gl", "degree_gu", "degree_symbol", "enumerate_symbols",
        "stclass_chain", "steinberg_symbol", "symbol_stats", "verify_steinberg_max",
    ),
    "maxdegree": (
        "CentralizerTypeGL", "CertVerdict", "GroupSpec", "b_gl_exact",
        "bound_bracket", "count_irred", "count_irred_nondual",
        "epsilon_certificate", "merge_ratio_sl_n_2", "order_parts", "seitz_bound",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"

# The family table, the one place that says which families exist.  Each
# simple-group family (A: SL_n, 2A: SU_n, B/C: Spin_{2n+1}/Sp_{2n}, D/2D:
# Spin^{+-}_{2n}) maps to the family of its unipotent labels at the same n:
# partitions for GL and GU, symbols for BC, D and 2D.
_LABEL_FAMILY = {"A": "GL", "2A": "GU", "B": "BC", "C": "BC", "D": "D", "2D": "2D"}
_LABEL_FAMILIES = tuple(dict.fromkeys(_LABEL_FAMILY.values()))
# symbol family -> the smallest defect of its symbols; the others step by 2
# (BC) or by 4 (D, 2D)
_SYMBOL_DEFECT = {"BC": 1, "D": 0, "2D": 2}


@contextlib.contextmanager
def _int_digits(limit: int):
    """Run with sys.set_int_max_str_digits(limit) (0: no limit): the CLI's
    guard on parsed input, and the renderers' lift for computed integers."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _record(typename: str, field_names: str) -> type:
    """A namedtuple base for a record class that validates in its __new__:
    _make (and with it _replace) and unpickling at every protocol call the
    class, so no instance skips the checks."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, fields: cls(*fields))
    base.__reduce__ = lambda self: (type(self), tuple(self))
    return base


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{module}", __name__), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
