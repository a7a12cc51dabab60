"""Exact workbench for additive listings of Boolean functions.

Polynomials whose monomials enumerate the YES instances of a decision
problem, executed by iterated partial derivatives, plus Chow-style
decompositions of such listings into products of linear forms.  The
submodules and the names below load on first use (PEP 562).
"""

from importlib import import_module

_HOMES = {
    "ChowDecomposition": "chow", "CycloRational": "cyclotomic", "root_of_unity": "cyclotomic",
    "DifferentialComputer": "engine", "RunResult": "engine", "DiffcompError": "errors",
    "Graph": "graphs", "FunctionTable": "listings", "TruthTable": "listings",
    "Monomial": "multipoly", "MultiPoly": "multipoly", "VarTable": "multipoly",
    "matrix_index": "multipoly",
}
_SUBMODULES = ("chow", "cyclotomic", "engine", "graphs", "listings", "multipoly")

__all__ = [*_SUBMODULES, *_HOMES]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return import_module(f"{__name__}.{name}")
    if name in _HOMES:
        return getattr(import_module(f"{__name__}.{_HOMES[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
