"""Exact workbench for additive listings of Boolean functions.

Polynomials whose monomials enumerate the YES instances of a decision
problem, executed by iterated partial derivatives, plus Chow-style
decompositions of such listings into products of linear forms.
"""

from __future__ import annotations

from . import chow, cyclotomic, engine, graphs, listings, multipoly
from .chow import ChowDecomposition
from .cyclotomic import CycloRational, root_of_unity
from .engine import DifferentialComputer, RunResult
from .errors import DiffcompError
from .graphs import Graph
from .listings import FunctionTable, TruthTable
from .multipoly import Monomial, MultiPoly, VarTable, matrix_index

__all__ = [
    "chow", "cyclotomic", "engine", "graphs", "listings", "multipoly",
    "ChowDecomposition", "CycloRational", "root_of_unity", "DifferentialComputer", "RunResult",
    "DiffcompError", "Graph", "FunctionTable", "TruthTable", "Monomial", "MultiPoly",
    "VarTable", "matrix_index",
]
