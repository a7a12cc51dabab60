"""Directed graphs with loops, edge monomials, and the set transforms T and T_f.

Both transforms turn arbitrary graph sets into functional-graph sets without
lowering the Chow rank of the membership listing.  T is T_f with an empty
seed: a graph on n vertices becomes a function on N = s + n^2 points, the
first s carrying the seed (none for T, f(0) and f(1) for T_f), and point
s + n*i + j recording, by mapping to 1 or 0, whether edge (i, j) is present.
The original listing is recovered from the transformed one by fixing all the
"edge absent" variables to 1 and renaming the "edge present" ones — so any
Chow decomposition of the transformed listing restricts to one of the
original, which is the whole point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from . import textfile
from .cyclotomic import ONE
from .errors import DimensionError, FormatError, number, quoted
from .listings import FunctionTable, _matrix_listing
from .multipoly import MultiPoly, matrix_index


@dataclass(frozen=True)
class Graph:
    """Directed graph as a 0/1 adjacency matrix; adj[i][j] = 1 means edge i -> j."""

    n: int
    adj: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n < 0:
            raise DimensionError("vertex count must be non-negative")
        adj = tuple(tuple(int(x) for x in row) for row in self.adj)
        if len(adj) != self.n or any(len(row) != self.n for row in adj):
            raise DimensionError(f"adjacency matrix must be {number(self.n)}x{number(self.n)}")
        if any(x not in (0, 1) for row in adj for x in row):
            raise DimensionError("adjacency entries must be 0 or 1")
        object.__setattr__(self, "adj", adj)

    @classmethod
    def empty(cls, n: int) -> Graph:
        return cls(n, tuple((0,) * n for _ in range(n)))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        edges = set(edges)
        if stray := sorted((i, j) for i, j in edges if not (0 <= i < n and 0 <= j < n)):
            raise DimensionError(
                f"edge {quoted(stray[0])} has an endpoint outside 0..{number(n - 1)}")
        return cls(n, tuple(tuple(int((i, j) in edges) for j in range(n)) for i in range(n)))

    @classmethod
    def cycle(cls, n: int) -> Graph:
        """The directed n-cycle 0 -> 1 -> ... -> 0."""
        return cls.from_edges(n, [(i, (i + 1) % n) for i in range(n)])

    def edges(self) -> list[tuple[int, int]]:
        return [(i, j) for i in range(self.n) for j in range(self.n) if self.adj[i][j]]

    def _records(self) -> list[str]:
        return [str(self.n)] + [" ".join(map(str, row)) for row in self.adj]

    def to_text(self) -> str:
        return textfile.write("graph", self._records())

    @classmethod
    def from_text(cls, text: str) -> Graph:
        (n,), rows = textfile.read(text, "graph", 0)
        return cls._from_rows(n, rows)

    @classmethod
    def _from_rows(cls, n: int, rows: list[str]) -> Graph:
        if len(rows) != n:
            raise FormatError(f"expected {number(n)} adjacency rows, found {len(rows)}")
        adj = []
        for line in rows:
            if len(row := line.split()) != n or any(x not in ("0", "1") for x in row):
                raise FormatError(f"bad adjacency row {quoted(line)}")
            adj.append(tuple(int(x) for x in row))
        return cls(n, tuple(adj))


def graph_of_function(f: FunctionTable) -> Graph:
    return Graph.from_edges(f.n, [(i, f(i)) for i in range(f.n)])


def monomial_edge_listing(g: Graph) -> MultiPoly:
    """prod over edges (i,j) of a_{i,j}; the empty graph gives the constant 1."""
    return _matrix_listing(g.n, [1], "edge listing", lambda pairs: [
        ([pairs[g.n * i + j] for i, j in g.edges()], ONE)])


# ---------------------------------------------------------------------------
# The transforms.  Outputs are FunctionTables: out-degree one is intrinsic.
# ---------------------------------------------------------------------------

def _seed(f: FunctionTable | None) -> tuple[int, ...]:
    """The images of the points ahead of the edge points: () for T, (f(0), f(1)) for T_f."""
    if f is None:
        return ()
    if not isinstance(f, FunctionTable) or f.n != 2:
        raise DimensionError(f"the seed function must be a FunctionTable on Z_2, not {quoted(f)}")
    return (f(0), f(1))


def _transform(g: Graph, seed: tuple[int, ...]) -> FunctionTable:
    # point len(seed) + n*i + j maps to 1 iff (i, j) is an edge; marker points 0 and 1 must exist
    images = seed + tuple(x for row in g.adj for x in row)
    if len(images) < 2:
        raise DimensionError("transform T needs a graph on at least 2 vertices")
    return FunctionTable(len(images), images)


def transform_T(g: Graph) -> FunctionTable:
    """Functional graph on n^2 points: point n*i+j maps to 1 iff (i,j) is an edge.

    Needs n >= 2: the marker points 0 and 1 must both exist, and a 1-vertex
    graph offers only one.  (T_f has no such limit — its two extra points
    carry the markers.)
    """
    return _transform(g, ())


def transform_Tf(g: Graph, f: FunctionTable) -> FunctionTable:
    """Functional graph on n^2 + 2 points; points 0 and 1 carry f: Z_2 -> Z_2."""
    return _transform(g, _seed(f))


@dataclass(frozen=True)
class TransformSetResult:
    functions: tuple[FunctionTable, ...]
    listing_before: MultiPoly
    listing_after: MultiPoly
    f: FunctionTable | None  # the seed and the vertex count: what pulls listing_after back
    n: int


def transform_set(graphs: Iterable[Graph], f: FunctionTable | None = None) -> TransformSetResult:
    """Apply T (f None) or T_f (f on Z_2) elementwise and return both membership listings.

    The after-listing lives over N^2 matrix variables, N being the
    transformed point count; restricting it per recovery_restriction gives
    back the before-listing exactly.
    """
    gs = list(dict.fromkeys(graphs))  # dedupe, keep first-seen order
    if not gs:
        raise DimensionError("empty graph set")
    if len(sizes := {g.n for g in gs}) != 1:
        raise DimensionError(f"graphs of mixed vertex counts {sorted(sizes)} in one set")
    seed = _seed(f)
    images = [_transform(g, seed) for g in gs]
    (n,), npoints = sizes, images[0].n
    before = _matrix_listing(n, [len(gs)], "membership listing", lambda pairs: [
        ([pairs[n * i + j] for i, j in g.edges()], ONE) for g in gs])
    after = _matrix_listing(npoints, [len(gs)], "membership listing", lambda pairs: [
        ([pairs[npoints * i + x] for i, x in enumerate(ft.images)], ONE) for ft in images])
    return TransformSetResult(tuple(images), before, after, f, n)


def recovery_restriction(n: int, f: FunctionTable | None = None
                         ) -> tuple[dict[int, int], dict[int, int], int]:
    """(fixings, relabelling, nvars) that pull the transformed listing back.

    Fix every "edge absent" variable a_{v,0} to 1 (and, for T_f, the two
    variables realizing f), then rename each "edge present" variable
    a_{offset+k,1} to the original flat edge index k.
    """
    seed = _seed(f)
    offset, npoints = len(seed), len(seed) + n * n
    fixings = {matrix_index(npoints, k, image): 1 for k, image in enumerate(seed)}
    fixings.update((matrix_index(npoints, offset + k, 0), 1) for k in range(n * n))
    relabel = {matrix_index(npoints, offset + k, 1): k for k in range(n * n)}
    return fixings, relabel, n * n


def recovers_original(result: TransformSetResult) -> bool:
    fixings, relabel, nvars = recovery_restriction(result.n, result.f)
    restricted = result.listing_after.restrict_and_relabel(fixings, relabel, nvars)
    return restricted == result.listing_before


# ---------------------------------------------------------------------------
# Graph-set files: graph records one after another, written blank-line separated.
# ---------------------------------------------------------------------------

def graph_set_to_text(graphs: Sequence[Graph]) -> str:
    return textfile.write("graphset", ["\n\n".join("\n".join(g._records()) for g in graphs)])


def graph_set_from_text(text: str) -> list[Graph]:
    lines = textfile.records(text, "graphset")
    out, at = [], 0
    while at < len(lines):
        (n,) = textfile.ints(lines[at], "graph header", 0)
        out.append(Graph._from_rows(n, lines[at + 1:at + 1 + n]))
        at += 1 + n
    return out
