"""Command-line front end: build listings, run inputs, check certificates.

Exit codes: 0 success (and, for `run`, the decision bit is printed, not
encoded in the status); 2 for malformed files, bad dimensions, or size caps;
3 when the mathematical model itself is violated — a post-power scalar
outside {0,1}, or a transform whose restriction fails to recover the
original listing.

Each command imports the modules it uses when it runs: a `run` never loads
the Chow or graph code, and a `verify` never loads the engine.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import textfile
from .errors import (DiffcompError, FormatError, InternalInconsistencyError, ModelViolationError,
                     max_terms, number, quoted)
from .multipoly import MultiPoly, VarTable, poly_from_text, poly_to_text

EXIT_OK, EXIT_BAD_INPUT, EXIT_MODEL = 0, 2, 3


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


# -- build ------------------------------------------------------------------

_BUILDERS = {  # each kind, in the choices' order: the option it needs, its builder in `listings`
    "truth-table": ("table", "listing_from_truth_table"),
    "functional": ("n", "listing_functional_graphs"),
    "permanent": ("n", "listing_permanent"),
    "determinant": ("n", "listing_determinant"),
    "iso": ("graph", "listing_graph_isomorphism"),
    "constants": ("n", "listing_constant_functions"),
    "cyclic": ("n", "listing_cyclic_group"),
    "lagrange": ("table", "lagrange_interpolant"),
}


def cmd_build(args) -> int:
    from . import listings
    kind, (option, builder) = args.kind, _BUILDERS[args.kind]
    if (value := getattr(args, option)) in (None, ""):
        raise FormatError(f"build {kind} needs --{option}")
    if option == "table":  # the table's m is the order, even with no terms
        value = listings.TruthTable.from_text(_read(value))
        table, order = VarTable(value.n, "y" if kind == "lagrange" else "a"), value.m
    else:  # the coefficients' lcm
        if option == "graph":
            from .graphs import Graph
            value = Graph.from_text(_read(value))
        table, order = VarTable.matrix(value if option == "n" else value.n), None
    poly = getattr(listings, builder)(value)
    text = poly_to_text(poly, table=table, order=order)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    print(f"built {kind} listing: {len(poly.terms)} terms over "
          f"{table.size} variables (n={table.side or table.size})", file=sys.stderr)
    return EXIT_OK


# -- run ----------------------------------------------------------------------

def _parse_bits(text: str) -> list[int]:
    lines = textfile.records(text)
    if len(lines) == 1 and all(c in "01" for c in lines[0]):
        return [int(c) for c in lines[0]]
    raise FormatError(f"bad bit-vector file content {quoted(text)}")


def _parse_bit_matrix(text: str) -> list[list[int]]:
    rows = []
    for line in textfile.records(text):
        toks = line.split()
        if len(toks) == 1 and len(toks[0]) > 1:
            toks = list(toks[0])
        if any(t not in ("0", "1") for t in toks):
            raise FormatError(f"bad matrix row {quoted(line)}")
        rows.append([int(t) for t in toks])
    if not rows or any(len(r) != len(rows) for r in rows):
        raise FormatError("input is not a square 0/1 matrix")
    return rows


def cmd_run(args) -> int:
    parsed = poly_from_text(_read(args.listing))
    poly, order, kind = parsed.poly, parsed.order, args.kind
    input_text = _read(args.input)
    from . import engine, listings  # only once both files are read and the listing parses
    if kind == "vector":
        arity = len(x := _parse_bits(input_text))
    elif kind == "matrix":
        arity = len(x := _parse_bit_matrix(input_text))
    else:  # functional; argparse restricts the choices
        if len(lines := textfile.records(input_text)) != 1:
            raise FormatError("functional input file must hold one image list")
        x = listings.FunctionTable.parse(lines[0], arity := math.isqrt(poly.nvars))
    dc = engine.DifferentialComputer(poly, arity, order, kind)
    result = getattr(engine, f"run_{kind}")(dc, x)  # run_vector, run_matrix or run_functional
    print(result.bit)
    print(f"scalar {result.scalar.to_text()}", file=sys.stderr)
    return EXIT_OK


# -- verify -------------------------------------------------------------------

def _verified(path: str, target: MultiPoly) -> tuple:
    """The decomposition in the file at `path`, and whether it expands to `target`."""
    from . import chow
    decomposition, _ = chow.ChowDecomposition.from_text(_read(path))
    if decomposition.nvars < target.nvars and not target.is_zero():
        # a wider decomposition universe is allowed; a narrower one cannot match
        raise FormatError(f"decomposition over {number(decomposition.nvars)} variables cannot "
                          f"express a {number(target.nvars)}-variable listing")
    return decomposition, chow.verify(decomposition, target)


def cmd_verify(args) -> int:
    target = poly_from_text(_read(args.listing)).poly
    decomposition, ok = _verified(args.decomposition, target)
    print(f"rho {decomposition.rho} degree {decomposition.degree} nvars {decomposition.nvars}")
    if not ok:
        print("verdict REJECT")
        return EXIT_MODEL
    print("verdict ACCEPT")
    if len(target.terms) == decomposition.rho == _non_overlapping_rank(target):
        print(f"matches non-overlapping lower bound {decomposition.rho}")
    return EXIT_OK


def _non_overlapping_rank(target: MultiPoly) -> int | None:
    from . import chow
    try:
        return chow.non_overlapping_rank(target)
    except DiffcompError:
        return None


# -- bound --------------------------------------------------------------------

def cmd_bound(args) -> int:
    from . import chow
    target = poly_from_text(_read(args.listing)).poly
    print(f"upper {len(target.terms)}")
    if args.certificate:
        decomposition, ok = _verified(args.certificate, target)
        if not ok:
            raise ModelViolationError("certificate does not expand to the listing; "
                                      "its rho bounds nothing")
        print(f"certificate {decomposition.rho}")
    if target.is_homogeneous() and target.degree() == 2:
        print(f"lower {chow.degree2_chow_lower_bound(target)}")
    if (count := _non_overlapping_rank(target)) is not None:
        print(f"exact {count}")
    return EXIT_OK


# -- transform ----------------------------------------------------------------

def cmd_transform(args) -> int:
    from . import graphs, listings
    graph_set = graphs.graph_set_from_text(_read(args.graphset))
    f = None
    if args.mode == "Tf":
        if not args.f:
            raise FormatError("--mode Tf needs --f")
        f = listings.FunctionTable.parse(args.f, 2)
    elif args.f is not None:
        raise FormatError("--f applies only to --mode Tf")
    result = graphs.transform_set(graph_set, f)
    transformed = [graphs.graph_of_function(ft) for ft in result.functions]
    out_prefix, n, npoints = args.out_prefix, result.n, result.functions[0].n
    _write(f"{out_prefix}.graphset", graphs.graph_set_to_text(transformed))
    _write(f"{out_prefix}.before.poly", poly_to_text(result.listing_before, VarTable.matrix(n)))
    _write(f"{out_prefix}.after.poly", poly_to_text(result.listing_after, VarTable.matrix(npoints)))
    ok = graphs.recovers_original(result)
    print(f"transformed {len(transformed)} graphs on {n} vertices to "
          f"functional graphs on {npoints} points")
    print(f"restriction recovery {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise ModelViolationError("restriction did not recover the original listing")
    return EXIT_OK


# -- selftest -------------------------------------------------------------------

def cmd_selftest(args) -> int:
    import itertools
    import random

    from . import chow, engine, listings
    from .errors import SingularMatrixError

    rng = random.Random(args.seed)
    failures = []

    def check(name: str, ok: bool) -> None:
        print(f"{'ok' if ok else 'FAIL'}  {name}")
        if not ok:
            failures.append(name)

    # listings execute their truth tables
    for _ in range(10):
        n = rng.randint(1, 3)
        m = rng.choice([1, 2, 4])
        cube = list(itertools.product((0, 1), repeat=n))
        yes = [b for b in cube if rng.random() < 0.5]
        t = listings.TruthTable.make(n, yes, m, {b: rng.randrange(m) for b in yes})
        p = listings.listing_from_truth_table(t)
        dc = engine.DifferentialComputer(p, n, m, "vector")
        ok = all(engine.run_vector(dc, b).bit == t.value(b) for b in cube)
        check(f"truth-table round trip n={n} m={m}", ok)

    # inverse via the determinant gradient
    for _ in range(3):
        n = rng.randint(1, 3)
        M = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        try:
            inv = engine.inverse_via_gradient(M)
        except SingularMatrixError:
            check(f"inverse n={n} (singular input skipped)", True)
            continue
        ok = all(sum(M[i][k] * inv[k][j] for k in range(n)) == int(i == j)
                 for i in range(n) for j in range(n))
        check(f"inverse n={n}", ok)

    # non-overlapping rank certificates
    for n in (1, 2, 3):
        for m in (2, 3):
            p = chow.pm_polynomial(n, m)
            count, cert = chow.non_overlapping_rank(p), chow.trivial_decomposition(p)
            check(f"P_m rank n={n} m={m}", count == n and chow.verify(cert, p))

    print(f"selftest {'FAILED' if failures else 'passed'}")
    return EXIT_MODEL if failures else EXIT_OK


# -- argument parsing -----------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="diffcomp", description="Listings of Boolean functions, "
                                     "differential execution, and Chow-decomposition certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("build", help="write a listing in the polynomial format")
    b.add_argument("kind", choices=tuple(_BUILDERS))
    b.add_argument("--n", type=int, help="size parameter for matrix listings")
    b.add_argument("--table", help="truth-table file (truth-table / lagrange)")
    b.add_argument("--graph", help="graph file (iso)")
    b.add_argument("--out", help="output path (default: stdout)")
    b.set_defaults(func=cmd_build)

    r = sub.add_parser("run", help="execute an input against a listing")
    r.add_argument("listing", help="polynomial file")
    r.add_argument("input", help="bit vector, 0/1 matrix, or function file")
    r.add_argument("--kind", choices=("vector", "matrix", "functional"),
                   default="vector")
    r.set_defaults(func=cmd_run)

    v = sub.add_parser("verify", help="check a Chow decomposition against a listing")
    v.add_argument("decomposition")
    v.add_argument("listing")
    v.set_defaults(func=cmd_verify)

    d = sub.add_parser("bound", help="print Chow rank bounds for a listing")
    d.add_argument("listing")
    d.add_argument("--certificate",
                   help="decomposition file; its rho is reported as an upper "
                        "bound after verification")
    d.set_defaults(func=cmd_bound)

    t = sub.add_parser("transform", help="apply T or T_f to a graph set")
    t.add_argument("graphset")
    t.add_argument("--mode", choices=("T", "Tf"), default="T")
    t.add_argument("--f", help="seed function on Z_2 for Tf, e.g. 0,0 or id")
    t.add_argument("--out-prefix", default="transformed")
    t.set_defaults(func=cmd_transform)

    s = sub.add_parser("selftest", help="seeded end-to-end property checks")
    s.add_argument("--seed", type=int, default=0)
    s.set_defaults(func=cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        max_terms()  # a malformed cap is refused by every command, not only by one that charges
        return args.func(args)
    except DiffcompError as exc:
        print(f"error: {exc}", file=sys.stderr)
        model = isinstance(exc, (ModelViolationError, InternalInconsistencyError))
        return EXIT_MODEL if model else EXIT_BAD_INPUT


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
