"""A fuzz of the command line: mutated valid files through every file-reading subcommand.

Whatever the mutation, `diffcomp` must end with exit 0, 2 or 3, print one
`error:` line of at most LINE_BYTES bytes when it fails, never a traceback, and
stay quick, because the term cap is lowered and every input is bounded by it.
A second fuzz grows one token, or one line's content, to GROWN characters.
"""

from __future__ import annotations

import contextlib
import io
import os
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcomp import chow, cli, graphs, listings
from diffcomp.listings import TruthTable
from diffcomp.multipoly import VarTable, poly_to_text

CASE_BUDGET_S = 2.0
CAP = "400"
LINE_BYTES = 300  # the most one error line may take, however long the input it quotes
GROWN = 5000


def _seed_files() -> dict[str, str]:
    table = TruthTable.make(3, [(0, 0, 1), (1, 0, 1), (1, 1, 1)], 4, {(1, 0, 1): 3})
    fg = listings.listing_functional_graphs(2)
    pm = chow.pm_polynomial(2, 2, [1, -1])
    gs = [graphs.Graph.from_edges(2, [(0, 1)]), graphs.Graph.cycle(2)]
    return {
        "table.tt": table.to_text(),
        "vector.poly": poly_to_text(listings.listing_from_truth_table(table), order=4),
        "fg.poly": poly_to_text(fg, VarTable.matrix(2)),
        "det.poly": poly_to_text(listings.listing_determinant(2), VarTable.matrix(2), 2),
        "pm.poly": poly_to_text(pm),
        "fg.chow": chow.functional_product_decomposition(2).to_text(),
        "pm.chow": chow.trivial_decomposition(pm).to_text(),
        "graph.graph": graphs.Graph.cycle(3).to_text(),
        "set.graphset": graphs.graph_set_to_text(gs),
        "bits.in": "101\n",
        "matrix.in": "10\n01\n",
        "function.in": "1,0\n",
    }


SEEDS = _seed_files()

# (argv with {file} placeholders, the files it reads)
COMMANDS = [
    (["run", "{vector.poly}", "{bits.in}"], ["vector.poly", "bits.in"]),
    (["run", "{det.poly}", "{matrix.in}", "--kind", "matrix"], ["det.poly", "matrix.in"]),
    (["run", "{fg.poly}", "{function.in}", "--kind", "functional"], ["fg.poly", "function.in"]),
    (["verify", "{fg.chow}", "{fg.poly}"], ["fg.chow", "fg.poly"]),
    (["verify", "{pm.chow}", "{pm.poly}"], ["pm.chow", "pm.poly"]),
    (["bound", "{pm.poly}", "--certificate", "{pm.chow}"], ["pm.poly", "pm.chow"]),
    (["bound", "{fg.poly}", "--certificate", "{fg.chow}"], ["fg.poly", "fg.chow"]),
    (["build", "truth-table", "--table", "{table.tt}"], ["table.tt"]),
    (["build", "lagrange", "--table", "{table.tt}"], ["table.tt"]),
    (["build", "iso", "--graph", "{graph.graph}"], ["graph.graph"]),
    (["transform", "{set.graphset}", "--out-prefix", "{out}"], ["set.graphset"]),
    (["transform", "{set.graphset}", "--mode", "Tf", "--f", "0,0", "--out-prefix", "{out}"],
     ["set.graphset"]),
]

TOKENS = ["0", "1", "-1", "2", "7", "99", "100000", "-", "#", "*", "^", "^3", ",", ":", "[",
          "]", "/", "1/0", "1:[1/1]", "1:[0/1]", "12:[1/1,0/1,0/1,0/1]", "4:[0/1,1/1]",
          "a_0", "a_9", "a_{1,1}", "a_{9,9}", "y_2", " ", "\n", "# diffcomp-poly 1",
          "# diffcomp-chow 2"]


@st.composite
def mutations(draw):
    """(line index, column, kind, token) edits; kind 0 replaces a token, 1 inserts
    one, 2 deletes a line, 3 duplicates a line."""
    return draw(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40), st.integers(0, 3),
                                   st.sampled_from(TOKENS)), min_size=1, max_size=4))


def _mutate(text: str, edits) -> str:
    lines = text.split("\n")
    for line_at, col, kind, token in edits:
        k = line_at % len(lines)
        if kind == 0:
            words = lines[k].split(" ")
            words[col % len(words)] = token
            lines[k] = " ".join(words)
        elif kind == 1:
            at = col % (len(lines[k]) + 1)
            lines[k] = lines[k][:at] + token + lines[k][at:]
        elif kind == 2 and len(lines) > 1:
            del lines[k]
        else:
            lines.insert(k, lines[k])
    return "\n".join(lines)


def _grow(text: str, line_at: int, col: int, whole_line: bool) -> str:
    """Repeat one space-separated token of a non-empty line, or the line's whole content, to
    GROWN characters."""
    lines = text.split("\n")
    full = [i for i, line in enumerate(lines) if line]
    k = full[line_at % len(full)]
    words = [lines[k]] if whole_line else lines[k].split(" ")
    at = col % len(words)
    words[at] = (words[at] * GROWN)[:GROWN]
    lines[k] = " ".join(words)
    return "\n".join(lines)


class _Overtime(BaseException):
    """Raised by the alarm; cli.main cannot catch it."""


def _alarm(signum, frame):
    raise _Overtime


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _check(workdir, command: int, which: str, mutated: str) -> None:
    """Run COMMANDS[command] with the file `which` replaced by `mutated`; assert a typed,
    quick exit and at most one short error line."""
    template, reads = COMMANDS[command]
    paths = {"out": str(workdir / "out")}
    for name in reads:
        text = mutated if name == which else SEEDS[name]
        (workdir / name).write_text(text)
        paths[name] = str(workdir / name)
    argv = [paths[arg[1:-1]] if arg.startswith("{") else arg for arg in template]
    out, err = io.StringIO(), io.StringIO()
    previous_cap = os.environ.get("DIFFCOMP_MAX_TERMS")
    os.environ["DIFFCOMP_MAX_TERMS"] = CAP
    previous_handler = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, 5 * CASE_BUDGET_S)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except _Overtime:
        pytest.fail(f"{argv} ran over {5 * CASE_BUDGET_S} s")
    except BaseException as exc:  # an untyped error would reach the user as a traceback
        pytest.fail(f"{argv} raised {type(exc).__name__}: {exc}")
    finally:
        elapsed = time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous_handler)
        if previous_cap is None:
            del os.environ["DIFFCOMP_MAX_TERMS"]
        else:
            os.environ["DIFFCOMP_MAX_TERMS"] = previous_cap
    stderr = err.getvalue()
    errors = [line for line in stderr.splitlines() if line.startswith("error:")]
    assert code in (0, 2, 3), (argv, code, stderr)
    assert "Traceback" not in stderr
    assert elapsed < CASE_BUDGET_S, (argv, elapsed)
    if code == 3 and template[0] == "verify":  # a REJECT is a verdict, not an error
        assert out.getvalue().endswith("verdict REJECT\n") and not errors, stderr
    elif code:
        assert len(errors) == 1, (argv, code, stderr)
    else:
        assert not errors, stderr
    assert all(len(line.encode()) <= LINE_BYTES for line in errors), (argv, stderr)


@settings(max_examples=250, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(range(len(COMMANDS))), st.data())
def test_mutated_files_end_in_a_typed_exit(workdir, command, data):
    which = data.draw(st.sampled_from(COMMANDS[command][1]), label="mutated file")
    edits = data.draw(mutations(), label="edits")
    _check(workdir, command, which, _mutate(SEEDS[which], edits))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(range(len(COMMANDS))), st.data())
def test_a_token_or_line_grown_long_ends_in_one_short_error_line(workdir, command, data):
    which = data.draw(st.sampled_from(COMMANDS[command][1]), label="grown file")
    growth = data.draw(st.tuples(st.integers(0, 40), st.integers(0, 40), st.booleans()),
                       label="line, token, whole line")
    _check(workdir, command, which, _grow(SEEDS[which], *growth))
