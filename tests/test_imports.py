"""The import surface: each command loads only the modules it uses, and the
package's exports load on first use.

Module loading is checked in a fresh interpreter, since this process has
imported every module already.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import diffcomp
from diffcomp import chow, listings

PACKAGE_ROOT = str(Path(diffcomp.__file__).resolve().parents[1])
CORE = {"diffcomp.cli", "diffcomp.cyclotomic", "diffcomp.errors", "diffcomp.multipoly",
        "diffcomp.textfile"}


def loaded_after(code: str, cwd: Path | None = None, also: tuple[str, ...] = ()) -> set[str]:
    """The diffcomp.* modules, and those named in `also`, loaded once `code` has run in a new
    interpreter."""
    report = ("\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules "
              f"if m.startswith('diffcomp.') or m in {also!r})))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [PACKAGE_ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    out = subprocess.run([sys.executable, "-c", code + report], cwd=cwd, env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0, out.stderr
    return set(json.loads(out.stdout.splitlines()[-1]))


def main_then_report(argv: list[str]) -> str:
    # run the command in process, its stdout swallowed, and insist on exit 0
    return ("import contextlib, io\nfrom diffcomp.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n")


def test_importing_the_package_loads_no_submodule():
    assert loaded_after("import diffcomp") == set()


def test_the_errors_module_and_its_cap_load_no_other_module():
    assert loaded_after("import diffcomp.errors") == {"diffcomp.errors"}


def test_the_cli_imports_only_its_core():
    assert loaded_after("from diffcomp.cli import main") == CORE


@pytest.fixture
def functional_files(tmp_path):
    (tmp_path / "fg.poly").write_text(
        diffcomp.multipoly.poly_to_text(listings.listing_functional_graphs(3),
                                        diffcomp.VarTable.matrix(3)))
    (tmp_path / "fg.chow").write_text(chow.functional_product_decomposition(3).to_text())
    (tmp_path / "f.in").write_text("2,0,1\n")
    return tmp_path


def test_verify_loads_neither_the_engine_nor_the_listings_nor_graphs(functional_files):
    loaded = loaded_after(main_then_report(["verify", "fg.chow", "fg.poly"]), functional_files)
    assert "diffcomp.chow" in loaded
    assert not loaded & {"diffcomp.engine", "diffcomp.listings", "diffcomp.graphs"}


def test_run_loads_neither_chow_nor_graphs(functional_files):
    loaded = loaded_after(main_then_report(["run", "fg.poly", "f.in", "--kind", "functional"]),
                          functional_files)
    assert {"diffcomp.engine", "diffcomp.listings"} <= loaded
    assert not loaded & {"diffcomp.chow", "diffcomp.graphs"}


def test_a_submodule_loads_on_first_use_of_its_package_attribute():
    loaded = loaded_after("import diffcomp\nassert diffcomp.chow.__name__ == 'diffcomp.chow'")
    assert "diffcomp.chow" in loaded and "diffcomp.engine" not in loaded


def test_exports_resolve_lazily_to_their_homes():
    assert diffcomp.ChowDecomposition is diffcomp.chow.ChowDecomposition
    assert diffcomp.TruthTable is listings.TruthTable
    assert diffcomp.matrix_index is diffcomp.multipoly.matrix_index
    namespace: dict = {}
    exec("from diffcomp import *", namespace)
    assert set(diffcomp.__all__) <= set(namespace)
    assert namespace["RunResult"] is diffcomp.engine.RunResult
    with pytest.raises(AttributeError, match="has no attribute 'nope'"):
        diffcomp.nope  # noqa: B018
    assert not hasattr(diffcomp, "nope")


def main_exits(argv: list[str], status: int) -> str:
    # run the command in process, its stdout and stderr swallowed, and insist on `status`
    return ("import contextlib, io\nfrom diffcomp.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()), "
            "contextlib.redirect_stderr(io.StringIO()):\n"
            f"    assert main({argv!r}) == {status}\n")


COMMANDS = {
    "build functional": (["build", "functional", "--n", "3"], 0),
    "build determinant": (["build", "determinant", "--n", "3", "--out", "det.out"], 0),
    "build truth-table": (["build", "truth-table", "--table", "t.tt"], 0),
    "run vector": (["run", "t.poly", "v.in"], 0),
    "run matrix": (["run", "det.poly", "m.in", "--kind", "matrix"], 0),
    "run functional": (["run", "fg.poly", "f.in", "--kind", "functional"], 0),
    "verify": (["verify", "fg.chow", "fg.poly"], 0),
    "verify REJECT": (["verify", "bad.chow", "fg.poly"], 3),
    "bound": (["bound", "pairs.poly", "--certificate", "pairs.chow"], 0),
    "transform": (["transform", "g.graphset", "--mode", "Tf", "--f", "0,1", "--out-prefix", "t"],
                  0),
    "malformed run": (["run", "malformed.poly", "f.in", "--kind", "functional"], 2),
}


@pytest.mark.parametrize("command", list(COMMANDS))
def test_no_command_loads_fractions_or_decimal(functional_files, command):
    d = functional_files
    (d / "t.tt").write_text("3 4\n101 1\n011 3\n")
    (d / "t.poly").write_text(diffcomp.multipoly.poly_to_text(listings.listing_from_truth_table(
        listings.TruthTable.from_text((d / "t.tt").read_text())), diffcomp.VarTable(3), 4))
    (d / "v.in").write_text("101\n")
    (d / "det.poly").write_text(diffcomp.multipoly.poly_to_text(
        listings.listing_determinant(3), diffcomp.VarTable.matrix(3)))
    (d / "m.in").write_text("010\n100\n001\n")
    cert = chow.functional_product_decomposition(3)
    (d / "bad.chow").write_text(cert.to_text().replace("1:[1/1]", "1:[2/3]", 1))
    (d / "pairs.poly").write_text("4 12\n12:[0/1,1/2,0/1,-1/1] * a_0 * a_1\n1:[3/4] * a_2^2\n")
    (d / "pairs.chow").write_text("2 2 4 12\n" + "\n".join(
        " ".join(f"1:[{x}]" if ":" not in x else x for x in row.split()) for row in [
            "12:[0/1,1/2,0/1,-1/1] 0 0 0 0", "0 1 0 0 0", "0 0 3/4 0 0", "0 0 1 0 0"]) + "\n")
    (d / "g.graphset").write_text("2\n0 1\n1 0\n\n2\n1 1\n0 0\n")
    (d / "malformed.poly").write_text("# diffcomp-poly 1\n4 6\n6:[1/1 * a_0\n")
    argv, status = COMMANDS[command]
    heavy = ("decimal", "fractions")
    assert not loaded_after(main_exits(argv, status), d, heavy) & set(heavy)


def test_a_fraction_input_still_loads_fractions_itself():
    # the library accepts Fractions; the package only looks for the type, it never imports it
    code = ("from diffcomp.cyclotomic import as_scalar, CycloRational\n"
            "import sys\nassert 'fractions' not in sys.modules\n"
            "from fractions import Fraction\n"
            "assert as_scalar(Fraction(1, 2)) == CycloRational(1, [Fraction(2, 4)])\n")
    assert "fractions" in loaded_after(code, also=("fractions",))
