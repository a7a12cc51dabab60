"""Pinned SHA-256 digests of what the CLI writes.

`build` and `transform` output must stay byte-identical, and the stdout and
stderr of `run`, `verify` and `bound` unchanged.  Each case runs `cli.main`
in process and digests its exit code, stdout, stderr and every file it
writes; a digest that moves means an output moved.
"""

from __future__ import annotations

import hashlib

import pytest

from diffcomp import chow, cli, graphs
from diffcomp.listings import TruthTable
from diffcomp.multipoly import poly_to_text

from test_graphs import totally_complete

_BINARY = TruthTable.make(3, [(0, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0), (1, 1, 1)])
_PHASED = TruthTable.make(3, [(0, 0, 1), (0, 1, 1), (1, 0, 0), (1, 1, 1)], 6,
                          {(0, 0, 1): 1, (0, 1, 1): 5, (1, 0, 0): 2, (1, 1, 1): 3})
_GRAPHS = {
    "path3": graphs.Graph.from_edges(3, [(0, 1), (1, 2)]),
    "loops3": graphs.Graph.from_edges(3, [(0, 0), (0, 1), (1, 0)]),
    "cycle4": graphs.Graph.cycle(4),
    "star4": graphs.Graph.from_edges(4, [(0, 1), (0, 2), (3, 3)]),
    "empty2": graphs.Graph.empty(2),
}
_GRAPH_SET = [graphs.Graph.from_edges(3, [(0, 1), (1, 2)]), graphs.Graph.cycle(3),
              graphs.Graph.empty(3), totally_complete(3)]

_MATRIX_KINDS = ("functional", "permanent", "determinant", "constants", "cyclic")

# (name, argv with {d} for the input directory, files written under {d})
CASES = [(f"build-{k}-{n}", ["build", k, "--n", str(n)], [])
         for k in _MATRIX_KINDS for n in range(1, 6)]
CASES += [(f"build-{k}-6", ["build", k, "--n", "6"], [])  # the size the benchmark builds
          for k in ("functional", "permanent", "determinant")]
CASES += [
    ("build-tt-binary", ["build", "truth-table", "--table", "{d}/binary.tt"], []),
    ("build-tt-phased", ["build", "truth-table", "--table", "{d}/phased.tt"], []),
    ("build-lagrange", ["build", "lagrange", "--table", "{d}/binary.tt"], []),
]
CASES += [(f"build-iso-{name}", ["build", "iso", "--graph", f"{{d}}/{name}.graph"], [])
          for name in _GRAPHS]
CASES += [
    (f"transform-{mode}", ["transform", "{d}/set.graphset", "--mode", mode, *extra,
                           "--out-prefix", f"{{d}}/out{mode}"],
     [f"out{mode}{suffix}" for suffix in (".graphset", ".before.poly", ".after.poly")])
    for mode, extra in (("T", []), ("Tf", ["--f", "1,0"]))
]
CASES += [
    ("run-vector", ["run", "{d}/binary.poly", "{d}/011.bits"], []),
    ("run-phased", ["run", "{d}/phased.poly", "{d}/011.bits"], []),
    ("run-matrix", ["run", "{d}/det3.poly", "{d}/swap.matrix", "--kind", "matrix"], []),
    ("run-functional", ["run", "{d}/fun3.poly", "{d}/id.fn", "--kind", "functional"], []),
    ("verify-accept", ["verify", "{d}/fun3.chow", "{d}/fun3.poly"], []),
    ("verify-reject", ["verify", "{d}/fun3.chow", "{d}/cyc3.poly"], []),
    ("bound-constants", ["bound", "{d}/const3.poly"], []),
    ("bound-quadratic", ["bound", "{d}/pm32.poly"], []),
    ("bound-certificate", ["bound", "{d}/fun3.poly", "--certificate", "{d}/fun3.chow"], []),
]

GOLDEN = {
    "build-functional-1": "d29601dbb205180ab2a7ba19b476793ada6a6e2630625861e20d950783d9a4a5",
    "build-functional-2": "cea5f06e588a0dfd4737e67bbf0fdd1829f2b278b887989f5a2d6a784a8563d8",
    "build-functional-3": "a4ba826b91ef42a7c226e6ffe73a8f6aad41273ae2ba91808c439a1fa5ba7268",
    "build-functional-4": "dfdbf056a9f8a553629baafb55b9fd3fa92194eff0dc87ea96f830388e2dfc30",
    "build-functional-5": "611a575f6bb496f0b415f6cdfe796e7e2ef714c7ee6309a1669a1454919f329b",
    "build-permanent-1": "a5bea6b7d4203332fa04082fc75fc95019161dd5b1980e453326be89abe74d0f",
    "build-permanent-2": "3e7959d037bec73c4c1019e661657e7465d53c191840ff96c677c489bb2504f6",
    "build-permanent-3": "21a96224a065c26d82d4b097fc43ba5994e65e5c79999b0044ac7d92b37851f6",
    "build-permanent-4": "f7a37658a37832689eadad815a23179c5d6b56da09b46907573e583b5a8e0d81",
    "build-permanent-5": "df60e609b9399c1f21adcdc0c956400b42298158e6121ca9044da73db1f200ec",
    "build-determinant-1": "e40b943f69a300778b7dfb78799c93e253c974082f0e1be187a92e2c3be61e77",
    "build-determinant-2": "ecb75d42957ccc2822a35305b159c2a886e8907a76c082fb0abe2223e0a330b5",
    "build-determinant-3": "16854d83d394c80177650acd0d5ec7840962dccbc1bfc4a076796c8d7fbf1f22",
    "build-determinant-4": "ec3d7a402a625f0fd3968fbb05e3084219fed95476f63dff0bc2a7e3866ae579",
    "build-determinant-5": "ba050639d89306492133eabe31ffdd6332ea8a9aeeb1ea1bf35d80ccd4a50fa1",
    "build-functional-6": "106c25cc73ea4d79fba166d6d92d05140520a633242a64e282ef315ab6b40a95",
    "build-permanent-6": "57285425b1d33018db32c0cc7ba6f4ceebd086fb5f65b0492c69095d68cc963e",
    "build-determinant-6": "cfff2e39b03a96947acd58f4549fd1ed67ea7379597571df2ec309b255a435ca",
    "build-constants-1": "82a38fdc835081f64c756daf397970d2faab2110647f9a67e93fa260bb952397",
    "build-constants-2": "0db38b5de2f41b4f575a226f2ed5b57d952148a5c9140977d6143277fa827cfc",
    "build-constants-3": "f2345db9d567ba9a6eac8e9e90bcf3ebfbbdc37921a03e113980dec734853d11",
    "build-constants-4": "ac7aaf3e2b84ecb79464b69223ed6a01f9387389b6a1e7b04c796dca5b29e855",
    "build-constants-5": "d0e7f335b0b49a74a2e6a891ca958c3cf0f340892187a0c270611f45c4001bed",
    "build-cyclic-1": "6ba243c55b15b88599b43dad8bdddc82c38d4357467fef0d89bf555b5a7b5a45",
    "build-cyclic-2": "e5e9e9b6a01f9f444709c6944a38cc8e96a4b432a471bef9500ce655fd03cedf",
    "build-cyclic-3": "0c698bd6319dea3e7a857bfa70cbe488f6d0294ca64b45b11e5a9d40f73eb200",
    "build-cyclic-4": "f7035bc57b0d5d4e7bda24940d9cd5d3dba531faa529de7557fa8ef55433ac30",
    "build-cyclic-5": "e06ade5e67fe92241bf28ddbc0fb9a5db62c669ca1044a97948d5c4f1b103bba",
    "build-tt-binary": "aa81b3182bcdb7f177cb8660dde5653c2ec6e37e931764a83c4bef6940470667",
    "build-tt-phased": "f55cc168cd9d2094c1e3b30e1702dc82a758b375f2ab61655cadb72c1a8837a2",
    "build-lagrange": "630f527aa00d3fd953d4069be5b4cf3208bb1fad742580a2e44b7b480b2e8c13",
    "build-iso-path3": "29938a1d1d96816084bf3d13bd8d9dced143d2846d8421eca869bdbfdf8c96fc",
    "build-iso-loops3": "1f12bb195431767d976d68f50331ad28c973ecaef6fb4dd31bdf36d00605bf97",
    "build-iso-cycle4": "3563449766453f818724588fa90b3463f7f86b2999d27e9de02e92bafe5bea2e",
    "build-iso-star4": "0a9b2e133566bb9e6ccb60851db44ad90408675d0d6cb518c7a719af1440c12d",
    "build-iso-empty2": "84e052f663a6e2002c33ad7a90c7b90942b44964289f164b1aef8ab34a49f4d9",
    "transform-T": "f27c97decef63aa07c57ad210870218cbfe12c2db54f2990c24c367a08e36795",
    "transform-Tf": "6d87976d28b36f591eb113187cfd560f517d67e6665c05615875585c4b21b093",
    "run-vector": "5af5bbd78eedae9841a02c81f0719512347d72c17964563a6544891c38325cc2",
    "run-phased": "04daffbdc04d44d89a140d3bfc98e12b40eac3dddb8b8be1dfd653c89ce03949",
    "run-matrix": "840a11a5ae343bc8a61b96044d47bba349888b531210f873951a1b4df7e119cd",
    "run-functional": "5af5bbd78eedae9841a02c81f0719512347d72c17964563a6544891c38325cc2",
    "verify-accept": "097a9f29afba647e888f8cbe55c4b6be2baa3c05fb1200fe0dc8582c3ecc751b",
    "verify-reject": "45447fc65e2ba04b8fcb3b84eae249e0fedda89216b61c63820b9cd722ba71d1",
    "bound-constants": "b5cf188368c01a8079bb9631cfe4b8e017ec81d46d9d3261d782811397bf97bb",
    "bound-quadratic": "eda4a292b561b7f04cef10e0cb3e6cbc9c0b42522f1e93fe7d29698fe3b64681",
    "bound-certificate": "400aa12f28acbad084611d95a03c919635a2f20ece4fb74a0c765300aac418d8",
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    (d / "binary.tt").write_text(_BINARY.to_text())
    (d / "phased.tt").write_text(_PHASED.to_text())
    for name, g in _GRAPHS.items():
        (d / f"{name}.graph").write_text(g.to_text())
    (d / "set.graphset").write_text(graphs.graph_set_to_text(_GRAPH_SET))
    (d / "011.bits").write_text("011\n")
    (d / "swap.matrix").write_text("010\n100\n001\n")
    (d / "id.fn").write_text("id\n")
    (d / "fun3.chow").write_text(chow.functional_product_decomposition(3).to_text())
    (d / "pm32.poly").write_text(poly_to_text(chow.pm_polynomial(3, 2)))
    for out, argv in (("binary", ["truth-table", "--table", f"{d}/binary.tt"]),
                      ("phased", ["truth-table", "--table", f"{d}/phased.tt"]),
                      ("det3", ["determinant", "--n", "3"]),
                      ("fun3", ["functional", "--n", "3"]),
                      ("cyc3", ["cyclic", "--n", "3"]),
                      ("const3", ["constants", "--n", "3"])):
        assert cli.main(["build", *argv, "--out", f"{d}/{out}.poly"]) == 0
    return d


def _digest(d, argv, files, capsys) -> str:
    capsys.readouterr()
    code = cli.main([a.format(d=d) for a in argv])
    out, err = capsys.readouterr()
    h = hashlib.sha256(f"{code}\0{out}\0{err}".encode())
    for name in files:
        h.update(b"\0" + (d / name).read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name, argv, files", CASES, ids=[c[0] for c in CASES])
def test_output_matches_its_pinned_digest(inputs, name, argv, files, capsys):
    assert _digest(inputs, argv, files, capsys) == GOLDEN[name]
