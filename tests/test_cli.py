"""End-to-end command-line behaviour, driven in process through cli.main."""

from __future__ import annotations

import random
import time

import pytest

from diffcomp import chow, cli, graphs, listings
from diffcomp.listings import TruthTable
from diffcomp.multipoly import poly_to_text

from test_graphs import is_functional


def run_cli(argv):
    return cli.main(argv)


# -- build --------------------------------------------------------------------


def test_build_is_deterministic(tmp_path):
    a, b = tmp_path / "a.poly", tmp_path / "b.poly"
    assert run_cli(["build", "functional", "--n", "2", "--out", str(a)]) == 0
    assert run_cli(["build", "functional", "--n", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_build_to_stdout(capsys):
    assert run_cli(["build", "constants", "--n", "2"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("# diffcomp-poly 1")
    assert "a_{0,0}" in out
    assert err == "built constants listing: 2 terms over 4 variables (n=2)\n"


def test_build_truth_table_and_run_vector(tmp_path, capsys):
    t = TruthTable.make(2, [(1, 0), (1, 1)])  # F(b) = b0
    tt = tmp_path / "f.tt"
    tt.write_text(t.to_text())
    poly = tmp_path / "f.poly"
    assert run_cli(["build", "truth-table", "--table", str(tt),
                    "--out", str(poly)]) == 0
    assert capsys.readouterr() == ("", "built truth-table listing: 2 terms over 2 variables (n=2)\n")
    for bits, expected in (("00", 0), ("01", 0), ("10", 1), ("11", 1)):
        inp = tmp_path / "in.bits"
        inp.write_text(bits + "\n")
        assert run_cli(["run", str(poly), str(inp)]) == 0
        out, err = capsys.readouterr()
        assert out.strip() == str(expected)
        assert err.startswith("scalar ")


def test_run_inputs_accept_comments(tmp_path, capsys):
    t = TruthTable.make(2, [(1, 0)])
    tt, poly, inp = tmp_path / "f.tt", tmp_path / "f.poly", tmp_path / "in.bits"
    tt.write_text(t.to_text())
    assert run_cli(["build", "truth-table", "--table", str(tt), "--out", str(poly)]) == 0
    for text in ("# the one yes-instance\n10\n", "\n10\n# trailing note\n"):
        inp.write_text(text)
        capsys.readouterr()
        assert run_cli(["run", str(poly), str(inp)]) == 0
        assert capsys.readouterr().out.strip() == "1"


def test_build_iso_listing(tmp_path):
    g = graphs.Graph.from_edges(3, [(0, 1)])
    gf = tmp_path / "g.graph"
    gf.write_text(g.to_text())
    out = tmp_path / "iso.poly"
    assert run_cli(["build", "iso", "--graph", str(gf), "--out", str(out)]) == 0
    assert "# diffcomp-poly 1" in out.read_text()


def test_build_lagrange(tmp_path, capsys):
    t = TruthTable.make(1, [(1,)])
    tt = tmp_path / "id.tt"
    tt.write_text(t.to_text())
    assert run_cli(["build", "lagrange", "--table", str(tt)]) == 0
    out, _ = capsys.readouterr()
    assert "y_0" in out


def test_build_missing_arguments(tmp_path, capsys):
    assert run_cli(["build", "truth-table"]) == 2
    assert run_cli(["build", "functional"]) == 2
    assert run_cli(["build", "functional", "--n", "0"]) == 2
    capsys.readouterr()


def test_build_rejects_unknown_kind():
    with pytest.raises(SystemExit) as exc:
        run_cli(["build", "nope"])
    assert exc.value.code == 2


# -- run ----------------------------------------------------------------------


def test_run_matrix_kind(tmp_path, capsys):
    poly = tmp_path / "perm.poly"
    assert run_cli(["build", "permanent", "--n", "2", "--out", str(poly)]) == 0
    capsys.readouterr()
    for rows, expected in ((("10", "01"), 1), (("11", "11"), 0), (("10", "10"), 0)):
        inp = tmp_path / "m.txt"
        inp.write_text("\n".join(rows) + "\n")
        assert run_cli(["run", str(poly), str(inp), "--kind", "matrix"]) == 0
        out, _ = capsys.readouterr()
        assert out.strip() == str(expected)


def test_run_functional_kind(tmp_path, capsys):
    poly = tmp_path / "const.poly"
    assert run_cli(["build", "constants", "--n", "2", "--out", str(poly)]) == 0
    capsys.readouterr()
    cases = (("const:0", 1), ("const:1", 1), ("id", 0), ("1,0", 0))
    for spec, expected in cases:
        inp = tmp_path / "g.fn"
        inp.write_text(spec + "\n")
        assert run_cli(["run", str(poly), str(inp), "--kind", "functional"]) == 0
        out, _ = capsys.readouterr()
        assert out.strip() == str(expected)


def test_run_rejects_malformed_listing(tmp_path, capsys):
    bad = tmp_path / "bad.poly"
    bad.write_text("this is not a polynomial\n")
    inp = tmp_path / "in.bits"
    inp.write_text("0\n")
    assert run_cli(["run", str(bad), str(inp)]) == 2
    _, err = capsys.readouterr()
    assert "error:" in err


def test_run_rejects_wrong_arity(tmp_path, capsys):
    t = TruthTable.make(2, [(1, 1)])
    tt = tmp_path / "t.tt"
    tt.write_text(t.to_text())
    poly = tmp_path / "t.poly"
    run_cli(["build", "truth-table", "--table", str(tt), "--out", str(poly)])
    inp = tmp_path / "in.bits"
    inp.write_text("1\n")  # one bit for a two-variable listing
    assert run_cli(["run", str(poly), str(inp)]) == 2
    capsys.readouterr()


def test_run_rejects_missing_file(tmp_path, capsys):
    inp = tmp_path / "in.bits"
    inp.write_text("1\n")
    assert run_cli(["run", str(tmp_path / "absent.poly"), str(inp)]) == 2
    capsys.readouterr()


def test_run_flags_model_violation(tmp_path, capsys):
    # coefficient 2 is no root of unity: the post-power scalar is 2, not 0/1
    poly = tmp_path / "warped.poly"
    poly.write_text("# diffcomp-poly 1\n1 1\n1:[2] * a_0\n")
    inp = tmp_path / "in.bits"
    inp.write_text("1\n")
    assert run_cli(["run", str(poly), str(inp)]) == 3
    _, err = capsys.readouterr()
    assert "error:" in err


def test_run_bit_outside_the_listing_universe_is_zero(tmp_path, capsys):
    # a_0 * a_1 over 2 variables, run on 3 bits: the listing does not mention
    # a_2, so setting it differentiates the listing to zero
    poly = tmp_path / "narrow.poly"
    poly.write_text("# diffcomp-poly 1\n2 1\n1:[1/1] * a_0 * a_1\n")
    inp = tmp_path / "in.bits"
    for bits, expected in (("110", "1"), ("101", "0"), ("001", "0")):
        inp.write_text(bits + "\n")
        assert run_cli(["run", str(poly), str(inp)]) == 0
        out, err = capsys.readouterr()
        assert out == expected + "\n"
        assert err.startswith("scalar ")



@pytest.mark.parametrize("coefficient, shown", [("3/2", "3/2"), ("2/1", "2")])
def test_run_refuses_a_non_root_at_a_huge_declared_order_at_once(tmp_path, capsys, coefficient,
                                                                 shown):
    # (3/2)^(10^9) has about 10^8 digits; no root of unity, so no power is taken
    poly, inp = tmp_path / "big.poly", tmp_path / "in.bits"
    poly.write_text(f"1 1000000000\n1:[{coefficient}] * a_0\n")
    inp.write_text("1\n")
    assert poly.stat().st_size == 27
    start = time.perf_counter()
    assert run_cli(["run", str(poly), str(inp)]) == 3
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        f"error: post-power scalar ({shown})^1000000000 is neither 0 nor 1 at input "
        "monomial a_0; the program is not an additive listing"]


def test_run_decides_a_root_of_unity_at_a_huge_declared_order(tmp_path, capsys):
    poly, inp = tmp_path / "w4.poly", tmp_path / "in.bits"
    poly.write_text("1 1000000000\n4:[0/1,1/1] * a_0\n")  # w_4, and 4 divides 10^9
    inp.write_text("1\n")
    start = time.perf_counter()
    assert run_cli(["run", str(poly), str(inp)]) == 0
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().out == "1\n"


# -- verify and bound ------------------------------------------------------------


def test_verify_accepts_matching_certificate(tmp_path, capsys):
    listing = tmp_path / "c.poly"
    run_cli(["build", "constants", "--n", "2", "--out", str(listing)])
    cert = chow.trivial_decomposition(listings.listing_constant_functions(2))
    dec = tmp_path / "c.chow"
    dec.write_text(cert.to_text())
    capsys.readouterr()
    assert run_cli(["verify", str(dec), str(listing)]) == 0
    out, _ = capsys.readouterr()
    assert "verdict ACCEPT" in out
    assert "rho 2" in out
    assert "matches non-overlapping lower bound 2" in out


def test_verify_accepts_without_the_non_overlapping_scan_when_rho_is_not_the_term_count(
        tmp_path, capsys, monkeypatch):
    # one summand for the 4-term functional listing: the exact count (4) cannot be rho
    listing, dec = tmp_path / "f.poly", tmp_path / "f.chow"
    run_cli(["build", "functional", "--n", "2", "--out", str(listing)])
    dec.write_text(chow.functional_product_decomposition(2).to_text())

    def refuse(p):
        raise AssertionError("the term count already differs from rho")

    monkeypatch.setattr(chow, "non_overlapping_rank", refuse)
    capsys.readouterr()
    assert run_cli(["verify", str(dec), str(listing)]) == 0
    assert capsys.readouterr().out == "rho 1 degree 2 nvars 4\nverdict ACCEPT\n"


def test_verify_rejects_wrong_certificate(tmp_path, capsys):
    listing = tmp_path / "cyc.poly"
    run_cli(["build", "cyclic", "--n", "2", "--out", str(listing)])
    cert = chow.trivial_decomposition(listings.listing_constant_functions(2))
    dec = tmp_path / "c.chow"
    dec.write_text(cert.to_text())
    capsys.readouterr()
    assert run_cli(["verify", str(dec), str(listing)]) == 3
    out, _ = capsys.readouterr()
    assert "verdict REJECT" in out


def test_verify_rejects_malformed_decomposition(tmp_path, capsys):
    listing = tmp_path / "c.poly"
    run_cli(["build", "constants", "--n", "2", "--out", str(listing)])
    dec = tmp_path / "broken.chow"
    dec.write_text("not a decomposition\n")
    assert run_cli(["verify", str(dec), str(listing)]) == 2
    capsys.readouterr()


def test_bound_reports_all_three_lines(tmp_path, capsys):
    listing = tmp_path / "c.poly"
    run_cli(["build", "constants", "--n", "3", "--out", str(listing)])
    capsys.readouterr()
    assert run_cli(["bound", str(listing)]) == 0
    out, _ = capsys.readouterr()
    assert "upper 3" in out
    assert "lower 3" not in out  # degree 3, no quadratic bound
    assert "exact 3" in out


def test_bound_quadratic_listing(tmp_path, capsys):
    listing = tmp_path / "c2.poly"
    run_cli(["build", "constants", "--n", "2", "--out", str(listing)])
    capsys.readouterr()
    assert run_cli(["bound", str(listing)]) == 0
    out, _ = capsys.readouterr()
    assert "upper 2" in out and "lower 2" in out and "exact 2" in out


def test_bound_costs_nothing_for_a_wide_declared_universe(tmp_path, capsys):
    # the rank bound works over the variables the terms use, not the declared 400
    listing = tmp_path / "wide.poly"
    listing.write_text("400 1\n1:[1/1] * a_0 * a_1\n")
    start = time.perf_counter()
    assert run_cli(["bound", str(listing)]) == 0
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().out == "upper 1\nlower 1\nexact 1\n"


def test_bound_pairwise_products_all_three_lines(tmp_path, capsys):
    listing = tmp_path / "p2.poly"
    listing.write_text(poly_to_text(chow.pm_polynomial(3, 2)))
    assert run_cli(["bound", str(listing)]) == 0
    out, _ = capsys.readouterr()
    assert "upper 3" in out and "lower 3" in out and "exact 3" in out


def test_bound_on_the_3000_term_p2_costs_the_nonzeros(tmp_path, capsys):
    # 6,000 variables: the rank must cost in the 6,000 nonzeros of the first partials,
    # not in the 36 million slots of a dense matrix
    listing = tmp_path / "p2.poly"
    listing.write_text(poly_to_text(chow.pm_polynomial(3000, 2)))
    start = time.perf_counter()
    assert run_cli(["bound", str(listing)]) == 0
    assert time.perf_counter() - start < 2
    assert capsys.readouterr().out == "upper 3000\nlower 3000\nexact 3000\n"


@pytest.mark.parametrize("order", [307, 401])
def test_bound_on_a_one_term_quadratic_of_a_large_prime_order_inverts_nothing(
        order, tmp_path, capsys):
    # c a_0 a_1, c of prime order with seeded coordinates in -3..3: the first partials have full
    # rank 2, which the modular pass proves; inverting c exactly took 14.6 s at order 307 (a whole
    # process on a 2-CPU host, Python 3.11)
    rng = random.Random(order)
    c = ",".join(f"{rng.randint(-3, 3)}/1" for _ in range(order - 1))
    listing = tmp_path / "b.poly"
    listing.write_text(f"# diffcomp-poly 1\n2 {order}\n{order}:[{c}] * a_0 * a_1\n")
    start = time.perf_counter()
    assert run_cli(["bound", str(listing)]) == 0
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().out == "upper 1\nlower 1\nexact 1\n"


def test_bound_with_certificate(tmp_path, capsys):
    listing = tmp_path / "f.poly"
    run_cli(["build", "functional", "--n", "2", "--out", str(listing)])
    cert = chow.functional_product_decomposition(2)
    cf = tmp_path / "f.chow"
    cf.write_text(cert.to_text())
    capsys.readouterr()
    assert run_cli(["bound", str(listing), "--certificate", str(cf)]) == 0
    out, _ = capsys.readouterr()
    assert "upper 4" in out and "certificate 1" in out


def test_bound_rejects_lying_certificate(tmp_path, capsys):
    listing = tmp_path / "c.poly"
    run_cli(["build", "cyclic", "--n", "2", "--out", str(listing)])
    cert = chow.functional_product_decomposition(2)  # expands to a different poly
    cf = tmp_path / "wrong.chow"
    cf.write_text(cert.to_text())
    capsys.readouterr()
    assert run_cli(["bound", str(listing), "--certificate", str(cf)]) == 3
    capsys.readouterr()


def _all_ones_decomposition(degree: int, nvars: int) -> str:
    """rho = 1: the product of `degree` forms 1 + x_0 + ... + x_{nvars-1}."""
    row = " ".join(["1:[1]"] * (nvars + 1))
    return f"# diffcomp-chow 1\n1 {degree} {nvars} 1\n" + f"{row}\n" * degree


def test_verify_caps_the_expansion_of_a_tiny_file(tmp_path, capsys, monkeypatch):
    # the product has C(24, 8) = 735,471 terms; the 17 x 17 first step is over the cap
    dec, listing = tmp_path / "ones.chow", tmp_path / "x0.poly"
    dec.write_text(_all_ones_decomposition(8, 16))
    listing.write_text("# diffcomp-poly 1\n16 1\n1:[1] * a_0\n")
    assert dec.stat().st_size == 843
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "100")
    start = time.perf_counter()
    assert run_cli(["verify", str(dec), str(listing)]) == 2
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert out == "" and "over the cap of 100" in err


def test_verify_refuses_the_functional_certificate_at_its_first_product_over_the_cap(
        tmp_path, capsys, monkeypatch):
    # its one summand is expanded as one product over its entries, charged step by step as
    # MultiPoly * charges: 5 x 5 pairs, then 25 x 5, which passes the cap
    dec, listing = tmp_path / "f5.chow", tmp_path / "f5.poly"
    dec.write_text(chow.functional_product_decomposition(5).to_text())
    listing.write_text(poly_to_text(listings.listing_functional_graphs(5)))
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "100")
    assert run_cli(["verify", str(dec), str(listing)]) == 2
    assert capsys.readouterr() == ("", "error: multiplying 25-term by 5-term polynomials needs "
                                       "125 terms, over the cap of 100\n")


def test_verify_refuses_at_the_first_summand_that_is_not_ordered(tmp_path, capsys, monkeypatch):
    # summand 0, (1 + x0 + x1)^2, has a constant, so the check goes to `expand`, which refuses
    # its 3 x 3 product; summand 1, (x2 + ... + x7) x8, would need 6 pairs, but is never folded
    dec, listing = tmp_path / "two.chow", tmp_path / "x0.poly"
    form = {0: 1, 1: 1, None: 1}
    dec.write_text(chow.ChowDecomposition(2, 2, 12, [
        [form, form], [dict.fromkeys(range(2, 8), 1), {8: 1}]]).to_text())
    listing.write_text("# diffcomp-poly 1\n12 1\n1:[1] * a_0\n")
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "4")
    assert run_cli(["verify", str(dec), str(listing)]) == 2
    assert capsys.readouterr() == ("", "error: multiplying 3-term by 3-term polynomials needs "
                                       "9 terms, over the cap of 4\n")


def test_default_cap_admits_the_functional_certificate_and_stops_a_larger_product(
        tmp_path, capsys):
    # a 6-form product peaks at 7,776 x 6 = 46,656 pairs under the default cap of 100,000
    assert chow.verify(chow.functional_product_decomposition(6),
                       listings.listing_functional_graphs(6))
    dec, listing = tmp_path / "ones.chow", tmp_path / "x0.poly"
    dec.write_text(_all_ones_decomposition(8, 16))
    listing.write_text("# diffcomp-poly 1\n16 1\n1:[1] * a_0\n")
    assert run_cli(["verify", str(dec), str(listing)]) == 2
    _, err = capsys.readouterr()
    assert "20349-term by 17-term" in err and "over the cap of 100000" in err


def test_build_lagrange_caps_the_interpolant_of_a_tiny_table(tmp_path, capsys, monkeypatch):
    # one yes-instance, all zeros: prod_i (1 - y_i) has 2^13 terms
    tt = tmp_path / "zeros.tt"
    tt.write_text("# diffcomp-tt 1\n13 1\n0000000000000 0\n")
    assert tt.stat().st_size == 37
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "100")
    start = time.perf_counter()
    assert run_cli(["build", "lagrange", "--table", str(tt)]) == 2
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert out == "" and "over the cap of 100" in err


def test_build_truth_table_charges_its_declared_order_before_a_coefficient(tmp_path, capsys):
    # 16 bytes declaring order 10^8: each coefficient would carry phi(m) coordinates
    tt = tmp_path / "huge.tt"
    tt.write_text("1 100000000\n1 0\n")
    assert tt.stat().st_size == 16
    start = time.perf_counter()
    assert run_cli(["build", "truth-table", "--table", str(tt)]) == 2
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: truth-table listing needs 100000000 coordinates, "
                   "over the cap of 100000\n")


def test_a_long_truth_table_header_gives_one_short_error_line(tmp_path, capsys):
    # a 5,002-character header: its order has more than 4,300 digits, so int() refuses it
    tt = tmp_path / "long.tt"
    tt.write_text("1 " + "9" * 5000 + "\n1 0\n")
    assert run_cli(["build", "truth-table", "--table", str(tt)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err) < 300
    assert err.startswith("error: bad tt header '1 999") and err.endswith("999'...\n")


def test_the_default_cap_admits_every_truth_table_order_up_to_itself(tmp_path, capsys,
                                                                     monkeypatch):
    tt = tmp_path / "wide.tt"
    tt.write_text("1 100000\n1 1\n")
    assert run_cli(["build", "truth-table", "--table", str(tt)]) == 0
    assert capsys.readouterr().out.startswith("# diffcomp-poly 1\n1 100000\n100000:[0/1,1/1,")
    tt.write_text("1 100001\n1 1\n")
    assert run_cli(["build", "truth-table", "--table", str(tt)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 1 and "100001 coordinates" in err
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "100001")
    assert run_cli(["build", "truth-table", "--table", str(tt)]) == 0
    assert capsys.readouterr().out.startswith("# diffcomp-poly 1\n1 100001\n100001:[0/1,1/1,")


@pytest.mark.parametrize("files, argv", [
    pytest.param({"p.poly": "2 1\n1:[1/1] * a_0\n", "in": "11\n"}, ["run", "p.poly", "in"],
                 id="run-vector"),
    pytest.param({"p.poly": "4 1\n1:[1/1] * a_{0,0} * a_{1,1}\n", "in": "0,1\n"},
                 ["run", "p.poly", "in", "--kind", "functional"], id="run-functional"),
    pytest.param({"t.tt": "2 1\n11 0\n"},  # every Lagrange factor a single variable: no charge
                 ["build", "lagrange", "--table", "t.tt", "--out", "out.poly"], id="lagrange"),
    pytest.param({"s.graphset": "2\n0 1\n0 0\n"},
                 ["transform", "s.graphset", "--out-prefix", "out"], id="transform"),
    pytest.param({"c.chow": "1 1 1 1\n1:[1] 1:[0]\n", "p.poly": "1 1\n1:[1/1] * a_0\n"},
                 ["verify", "c.chow", "p.poly"], id="verify")])
def test_every_command_refuses_a_malformed_cap_before_it_works(tmp_path, capsys, monkeypatch,
                                                                files, argv):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "many")
    assert run_cli([str(tmp_path / a) if a in files or a.startswith("out") else a for a in argv]) == 2
    assert capsys.readouterr() == ("", "error: DIFFCOMP_MAX_TERMS must be an integer, got 'many'\n")
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(files)


# -- transform -------------------------------------------------------------------


def test_transform_writes_files_and_recovers(tmp_path, capsys):
    gs = [graphs.Graph.from_edges(2, [(0, 1)]), graphs.Graph.empty(2)]
    gsf = tmp_path / "in.graphset"
    gsf.write_text(graphs.graph_set_to_text(gs))
    prefix = str(tmp_path / "outT")
    assert run_cli(["transform", str(gsf), "--mode", "T",
                    "--out-prefix", prefix]) == 0
    out, _ = capsys.readouterr()
    assert "restriction recovery PASS" in out
    for suffix in (".graphset", ".before.poly", ".after.poly"):
        assert (tmp_path / ("outT" + suffix)).exists()
    # the written graph set parses back into functional graphs
    back = graphs.graph_set_from_text((tmp_path / "outT.graphset").read_text())
    assert all(is_functional(g) for g in back)


def test_transform_tf_needs_seed_function(tmp_path, capsys):
    gs = [graphs.Graph.empty(1)]
    gsf = tmp_path / "in.graphset"
    gsf.write_text(graphs.graph_set_to_text(gs))
    assert run_cli(["transform", str(gsf), "--mode", "Tf"]) == 2
    capsys.readouterr()
    assert run_cli(["transform", str(gsf), "--mode", "Tf", "--f", "0,0",
                    "--out-prefix", str(tmp_path / "outf")]) == 0
    out, _ = capsys.readouterr()
    assert "restriction recovery PASS" in out


@pytest.mark.parametrize("mode", [["--mode", "T"], []])
def test_transform_refuses_a_seed_function_outside_mode_tf(tmp_path, capsys, mode):
    gsf = tmp_path / "in.graphset"
    gsf.write_text(graphs.graph_set_to_text([graphs.Graph.empty(2)]))
    prefix = tmp_path / "out"
    assert run_cli(["transform", str(gsf), *mode, "--f", "0,0", "--out-prefix", str(prefix)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: --f applies only to --mode Tf\n"
    assert list(tmp_path.iterdir()) == [gsf]


def test_transform_reports_a_failed_recovery_and_exits_3(tmp_path, capsys, monkeypatch):
    gsf = tmp_path / "in.graphset"
    gsf.write_text(graphs.graph_set_to_text([graphs.Graph.from_edges(2, [(0, 1)])]))
    monkeypatch.setattr(graphs, "recovers_original", lambda *args: False)
    assert run_cli(["transform", str(gsf), "--out-prefix", str(tmp_path / "out")]) == 3
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "restriction recovery FAIL"
    assert err == "error: restriction did not recover the original listing\n"


def test_transform_rejects_mixed_sizes(tmp_path, capsys):
    gs = tmp_path / "in.graphset"
    gs.write_text(graphs.graph_set_to_text([graphs.Graph.empty(2), graphs.Graph.empty(3)]))
    assert run_cli(["transform", str(gs)]) == 2
    _, err = capsys.readouterr()
    assert "mixed vertex counts [2, 3]" in err


# -- selftest ---------------------------------------------------------------------


def test_selftest_passes(capsys):
    assert run_cli(["selftest"]) == 0
    out, _ = capsys.readouterr()
    assert "selftest passed" in out
    assert "FAIL" not in out


def test_selftest_reports_a_failed_check_and_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(chow, "verify", lambda *args: False)
    assert run_cli(["selftest"]) == 3
    out, _ = capsys.readouterr()
    assert "FAIL  P_m rank n=1 m=2" in out
    assert out.splitlines()[-1] == "selftest FAILED"


def test_selftest_seed_changes_cases(capsys):
    assert run_cli(["selftest", "--seed", "7"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("kind", ["constants", "cyclic"])
def test_build_charges_the_factor_count_before_it_builds(kind, capsys):
    # 3,000 terms pass the term cap, but 9,000,000 factors are over 4 x 100,000
    start = time.perf_counter()
    assert run_cli(["build", kind, "--n", "3000"]) == 2
    assert time.perf_counter() - start < 0.5
    out, err = capsys.readouterr()
    assert out == "" and err.count("error:") == 1
    assert "needs 9000000 factors, over the cap of 400000" in err


@pytest.mark.parametrize("kind, n", [("functional", 2000), ("determinant", 2000),
                                     ("permanent", 100000), ("permanent", 1000000),
                                     ("functional", 1000000)])
def test_build_refuses_a_count_past_the_cap_without_writing_it(kind, n, capsys, monkeypatch):
    # n^n and n! here have thousands to millions of digits, more than str() of an int allows:
    # the charge stops multiplying once the product passes the cap, so it never writes them
    monkeypatch.delenv("DIFFCOMP_MAX_TERMS", raising=False)
    start = time.perf_counter()
    assert run_cli(["build", kind, "--n", str(n)]) == 2
    assert time.perf_counter() - start < 1
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1 and "Traceback" not in err
    assert err.startswith("error: ")
    assert "needs more than 100000 terms, over the cap of 100000" in err


def test_build_refuses_a_negative_n_before_the_pair_table(capsys, monkeypatch):
    # the pair table of n = -100000 would hold n^2 = 10^10 pairs
    def constructor(*args):
        pytest.fail("the matrix-listing constructor, which builds the pair table, was reached")

    monkeypatch.setattr(listings, "_matrix_listing", constructor)
    assert run_cli(["build", "permanent", "--n", "-100000"]) == 2
    assert capsys.readouterr() == ("", "error: n must be positive\n")


def test_the_default_factor_budget_admits_the_functional_listing_n6(tmp_path, capsys):
    # 6^6 = 46,656 terms of 6 factors: 279,936 factors, under 400,000
    assert run_cli(["build", "functional", "--n", "6", "--out", str(tmp_path / "f6.poly")]) == 0
    assert "46656 terms" in capsys.readouterr().err


def test_verify_rejects_a_changed_entry_from_its_probes(tmp_path, capsys, monkeypatch):
    # the rho = 1 functional certificate for n = 3 with the entry of a_{1,1} doubled
    listing, good, bad = tmp_path / "f3.poly", tmp_path / "good.chow", tmp_path / "bad.chow"
    run_cli(["build", "functional", "--n", "3", "--out", str(listing)])
    cert = chow.functional_product_decomposition(3)
    good.write_text(cert.to_text())
    bad.write_text(cert.to_text().replace("1:[1/1]", "1:[2/1]", 5).replace("1:[2/1]", "1:[1/1]", 4))
    capsys.readouterr()
    expanded = []
    real_expand = chow.expand
    monkeypatch.setattr(chow, "expand", lambda c: expanded.append(c) or real_expand(c))
    assert run_cli(["verify", str(good), str(listing)]) == 0
    assert capsys.readouterr().out == "rho 1 degree 3 nvars 9\nverdict ACCEPT\n"
    assert not expanded  # the ordered certificate's terms are looked up in the listing
    assert run_cli(["verify", str(bad), str(listing)]) == 3
    assert capsys.readouterr().out == "rho 1 degree 3 nvars 9\nverdict REJECT\n"
    assert not expanded
    assert run_cli(["bound", str(listing), "--certificate", str(bad)]) == 3
    assert capsys.readouterr().err.count("error:") == 1
    assert not expanded


# -- typed errors only --------------------------------------------------------------


@pytest.mark.parametrize("spec", ["const:x", "shift:y", "const:", "shift:1,0"])
def test_run_functional_refuses_a_shorthand_without_an_integer(tmp_path, capsys, spec):
    poly, inp = tmp_path / "c.poly", tmp_path / "g.fn"
    assert run_cli(["build", "constants", "--n", "2", "--out", str(poly)]) == 0
    inp.write_text(spec + "\n")
    capsys.readouterr()
    assert run_cli(["run", str(poly), str(inp), "--kind", "functional"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"error: bad function {spec!r}"]


# (listing, input, --kind, a phrase of the DimensionError that `run` must turn into exit 2)
DIMENSION_ERRORS_FROM_RUN = [
    ("3 1\n1:[1/1] * a_2\n", "10\n", "vector", "vector inputs of arity 2 allow 2"),
    ("5 1\n1:[1/1] * a_4\n", "10\n01\n", "matrix", "matrix inputs of arity 2 allow 4"),
    ("3 1\n1:[1/1] * a_2\n", "0\n", "functional", "functional inputs of arity 1 allow 1"),
    ("1 2\n3:[0/1,1/1] * a_0\n", "1\n", "vector", "does not divide the declared order 2"),
    ("4 1\n1:[1/1] * a_{0,0}\n", "const:7\n", "functional", "image 7 outside Z_2"),
    ("0 1\n1:[1/1]\n", "const:0\n", "functional", "domain size must be positive"),
]


@pytest.mark.parametrize("listing, given, kind, phrase", DIMENSION_ERRORS_FROM_RUN)
def test_every_dimension_error_reachable_from_run_exits_2(tmp_path, capsys, monkeypatch, listing,
                                                          given, kind, phrase):
    from diffcomp.errors import DiffcompError, DimensionError

    assert issubclass(DimensionError, DiffcompError) and issubclass(DimensionError, ValueError)
    raised, real_run = [], cli.cmd_run

    def spy(args):  # what cmd_run raised, before main maps it to an exit code
        try:
            return real_run(args)
        except Exception as exc:
            raised.append(type(exc))
            raise

    monkeypatch.setattr(cli, "cmd_run", spy)
    poly, inp = tmp_path / "p.poly", tmp_path / "p.in"
    poly.write_text(listing)
    inp.write_text(given)
    code = run_cli(["run", str(poly), str(inp), "--kind", kind])
    out, err = capsys.readouterr()
    assert (code, out, raised) == (2, "", [DimensionError])
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and phrase in err


def test_an_untyped_exception_is_a_traceback_not_an_exit_code(tmp_path, monkeypatch):
    from diffcomp import engine

    poly, inp = tmp_path / "p.poly", tmp_path / "p.in"
    poly.write_text("1 1\n1:[1/1] * a_0\n")
    inp.write_text("1\n")

    def broken(dc, bits):
        raise ValueError("a bug, not an input error")

    monkeypatch.setattr(engine, "run_vector", broken)
    with pytest.raises(ValueError, match="a bug"):
        run_cli(["run", str(poly), str(inp)])


def test_run_names_a_power_too_long_to_print_as_a_power(tmp_path, capsys):
    # 7...7 (3,000 digits) squared has 6,000 digits, past what str() of an int allows
    digits = "7" * 3000
    poly, inp = tmp_path / "big.poly", tmp_path / "in.bits"
    poly.write_text(f"1 2\n1:[{digits}/1] * a_0\n")
    inp.write_text("1\n")
    assert run_cli(["run", str(poly), str(inp)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "error: post-power scalar (<order-1 coefficient>)^2 is neither 0 nor 1 at input monomial "
        "a_0; the program is not an additive listing"]


def test_run_names_a_long_coefficient_by_its_order(tmp_path, capsys):
    # one order-401 coefficient, 400 coordinates in -3..3: its 401st power, which the
    # message once printed, has integers hundreds of digits long in each coordinate
    coords = ",".join(f"{(-1) ** i * (1 + i % 3)}/1" for i in range(400))
    poly, inp = tmp_path / "long.poly", tmp_path / "in.bits"
    poly.write_text(f"1 401\n401:[{coords}] * a_0\n")
    inp.write_text("1\n")
    assert poly.stat().st_size == 1818
    assert run_cli(["run", str(poly), str(inp)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [
        "error: post-power scalar (<order-401 coefficient>)^401 is neither 0 nor 1 at input "
        "monomial a_0; the program is not an additive listing"]
    assert len(err.encode()) <= 400


def test_transform_dimension_errors_keep_their_message(tmp_path, capsys):
    gs = tmp_path / "one.graphset"
    gs.write_text(graphs.graph_set_to_text([graphs.Graph.from_edges(1, [(0, 0)])]))
    assert run_cli(["transform", str(gs), "--out-prefix", str(tmp_path / "t")]) == 2
    assert capsys.readouterr().err == "error: transform T needs a graph on at least 2 vertices\n"


@pytest.mark.parametrize("name", ["a_{digits}", "a_{{{digits},0}}"])
def test_a_variable_index_too_long_for_int_is_a_format_error(tmp_path, capsys, name):
    poly, inp = tmp_path / "p.poly", tmp_path / "p.in"
    poly.write_text(f"4 1\n1:[1/1] * {name.format(digits='1' * 5000)}\n")
    inp.write_text("1\n")
    assert run_cli(["run", str(poly), str(inp)]) == 2
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: bad variable index")


# -- typed errors no other test reaches ----------------------------------------------


def test_build_out_to_a_path_that_cannot_be_written_exits_2(tmp_path, capsys):
    for out in (tmp_path / "missing" / "x.poly", tmp_path):  # no such directory; a directory
        assert run_cli(["build", "functional", "--n", "2", "--out", str(out)]) == 2
        out_text, err = capsys.readouterr()
        assert out_text == "" and err.startswith(f"error: cannot write {out}: ")
        assert len(err.splitlines()) == 1


def test_transform_out_prefix_that_cannot_be_written_exits_2(tmp_path, capsys):
    gsf = tmp_path / "in.graphset"
    gsf.write_text(graphs.graph_set_to_text([graphs.Graph.empty(2)]))
    prefix = tmp_path / "missing" / "t"
    assert run_cli(["transform", str(gsf), "--mode", "T", "--out-prefix", str(prefix)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: cannot write {prefix}.graphset: ")


def test_build_iso_needs_a_graph(capsys):
    assert run_cli(["build", "iso"]) == 2
    assert capsys.readouterr() == ("", "error: build iso needs --graph\n")


def test_a_functional_input_of_two_lines_exits_2(tmp_path, capsys):
    listing, inp = tmp_path / "f.poly", tmp_path / "two.fn"
    listing.write_text(poly_to_text(listings.listing_functional_graphs(2)))
    inp.write_text("0,1\n1,0\n")
    assert run_cli(["run", str(listing), str(inp), "--kind", "functional"]) == 2
    assert capsys.readouterr() == ("", "error: functional input file must hold one image list\n")


def test_verify_refuses_a_decomposition_narrower_than_the_listing(tmp_path, capsys):
    listing, dec = tmp_path / "f.poly", tmp_path / "narrow.chow"
    listing.write_text(poly_to_text(listings.listing_functional_graphs(2)))
    dec.write_text("# diffcomp-chow 1\n1 1 1 1\n1:[1] 1:[0]\n")
    assert run_cli(["verify", str(dec), str(listing)]) == 2
    assert capsys.readouterr() == (
        "", "error: decomposition over 1 variables cannot express a 4-variable listing\n")


def test_bound_refuses_a_certificate_narrower_than_the_listing(tmp_path, capsys):
    # the same width rule as verify, so the same exit and message
    listing, dec = tmp_path / "f.poly", tmp_path / "narrow.chow"
    listing.write_text(poly_to_text(listings.listing_functional_graphs(2)))
    dec.write_text("# diffcomp-chow 1\n1 1 1 1\n1:[1] 1:[0]\n")
    assert run_cli(["bound", str(listing), "--certificate", str(dec)]) == 2
    assert capsys.readouterr() == (
        "upper 4\n", "error: decomposition over 1 variables cannot express a 4-variable listing\n")


def test_verify_reports_the_listing_error_when_both_files_are_malformed(tmp_path, capsys):
    listing, dec = tmp_path / "bad.poly", tmp_path / "bad.chow"
    listing.write_text("# diffcomp-poly 1\nfour six\n")
    dec.write_text("not a decomposition\n")
    assert run_cli(["verify", str(dec), str(listing)]) == 2
    assert capsys.readouterr() == ("", "error: bad poly header 'four six'\n")


def test_the_non_overlapping_count_builds_no_certificate(tmp_path, capsys, monkeypatch):
    listing, dec = tmp_path / "p2.poly", tmp_path / "p2.chow"
    listing.write_text(poly_to_text(chow.pm_polynomial(3, 2)))
    dec.write_text(chow.trivial_decomposition(chow.pm_polynomial(3, 2)).to_text())

    def refuse(p):
        raise AssertionError("the count alone needs no certificate")

    monkeypatch.setattr(chow, "trivial_decomposition", refuse)
    assert run_cli(["bound", str(listing)]) == 0
    assert "exact 3\n" in capsys.readouterr().out
    assert run_cli(["verify", str(dec), str(listing)]) == 0
    assert "matches non-overlapping lower bound 3\n" in capsys.readouterr().out


# -- bounded refusals ----------------------------------------------------------------

TERM = " * ".join(f"a_{i}" for i in range(3000))  # a_0 * ... * a_2999
ON_2X2 = "4 1\n1:[1/1] * a_{0,0}\n"  # a listing over the 2x2 matrix variables
ALL_55X55 = " * ".join(f"a_{{{i},{j}}}" for i in range(55) for j in range(55))


def overlong(name, files, argv, phrase, limit=300):
    return pytest.param(files, argv, phrase, limit, id=name)


# files, argv with {file} placeholders, a phrase the one error line keeps, and its byte limit
OVERLONG_INPUTS = [
    overlong("vector-file", {"p.poly": "1 1\n1:[1/1] * a_0\n", "in": "0" * 4999 + "2\n"},
             ["run", "{p.poly}", "{in}"], "bad bit-vector file content '000"),
    overlong("function-file", {"p.poly": ON_2X2, "in": "0," * 3000 + "0\n"},
             ["run", "{p.poly}", "{in}", "--kind", "functional"], "'... must list 2 images"),
    overlong("function-option", {"s.graphset": "2\n0 1\n1 0\n"},
             ["transform", "{s.graphset}", "--mode", "Tf", "--f", "0," * 3000 + "0",
              "--out-prefix", "{out}"], "'... must list 2 images"),
    # an image of 4,000 digits, inside the 4,300 that int() reads, from a file, --f and const:
    overlong("image-file", {"p.poly": ON_2X2, "in": "1" * 4000 + ",0\n"},
             ["run", "{p.poly}", "{in}", "--kind", "functional"], "image over 2^600 outside Z_2"),
    overlong("image-option", {"s.graphset": "2\n0 1\n1 0\n"},
             ["transform", "{s.graphset}", "--mode", "Tf", "--f", "1" * 4000 + ",0",
              "--out-prefix", "{out}"], "image over 2^600 outside Z_2"),
    overlong("image-constant", {"p.poly": ON_2X2, "in": "const:" + "1" * 4000 + "\n"},
             ["run", "{p.poly}", "{in}", "--kind", "functional"], "image over 2^600 outside Z_2"),
    overlong("image-negative", {"p.poly": ON_2X2, "in": "0,-" + "1" * 4000 + "\n"},
             ["run", "{p.poly}", "{in}", "--kind", "functional"], "image under -2^600 outside Z_2"),
    overlong("coefficient", {"p.poly": "1 1\n1:[" + ",".join(["1/1"] * 3000) + "] * a_0\n",
                             "in": "1\n"},
             ["run", "{p.poly}", "{in}"], "bad cyclotomic value '1:[1/1,"),
    overlong("duplicate-line", {"p.poly": f"3000 1\n1:[1/1] * {TERM}\n1:[1/1] * {TERM}\n",
                                "in": "1\n"},
             ["run", "{p.poly}", "{in}"], "duplicate monomial on line '1:[1/1] * a_0"),
    overlong("matrix-row", {"p.poly": ON_2X2, "in": " ".join(["0"] * 3000) + " 2\n"},
             ["run", "{p.poly}", "{in}", "--kind", "matrix"], "bad matrix row '0 0"),
    overlong("adjacency-row", {"g.graph": "1\n" + " ".join(["0"] * 2999) + " 2\n"},
             ["build", "iso", "--graph", "{g.graph}"], "bad adjacency row '0 0"),
    overlong("tt-bits", {"t.tt": "2 1\n" + "1" * 3000 + " 0\n"},
             ["build", "truth-table", "--table", "{t.tt}"], "'... for arity 2"),
    overlong("tt-phase", {"t.tt": "2 1\n11 " + "x" * 3000 + "\n"},
             ["build", "truth-table", "--table", "{t.tt}"], "bad phase 'xxx"),
    overlong("chow-line", {"p.poly": "2 1\n1:[1/1] * a_0\n",
                           "c.chow": "1 1 2 1\n" + "1:[1] " * 3000},
             ["verify", "{c.chow}", "{p.poly}"], "expected 3 entries on line '1:[1]"),
    overlong("header-kind", {"p.poly": "# diffcomp-" + "x" * 3000 + " 1\n1 1\n", "in": "1\n"},
             ["run", "{p.poly}", "{in}"], "found where '# diffcomp-poly 1' belongs"),
    overlong("run-witness", {"p.poly": f"3000 1\n1:[2/1] * {TERM}\n", "in": "1" * 3000 + "\n"},
             ["run", "{p.poly}", "{in}"], "... (degree 3000); the program is not"),
    # the one message that quotes two monomials, the term and the function's graph
    overlong("functional-term", {"p.poly": f"3025 1\n1:[1/1] * {ALL_55X55}\n",
                                 "in": ",".join(map(str, range(55))) + "\n"},
             ["run", "{p.poly}", "{in}", "--kind", "functional"],
             "... (degree 3025) contains input monomial a_{0,0} * a_{1,1}", limit=600),
    # two exponents of 4,300 digits: a degree too long for str(), and no whole factor to show
    overlong("huge-exponents", {"p.poly": "4 1\n1:[1/1] * a_{0,0}^%s * a_{1,1}^%s\n" % (
        "9" * 4300, "9" * 4300), "in": "0,1\n"},
             ["run", "{p.poly}", "{in}", "--kind", "functional"],
             "term ... (degree over 2^600) contains input monomial a_{0,0} * a_{1,1}"),
]


@pytest.mark.parametrize("files, argv, phrase, limit", OVERLONG_INPUTS)
def test_an_overlong_input_gives_one_short_error_line(tmp_path, capsys, files, argv, phrase,
                                                      limit):
    paths = {"out": str(tmp_path / "out")}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    code = run_cli([paths[arg[1:-1]] if arg.startswith("{") else arg for arg in argv])
    out, err = capsys.readouterr()
    assert code in (2, 3) and out == "" and "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith("error: ") and phrase in err
    assert len(err.encode()) <= limit, err


BIG = "1" + "0" * 3999  # a header number of 4,000 digits, past the 600 bits a refusal writes
HALF = "1" + "0" * 2499  # two of these multiply to 5,000 digits, past what str() of an int allows
ONE_VAR = "1 1\n1:[1/1] * a_0\n"
COEFF_123 = "13:[" + "113/1," * 11 + "13/1]"  # str() writes it in 123 characters
FORTY = " * ".join(f"a_{i}" for i in range(40))
NARROW = "1 1 1 1\n1:[1] 1:[0]\n"  # a certificate over one variable

# as OVERLONG_INPUTS: a number read from a header is written whole only up to 600 bits, and
# nothing sized by a header is built before the lines that should fill it are checked
HEADER_NUMBERS = [
    overlong("chow-n-10^7", {"p.poly": ONE_VAR,
                             "c.chow": "# diffcomp-chow 1\n1 1 10000000 1\n1:[1] 1:[0]\n"},
             ["verify", "{c.chow}", "{p.poly}"], "expected 10000001 entries on line '1:[1] 1:[0]'"),
    overlong("chow-rho-d", {"p.poly": ONE_VAR, "c.chow": f"{HALF} {HALF} 1 1\n1:[1] 1:[0]\n"},
             ["verify", "{c.chow}", "{p.poly}"], "expected over 2^600 form lines, found 1"),
    overlong("chow-n", {"p.poly": ONE_VAR, "c.chow": f"1 1 {BIG} 1\n1:[1] 1:[0]\n"},
             ["verify", "{c.chow}", "{p.poly}"], "expected over 2^600 entries on line"),
    overlong("run-order", {"p.poly": f"1 {BIG}\n3:[0/1,1/1] * a_0\n", "in": "1\n"},
             ["run", "{p.poly}", "{in}"], "does not divide the declared order over 2^600"),
    overlong("run-power", {"p.poly": f"2 {BIG}\n1:[2/1] * a_0 * a_1\n", "in": "11\n"},
             ["run", "{p.poly}", "{in}"], "post-power scalar (2)^over 2^600 is neither"),
    overlong("run-nvars", {"p.poly": f"{BIG} 1\n", "in": "11\n"},
             ["run", "{p.poly}", "{in}"], "program uses over 2^600 variables"),
    overlong("run-functional-n", {"p.poly": f"{BIG} 1\n", "in": "0,0\n"},
             ["run", "{p.poly}", "{in}", "--kind", "functional"], "must list over 2^600 images"),
    overlong("verify-nvars", {"p.poly": f"{BIG} 1\n1:[1/1] * a_0\n", "c.chow": NARROW},
             ["verify", "{c.chow}", "{p.poly}"], "cannot express a over 2^600-variable listing"),
    overlong("graph-n", {"g.graph": f"{BIG}\n0\n"},
             ["build", "iso", "--graph", "{g.graph}"], "expected over 2^600 adjacency rows"),
    overlong("graphset-n", {"s.graphset": f"{BIG}\n0\n"},
             ["transform", "{s.graphset}", "--out-prefix", "{out}"], "expected over 2^600 adj"),
    overlong("tt-n", {"t.tt": f"{BIG} 1\n1 0\n"},
             ["build", "truth-table", "--table", "{t.tt}"], "'1' for arity over 2^600"),
    overlong("matrix-side", {"p.poly": f"1{'0' * 4000} 1\n1:[1/1] * a_{{1{'0' * 2001},0}}\n",
                             "in": "1\n"},
             ["run", "{p.poly}", "{in}"], "outside the over 2^600xover 2^600 matrix"),
    # an order of 181 digits, written whole, left the cut witness no room: 326 bytes before
    overlong("run-order-599-bits", {"p.poly": f"3000 {2 ** 599 + 1}\n1:[2/1] * {TERM}\n",
                                    "in": "1" * 3000 + "\n"},
             ["run", "{p.poly}", "{in}"], "^over 2^599 is neither 0 nor 1 at input monomial a_0"),
    # a coefficient, the order and a cut witness share one budget: 342 bytes before it
    overlong("run-shared-budget", {"p.poly": f"40 13\n{COEFF_123} * {FORTY}\n", "in": "1" * 40},
             ["run", "{p.poly}", "{in}"], "scalar (<order-13 coefficient>)^13 is neither 0"),
]


@pytest.mark.parametrize("files, argv, phrase, limit", HEADER_NUMBERS)
def test_a_header_number_past_600_bits_is_named_by_its_size(tmp_path, capsys, files, argv,
                                                            phrase, limit):
    test_an_overlong_input_gives_one_short_error_line(tmp_path, capsys, files, argv, phrase, limit)


def test_bound_names_a_listing_width_past_600_bits_by_its_size(tmp_path, capsys):
    poly, cert = tmp_path / "p.poly", tmp_path / "c.chow"
    poly.write_text(f"{BIG} 1\n1:[1/1] * a_0\n")
    cert.write_text(NARROW)
    assert run_cli(["bound", str(poly), "--certificate", str(cert)]) == 2
    assert capsys.readouterr() == ("upper 1\n", "error: decomposition over 1 variables cannot "
                                   "express a over 2^600-variable listing\n")


@pytest.mark.parametrize("width, shown", [
    (11, "(113 + 113*w + 113*w^2 + 113*w^3 + 113*w^4 + 113*w^5 + 113*w^6 + 113*w^7 + 113*w^8 "
         "+ 113*w^9 + 113*w^10 + 13*w^11 (order 13))"),
    (12, "(<order-13 coefficient>)")])  # written whole, the line would hold 303 bytes
def test_a_run_refusal_that_fits_its_line_writes_every_value_whole(tmp_path, capsys, width,
                                                                   shown):
    poly, inp = tmp_path / "p.poly", tmp_path / "in"
    witness = " * ".join(f"a_{i}" for i in range(width))
    poly.write_text(f"{width} 13\n{COEFF_123} * {witness}\n")
    inp.write_text("1" * width + "\n")
    assert run_cli(["run", str(poly), str(inp)]) == 3
    assert capsys.readouterr().err == (f"error: post-power scalar {shown}^13 is neither 0 nor 1 "
                                       f"at input monomial {witness}; the program is not an "
                                       "additive listing\n")


def test_a_run_refusal_that_fits_keeps_its_named_coefficient_and_cut_witness(tmp_path, capsys):
    # a coefficient too long to write and a witness cut at BOUND: 245 bytes, as before the budget
    coords = ",".join(f"{(-1) ** i * (1 + i % 3)}/1" for i in range(400))
    poly, inp = tmp_path / "p.poly", tmp_path / "in"
    poly.write_text(f"3000 401\n401:[{coords}] * {TERM}\n")
    inp.write_text("1" * 3000 + "\n")
    assert run_cli(["run", str(poly), str(inp)]) == 3
    assert capsys.readouterr().err == (
        "error: post-power scalar (<order-401 coefficient>)^401 is neither 0 nor 1 at input "
        "monomial a_0 * a_1 * a_2 * a_3 * a_4 * a_5 * a_6 * a_7 * a_8 * a_9 * a_10 * a_11 * "
        "a_12 * a_13 * a_14 * ... (degree 3000); the program is not an additive listing\n")


def test_a_truth_table_of_arity_10_7_and_no_instance_builds_its_empty_listing(tmp_path, capsys):
    table = tmp_path / "t.tt"
    table.write_text("10000000 1\n")
    assert table.stat().st_size == 11
    assert run_cli(["build", "truth-table", "--table", str(table)]) == 0
    assert capsys.readouterr() == (
        "# diffcomp-poly 1\n10000000 1\n",
        "built truth-table listing: 0 terms over 10000000 variables (n=10000000)\n")


@pytest.mark.parametrize("kind, option", [(kind, option)
                                          for kind, (option, _) in cli._BUILDERS.items()])
def test_build_names_the_option_its_kind_needs(capsys, kind, option):
    assert run_cli(["build", kind]) == 2
    assert capsys.readouterr() == ("", f"error: build {kind} needs --{option}\n")
