"""The differential computer: exhaustive soundness sweeps and the worked examples."""

from __future__ import annotations

import inspect
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffcomp.cyclotomic import ONE, ZERO, CycloRational, as_scalar, root_of_unity
from diffcomp.engine import (
    DifferentialComputer,
    RunResult,
    count_eval,
    inverse_via_gradient,
    run_functional,
    run_matrix,
    run_vector,
)
from diffcomp.errors import DimensionError, ModelViolationError, SingularMatrixError, charge
from diffcomp.graphs import Graph
from diffcomp.listings import (
    FunctionTable,
    TruthTable,
    all_function_tables,
    listing_constant_functions,
    listing_cyclic_group,
    listing_determinant,
    listing_from_truth_table,
    listing_functional_graphs,
    listing_graph_isomorphism,
    listing_permanent,
    signed_permutations,
)
from diffcomp.multipoly import Monomial, MultiPoly, matrix_index

from test_listings import with_lex_phases


def cube(n):
    return list(itertools.product((0, 1), repeat=n))


def vector_computer(t: TruthTable) -> DifferentialComputer:
    return DifferentialComputer(listing_from_truth_table(t), t.n, t.m, "vector")


# -- the derivative chain: the reference semantics a run computes by lookup --------

RUNS = {"vector": run_vector, "matrix": run_matrix, "functional": run_functional}


def _differentiate_along(p: MultiPoly, variables) -> MultiPoly:
    for v in variables:
        if p.is_zero():
            break
        # d/da_v is zero on a polynomial that does not mention a_v
        p = p.partial_derivative(v) if v < p.nvars else MultiPoly(p.nvars)
    return p


def input_support(kind: str, n: int, x) -> list[int]:
    if kind == "vector":
        return [i for i, bit in enumerate(x) if bit]
    if kind == "matrix":
        return [n * i + j for i in range(n) for j in range(n) if x[i][j]]
    return [n * i + x(i) for i in range(n)]


def derivative_chain(dc: DifferentialComputer, x):
    """(bit, pre-power scalar), or "residue" / "violation" for a malformed program."""
    derived = _differentiate_along(dc.program, input_support(dc.input_kind, dc.arity, x))
    if dc.input_kind == "functional" and derived.degree() > 0:
        return "residue"
    scalar = derived.evaluate({})
    powered = scalar**dc.order
    if powered.is_zero():
        return 0, scalar
    if powered == ONE:
        return 1, scalar
    return "violation"


def lookup(dc: DifferentialComputer, x):
    """The engine's answer in derivative_chain's shape."""
    try:
        result = RUNS[dc.input_kind](dc, x)
    except ModelViolationError as exc:
        return "residue" if "non-constant" in str(exc) else "violation"
    return result.bit, result.scalar


def run_checked(dc: DifferentialComputer, x) -> RunResult:
    """Run x, asserting the derivative chain gives the same bit and scalar."""
    result = RUNS[dc.input_kind](dc, x)
    assert derivative_chain(dc, x) == (result.bit, result.scalar)
    return result


def test_construction_validation():
    p = MultiPoly.variable(0, 4)
    with pytest.raises(ValueError):
        DifferentialComputer(p, 2, 1, "nonsense")
    with pytest.raises(ValueError):
        DifferentialComputer(p, 3, 1, "vector")  # 4 variables > arity 3
    DifferentialComputer(p, 2, 1, "matrix")  # 4 variables fit a 2x2 matrix
    with pytest.raises(ValueError):
        DifferentialComputer(p, -1, 1, "vector")
    # coefficient order must divide the declared order
    q = root_of_unity(4) * MultiPoly.variable(0, 1)
    with pytest.raises(ValueError):
        DifferentialComputer(q, 1, 2, "vector")
    DifferentialComputer(q, 1, 4, "vector")


def test_and2_by_hand():
    dc = vector_computer(TruthTable.make(2, [(1, 1)]))
    assert run_vector(dc, (1, 1)).bit == 1
    assert run_vector(dc, (0, 1)).bit == 0
    assert run_vector(dc, (1, 0)).bit == 0
    assert run_vector(dc, (0, 0)).bit == 0


def test_subset_listing_accepts_subsets():
    # F_{<=S} for S = {0,1}: every T <= S is a yes, so input 10 -> 1
    t = TruthTable.make(2, cube(2))
    dc = vector_computer(t)
    assert run_vector(dc, (1, 0)).bit == 1
    assert run_vector(dc, (1, 1)).bit == 1


def test_or2_all_inputs():
    t = TruthTable.make(2, [(0, 1), (1, 0), (1, 1)])
    dc = vector_computer(t)
    got = tuple(run_vector(dc, b).bit for b in cube(2))
    assert got == (0, 1, 1, 1)


def test_soundness_exhaustive_small():
    # every truth table on up to 2 bits, three coefficient orders
    for n in (0, 1, 2):
        points = cube(n)
        for yes_mask in range(2 ** len(points)):
            yes = [points[i] for i in range(len(points)) if yes_mask >> i & 1]
            for m in (1, 2, 4):
                t = with_lex_phases(TruthTable.make(n, yes, m))
                dc = vector_computer(t)
                for b in points:
                    assert run_checked(dc, b).bit == t.value(b)


def test_soundness_random_n4():
    rng = random.Random(12)
    for _ in range(40):
        n = rng.choice([3, 4])
        m = rng.choice([1, 2, 4])
        yes = [b for b in cube(n) if rng.random() < 0.5]
        t = TruthTable.make(n, yes, m, {b: rng.randrange(m) for b in yes})
        dc = vector_computer(t)
        for b in cube(n):
            assert run_vector(dc, b).bit == t.value(b)


def test_phase_independence():
    rng = random.Random(55)
    n, m = 3, 4
    yes = [b for b in cube(n) if rng.random() < 0.5]
    base = TruthTable.make(n, yes, m)
    reference = [
        run_vector(vector_computer(base), b).bit for b in cube(n)
    ]
    for _ in range(10):
        t = TruthTable.make(n, yes, m, {b: rng.randrange(m) for b in yes})
        got = [run_vector(vector_computer(t), b).bit for b in cube(n)]
        assert got == reference


def test_derivative_order_irrelevance():
    rng = random.Random(91)
    t = with_lex_phases(TruthTable.make(3, [(1, 1, 1), (1, 0, 1), (0, 1, 1)], 2))
    p = listing_from_truth_table(t)
    for _ in range(10):
        order = [0, 1, 2]
        rng.shuffle(order)
        q = p
        for v in order:
            q = q.partial_derivative(v)
        assert q.evaluate({}) == root_of_unity(2, 1)  # lex(111)=7, 7 mod 2 = 1


def test_scalar_diagnostics_carry_the_phase():
    t = TruthTable.make(2, [(1, 1)], m=4, phases={(1, 1): 3})
    result = run_vector(vector_computer(t), (1, 1))
    assert result.bit == 1
    assert result.scalar == root_of_unity(4, 3)


def test_model_violation_on_non_listing_program():
    # coefficient 2 is no root of unity: the post-power scalar is 2
    p = 2 * MultiPoly.variable(0, 1)
    dc = DifferentialComputer(p, 1, 1, "vector")
    with pytest.raises(ModelViolationError):
        run_vector(dc, (1,))


def test_run_vector_input_validation():
    dc = vector_computer(TruthTable.make(2, [(1, 1)]))
    with pytest.raises(ValueError):
        run_vector(dc, (1, 1, 1))
    with pytest.raises(ValueError):
        run_vector(dc, (2, 0))
    with pytest.raises(ValueError):
        run_matrix(dc, [[1, 0], [0, 1]])  # wrong kind
    # every rejection keeps its exact message, whatever the input is wrong in
    for bad in ((1, 2), (0, 1, 0), (1,), (), (1, -1), [0, 2]):
        with pytest.raises(ValueError, match=r"^expected a length-2 bit vector$"):
            run_vector(dc, bad)
    with pytest.raises(ValueError, match=r"^run_functional on a vector-input computer$"):
        run_functional(dc, FunctionTable.identity(2))
    # bools are the bits 0 and 1, and convert like any int
    assert [run_vector(dc, (x, y)).bit for x, y in ((True, True), (True, False))] == [1, 0]
    assert run_vector(dc, ("1", 1)).bit == 1


def test_run_matrix_input_validation():
    dc = DifferentialComputer(listing_permanent(2), 2, 1, "matrix")
    for bad in ([[1, 0]], [[1, 0], [0, 1], [0, 0]], [], [[1, 0], [0]], [[1], [0, 1]],
                [[1, 0, 0], [0]], [[1, 0, 1], [0]]):  # the last two hold four entries
        with pytest.raises(ValueError, match=r"^expected a 2x2 matrix$"):
            run_matrix(dc, bad)
    for bad in ([[2, 0], [0, 1]], [[1, 0], [0, -1]], [[0, 0], [3, 0]]):
        with pytest.raises(ValueError, match=r"^matrix entries must be 0 or 1$"):
            run_matrix(dc, bad)
    with pytest.raises(ValueError, match=r"^run_vector on a matrix-input computer$"):
        run_vector(dc, (1, 0, 0, 1))
    assert run_matrix(dc, [[True, False], [False, True]]) == run_matrix(dc, [[1, 0], [0, 1]])
    assert run_matrix(dc, ((0, 1), (1, 0))).bit == 1 and run_matrix(dc, [[1, 1], [0, 0]]).bit == 0
    assert run_checked(dc, [[True, True], [True, False]]).bit == 0


# -- matrix inputs ---------------------------------------------------------------


def is_permutation_matrix(B):
    n = len(B)
    return all(sum(row) == 1 for row in B) and all(
        sum(B[i][j] for i in range(n)) == 1 for j in range(n)
    )


def all_bit_matrices(n):
    for flat in itertools.product((0, 1), repeat=n * n):
        yield [list(flat[n * i : n * i + n]) for i in range(n)]


def test_det_and_per_decide_permutation_matrices():
    n = 3
    det = DifferentialComputer(listing_determinant(n), n, 2, "matrix")
    per = DifferentialComputer(listing_permanent(n), n, 1, "matrix")
    for B in all_bit_matrices(n):
        want = 1 if is_permutation_matrix(B) else 0
        assert run_checked(det, B).bit == want
        assert run_checked(per, B).bit == want


def test_functional_listing_decides_functionality():
    for n in (1, 2, 3):
        dc = DifferentialComputer(listing_functional_graphs(n), n, 1, "matrix")
        for B in all_bit_matrices(n):
            want = 1 if all(sum(row) == 1 for row in B) else 0
            assert run_checked(dc, B).bit == want


def test_matrix_examples_from_worked_case():
    dc = DifferentialComputer(listing_functional_graphs(2), 2, 1, "matrix")
    # vertex 0 with out-degree two, vertex 1 with out-degree zero
    assert run_matrix(dc, [[1, 1], [0, 0]]).bit == 0
    assert run_matrix(dc, [[0, 0], [1, 1]]).bit == 0
    assert run_matrix(dc, [[1, 0], [0, 1]]).bit == 1


# -- functional inputs -------------------------------------------------------------


def test_functional_computer_on_constants():
    p = listing_constant_functions(3)
    dc = DifferentialComputer(p, 3, 1, "functional")
    assert run_functional(dc, FunctionTable.constant(3, 2)).bit == 1
    assert run_functional(dc, FunctionTable.identity(3)).bit == 0


def test_functional_computer_on_cyclic_group():
    p = listing_cyclic_group(3)
    dc = DifferentialComputer(p, 3, 1, "functional")
    assert run_functional(dc, FunctionTable.shift(3, 1)).bit == 1
    # the transposition (0 1) fixing 2 is not a shift
    assert run_functional(dc, FunctionTable(3, (1, 0, 2))).bit == 0
    # exhaustively: exactly the three shifts are accepted
    accepted = {
        g.images
        for g in all_function_tables(3)
        if run_checked(dc, g).bit == 1
    }
    assert accepted == {FunctionTable.shift(3, j).images for j in range(3)}


def test_functional_on_phased_listing():
    # order-4 phases on the constants listing still decide membership
    base = listing_constant_functions(2)
    w = root_of_unity(4)
    phased = MultiPoly(
        4, {mono: w ** k for k, (mono, _) in enumerate(base.sorted_terms())}
    )
    dc = DifferentialComputer(phased, 2, 4, "functional")
    assert run_functional(dc, FunctionTable.constant(2, 0)).bit == 1
    assert run_functional(dc, FunctionTable.constant(2, 1)).bit == 1
    assert run_functional(dc, FunctionTable.identity(2)).bit == 0


def test_functional_rejects_nonconstant_residue():
    # a degree-3 monomial strictly containing the derivative support leaves
    # a dangling variable after differentiation along g
    p = MultiPoly(4, {Monomial.of_vars([0, 2, 3]): 1})  # a_{0,0} a_{1,0} a_{1,1}
    dc = DifferentialComputer(p, 2, 1, "functional")
    with pytest.raises(ModelViolationError):
        run_functional(dc, FunctionTable.constant(2, 0))


def test_residue_error_names_an_offending_term():
    p = MultiPoly(4, {Monomial.make({0: 2, 2: 1}): 1, Monomial.of_vars([0, 2]): 1})
    dc = DifferentialComputer(p, 2, 1, "functional")
    with pytest.raises(
        ModelViolationError,
        match=r"non-constant polynomial: term a_\{0,0\}\^2 \* a_\{1,0\} "
        r"contains input monomial a_\{0,0\} \* a_\{1,0\}$",
    ):
        run_functional(dc, FunctionTable.constant(2, 0))
    # the identity's graph {a_{0,0}, a_{1,1}} is in no term: a clean 0
    assert run_functional(dc, FunctionTable.identity(2)).bit == 0


def test_model_violation_names_input_and_powered_scalar():
    dc = DifferentialComputer(2 * MultiPoly.variable(2, 3), 3, 1, "vector")
    with pytest.raises(ModelViolationError, match=r"scalar \(2\)\^1 is neither 0 nor 1 at input "
                       r"monomial a_2; the program is not an additive listing"):
        run_vector(dc, (0, 0, 1))
    w = root_of_unity(4)
    skew = MultiPoly(4, {Monomial.of_vars([1, 2]): 2 * w})
    dc = DifferentialComputer(skew, 2, 4, "matrix")
    with pytest.raises(ModelViolationError,
                       match=r"scalar \(2\*w \(order 4\)\)\^4 .* a_\{0,1\} \* a_\{1,0\};"):
        run_matrix(dc, [[0, 1], [1, 0]])
    constant = DifferentialComputer(MultiPoly.constant(3, 1), 1, 1, "vector")
    with pytest.raises(ModelViolationError, match=r"scalar \(3\)\^1 .* at input monomial 1;"):
        run_vector(constant, (0,))


@pytest.mark.parametrize("s, m", [(as_scalar(2), 1), (2 * root_of_unity(4), 4),  # m <= L
                                  (as_scalar(Fraction(3, 2)), 6), (2 * root_of_unity(3), 12)])
def test_a_failing_decision_takes_one_power(monkeypatch, s, m):
    # the deciding power s^gcd(m, L) is the only one: the message names s and m, not s^m
    period, power, calls = math.lcm(2, s.order), CycloRational.__pow__, []
    monkeypatch.setattr(CycloRational, "__pow__", lambda x, k: calls.append(k) or power(x, k))
    with pytest.raises(ModelViolationError, match=rf"^post-power scalar \(.*\)\^{m} is neither"):
        DifferentialComputer(MultiPoly(0), 0, m, "vector")._decide(s, Monomial(()))
    assert calls == [math.gcd(m, period)]


@pytest.mark.parametrize("s, shown", [
    (as_scalar(2**598), str(2**598)),  # 599 + 1 bits with its denominator: written out
    (as_scalar(2**599), "<order-1 coefficient>"),  # 601 bits: named by its order
    (as_scalar(2**20000), "<order-1 coefficient>"),  # 6,021 digits, past what str() allows
    (sum(root_of_unity(41, k) for k in range(1, 40)), "<order-41 coefficient>"),  # 40 bits
], ids=["600-bits", "601-bits", "20001-bits", "270-characters"])
def test_a_long_coefficient_is_named_by_its_order(s, shown):
    dc = DifferentialComputer(MultiPoly(1, {Monomial.of_vars([0]): s}), 1, s.order, "vector")
    with pytest.raises(ModelViolationError) as info:
        run_vector(dc, (1,))
    assert str(info.value) == (f"post-power scalar ({shown})^{s.order} is neither 0 nor 1 at input "
                               "monomial a_0; the program is not an additive listing")
    assert len(str(info.value)) <= 300


def test_set_bits_outside_the_program_give_zero():
    # d/da_v P = 0 when P does not mention a_v, so the answer is 0 whatever
    # order the bits are visited in, for every input kind
    ab = DifferentialComputer(MultiPoly(2, {Monomial.of_vars([0, 1]): 1}), 3, 1, "vector")
    assert run_vector(ab, (1, 1, 0)).bit == 1
    assert run_checked(ab, (1, 0, 1)).bit == 0
    a0 = DifferentialComputer(MultiPoly(2, {Monomial.of_vars([0]): 1}), 3, 1, "vector")
    assert run_checked(a0, (0, 1, 1)).bit == 0
    assert run_checked(a0, (0, 0, 1)).bit == 0
    m = DifferentialComputer(MultiPoly(2, {Monomial.of_vars([0]): 1}), 2, 1, "matrix")
    assert run_checked(m, [[1, 0], [0, 0]]).bit == 1
    assert run_checked(m, [[1, 0], [1, 0]]).bit == 0
    assert run_checked(m, [[0, 0], [0, 1]]).scalar.is_zero()
    f = DifferentialComputer(MultiPoly(3, {Monomial.of_vars([0, 2]): 1}), 2, 1, "functional")
    assert run_checked(f, FunctionTable.constant(2, 0)).bit == 1
    assert run_checked(f, FunctionTable.identity(2)).bit == 0
    assert run_checked(f, FunctionTable(2, (1, 1))).bit == 0


@st.composite
def programs_and_inputs(draw):
    """Small random programs, many not listings, with one input each.

    Terms mix exponents 1 and 2, often contain the input's support (so some
    strictly contain it), sometimes carry the non-unit coefficient 2 or 1/2,
    and the program may use fewer variables than the input universe.
    """
    kind = draw(st.sampled_from(sorted(RUNS)))
    n = draw(st.integers(0, 5) if kind == "vector" else st.integers(1, 3))
    universe = n if kind == "vector" else n * n
    nvars = draw(st.integers(0, universe)) if draw(st.integers(0, 3)) == 0 else universe
    order = draw(st.sampled_from((1, 2, 4)))
    bit = st.integers(0, 1)
    if kind == "vector":
        x = tuple(draw(st.lists(bit, min_size=n, max_size=n)))
    elif kind == "matrix":
        x = [draw(st.lists(bit, min_size=n, max_size=n)) for _ in range(n)]
    else:
        x = FunctionTable(n, tuple(draw(st.lists(st.integers(0, n - 1), min_size=n,
                                                  max_size=n))))
    support = {v for v in input_support(kind, n, x) if v < nvars}
    extra = st.sets(st.integers(0, nvars - 1), max_size=3) if nvars else st.just(set())
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        shape = draw(st.sampled_from(("exact", "superset", "random")))
        variables = (set() if shape == "random" else support) | (
            set() if shape == "exact" else draw(extra))
        power = st.just(1) if shape == "exact" else st.sampled_from((1, 1, 2))
        mono = Monomial.make({v: draw(power) for v in variables})
        k = draw(st.integers(0, order - 1))
        scale = draw(st.sampled_from((1, 1, 1, 1, -1, 2, Fraction(1, 2))))
        terms[mono] = scale * root_of_unity(order, k)
    return DifferentialComputer(MultiPoly(nvars, terms), n, order, kind), x


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(programs_and_inputs())
def test_lookup_agrees_with_derivative_chain(case):
    dc, x = case
    assert lookup(dc, x) == derivative_chain(dc, x)


@st.composite
def programs_and_input_streams(draw):
    """One small program, built from a few repeated coefficients (some not roots of
    unity), and a stream of inputs that revisits some of them."""
    kind = draw(st.sampled_from(sorted(RUNS)))
    n = draw(st.integers(0, 4) if kind == "vector" else st.integers(1, 3))
    universe = n if kind == "vector" else n * n
    order = draw(st.sampled_from((1, 2, 4, 6)))
    coefficients = draw(st.lists(st.builds(
        lambda scale, k: scale * root_of_unity(order, k),
        st.sampled_from((1, 1, 1, -1, 2, Fraction(1, 2))), st.integers(0, order - 1)),
        min_size=1, max_size=3))
    pool = st.sampled_from(coefficients)
    if kind == "functional":
        inputs = st.builds(FunctionTable, st.just(n),
                           st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(tuple))
    else:
        bits = st.lists(st.integers(0, 1), min_size=n, max_size=n)
        inputs = bits if kind == "vector" else st.lists(bits, min_size=n, max_size=n)
    stream = draw(st.lists(inputs, min_size=1, max_size=12))
    stream += draw(st.lists(st.sampled_from(stream), max_size=12))  # repeats, memo warm
    terms = {Monomial.of_vars(input_support(kind, n, x)): draw(pool)
             for x in draw(st.lists(st.sampled_from(stream), max_size=8))}
    for _ in range(draw(st.integers(0, 3))):  # and terms no input of the stream hits
        variables = draw(st.sets(st.integers(0, universe - 1), max_size=3)) if universe else set()
        terms[Monomial.of_vars(variables)] = draw(pool)
    return DifferentialComputer(MultiPoly(universe, terms), n, order, kind), stream


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(programs_and_input_streams())
def test_runs_on_one_computer_agree_with_derivative_chain(case):
    # one computer takes the whole stream, so later runs meet decided coefficients
    dc, stream = case
    for x in stream:
        assert lookup(dc, x) == derivative_chain(dc, x)
    distinct = {(c.order, c.num, c.den) for c in dc.program.terms.values()}
    assert set(dc._units) <= distinct
    assert all(r.bit == 1 and (r.scalar.order, r.scalar.num, r.scalar.den) == key
               for key, r in dc._units.items())


def test_memo_holds_only_decided_units_and_violations_repeat_identically():
    w = root_of_unity(4)
    p = MultiPoly(3, {Monomial.of_vars([0]): w, Monomial.of_vars([1]): 2 * w,
                      Monomial.of_vars([2]): w, Monomial.of_vars([0, 1]): -1,
                      Monomial.of_vars([0, 2]): Fraction(1, 2), Monomial.of_vars([1, 2]): -1})
    dc = DifferentialComputer(p, 3, 4, "vector")
    messages = {}
    for _ in range(3):
        for b in cube(3):
            try:
                assert run_checked(dc, b).bit == (0 < sum(b) < 3)
            except ModelViolationError as exc:
                messages.setdefault(b, set()).add(str(exc))
        # w and -1 decide 1 (w stored once for its two terms); no term at 000 or 111
        assert len(dc._units) == 2
    assert messages == {
        (0, 1, 0): {"post-power scalar (2*w (order 4))^4 is neither 0 nor 1 at input monomial a_1; "
                    "the program is not an additive listing"},
        (1, 0, 1): {"post-power scalar (1/2)^4 is neither 0 nor 1 at input monomial a_0 * a_2; "
                    "the program is not an additive listing"}}
    fresh = DifferentialComputer(p, 3, 4, "vector")  # the first run on a fresh computer
    with pytest.raises(ModelViolationError,
                       match=r"^post-power scalar \(2\*w \(order 4\)\)\^4 .* monomial a_1;"):
        run_vector(fresh, (0, 1, 0))
    assert not fresh._units


def test_a_decided_coefficient_is_not_powered_again(monkeypatch):
    dc = vector_computer(with_lex_phases(TruthTable.make(3, cube(3), 6)))
    first = [run_vector(dc, b) for b in cube(3)]
    assert len(dc._units) == 6  # lex phases 0..7 mod 6: six distinct coefficients
    monkeypatch.setattr(CycloRational, "__pow__", lambda *a: pytest.fail("powered again"))
    assert [run_vector(dc, b) for b in cube(3)] == first


def test_functional_domain_check():
    dc = DifferentialComputer(listing_constant_functions(2), 2, 1, "functional")
    with pytest.raises(ValueError):
        run_functional(dc, FunctionTable.constant(3, 0))


# -- counting ---------------------------------------------------------------------


def brute_force_hamiltonian_cycles(g: Graph) -> int:
    n = g.n
    count = 0
    for perm in itertools.permutations(range(n)):
        if all(
            g.adj[perm[i]][perm[(i + 1) % n]] for i in range(n)
        ):
            count += 1
    return count // n  # each cycle counted once per starting point


def test_count_hamiltonian_cycles_of_k4():
    k4 = Graph.from_edges(
        4, [(i, j) for i in range(4) for j in range(4) if i != j]
    )
    p = listing_graph_isomorphism(Graph.cycle(4))
    got = count_eval(p, k4.adj)
    want = brute_force_hamiltonian_cycles(k4)
    assert want == 6
    assert got == as_scalar(want)


def test_count_permanent_values():
    n = 3
    per = listing_permanent(n)
    identity = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    assert count_eval(per, identity) == ONE
    ones = [[1] * n for _ in range(n)]
    assert count_eval(per, ones) == as_scalar(6)


def test_count_eval_validation():
    per = listing_permanent(2)
    with pytest.raises(ValueError):
        count_eval(per, [[1, 0]])
    with pytest.raises(ValueError):
        count_eval(per, [[1]])  # too few variables
    for ragged in ([[1, 0], [0]], [[1], [0, 1]], [[1, 0, 0], [0]]):
        with pytest.raises(ValueError, match=r"^matrix must be square$"):
            count_eval(per, ragged)
    with pytest.raises(ValueError, match=r"^listing uses 4 variables, matrix provides 1$"):
        count_eval(per, [[1]])
    # any nonzero entry sets its variable to 1, as a plain evaluation at a 0/1 point
    assert count_eval(per, [[True, 2], [-1, True]]) == 2


# -- inverse via the determinant gradient --------------------------------------------


def test_inverse_identity_and_diagonal():
    assert inverse_via_gradient([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    assert inverse_via_gradient([[2, 0], [0, 4]]) == [
        [Fraction(1, 2), 0],
        [0, Fraction(1, 4)],
    ]


def test_inverse_adjugate_example():
    assert inverse_via_gradient([[1, 2], [3, 5]]) == [
        [Fraction(-5), Fraction(2)],
        [Fraction(3), Fraction(-1)],
    ]


def test_inverse_random_matrices_multiply_to_identity():
    rng = random.Random(314)
    done = 0
    while done < 25:
        n = rng.randint(1, 4)
        M = [
            [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(n)]
            for _ in range(n)
        ]
        try:
            inv = inverse_via_gradient(M)
        except SingularMatrixError:
            continue
        prod = [
            [sum(M[i][k] * inv[k][j] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        assert prod == [
            [Fraction(1) if i == j else Fraction(0) for j in range(n)]
            for i in range(n)
        ]
        done += 1


def test_inverse_rejects_singular():
    with pytest.raises(SingularMatrixError):
        inverse_via_gradient([[1, 2], [2, 4]])
    with pytest.raises(ValueError):
        inverse_via_gradient([[1, 2]])


# The derivative-chain inverse: entry (i, j) is d/da_{j,i} Det at M, over Det(M),
# with n^2 partial derivatives and n^2 + 1 evaluations of the listing.
def _inverse_by_derivatives(M):
    n = len(M)
    rows = [[Fraction(x) for x in row] for row in M]
    det_listing = listing_determinant(n)
    point = {matrix_index(n, i, j): rows[i][j] for i in range(n) for j in range(n)}
    det = det_listing.evaluate(point).to_fraction()
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    return [[det_listing.partial_derivative(matrix_index(n, j, i)).evaluate(point).to_fraction()
             / det for j in range(n)] for i in range(n)]


def _inverse_by_elimination(M):
    """Gauss-Jordan over Fractions; None for a singular matrix."""
    n = len(M)
    a = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(M)]
    for c in range(n):
        pivot = next((r for r in range(c, n) if a[r][c]), None)
        if pivot is None:
            return None
        a[c], a[pivot] = a[pivot], a[c]
        a[c] = [x / a[c][c] for x in a[c]]
        for r in range(n):
            if r != c and a[r][c]:
                a[r] = [x - a[r][c] * y for x, y in zip(a[r], a[c])]
    return [row[n:] for row in a]


@st.composite
def rational_matrices(draw, max_n=5):
    """n = 1..max_n; entries biased to 0 and small integers, some with denominators;
    about a third made singular by copying a combination of other rows."""
    n = draw(st.integers(1, max_n))
    entry = st.one_of(st.just(Fraction(0)), st.integers(-4, 4).map(Fraction),
                      st.fractions(min_value=-5, max_value=5, max_denominator=6))
    rows = draw(st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n))
    if n > 1 and draw(st.integers(0, 2)) == 0:
        i, j = draw(st.permutations(range(n)))[:2]
        k = draw(entry)
        rows[i] = [k * x for x in rows[j]]
    return rows


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rational_matrices())
def test_inverse_agrees_with_derivative_chain_and_elimination(M):
    expected = _inverse_by_elimination(M)
    if expected is None:
        for inverse in (inverse_via_gradient, _inverse_by_derivatives):
            with pytest.raises(SingularMatrixError):
                inverse(M)
        return
    got = inverse_via_gradient(M)
    assert got == expected == _inverse_by_derivatives(M)
    assert all(type(x) is Fraction for row in got for x in row)


# The walk the inverse took before its Laplace passes: each of the listing's n! signed
# permutations adds, to every variable it holds, its sign times its other factors.
def _inverse_by_permutations(M):
    n = len(M)
    rows = [[Fraction(x) for x in row] for row in M]
    if any(len(r) != n for r in rows):
        raise DimensionError("matrix must be square")
    scale = math.lcm(*(x.denominator for r in rows for x in r))
    point = [x.numerator * (scale // x.denominator) for r in rows for x in r]
    charge(range(2, n + 1), f"determinant listing on {n}x{n}")
    grad, det = [0] * (n * n), 0
    for entries, parity in signed_permutations(n):
        factors = [point[v] for v in entries]
        suffix = [1] * (n + 1)  # suffix[k]: product of factors k, k+1, ...
        for k in range(n - 1, -1, -1):
            suffix[k] = suffix[k + 1] * factors[k]
        prefix = -1 if parity else 1
        for k, v in enumerate(entries):
            grad[v] += prefix * suffix[k + 1]
            prefix *= factors[k]
        det += prefix
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    return [[Fraction(scale * grad[matrix_index(n, j, i)], det) for j in range(n)]
            for i in range(n)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rational_matrices(max_n=6))
def test_inverse_agrees_with_the_permutation_walk_and_elimination(M):
    expected = _inverse_by_elimination(M)
    if expected is None:
        for inverse in (inverse_via_gradient, _inverse_by_permutations):
            with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
                inverse(M)
        return
    got = inverse_via_gradient(M)
    assert got == expected == _inverse_by_permutations(M)
    assert all(type(x) is Fraction for row in got for x in row)


@pytest.mark.parametrize("n", [7, 8])
def test_inverse_at_the_largest_default_sizes_matches_elimination(n):
    rng = random.Random(n)
    M = [[Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)] for _ in range(n)]
    got = inverse_via_gradient(M)
    assert got == _inverse_by_elimination(M)
    assert all(type(x) is Fraction for row in got for x in row)
    M[n - 1] = [x - 2 * y for x, y in zip(M[0], M[1])]  # row n-1 = row 0 - 2 row 1
    assert _inverse_by_elimination(M) is None
    with pytest.raises(SingularMatrixError, match="^matrix is singular$"):
        inverse_via_gradient(M)


def test_the_inverse_calls_no_function_of_listings(monkeypatch):
    # cost contract: the n! walk over the determinant listing cannot come back, because every
    # public function of `listings` refuses while fixed matrices for n = 1..6 are inverted
    from diffcomp import listings

    def refuse(*args, **kwargs):
        raise AssertionError("inverse_via_gradient called a function of diffcomp.listings")

    matrices = [[[Fraction(1, i + j + 1) + (i == j) for j in range(n)] for i in range(n)]
                for n in range(1, 7)]
    expected = [_inverse_by_elimination(M) for M in matrices]
    public = [name for name, value in vars(listings).items() if not name.startswith("_")
              and inspect.isfunction(value) and value.__module__ == listings.__name__]
    assert {"listing_determinant", "signed_permutations"} <= set(public)
    for name in public:
        monkeypatch.setattr(listings, name, refuse)
    assert [inverse_via_gradient(M) for M in matrices] == expected


def test_inverse_of_the_empty_matrix_is_refused():
    with pytest.raises(DimensionError, match="^n must be positive$"):
        inverse_via_gradient([])


def test_inverse_reads_floats_as_fractions():
    got = inverse_via_gradient([[0.5, 1], [2, 3]])
    assert got == [[-6, 2], [4, -1]]
    assert all(type(x) is Fraction for row in got for x in row)


def test_inverse_rejects_ragged_input():
    for ragged in ([[1, 2]], [[1, 2], [3]], [[1], [2, 3]]):
        with pytest.raises(ValueError):
            inverse_via_gradient(ragged)


def test_surviving_scalar_is_single_phase():
    # differentiate the Det listing along a permutation: scalar is the sign
    det = listing_determinant(3)
    dc = DifferentialComputer(det, 3, 2, "matrix")
    odd = [[0, 1, 0], [1, 0, 0], [0, 0, 1]]  # transposition: sign -1
    result = run_matrix(dc, odd)
    assert result.bit == 1
    assert result.scalar == as_scalar(-1)


# -- deciding without the declared power -------------------------------------------


@st.composite
def run_scalars(draw):
    """0, +-w^j, 2w, 1/2 and sums of up to three of them, in orders 1..12."""
    k = draw(st.integers(1, 12))
    atoms = st.one_of(
        st.just(ZERO),
        st.builds(lambda j, sign: sign * root_of_unity(k, j),
                  st.integers(0, k - 1), st.sampled_from((1, -1))),
        st.just(2 * root_of_unity(k)),
        st.just(as_scalar(Fraction(1, 2))),
    )
    parts = draw(st.lists(atoms, min_size=1, max_size=3))
    return sum(parts[1:], parts[0])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(run_scalars(), st.integers(1, 24))
def test_decision_agrees_with_the_declared_power(s, m):
    dc = DifferentialComputer(MultiPoly(0), 0, m, "vector")
    powered = s**m  # the decision as it was made before: the full power
    if powered.is_zero() or powered == 1:
        assert dc._decide(s, Monomial(())) == RunResult(0 if powered.is_zero() else 1, s)
        return
    with pytest.raises(ModelViolationError) as info:
        dc._decide(s, Monomial(()))
    named = f"({s})^{m}"
    assert f"post-power scalar {named} is neither 0 nor 1 at input monomial 1;" in str(info.value)


def test_the_inverse_builds_no_polynomial_and_charges_the_determinant_listing(monkeypatch):
    from diffcomp import multipoly
    from diffcomp.errors import SizeCapError

    def refuse(*args, **kwargs):
        raise AssertionError("the inverse built a polynomial")

    monkeypatch.setattr(multipoly.MultiPoly, "_trusted", classmethod(refuse))
    monkeypatch.setattr(multipoly.MultiPoly, "__init__", refuse)
    M = [[2, 1, 0, 0], [1, 3, 1, 0], [0, 1, 4, 1], [Fraction(1, 2), 0, 1, 5]]
    inv = inverse_via_gradient(M)
    assert all(sum(Fraction(M[i][k]) * inv[k][j] for k in range(4)) == int(i == j)
               for i in range(4) for j in range(4))
    monkeypatch.setenv("DIFFCOMP_MAX_TERMS", "23")  # 4! = 24 signed permutations
    with pytest.raises(SizeCapError, match="determinant listing on 4x4 needs 24 terms"):
        inverse_via_gradient(M)


def test_an_order_below_one_is_a_dimension_error():
    with pytest.raises(DimensionError, match="^order must be positive$"):
        DifferentialComputer(MultiPoly.variable(0, 1), 1, 0)
