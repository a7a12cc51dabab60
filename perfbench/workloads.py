"""The three benchmark workloads: seeded inputs, set-up, job cycles, oracles.

Each workload is a closed loop with one client.  Its inputs come from the
seed alone; set-up turns them into the objects or files the program needs;
`cycle(k)` returns the k-th fixed mix of jobs.  A job's `call` is the timed
part and must go through the diffcomp module attributes at call time, so
the tracer's wrappers (and a test's planted fault) are seen.  A job's
`check` compares the answer with `oracles`, never with diffcomp itself.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracles

HERE = Path(__file__).resolve().parent

# Exit codes the diffcomp CLI documents; the planted-fault test edits one.
EXIT_OK, EXIT_BAD_INPUT, EXIT_REJECT = 0, 2, 3


@dataclass
class Job:
    kind: str
    call: Callable[[], object]
    check: Callable[[object], bool]


def _digest(obj) -> str:
    return hashlib.sha256(repr(obj).encode()).hexdigest()[:16]


def _random_function(rng, n, bijective):
    images = list(range(n))
    rng.shuffle(images)
    if not bijective:
        i, j = rng.sample(range(n), 2)
        images[i] = images[j]
    return tuple(images)


def _random_table(rng, n, m):
    """A Boolean function on n bits with density 1/2 and random phases."""
    return {b: rng.randrange(m) for b in itertools.product((0, 1), repeat=n)
            if rng.random() < 0.5}


def _table_inputs(rng, n, phases, count):
    """Bit vectors with about n/2 set bits (run cost grows with the set bits);
    each is a yes-instance with probability 1/2."""
    middle = [b for b in itertools.product((0, 1), repeat=n) if abs(sum(b) - n / 2) <= 1]
    yes = [b for b in middle if b in phases]
    no = [b for b in middle if b not in phases]
    return [rng.choice(yes if rng.random() < 0.5 else no) for _ in range(count)]


def _cycle_kinds(rng, mix: dict[str, int]) -> list[str]:
    kinds = [k for k, c in mix.items() for _ in range(c)]
    rng.shuffle(kinds)
    return kinds


class Workload:
    name = ""
    mix: dict[str, int] = {}
    trace_into = None  # a Tracer that child processes report to (cli-session)
    built: tuple[str, ...] = ()  # attributes set-up creates

    def release(self) -> None:
        """Drop what the last set-up built, so set-ups do not overlap in memory."""
        for name in self.built:
            self.__dict__.pop(name, None)

    def __init__(self, seed: int, workdir: Path, smoke: bool = False) -> None:
        self.seed, self.workdir, self.smoke = seed, workdir, smoke
        self.rng = random.Random(f"{self.name}:{seed}")
        self.inputs = self.make_inputs()
        self.inputs_digest = _digest(self.inputs)

    def cycle(self, k: int) -> list[Job]:
        rng = random.Random(f"{self.name}:{self.seed}:cycle:{k}")
        return [self.job(kind, k * 1000 + i, rng)
                for i, kind in enumerate(_cycle_kinds(rng, self.mix))]

    def warm_up(self) -> bool:
        """One untimed job per kind; True when all of them were right."""
        rng = random.Random(f"{self.name}:{self.seed}:warm-up")
        ok = True
        for i, kind in enumerate(self.mix):
            job = self.job(kind, -1 - i, rng)
            ok &= job.check(job.call())
        return ok


# ---------------------------------------------------------------------------
# run-stream: many engine runs against listings built once.
# ---------------------------------------------------------------------------

class RunStream(Workload):
    """Engine runs on four listings; `engine` and `partial_derivative` dominate.

    Shares per 20-job cycle, cheapest first: permanent 15 %, determinant
    15 %, truth table 45 %, functional graphs 25 %.  The median falls inside
    the truth-table runs and the 90th percentile inside the functional-graph
    runs, never on a boundary between kinds of very different cost.
    """

    name = "run-stream"
    mix = {"perm_functional": 3, "det_matrix": 3, "tt_vector": 9, "fg_functional": 5}
    built = ("dcs",)

    def make_inputs(self):
        s = dict(tt_n=6, tt_m=6, n=3) if self.smoke else dict(tt_n=12, tt_m=6, n=6)
        rng = self.rng
        s["phases"] = _random_table(rng, s["tt_n"], s["tt_m"])
        pool = 64
        s["vectors"] = _table_inputs(rng, s["tt_n"], s["phases"], pool)
        s["det"] = []
        for _ in range(pool):
            images = _random_function(rng, s["n"], True)
            rows = [[int(images[i] == j) for j in range(s["n"])] for i in range(s["n"])]
            if rng.random() < 0.5:  # move one 1 into another row's column
                i, j = rng.sample(range(s["n"]), 2)
                rows[i] = [int(images[j] == c) for c in range(s["n"])]
            s["det"].append(rows)
        s["perm"] = [_random_function(rng, s["n"], rng.random() < 0.5) for _ in range(pool)]
        s["fg"] = [tuple(rng.randrange(s["n"]) for _ in range(s["n"])) for _ in range(pool)]
        return s

    def setup(self) -> None:
        from diffcomp import engine, listings
        s = self.inputs
        table = listings.TruthTable.make(s["tt_n"], s["phases"], s["tt_m"], s["phases"])
        n = s["n"]
        DC = engine.DifferentialComputer
        self.dcs = {
            "tt_vector": DC(listings.listing_from_truth_table(table), s["tt_n"], s["tt_m"],
                            "vector"),
            "det_matrix": DC(listings.listing_determinant(n), n, 2, "matrix"),
            "perm_functional": DC(listings.listing_permanent(n), n, 1, "functional"),
            "fg_functional": DC(listings.listing_functional_graphs(n), n, 1, "functional"),
        }

    def job(self, kind, job_id, rng) -> Job:
        from diffcomp import engine, listings
        s, dc = self.inputs, self.dcs[kind]
        pick = rng.randrange(len(s["fg"]))
        if kind == "tt_vector":
            b = s["vectors"][pick]
            want = int(b in s["phases"])
            return Job(kind, lambda: engine.run_vector(dc, b), lambda r: r.bit == want)
        if kind == "det_matrix":
            rows = s["det"][pick]
            perm = oracles.permutation_of_matrix(rows)
            sign = 1 - 2 * oracles.permutation_parity(perm) if perm else 0

            def check(r):
                c = r.scalar.coeffs
                return r.bit == int(perm is not None) and c[0] == sign and not any(c[1:])
            return Job(kind, lambda: engine.run_matrix(dc, rows), check)
        images = s["perm" if kind == "perm_functional" else "fg"][pick]
        g = listings.FunctionTable(s["n"], images)
        want = 1 if kind == "fg_functional" else int(oracles.is_bijection(images))
        return Job(kind, lambda: engine.run_functional(dc, g), lambda r: r.bit == want)


# ---------------------------------------------------------------------------
# certify: Chow certificates and exact algebra, in memory.
# ---------------------------------------------------------------------------

class Certify(Workload):
    """Certificate checks, the quadratic rank bound and matrix inversion.

    Shares per 20-job cycle, cheapest first: P_4 ACCEPT and REJECT 20 %,
    functional certificate REJECT and ACCEPT 40 %, inverse 35 %, rank bound
    5 %.  The median falls inside the certificate checks and the 90th
    percentile inside the inverses, whose cost hardly depends on the seed;
    the rank bound's cost varies with the change of variables, so it sits
    above p90.
    """

    name = "certify"
    mix = {"pm_accept": 2, "pm_reject": 2, "fg_reject": 4, "fg_accept": 4, "inverse": 7,
           "rank_bound": 1}
    built = ("fg_listing", "fg_accept", "fg_reject", "pm_target", "pm_accept", "pm_reject",
             "quads")

    def make_inputs(self):
        s = (dict(fg_n=3, pm_terms=3, pairs=2, inv_n=2) if self.smoke
             else dict(fg_n=5, pm_terms=24, pairs=5, inv_n=5))
        rng, pool = self.rng, 8
        s["pm_degree"], s["order"] = 4, 12
        s["pm_phases"] = [rng.randrange(12) for _ in range(s["pm_terms"])]
        s["pm_bad"] = [rng.randrange(s["pm_terms"] * 4) for _ in range(pool)]
        n = s["fg_n"]
        s["fg_bad"] = [(rng.randrange(n), rng.randrange(n), rng.choice((2, 3, -1)))
                       for _ in range(pool)]
        s["quads"] = []
        size = 2 * s["pairs"]
        for _ in range(pool):
            phases = [rng.randrange(12) for _ in range(s["pairs"])]
            u = [[int(i == j) for j in range(size)] for i in range(size)]
            for _ in range(2 * size):  # transvections keep the determinant 1
                a, b = rng.sample(range(size), 2)
                sgn = rng.choice((1, -1))
                u[a] = [x + sgn * y for x, y in zip(u[a], u[b])]
            s["quads"].append((phases, u))
        s["matrices"] = []
        while len(s["matrices"]) < pool:
            m = [[rng.randint(-4, 4) for _ in range(s["inv_n"])] for _ in range(s["inv_n"])]
            if oracles.determinant(m) != 0:
                s["matrices"].append(m)
        return s

    def setup(self) -> None:
        from diffcomp import chow, listings
        from diffcomp.cyclotomic import CycloRational
        from diffcomp.multipoly import Monomial, MultiPoly
        s, order = self.inputs, self.inputs["order"]

        def omega(k):
            return CycloRational(order, oracles.omega_power(order, k))

        n = s["fg_n"]
        self.fg_listing = listings.listing_functional_graphs(n)
        rows = [[int(v * n <= w < v * n + n) for w in range(n * n + 1)] for v in range(n)]
        self.fg_accept = chow.ChowDecomposition(1, n, n * n, (tuple(map(tuple, rows)),))
        self.fg_reject = []
        for v, w, value in s["fg_bad"]:
            bad = [list(r) for r in rows]
            bad[v][v * n + w] = value
            self.fg_reject.append(
                chow.ChowDecomposition(1, n, n * n, (tuple(map(tuple, bad)),)))

        # P_4 with order-12 phases and its one-summand-per-term certificate.
        d, terms = s["pm_degree"], s["pm_terms"]
        nvars = d * terms
        self.pm_target = MultiPoly(nvars, {
            Monomial.of_vars(range(d * i, d * i + d)): omega(k)
            for i, k in enumerate(s["pm_phases"])})

        def pm_cert(bad_slot=None):
            summands = []
            for i, k in enumerate(s["pm_phases"]):
                forms = []
                for j in range(d):
                    form = [0] * (nvars + 1)
                    power = (k if j == 0 else 0) + (d * i + j == bad_slot)
                    form[d * i + j] = omega(power)
                    forms.append(tuple(form))
                summands.append(tuple(forms))
            return chow.ChowDecomposition(terms, d, nvars, tuple(summands))

        self.pm_accept = pm_cert()
        self.pm_reject = [pm_cert(slot) for slot in s["pm_bad"]]

        # sum_i w^{k_i} x_{2i} x_{2i+1} under x = U y, coefficients by hand.
        self.quads = []
        for phases, u in s["quads"]:
            size = len(u)
            coeffs = {}
            for a in range(size):
                for b in range(a, size):
                    acc = [Fraction(0)] * len(oracles.omega_power(order, 0))
                    for i, k in enumerate(phases):
                        p, q = u[2 * i], u[2 * i + 1]
                        c = p[a] * q[b] + (p[b] * q[a] if a != b else 0)
                        acc = [x + c * y for x, y in zip(acc, oracles.omega_power(order, k))]
                    if any(acc):
                        coeffs[Monomial.make({a: 1, b: 1} if a != b else {a: 2})] = \
                            CycloRational(order, acc)
            self.quads.append(MultiPoly(size, coeffs))

    def job(self, kind, job_id, rng) -> Job:
        from diffcomp import chow, engine
        s = self.inputs
        pick = rng.randrange(len(s["matrices"]))
        if kind in ("pm_accept", "fg_accept", "pm_reject", "fg_reject"):
            target = self.pm_target if kind.startswith("pm") else self.fg_listing
            cert = getattr(self, kind)
            if kind.endswith("reject"):
                cert = cert[pick]
            want = kind.endswith("accept")
            return Job(kind, lambda: chow.verify(cert, target), lambda r: r is want)
        if kind == "rank_bound":
            quad = self.quads[pick]
            return Job(kind, lambda: chow.degree2_chow_lower_bound(quad),
                       lambda r: r == s["pairs"])
        m = s["matrices"][pick]
        return Job(kind, lambda: engine.inverse_via_gradient(m),
                   lambda inv: oracles.is_identity(oracles.matmul(m, inv)))


# ---------------------------------------------------------------------------
# cli-session: one `diffcomp` process per command, in a repeated session.
# ---------------------------------------------------------------------------

CLI_MAIN = "import sys; from diffcomp.cli import main; sys.exit(main())"

_MALFORMED = (
    "# diffcomp-poly 1\n4 6\n6:[1/1 * a_0\n",
    "# diffcomp-poly 1\nfour six\n",
    "# diffcomp-poly 1\n2 1\n1:[1/1] * a_5\n",
)


class CliSession(Workload):
    """A user session: build three listings, run inputs on them, check
    certificates, transform a graph set and hit one malformed file.

    Shares per 23-job session, cheapest first: one malformed file, the
    transform, the bound on a small quadratic, the determinant and
    truth-table builds, one matrix and one vector run (30 %, about 150 ms
    each raw); the functional build and eight runs on it (39 %, about
    220 ms); verify REJECT 2 and ACCEPT 4 on the n=5 functional listing
    (26 %, about 290 ms); one run on the large listing (4 %, about 2 s).
    The median falls inside the functional runs and the 90th percentile at
    two thirds of the ACCEPT verifies, which are four per session so that
    twenty or more samples sit around it.  No warm-up: every command pays
    interpreter start and import, as a user does.
    """

    name = "cli-session"
    mix = {"run_functional": 8, "run_matrix": 1, "run_vector": 1, "run_large": 1,
           "verify_accept": 4, "verify_reject": 2, "bound": 1, "transform": 1,
           "malformed": 1}
    builds = ("build_functional", "build_determinant", "build_truth_table")

    def __init__(self, seed, workdir, smoke=False):
        super().__init__(seed, workdir, smoke)
        path = [str(HERE.parent / "src")] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        self.child_wrapped_s = 0.0  # top-level wrapped time reported by children
        self.build_bytes: dict[str, bytes] = {}

    def make_inputs(self):
        s = (dict(fg_n=3, det_n=3, tt_n=4, tt_m=6, large_n=4, graph_n=2, pairs=2) if self.smoke
             else dict(fg_n=5, det_n=6, tt_n=10, tt_m=6, large_n=6, graph_n=3, pairs=5))
        rng, pool = self.rng, 16
        s["phases"] = _random_table(rng, s["tt_n"], s["tt_m"])
        s["vectors"] = _table_inputs(rng, s["tt_n"], s["phases"], pool)
        s["functions"] = [tuple(rng.randrange(s["fg_n"]) for _ in range(s["fg_n"]))
                          for _ in range(pool)]
        s["large"] = [tuple(rng.randrange(s["large_n"]) for _ in range(s["large_n"]))
                      for _ in range(pool)]
        s["matrices"] = []
        for _ in range(pool):
            images = _random_function(rng, s["det_n"], rng.random() < 0.5)
            s["matrices"].append([[int(images[i] == j) for j in range(s["det_n"])]
                                  for i in range(s["det_n"])])
        n = s["fg_n"]
        s["bad_entries"] = [(rng.randrange(n), rng.randrange(n), rng.choice((2, 3, -1)))
                            for _ in range(pool)]
        s["pair_phases"] = [rng.randrange(12) for _ in range(s["pairs"])]
        cells = list(itertools.product((0, 1), repeat=s["graph_n"] ** 2))
        s["graphs"] = [[list(c[i * s["graph_n"]:(i + 1) * s["graph_n"]])
                        for i in range(s["graph_n"])] for c in rng.sample(cells, 3)]
        return s

    def setup(self) -> None:
        """Write every input file, and the large listing through the library."""
        from diffcomp import listings, multipoly
        s, w = self.inputs, self.workdir
        w.mkdir(parents=True, exist_ok=True)
        (w / "table.tt").write_text(oracles.truth_table_text(s["tt_n"], s["tt_m"], s["phases"]))
        for i, b in enumerate(s["vectors"]):
            (w / f"v{i}.in").write_text("".join(map(str, b)) + "\n")
        for i, images in enumerate(s["functions"]):
            (w / f"f{i}.in").write_text(",".join(map(str, images)) + "\n")
        for i, images in enumerate(s["large"]):
            (w / f"g{i}.in").write_text(",".join(map(str, images)) + "\n")
        for i, rows in enumerate(s["matrices"]):
            (w / f"m{i}.in").write_text("\n".join("".join(map(str, r)) for r in rows) + "\n")
        n = s["fg_n"]
        one, zero = (Fraction(1),), (Fraction(0),)
        rows = [[one if v * n <= x < v * n + n else zero for x in range(n * n + 1)]
                for v in range(n)]
        (w / "cert.chow").write_text(oracles.decomposition_text(1, n * n, [rows]))
        for i, (v, col, value) in enumerate(s["bad_entries"]):
            bad = [list(r) for r in rows]
            bad[v][v * n + col] = (Fraction(value),)
            (w / f"bad{i}.chow").write_text(oracles.decomposition_text(1, n * n, [bad]))
        (w / "graphs.gs").write_text(oracles.graph_set_text(s["graphs"]))
        # P_2 = sum_i w^{k_i} a_{2i} a_{2i+1} (order 12) and its trivial certificate
        size, zero12 = 2 * s["pairs"], (Fraction(0),) * len(oracles.omega_power(12, 0))
        terms = [f"{oracles.scalar_text(12, oracles.omega_power(12, k))} * a_{2 * i} * "
                 f"a_{2 * i + 1}" for i, k in enumerate(s["pair_phases"])]
        (w / "pairs.poly").write_text("\n".join(["# diffcomp-poly 1", f"{size} 12"] + terms)
                                      + "\n")
        summands = []
        for i, k in enumerate(s["pair_phases"]):
            forms = [[zero12] * (size + 1) for _ in range(2)]
            forms[0][2 * i] = oracles.omega_power(12, k)
            forms[1][2 * i + 1] = oracles.omega_power(12, 0)
            summands.append(forms)
        (w / "pairs.chow").write_text(oracles.decomposition_text(12, size, summands))
        for i, text in enumerate(_MALFORMED):
            (w / f"malformed{i}.poly").write_text(text)
        large = listings.listing_functional_graphs(s["large_n"])
        (w / "large.poly").write_text(
            multipoly.poly_to_text(large, multipoly.VarTable.matrix(s["large_n"])))

    def warm_up(self) -> bool:
        return True  # none: users pay interpreter start and import on every command

    def cycle(self, k: int) -> list[Job]:
        rng = random.Random(f"{self.name}:{self.seed}:cycle:{k}")
        kinds = list(self.builds) + _cycle_kinds(rng, self.mix)
        return [self.job(kind, k * 1000 + i, rng) for i, kind in enumerate(kinds)]

    def command(self, kind: str, job_id) -> list[str]:
        """The plain CLI, or launcher.py when a tracer collects the child's spans."""
        if self.trace_into is None:
            return [sys.executable, "-c", CLI_MAIN]
        trace = self.workdir / f"trace-{job_id}.json"
        return [sys.executable, str(HERE / "launcher.py"), str(trace), kind, str(job_id), "--"]

    def job(self, kind, job_id, rng) -> Job:
        s = self.inputs
        pick = rng.randrange(len(s["functions"]))
        tt_n, fg_n, det_n = s["tt_n"], s["fg_n"], s["det_n"]
        expect_file = None
        if kind == "build_functional":
            args, out = ["build", "functional", "--n", str(fg_n), "--out", "fg.poly"], ""
            expect_file = ("fg.poly", lambda: (fg_n * fg_n, 1, oracles.functional_terms(fg_n)))
        elif kind == "build_determinant":
            args, out = ["build", "determinant", "--n", str(det_n), "--out", "det.poly"], ""
            expect_file = ("det.poly",
                           lambda: (det_n * det_n, 2, oracles.determinant_terms(det_n)))
        elif kind == "build_truth_table":
            args, out = ["build", "truth-table", "--table", "table.tt", "--out", "tt.poly"], ""
            expect_file = ("tt.poly", lambda: (
                tt_n, s["tt_m"], oracles.truth_table_terms(s["tt_m"], s["phases"])))
        elif kind == "run_functional":
            args, out = ["run", "fg.poly", f"f{pick}.in", "--kind", "functional"], "1\n"
        elif kind == "run_large":
            args, out = ["run", "large.poly", f"g{pick}.in", "--kind", "functional"], "1\n"
        elif kind == "run_matrix":
            bit = int(oracles.permutation_of_matrix(s["matrices"][pick]) is not None)
            args, out = ["run", "det.poly", f"m{pick}.in", "--kind", "matrix"], f"{bit}\n"
        elif kind == "run_vector":
            bit = int(s["vectors"][pick] in s["phases"])
            args, out = ["run", "tt.poly", f"v{pick}.in", "--kind", "vector"], f"{bit}\n"
        elif kind.startswith("verify"):
            accept = kind == "verify_accept"
            cert = "cert.chow" if accept else f"bad{pick}.chow"
            args = ["verify", cert, "fg.poly"]
            out = (f"rho 1 degree {fg_n} nvars {fg_n * fg_n}\n"
                   f"verdict {'ACCEPT' if accept else 'REJECT'}\n")
        elif kind == "bound":
            args = ["bound", "pairs.poly", "--certificate", "pairs.chow"]
            out = "".join(f"{what} {s['pairs']}\n"
                          for what in ("upper", "certificate", "lower", "exact"))
        elif kind == "transform":
            g = s["graph_n"]
            args = ["transform", "graphs.gs", "--mode", "T", "--out-prefix", "tr"]
            out = (f"transformed 3 graphs on {g} vertices to functional graphs on {g * g} "
                   "points\nrestriction recovery PASS\n")
        else:  # malformed
            args = ["run", f"malformed{pick % len(_MALFORMED)}.poly", "v0.in"]
            out = ""
        code = {"malformed": EXIT_BAD_INPUT, "verify_reject": EXIT_REJECT}.get(kind, EXIT_OK)

        def call():
            p = subprocess.run(self.command(kind, job_id) + args, cwd=self.workdir,
                               env=self.env, capture_output=True, timeout=170)
            return p.returncode, p.stdout

        def check(answer):
            self.collect_trace(job_id)
            ok = answer == (code, out.encode())
            if ok and expect_file:
                ok = self.check_build(kind, *expect_file)
            return ok

        return Job(kind, call, check)

    def check_build(self, kind, path, expected) -> bool:
        """First build of a kind: term set against our own enumeration;
        later builds: byte-identical to the first."""
        data = (self.workdir / path).read_bytes()
        if kind in self.build_bytes:
            return data == self.build_bytes[kind]
        self.build_bytes[kind] = data
        try:
            got = oracles.parse_listing(data.decode())
        except ValueError:
            return False
        return got == expected()

    def collect_trace(self, job_id) -> None:
        path = self.workdir / f"trace-{job_id}.json"
        if self.trace_into is not None and path.exists():
            data = json.loads(path.read_text())
            self.trace_into.merge(data)
            self.child_wrapped_s += data["wrapped_s"]
            path.unlink()


WORKLOADS = {w.name: w for w in (RunStream, Certify, CliSession)}
