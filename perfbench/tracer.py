"""Per-module spans recorded from outside the package.

`Tracer.install()` replaces public functions and methods of the diffcomp
modules with timing wrappers, in every diffcomp module namespace that holds
the same object, and `uninstall()` puts the originals back.  Nothing under
`src/` is edited.

Spans nest, so each wrapped call knows its self time: its duration minus
the time covered by wrapped calls inside it.  The arithmetic layers
(`cyclotomic.*`, most of `multipoly.*`) run millions of times per run, so
their spans are only aggregated per (job kind, name) into call count, total
and self time.  Entry-point spans (builders, engine runs, Chow checks, text
I/O, CLI commands) are also kept one by one with start, end, parent and job.
Everything runs on one thread, so nothing here waits on another layer.
"""

from __future__ import annotations

import importlib
import json
import statistics
import time
from collections import defaultdict

from oracles import omega_power

MODULES = ("cyclotomic", "multipoly", "listings", "engine", "chow", "graphs", "cli")
_RAISED = object()


# -- counters read off wrapped calls ----------------------------------------------
# A `pre` hook returns a token; a `post` hook gets (tracer, token, args, result),
# where result is _RAISED when the call raised.  Hook time is charged to nobody.

def _cyclo_mul_post(tr, token, args, result):
    a, b = args[0], args[1]
    oa, ob = getattr(a, "order", 1), getattr(b, "order", 1)
    c = tr.counts
    if oa != ob:
        c["cyclotomic.mul.mixed_order"] += 1
    if tr.is_unit(a) or tr.is_unit(b):
        c["cyclotomic.mul.unit"] += 1


def _poly_mul_pre(tr, args):
    other = args[1]
    return len(args[0].terms) * (len(other.terms) if hasattr(other, "terms") else 1)


def _poly_mul_post(tr, token, args, result):
    tr.counts["multipoly.mul.pairs"] += token
    _track_expand_peak(tr, result)


def _track_expand_peak(tr, result):
    if tr.expand_depth and result is not _RAISED:
        tr.expand_peak = max(tr.expand_peak, len(result.terms))


def _poly_add_post(tr, token, args, result):
    _track_expand_peak(tr, result)


def _derivative_post(tr, token, args, result):
    c = tr.counts
    c["multipoly.partial_derivative.terms_in"] += len(args[0].terms)
    if result is not _RAISED:
        c["multipoly.partial_derivative.terms_out"] += len(result.terms)


def _parse_post(tr, token, args, result):
    tr.counts["multipoly.text.parse_bytes"] += len(args[0].encode())


def _write_post(tr, token, args, result):
    if result is not _RAISED:
        tr.counts["multipoly.text.write_bytes"] += len(result.encode())


def _build_post(tr, token, args, result):
    if result is not _RAISED:
        tr.counts["listings.build.terms"] += len(result.terms)


def _run_pre(tr, args):
    c = tr.by_name_calls("multipoly.partial_derivative")
    return c, tr.counts["multipoly.partial_derivative.terms_in"]


def _run_post(tr, token, args, result):
    c = tr.counts
    c["engine.run.derivatives"] += tr.by_name_calls("multipoly.partial_derivative") - token[0]
    c["engine.run.terms_scanned"] += c["multipoly.partial_derivative.terms_in"] - token[1]
    if result is _RAISED:
        if type(tr.last_error).__name__ == "ModelViolationError":
            c["engine.run.model_violations"] += 1
    elif result.bit == 1:
        c["engine.run.yes"] += 1


def _expand_pre(tr, args):
    tr.expand_depth += 1


def _expand_post(tr, token, args, result):
    tr.expand_depth -= 1
    if result is not _RAISED:
        tr.expand_peak = max(tr.expand_peak, len(result.terms))
    tr.counts["chow.expand.peak_terms"] = max(tr.counts["chow.expand.peak_terms"], tr.expand_peak)
    if not tr.expand_depth:
        tr.expand_peak = 0


# (module, class or None, attribute, span name, keep individual spans, pre, post)
WRAPS = [
    ("cyclotomic", "CycloRational", "__init__", "cyclotomic.new", False, None, None),
    ("cyclotomic", "CycloRational", "__mul__", "cyclotomic.mul", False, None, _cyclo_mul_post),
    ("cyclotomic", "CycloRational", "__rmul__", "cyclotomic.mul", False, None, _cyclo_mul_post),
    ("cyclotomic", "CycloRational", "__add__", "cyclotomic.add", False, None, None),
    ("cyclotomic", "CycloRational", "__radd__", "cyclotomic.add", False, None, None),
    ("cyclotomic", "CycloRational", "__sub__", "cyclotomic.sub", False, None, None),
    ("cyclotomic", "CycloRational", "__neg__", "cyclotomic.neg", False, None, None),
    ("cyclotomic", "CycloRational", "__truediv__", "cyclotomic.div", False, None, None),
    ("cyclotomic", "CycloRational", "__pow__", "cyclotomic.pow", False, None, None),
    ("cyclotomic", "CycloRational", "__eq__", "cyclotomic.eq", False, None, None),
    ("cyclotomic", "CycloRational", "inverse", "cyclotomic.inverse", False, None, None),
    ("cyclotomic", "CycloRational", "embed", "cyclotomic.embed", False, None, None),
    ("cyclotomic", "CycloRational", "from_text", "cyclotomic.from_text", False, None, None),
    ("cyclotomic", "CycloRational", "to_text", "cyclotomic.to_text", False, None, None),
    ("cyclotomic", None, "root_of_unity", "cyclotomic.root_of_unity", False, None, None),
    ("multipoly", "MultiPoly", "__init__", "multipoly.init", False, None, None),
    ("multipoly", "MultiPoly", "__mul__", "multipoly.mul", False, _poly_mul_pre, _poly_mul_post),
    ("multipoly", "MultiPoly", "__rmul__", "multipoly.mul", False, _poly_mul_pre, _poly_mul_post),
    ("multipoly", "MultiPoly", "__add__", "multipoly.add", False, None, _poly_add_post),
    ("multipoly", "MultiPoly", "__radd__", "multipoly.add", False, None, _poly_add_post),
    ("multipoly", "MultiPoly", "__sub__", "multipoly.sub", False, None, None),
    ("multipoly", "MultiPoly", "__neg__", "multipoly.neg", False, None, None),
    ("multipoly", "MultiPoly", "__eq__", "multipoly.eq", False, None, None),
    ("multipoly", "MultiPoly", "partial_derivative", "multipoly.partial_derivative", False,
     None, _derivative_post),
    ("multipoly", "MultiPoly", "evaluate", "multipoly.evaluate", False, None, None),
    ("multipoly", "MultiPoly", "restrict_and_relabel", "multipoly.restrict", False, None, None),
    ("multipoly", None, "poly_from_text", "multipoly.text.parse", True, None, _parse_post),
    ("multipoly", None, "poly_to_text", "multipoly.text.write", True, None, _write_post),
    ("listings", None, "listing_from_truth_table", "listings.build", True, None, _build_post),
    ("listings", None, "listing_functional_graphs", "listings.build", True, None, _build_post),
    ("listings", None, "listing_permanent", "listings.build", True, None, _build_post),
    ("listings", None, "listing_determinant", "listings.build", True, None, _build_post),
    ("listings", None, "listing_graph_isomorphism", "listings.build", True, None, _build_post),
    ("listings", None, "listing_constant_functions", "listings.build", True, None, _build_post),
    ("listings", None, "listing_cyclic_group", "listings.build", True, None, _build_post),
    ("listings", None, "lagrange_interpolant", "listings.build", True, None, _build_post),
    ("listings", "TruthTable", "from_text", "listings.table_from_text", True, None, None),
    ("engine", "DifferentialComputer", "__init__", "engine.dc_init", True, None, None),
    ("engine", None, "run_vector", "engine.run", True, _run_pre, _run_post),
    ("engine", None, "run_matrix", "engine.run", True, _run_pre, _run_post),
    ("engine", None, "run_functional", "engine.run", True, _run_pre, _run_post),
    ("engine", None, "inverse_via_gradient", "engine.inverse", True, None, None),
    ("chow", "ChowDecomposition", "__init__", "chow.decomposition_init", False, None, None),
    ("chow", "ChowDecomposition", "from_text", "chow.from_text", True, None, None),
    ("chow", None, "expand", "chow.expand", True, _expand_pre, _expand_post),
    ("chow", None, "verify", "chow.verify", True, None, None),
    ("chow", None, "exact_rank", "chow.exact_rank", True, None, None),
    ("chow", None, "symmetric_matrix_of", "chow.symmetric_matrix", True, None, None),
    ("chow", None, "degree2_chow_lower_bound", "chow.degree2_bound", True, None, None),
    ("chow", None, "chow_rank_non_overlapping", "chow.rank_non_overlapping", True, None, None),
    ("graphs", None, "graph_set_from_text", "graphs.set_from_text", True, None, None),
    ("graphs", None, "transform_set", "graphs.transform", True, None, None),
    ("graphs", None, "recovers_original", "graphs.recovers_original", True, None, None),
    ("cli", None, "main", "cli.main", True, None, None),
    ("cli", None, "cmd_build", "cli.build", True, None, None),
    ("cli", None, "cmd_run", "cli.run", True, None, None),
    ("cli", None, "cmd_verify", "cli.verify", True, None, None),
    ("cli", None, "cmd_bound", "cli.bound", True, None, None),
    ("cli", None, "cmd_transform", "cli.transform", True, None, None),
]


class Tracer:
    """Span and counter store for one process; `begin_job` sets the job it charges."""

    def __init__(self) -> None:
        self.aggregates: dict[str, dict[str, list]] = {}  # kind -> name -> [calls, total, self]
        self.kind_counts: dict[str, defaultdict] = {}  # kind -> counter -> value
        self.spans: list[dict] = []
        self.missing: list[str] = []
        self.stack = [0.0]  # child time covered inside each open wrapped call
        self.open_spans: list[int] = []
        self.expand_depth = 0
        self.expand_peak = 0
        self.last_error: BaseException | None = None
        self._patches: list[tuple[object, str, object]] = []
        self._units: dict[int, set] = {}
        self.begin_job("setup", "setup")

    # -- job bookkeeping ----------------------------------------------------------

    def begin_job(self, kind: str, job) -> None:
        self.kind, self.job = kind, job
        self.agg = self.aggregates.setdefault(kind, defaultdict(lambda: [0, 0.0, 0.0]))
        self.counts = self.kind_counts.setdefault(kind, defaultdict(int))
        self.stack[0] = 0.0

    def wrapped_time(self) -> float:
        """Time the current job spent inside top-level wrapped calls."""
        return self.stack[0]

    def by_name_calls(self, name: str) -> int:
        rec = self.agg.get(name)
        return rec[0] if rec else 0

    def is_unit(self, x) -> bool:
        """Order 1, or exactly +-w^k: the cheap scalars listings are made of."""
        order = getattr(x, "order", 1)
        if order == 1:
            return True
        units = self._units.get(order)
        if units is None:
            pos = [omega_power(order, k) for k in range(order)]
            units = set(pos) | {tuple(-c for c in p) for p in pos}
            self._units[order] = units
        return x.coeffs in units

    # -- patching ---------------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(f"diffcomp.{m}") for m in MODULES]
        modules.append(importlib.import_module("diffcomp"))
        for mod_name, owner_name, attr, name, keep, pre, post in WRAPS:
            mod = importlib.import_module(f"diffcomp.{mod_name}")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = owner.__dict__.get(attr) if owner is not None else None
            if original is None:
                self.missing.append(f"{mod_name}.{owner_name + '.' if owner_name else ''}{attr}")
                continue
            if isinstance(original, classmethod):
                wrapper = classmethod(self._wrap(name, original.__func__, keep, pre, post))
            else:
                wrapper = self._wrap(name, original, keep, pre, post)
            targets = [owner] if owner_name else [m for m in modules
                                                  if m.__dict__.get(attr) is original]
            for target in targets:
                self._patches.append((target, attr, original))
                setattr(target, attr, wrapper)

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._patches):
            setattr(target, attr, original)
        self._patches.clear()

    def _wrap(self, name, fn, keep, pre, post):
        perf = time.perf_counter
        stack = self.stack
        tr = self

        def wrapper(*args, **kwargs):
            token = pre(tr, args) if pre else None
            if keep:
                sid = len(tr.spans)
                tr.spans.append({"id": sid, "name": name, "job": tr.job, "kind": tr.kind,
                                 "parent": tr.open_spans[-1] if tr.open_spans else None})
                tr.open_spans.append(sid)
            stack.append(0.0)
            result = _RAISED
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                tr.last_error = exc
                raise
            finally:
                t1 = perf()
                dt = t1 - t0
                child = stack.pop()
                stack[-1] += dt
                rec = tr.agg[name]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - child
                if keep:
                    tr.open_spans.pop()
                    span = tr.spans[sid]
                    span["start"], span["end"] = t0, t1
                    if isinstance(result, (bool, int)):
                        span["result"] = result
                    elif result is _RAISED:
                        span["error"] = type(tr.last_error).__name__
                if post:
                    post(tr, token, args, result)
                    stack[-1] += perf() - t1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output -------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "aggregates": {k: {n: {"calls": r[0], "total_s": r[1], "self_s": r[2]}
                               for n, r in sorted(v.items())}
                           for k, v in self.aggregates.items()},
            "counts": {k: dict(sorted(v.items())) for k, v in self.kind_counts.items()},
            "spans": self.spans,
            "missing_wrappers": self.missing,
        }

    def merge(self, data: dict) -> None:
        """Fold in a child process's `to_json()` output."""
        for kind, names in data["aggregates"].items():
            agg = self.aggregates.setdefault(kind, defaultdict(lambda: [0, 0.0, 0.0]))
            for name, r in names.items():
                rec = agg[name]
                rec[0] += r["calls"]
                rec[1] += r["total_s"]
                rec[2] += r["self_s"]
        for kind, counts in data["counts"].items():
            mine = self.kind_counts.setdefault(kind, defaultdict(int))
            for key, value in counts.items():
                _fold(mine, key, value)
        base = len(self.spans)
        for span in data["spans"]:
            span = dict(span, id=span["id"] + base)
            if span["parent"] is not None:
                span["parent"] += base
            self.spans.append(span)


# -- per-layer metrics ------------------------------------------------------------

def _fold(counts, key, value) -> None:
    """Add a counter into a total; peaks combine by max."""
    counts[key] = max(counts[key], value) if key.endswith("peak_terms") else counts[key] + value


def _p50_ms(values) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def layer_metrics(tr: Tracer, extra: dict) -> dict[str, tuple[float, str]]:
    """The per-layer metric table from a finished trace; `extra` holds the
    numbers measured by the workload itself (cli.startup_ms, cli.inproc_frac,
    trace.overhead_frac, trace.bench_self_frac)."""
    calls, total, self_s = defaultdict(int), defaultdict(float), defaultdict(float)
    for names in tr.aggregates.values():
        for name, (c, t, s) in names.items():
            calls[name] += c
            total[name] += t
            self_s[name] += s
    counts = defaultdict(int)
    for kc in tr.kind_counts.values():
        for key, value in kc.items():
            _fold(counts, key, value)

    def module_self(mod):
        return sum((v for k, v in self_s.items() if k.startswith(mod + ".")), 0.0)

    def frac(num, den):
        return num / den if den else 0.0

    def durations(name, result=None):
        return [s["end"] - s["start"] for s in tr.spans if s["name"] == name
                and "end" in s and (result is None or s.get("result") == result)]

    m = {}
    m["cyclotomic.self_s"] = (module_self("cyclotomic"), "s")
    m["cyclotomic.new.calls"] = (calls["cyclotomic.new"], "count")
    m["cyclotomic.mul.calls"] = (calls["cyclotomic.mul"], "count")
    m["cyclotomic.mul.self_s"] = (self_s["cyclotomic.mul"], "s")
    m["cyclotomic.mul.mixed_order_frac"] = (
        frac(counts["cyclotomic.mul.mixed_order"], calls["cyclotomic.mul"]), "ratio")
    m["cyclotomic.mul.unit_frac"] = (
        frac(counts["cyclotomic.mul.unit"], calls["cyclotomic.mul"]), "ratio")
    m["cyclotomic.add.calls"] = (calls["cyclotomic.add"], "count")
    m["cyclotomic.add.self_s"] = (self_s["cyclotomic.add"], "s")
    m["cyclotomic.inverse.calls"] = (calls["cyclotomic.inverse"], "count")
    m["cyclotomic.inverse.self_s"] = (self_s["cyclotomic.inverse"], "s")

    m["multipoly.self_s"] = (module_self("multipoly"), "s")
    m["multipoly.init.calls"] = (calls["multipoly.init"], "count")
    m["multipoly.init.self_s"] = (self_s["multipoly.init"], "s")
    m["multipoly.mul.calls"] = (calls["multipoly.mul"], "count")
    m["multipoly.mul.self_s"] = (self_s["multipoly.mul"], "s")
    m["multipoly.mul.pairs"] = (counts["multipoly.mul.pairs"], "count")
    m["multipoly.add.self_s"] = (self_s["multipoly.add"], "s")
    m["multipoly.partial_derivative.calls"] = (calls["multipoly.partial_derivative"], "count")
    m["multipoly.partial_derivative.self_s"] = (self_s["multipoly.partial_derivative"], "s")
    m["multipoly.partial_derivative.terms_in"] = (
        counts["multipoly.partial_derivative.terms_in"], "count")
    m["multipoly.partial_derivative.kept_frac"] = (
        frac(counts["multipoly.partial_derivative.terms_out"],
             counts["multipoly.partial_derivative.terms_in"]), "ratio")
    m["multipoly.evaluate.self_s"] = (self_s["multipoly.evaluate"], "s")
    m["multipoly.restrict.self_s"] = (self_s["multipoly.restrict"], "s")
    m["multipoly.text.parse_s"] = (total["multipoly.text.parse"], "s")
    m["multipoly.text.parse_bytes"] = (counts["multipoly.text.parse_bytes"], "bytes")
    m["multipoly.text.write_s"] = (total["multipoly.text.write"], "s")
    m["multipoly.text.write_bytes"] = (counts["multipoly.text.write_bytes"], "bytes")

    m["listings.self_s"] = (module_self("listings"), "s")
    m["listings.build.calls"] = (calls["listings.build"], "count")
    m["listings.build.terms"] = (counts["listings.build.terms"], "count")

    m["engine.self_s"] = (module_self("engine"), "s")
    m["engine.run.calls"] = (calls["engine.run"], "count")
    m["engine.run.derivatives"] = (counts["engine.run.derivatives"], "count")
    m["engine.run.terms_scanned"] = (counts["engine.run.terms_scanned"], "count")
    m["engine.run.yes_frac"] = (frac(counts["engine.run.yes"], calls["engine.run"]), "ratio")
    m["engine.run.model_violations"] = (counts["engine.run.model_violations"], "count")
    m["engine.dc_init.self_s"] = (self_s["engine.dc_init"], "s")
    m["engine.inverse.calls"] = (calls["engine.inverse"], "count")
    m["engine.inverse.self_s"] = (self_s["engine.inverse"], "s")

    m["chow.self_s"] = (module_self("chow"), "s")
    m["chow.expand.calls"] = (calls["chow.expand"], "count")
    m["chow.expand.peak_terms"] = (counts["chow.expand.peak_terms"], "count")
    m["chow.verify.accept_p50_ms"] = (_p50_ms(durations("chow.verify", True)), "ms")
    m["chow.verify.reject_p50_ms"] = (_p50_ms(durations("chow.verify", False)), "ms")
    m["chow.exact_rank.self_s"] = (self_s["chow.exact_rank"], "s")
    m["chow.from_text.self_s"] = (self_s["chow.from_text"], "s")

    m["graphs.self_s"] = (module_self("graphs"), "s")
    m["graphs.transform.calls"] = (calls["graphs.transform"], "count")

    m["cli.startup_ms"] = (extra.get("cli.startup_ms", 0.0), "ms")
    for cmd in ("build", "run", "verify", "bound", "transform"):
        m[f"cli.{cmd}.p50_ms"] = (_p50_ms(durations(f"cli.{cmd}")), "ms")
    m["cli.inproc_frac"] = (extra.get("cli.inproc_frac", 0.0), "ratio")

    m["trace.overhead_frac"] = (extra["trace.overhead_frac"], "ratio")
    m["trace.bench_self_frac"] = (extra["trace.bench_self_frac"], "ratio")
    return m


def write_json(path, data) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True, default=str) + "\n")
