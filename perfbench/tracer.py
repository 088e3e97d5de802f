"""Per-layer tracing from outside the program.

A ``Tracer`` wraps the public functions of fibval's modules and installs each
wrapper under the name the calling module looks it up by (for example
``fibval.oracle.fib_mod``), so no file of the package changes.  Each call is
a span; spans nest through a stack, and a span's self time is its duration
minus the time its child spans cover.  Counts and times are aggregated per
(name, parent) in memory, never stored per span, because the primitives are
called millions of times in one pass.

The tracer also keeps the counters a layer's spans alone cannot give: rank
cache misses, oracle prefix growth, the theorem behind every closed-form
evaluation, integrity errors and nonzero CLI exits.
"""

from __future__ import annotations

import contextlib
import importlib
import math
import statistics
import time
from array import array
from collections import Counter

from fibval import rank
from fibval.arith import FormulaIntegrityError
from fibval.formulas import BranchTrace, Theorem
from fibval.oracle import OracleTier

# (span name, defining module, function, modules whose global name is patched)
SPANS = (
    ("arith.fib_mod", "fibval.arith", "fib_mod", ("fibval.oracle", "fibval.rank")),
    ("arith.fib", "fibval.arith", "fib", ("fibval.oracle",)),
    ("arith.is_prime", "fibval.arith", "is_prime", ("fibval.arith",)),
    ("arith.digit_sum", "fibval.arith", "digit_sum", ("fibval.arith", "fibval.formulas")),
    ("rank.rank_of_apparition", "fibval.rank", "rank_of_apparition",
     ("fibval.formulas", "fibval.verify")),
    ("formulas.nu_central", "fibval.formulas", "nu_central", ("fibval.verify", "fibval.cli")),
    ("formulas.nu_fibonomial_formula", "fibval.formulas", "nu_fibonomial_formula",
     ("fibval.verify", "fibval.cli")),
    ("formulas.nu_ratio_prime_powers", "fibval.formulas", "nu_ratio_prime_powers",
     ("fibval.verify",)),
    ("formulas.nu2_central", "fibval.formulas", "nu2_central", ("fibval.formulas", "fibval.cli")),
    ("formulas.nup_central", "fibval.formulas", "nup_central", ("fibval.formulas",)),
    ("formulas.divides_p_central", "fibval.formulas", "divides_p_central", ("fibval.cli",)),
    ("formulas.is_odd_2n", "fibval.formulas", "is_odd_2n", ("fibval.formulas", "fibval.cli")),
    ("formulas.is_odd_4n", "fibval.formulas", "is_odd_4n", ("fibval.formulas", "fibval.cli")),
    ("formulas.is_odd_8n", "fibval.formulas", "is_odd_8n", ("fibval.formulas", "fibval.cli")),
    # named oracle.modular or oracle.exact per call, by its tier argument
    ("oracle", "fibval.oracle", "nu_fibonomial_oracle",
     ("fibval.oracle", "fibval.verify", "fibval.cli")),
    ("verify.run_verify", "fibval.verify", "run_verify", ("fibval.verify",)),
    ("verify.consistency", "fibval.verify", "_consistency_checks", ("fibval.verify",)),
    ("verify.general_sweep", "fibval.verify", "_general_sweep", ("fibval.verify",)),
    ("verify.ratio_sweep", "fibval.verify", "_ratio_sweep", ("fibval.verify",)),
    ("cli.main", "fibval.cli", "main", ("fibval.cli",)),
)

# Formula entries whose result carries a BranchTrace.  A theorem is counted
# where such a result leaves the formulas layer, not again for the dispatch
# inside it (nu_central calling nu2_central is one evaluation).
TRACED_RESULTS = frozenset({"formulas.nu_central", "formulas.nu_fibonomial_formula",
                            "formulas.nu_ratio_prime_powers", "formulas.nu2_central",
                            "formulas.nup_central"})

_CALLS_AND_SELF = ("arith.fib_mod", "arith.is_prime", "arith.digit_sum", "arith.fib",
                   "rank.rank_of_apparition", "formulas.nu_central",
                   "formulas.nu_fibonomial_formula", "formulas.nu_ratio_prime_powers",
                   "formulas.nu2_central", "formulas.nup_central", "formulas.divides_p_central",
                   "formulas.is_odd_2n", "formulas.is_odd_4n", "formulas.is_odd_8n",
                   "oracle.modular", "oracle.exact", "cli.main")
_INCLUSIVE = ("verify.consistency", "verify.general_sweep", "verify.ratio_sweep")


def int_object_bytes(bits: int) -> int:
    """Size of a CPython int of this many bits (30-bit digits after a 24-byte header)."""
    return 24 + 4 * max(1, math.ceil(bits / 30))


def fib_prefix_bytes(top: int) -> int:
    """Bytes held by the tier-A prefix products prod_{i<=j} F_i for j = 0..top,
    computed from F_i = (phi^i - psi^i)/sqrt(5), not read from the cache."""
    phi = (1 + math.sqrt(5)) / 2
    total = int_object_bytes(1)
    log2_product = 0.0
    for i in range(1, top + 1):
        log2_product += i * math.log2(phi) - math.log2(5) / 2 + math.log2(1 - (-1 / phi**2) ** i)
        total += int_object_bytes(math.floor(log2_product + 1e-9) + 1)
    return total


class Tracer:
    """Spans and counters of every traced pass; ``metrics`` gives per-pass values."""

    def __init__(self) -> None:
        self._stack: list[list] = []
        self.agg: dict[tuple[str, str | None], list[int]] = {}  # -> [calls, self_ns, total_ns]
        self.counts: Counter[str] = Counter()
        self.lookup_ns = array("q")
        self.passes = 0
        self._pass_state()

    def _pass_state(self) -> None:
        self._modular_top: dict[int, int] = {}
        self._exact_top = 0

    # -- installing -------------------------------------------------------

    @contextlib.contextmanager
    def traced_pass(self):
        """Patch every span in place for one pass and restore every name after."""
        saved = []
        self._pass_state()
        try:
            for span, _, func, targets in SPANS:
                for target in targets:
                    module = importlib.import_module(target)
                    inner = getattr(module, func)
                    saved.append((module, func, inner))
                    setattr(module, func, self._wrap(span, inner))
            yield self
        finally:
            for module, func, inner in reversed(saved):
                setattr(module, func, inner)
        self.passes += 1
        self.counts["oracle.modular.prefix_entries"] += sum(
            top + 1 for top in self._modular_top.values())
        self.counts["oracle.exact.cache_bytes_computed"] += (
            fib_prefix_bytes(self._exact_top) if self._exact_top else 0)
        self.counts["rank.cache_entries"] += len(rank._cache)

    def _wrap(self, span, fn):
        stack, agg, clock = self._stack, self.agg, time.perf_counter_ns
        before, after = _HOOKS.get(span, (None, None))

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            name, state = before(self, args, kwargs) if before else (span, None)
            frame = [name, 0]
            stack.append(frame)
            result = exc = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                dur = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                rec = agg.get((name, parent))
                if rec is None:
                    rec = agg[(name, parent)] = [0, 0, 0]
                rec[0] += 1
                rec[1] += dur - frame[1]
                rec[2] += dur
                if after:
                    after(self, name, parent, state, args, result, exc, dur)

        traced.__wrapped__ = fn
        return traced

    # -- reading ----------------------------------------------------------

    def total(self, name: str, field: int) -> int:
        return sum(rec[field] for (n, _), rec in self.agg.items() if n == name)

    def metrics(self, overhead_s: float) -> dict[str, float]:
        """Every per-layer metric, per traced pass (passes replay the same inputs)."""
        per = max(1, self.passes)
        out: dict[str, float] = {}
        for name in _CALLS_AND_SELF:
            out[f"{name}.calls"] = self.total(name, 0) / per
            out[f"{name}.self_s"] = self.total(name, 1) / per / 1e9
        rank_calls = self.total("rank.rank_of_apparition", 0)
        misses = self.counts["rank.rank_of_apparition.misses"]
        out["rank.rank_of_apparition.misses"] = misses / per
        out["rank.hit_ratio"] = (rank_calls - misses) / rank_calls if rank_calls else 0.0
        out["rank.cache_entries"] = self.counts["rank.cache_entries"] / per
        commands = self.counts["rank.commands"]
        out["rank.command_hit_ratio"] = (
            self.counts["rank.command_hits"] / commands if commands else 0.0)
        for theorem in Theorem:
            out[f"formulas.theorem.{theorem.value}.calls"] = (
                self.counts[f"formulas.theorem.{theorem.value}"] / per)
        out["formulas.integrity_errors"] = self.counts["formulas.integrity_errors"] / per
        out["oracle.modular.build_s"] = self.counts["oracle.modular.build_ns"] / per / 1e9
        out["oracle.modular.lookup_p50_us"] = (
            statistics.median_low(self.lookup_ns) / 1e3 if self.lookup_ns else 0.0)
        out["oracle.modular.prefix_entries"] = self.counts["oracle.modular.prefix_entries"] / per
        out["oracle.exact.cache_bytes_computed"] = (
            self.counts["oracle.exact.cache_bytes_computed"] / per)
        out["verify.run_verify.self_s"] = self.total("verify.run_verify", 1) / per / 1e9
        for name in _INCLUSIVE:
            out[f"{name}.s"] = self.total(name, 2) / per / 1e9
        out["verify.cells"] = self.counts["verify.cells"] / per
        out["cli.main.nonzero_exits"] = self.counts["cli.main.nonzero_exits"] / per
        out["trace.overhead_s"] = overhead_s
        return out


# -- hooks: before(tracer, args, kwargs) -> (span name, state);
#           after(tracer, name, parent, state, args, result, exc, dur_ns)

def _rank_before(tr: Tracer, args, kwargs):
    return "rank.rank_of_apparition", args[0] in rank._cache


def _rank_after(tr: Tracer, name, parent, was_cached, args, result, exc, dur):
    if not was_cached:
        tr.counts["rank.rank_of_apparition.misses"] += 1


def _oracle_before(tr: Tracer, args, kwargs):
    p, m = args[0], args[1]
    tier = args[3] if len(args) > 3 else kwargs.get("tier", OracleTier.MODULAR)
    if tier is OracleTier.EXACT:
        tr._exact_top = max(tr._exact_top, m)
        return "oracle.exact", None
    top = tr._modular_top.get(p, 0)
    grows = m > top
    if grows:
        tr._modular_top[p] = m
    return "oracle.modular", grows


def _oracle_after(tr: Tracer, name, parent, grows, args, result, exc, dur):
    if name != "oracle.modular":
        return
    if grows:
        tr.counts["oracle.modular.build_ns"] += dur
    else:
        tr.lookup_ns.append(dur)


def _formula_after(tr: Tracer, name, parent, state, args, result, exc, dur):
    inside = parent is not None and parent.startswith("formulas.")
    if exc is not None:
        if isinstance(exc, FormulaIntegrityError) and not inside:
            tr.counts["formulas.integrity_errors"] += 1
        return
    if (name in TRACED_RESULTS and parent not in TRACED_RESULTS
            and isinstance(result, tuple) and isinstance(result[-1], BranchTrace)):
        tr.counts[f"formulas.theorem.{result[-1].theorem.value}"] += 1


def _verify_after(tr: Tracer, name, parent, state, args, result, exc, dur):
    if result is not None:
        tr.counts["verify.cells"] += result.cells_checked


def _cli_before(tr: Tracer, args, kwargs):
    argv = args[0] if args else kwargs.get("argv") or []
    p = argv[argv.index("--p") + 1] if "--p" in argv[:-1] else ""
    if p.isdigit():
        p = int(p)
        if p not in (2, 5):  # the closed forms need no rank for these two
            tr.counts["rank.commands"] += 1
            tr.counts["rank.command_hits"] += p in rank._cache
    return "cli.main", None


def _cli_after(tr: Tracer, name, parent, state, args, result, exc, dur):
    if exc is not None or result != 0:
        tr.counts["cli.main.nonzero_exits"] += 1


_HOOKS = {
    "rank.rank_of_apparition": (_rank_before, _rank_after),
    "oracle": (_oracle_before, _oracle_after),
    "verify.run_verify": (None, _verify_after),
    "cli.main": (_cli_before, _cli_after),
    **{span: (None, _formula_after) for span, *_ in SPANS if span.startswith("formulas.")},
}
