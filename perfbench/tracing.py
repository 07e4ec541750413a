"""Per-layer tracing from outside the package.

The tracer replaces public functions and methods of the already-imported
``laxlab`` modules with wrappers, and puts the originals back afterwards.
Nothing inside ``src/laxlab`` is edited.  A name that a module re-bound
with ``from ... import`` is replaced in that module too (``verify`` calls
``zero_curvature_residual`` through its own binding), as is a second class
attribute holding the same function (``NCExpr.__radd__``).

Spans nest: a span's self time is its duration minus the time of the
spans it called.  The hottest calls (coefficient arithmetic and the
rule-table scan) are counted without a span, which keeps the tracing
overhead down; their time stays in the caller's self time.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (span name, module, attribute path)
SPANS = (
    ("ncexpr.normalize", "laxlab.ncexpr", "normalize"),
    ("ncexpr.mul", "laxlab.ncexpr", "NCExpr.__mul__"),
    ("ncexpr.add", "laxlab.ncexpr", "NCExpr.__add__"),
    ("ncexpr.parse", "laxlab.ncexpr", "parse"),
    ("ncexpr.d_dz", "laxlab.ncexpr", "NCExpr.d_dz"),
    ("ncexpr.substitute", "laxlab.ncexpr", "NCExpr.substitute"),
    ("ncexpr.scalarize", "laxlab.ncexpr", "NCExpr.scalarize"),
    # canonical() delegates to canonical_with_scale(), which
    # extract_equations also calls directly.
    ("ncexpr.canonical", "laxlab.ncexpr", "NCExpr.canonical_with_scale"),
    ("ncexpr.to_string", "laxlab.ncexpr", "NCExpr.to_string"),
    ("laxmat.mat_mul", "laxlab.laxmat", "Mat2.__mul__"),
    ("laxmat.zero_curvature_residual", "laxlab.laxmat",
     "zero_curvature_residual"),
    ("laxmat.extract_equations", "laxlab.laxmat", "extract_equations"),
    ("laxmat.gauge_transform", "laxlab.laxmat", "gauge_transform"),
    ("catalog.build", "laxlab.catalog", "build"),
    ("verify.run", "laxlab.verify", "run"),
    ("numeric.integrate", "laxlab.numeric", "integrate"),
    ("numeric.solve_ivp", "laxlab.numeric", "solve_ivp"),
    ("numeric.to_csv", "laxlab.numeric", "Trajectory.to_csv"),
    ("numeric.p34_map_check", "laxlab.numeric", "p34_map_check"),
    ("numeric.dpii_first_integral_check", "laxlab.numeric",
     "dpii_first_integral_check"),
    ("cli.main", "laxlab.cli", "main"),
)

# (counter name, module, attribute path); call counts only, no span
COUNTS = (
    ("ncexpr.scalar_mul.calls", "laxlab.ncexpr", "Scalar.__mul__"),
    ("ncexpr.scalar_add.calls", "laxlab.ncexpr", "Scalar.__add__"),
)


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, total s, self s
        self.counts = Counter()
        self.build_ratios = []
        self._build_keys = []
        self._stack = []
        self._patched = []

    # -- installation ---------------------------------------------------------
    def install(self) -> None:
        """Wrap every target whose module is loaded; others stay at zero."""
        observers = {
            "ncexpr.normalize": self._observe_normalize,
            "numeric.solve_ivp": self._observe_solve_ivp,
            "catalog.build": self._observe_build,
        }
        for name, module, path in SPANS:
            self._patch(module, path, self._span(name, observers.get(name)))
        for name, module, path in COUNTS:
            self._patch(module, path, self._count(name))
        self._patch("laxlab.ncexpr", "RuleSet.find", self._find)

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._patched):
            setattr(holder, key, value)
        self._patched.clear()

    def _patch(self, module: str, path: str, make) -> None:
        mod = sys.modules.get(module)
        if mod is None:
            return
        *owners, attr = path.split(".")
        owner = mod
        for name in owners:
            owner = getattr(owner, name)
        if isinstance(owner, type):
            orig = owner.__dict__[attr]
            holders = [owner]
        else:
            orig = getattr(owner, attr)
            holders = [m for n, m in list(sys.modules.items())
                       if n == "laxlab" or n.startswith("laxlab.")]
        wrapper = make(orig)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is orig:
                    self._patched.append((holder, key, value))
                    setattr(holder, key, wrapper)

    # -- wrappers -------------------------------------------------------------
    def _span(self, name: str, observe):
        st, stack = self.stats[name], self._stack

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                stack.append(0.0)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    st[0] += 1
                    st[1] += dt
                    st[2] += dt - stack.pop()
                    if stack:
                        stack[-1] += dt
                if observe is not None:
                    observe(args, result)
                return result
            return wrapper
        return make

    def _count(self, name: str):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)
            return wrapper
        return make

    def _find(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(rules, word):
            hit = fn(rules, word)
            counts["ncexpr.normalize.words_scanned"] += 1
            if hit is not None:
                counts["ncexpr.normalize.rule_applications"] += 1
            return hit
        return wrapper

    def _observe_normalize(self, args, result) -> None:
        self.counts["ncexpr.normalize.terms_in"] += len(args[0].terms)
        self.counts["ncexpr.normalize.terms_out"] += len(result.terms)

    def _observe_solve_ivp(self, args, result) -> None:
        self.counts["numeric.solve_ivp.nfev"] += int(result.nfev)

    def _observe_build(self, args, result) -> None:
        self._build_keys.append(args[0])

    # -- per-operation bookkeeping and results --------------------------------
    def end_op(self) -> None:
        if self._build_keys:
            keys = self._build_keys
            self.build_ratios.append(len(set(keys)) / len(keys))
            keys.clear()

    def table(self, ops: int) -> dict:
        """Every span and counter, per operation."""
        out = {}
        for name, (calls, total, self_s) in sorted(self.stats.items()):
            out[f"{name}.calls"] = calls / ops
            out[f"{name}.ms"] = 1000 * total / ops
            out[f"{name}.self_ms"] = 1000 * self_s / ops
        for name, count in sorted(self.counts.items()):
            out[name] = count / ops
        return out

    def layer_metrics(self, ops: int) -> dict:
        t = defaultdict(float, self.table(ops))
        scanned = t["ncexpr.normalize.words_scanned"]
        integrates = t["numeric.integrate.calls"]
        ratios = self.build_ratios
        t["ncexpr.normalize.apply_ratio"] = (
            t["ncexpr.normalize.rule_applications"] / scanned if scanned else 0.0)
        t["numeric.solve_ivp.per_integrate"] = (
            t["numeric.solve_ivp.calls"] / integrates if integrates else 0.0)
        t["catalog.build.distinct_ratio"] = (
            sum(ratios) / len(ratios) if ratios else 0.0)
        return t
