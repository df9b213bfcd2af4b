"""Spans around the program's public functions, from outside the program.

``Tracer.installed`` replaces each traced function with a wrapper in every
``haltbandit`` module that binds it, found by identity rather than by a
list of importers, so a module that starts importing one of them later is
still caught; ``IndexPolicy.choose`` is replaced on its class.  Each call
records a span (name, start, end, parent, op) and the counts read from its
arguments and return value.  A span's self time is its duration minus the
durations of its direct children; calls are nested on one thread, so the
children never overlap.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

import haltbandit  # noqa: F401  (loads every module the targets live in)
from haltbandit import game

# (module, attribute, counts read from (args, kwargs, result))
TARGETS = (
    ("oracle", "dp_optimal", lambda a, k, r: {"histories": len(r.values)}),
    ("oracle", "certify_index_optimality", None),
    ("oracle", "certify_greedy_dominance", lambda a, k, r: {"runs": r.n_policies * r.n_atoms}),
    ("reductions", "model_index", None),
    ("indices", "solo_index_parametric", lambda a, k, r: {"iterations": r.iterations}),
    ("indices", "markov_cumulative_index", None),
    ("indices", "index_decomposition", lambda a, k, r: {"blocks": len(r.blocks)}),
    ("models", "unroll_markov", None),
    ("game", "evaluate_exact", None),
    ("linear", "solve_linear", lambda a, k, r: {"unknowns": len(a[1])}),
    ("game", "run_policy_sampled", None),
    ("models", "loads_model", None),
    ("models", "validate", None),
    ("jsonio", "dumps_canonical", None),
    ("pi_values", "psp_value_with_policy_indices", None),
)

# Every per-layer metric, so that a layer a workload never reaches reads 0.
LAYER_METRICS = {
    **{f"{mod}.{name}.self_s": "s" for mod, name, _ in TARGETS if name != "solve_linear"},
    "game.IndexPolicy.choose.self_s": "s",
    "game.IndexPolicy.choose.calls": "count",
    "reductions.model_index.calls": "count",
    "indices.solo_index_parametric.calls": "count",
    "indices.solo_index_parametric.iterations": "count",
    "oracle.dp_optimal.histories": "count",
    "oracle.certify_greedy_dominance.runs": "count",
    "indices.index_decomposition.blocks": "count",
    "linear.solve_linear.unknowns": "count",
    "linear.solve_linear.exact_self_s": "s",
    "linear.solve_linear.float_self_s": "s",
    "game.run_policy_sampled.activations": "count",
}


class Tracer:
    def __init__(self) -> None:
        # span: [name, start, end, parent index, op index]
        self.spans: list[list] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op = -1

    def _wrap(self, name: str, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self._op]
            self.spans.append(span)
            self._stack.append(idx)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            self.counts[f"{name}.calls"] += 1
            if counter is not None:
                for key, n in counter(args, kwargs, result).items():
                    self.counts[f"{name}.{key}"] += n
            if name == "linear.solve_linear":
                span[0] = "linear.solve_linear.float" if result and isinstance(result[0], float) else "linear.solve_linear.exact"
            return result

        return traced

    def _wrap_sampler(self, traced_sampler):
        """Count the policy's ``choose`` calls made inside one sampling run."""

        @functools.wraps(traced_sampler)
        def sampler(game_, policy, *args, **kwargs):
            inner = policy.choose

            def counting(*a, **k):
                self.counts["game.run_policy_sampled.activations"] += 1
                return inner(*a, **k)

            policy.choose = counting
            try:
                return traced_sampler(game_, policy, *args, **kwargs)
            finally:
                del policy.choose

        return sampler

    @contextlib.contextmanager
    def installed(self):
        modules = [m for key, m in sys.modules.items() if key == "haltbandit" or key.startswith("haltbandit.")]
        undo = []
        for mod_name, attr, counter in TARGETS:
            original = getattr(sys.modules.get(f"haltbandit.{mod_name}"), attr, None)
            if original is None:  # a layer the program no longer has reads 0
                continue
            wrapper = self._wrap(f"{mod_name}.{attr}", original, counter)
            if attr == "run_policy_sampled":
                wrapper = self._wrap_sampler(wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        choose = game.IndexPolicy.choose
        game.IndexPolicy.choose = self._wrap("game.IndexPolicy.choose", choose, None)
        undo.append((game.IndexPolicy, "choose", choose))
        try:
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def op_runner(self, run_op):
        """``run_op`` under a root span per op, so spans share an op id."""
        wrapped = self._wrap("op", run_op, None)

        def run(op):
            self._op += 1
            return wrapped(op)

        return run

    def layer_metrics(self) -> dict:
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            self_s[name] += end - start - child_s[k]
        out = {}
        for key, unit in LAYER_METRICS.items():
            if unit == "s":  # "x.self_s" reads span x, "x.exact_self_s" span x.exact
                value = self_s.get(key.removesuffix(".self_s").removesuffix("_self_s"), 0.0)
            else:
                value = self.counts.get(key, 0)
            out[key] = {"value": value, "unit": unit}
        return out
