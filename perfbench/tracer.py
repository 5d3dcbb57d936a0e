"""Per-layer tracing from outside the program.

`Tracer` wraps the public functions of the netgames modules by rebinding
every module attribute that refers to them (the defining module, modules that
imported the name, and the package re-exports), so internal calls are seen
too.  Each wrapped call records a span (name, start, end, parent) in flat
in-memory arrays; `summary()` turns the spans into `calls`, `total_s` and
`self_s` per function and per layer.  Generators are wrapped to count the
items they yield; their run time stays with the span that consumes them.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
from array import array
from collections import defaultdict

# (module, function) pairs wrapped as timed spans.
SPAN_FUNCS = {
    "graphs": (
        "shortest_path",
        "metric_closure",
        "steiner_tree_exact",
        "steiner_forest_exact",
        "min_feasible_subset_bruteforce",
        "cover_exact",
    ),
    "games": (
        "feasible_actions",
        "player_cost",
        "social_cost",
        "rosenthal_potential",
        "expected_social_cost",
        "expected_potential",
        "ex_post_opt",
        "expected_opt",
    ),
    "equilibria": (
        "interim_cost",
        "verify_bne",
        "min_potential_profile",
        "min_cost_profile",
        "best_response_dynamics",
        "enumerate_pure_bne",
        "bpos_exact",
        "information_gap_exact",
        "potential_method_certificate",
    ),
    "costsharing": (
        "steiner_scheme",
        "check_competitiveness",
        "check_strictness",
        "check_cross_monotonicity",
    ),
    "sampling": (
        "construct_strategy_iid",
        "construct_strategy_noniid",
        "evaluate_construction_exact",
        "evaluate_construction_mc",
        "derandomize",
    ),
    "instances": ("parse_instance",),
    "cli": ("main",),
}

# Generators: counted (calls and items yielded), not timed.
GENERATOR_FUNCS = {
    "games": ("type_profiles",),
    "equilibria": ("all_strategy_profiles",),
}

# The callables a cost-sharing scheme carries; wrapped on every scheme that
# `steiner_scheme` returns, under the name costsharing.scheme.<field>.
SCHEME_FIELDS = ("approx", "augment", "share")

LAYERS = ("graphs", "games", "equilibria", "costsharing", "sampling", "instances", "cli")

# Functions whose distinct arguments are counted, with the argument key;
# `key` maps an instance or graph to a content key.
_DISTINCT_KEYS = {
    "games.feasible_actions": lambda key, inst, i, t: (key(inst), i, t),
    "games.ex_post_opt": lambda key, inst, tp: (key(inst), tp),
    "graphs.steiner_tree_exact": lambda key, g, terminals: (key(g), frozenset(terminals)),
}

# Functions whose useful outcomes are counted (for a pass ratio).
_USEFUL = {"equilibria.verify_bne": lambda report: report.is_bne}


def generator_names() -> list[str]:
    return [f"{m}.{f}" for m, fs in GENERATOR_FUNCS.items() for f in fs]


def all_wrapped_names() -> list[str]:
    names = [f"{m}.{f}" for m, fs in SPAN_FUNCS.items() for f in fs]
    names += generator_names()
    names += [f"costsharing.scheme.{f}" for f in SCHEME_FIELDS]
    return names


class Tracer:
    """Installs and removes the wrappers and holds the recorded spans."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.reset()
        self.enabled = False
        self._rebound: list[tuple[object, str, object]] = []

    def reset(self):
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self._stack: list[int] = []
        self.yielded: dict[str, int] = defaultdict(int)
        self.gen_calls: dict[str, int] = defaultdict(int)
        self.distinct: dict[str, set] = defaultdict(set)
        self.useful: dict[str, int] = defaultdict(int)
        self._content_keys: dict[int, tuple] = {}

    def _content_key(self, obj):
        """Content key for an instance or graph, so that re-parsed copies of
        one instance (one per CLI call) count as the same instance.  Holding
        `obj` keeps its id from being reused."""
        entry = self._content_keys.get(id(obj))
        if entry is None:
            entry = self._content_keys[id(obj)] = (obj, hash(obj))
        return entry[1]

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- spans ------------------------------------------------------------
    def span(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span named `name`."""
        idx = len(self.span_name)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            self.span_end[idx] = time.perf_counter()
            self._stack.pop()

    def _wrap_span(self, name: str, fn):
        key_fn = _DISTINCT_KEYS.get(name)
        useful_fn = _USEFUL.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if key_fn is not None:
                tracer.distinct[name].add(key_fn(tracer._content_key, *args, **kwargs))
            result = tracer.span(name, fn, *args, **kwargs)
            if useful_fn is not None and useful_fn(result):
                tracer.useful[name] += 1
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.gen_calls[name] += 1
            for item in fn(*args, **kwargs):
                tracer.yielded[name] += 1
                yield item

        return wrapper

    def _wrap_scheme(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            scheme = fn(*args, **kwargs)
            fields = {}
            for field in SCHEME_FIELDS:
                name = f"costsharing.scheme.{field}"
                inner = getattr(scheme, field)
                fields[field] = functools.partial(tracer._scheme_call, name, inner)
            return dataclasses.replace(scheme, **fields)

        return wrapper

    def _scheme_call(self, name, inner, *args):
        if not self.enabled:
            return inner(*args)
        return self.span(name, inner, *args)

    # -- installation -----------------------------------------------------
    def install(self):
        """Rebind every netgames module attribute that refers to a listed
        function to its wrapper."""
        if self.enabled:
            return
        modules = [m for n, m in sys.modules.items() if n == "netgames" or n.startswith("netgames.")]
        replacements = {}
        for table, make in ((SPAN_FUNCS, self._wrap_span), (GENERATOR_FUNCS, self._wrap_generator)):
            for mod, funcs in table.items():
                module = sys.modules[f"netgames.{mod}"]
                for f in funcs:
                    orig = getattr(module, f)
                    name = f"{mod}.{f}"
                    if name == "costsharing.steiner_scheme":
                        wrapped = self._wrap_span(name, self._wrap_scheme(orig))
                    else:
                        wrapped = make(name, orig)
                    replacements[id(orig)] = (orig, wrapped)
        for module in modules:
            for attr, value in list(vars(module).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._rebound.append((module, attr, value))
        self.enabled = True

    def uninstall(self):
        for module, attr, value in reversed(self._rebound):
            setattr(module, attr, value)
        self._rebound.clear()
        self.enabled = False

    # -- aggregation ------------------------------------------------------
    def summary(self) -> dict:
        """Per-function calls/total_s/self_s, generator counts, distinct
        argument counts and per-layer self time over the recorded spans."""
        n = len(self.span_name)
        child = [0.0] * n
        for k in range(n):
            p = self.span_parent[k]
            if p >= 0:
                child[p] += self.span_end[k] - self.span_start[k]
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        parent_calls: dict[str, int] = defaultdict(int)  # "child<parent"
        for k in range(n):
            name = self.names[self.span_name[k]]
            dur = self.span_end[k] - self.span_start[k]
            calls[name] += 1
            self_s[name] += dur - child[k]
            p = self.span_parent[k]
            if p < 0 or self.names[self.span_name[p]] != name:
                total[name] += dur  # recursion counted once
            if p >= 0:
                parent_calls[f"{name}<{self.names[self.span_name[p]]}"] += 1
        layer_self: dict[str, float] = defaultdict(float)
        for name, v in self_s.items():
            layer_self[name.split(".")[0]] += v
        return {
            "calls": dict(calls),
            "total_s": dict(total),
            "self_s": dict(self_s),
            "parent_calls": dict(parent_calls),
            "gen_calls": dict(self.gen_calls),
            "yielded": dict(self.yielded),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "useful": dict(self.useful),
            "layer_self_s": dict(layer_self),
        }
