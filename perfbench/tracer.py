"""Outside-in tracing of lcmlat: spans around the calls into each layer.

Each public function is wrapped at the module attribute where its caller
looks it up (``lcmlat.cli.build_lcm_lattice``, ``lcmlat.kernels.pentagon_search``
...), so nothing inside ``src/`` changes. A span records its name, start,
end, parent span and the benchmark pass it belongs to. Spans stay in memory
and are written out when the run ends; a layer's self time is its spans'
duration minus the time covered by their child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

DECIDERS = (
    "is_boolean",
    "is_modular",
    "is_distributive",
    "is_complemented",
    "is_relatively_complemented",
)
DECIDER_SPANS = frozenset(f"properties.{name}" for name in DECIDERS)
KERNELS = (
    "modular_violation",
    "distributive_violation",
    "pentagon_search",
    "diamond_search",
)
CONDITIONS = (
    "private_vertex_check",
    "uniform_n_minus_1_check",
    "predicts_modular",
    "degree1_path_check",
    "blocking_triplet_check",
    "induced_p4_check",
)

# (module, attribute) pairs: every place a caller looks a traced function up.
SITES = (
    [("lcmlat.cli", name) for name in (
        "run_cli", "build_lcm_lattice", "is_isomorphic", "lattice_json",
        "lattice_dot", "edge_ideal", "parse_ideal_text", "parse_hypergraph_json",
        "polarize",
    )]
    + [("lcmlat.audit", name) for name in (
        "audit_batch", "audit_instance", "build_lcm_lattice", "is_isomorphic",
        "edge_ideal", "polarize",
    )]
    + [("lcmlat.properties", name) for name in (
        "boolean_lattice", "interval", "is_isomorphic", "all_properties",
        "find_n5", "find_m3",
    ) + DECIDERS]
    + [("lcmlat.kernels", name) for name in KERNELS]
    + [("lcmlat.conditions", name) for name in CONDITIONS]
    + [("lcmlat.lattice", "hasse_edges")]
)

EXPORT = ("lattice.lattice_json", "lattice.lattice_dot", "lattice.hasse_edges")
PARSE = ("monomials.parse_ideal_text", "monomials.parse_hypergraph_json")
MONOMIALS = PARSE + ("monomials.edge_ideal", "monomials.polarize")


def span_name(fn) -> str:
    """Layer name of a function: its defining module without the package, then its name."""
    return fn.__module__.removeprefix("lcmlat.") + "." + fn.__name__


def _table_bytes(lat) -> int:
    return lat.leq.nbytes + lat.join_table.nbytes + lat.meet_table.nbytes


class Tracer:
    """Installs span-recording wrappers at SITES and aggregates what they record."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, pass index]
        self.counters = Counter()
        self.pass_index = -1
        self._stack = []
        self._saved = []
        self._wrappers = {}
        self._observers = self._make_observers()

    def _make_observers(self) -> dict:
        sweep_limit = importlib.import_module("lcmlat.properties").SWEEP_LIMIT
        counters = self.counters

        def built(args, result, parent):
            counters["lattice.elements_built"] += result.size
            counters["lattice.table_bytes"] += _table_bytes(result.lattice)

        def boolean_ref(args, result, parent):
            counters["lattice.boolean_lattice.table_bytes"] += _table_bytes(result)

        def decider(name, sized):
            def observe(args, result, parent):
                # A decider called from another decider (is_complemented on
                # each interval of is_relatively_complemented) is a nested
                # call, not a verdict.
                if parent in DECIDER_SPANS:
                    counters[f"properties.{name}.nested"] += 1
                    return
                counters[f"properties.{name}.false"] += not result.holds
                if sized and args[0].size > sweep_limit:
                    counters["properties.sweep_skipped"] += 1
            return observe

        def kernel(name):
            def observe(args, result, parent):
                counters[f"kernels.{name}.witness"] += result is not None
                counters[f"kernels.{name}.n3_computed"] += args[0].shape[0] ** 3
            return observe

        observers = {
            "lattice.build_lcm_lattice": built,
            "lattice.boolean_lattice": boolean_ref,
        }
        for name in DECIDERS:
            observers[f"properties.{name}"] = decider(
                name, name in ("is_modular", "is_distributive"))
        for name in KERNELS:
            observers[f"kernels.{name}"] = kernel(name)
        return observers

    def _wrap(self, fn):
        name = span_name(fn)
        observe = self._observers.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            record = [name, 0.0, 0.0, parent, self.pass_index]
            stack.append(len(spans))
            spans.append(record)
            record[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(args, result, spans[parent][0] if parent >= 0 else None)
            return result

        return traced

    def install(self) -> None:
        for module_name, attr in SITES:
            module = importlib.import_module(module_name)
            current = getattr(module, attr)
            wrapper = self._wrappers.get(id(current))
            if wrapper is None:
                wrapper = self._wrappers[id(current)] = self._wrap(current)
            self._saved.append((module, attr, current))
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        while self._saved:
            module, attr, current = self._saved.pop()
            setattr(module, attr, current)

    def self_times(self) -> tuple:
        """Per span name: (calls, self seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls, self_s = Counter(), defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
        return calls, self_s

    def layer_metrics(self, passes: int) -> dict:
        """Per-layer metrics, each the mean over the traced passes."""
        calls, self_s = self.self_times()
        c = self.counters

        def per_pass(value):
            return value / passes

        def share(hits, total):
            return hits / total if total else 0.0

        m = {}

        def put(name, value, unit):
            m[name] = (value, unit)

        for layer in ("build_lcm_lattice", "boolean_lattice", "is_isomorphic", "interval"):
            key = f"lattice.{layer}"
            put(f"{key}.calls", per_pass(calls[key]), "count")
            put(f"{key}.self_s", per_pass(self_s[key]), "s")
        put("lattice.elements_built", per_pass(c["lattice.elements_built"]), "count")
        put("lattice.table_bytes", per_pass(c["lattice.table_bytes"]), "B")
        put("lattice.boolean_lattice.table_bytes",
            per_pass(c["lattice.boolean_lattice.table_bytes"]), "B")
        put("lattice.export.calls",
            per_pass(calls["lattice.lattice_json"] + calls["lattice.lattice_dot"]), "count")
        for name in DECIDERS:
            key = f"properties.{name}"
            put(f"{key}.calls", per_pass(calls[key]), "count")
            put(f"{key}.false_share",
                share(c[f"{key}.false"], calls[key] - c[f"{key}.nested"]), "ratio")
            if name != "is_distributive":
                put(f"{key}.self_s", per_pass(self_s[key]), "s")
        put("properties.is_complemented.nested_calls",
            per_pass(c["properties.is_complemented.nested"]), "count")
        put("properties.sweep_skipped", per_pass(c["properties.sweep_skipped"]), "count")
        for name in KERNELS:
            key = f"kernels.{name}"
            put(f"{key}.calls", per_pass(calls[key]), "count")
            put(f"{key}.self_s", per_pass(self_s[key]), "s")
            put(f"{key}.witness_share", share(c[f"{key}.witness"], calls[key]), "ratio")
            put(f"{key}.n3_computed", per_pass(c[f"{key}.n3_computed"]), "count")
        put("conditions.calls",
            per_pass(sum(calls[f"conditions.{n}"] for n in CONDITIONS)), "count")
        put("monomials.parse.calls", per_pass(sum(calls[n] for n in PARSE)), "count")
        put("monomials.edge_ideal.calls", per_pass(calls["monomials.edge_ideal"]), "count")
        put("monomials.polarize.calls", per_pass(calls["monomials.polarize"]), "count")
        put("monomials.self_s", per_pass(sum(self_s[n] for n in MONOMIALS)), "s")
        put("cli.run_cli.calls", per_pass(calls["cli.run_cli"]), "count")
        put("cli.run_cli.self_s", per_pass(self_s["cli.run_cli"]), "s")
        put("audit.audit_instance.calls", per_pass(calls["audit.audit_instance"]), "count")
        put("audit.audit_batch.calls", per_pass(calls["audit.audit_batch"]), "count")
        return m

    def workload_specific_self_times(self, passes: int) -> dict:
        """Self seconds per traced pass of layers that only some workloads reach.

        These read exactly 0 on the other workloads, so they are printed and
        kept in the spans file instead of being reported as metrics.
        """
        _, self_s = self.self_times()
        return {
            "conditions.self_s": sum(self_s[f"conditions.{n}"] for n in CONDITIONS) / passes,
            "lattice.export.self_s": sum(self_s[n] for n in EXPORT) / passes,
            "properties.is_distributive.self_s": self_s["properties.is_distributive"] / passes,
            "audit.audit_instance.self_s": self_s["audit.audit_instance"] / passes,
            "audit.stream_s": self_s["audit.audit_batch"] / passes,
            "monomials.parse.self_s": sum(self_s[n] for n in PARSE) / passes,
            "monomials.edge_ideal.self_s": self_s["monomials.edge_ideal"] / passes,
            "monomials.polarize.self_s": self_s["monomials.polarize"] / passes,
        }

    def write(self, path, header: dict) -> None:
        """One JSON header line, then one [name, start, end, parent, pass] line per span."""
        with open(path, "w") as out:
            out.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
