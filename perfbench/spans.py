"""In-memory span tracer for the saxl layers, installed from outside the package.

``Tracer.install`` wraps the functions listed below and patches every
binding that holds them: the class attribute for methods, and for module
functions every ``saxl`` module attribute that refers to the original
(``engine``, ``cli`` and ``actions`` ``from``-import what they call).
``Tracer.uninstall`` puts every original back.

Spans are kept in flat arrays (name, start, end, parent), not written out
while the program runs.  ``perm`` calls are too many and too short to store
one by one, so they are folded: each is counted, and the time of the
outermost ``perm`` call is charged to the enclosing span as covered time.
A span's self time is its duration minus the time its child spans and
folded ``perm`` calls cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import resource
import sys
import time
from array import array
from collections import Counter

LAYERS = ("perm", "group", "gf", "actions", "engine", "criteria", "cli")

# (layer, "module:attr" or "module:Class.attr", span name).  Names shared by
# several targets are summed: "actions.build" is every action constructor,
# "criteria.pair_base" every base-pair test, "criteria.witness" every
# common-neighbour witness constructor.
FOLDED = [
    ("perm", "perm:Perm.__init__", "perm.new"),
    ("perm", "perm:Perm.__mul__", "perm.mul"),
    ("perm", "perm:Perm.inverse", "perm.inverse"),
    ("perm", "perm:Perm.is_identity", "perm.is_identity"),
    ("perm", "perm:Perm.__pow__", "perm.pow"),
    ("perm", "perm:Perm.order", "perm.order"),
    ("perm", "perm:Perm.cycles", "perm.cycles"),
    ("perm", "perm:Perm.fixed_point_count", "perm.fixed_point_count"),
]

SPANS = [
    ("group", "group:StabChain.__init__", "group.chain"),
    ("group", "group:StabChain.contains", "group.chain_contains"),
    ("group", "group:PermGroup.order", "group.order"),
    ("group", "group:PermGroup.contains", "group.contains"),
    ("group", "group:PermGroup.same_group", "group.same_group"),
    ("group", "group:PermGroup.is_subgroup_of", "group.is_subgroup_of"),
    ("group", "group:PermGroup.orbit", "group.orbit"),
    ("group", "group:PermGroup.orbit_transversal", "group.orbit_transversal"),
    ("group", "group:PermGroup.orbits", "group.orbits"),
    ("group", "group:PermGroup.is_transitive", "group.is_transitive"),
    ("group", "group:PermGroup.is_primitive", "group.is_primitive"),
    ("group", "group:PermGroup.point_stabiliser", "group.point_stabiliser"),
    ("group", "group:PermGroup.pointwise_stabiliser", "group.pointwise_stabiliser"),
    ("group", "group:PermGroup.elements", "group.elements_call"),
    ("group", "group:conjugacy_class", "group.conjugacy_class"),
    ("gf", "gf:field_create", "gf.field_create"),
    ("gf", "gf:field_from_order", "gf.field_from_order"),
    ("gf", "gf:split_prime_power", "gf.split_prime_power"),
    ("gf", "gf:is_square", "gf.is_square"),
    ("gf", "gf:in_proper_subfield", "gf.in_proper_subfield"),
    ("gf", "gf:count_nonsquare_nonsubfield", "gf.count_nonsquare_nonsubfield"),
    ("gf", "gf:subfield_logs", "gf.subfield_logs"),
    ("gf", "gf:embed_into_square_extension", "gf.embed_into_square_extension"),
    ("gf", "gf:euler_phi", "gf.euler_phi"),
    ("gf", "gf:phi_sieve", "gf.phi_sieve"),
    ("gf", "gf:euler_bound_scan", "gf.euler_bound_scan"),
    ("actions", "actions:psl2_c2_action", "actions.build"),
    ("actions", "actions:psl2_c3_action", "actions.build"),
    ("actions", "actions:coset_action", "actions.build"),
    ("actions", "actions:load_catalogue", "actions.build"),
    ("actions", "actions:ksubset_action", "actions.ksubset_action"),
    ("actions", "actions:c3_label_logs", "actions.c3_label_logs"),
    ("actions", "actions:LabelledAction.stabiliser0", "actions.stabiliser0"),
    ("engine", "engine:_Analysis.__init__", "engine.analysis"),
    ("engine", "engine:_prime_class_data", "engine.prime_classes"),
    ("engine", "engine:build_report", "engine.build_report"),
    ("engine", "engine:q_exact", "engine.q_exact"),
    ("engine", "engine:q_hat", "engine.q_hat"),
    ("engine", "engine:q_tilde", "engine.q_tilde"),
    ("engine", "engine:t_value", "engine.t_value"),
    ("engine", "engine:check_star", "engine.check_star"),
    ("engine", "engine:saxl_graph", "engine.saxl_graph"),
    ("engine", "engine:suborbits", "engine.suborbits_call"),
    ("engine", "engine:clique_lower", "engine.clique_lower"),
    ("engine", "engine:clique_and_independence_exact", "engine.clique_exact"),
    ("engine", "engine:SaxlGraph.to_dot", "engine.to_dot"),
    ("engine", "engine:SaxlGraph.to_edge_list", "engine.to_edge_list"),
    ("engine", "engine:SaxlReport.to_json", "engine.to_json"),
    ("criteria", "criteria:c2_pair_base", "criteria.pair_base"),
    ("criteria", "criteria:c3_pair_base", "criteria.pair_base"),
    ("criteria", "criteria:c2_base_psigma", "criteria.pair_base"),
    ("criteria", "criteria:c3_base", "criteria.pair_base"),
    ("criteria", "criteria:c2_common_neighbour_witness", "criteria.witness"),
    ("criteria", "criteria:c3_common_neighbour_witness", "criteria.witness"),
    ("criteria", "criteria:c2_condition_iii", "criteria.condition_iii"),
    ("criteria", "criteria:c2_counts", "criteria.c2_counts"),
    ("criteria", "criteria:c3_clique", "criteria.c3_clique"),
    ("criteria", "criteria:c2_clique5", "criteria.c2_clique5"),
    ("criteria", "criteria:c3_clique5", "criteria.c3_clique5"),
    ("criteria", "criteria:euler_phi_4f_scan", "criteria.euler_phi_4f_scan"),
    ("criteria", "criteria:c3_valency_bound_scan", "criteria.c3_valency_bound_scan"),
    ("cli", "cli:main", "cli.main"),
    ("cli", "cli:build_action", "cli.build_action"),
    ("cli", "cli:cmd_analyze", "cli.cmd_analyze"),
    ("cli", "cli:cmd_graph", "cli.cmd_graph"),
    ("cli", "cli:cmd_verify", "cli.cmd_verify"),
]

# Counted generator: elements enumerated through stabiliser chains.
ELEMENTS = ("group:StabChain.iter_elements", "group.elements_n")

# Result sizes added to a count: elements of every materialised class.
RESULT_SIZES = {"group.conjugacy_class": "group.class_elements_n"}

COUNT_KEYS = [name + "_n" for _, _, name in FOLDED] + [ELEMENTS[1], *RESULT_SIZES.values()]

# Span names whose results are kept, to read suborbit counts after each job.
CONSTRUCTORS = {"actions.build", "actions.ksubset_action"}


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _resolve(target: str):
    """(owner, attribute, original) for "module:attr" or "module:Class.attr"."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module("saxl." + module_name)
    *classes, attr = path.split(".")
    for cls in classes:
        owner = getattr(owner, cls)
    if inspect.isclass(owner):
        original = owner.__dict__[attr]
    else:
        original = getattr(owner, attr)
    return owner, attr, original


class Tracer:
    """Spans and counts for one traced run.  Create, ``install``, run the
    jobs, ``uninstall``, then read ``summary``."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name_layer: list[int] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_folded = array("d")
        self.span_outer = array("b")  # 1 when no ancestor has the same name
        self._stack: list[int] = []
        self._name_depth: list[int] = []
        self._layer_depth = [0] * len(LAYERS)
        self._rss_mark = [0] * len(LAYERS)
        self.rss_gain_kb = [0] * len(LAYERS)
        self.counts: Counter[str] = Counter()
        self.fold_s = 0.0
        self._folding = False
        self.built: list = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------------

    def _name_id(self, name: str, layer: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self._name_layer.append(LAYERS.index(layer))
            self._name_depth.append(0)
        return self._name_ids[name]

    def _layer_enter(self, layer: int) -> None:
        if not self._layer_depth[layer]:
            self._rss_mark[layer] = _maxrss_kb()
        self._layer_depth[layer] += 1

    def _layer_exit(self, layer: int) -> None:
        self._layer_depth[layer] -= 1
        if not self._layer_depth[layer]:
            self.rss_gain_kb[layer] += _maxrss_kb() - self._rss_mark[layer]

    def _open(self, name_id: int) -> int:
        self._layer_enter(self._name_layer[name_id])
        idx = len(self.span_name)
        self.span_name.append(name_id)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_outer.append(0 if self._name_depth[name_id] else 1)
        self.span_folded.append(0.0)
        self.span_end.append(0.0)
        self._name_depth[name_id] += 1
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx: int, name_id: int) -> None:
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()
        self._name_depth[name_id] -= 1
        self._layer_exit(self._name_layer[name_id])

    # -- wrappers ---------------------------------------------------------------

    def _span_wrapper(self, fn, name: str, layer: str):
        name_id = self._name_id(name, layer)
        size_key = RESULT_SIZES.get(name)
        keep = name in CONSTRUCTORS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, name_id)
            if size_key is not None:
                self.counts[size_key] += len(result)
            if keep and hasattr(result, "_cache"):
                self.built.append(result)
            return result

        return wrapper

    def _fold_wrapper(self, fn, name: str):
        key = name + "_n"
        layer = LAYERS.index("perm")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[key] += 1
            if self._folding:
                return fn(*args, **kwargs)
            self._folding = True
            self._layer_enter(layer)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                self._folding = False
                self._layer_exit(layer)
                self.fold_s += took
                if self._stack:
                    self.span_folded[self._stack[-1]] += took

        return wrapper

    def _count_wrapper(self, fn, key: str):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts[key] += 1
                yield item

        return wrapper

    # -- installation -----------------------------------------------------------

    def _patch(self, target: str, make) -> None:
        try:
            owner, attr, original = _resolve(target)
        except (ImportError, AttributeError, KeyError):
            sys.stderr.write("perfbench: trace target %s not found, skipped\n" % target)
            return
        wrapped = make(original)
        if inspect.isclass(owner):
            holders = [(owner, attr)]
        else:
            holders = [
                (module, key)
                for mod_name, module in sorted(sys.modules.items())
                if mod_name == "saxl" or mod_name.startswith("saxl.")
                for key, value in sorted(vars(module).items())
                if value is original
            ]
        for holder, key in holders:
            self._patches.append((holder, key, original))
            setattr(holder, key, wrapped)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for layer, target, name in FOLDED:
            self._patch(target, lambda fn, name=name: self._fold_wrapper(fn, name))
        for layer, target, name in SPANS:
            self._patch(target, lambda fn, name=name, layer=layer: self._span_wrapper(fn, name, layer))
        target, key = ELEMENTS
        self._patch(target, lambda fn: self._count_wrapper(fn, key))

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._patches):
            setattr(holder, key, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------------

    def take_suborbit_count(self) -> int:
        """Suborbits of the actions built since the last call whose suborbit
        table was computed; forgets those actions."""
        total = 0
        for action in self.built:
            analysis = action._cache.get("analysis")
            if analysis is not None:
                total += len(analysis.orbits)
        self.built.clear()
        return total

    def summary(self) -> dict[str, float]:
        """Per-name counts ("<name>_n") and inclusive seconds ("<name>_s"),
        per-layer self seconds and ru_maxrss growth, and the folded counts."""
        n = len(self.span_name)
        duration = [self.span_end[i] - self.span_start[i] for i in range(n)]
        covered = list(self.span_folded)
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                covered[parent] += duration[i]
        out: dict[str, float] = {key: 0 for key in COUNT_KEYS}
        out.update(self.counts)
        layer_self = [0.0] * len(LAYERS)
        layer_self[LAYERS.index("perm")] = self.fold_s
        for name in self.names:
            out[name + "_n"] = 0
            out[name + "_s"] = 0.0
        for i in range(n):
            name_id = self.span_name[i]
            name = self.names[name_id]
            out[name + "_n"] += 1
            if self.span_outer[i]:
                out[name + "_s"] += duration[i]
            layer_self[self._name_layer[name_id]] += duration[i] - covered[i]
        for layer, self_s, gain_kb in zip(LAYERS, layer_self, self.rss_gain_kb):
            out[layer + ".self_s"] = self_s
            out[layer + ".maxrss_gain_mb"] = gain_kb / 1024.0
        out["trace.spans_n"] = n
        return out
