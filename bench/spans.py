"""Spans around optiform's layers, installed from outside the package.

`install()` replaces every public module-level function of the eight
layer modules, and the `__post_init__` of every dataclass they define, with
a wrapper.  A call that enters a layer from another layer (or from the
benchmark) opens a span; a call from inside the same layer only bumps a
counter, so recursion within a layer costs a dictionary update, not a span.
Constructor validation (`__post_init__`), and the oracle's generators and
brute-force referees, are layers of their own, so they are timed wherever
they are called from.

Spans are kept in memory as a calling-context tree: repeated calls along
the same path (say the 4,096 `semiring.strictly_less` calls made by one
`softcsp.optimal_solutions`) share one node with a call count, the first
start and last end, the total time and the time covered by child spans.
Memory therefore grows with the number of distinct call paths, not with the
number of calls.  `Tracer.spans()` writes the tree out; `layer_metrics()`
turns it into the per-layer figures the benchmark reports.
"""

import collections
import functools
import importlib
import inspect
import time

LAYERS = ("serialize", "semiring", "softcsp", "cpnet", "pgame", "bridge", "oracle", "cli")


class Node:
    __slots__ = ("id", "name", "layer", "parent", "children", "calls", "total",
                 "inner", "start", "end")

    def __init__(self, nid, name, layer, parent):
        self.id = nid
        self.name = name
        self.layer = layer
        self.parent = parent
        self.children = {}
        self.calls = 0
        self.total = 0.0
        self.inner = 0.0
        self.start = None
        self.end = None


class Tracer:
    """The span tree of one traced pass, plus call counters and the counts
    taken from inputs and outputs at span boundaries."""

    def __init__(self):
        self.counts = collections.Counter()
        self.reset()

    def reset(self):
        self.nodes = []
        self.counts.clear()
        self.current = self._node("op", "op", None)

    def _node(self, name, layer, parent):
        node = Node(len(self.nodes), name, layer, parent)
        self.nodes.append(node)
        if parent is not None:
            parent.children[name] = node
        return node

    def begin_operation(self, label):
        """Open a root for one benchmark operation; spans of one operation
        share it."""
        self.current = self._node(label, "op", None)

    def wrap(self, fn, name, layer, hook):
        tracer = self
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.current
            counts[name] += 1
            if parent.layer == layer:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(counts, args, result)
                return result
            node = parent.children.get(name)
            if node is None:
                node = tracer._node(name, layer, parent)
            tracer.current = node
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.current = parent
                node.calls += 1
                node.total += t1 - t0
                parent.inner += t1 - t0
                if node.start is None:
                    node.start = t0
                node.end = t1
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def spans(self):
        """The tree as a list of records, parents before children."""
        return [
            {
                "id": n.id,
                "parent": None if n.parent is None else n.parent.id,
                "name": n.name,
                "start": n.start,
                "end": n.end,
                "calls": n.calls,
                "total_s": n.total,
                "self_s": n.total - n.inner,
            }
            for n in self.nodes
        ]


# ---------------------------------------------------------------- count hooks

def _cells(obj):
    """Table cells in a translation's output."""
    if isinstance(obj, list):
        return len(obj)
    if hasattr(obj, "payoffs"):
        return sum(len(t) for t in obj.payoffs)
    if hasattr(obj, "prefs"):
        return sum(len(t) for t in obj.prefs)
    if hasattr(obj, "tables"):
        return sum(len(t.rows) for t in obj.tables)
    return sum(len(c.table) for c in obj.constraints)


def _hooks():
    def add(**kw):
        def hook(counts, args, result):
            for key, fn in kw.items():
                counts[key] += fn(args, result)
        return hook

    bridge_out = add(**{"bridge.cells_out": lambda a, r: _cells(r)})
    joint = lambda a, r: a[0].space_size()
    found = lambda a, r: len(r)
    return {
        "serialize.loads": add(**{"serialize.bytes_in": lambda a, r: len(a[0])}),
        "serialize.dumps": add(**{"serialize.bytes_out": lambda a, r: len(r)}),
        "softcsp.optimal_solutions": add(**{"softcsp.optima": found}),
        "pgame.nash_equilibria_pp": add(**{"pgame.joint_strategies": joint,
                                           "pgame.equilibria": found}),
        "pgame.nash_equilibria_payoff": add(**{"pgame.joint_strategies": joint,
                                               "pgame.equilibria": found}),
        "pgame.pareto_efficient": add(**{"pgame.joint_strategies": joint,
                                         "pgame.pareto_front": found}),
        "bridge.game_of_cpnet": bridge_out,
        "bridge.cpnet_of_game": bridge_out,
        "bridge.local_map": bridge_out,
        "bridge.global_map": bridge_out,
        "bridge.scsp_of_game": bridge_out,
        "bridge.regret_constraints": bridge_out,
        "bridge.pareto_nash": bridge_out,
    }


def _sublayer(layer, attr):
    """The oracle's generators and brute-force referees are called from
    inside the oracle, so each group counts as a layer of its own: their
    spans then open even when the oracle calls them."""
    if layer == "oracle" and attr.startswith("brute_"):
        return "oracle.brute"
    if layer == "oracle" and (attr.startswith("random_") or attr == "generate_instance"):
        return "oracle.generate"
    return layer


def install(tracer):
    """Wrap the layers' public functions and constructors; returns the
    number of wrappers installed."""
    hooks = _hooks()
    installed = 0
    for layer in LAYERS:
        mod = importlib.import_module("optiform." + layer)
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                name = "%s.%s" % (layer, attr)
                setattr(mod, attr, tracer.wrap(obj, name, _sublayer(layer, attr),
                                               hooks.get(name)))
                installed += 1
            elif inspect.isclass(obj) and "__post_init__" in vars(obj):
                name = "%s.%s.__post_init__" % (layer, attr)
                wrapped = tracer.wrap(obj.__post_init__, name, layer + ".validate", None)
                obj.__post_init__ = wrapped
                installed += 1
    return installed


# ------------------------------------------------------------ layer metrics

#: Per-layer time metrics: metric name -> span names whose self time it sums.
TIMES = {
    "serialize.load_s": ["serialize.load_path", "serialize.loads",
                         "serialize.parse_document", "serialize.spec_from_json"],
    "serialize.dump_s": ["serialize.dumps", "serialize.document_of",
                         "serialize.spec_to_json"],
    "softcsp.validate_s": ["softcsp.SoftCSP.__post_init__"],
    "softcsp.optimal_solutions_s": ["softcsp.optimal_solutions"],
    "softcsp.is_consistent_s": ["softcsp.is_consistent"],
    "bridge.local_map_s": ["bridge.local_map"],
    "bridge.global_map_s": ["bridge.global_map"],
    "bridge.scsp_of_game_s": ["bridge.scsp_of_game"],
    "bridge.regret_constraints_s": ["bridge.regret_constraints"],
    "bridge.pareto_nash_s": ["bridge.pareto_nash"],
    "bridge.game_of_cpnet_s": ["bridge.game_of_cpnet"],
    "bridge.cpnet_of_game_s": ["bridge.cpnet_of_game"],
    "pgame.validate_s": ["pgame.PPGame.__post_init__", "pgame.PayoffGame.__post_init__",
                         "pgame.DirectedGraph.__post_init__"],
    "pgame.nash_payoff_s": ["pgame.nash_equilibria_payoff"],
    "pgame.nash_pp_s": ["pgame.nash_equilibria_pp"],
    "pgame.pareto_efficient_s": ["pgame.pareto_efficient"],
    "pgame.reduce_pp_fixpoint_s": ["pgame.reduce_pp_fixpoint"],
    "pgame.is_hierarchical_s": ["pgame.is_hierarchical"],
    "pgame.tech_game_s": ["pgame.tech_game"],
    "cpnet.validate_s": ["cpnet.CPNet.__post_init__"],
    "cpnet.optimal_outcomes_s": ["cpnet.optimal_outcomes"],
    "cpnet.is_eligible_s": ["cpnet.is_eligible"],
    "cpnet.reduce_to_fixpoint_s": ["cpnet.reduce_to_fixpoint"],
    "cpnet.reduce_s": ["cpnet.reduce"],
    "cpnet.dominates_s": ["cpnet.dominates"],
    "oracle.generate_s": ["oracle.generate_instance", "oracle.random_cpnet",
                          "oracle.random_scsp", "oracle.random_payoff_game",
                          "oracle.random_ppgame", "oracle.random_dag"],
    "oracle.brute_s": ["oracle.brute_optimal_outcomes", "oracle.brute_nash",
                       "oracle.brute_pareto"],
    "oracle.check_s": ["oracle.check_theorem", "oracle.run_suite"],
}

#: Call-count metrics: metric name -> functions whose calls it sums.
CALLS = {
    "semiring.combine_calls": ["semiring.combine"],
    "softcsp.assignments": ["softcsp.solution_preference"],
    "pgame.rounds": ["pgame.subgame"],
    "cpnet.outcomes": ["cpnet.is_optimal", "cpnet.worsening_flips"],
    "cpnet.rounds": ["cpnet.eliminate"],
    "oracle.checks": ["oracle.check_theorem"],
}

#: Boundary-call metrics: calls that enter the layer from another layer.
BOUNDARY_CALLS = {
    "semiring.compare_calls": ["semiring.leq", "semiring.strictly_less",
                               "semiring.incomparable"],
    "semiring.value_calls": ["semiring.value"],
}

#: Counts taken by the hooks from inputs and outputs.
HOOKED = ["serialize.bytes_in", "serialize.bytes_out", "softcsp.optima",
          "pgame.joint_strategies", "pgame.equilibria", "pgame.pareto_front",
          "bridge.cells_out"]


def layer_metrics(tracer):
    """Self times and counts of the pass traced since the last reset."""
    self_by_name = collections.Counter()
    boundary = collections.Counter()
    layer_self = collections.Counter()
    for n in tracer.nodes:
        if n.layer == "op":
            continue
        own = n.total - n.inner
        self_by_name[n.name] += own
        boundary[n.name] += n.calls
        layer_self[n.name.split(".")[0]] += own
    out = {}
    for metric, fns in TIMES.items():
        out[metric] = sum(self_by_name[f] for f in fns)
    for metric, fns in CALLS.items():
        out[metric] = sum(tracer.counts[f] for f in fns)
    for metric, fns in BOUNDARY_CALLS.items():
        out[metric] = sum(boundary[f] for f in fns)
    for metric in HOOKED:
        out[metric] = tracer.counts[metric]
    out["semiring.self_s"] = layer_self["semiring"]
    out["cli.self_s"] = layer_self["cli"]
    assignments = out["softcsp.assignments"]
    out["softcsp.optima_per_assignment"] = (
        out["softcsp.optima"] / assignments if assignments else 0.0)
    return out
