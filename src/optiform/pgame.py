"""Games with parametrized preferences and graphical payoff games.

A PPGame stores, per player, one strict order over the player's strategies
for every joint strategy of the player's neighbours (a non-graphical game is
the special case where every other player is a neighbour).  These are the
tables of a CP-net under other names, so the PPGame algorithms call the
table core of `cpnet` on (players, strategies, neigh, prefs).  A PayoffGame
stores payoff tables over neigh(i) + {i}; payoffs are either plain rationals
(carrier None) or elements of a linearly ordered semiring carrier, compared
by the carrier's preference order.
"""

import itertools
import math

from . import cpnet, semiring, softcsp
from .errors import ValidationError, check_space
from .record import Record, init_field


class PPGame(Record):
    __slots__ = _fields = ("players", "strategies", "neigh", "prefs")

    def __init__(self, players, strategies, neigh, prefs):
        init_field(self, "players", players)
        init_field(self, "strategies", strategies)  # per-player tuples
        init_field(self, "neigh", neigh)  # per-player tuples of indices, ascending, i excluded
        init_field(self, "prefs", prefs)  # per-player dict: neigh joint strategy -> order tuple
        self.__post_init__()

    def __post_init__(self):
        n = len(self.players)
        if not (n == len(self.strategies) == len(self.neigh) == len(self.prefs)):
            raise ValidationError("player-indexed fields differ in length")
        cpnet.check_tables(self.players, self.strategies, self.neigh, self.prefs,
                           "player %s is its own neighbour")

    def space_size(self):
        return math.prod(map(len, self.strategies))

    def joint_strategies(self):
        check_space(self.space_size(), "joint strategy space")
        return itertools.product(*self.strategies)


class PayoffGame(Record):
    __slots__ = _fields = ("players", "strategies", "neigh", "payoffs", "carrier")

    def __init__(self, players, strategies, neigh, payoffs, carrier=None):
        init_field(self, "players", players)
        init_field(self, "strategies", strategies)
        init_field(self, "neigh", neigh)
        init_field(self, "payoffs", payoffs)  # per-player dict: local joint strategy -> payoff
        init_field(self, "carrier", carrier)  # SemiringSpec or None for plain rationals
        self.__post_init__()

    def __post_init__(self):
        n = len(self.players)
        if not (n == len(self.strategies) == len(self.neigh) == len(self.payoffs)):
            raise ValidationError("player-indexed fields differ in length")
        if self.carrier is not None and not semiring.is_linear(self.carrier):
            raise ValidationError("payoff carrier must be linearly ordered")
        softcsp.check_names(self.players, self.strategies)
        for i, (name, table) in enumerate(zip(self.players, self.payoffs)):
            if i in self.neigh[i]:
                raise ValidationError("player %s is its own neighbour" % name)
            softcsp.check_table(self.players, self.strategies, self.local_scope(i),
                                table.keys(), lambda: "payoff table of player %s" % name)
            if self.carrier is not None:
                for v in table.values():
                    semiring._require(self.carrier, v)

    def local_scope(self, i):
        return tuple(sorted(self.neigh[i] + (i,)))

    def space_size(self):
        return math.prod(map(len, self.strategies))

    def joint_strategies(self):
        check_space(self.space_size(), "joint strategy space")
        return itertools.product(*self.strategies)

    def payoff(self, i, s):
        """Canonical extension: project a full joint strategy onto the scope."""
        return self.payoffs[i][tuple(s[j] for j in self.local_scope(i))]

    def payoff_leq(self, a, b):
        if self.carrier is None:
            return a <= b
        return semiring.leq(self.carrier, a, b)

    def payoff_lt(self, a, b):
        if self.carrier is None:
            return a < b
        return semiring.strictly_less(self.carrier, a, b)


def expand_full(game):
    """The same PPGame with every other player made an explicit neighbour."""
    neigh, prefs = cpnet.full_tables(game.players, game.strategies, game.neigh, game.prefs)
    return PPGame(game.players, game.strategies, neigh, prefs)


def nash_equilibria_pp(game):
    """Joint strategies where each player's strategy tops the selected order."""
    return list(cpnet.stable_outcomes(game.strategies, game.neigh, game.prefs))


def reduce_pp_fixpoint(game, mode, trace=None):
    """`cpnet.eliminate_values` on the game's tables; the game itself when
    no strategy was removable."""
    strategies, prefs = cpnet.eliminate_values(game.players, game.strategies, game.neigh,
                                               game.prefs, mode, trace)
    return game if prefs is game.prefs else PPGame(game.players, strategies, game.neigh, prefs)


def is_hierarchical(game):
    """Whether the minimal dependency digraph is acyclic: each player depends
    on the neighbours whose strategy changes some order of the player, the
    game analogue of non-redundant CP-net parents.

    Returns (flag, levels) where levels maps player index to its level
    (dependencies only on strictly lower levels); levels is None when cyclic.
    Players with constant preferences depend on nobody and sit at level 0.
    """
    return cpnet.parent_levels([set(ns) - cpnet.unused_parents(game.strategies, ns, rows)
                                for ns, rows in zip(game.neigh, game.prefs)])


def _payoff_codes(game):
    """Each player's payoff table with every payoff replaced by its exact
    code (`semiring._compile`), higher being better."""
    return [semiring._compile(game.carrier, [t])[0][0] for t in game.payoffs]


def best_replies(game):
    """Per player, its local scope and the tuples over it in which its
    strategy has the best payoff of its neighbours' context, looked up by
    exact code."""
    out = []
    for i, codes in enumerate(_payoff_codes(game)):
        scope = game.local_scope(i)
        own = scope.index(i)
        top = {}
        for t, c in codes.items():
            context = t[:own] + t[own + 1:]
            top[context] = max(top.get(context, c), c)
        out.append((scope, {t for t, c in codes.items() if c == top[t[:own] + t[own + 1:]]}))
    return out


def nash_equilibria_payoff(game):
    """Weak-inequality Nash over unilateral deviations (canonical extension):
    the joint strategies whose every local tuple is a best reply."""
    check_space(game.space_size(), "joint strategy space")
    return list(softcsp.solutions(game.strategies, best_replies(game)))


def pareto_maximal(game, joint):
    """The members of `joint` whose payoff vector no other member
    Pareto-dominates, in the order of `joint`: one skyline over vectors of
    exact payoff codes."""
    scopes = [game.local_scope(i) for i in range(len(game.players))]
    codes = _payoff_codes(game)
    return semiring.maximal(
        (s, tuple(t[tuple(s[j] for j in scope)] for scope, t in zip(scopes, codes)))
        for s in joint
    )


def pareto_efficient(game):
    """The joint strategies whose payoff vector no other one Pareto-dominates,
    in enumeration order."""
    return pareto_maximal(game, game.joint_strategies())


class DirectedGraph(Record):
    # `_preds` maps each node to its in-neighbours in edge order; it is
    # derived, so not a field
    __slots__ = ("nodes", "edges", "levels", "_preds")
    _fields = ("nodes", "edges", "levels")

    def __init__(self, nodes, edges, levels=None):
        init_field(self, "nodes", nodes)
        init_field(self, "edges", edges)  # pairs of node names, none repeated
        init_field(self, "levels", levels)  # None, or a tuple of ints aligned with nodes
        self.__post_init__()

    def __post_init__(self):
        known = set(self.nodes)
        if len(known) != len(self.nodes):
            raise ValidationError("duplicate node names")
        seen = set()
        preds = {node: [] for node in self.nodes}
        for u, v in self.edges:
            if u not in known or v not in known:
                raise ValidationError("edge (%s, %s) mentions unknown node" % (u, v))
            if (u, v) in seen:
                raise ValidationError("edge (%s, %s) is given twice" % (u, v))
            seen.add((u, v))
            preds[v].append(u)
        if self.levels is not None and not (
                isinstance(self.levels, tuple) and len(self.levels) == len(self.nodes)
                and all(type(lv) is int for lv in self.levels)):
            raise ValidationError("graph levels must map nodes to integers")
        init_field(self, "_preds", {node: tuple(us) for node, us in preds.items()})

    def predecessors(self, node):
        return self._preds[node]


def tech_game(graph, k):
    """The technology-adoption game on a directed graph: k technologies per
    player, each player prefers the technology more of its in-neighbours
    play, ties broken towards the lower technology index."""
    if k < 1:
        raise ValidationError("need at least one technology")
    techs = tuple("t%d" % (K + 1) for K in range(k))
    index = {t: K for K, t in enumerate(techs)}
    n = len(graph.nodes)
    pos = {name: i for i, name in enumerate(graph.nodes)}
    neigh = tuple(
        tuple(sorted(pos[u] for u in graph.predecessors(name)))
        for name in graph.nodes
    )
    # one row per in-neighbour profile, each an order of all k technologies;
    # every table is checked before any is built
    for name, ns in zip(graph.nodes, neigh):
        check_space(k ** (len(ns) + 1), "preference table of %s" % name)
    prefs = []
    orders = {}  # the order of each count profile, as the sorted joint strategy
    for i in range(n):
        rows = {}
        for s in itertools.product(*(techs for _ in neigh[i])):
            profile = tuple(sorted(s))
            order = orders.get(profile)
            if order is None:
                counts = {t: s.count(t) for t in techs}
                order = orders[profile] = tuple(
                    sorted(techs, key=lambda t: (-counts[t], index[t])))
            rows[s] = order
        prefs.append(rows)
    return PPGame(graph.nodes, tuple(techs for _ in range(n)), neigh, tuple(prefs))


def _well_placed(graph, node, lower):
    """Whether at least half of the node's in-edges come from the nodes that
    `lower` accepts."""
    preds = graph.predecessors(node)
    done = sum(1 for u in preds if lower(u))
    return done >= len(preds) - done


def is_well_structured(graph):
    """Whether levels exist so that each node has at least as many in-edges
    from strictly lower levels as from the rest.

    A graph with `levels` has them verified.  Otherwise levels are built
    greedily: a node is placeable once at least half of its in-edges come
    from already placed nodes; if a valid assignment exists at all, every
    placeable-by-it node is also greedily placeable, so the greedy fixpoint
    is a complete decision procedure.  Returns (flag, node -> level or None).
    """
    if graph.levels is not None:
        levels = dict(zip(graph.nodes, graph.levels))
        ok = all(_well_placed(graph, v, lambda u: levels[u] < levels[v]) for v in graph.nodes)
        return ok, levels
    return cpnet.layers(graph.nodes, lambda v, placed: _well_placed(graph, v, placed.__contains__))
