"""The elimination loop over raw tables, the no-regret constraints built from
best replies, the shared layering loop, the Pareto-efficient Nash skyline,
the oracle's interned payoff table, the memoised dominance search, the
one-pass parent reduction, the level sweep, the one table generator, the
one table check, the one cell reader, the one stable-outcome referee
with the one check per elimination theorem, and the projection of
`cpnet.full_tables`, against the code they replaced, kept literally as
references: the callback fixpoint and its single round over the record
wrappers `eliminate`, `subgame` and `reduce_pp`, the boxed
`regret_constraints` that compares every tuple with every deviation, the
two layering loops, the `pareto_nash` that joins the
cost tuples with the no-regret constraints and enumerates every joint strategy,
the referees over a table of boxed payoff vectors, the dominance search
that slices every row it meets, the `reduce` loop that rebuilds the net
once per dropped parent, Kahn's topological order with the sweep and
acyclicity test built on it, the two parent generators, the three table
checks of `cpnet.check_tables`, `PayoffGame` and `SoftCSP`, the four
parsers' cell loops, the oracle's net and game twins of each
elimination check with its two brute-force referees, the loop of
`cpnet.full_tables` that rebuilt every outcome with a gap at its own index,
and the elimination loop that tested and rebuilt every table in every
round, with the `restrict` that filtered every row's order and the
`dominated` that compared over every row, and the technology game that
sorted every row over in-neighbours found by scanning every edge.

Results and elimination traces must be equal on every seed, lists in the
same order; the table checks and parsers must accept and refuse the same
inputs, except the defects refused only now.  Level maps are compared with
`==`: their insertion order follows set iteration, which for string keys
varies with the per-process hash seed.
"""

import copy
import itertools
import json
import math
import operator
import random
from collections import deque
from optiform.record import replace
from fractions import Fraction

from optiform import bridge, cpnet, oracle, pgame, semiring, serialize, softcsp
from optiform.errors import CarrierMismatchError, ValidationError, check_space
from tests.conftest import FIXTURES

CFG = oracle.GeneratorConfig()
SEEDS = range(300)
MODES = ("nbr", "s")


# ------------------------------------------------------------- references

def elimination_round(x, mode, removable, shrink):
    removals = removable(x, mode)
    return removals, shrink(x, removals) if any(removals) else x


def elimination_fixpoint(x, mode, removable, shrink, trace=None):
    while True:
        removals, x = elimination_round(x, mode, removable, shrink)
        if not any(removals):
            return x
        if trace is not None:
            trace.append([sorted(r) for r in removals])


def net_removable(net, mode):
    return cpnet.removable_values(net.domains, net.rows, mode)


def reference_dominated(domain, rows):
    out = set()
    for worse in domain:
        for better in domain:
            if better != worse and all(
                order.index(better) < order.index(worse) for order in rows.values()
            ):
                out.add(worse)
                break
    return out


def reference_restrict(names, parents, rows, keep):
    kept = tuple(map(tuple, keep))
    for name, k in zip(names, kept):
        if not k:
            raise ValidationError("removal empties the domain of %s" % name)
    new_rows = []
    for i, ps in enumerate(parents):
        table = {}
        for pa in itertools.product(*map(kept.__getitem__, ps)):
            table[pa] = tuple(v for v in rows[i][pa] if v in kept[i])
        new_rows.append(table)
    return kept, tuple(new_rows)


def reference_eliminate_values(names, domains, parents, rows, mode, trace):
    """The full-round loop: every table tested, then every table rebuilt."""
    test = cpnet.never_best if mode == "nbr" else reference_dominated
    while True:
        removals = list(map(test, domains, rows))
        if not any(removals):
            return domains, rows
        domains, rows = reference_restrict(names, parents, rows,
                                           cpnet.without(domains, removals))
        trace.append([sorted(r) for r in removals])


def reference_predecessors(graph, node):
    return tuple(u for u, v in graph.edges if v == node)


def reference_tech_game(graph, k):
    techs = tuple("t%d" % (K + 1) for K in range(k))
    index = {t: K for K, t in enumerate(techs)}
    pos = {name: i for i, name in enumerate(graph.nodes)}
    neigh = tuple(tuple(sorted(pos[u] for u in reference_predecessors(graph, name)))
                  for name in graph.nodes)
    prefs = []
    for ns in neigh:
        rows = {}
        for s in itertools.product(*(techs for _ in ns)):
            counts = {t: s.count(t) for t in techs}
            rows[s] = tuple(sorted(techs, key=lambda t: (-counts[t], index[t])))
        prefs.append(rows)
    return pgame.PPGame(graph.nodes, tuple(techs for _ in graph.nodes), neigh, tuple(prefs))


def reference_eliminate(net, removals):
    domains, rows = cpnet.restrict(net.variables, net.parents, net.rows,
                                   cpnet.without(net.domains, removals))
    return cpnet.from_tables(net.variables, domains, net.parents, rows)


def reference_subgame(game, keep):
    strategies, prefs = cpnet.restrict(game.players, game.neigh, game.prefs, keep)
    return pgame.PPGame(game.players, strategies, game.neigh, prefs)


def reference_removable_strategies(game, mode):
    return cpnet.removable_values(game.strategies, game.prefs, mode)


def reference_reduce_pp(game, mode):
    removals = reference_removable_strategies(game, mode)
    return (reference_subgame(game, cpnet.without(game.strategies, removals))
            if any(removals) else game)


def drop(game, removals):
    return reference_subgame(game, [
        [v for v in s if v not in r] for s, r in zip(game.strategies, removals)
    ])


def reference_essential_neighbours(game, i):
    unused = cpnet.unused_parents(game.strategies, game.neigh[i], game.prefs[i])
    return tuple(j for j in game.neigh[i] if j not in unused)


def reference_redundant_parents(net, i):
    return cpnet.unused_parents(net.domains, net.parents[i], net.rows[i])


def reference_improving_values(order, current, values):
    rank = order.index(current)
    return (v for v in values if v != current and order.index(v) < rank)


def reference_brute_optimal_outcomes(net):
    def better_flips(o):
        for i in range(len(net.variables)):
            yield from reference_improving_values(net.row_for(i, o), o[i], net.domains[i])
    return oracle._unbeaten(net.outcomes(), better_flips)


def reference_brute_nash_pp(game):
    def better_replies(s):
        for i in range(len(game.players)):
            order = game.prefs[i][tuple(s[j] for j in game.neigh[i])]
            yield from reference_improving_values(order, s[i], game.strategies[i])
    return oracle._unbeaten(game.joint_strategies(), better_replies)


def reference_check_elimination_round_game(game):
    for mode in ("nbr", "s"):
        g, before = game, set(reference_brute_nash_pp(game))
        while True:
            nxt = reference_reduce_pp(g, mode)
            if nxt == g:
                break
            after = set(reference_brute_nash_pp(nxt))
            if before != after:
                return oracle._verdict(False, "mode %s round changed the Nash set" % mode)
            g = nxt
    return oracle._verdict(True)


def reference_check_elimination_round_net(net):
    for mode in ("nbr", "s"):
        n, before = net, set(reference_brute_optimal_outcomes(net))
        while True:
            removals = cpnet.removable_values(n.domains, n.rows, mode)
            if not any(removals):
                break
            nxt = reference_eliminate(n, removals)
            after = set(reference_brute_optimal_outcomes(nxt))
            if before != after:
                return oracle._verdict(False, "mode %s round changed the optimal set" % mode)
            n = nxt
    return oracle._verdict(True)


def reference_check_elimination_fixpoint_game(game):
    final = pgame.reduce_pp_fixpoint(game, "nbr")
    if set(reference_brute_nash_pp(game)) != set(reference_brute_nash_pp(final)):
        return oracle._verdict(False, "fixpoint changed the Nash set")
    if all(len(s) == 1 for s in final.strategies):
        only = tuple(s[0] for s in final.strategies)
        return oracle._verdict(reference_brute_nash_pp(game) == [only],
                               "singleton joint strategy is not the unique Nash")
    return oracle._verdict(True)


def reference_check_elimination_fixpoint_net(net):
    final = cpnet.reduce_to_fixpoint(net, "nbr")
    if set(reference_brute_optimal_outcomes(net)) != set(reference_brute_optimal_outcomes(final)):
        return oracle._verdict(False, "fixpoint changed the optimal set")
    if all(len(d) == 1 for d in final.domains):
        only = tuple(d[0] for d in final.domains)
        return oracle._verdict(
            reference_brute_optimal_outcomes(net) == [only],
            "singleton outcome is not the unique optimum",
        )
    return oracle._verdict(True)


REFERENCE_ELIMINATION_CHECKS = {
    "elimination_round_net": reference_check_elimination_round_net,
    "elimination_round_game": reference_check_elimination_round_game,
    "elimination_fixpoint_net": reference_check_elimination_fixpoint_net,
    "elimination_fixpoint_game": reference_check_elimination_fixpoint_game,
}


def reference_regret_constraints(game):
    constraints = []
    for i in range(len(game.players)):
        scope = game.local_scope(i)
        own = scope.index(i)
        table = {}
        for s, p in game.payoffs[i].items():
            ok = all(
                not game.payoff_lt(p, game.payoffs[i][s[:own] + (v,) + s[own + 1:]])
                for v in game.strategies[i]
            )
            table[s] = semiring.value(semiring.BOOLEAN, ok)
        constraints.append(softcsp.SoftConstraint(scope, table))
    return softcsp.SoftCSP(
        game.players, game.strategies, tuple(constraints), semiring.BOOLEAN
    )


def reference_is_hierarchical(game):
    n = len(game.players)
    deps = [reference_essential_neighbours(game, i) for i in range(n)]
    levels = {}
    remaining = set(range(n))
    level = 0
    while remaining:
        ready = {i for i in remaining if all(j in levels for j in deps[i])}
        if not ready:
            return False, None
        for i in ready:
            levels[i] = level
        remaining -= ready
        level += 1
    return True, levels


def reference_is_well_structured(graph):
    placed = {}
    level = 0
    remaining = set(graph.nodes)
    while remaining:
        ready = set()
        for node in remaining:
            preds = graph.predecessors(node)
            done = sum(1 for u in preds if u in placed)
            if done >= len(preds) - done:
                ready.add(node)
        if not ready:
            return False, None
        for node in ready:
            placed[node] = level
        remaining -= ready
        level += 1
    return True, placed


def reference_levels_ok(graph, levels):
    for node in graph.nodes:
        preds = graph.predecessors(node)
        lower = sum(1 for u in preds if levels[u] < levels[node])
        if lower < len(preds) - lower:
            return False
    return True


def reference_pareto_nash(game, offset=None):
    merged = softcsp.join(bridge.scsp_of_game(game, offset), bridge.regret_constraints(game))
    bottom = semiring.zero(merged.semiring)
    return [
        (s, p)
        for s, p in softcsp.optimal_solutions(merged)
        if p.payload != bottom.payload
    ]


def reference_payoff_table(game):
    players = range(len(game.players))
    return {s: tuple(game.payoff(i, s) for i in players) for s in game.joint_strategies()}


def reference_dominates(game, q, p):
    return all(map(game.payoff_leq, p, q)) and any(map(game.payoff_lt, p, q))


def reference_brute_nash(game):
    table = reference_payoff_table(game)

    def better_deviations(s):
        for i in range(len(game.players)):
            p = table[s][i]
            for v in game.strategies[i]:
                dev = s[:i] + (v,) + s[i + 1:]
                if game.payoff_lt(p, table[dev][i]):
                    yield dev
    return oracle._unbeaten(table, better_deviations)


def reference_brute_pareto(game):
    table = reference_payoff_table(game)

    def dominators(s):
        p = table[s]
        return (t for t, q in table.items() if reference_dominates(game, q, p))
    return oracle._unbeaten(table, dominators)


def reference_dominates_search(net, alpha, beta, budget=cpnet.DEFAULT_DOMINANCE_BUDGET):
    for o in (alpha, beta):  # net.check_outcome(alpha) and (beta) before
        softcsp.check_assignment(net.variables, net.domains, o)
    tables = list(enumerate(zip(net.parents, net.rows)))
    frontier = deque([alpha])
    visited = {alpha}
    expanded = 0
    while frontier:
        if expanded >= budget:
            return cpnet.BUDGET_EXHAUSTED
        o = frontier.popleft()
        expanded += 1
        for i, (ps, rows) in tables:
            order = rows[tuple(map(o.__getitem__, ps))]
            for v in order[order.index(o[i]) + 1:]:
                succ = o[:i] + (v,) + o[i + 1:]
                if succ == beta:
                    return True
                if succ not in visited:
                    visited.add(succ)
                    frontier.append(succ)
    return False


def reference_drop_parent(net, i, y):
    t = net.tables[i]
    k = t.parents.index(y)
    rest = t.parents[:k] + t.parents[k + 1:]
    rows = {}
    anchor = net.domains[y][0]
    for a in itertools.product(*(net.domains[p] for p in rest)):
        rows[a] = t.rows[a[:k] + (anchor,) + a[k:]]
    tables = list(net.tables)
    tables[i] = cpnet.CPTable(i, rest, rows)
    return cpnet.CPNet(net.variables, net.domains, tuple(tables))


def reference_reduce(net):
    changed = True
    while changed:
        changed = False
        for i in range(len(net.variables)):
            red = reference_redundant_parents(net, i)
            for y in sorted(red):
                net = reference_drop_parent(net, i, y)
                changed = True
    return net


def reference_topological_order(net):
    n = len(net.variables)
    children = {i: [] for i in range(n)}
    indeg = {i: 0 for i in range(n)}
    for p, c in [(p, t.owner) for t in net.tables for p in t.parents]:
        children[p].append(c)
        indeg[c] += 1
    ready = deque(i for i in range(n) if indeg[i] == 0)
    order = []
    while ready:
        i = ready.popleft()
        order.append(i)
        for c in children[i]:
            indeg[c] -= 1
            if indeg[c] == 0:
                ready.append(c)
    return order if len(order) == n else None


def reference_is_acyclic(net):
    return reference_topological_order(net) is not None


def reference_sweep_optimal(net):
    order = reference_topological_order(net)
    if order is None:
        raise ValidationError("sweep requires an acyclic net")
    assignment = [None] * len(net.variables)
    for i in order:
        t = net.tables[i]
        row = t.rows[tuple(assignment[p] for p in t.parents)]
        assignment[i] = row[0]
    return tuple(assignment)


def reference_random_cpnet(cfg):
    rng = random.Random(cfg.seed)
    n = rng.randint(1, cfg.max_vars)
    domains = oracle._domains(rng, cfg, n)
    order = list(range(n))
    rng.shuffle(order)
    tables = []
    parent_pool = {}
    for rank, i in enumerate(order):
        if cfg.acyclic:
            pool = order[:rank]
        else:
            pool = [j for j in range(n) if j != i]
        parent_pool[i] = tuple(sorted(j for j in pool if rng.random() < cfg.density))
    for i in range(n):
        parents = parent_pool[i]
        rows = {}
        for pa in itertools.product(*(domains[p] for p in parents)):
            perm = list(domains[i])
            rng.shuffle(perm)
            rows[pa] = tuple(perm)
        tables.append(cpnet.CPTable(i, parents, rows))
    return cpnet.CPNet(
        tuple("X%d" % i for i in range(n)), domains, tuple(tables)
    )


def reference_random_ppgame(cfg):
    rng = random.Random(cfg.seed)
    n = rng.randint(1, cfg.max_vars)
    strategies = oracle._domains(rng, cfg, n)
    if cfg.graphical:
        order = list(range(n))
        rng.shuffle(order)
        neigh_sets = {}
        for rank, i in enumerate(order):
            pool = order[:rank] if cfg.acyclic else [j for j in range(n) if j != i]
            neigh_sets[i] = tuple(
                sorted(j for j in pool if rng.random() < cfg.density)
            )
        neigh = tuple(neigh_sets[i] for i in range(n))
    else:
        neigh = cpnet.full_parents(n)
    prefs = []
    for i in range(n):
        rows = {}
        for s in itertools.product(*(strategies[j] for j in neigh[i])):
            perm = list(strategies[i])
            rng.shuffle(perm)
            rows[s] = tuple(perm)
        prefs.append(rows)
    return pgame.PPGame(
        tuple("p%d" % i for i in range(n)), strategies, neigh, tuple(prefs)
    )


def reference_full_tables(names, domains, parents, rows):
    wide = cpnet.full_parents(len(domains))
    new_rows = []
    for i, ps in enumerate(parents):
        check_space(math.prod(len(domains[j]) for j in wide[i]),
                    "full table of %s" % names[i])
        table = {}
        for opp in itertools.product(*map(domains.__getitem__, wide[i])):
            full = list(opp)
            full.insert(i, None)
            table[opp] = rows[i][tuple(map(full.__getitem__, ps))]
        new_rows.append(table)
    return wide, tuple(new_rows)


class ProductPayoffGame(pgame.PayoffGame):
    """A payoff game over a product carrier, whose induced order leaves some
    payoffs incomparable.  `PayoffGame` admits linear carriers only, and
    this subclass skips that check: the referees order payoffs only through
    `payoff_leq`/`payoff_lt`, which a product carrier defines."""

    __slots__ = ()

    def __post_init__(self):
        pass


def product_payoff_game(seed):
    rng = random.Random(seed)
    spec = semiring.product(semiring.FUZZY, semiring.FUZZY)
    n = rng.randint(2, 3)
    strategies = tuple(tuple("s%d" % k for k in range(rng.randint(2, 3))) for _ in range(n))
    neigh = cpnet.full_parents(n)
    halves = [Fraction(k, 2) for k in range(3)]
    payoffs = tuple(
        {s: semiring.value(spec, (rng.choice(halves), rng.choice(halves)))
         for s in itertools.product(*strategies)}
        for _ in range(n))
    return ProductPayoffGame(tuple("p%d" % i for i in range(n)), strategies, neigh, payoffs, spec)


def fractional(game, seed):
    """The same game with payoffs drawn from the rationals in [0, 10] with
    denominators 3 to 7."""
    rng = random.Random(seed)
    payoffs = tuple({t: Fraction(rng.randint(0, 30), rng.randint(3, 7)) for t in table}
                    for table in game.payoffs)
    return pgame.PayoffGame(game.players, game.strategies, game.neigh, payoffs)


def reference_check_tables(names, domains, parents, rows):
    if len(set(names)) != len(names):
        raise ValidationError("duplicate names in %r" % (names,))
    for i, (name, dom, ps, r) in enumerate(zip(names, domains, parents, rows)):
        if not dom:
            raise ValidationError("empty domain for %s" % name)
        if i in ps:
            raise ValidationError("%s is its own parent" % name)
        if len(set(ps)) != len(ps):
            raise ValidationError("%s names a parent or neighbour twice" % name)
        expected = set(itertools.product(*map(domains.__getitem__, ps)))
        if r.keys() != expected:
            missing = expected - r.keys()
            if missing:
                raise ValidationError(
                    "table of %s misses the row for parent assignment %r"
                    % (name, sorted(missing)[0])
                )
            raise ValidationError("table of %s has spurious rows" % name)
        cpnet.check_strict_orders(dict.fromkeys(r.values()), dom)


def reference_check_payoff_game(players, strategies, neigh, payoffs, carrier):
    n = len(players)
    if not (n == len(strategies) == len(neigh) == len(payoffs)):
        raise ValidationError("player-indexed fields differ in length")
    if carrier is not None and not semiring.is_linear(carrier):
        raise ValidationError("payoff carrier must be linearly ordered")
    for i in range(n):
        if i in neigh[i]:
            raise ValidationError("player %s is its own neighbour" % players[i])
        if len(set(neigh[i])) != len(neigh[i]):
            raise ValidationError("player %s names a neighbour twice" % players[i])
        scope = tuple(sorted(neigh[i] + (i,)))
        expected = set(itertools.product(*(strategies[j] for j in scope)))
        if set(payoffs[i]) != expected:
            raise ValidationError(
                "payoff table of player %s is not total over neigh+self"
                % players[i]
            )
        if carrier is not None:
            for v in payoffs[i].values():
                semiring._require(carrier, v)


def reference_check_scsp(variables, domains, constraints, spec):
    if len(variables) != len(domains):
        raise ValidationError("variables and domains differ in length")
    if len(set(variables)) != len(variables):
        raise ValidationError("duplicate variable names")
    for name, dom in zip(variables, domains):
        if not dom:
            raise ValidationError("empty domain for variable %s" % name)
    for c in constraints:
        reference_check_constraint(variables, domains, spec, c)


def reference_check_constraint(variables, domains, spec, c):
    for i in c.scope:
        if not 0 <= i < len(variables):
            raise ValidationError("constraint scope mentions unknown variable %d" % i)
    if len(set(c.scope)) != len(c.scope):
        raise ValidationError(
            "constraint scope %s names a variable twice"
            % ([variables[i] for i in c.scope],))
    expected = list(itertools.product(*(domains[i] for i in c.scope)))
    if set(c.table) != set(expected):
        missing = [t for t in expected if t not in c.table]
        if missing:
            raise ValidationError(
                "constraint over %s misses tuple %r"
                % ([variables[i] for i in c.scope], missing[0])
            )
        raise ValidationError(
            "constraint over %s has spurious tuples"
            % ([variables[i] for i in c.scope],)
        )
    for v in c.table.values():
        if not isinstance(v, semiring.SemiringValue) or v.spec != spec:
            raise CarrierMismatchError(
                "constraint value %r is not in the problem's carrier" % (v,)
            )


def reference_cpnet_from_json(data):
    variables, index, domains = serialize._header_from_json(data, "variables", "domains")
    parents, table_rows = [], []
    for v in variables:
        try:
            entry = data["tables"][v]
        except KeyError:
            raise ValidationError("missing table for variable %s" % v)
        where = "table of %s: " % v
        parents.append(tuple(index[p] for p in serialize._list(entry["parents"],
                                                               where + '"parents"')))
        rows = {}
        for row in entry["rows"]:
            order = serialize._list(row["order"], where + '"order"')
            for when in serialize._list(row["when"], where + '"when"'):
                key = serialize._list(when, where + 'each "when" entry')
                if key in rows:
                    raise ValidationError(
                        "table of %s: duplicate row for parent assignment %r" % (v, when)
                    )
                rows[key] = order
        table_rows.append(rows)
    try:
        return cpnet.from_tables(variables, domains, parents, table_rows)
    except ValidationError as exc:
        raise ValidationError("cpnet: %s" % exc)


def reference_scsp_from_json(data):
    spec = serialize.spec_from_json(data["semiring"])
    variables, index, domains = serialize._header_from_json(data, "variables", "domains")
    constraints = []
    for k, entry in enumerate(data["constraints"]):
        scope = tuple(index[v] for v in serialize._list(entry["scope"],
                                                        'constraint %d: "scope"' % k))
        table = {}
        for cell in entry["table"]:
            where = "constraint %d over %s" % (k, entry["scope"])
            table[serialize._list(cell["tuple"], where + ': "tuple"')] = semiring.SemiringValue(
                spec, serialize.payload_from_json(spec, cell["value"], where))
        constraints.append(softcsp.SoftConstraint(scope, table))
    return softcsp.SoftCSP(variables, domains, tuple(constraints), spec)


def reference_ppgame_from_json(data):
    players, strategies, neigh = serialize._game_from_json(data)
    prefs = []
    for p in players:
        rows = {}
        for row in data["prefs"][p]:
            key = serialize._list(row["when"], 'prefs of %s: "when"' % p)
            if key in rows:
                raise ValidationError("prefs of %s: duplicate row %r" % (p, row["when"]))
            rows[key] = serialize._list(row["order"], 'prefs of %s: "order"' % p)
        prefs.append(rows)
    return pgame.PPGame(players, strategies, neigh, tuple(prefs))


def reference_payoffgame_from_json(data):
    players, strategies, neigh = serialize._game_from_json(data)
    carrier = None if data.get("carrier") is None else serialize.spec_from_json(data["carrier"])
    payoffs = []
    for p in players:
        table = {}
        for cell in data["payoffs"][p]:
            v = serialize.payload_from_json(carrier, cell["value"], "payoffs of %s" % p)
            table[serialize._list(cell["when"], 'payoffs of %s: "when"' % p)] = (
                v if carrier is None else semiring.SemiringValue(carrier, v))
        payoffs.append(table)
    return pgame.PayoffGame(players, strategies, neigh, tuple(payoffs), carrier)


REFERENCE_PARSERS = {
    "cpnet": reference_cpnet_from_json, "scsp": reference_scsp_from_json,
    "ppgame": reference_ppgame_from_json, "payoffgame": reference_payoffgame_from_json,
}


# ------------------------------------------------------------------ tests

def test_net_fixpoint_matches_callback_fixpoint():
    for seed in SEEDS:
        for acyclic in (False, True):
            net = oracle.random_cpnet(replace(CFG, seed=seed, acyclic=acyclic))
            for mode in MODES:
                got, want = [], []
                final = cpnet.reduce_to_fixpoint(net, mode, got)
                expected = elimination_fixpoint(net, mode, net_removable, reference_eliminate, want)
                assert (final, got) == (expected, want), (seed, acyclic, mode)
                assert (final is net) == (expected is net)


def test_game_rounds_match_callback_round_and_fixpoint():
    for seed in SEEDS:
        for graphical in (False, True):
            game = oracle.random_ppgame(replace(CFG, seed=seed, graphical=graphical))
            for mode in MODES:
                # one round of the core, as the elimination checks take it
                removals = cpnet.removable_values(game.strategies, game.prefs, mode)
                step = elimination_round(game, mode, reference_removable_strategies, drop)[1]
                assert (step is game) == (not any(removals))
                if any(removals):
                    assert cpnet.restrict(game.players, game.neigh, game.prefs, cpnet.without(
                        game.strategies, removals)) == (
                            step.strategies, step.prefs)
                got, want = [], []
                final = pgame.reduce_pp_fixpoint(game, mode, got)
                expected = elimination_fixpoint(game, mode, reference_removable_strategies, drop,
                                                want)
                assert (final, got) == (expected, want), (seed, graphical, mode)
                assert (final is game) == (expected is game)


def elimination_instances():
    """Cyclic and acyclic nets, full and graphical games and technology
    games."""
    for seed in range(1, 401):
        yield from (oracle.random_cpnet(replace(CFG, seed=seed, acyclic=acyclic))
                    for acyclic in (False, True))
        yield from (oracle.random_ppgame(replace(CFG, seed=seed, graphical=graphical))
                    for graphical in (False, True))
        dag = oracle.random_dag(replace(CFG, seed=seed))
        yield from (pgame.tech_game(dag, k) for k in range(1, 5))


def test_worklist_elimination_matches_full_rounds():
    """`eliminate_values`, which tests and rebuilds only the tables a round
    touched, against the loop that tests and rebuilds every table: equal
    domains, equal rows with equal key order, equal traces, and the inputs
    themselves when nothing was removable."""
    rounds = untouched = 0
    for x in elimination_instances():
        names, domains, parents, rows = oracle._tables(x)
        for mode in MODES:
            got, want = [], []
            final = cpnet.eliminate_values(names, domains, parents, rows, mode, got)
            expected = reference_eliminate_values(names, domains, parents, rows, mode, want)
            assert (final, got) == (expected, want), (x, mode)
            assert [list(t) for t in final[1]] == [list(t) for t in expected[1]]
            assert (final[1] is rows) == (expected[1] is rows) == (not want)
            rounds += len(want) > 1
            untouched += bool(want) and any(map(operator.is_, final[1], rows))
    # later rounds occur, and eliminations leave some tables untouched
    assert rounds > 1000 and untouched > 200, (rounds, untouched)


def test_tech_game_matches_per_row_sort():
    """In-neighbours read once per graph and orders sorted once per count
    profile, against the edge scan per node and the sort per row: equal
    in-neighbours in edge order, equal games with equal key order."""
    for seed in range(1, 101):
        dag = oracle.random_dag(replace(CFG, seed=seed, max_vars=6))
        rng = random.Random(seed)
        back = tuple((v, u) for u, v in dag.edges if rng.random() < 0.3)
        for graph in (dag, pgame.DirectedGraph(dag.nodes, dag.edges + back)):
            for node in graph.nodes:
                assert graph.predecessors(node) == reference_predecessors(graph, node)
            for k in range(1, 5):
                got, want = pgame.tech_game(graph, k), reference_tech_game(graph, k)
                assert got == want, (seed, k)
                assert [list(t) for t in got.prefs] == [list(t) for t in want.prefs]


def test_restrict_rebuilds_only_changed_tables():
    """`restrict` rebuilds the tables of the changed indices and of their
    children, as the full rebuild does, and returns every other table as
    the same dict."""
    for seed in range(1, 201):
        for x in (oracle.random_cpnet(replace(CFG, seed=seed)),
                  oracle.random_ppgame(replace(CFG, seed=seed, graphical=True))):
            names, domains, parents, rows = oracle._tables(x)
            rng = random.Random(seed)
            changed = {i for i, d in enumerate(domains) if len(d) > 1 and rng.random() < 0.5}
            keep = [d[1:] if i in changed else d for i, d in enumerate(domains)]
            got = cpnet.restrict(names, parents, rows, keep)
            assert got == reference_restrict(names, parents, rows, keep)
            for i, (ps, table) in enumerate(zip(parents, rows)):
                touched = i in changed or not changed.isdisjoint(ps)
                assert (got[1][i] is table) == (not touched), (seed, i)


def test_regret_constraints_match_deviation_scan():
    games = [oracle.random_payoff_game(replace(CFG, seed=seed)) for seed in SEEDS]
    for carrier in ("weighted", "fuzzy", "boolean"):
        games += [bridge.local_map(oracle.random_scsp(replace(CFG, seed=seed, carrier=carrier)))
                  for seed in SEEDS[::3]]
    for game in games:
        got, want = bridge.regret_constraints(game), reference_regret_constraints(game)
        assert got == want
        assert [list(c.table) for c in got.constraints] == [
            list(c.table) for c in want.constraints]


def test_layers_match_both_loops():
    for seed in SEEDS:
        for graphical, acyclic in ((False, False), (True, False), (True, True)):
            game = oracle.random_ppgame(
                replace(CFG, seed=seed, graphical=graphical, acyclic=acyclic))
            assert pgame.is_hierarchical(game) == reference_is_hierarchical(game), seed
        dag = oracle.random_dag(replace(CFG, seed=seed))
        # some edges reversed as well, so that cycles leave nodes unplaced
        rng = random.Random(seed)
        back = tuple((v, u) for u, v in dag.edges if rng.random() < 0.3)
        for graph in (dag, pgame.DirectedGraph(dag.nodes, dag.edges + back)):
            assert pgame.is_well_structured(graph) == reference_is_well_structured(graph), seed
            # given levels are verified: the greedy ones, and random ones
            for levels in (pgame.is_well_structured(dag)[1],
                           {v: rng.randint(0, 2) for v in graph.nodes}):
                want = reference_levels_ok(graph, levels)
                given = pgame.DirectedGraph(graph.nodes, graph.edges,
                                            tuple(map(levels.get, graph.nodes)))
                assert pgame.is_well_structured(given) == (want, levels), seed


def outcome(f, *args):
    """The result of f(*args), or the message of the ValidationError it raises."""
    try:
        return f(*args)
    except ValidationError as exc:
        return str(exc)


def test_pareto_nash_matches_join():
    for seed in SEEDS:
        for max_vars in (3, 5):
            game = oracle.random_payoff_game(replace(CFG, seed=seed, max_vars=max_vars))
            for g in (game, fractional(game, seed)):
                # an offset of 5 is below the top payoff of most games
                for offset in (None, 20, 5):
                    want = outcome(reference_pareto_nash, g, offset)
                    assert outcome(bridge.pareto_nash, g, offset) == want, (seed, max_vars, offset)


def test_referees_match_boxed_payoff_table():
    games = [oracle.random_payoff_game(replace(CFG, seed=seed)) for seed in SEEDS]
    for carrier in ("weighted", "fuzzy", "boolean"):
        for seed in SEEDS[::3]:
            problem = oracle.random_scsp(replace(CFG, seed=seed, carrier=carrier))
            games += [bridge.local_map(problem), bridge.global_map(problem)]
    products = [product_payoff_game(seed) for seed in SEEDS[:60]]
    spec = products[0].carrier
    assert any(semiring.incomparable(spec, a, b)
               for g in products for a in g.payoffs[0].values() for b in g.payoffs[0].values())
    for game in games + products:
        assert oracle.brute_nash(game) == reference_brute_nash(game)
        assert oracle.brute_pareto(game) == reference_brute_pareto(game)


def dominance_queries():
    """Seeded `random_cpnet` nets, cyclic and acyclic, each with four random
    outcome pairs and one equal pair."""
    for seed in SEEDS:
        for acyclic in (False, True):
            net = oracle.random_cpnet(replace(CFG, seed=seed, acyclic=acyclic))
            outcomes = list(net.outcomes())
            rng = random.Random(seed)
            pairs = [(rng.choice(outcomes), rng.choice(outcomes)) for _ in range(4)]
            pairs.append((outcomes[0], outcomes[0]))
            for alpha, beta in pairs:
                yield (seed, acyclic), net, alpha, beta


def test_dominates_matches_row_slicing_search():
    # the search's answers within the budget stand; where it runs out, the
    # ordering query may answer False, which the search confirms given room
    for case, net, alpha, beta in dominance_queries():
        for budget in (1, 3, 10, 10 ** 5):
            got = cpnet.dominates(net, alpha, beta, budget)
            want = reference_dominates_search(net, alpha, beta, budget)
            if want == cpnet.BUDGET_EXHAUSTED and got is False:
                want = reference_dominates_search(net, alpha, beta, 10 ** 6)
            assert got == want, case


def test_ordering_query_never_contradicts_search():
    fired = {False: 0, True: 0}
    for case, net, alpha, beta in dominance_queries():
        if cpnet.ordering_query(net, alpha, beta):
            assert reference_dominates_search(net, alpha, beta, 10 ** 6) is False, case
            fired[cpnet.parent_levels(net.parents)[0]] += 1
    assert fired[False] == 0 and fired[True] > 0


def structure_nets():
    """Seeded nets for the structure algorithms: `random_cpnet` nets, cyclic
    and acyclic, and the full-parent nets of graphical games, whose added
    parents are all redundant, with their reductions (acyclic when the game
    is hierarchical)."""
    for seed in SEEDS:
        for acyclic in (False, True):
            yield oracle.random_cpnet(replace(CFG, seed=seed, acyclic=acyclic))
            game = oracle.random_ppgame(replace(CFG, seed=seed, graphical=True, acyclic=acyclic))
            net = bridge.cpnet_of_game(game)
            yield net
            yield reference_reduce(net)


def test_reduce_matches_drop_parent_loop():
    dropped = 0
    for net in structure_nets():
        got, want = cpnet.reduce(net), reference_reduce(net)
        assert got == want
        assert [list(r) for r in got.rows] == [list(r) for r in want.rows]
        assert (got is net) == (want is net)
        dropped += sum(map(len, net.parents)) - sum(map(len, got.parents))
    assert dropped > 1000


def test_sweep_and_acyclicity_match_topological_order():
    verdicts = set()
    for net in structure_nets():
        acyclic, levels = cpnet.parent_levels(net.parents)
        assert acyclic == reference_is_acyclic(net)
        assert outcome(cpnet.sweep_optimal, net) == outcome(reference_sweep_optimal, net)
        if acyclic:
            assert all(levels[p] < levels[i] for i, ps in enumerate(net.parents) for p in ps)
        verdicts.add(acyclic)
    assert verdicts == {False, True}


def test_referee_matches_both_brute_branches():
    for seed in range(1, 401):
        for acyclic in (False, True):
            net = oracle.random_cpnet(replace(CFG, seed=seed, acyclic=acyclic))
            assert oracle.brute_optimal_outcomes(net) == reference_brute_optimal_outcomes(net)
            for graphical in (False, True):
                game = oracle.random_ppgame(
                    replace(CFG, seed=seed, graphical=graphical, acyclic=acyclic))
                assert oracle.brute_nash(game) == reference_brute_nash_pp(game), seed


def elimination_verdicts(seeds):
    """Per elimination suite and seed, whether the instance passed the one
    check now and the twin check before.  Only pass or fail is compared:
    the twins' failure details name the optimal set or the Nash set, the
    one check's the stable outcomes."""
    out = {}
    for theorem, reference in REFERENCE_ELIMINATION_CHECKS.items():
        for seed in seeds:
            instance = oracle.generate_instance(theorem, replace(CFG, seed=seed))
            verdicts = oracle.check_theorem(theorem, instance), reference(instance)
            assert not any(v.skipped for v in verdicts)
            out[theorem, seed] = tuple(v.ok for v in verdicts)
    return out


def test_elimination_checks_match_the_twin_checks(monkeypatch):
    assert set(elimination_verdicts(range(1, 401)).values()) == {(True, True)}
    # a restriction that reverses every surviving row breaks the theorems:
    # both checks must then fail on the same instances
    restrict = cpnet.restrict

    def reversing(names, parents, rows, keep):
        kept, new_rows = restrict(names, parents, rows, keep)
        return kept, tuple({pa: order[::-1] for pa, order in r.items()} for r in new_rows)
    monkeypatch.setattr(cpnet, "restrict", reversing)
    verdicts = elimination_verdicts(range(1, 201))
    assert all(now == before for now, before in verdicts.values())
    failed = {theorem for (theorem, _), (now, _) in verdicts.items() if not now}
    assert failed == set(REFERENCE_ELIMINATION_CHECKS)


def test_full_tables_match_insert_loop():
    """The projection by `itemgetter` against the loop that rebuilt each
    outcome with a gap at the table's own index: equal parents, equal
    tables with equal key order, over tables with no, one and several
    parents."""
    arities = set()
    for seed in SEEDS:
        for x in (oracle.random_cpnet(replace(CFG, seed=seed, max_vars=5)),
                  oracle.random_ppgame(replace(CFG, seed=seed, max_vars=5, graphical=True)),
                  oracle.random_ppgame(replace(CFG, seed=seed, max_vars=4))):
            names, domains, parents, rows = (
                (x.variables, x.domains, x.parents, x.rows) if isinstance(x, cpnet.CPNet)
                else (x.players, x.strategies, x.neigh, x.prefs))
            arities.update(map(len, parents))
            got = cpnet.full_tables(names, domains, parents, rows)
            want = reference_full_tables(names, domains, parents, rows)
            assert got == want
            assert [list(t) for t in got[1]] == [list(t) for t in want[1]]
    assert {0, 1, 2, 3} <= arities


def test_generators_match_parent_draws():
    for seed in SEEDS:
        for acyclic in (False, True):
            for density in (0.2, 0.5, 0.9):
                cfg = replace(CFG, seed=seed, acyclic=acyclic, density=density)
                got, want = oracle.random_cpnet(cfg), reference_random_cpnet(cfg)
                assert got == want
                assert [list(r) for r in got.rows] == [list(r) for r in want.rows]
                for graphical in (False, True):
                    g = replace(cfg, graphical=graphical)
                    got, want = oracle.random_ppgame(g), reference_random_ppgame(g)
                    assert got == want
                    assert [list(r) for r in got.prefs] == [list(r) for r in want.prefs]


# ------------------------------------------- one table check, one cell reader

TABLE_KINDS = ("cpnet", "ppgame", "payoffgame", "scsp")
CARRIERS = ("weighted", "fuzzy", "boolean")


def table_instances():
    """(kind, record) for every fixture of a table kind and for seeded
    generator instances of each table kind."""
    for path in sorted(FIXTURES.glob("*.json")):
        kind, obj = serialize.load_path(str(path))
        if kind in TABLE_KINDS:
            yield kind, obj
    for seed in SEEDS[:60]:
        yield "cpnet", oracle.random_cpnet(replace(CFG, seed=seed, acyclic=seed % 2 == 0))
        yield "ppgame", oracle.random_ppgame(replace(CFG, seed=seed, graphical=seed % 2 == 0))
        yield "payoffgame", oracle.random_payoff_game(replace(CFG, seed=seed))
        yield "scsp", oracle.random_scsp(replace(CFG, seed=seed, carrier=CARRIERS[seed % 3]))


def table_fields(kind, record):
    """Names, domains, and each table's scope and tuples: a table's scope is
    its owner's parents or neighbours, or a constraint's scope."""
    if kind == "cpnet":
        return record.variables, record.domains, record.parents, record.rows
    if kind == "ppgame":
        return record.players, record.strategies, record.neigh, record.prefs
    if kind == "payoffgame":
        return record.players, record.strategies, record.neigh, record.payoffs
    return (record.variables, record.domains, tuple(c.scope for c in record.constraints),
            tuple(c.table for c in record.constraints))


def build(kind, record, names, domains, scopes, tables):
    """The record of `kind` the fields make, validated as the records do now."""
    if kind == "cpnet":
        return cpnet.from_tables(names, domains, scopes, tables)
    if kind == "ppgame":
        return pgame.PPGame(names, domains, scopes, tables)
    if kind == "payoffgame":
        return pgame.PayoffGame(names, domains, scopes, tables, record.carrier)
    constraints = tuple(map(softcsp.SoftConstraint, scopes, tables))
    return softcsp.SoftCSP(names, domains, constraints, record.semiring)


def reference_check(kind, record, names, domains, scopes, tables):
    """The same fields, validated as the records did before."""
    if kind in ("cpnet", "ppgame"):
        reference_check_tables(names, domains, scopes, tables)
    elif kind == "payoffgame":
        reference_check_payoff_game(names, domains, scopes, tables, record.carrier)
    else:
        reference_check_scsp(names, domains, tuple(map(softcsp.SoftConstraint, scopes, tables)),
                             record.semiring)


def verdict(f, *args):
    """'accept', 'refuse' (a validation error) or 'crash' (an IndexError)."""
    try:
        f(*args)
    except (ValidationError, CarrierMismatchError):
        return "refuse"
    except IndexError:
        return "crash"
    return "accept"


def table_over(kind, domains, scope, owner, value):
    """Every tuple over a table's scope, each mapped to `value`, or for a
    preference table to its owner's domain in declaration order.  A payoff
    table's scope also holds its owner; an index past the last stands for a
    domain of one value."""
    n = len(domains)
    full = sorted(scope + (owner,)) if kind == "payoffgame" else scope
    if kind in ("cpnet", "ppgame"):
        value = domains[owner]
    return dict.fromkeys(itertools.product(*(domains[i] if i < n else ("z",) for i in full)),
                         value)


def put(items, k, item):
    return items[:k] + (item,) + items[k + 1:]


def record_mutations(kind, names, domains, scopes, tables, rng):
    """(class, names, domains, scopes, tables), each with one defect; the
    tables are refilled over a changed scope or domain, so that the named
    defect is the only one."""
    n = len(names)
    k = rng.randrange(len(tables))
    value = next(iter(tables[k].values()))
    key = rng.choice(sorted(tables[k]))

    def rescoped(scope):
        return put(scopes, k, scope), put(tables, k, table_over(kind, domains, scope, k, value))

    yield ("row removed", names, domains, scopes,
           put(tables, k, {t: v for t, v in tables[k].items() if t != key}))
    yield ("row added", names, domains, scopes,
           put(tables, k, {**tables[k], key[:-1] + ("zz",): value}))
    scope = scopes[k]
    yield ("scope index repeated", names, domains,
           *rescoped(scope + scope[:1] if scope else (k % n, k % n)))
    if kind != "scsp":
        yield ("self-parent", names, domains, *rescoped(tuple(sorted(scope + (k,)))))
    yield ("negative index", names, domains, *rescoped(scope + (-1,)))
    yield ("index out of range", names, domains, *rescoped(scope + (n,)))
    j = rng.randrange(n)
    emptied = put(domains, j, ())
    yield ("empty domain", names, emptied, scopes, tuple(
        table_over(kind, emptied, sc, i, next(iter(t.values())))
        for i, (sc, t) in enumerate(zip(scopes, tables))))
    if n > 1:
        yield ("repeated name", put(names, j, names[j - 1]), domains, scopes, tables)


#: The defects a record refuses now and accepted, or failed on with an
#: IndexError, before.
NEWLY_REFUSED = {
    "cpnet": {"negative index", "index out of range"},
    "ppgame": {"negative index", "index out of range"},
    "payoffgame": {"negative index", "index out of range", "empty domain", "repeated name"},
    "scsp": set(),
}


def test_table_checks_match_the_three_copies():
    seen = set()
    for seed, (kind, record) in enumerate(table_instances()):
        fields = table_fields(kind, record)
        assert verdict(reference_check, kind, record, *fields) == "accept"
        assert build(kind, record, *fields) == record
        for cls, *mutated in record_mutations(kind, *fields, random.Random(seed)):
            old = verdict(reference_check, kind, record, *mutated)
            new = verdict(build, kind, record, *mutated)
            if cls in NEWLY_REFUSED[kind]:
                assert new == "refuse", (kind, cls, seed)
                if old != "refuse":
                    seen.add((kind, cls))
            else:
                assert new == old, (kind, cls, seed)
    assert seen == {(kind, cls) for kind, classes in NEWLY_REFUSED.items() for cls in classes}


def cell_lists(kind, doc):
    """The lists of cells of a document's tables."""
    if kind == "cpnet":
        return [t["rows"] for t in doc["tables"].values()]
    if kind == "ppgame":
        return list(doc["prefs"].values())
    if kind == "payoffgame":
        return list(doc["payoffs"].values())
    return [c["table"] for c in doc["constraints"]]


def document_mutations(kind, doc, rng):
    """(class, document) with one change to one cell list."""
    k = rng.randrange(len(cell_lists(kind, doc)))
    a, b = rng.randrange(len(cell_lists(kind, doc)[k])), 0
    body = "value" if kind in ("payoffgame", "scsp") else "order"

    def changed(change):
        out = copy.deepcopy(doc)
        change(cell_lists(kind, out)[k])
        return out

    def merge(cells):  # one row holding the parent assignments of two
        cells[a]["when"] = cells[a]["when"] + cells[b]["when"]
        del cells[b]

    def twice(cells):  # a row naming its parent assignment twice
        cells[a]["when"] = cells[a]["when"] * 2

    yield "cell dropped", changed(lambda cells: cells.pop(a))
    yield "cell repeated", changed(lambda cells: cells.append(dict(cells[a])))
    yield "cell repeated with another value", changed(
        lambda cells: cells.append({**cells[a], body: cells[b][body]}))
    if kind == "cpnet":
        if a != b:
            yield "rows merged", changed(merge)
        yield "when repeated", changed(twice)


def parsed(parse, doc):
    """The record parsed from a document, or 'refused'."""
    try:
        return parse(doc)
    except (ValidationError, CarrierMismatchError, KeyError, TypeError):
        return "refused"


def test_cell_reader_matches_the_four_parsers():
    seen = set()
    for seed, (kind, record) in enumerate(table_instances()):
        doc = json.loads(serialize.dumps(record))
        assert parsed(REFERENCE_PARSERS[kind], doc) == serialize.parse_document(doc)[1]
        for cls, mutated in document_mutations(kind, doc, random.Random(seed)):
            old = parsed(REFERENCE_PARSERS[kind], mutated)
            new = parsed(lambda d: serialize.parse_document(d)[1], mutated)
            if cls.startswith("cell repeated"):
                # a repeated cell is refused by every parser now; the soft
                # constraint and payoff parsers kept its last value before
                assert new == "refused", (kind, cls, seed)
                if old != "refused":
                    seen.add(kind)
            else:
                assert new == old, (kind, cls, seed)
    assert seen == {"payoffgame", "scsp"}
