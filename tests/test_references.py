"""The elimination loop over raw tables, the no-regret constraints built from
best replies, the shared layering loop, the Pareto-efficient Nash skyline,
the oracle's interned payoff table, the memoised dominance search, the
one-pass parent reduction, the level sweep and the one table generator,
against the code they replaced, kept literally as references: the callback
fixpoint and its single round, the boxed `regret_constraints` that compares
every tuple with every deviation, the two layering loops, the `pareto_nash`
that joins the cost tuples with the no-regret constraints and enumerates
every joint strategy, the referees over a table of boxed payoff vectors,
the dominance search that slices every row it meets, the `reduce` loop that
rebuilds the net once per dropped parent, Kahn's topological order with the
sweep and acyclicity test built on it, and the two parent generators.

Results and elimination traces must be equal on every seed, lists in the
same order.  Level maps are compared with `==`: their insertion order
follows set iteration, which for string keys varies with the per-process
hash seed.
"""

import itertools
import random
from collections import deque
from dataclasses import replace
from fractions import Fraction

from optiform import bridge, cpnet, oracle, pgame, semiring, softcsp
from optiform.errors import ValidationError

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


def drop(game, removals):
    return pgame.subgame(game, [
        [v for v in s if v not in r] for s, r in zip(game.strategies, removals)
    ])


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
    deps = [pgame.essential_neighbours(game, i) for i in range(n)]
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
    net.check_outcome(alpha)
    net.check_outcome(beta)
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
            red = cpnet.redundant_parents(net, i)
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


# ------------------------------------------------------------------ tests

def test_net_fixpoint_matches_callback_fixpoint():
    for seed in SEEDS:
        for acyclic in (False, True):
            net = oracle.random_cpnet(replace(CFG, seed=seed, acyclic=acyclic))
            for mode in MODES:
                got, want = [], []
                final = cpnet.reduce_to_fixpoint(net, mode, got)
                expected = elimination_fixpoint(net, mode, net_removable, cpnet.eliminate, want)
                assert (final, got) == (expected, want), (seed, acyclic, mode)
                assert (final is net) == (expected is net)


def test_game_rounds_match_callback_round_and_fixpoint():
    for seed in SEEDS:
        for graphical in (False, True):
            game = oracle.random_ppgame(replace(CFG, seed=seed, graphical=graphical))
            for mode in MODES:
                step = pgame.reduce_pp(game, mode)
                assert step == elimination_round(game, mode, pgame.removable_strategies, drop)[1]
                assert (step is game) == (not any(pgame.removable_strategies(game, mode)))
                got, want = [], []
                final = pgame.reduce_pp_fixpoint(game, mode, got)
                expected = elimination_fixpoint(game, mode, pgame.removable_strategies, drop, want)
                assert (final, got) == (expected, want), (seed, graphical, mode)
                assert (final is game) == (expected is game)


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
                assert pgame.is_well_structured(graph, levels) == (want, levels), seed


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


def test_dominates_matches_row_slicing_search():
    for seed in SEEDS:
        for acyclic in (False, True):
            net = oracle.random_cpnet(replace(CFG, seed=seed, acyclic=acyclic))
            outcomes = list(net.outcomes())
            rng = random.Random(seed)
            pairs = [(rng.choice(outcomes), rng.choice(outcomes)) for _ in range(4)]
            pairs.append((outcomes[0], outcomes[0]))
            for alpha, beta in pairs:
                for budget in (1, 3, 10, 10 ** 5):
                    assert cpnet.dominates(net, alpha, beta, budget) == \
                        reference_dominates_search(net, alpha, beta, budget), (seed, acyclic)


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
        acyclic = cpnet.is_acyclic(net)
        assert acyclic == reference_is_acyclic(net)
        assert outcome(cpnet.sweep_optimal, net) == outcome(reference_sweep_optimal, net)
        flag, levels = cpnet.parent_levels(net.parents)
        assert flag == acyclic
        if flag:
            assert all(levels[p] < levels[i] for i, ps in enumerate(net.parents) for p in ps)
        verdicts.add(acyclic)
    assert verdicts == {False, True}


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
