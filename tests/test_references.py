"""The elimination loop over raw tables, the no-regret constraints built from
best replies and the shared layering loop, against the code they replaced,
kept literally as references: the callback fixpoint and its single round,
the boxed `regret_constraints` that compares every tuple with every
deviation, and the two layering loops.

Results and elimination traces must be equal on every seed.  Level maps are
compared with `==`: their insertion order follows set iteration, which for
string keys varies with the per-process hash seed.
"""

import random
from dataclasses import replace

from optiform import bridge, cpnet, oracle, pgame, semiring, softcsp

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
        for acyclic in (False, True):
            game = oracle.random_ppgame(replace(CFG, seed=seed, graphical=True, acyclic=acyclic))
            assert pgame.is_hierarchical(game) == reference_is_hierarchical(game), seed
        dag = oracle.random_dag(replace(CFG, seed=seed))
        # some edges reversed as well, so that cycles leave nodes unplaced
        rng = random.Random(seed)
        back = tuple((v, u) for u, v in dag.edges if rng.random() < 0.3)
        for graph in (dag, pgame.DirectedGraph(dag.nodes, dag.edges + back)):
            assert pgame.is_well_structured(graph) == reference_is_well_structured(graph), seed
