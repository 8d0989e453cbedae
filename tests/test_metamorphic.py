"""Metamorphic relations: two related inputs whose answers must map onto
each other exactly, so no referee is needed.

- Renaming the indices by a permutation re-keys every table (each scope is
  renamed and sorted, and each key's values move with it); every answer is
  the old one with its outcomes' values moved to the new positions.
- Reversing each domain's declared order leaves the tables as they are;
  every answer holds the same outcomes, and the final domains of an
  elimination are the old ones reversed.

Answers are compared as sets, since enumeration order follows the indices
and the declared orders.
"""

import random

from optiform import cpnet, oracle, pgame, softcsp
from optiform.cpnet import CPNet
from optiform.oracle import GeneratorConfig
from optiform.pgame import PayoffGame, PPGame
from optiform.softcsp import SoftConstraint, SoftCSP

SEEDS = range(1, 301)


def place(perm, items):
    """`items` with the item at i moved to perm[i]."""
    out = [None] * len(perm)
    for i, x in enumerate(items):
        out[perm[i]] = x
    return tuple(out)


def rename(perm, scope, table):
    """`scope` with each index i renamed perm[i], sorted, and `table` with
    each key's values moved to match."""
    new = [perm[i] for i in scope]
    order = sorted(range(len(new)), key=new.__getitem__)
    return (tuple(new[k] for k in order),
            {tuple(t[k] for k in order): v for t, v in table.items()})


def renamed_tables(perm, parents, rows):
    """Per-index parents and rows, renamed by `perm` and moved to it."""
    parents, rows = zip(*map(rename, [perm] * len(rows), parents, rows))
    return place(perm, parents), place(perm, rows)


def reversed_domains(domains):
    return tuple(tuple(reversed(d)) for d in domains)


def permutation(seed, n):
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return perm


def boolean_solutions(problem):
    """The assignments of preference 1 of a boolean problem, as a set."""
    return {s for s, p in softcsp.optimal_solutions(problem) if p.payload}


def net_answers(net):
    """Optimal outcomes, eligibility, the boolean solutions of the
    optimality problem, and the final domains of both elimination modes."""
    return (set(cpnet.optimal_outcomes(net)), cpnet.is_eligible(net),
            boolean_solutions(cpnet.optimality_constraints(net)),
            [cpnet.reduce_to_fixpoint(net, mode).domains for mode in ("nbr", "s")])


def ppgame_answers(game):
    """Nash equilibria, and the final strategies of both elimination modes."""
    return (set(pgame.nash_equilibria_pp(game)),
            [pgame.reduce_pp_fixpoint(game, mode).strategies for mode in ("nbr", "s")])


def scsp_answers(problem):
    """The optimal solutions with their preferences."""
    return dict(softcsp.optimal_solutions(problem))


def payoff_answers(game):
    """The Nash and the Pareto sets."""
    return set(pgame.nash_equilibria_payoff(game)), set(pgame.pareto_efficient(game))


def nets():
    for acyclic in (False, True):
        for seed in SEEDS:
            yield seed, oracle.random_cpnet(GeneratorConfig(seed=seed, acyclic=acyclic))


def ppgames():
    for seed in SEEDS:
        yield seed, oracle.random_ppgame(GeneratorConfig(seed=seed, graphical=seed % 2 == 0))


def scsps():
    for carrier in ("weighted", "fuzzy", "boolean"):
        for seed in SEEDS:
            yield seed, oracle.random_scsp(GeneratorConfig(seed=seed, carrier=carrier))


def payoff_games():
    for seed in SEEDS:
        yield seed, oracle.random_payoff_game(GeneratorConfig(seed=seed))


def test_renaming_the_variables_of_a_net():
    for seed, net in nets():
        perm = permutation(seed, len(net.variables))
        moved = CPNet(place(perm, net.variables), place(perm, net.domains),
                      *renamed_tables(perm, net.parents, net.rows))
        optimal, eligible, solutions, finals = net_answers(net)
        assert net_answers(moved) == (
            {place(perm, o) for o in optimal}, eligible,
            {place(perm, s) for s in solutions},
            [place(perm, domains) for domains in finals]), seed


def test_reversing_the_domains_of_a_net():
    for seed, net in nets():
        flipped = CPNet(net.variables, reversed_domains(net.domains), net.parents, net.rows)
        optimal, eligible, solutions, finals = net_answers(net)
        assert net_answers(flipped) == (optimal, eligible, solutions,
                                        list(map(reversed_domains, finals))), seed


def test_renaming_the_players_of_a_ppgame():
    for seed, game in ppgames():
        perm = permutation(seed, len(game.players))
        moved = PPGame(place(perm, game.players), place(perm, game.strategies),
                       *renamed_tables(perm, game.neigh, game.prefs))
        nash, finals = ppgame_answers(game)
        assert ppgame_answers(moved) == (
            {place(perm, s) for s in nash},
            [place(perm, strategies) for strategies in finals]), seed


def test_reversing_the_strategies_of_a_ppgame():
    for seed, game in ppgames():
        flipped = PPGame(game.players, reversed_domains(game.strategies), game.neigh, game.prefs)
        nash, finals = ppgame_answers(game)
        assert ppgame_answers(flipped) == (nash, list(map(reversed_domains, finals))), seed


def test_renaming_the_variables_of_a_soft_csp():
    for seed, problem in scsps():
        perm = permutation(seed, len(problem.variables))
        moved = SoftCSP(place(perm, problem.variables), place(perm, problem.domains), tuple(
            SoftConstraint(*rename(perm, c.scope, c.table)) for c in problem.constraints),
            problem.semiring)
        assert scsp_answers(moved) == {
            place(perm, s): p for s, p in scsp_answers(problem).items()}, seed


def test_reversing_the_domains_of_a_soft_csp():
    for seed, problem in scsps():
        flipped = SoftCSP(problem.variables, reversed_domains(problem.domains),
                          problem.constraints, problem.semiring)
        assert scsp_answers(flipped) == scsp_answers(problem), seed


def test_renaming_the_players_of_a_payoff_game():
    for seed, game in payoff_games():
        n = len(game.players)
        perm = permutation(seed, n)
        # a payoff table's scope is the player's local scope, itself included
        scopes, payoffs = renamed_tables(perm, map(game.local_scope, range(n)), game.payoffs)
        neigh = [tuple(j for j in scope if j != i) for i, scope in enumerate(scopes)]
        moved = PayoffGame(place(perm, game.players), place(perm, game.strategies),
                           tuple(neigh), payoffs, game.carrier)
        nash, pareto = payoff_answers(game)
        assert payoff_answers(moved) == ({place(perm, s) for s in nash},
                                         {place(perm, s) for s in pareto}), seed


def test_reversing_the_strategies_of_a_payoff_game():
    for seed, game in payoff_games():
        flipped = PayoffGame(game.players, reversed_domains(game.strategies), game.neigh,
                             game.payoffs, game.carrier)
        assert payoff_answers(flipped) == payoff_answers(game), seed
