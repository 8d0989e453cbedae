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

Three more relations hold on every generator's records, as drawn, renamed
and reversed: a record's document reads back as the record and writes the
same text again, and translating a net to a game and back, or reducing
it, keeps its optimal outcomes.
"""

import itertools
import random

from optiform import bridge, cpnet, oracle, pgame, serialize, softcsp
from optiform.cpnet import CPNet
from optiform.oracle import GeneratorConfig
from optiform.pgame import PayoffGame
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


def renamed(seed, x):
    """`x` with its indices renamed by `permutation(seed, n)`, and the
    permutation."""
    if isinstance(x, CPNet):  # a PPGame too, kept of its class
        perm = permutation(seed, len(x.variables))
        return perm, type(x)(place(perm, x.variables), place(perm, x.domains),
                             *renamed_tables(perm, x.parents, x.rows))
    if isinstance(x, SoftCSP):
        perm = permutation(seed, len(x.variables))
        return perm, SoftCSP(place(perm, x.variables), place(perm, x.domains), tuple(
            SoftConstraint(*rename(perm, c.scope, c.table)) for c in x.constraints), x.semiring)
    n = len(x.players)
    perm = permutation(seed, n)
    # a payoff table's scope is the player's local scope, itself included
    scopes, payoffs = renamed_tables(perm, map(x.local_scope, range(n)), x.payoffs)
    neigh = [tuple(j for j in scope if j != i) for i, scope in enumerate(scopes)]
    return perm, PayoffGame(place(perm, x.players), place(perm, x.strategies),
                            tuple(neigh), payoffs, x.carrier)


def flipped(x):
    """`x` with each domain's declared order reversed."""
    if isinstance(x, CPNet):
        return type(x)(x.variables, reversed_domains(x.domains), x.parents, x.rows)
    if isinstance(x, SoftCSP):
        return SoftCSP(x.variables, reversed_domains(x.domains), x.constraints, x.semiring)
    return PayoffGame(x.players, reversed_domains(x.strategies), x.neigh, x.payoffs, x.carrier)


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
    return (set(cpnet.optimal_outcomes(game)),
            [cpnet.reduce_to_fixpoint(game, mode).domains for mode in ("nbr", "s")])


def scsp_answers(problem):
    """The optimal solutions with their preferences."""
    return dict(softcsp.optimal_solutions(problem))


def payoff_answers(game):
    """The Nash and the Pareto sets."""
    return set(pgame.nash_equilibria_payoff(game)), set(pgame.pareto_efficient(game))


def nets(seeds=SEEDS):
    for acyclic in (False, True):
        for seed in seeds:
            yield seed, oracle.random_cpnet(GeneratorConfig(seed=seed, acyclic=acyclic))


def ppgames(seeds=SEEDS):
    for seed in seeds:
        yield seed, oracle.random_ppgame(GeneratorConfig(seed=seed, graphical=seed % 2 == 0))


def scsps(seeds=SEEDS):
    for carrier in ("weighted", "fuzzy", "boolean"):
        for seed in seeds:
            yield seed, oracle.random_scsp(GeneratorConfig(seed=seed, carrier=carrier))


def payoff_games(seeds=SEEDS):
    for seed in seeds:
        yield seed, oracle.random_payoff_game(GeneratorConfig(seed=seed))


def test_renaming_the_variables_of_a_net():
    for seed, net in nets():
        perm, moved = renamed(seed, net)
        optimal, eligible, solutions, finals = net_answers(net)
        assert net_answers(moved) == (
            {place(perm, o) for o in optimal}, eligible,
            {place(perm, s) for s in solutions},
            [place(perm, domains) for domains in finals]), seed


def test_reversing_the_domains_of_a_net():
    for seed, net in nets():
        optimal, eligible, solutions, finals = net_answers(net)
        assert net_answers(flipped(net)) == (optimal, eligible, solutions,
                                             list(map(reversed_domains, finals))), seed


def test_renaming_the_players_of_a_ppgame():
    for seed, game in ppgames():
        perm, moved = renamed(seed, game)
        nash, finals = ppgame_answers(game)
        assert ppgame_answers(moved) == (
            {place(perm, s) for s in nash},
            [place(perm, strategies) for strategies in finals]), seed


def test_reversing_the_strategies_of_a_ppgame():
    for seed, game in ppgames():
        nash, finals = ppgame_answers(game)
        assert ppgame_answers(flipped(game)) == (nash, list(map(reversed_domains, finals))), seed


def test_renaming_the_variables_of_a_soft_csp():
    for seed, problem in scsps():
        perm, moved = renamed(seed, problem)
        assert scsp_answers(moved) == {
            place(perm, s): p for s, p in scsp_answers(problem).items()}, seed


def test_reversing_the_domains_of_a_soft_csp():
    for seed, problem in scsps():
        assert scsp_answers(flipped(problem)) == scsp_answers(problem), seed


def test_renaming_the_players_of_a_payoff_game():
    for seed, game in payoff_games():
        perm, moved = renamed(seed, game)
        nash, pareto = payoff_answers(game)
        assert payoff_answers(moved) == ({place(perm, s) for s in nash},
                                         {place(perm, s) for s in pareto}), seed


def test_reversing_the_strategies_of_a_payoff_game():
    for seed, game in payoff_games():
        assert payoff_answers(flipped(game)) == payoff_answers(game), seed


# ---------------------------------------------------------------- round trips

ROUND_TRIP_SEEDS = SEEDS[:100]


def variants(seed, x):
    """`x`, renamed and reversed; reversal takes every table off the order
    of its sorted product, in which its document lists its rows."""
    return x, renamed(seed, x)[1], flipped(x)


def every_record(seeds):
    """(seed, record) of every generator, each as drawn, renamed and
    reversed, and graphs."""
    for seed in seeds:
        yield seed, oracle.random_dag(GeneratorConfig(seed=seed))
    for seed, x in itertools.chain(nets(seeds), ppgames(seeds), scsps(seeds),
                                   payoff_games(seeds)):
        for y in variants(seed, x):
            yield seed, y


def test_documents_read_back_and_write_again():
    for seed, x in every_record(ROUND_TRIP_SEEDS):
        text = serialize.dumps(x)
        back = serialize.loads(text)[1]
        assert back == x, seed
        assert serialize.dumps(back) == text, seed


def test_game_and_back_and_reduction_keep_the_optimal_outcomes():
    for seed, x in nets(ROUND_TRIP_SEEDS):
        for net in variants(seed, x):
            optimal = set(cpnet.optimal_outcomes(net))
            back = bridge.cpnet_of_game(bridge.game_of_cpnet(net))
            assert set(cpnet.optimal_outcomes(back)) == optimal, seed
            assert set(cpnet.optimal_outcomes(cpnet.reduce(net))) == optimal, seed
