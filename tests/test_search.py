"""The backtracking search `softcsp.solutions` and the queries built on it,
against a filtered `itertools.product` and the oracle's brute referees.

Every comparison requires equal lists in the same order.
"""

import itertools
from optiform.record import replace

from hypothesis import example, given, settings, strategies as st

from optiform import cpnet, oracle, pgame, semiring, softcsp

CFG = oracle.GeneratorConfig()
SEEDS = range(1, 61)


def filtered_product(domains, constraints):
    return [
        s for s in itertools.product(*domains)
        if all(tuple(s[i] for i in scope) in allowed for scope, allowed in constraints)
    ]


@st.composite
def instances(draw):
    """Up to four indices with one to three values each, in drawn orders, and
    up to four constraints over drawn scopes (unsorted, possibly empty)."""
    sizes = draw(st.lists(st.integers(1, 3), max_size=4))
    domains = tuple(tuple(draw(st.permutations(range(k)))) for k in sizes)
    constraints = []
    for _ in range(draw(st.integers(0, 4))):
        scope = tuple(draw(st.lists(st.integers(0, len(domains) - 1), max_size=3, unique=True))
                      if domains else ())
        tuples = list(itertools.product(*(domains[i] for i in scope)))
        allowed = set(draw(st.lists(st.sampled_from(tuples), max_size=len(tuples))))
        constraints.append((scope, allowed))
    return domains, constraints


@settings(max_examples=300, deadline=None)
@given(instances())
@example(((), []))  # zero variables: the one empty assignment
@example(((), [((), {()})]))  # an empty scope that allows ()
@example(((), [((), set())]))  # an empty scope that forbids ()
@example((((0, 1),), [((), set())]))  # the same, over one variable
@example(((("a",),), []))  # a one-value domain
@example((((0, 1), (1, 0)), [((1,), set())]))  # an unsatisfiable unary constraint
def test_solutions_are_the_filtered_product(instance):
    domains, constraints = instance
    assert list(softcsp.solutions(domains, constraints)) == filtered_product(
        domains, constraints)


def test_optima_and_eligibility_match_the_oracle():
    found = set()
    for acyclic in (True, False):
        for seed in SEEDS:
            net = oracle.random_cpnet(replace(CFG, seed=seed, acyclic=acyclic))
            brute = oracle.brute_optimal_outcomes(net)
            assert cpnet.optimal_outcomes(net) == brute
            assert cpnet.is_eligible(net) == bool(brute)
            found.add(len(brute))
    assert {0, 1} < found  # ineligible nets and several optima both occur


def weighted_payoffs(game):
    """`game` with every plain payoff p read as the weighted cost p, so that
    a lower payoff is a better one."""
    return pgame.PayoffGame(game.players, game.strategies, game.neigh, tuple(
        {s: semiring.value(semiring.WEIGHTED, p) for s, p in t.items()}
        for t in game.payoffs), semiring.WEIGHTED)


def test_equilibria_match_the_oracle():
    found = set()
    for seed in SEEDS:
        for graphical in (True, False):
            game = oracle.random_ppgame(replace(CFG, seed=seed, graphical=graphical))
            brute = oracle.brute_nash(game)
            assert pgame.nash_equilibria_pp(game) == brute
            found.add(len(brute))
        plain = oracle.random_payoff_game(replace(CFG, seed=seed))
        for game in (plain, weighted_payoffs(plain)):
            brute = oracle.brute_nash(game)
            assert pgame.nash_equilibria_payoff(game) == brute
            found.add(len(brute))
    assert {0, 1, 2} < found


def test_consistency_matches_the_definition():
    seen = set()
    for force in (False, True):
        for seed in SEEDS:
            problem = oracle.random_scsp(
                replace(CFG, seed=seed, carrier="boolean", force_consistent=force))
            literal = any(
                all(c.table[tuple(s[i] for i in c.scope)].payload for c in problem.constraints)
                for s in itertools.product(*problem.domains)
            )
            assert softcsp.is_consistent(problem) == literal
            seen.add(literal)
    assert seen == {False, True}
