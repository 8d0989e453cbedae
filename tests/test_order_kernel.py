"""The order kernel (`semiring._compile` codes and `semiring.maximal`)
against the nested loops it replaced.

`softcsp.optimal_solutions`, `pgame.pareto_efficient`,
`pgame.nash_equilibria_payoff` and `bridge.pareto_nash` are held to the
definitions of `tests/referees.py`, which compare boxed values with
`semiring.strictly_less` and `PayoffGame.payoff_lt` on every pair; the
kernel's codes and skyline are held to the code order written out here.
Every test requires equal lists in the same order.
"""

import itertools
import random
from optiform.record import replace
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from optiform import bridge, oracle, pgame, semiring, softcsp
from optiform.semiring import BOOLEAN, FUZZY, INF, WEIGHTED, value
from tests import referees

CFG = oracle.GeneratorConfig()


# ------------------------------------------------------------ instances

COSTS = (Fraction(0), Fraction(1, 3), Fraction(2, 7), Fraction(1), Fraction(5, 2), INF)


def random_problem(rng, spec, draw, max_constraints=None):
    """A soft CSP over 1-4 variables of domain 1-3 whose constraint values
    are `draw(rng)` payloads of `spec`."""
    n = rng.randint(1, 4)
    domains = tuple(tuple("v%d" % k for k in range(rng.randint(1, 3))) for _ in range(n))
    constraints = []
    top = n + 1 if max_constraints is None else max_constraints
    for _ in range(rng.randint(0, top)):
        scope = tuple(sorted(rng.sample(range(n), rng.randint(1, min(2, n)))))
        table = {t: value(spec, draw(rng))
                 for t in itertools.product(*(domains[j] for j in scope))}
        constraints.append(softcsp.SoftConstraint(scope, table))
    return softcsp.SoftCSP(tuple("x%d" % i for i in range(n)), domains,
                           tuple(constraints), spec)


def fractional_weighted(rng):
    return random_problem(rng, WEIGHTED, lambda r: r.choice(COSTS))


def all_infinite(rng):
    return random_problem(rng, WEIGHTED, lambda r: INF)


def unconstrained(rng):
    return random_problem(rng, WEIGHTED, lambda r: Fraction(0), max_constraints=0)


NESTED = semiring.product(semiring.product(WEIGHTED, FUZZY), BOOLEAN)


def product_of_products(rng):
    return random_problem(rng, NESTED, lambda r: (
        (r.choice(COSTS), Fraction(r.randint(0, 3), 3)), r.random() < 0.7))


def scaled_payoffs(game):
    """`game` with every plain payoff p replaced by p/7 - 2/3."""
    return pgame.PayoffGame(game.players, game.strategies, game.neigh, tuple(
        {s: p / 7 - Fraction(2, 3) for s, p in t.items()} for t in game.payoffs))


# ---------------------------------------------------------------- tests

def test_optima_match_nested_loops_on_random_scsps():
    for carrier in ("weighted", "fuzzy", "boolean"):
        for seed in range(1, 61):
            problem = oracle.random_scsp(replace(CFG, seed=seed, carrier=carrier))
            assert softcsp.optimal_solutions(problem) == referees.optimal_solutions(problem)


def test_optima_match_nested_loops_on_fractions_and_infinity():
    rng = random.Random(7)
    for make in (fractional_weighted, all_infinite, unconstrained, product_of_products):
        for _ in range(40):
            problem = make(rng)
            assert softcsp.optimal_solutions(problem) == referees.optimal_solutions(problem)
    # the shapes the generators above are meant to reach
    assert softcsp.optimal_solutions(all_infinite(random.Random(1)))[0][1].payload is INF
    assert unconstrained(random.Random(1)).constraints == ()


def test_product_optima_and_pareto_nash_match_nested_loops():
    for seed in range(1, 41):
        game = oracle.random_payoff_game(replace(CFG, seed=seed))
        for g in (game, scaled_payoffs(game)):
            problem = bridge.scsp_of_game(g)
            assert softcsp.optimal_solutions(problem) == referees.optimal_solutions(problem)
            assert bridge.pareto_nash(g) == referees.pareto_nash(g)
            assert bridge.pareto_nash(g, 12) == referees.pareto_nash(g, 12)


def test_payoff_nash_and_pareto_match_nested_loops():
    games = []
    for seed in range(1, 41):
        game = oracle.random_payoff_game(replace(CFG, seed=seed))
        games += [game, scaled_payoffs(game)]
    # carrier-valued payoffs: the local and global games of soft CSPs
    for carrier in ("weighted", "fuzzy", "boolean"):
        for seed in range(1, 17):
            problem = oracle.random_scsp(replace(CFG, seed=seed, carrier=carrier))
            games += [bridge.local_map(problem), bridge.global_map(problem)]
    rng = random.Random(11)
    for _ in range(16):
        problem = fractional_weighted(rng)
        games += [bridge.local_map(problem), bridge.global_map(problem)]
    for game in games:
        assert pgame.nash_equilibria_payoff(game) == referees.nash(game)
        assert pgame.pareto_efficient(game) == referees.pareto(game)


def _code_leq(a, b):
    if isinstance(a, tuple):
        return all(x <= y for x, y in zip(a, b))
    return a <= b


SAMPLES = {
    BOOLEAN: [False, True],
    FUZZY: [Fraction(0), Fraction(1, 3), Fraction(2, 7), Fraction(1, 2), Fraction(1)],
    WEIGHTED: list(COSTS) + [Fraction(7, 3)],
    semiring.product(WEIGHTED, FUZZY): [
        (w, f) for w in (Fraction(0), Fraction(2, 7), INF) for f in (Fraction(0), Fraction(1, 2))],
    NESTED: [((w, f), b) for w in (Fraction(1, 3), INF) for f in (Fraction(0), Fraction(1))
             for b in (False, True)],
}


def test_code_order_is_the_preference_order():
    for spec, payloads in SAMPLES.items():
        sample = [value(spec, p) for p in payloads]
        [coded], _ = semiring._compile(spec, [dict(enumerate(sample))])
        for (i, a), (j, b) in itertools.product(enumerate(sample), repeat=2):
            assert _code_leq(coded[i], coded[j]) == semiring.leq(spec, a, b)
            assert (coded[i] == coded[j]) == (a.payload == b.payload)
    rationals = [Fraction(-3, 2), Fraction(0), Fraction(1, 3), Fraction(2, 7), 4]
    [coded], _ = semiring._compile(None, [dict(enumerate(rationals))])
    for (i, a), (j, b) in itertools.product(enumerate(rationals), repeat=2):
        assert (coded[i] <= coded[j]) == (a <= b)


def test_folded_code_order_is_the_order_of_combinations():
    # three tables drawn from one sample; every choice of one value per table
    for spec, payloads in SAMPLES.items():
        tables = [dict(enumerate(value(spec, p) for p in payloads[k:] + payloads[:k]))
                  for k in range(3)]
        coded, fold = semiring._compile(spec, tables + [{0: semiring.one(spec)}])
        assert fold([]) == coded.pop()[0]
        # each combined value with the code its folds gave; equal values
        # must always fold to equal codes
        codes = {}
        for pick in itertools.product(*(range(len(t)) for t in tables)):
            combined = semiring.combine_all(spec, [t[k] for t, k in zip(tables, pick)])
            code = fold([c[k] for c, k in zip(coded, pick)])
            assert codes.setdefault(combined, code) == code
        for (a, ca), (b, cb) in itertools.product(codes.items(), repeat=2):
            assert _code_leq(ca, cb) == semiring.leq(spec, a, b)


def _nested_maximal(items):
    def less(a, b):
        return _code_leq(a, b) and a != b
    return [x for x, c in items if not any(less(c, d) for _, d in items)]


small_ints = st.integers(min_value=-3, max_value=3)


@settings(max_examples=100, deadline=None)
@given(st.one_of(
    st.lists(small_ints, max_size=30),
    st.integers(min_value=1, max_value=4).flatmap(
        lambda width: st.lists(st.tuples(*[small_ints] * width), max_size=30)),
))
def test_maximal_matches_nested_loops(codes):
    items = list(enumerate(codes))
    assert semiring.maximal(items) == _nested_maximal(items)
    assert semiring.maximal(iter(items)) == _nested_maximal(items)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6), st.sampled_from(
    [fractional_weighted, all_infinite, product_of_products]))
def test_optima_match_nested_loops_on_drawn_problems(seed, make):
    problem = make(random.Random(seed))
    assert softcsp.optimal_solutions(problem) == referees.optimal_solutions(problem)
