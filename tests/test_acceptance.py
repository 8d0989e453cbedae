"""End-to-end acceptance gate: golden values plus the theorem suites.

Each numbered test pins one externally agreed behaviour, with its timing
bound checked inside the test.  The theorem suites (criterion 7) share a
wall-clock budget asserted by the final rollup test.
"""

import time
from optiform.record import replace
from fractions import Fraction

import pytest

from optiform import bridge, cpnet, oracle, pgame, semiring, softcsp
from optiform.oracle import GeneratorConfig
from tests.conftest import load


SEEDS = range(1, 101)

_suite_clock = {}


def timed(bound):
    class _Timer:
        def __enter__(self):
            self.start = time.monotonic()
            return self

        def __exit__(self, *exc):
            if exc[0] is None:
                assert time.monotonic() - self.start < bound
            return False

    return _Timer()


# 1 ---------------------------------------------------------------------------

def test_criterion_1_fuzzy_unique_optimum():
    with timed(1.0):
        problem = load("fuzzy_chain.scsp.json")
        assert softcsp.optimal_solutions(problem) == [
            (("b", "b", "b"), semiring.value(semiring.FUZZY, Fraction(1, 2)))
        ]


# 2 ---------------------------------------------------------------------------

def test_criterion_2_fuzzy_nash_sets():
    with timed(1.0):
        chain = load("fuzzy_chain.scsp.json")
        assert pgame.nash_equilibria_payoff(bridge.local_map(chain)) == [
            ("a", "a", "a"), ("b", "b", "b")
        ]
        flat = load("fuzzy_flat.scsp.json")
        assert [s for s, _ in softcsp.optimal_solutions(flat)] == [
            ("a", "a", "b"), ("a", "b", "b"), ("b", "a", "b"), ("b", "b", "b")
        ]
        assert pgame.nash_equilibria_payoff(bridge.local_map(flat)) == [
            ("a", "a", "b"), ("b", "b", "b")
        ]


# 3 ---------------------------------------------------------------------------

def test_criterion_3_weighted_examples():
    with timed(1.0):
        pair = load("weighted_pair.scsp.json")
        assert pgame.nash_equilibria_payoff(bridge.local_map(pair)) == [
            ("a", "a"), ("b", "b")
        ]
        assert [s for s, _ in softcsp.optimal_solutions(pair)] == [("b", "b")]

        mixed = load("weighted_mixed.scsp.json")
        game = bridge.local_map(mixed)
        nash = set(pgame.nash_equilibria_payoff(game))
        pareto = set(pgame.pareto_efficient(game))
        assert nash & pareto == {("a", "a"), ("b", "b")}
        assert [s for s, _ in softcsp.optimal_solutions(mixed)] == [("a", "a")]


# 4 ---------------------------------------------------------------------------

def test_criterion_4_classical_csp():
    with timed(1.0):
        problem = load("classical_unsat.scsp.json")
        baa = ("b", "a", "a")
        assert softcsp.solution_preference(problem, baa).payload is False
        assert baa in {s for s, _ in softcsp.optimal_solutions(problem)}
        assert baa not in pgame.nash_equilibria_payoff(bridge.local_map(problem))


# 5 ---------------------------------------------------------------------------

def test_criterion_5_cpnet_goldens():
    with timed(1.0):
        acyclic = load("acyclic4.cpnet.json")
        assert cpnet.sweep_optimal(acyclic) == ("a", "b", "c", "d")
        assert oracle.brute_optimal_outcomes(acyclic) == [("a", "b", "c", "d")]
    with timed(1.0):
        cyclic = load("cyclic4.cpnet.json")
        trace = []
        final = cpnet.reduce_to_fixpoint(cyclic, "s", trace)
        assert trace == [
            [["a~"], [], [], []],
            [[], ["b~"], [], []],
            [[], [], ["c~"], []],
            [[], [], [], ["d~"]],
        ]
        assert final.domains == (("a",), ("b",), ("c",), ("d",))
    with timed(1.0):
        two = load("cyclic2.cpnet.json")
        assert not cpnet.is_eligible(two)
        assert cpnet.optimal_outcomes(two) == []


# 6 ---------------------------------------------------------------------------

def test_criterion_6_prisoners_dilemma_pipeline():
    with timed(1.0):
        game = load("pd.payoffgame.json")
        assert pgame.nash_equilibria_payoff(game) == [("n", "n")]
        assert pgame.pareto_efficient(game) == [
            ("c", "c"), ("c", "n"), ("n", "c")
        ]
        lprime = bridge.scsp_of_game(game, offset=10)
        tuples = {
            (i, s): v.payload
            for i, c in enumerate(lprime.constraints)
            for s, v in c.table.items()
        }
        f = Fraction
        assert tuples == {
            (0, ("c", "c")): (f(7), f(0)),
            (0, ("c", "n")): (f(10), f(0)),
            (0, ("n", "c")): (f(6), f(0)),
            (0, ("n", "n")): (f(9), f(0)),
            (1, ("c", "c")): (f(0), f(7)),
            (1, ("c", "n")): (f(0), f(6)),
            (1, ("n", "c")): (f(0), f(10)),
            (1, ("n", "n")): (f(0), f(9)),
        }
        assert [
            (s, p.payload) for s, p in bridge.pareto_nash(game, offset=10)
        ] == [(("n", "n"), (f(9), f(9)))]


# 7 ---------------------------------------------------------------------------

@pytest.mark.parametrize("theorem", sorted(oracle.THEOREMS))
def test_criterion_7_theorem_suites(theorem):
    start = time.monotonic()
    results = oracle.run_suite(theorem, SEEDS)
    _suite_clock[theorem] = time.monotonic() - start
    failures = {s: v.detail for s, v in results.items() if not v.ok}
    assert failures == {}, "seeds failing %s: %r" % (theorem, failures)


def test_criterion_7_total_time():
    assert len(_suite_clock) == len(oracle.THEOREMS)
    assert sum(_suite_clock.values()) < 60.0


# 8 ---------------------------------------------------------------------------

def test_criterion_8_technology_diffusion():
    with timed(10.0):
        cfg = GeneratorConfig()
        for seed in SEEDS:
            graph = oracle.random_dag(replace(cfg, seed=seed), max_nodes=10)
            k = 1 + seed % 3
            final = pgame.reduce_pp_fixpoint(pgame.tech_game(graph, k), "nbr")
            assert all(s == ("t1",) for s in final.strategies), seed
        ok, levels = pgame.is_well_structured(load("cycle3.graph.json"))
        assert not ok and levels is None


# 9 ---------------------------------------------------------------------------

def test_criterion_9_negative_controls():
    with timed(1.0):
        chain = load("fuzzy_chain.scsp.json")
        nash = set(pgame.nash_equilibria_payoff(bridge.local_map(chain)))
        best = {s for s, _ in softcsp.optimal_solutions(chain)}
        # a Nash equilibrium that is not optimal
        assert ("a", "a", "a") in nash - best
        assert not nash <= best

        flat = load("fuzzy_flat.scsp.json")
        nash = set(pgame.nash_equilibria_payoff(bridge.local_map(flat)))
        best = {s for s, _ in softcsp.optimal_solutions(flat)}
        # an optimal solution that is not a Nash equilibrium
        assert ("a", "b", "b") in best - nash
        assert not best <= nash
