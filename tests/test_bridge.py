from fractions import Fraction

import pytest

from optiform import bridge, cpnet, pgame, semiring, softcsp
from optiform.errors import ValidationError
from tests import referees
from tests.conftest import load


def test_game_of_cpnet_shares_stable_points(acyclic4, cyclic4, cyclic2):
    for net in (acyclic4, cyclic4, cyclic2):
        game = bridge.game_of_cpnet(net)
        assert game.variables == net.variables
        assert game.parents == net.parents
        assert cpnet.optimal_outcomes(game) == cpnet.optimal_outcomes(net)


def test_cpnet_of_game_shares_stable_points(pd_pp):
    net = bridge.cpnet_of_game(pd_pp)
    assert net.parents == ((1,), (0,))
    assert net.rows == pd_pp.rows
    assert cpnet.optimal_outcomes(net) == cpnet.optimal_outcomes(pd_pp)


def test_round_trip_through_full_expansion(pd_pp):
    net = bridge.cpnet_of_game(pd_pp)
    assert bridge.cpnet_of_game(bridge.game_of_cpnet(net)) == net


def test_local_map_fuzzy_nash(fuzzy_chain, fuzzy_flat):
    game = bridge.local_map(fuzzy_chain)
    assert game.carrier == semiring.FUZZY
    assert game.neigh == ((1,), (0, 2), (1,))
    assert pgame.nash_equilibria_payoff(game) == [
        ("a", "a", "a"), ("b", "b", "b")
    ]
    assert [s for s, _ in softcsp.optimal_solutions(fuzzy_chain)] == \
        [("b", "b", "b")]
    # optimal solutions land inside the Nash set, which can be strictly larger
    flat_nash = pgame.nash_equilibria_payoff(bridge.local_map(fuzzy_flat))
    assert flat_nash == [("a", "a", "b"), ("b", "b", "b")]
    best = {s for s, _ in softcsp.optimal_solutions(fuzzy_flat)}
    assert not best <= set(flat_nash)


def test_local_map_payoffs_are_incident_sums(weighted_mixed):
    game = bridge.local_map(weighted_mixed)
    # x is paid by its unary constraint plus the binary one
    assert game.payoff(0, ("a", "b")).payload == Fraction(12)
    assert game.payoff(1, ("a", "b")).payload == Fraction(17)


def test_local_map_rejects_partial_orders():
    pair = semiring.product(semiring.WEIGHTED, semiring.WEIGHTED)
    p = softcsp.SoftCSP(("x",), (("u",),), (), pair)
    with pytest.raises(ValidationError):
        bridge.local_map(p)
    with pytest.raises(ValidationError):
        bridge.global_map(p)


def test_global_map_nash_are_optima(fuzzy_flat):
    game = bridge.global_map(fuzzy_flat)
    assert game.neigh == ((1, 2), (0, 2), (0, 1))
    best = [s for s, _ in softcsp.optimal_solutions(fuzzy_flat)]
    assert pgame.nash_equilibria_payoff(game) == best


def test_scsp_of_game_prisoners_dilemma(pd_payoff):
    p = bridge.scsp_of_game(pd_payoff, offset=10)
    assert p.semiring == semiring.product(semiring.WEIGHTED, semiring.WEIGHTED)
    c1 = p.constraints[0]
    costs = {s: v.payload for s, v in c1.table.items()}
    assert costs == {
        ("c", "c"): (Fraction(7), Fraction(0)),
        ("c", "n"): (Fraction(10), Fraction(0)),
        ("n", "c"): (Fraction(6), Fraction(0)),
        ("n", "n"): (Fraction(9), Fraction(0)),
    }
    # the cost vector of cc, <7,7>, dominates nn's <9,9>, so only nn
    # drops off the frontier
    assert [s for s, _ in softcsp.optimal_solutions(p)] == [
        ("c", "c"), ("c", "n"), ("n", "c")
    ]


def test_scsp_of_game_offset_rules(pd_payoff):
    default = bridge.scsp_of_game(pd_payoff)
    top = default.constraints[0].table[("n", "c")].payload
    assert top == (Fraction(0), Fraction(0))  # offset defaults to max payoff
    with pytest.raises(ValidationError):
        bridge.scsp_of_game(pd_payoff, offset=3)
    carrier_game = bridge.local_map(
        softcsp.SoftCSP(("x",), (("u",),), (), semiring.WEIGHTED)
    )
    with pytest.raises(ValidationError):
        bridge.scsp_of_game(carrier_game)


def test_regret_constraints_select_nash(pd_payoff):
    h = bridge.regret_constraints(pd_payoff)
    assert h.semiring == semiring.BOOLEAN
    assert referees.boolean_solutions(h) == pgame.nash_equilibria_payoff(pd_payoff)


def test_pareto_nash_prisoners_dilemma(pd_payoff):
    result = bridge.pareto_nash(pd_payoff, offset=10)
    assert [(s, p.payload) for s, p in result] == [
        (("n", "n"), (Fraction(9), Fraction(9)))
    ]


def test_pareto_nash_empty_when_no_equilibrium():
    pay = {
        ("h", "h"): (1, 0), ("h", "t"): (0, 1),
        ("t", "h"): (0, 1), ("t", "t"): (1, 0),
    }
    g = pgame.PayoffGame(
        ("p1", "p2"), (("h", "t"), ("h", "t")), ((1,), (0,)),
        (
            {s: Fraction(v[0]) for s, v in pay.items()},
            {s: Fraction(v[1]) for s, v in pay.items()},
        ),
    )
    assert pgame.nash_equilibria_payoff(g) == []
    assert bridge.pareto_nash(g) == []


def test_benchmark_counts_the_cells_of_every_translation():
    """The benchmark's traced runs count the table cells of each of the
    seven translations' results with `bench/spans.py::_cells`, which reads a
    CP-net's cells through `CPNet.tables`: each count must equal the one
    taken from the record's own tables."""
    from bench import spans

    results = []
    for name in ("acyclic4", "cyclic4", "cyclic2", "redundant3"):
        game = bridge.game_of_cpnet(load(name + ".cpnet.json"))
        results.append((game, sum(map(len, game.rows))))
    net = bridge.cpnet_of_game(load("pd.ppgame.json"))
    results.append((net, sum(map(len, net.rows))))
    for name in ("fuzzy_chain", "weighted_mixed"):
        problem = load(name + ".scsp.json")
        for game in (bridge.local_map(problem), bridge.global_map(problem)):
            results.append((game, sum(map(len, game.payoffs))))
    payoff = load("pd.payoffgame.json")
    for problem in (bridge.scsp_of_game(payoff), bridge.regret_constraints(payoff)):
        results.append((problem, sum(len(c.table) for c in problem.constraints)))
    front = bridge.pareto_nash(payoff)
    results.append((front, len(front)))
    for result, cells in results:
        assert cells > 0 and spans._cells(result) == cells, result
