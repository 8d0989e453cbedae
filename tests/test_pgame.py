from fractions import Fraction

import pytest

from optiform import cpnet, pgame, semiring
from optiform.errors import CarrierMismatchError, ValidationError
from optiform.pgame import DirectedGraph, PPGame, PayoffGame


def matching_pennies():
    orders = {
        ("h",): ("h", "t"),
        ("t",): ("t", "h"),
    }
    mismatch = {
        ("h",): ("t", "h"),
        ("t",): ("h", "t"),
    }
    return PPGame(
        ("p1", "p2"), (("h", "t"), ("h", "t")), ((1,), (0,)),
        (orders, mismatch),
    )


def test_nash_pp_prisoners_dilemma(pd_pp):
    assert pgame.nash_equilibria_pp(pd_pp) == [("N1", "N2")]


def test_nash_pp_can_be_empty_or_multiple():
    assert pgame.nash_equilibria_pp(matching_pennies()) == []
    cyc = pgame.tech_game(
        DirectedGraph(("n0", "n1"), (("n0", "n1"), ("n1", "n0"))), 2
    )
    assert pgame.nash_equilibria_pp(cyc) == [("t1", "t1"), ("t2", "t2")]


def test_best_response_and_dominance(pd_pp):
    assert pd_pp.prefs[0][("C2",)][0] == "N1"
    assert cpnet.never_best(pd_pp.strategies[0], pd_pp.prefs[0]) == {"C1"}
    assert cpnet.dominated(pd_pp.strategies[0], pd_pp.prefs[0]) == {"C1"}
    mp = matching_pennies()
    assert cpnet.never_best(mp.strategies[0], mp.prefs[0]) == set()
    assert cpnet.dominated(mp.strategies[0], mp.prefs[0]) == set()


def test_reduction_rounds(pd_pp):
    trace = []
    fixed = pgame.reduce_pp_fixpoint(pd_pp, "s", trace)
    assert trace == [[["C1"], ["C2"]]]
    assert fixed.strategies == (("N1",), ("N2",))
    assert pgame.reduce_pp_fixpoint(fixed, "s") is fixed
    assert pgame.reduce_pp_fixpoint(pd_pp, "nbr").strategies == fixed.strategies
    with pytest.raises(ValidationError):
        pgame.reduce_pp_fixpoint(pd_pp, "weak")


def test_subgame_rejects_empty():
    game = matching_pennies()
    with pytest.raises(ValidationError, match="empties the domain of p1"):
        cpnet.restrict(game.players, game.neigh, game.prefs, ((), ("h", "t")))


def test_expand_full_round_trips(pd_pp):
    full = pgame.expand_full(pd_pp)
    assert full.neigh == ((1,), (0,))
    assert full.prefs == pd_pp.prefs
    assert pgame.nash_equilibria_pp(full) == pgame.nash_equilibria_pp(pd_pp)


def test_hierarchical(pd_pp):
    # constant preferences make both players level 0
    flag, levels = pgame.is_hierarchical(pd_pp)
    assert flag and levels == {0: 0, 1: 0}
    flag, levels = pgame.is_hierarchical(matching_pennies())
    assert not flag and levels is None


def payoff_vector(game, s):
    return tuple(game.payoff(i, s) for i in range(len(game.players)))


def pareto_less(game, a, b):
    """Componentwise strict Pareto order on payoff vectors."""
    return all(game.payoff_leq(x, y) for x, y in zip(a, b)) and any(
        game.payoff_lt(x, y) for x, y in zip(a, b)
    )


def test_nash_payoff_prisoners_dilemma(pd_payoff):
    assert pgame.nash_equilibria_payoff(pd_payoff) == [("n", "n")]
    assert payoff_vector(pd_payoff, ("n", "n")) == (Fraction(1), Fraction(1))


def test_pareto_efficient(pd_payoff):
    assert pgame.pareto_efficient(pd_payoff) == [
        ("c", "c"), ("c", "n"), ("n", "c")
    ]
    v_nn = payoff_vector(pd_payoff, ("n", "n"))
    v_cc = payoff_vector(pd_payoff, ("c", "c"))
    assert pareto_less(pd_payoff, v_nn, v_cc)
    assert not pareto_less(pd_payoff, v_cc, v_cc)


def test_weak_nash_keeps_ties():
    pay = {
        ("u", "u"): (1, 1), ("u", "v"): (1, 0),
        ("v", "u"): (1, 0), ("v", "v"): (1, 1),
    }
    g = PayoffGame(
        ("p1", "p2"), (("u", "v"), ("u", "v")), ((1,), (0,)),
        (
            {s: Fraction(v[0]) for s, v in pay.items()},
            {s: Fraction(v[1]) for s, v in pay.items()},
        ),
    )
    # p1 is indifferent everywhere, so only p2's coordination binds
    assert pgame.nash_equilibria_payoff(g) == [("u", "u"), ("v", "v")]


def test_payoffs_must_belong_to_the_carrier():
    fuzzy, weighted = semiring.FUZZY, semiring.WEIGHTED
    half = semiring.value(fuzzy, Fraction(1, 2))
    one_strategy = (("p",), (("x",),), ((),))
    two_players = (("p", "q"), (("x", "y"), ("u",)), ((), ()))

    def payoffs(v):
        return ({("x",): v, ("y",): semiring.value(weighted, 1)}, {("u",): v})

    for bad in (half, Fraction(1, 2), None):
        # a foreign payoff fails at construction, before any solver reads it
        with pytest.raises(CarrierMismatchError):
            PayoffGame(*one_strategy, ({("x",): bad},), weighted)
        with pytest.raises(CarrierMismatchError):
            PayoffGame(*two_players, payoffs(bad), weighted)
    g = PayoffGame(*two_players, payoffs(semiring.value(weighted, 0)), weighted)
    assert pgame.nash_equilibria_payoff(g) == [("x", "u")]
    assert PayoffGame(*one_strategy, ({("x",): half},), fuzzy).carrier == fuzzy
    # an equal spec that is another object is the same carrier
    assert PayoffGame(*one_strategy, ({("x",): half},), semiring.SemiringSpec("fuzzy"))


def test_tech_game_prefers_majority_then_index(cycle3):
    g = pgame.tech_game(cycle3, 3)
    assert g.strategies[0] == ("t1", "t2", "t3")
    # single in-neighbour: copy it, remaining techs by index
    assert g.prefs[0][("t2",)] == ("t2", "t1", "t3")
    assert pgame.nash_equilibria_pp(g) == [
        ("t1", "t1", "t1"), ("t2", "t2", "t2"), ("t3", "t3", "t3")
    ]
    with pytest.raises(ValidationError):
        pgame.tech_game(cycle3, 0)


def test_tech_game_tie_break(diamond):
    g = pgame.tech_game(diamond, 2)
    i = list(diamond.nodes).index("n3")
    assert g.neigh[i] == (1, 2)
    assert g.prefs[i][("t1", "t2")] == ("t1", "t2")
    assert g.prefs[i][("t2", "t2")] == ("t2", "t1")


def with_levels(graph, levels):
    """The graph with the levels of a node -> level dict."""
    return DirectedGraph(graph.nodes, graph.edges, tuple(map(levels.get, graph.nodes)))


def test_well_structured(cycle3, diamond):
    ok, levels = pgame.is_well_structured(diamond)
    assert ok
    assert pgame.is_well_structured(with_levels(diamond, levels)) == (True, levels)
    assert levels["n0"] < levels["n1"] and levels["n1"] < levels["n3"]

    ok, levels = pgame.is_well_structured(cycle3)
    assert not ok and levels is None
    flat = {n: 0 for n in cycle3.nodes}
    assert pgame.is_well_structured(with_levels(cycle3, flat)) == (False, flat)
    for levels in ((0,), (0, 0, "0"), [0, 0, 0]):
        with pytest.raises(ValidationError):
            DirectedGraph(cycle3.nodes, cycle3.edges, levels)


def test_two_cycle_is_not_well_structured():
    g = DirectedGraph(("u", "v"), (("u", "v"), ("v", "u")))
    ok, _ = pgame.is_well_structured(g)
    assert not ok


def test_ppgame_validation():
    with pytest.raises(ValidationError):
        PPGame(("p1",), (("u", "v"),), ((),), ({(): ("u",)},))
    with pytest.raises(ValidationError):
        DirectedGraph(("a", "a"), ())
    with pytest.raises(ValidationError, match=r"edge \(c, b\) is given twice"):
        DirectedGraph(("a", "b", "c"), (("a", "b"), ("c", "b"), ("c", "b"), ("b", "c")))
