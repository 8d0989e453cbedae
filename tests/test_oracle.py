"""The oracle's referees against the solvers and `tests/referees.py`, its
generators and theorem checks, and the guards that keep the referees and
the references apart from the solvers they check.
"""

import ast
import collections
import inspect
import math
import pathlib

from optiform.record import replace

import pytest

import optiform
from optiform import bridge, cpnet, oracle, pgame, softcsp
from optiform.errors import ValidationError
from optiform.oracle import GeneratorConfig, Verdict
from tests import referees


CFG = GeneratorConfig()


def test_brute_optimal_matches_flip_definition(acyclic4, cyclic4, cyclic2):
    for net in (acyclic4, cyclic4, cyclic2):
        assert oracle.brute_optimal_outcomes(net) == cpnet.optimal_outcomes(net)


def test_brute_nash_matches_pp(pd_pp):
    """A PPGame's brute Nash equilibria are its brute optimal outcomes."""
    assert oracle.brute_optimal_outcomes(pd_pp) == cpnet.optimal_outcomes(pd_pp)


def test_brute_nash_and_pareto_match_payoff(pd_payoff):
    assert oracle.brute_nash(pd_payoff) == pgame.nash_equilibria_payoff(pd_payoff)
    assert oracle.brute_pareto(pd_payoff) == pgame.pareto_efficient(pd_payoff)


def test_generators_are_deterministic():
    for tid in sorted(oracle.THEOREMS):
        a = oracle.generate_instance(tid, replace(CFG, seed=5))
        b = oracle.generate_instance(tid, replace(CFG, seed=5))
        c = oracle.generate_instance(tid, replace(CFG, seed=6))
        assert a == b
        assert a != c or tid == "tech_adoption"  # tiny graphs may collide


def test_generators_respect_flags():
    net = oracle.random_cpnet(replace(CFG, seed=3, acyclic=True))
    assert cpnet.parent_levels(net.parents)[0]
    problem = oracle.random_scsp(
        replace(CFG, seed=3, carrier="boolean", force_consistent=True)
    )
    assert softcsp.is_consistent(problem)
    game = oracle.random_ppgame(replace(CFG, seed=3, graphical=True, acyclic=True))
    flag, _ = cpnet.essential_levels(game)
    assert flag
    graph = oracle.random_dag(replace(CFG, seed=3))
    order = {n: i for i, n in enumerate(graph.nodes)}
    assert all(order[u] < order[v] for u, v in graph.edges)


def test_skip_gate_for_non_monotonic_carriers():
    fuzzy = oracle.random_scsp(replace(CFG, seed=1, carrier="fuzzy"))
    verdict = oracle.check_theorem("strict_monotone_inclusion", fuzzy)
    assert verdict.ok and verdict.skipped


def test_unknown_theorem_rejected():
    with pytest.raises(ValidationError):
        oracle.check_theorem("nonsense", None)
    with pytest.raises(ValidationError):
        oracle.generate_instance("nonsense", CFG)


def test_checker_detects_planted_defects():
    # a wrong Nash set must be caught by the game/net equivalence check
    net = oracle.random_cpnet(replace(CFG, seed=2))
    good = oracle.check_theorem("net_game_equivalence", net)
    assert isinstance(good, Verdict) and good.ok

    pd = pgame.PPGame(
        ("p1", "p2"), (("C", "N"), ("C", "N")), ((1,), (0,)),
        (
            {("C",): ("N", "C"), ("N",): ("N", "C")},
            {("C",): ("N", "C"), ("N",): ("N", "C")},
        ),
    )
    broken = bridge.cpnet_of_game(pd)
    rows = dict(broken.rows[0])
    rows[("N",)] = ("C", "N")  # plant an inverted row
    bad_net = cpnet.CPNet(broken.variables, broken.domains, broken.parents,
                          (rows,) + broken.rows[1:])
    assert cpnet.optimal_outcomes(bad_net) != cpnet.optimal_outcomes(pd)


def test_run_suite_smoke():
    results = oracle.run_suite("regrets", range(1, 11))
    assert set(results) == set(range(1, 11))
    assert all(v.ok for v in results.values())


def test_run_suite_reproduces_from_seed():
    a = oracle.run_suite("pareto_frontier", [4])
    b = oracle.run_suite("pareto_frontier", [4])
    assert a == b


def test_referees_match_nested_loops():
    games = [oracle.random_payoff_game(replace(CFG, seed=seed)) for seed in range(1, 41)]
    # the local and global games of soft CSPs: small carriers make ties common
    for carrier in ("weighted", "fuzzy", "boolean"):
        for seed in range(1, 17):
            problem = oracle.random_scsp(replace(CFG, seed=seed, carrier=carrier))
            games += [bridge.local_map(problem), bridge.global_map(problem)]
    for game in games:
        assert oracle.brute_nash(game) == referees.nash(game)
        assert oracle.brute_pareto(game) == referees.pareto(game)
    for seed in range(1, 41):
        game = oracle.random_ppgame(replace(CFG, seed=seed, graphical=seed % 2 == 0))
        assert oracle.brute_optimal_outcomes(game) == referees.optimal_outcomes(game)
        net = oracle.random_cpnet(replace(CFG, seed=seed, acyclic=seed % 2 == 0))
        assert oracle.brute_optimal_outcomes(net) == referees.optimal_outcomes(net)


def test_referee_asks_each_order_once(monkeypatch):
    """One check asks `payoff_leq` at most once per player and distinct
    ordered pair of payoffs, and never of two equal payoffs.  Ranking a
    player's payoffs costs a binary insertion each: the j-th distinct payoff
    of the player's table (from 0, in table order) is asked with an earlier
    one at most ceil(log2(j + 1)) times.  Each player's payoffs are shifted
    by 100 per player, so a pair of values names its player."""
    calls = []
    leq = pgame.PayoffGame.payoff_leq

    def counting_leq(game, a, b):
        calls.append((a, b))
        return leq(game, a, b)
    monkeypatch.setattr(pgame.PayoffGame, "payoff_leq", counting_leq)
    asked = 0
    for seed in range(1, 41):
        game = oracle.random_payoff_game(replace(CFG, seed=seed, max_vars=3))
        shifted = tuple({t: p + 100 * i for t, p in table.items()}
                        for i, table in enumerate(game.payoffs))
        game = pgame.PayoffGame(game.players, game.strategies, game.neigh, shifted)
        for theorem in ("pareto_nash", "pareto_frontier"):
            calls.clear()
            assert oracle.check_theorem(theorem, game).ok
            assert len(calls) == len(set(calls)), (seed, theorem)
            assert all(a != b for a, b in calls)
        calls.clear()
        table = oracle._PayoffTable(game)
        oracle.brute_nash(game, table)
        oracle.brute_pareto(game, table)
        assert len(calls) == len(set(calls)), seed
        position = {v: j for payoffs in shifted
                    for j, v in enumerate(dict.fromkeys(payoffs.values()))}
        inserted = collections.Counter(max(pair, key=position.get) for pair in calls)
        assert all(n <= math.ceil(math.log2(position[v] + 1))
                   for v, n in inserted.items()), seed
        asked += len(calls)
    assert asked


def test_oracle_never_calls_the_solvers_it_referees():
    """The referees decide order through the definitions alone: oracle.py
    names neither the exact codes, nor the skyline, nor the Nash and Pareto
    solvers, nor the stable-outcome search of the CP-net and game tables."""
    tree = ast.parse(inspect.getsource(oracle))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not names & {"maximal", "_skyline", "_compile", "_payoff_codes",
                        "nash_equilibria_payoff", "best_replies", "pareto_efficient",
                        "pareto_maximal", "stable_outcomes", "optimal_outcomes",
                        "improving_flips"}


def test_the_enumeration_bound_is_checked_in_one_place():
    """Outside `errors`, `check_space` is named only by the bounded space
    and search of `softcsp` and by the one builder whose size is not one
    product of domain sizes, the technology game.  Every other space is
    enumerated or searched through `softcsp`, so the bound is decided
    there."""
    named = set()
    for path in pathlib.Path(optiform.__file__).parent.glob("*.py"):
        if path.stem == "errors":
            continue
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if "check_space" in (getattr(node, "id", None), getattr(node, "attr", None),
                                     getattr(node, "name", None)):
                    named.add((path.stem, getattr(top, "name", None)))
    assert named == {("softcsp", None), ("softcsp", "space"), ("softcsp", "solutions"),
                     ("pgame", None), ("pgame", "tech_game")}


def test_the_table_read_order_is_decided_in_one_place():
    """`in_product_order` is named only in `softcsp`, so every other module
    reads a table over a product through `softcsp.cells`; and no module
    reads the `tables` view of a CP-net, which only the benchmark reads."""
    named, views = set(), set()
    for path in pathlib.Path(optiform.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if "in_product_order" in (getattr(node, "id", None), getattr(node, "attr", None),
                                      getattr(node, "name", None)):
                named.add(path.stem)
            if isinstance(node, ast.Attribute) and node.attr == "tables":
                views.add(path.stem)
    assert named == {"softcsp"}
    assert views == set()


def test_referees_stay_independent():
    """tests/referees.py reaches no solver, search or oracle referee through
    a module attribute or an import, so it can stand as the reference of
    each of them."""
    tree = ast.parse(inspect.getsource(referees))
    names = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) for a in n.names}
    forbidden = {"maximal", "_compile", "optimal_solutions", "optimal_outcomes", "solutions",
                 "stable_outcomes", "pareto_efficient", "pareto_maximal", "best_replies",
                 "_unbeaten", "_unflipped", "_PayoffTable", "unused_parents",
                 "essential_levels", "dominates", "ordering_query"}
    assert not {name for name in names
                if name in forbidden or name.startswith(("nash_equilibria_", "brute_"))}
