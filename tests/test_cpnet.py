import pytest

from optiform import cpnet, oracle, softcsp
from optiform.cpnet import BUDGET_EXHAUSTED, CPNet, CPTable
from optiform.errors import ValidationError
from optiform.oracle import GeneratorConfig


def two_var_cycle():
    # Each variable wants to copy the other; (a,b) and (a~,b~) are both stable.
    a, a_, b, b_ = "a", "a~", "b", "b~"
    return CPNet(
        ("A", "B"),
        ((a, a_), (b, b_)),
        (
            CPTable(0, (1,), {(b,): (a, a_), (b_,): (a_, a)}),
            CPTable(1, (0,), {(a,): (b, b_), (a_,): (b_, b)}),
        ),
    )


def test_structure_queries(acyclic4, cyclic4):
    assert cpnet.parent_levels(acyclic4.parents) == (True, {0: 0, 1: 0, 2: 1, 3: 2})
    assert cyclic4.parents == ((3,), (0,), (1,), (2,))
    assert cpnet.parent_levels(cyclic4.parents) == (False, None)


def test_flips(acyclic4):
    worst = ("a~", "b~", "c~", "d")
    # A and B are unconditional (a over a~, b over b~); with parents a~,b~
    # the C row prefers c, and with c~ the D row prefers d~ over the current d.
    assert set(cpnet.improving_flips(acyclic4, worst)) == {
        (0, "a"), (1, "b"), (2, "c"), (3, "d~")
    }
    # the worsening flips from an outcome are the improving flips into it
    def worse(o):
        return {p for p, q in cpnet.flip_edges(acyclic4) if q == o}
    assert worse(worst) == set()
    assert worse(("a", "b", "c", "d")) == {
        ("a~", "b", "c", "d"), ("a", "b~", "c", "d"), ("a", "b", "c~", "d"), ("a", "b", "c", "d~")
    }


def test_optimal_outcomes_match_sweep(acyclic4):
    best = cpnet.sweep_optimal(acyclic4)
    assert best == ("a", "b", "c", "d")
    assert cpnet.optimal_outcomes(acyclic4) == [best]
    assert cpnet.improving_flips(acyclic4, best) == []
    assert cpnet.improving_flips(acyclic4, ("a~", "b", "c", "d")) == [(0, "a"), (2, "c~")]


def test_sweep_rejects_cycles(cyclic4):
    with pytest.raises(ValidationError):
        cpnet.sweep_optimal(cyclic4)


def test_cyclic_net_can_have_several_optima():
    net = two_var_cycle()
    assert cpnet.optimal_outcomes(net) == [("a", "b"), ("a~", "b~")]


def test_optimality_constraints_capture_optima(acyclic4, cyclic4):
    for net in (acyclic4, cyclic4, two_var_cycle()):
        problem = cpnet.optimality_constraints(net)
        sols = [
            s for s, p in zip(problem.assignments(),
                              (softcsp.solution_preference(problem, s)
                               for s in problem.assignments()))
        ]
        good = [
            s for s in net.outcomes()
            if softcsp.solution_preference(problem, s).payload
        ]
        assert good == cpnet.optimal_outcomes(net)


def test_eligibility(acyclic4, cyclic2):
    assert cpnet.is_eligible(acyclic4)
    assert cpnet.is_eligible(two_var_cycle())
    # cyclic2 wants to differ from B while B copies A: no stable outcome
    assert cpnet.optimal_outcomes(cyclic2) == []
    assert not cpnet.is_eligible(cyclic2)


def test_dominance(acyclic4):
    best = ("a", "b", "c", "d")
    worst = ("a~", "b~", "c", "d")
    assert cpnet.dominates(acyclic4, best, worst) is True
    assert cpnet.dominates(acyclic4, worst, best) is False
    assert cpnet.dominates(acyclic4, best, best) is False
    assert cpnet.dominates(acyclic4, best, worst, budget=1) == BUDGET_EXHAUSTED


def test_dominance_detects_flip_cycles(cyclic2):
    # cyclic2's flip relation cycles through all four outcomes, so every
    # outcome dominates every outcome, including itself.
    outs = list(cyclic2.outcomes())
    for alpha in outs:
        for beta in outs:
            assert cpnet.dominates(cyclic2, alpha, beta) is True


def test_redundant_parent_removal(redundant3):
    assert cpnet.unused_parents(redundant3.domains, redundant3.parents[2],
                                redundant3.rows[2]) == {0, 1}
    reduced = cpnet.reduce(redundant3)
    assert cpnet.reduce(reduced) is reduced
    assert reduced.tables[2].parents == ()
    assert reduced.tables[2].rows == {(): ("c1", "c2")}
    # reduction preserves the flip relation, hence the optima
    assert cpnet.optimal_outcomes(reduced) == cpnet.optimal_outcomes(redundant3)
    assert cpnet.flip_edges(reduced) == cpnet.flip_edges(redundant3)


def test_reduce_keeps_needed_parents(acyclic4):
    assert cpnet.reduce(acyclic4) is acyclic4


def test_nbr_and_dominated_elements(cyclic4):
    # A's two rows both rank a first, so a~ tops no row.
    for mode in ("nbr", "s"):
        assert cpnet.removable_values(cyclic4.domains, cyclic4.rows, mode) == [
            {"a~"}, set(), set(), set()]


def test_elimination_chain(cyclic4):
    trace = []
    fixed = cpnet.reduce_to_fixpoint(cyclic4, "s", trace)
    assert trace == [
        [["a~"], [], [], []],
        [[], ["b~"], [], []],
        [[], [], ["c~"], []],
        [[], [], [], ["d~"]],
    ]
    assert fixed.domains == (("a",), ("b",), ("c",), ("d",))
    assert cpnet.optimal_outcomes(fixed) == [("a", "b", "c", "d")]

    nbr_fixed = cpnet.reduce_to_fixpoint(cyclic4, "nbr")
    assert nbr_fixed.domains == fixed.domains
    with pytest.raises(ValidationError):
        cpnet.reduce_to_fixpoint(cyclic4, "both")


def test_eliminate_rejects_emptying():
    net = two_var_cycle()
    keep = cpnet.without(net.domains, [{"a", "a~"}, set()])
    with pytest.raises(ValidationError, match="empties the domain of A"):
        cpnet.restrict(net.variables, net.parents, net.rows, keep)


def test_validation():
    a, a_ = "a", "a~"
    with pytest.raises(ValidationError):
        # row order must be a strict total order of the domain
        CPNet(
            ("A",), ((a, a_),),
            (CPTable(0, (), {(): (a, a)}),),
        )
    with pytest.raises(ValidationError):
        # missing row for a parent assignment
        CPNet(
            ("A", "B"), ((a, a_), ("b", "b~")),
            (
                CPTable(0, (), {(): (a, a_)}),
                CPTable(1, (0,), {(a,): ("b", "b~")}),
            ),
        )
    # every row's order is checked, the first bad one in row order reported
    b = ("b", "b~", "b+")
    rows = {("a",): b, ("a~",): ("b", "b"), ("a+",): b, ("a-",): ("b~",)}
    with pytest.raises(ValidationError, match=r"\('b', 'b'\) is not a strict"):
        CPNet(("A", "B"), (("a", "a~", "a+", "a-"), b),
              (CPTable(0, (), {(): ("a", "a~", "a+", "a-")}), CPTable(1, (0,), rows)))


def test_eligibility_matches_consistency_of_optimality_constraints():
    seen = set()
    for acyclic in (False, True):
        for seed in range(1, 1001):
            net = oracle.random_cpnet(GeneratorConfig(seed=seed, acyclic=acyclic))
            eligible = cpnet.is_eligible(net)
            assert eligible == softcsp.is_consistent(cpnet.optimality_constraints(net))
            seen.add(eligible)
    assert seen == {True, False}
