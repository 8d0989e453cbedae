from fractions import Fraction

import pytest

from optiform import semiring, softcsp
from optiform.errors import (
    CarrierMismatchError,
    EnumerationLimitError,
    ValidationError,
)
from optiform.semiring import BOOLEAN, FUZZY, WEIGHTED, value


def unary(spec, index, pairs):
    return softcsp.SoftConstraint(
        (index,), {(k,): value(spec, v) for k, v in pairs.items()}
    )


def test_solution_preference_fuzzy(fuzzy_chain):
    assert softcsp.solution_preference(fuzzy_chain, ("b", "b", "b")).payload \
        == Fraction(1, 2)
    assert softcsp.solution_preference(fuzzy_chain, ("a", "b", "a")).payload \
        == Fraction(1, 10)


def test_optimal_solutions_fuzzy(fuzzy_chain):
    assert softcsp.optimal_solutions(fuzzy_chain) == [
        (("b", "b", "b"), value(FUZZY, Fraction(1, 2)))
    ]


def test_optimal_solutions_fuzzy_ties(fuzzy_flat):
    best = softcsp.optimal_solutions(fuzzy_flat)
    assert [s for s, _ in best] == [
        ("a", "a", "b"), ("a", "b", "b"), ("b", "a", "b"), ("b", "b", "b")
    ]
    assert all(p.payload == Fraction(1, 5) for _, p in best)


def test_optimal_solutions_weighted(weighted_mixed):
    assert softcsp.optimal_solutions(weighted_mixed) == [
        (("a", "a"), value(WEIGHTED, 6))
    ]


def test_product_carrier_keeps_pareto_frontier():
    pair = semiring.product(WEIGHTED, WEIGHTED)
    dom = ("u", "v")
    table = {
        ("u",): value(pair, (1, 5)),
        ("v",): value(pair, (3, 2)),
    }
    p = softcsp.SoftCSP(
        ("x",), (dom,), (softcsp.SoftConstraint((0,), table),), pair
    )
    best = softcsp.optimal_solutions(p)
    assert [s for s, _ in best] == [("u",), ("v",)]


def test_empty_problem_is_top():
    p = softcsp.SoftCSP(("x",), (("u",),), (), WEIGHTED)
    assert softcsp.solution_preference(p, ("u",)).payload == Fraction(0)


def test_consistency(classical_unsat):
    assert not softcsp.is_consistent(classical_unsat)
    dom = ("u", "v")
    ok = softcsp.SoftCSP(
        ("x",), (dom,),
        (unary(BOOLEAN, 0, {"u": True, "v": False}),),
        BOOLEAN,
    )
    assert softcsp.is_consistent(ok)
    with pytest.raises(ValidationError):
        softcsp.is_consistent(softcsp.SoftCSP(("x",), (dom,), (), WEIGHTED))


def test_validation_rejects_partial_table():
    dom = ("u", "v")
    with pytest.raises(ValidationError):
        softcsp.SoftCSP(
            ("x",), (dom,),
            (softcsp.SoftConstraint((0,), {("u",): value(WEIGHTED, 1)}),),
            WEIGHTED,
        )


def test_validation_rejects_foreign_carrier_value():
    dom = ("u",)
    with pytest.raises(CarrierMismatchError):
        softcsp.SoftCSP(
            ("x",), (dom,),
            (softcsp.SoftConstraint((0,), {("u",): value(FUZZY, 1)}),),
            WEIGHTED,
        )


def test_validation_rejects_bad_scope_index():
    with pytest.raises(ValidationError):
        softcsp.SoftCSP(
            ("x",), (("u",),),
            (softcsp.SoftConstraint((3,), {("u",): value(WEIGHTED, 1)}),),
            WEIGHTED,
        )


def test_lift_boolean_into_weighted(classical_unsat):
    lifted = softcsp.lift_boolean(classical_unsat, WEIGHTED)
    assert lifted.semiring == WEIGHTED
    vals = {v.payload for c in lifted.constraints for v in c.table.values()}
    assert vals == {Fraction(0), semiring.INF}
    with pytest.raises(ValidationError, match="^only boolean problems can be lifted$"):
        softcsp.lift_boolean(lifted, FUZZY)


def test_join_concatenates_and_lifts(weighted_mixed, classical_unsat):
    j = softcsp.join(weighted_mixed, weighted_mixed)
    assert len(j.constraints) == 6
    assert softcsp.optimal_solutions(j) == [(("a", "a"), value(WEIGHTED, 12))]

    dom = ("a", "b")
    ban_b = softcsp.SoftCSP(
        weighted_mixed.variables,
        weighted_mixed.domains,
        (unary(BOOLEAN, 0, {"a": True, "b": False}),),
        BOOLEAN,
    )
    j2 = softcsp.join(weighted_mixed, ban_b)
    assert j2.semiring == WEIGHTED
    assert softcsp.solution_preference(j2, ("b", "a")).payload is semiring.INF

    with pytest.raises(ValidationError):
        softcsp.join(weighted_mixed, classical_unsat)


def test_enumeration_limit(monkeypatch):
    monkeypatch.setenv("OPTIFORM_MAX_SPACE", "8")
    dom = tuple("uvw")
    p = softcsp.SoftCSP(("x", "y"), (dom, dom), (), WEIGHTED)
    with pytest.raises(EnumerationLimitError):
        softcsp.optimal_solutions(p)
