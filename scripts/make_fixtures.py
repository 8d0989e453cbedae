#!/usr/bin/env python3
"""Regenerate the canonical instance fixtures under fixtures/."""

import itertools
import pathlib
from fractions import Fraction

from optiform import cpnet, pgame, semiring, serialize, softcsp

ROOT = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


def fuzzy_scsp(cxy, cyz):
    spec = semiring.FUZZY
    dom = ("a", "b")
    def table(vals):
        return {
            t: semiring.value(spec, v)
            for t, v in zip(itertools.product(dom, dom), vals)
        }
    return softcsp.SoftCSP(
        ("x", "y", "z"),
        (dom, dom, dom),
        (
            softcsp.SoftConstraint((0, 1), table(cxy)),
            softcsp.SoftConstraint((1, 2), table(cyz)),
        ),
        spec,
    )


def weighted_one_constraint():
    spec = semiring.WEIGHTED
    dom = ("a", "b")
    table = {
        ("a", "a"): semiring.value(spec, 3),
        ("a", "b"): semiring.value(spec, 10),
        ("b", "a"): semiring.value(spec, 10),
        ("b", "b"): semiring.value(spec, 1),
    }
    return softcsp.SoftCSP(
        ("x", "y"), (dom, dom), (softcsp.SoftConstraint((0, 1), table),), spec
    )


def weighted_unary_binary():
    spec = semiring.WEIGHTED
    dom = ("a", "b")
    v = lambda q: semiring.value(spec, q)
    return softcsp.SoftCSP(
        ("x", "y"),
        (dom, dom),
        (
            softcsp.SoftConstraint((0,), {("a",): v(2), ("b",): v(1)}),
            softcsp.SoftConstraint((1,), {("a",): v(4), ("b",): v(7)}),
            softcsp.SoftConstraint((0, 1), {
                ("a", "a"): v(0), ("a", "b"): v(10),
                ("b", "a"): v(10), ("b", "b"): v(0),
            }),
        ),
        spec,
    )


def classical_csp():
    spec = semiring.BOOLEAN
    dom = ("a", "b")
    v = lambda b: semiring.value(spec, b)
    return softcsp.SoftCSP(
        ("x", "y", "z"),
        (dom, dom, dom),
        (
            softcsp.SoftConstraint((0, 1), {
                ("a", "a"): v(1), ("a", "b"): v(0),
                ("b", "a"): v(0), ("b", "b"): v(0),
            }),
            softcsp.SoftConstraint((1, 2), {
                ("a", "a"): v(0), ("a", "b"): v(0),
                ("b", "a"): v(1), ("b", "b"): v(0),
            }),
        ),
        spec,
    )


def cyclic4():
    # A depends on D, B on A, C on B, D on C; each pair of rows as listed.
    doms = tuple((v.lower(), v.lower() + "~") for v in "ABCD")
    a, a_, b, b_, c, c_, d, d_ = "a", "a~", "b", "b~", "c", "c~", "d", "d~"
    rows = (
        {(d,): (a, a_), (d_,): (a, a_)},
        {(a,): (b, b_), (a_,): (b_, b)},
        {(b,): (c, c_), (b_,): (c_, c)},
        {(c,): (d, d_), (c_,): (d_, d)},
    )
    return cpnet.CPNet(tuple("ABCD"), doms, ((3,), (0,), (1,), (2,)), rows)


def acyclic4():
    a, a_, b, b_, c, c_, d, d_ = "a", "a~", "b", "b~", "c", "c~", "d", "d~"
    rows = (
        {(): (a, a_)},
        {(): (b, b_)},
        {
            (a, b): (c, c_), (a_, b_): (c, c_),
            (a, b_): (c_, c), (a_, b): (c_, c),
        },
        {(c,): (d, d_), (c_,): (d_, d)},
    )
    doms = ((a, a_), (b, b_), (c, c_), (d, d_))
    return cpnet.CPNet(tuple("ABCD"), doms, ((), (), (0, 1), (2,)), rows)


def cyclic2():
    a, a_, b, b_ = "a", "a~", "b", "b~"
    rows = (
        {(b,): (a_, a), (b_,): (a, a_)},
        {(a,): (b, b_), (a_,): (b_, b)},
    )
    return cpnet.CPNet(("A", "B"), ((a, a_), (b, b_)), ((1,), (0,)), rows)


def redundant3():
    # Z's four rows all coincide, so both of its parents are redundant.
    order_z = ("c1", "c2")
    rows = (
        {(): ("a1", "a2")},
        {(): ("b1", "b2")},
        {pa: order_z for pa in itertools.product(("a1", "a2"), ("b1", "b2"))},
    )
    return cpnet.CPNet(
        ("X", "Y", "Z"), (("a1", "a2"), ("b1", "b2"), ("c1", "c2")),
        ((), (), (0, 1)), rows,
    )


def pd_ppgame():
    orders = (
        {("C2",): ("N1", "C1"), ("N2",): ("N1", "C1")},
        {("C1",): ("N2", "C2"), ("N1",): ("N2", "C2")},
    )
    return pgame.PPGame(
        ("p1", "p2"), (("C1", "N1"), ("C2", "N2")), ((1,), (0,)), orders
    )


def pd_payoff():
    pay = {
        ("c", "c"): (3, 3), ("c", "n"): (0, 4),
        ("n", "c"): (4, 0), ("n", "n"): (1, 1),
    }
    payoffs = (
        {s: Fraction(v[0]) for s, v in pay.items()},
        {s: Fraction(v[1]) for s, v in pay.items()},
    )
    return pgame.PayoffGame(
        ("p1", "p2"), (("c", "n"), ("c", "n")), ((1,), (0,)), payoffs
    )


def cycle3():
    return pgame.DirectedGraph(
        ("n0", "n1", "n2"), (("n0", "n1"), ("n1", "n2"), ("n2", "n0"))
    )


def diamond_dag():
    return pgame.DirectedGraph(
        ("n0", "n1", "n2", "n3"),
        (("n0", "n1"), ("n0", "n2"), ("n1", "n3"), ("n2", "n3")),
    )


FIXTURES = {
    "fuzzy_chain.scsp.json": fuzzy_scsp(
        ("0.4", "0.1", "0.3", "0.5"), ("0.4", "0.3", "0.1", "0.5")
    ),
    "fuzzy_flat.scsp.json": fuzzy_scsp(
        ("0.9", "0.6", "0.6", "0.9"), ("0.1", "0.2", "0.1", "0.2")
    ),
    "weighted_pair.scsp.json": weighted_one_constraint(),
    "weighted_mixed.scsp.json": weighted_unary_binary(),
    "classical_unsat.scsp.json": classical_csp(),
    "cyclic4.cpnet.json": cyclic4(),
    "acyclic4.cpnet.json": acyclic4(),
    "cyclic2.cpnet.json": cyclic2(),
    "redundant3.cpnet.json": redundant3(),
    "pd.ppgame.json": pd_ppgame(),
    "pd.payoffgame.json": pd_payoff(),
    "cycle3.graph.json": cycle3(),
    "diamond.graph.json": diamond_dag(),
}


def main():
    ROOT.mkdir(exist_ok=True)
    for name, obj in FIXTURES.items():
        (ROOT / name).write_text(serialize.dumps(obj))
        print("wrote", name)


if __name__ == "__main__":
    main()
