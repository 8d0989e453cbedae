"""The model classes, and the oracle's generator config and verdict, are
frozen records: construction, repr, equality, hashing, immutability and
`replace` behave as they did when they were frozen dataclasses.  The repr
strings below were written by the dataclasses."""

import copy
import itertools
import pickle
from fractions import Fraction

import pytest

from optiform import cpnet, semiring
from optiform.cpnet import CPNet, CPTable
from optiform.errors import ValidationError
from optiform.oracle import GeneratorConfig, Verdict
from optiform.pgame import DirectedGraph, PayoffGame, PPGame
from optiform.record import replace
from optiform.semiring import SemiringSpec, SemiringValue
from optiform.softcsp import SoftConstraint, SoftCSP

W, F = semiring.WEIGHTED, semiring.FUZZY

ROWS = {("a",): ("c", "d"), ("b",): ("d", "c")}


def examples():
    """(record, its repr as a frozen dataclass), one or two per class; built
    afresh on each call, so two calls give equal but distinct records."""
    fuzzy_table = {("a",): semiring.value(F, Fraction(1, 3)), ("b",): semiring.value(F, 1)}
    return [
        (SemiringSpec("weighted"), "SemiringSpec(kind='weighted', factors=())"),
        (semiring.product(F, semiring.product(W, semiring.BOOLEAN)),
         "SemiringSpec(kind='product', factors=(SemiringSpec(kind='fuzzy', factors=()), "
         "SemiringSpec(kind='product', factors=(SemiringSpec(kind='weighted', factors=()), "
         "SemiringSpec(kind='boolean', factors=())))))"),
        (SemiringValue(W, Fraction(1, 2)), "SemiringValue(1/2)"),
        (semiring.value(semiring.product(F, W), (1, semiring.INF)), "SemiringValue(<1,inf>)"),
        (SoftConstraint((0,), {("a",): semiring.value(W, 2), ("b",): semiring.value(W, semiring.INF)}),
         "SoftConstraint(scope=(0,), table={('a',): SemiringValue(2), ('b',): SemiringValue(inf)})"),
        (SoftCSP(("x",), (("a", "b"),), (SoftConstraint((0,), fuzzy_table),), F),
         "SoftCSP(variables=('x',), domains=(('a', 'b'),), constraints=(SoftConstraint(scope=(0,), "
         "table={('a',): SemiringValue(1/3), ('b',): SemiringValue(1)}),), "
         "semiring=SemiringSpec(kind='fuzzy', factors=()))"),
        (CPTable(1, (0,), dict(ROWS)),
         "CPTable(owner=1, parents=(0,), rows={('a',): ('c', 'd'), ('b',): ('d', 'c')})"),
        (cpnet.from_tables(("A", "B"), (("a", "b"), ("c", "d")), ((), (0,)),
                           ({(): ("a", "b")}, dict(ROWS))),
         "CPNet(variables=('A', 'B'), domains=(('a', 'b'), ('c', 'd')), tables=(CPTable(owner=0, "
         "parents=(), rows={(): ('a', 'b')}), CPTable(owner=1, parents=(0,), rows={('a',): "
         "('c', 'd'), ('b',): ('d', 'c')})))"),
        (PPGame(("p", "q"), (("x", "y"), ("u",)), ((1,), ()), ({("u",): ("y", "x")}, {(): ("u",)})),
         "PPGame(players=('p', 'q'), strategies=(('x', 'y'), ('u',)), neigh=((1,), ()), "
         "prefs=({('u',): ('y', 'x')}, {(): ('u',)}))"),
        (PayoffGame(("p",), (("x", "y"),), ((),), ({("x",): 1, ("y",): Fraction(-2, 3)},)),
         "PayoffGame(players=('p',), strategies=(('x', 'y'),), neigh=((),), "
         "payoffs=({('x',): 1, ('y',): Fraction(-2, 3)},), carrier=None)"),
        (PayoffGame(("p",), (("x",),), ((),), ({("x",): semiring.value(W, 3)},), W),
         "PayoffGame(players=('p',), strategies=(('x',),), neigh=((),), "
         "payoffs=({('x',): SemiringValue(3)},), carrier=SemiringSpec(kind='weighted', factors=()))"),
        (DirectedGraph(("a", "b"), (("a", "b"),)),
         "DirectedGraph(nodes=('a', 'b'), edges=(('a', 'b'),), levels=None)"),
        (DirectedGraph(("a", "b"), (("a", "b"),), (0, 1)),
         "DirectedGraph(nodes=('a', 'b'), edges=(('a', 'b'),), levels=(0, 1))"),
        (GeneratorConfig(),
         "GeneratorConfig(seed=0, max_vars=4, max_domain=3, density=0.5, carrier='weighted', "
         "acyclic=False, graphical=False, force_consistent=False)"),
        (GeneratorConfig(7, density=0.25, carrier="fuzzy", acyclic=True),
         "GeneratorConfig(seed=7, max_vars=4, max_domain=3, density=0.25, carrier='fuzzy', "
         "acyclic=True, graphical=False, force_consistent=False)"),
        (Verdict(True), "Verdict(ok=True, skipped=False, detail='')"),
        (Verdict(False, detail="x 'y'"), "Verdict(ok=False, skipped=False, detail=\"x 'y'\")"),
        (Verdict(True, skipped=True, detail="instance not hierarchical"),
         "Verdict(ok=True, skipped=True, detail='instance not hierarchical')"),
    ]


#: The fields of each record class, in constructor order.
FIELDS = {
    SemiringSpec: ("kind", "factors"),
    SemiringValue: ("spec", "payload"),
    SoftConstraint: ("scope", "table"),
    SoftCSP: ("variables", "domains", "constraints", "semiring"),
    CPTable: ("owner", "parents", "rows"),
    CPNet: ("variables", "domains", "tables"),
    PPGame: ("players", "strategies", "neigh", "prefs"),
    PayoffGame: ("players", "strategies", "neigh", "payoffs", "carrier"),
    DirectedGraph: ("nodes", "edges", "levels"),
    GeneratorConfig: ("seed", "max_vars", "max_domain", "density", "carrier", "acyclic",
                      "graphical", "force_consistent"),
    Verdict: ("ok", "skipped", "detail"),
}

#: The records whose fields hold no dict, the only hashable ones.
HASHABLE = (SemiringSpec, SemiringValue, DirectedGraph, GeneratorConfig, Verdict)


def test_every_record_class_is_covered():
    assert {type(r) for r, _ in examples()} == set(FIELDS)


def test_repr_is_the_dataclass_repr():
    for record, text in examples():
        assert repr(record) == text


def test_equal_records_compare_and_hash_equal():
    for (a, _), (b, _) in zip(examples(), examples()):
        assert a is not b and a == b and not a != b
        if isinstance(a, HASHABLE):
            assert hash(a) == hash(b)
            assert len({a, b}) == 1
        else:
            with pytest.raises(TypeError):
                hash(a)
    assert SemiringValue(W, 1) != SemiringValue(W, 2)
    assert SemiringValue(W, 1) != SemiringValue(F, 1)
    assert DirectedGraph(("a",), ()) != DirectedGraph(("b",), ())
    for a, b in ((GeneratorConfig(seed=1), GeneratorConfig(seed=2)),
                 (GeneratorConfig(), GeneratorConfig(force_consistent=True)),
                 (Verdict(True), Verdict(True, skipped=True)),
                 (Verdict(False, detail="a"), Verdict(False, detail="b"))):
        assert a != b and not a == b and len({a, b}) == 2


def test_records_of_different_classes_with_equal_fields_differ():
    for same_fields in (
        [SemiringSpec("weighted"), SemiringValue("weighted", ()), SoftConstraint("weighted", ())],
        [SemiringValue(("a",), ()), SoftConstraint(("a",), ()), DirectedGraph(("a",), ())],
    ):
        for a in same_fields:
            for b in same_fields:
                assert (a == b) is (a is b)
                assert (a != b) is (a is not b)
    assert SemiringValue(W, 1) != (W, 1)
    assert CPTable(0, (), {}) != (0, (), {})


def test_fields_cannot_be_set_or_deleted():
    for record, _ in examples():
        for name in (*FIELDS[type(record)], "parents", "rows", "other"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == repr(copy.copy(record))


def test_keyword_construction_and_defaults():
    assert SemiringSpec("weighted") == SemiringSpec(kind="weighted", factors=()) == W
    assert SemiringValue(payload=1, spec=W) == SemiringValue(W, 1)
    for record, _ in examples():
        fields = {name: getattr(record, name) for name in FIELDS[type(record)]}
        assert type(record)(**fields) == record
        assert type(record)(*fields.values()) == record
    game = PayoffGame(("p",), (("x",),), ((),), ({("x",): 1},))
    assert game.carrier is None
    assert PayoffGame(players=("p",), strategies=(("x",),), neigh=((),),
                      payoffs=({("x",): 1},), carrier=None) == game
    with pytest.raises(TypeError):
        CPNet(("A",), (("a",),), (CPTable(0, (), {(): ("a",)}),), ())
    with pytest.raises(TypeError):
        SemiringValue(W)
    assert GeneratorConfig() == GeneratorConfig(0, 4, 3, 0.5, "weighted", False, False, False)
    assert GeneratorConfig(5, graphical=True) == GeneratorConfig(seed=5, graphical=True)
    assert Verdict(False) == Verdict(ok=False, skipped=False, detail="")
    with pytest.raises(TypeError):
        Verdict()


def test_validation_runs_on_construction():
    with pytest.raises(ValidationError):
        SemiringSpec("tropical")
    with pytest.raises(ValidationError):
        SemiringSpec(kind="product")
    with pytest.raises(ValidationError):
        DirectedGraph(nodes=("a",), edges=(("a", "b"),))


def test_cpnet_equality_ignores_its_derived_tables():
    net, _ = examples()[7]
    other, _ = examples()[7]
    assert net.parents == ((), (0,)) and net.rows == ({(): ("a", "b")}, ROWS)
    object.__setattr__(other, "parents", None)
    object.__setattr__(other, "rows", None)
    assert net == other
    assert repr(net) == repr(other)


def test_records_copy_and_pickle():
    for record, _ in examples():
        for twin in (copy.copy(record), copy.deepcopy(record),
                     pickle.loads(pickle.dumps(record))):
            assert type(twin) is type(record) and twin == record
    net, _ = examples()[7]
    assert pickle.loads(pickle.dumps(net)).rows == net.rows


def test_replace_changes_the_named_fields():
    cfg = GeneratorConfig(seed=3)
    assert replace(cfg, acyclic=True, carrier="boolean") == GeneratorConfig(
        3, carrier="boolean", acyclic=True)
    assert cfg == GeneratorConfig(seed=3)
    assert replace(Verdict(False, detail="x"), ok=True) == Verdict(True, detail="x")
    for record, _ in examples():
        twin = replace(record)
        assert twin == record and twin is not record
    for record, field in ((cfg, "sed"), (Verdict(True), "reason"), (W, "spec")):
        with pytest.raises(TypeError):
            replace(record, **{field: None})
    # the copy is built by its class's constructor, so it is validated
    with pytest.raises(ValidationError):
        replace(DirectedGraph(("a", "b"), ()), edges=(("a", "z"),))


# ---------------------------------------------------------- one table check

TABLE_KINDS = ("cpnet", "ppgame", "payoffgame", "scsp")


def table_record(kind, names, domains, scope, change=set):
    """A record of `kind` whose index 0 has a table over `scope` (its parents
    or neighbours; the scope of constraint 0), holding every tuple over the
    table's scope passed through `change`; the other indices have tables over
    nothing.  A payoff table's scope also holds its owner, index 0."""
    n = len(names)
    table_scope = sorted(scope + (0,)) if kind == "payoffgame" else scope
    keys = change(set(itertools.product(
        *(domains[i] if i < n else ("z",) for i in table_scope))))
    if kind == "scsp":
        return SoftCSP(names, domains,
                       (SoftConstraint(scope, {k: semiring.value(W, 1) for k in keys}),), W)
    if kind == "payoffgame":
        payoffs = ({k: 1 for k in keys},) + tuple({(v,): 1 for v in d} for d in domains[1:])
        return PayoffGame(names, domains, (scope,) + ((),) * (n - 1), payoffs)
    parents = (scope,) + ((),) * (n - 1)
    rows = ({k: domains[0] for k in keys},) + tuple({(): d} for d in domains[1:])
    if kind == "cpnet":
        return cpnet.from_tables(names, domains, parents, rows)
    return PPGame(names, domains, parents, rows)


NAMES, DOMAINS = ("p", "q"), (("a", "b"), ("c", "d"))

#: (defect, names, domains, scope of table 0, change of its tuples)
DEFECTS = [
    ("repeated names", ("p", "p"), DOMAINS, (1,), set),
    ("empty domain", NAMES, (("a", "b"), ()), (), set),
    ("repeated domain value", NAMES, (("a", "b"), ("c", "c")), (1,), set),
    ("out-of-range scope index", NAMES, DOMAINS, (2,), set),
    ("negative scope index", NAMES, DOMAINS, (-1,), set),
    ("repeated scope index", NAMES, DOMAINS, (1, 1), set),
    ("missing tuple", NAMES, DOMAINS, (1,), lambda keys: keys - {min(keys)}),
    ("spurious tuple", NAMES, DOMAINS, (1,), lambda keys: keys | {("e",) * len(min(keys))}),
]


def test_every_table_record_refuses_every_defect():
    for kind in TABLE_KINDS:
        table_record(kind, NAMES, DOMAINS, (1,))
        for defect, names, domains, scope, change in DEFECTS:
            with pytest.raises(ValidationError):
                table_record(kind, names, domains, scope, change)
                pytest.fail("%s accepts a %s" % (kind, defect))


def test_scope_indices_stay_in_range():
    # a negative neighbour used to wrap around to the player itself
    with pytest.raises(ValidationError, match="scope index -1 is out of range"):
        PPGame(("p",), (("a", "b"),), ((-1,),), ({("a",): ("a", "b"), ("b",): ("b", "a")},))
    # a parent past the last variable used to end in an IndexError
    with pytest.raises(ValidationError, match="scope index 3 is out of range"):
        cpnet.from_tables(("A",), (("a",),), ((3,),), ({("a",): ("a",)},))
