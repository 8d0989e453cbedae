import copy
import importlib.util
import itertools
import json
import pathlib
import random
from optiform.record import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optiform import bridge, cpnet, oracle, pgame, semiring, serialize, softcsp
from optiform.errors import ValidationError
from tests.conftest import FIXTURES, load
from tests.test_cli import GOLDEN


ALL_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json"))
SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def test_fixture_corpus_is_present():
    assert len(ALL_FIXTURES) == 13


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_round_trip_is_identity(name):
    text = (FIXTURES / name).read_text()
    kind, obj = serialize.loads(text)
    assert serialize.dumps(obj) == text
    kind2, obj2 = serialize.loads(serialize.dumps(obj))
    assert (kind2, obj2) == (kind, obj)


def test_output_is_canonical(fuzzy_chain):
    a = serialize.dumps(fuzzy_chain)
    assert a == serialize.dumps(serialize.loads(a)[1])
    assert json.loads(a)["kind"] == "scsp"
    # keys are sorted so text equality is meaningful
    doc = json.loads(a)
    assert list(doc) == sorted(doc)


def test_values_use_exact_text_forms():
    doc = json.loads((FIXTURES / "fuzzy_chain.scsp.json").read_text())
    cells = {c["value"] for con in doc["constraints"] for c in con["table"]}
    assert cells <= {"2/5", "1/10", "3/10", "1/2"}


def test_graph_levels_survive(diamond):
    ok, levels = pgame.is_well_structured(diamond)
    graph = pgame.DirectedGraph(diamond.nodes, diamond.edges,
                                tuple(map(levels.get, diamond.nodes)))
    text = serialize.dumps(graph)
    assert json.loads(text)["levels"] == levels
    assert serialize.loads(text) == ("graph", graph)
    assert serialize.dumps(serialize.loads(text)[1]) == text


def test_every_command_kind_is_a_document_kind():
    from optiform import cli

    assert {k for kinds, _, _ in cli.COMMANDS.values() for k in kinds} <= set(serialize.KINDS)


def test_malformed_documents_rejected():
    with pytest.raises(ValidationError):
        serialize.loads("{not json")
    with pytest.raises(ValidationError):
        serialize.loads(json.dumps({"kind": "mystery"}))
    with pytest.raises(ValidationError):
        serialize.loads(json.dumps({"no": "kind"}))


def test_value_codec_pins_json_forms():
    for spec in (semiring.FUZZY, semiring.WEIGHTED, None):
        with pytest.raises(ValidationError, match="rational"):
            serialize.payload_from_json(spec, True, "cell")
        assert serialize.payload_from_json(spec, 0.1, "cell") == Fraction(1, 10)
    with pytest.raises(ValidationError, match="finite"):
        serialize.payload_from_json(None, "inf", "cell")
    assert serialize.payload_to_json(None, 3) == "3"
    assert serialize.payload_from_json(semiring.BOOLEAN, 1, "cell") is True
    assert serialize.payload_to_json(semiring.BOOLEAN, True) == 1


def test_rational_text_is_bounded():
    n = serialize.MAX_DIGITS
    for text in ("1e%d" % (n - 1), "-1e-%d" % (n - 1), "7" * n, "%s/%s" % ("7" * n, "9" * n),
                 "0.%se%d" % ("0" * n + "1", n)):
        q = serialize.payload_from_json(None, text, "cell")
        assert q == Fraction(text)
        assert serialize.payload_from_json(None, serialize.payload_to_json(None, q), "cell") == q
    for text in ("1e%d" % n, "1e-%d" % n, "7" * (n + 1), "1/%s" % ("9" * (n + 1)),
                 "1e%d" % (n + 1), "1e999999999"):
        with pytest.raises(ValidationError, match="at most"):
            serialize.payload_from_json(semiring.WEIGHTED, text, "cell")


def test_cpnet_disjunctive_rows_expand():
    doc = {
        "kind": "cpnet",
        "variables": ["A", "B"],
        "domains": {"A": ["a", "a~"], "B": ["b", "b~"]},
        "tables": {
            "A": {"parents": [], "rows": [
                {"when": [[]], "order": ["a", "a~"]}
            ]},
            "B": {"parents": ["A"], "rows": [
                {"when": [["a"], ["a~"]], "order": ["b", "b~"]}
            ]},
        },
    }
    _, net = serialize.parse_document(doc)
    assert net.rows[1] == {("a",): ("b", "b~"), ("a~",): ("b", "b~")}


def test_load_path(tmp_path, pd_payoff):
    target = tmp_path / "g.json"
    target.write_text(serialize.dumps(pd_payoff))
    kind, game = serialize.load_path(str(target))
    assert kind == "payoffgame" and game == pd_payoff


def test_make_fixtures_reproduces_the_fixtures(tmp_path, monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "make_fixtures", SCRIPTS / "make_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr(script, "ROOT", tmp_path / "fixtures")
    script.main()
    made = sorted(p.name for p in (tmp_path / "fixtures").iterdir())
    assert made == ALL_FIXTURES
    for name in made:
        assert (tmp_path / "fixtures" / name).read_bytes() == (FIXTURES / name).read_bytes()


# ------------------------------------------------- the writer against json.dumps

def assert_writes_as_stdlib(x):
    """`dumps(x)` is `json.dumps(x, sort_keys=True, indent=2) + "\\n"`, and
    raises the same exception type where that raises."""
    try:
        expected = json.dumps(x, sort_keys=True, indent=2) + "\n"
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            serialize.dumps(x)
        return
    assert serialize.dumps(x) == expected


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_writer_matches_stdlib_on_fixture_documents(name):
    text = (FIXTURES / name).read_text()
    doc = json.loads(text)
    assert_writes_as_stdlib(doc)
    assert serialize.dumps(doc) == text


def test_writer_matches_stdlib_on_golden_reports():
    for run in json.loads(GOLDEN.read_text()).values():
        if run["stdout"]:
            report = json.loads(run["stdout"])
            assert_writes_as_stdlib(report)
            assert serialize.dumps(report) == run["stdout"]


_keys = (st.text(), st.integers(), st.floats(), st.booleans(), st.none())
_scalars = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                     st.integers(min_value=-10 ** 40, max_value=10 ** 40),
                     st.text(), st.text(st.characters(max_codepoint=0x1f)))


def _containers(children):
    return st.one_of(
        st.lists(children),
        st.lists(children).map(tuple),
        st.lists(st.text()),
        # strings first, then anything: the string join's TypeError fallback
        st.builds(lambda strs, x: strs + [x], st.lists(st.text(), min_size=1), children),
        # one key type per dict, and mixed key types
        *(st.dictionaries(k, children) for k in _keys),
        st.dictionaries(st.one_of(*_keys), children, max_size=3),
    )


@settings(max_examples=300, deadline=None)
@given(st.recursive(_scalars, _containers, max_leaves=20))
def test_writer_matches_stdlib_on_generated_values(x):
    assert_writes_as_stdlib(x)


# ------------------------------------------- the row renderer against the rows

def row_dict_document(obj):
    """The document of a record as plain data, each table its list of row
    dicts, keyed by the product of its scope's sorted domains."""
    def rows(table, domains, scope, key_field, cell_field, cell=lambda x: x, wrap=False):
        return [{key_field: [list(t)] if wrap else list(t), cell_field: cell(table[t])}
                for t in itertools.product(*(sorted(domains[j]) for j in scope))]

    def header(names_key, names, domains_key, domains):
        return {names_key: names, domains_key: dict(zip(names, domains))}

    if isinstance(obj, pgame.DirectedGraph):
        doc = {"kind": "graph", "nodes": obj.nodes, "edges": obj.edges}
        if obj.levels is not None:
            doc["levels"] = dict(zip(obj.nodes, obj.levels))
        return doc
    if isinstance(obj, pgame.PPGame):
        doc = header("players", obj.variables, "strategies", obj.domains)
        doc["neigh"] = {p: [obj.variables[j] for j in ns]
                        for p, ns in zip(obj.variables, obj.parents)}
        doc["kind"], doc["prefs"] = "ppgame", {
            p: rows(t, obj.domains, ns, "when", "order")
            for p, ns, t in zip(obj.variables, obj.parents, obj.rows)}
        return doc
    if isinstance(obj, cpnet.CPNet):
        doc = header("variables", obj.variables, "domains", obj.domains)
        doc["kind"], doc["tables"] = "cpnet", {
            v: {"parents": [obj.variables[p] for p in ps],
                "rows": rows(r, obj.domains, ps, "when", "order", wrap=True)}
            for v, ps, r in zip(obj.variables, obj.parents, obj.rows)}
        return doc
    if isinstance(obj, softcsp.SoftCSP):
        doc = header("variables", obj.variables, "domains", obj.domains)
        spec = obj.semiring
        doc["kind"], doc["semiring"] = "scsp", serialize.spec_to_json(spec)
        doc["constraints"] = [
            {"scope": [obj.variables[i] for i in c.scope],
             "table": rows(c.table, obj.domains, c.scope, "tuple", "value",
                           lambda v: serialize.payload_to_json(spec, v.payload))}
            for c in obj.constraints]
        return doc
    doc = header("players", obj.players, "strategies", obj.strategies)
    doc["neigh"] = {p: [obj.players[j] for j in ns] for p, ns in zip(obj.players, obj.neigh)}
    doc["kind"] = "payoffgame"
    doc["carrier"] = None if obj.carrier is None else serialize.spec_to_json(obj.carrier)
    doc["payoffs"] = {p: rows(t, obj.strategies, obj.local_scope(i), "when", "value",
                              lambda v: serialize.payoff_to_json(obj, v))
                      for i, (p, t) in enumerate(zip(obj.players, obj.payoffs))}
    return doc


def assert_dumps_its_document(obj):
    """`dumps` writes the text `json.dumps` gives the record's
    `row_dict_document`, and it reads back as `obj`; returns the kind
    read."""
    text = serialize.dumps(obj)
    assert text == json.dumps(row_dict_document(obj), sort_keys=True, indent=2) + "\n"
    kind, back = serialize.loads(text)
    assert back == obj
    return kind


def generated_records(seed):
    """Records from every `oracle.random_*` generator and from the
    translations, among them full-table nets and product carriers."""
    cfg = oracle.GeneratorConfig(seed=seed)
    net = oracle.random_cpnet(replace(cfg, max_vars=5))
    game = oracle.random_payoff_game(cfg)
    yield from (net, oracle.random_cpnet(replace(cfg, acyclic=True)), bridge.game_of_cpnet(net),
                game, bridge.scsp_of_game(game), bridge.regret_constraints(game),
                oracle.random_dag(cfg))
    for carrier in ("weighted", "fuzzy", "boolean"):
        problem = oracle.random_scsp(replace(cfg, carrier=carrier))
        yield from (problem, bridge.local_map(problem))
    for graphical in (True, False):
        pp = oracle.random_ppgame(replace(cfg, graphical=graphical))
        yield from (pp, bridge.cpnet_of_game(pp))


def rendered_records():
    """Records whose every value is a string, in every shape of table
    `_Rows.render` writes: soft constraints (the key field first) and
    payoffs over scopes of 0 to 3 indices, preferences over 0 to 2
    neighbours, and CP-net rows with no parent (the wrapped empty key) and
    with 1 to 3.
    The domains hold one, two and three values, so the runs of rows that
    share all key values but the last are one to three rows long."""
    names = ("w", "x", "y", "z")
    doms = (("a", "b", "c"), ("u",), ("y", "x"), ("\u00e9", 'q"'))
    scopes = ((), (2,), (0, 2), (0, 1, 3), (1, 2, 3))

    def over(scope, cell):
        return {t: cell(k) for k, t in enumerate(itertools.product(*(doms[j] for j in scope)))}

    def orders(i):  # each row an order of the domain of i, rotated by the row
        return lambda k: doms[i][k % len(doms[i]):] + doms[i][:k % len(doms[i])]

    spec = semiring.WEIGHTED
    weight = lambda k: semiring.value(spec, Fraction(k % 5, 3))
    yield softcsp.SoftCSP(names, doms, tuple(softcsp.SoftConstraint(scope, over(scope, weight))
                                             for scope in scopes), spec)
    neigh = ((), (0,), (0, 3), (1, 2))
    game = pgame.PayoffGame(names, doms, neigh, tuple(
        over(tuple(sorted(ns + (i,))), lambda k: Fraction(-k, 7)) for i, ns in enumerate(neigh)))
    assert [len(game.local_scope(i)) for i in range(4)] == [1, 2, 3, 3]
    yield game
    yield pgame.PPGame(names, doms, neigh, tuple(over(ns, orders(i))
                                                 for i, ns in enumerate(neigh)))
    parents = ((), (0,), (0, 3), (0, 1, 2))
    yield cpnet.CPNet(names, doms, parents, tuple(over(ps, orders(i))
                                                  for i, ps in enumerate(parents)))


def test_dumps_matches_row_dicts_on_generated_records():
    kinds = set()
    for seed in range(150):
        for obj in generated_records(seed):
            kinds.add(assert_dumps_its_document(obj))
    assert kinds == set(serialize.KINDS)
    for obj in rendered_records():
        assert_dumps_its_document(obj)
    # a game of a net's very fields is written as a game all the same
    net = obj  # the last rendered record, a CP-net
    game = pgame.PPGame(net.variables, net.domains, net.parents, net.rows)
    assert assert_dumps_its_document(net) == "cpnet"
    assert assert_dumps_its_document(game) == "ppgame"


def edge_records():
    odd = ("\u00e9t\u00e9", 'say "hi"', "back\\slash", "\u2603\n")
    yield cpnet.CPNet(  # a parentless table, and names and values to escape
        odd[:2], (odd, odd[2:]), ((), (0,)),
        ({(): odd}, {(v,): odd[2:] if k % 2 else odd[:1:-1] for k, v in enumerate(odd)}))
    yield cpnet.CPNet(  # int and float values, numbers and strings mixed
        ("x", "y", "z"), ((0, 1), (0, 1.5, -2), ("a", "b")), ((), (0,), (0, 1)),
        ({(): (1, 0)}, {(0,): (0, 1.5, -2), (1,): (-2, 1.5, 0)},
         {(a, b): ("a", "b") if b == 0 else ("b", "a") for a in (0, 1) for b in (0, 1.5, -2)}))
    yield cpnet.CPNet(  # keys and orders whose numbers equal, but are not, the domain's
        ("x", "y"), ((1, 2), (0, 1)), ((), (0,)),
        ({(): (2.0, 1)}, {(1.0,): (True, 0), (2,): (0.0, 1)}))
    yield pgame.PPGame(  # an empty neighbour list
        odd[2:], (odd[:2], ("a", "b", "c")), ((), (0,)),
        ({(): odd[1::-1]}, {(odd[0],): ("c", "b", "a"), (odd[1],): ("a", "c", "b")}))
    pairs = [(a, b) for a in odd[2:] for b in (1, 2.5)]
    yield pgame.PayoffGame(  # an empty neighbour list, plain payoffs
        odd[:2], (odd[2:], (1, 2.5)), ((), (0,)),
        ({(v,): Fraction(k, 3) for k, v in enumerate(odd[2:])},
         {t: Fraction(-k) for k, t in enumerate(pairs)}))
    spec = semiring.product(semiring.FUZZY, semiring.WEIGHTED, semiring.BOOLEAN)
    cells = [semiring.value(spec, (Fraction(1, 2), semiring.INF, True)),
             semiring.value(spec, (Fraction(0), Fraction(7, 3), False))]
    yield softcsp.SoftCSP(  # product-semiring value cells, and a constraint over no variable
        odd[1:3], (odd, ("u",)), (
            softcsp.SoftConstraint((0, 1), {(v, "u"): cells[k % 2] for k, v in enumerate(odd)}),
            softcsp.SoftConstraint((), {(): cells[0]})), spec)


@pytest.mark.parametrize("obj", list(edge_records()), ids=lambda obj: type(obj).__name__)
def test_dumps_matches_row_dicts_on_edge_records(obj):
    assert_dumps_its_document(obj)


TABLES = {"cpnet": "rows", "ppgame": "rows", "payoffgame": "payoffs"}


def tables_of(kind, obj):
    """The tables of a record of `kind`."""
    if kind == "scsp":
        return [c.table for c in obj.constraints]
    return getattr(obj, TABLES[kind]) if kind in TABLES else ()


def read(doc):
    """The record a document holds with its tables' key orders, or the
    message it is refused with."""
    try:
        kind, obj = serialize.parse_document(doc)
    except ValidationError as exc:
        return "refused", str(exc)
    return obj, [list(t) for t in tables_of(kind, obj)]


def read_row_by_row(doc):
    """`read` with every table read a row at a time."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "_table", serialize._table_by_row)
        return read(doc)


def read_in_bulk(doc):
    """`read` where reading any table a row at a time fails the test."""
    def by_row(cells, where, *args):
        pytest.fail("%s is read a row at a time" % where)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "_table_by_row", by_row)
        return read(doc)


def row_lists(doc):
    """Each row list of a document, as (its holder, its key there, its key
    field, its cell field)."""
    if doc["kind"] == "cpnet":
        return [(doc["tables"][v], "rows", "when", "order") for v in doc["variables"]]
    if doc["kind"] == "ppgame":
        return [(doc["prefs"], p, "when", "order") for p in doc["players"]]
    if doc["kind"] == "payoffgame":
        return [(doc["payoffs"], p, "when", "value") for p in doc["players"]]
    if doc["kind"] == "scsp":
        return [(c, "table", "tuple", "value") for c in doc["constraints"]]
    return []


def row_mutations(key_field, cell_field, wrapped):
    """Faults planted in rows a and b of a row list (the same row when the
    list has one), named; `wrapped` for CP-net rows, whose "when" lists
    parent assignments."""
    def merge(cells, a, b):  # one row holding the parent assignments of two
        cells[a]["when"] = cells[a]["when"] + cells[b]["when"]
        del cells[b]
    def faults(*plants):
        def plant(cells, a, b):
            for fault, at in zip(plants, (a, b)):
                fault(cells, at)
        return plant
    def nonobject(row):
        return lambda cells, a: cells.__setitem__(a, row)
    def missing(field):
        return lambda cells, a: cells[a].pop(field)
    def setting(field, value):
        return lambda cells, a: cells[a].__setitem__(field, value(cells[a][field]))
    def repeated(cells, a):  # row a given again, as the first row
        cells.insert(0, copy.deepcopy(cells[a]))
    string_key = setting(key_field, (lambda w: ["x"]) if wrapped else (lambda w: "x"))
    yield "a list row", faults(nonobject([key_field, cell_field]))
    yield "a string row", faults(nonobject("xy"))
    yield "a number row", faults(nonobject(3))
    yield "no key", faults(missing(key_field))
    yield "no cell", faults(missing(cell_field))
    yield "a string key", faults(string_key)
    yield "a string key field", faults(setting(key_field, lambda w: "x"))
    yield "an object cell", faults(setting(cell_field, lambda o: {"x": 1}))
    yield "a nested cell", faults(setting(cell_field, lambda o: [o]))
    yield "a nested key", faults(setting(key_field, lambda w: [[w]]))
    yield "a duplicate key", lambda cells, a, b: cells.append(copy.deepcopy(cells[a]))
    if wrapped:
        yield "a disjunctive when", merge
        yield "an empty when", faults(setting("when", lambda w: []))
    yield "no cell, then a string key", faults(missing(cell_field), string_key)
    yield "a string key, then no cell", faults(string_key, missing(cell_field))
    yield "an object cell, then no key", faults(setting(cell_field, lambda o: {}),
                                                missing(key_field))
    yield "a repeated key, then an object cell", faults(
        repeated, setting(cell_field, lambda o: {"x": 1}))


def test_bulk_row_reader_matches_the_cell_loop():
    """`_table` reads every table of a valid document in bulk, and gives
    the table, with its key order, that reading it a row at a time gives,
    or that reading's first fault: on every fixture, on generated nets,
    games and soft CSPs (product carriers among them), and with faults
    planted in one or two rows of each CP-net, preference, payoff and
    constraint table."""
    docs = [json.loads((FIXTURES / name).read_text()) for name in ALL_FIXTURES]
    cfg = oracle.GeneratorConfig()
    for seed in range(1, 31):
        game = oracle.random_payoff_game(replace(cfg, seed=seed))
        docs += [json.loads(serialize.dumps(x)) for x in (
            oracle.random_cpnet(replace(cfg, seed=seed)),
            oracle.random_ppgame(replace(cfg, seed=seed, graphical=True)))]
        if seed <= 6:
            docs += [json.loads(serialize.dumps(x)) for x in (
                game, bridge.scsp_of_game(game),
                oracle.random_scsp(replace(cfg, seed=seed, carrier=(
                    "weighted", "fuzzy", "boolean")[seed % 3])))]
    outcomes = {kind: set() for kind in ("cpnet", "ppgame", "payoffgame", "scsp")}
    for seed, doc in enumerate(docs):
        assert read_in_bulk(doc) == read_row_by_row(doc)
        for k, (holder, key, key_field, cell_field) in enumerate(row_lists(doc)):
            cells = holder[key]
            rng = random.Random(seed * 100 + k)
            a, b = sorted(rng.sample(range(len(cells)), 2) if len(cells) > 1 else [0, 0])
            for name, plant in row_mutations(key_field, cell_field, doc["kind"] == "cpnet"):
                for first, second in ((a, b), (b, a)):
                    mutated = copy.deepcopy(doc)
                    plant(row_lists(mutated)[k][0][key], first, second)
                    got = read(mutated)
                    assert got == read_row_by_row(mutated), (seed, k, name)
                    outcomes[doc["kind"]].add((name, got[0] == "refused"))
    for kind, seen in outcomes.items():
        names = {name for name, _ in row_mutations("", "", kind == "cpnet")}
        assert {name for name, refused in seen if refused} >= names - {"a disjunctive when"}, kind
    assert ("a disjunctive when", False) in outcomes["cpnet"]
