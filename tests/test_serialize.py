import copy
import importlib.util
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
    assert net.tables[1].rows == {("a",): ("b", "b~"), ("a~",): ("b", "b~")}


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
    """`text_of(x)` is `json.dumps(x, sort_keys=True, indent=2) + "\\n"`, and
    raises the same exception type where that raises."""
    try:
        expected = json.dumps(x, sort_keys=True, indent=2) + "\n"
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)):
            serialize.text_of(x)
        return
    assert serialize.text_of(x) == expected


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_writer_matches_stdlib_on_fixture_documents(name):
    kind, obj = serialize.load_path(str(FIXTURES / name))
    doc = serialize.document_of(obj)
    assert_writes_as_stdlib(doc)


def test_writer_matches_stdlib_on_golden_reports():
    for run in json.loads(GOLDEN.read_text()).values():
        if run["stdout"]:
            report = json.loads(run["stdout"])
            assert_writes_as_stdlib(report)
            assert serialize.text_of(report) == run["stdout"]


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

def assert_dumps_its_document(obj):
    """`dumps` writes the text of `document_of`, and reads back as `obj`;
    returns the kind read."""
    text = serialize.dumps(obj)
    assert text == json.dumps(serialize.document_of(obj), sort_keys=True, indent=2) + "\n"
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


def test_dumps_matches_document_of_on_generated_records():
    kinds = set()
    for seed in range(150):
        for obj in generated_records(seed):
            kinds.add(assert_dumps_its_document(obj))
    assert kinds == set(serialize.KINDS)


def edge_records():
    odd = ("\u00e9t\u00e9", 'say "hi"', "back\\slash", "\u2603\n")
    yield cpnet.from_tables(  # a parentless table, and names and values to escape
        odd[:2], (odd, odd[2:]), ((), (0,)),
        ({(): odd}, {(v,): odd[2:] if k % 2 else odd[:1:-1] for k, v in enumerate(odd)}))
    yield cpnet.from_tables(  # int and float values, numbers and strings mixed
        ("x", "y", "z"), ((0, 1), (0, 1.5, -2), ("a", "b")), ((), (0,), (0, 1)),
        ({(): (1, 0)}, {(0,): (0, 1.5, -2), (1,): (-2, 1.5, 0)},
         {(a, b): ("a", "b") if b == 0 else ("b", "a") for a in (0, 1) for b in (0, 1.5, -2)}))
    yield cpnet.from_tables(  # keys and orders whose numbers equal, but are not, the domain's
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
def test_dumps_matches_document_of_on_edge_records(obj):
    assert_dumps_its_document(obj)


def read(doc):
    """The record a document holds with its tables' key orders, or the
    message it is refused with."""
    try:
        kind, obj = serialize.parse_document(doc)
    except ValidationError as exc:
        return "refused", str(exc)
    tables = obj.rows if kind == "cpnet" else obj.prefs if kind == "ppgame" else ()
    return obj, [list(t) for t in tables]


def read_cell_by_cell(doc):
    """`read` with the bulk row reader off, so that `_table`'s loop reads
    every table."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(serialize, "_order_rows", lambda cells, wrapped: None)
        return read(doc)


def row_lists(doc):
    """Each list of {"when", "order"} rows in a CP-net or game document."""
    if doc["kind"] == "cpnet":
        return [(doc["tables"][v], "rows") for v in doc["variables"]]
    if doc["kind"] == "ppgame":
        return [(doc["prefs"], p) for p in doc["players"]]
    return []


def row_mutations(cpnet_rows):
    """Faults planted in rows a and b of a row list (the same row when the
    list has one), named."""
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
    string_key = setting("when", (lambda w: ["x"]) if cpnet_rows else (lambda w: "x"))
    yield "a list row", faults(nonobject(["when", "order"]))
    yield "a string row", faults(nonobject("xy"))
    yield "a number row", faults(nonobject(3))
    yield "no when", faults(missing("when"))
    yield "no order", faults(missing("order"))
    yield "a string key", faults(string_key)
    yield "a string when", faults(setting("when", lambda w: "x"))
    yield "an object order", faults(setting("order", lambda o: {"x": 1}))
    yield "a nested order", faults(setting("order", lambda o: [o]))
    yield "a nested key", faults(setting("when", lambda w: [[w]]))
    yield "a duplicate when", lambda cells, a, b: cells.append(copy.deepcopy(cells[a]))
    if cpnet_rows:
        yield "a disjunctive when", merge
        yield "an empty when", faults(setting("when", lambda w: []))
    yield "no order, then a string key", faults(missing("order"), string_key)
    yield "a string key, then no order", faults(string_key, missing("order"))
    yield "an object order, then no when", faults(setting("order", lambda o: {}),
                                                  missing("when"))


def test_bulk_row_reader_matches_the_cell_loop():
    """The bulk readers of CP-net rows and preferences give the table, with
    its key order, that `_table`'s loop gives, or the loop's first fault:
    on every fixture, on generated nets and games, and with faults planted
    in one or two rows of each table."""
    docs = [json.loads((FIXTURES / name).read_text()) for name in ALL_FIXTURES]
    for seed in range(1, 31):
        docs += [json.loads(serialize.dumps(x)) for x in (
            oracle.random_cpnet(replace(oracle.GeneratorConfig(), seed=seed)),
            oracle.random_ppgame(replace(oracle.GeneratorConfig(), seed=seed, graphical=True)))]
    outcomes = set()
    for seed, doc in enumerate(docs):
        assert read(doc) == read_cell_by_cell(doc)
        for k, (holder, key) in enumerate(row_lists(doc)):
            cells = holder[key]
            assert serialize._order_rows(cells, doc["kind"] == "cpnet") is not None
            rng = random.Random(seed * 100 + k)
            a, b = sorted(rng.sample(range(len(cells)), 2) if len(cells) > 1 else [0, 0])
            for name, plant in row_mutations(doc["kind"] == "cpnet"):
                for first, second in ((a, b), (b, a)):
                    mutated = copy.deepcopy(doc)
                    plant(row_lists(mutated)[k][0][key], first, second)
                    got = read(mutated)
                    assert got == read_cell_by_cell(mutated), (seed, k, name)
                    outcomes.add((name, got[0] == "refused"))
    assert {name for name, refused in outcomes if not refused} >= {"a disjunctive when"}
    assert {name for name, refused in outcomes if refused} >= {
        name for name, _ in row_mutations(True)} - {"a disjunctive when"}
