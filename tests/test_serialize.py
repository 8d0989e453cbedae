import importlib.util
import json
import pathlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from optiform import pgame, semiring, serialize
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
