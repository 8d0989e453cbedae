import json
from fractions import Fraction

import pytest

from optiform import pgame, semiring, serialize
from optiform.errors import ValidationError
from tests.conftest import FIXTURES, load


ALL_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.json"))


def test_fixture_corpus_is_present():
    assert len(ALL_FIXTURES) == 13


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_round_trip_is_identity(name):
    text = (FIXTURES / name).read_text()
    kind, obj = serialize.loads(text)
    if kind == "graph":
        graph, levels = obj
        assert serialize.dumps(graph, levels) == text
        kind2, (graph2, levels2) = serialize.loads(serialize.dumps(graph, levels))
        assert (graph2, levels2) == (graph, levels)
    else:
        assert serialize.dumps(obj) == text
        kind2, obj2 = serialize.loads(serialize.dumps(obj))
        assert obj2 == obj
    assert kind2 == kind


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
    text = serialize.dumps(diamond, levels)
    _, (graph2, levels2) = serialize.loads(text)
    assert graph2 == diamond and levels2 == levels


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
