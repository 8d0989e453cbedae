import copy
import gc
import itertools
import json
import pathlib
import random
import types

import pytest

from optiform import bridge, cli, cpnet, oracle, pgame, serialize
from tests.conftest import FIXTURES

#: The stdout, stderr and exit code of every case in `golden_cases`, as
#: `record_golden` wrote them; rewrite it only for an intended output change.
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_cli.json"


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def fx(name):
    return str(FIXTURES / name)


def test_scsp_solve(capsys):
    code, out, _ = run(capsys, "scsp-solve", fx("fuzzy_chain.scsp.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["optimal"] == [
        {"assignment": ["b", "b", "b"], "preference": "1/2"}
    ]


def test_scsp_solve_reports_product_frontier(capsys, tmp_path):
    code, out, _ = run(capsys, "map-to-scsp", fx("pd.payoffgame.json"),
                       "--offset", "10")
    assert code == 0
    target = tmp_path / "lprime.scsp.json"
    target.write_text(out)
    code, out, _ = run(capsys, "scsp-solve", str(target))
    assert code == 0
    prefs = [e["preference"] for e in json.loads(out)["optimal"]]
    assert prefs == [["7", "7"], ["10", "6"], ["6", "10"]]


def test_scsp_join_pipes_canonical_document(capsys):
    code, out, _ = run(capsys, "scsp-join", fx("weighted_mixed.scsp.json"),
                       fx("weighted_mixed.scsp.json"))
    assert code == 0
    kind, joined = serialize.loads(out)
    assert kind == "scsp" and len(joined.constraints) == 6


def test_cpnet_commands(capsys):
    code, out, _ = run(capsys, "cpnet-optimal", fx("acyclic4.cpnet.json"))
    assert code == 0
    assert json.loads(out)["optimal"] == [["a", "b", "c", "d"]]

    code, out, _ = run(capsys, "cpnet-sweep", fx("acyclic4.cpnet.json"))
    assert json.loads(out)["outcome"] == ["a", "b", "c", "d"]

    code, out, _ = run(capsys, "cpnet-eligible", fx("cyclic2.cpnet.json"))
    assert code == 0 and json.loads(out)["eligible"] is False

    code, out, _ = run(capsys, "cpnet-opt-constraints", fx("cyclic4.cpnet.json"))
    kind, problem = serialize.loads(out)
    assert kind == "scsp" and problem.semiring.kind == "boolean"

    code, out, _ = run(capsys, "cpnet-reduce", fx("redundant3.cpnet.json"))
    kind, net = serialize.loads(out)
    assert net.tables[2].parents == ()


def test_deep_chain_searches_without_recursion(capsys, tmp_path):
    # 1,500 variables of one value each, each the parent of the next: an
    # outcome space of 1, deeper than Python's recursion limit
    names = ["X%d" % i for i in range(1500)]
    chain = tmp_path / "chain.cpnet.json"
    chain.write_text(json.dumps({
        "kind": "cpnet", "variables": names, "domains": {x: ["a"] for x in names},
        "tables": {x: {"parents": names[i - 1:i],
                       "rows": [{"when": [["a"][:i]], "order": ["a"]}]}
                   for i, x in enumerate(names)}}))
    code, out, _ = run(capsys, "cpnet-optimal", str(chain))
    assert code == 0 and json.loads(out)["optimal"] == [["a"] * 1500]
    code, out, _ = run(capsys, "cpnet-eligible", str(chain))
    assert code == 0 and json.loads(out)["eligible"] is True


def test_cpnet_eliminate(capsys):
    code, out, _ = run(capsys, "cpnet-eliminate", fx("cyclic4.cpnet.json"),
                       "--mode", "s")
    assert code == 0
    doc = json.loads(out)
    assert doc["rounds"] == [
        {"A": ["a~"]}, {"B": ["b~"]}, {"C": ["c~"]}, {"D": ["d~"]}
    ]
    assert doc["solved"] is True
    assert doc["outcome"] == ["a", "b", "c", "d"]


def test_cpnet_dominates_and_budget(capsys, tmp_path):
    code, out, _ = run(capsys, "cpnet-dominates", fx("acyclic4.cpnet.json"),
                       "--better", "a,b,c,d", "--worse", "a~,b~,c,d")
    assert code == 0 and json.loads(out)["result"] is True

    code, out, _ = run(capsys, "cpnet-dominates", fx("acyclic4.cpnet.json"),
                       "--better", "a,b,c,d", "--worse", "a~,b~,c,d",
                       "--budget", "1")
    assert code == 3
    assert json.loads(out)["result"] == "budget-exhausted"
    # the ordering query answers before the search, whatever its budget: an
    # acyclic net has no flip cycle, and a~ comes after a in A's one row
    for better in ("a,b,c,d", "a~,b,c,d"):
        code, out, _ = run(capsys, "cpnet-dominates", fx("acyclic4.cpnet.json"),
                           "--better", better, "--worse", "a,b,c,d", "--budget", "1")
        assert code == 0 and json.loads(out)["result"] is False

    # a negative budget is refused before any query, exhausted or answered;
    # a budget of 0 still runs
    for better, worse in (("a,b,c,d", "a~,b~,c,d"), ("a,b,c,d", "a,b,c,d")):
        code, out, err = run(capsys, "cpnet-dominates", fx("acyclic4.cpnet.json"),
                             "--better", better, "--worse", worse, "--budget", "-1")
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and "--budget must be at least 0, not -1" in err
    code, out, _ = run(capsys, "cpnet-dominates", fx("acyclic4.cpnet.json"),
                       "--better", "a,b,c,d", "--worse", "a~,b~,c,d", "--budget", "0")
    assert code == 3 and json.loads(out)["result"] == "budget-exhausted"

    # a field names the value whose text it is, a number's text its JSON text
    net = tmp_path / "numeric.cpnet.json"
    net.write_text(json.dumps({
        "kind": "cpnet", "variables": ["x", "y"], "domains": {"x": [0, 1], "y": [0, 1.5]},
        "tables": {"x": {"parents": [], "rows": [{"when": [[]], "order": [0, 1]}]},
                   "y": {"parents": ["x"], "rows": [{"when": [[0]], "order": [0, 1.5]},
                                                    {"when": [[1]], "order": [1.5, 0]}]}}}))
    code, out, _ = run(capsys, "cpnet-dominates", str(net), "--better", "0,0", "--worse", "1,1.5")
    doc = json.loads(out)
    assert code == 0 and doc["result"] is True
    assert (doc["better"], doc["worse"]) == ([0, 0], [1, 1.5])
    # 1 names no value of y, whose values are 0 and 1.5
    code, _, err = run(capsys, "cpnet-dominates", str(net), "--better", "0,0", "--worse", "1,1")
    assert code == 2 and err == "error: value '1' not in the domain of y\n"


def test_game_commands(capsys):
    code, out, _ = run(capsys, "game-nash", fx("pd.ppgame.json"))
    assert code == 0
    doc = json.loads(out)
    assert doc["game_kind"] == "ppgame"
    assert doc["nash"] == [{
        "joint_strategy": ["N1", "N2"],
        "best_responses": {"p1": "N1", "p2": "N2"},
    }]

    code, out, _ = run(capsys, "game-nash", fx("pd.payoffgame.json"))
    doc = json.loads(out)
    assert doc["nash"][0]["joint_strategy"] == ["n", "n"]
    assert doc["nash"][0]["payoffs"] == {"p1": "1", "p2": "1"}

    code, out, _ = run(capsys, "game-pareto", fx("pd.payoffgame.json"))
    strat = [e["joint_strategy"] for e in json.loads(out)["pareto"]]
    assert strat == [["c", "c"], ["c", "n"], ["n", "c"]]

    code, out, _ = run(capsys, "game-eliminate", fx("pd.ppgame.json"),
                       "--mode", "s")
    doc = json.loads(out)
    assert doc["rounds"] == [{"p1": ["C1"], "p2": ["C2"]}]
    assert doc["solved"] is True

    code, out, _ = run(capsys, "game-hierarchical", fx("pd.ppgame.json"))
    doc = json.loads(out)
    assert doc["hierarchical"] is True and doc["levels"] == {"p1": 0, "p2": 0}


def test_translation_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "to-game", fx("cyclic4.cpnet.json"))
    assert code == 0
    game_path = tmp_path / "g.ppgame.json"
    game_path.write_text(out)
    code, out, _ = run(capsys, "to-cpnet", str(game_path))
    assert code == 0
    kind, net = serialize.loads(out)
    assert kind == "cpnet"
    # full parent sets after the round trip
    assert all(len(t.parents) == 3 for t in net.tables)


def test_map_and_equilibria(capsys):
    code, out, _ = run(capsys, "map-local", fx("fuzzy_chain.scsp.json"))
    kind, game = serialize.loads(out)
    assert kind == "payoffgame" and game.carrier.kind == "fuzzy"

    code, out, _ = run(capsys, "map-global", fx("fuzzy_chain.scsp.json"))
    kind, game = serialize.loads(out)
    assert game.neigh == ((1, 2), (0, 2), (0, 1))

    code, out, _ = run(capsys, "regret-constraints", fx("pd.payoffgame.json"))
    kind, h = serialize.loads(out)
    assert h.semiring.kind == "boolean"

    code, out, _ = run(capsys, "pareto-nash", fx("pd.payoffgame.json"),
                       "--offset", "10")
    doc = json.loads(out)
    assert doc["equilibria"] == [
        {"joint_strategy": ["n", "n"], "preference": ["9", "9"]}
    ]


def test_tech_game_and_well_structured(capsys):
    code, out, _ = run(capsys, "tech-game", fx("cycle3.graph.json"), "--k", "2")
    kind, game = serialize.loads(out)
    assert kind == "ppgame" and game.strategies[0] == ("t1", "t2")

    code, out, _ = run(capsys, "well-structured", fx("diamond.graph.json"))
    doc = json.loads(out)
    assert code == 0 and doc["well_structured"] is True
    assert doc["levels"]["n0"] == 0

    code, out, _ = run(capsys, "well-structured", fx("cycle3.graph.json"))
    doc = json.loads(out)
    assert doc["well_structured"] is False and doc["levels"] is None


def test_graph_contract(capsys, tmp_path):
    """Every graph command reads the same record: stray levels and a
    repeated edge are refused by both, in one line."""
    bad = tmp_path / "bad.graph.json"
    edges = [["a", "b"], ["c", "b"], ["b", "c"]]
    for extra, says in (({"levels": {"zz": 1}}, "level assignment must cover exactly the nodes"),
                        ({"levels": {"a": 0, "b": 1, "c": "2"}}, "graph levels must map nodes"),
                        ({"levels": [0, 1, 2]}, "graph levels must map nodes"),
                        ({"edges": edges + [["c", "b"]]}, "edge (c, b) is given twice")):
        bad.write_text(json.dumps({"kind": "graph", "nodes": ["a", "b", "c"], "edges": edges,
                                   **extra}))
        for argv in (["tech-game", "--k", "2"], ["well-structured"]):
            code, out, err = run(capsys, argv[0], str(bad), *argv[1:])
            assert (code, out) == (2, "") and says in err and err.count("\n") == 1, argv
    bad.write_text(json.dumps({"kind": "graph", "nodes": ["a", "b", "c"], "edges": edges,
                               "levels": {"a": 0, "b": 1, "c": 2}}))
    code, out, _ = run(capsys, "well-structured", str(bad))
    assert code == 0 and json.loads(out)["well_structured"] is True
    assert json.loads(out)["levels"] == {"a": 0, "b": 1, "c": 2}


def test_check_command(capsys):
    code, out, _ = run(capsys, "check", "--theorem", "regrets",
                       "--seeds", "1..5")
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] == 5 and doc["failed"] == {}

    code, out, _ = run(capsys, "check", "--theorem", "strict_monotone_inclusion",
                       "--seeds", "77")
    doc = json.loads(out)
    assert code == 1 and "77" in doc["failed"]


def test_exit_codes(capsys, tmp_path, monkeypatch):
    code, _, err = run(capsys, "scsp-solve", str(tmp_path / "missing.json"))
    assert code == 2 and err

    bad = tmp_path / "bad.json"
    bad.write_text("{\"kind\": \"mystery\"}\n")
    code, _, err = run(capsys, "scsp-solve", str(bad))
    assert code == 2 and err

    # a cpnet fed to an scsp-only command is a validation failure
    code, _, err = run(capsys, "scsp-solve", fx("acyclic4.cpnet.json"))
    assert code == 2 and "expected scsp" in err

    # malformed input ends in one line on stderr, never a traceback
    net = '"variables": ["A"], "domains": {"A": %s}, "tables": {"A": {"parents": [], "rows": %s}}'
    game = ('"players": ["p"], "strategies": {"p": [["x"], ["y"]]}, "neigh": {"p": []}, '
            '"prefs": {"p": [{"when": [], "order": [["x"], ["y"]]}]}')
    scsp = ('{"kind": "scsp", "semiring": "weighted", "variables": ["x"], "domains": '
            '{"x": ["a"]}, "constraints": [{"scope": ["x"], "table": '
            '[{"tuple": ["a"], "value": %s}]}]}')
    nobody = ('{"kind": "payoffgame", "carrier": null, "players": [], "strategies": {}, '
              '"neigh": {}, "payoffs": {}}')
    for command, doc, says in (
        ("to-game", '{"kind": "cpnet"}', "variables"),
        ("to-game", "[]", "JSON object"),
        ("well-structured", '{"kind": "graph", "nodes": ["a", "a"], "edges": []}',
         "duplicate"),
        ("to-game", b'\xff\xfe{', "UTF-8"),
        ("to-game", '{"kind": "cpnet", %s}' % (net % ('["a", "b"]', '"x"')), "wrong type"),
        ("game-eliminate", '{"kind": "ppgame", %s}' % game, "strategies of p"),
        ("cpnet-optimal", '{"kind": "cpnet", %s}' % (
            net % ('["a", 1]', '[{"when": [[]], "order": ["a", 1]}]')), "domains of A"),
        ("well-structured", '{"kind": "graph", "nodes": ["a", "b"], "edges": [["a", "b", "a"]]}',
         "pair"),
        ("cpnet-optimal", '{"kind": "cpnet", "variables": ["A", "A"], "domains": {"A": ["a"]}, '
         '"tables": {"A": {"parents": [], "rows": [{"when": [[]], "order": ["a"]}]}}}',
         "duplicate names"),
        ("game-nash", '{"kind": "ppgame", "players": ["p", "p"], "strategies": {"p": ["x"]}, '
         '"neigh": {"p": []}, "prefs": {"p": [{"when": [], "order": ["x"]}]}}',
         "duplicate names"),
        ("cpnet-optimal", '{"kind": "cpnet", %s}' % (
            net % ("[NaN, 1]", '[{"when": [[]], "order": [NaN, 1]}]')), "finite"),
        # a repeated parent, neighbour or scope variable leaves rows that are never read
        ("cpnet-optimal", '{"kind": "cpnet", "variables": ["A", "B"], "domains": {"A": ["a", "b"], '
         '"B": ["b"]}, "tables": {"A": {"parents": [], "rows": [{"when": [[]], "order": ["a", "b"]}]}, '
         '"B": {"parents": ["A", "A"], "rows": [{"when": [["a", "a"], ["a", "b"], ["b", "a"], '
         '["b", "b"]], "order": ["b"]}]}}}', "table of B names A twice"),
        ("game-nash", '{"kind": "ppgame", "players": ["p", "q"], "strategies": {"p": ["x"], '
         '"q": ["x"]}, "neigh": {"p": [], "q": ["p", "p"]}, "prefs": {"p": [{"when": [], '
         '"order": ["x"]}], "q": [{"when": ["x", "x"], "order": ["x"]}]}}',
         "table of q names p twice"),
        # a player that is its own neighbour is named as a player, not a variable
        ("game-nash", '{"kind": "ppgame", "players": ["p1"], "strategies": {"p1": ["x"]}, '
         '"neigh": {"p1": ["p1"]}, "prefs": {"p1": [{"when": ["x"], "order": ["x"]}]}}',
         "error: player p1 is its own neighbour"),
        ("game-nash", '{"kind": "payoffgame", "carrier": null, "players": ["p", "q"], "strategies": '
         '{"p": ["x"], "q": ["x"]}, "neigh": {"p": [], "q": ["p", "p"]}, "payoffs": {"p": [{"when": '
         '["x"], "value": "1"}], "q": [{"when": ["x", "x", "x"], "value": "1"}]}}',
         "payoff table of player q names p twice"),
        ("scsp-solve", '{"kind": "scsp", "semiring": "weighted", "variables": ["x"], "domains": '
         '{"x": ["a"]}, "constraints": [{"scope": ["x", "x"], "table": [{"tuple": ["a", "a"], '
         '"value": "1"}]}]}', "constraint 0 names x twice"),
        # a string where a list belongs would split into its characters
        ("cpnet-optimal", '{"kind": "cpnet", %s}' % (
            net % ('["x", "y"]', '[{"when": [[]], "order": "xy"}]')), 'table of A: "order"'),
        ("cpnet-optimal", '{"kind": "cpnet", "variables": ["P", "Q", "C"], "domains": {"P": '
         '["a", "b"], "Q": ["a", "b"], "C": ["c"]}, "tables": {"P": {"parents": [], "rows": '
         '[{"when": [[]], "order": ["a", "b"]}]}, "Q": {"parents": [], "rows": [{"when": [[]], '
         '"order": ["a", "b"]}]}, "C": {"parents": ["P", "Q"], "rows": [{"when": '
         '["aa", "ab", "ba", "bb"], "order": ["c"]}]}}}', 'table of C: each "when" entry'),
        ("cpnet-optimal", '{"kind": "cpnet", "variables": ["A", "B"], "domains": {"A": ["a", "b"], '
         '"B": ["c"]}, "tables": {"A": {"parents": [], "rows": [{"when": [[]], "order": '
         '["a", "b"]}]}, "B": {"parents": ["A"], "rows": [{"when": "ab", "order": ["c"]}]}}}',
         'table of B: "when"'),
        ("cpnet-optimal", '{"kind": "cpnet", "variables": ["A", "B"], "domains": {"A": ["a", "b"], '
         '"B": ["c"]}, "tables": {"A": {"parents": [], "rows": [{"when": [[]], "order": '
         '["a", "b"]}]}, "B": {"parents": "A", "rows": [{"when": [["a"], ["b"]], "order": '
         '["c"]}]}}}', 'table of B: "parents"'),
        ("game-nash", '{"kind": "payoffgame", "carrier": null, "players": ["p", "q"], "strategies": '
         '{"p": ["x"], "q": ["y"]}, "neigh": {"p": "q", "q": []}, "payoffs": {"p": [{"when": '
         '["x", "y"], "value": "1"}], "q": [{"when": ["y"], "value": "1"}]}}', "neigh of p"),
        ("game-nash", '{"kind": "ppgame", "players": ["p", "q"], "strategies": {"p": ["x", "y"], '
         '"q": ["a"]}, "neigh": {"p": ["q"], "q": []}, "prefs": {"p": [{"when": "a", "order": '
         '["x", "y"]}], "q": [{"when": [], "order": ["a"]}]}}', 'prefs of p: "when"'),
        ("game-nash", '{"kind": "ppgame", "players": ["p"], "strategies": {"p": ["x", "y"]}, '
         '"neigh": {"p": []}, "prefs": {"p": [{"when": [], "order": "xy"}]}}',
         'prefs of p: "order"'),
        ("game-nash", '{"kind": "payoffgame", "carrier": null, "players": ["p"], "strategies": '
         '{"p": ["a"]}, "neigh": {"p": []}, "payoffs": {"p": [{"when": "a", "value": "1"}]}}',
         'payoffs of p: "when"'),
        ("scsp-solve", '{"kind": "scsp", "semiring": "weighted", "variables": ["x", "y"], '
         '"domains": {"x": ["a"], "y": ["b"]}, "constraints": [{"scope": ["x", "y"], "table": '
         '[{"tuple": "ab", "value": "1"}]}]}', '"tuple"'),
        ("scsp-solve", '{"kind": "scsp", "semiring": "weighted", "variables": ["x", "y"], '
         '"domains": {"x": ["a"], "y": ["b"]}, "constraints": [{"scope": "xy", "table": '
         '[{"tuple": ["a", "b"], "value": "1"}]}]}', 'constraint 0: "scope"'),
        # cost tuples need a weighted factor per player
        ("map-to-scsp", nobody, "at least one player"),
        ("pareto-nash", nobody, "at least one player"),
        # a cell given twice would keep its last value
        ("cpnet-optimal", '{"kind": "cpnet", %s}' % (net % ('["a", "b"]', '[{"when": [[]], '
         '"order": ["a", "b"]}, {"when": [[]], "order": ["b", "a"]}]')),
         "table of A: [] is given twice"),
        ("game-nash", '{"kind": "ppgame", "players": ["p"], "strategies": {"p": ["x", "y"]}, '
         '"neigh": {"p": []}, "prefs": {"p": [{"when": [], "order": ["x", "y"]}, {"when": [], '
         '"order": ["y", "x"]}]}}', "prefs of p: [] is given twice"),
        ("game-nash", '{"kind": "payoffgame", "carrier": null, "players": ["p"], "strategies": '
         '{"p": ["a", "b"]}, "neigh": {"p": []}, "payoffs": {"p": [{"when": ["a"], "value": "1"}, '
         '{"when": ["b"], "value": "2"}, {"when": ["a"], "value": "5"}]}}',
         "payoffs of p: ['a'] is given twice"),
        ("scsp-solve", '{"kind": "scsp", "semiring": "weighted", "variables": ["x"], "domains": '
         '{"x": ["a", "b"]}, "constraints": [{"scope": ["x"], "table": [{"tuple": ["a"], "value": '
         '"1"}, {"tuple": ["b"], "value": "2"}, {"tuple": ["a"], "value": "5"}]}]}',
         "constraint 0 over ['x']: ['a'] is given twice"),
        # a repeated value would be listed twice in every result
        ("scsp-solve", '{"kind": "scsp", "semiring": "weighted", "variables": ["x"], "domains": '
         '{"x": ["a", "a", "b"]}, "constraints": []}', "a value repeats in the domain of x"),
        ("game-nash", '{"kind": "payoffgame", "carrier": null, "players": ["p"], "strategies": '
         '{"p": ["a", "a"]}, "neigh": {"p": []}, "payoffs": {"p": [{"when": ["a"], "value": "1"}]}}',
         "a value repeats in the domain of p"),
        # names are keys of JSON objects, so a number would name nothing
        ("well-structured", '{"kind": "graph", "nodes": [1, 2], "edges": [[1, 2]]}',
         "nodes must be a list of names, and names must be strings"),
        ("scsp-solve", '{"kind": "scsp", "semiring": "weighted", "variables": [0], "domains": '
         '{"0": ["a"]}, "constraints": []}', "variables must be a list of names, and names must be strings"),
        # true would equal and hash as 1, so the tuple [1] would name it
        ("scsp-solve", '{"kind": "scsp", "semiring": "weighted", "variables": ["x"], "domains": '
         '{"x": [true, 2]}, "constraints": [{"scope": ["x"], "table": [{"tuple": [1], "value": '
         '"1"}, {"tuple": [2], "value": "2"}]}]}', "must be a list of strings or of finite numbers"),
        # a boolean value is the int 0 or 1, not a JSON bool or a float
        ("scsp-solve", scsp.replace("weighted", "boolean") % "true", "boolean value must be 0 or 1"),
        ("scsp-solve", scsp.replace("weighted", "boolean") % "1.0", "boolean value must be 0 or 1"),
        ("game-nash", '{"kind": "payoffgame", "carrier": "boolean", "players": ["p"], "strategies": '
         '{"p": ["a"]}, "neigh": {"p": []}, "payoffs": {"p": [{"when": ["a"], "value": true}]}}',
         "boolean value must be 0 or 1"),
        # a string where the factor list belongs would split into its characters
        ("scsp-solve", scsp.replace('"weighted"', '{"product": "fuzzy"}') % '["1"]',
         '"product" must be a list, not str'),
        # one cell of a 10^8-tuple product fails without building the product
        ("scsp-solve", json.dumps({
            "kind": "scsp", "semiring": "weighted", "variables": list("abcdefgh"),
            "domains": {v: list(range(10)) for v in "abcdefgh"}, "constraints": [
                {"scope": list("abcdefgh"), "table": [{"tuple": [0] * 7 + [9], "value": "1"}]}]}),
         "misses the tuple (0, 0, 0, 0, 0, 0, 0, 0)"),
        ("scsp-solve", scsp % '"1e999999"', "at most"),
        ("scsp-solve", scsp % ('"%s"' % ("7" * 1001)), "at most"),
        ("scsp-solve", scsp % ("7" * 5000), "syntax"),
        ("scsp-solve", "[" * 100000 + "]" * 100000, "syntax"),
    ):
        bad.write_bytes(doc if isinstance(doc, bytes) else doc.encode())
        code, _, err = run(capsys, command, str(bad))
        assert code == 2 and says in err and err.count("\n") == 1
    # a technology game on numbered nodes would write a document no command reads
    bad.write_text('{"kind": "graph", "nodes": [1, 2], "edges": [[1, 2]]}')
    code, out, err = run(capsys, "tech-game", str(bad), "--k", "2")
    assert (code, out) == (2, "") and err.count("\n") == 1 and "names must be strings" in err
    # the payoff-game record refuses what the other records refuse
    for players, strategies, says in ((["p", "p"], ["a"], "duplicate names"),
                                      (["p"], [], "empty domain for p")):
        bad.write_text(json.dumps({
            "kind": "payoffgame", "carrier": None, "players": players,
            "strategies": {"p": strategies}, "neigh": {"p": []},
            "payoffs": {"p": [{"when": [v], "value": "1"} for v in strategies]}}))
        for command in ("game-nash", "game-pareto", "regret-constraints", "map-to-scsp",
                        "pareto-nash"):
            code, _, err = run(capsys, command, str(bad))
            assert code == 2 and says in err and err.count("\n") == 1, command
    for argv in (["to-game", str(tmp_path)],
                 ["check", "--theorem", "regrets", "--seeds", "x"],
                 ["check", "--theorem", "regrets", "--seeds", "3.."]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and err.count("\n") == 1
    # a range that holds no seed would report a success that tested nothing
    for seeds in ("3..1", "1..-1"):
        code, out, err = run(capsys, "check", "--theorem", "regrets", "--seeds", seeds)
        assert (code, out) == (2, "") and "A <= B" in err and err.count("\n") == 1

    # values of at most 1,000 digits each whose sum has about 5,000 digits,
    # more than Python writes as text
    bad.write_text(json.dumps({
        "kind": "scsp", "semiring": "weighted", "variables": ["x"], "domains": {"x": ["a"]},
        "constraints": [{"scope": ["x"], "table": [{"tuple": ["a"], "value": "1/%d" % p ** k}]}
                        for p, k in ((2, 3300), (3, 2090), (7, 1180), (11, 958), (13, 896))]}))
    code, _, err = run(capsys, "scsp-solve", str(bad))
    assert code == 3 and "digits" in err and err.count("\n") == 1
    # a technology table is bounded by its cells, k orders of k technologies
    # for a node with one in-neighbour, not by its k rows alone
    code, out, err = run(capsys, "tech-game", fx("diamond.graph.json"), "--k", "100000")
    assert (code, out) == (3, "") and err.count("\n") == 1
    assert "preference table of n1 has 10000000000 elements" in err
    monkeypatch.setenv("OPTIFORM_MAX_SPACE", "abc")
    code, _, err = run(capsys, "scsp-solve", fx("fuzzy_chain.scsp.json"))
    assert code == 2 and "OPTIFORM_MAX_SPACE" in err

    # tables that outgrow their input obey the bound too
    game = tmp_path / "cyclic4.ppgame.json"
    game.write_text(run(capsys, "to-game", fx("cyclic4.cpnet.json"))[1])
    monkeypatch.setenv("OPTIFORM_MAX_SPACE", "2")
    for argv in (["scsp-solve", fx("fuzzy_chain.scsp.json")],
                 ["map-global", fx("fuzzy_chain.scsp.json")],
                 ["map-local", fx("fuzzy_chain.scsp.json")],
                 ["tech-game", fx("diamond.graph.json"), "--k", "2"],
                 ["to-cpnet", str(game)]):
        code, _, err = run(capsys, *argv)
        assert code == 3 and "exhaust" in err
    # the searches for optima and equilibria check the bound before they start
    for argv, space in (
        (["cpnet-optimal", fx("acyclic4.cpnet.json")], "outcome space has 16"),
        (["cpnet-eligible", fx("acyclic4.cpnet.json")], "outcome space has 16"),
        (["game-nash", fx("pd.ppgame.json")], "outcome space has 4"),
        (["game-nash", fx("pd.payoffgame.json")], "joint strategy space has 4"),
        (["pareto-nash", fx("pd.payoffgame.json")], "joint assignment space has 4"),
    ):
        assert run(capsys, *argv) == (
            3, "", "bound exhausted: %s elements, exceeding the bound 2\n" % space)


def test_bounds_are_checked_before_any_table_is_built(capsys, tmp_path, monkeypatch):
    """A command whose tables would outgrow the bound fails before it builds
    the first of them, with the message of the first table too large."""
    calls = []

    def product(*iterables, **kw):
        calls.append(iterables)
        return itertools.product(*iterables, **kw)

    counting = types.SimpleNamespace(**vars(itertools))
    counting.product = product
    # players without neighbours: the full table of a holds 2 * 2 cells,
    # those of b and c 10 * 2 each
    strategies = {"a": ["x%d" % j for j in range(10)], "b": ["y0", "y1"], "c": ["z0", "z1"]}
    game = tmp_path / "wide.ppgame.json"
    game.write_text(json.dumps({
        "kind": "ppgame", "players": ["a", "b", "c"], "strategies": strategies,
        "neigh": {p: [] for p in strategies},
        "prefs": {p: [{"when": [], "order": s}] for p, s in strategies.items()}}))
    monkeypatch.setenv("OPTIFORM_MAX_SPACE", "10")
    for argv, says in (
        (["tech-game", fx("diamond.graph.json"), "--k", "3"],
         "preference table of n3 has 27 elements"),
        (["to-cpnet", str(game)], "full table of b has 20 elements"),
    ):
        with monkeypatch.context() as m:
            m.setattr(pgame, "itertools", counting)
            m.setattr(cpnet, "itertools", counting)
            code, out, err = run(capsys, *argv)
        assert (code, out, calls) == (3, "", []), argv
        assert err == "bound exhausted: %s, exceeding the bound 10\n" % says


@pytest.fixture
def collecting():
    """Gives back the collector's state after the test, whatever it set."""
    before = gc.isenabled()
    yield
    (gc.enable if before else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False])
def test_commands_run_with_the_collector_paused(capsys, tmp_path, monkeypatch, collecting,
                                                enabled):
    """`main` runs each command with the cyclic collector off and leaves it
    as it found it, on success, on a refused document, on an exhausted
    bound and on an unreadable file."""
    seen = []
    is_eligible = cpnet.is_eligible

    def spy(net):
        seen.append(gc.isenabled())
        return is_eligible(net)

    monkeypatch.setattr(cpnet, "is_eligible", spy)
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "mystery"}')
    (gc.enable if enabled else gc.disable)()
    for argv, expected in (
        (["cpnet-eligible", fx("acyclic4.cpnet.json")], 0),
        (["cpnet-eligible", str(bad)], 2),
        (["cpnet-eligible", str(tmp_path / "missing.json")], 2),
        (["cpnet-eligible", str(tmp_path)], 2),
    ):
        assert run(capsys, *argv)[0] == expected, argv
        assert gc.isenabled() is enabled, argv
    monkeypatch.setenv("OPTIFORM_MAX_SPACE", "2")
    assert run(capsys, "cpnet-eligible", fx("acyclic4.cpnet.json"))[0] == 3
    assert gc.isenabled() is enabled
    assert seen == [False, False]


def test_commands_leave_no_cyclic_garbage(capsys, tmp_path, collecting):
    """What a command builds is freed by reference counting alone, so the
    collector it runs without would find nothing: after every fixture
    command, a few `check` suites and some refused runs, a collection finds
    no dict and no optiform object unreachable."""
    cases = [argv for key, argv in golden_cases(tmp_path) if argv[0] != "check"]
    cases += [["check", "--theorem", t, "--seeds", "1..5"]
              for t in ("net_game_equivalence", "elimination_fixpoint_net", "global_map",
                        "pareto_nash", "tech_adoption")]
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "cpnet", "variables": ["A", "A"]}')
    cases += [["cpnet-optimal", str(bad)], ["to-game", str(tmp_path / "missing.json")],
              ["tech-game", fx("diamond.graph.json"), "--k", "100000"]]
    for argv in cases:  # building a parser leaves argparse objects in cycles
        cli.build_parser(argv[0])
    gc.disable()
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        for argv in cases:
            run(capsys, *argv)
        gc.collect()
        garbage = [type(o) for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert dict not in garbage
    assert [t for t in garbage if t.__module__.startswith("optiform")] == []


#: The runs of each document kind for `test_mutated_documents`; "@" stands
#: for the document itself, "first"/"last" for the outcome of every first
#: or last domain value.
MUTATED_RUNS = {
    "cpnet": [["cpnet-optimal"], ["cpnet-sweep"], ["cpnet-eligible"], ["cpnet-opt-constraints"],
              ["cpnet-reduce"], ["cpnet-eliminate", "--mode", "s"], ["to-game"],
              ["cpnet-dominates", "--better", "first", "--worse", "last"]],
    "scsp": [["scsp-solve"], ["scsp-join", "@"], ["map-local"], ["map-global"]],
    "ppgame": [["game-nash"], ["game-hierarchical"], ["to-cpnet"],
               ["game-eliminate", "--mode", "nbr"]],
    "payoffgame": [["game-nash"], ["game-pareto"], ["regret-constraints"], ["map-to-scsp"],
                   ["pareto-nash"]],
    "graph": [["tech-game", "--k", "2"], ["well-structured"]],
}


def nodes(doc, path=()):
    """The path of every node of a JSON document, the root first."""
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from nodes(child, path + (key,))


def mutated(doc, how, rng):
    """A copy of `doc` with one seeded change of the kind `how`."""
    doc = copy.deepcopy(doc)
    paths = list(nodes(doc))

    def at(path):
        node = doc
        for key in path:
            node = node[key]
        return node

    if how == "drop a key":
        node = at(rng.choice([p for p in paths if isinstance(at(p), dict) and at(p)]))
        del node[rng.choice(sorted(node))]
        return doc
    if how == "repeat a cell or a name":
        node = at(rng.choice([p for p in paths if isinstance(at(p), list) and at(p)]))
        node.append(copy.deepcopy(rng.choice(node)))
        return doc
    path = rng.choice(paths[1:])
    old = at(path)
    new = {"swap a type": 7 if isinstance(old, str) else "x",
           "wrap a value in a list": [old],
           "insert a huge number": 10 ** 400}[how]
    at(path[:-1])[path[-1]] = new
    return doc


#: One of each kind of mutation, and a second repeat, since a repeated cell
#: or name is what the record and cell checks must catch.
MUTATIONS = ("drop a key", "swap a type", "repeat a cell or a name", "wrap a value in a list",
             "insert a huge number", "repeat a cell or a name")


def test_mutated_documents(capsys, tmp_path):
    """Every command that reads a document's kind, on seeded mutations of
    every fixture, ends in a result (exit 0) or in exit 2 or 3 with one
    line on stderr, never in a traceback."""
    target = tmp_path / "mutated.json"
    runs = 0
    for seed, path in enumerate(sorted(FIXTURES.glob("*.json"))):
        doc = json.loads(path.read_text())
        rng = random.Random(seed)
        values = {end: ",".join(doc["domains"][v][k] for v in doc["variables"])
                  for end, k in (("first", 0), ("last", -1))} if doc["kind"] == "cpnet" else {}
        for how in MUTATIONS:
            target.write_text(json.dumps(mutated(doc, how, rng)))
            for command, *options in MUTATED_RUNS[doc["kind"]]:
                options = [str(target) if a == "@" else values.get(a, a) for a in options]
                code, _, err = run(capsys, command, str(target), *options)
                assert code in (0, 2, 3), (path.name, how, command)
                assert code == 0 or err.count("\n") == 1, (path.name, how, command, err)
                runs += 1
    assert 300 <= runs <= 400


def test_output_is_deterministic(capsys):
    _, first, _ = run(capsys, "scsp-solve", fx("weighted_mixed.scsp.json"))
    _, second, _ = run(capsys, "scsp-solve", fx("weighted_mixed.scsp.json"))
    assert first == second


#: Seeds of the `check` runs in `golden_cases`.
GOLDEN_SEEDS = "1..3"


def golden_cases(tmp_path):
    """Every subcommand run on each fixture of a kind it accepts, and on
    documents derived from the fixtures: the to-game output of each CP-net
    fixture, so the game commands also meet cyclic and graphical games; the
    map-local and map-global outputs of each soft CSP fixture, the only
    carrier-valued payoff games; and the map-to-scsp output of each payoff
    game fixture, a product-valued soft CSP.  Each `check` theorem runs on
    GOLDEN_SEEDS.  Returns a list of (key, argv) pairs; keys name documents
    by fixture, not by path, and "@" in a run stands for its own document."""
    docs = {p.name: str(p) for p in sorted(FIXTURES.glob("*.json"))}
    derived = []
    for name in list(docs):
        kind, obj = serialize.load_path(docs[name])
        if kind == "cpnet":
            derived.append(("to-game:" + name, name.replace(".cpnet.", ".ppgame."),
                            bridge.game_of_cpnet(obj)))
        if kind == "scsp":
            for command, translate in (("map-local", bridge.local_map),
                                       ("map-global", bridge.global_map)):
                target = name.replace(".scsp.", ".%s.payoffgame." % command)
                derived.append(("%s:%s" % (command, name), target, translate(obj)))
        if kind == "payoffgame":
            derived.append(("map-to-scsp:" + name, name.replace(".payoffgame.", ".scsp."),
                            bridge.scsp_of_game(obj)))
    for key, target, obj in derived:
        path = tmp_path / target
        path.write_text(serialize.dumps(obj))
        docs[key] = str(path)
    cases = [("check --theorem %s --seeds %s" % (t, GOLDEN_SEEDS),
              ["check", "--theorem", t, "--seeds", GOLDEN_SEEDS])
             for t in sorted(oracle.THEOREMS)]
    for name, path in docs.items():
        doc = json.loads(pathlib.Path(path).read_text())
        kind = doc["kind"]
        runs = []
        if kind == "cpnet":
            runs += [[c] for c in ("cpnet-optimal", "cpnet-sweep", "cpnet-eligible",
                                   "cpnet-opt-constraints", "cpnet-reduce", "to-game")]
            runs += [["cpnet-eliminate", "--mode", m] for m in ("nbr", "s")]
            first = ",".join(doc["domains"][v][0] for v in doc["variables"])
            last = ",".join(doc["domains"][v][-1] for v in doc["variables"])
            runs += [["cpnet-dominates", "--better", first, "--worse", last],
                     ["cpnet-dominates", "--better", last, "--worse", first],
                     ["cpnet-dominates", "--better", first, "--worse", last,
                      "--budget", "1"]]
        if kind == "scsp":
            runs += [["scsp-solve"], ["scsp-join", "@"], ["map-local"], ["map-global"]]
        if kind == "ppgame":
            runs += [["game-nash"], ["game-hierarchical"], ["to-cpnet"]]
            runs += [["game-eliminate", "--mode", m] for m in ("nbr", "s")]
        if kind == "payoffgame":
            runs += [["game-nash"], ["game-pareto"], ["regret-constraints"]]
            for command in ("map-to-scsp", "pareto-nash"):
                runs += [[command], [command, "--offset", "10"]]
        if kind == "graph":
            runs += [["tech-game", "--k", k] for k in ("1", "2", "3")]
            runs += [["well-structured"]]
        for run_ in runs:
            key = " ".join([run_[0], name] + [name if a == "@" else a for a in run_[1:]])
            argv = [run_[0], path] + [path if a == "@" else a for a in run_[1:]]
            cases.append((key, argv))
    return cases


def record_golden(capsys, tmp_path):
    out = {}
    for key, argv in golden_cases(tmp_path):
        code, stdout, stderr = run(capsys, *argv)
        out[key] = {"exit": code, "stdout": stdout, "stderr": stderr}
    return out


def test_golden_outputs(capsys, tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = record_golden(capsys, tmp_path)
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key
