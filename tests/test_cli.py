import contextlib
import copy
import gc
import io
import itertools
import json
import operator
import os
import pathlib
import random
import re
import resource
import subprocess
import sys
import types

import pytest
from hypothesis import given, settings, strategies as st

from optiform import bridge, cli, cpnet, oracle, pgame, semiring, serialize, softcsp
from optiform.errors import OptiformError
from tests import referees
from tests.conftest import FIXTURES

#: The stdout, stderr and exit code of every case in `golden_cases`, as
#: `record_golden` wrote them; rewrite it, with `scripts/record_goldens.py`,
#: only for an intended output change.
GOLDEN = pathlib.Path(__file__).resolve().parent / "golden_cli.json"
ROOT = GOLDEN.parent.parent


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
    assert net.parents[2] == ()


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
    assert all(len(ps) == 3 for ps in net.parents)


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
    assert kind == "ppgame" and game.domains[0] == ("t1", "t2")

    code, out, _ = run(capsys, "well-structured", fx("diamond.graph.json"))
    doc = json.loads(out)
    assert code == 0 and doc["well_structured"] is True
    assert doc["levels"]["n0"] == 0

    code, out, _ = run(capsys, "well-structured", fx("cycle3.graph.json"))
    doc = json.loads(out)
    assert doc["well_structured"] is False and doc["levels"] is None


def test_tech_game_checks_the_bound_before_building_technologies(tmp_path):
    """A technology count far past the bound ends at once with exit 3, not
    after building every technology's name, and a graph with no node, which
    has no table to bound, needs no technology: each child runs under a
    limit on its address space, so a regression fails here rather than
    exhausting the test machine's memory."""
    limit = 256 << 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env.pop("OPTIFORM_MAX_SPACE", None)
    empty = tmp_path / "empty.graph.json"
    empty.write_text('{"kind": "graph", "nodes": [], "edges": []}')
    runs = {}
    for graph in (fx("diamond.graph.json"), str(empty)):
        proc = subprocess.run([sys.executable, "-m", "optiform.cli", "tech-game", graph,
                               "--k", str(10 ** 8)], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=60, preexec_fn=cap)
        runs[graph] = proc.returncode, proc.stdout, proc.stderr
    code, out, err = runs[fx("diamond.graph.json")]
    assert (code, out) == (3, "")
    assert re.fullmatch(r"bound exhausted: [^\n]*\n", err), err
    code, out, err = runs[str(empty)]
    assert (code, err) == (0, "")
    assert serialize.loads(out) == ("ppgame", pgame.PPGame((), (), (), ()))


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
        # an empty object or string where a list belongs would read as no entries
        ("scsp-solve", '{"kind": "scsp", "semiring": "weighted", "variables": ["x"], "domains": '
         '{"x": ["a"]}, "constraints": {}}', '"constraints" must be a list, not dict'),
        ("scsp-solve", '{"kind": "scsp", "semiring": "weighted", "variables": ["x"], "domains": '
         '{"x": ["a"]}, "constraints": ""}', '"constraints" must be a list, not str'),
        ("well-structured", '{"kind": "graph", "nodes": ["a"], "edges": {}}',
         '"edges" must be a list, not dict'),
        ("well-structured", '{"kind": "graph", "nodes": ["a"], "edges": ""}',
         '"edges" must be a list, not str'),
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
        # a product value of the wrong arity, and a variable with no table
        ("scsp-solve", scsp.replace('"weighted"', '{"product": ["fuzzy", "weighted"]}') % '["1"]',
         "error: constraint 0 over ['x']: product value needs a list of arity 2\n"),
        ("cpnet-optimal", '{"kind": "cpnet", "variables": ["A"], "domains": {"A": ["a"]}, '
         '"tables": {}}', "error: missing table for variable A\n"),
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
    # a self-loop is refused in the graph's terms, on which well-structured answers
    bad.write_text('{"kind": "graph", "nodes": ["a", "b"], "edges": [["a", "a"], ["a", "b"]]}')
    assert run(capsys, "tech-game", str(bad), "--k", "2") == (
        2, "", "error: graph node a has an edge to itself, which a technology game "
               "cannot have\n")
    code, out, _ = run(capsys, "well-structured", str(bad))
    assert code == 0 and json.loads(out)["well_structured"] is False
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

    # a carrier nested past the bound is refused as it is read, before the
    # recursive readers, comparisons and codes of a carrier could overflow
    # the stack; one nested as deep as the bound is solved
    def nested(depth):
        carrier, value = "weighted", "1"
        for _ in range(depth):
            carrier, value = {"product": [carrier]}, [value]
        return carrier, value

    for depth in (serialize.MAX_NESTING, serialize.MAX_NESTING + 1):
        carrier, value = nested(depth)
        bad.write_text(json.dumps({
            "kind": "scsp", "semiring": carrier, "variables": ["x"], "domains": {"x": ["a"]},
            "constraints": [{"scope": ["x"], "table": [{"tuple": ["a"], "value": value}]}]}))
        solved = [run(capsys, "scsp-solve", str(bad)), run(capsys, "scsp-join", str(bad), str(bad))]
        bad.write_text(json.dumps({
            "kind": "payoffgame", "carrier": carrier, "players": ["p"], "strategies": {"p": ["a"]},
            "neigh": {"p": []}, "payoffs": {"p": [{"when": ["a"], "value": value}]}}))
        code, out, err = run(capsys, "game-nash", str(bad))
        assert (code, out) == (2, "") and err.count("\n") == 1
        if depth == serialize.MAX_NESTING:
            assert [(c, e) for c, _, e in solved] == [(0, ""), (0, "")]
            assert "linearly ordered" in err
        else:
            assert solved == [(2, "", "error: a semiring spec nests at most %d products\n"
                               % serialize.MAX_NESTING)] * 2
            assert err == solved[0][2]

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
        (["pareto-nash", fx("pd.payoffgame.json")], "joint strategy space has 4"),
    ):
        assert run(capsys, *argv) == (
            3, "", "bound exhausted: %s elements, exceeding the bound 2\n" % space)


def test_a_failed_write_leaves_stdout_empty(capsys, tmp_path):
    """A value that overflows only as it is written ends in exit 3 and one
    line, with nothing on stdout: every chunk of a command's output is made
    before the first is written.  The map-global payoff of x is 1/p + 1/q,
    for coprime p and q of 400 digits that Python reads, and its
    denominator p*q has more digits than Python then writes."""
    p, q = 10 ** 399 + 1, 10 ** 399 + 2
    doc = tmp_path / "sum.scsp.json"
    doc.write_text(json.dumps({
        "kind": "scsp", "semiring": "weighted", "variables": ["x"], "domains": {"x": ["a"]},
        "constraints": [{"scope": ["x"], "table": [{"tuple": ["a"], "value": "1/%d" % d}]}
                        for d in (p, q)]}))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(capsys, "map-global", str(doc))
    finally:
        sys.set_int_max_str_digits(limit)
    assert (code, out) == (3, "") and err.count("\n") == 1 and "640" in err


def test_bounds_are_checked_before_any_table_is_built(capsys, tmp_path, monkeypatch):
    """A command whose tables would outgrow the bound fails before it builds
    the first of them, with the message of the first table too large.  A
    table is built from the tuples of a product or a bounded space, so each
    of these is counted as it is drawn."""
    drawn = []

    def counted(tuples):
        for t in tuples:
            drawn.append(t)
            yield t

    counting = types.SimpleNamespace(**vars(itertools))
    counting.product = lambda *iterables: counted(itertools.product(*iterables))
    space = softcsp.space
    # players without neighbours: the full table of a holds 2 * 2 cells,
    # those of b and c 10 * 2 each
    strategies = {"a": ["x%d" % j for j in range(10)], "b": ["y0", "y1"], "c": ["z0", "z1"]}
    game = tmp_path / "wide.ppgame.json"
    game.write_text(json.dumps({
        "kind": "ppgame", "players": ["a", "b", "c"], "strategies": strategies,
        "neigh": {p: [] for p in strategies},
        "prefs": {p: [{"when": [], "order": s}] for p, s in strategies.items()}}))
    # the payoff table of x holds 2 cells, those of y and z 2 * 10 each
    scsp = tmp_path / "wide.scsp.json"
    scsp.write_text(json.dumps({
        "kind": "scsp", "semiring": "weighted", "variables": ["x", "y", "z"],
        "domains": {"x": ["a", "b"], "y": ["a", "b"], "z": ["c%d" % j for j in range(10)]},
        "constraints": [
            {"scope": ["x"], "table": [{"tuple": [v], "value": "1"} for v in "ab"]},
            {"scope": ["y", "z"], "table": [{"tuple": [v, "c%d" % j], "value": "1"}
                                            for v in "ab" for j in range(10)]}]}))
    # the optimality table of A holds 2 cells, that of B 2 * 6
    net = tmp_path / "wide.cpnet.json"
    net.write_text(json.dumps({
        "kind": "cpnet", "variables": ["A", "B"], "domains": {"A": ["a", "b"], "B": list("uvwxyz")},
        "tables": {"A": {"parents": [], "rows": [{"when": [[]], "order": ["a", "b"]}]},
                   "B": {"parents": ["A"], "rows": [{"when": [["a"]], "order": list("uvwxyz")},
                                                    {"when": [["b"]], "order": list("zyxwvu")}]}}}))
    monkeypatch.setenv("OPTIFORM_MAX_SPACE", "10")
    for argv, says in (
        (["tech-game", fx("diamond.graph.json"), "--k", "3"],
         "preference table of n3 has 27 elements"),
        (["to-cpnet", str(game)], "full table of b has 20 elements"),
        (["map-local", str(scsp)], "payoff table of y has 20 elements"),
        (["cpnet-opt-constraints", str(net)], "optimality table of B has 12 elements"),
    ):
        with monkeypatch.context() as m:
            m.setattr(pgame, "itertools", counting)
            m.setattr(cpnet, "itertools", counting)
            m.setattr(softcsp, "space", lambda *args: counted(space(*args)))
            code, out, err = run(capsys, *argv)
        assert (code, out, drawn) == (3, "", []), argv
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
    bound and on an unreadable file.  It freezes nothing: only the process
    entry does, or a caller would keep every object it made for life."""
    seen = []
    is_eligible = cpnet.is_eligible

    def spy(net):
        seen.append(gc.isenabled())
        return is_eligible(net)

    monkeypatch.setattr(cpnet, "is_eligible", spy)
    bad = tmp_path / "bad.json"
    bad.write_text('{"kind": "mystery"}')
    frozen = gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    for argv, expected in (
        (["cpnet-eligible", fx("acyclic4.cpnet.json")], 0),
        (["cpnet-eligible", str(bad)], 2),
        (["cpnet-eligible", str(tmp_path / "missing.json")], 2),
        (["cpnet-eligible", str(tmp_path)], 2),
    ):
        assert run(capsys, *argv)[0] == expected, argv
        assert gc.isenabled() is enabled, argv
        assert gc.get_freeze_count() == frozen, argv
    monkeypatch.setenv("OPTIFORM_MAX_SPACE", "2")
    assert run(capsys, "cpnet-eligible", fx("acyclic4.cpnet.json"))[0] == 3
    assert gc.isenabled() is enabled
    assert gc.get_freeze_count() == frozen
    assert seen == [False, False]


def process(*args):
    """The exit code, stdout and stderr of `python args...`, run in a fresh
    interpreter at the root of the checkout with ./src first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def test_process_entry(capsys, tmp_path):
    """`python -m optiform.cli` ends as `main` does in process, byte for
    byte, on each exit code; and both it and the installed script's entry
    freeze what is left alive before the exit handlers run."""
    cases = dict(golden_cases(tmp_path))
    runs = [cases[key] for key in (
        "cpnet-optimal cyclic4.cpnet.json",
        "cpnet-sweep cyclic2.cpnet.json",
        "cpnet-dominates acyclic4.cpnet.json --better a,b,c,d --worse a~,b~,c~,d~ --budget 1",
    )]
    runs.append(["check", "--theorem", "strict_monotone_inclusion", "--seeds", "77"])
    codes = []
    for argv in runs:
        code, out, err = run(capsys, *argv)
        assert process("-m", "optiform.cli", *argv) == (code, out.encode(), err.encode()), argv
        codes.append(code)
    assert sorted(codes) == [0, 1, 2, 3]

    script = re.search(r'^optiform = "(.+):(.+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    argv = ["cpnet-eligible", fx("acyclic4.cpnet.json")]
    code, out, _ = run(capsys, *argv)
    for call in ("runpy.run_module('optiform.cli', run_name='__main__')",
                 "importlib.import_module(%r).%s()" % script.groups()):
        assert process("-c", """if True:
            import atexit, gc, importlib, runpy, sys
            atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0, file=sys.stderr))
            %s
        """ % call, *argv) == (code, out.encode(), b"frozen True\n"), call


@pytest.mark.parametrize("target", ["full", "pipe"])
def test_unwritable_stdout_ends_in_one_error_line(tmp_path, target):
    """A full disk or a pipe whose reader has gone ends the process with
    exit 2 and one error line, for a short and a long output and for
    argparse's help alike, when stdout is block-buffered, as it is on a
    file or a pipe."""
    if target == "full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    n = 600  # a chain of two-valued variables, written as about 100 KB
    rows = ({(): ("a", "b")},) + ({("a",): ("a", "b"), ("b",): ("b", "a")},) * (n - 1)
    net = cpnet.CPNet(tuple("V%d" % i for i in range(n)), (("a", "b"),) * n,
                      ((),) + tuple((i,) for i in range(n - 1)), rows)
    chain = tmp_path / "chain.cpnet.json"
    chain.write_text(serialize.dumps(net))
    assert chain.stat().st_size > 100_000
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    for argv in (["cpnet-optimal", fx("cyclic4.cpnet.json")], ["cpnet-reduce", str(chain)],
                 ["--help"], ["cpnet-optimal", "--help"]):
        if target == "full":
            out = os.open("/dev/full", os.O_WRONLY)
        else:
            read, out = os.pipe()
            os.close(read)
        try:
            proc = subprocess.run([sys.executable, "-m", "optiform.cli", *argv], env=env,
                                  stdout=out, stderr=subprocess.PIPE, text=True)
        finally:
            os.close(out)
        assert proc.returncode == 2, (argv, proc.stderr)
        assert re.fullmatch(r"error: \[Errno (28|32)\] [^\n]*\n", proc.stderr), (argv, proc.stderr)


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


def test_an_error_naming_a_line_break_is_one_line(capsys, tmp_path):
    """A message quoting a name that holds line breaks is still reported on
    one line, each break written as its escape."""
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"kind": "cpnet", "variables": ["a\nb\u2028c"],
                                "domains": {"a\nb\u2028c": ["x"]},
                                "tables": {"a\nb\u2028c": {"parents": [], "rows": []}}}))
    assert run(capsys, "cpnet-reduce", str(path)) == (
        2, "", "error: cpnet: table of a\\nb\\u2028c misses the tuple ()\n")


#: Strings to escape, and numbers negative and fractional: the values and
#: names of drawn documents.
_strings = st.text(alphabet='ab"\\\n\u00e9\u2603', min_size=1, max_size=3)
_numbers = st.one_of(st.integers(-3, 3), st.integers(-6, 6).map(lambda k: k / 4))
_domains = st.one_of(*(st.lists(v, min_size=1, max_size=3, unique=True)
                       for v in (_strings, _numbers)))
_rationals = st.fractions(-3, 3, max_denominator=4).map(str)
#: True in one draw of eight.  Rare cases and counts are sampled: Hypothesis
#: draws the small values of `st.integers` far more often than the others.
_rarely = st.sampled_from((False,) * 7 + (True,))
#: carrier -> the JSON values drawn for it; a product carrier, which is
#: not linear, orders no game
_CELLS = {
    "boolean": st.sampled_from([0, 1]),
    "fuzzy": st.one_of(st.fractions(0, 1, max_denominator=4).map(str), st.just(0.5)),
    "weighted": st.one_of(st.just("inf"), st.fractions(0, 5, max_denominator=3).map(str)),
}
_CELLS["product"] = st.tuples(_CELLS["fuzzy"], _CELLS["weighted"]).map(list)
_SPECS = {"product": {"product": ["fuzzy", "weighted"]}}


def _tuples(domains, scope):
    """Every tuple over `scope`, as JSON lists."""
    return list(map(list, itertools.product(*(domains[i] for i in scope))))


@st.composite
def _scsp_documents(draw, header=None):
    """A drawn soft CSP of up to three constraints, over the (names,
    domains, carrier) of `header` or over drawn ones.  Each scope is one to
    three distinct variables, so that constraints share variables; one in
    eight is empty."""
    if header is None:
        names = draw(st.lists(_strings, min_size=1, max_size=4, unique=True))
        header = names, [draw(_domains) for _ in names], draw(st.sampled_from(sorted(_CELLS)))
    names, domains, carrier = header
    constraints = []
    for _ in range(draw(st.sampled_from((3, 2, 1, 0)))):
        scope = draw(st.just([]) if draw(_rarely) else st.lists(
            st.integers(0, len(names) - 1), min_size=1, max_size=min(3, len(names)), unique=True))
        constraints.append({"scope": [names[i] for i in scope], "table": [
            {"tuple": t, "value": draw(_CELLS[carrier])} for t in _tuples(domains, scope)]})
    return {"kind": "scsp", "variables": names, "domains": dict(zip(names, domains)),
            "semiring": _SPECS.get(carrier, carrier), "constraints": constraints}


@st.composite
def _join_partners(draw, doc):
    """A second soft CSP to join with `doc`: over its header, in its
    carrier, the boolean one or another one, or drawn on its own, so
    mostly over another header or carrier."""
    how = draw(st.sampled_from(("same", "boolean", "other", "own")))
    if how == "own":
        return draw(_scsp_documents())
    own = "product" if isinstance(doc["semiring"], dict) else doc["semiring"]
    carrier = (draw(st.sampled_from(sorted(set(_CELLS) - {own, "boolean"})))
               if how == "other" else "boolean" if how == "boolean" else own)
    return draw(_scsp_documents((doc["variables"], [doc["domains"][n] for n in doc["variables"]],
                                 carrier)))


@st.composite
def _payoffgame_documents(draw):
    players = draw(st.lists(_strings, min_size=1, max_size=3, unique=True))
    strategies = [draw(_domains) for _ in players]
    carrier = draw(st.sampled_from([None] + sorted(_CELLS)))
    cells = _rationals if carrier is None else _CELLS[carrier]
    neigh, payoffs = {}, {}
    for i, p in enumerate(players):
        others = [j for j in range(len(players)) if j != i]
        ns = draw(st.lists(st.sampled_from(others), unique=True) if others else st.just([]))
        neigh[p] = [players[j] for j in ns]
        payoffs[p] = [{"when": t, "value": draw(cells)}
                      for t in _tuples(strategies, sorted(ns + [i]))]
    return {"kind": "payoffgame", "players": players, "strategies": dict(zip(players, strategies)),
            "neigh": neigh, "carrier": _SPECS.get(carrier, carrier),
            "payoffs": payoffs}


def referee_report(command, obj):
    """The report `command` writes on `obj`, built from `tests/referees.py`."""
    def preferences(pairs, field):
        return [{field: list(s), "preference": serialize.payload_to_json(p.spec, p.payload)}
                for s, p in pairs]
    if command == "scsp-solve":
        return {"optimal": preferences(referees.optimal_solutions(obj), "assignment")}
    if command == "pareto-nash":
        return {"equilibria": preferences(referees.pareto_nash(obj), "joint_strategy")}
    def payoffs(found):
        return [{"joint_strategy": list(s), "payoffs": {
            p: serialize.payoff_to_json(obj, obj.payoff(i, s)) for i, p in enumerate(obj.players)}}
            for s in found]
    if command == "game-nash":
        return {"game_kind": "payoffgame", "nash": payoffs(referees.nash(obj))}
    return {"pareto": payoffs(referees.pareto(obj))}


def translation_refuses(command, obj):
    """Whether a translation must refuse a loaded record: the maps of a soft
    CSP need a linear carrier, the cost tuples of map-to-scsp plain
    payoffs."""
    if command in ("map-local", "map-global"):
        return not semiring.is_linear(obj.semiring)
    return command == "map-to-scsp" and obj.carrier is not None


def assert_translates(command, obj, out):
    """The record a translation wrote on `obj` is what the paper says it
    is: the local game pays each player the combination of its incident
    constraints and the global game the solution preference; the boolean
    solutions of the no-regret constraints are the Nash equilibria
    (`referees.nash`) and the optima of the cost-tuple problem the
    Pareto-efficient joint strategies (`referees.pareto`)."""
    if command == "regret-constraints":
        assert referees.boolean_solutions(out) == referees.nash(obj)
    elif command == "map-to-scsp":
        assert [s for s, _ in referees.optimal_solutions(out)] == referees.pareto(obj)
    else:
        assert (out.players, out.strategies, out.carrier) == (
            obj.variables, obj.domains, obj.semiring)
        for s in obj.assignments():
            for i in range(len(obj.variables)):
                want = (softcsp.solution_preference(obj, s) if command == "map-global" else
                        semiring.combine_all(obj.semiring, [
                            c.table[tuple(s[j] for j in c.scope)]
                            for c in obj.constraints if i in c.scope]))
                assert out.payoff(i, s) == want, (command, s, i)


def joined(first, second):
    """The problem scsp-join must write on two soft CSPs: the constraints of
    both, in order, over their shared variables and domains, in the
    carrier of the one that is not boolean, a boolean one's constraints
    lifted into it (1 to its one, 0 to its zero); or None where the
    variables, the domains or two carriers that are not boolean differ."""
    spec = first.semiring if second.semiring.kind == "boolean" else second.semiring
    if ((first.variables, first.domains) != (second.variables, second.domains)
            or first.semiring not in (spec, semiring.BOOLEAN)):
        return None

    def lifted(problem):
        if problem.semiring == spec:
            return problem.constraints
        top, bottom = semiring.one(spec), semiring.zero(spec)
        return tuple(softcsp.SoftConstraint(c.scope, {
            t: top if v.payload else bottom for t, v in c.table.items()})
            for c in problem.constraints)
    return softcsp.SoftCSP(first.variables, first.domains, lifted(first) + lifted(second), spec)


def main_output(*argv):
    """The exit code, stdout and stderr of `cli.main` on `argv`."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def assert_refused(argv, ran, codes=(2, 3)):
    """The run of `argv` (its `main_output`) ended in one of `codes` with
    one line on stderr and nothing on stdout."""
    code, out, err = ran
    assert code in codes and out == "", (argv, code)
    assert err.count("\n") == 1, (argv, err)


TRANSLATIONS = ("map-local", "map-global", "regret-constraints", "map-to-scsp")


@settings(max_examples=120, deadline=None)
@given(st.one_of(_scsp_documents(), _payoffgame_documents()), st.data())
def test_drawn_documents_answer_as_the_referees(tmp_path_factory, doc, data):
    """Drawn soft CSPs and payoff games, through `cli.main`: each solver
    exits 0 with the lists and preferences of `tests/referees.py`, in their
    order, and each translation exits 0 with a record `assert_translates`
    accepts; or, where loading, the referee or `translation_refuses`
    refuses the record too, exits 2 or 3 with one line on stderr and
    nothing on stdout.  scsp-join of a soft CSP with a drawn
    `_join_partners` document, in either order, writes the problem
    `joined` expects, or where that is None, exits 2 with one line on
    stderr."""
    folder = tmp_path_factory.mktemp("drawn")
    path = folder / "doc.json"
    path.write_text(json.dumps(doc))
    commands = ["scsp-solve", "map-local", "map-global"] if doc["kind"] == "scsp" else [
        "game-nash", "game-pareto", "pareto-nash", "regret-constraints", "map-to-scsp"]
    for command in commands:
        code, out, err = ran = main_output(command, str(path))
        try:
            obj = serialize.load_path(str(path))[1]
            expected = (referee_report(command, obj) if command not in TRANSLATIONS
                        else None if translation_refuses(command, obj) else True)
        except OptiformError:
            expected = None
        if expected is None:
            assert_refused(command, ran)
            continue
        assert code == 0, (command, err)
        if command in TRANSLATIONS:
            assert_translates(command, obj, serialize.loads(out)[1])
        else:
            expected["command"] = command
            assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"
    if doc["kind"] == "scsp":
        other = folder / "other.json"
        other.write_text(json.dumps(data.draw(_join_partners(doc))))
        for pair in ((path, other), (other, path)):  # the partner drawn first, too
            code, out, err = ran = main_output("scsp-join", *map(str, pair))
            try:
                expected = joined(*(serialize.load_path(str(p))[1] for p in pair))
            except OptiformError:
                expected = None
            if expected is None:
                assert_refused("scsp-join", ran, (2,))
            else:
                assert code == 0, err
                assert serialize.loads(out) == ("scsp", expected)


#: Domains of three values, for a drawn document to cut to a drawn size.
_full_domains = st.one_of(*(st.lists(v, min_size=3, max_size=3, unique=True)
                            for v in (_strings, _numbers)))


@st.composite
def _preference_documents(draw):
    """A drawn CP-net or PPGame, cyclic or acyclic, of one to four names
    with one to three values each, its sizes, parents and orders drawn by a
    seeded `random.Random`: each table's parents are listed in a drawn
    order, its rows come in a drawn order and vary with a drawn part of its
    parents alone, so the others are redundant; one document in eight
    misses a row.  One cyclic document in two plants a pair of indices of
    two values or more, each the other's parent, whose row tops follow the
    other's value by position: both take the other's position
    (coordination, several stable outcomes), or one takes the position
    after the other's (matching pennies, none)."""
    kind = draw(st.sampled_from(["cpnet", "ppgame"]))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    names = draw(st.lists(_strings, min_size=4, max_size=4, unique=True))[:rng.randint(1, 4)]
    domains = [draw(_full_domains)[:rng.randint(1, 3)] for _ in names]
    acyclic = draw(st.booleans())
    # index -> (its partner, the shift of its top from the partner's position)
    planted = {}
    wide = [i for i, d in enumerate(domains) if len(d) > 1]
    if not acyclic and len(wide) > 1 and rng.random() < 0.5:
        i, j = rng.sample(wide, 2)
        planted = {i: (j, 0), j: (i, rng.randint(0, 1))}
    parents, tables = [], []
    for i in range(len(names)):
        pool = list(range(i)) if acyclic else [j for j in range(len(names)) if j != i]
        ps = rng.sample(pool, rng.randint(0, len(pool)))
        used = {p for p in ps if rng.random() < 0.75}
        if i in planted:
            partner, shift = planted[i]
            if partner not in ps:
                ps.insert(rng.randint(0, len(ps)), partner)
            used.add(partner)
        orders, rows = {}, []
        for t in _tuples(domains, ps):
            context = tuple(v for v, p in zip(t, ps) if p in used)
            if context not in orders:
                orders[context] = rng.sample(domains[i], len(domains[i]))
                if i in planted:
                    at = domains[partner].index(t[ps.index(partner)]) + shift
                    top = domains[i][at % len(domains[i])]
                    orders[context].remove(top)
                    orders[context].insert(0, top)
            rows.append((t, orders[context]))
        rng.shuffle(rows)
        parents.append([names[p] for p in ps])
        tables.append(rows)
    if rng.random() < 1 / 8:
        del tables[0][rng.randrange(len(tables[0]))]
    if kind == "cpnet":
        return {"kind": kind, "variables": names, "domains": dict(zip(names, domains)),
                "tables": {n: {"parents": ps, "rows": [{"when": [t], "order": o} for t, o in rows]}
                           for n, ps, rows in zip(names, parents, tables)}}
    return {"kind": kind, "players": names, "strategies": dict(zip(names, domains)),
            "neigh": dict(zip(names, parents)),
            "prefs": {n: [{"when": t, "order": o} for t, o in rows]
                      for n, rows in zip(names, tables)}}


def _net_document(kind, names, domains, parents, tables):
    """The document of a CP-net or PPGame, as `json.dumps` writes it."""
    rows = {n: [{"when": [list(k)] if kind == "cpnet" else list(k), "order": list(o)}
                for k, o in sorted(t.items())] for n, t in zip(names, tables)}
    ps = {n: [names[p] for p in kept] for n, kept in zip(names, parents)}
    domains = {n: list(d) for n, d in zip(names, domains)}
    doc = ({"variables": names, "domains": domains,
            "tables": {n: {"parents": ps[n], "rows": rows[n]} for n in names}}
           if kind == "cpnet" else
           {"players": names, "strategies": domains, "neigh": ps, "prefs": rows})
    doc["kind"] = kind
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _acyclic(parents):
    """Whether no index is its own ancestor: whether taking, over and over,
    the indices whose parents are all taken takes every index."""
    taken = set()
    while True:
        ready = {i for i, ps in enumerate(parents) if i not in taken and taken.issuperset(ps)}
        if not ready:
            return len(taken) == len(parents)
        taken |= ready


def preference_referee_text(command, names, domains, parents, rows):
    """The text `command` writes on a CP-net or PPGame with these fields,
    or None where it must refuse them.  The solvers' reports are built from
    `referees.stable`: the optimal outcomes and the Nash equilibria are the
    stable outcomes, each strategy of one its own best response, and the
    sweep of an acyclic net reaches its only stable outcome, where a cyclic
    net has no sweep.  The structure is built from
    `referees.essential_parents`: reduce keeps the essential parents,
    reading each row at the first value of every other parent; the
    hierarchy levels place each player one above its highest essential
    neighbour; the translations carry the tables over, to-cpnet reading
    each full row at the player's own neighbours."""
    def report(**fields):
        return json.dumps({"command": command, **fields}, sort_keys=True, indent=2) + "\n"
    if command in ("cpnet-optimal", "cpnet-eligible", "cpnet-sweep", "game-nash"):
        stable = referees.stable(itertools.product(*domains), domains, parents, rows)
        if command == "cpnet-optimal":
            return report(eligible=bool(stable), optimal=[list(o) for o in stable])
        if command == "cpnet-eligible":
            return report(eligible=bool(stable))
        if command == "game-nash":
            return report(game_kind="ppgame", nash=[
                {"joint_strategy": list(s), "best_responses": dict(zip(names, s))}
                for s in stable])
        if not _acyclic(parents):
            return None
        assert len(stable) == 1, stable
        return report(outcome=list(stable[0]))
    essential = [referees.essential_parents(ps, r) for ps, r in zip(parents, rows)]
    if command == "game-hierarchical":
        levels = {}
        while len(levels) < len(names):
            ready = [i for i, deps in enumerate(essential)
                     if i not in levels and all(d in levels for d in deps)]
            if not ready:
                levels = None
                break
            levels.update({i: max([levels[d] + 1 for d in essential[i]], default=0)
                           for i in ready})
        return report(hierarchical=levels is not None,
                      levels=None if levels is None else {names[i]: lv for i, lv in levels.items()})
    if command == "to-game":
        return _net_document("ppgame", names, domains, parents, rows)
    if command == "to-cpnet":
        wide = [tuple(j for j in range(len(names)) if j != i) for i in range(len(names))]
        full = [{k: r[tuple(k[others.index(p)] for p in ps)]
                 for k in itertools.product(*(domains[j] for j in others))}
                for others, ps, r in zip(wide, parents, rows)]
        return _net_document("cpnet", names, domains, wide, full)
    reduced = []
    for ps, r, kept in zip(parents, rows, essential):
        first = {p: domains[p][0] for p in ps}
        reduced.append({k: r[tuple({**first, **dict(zip(kept, k))}[p] for p in ps)]
                        for k in itertools.product(*(domains[p] for p in kept))})
    return _net_document("cpnet", names, domains, essential, reduced)


def assert_keeps_the_stable_outcomes(command, text, names, domains, parents, rows):
    """An elimination report on a CP-net or PPGame keeps each value of every
    stable outcome (`referees.stable`) in its final domains and, when it
    reports "solved", names the only stable outcome; the boolean solutions
    of the optimality problem (`referees.boolean_solutions`) are the stable
    outcomes."""
    stable = referees.stable(itertools.product(*domains), domains, parents, rows)
    if command == "cpnet-opt-constraints":
        assert referees.boolean_solutions(serialize.loads(text)[1]) == stable
        return
    report = json.loads(text)
    final = [report["domains" if command == "cpnet-eliminate" else "strategies"][n]
             for n in names]
    assert all(v in kept for o in stable for v, kept in zip(o, final)), (stable, final)
    if report["solved"]:
        assert stable == [tuple(d[0] for d in final)], (stable, final)
        if command == "cpnet-eliminate":
            assert report["outcome"] == list(stable[0])


def outcome_text(outcome):
    """An outcome as `--better` and `--worse` take it: its values, each a
    string or the JSON text of a number, joined by commas."""
    return ",".join(v if isinstance(v, str) else json.dumps(v) for v in outcome)


@st.composite
def _outcomes(draw, domains):
    """A drawn outcome over `domains`; one in eight is one field short."""
    outcome = tuple(draw(st.sampled_from(d)) for d in domains)
    return outcome[:-1] if draw(_rarely) else outcome


def dominance_report(better, worse, names, domains, parents, rows):
    """The report cpnet-dominates writes at its default budget on a net of
    these fields, from `referees.dominates`; or None where it must refuse
    an outcome that is not one value of each domain."""
    if not all(len(o) == len(domains) and all(map(operator.contains, domains, o))
               for o in (better, worse)):
        return None
    return {"better": list(better), "command": "cpnet-dominates",
            "result": referees.dominates(parents, rows, better, worse), "worse": list(worse)}


@settings(max_examples=100, deadline=None)
@given(_preference_documents(), st.data())
def test_drawn_nets_and_games_answer_as_the_referees(tmp_path_factory, doc, data):
    """Drawn CP-nets and PPGames through `cli.main`: cpnet-optimal,
    cpnet-eligible, cpnet-sweep, cpnet-reduce and to-game on a net,
    game-nash, game-hierarchical and to-cpnet on a game.  Each exits 0 with
    the text of `preference_referee_text`, and a reduced or translated
    record keeps the stable outcomes; or, where loading refuses the
    document (exit 2 or 3) or the sweep meets a cyclic net (exit 2), writes
    one line on stderr and nothing on stdout.  cpnet-eliminate and
    game-eliminate in both modes, and cpnet-opt-constraints, exit 0 with an
    answer that `assert_keeps_the_stable_outcomes` accepts, or where loading
    refuses the document, exit 2 or 3 with one line on stderr.
    cpnet-dominates on drawn `_outcomes` pairs writes `dominance_report`, or
    where that is None, exits 2 with one line on stderr; at `--budget 1` it
    may instead end in exit 3 with the result "budget-exhausted"."""
    path = tmp_path_factory.mktemp("drawn") / "doc.json"
    path.write_text(json.dumps(doc))
    try:
        record = serialize.load_path(str(path))[1]
        fields = record.variables, record.domains, record.parents, record.rows
    except OptiformError:
        fields = None
    eliminate = "cpnet-eliminate" if doc["kind"] == "cpnet" else "game-eliminate"
    commands = [[eliminate, "--mode", "nbr"], [eliminate, "--mode", "s"]] + (
        [["cpnet-optimal"], ["cpnet-eligible"], ["cpnet-sweep"], ["cpnet-reduce"], ["to-game"],
         ["cpnet-opt-constraints"]]
        if doc["kind"] == "cpnet" else [["game-nash"], ["game-hierarchical"], ["to-cpnet"]])
    refused = (2, 3) if fields is None else (2,)
    for command, *options in commands:
        code, out, err = ran = main_output(command, str(path), *options)
        if fields is not None and command in (eliminate, "cpnet-opt-constraints"):
            assert code == 0, (command, err)
            assert_keeps_the_stable_outcomes(command, out, *fields)
            continue
        expected = None if fields is None else preference_referee_text(command, *fields)
        if expected is None:
            assert_refused(command, ran, refused)
            continue
        assert code == 0, (command, err)
        assert out == expected, command
        if command in ("cpnet-reduce", "to-game", "to-cpnet"):
            result = serialize.loads(out)[1]
            outcomes = list(itertools.product(*fields[1]))
            assert referees.stable(outcomes, *fields[1:]) == referees.stable(
                outcomes, result.domains, result.parents, result.rows)
    if doc["kind"] != "cpnet":
        return
    domains = [doc["domains"][n] for n in doc["variables"]]
    for _ in range(2):
        better, worse = data.draw(_outcomes(domains)), data.draw(_outcomes(domains))
        report = None if fields is None else dominance_report(better, worse, *fields)
        for budget in ([], ["--budget", "1"]):
            argv = ["cpnet-dominates", str(path), "--better=" + outcome_text(better),
                    "--worse=" + outcome_text(worse), *budget]
            code, out, err = ran = main_output(*argv)
            if report is None:
                assert_refused(argv, ran, refused)
                continue
            want = report
            if budget and code == cli.EXIT_EXHAUSTED:
                want = {**report, "result": cpnet.BUDGET_EXHAUSTED}
            else:
                assert code == 0, (argv, err)
            assert out == json.dumps(want, sort_keys=True, indent=2) + "\n", argv


@st.composite
def _graph_documents(draw):
    """A drawn digraph of up to five nodes and any edges, in one document
    of eight with self-loops among them, and one in eight with an edge
    given twice; in one document of two it carries levels from 0 to 3."""
    nodes = draw(st.lists(_strings, max_size=5, unique=True))
    loops = draw(_rarely)
    pairs = [[u, v] for u in nodes for v in nodes if loops or u != v]
    edges = draw(st.permutations([e for e in pairs if draw(st.sampled_from((True, False)))]))
    if edges and draw(_rarely):
        edges.append(edges[0])
    doc = {"kind": "graph", "nodes": nodes, "edges": edges}
    if draw(st.booleans()):
        doc["levels"] = {n: draw(st.integers(0, 3)) for n in nodes}
    return doc


def well_placed(graph, levels):
    """Whether each node has at least as many in-edges from nodes on lower
    `levels` (node -> level) as from the others."""
    def lower(v):
        return [levels[u] < levels[v] for u in graph.predecessors(v)]
    return all(2 * sum(lower(v)) >= len(lower(v)) for v in graph.nodes)


@settings(max_examples=100, deadline=None)
@given(_graph_documents())
def test_drawn_graphs_answer_as_the_referees(tmp_path_factory, doc):
    """Drawn digraphs through `cli.main`.  tech-game with `--k` from 1 to 3
    writes a game over the graph's in-neighbours in which every row lists
    the k technologies by how many in-neighbours play each, ties going to
    the lower index.  well-structured on a graph with levels reports those
    levels and whether they are well placed (`well_placed`); on one
    without, it reports whether any levels are, searching every assignment
    of levels below the number of nodes, and levels that are.  A document
    the loader refuses, and tech-game on a graph with a self-loop, exit 2
    with one line on stderr."""
    path = tmp_path_factory.mktemp("drawn") / "graph.json"
    path.write_text(json.dumps(doc))
    try:
        graph = serialize.load_path(str(path))[1]
    except OptiformError:
        graph = None
    for k in (1, 2, 3):
        argv = ["tech-game", str(path), "--k", str(k)]
        code, out, err = ran = main_output(*argv)
        if graph is None or any(u == v for u, v in graph.edges):
            assert_refused(argv, ran, (2,))
            continue
        assert code == 0, (argv, err)
        game = serialize.loads(out)[1]
        techs = game.domains[0] if game.variables else ()
        assert game.variables == graph.nodes and len(techs) == (k if game.variables else 0)
        assert set(game.domains) <= {techs}
        for node, ns, rows in zip(graph.nodes, game.parents, game.rows):
            assert sorted(game.variables[j] for j in ns) == sorted(graph.predecessors(node))
            for played, order in rows.items():
                assert order == tuple(sorted(techs, key=lambda t: (-played.count(t),
                                                                   techs.index(t))))
    code, out, err = ran = main_output("well-structured", str(path))
    if graph is None:
        assert_refused("well-structured", ran, (2,))
        return
    assert code == 0, err
    report = json.loads(out)
    if graph.levels is not None:
        levels = dict(zip(graph.nodes, graph.levels))
        flag = well_placed(graph, levels)
    else:
        levels = report["levels"]
        n = len(graph.nodes)
        flag = any(well_placed(graph, dict(zip(graph.nodes, lv)))
                   for lv in itertools.product(range(n), repeat=n))
        assert levels is None if not flag else well_placed(graph, levels)
    assert report == {"command": "well-structured", "well_structured": flag, "levels": levels}


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


def record_golden(tmp_path):
    """The exit code, stdout and stderr of every case of `golden_cases`,
    each captured by `main_output`, so no test fixture is needed:
    `scripts/record_goldens.py` writes them to GOLDEN."""
    out = {}
    for key, argv in golden_cases(tmp_path):
        code, stdout, stderr = main_output(*argv)
        out[key] = {"exit": code, "stdout": stdout, "stderr": stderr}
    return out


def test_golden_outputs(tmp_path):
    expected = json.loads(GOLDEN.read_text())
    got = record_golden(tmp_path)
    assert sorted(got) == sorted(expected)
    for key in expected:
        assert got[key] == expected[key], key
