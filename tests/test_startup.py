"""A CLI process loads only what its subcommand runs, and the package's
submodules load on first use.  Each check runs in a fresh interpreter."""

import json
import os
import pathlib
import subprocess
import sys

from optiform import cli, oracle

ROOT = pathlib.Path(__file__).resolve().parent.parent

#: What no subcommand may load: `dataclasses` with its imports, and, but
#: for `check`, the oracle.
HEAVY = ("dataclasses", "inspect", "optiform.oracle")


def fresh(code):
    """The JSON that `code` writes to stderr, run in a new interpreter at
    the root of the checkout with ./src first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stderr)


def loaded_after(runs):
    """The exit codes of `cli.main` on each argv of `runs`, in one fresh
    interpreter, and which of HEAVY it then had loaded."""
    return fresh("""if True:
        import contextlib, io, json, sys
        from optiform import cli
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in %r]
        json.dump([codes, [m for m in %r if m in sys.modules]], sys.stderr)
    """ % (runs, HEAVY))


def test_cpnet_optimal_loads_no_oracle_and_no_dataclasses():
    assert loaded_after([["cpnet-optimal", "fixtures/cyclic4.cpnet.json"]]) == [[0], []]


def test_no_subcommand_but_check_loads_the_oracle():
    cpnet, scsp = "fixtures/acyclic4.cpnet.json", "fixtures/fuzzy_chain.scsp.json"
    pp, payoff = "fixtures/pd.ppgame.json", "fixtures/pd.payoffgame.json"
    graph = "fixtures/diamond.graph.json"
    runs = [[c, cpnet] for c in ("cpnet-optimal", "cpnet-sweep", "cpnet-eligible",
                                 "cpnet-opt-constraints", "cpnet-reduce", "to-game")]
    runs += [["cpnet-eliminate", cpnet, "--mode", "s"],
             ["cpnet-dominates", cpnet, "--better", "a,b,c,d", "--worse", "a,b,c,d"]]
    runs += [[c, scsp] for c in ("scsp-solve", "map-local", "map-global")]
    runs += [["scsp-join", scsp, scsp]]
    runs += [[c, pp] for c in ("game-nash", "game-eliminate", "game-hierarchical", "to-cpnet")]
    runs += [[c, payoff] for c in ("game-pareto", "map-to-scsp", "regret-constraints",
                                   "pareto-nash")]
    runs += [["tech-game", graph, "--k", "2"], ["well-structured", graph]]
    assert {argv[0] for argv in runs} == set(cli.COMMANDS) - {"check"}
    assert loaded_after(runs) == [[0] * len(runs), []]
    checks = [["check", "--theorem", t, "--seeds", "1"] for t in sorted(oracle.THEOREMS)]
    assert loaded_after(checks) == [[0] * len(checks), ["optiform.oracle"]]


def test_submodules_load_on_first_use():
    got = fresh("""if True:
        import json, sys
        import optiform
        before = "optiform.oracle" in sys.modules
        theorems = sorted(optiform.oracle.THEOREMS)
        namespace = {}
        exec("from optiform import *", namespace)
        json.dump({"before": before, "theorems": len(theorems),
                   "star": sorted(n for n in optiform.__all__ if n in namespace),
                   "all": sorted(optiform.__all__),
                   "dir": all(n in dir(optiform) for n in optiform.__all__)}, sys.stderr)
    """)
    assert got["before"] is False and got["theorems"] == 16
    assert got["star"] == got["all"] and got["dir"]
