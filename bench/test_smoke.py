"""Smoke test of the benchmark at reduced size, with negative controls.

    python3 -m pytest -q bench/test_smoke.py

Every workload runs one round of both passes at the "small" sizes and must
report no failed operation; the traced run must report every per-layer
metric named in BENCHMARK.json.  Then each step's checker is fed a
deliberately wrong answer (and a wrong exit code) and must reject it.
"""

import argparse
import itertools
import json
import os
import shutil
import sys
from fractions import Fraction

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import ref  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SEED = 5


def bench_args(workload, trace):
    return argparse.Namespace(workload=workload, seed=SEED, seconds=0, trace=trace)


@pytest.fixture
def work(request):
    path = os.path.join(ROOT, ".bench_work", "smoke-" + request.node.name)
    yield path
    shutil.rmtree(path, ignore_errors=True)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_workload_runs_clean(workload, work):
    result = run.measure(ROOT, work, bench_args(workload, 0), size="small")
    steps = len(workloads.WORKLOADS[workload](SEED, workloads.SIZES["small"]).steps)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 * steps
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_reports_every_layer_metric(work):
    result = run.measure(ROOT, work, bench_args("pareto-product", 1), size="small")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["pgame.pareto_front"]["value"] > 0
    assert result["metrics"]["semiring.compare_calls"]["value"] > 0


# ----------------------------------------------------------- negative controls

def _swap_first_order(rows):
    order = rows[0]["order"]
    order[0], order[1] = order[1], order[0]


def _other(domains, avoid):
    """A profile over `domains` that is not in `avoid`."""
    return next(list(p) for p in itertools.product(*domains) if tuple(p) not in avoid)


def corrupt(step, out, inputs):
    """A wrong version of a correct output `out` of `step`.  `inputs(name)`
    reads an input document or earlier output."""
    cmd = step.argv[0]
    if cmd in ("scsp-solve",):
        out["optimal"].pop()
    elif cmd in ("map-local", "map-global"):
        cell = out["payoffs"][out["players"][0]][0]
        cell["value"] = "1" if cell["value"] == "0" else "0"
    elif cmd == "game-nash":
        if out["nash"]:
            out["nash"].pop()
        else:
            game = inputs(step.argv[1][1:])
            doms = [game["strategies"][p] for p in game["players"]]
            out["nash"].append({"joint_strategy": _other(doms, set())})
    elif cmd == "game-pareto":
        out["pareto"].pop()
    elif cmd == "map-to-scsp":
        cell = out["constraints"][0]["table"][0]
        cell["value"][0] = str(Fraction(cell["value"][0]) + 1)
    elif cmd == "regret-constraints":
        cell = out["constraints"][0]["table"][0]
        cell["value"] = 1 - cell["value"]
    elif cmd == "pareto-nash":
        if out["equilibria"]:
            out["equilibria"].pop()
        else:
            out["equilibria"].append({"joint_strategy": [], "preference": []})
    elif cmd in ("cpnet-optimal", "cpnet-eligible"):
        out["eligible"] = not out["eligible"]
    elif cmd == "cpnet-eliminate":
        net = ref.Net(inputs(step.argv[1][1:]))
        out["solved"] = True
        out["outcome"] = _other(net.domains, set(net.optima()) if len(net.optima()) == 1 else ())
    elif cmd in ("cpnet-reduce", "to-cpnet"):
        table = out["tables"][out["variables"][0]]
        _swap_first_order(table["rows"])
    elif cmd == "cpnet-dominates":
        out["result"] = not out["result"]
    elif cmd in ("to-game", "tech-game"):
        _swap_first_order(out["prefs"][out["players"][0]])
    elif cmd == "game-eliminate":
        game = ref.PPGame(inputs(step.argv[1][1:]))
        nash = game.nash()
        out["solved"] = True
        pick = _other(game.strategies, set(nash) if len(nash) == 1 else ())
        out["strategies"] = {p: [x] for p, x in zip(game.players, pick)}
        if all(x == "t1" for x in pick):
            out["strategies"][game.players[0]] = ["t2"]
    elif cmd == "game-hierarchical":
        out["hierarchical"] = not out["hierarchical"]
    elif cmd == "well-structured":
        out["well_structured"] = not out["well_structured"]
    elif cmd == "check":
        out["passed"] -= 1
    else:
        raise AssertionError("no corruption for %s" % cmd)
    return out


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_checkers_reject_wrong_answers(workload, work):
    _, plan, worker = run.setup(ROOT, work, workload, SEED, "small")
    try:
        bench = run.Run(ROOT, work, plan)
        bench.api_pass(worker, "api")
    finally:
        worker.close()
    assert bench.failed == 0, bench.reasons
    pdir = os.path.join(work, "api")
    checker = bench.checker
    checker.pass_dir = pdir
    for step in plan.steps:
        with open(bench.out_path(step, pdir)) as fh:
            text = fh.read()
        # A suite with a genuine counterexample rightly exits 1.
        code = 1 if checker.run(step, pdir, 0, text) else 0
        assert checker.run(step, pdir, code, text) is None, step.label
        assert checker.run(step, pdir, 3, text) is not None, step.label
        wrong = json.dumps(corrupt(step, json.loads(text), checker.json))
        assert checker.run(step, pdir, code, wrong) is not None, step.label
