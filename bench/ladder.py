#!/usr/bin/env python3
"""The size ladder: one optiform command per kernel at N = 2^8, 2^10, ...,
2^16 joint assignments (domain 4, so 4 to 8 variables or players).

    python3 bench/ladder.py

Run from the root of a source checkout.  Instances are drawn from
random.Random(SEED).  Each rung is timed in a warm worker
(`optiform.cli.main`, stdout captured, start-up excluded).  N grows
fourfold per rung, so a kernel stops climbing once a rung (with the
commands that prepare its input) takes more than CAP/16 seconds: a
quadratic kernel would need more than CAP seconds on the next rung.  map-global
stops at 2^14, where its document already holds 115k payoff cells.  The
technology game is laddered by nodes = N/64 (in-degree 4, two
technologies).  Prints one JSON line per rung and then a Markdown table.
Not part of the benchmark's timed runs.
"""

import json
import os
import random
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import gen  # noqa: E402
import ref  # noqa: E402
from run import Worker  # noqa: E402

SEED = 1
CAP = 60.0
EXPONENTS = (8, 10, 12, 14, 16)
LAST_EXPONENT = {"map-global": 14}


def kernels(rng, n, work):
    """(kernel, documents to write, setup commands, timed command) for a
    rung with n variables or players of domain 4."""
    weighted = gen.chain_scsp(rng, n, 4, "weighted")
    fuzzy = gen.chain_scsp(rng, n, 4, "fuzzy")
    game = gen.ring_payoff_game(rng, n, 4)
    net = gen.cpnet(rng, n, 4, 2, False)
    acyclic = gen.cpnet(rng, n, 4, 2, True)
    graph = gen.dag(rng, 4 ** n // 64, 4)
    docs = {"w.json": weighted, "f.json": fuzzy, "g.json": game, "c.json": net,
            "a.json": acyclic, "d.json": graph}
    p = lambda name: os.path.join(work, name)  # noqa: E731
    top = ref.Net(acyclic).sweep()
    return docs, [
        ("scsp-solve weighted", [], ["scsp-solve", p("w.json")]),
        ("scsp-solve fuzzy", [], ["scsp-solve", p("f.json")]),
        ("scsp-solve product", [(["map-to-scsp", p("g.json")], p("m.json"))],
         ["scsp-solve", p("m.json")]),
        ("map-local", [], ["map-local", p("w.json")]),
        ("map-global", [], ["map-global", p("w.json")]),
        ("game-nash payoff", [(["map-local", p("w.json")], p("l.json"))],
         ["game-nash", p("l.json")]),
        ("game-nash pp", [(["to-game", p("c.json")], p("pp.json"))],
         ["game-nash", p("pp.json")]),
        ("game-pareto", [], ["game-pareto", p("g.json")]),
        ("pareto-nash", [], ["pareto-nash", p("g.json")]),
        ("cpnet-optimal", [], ["cpnet-optimal", p("c.json")]),
        ("cpnet-eligible", [], ["cpnet-eligible", p("c.json")]),
        ("cpnet-eliminate", [], ["cpnet-eliminate", p("c.json"), "--mode", "s"]),
        ("cpnet-dominates", [], ["cpnet-dominates", p("a.json"), "--better", ",".join(top),
                                 "--worse", ",".join(top)]),
        ("tech-game diffusion", [(["tech-game", p("d.json"), "--k", "2"], p("t.json"))],
         ["game-eliminate", p("t.json")]),
    ]


def main():
    root = os.getcwd()
    work = os.path.join(root, ".bench_work", "ladder-%d" % os.getpid())
    worker = Worker(root, traced=False)
    stopped, table = set(), {}
    try:
        for k in EXPONENTS:
            os.makedirs(work, exist_ok=True)
            docs, rungs = kernels(random.Random(SEED), k // 2, work)
            for name, doc in docs.items():
                with open(os.path.join(work, name), "w") as fh:
                    json.dump(doc, fh)
            for kernel, prep, argv in rungs:
                if kernel in stopped or k > LAST_EXPONENT.get(kernel, k):
                    continue
                spent = 0.0
                for pre, out in prep:
                    spent += worker.ask({"argv": pre, "out": out, "label": "prep"})["seconds"]
                reply = worker.ask({"argv": argv, "out": os.path.join(work, "out.json"),
                                    "label": kernel})
                seconds = reply["seconds"] if reply["code"] == 0 else None
                print(json.dumps({"kernel": kernel, "N": 2 ** k, "seconds": seconds,
                                  "exit": reply["code"]}), flush=True)
                table[kernel, k] = seconds
                if seconds is None or spent + seconds > CAP / 16:
                    stopped.add(kernel)
            shutil.rmtree(work)
    finally:
        worker.close()
        shutil.rmtree(work, ignore_errors=True)
    print("\n| kernel | " + " | ".join("2^%d" % k for k in EXPONENTS) + " |")
    print("| --- |" + " ---: |" * len(EXPONENTS))
    for kernel in dict.fromkeys(k for k, _ in table):
        cells = [table.get((kernel, k)) for k in EXPONENTS]
        print("| %s | %s |" % (kernel, " | ".join(
            "—" if s is None else "%.3f" % s for s in cells)))

if __name__ == "__main__":
    sys.exit(main())
