"""Seeded instance generators.

Every generator takes a `random.Random` and explicit sizes and returns a
plain JSON document in optiform's instance format.  Nothing here imports
optiform: the program only ever sees the documents written from these.
"""

import itertools
from fractions import Fraction

import ref


def names(prefix, n):
    return ["%s%d" % (prefix, i) for i in range(n)]


# ------------------------------------------------------------------- soft CSP

def chain_scsp(rng, n, d, carrier):
    """A chain x0 - x1 - ... with one unary constraint per variable and one
    binary constraint per neighbouring pair.

    Weighted costs are drawn from 0..99, so assignments rarely tie; fuzzy
    levels are drawn from the eleven tenths 0, 1/10, ..., 1, so the
    min-combination ties heavily.
    """
    variables = names("x", n)
    values = names("v", d)

    def draw():
        if carrier == "weighted":
            return str(rng.randint(0, 99))
        return ref.fmt(Fraction(rng.randint(0, 10), 10))

    scopes = [[v] for v in variables] + [
        [variables[i], variables[i + 1]] for i in range(n - 1)
    ]
    return {
        "kind": "scsp",
        "semiring": carrier,
        "variables": variables,
        "domains": {v: list(values) for v in variables},
        "constraints": [
            {
                "scope": scope,
                "table": [
                    {"tuple": list(t), "value": draw()}
                    for t in itertools.product(values, repeat=len(scope))
                ],
            }
            for scope in scopes
        ],
    }


# ---------------------------------------------------------------- payoff game

#: Payoffs are integers in 0..PAYOFF_TOP.
PAYOFF_TOP = 20


def ring_payoff_game(rng, n, d):
    """A graphical game on a ring: player i watches players i-1 and i+1.

    Payoffs are integers in 0..PAYOFF_TOP over the player's local scope.
    """
    players = names("p", n)
    strategies = names("s", d)
    neigh = {
        players[i]: sorted({players[(i - 1) % n], players[(i + 1) % n]} - {players[i]},
                           key=players.index)
        for i in range(n)
    }
    payoffs = {}
    for i, p in enumerate(players):
        width = len(neigh[p]) + 1
        payoffs[p] = [
            {"when": list(s), "value": str(rng.randint(0, PAYOFF_TOP))}
            for s in itertools.product(strategies, repeat=width)
        ]
    return {
        "kind": "payoffgame",
        "carrier": None,
        "players": players,
        "strategies": {p: list(strategies) for p in players},
        "neigh": neigh,
        "payoffs": payoffs,
    }


# --------------------------------------------------------------------- CP-net

def cpnet(rng, n, d, parents, acyclic, redundant=0):
    """A CP-net over n variables with d values each.

    Each variable draws `parents` real parents (fewer only when an acyclic
    net's earlier variables run out) and then `redundant` extra parents
    that its table ignores: every row copies the order chosen for the real
    parents, so `cpnet-reduce` has parents to remove.
    """
    variables = names("X", n)
    domains = {v: ["%s%d" % (v.lower(), k) for k in range(d)] for v in variables}
    order = list(range(n))
    rng.shuffle(order)
    tables = {}
    for rank, i in enumerate(order):
        pool = order[:rank] if acyclic else [j for j in range(n) if j != i]
        real = rng.sample(pool, min(len(pool), parents))
        rest = [j for j in pool if j not in real]
        extra = rng.sample(rest, min(len(rest), redundant)) if redundant else []
        scope = sorted(real + extra)
        by_real = {}
        rows = []
        for pa in itertools.product(*(domains[variables[p]] for p in scope)):
            key = tuple(x for p, x in zip(scope, pa) if p in real)
            if key not in by_real:
                perm = list(domains[variables[i]])
                rng.shuffle(perm)
                by_real[key] = perm
            rows.append({"when": [list(pa)], "order": by_real[key]})
        tables[variables[i]] = {
            "parents": [variables[p] for p in scope],
            "rows": rows,
        }
    return {"kind": "cpnet", "variables": variables, "domains": domains, "tables": tables}


def plant_flip_cycle(net, a, b):
    """Make variables a and b chase each other like matching pennies, so that
    no outcome of the net is optimal: a prefers the value with b's index, b
    prefers the value one past a's index.  Each becomes the other's only
    parent."""
    doms = net["domains"]
    for me, other, shift in ((a, b, 0), (b, a, 1)):
        rows = []
        for j, x in enumerate(doms[other]):
            top = doms[me][(j + shift) % len(doms[me])]
            rows.append({"when": [[x]], "order": [top] + [y for y in doms[me] if y != top]})
        net["tables"][me] = {"parents": [other], "rows": rows}
    return net


# ---------------------------------------------------------------------- graph

def dag(rng, n, indegree):
    """A random DAG over n nodes: each node draws `indegree` predecessors
    (or all, when fewer) among the nodes before it."""
    nodes = names("n", n)
    edges = []
    for j in range(1, n):
        k = min(j, indegree)
        edges.extend([nodes[i], nodes[j]] for i in sorted(rng.sample(range(j), k)))
    return {"kind": "graph", "nodes": nodes, "edges": edges}
