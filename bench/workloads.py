"""The four workloads: seeded documents, the optiform commands run on them,
and the check each command's output must pass.

A workload is a `Plan`: input documents by file name, and an ordered list of
`Step`s.  A step's argv names files with a leading "@": an input document,
or the output an earlier step of the same pass wrote.  Every check recomputes
its answer with `ref` (or confirms a property the method must have) and
returns None, or a one-line reason for the failure.
"""

import collections
import itertools
import json
import os
import random
import statistics
from fractions import Fraction

import gen
import ref

#: Instance sizes.  "small" is the smoke test's reduced size.
SIZES = {
    "full": {
        "chain_vars": 6, "global_vars": 5, "weighted_scan": 72800, "fuzzy_scan": 766000,
        "game_players": 6, "game_strategies": 3, "scan": 557000,
        "net_vars": 8, "net_domain": 3, "net_parents": 3, "net_redundant": 2,
        "dag_nodes": 60, "dag_indegree": 4, "techs": 3,
        "suite_seeds": 40,
    },
    "small": {
        "chain_vars": 3, "global_vars": 3, "weighted_scan": 350, "fuzzy_scan": 600,
        "game_players": 3, "game_strategies": 2, "scan": 126,
        "net_vars": 4, "net_domain": 2, "net_parents": 2, "net_redundant": 1,
        "dag_nodes": 8, "dag_indegree": 2, "techs": 2,
        "suite_seeds": 3,
    },
}

THEOREMS = (
    "acyclic_sweep", "consistent_csp", "elimination_fixpoint_game",
    "elimination_fixpoint_net", "elimination_round_game", "elimination_round_net",
    "game_net_equivalence", "global_map", "hierarchical_unique",
    "net_game_equivalence", "parent_reduction", "pareto_frontier", "pareto_nash",
    "regrets", "strict_monotone_inclusion", "tech_adoption",
)


class Step:
    def __init__(self, label, argv, check, out=None):
        self.label = label
        self.argv = argv
        self.check = check
        self.out = out


class Plan:
    def __init__(self, docs, steps):
        self.docs = docs
        self.steps = steps


class Failed(Exception):
    """A check found a wrong answer."""


def expect(cond, reason):
    if not cond:
        raise Failed(reason)


def exit_ok(code):
    expect(code == 0, "exit code %d" % code)


# ------------------------------------------------------------- soft CSP chains

def _move_last(doc_domains, order, assignment):
    """Reorder each domain so the given value is declared last."""
    for v, x in zip(order, assignment):
        doc_domains[v].remove(x)
        doc_domains[v].append(x)


#: How many chains or games are drawn to keep the typical one.
CANDIDATES = 16
#: How many consecutive seeds a check-suite window is chosen from.
SUITE_POOL = 200


def _nearest(candidates, measure, target):
    """The candidate whose measure is nearest the target.  Drawing a fixed
    number of candidates keeps set-up the same work on every seed."""
    return min(candidates, key=lambda c: abs(measure(c) - target))


def chain_keys(doc):
    """One key per assignment of a weighted or fuzzy `gen.chain_scsp`, in
    enumeration order, larger for a better preference.  Floats order its
    integer costs and tenths exactly, at a fraction of Fraction's cost."""
    problem = ref.Scsp(doc)
    sign = -1.0 if problem.carrier == "weighted" else 1.0
    tables = [(scope, {t: sign * float(Fraction(v)) for t, v in table.items()})
              for scope, table in problem.constraints]
    fold = sum if problem.carrier == "weighted" else min
    return [(fold(table[tuple(s[i] for i in scope)] for scope, table in tables),)
            for s in problem.assignments()]


def _chain(rng, n, carrier, scan=None):
    """A chain soft CSP; with `scan`, of CANDIDATES draws the one whose
    first-hit pairwise scan over its assignments is nearest that length.

    The scan of `softcsp.optimal_solutions` runs, for each assignment, until
    the first assignment that beats it: its length depends on the optimum
    count and on where better assignments sit in the enumeration order, and
    over 100 draws of six variables it ran from 9.5k to 671k comparisons
    (weighted) and from 21k to 5.8M (fuzzy).  The targets are the medians
    of those draws, so the kept chain is a typical one, neither the scan's
    best case nor its worst."""
    if scan is None:
        return gen.chain_scsp(rng, n, 4, carrier)
    drawn = [gen.chain_scsp(rng, n, 4, carrier) for _ in range(CANDIDATES)]
    return _nearest(drawn, lambda doc: scan_length(chain_keys(doc)), scan)


def check_solve(name):
    def check(ctx, code, report):
        exit_ok(code)
        problem = ctx.ref(ref.Scsp, name)
        want = [(s, ref.value_text(problem.carrier, v)) for s, v in ctx.memo(problem, "best")]
        got = [(tuple(e["assignment"]), e["preference"]) for e in report["optimal"]]
        expect(got == want, "optima differ: %d reported, %d expected" % (len(got), len(want)))
    return check


def check_local_map(name):
    def check(ctx, code, doc):
        exit_ok(code)
        problem = ctx.ref(ref.Scsp, name)
        game = ctx.ref(ref.Game, doc)
        expect(game.players == problem.variables, "players are not the variables")
        for i in range(len(problem.variables)):
            incident = [(sc, t) for sc, t in problem.constraints if i in sc]
            scope = sorted({j for sc, _ in incident for j in sc} | {i})
            expect(list(game.scopes[i]) == scope, "scope of player %d" % i)
            for local, got in game.tables[i].items():
                at = dict(zip(scope, local))
                vals = [t[tuple(at[j] for j in sc)] for sc, t in incident]
                want = ref.key(problem.carrier, ref.combine(problem.carrier, vals))
                expect(got == want, "local payoff of player %d at %r" % (i, local))
    return check


def check_global_map(name):
    def check(ctx, code, doc):
        exit_ok(code)
        problem = ctx.ref(ref.Scsp, name)
        game = ctx.ref(ref.Game, doc)
        expect(game.size() == problem.size(), "joint space differs")
        for s in problem.assignments():
            want = ref.key(problem.carrier, problem.preference(s))
            for i in range(game.n):
                expect(game.payoff(i, s) == want, "global payoff at %r" % (s,))
    return check


def check_nash(game_name, optima_of=None):
    """Every reported profile has no strictly improving unilateral deviation,
    and the set equals the benchmark's scan.  With `optima_of`, also
    Nash-and-Pareto of the (global) game equals the problem's optima."""
    def check(ctx, code, report):
        exit_ok(code)
        game = ctx.ref(ref.Game, game_name)
        got = [tuple(e["joint_strategy"]) for e in report["nash"]]
        for s in got:
            expect(game.is_nash(s), "reported profile %r can deviate" % (s,))
        expect(got == ctx.memo(game, "nash"), "Nash set differs from the scan")
        for e in report["nash"]:
            s = tuple(e["joint_strategy"])
            for i, p in enumerate(game.players):
                expect(game.read(e["payoffs"][p]) == game.payoff(i, s), "payoff of %s" % p)
        if optima_of is not None:
            problem = ctx.ref(ref.Scsp, optima_of)
            optima = {s for s, _ in ctx.memo(problem, "best")}
            both = set(got) & set(ctx.memo(game, "pareto"))
            expect(both == optima, "Nash and Pareto of the global game differ from the optima")
    return check


def scsp_linear(seed, size):
    rng = random.Random(seed)
    docs = {
        "w.scsp.json": _chain(rng, size["chain_vars"], "weighted", size["weighted_scan"]),
        "f.scsp.json": _chain(rng, size["chain_vars"], "fuzzy", size["fuzzy_scan"]),
        "g.scsp.json": _chain(rng, size["global_vars"], "weighted"),
    }
    steps = [
        Step("solve-weighted", ["scsp-solve", "@w.scsp.json"], check_solve("w.scsp.json")),
        Step("solve-fuzzy", ["scsp-solve", "@f.scsp.json"], check_solve("f.scsp.json")),
    ]
    for tag in ("w", "f"):
        scsp, local = "%s.scsp.json" % tag, "%s-local.payoffgame.json" % tag
        steps.append(Step("map-local-" + tag, ["map-local", "@" + scsp],
                          check_local_map(scsp), out=local))
        steps.append(Step("nash-local-" + tag, ["game-nash", "@" + local], check_nash(local)))
    steps.append(Step("map-global", ["map-global", "@g.scsp.json"],
                      check_global_map("g.scsp.json"), out="g-global.payoffgame.json"))
    steps.append(Step("nash-global", ["game-nash", "@g-global.payoffgame.json"],
                      check_nash("g-global.payoffgame.json", optima_of="g.scsp.json")))
    return Plan(docs, steps)


# -------------------------------------------------------------- Pareto games

def scan_length(vectors):
    """How many comparisons a first-hit pairwise scan makes over `vectors`:
    for each vector, the position of the first vector in the list that
    strictly dominates it, or the whole list when none does.  Computed with
    one bit mask per coordinate value, not by scanning."""
    n = len(vectors)
    at_least = []
    for k in range(len(vectors[0])):
        by_value = collections.defaultdict(int)
        for idx, v in enumerate(vectors):
            by_value[v[k]] |= 1 << idx
        acc, masks = 0, {}
        for value in sorted(by_value, reverse=True):
            acc |= by_value[value]
            masks[value] = acc
        at_least.append(masks)
    same = collections.defaultdict(int)
    for idx, v in enumerate(vectors):
        same[v] |= 1 << idx
    total = 0
    for v in vectors:
        m = ~same[v]
        for k, masks in enumerate(at_least):
            m &= masks[v[k]]
        total += (m & -m).bit_length() if m else n
    return total


def frontier_scans(game, nash):
    """The first-hit scan lengths of a game's quadratic frontier paths: the
    Pareto scan over its payoff vectors (`game-pareto`, the product-carrier
    solve), and the scan of `pareto-nash`, where every equilibrium in `nash`
    beats every other profile (their no-regret cell sends them to the
    bottom)."""
    vectors = [game.vector(s) for s in game.profiles()]
    bottom = (-1,) * game.n
    return (scan_length(vectors),
            scan_length([v if s in nash else bottom
                         for s, v in zip(game.profiles(), vectors)]))


def _game(rng, size):
    """A ring game with a pure Nash equilibrium whose frontier scans are
    typical.

    Of CANDIDATES games with a pure equilibrium, the one is kept whose
    scan total, twice the Pareto scan plus the `pareto-nash` scan (one scan
    per command), is nearest the configured length.  Over 100 games of six
    players the Pareto scan ran from 88k to 239k comparisons and the
    `pareto-nash` scan, set by where the first equilibrium sits, from 8k to
    526k; the target is the median total."""
    drawn = []
    while len(drawn) < CANDIDATES:
        doc = gen.ring_payoff_game(rng, size["game_players"], size["game_strategies"])
        game = ref.Game(doc)
        nash = set(game.nash())
        if nash:
            pareto, pareto_nash = frontier_scans(game, nash)
            drawn.append((doc, 2 * pareto + pareto_nash))
    return _nearest(drawn, lambda c: c[1], size["scan"])[0]


def check_pareto(name):
    def check(ctx, code, report):
        exit_ok(code)
        game = ctx.ref(ref.Game, name)
        got = [tuple(e["joint_strategy"]) for e in report["pareto"]]
        vectors = ctx.memo(game, "vectors")
        front = [vectors[s] for s in got]
        expect(len(set(got)) == len(got), "duplicate profile")
        for s in got:
            expect(not any(ref.dominates_vec(w, vectors[s]) for w in vectors.values()),
                   "reported profile %r is dominated" % (s,))
        chosen = set(got)
        for s, v in vectors.items():
            if s not in chosen:
                expect(any(ref.dominates_vec(w, v) for w in front),
                       "profile %r is dominated by no reported profile" % (s,))
        for e in report["pareto"]:
            s = tuple(e["joint_strategy"])
            for i, p in enumerate(game.players):
                expect(game.read(e["payoffs"][p]) == game.payoff(i, s), "payoff of %s" % p)
    return check


def _offset(game):
    return max(max(t.values()) for t in game.tables)


def check_cost_tuples(name):
    """map-to-scsp: one constraint per player over its local scope, whose
    own coordinate is offset - payoff and whose others are 0."""
    def check(ctx, code, doc):
        exit_ok(code)
        game = ctx.ref(ref.Game, name)
        m = _offset(game)
        expect(doc["semiring"] == {"product": ["weighted"] * game.n}, "carrier")
        problem = ctx.ref(ref.Scsp, doc)
        expect(len(problem.constraints) == game.n, "one constraint per player")
        for i, (scope, table) in enumerate(problem.constraints):
            expect(scope == game.scopes[i], "scope of player %d" % i)
            for local, cell in table.items():
                want = ["0"] * game.n
                want[i] = ref.fmt(m - game.tables[i][local])
                expect([ref.fmt(ref.rational(x)) for x in cell] == want,
                       "cost tuple of player %d at %r" % (i, local))
    return check


def check_frontier_solve(game_name, scsp_name):
    """scsp-solve on the product carrier: its optima equal the benchmark's
    own maximal set and the game's Pareto set (theorem pareto_frontier)."""
    def check(ctx, code, report):
        check_solve(scsp_name)(ctx, code, report)
        game = ctx.ref(ref.Game, game_name)
        got = {tuple(e["assignment"]) for e in report["optimal"]}
        expect(got == set(ctx.memo(game, "pareto")),
               "product-carrier optima differ from the Pareto set")
    return check


def check_regrets(name):
    def check(ctx, code, doc):
        exit_ok(code)
        game = ctx.ref(ref.Game, name)
        problem = ctx.ref(ref.Scsp, doc)
        expect(problem.carrier == "boolean", "carrier")
        for i, (scope, table) in enumerate(problem.constraints):
            expect(scope == game.scopes[i], "scope of player %d" % i)
            own = scope.index(i)
            for local, cell in table.items():
                mine = game.tables[i][local]
                ok = all(game.tables[i][local[:own] + (v,) + local[own + 1:]] <= mine
                         for v in game.strategies[i])
                expect(cell == int(ok), "no-regret cell of player %d at %r" % (i, local))
    return check


def check_pareto_nash(name):
    """The Pareto-maximal part of the benchmark's Nash set, with cost tuples
    offset - payoff."""
    def check(ctx, code, report):
        exit_ok(code)
        game = ctx.ref(ref.Game, name)
        nash = ctx.memo(game, "nash")
        want = game.pareto(nash)
        got = [tuple(e["joint_strategy"]) for e in report["equilibria"]]
        expect(got == want, "Pareto-efficient Nash equilibria differ")
        m = _offset(game)
        for e in report["equilibria"]:
            s = tuple(e["joint_strategy"])
            costs = [ref.fmt(m - game.payoff(i, s)) for i in range(game.n)]
            expect(e["preference"] == costs, "cost tuple of %r" % (s,))
    return check


def pareto_product(seed, size):
    rng = random.Random(seed)
    g = "g.payoffgame.json"
    docs = {g: _game(rng, size)}
    steps = [
        Step("nash", ["game-nash", "@" + g], check_nash(g)),
        Step("pareto", ["game-pareto", "@" + g], check_pareto(g)),
        Step("map-to-scsp", ["map-to-scsp", "@" + g], check_cost_tuples(g), out="m.scsp.json"),
        Step("solve-product", ["scsp-solve", "@m.scsp.json"],
             check_frontier_solve(g, "m.scsp.json")),
        Step("regret-constraints", ["regret-constraints", "@" + g], check_regrets(g),
             out="r.scsp.json"),
        Step("pareto-nash", ["pareto-nash", "@" + g], check_pareto_nash(g)),
    ]
    return Plan(docs, steps)


# ----------------------------------------------------------- CP-net tables

def _acyclic_net(rng, size):
    """An acyclic net whose unique optimum is declared last in every domain,
    so a scan that stops at the first optimum reads the whole space."""
    doc = gen.cpnet(rng, size["net_vars"], size["net_domain"], size["net_parents"],
                    True, size["net_redundant"])
    _move_last(doc["domains"], doc["variables"], ref.Net(doc).sweep())
    return doc


def _flips(net, start, k, rng):
    """An outcome k worsening flips below `start`, built one flip at a time."""
    o = start
    for _ in range(k):
        moves = net.worsening(o)
        if not moves:
            break
        o = rng.choice(moves)
    return o


def check_optimal(name):
    def check(ctx, code, report):
        exit_ok(code)
        net = ctx.ref(ref.Net, name)
        got = [tuple(o) for o in report["optimal"]]
        for o in got:
            expect(not net.improving(o), "reported outcome %r has an improving flip" % (o,))
        optima = ctx.memo(net, "optima")
        expect(got == optima, "optimal outcomes differ from the scan")
        expect(report["eligible"] == bool(optima), "eligible flag")
        if net.topological() is not None:
            expect(optima == [net.sweep()], "acyclic net: optimum is not the sweep")
    return check


def check_eligible(name):
    def check(ctx, code, report):
        exit_ok(code)
        net = ctx.ref(ref.Net, name)
        expect(report["eligible"] == bool(ctx.memo(net, "optima")), "eligible flag")
    return check


def check_eliminate(name):
    """Elimination keeps every optimal outcome; a solved net gives the
    unique optimum."""
    def check(ctx, code, report):
        exit_ok(code)
        net = ctx.ref(ref.Net, name)
        optima = ctx.memo(net, "optima")
        kept = [report["domains"][v] for v in net.variables]
        for o in optima:
            expect(all(x in d for x, d in zip(o, kept)), "optimum %r eliminated" % (o,))
        if report["solved"]:
            expect(optima == [tuple(report["outcome"])], "solved net: not the unique optimum")
    return check


def check_reduce(name):
    """The reduced net selects the same order at every outcome and keeps no
    parent whose value never matters."""
    def check(ctx, code, doc):
        exit_ok(code)
        net = ctx.ref(ref.Net, name)
        red = ctx.ref(ref.Net, doc)
        expect(red.variables == net.variables and red.domains == net.domains, "variables")
        for o in net.outcomes():
            for i in range(net.n):
                expect(red.row(i, o) == net.row(i, o), "order of %s at %r" % (net.variables[i], o))
        for i in range(red.n):
            expect(red.essential_parents(i) == list(red.parents[i]), "redundant parent left")
    return check


def check_dominates(want):
    def check(ctx, code, report):
        exit_ok(code)
        expect(report["result"] is want, "dominance answered %r" % (report["result"],))
    return check


def check_to_game(name):
    def check(ctx, code, doc):
        exit_ok(code)
        net = ctx.ref(ref.Net, name)
        game = ctx.ref(ref.PPGame, doc)
        expect(game.players == net.variables and game.strategies == net.domains, "players")
        expect(game.neigh == net.parents, "neighbours are not the parents")
        expect(game.prefs == net.rows, "preferences are not the rows")
    return check


def check_net_nash(game_name, net_name):
    """game-nash on the game of a net equals the net's optimal outcomes."""
    def check(ctx, code, report):
        exit_ok(code)
        game = ctx.ref(ref.PPGame, game_name)
        net = ctx.ref(ref.Net, net_name)
        got = [tuple(e["joint_strategy"]) for e in report["nash"]]
        expect(got == ctx.memo(net, "optima"), "Nash set differs from the optima")
        for e in report["nash"]:
            s = tuple(e["joint_strategy"])
            for i, p in enumerate(game.players):
                expect(e["best_responses"][p] == game.order(i, s)[0], "best response of %s" % p)
    return check


def check_to_cpnet(game_name):
    """The net of a game selects, at every outcome, the order the game's
    player has at the projection of that outcome."""
    def check(ctx, code, doc):
        exit_ok(code)
        game = ctx.ref(ref.PPGame, game_name)
        net = ctx.ref(ref.Net, doc)
        for o in itertools.product(*game.strategies):
            for i in range(game.n):
                expect(net.row(i, o) == game.order(i, o), "row of %s at %r" % (net.variables[i], o))
    return check


def check_game_eliminate(game_name, all_t1=False):
    """Elimination keeps every Nash equilibrium; a solved game gives the
    unique one.  On a technology game over a DAG, everyone ends on t1."""
    def check(ctx, code, report):
        exit_ok(code)
        game = ctx.ref(ref.PPGame, game_name)
        kept = [report["strategies"][p] for p in game.players]
        if all_t1:
            expect(all(k == ["t1"] for k in kept), "technology game did not settle on t1")
            return
        nash = ctx.memo(game, "nash")
        for s in nash:
            expect(all(x in k for x, k in zip(s, kept)), "equilibrium %r eliminated" % (s,))
        if report["solved"]:
            expect(nash == [tuple(k[0] for k in kept)], "solved game: not the unique equilibrium")
    return check


def check_hierarchical(game_name):
    def check(ctx, code, report):
        exit_ok(code)
        game = ctx.ref(ref.PPGame, game_name)
        deps = [game.essential(i) for i in range(game.n)]
        placed, level = {}, 0
        while len(placed) < game.n:
            ready = [i for i in range(game.n) if i not in placed and all(j in placed for j in deps[i])]
            if not ready:
                break
            for i in ready:
                placed[i] = level
            level += 1
        acyclic = len(placed) == game.n
        expect(report["hierarchical"] == acyclic, "hierarchy flag")
        if acyclic:
            levels = report["levels"]
            for i, p in enumerate(game.players):
                expect(all(levels[game.players[j]] < levels[p] for j in deps[i]),
                       "level of %s" % p)
    return check


def check_tech_game(graph_name, k):
    """Each player ranks technologies by how many in-neighbours play them,
    ties towards the lower index."""
    def check(ctx, code, doc):
        exit_ok(code)
        graph = ctx.json(graph_name)
        game = ctx.ref(ref.PPGame, doc)
        techs = ["t%d" % (i + 1) for i in range(k)]
        expect(game.players == graph["nodes"], "players are not the nodes")
        for i, node in enumerate(graph["nodes"]):
            preds = sorted(graph["nodes"].index(u) for u, v in graph["edges"] if v == node)
            expect(list(game.neigh[i]) == preds, "neighbours of %s" % node)
            for s, order in game.prefs[i].items():
                want = sorted(techs, key=lambda t: (-s.count(t), techs.index(t)))
                expect(list(order) == want, "row of %s at %r" % (node, s))
    return check


def check_well_structured(graph_name):
    def check(ctx, code, report):
        exit_ok(code)
        graph = ctx.json(graph_name)
        levels = ref.well_structured_levels(graph)
        expect(report["well_structured"] == (levels is not None), "well-structured flag")
        if levels is not None:
            expect(ref.levels_valid(graph, report["levels"]), "reported levels do not witness it")
    return check


def cpnet_tables(seed, size):
    rng = random.Random(seed)
    acyclic = _acyclic_net(rng, size)
    cyclic = gen.cpnet(rng, size["net_vars"], size["net_domain"], size["net_parents"],
                       False, size["net_redundant"])
    pennies = gen.plant_flip_cycle(
        gen.cpnet(rng, size["net_vars"], size["net_domain"], size["net_parents"], False),
        "X0", "X1")
    graph = gen.dag(rng, size["dag_nodes"], size["dag_indegree"])
    net = ref.Net(acyclic)
    top = net.sweep()
    worse = _flips(net, top, 3, rng)
    docs = {"a.cpnet.json": acyclic, "c.cpnet.json": cyclic, "p.cpnet.json": pennies,
            "d.graph.json": graph}
    k = size["techs"]
    steps = [
        Step("optimal-acyclic", ["cpnet-optimal", "@a.cpnet.json"], check_optimal("a.cpnet.json")),
        Step("optimal-cyclic", ["cpnet-optimal", "@c.cpnet.json"], check_optimal("c.cpnet.json")),
        Step("eligible-acyclic", ["cpnet-eligible", "@a.cpnet.json"], check_eligible("a.cpnet.json")),
        Step("eligible-pennies", ["cpnet-eligible", "@p.cpnet.json"], check_eligible("p.cpnet.json")),
        Step("eliminate-nbr", ["cpnet-eliminate", "@a.cpnet.json", "--mode", "nbr"],
             check_eliminate("a.cpnet.json")),
        Step("eliminate-s", ["cpnet-eliminate", "@c.cpnet.json", "--mode", "s"],
             check_eliminate("c.cpnet.json")),
        Step("reduce", ["cpnet-reduce", "@c.cpnet.json"], check_reduce("c.cpnet.json"),
             out="c-reduced.cpnet.json"),
        Step("dominates-true", ["cpnet-dominates", "@a.cpnet.json", "--better", ",".join(top),
                                "--worse", ",".join(worse)], check_dominates(True)),
        Step("dominates-false", ["cpnet-dominates", "@a.cpnet.json", "--better", ",".join(top),
                                 "--worse", ",".join(top)], check_dominates(False)),
        Step("to-game", ["to-game", "@c.cpnet.json"], check_to_game("c.cpnet.json"),
             out="c.ppgame.json"),
        Step("game-nash", ["game-nash", "@c.ppgame.json"],
             check_net_nash("c.ppgame.json", "c.cpnet.json")),
        Step("to-cpnet", ["to-cpnet", "@c.ppgame.json"], check_to_cpnet("c.ppgame.json"),
             out="c-full.cpnet.json"),
        Step("game-eliminate", ["game-eliminate", "@c.ppgame.json"],
             check_game_eliminate("c.ppgame.json")),
        Step("game-hierarchical", ["game-hierarchical", "@c.ppgame.json"],
             check_hierarchical("c.ppgame.json")),
        Step("tech-game", ["tech-game", "@d.graph.json", "--k", str(k)],
             check_tech_game("d.graph.json", k), out="d.ppgame.json"),
        Step("tech-eliminate", ["game-eliminate", "@d.ppgame.json"],
             check_game_eliminate("d.ppgame.json", all_t1=True)),
        Step("well-structured", ["well-structured", "@d.graph.json"],
             check_well_structured("d.graph.json")),
    ]
    return Plan(docs, steps)


# ------------------------------------------------------------ check suites

def genuine_counterexample(problem):
    """Whether the property `strict_monotone_inclusion` claims fails on a
    weighted problem, by the benchmark's own scan: some optimal solution is
    not a Nash equilibrium, or is Pareto-dominated, in the local game, where
    each variable's player pays the sum of its incident constraints.

    Usually two optima tie and one's cost vector dominates the other's (seeds
    77 and 88).  An optimum can also be dominated only by a costlier
    assignment: a binary constraint's cost counts for both of its variables
    in the local game but once in the total (seeds 4466, 6676, 7356)."""
    n = len(problem.variables)

    def costs(s):
        out = [Fraction(0)] * n
        for scope, table in problem.constraints:
            c = Fraction(table[tuple(s[i] for i in scope)])
            for i in scope:
                out[i] += c
        return tuple(-x for x in out)

    payoff = {s: costs(s) for s in problem.assignments()}
    for s, _ in problem.best():
        for i in range(n):
            if any(payoff[s[:i] + (v,) + s[i + 1:]][i] > payoff[s][i]
                   for v in problem.domains[i]):
                return True
        if any(ref.dominates_vec(w, payoff[s]) for w in payoff.values()):
            return True
    return False


def _as_document(problem):
    """The oracle's generated soft CSP as a document, for `ref`."""
    def text(payload):
        return "inf" if repr(payload) == "inf" else ref.fmt(payload)

    return {
        "semiring": problem.semiring.kind,
        "variables": list(problem.variables),
        "domains": {v: list(d) for v, d in zip(problem.variables, problem.domains)},
        "constraints": [
            {"scope": [problem.variables[i] for i in c.scope],
             "table": [{"tuple": list(t), "value": text(v.payload)} for t, v in c.table.items()]}
            for c in problem.constraints
        ],
    }


def check_suite(theorem, seeds):
    """Every verdict is ok, except on seeds where the benchmark confirms a
    genuine counterexample; exit 1 exactly when there is one."""
    def check(ctx, code, report):
        expect(report["theorem"] == theorem, "theorem")
        failed = {int(k) for k in report["failed"]}
        expect(report["passed"] + report["skipped"] + len(failed) == len(seeds), "verdict count")
        genuine = ctx.counterexamples(theorem, seeds)
        expect(failed == genuine, "failing seeds %s, genuine counterexamples %s"
               % (sorted(failed), sorted(genuine)))
        expect(code == (1 if genuine else 0), "exit code %d" % code)
    return check


def _suite_window(rng, theorem, k):
    """A range of k consecutive seeds for one theorem suite.

    Checking one instance costs about the square of its joint space, which
    runs from 1 to 81: over seeds 1..400 the squared size and the time of
    one check correlate at 0.99 on the four costliest suites.  A window of
    40 seeds is dominated by its few largest instances, so its cost varies
    several times over.  Of the windows inside SUITE_POOL consecutive seeds
    from a random start, the one whose summed squared size is nearest the
    median window of the fixed seeds 1..SUITE_POOL is taken."""
    from optiform import oracle

    def window_weights(start):
        weights = []
        for s in range(start, start + SUITE_POOL):
            inst = oracle.generate_instance(theorem, oracle.GeneratorConfig(seed=s))
            size = inst.space_size() if hasattr(inst, "space_size") else len(inst.nodes)
            weights.append(size ** 2)
        sums = [sum(weights[:k])]
        for j in range(k, SUITE_POOL):
            sums.append(sums[-1] + weights[j] - weights[j - k])
        return sums

    target = statistics.median(window_weights(1))
    start = rng.randrange(1, 10 ** 6)
    sums = window_weights(start)
    first = start + min(range(len(sums)), key=lambda i: abs(sums[i] - target))
    return range(first, first + k)


def check_suites(seed, size):
    rng = random.Random(seed)
    steps = []
    for t in THEOREMS:
        seeds = _suite_window(rng, t, size["suite_seeds"])
        text = "%d..%d" % (seeds[0], seeds[-1])
        steps.append(Step("check-" + t, ["check", "--theorem", t, "--seeds", text],
                          check_suite(t, seeds)))
    return Plan({}, steps)


WORKLOADS = {
    "scsp-linear": scsp_linear,
    "pareto-product": pareto_product,
    "cpnet-tables": cpnet_tables,
    "check-suites": check_suites,
}


# ---------------------------------------------------------------- checking

class Checker:
    """Runs the steps' checks on one pass's outputs.  Parsed documents and
    reference results are cached by file content, so the reference scans
    run once per distinct document, not once per round."""

    def __init__(self, in_dir):
        self.in_dir = in_dir
        self.pass_dir = None
        self._cache = {}

    def _path(self, name):
        inp = os.path.join(self.in_dir, name)
        return inp if os.path.exists(inp) else os.path.join(self.pass_dir, name)

    def parse(self, text):
        key = ("json", text)
        if key not in self._cache:
            self._cache[key] = json.loads(text)
        return self._cache[key]

    def json(self, name):
        """An input document, or an earlier step's output in this pass."""
        if isinstance(name, dict):
            return name
        with open(self._path(name)) as fh:
            return self.parse(fh.read())

    def ref(self, cls, name):
        doc = self.json(name)
        key = (cls, id(doc))
        if key not in self._cache:
            self._cache[key] = (cls(doc), doc)
        return self._cache[key][0]

    def memo(self, obj, method):
        key = (id(obj), method)
        if key not in self._cache:
            if method == "vectors":
                value = {s: obj.vector(s) for s in obj.profiles()}
            else:
                value = getattr(obj, method)()
            self._cache[key] = (value, obj)
        return self._cache[key][0]

    def counterexamples(self, theorem, seeds):
        if theorem != "strict_monotone_inclusion":
            return set()
        key = ("genuine", tuple(seeds))
        if key not in self._cache:
            from optiform import oracle
            found = set()
            for s in seeds:
                problem = oracle.generate_instance(theorem, oracle.GeneratorConfig(seed=s))
                if problem.semiring.kind == "weighted" and \
                        genuine_counterexample(ref.Scsp(_as_document(problem))):
                    found.add(s)
            self._cache[key] = found
        return self._cache[key]

    def run(self, step, pass_dir, code, stdout):
        """None when the step's output is right, else the reason it is not."""
        self.pass_dir = pass_dir
        try:
            report = self.parse(stdout)
            step.check(self, code, report)
        except Failed as exc:
            return str(exc)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            return "unreadable output: %s: %s" % (type(exc).__name__, exc)
        return None
