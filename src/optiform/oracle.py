"""Brute-force reference implementations, seeded instance generators, and
the theorem check suites that pit them against the main modules.

The brute routines share only the data types with the main modules: every
result here is recomputed from the definitions, never by calling the main
solvers.  A payoff game's referees share one table per game, which ranks
each distinct payoff table's payoffs once through the game's `payoff_leq`
(so `semiring.leq`); payoff carriers are linear, so a deviation improves
when its rank is higher, and a rank vector dominates when it is different
and no lower anywhere.  A stable outcome of raw tables holds the top of
each row its parents select, and a boolean solution holds a true payload in
each constraint.  Nothing here calls the exact codes of `semiring._compile`,
the skyline `semiring.maximal`, the Nash and Pareto solvers of `pgame` or
the stable-outcome search of `cpnet`, which gives a PPGame's Nash set.
Outcomes are projected onto each table's scope by one C-level getter per
index.  The generators pick names, values, payoffs and carrier cells from
tables built once per size or carrier, by the draws of a seeded
`random.Random`, and every instance is validated by its constructor.
"""

import functools
import itertools
import operator
import random
from fractions import Fraction

from . import bridge, cpnet, pgame, semiring, softcsp
from .errors import ValidationError
from .record import Record, init_field, replace


class GeneratorConfig(Record):
    __slots__ = _fields = ("seed", "max_vars", "max_domain", "density", "carrier",
                           "acyclic", "graphical", "force_consistent")

    def __init__(self, seed=0, max_vars=4, max_domain=3, density=0.5, carrier="weighted",
                 acyclic=False, graphical=False, force_consistent=False):
        init_field(self, "seed", seed)
        init_field(self, "max_vars", max_vars)
        init_field(self, "max_domain", max_domain)
        init_field(self, "density", density)
        init_field(self, "carrier", carrier)
        init_field(self, "acyclic", acyclic)
        init_field(self, "graphical", graphical)
        init_field(self, "force_consistent", force_consistent)


class Verdict(Record):
    __slots__ = _fields = ("ok", "skipped", "detail")

    def __init__(self, ok, skipped=False, detail=""):
        init_field(self, "ok", ok)
        init_field(self, "skipped", skipped)
        init_field(self, "detail", detail)


# ---------------------------------------------------------------- brute force

def _unbeaten(candidates, witnesses):
    """The candidates, in order, for which `witnesses(c)` yields nothing.
    Each candidate is dropped at its first witness."""
    return [c for c in candidates if next(witnesses(c), None) is None]


def _projection(indices):
    """A C-level getter of a tuple's values at `indices`, as a tuple: for
    fewer than two indices a slice, as `itemgetter` gives a bare value."""
    if len(indices) > 1:
        return operator.itemgetter(*indices)
    start = indices[0] if indices else 0
    return operator.itemgetter(slice(start, start + len(indices)))


def _unflipped(outcomes, parents, rows):
    """Definition-literal, over raw tables: the outcomes, in order, where
    every index holds the top of the row its parents select, so no value is
    placed earlier: the optimal outcomes of a CP-net, the Nash equilibria of
    a PPGame.  Each index filters the outcomes kept by the ones before it."""
    for i, (ps, r) in enumerate(zip(parents, rows)):
        key = _projection(ps)
        outcomes = [o for o in outcomes if r[key(o)][0] == o[i]]
    return list(outcomes)


def brute_optimal_outcomes(net):
    """The optimal outcomes of a CP-net, the Nash equilibria of a PPGame,
    from the definition."""
    return _unflipped(net.outcomes(), net.parents, net.rows)


def _ranks(game, table):
    """A payoff table with each payoff replaced by its rank among the
    table's distinct payoffs, 0 for the lowest.  Each payoff is hashed once,
    to the index of its first appearance; the distinct payoffs are sorted by
    binary insertion, which asks `game.payoff_leq` at most once per ordered
    pair and never of two equal payoffs.  The carrier is linear, so distinct
    payoffs get distinct ranks."""
    ids = {}
    cells = [ids.setdefault(x, len(ids)) for x in table.values()]
    values, ordered = list(ids), []
    for k, x in enumerate(values):
        lo, hi = 0, len(ordered)
        while lo < hi:
            mid = (lo + hi) // 2
            if game.payoff_leq(x, values[ordered[mid]]):
                hi = mid
            else:
                lo = mid + 1
        ordered.insert(lo, k)
    rank = [0] * len(values)
    for r, k in enumerate(ordered):
        rank[k] = r
    return dict(zip(table, map(rank.__getitem__, cells)))


class _PayoffTable:
    """A payoff game's payoffs, read once: `rows` maps each joint strategy,
    in enumeration order, to its vector of payoff ranks, one per player,
    each read at the joint strategy's projection onto the player's scope
    (the canonical extension) by one getter per player.  Each distinct
    payoff table is ranked once, so a table that several players share is
    ranked once for all of them."""

    def __init__(self, game):
        ranked, local = {}, []
        for i, table in enumerate(game.payoffs):
            if id(table) not in ranked:
                ranked[id(table)] = _ranks(game, table)
            local.append((ranked[id(table)], _projection(game.local_scope(i))))
        self.rows = {s: tuple([t[key(s)] for t, key in local])
                     for s in game.joint_strategies()}

    def undominated(self, joint):
        """The members of `joint`, in order, whose rank vector no member's
        vector dominates: no other vector is at least as high for every
        player.  Each distinct vector is tested against every other once."""
        vectors = set(map(self.rows.__getitem__, joint))
        ge = operator.ge
        front = {p for p in vectors
                 if not any(q != p and all(map(ge, q, p)) for q in vectors)}
        return [s for s in joint if self.rows[s] in front]


def brute_nash(game, table=None):
    """The pure Nash equilibria of a PayoffGame, from the definition.
    `table`, the game's `_PayoffTable`, is built if not given."""
    if table is None:
        table = _PayoffTable(game)
    rows = table.rows

    def better_deviations(s):
        for i, (p, values) in enumerate(zip(rows[s], game.strategies)):
            head, tail = s[:i], s[i + 1:]
            for v in values:
                dev = head + (v,) + tail
                if rows[dev][i] > p:
                    yield dev
    return _unbeaten(rows, better_deviations)


def brute_pareto(game, table=None):
    """The Pareto-efficient joint strategies of a PayoffGame, from the
    definition.  `table`, the game's `_PayoffTable`, is built if not given."""
    if table is None:
        table = _PayoffTable(game)
    return table.undominated(list(table.rows))


# ----------------------------------------------------------------- generators

@functools.lru_cache(maxsize=64)
def _labels(prefix, n):
    """The names prefix0 .. prefix<n-1>, built once per prefix and size:
    the names of a drawn record and the values of a drawn domain."""
    return tuple("%s%d" % (prefix, k) for k in range(n))


#: The plain payoffs a drawn payoff game picks from by `randint(0, 10)`.
_PAYOFFS = tuple(map(Fraction, range(11)))


@functools.lru_cache(maxsize=8)
def _cells(carrier):
    """The values a drawn constraint over `carrier` picks its cells from,
    all of one spec, which the drawn problem shares (the semiring checks
    that a value is of a problem's spec by identity first): `False` and
    `True` for a boolean carrier, indexed by `random() < 0.5`, otherwise
    k/10 (fuzzy) or k (weighted), indexed by `randint(0, 10)`."""
    spec = semiring.SemiringSpec(carrier)
    payloads = ((False, True) if carrier == "boolean" else
                [Fraction(k, 10) for k in range(11)] if carrier == "fuzzy" else _PAYOFFS)
    return tuple(semiring.value(spec, x) for x in payloads)


def _domains(rng, cfg, n):
    return tuple(_labels("v", rng.randint(1, cfg.max_domain)) for _ in range(n))


def _random_cpts(rng, cfg, domains, graphical):
    """Parents and rows for each index of `domains`.  When `graphical`, the
    indices are shuffled and each draws its parents, each kept with
    probability `cfg.density`, from the indices before it (`cfg.acyclic`)
    or from all others; otherwise every other index is a parent.  Each row
    is its index's domain, shuffled."""
    n = len(domains)
    if graphical:
        order = list(range(n))
        rng.shuffle(order)
        drawn = {}
        for rank, i in enumerate(order):
            pool = order[:rank] if cfg.acyclic else [j for j in range(n) if j != i]
            drawn[i] = tuple(sorted(j for j in pool if rng.random() < cfg.density))
        parents = tuple(map(drawn.__getitem__, range(n)))
    else:
        parents = cpnet.full_parents(n)
    rows = []
    for i, ps in enumerate(parents):
        table = {}
        for pa in itertools.product(*map(domains.__getitem__, ps)):
            perm = list(domains[i])
            rng.shuffle(perm)
            table[pa] = tuple(perm)
        rows.append(table)
    return parents, tuple(rows)


def random_cpnet(cfg):
    rng = random.Random(cfg.seed)
    n = rng.randint(1, cfg.max_vars)
    domains = _domains(rng, cfg, n)
    return cpnet.CPNet(_labels("X", n), domains, *_random_cpts(rng, cfg, domains, True))


def random_scsp(cfg):
    rng = random.Random(cfg.seed)
    cells = _cells(cfg.carrier)
    spec = cells[0].spec
    draw = (functools.partial(rng.randint, 0, 10) if spec.kind != "boolean"
            else lambda: rng.random() < 0.5)
    n = rng.randint(1, cfg.max_vars)
    domains = _domains(rng, cfg, n)
    witness = tuple(rng.choice(dom) for dom in domains)
    constraints = []
    for _ in range(rng.randint(1, n + 1)):
        size = rng.randint(1, min(2, n))
        scope = tuple(sorted(rng.sample(range(n), size)))
        table = {t: cells[draw()] for t in itertools.product(*map(domains.__getitem__, scope))}
        if cfg.force_consistent:
            table[tuple(witness[j] for j in scope)] = semiring.one(spec)
        constraints.append(softcsp.SoftConstraint(scope, table))
    return softcsp.SoftCSP(_labels("x", n), domains, tuple(constraints), spec)


def random_payoff_game(cfg):
    rng = random.Random(cfg.seed)
    n = rng.randint(1, cfg.max_vars)
    strategies = _domains(rng, cfg, n)
    neigh = tuple(
        tuple(sorted(j for j in range(n) if j != i and rng.random() < cfg.density))
        for i in range(n)
    )
    payoffs = tuple(
        {s: _PAYOFFS[rng.randint(0, 10)]
         for s in itertools.product(*map(strategies.__getitem__, sorted(neigh[i] + (i,))))}
        for i in range(n)
    )
    return pgame.PayoffGame(_labels("p", n), strategies, neigh, payoffs)


def random_ppgame(cfg):
    rng = random.Random(cfg.seed)
    n = rng.randint(1, cfg.max_vars)
    strategies = _domains(rng, cfg, n)
    return pgame.PPGame(_labels("p", n), strategies,
                        *_random_cpts(rng, cfg, strategies, cfg.graphical))


def random_dag(cfg):
    rng = random.Random(cfg.seed)
    n = rng.randint(1, 10)
    nodes = _labels("n", n)
    edges = []
    for j in range(1, n):
        # cap in-degree so technology preference tables stay desk-scale
        preds = rng.sample(range(j), min(j, rng.randint(0, 4)))
        edges.extend((nodes[i], nodes[j]) for i in sorted(preds))
    return pgame.DirectedGraph(nodes, tuple(edges))


# ------------------------------------------------------------ theorem checks

def _verdict(ok, detail=""):
    return Verdict(bool(ok), detail="" if ok else detail)


def _check_net_game_equivalence(net):
    left = set(brute_optimal_outcomes(net))
    right = set(brute_optimal_outcomes(bridge.game_of_cpnet(net)))
    return _verdict(left == right, "optimal %r vs nash %r" % (sorted(left), sorted(right)))


def _check_game_net_equivalence(game):
    net = bridge.cpnet_of_game(game)
    left = set(brute_optimal_outcomes(game))
    right = set(brute_optimal_outcomes(net))
    if left != right:
        return _verdict(False, "nash %r vs optimal %r" % (sorted(left), sorted(right)))
    same = bridge.cpnet_of_game(bridge.game_of_cpnet(net)) == net
    return _verdict(same, "round-tripping the game through a net changed it")


def _check_parent_reduction(net):
    reduced = cpnet.reduce(net)
    if cpnet.flip_edges(net) != cpnet.flip_edges(reduced):
        return _verdict(False, "flip graphs of N and r(N) differ")
    full = bridge.cpnet_of_game(bridge.game_of_cpnet(reduced))
    if bridge.cpnet_of_game(bridge.game_of_cpnet(net)) != full:
        return _verdict(False, "reduction changed the derived game")
    again = cpnet.reduce(full)
    return _verdict(again == reduced, "round-tripping the net through a game changed its reduction")


def _stable(domains, parents, rows):
    """`_unflipped` over every outcome of raw tables."""
    return _unflipped(softcsp.space(domains, "outcome space"), parents, rows)


def _check_elimination_round(x):
    """Each round of either elimination mode keeps the stable outcomes of a
    CP-net or a PPGame: its optimal outcomes or Nash equilibria."""
    names, domains, parents, rows = x.variables, x.domains, x.parents, x.rows
    before = set(_stable(domains, parents, rows))
    for mode in ("nbr", "s"):
        d, r = domains, rows
        while True:
            removals = cpnet.removable_values(d, r, mode)
            if not any(removals):
                break
            d, r = cpnet.restrict(names, parents, r, cpnet.without(d, removals))
            if set(_stable(d, parents, r)) != before:
                return _verdict(False, "mode %s round changed the stable outcomes" % mode)
    return _verdict(True)


def _check_elimination_fixpoint(x):
    """The nbr fixpoint keeps the stable outcomes, and when it leaves one
    value per index, their outcome is the only stable one."""
    names, domains, parents, rows = x.variables, x.domains, x.parents, x.rows
    stable = _stable(domains, parents, rows)
    final, final_rows = cpnet.eliminate_values(names, domains, parents, rows, "nbr")
    if set(stable) != set(_stable(final, parents, final_rows)):
        return _verdict(False, "fixpoint changed the stable outcomes")
    if all(len(d) == 1 for d in final):
        only = tuple(d[0] for d in final)
        return _verdict(stable == [only], "the singleton outcome is not the only stable one")
    return _verdict(True)


def _check_acyclic_sweep(net):
    final = cpnet.reduce_to_fixpoint(net, "nbr")
    if not all(len(d) == 1 for d in final.domains):
        return _verdict(False, "acyclic net did not reduce to singletons")
    only = tuple(d[0] for d in final.domains)
    if only != cpnet.sweep_optimal(net):
        return _verdict(False, "reduction disagrees with the sweep")
    return _verdict(brute_optimal_outcomes(net) == [only], "not the unique optimum")


def _check_hierarchical_unique(game):
    flag, _ = cpnet.essential_levels(game)
    if not flag:
        return Verdict(True, skipped=True, detail="instance not hierarchical")
    final = cpnet.reduce_to_fixpoint(game, "nbr")
    if not all(len(s) == 1 for s in final.domains):
        return _verdict(False, "hierarchical game did not reduce to singletons")
    only = tuple(s[0] for s in final.domains)
    return _verdict(brute_optimal_outcomes(game) == [only], "not the unique Nash equilibrium")


def _check_strict_monotone(problem):
    if not semiring.is_strictly_monotonic(problem.semiring):
        return Verdict(True, skipped=True, detail="combination not strictly monotonic")
    game = bridge.local_map(problem)
    optimal = {s for s, _ in softcsp.optimal_solutions(problem)}
    table = _PayoffTable(game)
    nash = set(brute_nash(game, table))
    pareto = set(brute_pareto(game, table))
    broken = []
    if not optimal <= nash:
        broken.append("Nash")
    if not optimal <= pareto:
        broken.append("Pareto")
    return _verdict(
        not broken,
        "optimal solutions escape the %s set of the local game: %r"
        % ("+".join(broken), sorted(optimal - (nash & pareto))),
    )


def _nash_and_pareto(game):
    """The joint strategies that are both Nash and Pareto-efficient."""
    table = _PayoffTable(game)
    return set(brute_nash(game, table)) & set(brute_pareto(game, table))


def _boolean_solutions(problem):
    """The assignments of preference 1 of a boolean problem: those where
    every constraint's payload, read at the assignment's projection onto
    its scope, is true."""
    tables = [(c.table, _projection(c.scope)) for c in problem.constraints]
    return {s for s in problem.assignments()
            if all(t[key(s)].payload for t, key in tables)}


def _check_consistent_csp(problem):
    if problem.semiring.kind != "boolean":
        return Verdict(True, skipped=True, detail="not a boolean problem")
    if not softcsp.is_consistent(problem):
        return Verdict(True, skipped=True, detail="inconsistent instance")
    game = bridge.local_map(problem)
    return _verdict(_boolean_solutions(problem) == _nash_and_pareto(game),
                    "solutions differ from Nash-and-Pareto of the local game")


def _check_global_map(problem):
    game = bridge.global_map(problem)
    optimal = {s for s, _ in softcsp.optimal_solutions(problem)}
    return _verdict(optimal == _nash_and_pareto(game),
                    "optimal differs from Nash-and-Pareto of the global game")


def _check_pareto_frontier(game):
    scsp = bridge.scsp_of_game(game)
    optimal = {s for s, _ in softcsp.optimal_solutions(scsp)}
    pareto = set(brute_pareto(game))
    return _verdict(optimal == pareto, "optimal of the cost-tuple problem differs from the Pareto set")


def _check_regrets(game):
    solutions = _boolean_solutions(bridge.regret_constraints(game))
    return _verdict(solutions == set(brute_nash(game)), "no-regret solutions differ from Nash")


def _check_pareto_nash(game):
    got = {s for s, _ in bridge.pareto_nash(game)}
    table = _PayoffTable(game)
    expected = set(table.undominated(brute_nash(game, table)))
    return _verdict(got == expected, "got %r expected %r" % (sorted(got), sorted(expected)))


def _check_tech_adoption(graph):
    game = pgame.tech_game(graph, 2)
    final = cpnet.reduce_to_fixpoint(game, "nbr")
    ok = all(s == ("t1",) for s in final.domains)
    return _verdict(ok, "technology game did not settle on t1 everywhere")


THEOREMS = {
    "net_game_equivalence": (random_cpnet, _check_net_game_equivalence),
    "game_net_equivalence": (random_ppgame, _check_game_net_equivalence),
    "parent_reduction": (random_cpnet, _check_parent_reduction),
    "elimination_round_game": (lambda cfg: random_ppgame(replace(cfg, graphical=True)), _check_elimination_round),
    "elimination_round_net": (random_cpnet, _check_elimination_round),
    "elimination_fixpoint_game": (lambda cfg: random_ppgame(replace(cfg, graphical=True)), _check_elimination_fixpoint),
    "elimination_fixpoint_net": (random_cpnet, _check_elimination_fixpoint),
    "acyclic_sweep": (lambda cfg: random_cpnet(replace(cfg, acyclic=True)), _check_acyclic_sweep),
    "hierarchical_unique": (
        lambda cfg: random_ppgame(replace(cfg, graphical=True, acyclic=True)),
        _check_hierarchical_unique,
    ),
    "strict_monotone_inclusion": (random_scsp, _check_strict_monotone),
    "consistent_csp": (
        lambda cfg: random_scsp(replace(cfg, carrier="boolean", force_consistent=True)),
        _check_consistent_csp,
    ),
    "global_map": (random_scsp, _check_global_map),
    "pareto_frontier": (random_payoff_game, _check_pareto_frontier),
    "regrets": (random_payoff_game, _check_regrets),
    "pareto_nash": (random_payoff_game, _check_pareto_nash),
    "tech_adoption": (random_dag, _check_tech_adoption),
}


def _theorem(theorem_id):
    """The (generator, check) pair of a theorem id."""
    if theorem_id not in THEOREMS:
        raise ValidationError("unknown theorem id %r" % (theorem_id,))
    return THEOREMS[theorem_id]


def check_theorem(theorem_id, instance):
    return _theorem(theorem_id)[1](instance)


def generate_instance(theorem_id, cfg):
    return _theorem(theorem_id)[0](cfg)


def run_suite(theorem_id, seeds):
    """Run one theorem over many seeds; returns {seed: Verdict}."""
    return {
        seed: check_theorem(theorem_id, generate_instance(theorem_id, GeneratorConfig(seed=seed)))
        for seed in seeds
    }
