"""Brute-force reference implementations, seeded instance generators, and
the theorem check suites that pit them against the main modules.

The brute routines share only the data types with the main modules: every
result here is recomputed from the definitions, never by calling the main
solvers.  A payoff game's payoffs are read once into one table per game,
which every referee of a check shares: each player's payoffs are interned
to small ints, and the order of each distinct pair of them is asked of the
game's `payoff_leq`/`payoff_lt` (so of `semiring.leq`) once, on first use.
Then each candidate outcome or joint strategy is tested against its
improving flips, deviations or dominators, and is dropped at the first such
witness.  Nothing here calls the exact codes of `semiring._compile`, the
skyline `semiring.maximal` or the Nash and Pareto solvers of `pgame`.
"""

import itertools
import math
import random
from fractions import Fraction

from . import bridge, cpnet, pgame, semiring, softcsp
from .errors import ValidationError, check_space
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


def _unflipped(outcomes, domains, parents, rows):
    """Definition-literal, over raw tables: the outcomes, in order, where no
    index has a value placed earlier in the row its parents select: the
    optimal outcomes of a CP-net, the Nash equilibria of a PPGame."""
    def better_flips(o):
        for i, (dom, ps, r) in enumerate(zip(domains, parents, rows)):
            order = r[tuple(o[p] for p in ps)]
            rank = order.index(o[i])
            yield from (v for v in dom if v != o[i] and order.index(v) < rank)
    return _unbeaten(outcomes, better_flips)


def _tables(x):
    """The names, domains, parents and rows of a CP-net or a PPGame."""
    if isinstance(x, pgame.PPGame):
        return x.players, x.strategies, x.neigh, x.prefs
    return x.variables, x.domains, x.parents, x.rows


def brute_optimal_outcomes(net):
    """The optimal outcomes of a CP-net, from the definition."""
    return _unflipped(net.outcomes(), net.domains, net.parents, net.rows)


class _PayoffTable:
    """A payoff game's payoffs, read once: `rows` maps each joint strategy,
    in enumeration order, to its vector of payoff ids, where a player's
    equal payoffs share one small int and the joint strategy is projected
    onto each player's scope (the canonical extension).  The order of two
    distinct ids of a player is asked of `game.payoff_leq`/`payoff_lt` on
    first use and remembered; equal ids are never asked, as the induced
    order is reflexive."""

    def __init__(self, game):
        self.game, self.values, self.order, local = game, [], [], []
        for i, table in enumerate(game.payoffs):
            ids = {}
            local.append(({t: ids.setdefault(v, len(ids)) for t, v in table.items()},
                          game.local_scope(i)))
            self.values.append(list(ids))
            self.order.append({})
        self.rows = {s: tuple(t[tuple(s[j] for j in scope)] for t, scope in local)
                     for s in game.joint_strategies()}

    def relation(self, i, a, b):
        """(payoff a <= payoff b, payoff a < payoff b) for distinct payoff
        ids a and b of player i."""
        known = self.order[i].get((a, b))
        if known is None:
            x, y = self.values[i][a], self.values[i][b]
            known = self.order[i][a, b] = (self.game.payoff_leq(x, y),
                                           self.game.payoff_lt(x, y))
        return known

    def dominates(self, q, p):
        """Whether id vector q is weakly better than p for every player and
        strictly better for some, in one pass that stops at the first player
        q is not weakly better for."""
        strict = False
        for i, (a, b) in enumerate(zip(p, q)):
            if a != b:
                leq, lt = self.relation(i, a, b)
                if not leq:
                    return False
                strict = strict or lt
        return strict

    def undominated(self, joint):
        """The members of `joint`, in order, whose vector no member's
        vector dominates."""
        vectors = set(map(self.rows.__getitem__, joint))
        return _unbeaten(joint, lambda s: (
            q for q in vectors if self.dominates(q, self.rows[s])))


def brute_nash(game, table=None):
    """The pure Nash equilibria of a PPGame or a PayoffGame, from the
    definition.  `table`, the payoff game's `_PayoffTable`, is built if not
    given."""
    if isinstance(game, pgame.PPGame):
        return _unflipped(game.joint_strategies(), game.strategies, game.neigh, game.prefs)
    if table is None:
        table = _PayoffTable(game)
    rows = table.rows

    def better_deviations(s):
        for i in range(len(game.players)):
            p = rows[s][i]
            for v in game.strategies[i]:
                dev = s[:i] + (v,) + s[i + 1:]
                q = rows[dev][i]
                if q != p and table.relation(i, p, q)[1]:
                    yield dev
    return _unbeaten(rows, better_deviations)


def brute_pareto(game, table=None):
    """The Pareto-efficient joint strategies of a PayoffGame, from the
    definition.  `table`, the game's `_PayoffTable`, is built if not given."""
    if table is None:
        table = _PayoffTable(game)
    return table.undominated(list(table.rows))


# ----------------------------------------------------------------- generators

def _domains(rng, cfg, n):
    return tuple(
        tuple("v%d" % k for k in range(rng.randint(1, cfg.max_domain)))
        for _ in range(n)
    )


def _random_tables(rng, cfg, domains, graphical):
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
    return cpnet.from_tables(tuple("X%d" % i for i in range(n)), domains,
                             *_random_tables(rng, cfg, domains, True))


def _random_value(rng, spec):
    if spec.kind == "boolean":
        return semiring.value(spec, rng.random() < 0.5)
    if spec.kind == "fuzzy":
        return semiring.value(spec, Fraction(rng.randint(0, 10), 10))
    return semiring.value(spec, Fraction(rng.randint(0, 10)))


def random_scsp(cfg):
    rng = random.Random(cfg.seed)
    spec = semiring.SemiringSpec(cfg.carrier)
    n = rng.randint(1, cfg.max_vars)
    domains = _domains(rng, cfg, n)
    names = tuple("x%d" % i for i in range(n))
    witness = tuple(rng.choice(dom) for dom in domains)
    constraints = []
    for _ in range(rng.randint(1, n + 1)):
        size = rng.randint(1, min(2, n))
        scope = tuple(sorted(rng.sample(range(n), size)))
        table = {}
        for t in itertools.product(*(domains[j] for j in scope)):
            table[t] = _random_value(rng, spec)
        if cfg.force_consistent:
            table[tuple(witness[j] for j in scope)] = semiring.one(spec)
        constraints.append(softcsp.SoftConstraint(scope, table))
    return softcsp.SoftCSP(names, domains, tuple(constraints), spec)


def random_payoff_game(cfg):
    rng = random.Random(cfg.seed)
    n = rng.randint(1, cfg.max_vars)
    strategies = _domains(rng, cfg, n)
    neigh = tuple(
        tuple(sorted(j for j in range(n) if j != i and rng.random() < cfg.density))
        for i in range(n)
    )
    payoffs = []
    for i in range(n):
        scope = tuple(sorted(neigh[i] + (i,)))
        payoffs.append({
            s: Fraction(rng.randint(0, 10))
            for s in itertools.product(*(strategies[j] for j in scope))
        })
    return pgame.PayoffGame(
        tuple("p%d" % i for i in range(n)), strategies, neigh, tuple(payoffs)
    )


def random_ppgame(cfg):
    rng = random.Random(cfg.seed)
    n = rng.randint(1, cfg.max_vars)
    strategies = _domains(rng, cfg, n)
    return pgame.PPGame(tuple("p%d" % i for i in range(n)), strategies,
                        *_random_tables(rng, cfg, strategies, cfg.graphical))


def random_dag(cfg, max_nodes=10):
    rng = random.Random(cfg.seed)
    n = rng.randint(1, max_nodes)
    nodes = tuple("n%d" % i for i in range(n))
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
    right = set(brute_nash(bridge.game_of_cpnet(net)))
    return _verdict(left == right, "optimal %r vs nash %r" % (sorted(left), sorted(right)))


def _check_game_net_equivalence(game):
    net = bridge.cpnet_of_game(game)
    left = set(brute_nash(game))
    right = set(brute_optimal_outcomes(net))
    if left != right:
        return _verdict(False, "nash %r vs optimal %r" % (sorted(left), sorted(right)))
    back = bridge.game_of_cpnet(net)
    same = pgame.expand_full(back) == pgame.expand_full(game)
    return _verdict(same, "round-tripping the game through a net changed it")


def _check_parent_reduction(net):
    reduced = cpnet.reduce(net)
    if cpnet.flip_edges(net) != cpnet.flip_edges(reduced):
        return _verdict(False, "flip graphs of N and r(N) differ")
    g1 = pgame.expand_full(bridge.game_of_cpnet(net))
    g2 = pgame.expand_full(bridge.game_of_cpnet(reduced))
    if g1 != g2:
        return _verdict(False, "reduction changed the derived game")
    again = cpnet.reduce(bridge.cpnet_of_game(bridge.game_of_cpnet(reduced)))
    return _verdict(again == reduced, "round-tripping the net through a game changed its reduction")


def _stable(domains, parents, rows):
    """`_unflipped` over every outcome of raw tables."""
    check_space(math.prod(map(len, domains)), "outcome space")
    return _unflipped(itertools.product(*domains), domains, parents, rows)


def _check_elimination_round(x):
    """Each round of either elimination mode keeps the stable outcomes of a
    CP-net or a PPGame: its optimal outcomes or Nash equilibria."""
    names, domains, parents, rows = _tables(x)
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
    names, domains, parents, rows = _tables(x)
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
    flag, _ = pgame.is_hierarchical(game)
    if not flag:
        return Verdict(True, skipped=True, detail="instance not hierarchical")
    final = pgame.reduce_pp_fixpoint(game, "nbr")
    if not all(len(s) == 1 for s in final.strategies):
        return _verdict(False, "hierarchical game did not reduce to singletons")
    only = tuple(s[0] for s in final.strategies)
    return _verdict(brute_nash(game) == [only], "not the unique Nash equilibrium")


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


def _check_consistent_csp(problem):
    if problem.semiring.kind != "boolean":
        return Verdict(True, skipped=True, detail="not a boolean problem")
    if not softcsp.is_consistent(problem):
        return Verdict(True, skipped=True, detail="inconsistent instance")
    game = bridge.local_map(problem)
    top = semiring.one(problem.semiring).payload
    solutions = {
        s for s in problem.assignments()
        if softcsp.solution_preference(problem, s).payload == top
    }
    return _verdict(solutions == _nash_and_pareto(game),
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
    problem = bridge.regret_constraints(game)
    top = semiring.one(semiring.BOOLEAN).payload
    solutions = {
        s for s in problem.assignments()
        if softcsp.solution_preference(problem, s).payload == top
    }
    return _verdict(solutions == set(brute_nash(game)), "no-regret solutions differ from Nash")


def _check_pareto_nash(game):
    got = {s for s, _ in bridge.pareto_nash(game)}
    table = _PayoffTable(game)
    expected = set(table.undominated(brute_nash(game, table)))
    return _verdict(got == expected, "got %r expected %r" % (sorted(got), sorted(expected)))


def _check_tech_adoption(graph):
    game = pgame.tech_game(graph, 2)
    final = pgame.reduce_pp_fixpoint(game, "nbr")
    ok = all(s == ("t1",) for s in final.strategies)
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
