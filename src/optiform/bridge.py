"""Cross-formalism translations.

CP-net <-> parametrized-preference game, SCSP -> payoff game (local and
global forms), payoff game -> SCSP (per-player cost tuples and no-regret
hard constraints), and the Pareto-efficient Nash equilibria with their
cost tuples.  A game with parametrized preferences is the record of a
CP-net under another kind, so `game_of_cpnet` re-labels a net and
`cpnet_of_game` gives every variable all the others as parents.
"""

from fractions import Fraction

from . import cpnet, pgame, semiring, softcsp
from .errors import ValidationError


def game_of_cpnet(net):
    """The net's fields re-labelled as a game: variables become players,
    CPT rows parametrized preferences and parents neighbours."""
    return pgame.PPGame(net.variables, net.domains, net.parents, net.rows)


def cpnet_of_game(game):
    """Players become variables with full parent sets; graphical preferences
    are expanded by ignoring the non-neighbour coordinates."""
    parents, rows = cpnet.widen(game.variables, game.domains, game.parents, game.rows)
    return cpnet.CPNet(game.variables, game.domains, parents, rows)


def _shared_constraint_neighbourhoods(problem):
    n = len(problem.variables)
    neigh = [set() for _ in range(n)]
    for c in problem.constraints:
        for i in c.scope:
            neigh[i].update(j for j in c.scope if j != i)
    return tuple(tuple(sorted(s)) for s in neigh)


def local_map(problem):
    """Each variable becomes a player paid by its incident constraints."""
    if not semiring.is_linear(problem.semiring):
        raise ValidationError("local map needs a linearly ordered carrier")
    neigh = _shared_constraint_neighbourhoods(problem)
    scopes = [tuple(sorted(ns + (i,))) for i, ns in enumerate(neigh)]
    tables = [softcsp.space([problem.domains[j] for j in scope], "payoff table of %s" % name)
              for name, scope in zip(problem.variables, scopes)]  # every table before any is built
    payoffs = []
    for i, (scope, keys) in enumerate(zip(scopes, tables)):
        incident = [c for c in problem.constraints if i in c.scope]
        pos = {j: k for k, j in enumerate(scope)}
        payoffs.append({s: semiring.combine_all(problem.semiring, [
            c.table[tuple(s[pos[j]] for j in c.scope)] for c in incident]) for s in keys})
    return pgame.PayoffGame(
        problem.variables, problem.domains, neigh, tuple(payoffs), problem.semiring
    )


def global_map(problem):
    """Every player is paid the full solution preference."""
    if not semiring.is_linear(problem.semiring):
        raise ValidationError("global map needs a linearly ordered carrier")
    n = len(problem.variables)
    neigh = cpnet.full_parents(n)
    shared = {s: softcsp.solution_preference(problem, s) for s in problem.assignments()}
    return pgame.PayoffGame(
        problem.variables, problem.domains, neigh, (shared,) * n, problem.semiring
    )


def _cost_carrier(game, offset):
    """The payoff codes (`pgame._payoff_codes`); the offset m of the cost
    tuples (m - payoff per player), by default the top payoff, read at the
    highest code, and never below it; and their carrier, one weighted
    factor per player."""
    if game.carrier is not None:
        raise ValidationError("this mapping needs plain rational payoffs")
    if not game.players:
        raise ValidationError("cost tuples need at least one player")
    codes = pgame._payoff_codes(game)
    t, c = max(zip(game.payoffs, codes), key=lambda tc: max(tc[1].values()))
    top = t[max(c, key=c.get)]
    m = Fraction(offset) if offset is not None else Fraction(top)
    if m < top:
        raise ValidationError("offset %s is below the maximum payoff %s" % (m, top))
    return codes, m, semiring.product(*(semiring.WEIGHTED for _ in game.players))


def scsp_of_game(game, offset=None):
    """One soft constraint per player over an n-fold weighted product;
    the player's coordinate carries the cost offset - payoff, the rest 0."""
    _, m, spec = _cost_carrier(game, offset)
    zeros = (Fraction(0),) * len(game.players)
    return softcsp.SoftCSP(game.players, game.strategies, tuple(
        softcsp.SoftConstraint(game.local_scope(i), {
            s: semiring.value(spec, zeros[:i] + (m - p,) + zeros[i + 1:]) for s, p in t.items()})
        for i, t in enumerate(game.payoffs)), spec)


def regret_constraints(game):
    """Per player, a hard constraint allowing exactly its best replies: the
    local tuples in which its strategy weakly maximizes its payoff."""
    allowed, forbidden = semiring.one(semiring.BOOLEAN), semiring.zero(semiring.BOOLEAN)
    constraints = tuple(
        softcsp.SoftConstraint(scope, {t: allowed if t in best else forbidden
                                       for t in game.payoffs[i]})
        for i, (scope, best) in enumerate(pgame.best_replies(game))
    )
    return softcsp.SoftCSP(game.players, game.strategies, constraints, semiring.BOOLEAN)


def pareto_nash(game, offset=None):
    """The Pareto-efficient Nash equilibria, each with its preference in the
    cost-tuple problem `scsp_of_game(game, offset)`, in enumeration order.

    They are the members of the Nash set (`pgame.nash_equilibria_payoff`)
    that no other member Pareto-dominates, found by one skyline over their
    payoff-code vectors.  This equals the optimal solutions above the
    all-infinity bottom of the cost-tuple problem joined with the no-regret
    constraints: the lifted constraints give a non-equilibrium the bottom
    and an equilibrium the all-zero tuple, so an equilibrium's preference is
    its cost tuple alone, boxed here straight from its payoffs.  One compile
    of the payoffs serves the top payoff, the search and the skyline."""
    codes, m, spec = _cost_carrier(game, offset)
    players = range(len(game.players))
    return [
        (s, semiring.value(spec, tuple(m - game.payoff(i, s) for i in players)))
        for s in pgame._pareto_maximal(game, pgame._nash(game, codes), codes)
    ]
