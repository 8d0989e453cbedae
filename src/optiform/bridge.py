"""Cross-formalism translations.

CP-net <-> parametrized-preference game, SCSP -> payoff game (local and
global forms), payoff game -> SCSP (per-player cost tuples and no-regret
hard constraints), and the Pareto-efficient Nash equilibria with their
cost tuples.
"""

import itertools
import math
from fractions import Fraction

from . import cpnet, pgame, semiring, softcsp
from .errors import ValidationError, check_space


def game_of_cpnet(net):
    """Variables become players, CPT rows become parametrized preferences;
    the neighbour function is the parent relation."""
    return pgame.PPGame(net.variables, net.domains, net.parents,
                        tuple(map(dict, net.rows)))


def cpnet_of_game(game):
    """Players become variables with full parent sets; graphical preferences
    are expanded by ignoring the non-neighbour coordinates."""
    parents, rows = cpnet.full_tables(game.players, game.strategies, game.neigh, game.prefs)
    return cpnet.from_tables(game.players, game.strategies, parents, rows)


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
    n = len(problem.variables)
    payoffs = []
    for i in range(n):
        incident = [c for c in problem.constraints if i in c.scope]
        scope = tuple(sorted(neigh[i] + (i,)))
        check_space(math.prod(len(problem.domains[j]) for j in scope),
                    "payoff table of %s" % problem.variables[i])
        pos = {j: k for k, j in enumerate(scope)}
        table = {}
        for s in itertools.product(*(problem.domains[j] for j in scope)):
            vals = [
                c.table[tuple(s[pos[j]] for j in c.scope)] for c in incident
            ]
            table[s] = semiring.combine_all(problem.semiring, vals)
        payoffs.append(table)
    return pgame.PayoffGame(
        problem.variables, problem.domains, neigh, tuple(payoffs), problem.semiring
    )


def global_map(problem):
    """Every player is paid the full solution preference."""
    if not semiring.is_linear(problem.semiring):
        raise ValidationError("global map needs a linearly ordered carrier")
    n = len(problem.variables)
    neigh = cpnet.full_parents(n)
    shared = {
        s: softcsp.solution_preference(problem, s)
        for s in problem.assignments()
    }
    payoffs = tuple(dict(shared) for _ in range(n))
    return pgame.PayoffGame(
        problem.variables, problem.domains, neigh, payoffs, problem.semiring
    )


def _cost_carrier(game, offset):
    """The offset m of the cost tuples (m - payoff per player), by default
    the top payoff and never below it, and their carrier: one weighted
    factor per player."""
    if game.carrier is not None:
        raise ValidationError("this mapping needs plain rational payoffs")
    if not game.players:
        raise ValidationError("cost tuples need at least one player")
    top = max(max(t.values()) for t in game.payoffs)
    m = Fraction(offset) if offset is not None else Fraction(top)
    if m < top:
        raise ValidationError("offset %s is below the maximum payoff %s" % (m, top))
    return m, semiring.product(*(semiring.WEIGHTED for _ in game.players))


def scsp_of_game(game, offset=None):
    """One soft constraint per player over an n-fold weighted product;
    the player's coordinate carries the cost offset - payoff, the rest 0."""
    m, spec = _cost_carrier(game, offset)
    n = len(game.players)
    constraints = []
    for i in range(n):
        scope = game.local_scope(i)
        table = {}
        for s, p in game.payoffs[i].items():
            payload = [Fraction(0)] * n
            payload[i] = m - p
            table[s] = semiring.value(spec, tuple(payload))
        constraints.append(softcsp.SoftConstraint(scope, table))
    return softcsp.SoftCSP(
        game.players, game.strategies, tuple(constraints), spec
    )


def regret_constraints(game):
    """Per player, a hard constraint allowing exactly its best replies: the
    local tuples in which its strategy weakly maximizes its payoff."""
    constraints = tuple(
        softcsp.SoftConstraint(scope, {
            t: semiring.value(semiring.BOOLEAN, t in best) for t in game.payoffs[i]
        })
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
    its cost tuple alone, boxed here straight from its payoffs."""
    m, spec = _cost_carrier(game, offset)
    check_space(game.space_size())
    players = range(len(game.players))
    return [
        (s, semiring.value(spec, tuple(m - game.payoff(i, s) for i in players)))
        for s in pgame.pareto_maximal(game, pgame.nash_equilibria_payoff(game))
    ]
