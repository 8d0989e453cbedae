"""The one literal definition of each notion of optimality the tests hold
optiform to: stable outcomes, Nash equilibria, Pareto efficiency and the
optimal solutions of soft CSPs, and of dominance between outcomes and the
parents a preference table depends on.  Each is a nested loop over a
record's fields that asks order only of the boxed predicates
(`payoff_leq`, `payoff_lt`, `semiring.strictly_less`,
`softcsp.solution_preference`) or of the rows, drops a member at its first
witness and calls no solver, search or oracle referee.  Results are lists
in enumeration order.
"""

from optiform import bridge, semiring, softcsp


def stable(outcomes, domains, parents, rows):
    """The outcomes where no index has a value placed earlier in the row
    its parents select."""
    def flippable(o):
        for i, (domain, ps, r) in enumerate(zip(domains, parents, rows)):
            order = r[tuple(o[p] for p in ps)]
            for v in domain:
                if order.index(v) < order.index(o[i]):
                    return True
        return False
    return [o for o in outcomes if not flippable(o)]


def dominates(parents, rows, better, worse):
    """Whether a nonempty chain of worsening flips leads from `better` to
    `worse`: breadth first from `better`, each step giving one index a value
    placed later in the row its parents select."""
    def flips(o):
        for i, (ps, r) in enumerate(zip(parents, rows)):
            order = r[tuple(o[p] for p in ps)]
            for v in order[order.index(o[i]) + 1:]:
                yield o[:i] + (v,) + o[i + 1:]
    seen, frontier = set(), [better]
    while frontier:
        reached = [w for o in frontier for w in flips(o)]
        if worse in reached:
            return True
        frontier = [w for w in dict.fromkeys(reached) if w not in seen]
        seen.update(frontier)
    return False


def essential_parents(parents, rows):
    """The parents, in their order, that some two rows' keys differ in
    alone while the rows' orders differ: the rows whose keys agree off the
    parent's position do not all hold the order of the first of them."""
    def essential(k):
        first = {}
        return any(first.setdefault(a[:k] + a[k + 1:], order) != order
                   for a, order in rows.items())
    return [p for k, p in enumerate(parents) if essential(k)]


def optimal_outcomes(net):
    return stable(net.outcomes(), net.domains, net.parents, net.rows)


def nash(game):
    """The joint strategies of a payoff game from which no player gains by
    deviating alone."""
    def deviates(s):
        for i, values in enumerate(game.strategies):
            p = game.payoff(i, s)
            for v in values:
                if game.payoff_lt(p, game.payoff(i, s[:i] + (v,) + s[i + 1:])):
                    return True
        return False
    return [s for s in game.joint_strategies() if not deviates(s)]


def payoff_vector(game, s):
    return tuple(game.payoff(i, s) for i in range(len(game.players)))


def pareto_less(game, a, b):
    """Payoff vector b is at least a for every player and above it for some."""
    return all(map(game.payoff_leq, a, b)) and any(map(game.payoff_lt, a, b))


def pareto_among(game, joint):
    """The members of `joint`, in order, whose payoff vector no member's
    vector is above."""
    vectors = [(s, payoff_vector(game, s)) for s in joint]
    return [s for s, a in vectors if not any(pareto_less(game, a, b) for _, b in vectors)]


def pareto(game):
    return pareto_among(game, game.joint_strategies())


def optimal_solutions(problem):
    """The (assignment, preference) pairs whose preference no assignment's
    strictly exceeds.  Each distinct preference is compared with each
    other once."""
    scored = [(s, softcsp.solution_preference(problem, s)) for s in problem.assignments()]
    values = {p for _, p in scored}
    top = {p for p in values
           if not any(semiring.strictly_less(problem.semiring, p, q) for q in values)}
    return [(s, p) for s, p in scored if p in top]


def boolean_solutions(problem):
    """The assignments of preference 1 of a boolean problem."""
    return [s for s in problem.assignments()
            if softcsp.solution_preference(problem, s).payload]


def pareto_nash(game, offset=None):
    """The join route: the optimal solutions above 0 of the cost-tuple
    problem joined with the no-regret constraints."""
    merged = softcsp.join(bridge.scsp_of_game(game, offset), bridge.regret_constraints(game))
    bottom = semiring.zero(merged.semiring)
    return [(s, p) for s, p in optimal_solutions(merged) if p.payload != bottom.payload]
