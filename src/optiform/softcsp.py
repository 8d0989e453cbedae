"""Soft CSP model: evaluation, optimal-solution enumeration, the backtracking
search for hard constraints, consistency, join.

A joint assignment is a tuple of values positionally aligned with the
problem's variable list.  Enumeration walks variables by index and domain
values in declaration order, so output is deterministic.

`space` and `solutions` hold the enumeration bound: every joint space a
command enumerates, and every space it searches, is checked against
`errors.check_space` there before its first element is made.
"""

import itertools
import math
import operator

from . import semiring
from .errors import CarrierMismatchError, ValidationError, check_space
from .record import Record, init_field


def check_names(names, domains):
    """The names differ, and each domain is nonempty and repeats no value."""
    if len(set(names)) != len(names):
        raise ValidationError("duplicate names in %r" % (names,))
    for name, dom in zip(names, domains):
        if not dom or len(set(dom)) != len(dom):
            raise ValidationError(("a value repeats in the domain of %s" if dom
                                   else "empty domain for %s") % name)


def check_table(names, domains, scope, keys, label):
    """Each index of `scope` indexes `names`, none twice, and `keys` are
    exactly the tuples over the domains of the scope: the one check of a
    table over a scope, for soft constraints, CP-net rows and game
    preferences and payoffs.  `label()` names the table in an error; it is
    called only when a check fails."""
    n = len(names)
    for i in scope:
        if not 0 <= i < n:
            raise ValidationError("%s: scope index %r is out of range" % (label(), i))
    if len(set(scope)) != len(scope):
        twice = [i for i in scope if scope.count(i) > 1][0]
        raise ValidationError("%s names %s twice" % (label(), names[twice]))
    # keys in product order are the product, and only others are hashed; one
    # tuple past the table's size is enough to tell the product from them, so
    # a table far smaller than its product fails without building it
    doms = list(map(domains.__getitem__, scope))
    if in_product_order(keys, doms):
        return
    expected = set(itertools.islice(itertools.product(*doms), len(keys) + 1))
    if keys != expected:
        for t in itertools.product(*doms):
            if t not in keys:
                raise ValidationError("%s misses the tuple %r" % (label(), t))
        spurious = next(t for t in keys if t not in expected)
        raise ValidationError("%s has the spurious tuple %r" % (label(), spurious))


def in_product_order(keys, domains):
    """Whether `keys` are the tuples of `itertools.product(*domains)`, in its
    order: the one order test of a table's keys, made as the product is
    streamed, never listed."""
    return (len(keys) == math.prod(map(len, domains))
            and all(map(operator.eq, keys, itertools.product(*domains))))


def cells(table, domains):
    """The cells of `table` at the tuples of `itertools.product(*domains)`,
    in its order: the one reader of a table over a product.  The table's
    values when its keys come in that order (`in_product_order`), one
    lookup per tuple otherwise."""
    if in_product_order(table.keys(), domains):
        return list(table.values())
    return list(map(table.__getitem__, itertools.product(*domains)))


def check_assignment(names, domains, s):
    """`s` holds one value of each name's domain, in the names' order."""
    if len(s) != len(names):
        raise ValidationError("assignment has wrong length")
    for name, dom, v in zip(names, domains, s):
        if v not in dom:
            raise ValidationError("value %r not in the domain of %s" % (v, name))


class SoftConstraint(Record):
    __slots__ = _fields = ("scope", "table")

    def __init__(self, scope, table):
        init_field(self, "scope", scope)  # variable indices, ordered
        init_field(self, "table", table)  # tuple of values over the scope -> SemiringValue

    def lookup(self, assignment):
        """Table value at the projection of a full assignment onto the scope."""
        return self.table[tuple(assignment[i] for i in self.scope)]


class SoftCSP(Record):
    __slots__ = _fields = ("variables", "domains", "constraints", "semiring")

    def __init__(self, variables, domains, constraints, semiring):
        init_field(self, "variables", variables)  # names
        init_field(self, "domains", domains)  # per-variable tuple of values
        init_field(self, "constraints", constraints)
        init_field(self, "semiring", semiring)
        self.__post_init__()

    def __post_init__(self):
        if len(self.variables) != len(self.domains):
            raise ValidationError("variables and domains differ in length")
        check_names(self.variables, self.domains)
        for k, c in enumerate(self.constraints):
            check_table(self.variables, self.domains, c.scope, c.table.keys(),
                        lambda: "constraint %d" % k)
            for v in c.table.values():
                if not isinstance(v, semiring.SemiringValue) or v.spec != self.semiring:
                    raise CarrierMismatchError(
                        "constraint value %r is not in the problem's carrier" % (v,)
                    )

    def space_size(self):
        return math.prod(map(len, self.domains))

    def assignments(self):
        return space(self.domains)


def space(domains, what="joint assignment space"):
    """`itertools.product(*domains)` once the bound admits its size, the
    product of the domain sizes; `what` names the space in the error."""
    check_space(math.prod(map(len, domains)), what)
    return itertools.product(*domains)


def solution_preference(problem, s):
    """Combine the constraint values at s; the empty problem yields 1."""
    check_assignment(problem.variables, problem.domains, s)
    return semiring.combine_all(problem.semiring, [c.lookup(s) for c in problem.constraints])


def optimal_solutions(problem):
    """All assignments whose preference no other assignment strictly exceeds.

    For product carriers this is the Pareto frontier of the partial order.
    Output is sorted by domain-value declaration index per variable.  Each
    assignment's preference is folded from the exact codes of its constraint
    values, the optima are picked in one `semiring.maximal` pass (a skyline
    for products), and only the optima's preferences are boxed.
    """
    coded, fold = semiring._compile(problem.semiring, [c.table for c in problem.constraints])
    scoped = [(c.scope, t) for c, t in zip(problem.constraints, coded)]
    best = semiring.maximal(
        (s, fold([t[tuple(s[i] for i in scope)] for scope, t in scoped]))
        for s in problem.assignments()
    )
    return [(s, solution_preference(problem, s)) for s in best]


def solutions(domains, constraints, what="joint assignment space"):
    """The assignments of one value per index of `domains` that every
    constraint allows, in `itertools.product(*domains)` order.  The space
    searched is checked against the bound, named `what`, before the search
    starts.

    A constraint is a pair (scope, allowed): a tuple of indices and the
    tuples of values over them that it allows.  Indices are assigned in
    order, values in declaration order, on an explicit stack rather than by
    recursion; a constraint is tested as soon as the last index of its
    scope is set, so no assignment a set prefix already violates is ever
    extended.  A constraint over the empty scope allows everything or
    nothing.
    """
    check_space(math.prod(map(len, domains)), what)
    n = len(domains)
    checks = [[] for _ in range(n)]
    for scope, allowed in constraints:
        if not scope:
            if () not in allowed:
                return
            continue
        if len(scope) == 1:  # itemgetter of one index returns the bare value
            allowed = {t[0] for t in allowed}
        checks[max(scope)].append((operator.itemgetter(*scope), allowed))
    if not n:
        yield ()
        return
    values = [None] * n
    tries = [iter(domains[0])] + [None] * (n - 1)
    k = 0
    while k >= 0:
        for values[k] in tries[k]:
            for get, allowed in checks[k]:
                if get(values) not in allowed:
                    break
            else:  # every check at index k passed: keep this value
                break
        else:  # every value of index k tried: step back
            k -= 1
            continue
        if k == n - 1:
            yield tuple(values)
        else:
            k += 1
            tries[k] = iter(domains[k])


def is_consistent(problem):
    """Whether some assignment of a boolean problem has preference 1: one
    that every constraint allows at a tuple of payload 1."""
    if problem.semiring.kind != "boolean":
        raise ValidationError("consistency is defined for boolean problems only")
    top = semiring.one(problem.semiring)
    return next(solutions(problem.domains, [
        (c.scope, {t for t, v in c.table.items() if v.payload == top.payload})
        for c in problem.constraints
    ]), None) is not None


def lift_boolean(problem, spec):
    """Reinterpret a boolean problem in `spec`, mapping 1 to 1 and 0 to 0."""
    if problem.semiring.kind != "boolean":
        raise ValidationError("only boolean problems can be lifted")
    top, bot = semiring.one(spec), semiring.zero(spec)
    lifted = tuple(
        SoftConstraint(c.scope, {t: top if v.payload else bot for t, v in c.table.items()})
        for c in problem.constraints
    )
    return SoftCSP(problem.variables, problem.domains, lifted, spec)


def join(p1, p2):
    """Concatenate the constraint lists of two problems over the same variables.

    A boolean operand is lifted into the other operand's carrier first.
    """
    if p1.variables != p2.variables or p1.domains != p2.domains:
        raise ValidationError("join requires identical variables and domains")
    if p1.semiring != p2.semiring:
        if p2.semiring.kind == "boolean":
            p2 = lift_boolean(p2, p1.semiring)
        elif p1.semiring.kind == "boolean":
            p1 = lift_boolean(p1, p2.semiring)
        else:
            raise ValidationError("join requires matching semirings")
    return SoftCSP(
        p1.variables, p1.domains, p1.constraints + p2.constraints, p1.semiring
    )
