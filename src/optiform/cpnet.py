"""CP-nets: flips, optimality, optimality constraints, eligibility, sweep,
redundancy reduction, elimination of never-best-response / dominated values,
and dominance: the ordering query on acyclic nets, then bounded search.

The preference-table core below works on raw per-index domains, parents and
rows.  A PPGame holds the same tables as a CPNet under other names, so the
game algorithms of `pgame` call the same core.
"""

import itertools
import math
import operator
from collections import deque

from . import semiring, softcsp
from .errors import ValidationError, check_space
from .record import Record, init_field

#: Result of a dominance query whose step budget tripped.
BUDGET_EXHAUSTED = "budget-exhausted"

DEFAULT_DOMINANCE_BUDGET = 10 ** 5


# ------------------------------------------------------ preference-table core

def check_strict_orders(orders, domain):
    """Each order lists every value of the (repeat-free) domain once."""
    ref = sorted(domain)
    for order in orders:
        if sorted(order) != ref:
            raise ValidationError(
                "%r is not a strict total order of domain %r" % (order, domain)
            )


def check_tables(names, domains, parents, rows, own_parent="%s is its own parent"):
    """The names differ, each domain is nonempty, no index is its own
    parent (refused with `own_parent` % its name), each table is total over
    its parents (`softcsp.check_table`), and each of its rows is a strict
    total order of its index's domain."""
    softcsp.check_names(names, domains)
    for i, (name, dom, ps, r) in enumerate(zip(names, domains, parents, rows)):
        if i in ps:
            raise ValidationError(own_parent % name)
        softcsp.check_table(names, domains, ps, r.keys(), lambda: "table of %s" % name)
        check_strict_orders(dict.fromkeys(r.values()), dom)


def stable_outcomes(domains, parents, rows):
    """Outcomes, in enumeration order, in which every value tops the row its
    parents select: the optimal outcomes of a CP-net, and the Nash equilibria
    of a game with parametrized preferences.  Table i allows, over its
    parents and i, each parent assignment followed by its row's top."""
    check_space(math.prod(map(len, domains)), "outcome space")
    yield from softcsp.solutions(domains, [
        (ps + (i,), {pa + (order[0],) for pa, order in r.items()})
        for i, (ps, r) in enumerate(zip(parents, rows))
    ])


def never_best(domain, rows):
    """The values that top no row."""
    tops = {order[0] for order in rows.values()}
    return {v for v in domain if v not in tops}


def dominated(domain, rows):
    """The values below one fixed other value in every row."""
    orders = dict.fromkeys(rows.values())
    out = set()
    for worse in domain:
        for better in domain:
            if better != worse and all(
                order.index(better) < order.index(worse) for order in orders
            ):
                out.add(worse)
                break
    return out


def removable_test(mode):
    """`never_best` for mode 'nbr', `dominated` for mode 's'."""
    if mode not in ("nbr", "s"):
        raise ValidationError("mode must be 'nbr' or 's'")
    return never_best if mode == "nbr" else dominated


def removable_values(domains, rows, mode):
    """Per-index sets of never-best-response (mode 'nbr') or dominated
    (mode 's') values."""
    return list(map(removable_test(mode), domains, rows))


def restrict(names, parents, rows, keep):
    """The tables cut down to the per-index values in `keep`.  An index
    whose values `keep` cuts is one kept shorter than its table's orders.
    The table of such an index or of a child of one loses the rows whose
    parent assignment mentions a dropped value, and a cut index's orders
    lose the dropped values, each distinct order once; every other table is
    returned as it is, the same dict.  Returns the kept domains and the new
    rows."""
    kept = tuple(map(tuple, keep))
    for name, k in zip(names, kept):
        if not k:
            raise ValidationError("removal empties the domain of %s" % name)
    changed = {i for i, (k, table) in enumerate(zip(kept, rows))
               if len(k) < len(next(iter(table.values())))}
    new_rows = []
    for i, (ps, table) in enumerate(zip(parents, rows)):
        own = i in changed
        if own or not changed.isdisjoint(ps):
            keys = itertools.product(*map(kept.__getitem__, ps))
            if own:
                keeps = kept[i].__contains__
                cut = {order: tuple(filter(keeps, order))
                       for order in dict.fromkeys(table.values())}
                table = {pa: cut[table[pa]] for pa in keys}
            else:
                table = {pa: table[pa] for pa in keys}
        new_rows.append(table)
    return kept, tuple(new_rows)


def eliminate_values(names, domains, parents, rows, mode, trace=None):
    """Elimination rounds over raw tables until nothing is removable: each
    round `restrict`s the tables to the values `removable_values` leaves.
    A round after the first tests only the tables the previous one rebuilt
    (the worklist of AC-3, Mackworth 1977): any other table is one a round
    found nothing removable in.  `trace`, if a list, collects the per-round
    removals.  Returns the final domains and rows, the inputs themselves
    when nothing was removable."""
    test = removable_test(mode)
    removals = list(map(test, domains, rows))
    while any(removals):
        before = rows
        domains, rows = restrict(names, parents, rows, without(domains, removals))
        if trace is not None:
            trace.append([sorted(r) for r in removals])
        removals = [set() if r is b else test(d, r) for d, r, b in zip(domains, rows, before)]
    return domains, rows


def without(domains, removals):
    """Each domain without its removed values, in declaration order."""
    return [[v for v in dom if v not in r] for dom, r in zip(domains, removals)]


def unused_parents(domains, parents, rows):
    """The parents of one table whose value never changes the selected order."""
    out = set()
    for k, y in enumerate(parents):
        rest = parents[:k] + parents[k + 1:]
        for a in itertools.product(*map(domains.__getitem__, rest)):
            if len({rows[a[:k] + (v,) + a[k:]] for v in domains[y]}) > 1:
                break
        else:
            out.add(y)
    return out


def drop_parents(domains, parents, rows, drop):
    """One table without the parents in `drop`, each read at the first value
    of its domain.  Returns the kept parents and their rows."""
    kept = tuple(p for p in parents if p not in drop)
    at = {p: domains[p][0] for p in drop}
    out = {}
    for a in itertools.product(*map(domains.__getitem__, kept)):
        at.update(zip(kept, a))
        out[a] = rows[tuple(map(at.__getitem__, parents))]
    return kept, out


def layers(items, ready):
    """Level 0 for the items `ready(item, placed)` accepts with nothing
    placed, then level 1 for those it accepts once level 0 is placed, and so
    on.  Returns (True, levels), or (False, None) when some item never is."""
    levels = {}
    remaining = set(items)
    level = 0
    while remaining:
        layer = {x for x in remaining if ready(x, levels)}
        if not layer:
            return False, None
        levels.update(dict.fromkeys(layer, level))
        remaining -= layer
        level += 1
    return True, levels


def parent_levels(parents):
    """`layers` of the indices, each placed once all its parents are: (True,
    levels) with every parent on a lower level than its child, or (False,
    None) when the parents form a cycle."""
    return layers(range(len(parents)), lambda i, placed: all(p in placed for p in parents[i]))


def full_parents(n):
    """Every other index as a parent, for each of n indices."""
    return tuple(tuple(j for j in range(n) if j != i) for i in range(n))


def full_tables(names, domains, parents, rows):
    """The same tables with every other index made a parent; the added
    parents are ignored.  Returns the new parents and rows."""
    wide = full_parents(len(domains))
    for name, others in zip(names, wide):  # every table before any is built
        check_space(math.prod(len(domains[j]) for j in others), "full table of %s" % name)
    new_rows = []
    for i, ps in enumerate(parents):
        keys = list(itertools.product(*map(domains.__getitem__, wide[i])))
        if not ps:
            new_rows.append(dict.fromkeys(keys, rows[i][()]))
            continue
        # parent p sits at p - (p > i) among the other indices; one index
        # projects to a bare value, so its rows are keyed by that value
        row = (rows[i] if len(ps) > 1 else {pa[0]: o for pa, o in rows[i].items()}).__getitem__
        project = operator.itemgetter(*(p - (p > i) for p in ps))
        new_rows.append(dict(zip(keys, map(row, map(project, keys)))))
    return wide, tuple(new_rows)


# -------------------------------------------------------------------- CP-nets

class CPTable(Record):
    __slots__ = _fields = ("owner", "parents", "rows")

    def __init__(self, owner, parents, rows):
        init_field(self, "owner", owner)
        init_field(self, "parents", parents)  # variable indices, ordered
        init_field(self, "rows", rows)  # parent assignment tuple -> order tuple (best first)


class CPNet(Record):
    # `parents` and `rows` hold the tables' per-index parents and rows, as
    # the table core takes them, and every algorithm reads them, not the
    # tables; they are derived, so not fields
    __slots__ = ("variables", "domains", "tables", "parents", "rows")
    _fields = ("variables", "domains", "tables")

    def __init__(self, variables, domains, tables):
        init_field(self, "variables", variables)
        init_field(self, "domains", domains)
        init_field(self, "tables", tables)  # one CPTable per variable, positionally aligned
        self.__post_init__()

    def __post_init__(self):
        if not (len(self.variables) == len(self.domains) == len(self.tables)):
            raise ValidationError("variables, domains and tables differ in length")
        for i, t in enumerate(self.tables):
            if t.owner != i:
                raise ValidationError("table %d owned by variable %d" % (i, t.owner))
        init_field(self, "parents", tuple([t.parents for t in self.tables]))
        init_field(self, "rows", tuple([t.rows for t in self.tables]))
        check_tables(self.variables, self.domains, self.parents, self.rows)

    def space_size(self):
        return math.prod(map(len, self.domains))

    def outcomes(self):
        check_space(self.space_size(), "outcome space")
        return itertools.product(*self.domains)

    def row_for(self, i, outcome):
        """The unique order for variable i selected by the outcome's parents."""
        return self.rows[i][tuple(outcome[p] for p in self.parents[i])]


def from_tables(variables, domains, parents, rows):
    """The CP-net with one table per (parents, rows) pair."""
    tables = [CPTable(i, ps, r) for i, (ps, r) in enumerate(zip(parents, rows))]
    return CPNet(variables, domains, tuple(tables))


def improving_flips(net, outcome):
    """All single-variable changes to a strictly better value in the row
    selected by the outcome's parent assignment."""
    softcsp.check_assignment(net.variables, net.domains, outcome)
    flips = []
    for i in range(len(net.variables)):
        order = net.row_for(i, outcome)
        flips.extend((i, v) for v in order[:order.index(outcome[i])])
    return flips


def flip_edges(net):
    """The improving-flip relation over all outcomes, as a set of pairs."""
    edges = set()
    for o in net.outcomes():
        for i, v in improving_flips(net, o):
            edges.add((o, o[:i] + (v,) + o[i + 1:]))
    return edges


def optimal_outcomes(net):
    return list(stable_outcomes(net.domains, net.parents, net.rows))


def optimality_constraints(net):
    """The boolean problem whose solutions are exactly the optimal outcomes.

    For each variable and each distinct order among its rows: the parent
    assignments selecting that order imply the variable equals its top.
    """
    constraints = []
    for i, (ps, rows) in enumerate(zip(net.parents, net.rows)):
        by_order = {}
        for pa, order in rows.items():
            by_order.setdefault(order, set()).add(pa)
        scope = ps + (i,)
        for order, pas in sorted(by_order.items()):
            top = order[0]
            table = {}
            for pa in itertools.product(*(net.domains[p] for p in ps)):
                for v in net.domains[i]:
                    ok = pa not in pas or v == top
                    table[pa + (v,)] = semiring.value(semiring.BOOLEAN, ok)
            constraints.append(softcsp.SoftConstraint(scope, table))
    return softcsp.SoftCSP(
        net.variables, net.domains, tuple(constraints), semiring.BOOLEAN
    )


def is_eligible(net):
    """Whether the net has an optimal outcome."""
    return next(stable_outcomes(net.domains, net.parents, net.rows), None) is not None


def sweep_optimal(net):
    """Sweep through an acyclic net level by level, taking each row's top."""
    acyclic, levels = parent_levels(net.parents)
    if not acyclic:
        raise ValidationError("sweep requires an acyclic net")
    assignment = [None] * len(net.variables)
    for i in sorted(levels, key=levels.get):
        assignment[i] = net.rows[i][tuple(assignment[p] for p in net.parents[i])][0]
    return tuple(assignment)


def ordering_query(net, alpha, beta):
    """Whether the ordering query of Boutilier, Brafman, Domshlak, Hoos and
    Poole ("CP-nets", JAIR 2004) shows that alpha does not dominate beta.
    It applies to acyclic nets only.  These have no flip cycle, so no
    outcome dominates itself; and where alpha and beta differ on a variable
    but agree on all its ancestors, no worsening chain leads from alpha to a
    beta whose value of it comes before alpha's in the row their shared
    parent values select."""
    acyclic, levels = parent_levels(net.parents)
    if not acyclic:
        return False
    agreed = set()  # the variables alpha and beta agree on, with all their ancestors
    for i in sorted(levels, key=levels.get):
        if all(p in agreed for p in net.parents[i]):
            if alpha[i] == beta[i]:
                agreed.add(i)
            else:
                order = net.row_for(i, alpha)
                if order.index(beta[i]) < order.index(alpha[i]):
                    return True
    return alpha == beta


def dominates(net, alpha, beta, budget=DEFAULT_DOMINANCE_BUDGET):
    """Whether a chain of worsening flips leads from alpha to beta.

    False when the `ordering_query` says so; otherwise breadth-first with a
    visited set, returning True / False, or BUDGET_EXHAUSTED when `budget`
    nodes were expanded without an answer.  The budget bounds the search
    only.  The chain must be nonempty, so dominates(o, o) is False unless a
    genuine flip cycle returns to o.
    """
    for o in (alpha, beta):
        softcsp.check_assignment(net.variables, net.domains, o)
    if ordering_query(net, alpha, beta):
        return False
    # worsening flips, variable by variable and each in row order, over the
    # raw tables: every node is reached from alpha by flips inside the
    # domains, so none needs a check.
    # Per variable i, `after` maps the values of i's parents and of i to the
    # values ranked after i's in the row they select; it is filled on first
    # use, so a small budget reads few rows of a wide table.
    tables = [(i, operator.itemgetter(*ps, i), ps, rows, {})
              for i, (ps, rows) in enumerate(zip(net.parents, net.rows))]
    frontier = deque([alpha])
    visited = {alpha}
    expanded = 0
    while frontier:
        if expanded >= budget:
            return BUDGET_EXHAUSTED
        o = frontier.popleft()
        expanded += 1
        for i, key, ps, rows, after in tables:
            k = key(o)
            worse = after.get(k)
            if worse is None:
                order = rows[tuple(map(o.__getitem__, ps))]
                worse = after[k] = order[order.index(o[i]) + 1:]
            if not worse:
                continue
            head, tail = o[:i], o[i + 1:]
            for v in worse:
                succ = head + (v,) + tail
                if succ == beta:
                    return True
                if succ not in visited:
                    visited.add(succ)
                    frontier.append(succ)
    return False


def reduce(net):
    """Remove every redundant parent in one pass; the net itself when none
    is.  Dropping a redundant parent leaves each other parent of its table
    redundant or essential as it was, so one pass reaches the fixpoint."""
    unused = [unused_parents(net.domains, ps, r) for ps, r in zip(net.parents, net.rows)]
    if not any(unused):
        return net
    parents, rows = zip(*(
        drop_parents(net.domains, ps, r, drop) if drop else (ps, r)
        for ps, r, drop in zip(net.parents, net.rows, unused)
    ))
    return from_tables(net.variables, net.domains, parents, rows)


def reduce_to_fixpoint(net, mode, trace=None):
    """Iteratively remove all NBR (mode='nbr') or dominated (mode='s')
    elements each round until none remain.  `trace`, if a list, collects the
    per-round removals."""
    domains, rows = eliminate_values(net.variables, net.domains, net.parents, net.rows,
                                     mode, trace)
    return net if rows is net.rows else from_tables(net.variables, domains, net.parents, rows)
