"""CP-nets: flips, optimality, optimality constraints, eligibility, sweep,
redundancy reduction, elimination of never-best-response / dominated values,
and dominance: the ordering query on acyclic nets, then bounded search.

The preference-table core below works on raw per-index domains, parents and
rows.  A CPNet holds them as (variables, domains, parents, rows).  A game
with parametrized preferences (`pgame.PPGame`) is the same record with its
variables read as players, its domains as strategies and its parents as
neighbours, so every function here serves it too: its Nash equilibria are
the `optimal_outcomes`, its elimination is `reduce_to_fixpoint` and its
hierarchy is `essential_levels`.
"""

import itertools
import math
import operator
from collections import deque
from types import SimpleNamespace

from . import semiring, softcsp
from .errors import ValidationError
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


def _row_tops(parents, rows):
    """Per index i, the constraint that i's value tops the row its parents
    select, as (scope, allowed): the scope is i's parents, then i, and the
    allowed tuples are each parent assignment followed by its row's top."""
    return [(ps + (i,), {pa + (order[0],) for pa, order in r.items()})
            for i, (ps, r) in enumerate(zip(parents, rows))]


def stable_outcomes(domains, parents, rows):
    """Outcomes, in enumeration order, in which every value tops the row its
    parents select (`_row_tops`): the optimal outcomes of a CP-net, and the
    Nash equilibria of a game with parametrized preferences."""
    return softcsp.solutions(domains, _row_tops(parents, rows), "outcome space")


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
            doms = list(map(kept.__getitem__, ps))
            cells = softcsp.cells(table, doms)
            if own:
                keeps = kept[i].__contains__
                cut = {order: tuple(filter(keeps, order)) for order in dict.fromkeys(cells)}
                cells = map(cut.__getitem__, cells)
            table = dict(zip(itertools.product(*doms), cells))
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
    """The parents of one table whose value never changes the selected
    order: those at each of whose values the rows over the other parents
    are the rows at its first value.  The rows are read once, in the
    product order of the parents (`softcsp.cells`).  There a parent's values
    take turns in runs of the rows over the later parents, one block of
    runs per assignment of the earlier ones; a parent is compared by whole
    blocks or by whole strides across them, whichever takes fewer
    comparisons."""
    doms = list(map(domains.__getitem__, parents))
    cells = softcsp.cells(rows, doms)
    out = set()
    run = len(cells)
    for y, dom in zip(parents, doms):
        size = len(dom)
        run //= size
        block = run * size
        if len(cells) // block <= run * (size - 1):
            same = all(cells[b:b + block] == cells[b:b + run] * size
                       for b in range(0, len(cells), block))
        else:
            same = all(cells[v * run + j::block] == cells[j::block]
                       for j in range(run) for v in range(1, size))
        if same:
            out.add(y)
    return out


def drop_parents(domains, parents, rows, drop):
    """One table without the parents in `drop`, each read at the first value
    of its domain.  Returns the kept parents and their rows."""
    kept = tuple(p for p in parents if p not in drop)
    at = [domains[p][:1] if p in drop else domains[p] for p in parents]
    return kept, dict(zip(itertools.product(*map(domains.__getitem__, kept)),
                          softcsp.cells(rows, at)))


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


def spread(cells, block, times):
    """Each run of `block` cells, in turn, repeated `times` times."""
    return list(itertools.chain.from_iterable(
        map(operator.mul, zip(*[iter(cells)] * block), itertools.repeat(times))))


def widen(names, domains, parents, rows):
    """The same tables with every other index made a parent; the added
    parents are ignored.  Returns the new parents and rows."""
    wide = full_parents(len(domains))
    sizes = list(map(len, domains))
    tables = [softcsp.space(list(map(domains.__getitem__, others)), "full table of %s" % name)
              for name, others in zip(names, wide)]  # every table before any is built
    new_rows = []
    for others, keys, ps, r in zip(wide, tables, parents, rows):
        # the rows read once, in the product order of the parents taken by
        # index; then each run of added indices becomes axes the rows do not
        # vary along, each block over the later parents repeated once per
        # assignment of the run
        by_index = sorted(ps)
        if by_index != list(ps):  # the rows keyed by the parents in index order
            r = dict(zip(map(operator.itemgetter(*map(ps.index, by_index)), r), r.values()))
        cells = softcsp.cells(r, list(map(domains.__getitem__, by_index)))
        block, run = len(cells), 1
        for j in others:
            if j in ps:
                if run > 1:
                    cells = spread(cells, block, run)
                block, run = block // sizes[j], 1
            else:
                run *= sizes[j]
        if run > 1:
            cells = spread(cells, 1, run)
        new_rows.append(dict(zip(keys, cells)))
    return wide, tuple(new_rows)


# -------------------------------------------------------------------- CP-nets

class CPNet(Record):
    __slots__ = _fields = ("variables", "domains", "parents", "rows")

    #: How validation words fields of unequal length and an index among its
    #: own parents (the latter with the index's name).
    _wording = ("variable-indexed fields differ in length", "%s is its own parent")

    def __init__(self, variables, domains, parents, rows):
        init_field(self, "variables", variables)
        init_field(self, "domains", domains)
        init_field(self, "parents", parents)  # per-variable tuples of indices, ordered
        init_field(self, "rows", rows)  # per-variable dict: parent assignment -> order (best first)
        self.__post_init__()

    def __post_init__(self):
        """The fields have one entry per variable, the names differ, each
        domain is nonempty, no variable is its own parent, each table is
        total over its parents (`softcsp.check_table`), and each of its rows
        is a strict total order of its variable's domain."""
        unequal, own_parent = self._wording
        names, domains = self.variables, self.domains
        if not (len(names) == len(domains) == len(self.parents) == len(self.rows)):
            raise ValidationError(unequal)
        softcsp.check_names(names, domains)
        for i, (name, dom, ps, r) in enumerate(zip(names, domains, self.parents, self.rows)):
            if i in ps:
                raise ValidationError(own_parent % name)
            softcsp.check_table(names, domains, ps, r.keys(), lambda: "table of %s" % name)
            check_strict_orders(dict.fromkeys(r.values()), dom)

    @property
    def tables(self):
        """One object per variable with its `parents` and `rows`, built on
        each read.  Its only reader is the benchmark's `bench/spans.py::_cells`;
        it goes when that reads `rows` instead."""
        return tuple(SimpleNamespace(parents=ps, rows=r) for ps, r in zip(self.parents, self.rows))

    def space_size(self):
        return math.prod(map(len, self.domains))

    def outcomes(self):
        return softcsp.space(self.domains, "outcome space")

    def row_for(self, i, outcome):
        """The unique order for variable i selected by the outcome's parents."""
        return self.rows[i][tuple(outcome[p] for p in self.parents[i])]


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
    """The boolean problem whose solutions are exactly the optimal outcomes:
    per variable, one table over its parents and itself that allows each
    parent assignment followed by its row's top (Brafman and Dimopoulos
    2004), the constraints `stable_outcomes` searches.  Every table's keys
    are taken from `softcsp.space` before any table is built."""
    allowed, forbidden = semiring.one(semiring.BOOLEAN), semiring.zero(semiring.BOOLEAN)
    tops = _row_tops(net.parents, net.rows)
    tables = [softcsp.space([net.domains[j] for j in scope], "optimality table of %s" % name)
              for name, (scope, _) in zip(net.variables, tops)]  # every table before any is built
    return softcsp.SoftCSP(net.variables, net.domains, tuple(
        softcsp.SoftConstraint(scope, {t: allowed if t in top else forbidden for t in keys})
        for (scope, top), keys in zip(tops, tables)), semiring.BOOLEAN)


def is_eligible(net):
    """Whether the net has an optimal outcome."""
    return next(stable_outcomes(net.domains, net.parents, net.rows), None) is not None


def essential_levels(net):
    """`parent_levels` over each index's essential parents, its parents less
    its `unused_parents`: whether the net's minimal dependency graph is
    acyclic (of a game, whether it is hierarchical), with the levels.  An
    index whose rows are all one order depends on nothing, at level 0."""
    return parent_levels([set(ps) - unused_parents(net.domains, ps, r)
                          for ps, r in zip(net.parents, net.rows)])


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
    return type(net)(net.variables, net.domains, parents, rows)


def reduce_to_fixpoint(net, mode, trace=None):
    """Iteratively remove all NBR (mode='nbr') or dominated (mode='s')
    elements each round until none remain.  `trace`, if a list, collects the
    per-round removals.  Returns a record of the net's own class, the net
    itself when nothing was removable."""
    domains, rows = eliminate_values(net.variables, net.domains, net.parents, net.rows,
                                     mode, trace)
    return net if rows is net.rows else type(net)(net.variables, domains, net.parents, rows)
