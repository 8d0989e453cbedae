"""Reference computations on instance documents, written apart from optiform.

Each function reads the plain JSON documents (or reports) and recomputes an
answer from the definitions: full scans over assignments, unilateral
deviations and flips.  Nothing here imports optiform, so an answer checked
against these is checked against code the program does not share.
"""

import itertools
from fractions import Fraction

INF = "inf"


def rational(text):
    return INF if text == "inf" else Fraction(str(text))


# ------------------------------------------------------------------- soft CSP

class Scsp:
    """A soft CSP document with a numeric key per preference: a larger key is
    a better preference (costs are negated; infinity is the worst key)."""

    def __init__(self, doc):
        self.carrier = doc["semiring"]
        self.variables = doc["variables"]
        self.domains = [doc["domains"][v] for v in self.variables]
        index = {v: i for i, v in enumerate(self.variables)}
        self.constraints = []
        for c in doc["constraints"]:
            scope = tuple(index[v] for v in c["scope"])
            table = {tuple(cell["tuple"]): cell["value"] for cell in c["table"]}
            self.constraints.append((scope, table))

    def size(self):
        n = 1
        for d in self.domains:
            n *= len(d)
        return n

    def assignments(self):
        return itertools.product(*self.domains)

    def preference(self, s):
        """The combined value at s: a Fraction sum of costs (INF for an
        infinite cost), a fuzzy min, a boolean and, or a per-factor tuple."""
        vals = [table[tuple(s[i] for i in scope)] for scope, table in self.constraints]
        return combine(self.carrier, vals)

    def best(self):
        """The assignments no other assignment strictly beats, in order,
        with their preferences."""
        scored = [(s, self.preference(s)) for s in self.assignments()]
        if isinstance(self.carrier, dict):
            return maximal(scored, lambda a, b: strictly_better(self.carrier, a, b))
        top = max(key(self.carrier, v) for _, v in scored)
        return [(s, v) for s, v in scored if key(self.carrier, v) == top]


def combine(carrier, values):
    if isinstance(carrier, dict):
        factors = carrier["product"]
        return tuple(
            combine(f, [v[k] for v in values]) for k, f in enumerate(factors)
        )
    if carrier == "weighted":
        total = Fraction(0)
        for v in values:
            if v == INF:
                return INF
            total += Fraction(v)
        return total
    if carrier == "fuzzy":
        return min((Fraction(v) for v in values), default=Fraction(1))
    return all(int(v) == 1 for v in values)


def key(carrier, v):
    """A number that grows with preference on a linear carrier."""
    if carrier == "weighted":
        return float("-inf") if v == INF else -v
    if carrier == "fuzzy":
        return v
    return int(bool(v))


def strictly_better(carrier, a, b):
    """Whether preference a is strictly above b."""
    if isinstance(carrier, dict):
        factors = carrier["product"]
        ge = all(key(f, x) >= key(f, y) for f, x, y in zip(factors, a, b))
        return ge and a != b
    return key(carrier, a) > key(carrier, b)


def maximal(scored, better):
    """Items (x, v) whose value no other value strictly beats, in input
    order.  Compares each item with the current frontier only."""
    front = []
    for x, v in scored:
        if any(better(w, v) for _, w in front):
            continue
        front = [(y, w) for y, w in front if not better(v, w)]
        front.append((x, v))
    keep = {x for x, _ in front}
    return [(x, v) for x, v in scored if x in keep]


def value_text(carrier, v):
    """The document text of a combined preference, as the CLI prints it."""
    if isinstance(carrier, dict):
        return [value_text(f, x) for f, x in zip(carrier["product"], v)]
    if carrier == "boolean":
        return 1 if v else 0
    if v == INF:
        return "inf"
    return fmt(v)


def fmt(q):
    q = Fraction(q)
    return str(q.numerator) if q.denominator == 1 else "%d/%d" % (q.numerator, q.denominator)


# ---------------------------------------------------------------- payoff game

class Game:
    """A payoff-game document.  Payoffs compare by `key` on the carrier
    (plain rationals compare as numbers)."""

    def __init__(self, doc):
        self.players = doc["players"]
        self.carrier = doc.get("carrier")
        self.strategies = [doc["strategies"][p] for p in self.players]
        index = {p: i for i, p in enumerate(self.players)}
        n = len(self.players)
        self.scopes = []
        self.tables = []
        for i, p in enumerate(self.players):
            scope = tuple(sorted([index[q] for q in doc["neigh"][p]] + [i]))
            self.scopes.append(scope)
            self.tables.append({
                tuple(cell["when"]): self.read(cell["value"]) for cell in doc["payoffs"][p]
            })
        self.n = n

    def read(self, text):
        if self.carrier is None:
            return Fraction(str(text))
        return key(self.carrier, rational(text) if self.carrier != "boolean" else text)

    def size(self):
        n = 1
        for s in self.strategies:
            n *= len(s)
        return n

    def profiles(self):
        return itertools.product(*self.strategies)

    def payoff(self, i, s):
        return self.tables[i][tuple(s[j] for j in self.scopes[i])]

    def vector(self, s):
        return tuple(self.payoff(i, s) for i in range(self.n))

    def is_nash(self, s):
        for i in range(self.n):
            mine = self.payoff(i, s)
            for v in self.strategies[i]:
                if self.payoff(i, s[:i] + (v,) + s[i + 1:]) > mine:
                    return False
        return True

    def nash(self):
        return [s for s in self.profiles() if self.is_nash(s)]

    def pareto(self, profiles=None):
        scored = [(s, self.vector(s)) for s in (profiles if profiles is not None
                                                 else self.profiles())]
        return [s for s, _ in maximal(scored, dominates_vec)]


def dominates_vec(a, b):
    """Componentwise Pareto: a is at least b everywhere and differs."""
    return all(x >= y for x, y in zip(a, b)) and a != b


# --------------------------------------------------------------------- CP-net

class Net:
    def __init__(self, doc):
        self.variables = doc["variables"]
        self.domains = [doc["domains"][v] for v in self.variables]
        index = {v: i for i, v in enumerate(self.variables)}
        self.parents = []
        self.rows = []
        for v in self.variables:
            table = doc["tables"][v]
            self.parents.append(tuple(index[p] for p in table["parents"]))
            rows = {}
            for row in table["rows"]:
                for when in row["when"]:
                    rows[tuple(when)] = tuple(row["order"])
            self.rows.append(rows)
        self.n = len(self.variables)

    def outcomes(self):
        return itertools.product(*self.domains)

    def row(self, i, o):
        return self.rows[i][tuple(o[p] for p in self.parents[i])]

    def improving(self, o):
        """Outcomes one improving flip away from o."""
        out = []
        for i in range(self.n):
            order = self.row(i, o)
            for v in order[:order.index(o[i])]:
                out.append(o[:i] + (v,) + o[i + 1:])
        return out

    def worsening(self, o):
        out = []
        for i in range(self.n):
            order = self.row(i, o)
            for v in order[order.index(o[i]) + 1:]:
                out.append(o[:i] + (v,) + o[i + 1:])
        return out

    def optima(self):
        return [o for o in self.outcomes() if all(
            self.row(i, o)[0] == o[i] for i in range(self.n))]

    def topological(self):
        """Variables in an order where parents come first, or None."""
        done, order = set(), []
        while len(order) < self.n:
            ready = [i for i in range(self.n)
                     if i not in done and all(p in done for p in self.parents[i])]
            if not ready:
                return None
            for i in ready:
                done.add(i)
                order.append(i)
        return order

    def sweep(self):
        """The top of each row, taken in topological order."""
        o = [None] * self.n
        for i in self.topological():
            o[i] = self.rows[i][tuple(o[p] for p in self.parents[i])][0]
        return tuple(o)

    def essential_parents(self, i):
        return essential(self.rows[i], self.parents[i], self.domains)


def essential(table, scope, domains):
    """The members of `scope` whose value changes the order `table` (scope
    values -> order) selects."""
    out = []
    for k, y in enumerate(scope):
        for pa in itertools.product(*(domains[p] for p in scope)):
            if len({table[pa[:k] + (x,) + pa[k + 1:]] for x in domains[y]}) > 1:
                out.append(y)
                break
    return out


# -------------------------------------------------------------- parametrized game

class PPGame:
    def __init__(self, doc):
        self.players = doc["players"]
        self.strategies = [doc["strategies"][p] for p in self.players]
        index = {p: i for i, p in enumerate(self.players)}
        self.neigh = [tuple(index[q] for q in doc["neigh"][p]) for p in self.players]
        self.prefs = [
            {tuple(row["when"]): tuple(row["order"]) for row in doc["prefs"][p]}
            for p in self.players
        ]
        self.n = len(self.players)

    def order(self, i, s):
        return self.prefs[i][tuple(s[j] for j in self.neigh[i])]

    def nash(self):
        return [s for s in itertools.product(*self.strategies)
                if all(self.order(i, s)[0] == s[i] for i in range(self.n))]

    def essential(self, i):
        return essential(self.prefs[i], self.neigh[i], self.strategies)


# ---------------------------------------------------------------------- graph

def well_structured_levels(doc):
    """Greedy levels: a node is placed once at least half its in-edges come
    from placed nodes.  Returns the levels, or None when some node never
    qualifies."""
    preds = {v: [u for u, w in doc["edges"] if w == v] for v in doc["nodes"]}
    placed, level, remaining = {}, 0, set(doc["nodes"])
    while remaining:
        ready = {v for v in remaining
                 if 2 * sum(1 for u in preds[v] if u in placed) >= len(preds[v])}
        if not ready:
            return None
        for v in ready:
            placed[v] = level
        remaining -= ready
        level += 1
    return placed


def levels_valid(doc, levels):
    for v in doc["nodes"]:
        preds = [u for u, w in doc["edges"] if w == v]
        lower = sum(1 for u in preds if levels[u] < levels[v])
        if lower < len(preds) - lower:
            return False
    return True
