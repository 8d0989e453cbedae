"""The canonical instance-document format.

One JSON envelope with a `kind` discriminator covers all five instance
kinds (cpnet, scsp, ppgame, payoffgame, graph), so a translation can read
one kind and write another.  Each kind is one row of `_KINDS` (its record
class, writer and reader), and every kind loads as its record, graphs
included.  Serialization is canonical: keys sorted, fractions printed as
"p/q", infinity as "inf"; parse(serialize(x)) == x.

Every table, of any kind and over any domains, takes one path each way:
`_table` reads it by the two field names of its rows, and a `_Rows`
writes its rows' text straight from the table, each key spelled as its
domain header spells it.  `chunks` gives the complete chunk list of a
text, which `dumps` joins.

CP-net rows may carry disjunctive conditions ("when" holding several parent
assignments with one shared order); they are expanded to one row per
assignment at parse time.
"""

import itertools
import json
import math
import operator
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote

from . import cpnet, pgame, semiring, softcsp
from .errors import OptiformError, ValidationError

# ------------------------------------------------------------- semiring specs

def spec_to_json(spec):
    if spec.kind == "product":
        return {"product": [spec_to_json(f) for f in spec.factors]}
    return spec.kind


def spec_from_json(data, depth=0):
    """The spec `spec_to_json` writes as `data`, nested `depth` products
    deep; one nested past `MAX_NESTING` is refused."""
    if isinstance(data, str):
        return semiring.SemiringSpec(data)
    if isinstance(data, dict) and set(data) == {"product"}:
        if depth == MAX_NESTING:
            raise ValidationError("a semiring spec nests at most %d products" % MAX_NESTING)
        return semiring.product(*(spec_from_json(f, depth + 1)
                                  for f in _list(data["product"], '"product"')))
    raise ValidationError("bad semiring spec %r" % (data,))


# ---------------------------------------------------------------- value codec

def payload_to_json(spec, payload):
    """The JSON form of a payload of `spec`; spec None is a plain rational
    payoff.  Booleans are 0/1, rationals "p/q" text, infinity "inf", and
    products lists of their factors' forms."""
    kind = None if spec is None else spec.kind
    if kind == "boolean":
        return 1 if payload else 0
    if kind == "product":
        return [payload_to_json(f, p) for f, p in zip(spec.factors, payload)]
    return semiring.format_payload(
        payload if payload is semiring.INF else Fraction(payload))


def payload_from_json(spec, data, where):
    """The payload of `spec` (spec None: a finite plain rational) that
    `payload_to_json` writes as `data`; errors name `where`."""
    kind = None if spec is None else spec.kind
    if kind == "product":
        if not isinstance(data, list) or len(data) != len(spec.factors):
            raise ValidationError("%s: product value needs a list of arity %d"
                                  % (where, len(spec.factors)))
        return tuple(payload_from_json(f, d, where) for f, d in zip(spec.factors, data))
    if kind == "boolean":
        if type(data) is not int or data not in (0, 1):
            raise ValidationError("%s: boolean value must be 0 or 1" % where)
        return data == 1
    q = semiring.INF if data == "inf" else _rational(str(data), where)
    if spec is None:
        if q is semiring.INF:
            raise ValidationError("%s: plain payoffs must be finite" % where)
        return q
    return semiring.value(spec, q).payload


#: The most digits a rational may have in its numerator and in its
#: denominator, and the largest exponent its text may carry.  Far below the
#: 4,300 digits Python writes as text: every value read can be written back,
#: and what is written can be read again.
MAX_DIGITS = 1000
_DIGITS_CAP = 10 ** MAX_DIGITS

#: The most products a semiring spec may nest.  Specs, their values and
#: codes are read, written, compared and coded by recursion, a few frames
#: a level, so this stays far below Python's recursion limit.
MAX_NESTING = 64


def _rational(text, where):
    exponent = text.lower().partition("e")[2]
    try:
        # a larger exponent is refused before Fraction expands it
        q = None if exponent and abs(int(exponent)) > MAX_DIGITS else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ValidationError("%s: cannot parse %r as a rational" % (where, text))
    if q is None or max(abs(q.numerator), q.denominator) >= _DIGITS_CAP:
        raise ValidationError("%s: a rational takes at most %d digits and an exponent "
                              "of at most %d" % (where, MAX_DIGITS, MAX_DIGITS))
    return q


# ------------------------------------------------------------------- headers

def _values(data, where):
    """A list of domain values as a tuple.  All strings or all
    finite numbers, so that the values hash, sort and equal themselves; a
    bool is no number here, as `true` would equal and hash as 1."""
    if not isinstance(data, list) or not (
            all(isinstance(v, str) for v in data)
            or all(type(v) is int or type(v) is float and math.isfinite(v) for v in data)):
        raise ValidationError("%s must be a list of strings or of finite numbers" % where)
    return tuple(data)


def _names(data, where):
    """A list of names as a tuple: strings, as names key JSON objects."""
    if not isinstance(data, list) or not all(isinstance(v, str) for v in data):
        raise ValidationError("%s must be a list of names, and names must be strings" % where)
    return tuple(data)


def _list(data, where):
    """A JSON list as a tuple.  Anything else is refused: a string would
    split into its characters and be read as a list of them."""
    if not isinstance(data, list):
        raise ValidationError("%s must be a list, not %s" % (where, type(data).__name__))
    return tuple(data)


def _table(cells, where, key_field, cell_field, read, wrapped=False):
    """The table a list of cells holds: each cell's `key_field` is the tuple
    it sets, a JSON list (when `wrapped`, a list of such lists, the parent
    assignments of a CP-net row), and `read` maps a list of `cell_field`s
    to their values.  The whole list is read at C level; where a check
    fails, `_table_by_row` reads it again and names the first fault."""
    try:
        if type(cells) is list and set(map(type, cells)) <= {dict}:
            keys = list(map(operator.itemgetter(key_field), cells))
            if wrapped and set(map(type, keys)) <= {list} and set(map(len, keys)) <= {1}:
                keys = list(map(operator.itemgetter(0), keys))
            elif wrapped:  # a disjunctive or empty "when"
                keys = None
            if keys is not None and set(map(type, keys)) <= {list}:
                values = read(list(map(operator.itemgetter(cell_field), cells)))
                table = dict(zip(map(tuple, keys), values))
                if len(table) == len(cells):
                    return table
    except (KeyError, TypeError, ValueError, OptiformError):
        pass
    return _table_by_row(cells, where, key_field, cell_field, read, wrapped)


def _table_by_row(cells, where, key_field, cell_field, read, wrapped=False):
    """`_table`, a row at a time: the same table, or the first fault.  A
    tuple given twice is refused; errors name `where`.  The tuples are
    checked here, not by `_list`, so that no label is built per row."""
    field = ('each "%s" entry' if wrapped else '"%s"') % key_field
    at_key = '%s: "%s"' % (where, key_field)
    table = {}
    for cell in cells:
        value, = read([cell[cell_field]])
        for key in _list(cell[key_field], at_key) if wrapped else (cell[key_field],):
            if not isinstance(key, list):
                raise ValidationError("%s: %s must be a list, not %s"
                                      % (where, field, type(key).__name__))
            key = tuple(key)
            if key in table:
                raise ValidationError("%s: %r is given twice" % (where, list(key)))
            table[key] = value
    return table


def _orders(where):
    """`_table`'s reader of the orders of a table: each a JSON list, read
    as a tuple."""
    at = where + ': "order"'

    def read(orders):
        if not set(map(type, orders)) <= {list}:
            for order in orders:  # names the first that is not a list
                _list(order, at)
        return map(tuple, orders)
    return read


def _header_to_json(names_key, names, domains_key, domains):
    return {names_key: names, domains_key: dict(zip(names, domains))}


def _header_from_json(data, names_key, domains_key):
    """The names, their index and their domains."""
    names = _names(data[names_key], names_key)
    domains = tuple(_values(data[domains_key][n], "%s of %s" % (domains_key, n))
                    for n in names)
    return names, {n: i for i, n in enumerate(names)}, domains


def _game_to_json(players, strategies, neigh):
    doc = _header_to_json("players", players, "strategies", strategies)
    doc["neigh"] = {p: [players[j] for j in ns] for p, ns in zip(players, neigh)}
    return doc


def _game_from_json(data):
    """The players, their strategies and their neighbour indices."""
    players, index, strategies = _header_from_json(data, "players", "strategies")
    neigh = tuple(tuple(index[q] for q in _list(data["neigh"][p], "neigh of %s" % p))
                  for p in players)
    return players, strategies, neigh


# --------------------------------------------------------------------- cpnet

def _cpnet_to_json(net):
    doc = _header_to_json("variables", net.variables, "domains", net.domains)
    at = _scope_texts(net.domains)
    doc["tables"] = {
        v: {"parents": [net.variables[p] for p in ps],
            "rows": _Rows(rows, at(ps), _same, "when", "order", True)}
        for v, ps, rows in zip(net.variables, net.parents, net.rows)
    }
    return doc


def _cpnet_from_json(data):
    variables, index, domains = _header_from_json(data, "variables", "domains")
    parents, table_rows = [], []
    for v in variables:
        try:
            entry = data["tables"][v]
        except KeyError:
            raise ValidationError("missing table for variable %s" % v)
        where = "table of %s" % v
        parents.append(tuple(index[p] for p in _list(entry["parents"], where + ': "parents"')))
        table_rows.append(_table(entry["rows"], where, "when", "order", _orders(where), True))
    try:
        return cpnet.CPNet(variables, domains, tuple(parents), tuple(table_rows))
    except ValidationError as exc:
        raise ValidationError("cpnet: %s" % exc)


# ---------------------------------------------------------------------- scsp

def _scsp_to_json(problem):
    spec = problem.semiring
    doc = _header_to_json("variables", problem.variables, "domains", problem.domains)
    doc["semiring"] = spec_to_json(spec)
    at = _scope_texts(problem.domains)
    cell = lambda v: payload_to_json(spec, v.payload)
    doc["constraints"] = [
        {"scope": [problem.variables[i] for i in c.scope],
         "table": _Rows(c.table, at(c.scope), cell, "tuple", "value")}
        for c in problem.constraints
    ]
    return doc


def _scsp_from_json(data):
    spec = spec_from_json(data["semiring"])
    variables, index, domains = _header_from_json(data, "variables", "domains")
    constraints = []
    for k, entry in enumerate(_list(data["constraints"], '"constraints"')):
        scope = tuple(index[v] for v in _list(entry["scope"], 'constraint %d: "scope"' % k))
        where = "constraint %d over %s" % (k, entry["scope"])
        constraints.append(softcsp.SoftConstraint(scope, _table(
            entry["table"], where, "tuple", "value", lambda values: [
                semiring.SemiringValue(spec, payload_from_json(spec, v, where))
                for v in values])))
    return softcsp.SoftCSP(variables, domains, tuple(constraints), spec)


# -------------------------------------------------------------------- ppgame

def _ppgame_to_json(game):
    doc = _game_to_json(game.variables, game.domains, game.parents)
    at = _scope_texts(game.domains)
    doc["prefs"] = {p: _Rows(rows, at(ns), _same, "when", "order")
                    for p, ns, rows in zip(game.variables, game.parents, game.rows)}
    return doc


def _ppgame_from_json(data):
    players, strategies, neigh = _game_from_json(data)
    prefs = []
    for p in players:
        where = "prefs of %s" % p
        prefs.append(_table(data["prefs"][p], where, "when", "order", _orders(where)))
    return pgame.PPGame(players, strategies, neigh, tuple(prefs))


# ---------------------------------------------------------------- payoffgame

def payoff_to_json(game, v):
    """A payoff of `game`: a plain rational, or a value of its carrier."""
    return payload_to_json(game.carrier, v if game.carrier is None else v.payload)


def _payoffgame_to_json(game):
    doc = _game_to_json(game.players, game.strategies, game.neigh)
    doc["carrier"] = None if game.carrier is None else spec_to_json(game.carrier)
    at = _scope_texts(game.strategies)
    cell = lambda v: payoff_to_json(game, v)
    doc["payoffs"] = {p: _Rows(t, at(game.local_scope(i)), cell, "when", "value")
                      for i, (p, t) in enumerate(zip(game.players, game.payoffs))}
    return doc


def _payoffgame_from_json(data):
    players, strategies, neigh = _game_from_json(data)
    carrier = None if data.get("carrier") is None else spec_from_json(data["carrier"])
    box = (lambda v: v) if carrier is None else (lambda v: semiring.SemiringValue(carrier, v))
    payoffs = []
    for p in players:
        where = "payoffs of %s" % p
        payoffs.append(_table(data["payoffs"][p], where, "when", "value", lambda values: [
            box(payload_from_json(carrier, v, where)) for v in values]))
    return pgame.PayoffGame(players, strategies, neigh, tuple(payoffs), carrier)


# --------------------------------------------------------------------- graph

def _graph_to_json(graph):
    doc = {"nodes": graph.nodes, "edges": graph.edges}
    if graph.levels is not None:
        doc["levels"] = dict(zip(graph.nodes, graph.levels))
    return doc


def _graph_from_json(data):
    """The graph; its levels, an object keyed by exactly its nodes, become
    the tuple aligned with them, whose ints `DirectedGraph` checks."""
    nodes = _names(data["nodes"], "nodes")
    edges = _list(data["edges"], '"edges"')
    if not all(isinstance(e, list) and len(e) == 2 for e in edges):
        raise ValidationError("each graph edge must be a pair of nodes")
    levels = data.get("levels")
    if isinstance(levels, dict):
        if set(levels) != set(nodes):
            raise ValidationError("level assignment must cover exactly the nodes")
        levels = tuple(map(levels.__getitem__, nodes))
    return pgame.DirectedGraph(nodes, tuple(map(tuple, edges)), levels)


# ------------------------------------------------------------------ envelope

#: The document kinds: kind -> (its record class, writer, reader).  A writer
#: returns the document without its "kind", which `chunks` adds.
_KINDS = {
    "cpnet": (cpnet.CPNet, _cpnet_to_json, _cpnet_from_json),
    "scsp": (softcsp.SoftCSP, _scsp_to_json, _scsp_from_json),
    "ppgame": (pgame.PPGame, _ppgame_to_json, _ppgame_from_json),
    "payoffgame": (pgame.PayoffGame, _payoffgame_to_json, _payoffgame_from_json),
    "graph": (pgame.DirectedGraph, _graph_to_json, _graph_from_json),
}
KINDS = tuple(_KINDS)

#: Each record class -> its kind.  A record's kind is that of its exact
#: class: a PPGame is a CPNet, but is written as a ppgame document.
_KIND_OF = {cls: kind for kind, (cls, _, _) in _KINDS.items()}


def parse_document(data):
    """Returns (kind, record)."""
    if not isinstance(data, dict):
        raise ValidationError("a document must be a JSON object")
    kind = data.get("kind")
    if kind not in KINDS:  # a tuple, as an unhashable kind cannot key a dict
        raise ValidationError("unknown or missing document kind %r" % (kind,))
    try:
        return kind, _KINDS[kind][2](data)
    except KeyError as exc:
        raise ValidationError("%s document: missing key or unknown name %s" % (kind, exc))
    except TypeError as exc:
        raise ValidationError("%s document: a field has the wrong type (%s)" % (kind, exc))


# -------------------------------------------------------------------- writer

def chunks(obj):
    """The canonical text of a record (its kind's document with its "kind")
    or of a report, as the complete list of its chunks: the bytes of
    `json.dumps(doc, sort_keys=True, indent=2) + "\\n"`, each `_Rows` written
    as the rows it holds.  A list of strings is one chunk, made by one join
    over the C string encoder; a number, a bool or None is left to
    `json.dumps`.  Every chunk exists before the list is returned."""
    kind = _KIND_OF.get(obj.__class__)
    if kind is not None:
        obj = _KINDS[kind][1](obj)
        obj["kind"] = kind
    out = []
    _write(obj, "\n", out.append)
    out.append("\n")
    return out


def _write(o, nl, put):
    """Append the text of `o` to a chunk list through `put`; `nl` is a
    newline plus the indent of the line `o` starts on."""
    if isinstance(o, str):
        put(_quote(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            put("[]")
            return
        inner = nl + "  "
        if isinstance(o[0], str):
            try:
                put("[" + inner + ("," + inner).join(map(_quote, o)) + nl + "]")
                return
            except TypeError:
                pass
        sep = "[" + inner
        for item in o:
            put(sep)
            _write(item, inner, put)
            sep = "," + inner
        put(nl + "]")
    elif isinstance(o, dict):
        if not o:
            put("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(o.items()):
            put(sep + _quote(key if isinstance(key, str) else json.dumps(key)) + ": ")
            _write(value, inner, put)
            sep = "," + inner
        put(nl + "}")
    elif isinstance(o, _Rows):
        o.render(nl, put)
    else:
        put(json.dumps(o))


def _text(o, nl):
    """The text `_write` gives `o` on a line indented as `nl` says."""
    chunks = []
    _write(o, nl, chunks.append)
    return "".join(chunks)


# ---------------------------------------------------------------- table rows

def _same(x):
    return x


def _scope_texts(domains):
    """A function of a scope: per scope index, its domain's values sorted
    and their JSON texts."""
    values = [sorted(dom) for dom in domains]
    texts = [[_quote(v) if isinstance(v, str) else json.dumps(v) for v in vs] for vs in values]
    return lambda scope: [(values[j], texts[j]) for j in scope]


class _Rows:
    """A table where its document holds its row list, sorted by key;
    `_write` writes it with `render`."""

    __slots__ = ("rows", "scope_texts", "cell", "key_field", "cell_field", "wrap")

    def __init__(self, rows, scope_texts, cell, key_field, cell_field, wrap=False):
        self.rows, self.scope_texts, self.cell = rows, scope_texts, cell
        self.key_field, self.cell_field, self.wrap = key_field, cell_field, wrap

    def render(self, nl, put):
        """The rows' text.  A table's keys are the tuples over its scope
        (`softcsp.check_table`), so sorted they are the product of the
        scope's sorted domains: runs of k rows, k the size of the last
        index's domain, that share the text of all values but the last.
        That text is made once per run, each last value's once, and each
        distinct cell's once, the cells read along the product by
        `softcsp.cells`.  So a row is three pieces, the first holding the
        separator before it, and the table's text is one join."""
        row_nl = nl + "  "
        field_nl = row_nl + "  "
        key_nl = field_nl + "  " if self.wrap else field_nl  # where the key's list opens
        value_nl = key_nl + "  "
        key_first = self.key_field < self.cell_field
        first, second = sorted((self.key_field, self.cell_field))
        # what goes around the first field's text of a row, after the
        # separator before the row, and around the second's
        around = (("," + row_nl + "{" + field_nl + _quote(first) + ": ",
                   "," + field_nl + _quote(second) + ": "),
                  ("", row_nl + "}"))
        (pre, post), (head, tail) = around if key_first else around[::-1]
        if self.wrap:  # the key in a list of its own
            pre, post = pre + "[" + key_nl, field_nl + "]" + post
        scope = self.scope_texts
        if scope:  # each run's text up to its last value, and each last value's
            prefixes = [pre + "[" + value_nl]
            for _, texts in scope[:-1]:
                texts = [text + "," + value_nl for text in texts]
                prefixes = [p + text for p in prefixes for text in texts]
            lasts = [text + key_nl + "]" + post for text in scope[-1][1]]
        else:
            prefixes, lasts = [pre + "[]" + post], [""]
        k = len(lasts)
        cells = softcsp.cells(self.rows, [vs for vs, _ in scope])
        memo = {c: head + _text(self.cell(c), field_nl) + tail for c in set(cells)}
        keys = [itertools.chain.from_iterable(zip(*[prefixes] * k)), lasts * (len(cells) // k)]
        texts = map(memo.__getitem__, cells)
        parts = [None] * (3 * len(cells))
        parts[0::3], parts[1::3], parts[2::3] = keys + [texts] if key_first else [texts] + keys
        parts[0] = "[" + parts[0][1:]  # the first row follows the opening, not a comma
        parts.append(nl + "]")
        put("".join(parts))


def dumps(obj):
    """The canonical text of a record or of a report: its `chunks`, joined."""
    return "".join(chunks(obj))


def loads(text):
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a syntax error, an integer too long to read, or nesting too deep
        raise ValidationError("syntax error: %s" % exc)
    return parse_document(data)


def load_path(path):
    with open(path, encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ValidationError("%s is not UTF-8 text: %s" % (path, exc))
    return loads(text)
