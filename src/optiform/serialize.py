"""The canonical instance-document format.

One JSON envelope with a `kind` discriminator covers all five instance
kinds (cpnet, scsp, ppgame, payoffgame, graph), so a translation can read
one kind and write another.  Each kind is one row of `_KINDS` (its record
class, writer and reader), and every kind loads as its record, graphs
included.  Serialization is canonical: keys sorted, fractions printed as
"p/q", infinity as "inf"; parse(serialize(x)) == x.

A writer takes, besides its record, how to hold each of the record's
tables: `document_of` gives it the row dicts, and `dumps` a `_Rows`, which
writes the rows' text straight from the table; both give the same text.

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
from .errors import ValidationError

# ------------------------------------------------------------- semiring specs

def spec_to_json(spec):
    if spec.kind == "product":
        return {"product": [spec_to_json(f) for f in spec.factors]}
    return spec.kind


def spec_from_json(data):
    if isinstance(data, str):
        return semiring.SemiringSpec(data)
    if isinstance(data, dict) and set(data) == {"product"}:
        return semiring.product(*(spec_from_json(f) for f in _list(data["product"], '"product"')))
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


def _table(cells, where, field, keys, read, bulk=None):
    """The table a list of cells holds: `keys(cell)` lists the tuples a cell
    sets, each a JSON list that `field` names, and `read(cell)` their shared
    value.  A tuple given twice is refused; errors name `where`.  The tuples
    are checked here, not by `_list`, so that no label is built per cell.
    `bulk(cells)`, if given, builds the same table at C level, or gives
    None when a check fails; then this loop names the first fault."""
    if bulk is not None:
        table = bulk(cells)
        if table is not None:
            return table
    table = {}
    for cell in cells:
        value = read(cell)
        for key in keys(cell):
            if not isinstance(key, list):
                raise ValidationError("%s: %s must be a list, not %s"
                                      % (where, field, type(key).__name__))
            key = tuple(key)
            if key in table:
                raise ValidationError("%s: %r is given twice" % (where, list(key)))
            table[key] = value
    return table


_WHEN, _ORDER, _FIRST = map(operator.itemgetter, ("when", "order", 0))


def _order_rows(cells, wrapped):
    """`_table`'s bulk reader of {"when", "order"} rows: CP-net rows when
    `wrapped`, whose "when" lists parent assignments, else preferences.  It
    reads only rows whose every "when" is a list (a list of one list when
    `wrapped`) and every "order" a list, with no key given twice."""
    if type(cells) is not list or set(map(type, cells)) - {dict}:
        return None
    try:
        keys = list(map(_WHEN, cells))
        orders = list(map(_ORDER, cells))
        if wrapped:
            if set(map(type, keys)) - {list} or set(map(len, keys)) - {1}:
                return None
            keys = list(map(_FIRST, keys))
        if set(map(type, keys)) - {list} or set(map(type, orders)) - {list}:
            return None
        table = dict(zip(map(tuple, keys), map(tuple, orders)))
    except (KeyError, TypeError):  # a missing field, or an unhashable key
        return None
    return table if len(table) == len(cells) else None


def _header_to_json(names_key, names, domains_key, domains):
    return {names_key: names, domains_key: dict(zip(names, domains))}


def _header_from_json(data, names_key, domains_key):
    """The names, their index and their domains."""
    names = _names(data[names_key], names_key)
    domains = tuple(_values(data[domains_key][n], "%s of %s" % (domains_key, n))
                    for n in names)
    return names, {n: i for i, n in enumerate(names)}, domains


def _game_to_json(game):
    doc = _header_to_json("players", game.players, "strategies", game.strategies)
    doc["neigh"] = {
        p: [game.players[j] for j in ns] for p, ns in zip(game.players, game.neigh)
    }
    return doc


def _game_from_json(data):
    """The players, their strategies and their neighbour indices."""
    players, index, strategies = _header_from_json(data, "players", "strategies")
    neigh = tuple(tuple(index[q] for q in _list(data["neigh"][p], "neigh of %s" % p))
                  for p in players)
    return players, strategies, neigh


# --------------------------------------------------------------------- cpnet

def _cpnet_to_json(net, table):
    doc = _header_to_json("variables", net.variables, "domains", net.domains)
    at = _scope_texts(net.domains)
    doc["tables"] = {
        v: {"parents": [net.variables[p] for p in ps],
            "rows": table(rows, at(ps), _same, "when", "order", True)}
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
        at_when, at_order = where + ': "when"', where + ': "order"'
        table_rows.append(_table(entry["rows"], where, 'each "when" entry',
                                 lambda row: _list(row["when"], at_when),
                                 lambda row: _list(row["order"], at_order),
                                 lambda rows: _order_rows(rows, True)))
    try:
        return cpnet.from_tables(variables, domains, parents, table_rows)
    except ValidationError as exc:
        raise ValidationError("cpnet: %s" % exc)


# ---------------------------------------------------------------------- scsp

def _scsp_to_json(problem, table):
    spec = problem.semiring
    doc = _header_to_json("variables", problem.variables, "domains", problem.domains)
    doc["semiring"] = spec_to_json(spec)
    at = _scope_texts(problem.domains)
    cell = lambda v: payload_to_json(spec, v.payload)
    doc["constraints"] = [
        {"scope": [problem.variables[i] for i in c.scope],
         "table": table(c.table, at(c.scope), cell, "tuple", "value")}
        for c in problem.constraints
    ]
    return doc


def _scsp_from_json(data):
    spec = spec_from_json(data["semiring"])
    variables, index, domains = _header_from_json(data, "variables", "domains")
    constraints = []
    for k, entry in enumerate(data["constraints"]):
        scope = tuple(index[v] for v in _list(entry["scope"], 'constraint %d: "scope"' % k))
        where = "constraint %d over %s" % (k, entry["scope"])
        constraints.append(softcsp.SoftConstraint(scope, _table(
            entry["table"], where, '"tuple"', lambda cell: (cell["tuple"],),
            lambda cell: semiring.SemiringValue(
                spec, payload_from_json(spec, cell["value"], where)))))
    return softcsp.SoftCSP(variables, domains, tuple(constraints), spec)


# -------------------------------------------------------------------- ppgame

def _ppgame_to_json(game, table):
    doc = _game_to_json(game)
    at = _scope_texts(game.strategies)
    doc["prefs"] = {p: table(rows, at(ns), _same, "when", "order")
                    for p, ns, rows in zip(game.players, game.neigh, game.prefs)}
    return doc


def _ppgame_from_json(data):
    players, strategies, neigh = _game_from_json(data)
    prefs = []
    for p in players:
        where = "prefs of %s" % p
        at_order = where + ': "order"'
        prefs.append(_table(data["prefs"][p], where, '"when"', lambda row: (row["when"],),
                            lambda row: _list(row["order"], at_order),
                            lambda rows: _order_rows(rows, False)))
    return pgame.PPGame(players, strategies, neigh, tuple(prefs))


# ---------------------------------------------------------------- payoffgame

def payoff_to_json(game, v):
    """A payoff of `game`: a plain rational, or a value of its carrier."""
    return payload_to_json(game.carrier, v if game.carrier is None else v.payload)


def _payoffgame_to_json(game, table):
    doc = _game_to_json(game)
    doc["carrier"] = None if game.carrier is None else spec_to_json(game.carrier)
    at = _scope_texts(game.strategies)
    cell = lambda v: payoff_to_json(game, v)
    doc["payoffs"] = {p: table(t, at(game.local_scope(i)), cell, "when", "value")
                      for i, (p, t) in enumerate(zip(game.players, game.payoffs))}
    return doc


def _payoffgame_from_json(data):
    players, strategies, neigh = _game_from_json(data)
    carrier = None if data.get("carrier") is None else spec_from_json(data["carrier"])
    box = (lambda v: v) if carrier is None else (lambda v: semiring.SemiringValue(carrier, v))
    payoffs = []
    for p in players:
        where = "payoffs of %s" % p
        payoffs.append(_table(data["payoffs"][p], where, '"when"', lambda cell: (cell["when"],),
                              lambda cell: box(payload_from_json(carrier, cell["value"], where))))
    return pgame.PayoffGame(players, strategies, neigh, tuple(payoffs), carrier)


# --------------------------------------------------------------------- graph

def _graph_to_json(graph, table):
    doc = {"nodes": graph.nodes, "edges": graph.edges}
    if graph.levels is not None:
        doc["levels"] = dict(zip(graph.nodes, graph.levels))
    return doc


def _graph_from_json(data):
    """The graph; its levels, an object keyed by exactly its nodes, become
    the tuple aligned with them, whose ints `DirectedGraph` checks."""
    nodes = _names(data["nodes"], "nodes")
    edges = data["edges"]
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
#: returns the document without its "kind", which `_document` adds, each
#: table held as its `table` argument makes it (see `_row_dicts`).
_KINDS = {
    "cpnet": (cpnet.CPNet, _cpnet_to_json, _cpnet_from_json),
    "scsp": (softcsp.SoftCSP, _scsp_to_json, _scsp_from_json),
    "ppgame": (pgame.PPGame, _ppgame_to_json, _ppgame_from_json),
    "payoffgame": (pgame.PayoffGame, _payoffgame_to_json, _payoffgame_from_json),
    "graph": (pgame.DirectedGraph, _graph_to_json, _graph_from_json),
}
KINDS = tuple(_KINDS)


def _document(obj, table):
    for kind, (cls, write, _) in _KINDS.items():
        if isinstance(obj, cls):
            doc = write(obj, table)
            doc["kind"] = kind
            return doc
    raise ValidationError("cannot serialize %r" % (type(obj),))


def document_of(obj):
    """The document of a record as plain JSON data."""
    return _document(obj, _row_dicts)


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

def text_of(obj):
    """`json.dumps(obj, sort_keys=True, indent=2) + "\\n"`, byte for byte: the
    one writer of documents and reports, which writes a `_Rows` as the rows
    it holds.  It collects chunks and joins them once, and writes a list of
    strings with one join over the C string encoder, where the stdlib makes
    a chunk per item and separator."""
    chunks = []
    _write(obj, "\n", chunks.append)
    chunks.append("\n")
    return "".join(chunks)


def _scalar_text(o):
    """The JSON text of a number, a bool or None."""
    if o is None or o is True or o is False:
        return "null" if o is None else "true" if o else "false"
    if isinstance(o, int):
        return int.__repr__(o)
    if isinstance(o, float):
        if o != o:
            return "NaN"
        if o == math.inf or o == -math.inf:
            return "Infinity" if o > 0 else "-Infinity"
        return float.__repr__(o)
    raise TypeError("Object of type %s is not JSON serializable" % type(o).__name__)


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
            put(sep + _quote(key if isinstance(key, str) else _scalar_text(key)) + ": ")
            _write(value, inner, put)
            sep = "," + inner
        put(nl + "}")
    elif isinstance(o, _Rows):
        o.render(nl, put)
    else:
        put(_scalar_text(o))


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
    and their JSON texts.  It gives None unless every value is a string, as
    equal numbers can differ in text (1, 1.0 and True)."""
    if not all(isinstance(v, str) for dom in domains for v in dom):
        return lambda scope: None
    values = [sorted(dom) for dom in domains]
    texts = [list(map(_quote, vs)) for vs in values]
    return lambda scope: [(values[j], texts[j]) for j in scope]


def _row_dicts(rows, scope_texts, cell, key_field, cell_field, wrap=False):
    """The row list of a table (key -> cell) as plain data: sorted by key,
    row k is {key_field: k, cell_field: cell(rows[k])}, with k in a list
    of its own when `wrap` (a CP-net row's "when")."""
    return [{key_field: [k] if wrap else k, cell_field: cell(x)}
            for k, x in sorted(rows.items())]


class _Rows:
    """A table where its document holds its row list; `_write` writes it
    with `render`, as it writes the `_row_dicts` of the same arguments."""

    __slots__ = ("rows", "scope_texts", "cell", "key_field", "cell_field", "wrap")

    def __init__(self, rows, scope_texts, cell, key_field, cell_field, wrap=False):
        self.rows, self.scope_texts, self.cell = rows, scope_texts, cell
        self.key_field, self.cell_field, self.wrap = key_field, cell_field, wrap

    def render(self, nl, put):
        """The rows' text.  A table's keys are the tuples over its scope
        (`softcsp.check_table`), so sorted they are the product of the
        scope's sorted domains, and each key's text is made from its
        values' texts by the same product, one addition per key.  Each
        distinct cell's text is made once, and the table's text is one join
        over its opening, each row's key and cell with the separators
        between them, and its closing."""
        if self.scope_texts is None:  # a value that is not a string
            _write(_row_dicts(self.rows, None, self.cell, self.key_field, self.cell_field,
                              self.wrap), nl, put)
            return
        row_nl = nl + "  "
        field_nl = row_nl + "  "
        key_nl = field_nl + "  " if self.wrap else field_nl  # where the key's list opens
        value_nl = key_nl + "  "
        key_first = self.key_field < self.cell_field
        first, second = sorted((self.key_field, self.cell_field))
        # what goes around the first field's text of a row, and the second's
        around = (("{" + field_nl + _quote(first) + ": ", "," + field_nl + _quote(second) + ": "),
                  ("", row_nl + "}"))
        (pre, post), (head, tail) = around if key_first else around[::-1]
        if self.wrap:  # the key in a list of its own
            pre, post = pre + "[" + key_nl, field_nl + "]" + post
        scope = self.scope_texts
        # the key texts, built from the last scope index to the first
        keys = [key_nl + "]" + post] if scope else [pre + "[]" + post]
        for i in reversed(range(len(scope))):
            sep = pre + "[" + value_nl if i == 0 else "," + value_nl
            heads = [sep + text for text in scope[i][1]]
            keys = [h + k for h in heads for k in keys]
        cells = list(map(self.rows.__getitem__,
                         itertools.product(*(values for values, _ in scope))))
        memo = {c: head + _text(self.cell(c), field_nl) + tail for c in set(cells)}
        texts = map(memo.__getitem__, cells)
        parts = ["," + row_nl] * (3 * len(keys)) + [nl + "]"]
        parts[0] = "[" + row_nl
        parts[1::3], parts[2::3] = (keys, texts) if key_first else (texts, keys)
        put("".join(parts))


def dumps(obj):
    """`text_of(document_of(obj))`, byte for byte, with each table written
    by `_Rows.render` straight from the record."""
    return text_of(_document(obj, _Rows))


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
