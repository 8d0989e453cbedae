"""The canonical instance-document format.

One JSON envelope with a `kind` discriminator covers all five instance
kinds (cpnet, scsp, ppgame, payoffgame, graph), so a translation can read
one kind and write another.  Serialization is canonical: keys sorted,
fractions printed as "p/q", infinity as "inf"; parse(serialize(x)) == x.

CP-net rows may carry disjunctive conditions ("when" holding several parent
assignments with one shared order); they are expanded to one row per
assignment at parse time.
"""

import json
from fractions import Fraction

from . import cpnet, pgame, semiring, softcsp
from .errors import ValidationError

KINDS = ("cpnet", "scsp", "ppgame", "payoffgame", "graph")


def _fmt_fraction(q):
    return semiring.format_payload(q if q is semiring.INF else Fraction(q))


def _parse_fraction(text, where):
    if text == "inf":
        return semiring.INF
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        raise ValidationError("%s: cannot parse %r as a rational" % (where, text))


# ------------------------------------------------------------- semiring specs

def spec_to_json(spec):
    if spec.kind == "product":
        return {"product": [spec_to_json(f) for f in spec.factors]}
    return spec.kind


def spec_from_json(data):
    if isinstance(data, str):
        if data not in ("boolean", "fuzzy", "weighted"):
            raise ValidationError("unknown semiring %r" % (data,))
        return semiring.SemiringSpec(data)
    if isinstance(data, dict) and set(data) == {"product"}:
        return semiring.product(*(spec_from_json(f) for f in data["product"]))
    raise ValidationError("bad semiring spec %r" % (data,))


def value_to_json(v):
    def walk(spec, payload):
        if spec.kind == "boolean":
            return 1 if payload else 0
        if spec.kind == "product":
            return [walk(f, p) for f, p in zip(spec.factors, payload)]
        return _fmt_fraction(payload)
    return walk(v.spec, v.payload)


def _value_from_json(spec, data, where):
    if spec.kind == "product":
        if not isinstance(data, list) or len(data) != len(spec.factors):
            raise ValidationError("%s: product value needs a list of arity %d"
                                  % (where, len(spec.factors)))
        return semiring.SemiringValue(
            spec,
            tuple(
                _value_from_json(f, d, where).payload
                for f, d in zip(spec.factors, data)
            ),
        )
    if spec.kind == "boolean":
        if data not in (0, 1):
            raise ValidationError("%s: boolean value must be 0 or 1" % where)
        return semiring.value(spec, data)
    return semiring.value(spec, _parse_fraction(data, where))


# --------------------------------------------------------------------- cpnet

def _cpnet_to_json(net):
    domains = {v: list(d) for v, d in zip(net.variables, net.domains)}
    tables = {}
    for i, t in enumerate(net.tables):
        rows = [
            {"when": [list(pa)], "order": list(order)}
            for pa, order in sorted(t.rows.items())
        ]
        tables[net.variables[i]] = {
            "parents": [net.variables[p] for p in t.parents],
            "rows": rows,
        }
    return {
        "kind": "cpnet",
        "variables": list(net.variables),
        "domains": domains,
        "tables": tables,
    }


def _cpnet_from_json(data):
    variables = tuple(data["variables"])
    index = {v: i for i, v in enumerate(variables)}
    domains = tuple(tuple(data["domains"][v]) for v in variables)
    tables = []
    for i, v in enumerate(variables):
        try:
            entry = data["tables"][v]
        except KeyError:
            raise ValidationError("missing table for variable %s" % v)
        parents = tuple(index[p] for p in entry["parents"])
        rows = {}
        for row in entry["rows"]:
            order = tuple(row["order"])
            cpnet.check_strict_orders([order], domains[i])
            for when in row["when"]:
                key = tuple(when)
                if key in rows:
                    raise ValidationError(
                        "table of %s: duplicate row for parent assignment %r" % (v, when)
                    )
                rows[key] = order
        tables.append(cpnet.CPTable(i, parents, rows))
    try:
        return cpnet.CPNet(variables, domains, tuple(tables))
    except ValidationError as exc:
        raise ValidationError("cpnet: %s" % exc)


# ---------------------------------------------------------------------- scsp

def _scsp_to_json(problem):
    return {
        "kind": "scsp",
        "semiring": spec_to_json(problem.semiring),
        "variables": list(problem.variables),
        "domains": {v: list(d) for v, d in zip(problem.variables, problem.domains)},
        "constraints": [
            {
                "scope": [problem.variables[i] for i in c.scope],
                "table": [
                    {"tuple": list(t), "value": value_to_json(v)}
                    for t, v in sorted(c.table.items())
                ],
            }
            for c in problem.constraints
        ],
    }


def _scsp_from_json(data):
    spec = spec_from_json(data["semiring"])
    variables = tuple(data["variables"])
    index = {v: i for i, v in enumerate(variables)}
    domains = tuple(tuple(data["domains"][v]) for v in variables)
    constraints = []
    for k, entry in enumerate(data["constraints"]):
        scope = tuple(index[v] for v in entry["scope"])
        table = {}
        for cell in entry["table"]:
            where = "constraint %d over %s" % (k, entry["scope"])
            table[tuple(cell["tuple"])] = _value_from_json(spec, cell["value"], where)
        constraints.append(softcsp.SoftConstraint(scope, table))
    return softcsp.SoftCSP(variables, domains, tuple(constraints), spec)


# -------------------------------------------------------------------- ppgame

def _ppgame_to_json(game):
    return {
        "kind": "ppgame",
        "players": list(game.players),
        "strategies": {p: list(s) for p, s in zip(game.players, game.strategies)},
        "neigh": {
            game.players[i]: [game.players[j] for j in game.neigh[i]]
            for i in range(len(game.players))
        },
        "prefs": {
            game.players[i]: [
                {"when": list(k), "order": list(order)}
                for k, order in sorted(game.prefs[i].items())
            ]
            for i in range(len(game.players))
        },
    }


def _ppgame_from_json(data):
    players = tuple(data["players"])
    index = {p: i for i, p in enumerate(players)}
    strategies = tuple(tuple(data["strategies"][p]) for p in players)
    neigh = tuple(tuple(index[q] for q in data["neigh"][p]) for p in players)
    prefs = []
    for p in players:
        rows = {}
        for row in data["prefs"][p]:
            key = tuple(row["when"])
            if key in rows:
                raise ValidationError("prefs of %s: duplicate row %r" % (p, row["when"]))
            rows[key] = tuple(row["order"])
        prefs.append(rows)
    return pgame.PPGame(players, strategies, neigh, tuple(prefs))


# ---------------------------------------------------------------- payoffgame

def payoff_to_json(game, v):
    if game.carrier is None:
        return _fmt_fraction(v)
    return value_to_json(v)


def _payoffgame_to_json(game):
    return {
        "kind": "payoffgame",
        "players": list(game.players),
        "strategies": {p: list(s) for p, s in zip(game.players, game.strategies)},
        "neigh": {
            game.players[i]: [game.players[j] for j in game.neigh[i]]
            for i in range(len(game.players))
        },
        "carrier": None if game.carrier is None else spec_to_json(game.carrier),
        "payoffs": {
            game.players[i]: [
                {"when": list(k), "value": payoff_to_json(game, v)}
                for k, v in sorted(game.payoffs[i].items())
            ]
            for i in range(len(game.players))
        },
    }


def _payoffgame_from_json(data):
    players = tuple(data["players"])
    index = {p: i for i, p in enumerate(players)}
    strategies = tuple(tuple(data["strategies"][p]) for p in players)
    neigh = tuple(tuple(index[q] for q in data["neigh"][p]) for p in players)
    carrier = None if data.get("carrier") is None else spec_from_json(data["carrier"])
    payoffs = []
    for p in players:
        table = {}
        for cell in data["payoffs"][p]:
            where = "payoffs of %s" % p
            if carrier is None:
                v = _parse_fraction(cell["value"], where)
                if v is semiring.INF:
                    raise ValidationError("%s: plain payoffs must be finite" % where)
            else:
                v = _value_from_json(carrier, cell["value"], where)
            table[tuple(cell["when"])] = v
        payoffs.append(table)
    return pgame.PayoffGame(players, strategies, neigh, tuple(payoffs), carrier)


# --------------------------------------------------------------------- graph

def _graph_to_json(graph, levels=None):
    doc = {
        "kind": "graph",
        "nodes": list(graph.nodes),
        "edges": [list(e) for e in graph.edges],
    }
    if levels is not None:
        doc["levels"] = dict(levels)
    return doc


def _graph_from_json(data):
    graph = pgame.DirectedGraph(
        tuple(data["nodes"]), tuple(tuple(e) for e in data["edges"])
    )
    levels = data.get("levels")
    return graph, levels


# ------------------------------------------------------------------ envelope

def document_of(obj, levels=None):
    if isinstance(obj, cpnet.CPNet):
        return _cpnet_to_json(obj)
    if isinstance(obj, softcsp.SoftCSP):
        return _scsp_to_json(obj)
    if isinstance(obj, pgame.PPGame):
        return _ppgame_to_json(obj)
    if isinstance(obj, pgame.PayoffGame):
        return _payoffgame_to_json(obj)
    if isinstance(obj, pgame.DirectedGraph):
        return _graph_to_json(obj, levels)
    raise ValidationError("cannot serialize %r" % (type(obj),))


def parse_document(data):
    """Returns (kind, object); graphs come back as (graph, levels)."""
    if not isinstance(data, dict):
        raise ValidationError("a document must be a JSON object")
    kind = data.get("kind")
    if kind not in KINDS:
        raise ValidationError("unknown or missing document kind %r" % (kind,))
    parse = {"cpnet": _cpnet_from_json, "scsp": _scsp_from_json,
             "ppgame": _ppgame_from_json, "payoffgame": _payoffgame_from_json,
             "graph": _graph_from_json}[kind]
    try:
        return kind, parse(data)
    except KeyError as exc:
        raise ValidationError("%s document: missing key or unknown name %s" % (kind, exc))


def dumps(obj, levels=None):
    return json.dumps(document_of(obj, levels), sort_keys=True, indent=2) + "\n"


def loads(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError("syntax error: %s" % exc)
    return parse_document(data)


def load_path(path):
    with open(path) as fh:
        return loads(fh.read())
