"""c-semiring algebra: boolean, fuzzy and weighted instances plus Cartesian products.

All arithmetic is exact (fractions.Fraction); the weighted carrier carries an
explicit infinity marker.  The induced preference order is exposed only through
the predicates leq / strictly_less / incomparable: for the weighted instance
the preference order is the reverse of the numeric order on costs, and leaking
a numeric score would invite sign bugs.

The solvers that pick optima (`maximal`) work on exact integer codes that
`_compile` gives a problem's values, once per call: codes are ordered like the
preference order and folded like the carrier's combination.  The codes are
private to one call and never printed; results carry the boxed values.
"""

import math
import operator
import sys
from fractions import Fraction

from .errors import CarrierMismatchError, EnumerationLimitError, ValidationError
from .record import Record, init_field


class _Infinity:
    """The weighted semiring's absorbing cost (its 0 element)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "inf"


INF = _Infinity()

KINDS = ("boolean", "fuzzy", "weighted", "product")


class SemiringSpec(Record):
    __slots__ = _fields = ("kind", "factors")

    def __init__(self, kind, factors=()):
        init_field(self, "kind", kind)
        init_field(self, "factors", factors)
        self.__post_init__()

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError("unknown semiring kind %r" % (self.kind,))
        if self.kind == "product":
            if not self.factors:
                raise ValidationError("product semiring needs at least one factor")
            for f in self.factors:
                if not isinstance(f, SemiringSpec):
                    raise ValidationError("product factor is not a SemiringSpec")
        elif self.factors:
            raise ValidationError("%s semiring takes no factors" % self.kind)


BOOLEAN = SemiringSpec("boolean")
FUZZY = SemiringSpec("fuzzy")
WEIGHTED = SemiringSpec("weighted")


def product(*factors):
    return SemiringSpec("product", tuple(factors))


class SemiringValue(Record):
    __slots__ = _fields = ("spec", "payload")

    def __init__(self, spec, payload):
        init_field(self, "spec", spec)
        init_field(self, "payload", payload)

    def __repr__(self):
        return "SemiringValue(%s)" % (format_payload(self.payload),)


def _coerce_rational(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        # decimal literals like 0.4 are meant exactly
        return Fraction(str(x))
    raise ValidationError("cannot read %r as an exact rational" % (x,))


def value(spec, payload):
    """Build a validated carrier element of `spec`."""
    return SemiringValue(spec, _check_payload(spec, payload))


def _check_payload(spec, payload):
    if spec.kind == "boolean":
        if payload in (0, 1, False, True):
            return bool(payload)
        raise CarrierMismatchError("boolean carrier is {0,1}, got %r" % (payload,))
    if spec.kind == "fuzzy":
        q = _coerce_rational(payload)
        if not 0 <= q <= 1:
            raise CarrierMismatchError("fuzzy carrier is [0,1], got %s" % (q,))
        return q
    if spec.kind == "weighted":
        if payload is INF:
            return INF
        q = _coerce_rational(payload)
        if q < 0:
            raise CarrierMismatchError("weighted carrier is non-negative, got %s" % (q,))
        return q
    # product
    if not isinstance(payload, (tuple, list)) or len(payload) != len(spec.factors):
        raise CarrierMismatchError(
            "product payload must have arity %d, got %r" % (len(spec.factors), payload)
        )
    parts = []
    for f, p in zip(spec.factors, payload):
        parts.append(_check_payload(f, p.payload if isinstance(p, SemiringValue) else p))
    return tuple(parts)


def zero(spec):
    if spec.kind == "boolean":
        return value(spec, False)
    if spec.kind == "fuzzy":
        return value(spec, 0)
    if spec.kind == "weighted":
        return value(spec, INF)
    return SemiringValue(spec, tuple(zero(f).payload for f in spec.factors))


def one(spec):
    if spec.kind == "boolean":
        return value(spec, True)
    if spec.kind == "fuzzy":
        return value(spec, 1)
    if spec.kind == "weighted":
        return value(spec, 0)
    return SemiringValue(spec, tuple(one(f).payload for f in spec.factors))


def _require(spec, v, side=""):
    if not isinstance(v, SemiringValue) or (v.spec is not spec and v.spec != spec):
        raise CarrierMismatchError(
            "value %r does not belong to the %s carrier%s"
            % (v, spec.kind, " (%s)" % side if side else "")
        )


def _fold_payloads(spec, payloads):
    """The combination of a list of payloads of `spec`; the empty list gives 1."""
    if spec.kind == "boolean":
        return all(payloads)
    if spec.kind == "fuzzy":
        return min(payloads, default=Fraction(1))
    if spec.kind == "weighted":
        return INF if any(p is INF for p in payloads) else sum(payloads, Fraction(0))
    return tuple(
        _fold_payloads(f, [p[k] for p in payloads]) for k, f in enumerate(spec.factors)
    )


def combine(spec, a, b):
    """The multiplicative operator: and / min / cost sum / componentwise."""
    _require(spec, a, "left")
    _require(spec, b, "right")
    return SemiringValue(spec, _fold_payloads(spec, [a.payload, b.payload]))


def _plus_payload(spec, a, b):
    if spec.kind == "boolean":
        return a or b
    if spec.kind == "fuzzy":
        return max(a, b)
    if spec.kind == "weighted":
        if a is INF:
            return b
        if b is INF:
            return a
        return min(a, b)
    return tuple(_plus_payload(f, x, y) for f, x, y in zip(spec.factors, a, b))


def plus(spec, a, b):
    """The additive operator; induces the preference order a <= b iff a+b = b."""
    _require(spec, a, "left")
    _require(spec, b, "right")
    return SemiringValue(spec, _plus_payload(spec, a.payload, b.payload))


def leq(spec, a, b):
    """a <= b in the induced order (b is at least as preferred as a)."""
    _require(spec, a, "left")
    _require(spec, b, "right")
    return _plus_payload(spec, a.payload, b.payload) == b.payload


def strictly_less(spec, a, b):
    return leq(spec, a, b) and a.payload != b.payload


def incomparable(spec, a, b):
    return not leq(spec, a, b) and not leq(spec, b, a)


def is_linear(spec):
    """Whether the induced order is total."""
    return spec.kind != "product"


def is_strictly_monotonic(spec):
    """Whether a < b implies c x a < c x b.

    Holds for the weighted instance (cost addition), fails for fuzzy (min)
    and boolean (and); products are not linearly ordered so they are out.
    """
    return spec.kind == "weighted"


def combine_all(spec, values):
    """The combination of `values`, boxed once; no values give 1."""
    payloads = []
    for v in values:
        _require(spec, v)
        payloads.append(v.payload)
    return SemiringValue(spec, _fold_payloads(spec, payloads))


# ------------------------------------------------------- exact codes and optima

def _leaf_codes(spec, columns):
    """Code every payload in `columns` (per table, the table's payloads).

    Returns (coded, folds).  `coded` mirrors `columns` with each payload
    replaced by its code: an int ordered like the carrier's preference
    order, or for a product the flat tuple of its factors' codes.  `folds`
    holds, per int in a code, the function that maps the ints of one
    payload from each of some of the tables to the int of their
    combination.  The codes are exact on the payloads given.  A `spec` of
    None stands for plain rationals, higher being better."""
    kind = "rational" if spec is None else spec.kind
    if kind == "product":
        parts, folds = [], []
        for k, f in enumerate(spec.factors):
            coded, fs = _leaf_codes(f, [[p[k] for p in col] for col in columns])
            if f.kind != "product":
                coded = [[(c,) for c in col] for col in coded]
            parts.append(coded)
            folds += fs
        return [[sum(cs, ()) for cs in zip(*cols)] for cols in zip(*parts)], folds
    # a bool's numerator and denominator are those of 0 or 1
    scale = math.lcm(*(q.denominator for col in columns for q in col if q is not INF))
    scaled = [[None if q is INF else q.numerator * (scale // q.denominator) for q in col]
              for col in columns]
    if kind == "rational":
        return scaled, [sum]
    if kind in ("boolean", "fuzzy"):  # the code of 1 is `scale`
        return scaled, [lambda codes: min(codes, default=scale)]
    # costs: a lower cost is better, so a code is the negated scaled cost;
    # infinity is one sentinel below the dearest total of one value per
    # table, and every total at or below it is clamped to it
    floor = -1 - sum(max((v for v in col if v is not None), default=0) for col in scaled)
    return ([[floor if v is None else -v for v in col] for col in scaled],
            [lambda codes: max(sum(codes), floor)])


def _compile(spec, tables):
    """Exact codes for the values of `tables`, a list of dicts whose values
    are elements of `spec` (plain rationals when `spec` is None).

    Returns (coded, fold).  `coded` is `tables` with every value replaced
    by its code: an int for a linearly ordered carrier, a flat tuple of ints
    (one per factor, nested products flattened) for a product.  Code order
    is the preference order, componentwise for tuples, and equal codes mean
    equal values.  `fold(codes)` takes a list holding the codes of one value
    from each of some of the tables and returns the code of the values'
    combination; the empty list gives the code of 1."""
    if spec is None:
        columns = [list(t.values()) for t in tables]
    else:
        for t in tables:
            for v in t.values():
                _require(spec, v)
        columns = [[v.payload for v in t.values()] for t in tables]
    coded, folds = _leaf_codes(spec, columns)
    if spec is not None and spec.kind == "product":
        def fold(codes):
            return tuple(f([c[k] for c in codes]) for k, f in enumerate(folds))
    else:
        [fold] = folds
    return [dict(zip(t, col)) for t, col in zip(tables, coded)], fold


def maximal(items):
    """The x of every (x, code) pair in `items` whose code no other code
    strictly exceeds, in the order of `items`.

    Int codes (linear carriers) take one pass that keeps ties.  Tuple codes
    (products, Pareto vectors) are compared componentwise by a sort-filter
    skyline: sorted by code, highest first, each item is kept unless a kept
    code dominates it, which suffices because a dominator sorts earlier and
    dominance is transitive."""
    items = iter(items)
    first = next(items, None)
    if first is None:
        return []
    if isinstance(first[1], tuple):
        return _skyline([first, *items])
    best, out = first[1], [first[0]]
    for x, c in items:
        if c > best:
            best, out = c, [x]
        elif c == best:
            out.append(x)
    return out


def _skyline(items):
    front, kept = [], []
    last = keep = None
    for k in sorted(range(len(items)), key=lambda k: items[k][1], reverse=True):
        c = items[k][1]
        if c != last:
            # every code in `front` sorts above c, so none equals it
            keep = not any(all(map(operator.ge, f, c)) for f in front)
            if keep:
                front.append(c)
            last = c
        if keep:
            kept.append(k)
    return [items[k][0] for k in sorted(kept)]


def validate_axioms(spec, sample, combine_op=None, plus_op=None):
    """Check the c-semiring axioms on every pair/triple from `sample`.

    Returns a list of human-readable violations (empty for the built-in
    instances).  Custom operators may be injected to test detection.
    """
    comb = combine_op or (lambda a, b: combine(spec, a, b))
    add = plus_op or (lambda a, b: plus(spec, a, b))
    z, u = zero(spec), one(spec)
    out = []

    def eq(x, y):
        return x.payload == y.payload

    for a in sample:
        if not eq(add(a, a), a):
            out.append("+ not idempotent at %r" % (a,))
        if not eq(add(a, z), a):
            out.append("0 not a unit of + at %r" % (a,))
        if not eq(add(a, u), u):
            out.append("1 not absorbing for + at %r" % (a,))
        if not eq(comb(a, u), a):
            out.append("1 not a unit of x at %r" % (a,))
        if not eq(comb(a, z), z):
            out.append("0 not absorbing for x at %r" % (a,))
    for a in sample:
        for b in sample:
            if not eq(add(a, b), add(b, a)):
                out.append("+ not commutative at %r, %r" % (a, b))
            if not eq(comb(a, b), comb(b, a)):
                out.append("x not commutative at %r, %r" % (a, b))
            for c in sample:
                if not eq(add(add(a, b), c), add(a, add(b, c))):
                    out.append("+ not associative at %r, %r, %r" % (a, b, c))
                if not eq(comb(comb(a, b), c), comb(a, comb(b, c))):
                    out.append("x not associative at %r, %r, %r" % (a, b, c))
                if not eq(comb(a, add(b, c)), add(comb(a, b), comb(a, c))):
                    out.append("x does not distribute over + at %r, %r, %r" % (a, b, c))
    return out


def format_payload(payload):
    """Canonical text form: fractions as p/q, infinity as 'inf'."""
    if isinstance(payload, bool):
        return "1" if payload else "0"
    if payload is INF:
        return "inf"
    if isinstance(payload, Fraction):
        try:
            return "%d/%d" % (payload.numerator, payload.denominator) \
                if payload.denominator != 1 else str(payload.numerator)
        except ValueError:  # values read are bounded, their combinations are not
            raise EnumerationLimitError(
                "a value has more digits than the bound of %d that Python writes "
                "for an integer" % sys.get_int_max_str_digits())
    if isinstance(payload, tuple):
        return "<" + ",".join(format_payload(p) for p in payload) + ">"
    raise ValidationError("unprintable payload %r" % (payload,))

