import re
from fractions import Fraction

import pytest

from optiform import semiring
from optiform.errors import CarrierMismatchError, ValidationError
from optiform.serialize import payload_from_json, payload_to_json
from optiform.semiring import (
    BOOLEAN,
    SemiringSpec,
    FUZZY,
    INF,
    WEIGHTED,
    combine,
    combine_all,
    format_payload,
    incomparable,
    is_linear,
    is_strictly_monotonic,
    leq,
    one,
    plus,
    product,
    strictly_less,
    validate_axioms,
    value,
    zero,
)


def test_boolean_basics():
    t = one(BOOLEAN)
    f = zero(BOOLEAN)
    assert combine(BOOLEAN, t, f).payload is False
    assert plus(BOOLEAN, t, f).payload is True
    assert leq(BOOLEAN, f, t)
    assert not leq(BOOLEAN, t, f)


def test_fuzzy_combine_is_min_plus_is_max():
    a = value(FUZZY, Fraction(1, 2))
    b = value(FUZZY, Fraction(3, 4))
    assert combine(FUZZY, a, b).payload == Fraction(1, 2)
    assert plus(FUZZY, a, b).payload == Fraction(3, 4)
    assert leq(FUZZY, a, b)
    assert strictly_less(FUZZY, a, b)


def test_fuzzy_carrier_range_enforced():
    with pytest.raises(CarrierMismatchError):
        value(FUZZY, Fraction(3, 2))
    with pytest.raises(CarrierMismatchError):
        value(FUZZY, Fraction(-1, 4))


def test_weighted_lower_cost_is_better():
    cheap = value(WEIGHTED, 2)
    dear = value(WEIGHTED, 5)
    assert combine(WEIGHTED, cheap, dear).payload == Fraction(7)
    assert plus(WEIGHTED, cheap, dear).payload == Fraction(2)
    # lower cost sits higher in the induced order
    assert leq(WEIGHTED, dear, cheap)
    assert not leq(WEIGHTED, cheap, dear)


def test_weighted_infinity_absorbs():
    top = value(WEIGHTED, 3)
    bot = zero(WEIGHTED)
    assert bot.payload is INF
    assert combine(WEIGHTED, top, bot).payload is INF
    assert plus(WEIGHTED, top, bot).payload == Fraction(3)
    assert leq(WEIGHTED, bot, top)


def test_float_payloads_become_exact():
    v = value(WEIGHTED, 0.1)
    assert v.payload == Fraction(1, 10)


def test_product_pareto_order():
    pair = product(WEIGHTED, WEIGHTED)
    a = value(pair, (Fraction(1), Fraction(5)))
    b = value(pair, (Fraction(2), Fraction(3)))
    c = value(pair, (Fraction(2), Fraction(6)))
    assert incomparable(pair, a, b)
    assert leq(pair, c, a)  # worse in both coordinates
    assert combine(pair, a, b).payload == (Fraction(3), Fraction(8))
    assert plus(pair, a, b).payload == (Fraction(1), Fraction(3))


def test_linearity_and_monotonicity_flags():
    pair = product(WEIGHTED, WEIGHTED)
    assert is_linear(WEIGHTED)
    assert not is_linear(pair)
    assert is_strictly_monotonic(WEIGHTED)
    assert not is_strictly_monotonic(FUZZY)
    assert not is_strictly_monotonic(pair)


def test_carrier_mismatch_rejected():
    a = value(FUZZY, Fraction(1, 2))
    b = value(WEIGHTED, 2)
    with pytest.raises(CarrierMismatchError):
        combine(FUZZY, a, b)
    with pytest.raises(CarrierMismatchError):
        leq(WEIGHTED, a, b)
    for spec, payload, message in (
        (BOOLEAN, 2, "boolean carrier is {0,1}, got 2"),
        (WEIGHTED, -1, "weighted carrier is non-negative, got -1"),
        (product(FUZZY, WEIGHTED), (1,), "product payload must have arity 2, got (1,)"),
        (product(FUZZY, WEIGHTED), 1, "product payload must have arity 2, got 1"),
    ):
        with pytest.raises(CarrierMismatchError, match="^%s$" % re.escape(message)):
            value(spec, payload)


def test_combine_all_identity():
    assert combine_all(WEIGHTED, []).payload == Fraction(0)
    vals = [value(WEIGHTED, n) for n in (1, 2, 3)]
    assert combine_all(WEIGHTED, vals).payload == Fraction(6)


def test_format_and_parse_roundtrip():
    pair = product(WEIGHTED, FUZZY)
    v = value(pair, (INF, Fraction(1, 3)))
    assert format_payload(v.payload) == "<inf,1/3>"
    assert payload_to_json(pair, v.payload) == ["inf", "1/3"]
    assert payload_from_json(pair, ["inf", "1/3"], "test") == v.payload
    assert format_payload(Fraction(4)) == "4"
    assert payload_from_json(WEIGHTED, "inf", "test") is INF
    with pytest.raises(ValidationError):
        payload_from_json(FUZZY, "inf", "test")


def test_axioms_hold_on_builtin_carriers():
    sample = [value(FUZZY, q) for q in (Fraction(0), Fraction(1, 2), Fraction(1))]
    assert validate_axioms(FUZZY, sample) == []
    assert validate_axioms(BOOLEAN, [one(BOOLEAN), zero(BOOLEAN)]) == []
    wsample = [value(WEIGHTED, 0), value(WEIGHTED, 2), zero(WEIGHTED)]
    assert validate_axioms(WEIGHTED, wsample) == []


def test_axioms_flag_bad_operator(monkeypatch):
    # a+b+1 has no unit, so putting it in place of combine must surface violations
    def bad(spec, a, b):
        if a.payload is INF or b.payload is INF:
            return zero(spec)
        return value(spec, a.payload + b.payload + 1)

    sample = [value(WEIGHTED, 1), value(WEIGHTED, 2), one(WEIGHTED)]
    monkeypatch.setattr(semiring, "combine", bad)
    assert validate_axioms(WEIGHTED, sample)


def test_values_are_hashable_and_comparable():
    a = value(FUZZY, Fraction(1, 2))
    b = value(FUZZY, Fraction(1, 2))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1


def test_require_accepts_equal_specs_and_keeps_its_messages():
    fresh = SemiringSpec("weighted")  # equal to WEIGHTED, not the same object
    assert fresh == WEIGHTED and fresh is not WEIGHTED
    assert leq(WEIGHTED, value(fresh, 1), value(WEIGHTED, 0))
    half = value(FUZZY, Fraction(1, 2))
    with pytest.raises(CarrierMismatchError) as left:
        leq(WEIGHTED, half, value(WEIGHTED, 0))
    assert str(left.value) == \
        "value SemiringValue(1/2) does not belong to the weighted carrier (left)"
    with pytest.raises(CarrierMismatchError) as right:
        combine(FUZZY, half, 3)
    assert str(right.value) == "value 3 does not belong to the fuzzy carrier (right)"
    with pytest.raises(CarrierMismatchError) as product_side:
        plus(product(WEIGHTED), value(product(FUZZY), (1,)), value(product(WEIGHTED), (1,)))
    assert str(product_side.value) == \
        "value SemiringValue(<1>) does not belong to the product carrier (left)"


def test_combine_all_reads_any_iterable_once():
    vals = [value(WEIGHTED, Fraction(1, 3)), value(WEIGHTED, Fraction(2, 7))]
    assert combine_all(WEIGHTED, iter(vals)).payload == Fraction(13, 21)
    assert combine_all(WEIGHTED, iter(vals + [zero(WEIGHTED)])).payload is INF
    pair = product(FUZZY, BOOLEAN)
    assert combine_all(pair, (value(pair, (q, b)) for q, b in ((1, 1), (Fraction(1, 4), 1))))\
        .payload == (Fraction(1, 4), True)
    with pytest.raises(CarrierMismatchError):
        combine_all(WEIGHTED, [value(FUZZY, 1)])
