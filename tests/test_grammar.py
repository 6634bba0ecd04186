import pytest
from hypothesis import given

from starwedge.expr import I, ONE, ZERO, const, cosh, exp, integer, rational, simplify, sinh, sym
from starwedge.grammar import ParseError, parse, to_text

from starwedge.verification import _recipe_to_expr
from test_expr import recipes

a, z0, z1 = sym("a"), sym("z0"), sym("z1")


@pytest.mark.parametrize(
    "text,expected",
    [
        ("z0", z0),
        ("-z0", -z0),
        ("2*z0 + 3", 2 * z0 + 3),
        ("z0^2", z0 ** 2),
        ("z1^-2", z1 ** -2),
        ("1/2", rational(1, 2)),
        ("i", I),
        ("-i*z0", -I * z0),
        ("cosh(a*z0)/(a*z1)", cosh(a * z0) / (a * z1)),
        ("sinh(a*z0)^2", sinh(a * z0) ** 2),
        ("exp(-a*z0)", exp(-a * z0)),
        ("(z0 + z1)^2", (z0 + z1) ** 2),
        ("cosh(a*z0)^2 - sinh(a*z0)^2", ONE),
    ],
)
def test_parse_examples(text, expected):
    assert parse(text) == expected


@pytest.mark.parametrize(
    "bad",
    ["", "z0 +", "2.5", "sinh", "sinh 3", "z0^z1", "(z0", "z0)", "$", "3x", "z0^1.5"],
)
def test_parse_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse(bad)


@pytest.mark.parametrize(
    "e,text",
    [
        (ZERO, "0"),
        (ONE, "1"),
        (integer(-1), "-1"),
        (rational(-3, 2), "-3/2"),
        (-I, "-i"),
        (const(1, -2), "(1-2*i)"),
        (-z0, "-z0"),
        (ONE / z1, "1/z1"),
        (-ONE / z1, "-1/z1"),
        (-2 / (a * z1), "-2/(a*z1)"),
        ((integer(1) + 2 * I) * z0 - z1 - 1, "-1 + (1+2*i)*z0 - z1"),
        (-I * z0 + I, "i - i*z0"),
        (z1 / sinh(a * z0) ** 3, "z1/sinh(a*z0)^3"),
        (z0 ** 2 / (-3 * z1 ** 2 * cosh(a * z0)), "-1/3*z0^2/(z1^2*cosh(a*z0))"),
    ],
)
def test_print_examples(e, text):
    # the coefficient one is implicit unless the numerator is empty
    assert to_text(e) == text


def test_print_is_deterministic():
    e = z1 * cosh(a * z0) + I / (a * z1) - 3 * z0 ** 2
    assert to_text(e) == to_text(simplify(e))
    assert to_text(e) == to_text(parse(to_text(e)))


def test_complex_coefficient_round_trip():
    e = (integer(1) + 2 * I) * z0 + (integer(-1) - I) * z1
    assert parse(to_text(e)) == e


def test_denominator_grouping():
    e = cosh(a * z0) / (a * z1)
    assert to_text(e) == "cosh(a*z0)/(a*z1)"
    assert parse(to_text(e)) == e


def test_pure_reciprocal():
    e = ONE / z1 ** 2
    assert parse(to_text(e)) == e


@given(recipes)
def test_round_trip_on_random_expressions(recipe):
    e = _recipe_to_expr(recipe)
    assert parse(to_text(e)) == e
