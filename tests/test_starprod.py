import hashlib
import json
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from starwedge import diffop, expr, starprod
from starwedge.config import dump_json
from starwedge.diffop import (
    MINKOWSKI,
    RINDLER,
    BidiffOp,
    DiffOp,
    _coefficient_matrix,
    lorentz_generator,
    momentum_generator,
    wedge,
)
from starwedge.expr import (
    ComplexRational,
    I,
    ONE,
    ZERO,
    cosh,
    _as_terms,
    _from_terms,
    _parts,
    _skey,
    add,
    equality_probe,
    mul,
    sinh,
    substitute,
    sym,
)
from starwedge.grammar import to_text
from starwedge.rindler import STANDARD_MAP
from starwedge.starprod import (
    RelationEntry,
    build_table,
    commutator,
    expected_flat_table,
    star,
    table_to_json_dict,
    table_to_text,
    verify_flat_relations,
)
from starwedge.twists import (
    CanonicalTwist,
    LieTwist,
    LinearTwist,
    QuadraticTwist,
    build_linear_twist,
)
from test_expr import unshrunk

a, z0, z1, z2, z3 = (sym(n) for n in ("a", "z0", "z1", "z2", "z3"))
xs = [sym(f"x{k}") for k in range(4)]
zs = [z0, z1, z2, z3]


def _sample_twists(chart):
    return (
        build_linear_twist(
            CanonicalTwist({(0, 1): Fraction(3, 7), (0, 2): Fraction(-2, 5)}), chart
        ),
        build_linear_twist(LieTwist(Fraction(1, 4), (0, 0, Fraction(2, 3), 0), 0, 1), chart),
        build_linear_twist(QuadraticTwist(Fraction(1, 6), (0, 1, 2, 3)), chart),
    )


# --- star product basics ------------------------------------------------------------

def test_zero_twist_star_is_plain_product():
    tw = build_linear_twist(CanonicalTwist({}), RINDLER)
    f, g = z0 * z2, sinh(a * z0)
    assert star(f, g, tw) == f * g


def test_one_is_the_star_unit():
    for tw in _sample_twists(RINDLER):
        g = z1 * cosh(a * z0)
        assert star(ONE, g, tw) == g
        assert star(g, ONE, tw) == g


def test_transverse_commutator_is_flat_value():
    tw = build_linear_twist(CanonicalTwist({(2, 3): Fraction(4, 9)}), RINDLER)
    got = star(z2, z3, tw) - star(z3, z2, tw)
    assert got == mul(I, Fraction(4, 9))


def test_commutator_antisymmetry_and_diagonal():
    for tw in _sample_twists(RINDLER):
        f, g = z0 * z2, z1 ** 2
        assert commutator(f, g, tw) == -commutator(g, f, tw)
        assert commutator(z2, z2, tw) == ZERO


def test_first_order_legs_satisfy_leibniz():
    for tw in _sample_twists(RINDLER):
        f, g, h = z0, z1 * z2, z3
        lhs = commutator(f * g, h, tw)
        rhs = f * commutator(g, h, tw) + commutator(f, h, tw) * g
        assert lhs == rhs


# --- the commutator as one antisymmetrized operator -----------------------------------

def _readme_twists(chart):
    return {
        "canonical": build_linear_twist(
            CanonicalTwist({(0, 1): Fraction(3, 7), (2, 3): Fraction(1, 3)}), chart
        ),
        "lie": build_linear_twist(LieTwist(Fraction(1, 3), (0, 0, Fraction(2, 3), 0), 0, 1), chart),
        "quadratic": build_linear_twist(QuadraticTwist(Fraction(1, 6), (0, 1, 2, 3)), chart),
    }


def _ladder_pair(chart):
    # f = c0 + c1 sinh(a c0) + c2 and g = c3 + c1 cosh(a c0) + c0 c2 in the
    # chart's coordinates c; the powers exercise cosh^2 = 1 + sinh^2
    c0, c1, c2, c3 = (sym(n) for n in chart.coords)
    f = c0 + c1 * sinh(a * c0) + c2
    g = c3 + c1 * cosh(a * c0) + c0 * c2
    return f, g


@pytest.mark.parametrize("kind", ["canonical", "lie", "quadratic"])
@pytest.mark.parametrize("chart", [MINKOWSKI, RINDLER])
def test_commutator_is_difference_of_star_products_on_ladder(chart, kind):
    tw = _readme_twists(chart)[kind]
    f, g = _ladder_pair(chart)
    for k in (1, 2, 3):
        fk, gk = f ** k, g ** k
        assert commutator(fk, gk, tw) == star(fk, gk, tw) - star(gk, fk, tw)


@pytest.mark.parametrize("kind", ["canonical", "lie", "quadratic"])
@pytest.mark.parametrize("chart", [MINKOWSKI, RINDLER])
def test_commutator_takes_each_partial_derivative_once(monkeypatch, chart, kind):
    # star(f, g) - star(g, f) leg by leg derives a slot once per leg that has
    # a coordinate; the contraction of C - C^t derives each slot at most once
    # per coordinate, and no leg acts on a slot
    top: list[tuple[frozenset, str]] = []
    depth = [0]
    diff_terms = expr._diff_terms

    def counted(terms, name):
        if not depth[0]:
            top.append((frozenset(terms.items()), name))
        depth[0] += 1
        try:
            return diff_terms(terms, name)
        finally:
            depth[0] -= 1

    def no_leg_acts(self, f):
        raise AssertionError("a leg acted on a slot")

    twist = _readme_twists(chart)[kind]
    f, g = (e**2 for e in _ladder_pair(chart))
    monkeypatch.setattr(expr, "_diff_terms", counted)
    monkeypatch.setattr(diffop, "_diff_terms", counted)
    monkeypatch.setattr(DiffOp, "apply", no_leg_acts)
    commutator(f, g, twist)
    assert top and {slot for slot, _ in top} <= {frozenset(_as_terms(e).items()) for e in (f, g)}
    assert len(top) == len(set(top)) <= 8


# --- the contraction against the operator leg by leg -----------------------------------

def _leg_by_leg(op, f, g):
    """O(f, g) as the sum of scalar * left(f) * right(g) over the terms of O."""
    return add(*(mul(s, left.apply(f), right.apply(g)) for s, left, right in op.terms))


_scalars = st.tuples(st.integers(-3, 3), st.integers(-2, 2)).map(lambda p: ComplexRational(*p))


@st.composite
def _operator_and_slots(draw):
    """A tensor-leg operator on either chart, not in general antisymmetric, and two slots.

    Its legs are the chart's generators and two vector fields that are not
    generators; the operator is a single term, a wedge, a sum or a multiple
    of these.  The slots are small sums over the chart's coordinates and
    sinh and cosh of a * c0, each to a power of 1 to 3, so the contraction
    may be small enough to merge or large enough to pack.

    Half the draws are large by construction: a single term with a nonzero
    scalar, and slots (n0 c0 + ... + n3 c3 + m sinh(a c0) + m' cosh(a c0))^3
    with n_k >= 1 and m, m' >= 0.  No term of such a slot or of its
    derivatives cancels, so each derivative holds at least the 10 monomials
    of the square of four coordinates, and each row of the contraction
    estimates at least 10 * 10 pairs: the packed path.
    """
    chart = draw(st.sampled_from([MINKOWSKI, RINDLER]))
    c = [sym(n) for n in chart.coords]
    legs = [momentum_generator(chart, mu) for mu in range(4)]
    legs += [lorentz_generator(chart, al, be) for al in range(4) for be in range(al + 1, 4)]
    legs += [DiffOp.partial(chart, 2, c[0]), DiffOp.partial(chart, 0, c[1] * c[3]) + DiffOp.partial(chart, 3)]
    leg = st.sampled_from(legs)

    def single(scalars):
        return st.builds(lambda s, left, right: BidiffOp.from_terms(chart, [(s, left, right)]), scalars, leg, leg)

    if draw(st.booleans()):
        atoms = [*c, sinh(a * c[0]), cosh(a * c[0])]
        weights = st.tuples(*[st.integers(1, 3)] * 4, st.integers(0, 2), st.integers(0, 2))
        slots = weights.map(lambda ns: add(*(mul(n, x) for n, x in zip(ns, atoms))) ** 3)
        return draw(single(_scalars.filter(lambda s: not s.is_zero))), draw(slots), draw(slots)
    ops = st.recursive(
        st.one_of(single(_scalars), st.builds(wedge, leg, leg)),
        lambda inner: st.one_of(st.builds(BidiffOp.__add__, inner, inner), st.builds(BidiffOp.scale, inner, _scalars)),
        max_leaves=4,
    )
    factors = [*c, sinh(a * c[0]), cosh(a * c[0]), 1 / c[1]]
    monomials = st.lists(st.sampled_from(factors), max_size=3).map(lambda fs: mul(1, *fs))
    slots = st.builds(
        lambda terms, n: add(*(mul(k, m) for k, m in terms)) ** n,
        st.lists(st.tuples(st.integers(-3, 3), monomials), min_size=1, max_size=3),
        st.integers(1, 3),
    )
    return draw(ops), draw(slots), draw(slots)


@given(_operator_and_slots())
def test_the_contraction_is_the_operator_leg_by_leg(drawn):
    op, f, g = drawn
    assert op.apply(f, g) == _leg_by_leg(op, f, g)
    # the commutator reads only the operator of its twist
    assert commutator(f, g, LinearTwist(None, op)) == _leg_by_leg(op, f, g) - _leg_by_leg(op, g, f)


@pytest.mark.parametrize("chart", [MINKOWSKI, RINDLER])
def test_each_table_entry_is_the_coordinate_commutator(chart):
    c = [sym(n) for n in chart.coords]
    for tw in (*_readme_twists(chart).values(), *_sample_twists(chart)):
        table = build_table(tw)
        for mu in range(4):
            for nu in range(4):
                want = _leg_by_leg(tw.operator, c[mu], c[nu]) - _leg_by_leg(tw.operator, c[nu], c[mu])
                assert table.entry(mu, nu) == commutator(c[mu], c[nu], tw) == want


def _commutator_matrix_without_the_transpose(op):
    """``starprod._commutator_matrix`` with one defect: the C^t term is dropped."""
    c = _coefficient_matrix(op)
    out = [[{} for _ in range(4)] for _ in range(4)]
    for mu in range(4):
        for nu in range(mu + 1, 4):
            entry = dict(c[mu][nu])
            out[mu][nu] = entry
            out[nu][mu] = {mono: -x for mono, x in entry.items()}
    return out


def test_a_commutator_without_the_transpose_fails_both_properties(monkeypatch):
    monkeypatch.setattr(starprod, "_commutator_matrix", _commutator_matrix_without_the_transpose)
    with pytest.raises(AssertionError):
        unshrunk(test_the_contraction_is_the_operator_leg_by_leg, _operator_and_slots())()
    for chart in (MINKOWSKI, RINDLER):
        with pytest.raises(AssertionError):
            test_each_table_entry_is_the_coordinate_commutator(chart)


# --- an operator keeps its C and C - C^t ----------------------------------------------------

@pytest.mark.parametrize("chart", [MINKOWSKI, RINDLER])
def test_the_kept_matrices_are_left_as_a_fresh_operator_builds_them(chart):
    f, g = _ladder_pair(chart)
    c = [sym(n) for n in chart.coords]
    for tw in _readme_twists(chart).values():
        op = tw.operator
        first = op.apply(f, g)
        assert op._matrix is _coefficient_matrix(op)
        star(f, g, tw)
        commutator(f, g, tw)
        assert op._commutator is starprod._commutator_matrix(op)
        tables = [build_table(tw), build_table(tw)]
        commutator(g, f, tw)
        assert op.apply(f, g) == first and tables[0] == tables[1]
        # each table entry owns a copy of its term map
        for (mu, nu), e in tables[0].entries.items():
            assert getattr(e, "_map", None) is not op._commutator[mu][nu]
            assert e == commutator(c[mu], c[nu], tw)
        fresh = build_linear_twist(tw.spec, chart).operator
        assert op._matrix == _coefficient_matrix(fresh)
        assert op._commutator == starprod._commutator_matrix(fresh)


def test_an_unpickled_operator_rebuilds_its_matrices_on_first_use():
    f, g = _ladder_pair(RINDLER)
    for tw in _readme_twists(RINDLER).values():
        op = tw.operator
        want = commutator(f, g, tw)
        fresh = build_linear_twist(tw.spec, RINDLER).operator
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            data = pickle.dumps(op, protocol)
            # the kept matrices are not pickled
            assert data == pickle.dumps(fresh, protocol)
            back = pickle.loads(data)
            assert back == op and hash(back) == hash(op)
            assert not hasattr(back, "_matrix") and not hasattr(back, "_commutator")
            assert commutator(f, g, LinearTwist(tw.spec, back)) == want
            assert back._matrix == op._matrix and back._commutator == op._commutator


@pytest.mark.parametrize("kind", ["canonical", "lie", "quadratic"])
def test_each_derivative_derives_each_atom_once(monkeypatch, kind):
    # the atoms of f**4 recur in many monomials; one _diff_terms call derives
    # each of them once, and its nested calls (inside sinh/cosh) keep their own
    frames: list[list] = []
    repeats: list[int] = []
    diff_terms, atom_derivative = expr._diff_terms, expr._atom_derivative

    def framed(terms, name):
        frames.append([])
        try:
            return diff_terms(terms, name)
        finally:
            atoms = frames.pop()
            repeats.append(len(atoms) - len(set(atoms)))

    def counted(atom, name):
        frames[-1].append(atom)
        return atom_derivative(atom, name)

    monkeypatch.setattr(expr, "_diff_terms", framed)
    monkeypatch.setattr(diffop, "_diff_terms", framed)
    monkeypatch.setattr(expr, "_atom_derivative", counted)
    f, g = _ladder_pair(RINDLER)
    commutator(f**4, g**4, _readme_twists(RINDLER)[kind])
    assert repeats and repeats == [0] * len(repeats)


@pytest.mark.parametrize("kind", ["canonical", "lie", "quadratic"])
def test_the_ladder_packs_and_a_coordinate_commutator_merges(monkeypatch, kind):
    # the k = 4 ladder estimates 520 to 780 pairs of monomials, a coordinate
    # commutator fewer than 8
    taken = []
    for name in ("_packed_sum_of_products", "_merged_sum_of_products"):
        strategy = getattr(expr, name)
        counted = lambda rows, name=name, strategy=strategy: taken.append(name) or strategy(rows)
        monkeypatch.setattr(expr, name, counted)
    tw = _readme_twists(RINDLER)[kind]
    f, g = _ladder_pair(RINDLER)
    commutator(f**4, g**4, tw)
    assert taken == ["_packed_sum_of_products"]
    taken.clear()
    commutator(z0, z1, tw)
    assert taken == ["_merged_sum_of_products"]


# --- flat tables against closed forms --------------------------------------------------

def test_canonical_flat_table_is_constant():
    rng = random.Random(2)
    for _ in range(5):
        comps = {
            (mu, nu): Fraction(rng.randint(-9, 9), rng.randint(1, 9))
            for mu in range(4)
            for nu in range(mu + 1, 4)
        }
        table = build_table(build_linear_twist(CanonicalTwist(comps), MINKOWSKI))
        for (mu, nu), entry in table.entries.items():
            assert entry == mul(I, comps[(mu, nu)])


def test_lie_flat_table_hand_frozen_entries():
    # inv_kappa = 1/3, vector on the 2-axis, generator pair (0, 1):
    # expanding the structure coefficients by hand gives
    # [x0, x2] = (i/3) x1 and [x1, x2] = (i/3) x0, all other pairs zero
    tw = build_linear_twist(LieTwist(Fraction(1, 3), (0, 0, 1, 0), 0, 1), MINKOWSKI)
    table = build_table(tw)
    assert table.entries[(0, 2)] == mul(I, Fraction(1, 3), xs[1])
    assert table.entries[(1, 2)] == mul(I, Fraction(1, 3), xs[0])
    for key in ((0, 1), (0, 3), (1, 3), (2, 3)):
        assert table.entries[key] == ZERO


@pytest.mark.parametrize(
    "twist",
    [
        build_linear_twist(LieTwist(Fraction(1, 3), (0, 0, 1, 0), 0, 1), MINKOWSKI),
        build_linear_twist(
            LieTwist(Fraction(2, 5), (0, Fraction(1, 2), 0, Fraction(-3, 4)), 0, 2), MINKOWSKI
        ),
        build_linear_twist(LieTwist(Fraction(1, 7), (Fraction(5, 3), 0, 0, 0), 1, 2), MINKOWSKI),
        build_linear_twist(QuadraticTwist(Fraction(2, 5), (0, 1, 2, 3)), MINKOWSKI),
        build_linear_twist(QuadraticTwist(Fraction(1, 2), (0, 2, 1, 3)), MINKOWSKI),
        build_linear_twist(QuadraticTwist(Fraction(-3, 8), (1, 3, 0, 2)), MINKOWSKI),
    ],
)
def test_flat_tables_match_closed_forms(twist):
    table = build_table(twist)
    expected = expected_flat_table(twist.spec)
    for key, want in expected.items():
        assert table.entries[key] == want
        assert equality_probe(table.entries[key], want, trials=50, tol=1e-12)


def test_verify_flat_relations_passes_and_reports():
    rep = verify_flat_relations(
        build_linear_twist(LieTwist(Fraction(1, 3), (0, 0, 1, 0), 0, 1), MINKOWSKI)
    )
    assert rep.passed
    assert len(rep.entries) == 6
    for e in rep.entries:
        assert e.residual == ZERO


def test_relation_entry_pinpoints_failures():
    bad = RelationEntry(mu=0, nu=1, expected=mul(I, 1), got=mul(I, 2))
    assert not bad.passed
    assert bad.residual == I
    assert RelationEntry(mu=0, nu=1, expected=I, got=mul(I, 1)).passed


def test_verify_flat_relations_reports_exactly_the_wrong_entries():
    # the record claims theta01 and theta23; the operator carries theta01 and theta13
    spec = CanonicalTwist({(0, 1): Fraction(1, 2), (2, 3): Fraction(1, 3)})
    built = build_linear_twist(
        CanonicalTwist({(0, 1): Fraction(1, 2), (1, 3): Fraction(1, 5)}), MINKOWSKI
    )
    rep = verify_flat_relations(LinearTwist(spec, built.operator))
    assert not rep.passed
    assert len(rep.entries) == 6
    assert [(e.mu, e.nu) for e in rep.failures()] == [(1, 3), (2, 3)]
    assert [e.residual for e in rep.failures()] == [mul(I, Fraction(1, 5)), mul(I, Fraction(-1, 3))]


def test_verify_flat_relations_requires_flat_chart():
    from starwedge.diffop import ChartMismatchError

    with pytest.raises(ChartMismatchError):
        verify_flat_relations(build_linear_twist(CanonicalTwist({}), RINDLER))


# --- accelerated-chart tables -----------------------------------------------------------

def test_rindler_canonical_time_radial_entry():
    tw = build_linear_twist(CanonicalTwist({(0, 1): Fraction(3, 7)}), RINDLER)
    table = build_table(tw)
    assert table.entries[(0, 1)] == mul(I, Fraction(3, 7)) / (a * z1)


def test_rindler_canonical_mixed_entry():
    tw = build_linear_twist(CanonicalTwist({(0, 2): Fraction(1, 2)}), RINDLER)
    table = build_table(tw)
    want = mul(I, Fraction(1, 2)) * cosh(a * z0) / (a * z1)
    assert table.entries[(0, 2)] == want


def test_table_entry_accessor_antisymmetry():
    tw = build_linear_twist(CanonicalTwist({(0, 1): Fraction(3, 7)}), RINDLER)
    table = build_table(tw)
    assert table.entry(1, 0) == -table.entry(0, 1)
    assert table.entry(2, 2) == ZERO


@pytest.mark.parametrize("chart", [MINKOWSKI, RINDLER])
def test_classical_limit_tables_vanish(chart):
    for tw in (
        build_linear_twist(CanonicalTwist({}), chart),
        build_linear_twist(LieTwist(0, (0, 0, 1, 0), 0, 1), chart),
        build_linear_twist(QuadraticTwist(0, (0, 1, 2, 3)), chart),
    ):
        assert all(e == ZERO for e in build_table(tw).entries.values())


def test_deformed_product_commutes_with_coordinate_map():
    # commutators of mapped flat coordinates, taken on the accelerated chart,
    # equal the substituted flat commutators; for the constant deformation the
    # right side is constant, which pins the transverse pair in particular
    coord_map = STANDARD_MAP
    gs = [coord_map[n] for n in ("x0", "x1", "x2", "x3")]
    for flat, curved in zip(_sample_twists(MINKOWSKI), _sample_twists(RINDLER)):
        for mu in range(4):
            for nu in range(mu + 1, 4):
                lhs = commutator(gs[mu], gs[nu], curved)
                rhs = substitute(commutator(xs[mu], xs[nu], flat), coord_map)
                assert lhs == rhs


# --- export ----------------------------------------------------------------------------

def test_table_text_layout():
    tw = build_linear_twist(CanonicalTwist({(0, 1): Fraction(3, 7)}), RINDLER)
    text = table_to_text(build_table(tw))
    assert "[z0, z1] = 3/7*i/(a*z1)" in text
    assert "[z2, z3] = 0" in text
    assert text.startswith("# chart: rindler")


def test_table_json_round_trip_text():
    tw = build_linear_twist(LieTwist(Fraction(1, 4), (0, 0, 1, 0), 0, 1), RINDLER)
    table = build_table(tw)
    payload = json.loads(dump_json(table_to_json_dict(table)))
    assert payload == table_to_json_dict(table)
    assert payload["chart"] == "rindler"
    assert payload["twist"]["kind"] == "lie"
    from starwedge.grammar import parse

    for key, text in payload["entries"].items():
        mu, nu = (RINDLER.coords.index(n) for n in key.split(","))
        assert parse(text) == table.entries[(mu, nu)]


# --- canonical order pinned as text ------------------------------------------------------
# The artifacts are byte-identical across changes to the engine; these pins make a
# change of canonical order, or of any coefficient, fail here first.

_README_TABLE_TXT_SHA256 = {
    ("minkowski", "canonical"): "9121f77533e07c278fbea654d2d511493a1126867892be3ee8c0bab2bd83c6e4",
    ("minkowski", "lie"): "c0a9716261c215b82e3a9ed8d89d65dd40dd519991024fc35a0ceb8828c0841a",
    ("minkowski", "quadratic"): "aaf0167797612660ba33ead22b752caaae54b2b1c2ce47418a25fe520fa64ff1",
    ("rindler", "canonical"): "329f509059ae38cbd606b118f1d29424a9e9656d9c6595147851e8755c5d60c3",
    ("rindler", "lie"): "1eae9c2c8dd0ffe195fab667c76e0c353f8f3d246dd6d56bb69997143e4071cf",
    ("rindler", "quadratic"): "ff0800555b32e24206444cb6eeb9a7e74730b5b882588be224c54f1c94ce11c5",
}

_LADDER_TEXT = {
    ("canonical", 1): "16/21*i - 3/7*i*z2*sinh(a*z0)/(a*z1) + 3/7*i*cosh(a*z0)/(a*z1)",
    ("canonical", 2): "846ba98ef29146173beb24116d16d73dffb58e22f1f3ccff7bade4de86ab80a0",
    ("canonical", 3): "199845d8a53c45190cf38140f7b8fc6eb4145d3c75346709a25a871453b4411d",
    ("canonical", 4): "452103741b55b1d2422fd470c0fb7ec0fc63ef52156fc320be9d6013a81527fb",
    ("lie", 1): "2/9*i*z0/a - 2/9*i*z2/a + 2/9*i*z0*z1*cosh(a*z0) - 2/9*i*z1*sinh(a*z0)",
    ("lie", 2): "4725717025340918f8d64f90d81a3a5e93a0914e5d2737c78388a2fc578fa7ad",
    ("lie", 3): "4795c7c2a660852d11602b0f14e07480bbcfda57c1e07318a9228ce8a1ad9ee4",
    ("lie", 4): "005b3a0a098803804052cd5c89f92aaf124c32a1c1d770086516692147dfd5f5",
    ("quadratic", 1): (
        "1/6*i*z0*z3/a - 1/6*i*z2/a - 1/6*i*z2*z3/a + 1/6*i*z0*z1*z3*cosh(a*z0)"
        " - 1/6*i*z1*z2*cosh(a*z0) - 1/6*i*z1*z3*sinh(a*z0)"
    ),
    ("quadratic", 2): "3282c454c17c4854b4175f1188ce9d99ab7e8dfcf6ec1e870f5e7b602f37576a",
    ("quadratic", 3): "44348ed7a14c17da64c47246a1345ee2adbc5cd5c21597e29f9b05a35f0e583c",
    ("quadratic", 4): "9da229bfba946b5d780f5c2725cebb5000454e35d2552851bcd7dfa222c82de2",
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("chart", [MINKOWSKI, RINDLER])
def test_readme_table_text_is_pinned(chart):
    for kind, tw in _readme_twists(chart).items():
        assert _sha256(table_to_text(build_table(tw))) == _README_TABLE_TXT_SHA256[(chart.name, kind)]


@pytest.mark.parametrize("kind", ["canonical", "lie", "quadratic"])
def test_ladder_results_build_no_term_node(monkeypatch, kind):
    # a sum stores its (monomial, coefficient) tuple, so computing the ladder
    # and printing it builds none of its term nodes; the view built on demand
    # reads back as the stored terms
    tw = _readme_twists(RINDLER)[kind]
    f, g = _ladder_pair(RINDLER)
    built = []
    term_to_expr = expr._term_to_expr
    monkeypatch.setattr(expr, "_term_to_expr", lambda m, c: built.append(m) or term_to_expr(m, c))
    results = [commutator(f ** k, g ** k, tw) for k in (1, 2, 3, 4)]
    for e in results:
        to_text(e)
    assert built == []
    monkeypatch.undo()
    for e in results:
        rebuilt = _from_terms(_as_terms(e))
        assert rebuilt == e and hash(rebuilt) == hash(e) and _skey(rebuilt) == _skey(e)
        assert _parts(rebuilt) == _parts(e) and _as_terms(rebuilt) == _as_terms(e)
        one_terms = [_from_terms(dict([t])) for t in _parts(e)]
        assert [_skey(t) for t in e.terms] == [_skey(x) for x in one_terms]


@pytest.mark.parametrize("kind", ["canonical", "lie", "quadratic"])
def test_comparing_ladder_results_builds_no_term_view(monkeypatch, kind):
    # == and hash read the stored term tuple, so checking the ladder's results
    # against fresh copies keeps no second form of any of them
    tw = _readme_twists(RINDLER)[kind]
    f, g = _ladder_pair(RINDLER)
    built = []
    term_to_expr = expr._term_to_expr
    monkeypatch.setattr(expr, "_term_to_expr", lambda m, c: built.append(m) or term_to_expr(m, c))
    first, fresh = ([commutator(f ** k, g ** k, tw) for k in (1, 2, 3, 4)] for _ in range(2))
    assert first == fresh and [hash(e) for e in first] == [hash(e) for e in fresh]
    assert built == []
    assert not any(hasattr(e, "_terms") for e in first + fresh)


def test_ladder_commutator_text_is_pinned():
    # k = 1 in full; the longer texts of k = 2..4 by their sha256 (at k = 4 the
    # results have 364, 406 and 647 terms)
    f, g = _ladder_pair(RINDLER)
    for kind, tw in _readme_twists(RINDLER).items():
        for k in (1, 2, 3, 4):
            text = to_text(commutator(f ** k, g ** k, tw))
            assert (text if k == 1 else _sha256(text)) == _LADDER_TEXT[(kind, k)]
