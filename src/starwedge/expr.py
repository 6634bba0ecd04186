"""Immutable symbolic expressions over coordinates, parameters and hyperbolic factors.

Every ``Expr`` is canonical, by contract: a sum of Laurent monomials in
"atoms" (symbols and function applications), with one exact complex-rational
coefficient per monomial.  Products of sums are always expanded, children are
kept in a fixed deterministic order, and any positive even power of cosh is
rewritten through cosh(u)^2 = 1 + sinh(u)^2 so that a canonical monomial
carries a cosh exponent of at most one.

Structurally equal canonical forms are semantically equal.  The converse
holds on Laurent polynomials in coordinates and in sinh of one common
argument, times cosh of that argument to the power 0 or 1.  It fails once a
cosh power is negative, since only positive powers are rewritten: with
``m = 2*cosh(u)/z1``, ``m**-3 * m**3`` stays
``1/cosh(u)^2 + sinh(u)^2/cosh(u)^2``.  It fails too once exp or tanh
appear: those atoms are opaque, so ``exp(x)*exp(-x)`` and ``exp(x)^2`` stay
as they are, and ``tanh(x)*cosh(x)`` is not rewritten to ``sinh(x)``.

Each function's rules (IEEE value, value at an exact zero argument,
derivative) are one entry of the table ``_FN_RULES``.  ``a / b`` is
``a * b**-1``, and ``**`` takes a monomial to any integer power, a sum only
to a nonnegative one.

Constants are exact complex rationals, each stored as one reduced integer
triple (see :class:`ComplexRational`); floating point enters only through
:func:`eval_numeric`.

An expression is an atom or an ``Add``; both are immutable.  The atoms,
``Sym`` and ``Fn``, are interned (hash-consed): each class keeps its live
nodes in a weak table, so structurally equal atoms are one object, and atoms
compare and hash by identity, in C.  Monomials are tuples of (atom, exponent)
pairs, so hashing one for a term-map lookup runs no Python code.  Every other
expression (zero, a constant, a monomial other than a bare atom, a sum) is an
``Add`` of its term map, which maps each monomial to its coefficient.  The
node owns the map it was built from, is not interned, compares by its map and
hashes by the set of its terms, so neither needs an order.  The sorted
(monomial, coefficient) tuple is built once, on the first read of the order,
and kept on the node: an intermediate that is only multiplied, added or
compared is never sorted.  Each expression stores its sort key (the
canonical order of atoms, in which a composite ``Fn`` argument takes part):
an atom when it is interned, an ``Add`` on first use, so the merge that
orders the atoms of a product reads one stored attribute per atom.  The
tables rely on one node per atom structure while it lives, which holds as
long as one thread at a time builds nodes, as every caller in the package
does.  Atoms pickle by their fields and an ``Add`` by its terms,
so unpickled atoms are interned too.

The working form is the term map; ``_add_term``, ``_mul_terms`` and
``_reduce_cosh`` are the definition of the normal form on it.  Every
stored monomial lists its atoms in key order and every term map is reduced,
so a product merges two sorted monomials in one pass: a constant term scales
the other term's monomial as it is, and only a cosh atom that both monomials
share goes through ``_reduce_cosh``, which multiplies the rest by
1 + sinh(u)^2 through the same merge.  ``differentiate`` reaches the normal
form through the same product.  A large contraction, a sum of products
a * b * c (``_sum_of_products``), skips the merge: it packs each monomial
into one integer over the call's atoms, sorted once by key, so a product of
monomials is one integer addition, and it applies the same cosh rule as
field arithmetic; a property test holds it equal to the merge.  The merge
and that one sort of a call's atoms are the code that orders atoms.
``_from_terms`` is the one writer of the layout.  ``_as_terms`` reads a
copy of the map, for every walk that needs no order (products, sums,
``substitute``, ``free_symbols``); ``_parts`` reads the sorted terms, for
every walk whose output shows the order (the printer of ``grammar``,
``summands``, ``_skey``, ``eval_numeric``).  ``Add.terms`` is a read-only
view for walkers outside this module, built by ``_term_to_expr`` on first
access and then kept; no walk of this module builds it.  It holds one record
per term: an atom, a ``Const``, a ``Pow`` (an atom to an exponent other than
1), or a ``Mul`` of an optional leading ``Const`` and then atoms and ``Pow``s
in monomial order.  The records are named tuples, not expressions;
``_skey`` and ``eval_numeric`` still accept them, and key and evaluate a sum
from its sorted terms exactly as they would its records.  Each public
operation takes its operands apart into term maps once, works on the maps,
and builds its result once, at the end; ``differentiate`` and the operators
of ``diffop`` chain whole computations on term maps the same way.
"""

from __future__ import annotations

import cmath
import random
import weakref
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Callable, Mapping, NamedTuple, Sequence, Union

__all__ = [
    "ComplexRational",
    "Expr",
    "Const",
    "Sym",
    "Add",
    "Mul",
    "Pow",
    "Fn",
    "UnboundSymbolError",
    "NonMonomialDivisionError",
    "ProbeSamplingError",
    "ZERO",
    "ONE",
    "I",
    "const",
    "integer",
    "rational",
    "sym",
    "sinh",
    "cosh",
    "exp",
    "tanh",
    "add",
    "mul",
    "simplify",
    "differentiate",
    "substitute",
    "eval_numeric",
    "equality_probe",
    "free_symbols",
    "summands",
]

RationalLike = Union[int, Fraction]


class UnboundSymbolError(KeyError):
    """A free symbol had no value in the supplied bindings."""


class NonMonomialDivisionError(ValueError):
    """Division or negative power of a multi-term sum was requested."""


class ProbeSamplingError(RuntimeError):
    """equality_probe could not find finite sample points within its retry cap."""


class ComplexRational:
    """Exact complex number ``(a + b*i) / d`` with integers ``a``, ``b`` and ``d``.

    The triple is stored reduced: ``d > 0`` and ``gcd(a, b, d) == 1``.  Each
    value has exactly one such triple, so ``==`` and ``hash`` compare the
    three integers.  Arithmetic works on the integers and reduces each result
    with one gcd.  Instances are immutable by convention (term tuples hash
    them); ``re`` and ``im`` give the parts as ``Fraction``s, ``part_texts``
    as text without building them.
    """

    __slots__ = ("_a", "_b", "_d")

    def __new__(cls, re: RationalLike = 0, im: RationalLike = 0) -> "ComplexRational":
        if type(re) is int and type(im) is int:
            return _reduced(re, im, 1)
        re, im = Fraction(re), Fraction(im)
        d = lcm(re.denominator, im.denominator)
        a = re.numerator * (d // re.denominator)
        return _reduced(a, im.numerator * (d // im.denominator), d)

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not ComplexRational:
            return NotImplemented
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        return hash((self._a, self._b, self._d))

    def __repr__(self) -> str:
        return f"ComplexRational(re={self.re!r}, im={self.im!r})"

    def __reduce__(self) -> tuple:
        return _new_cr, (self._a, self._b, self._d)

    def __add__(self, other: "ComplexRational") -> "ComplexRational":
        d, f = self._d, other._d
        if d == f:
            return _reduced(self._a + other._a, self._b + other._b, d)
        return _reduced(self._a * f + other._a * d, self._b * f + other._b * d, d * f)

    def __sub__(self, other: "ComplexRational") -> "ComplexRational":
        d, f = self._d, other._d
        if d == f:
            return _reduced(self._a - other._a, self._b - other._b, d)
        return _reduced(self._a * f - other._a * d, self._b * f - other._b * d, d * f)

    def __mul__(self, other: "ComplexRational") -> "ComplexRational":
        a, b, c, e = self._a, self._b, other._a, other._b
        if self._d == 1 == other._d:
            # Gaussian integers: the product is reduced as it is
            return _new_cr(a * c - b * e, a * e + b * c, 1)
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    def __neg__(self) -> "ComplexRational":
        return _new_cr(-self._a, -self._b, self._d)

    def inverse(self) -> "ComplexRational":
        a, b, d = self._a, self._b, self._d
        n = a * a + b * b
        if n == 0:
            raise ZeroDivisionError("inverse of exact zero")
        return _reduced(d * a, -d * b, n)

    def power(self, n: int) -> "ComplexRational":
        if n < 0:
            return self.inverse().power(-n)
        # (a + b i)^n by binary exponentiation on Gaussian integers, over d^n
        a, b, pa, pb, d = 1, 0, self._a, self._b, self._d ** n
        while n:
            if n & 1:
                a, b = a * pa - b * pb, a * pb + b * pa
            n >>= 1
            if n:
                pa, pb = pa * pa - pb * pb, 2 * pa * pb
        return _reduced(a, b, d)

    def part_texts(self) -> tuple[str, str]:
        """The real and imaginary parts as ``str(Fraction)`` prints them, one gcd each."""
        d = self._d

        def text(n: int) -> str:
            g = gcd(n, d)
            return str(n // g) if g == d else f"{n // g}/{d // g}"

        return text(self._a), text(self._b)

    @property
    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    @property
    def is_one(self) -> bool:
        return self._a == 1 and self._b == 0 and self._d == 1

    def to_complex(self) -> complex:
        # int / int is correctly rounded, as float(Fraction) is
        return complex(self._a / self._d, self._b / self._d)


def _new_cr(a: int, b: int, d: int) -> ComplexRational:
    """The triple (a, b, d) as a ComplexRational; it must already be reduced."""
    c = object.__new__(ComplexRational)
    c._a, c._b, c._d = a, b, d
    return c


def _reduced(a: int, b: int, d: int) -> ComplexRational:
    """The value (a + b*i) / d for d > 0, reduced by one gcd."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a, b, d = a // g, b // g, d // g
    return _new_cr(a, b, d)


CR_ZERO = ComplexRational(0)
CR_ONE = ComplexRational(1)
CR_I = ComplexRational(0, 1)


_setattr = object.__setattr__


class Expr:
    """Base class of canonical expressions: the atoms ``Sym`` and ``Fn``, and ``Add``.

    The fields, named by ``__match_args__``, are set once by construction
    (``Add.terms`` is a view; see :class:`Add`); assigning or deleting any
    attribute raises.  ``Sym`` and ``Fn`` constructors return the live atom
    of equal fields, if there is one, or intern a new one with its sort key
    ``_key`` set; those atoms compare and hash by identity.  On an ``Add``
    the slots ``_key``, ``_hash`` and ``_items`` stay unset until
    :func:`_skey`, ``hash`` and :func:`_parts` first fill them, and an
    ``Add`` compares by its term map and hashes by the set of its terms (see
    the module docstring).
    """

    __slots__ = ("_key", "_hash")
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            h = hash(frozenset(self._map.items()))
            _setattr(self, "_hash", h)
            return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        # only an Add gets here, atoms compare by identity, and an Add is never a bare atom
        return other.__class__ is Add and self._map == other._map

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{self.__class__.__name__}({fields})"

    def __add__(self, other: "ExprLike") -> "Expr":
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other: "ExprLike") -> "Expr":
        return _sub(self, other)

    def __rsub__(self, other: "ExprLike") -> "Expr":
        return _sub(other, self)

    def __mul__(self, other: "ExprLike") -> "Expr":
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self) -> "Expr":
        return _sub(ZERO, self)

    def __truediv__(self, other: "ExprLike") -> "Expr":
        return mul(self, _pow_expr(_coerce(other), -1))

    def __rtruediv__(self, other: "ExprLike") -> "Expr":
        return mul(other, _pow_expr(self, -1))

    def __pow__(self, n: int) -> "Expr":
        if not isinstance(n, int):
            raise TypeError("exponents must be integers")
        return _pow_expr(self, n)


ExprLike = Union[Expr, int, Fraction, ComplexRational]


class Sym(Expr):
    __slots__ = ("name", "__weakref__")
    __match_args__ = ("name",)
    _live: "weakref.WeakValueDictionary[str, Sym]" = weakref.WeakValueDictionary()

    def __new__(cls, name: str) -> "Sym":
        node = cls._live.get(name)
        if node is None:
            node = object.__new__(cls)
            _setattr(node, "name", name)
            _setattr(node, "_key", (1, name))
            cls._live[name] = node
        return node

    # interned: equal atoms are one object
    __eq__ = object.__eq__
    __hash__ = object.__hash__


class Add(Expr):
    """Every expression but a bare atom: its term map, monomial to coefficient; zero has none.

    The node owns ``_map``; ``_items``, the sorted terms, is built by
    :func:`_parts` on first read, and ``_skey`` and ``eval_numeric`` read it.
    ``terms``, the records, is only for walkers outside this module, and is
    kept once built: a walker that memoizes by ``id``, as the benchmark's
    mpmath oracle does, needs each record to live as long as the sum.
    """

    __slots__ = ("_map", "_items", "_terms")
    __match_args__ = ("terms",)

    @property
    def terms(self) -> tuple[Term, ...]:
        try:
            return self._terms
        except AttributeError:
            terms = tuple([_term_to_expr(m, c) for m, c in _parts(self)])
            _setattr(self, "_terms", terms)
            return terms

    def __reduce__(self) -> tuple:
        return _from_terms, (dict(self._map),)


class Fn(Expr):
    __slots__ = ("fname", "arg", "__weakref__")
    __match_args__ = ("fname", "arg")
    _live: "weakref.WeakValueDictionary[tuple[str, Expr], Fn]" = weakref.WeakValueDictionary()

    def __new__(cls, fname: str, arg: Expr) -> "Fn":
        node = cls._live.get((fname, arg))
        if node is None:
            node = object.__new__(cls)
            _setattr(node, "fname", fname)
            _setattr(node, "arg", arg)
            _setattr(node, "_key", (2, fname, _skey(arg)))
            cls._live[fname, arg] = node
        return node

    # interned: equal atoms are one object
    __eq__ = object.__eq__
    __hash__ = object.__hash__


# the records of Add.terms (see the module docstring)
class Const(NamedTuple):
    value: ComplexRational


class Pow(NamedTuple):
    base: Expr
    exponent: int


class Mul(NamedTuple):
    factors: tuple[Union[Expr, Const, Pow], ...]


Term = Union[Expr, Const, Pow, Mul]


class _FnRule(NamedTuple):
    """One function f: its IEEE value, f(0), and f'(u) as a term map in the atom f(u)."""

    value: Callable[[complex], complex]
    at_zero: ComplexRational
    derivative: Callable[[Fn], TermMap]


# the one table of function rules, read by every operation on an Fn atom
_FN_RULES = {
    "sinh": _FnRule(cmath.sinh, CR_ZERO, lambda f: {((Fn("cosh", f.arg), 1),): CR_ONE}),
    "cosh": _FnRule(cmath.cosh, CR_ONE, lambda f: {((Fn("sinh", f.arg), 1),): CR_ONE}),
    "exp": _FnRule(cmath.exp, CR_ONE, lambda f: {((f, 1),): CR_ONE}),
    "tanh": _FnRule(cmath.tanh, CR_ZERO, lambda f: {(): CR_ONE, ((f, 2),): -CR_ONE}),
}

FUNCTIONS = tuple(_FN_RULES)


def const(re: RationalLike = 0, im: RationalLike = 0) -> Expr:
    return _const(ComplexRational(re, im))


def integer(n: int) -> Expr:
    return _const(ComplexRational(n))


def rational(p: int, q: int) -> Expr:
    return _const(ComplexRational(Fraction(p, q)))


def sym(name: str) -> Expr:
    if not name or name == "i":
        raise ValueError(f"invalid symbol name {name!r}")
    return Sym(name)


def _coerce(e: ExprLike) -> Expr:
    if isinstance(e, Expr):
        return e
    if isinstance(e, bool):
        raise TypeError("bool is not an expression")
    if isinstance(e, (int, Fraction)):
        return _const(ComplexRational(e))
    if isinstance(e, ComplexRational):
        return _const(e)
    raise TypeError(f"cannot interpret {type(e).__name__} as Expr")


# --- ordering ---------------------------------------------------------------

def _skey(e: Term) -> tuple:
    """Deterministic structural sort key, computed once per expression and stored in it.

    Two expressions are equal exactly when their keys are equal.  An atom
    gets its key when it is interned: ``(1, name)`` for a ``Sym`` and
    ``(2, fname, _skey(arg))`` for an ``Fn``.  A record of ``Add.terms`` is
    keyed as it comes, and an ``Add`` is keyed from its sorted terms
    (:func:`_parts`), each term as its record would be: an ``Add`` of one
    term has the key of that term (zero that of ``Const(0)``).
    """
    # the stored key first: every atom and every keyed Add has one
    try:
        return e._key
    except AttributeError:
        pass
    if isinstance(e, Const):
        return (0, *e.value.part_texts())
    if isinstance(e, Pow):
        return (3, _skey(e.base), e.exponent)
    if isinstance(e, Mul):
        return (4, tuple(map(_skey, e.factors)))
    if not isinstance(e, Add):
        raise TypeError(type(e))
    keys = tuple([_term_key(mono, c) for mono, c in _parts(e)])
    k = (5, keys) if len(keys) > 1 else keys[0] if keys else (0, "0", "0")
    _setattr(e, "_key", k)
    return k


def _term_key(mono: Monomial, coeff: ComplexRational) -> tuple:
    """``_skey`` of the record of one term, built without the record."""
    keys = [] if coeff.is_one and mono else [(0, *coeff.part_texts())]
    keys += [atom._key if k == 1 else (3, atom._key, k) for atom, k in mono]
    return keys[0] if len(keys) == 1 else (4, tuple(keys))


# --- normal form ------------------------------------------------------------

# A monomial is a tuple of (atom, exponent) pairs, Sym or Fn nodes in key order
# with nonzero integer exponents; a term map maps monomials to coefficients.
Monomial = tuple[tuple[Expr, int], ...]
TermMap = dict[Monomial, ComplexRational]


def _mono_key(mono: Monomial) -> tuple:
    return tuple([(atom._key, exp) for atom, exp in mono])


def _add_term(out: TermMap, mono: Monomial, coeff: ComplexRational) -> None:
    if coeff.is_zero:
        return
    cur = out.get(mono)
    if cur is None:
        out[mono] = coeff
    else:
        s = cur + coeff
        if s.is_zero:
            del out[mono]
        else:
            out[mono] = s


def _reduce_cosh(mono: Sequence[tuple[Expr, int]], coeff: ComplexRational, out: TermMap) -> None:
    """Add ``coeff * mono`` into ``out`` with every cosh(u)^e, e >= 2, rewritten.

    ``mono`` lists its atoms in key order, with nonzero exponents.  Each such
    cosh(u)^e leaves cosh(u)^(e mod 2) in the rest, and (1 + sinh(u)^2)^(e // 2)
    becomes a binomial term map; ``_mul_terms`` multiplies the rest by those
    maps, the last product adding into ``out``.  The maps hold no cosh, so
    ``_mul_terms`` does not come back here.
    """
    rest, factors = [], []
    for atom, e in mono:
        if e < 2 or atom.__class__ is not Fn or atom.fname != "cosh":
            rest.append((atom, e))
            continue
        k, r = divmod(e, 2)
        if r:
            rest.append((atom, 1))
        s_atom = Fn("sinh", atom.arg)
        factors.append({((s_atom, 2 * j),) if j else (): ComplexRational(comb(k, j))
                        for j in range(k + 1)})
    terms: TermMap = {tuple(rest): coeff}
    last = factors.pop() if factors else {(): CR_ONE}
    for factor in factors:
        terms = _mul_terms(terms, factor)
    _mul_terms(terms, last, out)


def _parts(e: Expr) -> tuple[tuple[Monomial, ComplexRational], ...]:
    """The (monomial, coefficient) terms of a canonical expression, in canonical order.

    The reader for every walk whose output shows the order: an ``Add`` sorts
    its map by ``_mono_key`` on the first call and keeps the tuple, and a bare
    atom is its one term.  Exact zero has no terms.
    """
    if e.__class__ is not Add:
        return ((((e, 1),), CR_ONE),)
    try:
        return e._items
    except AttributeError:
        items = e._map.items()
        if len(items) > 1:
            items = sorted(items, key=lambda kv: _mono_key(kv[0]))
        items = tuple(items)
        _setattr(e, "_items", items)
        return items


def _as_terms(e: Expr) -> TermMap:
    """A copy of the term map of a canonical expression, for the caller to keep or change.

    Its terms are distinct and nonzero, in no particular order.
    """
    return dict(e._map) if e.__class__ is Add else {((e, 1),): CR_ONE}


def _term_to_expr(mono: Monomial, coeff: ComplexRational) -> Term:
    """The record of one term in ``Add.terms`` (see the module docstring)."""
    factors: list[Union[Expr, Const, Pow]] = []
    if not coeff.is_one or not mono:
        factors.append(Const(coeff))
    for atom, e in mono:
        factors.append(atom if e == 1 else Pow(atom, e))
    if len(factors) == 1:
        return factors[0]
    return Mul(tuple(factors))


def _from_terms(terms: TermMap) -> Expr:
    """The canonical expression of a reduced term map: the one writer of the layout.

    A bare atom is the atom itself, anything else an ``Add`` that takes
    ``terms`` over as it is, unsorted: the caller hands the map to the node
    and must not change it afterwards.
    """
    if len(terms) == 1:
        (mono, coeff), = terms.items()
        if len(mono) == 1 and mono[0][1] == 1 and coeff.is_one:
            return mono[0][0]
    node = object.__new__(Add)
    _setattr(node, "_map", terms)
    return node


def _const(value: ComplexRational) -> Expr:
    return _from_terms({(): value} if not value.is_zero else {})


ZERO = _const(CR_ZERO)
ONE = _const(CR_ONE)
I = _const(CR_I)


def _mul_terms(t1: TermMap, t2: TermMap, out: TermMap | None = None) -> TermMap:
    """Add the product of two term maps into ``out`` (a new map by default) and return it.

    Both maps must be reduced, as every term map in this package is: each
    monomial lists its atoms in ``_key`` order, with nonzero exponents, and
    carries a cosh exponent of at most 1.  So a constant term times another
    term is that term's monomial as it is, and any other pair of monomials is
    merged in one pass, the lower key first, with the exponents of a shared
    atom added and the atom dropped where they cancel.  Only a cosh atom that
    both monomials share can reach an exponent of 2; ``_reduce_cosh`` rewrites
    it by multiplying the rest of the monomial by 1 + sinh(u)^2 through this
    same merge.  ``_packed_sum_of_products`` gives the same products for a
    large contraction without it.
    """
    if out is None:
        out = {}
    for m1, c1 in t1.items():
        if not m1:
            for m2, c2 in t2.items():
                _add_term(out, m2, c1 * c2)
            continue
        n1 = len(m1)
        for m2, c2 in t2.items():
            c = c1 * c2
            if m2:
                merged = []
                i = j = 0
                n2 = len(m2)
                cosh_squared = False
                while i < n1 and j < n2:
                    p, q = m1[i], m2[j]
                    a, b = p[0], q[0]
                    if a is b:
                        x = p[1] + q[1]
                        if x:
                            merged.append((a, x))
                            if x >= 2 and a.__class__ is Fn and a.fname == "cosh":
                                cosh_squared = True
                        i += 1
                        j += 1
                    elif a._key < b._key:
                        merged.append(p)
                        i += 1
                    else:
                        merged.append(q)
                        j += 1
                merged.extend(m1[i:] if j == n2 else m2[j:])
                if cosh_squared:
                    _reduce_cosh(merged, c, out)
                    continue
                mono = tuple(merged)
            else:
                mono = m1
            # _add_term, inlined; c is nonzero, as both factors are
            cur = out.get(mono)
            if cur is None:
                out[mono] = c
            else:
                c = cur + c
                if c.is_zero:
                    del out[mono]
                else:
                    out[mono] = c
    return out


# rows of a contraction: (a, [(b_j, c_j), ...]) for the sum of a * sum_j b_j * c_j
ProductRows = Sequence[tuple[TermMap, Sequence[tuple[TermMap, TermMap]]]]

# Below this many estimated pairs of monomials, laying out and unpacking a
# packed call costs more than it saves.  Per contraction of the ladder and of
# verify (CPython 3.11), packed over merged took 7.4x the time below 8
# pairs, about 1x at 32-63, 0.57x at 128-511 and 0.41x from 512.
_PACKED_MIN_PAIRS = 64


def _sum_of_products(rows: ProductRows) -> TermMap:
    """The reduced term map of sum over ``rows`` (a, pairs) of a * sum_j b_j * c_j.

    Both strategies give the same map.  A call of at least
    ``_PACKED_MIN_PAIRS`` estimated pairs of monomials (the sum over rows of
    |a| * sum_j |b_j| |c_j|) multiplies packed exponent integers; a smaller
    one merges monomials.
    """
    pairs = sum([len(a) * sum([len(b) * len(c) for b, c in bc]) for a, bc in rows])
    if pairs >= _PACKED_MIN_PAIRS:
        return _packed_sum_of_products(rows)
    return _merged_sum_of_products(rows)


def _merged_sum_of_products(rows: ProductRows) -> TermMap:
    """``_sum_of_products`` by ``_mul_terms``: each row summed, then multiplied by its a."""
    out: TermMap = {}
    for a, bc in rows:
        row: TermMap = {}
        for b, c in bc:
            _mul_terms(b, c, row)
        _mul_terms(row, a, out)
    return out


def _packed_sum_of_products(rows: ProductRows) -> TermMap:
    """``_sum_of_products`` on packed monomials, laid out for this call alone.

    Each atom of the call, and sinh(u) for each cosh(u), gets one field of w
    bits in a Python int, in ``_key`` order, holding its exponent plus the
    bias 2^(w-1).  A biased monomial p times an unbiased one q (the plain sum
    of exponent << field) is the integer p + q.  w is the smallest of 8, 16,
    32, ... whose fields hold a sum of three exponents plus 2: a cosh
    reduction adds 2 to a sinh field, and a chain a * b * c makes at most one
    per cosh atom, since it leaves that cosh at exponent 0.

    One bitmask per monomial marks its cosh atoms at exponent 1.  Where both
    sides of a product share one, the product is rewritten as
    ``_reduce_cosh`` would: the cosh field drops by 2, and the product is that
    monomial plus the same with 2 more in the sinh field, over every shared
    cosh atom at once.

    The coefficients are Gaussian integers over one lcm denominator per
    family (the a, the b and the c maps), their real and imaginary parts
    kept in maps of their own, so every product is an integer product.  The
    row and the result stay packed; each distinct half of the result's
    fields is decoded once, and each distinct coefficient goes once through
    ``_reduced``.
    """
    families = (
        {id(a): a for a, _ in rows},
        {id(b): b for _, bc in rows for b, _ in bc},
        {id(c): c for _, bc in rows for _, c in bc},
    )
    atoms: set[Expr] = set()
    # a sum of three exponents, plus 2 for one cosh reduction
    top = 2
    for family in families:
        e_max = 0
        for t in family.values():
            for mono in t:
                for atom, e in mono:
                    atoms.add(atom)
                    if abs(e) > e_max:
                        e_max = abs(e)
        top += e_max
    coshes = [x for x in atoms if x.__class__ is Fn and x.fname == "cosh"]
    atoms.update([Fn("sinh", x.arg) for x in coshes])
    order = sorted(atoms, key=lambda x: x._key)
    w = 8
    while top >= 1 << (w - 1):
        w *= 2
    bias, width_mask = 1 << (w - 1), (1 << w) - 1
    shift = {atom: i * w for i, atom in enumerate(order)}
    base = sum([bias << s for s in shift.values()])
    # (cosh shift, sinh shift) per cosh atom
    cosh_fields = [(shift[x], shift[Fn("sinh", x.arg)]) for x in coshes]
    cosh_one = bias + 1
    reductions: dict[int, list[int]] = {}

    def reduction(shared: int) -> list[int]:
        # the offsets that take p + q to its reduced monomials
        ds = reductions.get(shared)
        if ds is None:
            ds = [-2 * shared]
            for s_cosh, s_sinh in cosh_fields:
                if shared >> s_cosh & 1:
                    ds += [d + (2 << s_sinh) for d in ds]
            reductions[shared] = ds
        return ds

    def cosh_mask(p: int) -> int:
        # the bitmask of the cosh atoms at exponent 1 in the biased monomial p
        mask = 0
        for s_cosh, _ in cosh_fields:
            if p >> s_cosh & width_mask == cosh_one:
                mask |= 1 << s_cosh
        return mask

    def pack(t: TermMap, d: int, biased: bool) -> tuple[list, list]:
        re, im = [], []
        for mono, c in t.items():
            q = base
            for atom, e in mono:
                q += e << shift[atom]
            mask = cosh_mask(q)
            if not biased:
                q -= base
            k = d // c._d
            if c._a:
                re.append((q, mask, c._a * k))
            if c._b:
                im.append((q, mask, c._b * k))
        return re, im

    def packed_row(t: dict[int, int]) -> list:
        return [(p, cosh_mask(p), x) for p, x in t.items() if x]

    def add_products(t1: list, t2: list, sign: int, out: dict[int, int]) -> None:
        # out += sign * t1 * t2, t1 biased and t2 not
        get = out.get
        for q, mq, y in t2:
            y *= sign
            if not mq:
                for p, _, x in t1:
                    k = p + q
                    out[k] = get(k, 0) + x * y
                continue
            for p, mp, x in t1:
                k = p + q
                shared = mp & mq
                if shared:
                    c = x * y
                    for dk in reduction(shared):
                        out[k + dk] = get(k + dk, 0) + c
                else:
                    out[k] = get(k, 0) + x * y

    def add_complex_products(re1: list, im1: list, re2: list, im2: list, out_re: dict, out_im: dict) -> None:
        # (re1 + i im1) * (re2 + i im2), part by part
        add_products(re1, re2, 1, out_re)
        add_products(im1, im2, -1, out_re)
        add_products(re1, im2, 1, out_im)
        add_products(im1, re2, 1, out_im)

    d_a, d_b, d_c = (lcm(*[c._d for t in family.values() for c in t.values()]) for family in families)
    packed_b = {key: pack(b, d_b, True) for key, b in families[1].items()}
    packed_c = {key: pack(c, d_c, False) for key, c in families[2].items()}
    out_re: dict[int, int] = {}
    out_im: dict[int, int] = {}
    for a, bc in rows:
        row_re: dict[int, int] = {}
        row_im: dict[int, int] = {}
        for b, c in bc:
            add_complex_products(*packed_b[id(b)], *packed_c[id(c)], row_re, row_im)
        add_complex_products(packed_row(row_re), packed_row(row_im), *pack(a, d_a, False), out_re, out_im)

    # unpack: each distinct half of the fields decoded once
    terms = {}
    for p, x in out_re.items():
        y = out_im.pop(p, 0)
        if x or y:
            terms[p] = x, y
    for p, y in out_im.items():
        if y:
            terms[p] = 0, y
    n = len(order)
    h = n // 2
    low_bits = h * w
    low_mask = (1 << low_bits) - 1

    def decode(x: int, start: int, stop: int) -> Monomial:
        mono = []
        for atom in order[start:stop]:
            e = (x & width_mask) - bias
            if e:
                mono.append((atom, e))
            x >>= w
        return tuple(mono)

    low = {x: decode(x, 0, h) for x in {p & low_mask for p in terms}}
    high = {x: decode(x, h, n) for x in {p >> low_bits for p in terms}}
    d = d_a * d_b * d_c
    coeffs = {xy: _reduced(*xy, d) for xy in set(terms.values())}
    return {low[p & low_mask] + high[p >> low_bits]: coeffs[xy] for p, xy in terms.items()}


def add(*parts: ExprLike) -> Expr:
    out: TermMap = {}
    for p in parts:
        for mono, c in _as_terms(_coerce(p)).items():
            _add_term(out, mono, c)
    return _from_terms(out)


def _sub(a: ExprLike, b: ExprLike) -> Expr:
    """``a - b``: the coefficients of ``b`` negated into a copy of the term map of ``a``."""
    out = _as_terms(_coerce(a))
    for mono, c in _as_terms(_coerce(b)).items():
        _add_term(out, mono, -c)
    return _from_terms(out)


def mul(*parts: ExprLike) -> Expr:
    if len(parts) < 2:
        return _coerce(parts[0]) if parts else ONE
    terms = _as_terms(_coerce(parts[0]))
    for p in parts[1:]:
        if not terms:
            return ZERO
        terms = _mul_terms(terms, _as_terms(_coerce(p)))
    return _from_terms(terms)


def _pow_terms(terms: TermMap, n: int) -> TermMap:
    """The term map of ``e ** n`` for ``e`` of term map ``terms``: the one power rule.

    A monomial scales its exponents where they stand, which keeps its key
    order, and goes through ``_reduce_cosh``; ``n == 0`` gives 1, with no zero
    exponents.  For a sum and ``n == 1`` the result is ``terms`` itself.
    """
    if len(terms) == 1:
        if n == 0:
            return {(): CR_ONE}
        (mono, coeff), = terms.items()
        out: TermMap = {}
        _reduce_cosh([(a, x * n) for a, x in mono], coeff.power(n), out)
        return out
    if n < 0:
        if not terms:
            raise ZeroDivisionError("division by exact zero expression")
        raise NonMonomialDivisionError("can only divide by a single-term (monomial) expression")
    # expand nonnegative powers of sums (and of zero) by binary exponentiation
    acc: TermMap | None = None
    while n:
        if n & 1:
            acc = terms if acc is None else _mul_terms(acc, terms)
        n >>= 1
        if n:
            terms = _mul_terms(terms, terms)
    return {(): CR_ONE} if acc is None else acc


def _pow_expr(e: Expr, n: int) -> Expr:
    """``e ** n``; ``a / b`` is ``a * b ** -1``."""
    return _from_terms(_pow_terms(_as_terms(e), n))


def _fn(name: str, arg: ExprLike) -> Expr:
    a = _coerce(arg)
    if a.__class__ is Add and not a._map:
        return _const(_FN_RULES[name].at_zero)
    return Fn(name, a)


def sinh(arg: ExprLike) -> Expr:
    return _fn("sinh", arg)


def cosh(arg: ExprLike) -> Expr:
    return _fn("cosh", arg)


def exp(arg: ExprLike) -> Expr:
    return _fn("exp", arg)


def tanh(arg: ExprLike) -> Expr:
    return _fn("tanh", arg)


# --- operations -------------------------------------------------------------

def simplify(e: Expr) -> Expr:
    """The substitution walk with nothing to substitute.

    Every expression is canonical, so this rebuilds ``e`` unchanged:
    ``simplify(e) == e``.
    """
    return substitute(e, {})


def _atom_derivative(atom: Expr, name: str) -> TermMap:
    if isinstance(atom, Sym):
        return {(): CR_ONE} if atom.name == name else {}
    if isinstance(atom, Fn):
        inner = _diff_terms(_as_terms(atom.arg), name)
        if not inner:
            return {}
        return _mul_terms(_FN_RULES[atom.fname].derivative(atom), inner)
    raise TypeError(type(atom))


def _diff_terms(terms: TermMap, name: str) -> TermMap:
    """Term map of the partial derivative of ``terms`` by the symbol ``name``.

    The derivative of coeff * m is the sum, over the atoms x^k of m, of
    (k * coeff * m / x) * dx.  Each distinct atom is derived once; the
    lowered terms k * coeff * m / x of one atom, still in key order and
    distinct, form one term map, which ``_mul_terms`` multiplies by that
    atom's derivative.
    """
    derived: dict[Expr, TermMap] = {}
    lowered: dict[Expr, TermMap] = {}
    for mono, coeff in terms.items():
        for idx, (atom, k) in enumerate(mono):
            d = derived.get(atom)
            if d is None:
                d = derived[atom] = _atom_derivative(atom, name)
            if not d:
                continue
            if k == 1:
                rest, c = mono[:idx] + mono[idx + 1:], coeff
            else:
                rest, c = (*mono[:idx], (atom, k - 1), *mono[idx + 1:]), coeff * ComplexRational(k)
            rests = lowered.get(atom)
            if rests is None:
                rests = lowered[atom] = {}
            rests[rest] = c
    out: TermMap = {}
    for atom, rests in lowered.items():
        _mul_terms(rests, derived[atom], out)
    return out


def differentiate(e: Expr, v: Union[str, Expr]) -> Expr:
    """Exact partial derivative with respect to symbol ``v``, canonicalized."""
    if isinstance(v, Sym):
        name = v.name
    elif isinstance(v, str):
        name = v
    else:
        raise TypeError("differentiation variable must be a symbol or its name")
    if not name or name == "i":
        raise ValueError(f"invalid differentiation symbol {name!r}")
    return _from_terms(_diff_terms(_as_terms(e), name))


def substitute(e: Expr, mapping: Mapping[str, ExprLike]) -> Expr:
    """Simultaneous substitution of symbols; the result is canonical."""
    table = {n: _as_terms(_coerce(x)) for n, x in mapping.items()}

    def walk(node: Expr) -> TermMap:
        out: TermMap = {}
        for mono, coeff in _as_terms(node).items():
            acc: TermMap = {(): coeff}
            for atom, k in mono:
                if isinstance(atom, Sym):
                    x = table.get(atom.name)
                    if x is None:
                        x = {((atom, 1),): CR_ONE}
                else:
                    x = _as_terms(_fn(atom.fname, _from_terms(walk(atom.arg))))
                acc = _mul_terms(acc, x if k == 1 else _pow_terms(x, k))
            for m, c in acc.items():
                _add_term(out, m, c)
        return out

    return _from_terms(walk(e))


def free_symbols(e: Expr) -> frozenset[str]:
    names: set[str] = set()

    def walk(node: Expr) -> None:
        for mono in _as_terms(node):
            for atom, _ in mono:
                if isinstance(atom, Sym):
                    names.add(atom.name)
                else:
                    walk(atom.arg)

    walk(e)
    return frozenset(names)


def summands(e: Expr) -> tuple[Expr, ...]:
    """The terms of a sum as one-term expressions, in canonical order, or ``(e,)``."""
    parts = _parts(e)
    return tuple([_from_terms(dict([t])) for t in parts]) if len(parts) > 1 else (e,)


Bindings = Mapping[str, complex]


def eval_numeric(e: Term, bindings: Bindings) -> complex:
    """IEEE complex value of ``e``, or of a record of ``Add.terms``.

    Every free symbol must be bound.  An ``Add`` is evaluated from its sorted
    terms (:func:`_parts`), each in the order of its record: a term of one
    factor is that factor's value, any other the product from ``1 + 0j`` of
    the coefficient, if it is not 1, and then of each atom power in monomial
    order.  The terms are summed in canonical order, and a one-term ``Add`` is
    its term's value, not a sum, so -0.0 stays."""
    if e.__class__ is Add:
        parts = _parts(e)
        if len(parts) == 1:
            return _term_value(*parts[0], bindings)
        return sum([_term_value(mono, c, bindings) for mono, c in parts]) if parts else 0j
    if isinstance(e, Const):
        return e.value.to_complex()
    if isinstance(e, (Sym, Fn)):
        return _atom_value(e, bindings)
    if isinstance(e, Pow):
        return eval_numeric(e.base, bindings) ** e.exponent
    if isinstance(e, Mul):
        out = 1 + 0j
        for f in e.factors:
            out *= eval_numeric(f, bindings)
        return out
    raise TypeError(type(e))


def _atom_value(atom: Expr, bindings: Bindings) -> complex:
    if atom.__class__ is Sym:
        try:
            return complex(bindings[atom.name])
        except KeyError:
            raise UnboundSymbolError(atom.name) from None
    return _FN_RULES[atom.fname].value(eval_numeric(atom.arg, bindings))


def _term_value(mono: Monomial, coeff: ComplexRational, bindings: Bindings) -> complex:
    """The value of one term, multiplied as ``eval_numeric`` multiplies its record."""
    if coeff.is_one and mono:
        if len(mono) == 1:
            atom, k = mono[0]
            return _atom_value(atom, bindings) if k == 1 else _atom_value(atom, bindings) ** k
        out = 1 + 0j
    else:
        # (1 + 0j) * c is c bit for bit: c is finite and its zero parts are +0.0
        out = coeff.to_complex()
        if not mono:
            return out
    for atom, k in mono:
        out *= _atom_value(atom, bindings) if k == 1 else _atom_value(atom, bindings) ** k
    return out


DEFAULT_SAMPLE_RANGE = (0.5, 2.0)
_PROBE_RETRY_CAP = 8


def equality_probe(
    e1: Expr,
    e2: Expr,
    trials: int = 32,
    tol: float = 1e-9,
    *,
    seed: int = 20259,
) -> bool:
    """Numeric equality test at pseudo-random bindings from a fixed-seed box.

    Every symbol is drawn from the box ``[0.5, 2]``, which keeps every sampled
    point away from coordinate singularities such as a vanishing radial
    coordinate.  Returns True iff ``|e1 - e2| <= tol * (1 + |e1|)``
    at every trial.  Sample points where either side overflows or is not
    finite are redrawn, with a retry cap.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    names = sorted(free_symbols(e1) | free_symbols(e2))
    rng = random.Random(seed)
    for _ in range(trials):
        for attempt in range(_PROBE_RETRY_CAP + 1):
            b = {n: rng.uniform(*DEFAULT_SAMPLE_RANGE) for n in names}
            try:
                v1 = eval_numeric(e1, b)
                v2 = eval_numeric(e2, b)
            except (OverflowError, ZeroDivisionError):
                continue
            if cmath.isfinite(v1) and cmath.isfinite(v2):
                break
        else:
            raise ProbeSamplingError(
                "no finite sample point found within the retry cap"
            )
        if abs(v1 - v2) > tol * (1.0 + abs(v1)):
            return False
    return True
