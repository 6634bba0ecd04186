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
``Add`` of its sorted (monomial, coefficient) tuple, built once per result,
not interned, and compared and hashed by that tuple.  Each expression stores
its sort key on first use: the canonical order of atoms, in which a composite
``Fn`` argument takes part.  The tables rely on one node per atom structure
while it lives, which holds as long as one thread at a time builds nodes, as
every caller in the package does.  Atoms pickle by their fields and an
``Add`` by its terms, so unpickled atoms are interned too.

The working form is the term map, which maps each monomial to its
coefficient; ``_add_term``, ``_mul_terms`` and ``_reduce_cosh`` are the one
definition of the normal form on it.  ``_from_terms`` is the one writer of
the canonical layout and ``_parts`` its one reader: ``_as_terms``,
``substitute``, ``free_symbols``, ``==``, ``hash`` and the printer of
``grammar`` all take an expression apart through it.  ``Add.terms`` is a
read-only view for walkers outside this module, built by ``_term_to_expr`` on
first access and then kept.  It holds one record per term: an atom, a
``Const``, a ``Pow`` (an atom to an exponent other than 1), or a ``Mul`` of an
optional leading ``Const`` and then atoms and ``Pow``s in monomial order.
The records are named tuples, not expressions; ``_skey`` and
``eval_numeric`` read them.  Each public operation takes its operands apart
into term maps once, works on the maps, and builds its result once, at the
end; ``differentiate`` and the operators of ``diffop`` chain whole
computations on term maps the same way.
"""

from __future__ import annotations

import cmath
import random
import weakref
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Mapping, NamedTuple, Union

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
    attribute raises.  The slots ``_key`` and ``_hash`` stay unset until
    :func:`_skey` and ``hash`` first fill them.  ``Sym`` and ``Fn``
    constructors return the live atom of equal fields, if there is one, and
    those atoms compare and hash by identity; an ``Add`` compares and hashes
    by its terms (see the module docstring).
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
            h = hash(_parts(self))
            _setattr(self, "_hash", h)
            return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return hash(self) == hash(other) and _parts(self) == _parts(other)

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(getattr(self, f) for f in self.__match_args__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{self.__class__.__name__}({fields})"

    def __add__(self, other: "ExprLike") -> "Expr":
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other: "ExprLike") -> "Expr":
        return add(self, mul(integer(-1), other))

    def __rsub__(self, other: "ExprLike") -> "Expr":
        return add(other, mul(integer(-1), self))

    def __mul__(self, other: "ExprLike") -> "Expr":
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self) -> "Expr":
        return mul(integer(-1), self)

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
            cls._live[name] = node
        return node

    # interned: equal atoms are one object
    __eq__ = object.__eq__
    __hash__ = object.__hash__


class Add(Expr):
    """Every expression but a bare atom: its sorted (monomial, coefficient) tuple; zero has none.

    ``terms`` is kept once built: a walker that memoizes by ``id``, as the
    benchmark's mpmath oracle does, needs each record to live as long as the sum.
    """

    __slots__ = ("_items", "_terms")
    __match_args__ = ("terms",)

    @property
    def terms(self) -> tuple[Term, ...]:
        try:
            return self._terms
        except AttributeError:
            terms = tuple([_term_to_expr(m, c) for m, c in self._items])
            _setattr(self, "_terms", terms)
            return terms

    def __reduce__(self) -> tuple:
        return _from_terms, (dict(self._items),)


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

    Two expressions are equal exactly when their keys are equal.  A record of
    ``Add.terms`` is keyed as it comes, and an ``Add`` of one term has the key
    of its record (zero that of ``Const(0)``).
    """
    # the stored key first: every product sorts its atoms by it
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
    if isinstance(e, Sym):
        k = (1, e.name)
    elif isinstance(e, Fn):
        k = (2, e.fname, _skey(e.arg))
    elif isinstance(e, Add):
        keys = tuple(map(_skey, e.terms))
        k = (5, keys) if len(keys) > 1 else keys[0] if keys else (0, "0", "0")
    else:
        raise TypeError(type(e))
    _setattr(e, "_key", k)
    return k


# --- normal form ------------------------------------------------------------

# A monomial maps atoms (Sym or Fn nodes) to nonzero integer exponents.  The
# term map of an expression maps frozen monomials to coefficients.
Monomial = tuple[tuple[Expr, int], ...]
TermMap = dict[Monomial, ComplexRational]


def _mono_key(mono: Monomial) -> tuple:
    return tuple((_skey(atom), exp) for atom, exp in mono)


def _freeze(atoms: Mapping[Expr, int]) -> Monomial:
    items = [(a, e) for a, e in atoms.items() if e != 0]
    items.sort(key=lambda it: _skey(it[0]))
    return tuple(items)


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


def _reduce_cosh(mono_atoms: dict[Expr, int], coeff: ComplexRational, out: TermMap) -> None:
    """Insert coeff * monomial into ``out`` with cosh powers >= 2 eliminated."""
    for atom, e in mono_atoms.items():
        if isinstance(atom, Fn) and atom.fname == "cosh" and e >= 2:
            rest = dict(mono_atoms)
            del rest[atom]
            k, r = divmod(e, 2)
            if r:
                rest[atom] = 1
            # (1 + sinh(u)^2)^k expanded by the binomial theorem
            s_atom = Fn("sinh", atom.arg)
            binom = 1
            for j in range(k + 1):
                sub = dict(rest)
                if j:
                    sub[s_atom] = sub.get(s_atom, 0) + 2 * j
                _reduce_cosh(sub, coeff if binom == 1 else coeff * ComplexRational(binom), out)
                binom = binom * (k - j) // (j + 1)
            return
    _add_term(out, _freeze(mono_atoms), coeff)


def _parts(e: Expr) -> tuple[tuple[Monomial, ComplexRational], ...]:
    """The (monomial, coefficient) terms of a canonical expression, in stored order.

    The one reader of what ``_from_terms`` writes: the stored tuple of an
    ``Add``, or the one term of a bare atom.  Exact zero has no terms.
    """
    return e._items if isinstance(e, Add) else ((((e, 1),), CR_ONE),)


def _as_terms(e: Expr) -> TermMap:
    """The term map of a canonical expression; its terms are already distinct and nonzero."""
    return dict(_parts(e))


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
    """The canonical expression of a term map: the one writer of the layout ``_parts`` reads.

    A bare atom is the atom itself, anything else an ``Add`` of the sorted terms.
    """
    if len(terms) == 1:
        (mono, coeff), = items = tuple(terms.items())
        if len(mono) == 1 and mono[0][1] == 1 and coeff.is_one:
            return mono[0][0]
    else:
        items = tuple(sorted(terms.items(), key=lambda kv: _mono_key(kv[0])))
    node = object.__new__(Add)
    _setattr(node, "_items", items)
    return node


def _const(value: ComplexRational) -> Expr:
    return _from_terms({(): value} if not value.is_zero else {})


ZERO = _const(CR_ZERO)
ONE = _const(CR_ONE)
I = _const(CR_I)


def _mul_terms(t1: TermMap, t2: TermMap, out: TermMap | None = None) -> TermMap:
    """Add the product of two term maps into ``out`` (a new map by default) and return it."""
    if out is None:
        out = {}
    for m1, c1 in t1.items():
        left = dict(m1)
        for m2, c2 in t2.items():
            atoms = left.copy()
            for a, e in m2:
                atoms[a] = atoms.get(a, 0) + e
            _reduce_cosh(atoms, c1 * c2, out)
    return out


def add(*parts: ExprLike) -> Expr:
    out: TermMap = {}
    for p in parts:
        for mono, c in _as_terms(_coerce(p)).items():
            _add_term(out, mono, c)
    return _from_terms(out)


def mul(*parts: ExprLike) -> Expr:
    terms: TermMap = {(): CR_ONE}
    for p in parts:
        terms = _mul_terms(terms, _as_terms(_coerce(p)))
        if not terms:
            return ZERO
    return _from_terms(terms)


def _pow_terms(terms: TermMap, n: int) -> TermMap:
    """The term map of ``e ** n`` for ``e`` of term map ``terms``: the one power rule."""
    if len(terms) == 1:
        (mono, coeff), = terms.items()
        out: TermMap = {}
        _reduce_cosh({a: x * n for a, x in mono}, coeff.power(n), out)
        return out
    if n < 0:
        if not terms:
            raise ZeroDivisionError("division by exact zero expression")
        raise NonMonomialDivisionError("can only divide by a single-term (monomial) expression")
    # expand nonnegative powers of sums (and of zero) by binary exponentiation
    acc: TermMap = {(): CR_ONE}
    while n:
        if n & 1:
            acc = _mul_terms(acc, terms)
        n >>= 1
        if n:
            terms = _mul_terms(terms, terms)
    return acc


def _pow_expr(e: Expr, n: int) -> Expr:
    """``e ** n``; ``a / b`` is ``a * b ** -1``."""
    return _from_terms(_pow_terms(_as_terms(e), n))


def _fn(name: str, arg: ExprLike) -> Expr:
    a = _coerce(arg)
    if not _parts(a):
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

    Each distinct atom is derived once.  Each derivative term
    coeff * k * atom^(k-1) * rest * d is folded into one atom dict and
    inserted with one cosh reduction.
    """
    out: TermMap = {}
    derived: dict[Expr, TermMap] = {}
    for mono, coeff in terms.items():
        for idx, (atom, k) in enumerate(mono):
            d = derived.get(atom)
            if d is None:
                d = derived[atom] = _atom_derivative(atom, name)
            if not d:
                continue
            c = coeff * ComplexRational(k)
            for d_mono, d_coeff in d.items():
                atoms = {a: x for j, (a, x) in enumerate(mono) if j != idx}
                if k != 1:
                    atoms[atom] = k - 1
                for a, x in d_mono:
                    atoms[a] = atoms.get(a, 0) + x
                _reduce_cosh(atoms, c * d_coeff, out)
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
        for mono, coeff in _parts(node):
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
        for mono, _ in _parts(node):
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

    Every free symbol must be bound.  An ``Add`` of one term is its record's
    value, not a sum, so -0.0 stays."""
    if isinstance(e, Add):
        terms = e.terms
        if len(terms) == 1:
            return eval_numeric(terms[0], bindings)
        return sum(eval_numeric(t, bindings) for t in terms) if terms else 0j
    if isinstance(e, Const):
        return e.value.to_complex()
    if isinstance(e, Sym):
        try:
            return complex(bindings[e.name])
        except KeyError:
            raise UnboundSymbolError(e.name) from None
    if isinstance(e, Fn):
        return _FN_RULES[e.fname].value(eval_numeric(e.arg, bindings))
    if isinstance(e, Pow):
        return eval_numeric(e.base, bindings) ** e.exponent
    if isinstance(e, Mul):
        out = 1 + 0j
        for f in e.factors:
            out *= eval_numeric(f, bindings)
        return out
    raise TypeError(type(e))


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
