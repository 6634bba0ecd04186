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

Nodes are immutable.  Each stores its structural sort key, the one source of
canonical order, computed on first use.  The atoms, ``Sym`` and ``Fn``, are
interned (hash-consed): each class keeps its live nodes in a weak table, so
structurally equal atoms are one object, and atoms compare and hash by
identity, in C.  Monomials are tuples of (atom, exponent) pairs, so hashing
one for a term-map lookup runs no Python code.  Composite nodes (``Const``,
``Add``, ``Mul``, ``Pow``) are not interned: each is built once per result
and is never part of a monomial, so a table lookup would only add a
structural hash to its construction.  They store the hash of their key on
first use instead, so hashing and comparing them costs no walk over subtrees
already keyed.  The tables rely on one node per atom structure while it
lives, which holds as long as one thread at a time builds nodes, as every
caller in the package does.  Nodes pickle by their fields, so unpickled atoms
are interned too.

The working form is the term map, which maps each monomial to its
coefficient; ``_add_term``, ``_mul_terms`` and ``_reduce_cosh`` are the one
definition of the normal form on it.  ``_from_terms`` is the one writer of
the node layout (a sum of terms, each an optional leading coefficient and
then atom powers in monomial order) and ``_parts`` its one reader:
``_as_terms``, ``substitute``, ``free_symbols`` and the printer of
``grammar`` all take an expression apart through it.  ``Add``, ``Mul`` and
``Pow`` nodes are built only by the writer (and by unpickling, which rebuilds
a written tree); a ``Const`` or an atom alone is a one-term expression.
Each public operation takes its operands apart into term maps once, works on
the maps, and builds its result node once, at the end; ``differentiate`` and
the operators of ``diffop`` chain whole computations on term maps the same
way.
"""

from __future__ import annotations

import cmath
import random
import weakref
from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterator, Mapping, NamedTuple, Union

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
    with one gcd.  Instances are immutable by convention (``Const`` nodes hash
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
    """Base class of canonical expression nodes.

    The fields, named by ``__match_args__``, are set once by the positional
    constructor; assigning or deleting any attribute raises.  The slots
    ``_key`` and ``_hash`` stay unset until :func:`_skey` and ``hash`` first
    fill them.  ``Sym`` and ``Fn`` constructors return the live atom of equal
    fields, if there is one, and those atoms compare and hash by identity;
    composite nodes compare by their stored key (see the module docstring).
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
            h = hash(_skey(self))
            _setattr(self, "_hash", h)
            return h

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Expr):
            return NotImplemented
        return hash(self) == hash(other) and _skey(self) == _skey(other)

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


class Const(Expr):
    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: ComplexRational) -> None:
        _setattr(self, "value", value)


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
    __slots__ = __match_args__ = ("terms",)

    def __init__(self, terms: tuple[Expr, ...]) -> None:
        _setattr(self, "terms", terms)


class Mul(Expr):
    __slots__ = __match_args__ = ("factors",)

    def __init__(self, factors: tuple[Expr, ...]) -> None:
        _setattr(self, "factors", factors)


class Pow(Expr):
    __slots__ = __match_args__ = ("base", "exponent")

    def __init__(self, base: Expr, exponent: int) -> None:
        _setattr(self, "base", base)
        _setattr(self, "exponent", exponent)


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

ZERO = Const(CR_ZERO)
ONE = Const(CR_ONE)
I = Const(CR_I)


def const(re: RationalLike = 0, im: RationalLike = 0) -> Expr:
    return Const(ComplexRational(re, im))


def integer(n: int) -> Expr:
    return Const(ComplexRational(n))


def rational(p: int, q: int) -> Expr:
    return Const(ComplexRational(Fraction(p, q)))


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
        return Const(ComplexRational(e))
    if isinstance(e, ComplexRational):
        return Const(e)
    raise TypeError(f"cannot interpret {type(e).__name__} as Expr")


# --- ordering ---------------------------------------------------------------

def _skey(e: Expr) -> tuple:
    """Deterministic structural sort key, computed once per node and stored in it.

    Two nodes are equal exactly when their keys are equal.
    """
    try:
        return e._key
    except AttributeError:
        pass
    if isinstance(e, Const):
        k = (0, *e.value.part_texts())
    elif isinstance(e, Sym):
        k = (1, e.name)
    elif isinstance(e, Fn):
        k = (2, e.fname, _skey(e.arg))
    elif isinstance(e, Pow):
        k = (3, _skey(e.base), e.exponent)
    elif isinstance(e, Mul):
        k = (4, tuple(map(_skey, e.factors)))
    elif isinstance(e, Add):
        k = (5, tuple(map(_skey, e.terms)))
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


def _parts(e: Expr) -> Iterator[tuple[Monomial, ComplexRational]]:
    """The (monomial, coefficient) terms of a canonical expression, in stored order.

    The one reader of the layout that ``_term_to_expr`` and ``_from_terms``
    write: a sum of terms, each an optional leading coefficient followed by
    atom powers in monomial order.  Exact zero has no terms.
    """
    for t in e.terms if isinstance(e, Add) else (e,):
        factors = t.factors if isinstance(t, Mul) else (t,)
        coeff = CR_ONE
        if isinstance(factors[0], Const):
            coeff = factors[0].value
            if coeff.is_zero:
                return
            factors = factors[1:]
        yield tuple([(f.base, f.exponent) if isinstance(f, Pow) else (f, 1) for f in factors]), coeff


def _as_terms(e: Expr) -> TermMap:
    """The term map of a canonical expression; its terms are already distinct and nonzero."""
    return dict(_parts(e))


def _term_to_expr(mono: Monomial, coeff: ComplexRational) -> Expr:
    factors: list[Expr] = []
    if not coeff.is_one or not mono:
        factors.append(Const(coeff))
    for atom, e in mono:
        factors.append(atom if e == 1 else Pow(atom, e))
    if len(factors) == 1:
        return factors[0]
    return Mul(tuple(factors))


def _from_terms(terms: TermMap) -> Expr:
    if not terms:
        return ZERO
    items = sorted(terms.items(), key=lambda kv: _mono_key(kv[0]))
    exprs = [_term_to_expr(m, c) for m, c in items]
    if len(exprs) == 1:
        return exprs[0]
    return Add(tuple(exprs))


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
    if a == ZERO:
        return Const(_FN_RULES[name].at_zero)
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


Bindings = Mapping[str, complex]


def eval_numeric(e: Expr, bindings: Bindings) -> complex:
    """IEEE complex value of ``e``.  Every free symbol must be bound."""
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
    if isinstance(e, Add):
        return sum(eval_numeric(t, bindings) for t in e.terms)
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
