"""Plain-text grammar for expressions: infix operators, ``^`` powers,
``sinh/cosh/exp/tanh`` calls and ``i`` for the imaginary unit.

The printer emits canonical expressions deterministically and the parser
inverts it: ``parse(to_text(e))`` is structurally equal to ``simplify(e)``.
"""

from __future__ import annotations

from .expr import (
    FUNCTIONS,
    Add,
    ComplexRational,
    Const,
    Expr,
    Fn,
    Mul,
    Pow,
    Sym,
    _fn,
    const,
    integer,
    sym,
)

__all__ = ["parse", "to_text", "coeff_text", "ParseError"]


class ParseError(ValueError):
    """Input text does not conform to the expression grammar."""


# --- tokenizer ---------------------------------------------------------------

_OPS = set("+-*/^(),")


def _tokenize(text: str) -> list[tuple[str, str]]:
    toks: list[tuple[str, str]] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in _OPS:
            toks.append(("op", ch))
            i += 1
        elif ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and (text[j] == "." or text[j].isalpha()):
                raise ParseError(f"malformed number at position {i}: {text[i:j+1]!r}")
            toks.append(("int", text[i:j]))
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("name", text[i:j]))
            i = j
        else:
            raise ParseError(f"unexpected character {ch!r} at position {i}")
    toks.append(("end", ""))
    return toks


# --- recursive-descent parser ------------------------------------------------

class _Parser:
    def __init__(self, toks: list[tuple[str, str]]):
        self.toks = toks
        self.pos = 0

    def peek(self) -> tuple[str, str]:
        return self.toks[self.pos]

    def take(self) -> tuple[str, str]:
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def expect(self, op: str) -> None:
        kind, val = self.take()
        if kind != "op" or val != op:
            raise ParseError(f"expected {op!r}, got {val!r}")

    def parse_sum(self) -> Expr:
        e = self.parse_product()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "+-":
                self.take()
                rhs = self.parse_product()
                e = e + rhs if val == "+" else e - rhs
            else:
                return e

    def parse_product(self) -> Expr:
        e = self.parse_unary()
        while True:
            kind, val = self.peek()
            if kind == "op" and val in "*/":
                self.take()
                rhs = self.parse_unary()
                e = e * rhs if val == "*" else e / rhs
            else:
                return e

    def parse_unary(self) -> Expr:
        kind, val = self.peek()
        if kind == "op" and val == "-":
            self.take()
            return -self.parse_unary()
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        kind, val = self.peek()
        if kind == "op" and val == "^":
            self.take()
            sign = 1
            kind, val = self.take()
            if kind == "op" and val == "-":
                sign = -1
                kind, val = self.take()
            if kind != "int":
                raise ParseError("exponent must be an integer literal")
            return base ** (sign * int(val))
        return base

    def parse_atom(self) -> Expr:
        kind, val = self.take()
        if kind == "int":
            return integer(int(val))
        if kind == "op" and val == "(":
            e = self.parse_sum()
            self.expect(")")
            return e
        if kind == "name":
            if val == "i":
                return const(0, 1)
            if val in FUNCTIONS:
                self.expect("(")
                arg = self.parse_sum()
                self.expect(")")
                return _fn(val, arg)
            return sym(val)
        raise ParseError(f"unexpected token {val!r}")


def parse(text: str) -> Expr:
    """Parse grammar text into a canonical expression."""
    p = _Parser(_tokenize(text))
    e = p.parse_sum()
    kind, val = p.peek()
    if kind != "end":
        raise ParseError(f"trailing input at token {val!r}")
    return e


# --- printer -----------------------------------------------------------------

def coeff_text(c: ComplexRational) -> str:
    re, im = c.part_texts()
    if im == "0":
        return re
    sign, im_abs = ("-", im[1:]) if im[0] == "-" else ("+", im)
    im_txt = "i" if im_abs == "1" else f"{im_abs}*i"
    if re == "0":
        return im_txt if sign == "+" else f"-{im_txt}"
    return f"({re}{sign}{im_txt})"


def _is_negative_leading(c: ComplexRational) -> bool:
    re, im = c.part_texts()
    return re[0] == "-" if re != "0" else im[0] == "-"


def _atom_text(a: Expr) -> str:
    if isinstance(a, Sym):
        return a.name
    if isinstance(a, Fn):
        return f"{a.fname}({to_text(a.arg)})"
    raise TypeError(f"not an atom: {type(a).__name__}")


def _term_text(t: Expr) -> tuple[str, str]:
    """Return (sign, body) for one canonical term."""
    coeff = None
    num: list[str] = []
    den: list[str] = []

    def push(atom: Expr, e: int) -> None:
        target, p = (num, e) if e > 0 else (den, -e)
        target.append(_atom_text(atom) if p == 1 else f"{_atom_text(atom)}^{p}")

    if isinstance(t, Const):
        coeff = t.value
    elif isinstance(t, (Sym, Fn)):
        push(t, 1)
    elif isinstance(t, Pow):
        push(t.base, t.exponent)
    elif isinstance(t, Mul):
        for f in t.factors:
            if isinstance(f, Const):
                coeff = f.value
            elif isinstance(f, Pow):
                push(f.base, f.exponent)
            else:
                push(f, 1)
    else:
        raise TypeError(f"not a term: {type(t).__name__}")

    sign = ""
    if coeff is not None and _is_negative_leading(coeff):
        coeff = -coeff
        sign = "-"
    parts: list[str] = []
    if coeff is not None and not (coeff.is_one and num):
        parts.append(coeff_text(coeff))
    parts.extend(num)
    body = "*".join(parts) if parts else "1"
    if den:
        body += f"/{den[0]}" if len(den) == 1 else "/(" + "*".join(den) + ")"
    return sign, body


def to_text(e: Expr) -> str:
    """Deterministic text form; inverse of :func:`parse` up to normalization."""
    if isinstance(e, Add):
        out: list[str] = []
        for t in e.terms:
            sign, body = _term_text(t)
            if not out:
                out.append(f"{sign}{body}")
            else:
                out.append(f" {'-' if sign else '+'} {body}")
        return "".join(out)
    sign, body = _term_text(e)
    return f"{sign}{body}"
