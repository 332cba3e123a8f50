"""Concrete surface syntax for formulas.

Grammar sketch (binary connectives are right-associative; precedence from
tightest to loosest is ``!``, ``U``, ``&&``, ``||``, ``->``; the unary
temporal operators parse like ``!``):

    formula  := "true" | atom | "!" formula | "(" formula ")"
              | formula "U[" a "," b "]" formula
              | "F[" a "," b "]" formula | "G[" a "," b "]" formula
              | formula "&&" formula | formula "||" formula
              | formula "->" formula
    atom     := ("target" | "hazard") "(" dist "," penalty "," threshold ")"
    dist     := "normal(" var "; " mean ", " variance {", " ...} ")"
              | "point(" var "=" value {", " ...} ")"
              | "empirical(" quoted-path ")"

``#`` starts a line comment; whitespace (newlines included) is free. The
second parameter of every ``normal`` entry is a variance. Macros expand at
parse time, so parsing ``a && b`` yields the same tree as ``!(!a || !b)``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Mapping

from .spaces import DataSpace, Penalty
from .formulas import (
    EmpiricalRef,
    Formula,
    Hazard,
    Not,
    Or,
    PointMass,
    ProductNormal,
    Target,
    Truth,
    Until,
    always,
    conj,
    eventually,
    implies,
    validate,
)

__all__ = ["FormulaError", "parse_formula", "load_formula"]


class FormulaError(ValueError):
    """Syntax or semantic error in formula text, with source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


@dataclass(frozen=True)
class _Token:
    kind: str  # 'ident' | 'number' | 'string' | 'op' | 'end'
    text: str
    line: int
    col: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[\s]+|\#[^\n]*)
  | (?P<op>\|\||&&|->|[()\[\],;=!])
  | (?P<number>-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
    """,
    re.VERBOSE,
)


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos, line, line_start = 0, 1, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise FormulaError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        col = pos - line_start + 1
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            line_start = pos + chunk.rindex("\n") + 1
        pos = m.end()
    tokens.append(_Token("end", "", line, len(text) - line_start + 1))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token], penalties: Mapping[str, Penalty]):
        self.tokens = tokens
        self.penalties = penalties
        self.pos = 0

    # token plumbing

    @property
    def cur(self) -> _Token:
        return self.tokens[self.pos]

    def peek(self, ahead: int = 1) -> _Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> _Token:
        tok = self.cur
        if tok.kind != "end":
            self.pos += 1
        return tok

    def fail(self, message: str, tok: _Token | None = None):
        tok = tok or self.cur
        raise FormulaError(message, tok.line, tok.col)

    def expect_op(self, text: str) -> _Token:
        if self.cur.kind != "op" or self.cur.text != text:
            self.fail(f"expected {text!r}, found {self.cur.text!r}")
        return self.advance()

    def at_op(self, text: str) -> bool:
        return self.cur.kind == "op" and self.cur.text == text

    def at_ident(self, text: str) -> bool:
        return self.cur.kind == "ident" and self.cur.text == text

    def number(self, what: str) -> float:
        if self.cur.kind != "number":
            self.fail(f"expected {what}, found {self.cur.text!r}")
        return float(self.advance().text)

    def integer(self, what: str) -> int:
        tok = self.cur
        if tok.kind != "number" or not re.fullmatch(r"\d+", tok.text):
            self.fail(f"expected {what} (a non-negative integer)")
        self.advance()
        return int(tok.text)

    def ident(self, what: str) -> str:
        if self.cur.kind != "ident":
            self.fail(f"expected {what}, found {self.cur.text!r}")
        return self.advance().text

    # grammar, loosest binding first

    def parse(self) -> Formula:
        f = self.implies()
        if self.cur.kind != "end":
            self.fail(f"unexpected trailing input {self.cur.text!r}")
        return f

    def implies(self) -> Formula:
        left = self.disjunction()
        if self.at_op("->"):
            self.advance()
            return implies(left, self.implies())
        return left

    def disjunction(self) -> Formula:
        left = self.conjunction()
        if self.at_op("||"):
            self.advance()
            return Or(left, self.disjunction())
        return left

    def conjunction(self) -> Formula:
        left = self.until()
        if self.at_op("&&"):
            self.advance()
            return conj(left, self.conjunction())
        return left

    def until(self) -> Formula:
        left = self.unary()
        if self.at_ident("U"):
            opener = self.cur
            self.advance()
            lo, hi = self.window(opener)
            return self.build(Until, opener, left, self.until(), lo, hi)
        return left

    def unary(self) -> Formula:
        if self.at_op("!"):
            self.advance()
            return Not(self.unary())
        if self.at_ident("F") and self.peek().text == "[":
            opener = self.advance()
            lo, hi = self.window(opener)
            return self.build(eventually, opener, lo, hi, self.unary())
        if self.at_ident("G") and self.peek().text == "[":
            opener = self.advance()
            lo, hi = self.window(opener)
            return self.build(always, opener, lo, hi, self.unary())
        return self.primary()

    def window(self, opener: _Token) -> tuple[int, int]:
        self.expect_op("[")
        lo = self.integer("window start")
        self.expect_op(",")
        hi = self.integer("window end")
        self.expect_op("]")
        if hi < lo:
            self.fail(f"empty window [{lo},{hi}]", opener)
        return lo, hi

    def primary(self) -> Formula:
        if self.at_ident("true"):
            self.advance()
            return Truth()
        if self.at_op("("):
            self.advance()
            inner = self.implies()
            self.expect_op(")")
            return inner
        if self.cur.kind == "ident" and self.cur.text in ("target", "hazard"):
            return self.atom()
        self.fail(f"expected a formula, found {self.cur.text!r}")

    def atom(self) -> Formula:
        head = self.advance()
        cls = Target if head.text == "target" else Hazard
        self.expect_op("(")
        dist = self.distribution()
        self.expect_op(",")
        pname_tok = self.cur
        pname = self.ident("penalty name")
        if pname not in self.penalties:
            known = ", ".join(sorted(self.penalties)) or "none"
            self.fail(f"unknown penalty {pname!r} (known: {known})", pname_tok)
        self.expect_op(",")
        thr_tok = self.cur
        threshold = self.number("threshold")
        self.expect_op(")")
        return self.build(cls, thr_tok, dist, self.penalties[pname], threshold)

    def distribution(self):
        head_tok = self.cur
        head = self.ident("distribution")
        if head == "normal":
            self.expect_op("(")
            entries = [self.normal_entry()]
            while self.at_op(",") and self.peek().kind == "ident" and self.peek(2).text == ";":
                self.advance()
                entries.append(self.normal_entry())
            self.expect_op(")")
            return self.build(ProductNormal, head_tok, tuple(entries))
        if head == "point":
            self.expect_op("(")
            assigns = [self.point_entry()]
            while self.at_op(","):
                self.advance()
                assigns.append(self.point_entry())
            self.expect_op(")")
            return self.build(PointMass, head_tok, tuple(assigns))
        if head == "empirical":
            self.expect_op("(")
            tok = self.cur
            if tok.kind != "string":
                self.fail("expected a quoted file path")
            self.advance()
            self.expect_op(")")
            path = tok.text[1:-1]
            try:
                return EmpiricalRef(path=path)
            except (OSError, ValueError) as exc:
                self.fail(f"cannot load {path!r}: {exc}", tok)
        self.fail(f"unknown distribution {head!r} (want normal, point or empirical)", head_tok)

    def normal_entry(self) -> tuple[str, float, float]:
        var = self.ident("variable name")
        self.expect_op(";")
        mean = self.number("mean")
        self.expect_op(",")
        var_tok = self.cur
        variance = self.number("variance")
        if variance < 0:
            self.fail("variance must be non-negative", var_tok)
        return (var, mean, variance)

    def point_entry(self) -> tuple[str, float]:
        var = self.ident("variable name")
        self.expect_op("=")
        return (var, self.number("value"))

    def build(self, ctor, tok: _Token, *args):
        """Run a node constructor, converting its ValueError into a located one."""
        try:
            return ctor(*args)
        except ValueError as exc:
            self.fail(str(exc), tok)


def parse_formula(
    text: str,
    penalties: Mapping[str, Penalty],
    space: DataSpace | None = None,
) -> Formula:
    """Parse formula text; with a space, also check atoms are evaluable on it."""
    parser = _Parser(_tokenize(text), penalties)
    formula = parser.parse()
    if space is not None:
        try:
            validate(formula, space)
        except (KeyError, ValueError) as exc:
            raise FormulaError(str(exc), 1, 1) from None
    return formula


def load_formula(
    path: str,
    penalties: Mapping[str, Penalty],
    space: DataSpace | None = None,
) -> Formula:
    """Parse a UTF-8 formula file (``#`` comments allowed)."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bad byte's line and column, counted as the tokenizer counts them
        head = _universal_newlines(data[: exc.start].decode("utf-8"))
        line, col = head.count("\n") + 1, len(head) - head.rfind("\n")
        raise FormulaError(f"{path} is not UTF-8: {exc}", line, col) from None
    return parse_formula(_universal_newlines(text), penalties, space)


def _universal_newlines(text: str) -> str:
    """Line ends CRLF and CR read as LF, as a text-mode ``open`` reads them."""
    return text.replace("\r\n", "\n").replace("\r", "\n")
