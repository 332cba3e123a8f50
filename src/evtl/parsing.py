"""Concrete surface syntax for formulas.

Grammar sketch (binary connectives are right-associative; precedence from
tightest to loosest is ``!``, ``U``, ``&&``, ``||``, ``->``, which is the
order of ``_BINARY`` read backwards; the unary temporal operators parse like
``!``):

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
Tokens carry their offset into the text; ``_at`` turns an offset into the
line and column of every error, with LF as the only line end.
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
    offset: int


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[\s]+|\#[^\n]*)
  | (?P<op>\|\||&&|->|[()\[\],;=!])
  | (?P<number>-?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"\n]*")
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

# binary connectives, loosest first, each right-associative; ``U`` also reads a window
_BINARY = (("->", implies), ("||", Or), ("&&", conj), ("U", Until))
_LEVEL = {text: level for level, (text, _) in enumerate(_BINARY)}
_PREFIX = {"F": eventually, "G": always}
# parentheses and right operands nested at once (the parser takes at most three frames
# for each); the formula nodes limit a tree's levels, and ``build`` places that error
_MAX_DEPTH = 200


def _at(text: str, offset: int) -> tuple[int, int]:
    """1-based line and column of ``text[offset]``; LF is the only line end."""
    return text.count("\n", 0, offset) + 1, offset - text.rfind("\n", 0, offset)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.lastgroup == "bad":
            raise FormulaError(f"unexpected character {m.group()!r}", *_at(text, m.start()))
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), m.start()))
    return tokens + [_Token("end", "", len(text))]


class _Parser:
    def __init__(self, text: str, penalties: Mapping[str, Penalty], space: DataSpace | None):
        self.text = text
        self.tokens = _tokenize(text)
        self.penalties = penalties
        self.space = space
        self.pos = 0
        self.depth = 0

    # token plumbing; a token's text alone tells its kind apart, so ``at`` compares text

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
        raise FormulaError(message, *_at(self.text, (tok or self.cur).offset))

    def at(self, text: str) -> bool:
        return self.cur.text == text

    def expect_op(self, text: str) -> _Token:
        if not self.at(text):
            self.fail(f"expected {text!r}, found {self.cur.text!r}")
        return self.advance()

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
        f = self.binary()
        if self.cur.kind != "end":
            self.fail(f"unexpected trailing input {self.cur.text!r}")
        return f

    def binary(self, level: int = 0) -> Formula:
        """Connectives of ``_BINARY[level:]``, by precedence climbing.

        A right operand recurses at its connective's own level, which makes
        the connectives right-associative; the loop takes the looser ones
        after it. Every parenthesis and right operand nests one call deeper.
        """
        if self.depth > _MAX_DEPTH:
            self.fail("formula nested too deeply")
        self.depth += 1
        left = self.unary()
        while (at := _LEVEL.get(self.cur.text, -1)) >= level:
            opener = self.advance()
            ctor = _BINARY[at][1]
            window = self.window(opener) if ctor is Until else ()
            left = self.build(ctor, opener, left, self.binary(at), *window)
        self.depth -= 1
        return left

    def unary(self) -> Formula:
        """Prefix operators, read in a loop and applied innermost first."""
        prefixes = []
        while self.at("!") or self.cur.text in _PREFIX and self.peek().text == "[":
            opener = self.advance()
            prefixes.append((opener, self.window(opener) if opener.text in _PREFIX else ()))
        f = self.primary()
        for opener, window in reversed(prefixes):
            f = self.build(_PREFIX.get(opener.text, Not), opener, *window, f)
        return f

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
        if self.at("true"):
            self.advance()
            return Truth()
        if self.at("("):
            self.advance()
            inner = self.binary()
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
        node = self.build(cls, thr_tok, dist, self.penalties[pname], threshold)
        if self.space is not None:
            self.build(validate, head, node, self.space)
        return node

    def distribution(self):
        head_tok = self.cur
        head = self.ident("distribution")
        if head == "normal":
            self.expect_op("(")
            entries = [self.normal_entry()]
            while self.at(",") and self.peek().kind == "ident" and self.peek(2).text == ";":
                self.advance()
                entries.append(self.normal_entry())
            self.expect_op(")")
            return self.build(ProductNormal, head_tok, tuple(entries))
        if head == "point":
            self.expect_op("(")
            assigns = [self.point_entry()]
            while self.at(","):
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
        """Run a node constructor or check; its ValueError or KeyError fails at ``tok``."""
        try:
            return ctor(*args)
        except (KeyError, ValueError) as exc:
            self.fail(exc.args[0], tok)


def parse_formula(
    text: str,
    penalties: Mapping[str, Penalty],
    space: DataSpace | None = None,
) -> Formula:
    """Parse formula text; with a space, also check that each atom is evaluable on it."""
    return _Parser(text, penalties, space).parse()


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
        head = _universal_newlines(data[: exc.start].decode("utf-8"))
        raise FormulaError(f"{path} is not UTF-8: {exc}", *_at(head, len(head))) from None
    return parse_formula(_universal_newlines(text), penalties, space)


def _universal_newlines(text: str) -> str:
    """Line ends CRLF and CR read as LF, as a text-mode ``open`` reads them."""
    return text.replace("\r\n", "\n").replace("\r", "\n")
