"""Textual expression language for labeled trees, planted trees, and forests.

The grammar mirrors the render methods, so parsing a rendered
combination gives back the original:

  expr    := sign? term (("+" | "-") term)*
  term    := rational "*"? item? | item
  item    := tree                (in a tree combination)
           | planted+            (in a forest combination)
           | planted | name      (in an extension element, one combination
                                  over planted trees and generator names)
  tree    := "(" vlabel child* ")"
  child   := "[" elabel "]" tree
  planted := "[" elabel "]" tree

Labels are symbol names, multi-index literals like ``<1,2>``, the noise
edge name ``Xi``, or the noise vertex ``*``; each is validated against
the basis for its slot.  Whitespace is insignificant everywhere except
inside tokens.  A rational followed by ``+``, ``-`` or the end is bare:
it denotes that multiple of the empty forest, which only forest-shaped
expressions accept (``0`` is fine anywhere).  Errors carry line and
column of the offending token.
"""

from __future__ import annotations

import re
from typing import Callable, List, Optional, Tuple

from .decorations import STAR, DecorationBasis, Label, MultiIndex
from .lincomb import LinComb, as_scalar, lc_sum
from .trees import DecoratedTree, Forest, PlantedTree, forest, node


class ParseError(ValueError):
    def __init__(self, line: int, col: int, message: str):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


_TOKEN = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<mi><\s*\d+\s*(?:,\s*\d+\s*)*>)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<name>[A-Za-z_]\w*)
  | (?P<punct>[()\[\]+\-*])
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _tokenize(src: str) -> List[_Token]:
    out: List[_Token] = []
    pos, line, bol = 0, 1, 0
    while pos < len(src):
        m = _TOKEN.match(src, pos)
        if m is None:
            raise ParseError(line, pos - bol + 1, f"stray character {src[pos]!r}")
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            out.append(_Token("punct" if kind == "punct" else kind, text, line, pos - bol + 1))
        line += text.count("\n")
        if "\n" in text:
            bol = pos + text.rindex("\n") + 1
        pos = m.end()
    out.append(_Token("end", "", line, len(src) - bol + 1))
    return out


class _Parser:
    def __init__(self, src: str, edge_basis: DecorationBasis, vertex_basis: DecorationBasis):
        self.tokens = _tokenize(src)
        self.at = 0
        self.edge_basis = edge_basis
        self.vertex_basis = vertex_basis

    def peek(self) -> _Token:
        return self.tokens[self.at]

    def take(self) -> _Token:
        tok = self.tokens[self.at]
        self.at += 1
        return tok

    def fail(self, tok: _Token, message: str):
        shown = tok.text or "end of input"
        raise ParseError(tok.line, tok.col, f"{message}, got {shown!r}")

    def expect(self, text: str) -> _Token:
        tok = self.take()
        if tok.kind != "punct" or tok.text != text:
            self.fail(tok, f"expected {text!r}")
        return tok

    def done(self):
        tok = self.peek()
        if tok.kind != "end":
            self.fail(tok, "expected end of input")

    # -- labels

    def label(self, basis: DecorationBasis, side: str) -> Label:
        tok = self.take()
        if tok.kind == "mi":
            entries = tuple(int(p) for p in re.findall(r"\d+", tok.text))
            candidate: Optional[Label] = MultiIndex(entries)
        elif tok.kind == "name":
            candidate = basis.resolve_name(tok.text)
            if candidate is None:
                raise ParseError(tok.line, tok.col, f"unknown {side} label {tok.text!r}")
        elif tok.kind == "punct" and tok.text == "*":
            candidate = STAR
        else:
            self.fail(tok, f"expected a {side} label")
        if not basis.contains(candidate):
            raise ParseError(tok.line, tok.col, f"label {tok.text!r} is not in the {side} basis")
        return candidate

    # -- shapes

    def tree(self) -> DecoratedTree:
        self.expect("(")
        vlabel = self.label(self.vertex_basis, "vertex")
        children = []
        while self.peek().text == "[":
            children.append((self.planted_edge(), self.tree()))
        self.expect(")")
        return node(vlabel, children)

    def planted_edge(self) -> Label:
        self.expect("[")
        elabel = self.label(self.edge_basis, "edge")
        self.expect("]")
        return elabel

    def planted(self) -> PlantedTree:
        return PlantedTree(self.planted_edge(), self.tree())

    def item_tree(self) -> DecoratedTree:
        tok = self.peek()
        if tok.text != "(":
            self.fail(tok, "expected a tree")
        return self.tree()

    def item_forest(self) -> Forest:
        tok = self.peek()
        if tok.kind == "number" and tok.text == "1":
            self.take()
            return forest([])
        if tok.text != "[":
            self.fail(tok, "expected a forest of planted trees")
        trees = [self.planted()]
        while self.peek().text == "[":
            trees.append(self.planted())
        return forest(trees)

    # -- combinations

    def comb(self, item_parser: Callable[[], object], empty_item: Optional[object]) -> LinComb:
        parts = []
        sign = 1
        tok = self.peek()
        if tok.kind == "punct" and tok.text in "+-":
            self.take()
            sign = 1 if tok.text == "+" else -1
        while True:
            parts.append(self.term(item_parser, empty_item).scale(sign))
            tok = self.peek()
            if tok.kind == "end":
                return lc_sum(parts)
            if tok.kind == "punct" and tok.text in "+-":
                self.take()
                sign = 1 if tok.text == "+" else -1
                continue
            self.fail(tok, "expected '+', '-', or end of input")

    def term(self, item_parser: Callable[[], object], empty_item: Optional[object]) -> LinComb:
        tok = self.peek()
        coeff = 1
        if tok.kind == "number":
            self.take()
            coeff = as_scalar(tok.text)
            nxt = self.peek()
            if nxt.kind == "punct" and nxt.text == "*":
                self.take()
            elif nxt.kind == "end" or (nxt.kind == "punct" and nxt.text in "+-"):
                if coeff == 0:
                    return LinComb()
                if empty_item is None:
                    self.fail(nxt, "a bare number needs a tree after it")
                return LinComb.of(empty_item, coeff)
        return LinComb.of(item_parser(), coeff)


def parse_label(src: str, basis: DecorationBasis, side: str = "decoration") -> Label:
    p = _Parser(src, basis, basis)
    out = p.label(basis, side)
    p.done()
    return out


def parse_tree_comb(src: str, edge_basis: DecorationBasis, vertex_basis: DecorationBasis) -> LinComb:
    p = _Parser(src, edge_basis, vertex_basis)
    out = p.comb(p.item_tree, None)
    p.done()
    return out


def parse_forest_comb(src: str, edge_basis: DecorationBasis, vertex_basis: DecorationBasis) -> LinComb:
    from .trees import EMPTY_FOREST

    p = _Parser(src, edge_basis, vertex_basis)
    out = p.comb(p.item_forest, EMPTY_FOREST)
    p.done()
    return out


def parse_ext_elem(src: str, edge_basis: DecorationBasis, vertex_basis: DecorationBasis,
                   gen_names: Tuple[str, ...]) -> LinComb:
    """Parse an extension element: one combination whose terms are planted
    trees or generator names."""
    p = _Parser(src, edge_basis, vertex_basis)

    def item():
        tok = p.peek()
        if tok.kind == "name":
            p.take()
            if tok.text not in gen_names:
                raise ParseError(tok.line, tok.col, f"unknown generator {tok.text!r}")
            return tok.text
        if tok.text != "[":
            p.fail(tok, "expected a generator name or a planted tree")
        return p.planted()

    out = p.comb(item, None)
    p.done()
    return out


def render_comb(x: LinComb) -> str:
    """Canonical text for a combination whose terms know how to render."""
    return x.render(lambda t: t.render())
