"""Text definitions of graded algebras: a small polynomial expression DSL.

An ``.alg`` file looks like::

    # comment
    algebra S
    super true
    rule even even antisymmetric: n*(i+q) - m*(j+q)
    rule even odd antisymmetric: n*(i+q) - m*(j + (1/2)*q)
    rule odd odd symmetric: 2*q

Coefficient expressions range over the five variables m, i, n, j, q with
integer and rational literals; there is no division outside literals, so
every coefficient stays polynomial.  Rule headers use the canonical parity
order (even before odd) and the symmetry flag fixed by the Lie superalgebra
sign convention: ``symmetric`` for odd odd, ``antisymmetric`` otherwise.
Each header appears once.  Expressions are read by the shared
`scalars.Tokens` cursor, and every parse error carries a line and a column.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .algebra import _PARITY_VALUES, EVEN, ODD, AlgebraSpec, Monomials, Parity, parity_name
from .errors import DuplicateRule, ParseError, UnknownAlgebra, UnknownVariable
from .scalars import Tokens

VARIABLES = ("m", "i", "n", "j", "q")


# --- expression AST ----------------------------------------------------------

@dataclass(frozen=True)
class Lit:
    value: Fraction


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Add:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Sub:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Mul:
    left: "Expr"
    right: "Expr"


Expr = Lit | Var | Neg | Add | Sub | Mul


def expand_expr(e: Expr) -> Monomials:
    """Expand into monomials keyed by exponents of (m, i, n, j, q)."""
    zero_key = (0, 0, 0, 0, 0)
    if isinstance(e, Lit):
        return {zero_key: e.value} if e.value else {}
    if isinstance(e, Var):
        key = tuple(1 if v == e.name else 0 for v in VARIABLES)
        return {key: Fraction(1)}
    if isinstance(e, Neg):
        return {k: -c for k, c in expand_expr(e.arg).items()}
    if isinstance(e, (Add, Sub)):
        out = dict(expand_expr(e.left))
        sign = 1 if isinstance(e, Add) else -1
        for k, c in expand_expr(e.right).items():
            new = out.get(k, Fraction(0)) + sign * c
            if new:
                out[k] = new
            else:
                out.pop(k, None)
        return out
    if isinstance(e, Mul):
        left = expand_expr(e.left)
        right = expand_expr(e.right)
        out: Monomials = {}
        for ka, ca in left.items():
            for kb, cb in right.items():
                key = tuple(x + y for x, y in zip(ka, kb))
                new = out.get(key, Fraction(0)) + ca * cb
                if new:
                    out[key] = new
                else:
                    out.pop(key, None)
        return out
    raise TypeError(f"not an expression node: {e!r}")


def print_expr(e: Expr) -> str:
    def wrap(child: Expr, in_product: bool) -> str:
        s = print_expr(child)
        if in_product and isinstance(child, (Add, Sub, Neg)):
            return f"({s})"
        if in_product and isinstance(child, Lit) and child.value.denominator != 1:
            return f"({s})"
        return s

    if isinstance(e, Lit):
        return str(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        arg = print_expr(e.arg)
        if isinstance(e.arg, (Add, Sub)):
            return f"-({arg})"
        return f"-{arg}"
    if isinstance(e, Add):
        return f"{print_expr(e.left)} + {wrap(e.right, False) if not isinstance(e.right, Neg) else print_expr(e.right)}"
    if isinstance(e, Sub):
        right = print_expr(e.right)
        if isinstance(e.right, (Add, Sub, Neg)):
            right = f"({right})"
        return f"{print_expr(e.left)} - {right}"
    if isinstance(e, Mul):
        return f"{wrap(e.left, True)}*{wrap(e.right, True)}"
    raise TypeError(f"not an expression node: {e!r}")


# --- expression parser --------------------------------------------------------
#
# expr := term (('+'|'-') term)*
# term := factor ('*' factor)*
# factor := '-' factor | '(' expr ')' | literal | var
# literal := int | int '/' int

def _expr(toks: Tokens) -> Expr:
    node = _term(toks)
    while op := toks.accept("+", "-"):
        rhs = _term(toks)
        node = Add(node, rhs) if op == "+" else Sub(node, rhs)
    return node


def _term(toks: Tokens) -> Expr:
    node = _factor(toks)
    while toks.accept("*"):
        node = Mul(node, _factor(toks))
    if toks.peek() == "/":
        raise toks.error("division is only allowed inside rational literals",
                         "'*'", "'+'", "'-'", "end of expression")
    return node


def _factor(toks: Tokens) -> Expr:
    if toks.accept("-"):
        return Neg(_factor(toks))
    if toks.accept("("):
        node = _expr(toks)
        toks.take(")", "')'")
        return node
    if toks.peek() == "INT":
        num = int(toks.take("INT"))
        if not toks.accept("/"):
            return Lit(Fraction(num))
        if toks.peek() == "INT" and not int(toks.text):
            raise toks.error("zero denominator", "nonzero denominator")
        return Lit(Fraction(num, int(toks.take("INT", "integer denominator"))))
    if toks.peek() == "NAME":
        if toks.text not in VARIABLES:
            raise toks.error(f"unknown variable {toks.text!r}", *VARIABLES,
                             cls=UnknownVariable)
        return Var(toks.take("NAME"))
    raise toks.unexpected("'-'", "'('", "literal", "variable")


def parse_expr(text: str, line: int = 1, col_offset: int = 0) -> Expr:
    """Parse one coefficient expression.

    The parser and the AST walkers recurse once per level of the tree, and
    a long sum or product is a deep tree too.  Input that overflows the
    Python stack fails as a ParseError: in the parser at the token reached,
    and in `print_expr`, which takes at least as many frames per level as
    the other walkers, at the first token.
    """
    toks = Tokens(text, line, col_offset)
    try:
        node = _expr(toks)
    except RecursionError:
        raise toks.error("expression nests too deeply") from None
    toks.end("end of expression")
    try:
        print_expr(node)
    except RecursionError:
        raise toks.error("expression nests too deeply", pos=toks.toks[0][2]) from None
    return node


# --- spec files ---------------------------------------------------------------

@dataclass(frozen=True)
class RuleDecl:
    left: Parity
    right: Parity
    symmetric: bool
    coeff: Expr


@dataclass(frozen=True)
class SpecFile:
    name: str
    is_super: bool
    rules: tuple[RuleDecl, ...]


_FLAG_WORDS = {"antisymmetric": False, "symmetric": True}


def parse_spec(text: str) -> SpecFile:
    """Parse an .alg document; total, or fails with line/column locations."""
    name: str | None = None
    is_super: bool | None = None
    rules: list[RuleDecl] = []
    seen: set[tuple[Parity, Parity]] = set()

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        words = line.split()
        head = words[0]
        if {"algebra": name, "super": is_super}.get(head) is not None:
            raise ParseError(f"repeated {head!r} header", line=lineno, col=1)
        if head == "algebra":
            if len(words) != 2:
                raise ParseError("algebra header takes one name", line=lineno, col=1,
                                 expected=("algebra NAME",))
            name = words[1]
        elif head == "super":
            if len(words) != 2 or words[1] not in ("true", "false"):
                raise ParseError("super header takes true or false", line=lineno,
                                 col=1, expected=("super true", "super false"))
            is_super = words[1] == "true"
        elif head == "rule":
            if len(words) < 4 or words[1] not in _PARITY_VALUES or words[2] not in _PARITY_VALUES:
                raise ParseError("malformed rule header", line=lineno, col=1,
                                 expected=("rule even even antisymmetric: EXPR",
                                           "rule even odd antisymmetric: EXPR",
                                           "rule odd odd symmetric: EXPR"))
            left = _PARITY_VALUES[words[1]]
            right = _PARITY_VALUES[words[2]]
            if (left, right) == (ODD, EVEN):
                raise ParseError("rules use the canonical parity order", line=lineno,
                                 col=1, expected=("even odd",))
            flag_word, _, _ = words[3].partition(":")
            if flag_word not in _FLAG_WORDS:
                raise ParseError(f"unknown symmetry flag {flag_word!r}", line=lineno,
                                 col=1, expected=tuple(_FLAG_WORDS))
            symmetric = _FLAG_WORDS[flag_word]
            expected_symmetric = (left, right) == (ODD, ODD)
            if symmetric != expected_symmetric:
                want = "symmetric" if expected_symmetric else "antisymmetric"
                raise ParseError(
                    f"{words[1]} {words[2]} rule must be {want}", line=lineno, col=1,
                    expected=(want,))
            if (left, right) in seen:
                raise DuplicateRule(
                    f"duplicate rule for {words[1]} {words[2]}", line=lineno, col=1)
            seen.add((left, right))
            _, colon, expr_text = line.partition(":")
            if not colon:
                raise ParseError("rule header needs ':'", line=lineno, col=len(line),
                                 expected=("':'",))
            coeff = parse_expr(expr_text, line=lineno,
                               col_offset=len(line) - len(expr_text))
            rules.append(RuleDecl(left, right, symmetric, coeff))
        else:
            raise ParseError(f"unknown header {head!r}", line=lineno, col=1,
                             expected=("algebra", "super", "rule"))

    if name is None:
        raise ParseError("missing 'algebra NAME' header", line=1, col=1,
                         expected=("algebra NAME",))
    if is_super is None:
        raise ParseError("missing 'super true|false' header", line=1, col=1,
                         expected=("super true", "super false"))
    declared = {(EVEN, EVEN)} if not is_super else {(EVEN, EVEN), (EVEN, ODD), (ODD, ODD)}
    missing = declared - seen
    if missing:
        names = ", ".join(f"{parity_name(a)} {parity_name(b)}" for a, b in sorted(missing))
        raise ParseError(f"missing rule for parity pair(s): {names}", line=1, col=1)
    extra = seen - declared
    if extra:
        names = ", ".join(f"{parity_name(a)} {parity_name(b)}" for a, b in sorted(extra))
        raise ParseError(f"rules for undeclared parity pair(s): {names}", line=1, col=1)
    return SpecFile(name=name, is_super=is_super, rules=tuple(rules))


def print_spec(sf: SpecFile) -> str:
    lines = [f"algebra {sf.name}", f"super {'true' if sf.is_super else 'false'}"]
    for rule in sf.rules:
        flag = "symmetric" if rule.symmetric else "antisymmetric"
        lines.append(f"rule {parity_name(rule.left)} {parity_name(rule.right)} "
                     f"{flag}: {print_expr(rule.coeff)}")
    return "\n".join(lines) + "\n"


def make_algebra(sf: SpecFile, q: Fraction | None) -> AlgebraSpec:
    """Bind a parsed spec to a coefficient mode."""
    return AlgebraSpec(name=sf.name, is_super=sf.is_super, q=q,
                       rules={(decl.left, decl.right): expand_expr(decl.coeff)
                              for decl in sf.rules})


# --- built-in algebras ----------------------------------------------------------

@functools.cache
def builtin_specfile(name: str) -> SpecFile:
    """The shipped definition of 'B' or 'S', parsed once."""
    return parse_spec(shipped_alg_text(name))


def builtin_algebra(name: str, q: Fraction | None) -> AlgebraSpec:
    """The Block family: 'B' (Lie algebra) or 'S' (Lie superalgebra)."""
    return make_algebra(builtin_specfile(name), q)


def shipped_alg_text(name: str) -> str:
    """Contents of the packaged .alg definition files."""
    if name not in ("B", "S"):
        raise UnknownAlgebra(f"no built-in algebra named {name!r}")
    return resources.files("blockq").joinpath(f"algebras/{name}.alg").read_text()
