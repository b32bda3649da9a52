"""Small arithmetic expression language for integrands and parametric curves.

Grammar (standard precedence, ``^`` right-associative and binding tighter
than unary minus)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | IDENT | IDENT '(' expr (',' expr)* ')' | '(' expr ')'

Recognized variables are ``x``, ``y`` and ``t``; constants ``pi`` and ``e``.
Evaluation is plain IEEE double precision and broadcasts over numpy arrays.
"""

import numpy as np

from .errors import InvalidArgumentError


class ParseError(InvalidArgumentError):
    def __init__(self, message, offset):
        super().__init__("%s (at offset %d)" % (message, offset))
        self.offset = offset


_FUNCTIONS = {
    "sin": (np.sin, 1),
    "cos": (np.cos, 1),
    "tan": (np.tan, 1),
    "asin": (np.arcsin, 1),
    "acos": (np.arccos, 1),
    "atan": (np.arctan, 1),
    "atan2": (np.arctan2, 2),
    "sinh": (np.sinh, 1),
    "cosh": (np.cosh, 1),
    "tanh": (np.tanh, 1),
    "exp": (np.exp, 1),
    "ln": (np.log, 1),
    "log10": (np.log10, 1),
    "sqrt": (np.sqrt, 1),
    "abs": (np.abs, 1),
    "pow": (np.power, 2),
    "min": (np.minimum, 2),
    "max": (np.maximum, 2),
}

_CONSTANTS = {"pi": np.pi, "e": np.e}
_VARIABLES = ("x", "y", "t")


# AST nodes are plain tuples:
#   ("num", value) ("var", name) ("const", name)
#   ("neg", a) ("bin", op, a, b) ("call", name, args)


class _Tokenizer:
    def __init__(self, src):
        self.src = src
        self.pos = 0
        self.tokens = []
        self._scan()
        self.idx = 0

    def _scan(self):
        src = self.src
        i = 0
        n = len(src)
        while i < n:
            c = src[i]
            if c.isspace():
                i += 1
                continue
            if c.isdigit() or (c == "." and i + 1 < n and src[i + 1].isdigit()):
                j = i
                while j < n and (src[j].isdigit() or src[j] == "."):
                    j += 1
                if j < n and src[j] in "eE":
                    k = j + 1
                    if k < n and src[k] in "+-":
                        k += 1
                    if k < n and src[k].isdigit():
                        j = k
                        while j < n and src[j].isdigit():
                            j += 1
                try:
                    value = float(src[i:j])
                except ValueError:
                    raise ParseError("malformed number %r" % src[i:j], i)
                self.tokens.append(("num", value, i))
                i = j
            elif c.isalpha() or c == "_":
                j = i
                while j < n and (src[j].isalnum() or src[j] == "_"):
                    j += 1
                self.tokens.append(("ident", src[i:j], i))
                i = j
            elif c in "+-*/^(),":
                self.tokens.append((c, c, i))
                i += 1
            else:
                raise ParseError("unexpected character %r" % c, i)
        self.tokens.append(("end", None, n))

    def peek(self):
        return self.tokens[self.idx]

    def next(self):
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok


class _Parser:
    def __init__(self, src):
        self.toks = _Tokenizer(src)

    def parse(self):
        e = self._expr()
        kind, _, off = self.toks.peek()
        if kind != "end":
            raise ParseError("unexpected trailing input", off)
        return e

    def _expr(self):
        e = self._term()
        while self.toks.peek()[0] in ("+", "-"):
            op = self.toks.next()[0]
            e = ("bin", op, e, self._term())
        return e

    def _term(self):
        e = self._unary()
        while self.toks.peek()[0] in ("*", "/"):
            op = self.toks.next()[0]
            e = ("bin", op, e, self._unary())
        return e

    def _unary(self):
        if self.toks.peek()[0] == "-":
            self.toks.next()
            return ("neg", self._unary())
        return self._power()

    def _power(self):
        base = self._atom()
        if self.toks.peek()[0] == "^":
            self.toks.next()
            return ("bin", "^", base, self._unary())
        return base

    def _atom(self):
        kind, value, off = self.toks.next()
        if kind == "num":
            return ("num", value)
        if kind == "ident":
            if self.toks.peek()[0] == "(":
                if value not in _FUNCTIONS:
                    raise ParseError("unknown function %r" % value, off)
                self.toks.next()
                args = [self._expr()]
                while self.toks.peek()[0] == ",":
                    self.toks.next()
                    args.append(self._expr())
                k, _, o = self.toks.next()
                if k != ")":
                    raise ParseError("expected ')'", o)
                arity = _FUNCTIONS[value][1]
                if len(args) != arity:
                    raise ParseError(
                        "%s takes %d argument(s), got %d" % (value, arity, len(args)), off
                    )
                return ("call", value, tuple(args))
            if value in _CONSTANTS:
                return ("const", value)
            if value in _VARIABLES:
                return ("var", value)
            raise ParseError("unknown identifier %r" % value, off)
        if kind == "(":
            e = self._expr()
            k, _, o = self.toks.next()
            if k != ")":
                raise ParseError("expected ')'", o)
            return e
        raise ParseError("expected a value", off)


def parse(src):
    """Parse an expression source string into an AST."""
    return _Parser(src).parse()


def free_variables(expr):
    kind = expr[0]
    if kind == "var":
        return {expr[1]}
    if kind == "neg":
        return free_variables(expr[1])
    if kind == "bin":
        return free_variables(expr[2]) | free_variables(expr[3])
    if kind == "call":
        out = set()
        for a in expr[2]:
            out |= free_variables(a)
        return out
    return set()


def evaluate(expr, bindings):
    """Evaluate an AST with the given variable bindings.

    Domain errors and division by zero produce non-finite values rather
    than exceptions; integration-time code is responsible for rejecting
    them.
    """
    missing = free_variables(expr) - set(bindings)
    if missing:
        raise InvalidArgumentError("missing bindings for %s" % sorted(missing))
    with np.errstate(all="ignore"):
        return _eval(expr, bindings)


def _eval(e, b):
    kind = e[0]
    if kind == "num":
        return e[1]
    if kind == "var":
        return b[e[1]]
    if kind == "const":
        return _CONSTANTS[e[1]]
    if kind == "neg":
        return -_eval(e[1], b)
    if kind == "bin":
        op = e[1]
        lhs = _eval(e[2], b)
        rhs = _eval(e[3], b)
        if op == "+":
            return lhs + rhs
        if op == "-":
            return lhs - rhs
        if op == "*":
            return lhs * rhs
        if op == "/":
            return np.true_divide(lhs, rhs)
        return np.power(lhs, rhs)
    fn = _FUNCTIONS[e[1]][0]
    return fn(*(_eval(a, b) for a in e[2]))


def compile_field(src):
    """Parse a two-variable expression into a callable f(x, y)."""
    ast = parse(src)
    extra = free_variables(ast) - {"x", "y"}
    if extra:
        raise InvalidArgumentError("field expression may only use x and y, found %s" % sorted(extra))

    def field(x, y):
        val = evaluate(ast, {"x": x, "y": y})
        # constants must still broadcast over point arrays
        return np.broadcast_to(val, np.broadcast(np.asarray(x), np.asarray(y)).shape)

    return field
