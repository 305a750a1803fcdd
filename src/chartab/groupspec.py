"""Group-expression mini-language and named constructors.

Grammar (whitespace-insensitive)::

    expr     := atom ('x' atom)*
    atom     := NAME '(' args ')' | 'Quot' '(' expr ';' perms ')'
              | 'File' '(' STRING ')' | '(' expr ')'
    args     := (INT | expr) {',' (INT | expr)}
    perms    := cycles {',' cycles}        e.g. (0 1 2)(3 4), (0 2)

Names: C/Cyclic(n), D/Dihedral(n) [order 2n], S/Sym(n), A/Alt(n),
SL(2,q) for q in {3,5,7,9}, PSL(2,q) for q in {5,7,9}, Aff(p,d) with
d | p-1, CentralProd(SL(2,5), C(2m)), Quot(expr; gens), File("path").

Group files are JSON: {"degree": n, "generators": [...]} where each
generator is an image array or a cycle-notation string.

The constructors build their generators as point arrays.  Those whose
degree is an argument, and group files, charge their generators and the
chain's identity word (permgroup.charge_words) before building them, so a
huge degree is refused before it costs memory.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .arith import element_of_order, is_prime
from .perm import Permutation, parse_cycles, point_dtype, unchecked
from .fplinalg import require
from .permgroup import PermGroup, charge_words, direct_product


class GroupExprError(ValueError):
    """Syntax or validation error in a group expression."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


# -- AST ---------------------------------------------------------------------

@dataclass(frozen=True)
class NamedSpec:
    name: str                      # canonical: C, D, S, A, SL, PSL, Aff
    args: tuple[int, ...]


@dataclass(frozen=True)
class ProductSpec:
    factors: tuple["GroupSpec", ...]


@dataclass(frozen=True)
class QuotientSpec:
    inner: "GroupSpec"
    gens: tuple[str, ...]          # cycle notation, normalized


@dataclass(frozen=True)
class CentralProdSpec:
    left: "GroupSpec"              # must be SL(2,5)
    right: "GroupSpec"             # must be C(2m)


@dataclass(frozen=True)
class FileSpec:
    path: str


GroupSpec = NamedSpec | ProductSpec | QuotientSpec | CentralProdSpec | FileSpec

_CANONICAL = {
    "C": "C", "Cyclic": "C",
    "D": "D", "Dihedral": "D",
    "S": "S", "Sym": "S",
    "A": "A", "Alt": "A",
    "SL": "SL", "PSL": "PSL", "Aff": "Aff",
}
_ARITY = {"C": 1, "D": 1, "S": 1, "A": 1, "SL": 2, "PSL": 2, "Aff": 2}


def render(spec: GroupSpec) -> str:
    """Canonical text form; parse(render(s)) is equivalent to s."""
    if isinstance(spec, NamedSpec):
        return f"{spec.name}({','.join(map(str, spec.args))})"
    if isinstance(spec, ProductSpec):
        return " x ".join(
            f"({render(f)})" if isinstance(f, ProductSpec) else render(f)
            for f in spec.factors)
    if isinstance(spec, QuotientSpec):
        return f"Quot({render(spec.inner)}; {', '.join(spec.gens)})"
    if isinstance(spec, CentralProdSpec):
        return f"CentralProd({render(spec.left)}, {render(spec.right)})"
    if isinstance(spec, FileSpec):
        return f'File("{spec.path}")'
    raise TypeError(f"not a GroupSpec: {spec!r}")


# -- parser -------------------------------------------------------------------

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<string>"[^"]*")
  | (?P<punct>[(),;])
""", re.VERBOSE)


def _tokenize(s: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(s):
        m = _TOKEN_RE.match(s, pos)
        if m is None:
            raise GroupExprError(f"unexpected character {s[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(s)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str, value: str | None = None):
        tok = self.next()
        if tok[0] != kind or (value is not None and tok[1] != value):
            want = value or kind
            raise GroupExprError(f"expected {want!r}, found {tok[1]!r}", tok[2])
        return tok

    def parse(self) -> GroupSpec:
        spec = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise GroupExprError(f"trailing input {tok[1]!r}", tok[2])
        return spec

    def expr(self) -> GroupSpec:
        factors = [self.atom()]
        while self.peek()[:2] == ("name", "x"):
            self.next()
            factors.append(self.atom())
        if len(factors) == 1:
            return factors[0]
        return ProductSpec(tuple(factors))

    def atom(self) -> GroupSpec:
        kind, value, pos = self.peek()
        if kind == "punct" and value == "(":
            self.next()
            inner = self.expr()
            self.expect("punct", ")")
            return inner
        if kind != "name":
            raise GroupExprError(f"expected a group name, found {value!r}", pos)
        self.next()
        if value in ("Quot", "Quotient"):
            return self.quotient()
        if value == "File":
            self.expect("punct", "(")
            tok = self.expect("string")
            self.expect("punct", ")")
            return FileSpec(tok[1][1:-1])
        if value == "CentralProd":
            self.expect("punct", "(")
            left = self.expr()
            self.expect("punct", ",")
            right = self.expr()
            self.expect("punct", ")")
            return _validate_central(CentralProdSpec(left, right), pos)
        name = _CANONICAL.get(value)
        if name is None:
            raise GroupExprError(f"unknown constructor {value!r}", pos)
        self.expect("punct", "(")
        args = [self.int_arg()]
        while self.peek()[:2] == ("punct", ","):
            self.next()
            args.append(self.int_arg())
        self.expect("punct", ")")
        if len(args) != _ARITY[name]:
            raise GroupExprError(
                f"{name} takes {_ARITY[name]} argument(s), got {len(args)}", pos)
        return NamedSpec(name, tuple(args))

    def int_arg(self) -> int:
        tok = self.expect("int")
        return int(tok[1])

    def quotient(self) -> GroupSpec:
        self.expect("punct", "(")
        inner = self.expr()
        self.expect("punct", ";")
        gens = [self.perm_literal()]
        while self.peek()[:2] == ("punct", ","):
            self.next()
            gens.append(self.perm_literal())
        self.expect("punct", ")")
        return QuotientSpec(inner, tuple(gens))

    def perm_literal(self) -> str:
        # one or more (...) cycles; collected as raw text and re-normalized
        parts = []
        while self.peek()[:2] == ("punct", "("):
            self.next()
            nums = []
            while self.peek()[0] == "int":
                nums.append(self.next()[1])
                if self.peek()[:2] == ("punct", ","):
                    self.next()
            self.expect("punct", ")")
            parts.append("(" + " ".join(nums) + ")")
        if not parts:
            tok = self.peek()
            raise GroupExprError(f"expected a cycle, found {tok[1]!r}", tok[2])
        return "".join(parts)


def _validate_central(spec: CentralProdSpec, pos: int | None = None) -> CentralProdSpec:
    if spec.left != NamedSpec("SL", (2, 5)):
        raise GroupExprError("CentralProd supports only CentralProd(SL(2,5), C(2m))", pos)
    if not (isinstance(spec.right, NamedSpec) and spec.right.name == "C"
            and spec.right.args[0] % 2 == 0 and spec.right.args[0] >= 2):
        raise GroupExprError("CentralProd supports only CentralProd(SL(2,5), C(2m))", pos)
    return spec


def parse_group_expr(text: str) -> GroupSpec:
    """Parse a group expression; raises GroupExprError with a position."""
    return _Parser(text).parse()


# -- small finite fields (orders 3, 5, 7, 9) ----------------------------------

class _GF:
    """Field of order q, prime or 9 (F_9 = F_3[t]/(t^2+1), t -> code 3)."""

    def __init__(self, q: int):
        self.q = q
        if q == 9:
            self.p = 3
            mul = [[0] * 9 for _ in range(9)]
            add = [[0] * 9 for _ in range(9)]
            for a1 in range(3):
                for b1 in range(3):
                    for a2 in range(3):
                        for b2 in range(3):
                            x, y = a1 + 3 * b1, a2 + 3 * b2
                            add[x][y] = (a1 + a2) % 3 + 3 * ((b1 + b2) % 3)
                            # (a1 + b1 t)(a2 + b2 t), t^2 = -1
                            mul[x][y] = ((a1 * a2 - b1 * b2) % 3
                                         + 3 * ((a1 * b2 + a2 * b1) % 3))
            self._add, self._mul = add, mul
        else:
            self.p = q
            self._add = self._mul = None

    def add(self, x: int, y: int) -> int:
        return self._add[x][y] if self._add else (x + y) % self.q

    def mul(self, x: int, y: int) -> int:
        return self._mul[x][y] if self._mul else (x * y) % self.q


# -- named constructors --------------------------------------------------------

def _rotation(n: int) -> np.ndarray:
    """The images of i -> i + 1 mod n."""
    points = np.arange(n, dtype=point_dtype(n))
    return np.concatenate([points[1:], points[:1]])


def cyclic(n: int) -> PermGroup:
    if n < 1:
        raise GroupExprError(f"C(n) needs n >= 1, got {n}")
    if n == 1:
        return PermGroup([], 1)
    charge_words(2, n)
    return PermGroup([unchecked(_rotation(n))], n)


def dihedral(n: int) -> PermGroup:
    """Dihedral group of order 2n (n = 1, 2 get extra points for faithfulness)."""
    if n < 1:
        raise GroupExprError(f"D(n) needs n >= 1, got {n}")
    if n == 1:
        return PermGroup([parse_cycles("(0 1)", 2)], 2)
    if n == 2:
        return PermGroup([parse_cycles("(0 1)", 4), parse_cycles("(2 3)", 4)], 4)
    charge_words(3, n)
    rot = _rotation(n)
    # the flip i -> -i mod n: the rotation's images reversed
    return PermGroup([unchecked(rot), unchecked(rot[::-1])], n)


def symmetric(n: int) -> PermGroup:
    if n < 1:
        raise GroupExprError(f"S(n) needs n >= 1, got {n}")
    if n == 1:
        return PermGroup([], 1)
    charge_words(3, n)
    gens = [parse_cycles("(0 1)", n)]
    if n > 2:
        gens.append(unchecked(_rotation(n)))
    return PermGroup(gens, n)


def alternating(n: int) -> PermGroup:
    if n < 1:
        raise GroupExprError(f"A(n) needs n >= 1, got {n}")
    if n <= 2:
        return PermGroup([], max(n, 1))
    if n == 3:
        return PermGroup([parse_cycles("(0 1 2)", 3)], 3)
    charge_words(3, n)
    three = parse_cycles("(0 1 2)", n)
    # A_n = <(0 1 2), (0 1 ... n-1)> for odd n, <(0 1 2), (1 2 ... n-1)> for even n
    big = _rotation(n)
    if n % 2 == 0:
        big[[0, -1]] = 0, 1
    return PermGroup([three, unchecked(big)], n)


def _sl2_generators(q: int) -> tuple[list[list[list[int]]], _GF]:
    gf = _GF(q)
    basis = [1] if q != 9 else [1, 3]   # field generators: 1, and t for F_9
    mats = []
    for x in basis:
        mats.append([[1, x], [0, 1]])
        mats.append([[1, 0], [x, 1]])
    return mats, gf


def _vector_points(q: int) -> list[tuple[int, int]]:
    return [(a, b) for a in range(q) for b in range(q) if (a, b) != (0, 0)]


def special_linear_2(q: int) -> PermGroup:
    """SL(2,q) acting on the q^2 - 1 nonzero vectors of F_q^2."""
    if q not in (3, 5, 7, 9):
        raise GroupExprError(f"SL(2,q) supported for q in 3,5,7,9; got {q}")
    mats, gf = _sl2_generators(q)
    points = _vector_points(q)
    index = {v: i for i, v in enumerate(points)}
    gens = []
    for m in mats:
        images = np.empty(len(points), dtype=point_dtype(len(points)))
        for i, (x, y) in enumerate(points):
            nx = gf.add(gf.mul(m[0][0], x), gf.mul(m[0][1], y))
            ny = gf.add(gf.mul(m[1][0], x), gf.mul(m[1][1], y))
            images[i] = index[(nx, ny)]
        gens.append(unchecked(images))
    group = PermGroup(gens, len(points))
    require(group.order() == q * (q * q - 1), f"SL(2,{q}) has the wrong order")
    return group


def projective_sl2(q: int) -> PermGroup:
    """PSL(2,q) acting on the q + 1 projective points."""
    if q not in (5, 7, 9):
        raise GroupExprError(f"PSL(2,q) supported for q in 5,7,9; got {q}")
    mats, gf = _sl2_generators(q)
    # points: [z : 1] for z in F_q (index z), plus infinity = [1 : 0] (index q)
    gens = []
    for m in mats:
        a, b, c, d = m[0][0], m[0][1], m[1][0], m[1][1]
        images = np.empty(q + 1, dtype=point_dtype(q + 1))
        for z in range(q):
            nx = gf.add(gf.mul(a, z), b)
            ny = gf.add(gf.mul(c, z), d)
            images[z] = q if ny == 0 else gf.mul(nx, _gf_inv(gf, ny))
        nx, ny = a, c   # image of [1 : 0]
        images[q] = q if ny == 0 else gf.mul(nx, _gf_inv(gf, ny))
        gens.append(unchecked(images))
    group = PermGroup(gens, q + 1)
    require(group.order() == q * (q * q - 1) // 2, f"PSL(2,{q}) has the wrong order")
    return group


def _gf_inv(gf: _GF, x: int) -> int:
    for y in range(1, gf.q):
        if gf.mul(x, y) == 1:
            return y
    raise ZeroDivisionError("no inverse for 0")


def affine(p: int, d: int) -> PermGroup:
    """Aff(p,d) = C_p : C_d with d | p-1, acting on p points."""
    if not is_prime(p):
        raise GroupExprError(f"Aff(p,d) needs p prime, got p={p}")
    if d < 1 or (p - 1) % d != 0:
        raise GroupExprError(f"Aff(p,d) needs d | p-1, got p={p}, d={d}")
    charge_words(3, p)
    shift = unchecked(_rotation(p))
    if d == 1:
        return PermGroup([shift], p)
    # a power of the primitive root: element_of_order(p, d) would pick a
    # different multiplier for some (p, d), Aff(7,3) among them
    h = pow(element_of_order(p, p - 1), (p - 1) // d, p)
    # h * i < p^2 fits in int64: charge_words keeps p below 2^23
    mult = unchecked((np.arange(p, dtype=np.int64) * h % p).astype(point_dtype(p)))
    return PermGroup([shift, mult], p)


def central_prod_sl25(m: int) -> PermGroup:
    """SL(2,5) o C_{2m}: quotient of the direct product by the diagonal C2."""
    if m < 1:
        raise GroupExprError("CentralProd needs a cyclic factor C(2m), m >= 1")
    sl = special_linear_2(5)
    cyc = cyclic(2 * m)
    prod = direct_product(sl, cyc)
    # -I in SL(2,5) on nonzero vectors: v -> -v
    points = _vector_points(5)
    index = {v: i for i, v in enumerate(points)}
    # the diagonal element: -I on SL(2,5)'s points and i -> i + m on C(2m)'s
    diag = np.arange(prod.degree, dtype=point_dtype(prod.degree))
    diag[:len(points)] = [index[((-a) % 5, (-b) % 5)] for (a, b) in points]
    diag[len(points):] = np.roll(diag[len(points):], -m)
    return prod.quotient_by(prod.subgroup([unchecked(diag)]))


def group_from_file(path: str) -> PermGroup:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise GroupExprError(f"cannot read group file {path!r}: {exc}") from exc
    try:
        degree = doc["degree"]
        raw_gens = doc["generators"]
    except (KeyError, TypeError) as exc:
        raise GroupExprError(f"group file {path!r} needs 'degree' and 'generators'") from exc
    if type(degree) is not int or degree < 1:
        raise GroupExprError(f"group file {path!r}: 'degree' must be an integer >= 1, "
                             f"got {degree!r}")
    if not isinstance(raw_gens, list):
        raise GroupExprError(f"group file {path!r}: 'generators' must be a list")
    charge_words(len(raw_gens) + 1, degree)
    gens = []
    for entry in raw_gens:
        if not (isinstance(entry, str)
                or isinstance(entry, list) and all(type(i) is int for i in entry)):
            raise GroupExprError(f"bad generator in {path!r}: {entry!r} is neither "
                                 "a cycle string nor a list of points")
        try:
            gens.append(parse_cycles(entry, degree) if isinstance(entry, str)
                        else Permutation(entry))
        except ValueError as exc:
            raise GroupExprError(f"bad generator in {path!r}: {exc}") from exc
    return PermGroup(gens, degree)


def construct(spec: GroupSpec | str) -> PermGroup:
    """Build the permutation group described by a spec or expression string."""
    if isinstance(spec, str):
        spec = parse_group_expr(spec)
    if isinstance(spec, NamedSpec):
        name, args = spec.name, spec.args
        if name == "C":
            return cyclic(args[0])
        if name == "D":
            return dihedral(args[0])
        if name == "S":
            return symmetric(args[0])
        if name == "A":
            return alternating(args[0])
        if name == "SL":
            if args[0] != 2:
                raise GroupExprError(f"only SL(2,q) is supported, got SL({args[0]},{args[1]})")
            return special_linear_2(args[1])
        if name == "PSL":
            if args[0] != 2:
                raise GroupExprError(f"only PSL(2,q) is supported, got PSL({args[0]},{args[1]})")
            return projective_sl2(args[1])
        if name == "Aff":
            return affine(args[0], args[1])
        raise GroupExprError(f"unknown constructor {name!r}")
    if isinstance(spec, ProductSpec):
        groups = [construct(f) for f in spec.factors]
        out = groups[0]
        for g in groups[1:]:
            out = direct_product(out, g)
        return out
    if isinstance(spec, QuotientSpec):
        inner = construct(spec.inner)
        try:
            gens = [parse_cycles(text, inner.degree) for text in spec.gens]
        except ValueError as exc:
            raise GroupExprError(str(exc)) from exc
        return inner.quotient_by(inner.subgroup(gens))
    if isinstance(spec, CentralProdSpec):
        _validate_central(spec)
        return central_prod_sl25(spec.right.args[0] // 2)
    if isinstance(spec, FileSpec):
        return group_from_file(spec.path)
    raise TypeError(f"not a GroupSpec: {spec!r}")


@lru_cache(maxsize=None)
def construct_cached(expr: str) -> PermGroup:
    """Memoized construct() (groups are immutable).

    Entries, with the chains, element rows and classes each group memoises,
    live as long as the process; the library's own paths call construct().
    """
    return construct(expr)
