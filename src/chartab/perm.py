"""Permutations on {0, ..., degree-1}, each held as one read-only point array.

Composition is left-to-right: (p * q) sends x to q[p[x]], i.e. apply p
first.  This matches the exponent convention x^(gh) = (x^g)^h used by the
group-theoretic code throughout.

A point array, a Permutation's images or a coset table of a stabilizer
chain, has the narrowest dtype that holds the points, point_dtype(degree).
Permutation(images) checks and copies its images; the library wraps the
arrays it computes with unchecked, and the rows of an image array, such as
a group's dense store, with from_rows.  A product is one gather and an
inverse one scatter.

This module is the one home of sift, a stabilizer chain's reduction of a
word through its coset tables.  A word is an element's images in the form
sift multiplies fastest, made by as_word: up to degree 256 the bytes of the
point array, and the product by a coset table row is one bytes.translate
call through the row's 256-byte translation table, which
translation_tables builds with the level; above degree 256 the point array
itself, and the product is one gather through the table row.  cycle_string
is the one writer of cycle notation, for a Permutation and for the image
rows of a class's representatives alike.
"""

from __future__ import annotations

import re
from math import lcm

import numpy as np

_CYCLE_RE = re.compile(r"\(\s*((?:\d+[\s,]*)*)\)")
_BYTE_POINTS = bytes(range(256))    # a bytes word holds the points 0..255


class Permutation:
    __slots__ = ("images",)

    def __init__(self, images):
        """images[x] is the image of x: the points 0..n-1 in some order, as a
        sequence or an array, copied; anything else raises ValueError."""
        given = np.array(images)    # a copy: later changes to images change nothing
        n = given.size
        # checked before the cast, which would wrap or overflow on bad points
        if (given.ndim != 1 or n and given.dtype.kind not in "iu"
                or not np.array_equal(np.sort(given), np.arange(n))):
            raise ValueError(f"not a permutation of 0..{n - 1}: {images!r}")
        self.images = given.astype(point_dtype(n))
        self.images.flags.writeable = False

    @staticmethod
    def identity(degree: int) -> "Permutation":
        return unchecked(np.arange(degree, dtype=point_dtype(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __mul__(self, other: "Permutation") -> "Permutation":
        return unchecked(other.images.take(self.images))

    def inverse(self) -> "Permutation":
        inv = np.empty_like(self.images)
        inv[self.images] = np.arange(len(inv), dtype=inv.dtype)
        return unchecked(inv)

    def conjugate(self, g: "Permutation") -> "Permutation":
        """g^-1 * self * g."""
        return g.inverse() * self * g

    def is_identity(self) -> bool:
        return bool((self.images == np.arange(self.degree, dtype=self.images.dtype)).all())

    def order(self) -> int:
        return lcm(*(len(c) for c in self.cycles()))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its minimum."""
        return [tuple(c) for c in _cycles(self.images.tolist(), range(self.degree))]

    def cycle_string(self) -> str:
        return cycle_string(self.images.tolist())

    def __repr__(self) -> str:
        return f"Permutation[{self.cycle_string()}, deg={self.degree}]"

    def __eq__(self, other) -> bool:
        # one degree means one dtype, so equal bytes are equal images
        return (isinstance(other, Permutation) and self.degree == other.degree
                and self.images.tobytes() == other.images.tobytes())

    def __lt__(self, other: "Permutation") -> bool:
        """Tuple order of the images."""
        return self.images.tolist() < other.images.tolist()

    def __hash__(self) -> int:
        return hash(self.images.tobytes())


def unchecked(images: np.ndarray) -> Permutation:
    """The Permutation whose images are this point_dtype array, computed as
    a permutation by the caller: made read-only, neither checked nor copied."""
    images.flags.writeable = False
    p = Permutation.__new__(Permutation)
    p.images = images
    return p


def as_word(images: np.ndarray) -> bytes | np.ndarray:
    """The word of an element whose images are this point_dtype array, such
    as a Permutation's images or a coset-table row: its bytes up to degree
    256, where every point fits in a byte, and the array itself above."""
    return images.tobytes() if len(images) <= len(_BYTE_POINTS) else images


def point_dtype(degree: int) -> np.dtype:
    """The dtype of point arrays at this degree: the narrowest unsigned
    integer that holds the points 0..degree-1, uint8 exactly when as_word
    makes bytes words."""
    return np.min_scalar_type(degree - 1)


def from_rows(rows: np.ndarray) -> tuple[Permutation, ...]:
    """The rows of an (n, degree) array of images as Permutations, each a
    view of one read-only point_dtype copy of the rows."""
    points = rows.astype(point_dtype(rows.shape[1]))
    points.flags.writeable = False
    # a view of a read-only array is read-only: unchecked's flag write would double the time
    perms = []
    for row in points:
        p = Permutation.__new__(Permutation)
        p.images = row
        perms.append(p)
    return tuple(perms)


def cycle_string(images, names=None) -> str:
    """The permutation with these images in cycle notation, "(0 1 2)(3 4)":
    its nontrivial cycles, each from its least point, in order of least
    points, and "()" for the identity.  Point x is written names[x], by
    default str(x); writing many permutations of one degree, pass one list
    of names for all of them."""
    if names is None:
        names = [str(x) for x in range(len(images))]
    return "".join(["(" + " ".join(c) + ")" for c in _cycles(images, names)]) or "()"


def _cycles(images, names) -> list[list]:
    """The nontrivial cycles of the permutation with these images, each
    from its least point, in order of least points, with point x given as
    names[x]: its text in cycle_string, x itself for names = range(degree)."""
    seen = bytearray(len(images))
    out = []
    for i, j in enumerate(images):
        if j == i or seen[i]:
            continue
        seen[i] = 1
        cycle = [names[i]]
        while j != i:
            seen[j] = 1
            cycle.append(names[j])
            j = images[j]
        out.append(cycle)
    return out


def translation_tables(table: np.ndarray, transversal: dict[int, int], kept=(),
                       level=None) -> list[bytes | None] | None:
    """The point-indexed entries sift reads on a level with this coset table
    and transversal (orbit point -> row): up to degree 256 a list of degree
    items, at orbit point x the translation table of row transversal[x],
    its bytes padded with the identity on degree..255, and None off the
    orbit; the points in kept keep the tables level holds.  Above degree
    256 sift gathers through the table rows themselves: None."""
    degree = table.shape[1]
    if degree > len(_BYTE_POINTS):
        return None
    pad = _BYTE_POINTS[degree:]
    entries = [None] * degree
    for x in kept:
        entries[x] = level.translations[x]
    for x, r in transversal.items():
        if entries[x] is None:
            entries[x] = table[r].tobytes() + pad
    return entries


def sift(word: bytes | np.ndarray, levels,
         start: int = 0) -> tuple[bytes | np.ndarray, int]:
    """Reduce a word (as_word) through the levels of a stabilizer chain from
    level start on; returns the residue's word and the level where it
    stopped (len(levels) if it passed them all).

    Each level has a base point, a coset table, table, whose row
    transversal[x] is a v_x with v_x[x] == point for each orbit point x,
    and the residue is multiplied by v_x, word * v_x.  Up to degree 256
    that is word.translate(v) with v = translations[x], the level's
    point-indexed translation tables (translation_tables), which hold None
    off the orbit; above it, one gather through the row, row.take(word).
    All words of a chain have its degree, so one form serves all its
    levels.  sift writes nothing to the levels, so threads may share a
    chain.  A level moves its base point, so a chain of degree <= 1 has no
    levels and nothing is composed there.
    """
    # iterating the levels themselves, with no index, is measurably faster;
    # a sift that stops looks up the index of its level
    rest = levels[start:] if start else levels
    if type(word) is bytes:
        for lvl in rest:
            v = lvl.translations[word[lvl.point]]
            if v is None:
                return word, levels.index(lvl)
            word = word.translate(v)
    else:
        for lvl in rest:
            r = lvl.transversal.get(word.item(lvl.point))
            if r is None:
                return word, levels.index(lvl)
            word = lvl.table[r].take(word)
    return word, len(levels)


def parse_cycles(text: str, degree: int) -> Permutation:
    """Parse cycle notation like "(0 1 2)(3 4)" into a permutation.

    Accepts spaces or commas between points; "()" is the identity.  Cycles
    compose left to right, each in time linear in its length.
    """
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty permutation literal")
    consumed = 0
    images = np.arange(degree, dtype=point_dtype(degree))
    inv = images.copy()             # images[inv[y]] == y
    img, pre = memoryview(images), memoryview(inv)
    for m in _CYCLE_RE.finditer(stripped):
        if stripped[consumed:m.start()].strip():
            raise ValueError(f"bad permutation literal: {text!r}")
        consumed = m.end()
        body = m.group(1).strip()
        if not body:
            continue
        points = [int(tok) for tok in re.split(r"[\s,]+", body)]
        if len(set(points)) != len(points):
            raise ValueError(f"repeated point in cycle: {text!r}")
        if max(points) >= degree:
            raise ValueError(f"point {max(points)} out of range for degree {degree}")
        # the point inv[x] has image x, which the cycle sends to the next point
        at = [pre[x] for x in points]
        for i, y in zip(at, points[1:] + points[:1]):
            img[i] = y
            pre[y] = i
    if stripped[consumed:].strip():
        raise ValueError(f"bad permutation literal: {text!r}")
    return unchecked(images)
