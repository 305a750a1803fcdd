"""Finite permutation-group engine.

Two representations coexist:

* a deterministic Schreier-Sims stabilizer chain, used for orders and
  membership with no size limit.  Each level keeps one coset table, a
  read-only (orbit size, degree) array of point_dtype(degree), the
  narrowest unsigned dtype that holds the points, whose rows are the
  inverse coset representatives in breadth-first discovery order, and the
  orbit-tree edges that built it, whose Schreier generators are the
  identity.  Each strong generator is held once, as one read-only point
  array shared by every level it generates.  A rebuild scatters each new
  row from its parent's row through the generator that discovered it, and
  keeps the rows of the points reached along the same tree edges as
  before.  The tables of a chain are charged 4 bytes per entry, which no
  point dtype exceeds, against MEMORY_BUDGET; the breadth-first search
  stops as soon as an orbit has more points than the budget leaves rows
  for, and the chain raises DenseCapExceeded before its table exists; its
  generators, image tuples, and its identity word are charged at
  WORD_BYTES a point before the word is built (charge_words, which the
  constructors of groupspec call before the generators exist).  Closing
  tests the off-tree Schreier generators v_pt^-1 * s * v_s(pt) of a level
  on its table a chunk at a time (one is the identity exactly when
  s * v_s(pt) == v_pt), forms only those that fail and sifts them; a level
  keeps the pairs whose generators passed, and skips them while their
  rows stand.
  Sifting reduces words with perm.sift: up to degree 256 a word is the
  bytes of the image tuple and each product is one bytes.translate call
  through a translation table that the level built with its coset table,
  above it a point array gathered through the table row itself; a sift
  builds nothing and writes nothing to the chain, so threads may share
  one.  Sifting, membership and chain builds build no Permutation, and a
  residue is registered as a strong generator as the word sift returns;
* a dense element store (capped at 200000 elements and at MEMORY_BUDGET
  bytes, both checked against the chain's order before enumeration): one
  read-only (order, degree) int32 array of image rows in tuple order,
  built a chain level at a time by numpy gathers over each level's coset
  table.  It is the substrate for conjugacy classes, quotients and all
  character-table work; Permutations are built from it, by perm.from_rows,
  only at the API edge (elements(), ClassData.reps).

The store comes with its one element index, a RankIndex: an element is
found from its base images (the images of the chain's base points) by
ordinary Schreier-Sims sifting, done on numpy arrays for many elements at
once.  Each level's digit is the orbit index of the current base image,
read from an int32 slot array, and the later base images are gathered
through the row of the chosen coset-table entry; the digits form a
mixed-radix rank in [0, |G|), and rank -> row and rank -> class arrays
finish the lookup.  Class orbits are labelled by the least row in them,
through one int32 conjugation map per generator.  Power maps, class matrices,
ClassData.class_of(x) and quotients are numpy gathers plus these lookups
rather than a Permutation built and hashed per product; a base image off
its level's orbit raises InconsistentTable.  Element orders and power maps
take ceil(log2(max order)) doubling steps: the base images of rep^t for
t < T give those for t < 2T by one gather through the row of rep^T, which
is then squared.

Groups and their class data are immutable after construction (ClassData's
arrays are read-only), and so is a group's chain, which changes only inside
StabilizerChain.__init__.  Normal structure (solvability, normal
p-complements) is read off the character table, in invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import lcm, prod

import numpy as np

from .fplinalg import require
from .perm import (Permutation, as_word, cycle_string, from_rows, point_dtype, sift,
                   translation_tables)

DEFAULT_ENUM_CAP = 200_000
MEMORY_BUDGET = 1 << 29     # bytes: the most a group's chain, or its dense store, may hold
# bytes per point of an image tuple, an 8-byte slot and a 32-byte int under
# tracemalloc (39.99 B at degree 10^6, for the generator of C(n)); the
# chain's identity word is charged at the same rate, though above degree 256
# it is a point array of at most 4 bytes a point, so the charge is generous
WORD_BYTES = 40
_GATHER_CHUNK = 1 << 18     # entries gathered at once by the Schreier test


class DenseCapExceeded(ValueError):
    """Group is too large for dense mode, or its chain for MEMORY_BUDGET."""


def charge_words(count: int, degree: int) -> None:
    """Refuse, before they exist, count words at this degree, a group's
    generators and its chain's identity word, at WORD_BYTES a point."""
    if count * degree * WORD_BYTES > MEMORY_BUDGET:
        raise DenseCapExceeded(
            f"the generators and identity word at degree {degree} ({count} image "
            f"tuples) would pass MEMORY_BUDGET ({MEMORY_BUDGET} bytes)")


class NotNormal(ValueError):
    """A subgroup required to be normal is not."""


class _Level:
    """One level of the chain: a base point, the strong generators that fix
    the earlier base points, and one coset table over the orbit.

    table is a read-only (orbit size, degree) array of point_dtype(degree);
    its row r is v_x for the r-th orbit point x in discovery order, the
    inverse of a coset representative carrying point to x, so v_x[x] ==
    point and sifting multiplies by it directly.  transversal maps each
    orbit point to its row.  images holds the strong generators, each a
    read-only point_dtype(degree) array that every level it generates
    shares.  tree_edges maps each (point, generator index) pair that
    discovered an orbit point to that point, in discovery order; their
    Schreier generators are the identity by construction.  checked holds the pairs whose Schreier
    generators are known to sift to the identity through the levels below,
    the tree edges among them.

    translations is what perm.sift reads, built with the table by
    perm.translation_tables: up to degree 256 a list of degree items, the
    256-byte translation table of v_x at each orbit point x and None off
    the orbit; above degree 256 None, as sift gathers through the table
    rows.  A rebuild builds the tables of its new rows only.  The levels
    of a chain of degree d hold at most d + (d - 1) + ... + 2 < d(d + 1)/2
    rows, so at d = 256 their translation tables hold at most 8.1 MiB of
    bytes, under 10 MiB with their object headers and the lists: a small
    part of MEMORY_BUDGET, so they are not charged against it.
    """

    __slots__ = ("point", "images", "transversal", "table", "tree_edges", "checked",
                 "translations")

    def __init__(self, point: int, identity: np.ndarray):
        self.point = point
        self.images: list[np.ndarray] = []
        self.transversal: dict[int, int] = {point: 0}
        self.table = identity
        self.tree_edges: dict[tuple[int, int], int] = {}
        self.checked: set[tuple[int, int]] = set()
        self.translations = translation_tables(identity, self.transversal)


class StabilizerChain:
    """Deterministic Schreier-Sims base and strong generating set."""

    def __init__(self, generators: list[Permutation], degree: int):
        charge_words(len(generators) + 1, degree)
        self.degree = degree
        self._identity_table = _readonly(np.arange(degree, dtype=point_dtype(degree))[None, :])
        self.identity = as_word(self._identity_table[0])
        self.levels: list[_Level] = []
        self._table_rows = 0            # the orbit sizes summed over the levels
        self._stale: set[int] = set()   # levels given generators since they were built
        for g in generators:
            # the sift reads every level, so stale ones are rebuilt first
            for j in sorted(self._stale):
                self._rebuild_orbit(j)
            self._stale.clear()
            word, i = sift(as_word(g.images), self.levels)
            if not self._is_identity(word):
                self._register(word, i)
        self._close()

    def _rebuild_orbit(self, i: int) -> None:
        """Rebuild level i's orbit by breadth-first search from its base
        point, then its coset table in discovery order: the row of s[pt] is
        the row of pt scattered through s (s[y] -> y -> point).

        Generators are only ever appended, so a point the search reaches
        along the same tree edges as before keeps its row, its translation
        table and its checked Schreier generators; only the other rows, and
        their translation tables, are built again.  The tables of the other
        levels leave room for a cap on this level's rows under
        MEMORY_BUDGET, and the search stops as soon as it finds more points
        than that: the chain then raises DenseCapExceeded before the table
        is allocated."""
        lvl = self.levels[i]
        others = self._table_rows - len(lvl.transversal)
        cap = MEMORY_BUDGET // (4 * self.degree) - others
        row = {lvl.point: 0}
        tree: dict[tuple[int, int], int] = {}
        points = [lvl.point]
        gens = lvl.images
        for pt in points:       # grows as the search discovers points
            if len(points) > cap:
                break
            for gi, s in enumerate(gens):
                img = s.item(pt)
                if img not in row:
                    row[img] = len(points)
                    points.append(img)
                    tree[pt, gi] = img
        if len(points) > cap:
            raise DenseCapExceeded(
                f"the stabilizer chain's coset tables at degree {self.degree} "
                f"would pass MEMORY_BUDGET ({MEMORY_BUDGET} bytes)")
        kept = {lvl.point}
        for edge, img in tree.items():
            if edge[0] in kept and edge in lvl.tree_edges:
                kept.add(img)
        if len(kept) < len(lvl.transversal):
            lvl.checked = {(pt, gi) for pt, gi in lvl.checked
                           if pt in kept and gens[gi].item(pt) in kept}
        if len(kept) < len(points):
            table = np.empty((len(points), self.degree), dtype=point_dtype(self.degree))
            old, old_row = lvl.table, lvl.transversal
            # the images of the generators that discover new rows, as intp,
            # for this rebuild only: numpy scatters through an intp index
            # 2-3 times faster than through a narrower one
            scatter: dict[int, np.ndarray] = {}
            table[0] = old[0]     # the identity
            for r, ((pt, gi), img) in enumerate(tree.items(), 1):
                if img in kept:
                    table[r] = old[old_row[img]]
                else:
                    if gi not in scatter:
                        scatter[gi] = gens[gi].astype(np.intp)
                    # v_img[s[y]] = v_pt[y]
                    table[r][scatter[gi]] = table[row[pt]]
            lvl.table = _readonly(table)
            lvl.translations = translation_tables(table, row, kept, lvl)
        lvl.checked.update(tree)
        lvl.transversal, lvl.tree_edges = row, tree
        self._table_rows = others + len(points)

    def _is_identity(self, word) -> bool:
        """Whether a word of the chain's degree (as_word) is the identity."""
        return (word == self.identity if type(word) is bytes
                else np.array_equal(word, self.identity))

    def _register(self, word, i: int) -> None:
        """Add a residue word (as_word) that stopped at level i as a strong
        generator of every level whose preceding base points it fixes, one
        read-only point array shared by those levels; their orbits are
        rebuilt when next read."""
        if type(word) is bytes:
            h = np.frombuffer(word, np.uint8)
        else:
            # a residue that no level moved is still a row of the block
            # _schreier_residue formed
            h = _readonly(word if word.base is None else word.copy())
        if i == len(self.levels):
            base_pt = int(np.argmax(h != self._identity_table[0]))
            self.levels.append(_Level(base_pt, self._identity_table))
            self._table_rows += 1
        for j in range(i + 1):
            self.levels[j].images.append(h)
            self._stale.add(j)

    def _close(self) -> None:
        # Sims's criterion, deepest level first: every Schreier generator must
        # sift to identity.  A residue changes only the levels up to where it
        # stopped, so the check resumes there; the deeper levels stay closed.
        # A level is rebuilt when its check starts: the sifts of a check read
        # only deeper levels, which are closed and so built, and the residue
        # they find fixes the base points of the levels above it.
        i = len(self.levels) - 1
        while i >= 0:
            if i in self._stale:
                self._rebuild_orbit(i)
                self._stale.discard(i)
            found = self._schreier_residue(i)
            if found is None:
                i -= 1
            else:
                residue, i = found
                self._register(residue, i)

    def _schreier_residue(self, i: int) -> tuple[bytes | np.ndarray, int] | None:
        """The residue word of the first Schreier generator of level i that
        does not sift to the identity through the levels below, with the
        level where it stopped, or None.

        The generators v_pt^-1 * s * v_s(pt) are taken in (point, generator
        index) order, skipping the checked ones.  One is the identity
        exactly when s * v_s(pt) == v_pt, which is tested on the coset table
        for a chunk of them at a time; only the others are formed and
        sifted.  Those passed over before a residue, and all of them when
        there is none, are checked: the levels below only grow, so they
        stay members."""
        lvl = self.levels[i]
        row, table, gens = lvl.transversal, lvl.table, lvl.images
        pairs = [(pt, gi) for pt in sorted(row) for gi in range(len(gens))
                 if (pt, gi) not in lvl.checked]
        if not pairs:
            return None
        images = np.array(gens)
        entries = table.reshape(-1)
        chunk = max(1, _GATHER_CHUNK // self.degree)
        for c in range(0, len(pairs), chunk):
            block = pairs[c:c + chunk]
            # (row of pt, generator index, offset of the row of s[pt]) per pair
            at = np.array([x for pt, gi in block
                           for x in (row[pt], gi, row[gens[gi].item(pt)] * self.degree)],
                          dtype=np.intp).reshape(-1, 3)
            # (s * v_s(pt))[x] = v_s(pt)[s[x]]
            sw = entries[images[at[:, 1]] + at[:, 2:]]
            failed = (sw != table[at[:, 0]]).any(axis=1).nonzero()[0]
            if failed.size:
                # the generator g = v_pt^-1 * (s * v_s(pt)) has g[v_pt[x]] = sw[x]
                formed = np.empty((len(failed), self.degree), dtype=table.dtype)
                formed[np.arange(len(failed))[:, None], table[at[failed, 0]]] = sw[failed]
                for k, g in zip(failed.tolist(), formed):
                    residue, stop = sift(as_word(g), self.levels, i + 1)
                    if not self._is_identity(residue):
                        lvl.checked.update(block[:k])
                        return residue, stop
            lvl.checked.update(block)
        return None

    def order(self) -> int:
        return prod(len(lvl.transversal) for lvl in self.levels)

    def contains(self, g: Permutation) -> bool:
        images = g.images
        return (len(images) == self.degree
                and self._is_identity(sift(as_word(images), self.levels)[0]))


@dataclass(frozen=True)
class RankIndex:
    """The elements of a dense-mode group, numbered by chain rank.

    Sifting an element g through the chain takes at level i the orbit point
    x = g[b_i] of that level's base point b_i and multiplies g by the coset
    table entry v_x (v_x[x] == b_i).  The orbit index of x is the level's
    digit, and the digits d_0, d_1, ... read in mixed radix,
    d_0 + n_0 * (d_1 + n_1 * (d_2 + ...)) for orbit sizes n_i, are g's rank
    in [0, |G|).  Base images are enough to sift: the residue's images of
    the later base points are v_x[g[b_j]], one gather through the row of v_x.

    rows is the dense store, element_rows(); base holds the base points;
    slots[i] maps each point to its orbit index at level i (-1 off the
    orbit) and cosets[i] each orbit index to the row of its coset table
    entry; row_of_rank maps each rank to its row.  All are read-only.
    """

    rows: np.ndarray = field(repr=False)
    base: np.ndarray
    slots: tuple[np.ndarray, ...] = field(repr=False)
    cosets: tuple[np.ndarray, ...] = field(repr=False)
    row_of_rank: np.ndarray = field(repr=False)

    def rank(self, images: np.ndarray) -> np.ndarray:
        """Ranks of the elements with the given base-image rows (..., b).

        A point off its level's orbit raises InconsistentTable, so a lookup
        is never silently wrong."""
        rank = np.zeros(images.shape[:-1], dtype=np.int32)
        radix = 1
        for slot, coset in zip(self.slots, self.cosets):
            digit = slot[images[..., 0]]
            require(bool(digit.min(initial=0) >= 0), "a product matches no element of the group")
            rank += digit * radix
            radix *= len(coset)
            images = images[..., 1:]
            if images.shape[-1]:
                # the residue g * v_x on the later base points: v_x[g[b]]
                images = self.rows[coset[digit][..., None], images]
        return rank

    def row(self, images: np.ndarray) -> np.ndarray:
        """Row indices in rows of the elements with these base-image rows."""
        return self.row_of_rank[self.rank(images)]


@dataclass(frozen=True)
class ClassData:
    """Conjugacy classes of a dense-mode group.

    power_table is the read-only (k, max element order) int32 array whose
    entry [j, t] is the class of rep_j**t for 0 <= t < element_orders[j],
    and 0 past a class's element order; power_classes(a) gathers the class
    of rep_j**a for every j, for any integer a.

    Classes are found by chain rank: index is the group's RankIndex and
    rank_class the class of each rank.  rep_index holds the row of each
    representative in index.rows; inv_base the base images of x**-1 for
    each row x; member_index the rows of class i, in ascending row order,
    at member_offsets[i]:member_offsets[i+1].  Classes are numbered in the
    order of their least rows, and each one's least row is its
    representative.  All of them are read-only, and they are the only class
    index: class_of(x) looks x up through them.  reps builds the
    representatives as Permutations on each access, and rep_strings writes
    their rows in cycle notation without building them.
    """

    sizes: tuple[int, ...]
    element_orders: tuple[int, ...]
    exponent: int
    power_table: np.ndarray = field(repr=False, compare=False)
    index: RankIndex = field(repr=False, compare=False)
    rank_class: np.ndarray = field(repr=False, compare=False)
    rep_index: np.ndarray = field(repr=False, compare=False)
    inv_base: np.ndarray = field(repr=False, compare=False)
    member_index: np.ndarray = field(repr=False, compare=False)
    member_offsets: np.ndarray = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.sizes)

    @property
    def reps(self) -> tuple[Permutation, ...]:
        return from_rows(self.index.rows[self.rep_index])

    def rep_strings(self) -> list[str]:
        """The representatives in cycle notation, as
        Permutation.cycle_string writes them, every point named once."""
        rows = self.index.rows[self.rep_index]
        names = [str(x) for x in range(rows.shape[1])]
        # a row's ints at a time: all k rows' ints would take 40 bytes a point
        return [cycle_string(row.tolist(), names) for row in rows]

    def power_classes(self, a: int) -> np.ndarray:
        """The class of rep_j**a for each class j, by reduction mod its
        element order."""
        return self.power_table[np.arange(len(self)), a % np.array(self.element_orders)]

    def lookup(self, rows: np.ndarray) -> np.ndarray:
        """Class ids of the elements with the given base-image rows."""
        return self.rank_class[self.index.rank(rows)]

    def class_of(self, x: Permutation) -> int:
        """Class id of an element x of the group."""
        return int(self.lookup(np.array(x.images)[self.index.base]))


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Full image rows (n, degree) as keys that sort in tuple order: the
    big-endian bytes of non-negative ints compare as the ints do."""
    rows = np.ascontiguousarray(rows, dtype=">i4")
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))[:, 0]


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _build_index(levels, degree: int) -> RankIndex:
    """Enumerate the group from its chain's levels and index it by rank.

    Each level's coset table is read as it is, an array of the chain's
    point dtype, and gathered into int32 rows.  Row
    e_0 + n_0 * (e_1 + n_1 * ...) of the enumeration is v_e0 * v_e1 * ...,
    the product of entry e_i of each level i; each level's first entry is
    the identity, so level i's entry e alone is row e * n_0 * ... * n_(i-1).
    The rows are then sorted into tuple order, and each level keeps only
    the sorted rows of its entries.
    """
    tables = [lvl.table for lvl in levels]
    rows = np.arange(degree, dtype=np.int32)[None, :]
    for v in reversed(tables):
        # (v * x)[b] = x[v[b]], for every row x and every entry v
        rows = rows[:, v].reshape(len(rows) * len(v), degree)
    # with no levels the one row, the identity, is in order (at any degree)
    order = np.argsort(_row_keys(rows)) if levels else np.zeros(1, dtype=np.intp)
    rows = _readonly(rows[order])
    sorted_row = np.empty(len(order), dtype=np.int32)
    sorted_row[order] = np.arange(len(order), dtype=np.int32)
    slots, cosets, radix = [], [], 1
    for lvl, v in zip(levels, tables):
        slot = np.full(degree, -1, dtype=np.int32)
        slot[list(lvl.transversal)] = np.arange(len(v), dtype=np.int32)
        slots.append(_readonly(slot))
        cosets.append(_readonly(sorted_row[radix * np.arange(len(v))]))
        radix *= len(v)
    base = _readonly(np.array([lvl.point for lvl in levels], dtype=np.intp))
    index = RankIndex(rows=rows, base=base, slots=tuple(slots), cosets=tuple(cosets),
                      row_of_rank=np.full(len(rows), -1, dtype=np.int32))
    index.row_of_rank[index.rank(rows[:, base])] = np.arange(len(rows))
    require(index.row_of_rank.min() >= 0, "base images must determine the element")
    _readonly(index.row_of_rank)
    return index


def _power_table(index: RankIndex, rank_class: np.ndarray,
                 rep_index: np.ndarray) -> tuple[tuple[int, ...], np.ndarray]:
    """Element orders of the representatives and the read-only int32
    (k, max order) table of the class of rep_j**t at [j, t], by doubling.

    power holds the base images of rep**t for 1 <= t <= T, and at the row
    of rep**T; one gather through that row gives t <= 2T,
    (rep**t * rep**T)[b] = rep**T[rep**t[b]], and the row of rep**2T is
    found by rank.  Doubling stops once every rep is back at the base; its
    order is the first t where it is, and rep**0 is the identity, class 0.
    """
    rows, base = index.rows, index.base
    k = len(rep_index)
    power = rows[rep_index[:, None, None], base]
    at = rep_index
    done = (power[:, 0] == base).all(axis=1)
    while not done.all():
        block = rows[at[:, None, None], power]       # rep**(T + t)
        back = (block == base).all(axis=2)
        first = ~done & back.any(axis=1)
        done |= first
        if done.all():      # the last step: t up to the largest order is enough
            block = block[:, :back[first].argmax(axis=1).max() + 1]
        else:
            at = index.row(block[:, -1])
        power = np.concatenate([power, block], axis=1)
        del block, back     # before the next step allocates twice as much
    orders = (power == base).all(axis=2).argmax(axis=1) + 1
    table = np.zeros((k, orders.max()), dtype=np.int32)
    power = power[:, :table.shape[1] - 1]
    chunk = max(1, (1 << 18) // max(1, power[0].size))
    for i in range(0, k, chunk):
        table[i:i + chunk, 1:] = rank_class[index.rank(power[i:i + chunk])]
    return tuple(orders.tolist()), _readonly(table)


class PermGroup:
    """A group generated by permutations of a common degree."""

    def __init__(self, generators, degree: int):
        generators = tuple(generators)
        for g in generators:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != group degree {degree}")
        self.degree = degree
        self.generators = tuple(g for g in generators if not g.is_identity())
        self._chain: StabilizerChain | None = None
        self._index: RankIndex | None = None
        self._classes: ClassData | None = None

    # -- structure ---------------------------------------------------------

    @property
    def chain(self) -> StabilizerChain:
        if self._chain is None:
            self._chain = StabilizerChain(list(self.generators), self.degree)
        return self._chain

    def order(self) -> int:
        return self.chain.order()

    def __contains__(self, g: Permutation) -> bool:
        return self.chain.contains(g)

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def element_rows(self) -> np.ndarray:
        """All elements as a read-only (order, degree) int32 array of image
        rows in tuple order (dense mode), read off the chain as the products
        v_0 * v_1 * ... of one coset-table entry per level."""
        return self._dense().rows

    def _dense(self) -> RankIndex:
        """The dense store with its index by chain rank, built together once.

        The store is charged against MEMORY_BUDGET before it exists, at 8
        bytes per element and point: its int32 rows with their sort keys in
        _build_index, or with the inverse rows of _compute_classes.  Ranking
        the rows gathers their base images, 16 bytes per element and base
        point at the most, so those are charged too."""
        if self._index is None:
            order = self.order()
            if order > DEFAULT_ENUM_CAP:
                raise DenseCapExceeded(
                    f"group has more than {DEFAULT_ENUM_CAP} elements: "
                    "too large for dense mode")
            if 8 * order * (self.degree + 2 * len(self.chain.levels)) > MEMORY_BUDGET:
                raise DenseCapExceeded(
                    f"the dense store of {order} elements at degree {self.degree} "
                    f"would pass MEMORY_BUDGET ({MEMORY_BUDGET} bytes)")
            self._index = _build_index(self.chain.levels, self.degree)
        return self._index

    def elements(self) -> tuple[Permutation, ...]:
        """All elements as Permutations, in the order of element_rows()."""
        return from_rows(self.element_rows())

    def subgroup(self, generators) -> "PermGroup":
        return PermGroup(generators, self.degree)

    # -- conjugacy classes --------------------------------------------------

    def conjugacy_classes(self) -> ClassData:
        if self._classes is None:
            self._classes = self._compute_classes()
        return self._classes

    def _compute_classes(self) -> ClassData:
        """The classes as orbits on the rows of element_rows() under
        conjugation by the generators, each map an int32 array of rows.

        Every row is labelled by the least row of its orbit, by min-label
        propagation with pointer jumping: label = minimum(label, label[c])
        over the maps c, then label = label[label], until nothing changes.
        The rows that keep their own labels are the representatives, in
        ascending order, which numbers the classes; the members of each
        class are listed in ascending row order."""
        index = self._dense()
        images, base = index.rows, index.base
        n = len(images)
        inverses = np.empty_like(images)
        inverses[np.arange(n)[:, None], images] = np.arange(self.degree, dtype=np.int32)
        inv_base = _readonly(inverses[:, base])
        del inverses

        # conjugation by each generator as an index map on element_rows():
        # (g^-1 x g)[b] = g[x[g^-1[b]]] under left-to-right composition
        conj = []
        for g in self.generators:
            g_arr = np.array(g.images, dtype=np.int32)
            g_inv = np.array(g.inverse().images, dtype=np.intp)
            conj.append(index.row(g_arr[images[:, g_inv[base]]]))

        # a label only falls, and only to a row of the same class; once no map
        # and no jump lowers one, labels agree along every map (each permutes
        # the class's rows), so each class holds one label: its least row,
        # which keeps its own
        label = np.arange(n, dtype=np.int32)
        while True:
            last = label.copy()
            for c in conj:
                np.minimum(label, label[c], out=label)
            label = label[label]
            if np.array_equal(label, last):
                break
        del conj, last
        rep_index = np.flatnonzero(label == np.arange(n))
        class_of_rep = np.zeros(n, dtype=np.int32)
        class_of_rep[rep_index] = np.arange(len(rep_index), dtype=np.int32)
        assigned = class_of_rep[label]
        sizes = np.bincount(assigned, minlength=len(rep_index))
        rank_class = _readonly(assigned[index.row_of_rank])
        orders, power_table = _power_table(index, rank_class, rep_index)
        return ClassData(
            sizes=tuple(sizes.tolist()),
            element_orders=orders,
            exponent=lcm(*orders),
            power_table=power_table,
            index=index,
            rank_class=rank_class,
            rep_index=_readonly(rep_index),
            inv_base=inv_base,
            member_index=_readonly(np.argsort(assigned, kind="stable")),
            member_offsets=_readonly(np.concatenate([[0], np.cumsum(sizes)])),
        )

    # -- normal structure ----------------------------------------------------

    def is_solvable(self) -> bool:
        from .chartable import compute_table
        from .invariants import is_solvable
        return is_solvable(compute_table(self))

    def has_normal_p_complement(self, p: int) -> bool:
        from .chartable import compute_table
        from .invariants import has_normal_p_complement
        return has_normal_p_complement(compute_table(self), p)

    # -- quotients -----------------------------------------------------------

    def is_central_subgroup(self, z: "PermGroup") -> bool:
        return all(x in self and all(x * g == g * x for g in self.generators)
                   for x in z.generators)

    def check_normal(self, n: "PermGroup") -> None:
        if not all(x in self for x in n.generators):
            raise NotNormal("subgroup is not contained in the group")
        if not all(x.conjugate(g) in n for x in n.generators for g in self.generators):
            raise NotNormal("subgroup is not normal")

    def quotient_by(self, n: "PermGroup") -> "PermGroup":
        """Faithful action of G/N on the cosets of N, numbered in the order
        of their first rows in element_rows()."""
        self.check_normal(n)
        index = self._dense()
        rows, base = index.rows, index.base
        n_base = n.element_rows()[:, base]
        coset = np.full(len(rows), -1, dtype=np.intp)
        reps: list[int] = []
        for x in range(len(rows)):
            if coset[x] < 0:
                # the coset N x: (h * x)[b] = x[h[b]]
                coset[index.row(rows[x][n_base])] = len(reps)
                reps.append(x)
        require(len(reps) * n.order() == self.order(), "cosets of N must partition G")
        quot_gens = []
        for g in self.generators:
            # (rep * g)[b] = g[rep[b]]
            products = np.array(g.images, dtype=np.int32)[rows[reps][:, base]]
            images = coset[index.row(products)]
            quot_gens.append(Permutation(images.tolist(), True))
        return PermGroup(quot_gens, len(reps))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


def direct_product(a: PermGroup, b: PermGroup) -> PermGroup:
    """A x B acting on the disjoint union of their point sets."""
    deg = a.degree + b.degree
    charge_words(len(a.generators) + len(b.generators) + 1, deg)
    fixed_a, fixed_b = tuple(range(a.degree)), tuple(range(a.degree, deg))
    gens = [Permutation(g.images + fixed_b, True) for g in a.generators]
    gens += [Permutation(fixed_a + tuple(i + a.degree for i in g.images), True)
             for g in b.generators]
    return PermGroup(gens, deg)
