"""Finite permutation-group engine.

Two representations coexist:

* a deterministic Schreier-Sims stabilizer chain, used for orders and
  membership with no size limit.  Each level keeps one coset table, the
  image tuples of the inverse coset representatives, which sifting
  multiplies by directly, and the orbit-tree edges that built it, whose
  Schreier generators are the identity and are skipped when closing.
  Products, inverses and the sift loop itself are the image-tuple kernels
  of perm.py (compose, invert, sift); sifting, membership and orbit
  building build no Permutation.  Closing tests every off-tree Schreier
  generator v_pt^-1 * s * v_s(pt) on the coset table (it is the identity
  exactly when s * v_s(pt) == v_pt) and forms and sifts only those that
  fail; a chain build creates a Permutation only for each residue it
  registers as a strong generator.  StabilizerChain.extend grows a chain
  in place, and a normal closure keeps the chain it grew;
* a dense element store (capped at 200000 elements, checked against the
  chain's order before enumeration): one read-only (order, degree) int32
  array of image rows in tuple order, built a chain level at a time by
  numpy gathers.  It is the substrate for conjugacy classes, quotients
  and all character-table work; Permutations are built from it only at
  the API edge (elements(), ClassData.reps).

Classes are identified by base images, the images of the chain's base
points, which determine an element.  ClassData holds them as exact sorted
keys with their class ids, its one class index: class orbits, power maps,
class matrices and ClassData.class_of(x) are numpy gathers plus one
np.searchsorted lookup rather than a Permutation built and hashed per
product; a row that matches no element raises InconsistentTable.  Element
orders are read off the power iteration: each representative's powers on
the base points are taken until it is back at the base.  A normal
p-complement is decided on the p'-classes by the same lookups.

Groups and their class data are immutable after construction (ClassData's
arrays are read-only), and so is a group's chain: only extend changes a
chain, and normal_closure calls it before the subgroup it returns exists.
The lazy caches are write-once and safe to share across threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import combinations
from math import lcm, prod

import numpy as np

from .arith import check_prime, pprime_part
from .fplinalg import require
from .perm import Permutation, compose, invert, sift

DEFAULT_ENUM_CAP = 200_000


class DenseCapExceeded(ValueError):
    """Group is too large for dense mode."""


class NotNormal(ValueError):
    """A subgroup required to be normal is not."""


class _Level:
    """One level of the chain: a base point, the strong generators that fix
    the earlier base points, and one coset table over the orbit.

    transversal maps each orbit point x to the image tuple of v_x, the
    inverse of a coset representative carrying point to x, so
    v_x[x] == point: sifting multiplies by it directly.  tree_edges holds
    the (point, generator index) pairs that discovered an orbit point;
    their Schreier generators are the identity by construction.
    """

    __slots__ = ("point", "gens", "transversal", "tree_edges")

    def __init__(self, point: int, identity: tuple[int, ...]):
        self.point = point
        self.gens: list[Permutation] = []
        self.transversal: dict[int, tuple[int, ...]] = {point: identity}
        self.tree_edges: set[tuple[int, int]] = set()


class StabilizerChain:
    """Deterministic Schreier-Sims base and strong generating set."""

    def __init__(self, generators: list[Permutation], degree: int):
        self.degree = degree
        self.identity = tuple(range(degree))
        self.levels: list[_Level] = []
        for g in generators:
            self._add(g.images)
        self._close()

    def _rebuild_orbit(self, i: int) -> None:
        lvl = self.levels[i]
        lvl.transversal = table = {lvl.point: self.identity}
        lvl.tree_edges = set()
        gens = [(s.images, invert(s.images)) for s in lvl.gens]
        queue = deque([lvl.point])
        while queue:
            pt = queue.popleft()
            v = table[pt]
            for gi, (s, s_inv) in enumerate(gens):
                img = s[pt]
                if img not in table:
                    table[img] = compose(s_inv, v)     # img -> pt -> point
                    lvl.tree_edges.add((pt, gi))
                    queue.append(img)

    def sift(self, images: tuple[int, ...], start: int = 0) -> tuple[tuple[int, ...], int]:
        """Reduce the image tuple of an element through the chain; returns
        the image tuple of the residue and the level where it stopped."""
        return sift(images, self.levels, start)

    def extend(self, g: Permutation) -> bool:
        """Add g to the group unless it is already a member, then restore the
        strong generating set; returns whether the group grew."""
        if self._add(g.images) < 0:
            return False
        self._close()
        return True

    def _add(self, images: tuple[int, ...]) -> int:
        """Register the residue of the element with these images; returns the
        level where it stopped, or -1 if the element is already a member."""
        images, i = self.sift(images)
        if images == self.identity:
            return -1
        if i == len(self.levels):
            base_pt = min(p for p in range(self.degree) if images[p] != p)
            self.levels.append(_Level(base_pt, self.identity))
        h = Permutation(images, _checked=True)
        # register at every level whose preceding base points h fixes
        for j in range(i + 1):
            self.levels[j].gens.append(h)
            self._rebuild_orbit(j)
        return i

    def _close(self) -> None:
        # Sims's criterion, deepest level first: every Schreier generator must
        # sift to identity.  A residue changes only the levels up to where it
        # stopped, so the check resumes there; the deeper levels stay closed.
        i = len(self.levels) - 1
        while i >= 0:
            residue = self._schreier_residue(i)
            i = i - 1 if residue is None else self._add(residue)

    def _schreier_residue(self, i: int) -> tuple[int, ...] | None:
        """The residue images of the first Schreier generator of level i that
        does not sift to the identity through the levels below, or None."""
        lvl = self.levels[i]
        table = lvl.transversal
        gens = [s.images for s in lvl.gens]
        for pt in sorted(table):
            v = table[pt]
            u = None
            for gi, s in enumerate(gens):
                # a tree edge's, v_pt^-1 * s * (s^-1 * v_pt), is the identity as built
                if (pt, gi) in lvl.tree_edges:
                    continue
                # v_pt^-1 * s * w is the identity exactly when s * w == v_pt
                sw = compose(s, table[s[pt]])
                if sw == v:
                    continue
                if u is None:
                    u = invert(v)
                residue, _ = self.sift(compose(u, sw), i + 1)
                if residue != self.identity:
                    return residue
        return None

    def order(self) -> int:
        return prod(len(lvl.transversal) for lvl in self.levels)

    def contains(self, g: Permutation) -> bool:
        images = g.images
        return len(images) == self.degree and sift(images, self.levels)[0] == self.identity


@dataclass(frozen=True)
class ClassData:
    """Conjugacy classes of a dense-mode group.

    power_map[j][k] is the class of rep_j**k for 0 <= k < element_orders[j];
    class_power extends to arbitrary k by reduction mod the element order.
    Each power_map[j] is a read-only int view of length element_orders[j]
    into one (k, max element order) array.

    The array fields identify classes by base images (the images of the
    chain's base points, which determine an element): base holds the base
    points, keys the base-image rows of all elements in sorted key order and
    key_class the class of each; rep_images the full image rows of the reps;
    inv_base the base images of x**-1 for each row x of element_rows();
    member_index the element indices of class i at
    member_offsets[i]:member_offsets[i+1].  All of them are read-only, and
    they are the only class index: class_of(x) looks x up through them.
    """

    reps: tuple[Permutation, ...]
    sizes: tuple[int, ...]
    element_orders: tuple[int, ...]
    power_map: tuple[np.ndarray, ...] = field(compare=False)
    exponent: int
    base: np.ndarray = field(repr=False, compare=False)
    keys: np.ndarray = field(repr=False, compare=False)
    key_class: np.ndarray = field(repr=False, compare=False)
    rep_images: np.ndarray = field(repr=False, compare=False)
    inv_base: np.ndarray = field(repr=False, compare=False)
    member_index: np.ndarray = field(repr=False, compare=False)
    member_offsets: np.ndarray = field(repr=False, compare=False)

    def __len__(self) -> int:
        return len(self.reps)

    def class_power(self, j: int, k: int) -> int:
        return int(self.power_map[j][k % self.element_orders[j]])

    def inverse_class(self, j: int) -> int:
        return self.class_power(j, self.element_orders[j] - 1)

    def lookup(self, rows: np.ndarray) -> np.ndarray:
        """Class ids of the elements with the given base-image rows."""
        return self.key_class[_search(self.keys, _as_keys(rows))]

    def class_of(self, x: Permutation) -> int:
        """Class id of an element x of the group."""
        return int(self.lookup(np.array([x.images])[:, self.base])[0])


def _as_keys(rows: np.ndarray) -> np.ndarray:
    """Rows (..., b) of base images as one exact byte-string key each."""
    rows = np.ascontiguousarray(rows, dtype=np.int32)
    if rows.shape[-1] == 0:     # trivial group: empty base, a single element
        rows = np.zeros(rows.shape[:-1] + (1,), dtype=np.int32)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[-1])))[..., 0]


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Full image rows (..., degree) as keys that sort in tuple order: the
    big-endian bytes of non-negative ints compare as the ints do."""
    return _as_keys(np.ascontiguousarray(rows, dtype=">i4").view(np.int32))


def _search(keys: np.ndarray, wanted: np.ndarray) -> np.ndarray:
    """Positions of the wanted keys among the sorted keys.

    A key that matches none raises InconsistentTable, so a lookup is never
    silently wrong.
    """
    pos = np.searchsorted(keys, wanted)
    np.minimum(pos, len(keys) - 1, out=pos)
    require(bool(np.all(keys[pos] == wanted)),
            "a product matches no element of the group")
    return pos


def _readonly(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _permutations(rows: np.ndarray) -> tuple[Permutation, ...]:
    """The image rows as Permutations, built a row at a time; their image
    tuples share one tuple of point ints instead of an int object per entry."""
    points = tuple(range(rows.shape[1]))
    return tuple(Permutation(compose(row.tolist(), points), _checked=True) for row in rows)


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
        self._rows: np.ndarray | None = None
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

    def is_trivial(self) -> bool:
        return not self.generators

    def element_rows(self) -> np.ndarray:
        """All elements as a read-only (order, degree) int32 array of image
        rows in tuple order (dense mode), read off the chain as the products
        v_0 * v_1 * ... of one coset-table entry per level."""
        if self._rows is None:
            if self.order() > DEFAULT_ENUM_CAP:
                raise DenseCapExceeded(
                    f"group has more than {DEFAULT_ENUM_CAP} elements: "
                    "too large for dense mode")
            rows = np.arange(self.degree, dtype=np.int32)[None, :]
            for lvl in reversed(self.chain.levels):
                v = np.array(list(lvl.transversal.values()), dtype=np.intp)
                # (v * x)[b] = x[v[b]], for every row x and every entry v
                rows = rows[:, v].reshape(len(rows) * len(v), self.degree)
            self._rows = _readonly(rows[np.argsort(_row_keys(rows))])
        return self._rows

    def elements(self) -> tuple[Permutation, ...]:
        """All elements as Permutations, in the order of element_rows()."""
        return _permutations(self.element_rows())

    def subgroup(self, generators) -> "PermGroup":
        return PermGroup(generators, self.degree)

    # -- conjugacy classes --------------------------------------------------

    def conjugacy_classes(self) -> ClassData:
        if self._classes is None:
            self._classes = self._compute_classes()
        return self._classes

    def _compute_classes(self) -> ClassData:
        images = self.element_rows()
        n = len(images)
        base = np.array([lvl.point for lvl in self.chain.levels], dtype=np.intp)
        inverses = np.empty_like(images)
        inverses[np.arange(n)[:, None], images] = np.arange(self.degree, dtype=np.int32)
        unsorted_keys = _as_keys(images[:, base])
        key_order = np.argsort(unsorted_keys)
        keys = unsorted_keys[key_order]
        require(bool(np.all(keys[1:] != keys[:-1])), "base images must determine the element")

        # conjugation by each generator as an index map on element_rows():
        # (g^-1 x g)[b] = g[x[g^-1[b]]] under left-to-right composition
        conj = []
        for g in self.generators:
            g_arr = np.array(g.images, dtype=np.int32)
            g_inv = np.array(g.inverse().images, dtype=np.intp)
            conj.append(key_order[_search(keys, _as_keys(g_arr[images[:, g_inv[base]]]))].tolist())

        assigned = [-1] * n
        rep_index: list[int] = []
        orbits: list[list[int]] = []
        for x in range(n):
            if assigned[x] >= 0:
                continue
            idx = len(rep_index)
            orbit = [x]
            assigned[x] = idx
            head = 0
            while head < len(orbit):
                y = orbit[head]
                head += 1
                for c in conj:
                    z = c[y]
                    if assigned[z] < 0:
                        assigned[z] = idx
                        orbit.append(z)
            rep_index.append(x)
            orbits.append(orbit)
        sizes = tuple(len(m) for m in orbits)
        key_class = np.array(assigned, dtype=np.intp)[key_order]

        # power maps on the base columns only, rep^t[b] = rep[rep^(t-1)[b]],
        # until every rep is back at the base: rep^t is then the identity,
        # so the step count is the element order
        k = len(rep_index)
        rep_images = images[rep_index]
        power = np.broadcast_to(base.astype(np.int32), (k, len(base)))
        powers, orders = [], np.zeros(k, dtype=np.intp)
        while not orders.all():
            powers.append(power)
            power = rep_images[np.arange(k)[:, None], power]
            orders[(orders == 0) & np.all(power == base, axis=1)] = len(powers)
        # (k, max order): the class of rep_j^t at [j, t]
        power_table = _readonly(key_class[_search(keys, _as_keys(np.stack(powers, axis=1)))])
        orders = tuple(orders.tolist())
        return ClassData(
            reps=_permutations(rep_images),
            sizes=sizes,
            element_orders=orders,
            power_map=tuple(power_table[j, :m] for j, m in enumerate(orders)),
            exponent=lcm(*orders),
            base=_readonly(base),
            keys=_readonly(keys),
            key_class=_readonly(key_class),
            rep_images=_readonly(rep_images),
            inv_base=_readonly(inverses[:, base]),
            member_index=_readonly(np.concatenate(orbits)),
            member_offsets=_readonly(np.cumsum([0, *sizes])),
        )

    # -- normal structure ----------------------------------------------------

    def normal_closure(self, seeds) -> "PermGroup":
        """Smallest normal subgroup of self containing the seed elements."""
        seeds = [s for s in seeds if not s.is_identity()]
        for s in seeds:
            if s not in self:
                raise ValueError("seed element lies outside the group")
        closure_gens: list[Permutation] = []
        chain = StabilizerChain([], self.degree)
        todo = deque(seeds)
        while todo:
            x = todo.popleft()
            if chain.extend(x):
                closure_gens.append(x)
                todo.extend(x.conjugate(g) for g in self.generators)
        closure = self.subgroup(closure_gens)
        closure._chain = chain      # the chain built here already spans it
        return closure

    def derived_subgroup(self) -> "PermGroup":
        return self.normal_closure(a.inverse() * b.inverse() * a * b
                                   for a, b in combinations(self.generators, 2))

    def derived_series(self) -> list["PermGroup"]:
        series = [self]
        while True:
            nxt = series[-1].derived_subgroup()
            if nxt.order() == series[-1].order():
                break
            series.append(nxt)
            if nxt.is_trivial():
                break
        return series

    def is_solvable(self) -> bool:
        return self.derived_series()[-1].order() == 1

    def has_normal_p_complement(self, p: int) -> bool:
        """Does G have a normal p-complement?  Let S be the members of the
        classes of element order prime to p.  A normal p-complement K holds
        every p'-element g (gK has p-power order in G/K and order prime to
        p), so K = S.  Conversely, let |S| = |G|_{p'} and S*r lie in S for
        each p'-class representative r.  S is a union of classes, so each
        x = r^g in S gives S*x = (S*r)^g in S: S is closed, a normal
        subgroup of p'-order and p-power index."""
        check_prime(p)
        order = self.order()
        if order % p:
            return True     # G is its own p-complement
        cd = self.conjugacy_classes()
        inside = np.array([m % p != 0 for m in cd.element_orders])
        members = cd.member_index[np.repeat(inside, cd.sizes)]
        if len(members) != pprime_part(order, p):
            return False
        # (x * r)[b] = r[x[b]]; at most |G| products per lookup
        bases = self.element_rows()[np.ix_(members, cd.base)]
        reps = cd.rep_images[inside]
        chunk = order // len(members)
        return all(inside[cd.lookup(reps[i:i + chunk][:, bases])].all()
                   for i in range(0, len(reps), chunk))

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
        rows, n_rows = self.element_rows(), n.element_rows()
        keys = _row_keys(rows)
        coset = np.full(len(rows), -1, dtype=np.intp)
        reps: list[int] = []
        for x in range(len(rows)):
            if coset[x] < 0:
                # the coset N x: (h * x)[b] = x[h[b]]
                coset[_search(keys, _row_keys(rows[x][n_rows]))] = len(reps)
                reps.append(x)
        require(len(reps) * n.order() == self.order(), "cosets of N must partition G")
        quot_gens = []
        for g in self.generators:
            # (rep * g)[b] = g[rep[b]]
            products = np.array(g.images, dtype=np.int32)[rows[reps]]
            images = coset[_search(keys, _row_keys(products))]
            quot_gens.append(Permutation(images.tolist(), _checked=True))
        return PermGroup(quot_gens, len(reps))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


def direct_product(a: PermGroup, b: PermGroup) -> PermGroup:
    """A x B acting on the disjoint union of their point sets."""
    deg = a.degree + b.degree
    fixed_a, fixed_b = tuple(range(a.degree)), tuple(range(a.degree, deg))
    gens = [Permutation(g.images + fixed_b, _checked=True) for g in a.generators]
    gens += [Permutation(fixed_a + tuple(i + a.degree for i in g.images), _checked=True)
             for g in b.generators]
    return PermGroup(gens, deg)
