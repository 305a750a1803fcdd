"""Finite permutation-group engine.

Two representations coexist:

* a deterministic Schreier-Sims stabilizer chain, used for orders and
  membership with no size limit, and
* a dense element store (capped at 200000 elements, checked against the
  chain's order before enumeration), which is the substrate for conjugacy
  classes and all character-table work.

Everything is immutable after construction; the lazy caches are
write-once and safe to share across threads.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from math import lcm

from .arith import check_prime, pprime_part
from .fplinalg import require
from .perm import Permutation

DEFAULT_ENUM_CAP = 200_000


class DenseCapExceeded(ValueError):
    """Group is too large for dense mode."""


class NotNormal(ValueError):
    """A subgroup required to be normal is not."""


class _Level:
    __slots__ = ("point", "gens", "transversal", "inverses")

    def __init__(self, point: int, degree: int):
        self.point = point
        self.gens: list[Permutation] = []
        self.transversal: dict[int, Permutation] = {point: Permutation.identity(degree)}
        self.inverses: dict[int, Permutation] = {point: Permutation.identity(degree)}


class StabilizerChain:
    """Deterministic Schreier-Sims base and strong generating set."""

    def __init__(self, generators: list[Permutation], degree: int):
        self.degree = degree
        self.levels: list[_Level] = []
        for g in generators:
            self._add(g)
        self._close()

    def _rebuild_orbit(self, i: int) -> None:
        lvl = self.levels[i]
        ident = Permutation.identity(self.degree)
        lvl.transversal = {lvl.point: ident}
        lvl.inverses = {lvl.point: ident}
        queue = deque([lvl.point])
        while queue:
            pt = queue.popleft()
            u = lvl.transversal[pt]
            for s in lvl.gens:
                img = s.images[pt]
                if img not in lvl.transversal:
                    t = u * s
                    lvl.transversal[img] = t
                    lvl.inverses[img] = t.inverse()
                    queue.append(img)

    def sift(self, g: Permutation, start: int = 0) -> tuple[Permutation, int]:
        """Reduce g through the chain; returns (residue, stuck level)."""
        for i in range(start, len(self.levels)):
            lvl = self.levels[i]
            img = g.images[lvl.point]
            if img not in lvl.transversal:
                return g, i
            g = g * lvl.inverses[img]
        return g, len(self.levels)

    def _add(self, g: Permutation) -> None:
        h, i = self.sift(g)
        if h.is_identity():
            return
        if i == len(self.levels):
            base_pt = min(p for p in range(self.degree) if h.images[p] != p)
            self.levels.append(_Level(base_pt, self.degree))
        # register at every level whose preceding base points h fixes
        for j in range(i + 1):
            self.levels[j].gens.append(h)
            self._rebuild_orbit(j)

    def _close(self) -> None:
        # Sims's criterion: every Schreier generator must sift to identity.
        restart = True
        while restart:
            restart = False
            for i in reversed(range(len(self.levels))):
                lvl = self.levels[i]
                for pt in sorted(lvl.transversal):
                    u = lvl.transversal[pt]
                    for s in list(lvl.gens):
                        img = s.images[pt]
                        schreier = u * s * lvl.inverses[img]
                        residue, _ = self.sift(schreier, i + 1)
                        if not residue.is_identity():
                            self._add(residue)
                            restart = True
                            break
                    if restart:
                        break
                if restart:
                    break

    def order(self) -> int:
        n = 1
        for lvl in self.levels:
            n *= len(lvl.transversal)
        return n

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        residue, _ = self.sift(g)
        return residue.is_identity()


@dataclass(frozen=True)
class ClassData:
    """Conjugacy classes of a dense-mode group.

    power_map[j][k] is the class of rep_j**k for 0 <= k < element_orders[j];
    class_power extends to arbitrary k by reduction mod the element order.
    """

    reps: tuple[Permutation, ...]
    sizes: tuple[int, ...]
    element_orders: tuple[int, ...]
    class_of: dict[Permutation, int]
    power_map: tuple[tuple[int, ...], ...]
    exponent: int
    members: tuple[tuple[Permutation, ...], ...] = field(repr=False, default=())

    def __len__(self) -> int:
        return len(self.reps)

    def class_power(self, j: int, k: int) -> int:
        return self.power_map[j][k % self.element_orders[j]]

    def inverse_class(self, j: int) -> int:
        return self.class_power(j, self.element_orders[j] - 1)


class PermGroup:
    """A group generated by permutations of a common degree."""

    def __init__(self, generators, degree: int):
        gens = tuple(g for g in generators if not g.is_identity())
        for g in gens:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != group degree {degree}")
        self.degree = degree
        self.generators = gens
        self._chain: StabilizerChain | None = None
        self._elements: tuple[Permutation, ...] | None = None
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

    def elements(self) -> tuple[Permutation, ...]:
        """All elements in a stable sorted order (dense mode), read off the
        chain: one transversal representative per level, deepest first."""
        if self._elements is None:
            if self.order() > DEFAULT_ENUM_CAP:
                raise DenseCapExceeded(
                    f"group has more than {DEFAULT_ENUM_CAP} elements: "
                    "too large for dense mode")
            elems = [self.identity()]
            for lvl in reversed(self.chain.levels):
                elems = [x * u for x in elems for u in lvl.transversal.values()]
            self._elements = tuple(sorted(elems))
        return self._elements

    def subgroup(self, generators) -> "PermGroup":
        return PermGroup(generators, self.degree)

    # -- conjugacy classes --------------------------------------------------

    def conjugacy_classes(self) -> ClassData:
        if self._classes is None:
            self._classes = self._compute_classes()
        return self._classes

    def _compute_classes(self) -> ClassData:
        elems = self.elements()
        gen_invs = [(g, g.inverse()) for g in self.generators]
        assigned: dict[Permutation, int] = {}
        reps: list[Permutation] = []
        members: list[tuple[Permutation, ...]] = []
        for x in elems:
            if x in assigned:
                continue
            idx = len(reps)
            orbit = [x]
            assigned[x] = idx
            head = 0
            while head < len(orbit):
                y = orbit[head]
                head += 1
                for g, gi in gen_invs:
                    z = gi * y * g
                    if z not in assigned:
                        assigned[z] = idx
                        orbit.append(z)
            reps.append(x)
            members.append(tuple(orbit))
        sizes = tuple(len(m) for m in members)
        orders = tuple(r.order() for r in reps)
        power_map = []
        for j, rep in enumerate(reps):
            row = [assigned[self.identity()]]
            p = self.identity()
            for _ in range(orders[j] - 1):
                p = p * rep
                row.append(assigned[p])
            power_map.append(tuple(row))
        exponent = lcm(*orders)
        return ClassData(
            reps=tuple(reps),
            sizes=sizes,
            element_orders=orders,
            class_of=assigned,
            power_map=tuple(power_map),
            exponent=exponent,
            members=tuple(members),
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
            if chain.contains(x):
                continue
            closure_gens.append(x)
            chain._add(x)
            chain._close()
            for g in self.generators:
                todo.append(x.conjugate(g))
        return self.subgroup(closure_gens)

    def derived_subgroup(self) -> "PermGroup":
        comms = []
        gens = self.generators
        for i, a in enumerate(gens):
            for b in gens[i + 1:]:
                comms.append(a.inverse() * b.inverse() * a * b)
        return self.normal_closure(comms)

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

    def p_residual(self, p: int) -> "PermGroup":
        """O^p(G): normal closure of all elements of order coprime to p."""
        check_prime(p)
        cd = self.conjugacy_classes()
        seeds = [rep for rep, o in zip(cd.reps, cd.element_orders) if o % p != 0]
        return self.normal_closure(seeds)

    def has_normal_p_complement(self, p: int) -> bool:
        check_prime(p)
        residual = self.p_residual(p)
        if residual.order() % p != 0:
            require(residual.order() == pprime_part(self.order(), p),
                    "normal p-complement must have the p'-order of the group")
            return True
        return False

    # -- quotients -----------------------------------------------------------

    def is_central_subgroup(self, z: "PermGroup") -> bool:
        for x in z.generators:
            if x not in self:
                return False
            for g in self.generators:
                if x * g != g * x:
                    return False
        return True

    def check_normal(self, n: "PermGroup") -> None:
        for x in n.generators:
            if x not in self:
                raise NotNormal("subgroup is not contained in the group")
        for x in n.generators:
            for g in self.generators:
                if x.conjugate(g) not in n:
                    raise NotNormal("subgroup is not normal")

    def quotient_by(self, n: "PermGroup") -> "PermGroup":
        """Faithful action of G/N on the cosets of N."""
        self.check_normal(n)
        n_elems = n.elements()
        coset_rep: dict[Permutation, Permutation] = {}
        reps: list[Permutation] = []
        for x in self.elements():
            if x in coset_rep:
                continue
            reps.append(x)
            for h in n_elems:
                coset_rep[h * x] = x
        index = {rep: i for i, rep in enumerate(reps)}
        require(len(reps) * n.order() == self.order(), "cosets of N must partition G")
        quot_gens = []
        for g in self.generators:
            images = tuple(index[coset_rep[rep * g]] for rep in reps)
            quot_gens.append(Permutation(images, _checked=True))
        return PermGroup(quot_gens, len(reps))

    def __repr__(self) -> str:
        return f"PermGroup(degree={self.degree}, ngens={len(self.generators)})"


def direct_product(a: PermGroup, b: PermGroup) -> PermGroup:
    """A x B acting on the disjoint union of their point sets."""
    deg = a.degree + b.degree
    gens = []
    for g in a.generators:
        gens.append(Permutation(g.images + tuple(range(a.degree, deg)), _checked=True))
    for g in b.generators:
        gens.append(Permutation(tuple(range(a.degree)) + tuple(i + a.degree for i in g.images),
                                _checked=True))
    return PermGroup(gens, deg)
