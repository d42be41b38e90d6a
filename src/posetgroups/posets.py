"""Finite posets with Hasse-edge ground truth and the order kept sparse.

A :class:`FinitePoset` is immutable: points are indices ``0..n-1``, each
carrying a distinct hashable label.  Covering (Hasse) edges are the stored
ground truth; the full order is materialized at construction as each
point's down-set and up-set, sorted index tuples, so memory grows with the
number of comparable pairs and ``leq`` is one membership scan in C.

The same class doubles as a finite T0 topological space: the minimal open
neighbourhood of a point is its down-set, and a map between posets is
continuous exactly when it is order-preserving.

Two indexes are built on first use and kept on the poset: the cover index
and the layout.  The cover index is the poset's one cover adjacency: each
point's upper and lower covers, which refinement, beat points, cores,
components and homotopy classes read, and the covers' sources and targets
as ``itemgetter``s plus the set of covers, through which every
covers-onto-covers and order check reads an image tuple in C.  The layout
numbers each site and role once, so that every map of the built spaces is
one C-level gather of ints, with no label built; a builder that knows it,
such as the gadget spaces' (:meth:`FinitePoset.wedge`), hands it over.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain, count, repeat
from operator import add, itemgetter, mul
from typing import Callable, Iterable, Sequence

from .errors import MapError, PosetError
from .labels import STAR, Label, site_role


def tuple_getter(indices: Sequence[int]) -> Callable[[Sequence], tuple]:
    """``itemgetter(*indices)``, but a tuple for any length (itemgetter of
    one index returns a bare item, and of none raises)."""
    if len(indices) > 1:
        return itemgetter(*indices)
    if indices:
        i = indices[0]
        return lambda seq: (seq[i],)
    return lambda seq: ()


class CoverIndex:
    """The covers of a poset, by point and ready to read an image tuple in C.

    ``up[i]`` and ``down[i]`` are the upper and lower covers of point ``i``,
    ascending.  ``sources(images)`` and ``targets(images)`` are the images
    of the lower and upper ends of every cover, in ``hasse`` order;
    ``edges`` is the set of covers.
    """

    __slots__ = ("up", "down", "sources", "targets", "edges")

    def __init__(self, n: int, hasse: tuple[tuple[int, int], ...]):
        up: list[list[int]] = [[] for _ in range(n)]
        down: list[list[int]] = [[] for _ in range(n)]
        sources, targets = [], []
        for a, b in hasse:
            up[a].append(b)
            down[b].append(a)
            sources.append(a)
            targets.append(b)
        self.up = tuple(map(tuple, up))
        self.down = tuple(map(tuple, down))
        self.sources = tuple_getter(sources)
        self.targets = tuple_getter(targets)
        self.edges = frozenset(hasse)


class Layout:
    """The points of a poset by site and role (see :func:`labels.site_role`),
    each numbered from 1 in order of first use.  Point ``i`` is at site
    ``site_of[i]`` in role ``role_of[i]``, and ``flat[s * width + r]`` is
    the point at site ``s`` in role ``r``, or None; ``sites`` gives each
    site its row ``s * width`` and ``roles`` each role its number.  Row 0
    holds only the basepoint, and column 0 (a plain label's role) nothing.
    ``columns`` and ``levels`` list each site's ``g`` and level number, and
    ``cells[g * (len(sites) + 1) + level]`` is the row of the site there.
    """

    __slots__ = ("sites", "roles", "width", "site_of", "role_of", "flat", "columns", "levels",
                 "cells")

    def __init__(self, labels: Sequence[Label]):
        pairs = list(map(site_role, labels))
        roles = dict(zip(dict.fromkeys(r for _, r in pairs if r is not None), count(1)))
        sites = dict(zip(dict.fromkeys(site for site, role in pairs if role not in (None, STAR)),
                         count(1)))
        self._number(sites, roles, [sites.get(site, 0) for site, _ in pairs],
                     [roles.get(role, 0) for _, role in pairs])

    def _number(self, sites: dict, roles: dict, site_of: list[int], role_of: list[int]) -> None:
        """Fill every slot from each site's and role's number and each point's."""
        self.roles = roles
        self.width = width = len(roles) + 1
        self.sites = dict(zip(sites, count(width, width)))
        self.site_of, self.role_of = site_of, role_of
        self.flat: list[int | None] = [None] * (len(sites) + 1) * width
        for i, (s, r) in enumerate(zip(site_of, role_of)):
            if r:
                self.flat[s * width + r] = i
        self.columns = [g for g, _ in sites]
        levels = dict(zip(dict.fromkeys(level for _, level in sites), count()))
        self.levels = [levels[level] for _, level in sites]
        keys = map(add, map(mul, self.columns, repeat(len(sites) + 1)), self.levels)
        self.cells = dict(zip(keys, self.sites.values()))

    def extended(self, sites: Sequence[int], roles: Sequence[str]) -> "Layout":
        """The layout of this one's points followed by one block per site
        number in ``sites``: a point in each of ``roles`` at that site.  New
        roles are numbered after this layout's, as first use would number
        them, and no label is read."""
        if not sites:
            roles = ()  # no point takes them, so they are not numbered
        numbers = dict(self.roles)
        for role in roles:
            numbers.setdefault(role, len(numbers) + 1)
        block = [numbers[role] for role in roles]
        fresh = object.__new__(Layout)
        fresh._number(dict(zip(self.sites, count(1))), numbers,
                      self.site_of + [s for s in sites for _ in block],
                      self.role_of + block * len(sites))
        return fresh

    def gather(self, rows: Sequence[int], cols: Sequence[int] | None = None,
               onto: "Layout | None" = None) -> tuple:
        """Where each point lands when site ``s`` moves to row ``rows[s]`` of ``onto``
        (this layout by default) and role ``r`` to ``cols[r]`` (by default, stays)."""
        flat = (onto or self).flat
        roles = self.role_of if cols is None else map(cols.__getitem__, self.role_of)
        return tuple(map(flat.__getitem__, map(add, map(rows.__getitem__, self.site_of), roles)))


class FinitePoset:
    """An immutable finite partial order.

    Build one with :meth:`from_relations` (arbitrary order pairs, closed and
    reduced internally) or :meth:`from_hasse` (pairs that must already be
    exactly the covering relations), or grow one by a point with
    :meth:`adjoin_above` or by copies of a small poset with :meth:`wedge`.
    """

    __slots__ = ("labels", "hasse", "_down", "_up", "_index", "_covers", "_layout")

    def __init__(self, labels, hasse, down, up, index, layout: Layout | None = None):
        self.labels: tuple[Label, ...] = labels
        self.hasse: tuple[tuple[int, int], ...] = hasse
        self._down: tuple[tuple[int, ...], ...] = down
        self._up: tuple[tuple[int, ...], ...] = up
        self._index: dict[Label, int] = index
        self._covers: CoverIndex | None = None
        self._layout: Layout | None = layout

    # -- construction ------------------------------------------------------

    @staticmethod
    def _close(n: int, pairs: Iterable[tuple[int, int]]):
        """Validate a relation digraph; return its covers, sorted, and each
        point's down-set and up-set, the point included, as sorted tuples."""
        above: list[set[int]] = [set() for _ in range(n)]  # direct successors
        indeg = [0] * n
        for lo, hi in pairs:
            if not (0 <= lo < n and 0 <= hi < n):
                raise PosetError(f"relation ({lo}, {hi}) out of range")
            if lo == hi:
                raise PosetError(f"reflexive pair ({lo}, {hi}) breaks antisymmetry")
            if hi not in above[lo]:
                above[lo].add(hi)
                indeg[hi] += 1

        # Kahn's algorithm closes each point when it is reached; a cycle would
        # violate antisymmetry.  ``below[i]`` lists i's direct predecessors
        # in the order reached, each after those below it, so read backwards
        # each is covered by i unless the down-set of one read before holds it.
        below: list[list[int]] = [[] for _ in range(n)]
        down: list[tuple[int, ...]] = [()] * n
        hasse: list[tuple[int, int]] = []
        topo = [i for i in range(n) if not indeg[i]]
        for i in topo:  # ``topo`` grows while it is read
            acc = {i}
            for j in reversed(below[i]):
                if j not in acc:
                    hasse.append((j, i))
                    acc.update(down[j])
            down[i] = tuple(sorted(acc)) if below[i] else (i,)
            for k in above[i]:
                below[k].append(i)
                indeg[k] -= 1
                if not indeg[k]:
                    topo.append(k)
        if len(topo) != n:
            raise PosetError("relations contain a cycle (antisymmetry fails)")
        up: list[list[int]] = [[] for _ in range(n)]
        for b, lower in enumerate(down):
            for a in lower:
                up[a].append(b)
        return tuple(sorted(hasse)), tuple(down), tuple(map(tuple, up))

    @classmethod
    def from_relations(cls, labels: Sequence[Label], pairs: Iterable[tuple[int, int]]):
        """Build from arbitrary ``lower < upper`` index pairs."""
        labels = tuple(labels)
        index = dict(zip(labels, range(len(labels))))
        if len(index) != len(labels):
            raise PosetError("point labels must be pairwise distinct")
        return cls(labels, *cls._close(len(labels), pairs), index)

    @classmethod
    def from_hasse(cls, labels: Sequence[Label], edges: Iterable[tuple[int, int]]):
        """Build from pairs that must be exactly the covering relations."""
        edges = sorted(tuple(e) for e in edges)
        poset = cls.from_relations(labels, edges)
        if list(poset.hasse) != edges:
            raise PosetError("edges are not a transitive reduction")
        return poset

    def adjoin_above(self, label: Label, below: Iterable[int]) -> "FinitePoset":
        """This poset plus one new point ``label``, index ``len(self)``, above
        the points ``below`` (repeats and comparable points allowed; none
        makes it isolated), in closed form rather than by a new closure.

        Its down-set is the union of their down-sets, and it covers the
        maximal points among them: those in no other one's down-set, so in
        exactly one down-set of ``below``.  Each point under it gains the new
        index at the end of its up-set.  Every other down-set and up-set
        tuple is this poset's own, shared and not copied, and the label
        index a copy of this poset's (its hashes reused) plus the new
        label, so the cost is O(n + the down-sets' sizes); this poset is
        left as it was.
        """
        if label in self._index:
            raise PosetError("point labels must be pairwise distinct")
        n = len(self.labels)
        below = set(below)
        if below and not (0 <= min(below) and max(below) < n):
            bad = next(i for i in below if not 0 <= i < n)
            raise PosetError(f"point {bad} out of range for {n} points")
        seen = Counter(chain.from_iterable(map(self._down.__getitem__, below)))
        lower = sorted(seen)
        up = list(self._up)
        for i in lower:
            up[i] += (n,)
        up.append((n,))
        covers = [(i, n) for i in lower if i in below and seen[i] == 1]
        index = self._index.copy()
        index[label] = n
        return FinitePoset(self.labels + (label,), tuple(sorted(self.hasse + tuple(covers))),
                           self._down + ((*lower, n),), tuple(up), index)

    def wedge(self, piece: "FinitePoset", apexes: Sequence[int], labels: Sequence[Label],
              layout: Layout | None = None) -> "FinitePoset":
        """This poset with one copy of ``piece`` glued at each point of
        ``apexes``, in closed form rather than by a new closure.

        Copy ``t`` identifies ``piece``'s point 0 with ``apexes[t]``; its
        other ``k`` points are new, indices ``len(self) + t * k`` on, and
        labelled by the next ``k`` of ``labels``.  A copy meets the rest
        only at its apex, so the order among this poset's points is kept,
        and each of them gains the copy points below every apex in its
        down-set and those above every apex in its up-set, after its own.
        A copy point above its apex has the apex's new down-set plus its
        own in the copy, one below it the apex's new up-set plus its own,
        and any other copy point only its own.  The covers are this
        poset's and the copies'.  Down-sets and up-sets that gain nothing
        are shared, not copied; ``layout``, if given, is the new poset's.
        """
        n, k = len(self.labels), len(piece) - 1
        labels = self.labels + tuple(labels)
        if len(labels) != n + k * len(apexes):
            raise PosetError(f"{len(labels) - n} labels for {len(apexes)} copies of {k} points")
        if apexes and not (0 <= min(apexes) and max(apexes) < n):
            bad = next(i for i in apexes if not 0 <= i < n)
            raise PosetError(f"point {bad} out of range for {n} points")
        index = self._index.copy()
        index.update(zip(labels[n:], count(n)))
        if len(index) != len(labels):
            raise PosetError("point labels must be pairwise distinct")
        # Copy t holds the points ``ids``: its apex, then its k new points,
        # so a getter of indices in ``piece`` reads a copy's points off it.
        copies = [(apex, (apex, *range(first, first + k)))
                  for apex, first in zip(apexes, count(n, k))]

        def beyond_apex(sets):
            """For each copy point, whether its set among ``sets`` holds the
            apex (point 0, which leads a set holding it), and a getter of
            the points it holds that the apex's set does not."""
            out = []
            for own in sets[1:]:
                holds = own[0] == 0
                shared = sets[0] if holds else ()
                out.append((holds, tuple_getter([j for j in own if j not in shared])))
            return out

        downs, ups = beyond_apex(piece._down), beyond_apex(piece._up)
        under, over = tuple_getter(piece._down[0][1:]), tuple_getter(piece._up[0][1:])
        gained_down: list[list[int]] = [[] for _ in range(n)]
        gained_up: list[list[int]] = [[] for _ in range(n)]
        for apex, ids in copies:  # in copy order, so each gained list is sorted
            lows, highs = under(ids), over(ids)
            for z in self._up[apex] if lows else ():
                gained_down[z] += lows
            for z in self._down[apex] if highs else ():
                gained_up[z] += highs
        down, up = list(self._down), list(self._up)
        for z in range(n):
            if gained_down[z]:
                down[z] += tuple(gained_down[z])
            if gained_up[z]:
                up[z] += tuple(gained_up[z])
        sources = tuple_getter([a for a, _ in piece.hasse])
        targets = tuple_getter([b for _, b in piece.hasse])
        hasse = list(self.hasse)
        for apex, ids in copies:
            apex_down, apex_up = down[apex], up[apex]
            down += [tuple(sorted(apex_down + mine(ids))) if above else mine(ids)
                     for above, mine in downs]
            up += [tuple(sorted(apex_up + mine(ids))) if below else mine(ids)
                   for below, mine in ups]
            hasse += zip(sources(ids), targets(ids))
        return FinitePoset(labels, tuple(sorted(hasse)), tuple(down), tuple(up), index, layout)

    # -- basic queries -----------------------------------------------------

    def __len__(self) -> int:
        return len(self.labels)

    def __eq__(self, other) -> bool:
        if not isinstance(other, FinitePoset):
            return NotImplemented
        return self.labels == other.labels and self.hasse == other.hasse

    def __hash__(self) -> int:
        return hash((self.labels, self.hasse))

    def __repr__(self) -> str:
        return f"FinitePoset({len(self)} points, {len(self.hasse)} cover edges)"

    def index_of(self, label: Label) -> int:
        return self._index[label]

    def leq(self, a: int, b: int) -> bool:
        return a in self._down[b]

    def minimal_open_set(self, i: int) -> tuple[int, ...]:
        """The smallest open set containing ``i``: its down-set, ascending."""
        return self._down[i]

    def closure(self, i: int) -> tuple[int, ...]:
        """The smallest closed set containing ``i``: its up-set, ascending."""
        return self._up[i]

    @property
    def cover_index(self) -> CoverIndex:
        """The covers by point, as two gathers and as a set, built on first use."""
        if self._covers is None:
            self._covers = CoverIndex(len(self), self.hasse)
        return self._covers

    @property
    def set_sizes(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """How many points each down-set and each up-set holds."""
        return tuple(map(len, self._down)), tuple(map(len, self._up))

    @property
    def layout(self) -> Layout:
        """The points by site and role number, built on first use unless handed over."""
        if self._layout is None:
            self._layout = Layout(self.labels)
        return self._layout

    def maps_covers_onto(self, target: "FinitePoset", images: Sequence[int]) -> bool:
        """Do ``images`` (indices into ``target``) biject this poset's covers
        onto ``target``'s?  That makes the map an isomorphism.

        With the images distinct and the cover counts equal, it suffices
        that every mapped cover is a cover of ``target``.
        """
        if len(images) != len(target) or len(self.hasse) != len(target.hasse):
            return False
        if len(set(images)) != len(images):
            return False
        covers = self.cover_index
        return target.cover_index.edges.issuperset(
            zip(covers.sources(images), covers.targets(images))
        )

    # -- structure ---------------------------------------------------------

    def beat_points(self) -> list[tuple[int, str]]:
        """Points removable without changing homotopy type.

        A point is a "down" beat point when its strict down-set has a unique
        maximal element, an "up" beat point when its strict up-set has a
        unique minimal element.  The maximal elements of a strict down-set
        are the lower covers, and the minimal ones of a strict up-set the
        upper covers, so these are the points with exactly one lower or
        one upper cover; :func:`homotopy.core` reads the same counts in the
        shrinking subspace.  Entries are ``(index, kind)`` with kind
        ``"down"``/``"up"``, ordered by index then kind; a point carrying
        both kinds appears twice.
        """
        covers = self.cover_index
        if 1 not in map(len, covers.down) and 1 not in map(len, covers.up):
            return []  # a core, as every built space is: two scans in C
        return [
            (i, kind)
            for i in range(len(self))
            for kind, adjacent in (("down", covers.down), ("up", covers.up))
            if len(adjacent[i]) == 1
        ]

    def components(self) -> list[tuple[int, ...]]:
        """Connected components of the comparability graph, each sorted.

        They are those of the covering graph, searched over the covers.
        """
        up, down = self.cover_index.up, self.cover_index.down
        seen = [False] * len(self)
        out: list[tuple[int, ...]] = []
        for start in range(len(self)):
            if seen[start]:
                continue
            seen[start] = True
            comp = [start]
            for i in comp:  # ``comp`` grows while it is read
                for j in chain(up[i], down[i]):
                    if not seen[j]:
                        seen[j] = True
                        comp.append(j)
            out.append(tuple(sorted(comp)))
        return out

    def induced(self, keep: Sequence[int]) -> "FinitePoset":
        """Subposet on ``keep`` (order inherited, covers recomputed)."""
        keep = sorted(keep)
        new_of = {old: new for new, old in enumerate(keep)}
        pairs = [(new_of[j], new) for new, old in enumerate(keep)
                 for j in self._down[old] if j in new_of and j != old]
        return FinitePoset.from_relations([self.labels[i] for i in keep], pairs)


@dataclass(frozen=True)
class PosetMap:
    """An order-preserving (= continuous) map between finite posets.

    ``images[i]`` is the target index of source point ``i``.  Order
    preservation is validated at construction; it suffices to check the
    covering relations.
    """

    source: FinitePoset
    target: FinitePoset
    images: tuple[int, ...]

    def __post_init__(self):
        images, n = self.images, len(self.target)
        if len(images) != len(self.source):
            raise MapError("image tuple length does not match the source")
        if images and not (0 <= min(images) and max(images) < n):
            bad = next(v for v in images if not 0 <= v < n)
            raise MapError(f"image index {bad} out of range")
        covers, down = self.source.cover_index, self.target._down
        for k, (x, y) in enumerate(zip(covers.sources(images), covers.targets(images))):
            if x not in down[y]:
                a, b = self.source.hasse[k]
                raise MapError(f"not order-preserving on cover ({a}, {b}): {x} !<= {y}")

    @classmethod
    def _trusted(cls, source: FinitePoset, target: FinitePoset, images) -> "PosetMap":
        """Wrap ``images`` that the caller has already verified, without checking again."""
        fresh = object.__new__(cls)
        object.__setattr__(fresh, "source", source)
        object.__setattr__(fresh, "target", target)
        object.__setattr__(fresh, "images", images)
        return fresh

    def __call__(self, i: int) -> int:
        return self.images[i]

    @classmethod
    def identity(cls, poset: FinitePoset) -> "PosetMap":
        return cls(poset, poset, tuple(range(len(poset))))

    def compose(self, inner: "PosetMap") -> "PosetMap":
        """``self`` after ``inner``.

        Not checked again: a composite of order-preserving maps preserves
        order.
        """
        if inner.target is not self.source and inner.target != self.source:
            raise MapError("composition mismatch: inner.target != outer.source")
        return PosetMap._trusted(
            inner.source, self.target, tuple(self.images[v] for v in inner.images)
        )

    def is_surjective(self) -> bool:
        return len(set(self.images)) == len(self.target)

    def is_isomorphism(self) -> bool:
        """Bijective with order-preserving inverse (covers map onto covers)."""
        return self.source.maps_covers_onto(self.target, self.images)

    def inverse(self) -> "PosetMap":
        if not self.is_isomorphism():
            raise MapError("map is not an isomorphism")
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v] = i
        return PosetMap(self.target, self.source, tuple(inv))
