"""Green's preorders on a finite transformation semigroup, via Cayley graphs.

All relations live on the monoid S^1 (the identity is adjoined when missing).
Over a generating set G, the right Cayley graph has the edges s -> s*g and
the left one s -> g*s.  Then s <=_R t exactly when t reaches s in the right
graph (s lies in t*S^1), <=_L is reachability in the left graph and <=_J in
their union, so each preorder is the reflexive-transitive closure of a
reversed Cayley graph: |S^1|*|G| products, no multiplication table.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import multiplier, per_monoid
from .order import Preorder, transitive_closure_rows


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


def _reversed_cayley_rows(m, which):
    """Bit t of row s when t*g = s (R), g*t = s (L) or either (J), g in G.

    A product outside the elements raises KeyError, as it must for some
    s and g when the element set is not closed.
    """
    index = {t.images: i for i, t in enumerate(m.elements)}
    gens = m.generating_images()
    times_gens = [multiplier(g) for g in gens]
    rows = [0] * len(index)
    for s, i in index.items():
        bit = 1 << i
        times_s = multiplier(s)
        for g, times_g in zip(gens, times_gens):
            if which != "L":
                rows[index[times_s(g)]] |= bit
            if which != "R":
                rows[index[times_g(s)]] |= bit
    return rows


@per_monoid
def green_preorder(m, which):
    """The preorder <=_K on S^1 for K in {"R", "L", "J", "H"}.

    s <=_K t holds when the principal K-ideal of s is contained in that of
    t, i.e. when t reaches s in the K Cayley graph; <=_H is the meet of
    <=_L and <=_R.
    """
    if which == "H":
        lrows = green_preorder(m, "L").rows
        rrows = green_preorder(m, "R").rows
        rows = [a & b for a, b in zip(lrows, rrows)]
    elif which in ("R", "L", "J"):
        rows = transitive_closure_rows(_reversed_cayley_rows(m, which))
    else:
        raise ValueError(f"unknown Green relation {which!r}")
    return Preorder(m.elements, rows)


def green_poset(ts, which):
    """Classes of the K-preorder with their induced partial order."""
    return green_preorder(ts, which).poset


class _UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, i):
        root = i
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[i] != root:
            self.parent[i], i = root, self.parent[i]
        return root

    def union(self, i, j):
        ri, rj = self.find(i), self.find(j)
        if ri != rj:
            self.parent[max(ri, rj)] = min(ri, rj)


@per_monoid
def d_classes(m):
    """D-classes as the join of the L- and R-partitions.

    Cross-checked against the J-classes: the two partitions must agree on a
    finite semigroup, and a mismatch raises ConsistencyError.
    """
    uf = _UnionFind(len(m.elements))
    for which in ("L", "R"):
        for cls in green_poset(m, which).classes:
            first = m.index(cls[0])
            for t in cls[1:]:
                uf.union(first, m.index(t))
    groups = {}
    for i in range(len(m.elements)):
        groups.setdefault(uf.find(i), []).append(i)
    d_part = sorted(tuple(idx) for idx in groups.values())
    j_part = sorted(
        tuple(sorted(m.index(t) for t in cls)) for cls in green_poset(m, "J").classes
    )
    if d_part != j_part:
        raise ConsistencyError("join of L and R does not match the J partition")
    return tuple(tuple(m.elements[i] for i in idx) for idx in d_part)


@dataclass
class EggBox:
    """One D-class laid out as a grid: R-classes x L-classes of H-cells."""

    members: tuple
    row_reps: tuple
    col_reps: tuple
    cells: tuple
    idempotent: tuple
    col_images: tuple

    @property
    def shape(self):
        return len(self.row_reps), len(self.col_reps)


def eggboxes(ts):
    """EggBox grids for every D-class, ordered as the J-classes are."""
    m = ts.adjoin_identity()
    lp = green_poset(m, "L")
    rp = green_poset(m, "R")
    boxes = []
    for cls in green_poset(m, "J").classes:
        member_set = set(cls)
        row_ids = sorted({rp.class_of[t] for t in cls})
        col_ids = sorted({lp.class_of[t] for t in cls})
        col_of = {ci: k for k, ci in enumerate(col_ids)}
        cells = []
        flags = []
        for ri in row_ids:
            # one pass over the R-class fills its cells in R-class order
            buckets = [[] for _ in col_ids]
            for t in rp.classes[ri]:
                if t in member_set:
                    buckets[col_of[lp.class_of[t]]].append(t)
            if not all(buckets):
                raise ConsistencyError("empty H-cell inside a D-class")
            cells.append(tuple(map(tuple, buckets)))
            flags.append(tuple(tuple(t.is_idempotent() for t in cell) for cell in buckets))
        col_images = tuple(lp.classes[ci][0].image() for ci in col_ids)
        boxes.append(
            EggBox(
                members=cls,
                row_reps=tuple(rp.classes[ri][0] for ri in row_ids),
                col_reps=tuple(lp.classes[ci][0] for ci in col_ids),
                cells=tuple(cells),
                idempotent=tuple(flags),
                col_images=col_images,
            )
        )
    return boxes
