"""Green's preorders on a finite transformation semigroup, via Cayley graphs.

All relations live on the monoid S^1 (the identity is adjoined when missing).
Over a generating set G, the right Cayley graph has the edges s -> s*g and
the left one s -> g*s.  Then s <=_R t exactly when t reaches s in the right
graph (s lies in t*S^1), <=_L is reachability in the left graph and <=_J in
their union.  The R-, L- and J-classes are the strongly connected
components of those graphs (Froidure and Pin, 1997), so each preorder is
kept on its classes: Tarjan over the graphs' successor tuples, built by
|S^1|*|G| products, then the order of the classes as bit rows of C bits,
not N.  H-classes are the (L-class, R-class) pairs, and D-classes the
components of the graph joining each L-class to the R-classes it meets.
No relation is stored per pair of elements.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import multiplier, per_monoid
from .order import Preorder, closure_classes, strongly_connected, transpose, union_over


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


@per_monoid
def _cayley_graphs(m):
    """The right and left Cayley graphs as successor tuples on element indices.

    ``right[i]`` lists the index of s_i*g and ``left[i]`` that of g*s_i,
    for g in the generating images: one pass of products.
    """
    index = {t.images: i for i, t in enumerate(m.elements)}
    images = list(index)
    gens = m.generating_images()
    right = [tuple(map(index.__getitem__, map(multiplier(s), gens))) for s in images]
    left = list(zip(*(map(index.__getitem__, map(multiplier(g), images)) for g in gens)))
    return right, left


def _h_classes(lp, rp):
    """H as the meet of L and R, on (L-class, R-class) pairs numbered in item order.

    Pair (l, r) lies below the pairs whose L-class is above l and whose
    R-class is above r: the AND of two masks of pairs.
    """
    number = {}
    class_of = [number.setdefault(pair, len(number)) for pair in zip(lp.class_of, rp.class_of)]
    by_l = [0] * len(lp.class_rows)
    by_r = [0] * len(rp.class_rows)
    for h, (l, r) in enumerate(number):
        by_l[l] |= 1 << h
        by_r[r] |= 1 << h
    up_l = [union_over(row, by_l) for row in lp.class_rows]
    up_r = [union_over(row, by_r) for row in rp.class_rows]
    return class_of, [up_l[l] & up_r[r] for l, r in number]


@per_monoid
def green_preorder(m, which):
    """The preorder <=_K on S^1 for K in {"R", "L", "J", "H"}, on its classes.

    s <=_K t holds when the principal K-ideal of s is contained in that of
    t, i.e. when t reaches s in the K Cayley graph, so the class rows are
    the transposed reach of the graph's classes.  J follows the union of
    the right and left edges, so it is found apart from R and L.  <=_H is
    the meet of <=_L and <=_R.
    """
    if which == "H":
        return Preorder(
            m.elements, *_h_classes(green_preorder(m, "L"), green_preorder(m, "R"))
        )
    if which not in ("R", "L", "J"):
        raise ValueError(f"unknown Green relation {which!r}")
    right, left = _cayley_graphs(m)
    if which == "R":
        graph = right
    elif which == "L":
        graph = left
    else:
        graph = [a + b for a, b in zip(right, left)]
    class_of, reach = closure_classes(graph)
    return Preorder(m.elements, class_of, transpose(reach))


def green_poset(ts, which):
    """Classes of the K-preorder with their induced partial order."""
    return green_preorder(ts, which).poset


@per_monoid
def d_classes(m):
    """D-classes as the join of the L- and R-partitions.

    The join is taken on class indices, by the one Tarjan: a graph with a
    node per L-class and one per R-class has edges both ways between
    L-class l and R-class r whenever an element lies in both, and its
    components are the D-classes.  They are cross-checked against the
    J-classes: the two partitions must agree on a finite semigroup, and a
    mismatch raises ConsistencyError.
    """
    lp, rp = green_preorder(m, "L"), green_preorder(m, "R")
    offset = len(lp.class_rows)
    succ = [[] for _ in range(offset + len(rp.class_rows))]
    for l, r in set(zip(lp.class_of, rp.class_of)):
        succ[l].append(offset + r)
        succ[offset + r].append(l)
    comp_of = strongly_connected(succ)[1]
    number = {}
    d_of = [number.setdefault(comp_of[l], len(number)) for l in lp.class_of]
    if d_of != green_preorder(m, "J").class_of:
        raise ConsistencyError("join of L and R does not match the J partition")
    return green_poset(m, "J").classes


@dataclass
class EggBox:
    """One D-class laid out as a grid: R-classes x L-classes of H-cells."""

    members: tuple
    cells: tuple
    idempotent: tuple
    col_images: tuple

    @property
    def shape(self):
        return len(self.cells), len(self.cells[0])


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
                cells=tuple(cells),
                idempotent=tuple(flags),
                col_images=col_images,
            )
        )
    return boxes
