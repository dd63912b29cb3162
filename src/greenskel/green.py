"""Green's preorders on a finite transformation semigroup, via Cayley graphs.

All relations live on the monoid S^1 (the identity is adjoined when missing).
Over a generating set G, the right Cayley graph has the edges s -> s*g and
the left one s -> g*s.  Then s <=_R t exactly when t reaches s in the right
graph (s lies in t*S^1), <=_L is reachability in the left graph and <=_J in
their union.  The R-, L- and J-classes are the strongly connected
components of those graphs (Froidure and Pin, 1997), so each preorder is
kept on its classes: Tarjan over the graphs' successor tuples, whose
edges point down the order, then the order of the classes as bit rows of
C bits, not N.  The edges are read off the elements' keys: one
``bytes.translate`` pass per generator for s*g, and g's key translated
through s's table for g*s, so no element object is built for them.  H-classes are the (L-class, R-class) pairs, and D-classes
the components of the graph joining each L-class to the R-classes it
meets.  Egg-boxes are laid out from the class lists by element index.  No
relation is stored per pair of elements.
"""

from .core import _left_times, _times, multiplier, per_monoid
from .order import Preorder, closure_classes, fibres, strongly_connected, union_over


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


@per_monoid
def _cayley_graphs(m):
    """The right and left Cayley graphs as successor tuples on element indices.

    ``right[i]`` lists the index of s_i*g and ``left[i]`` that of g*s_i,
    for g in the generating images, all computed on the sorted keys: one
    ``_times`` pass per generator for the right edges, and one
    ``_left_times`` pass for the left ones.
    """
    n, keys = m.n, m.keys
    at = {u: i for i, u in enumerate(keys)}.__getitem__
    gens = m.generating_images()
    right = list(zip(*(map(at, _times(n, g)(keys)) for g in gens)))
    left = [tuple(map(at, products)) for products in _left_times(n, gens)(keys)]
    return right, left


def _h_classes(lp, rp):
    """H as the meet of L and R, on (L-class, R-class) pairs numbered in item order.

    Pair (l, r) lies below the pairs whose L-class is above l and whose
    R-class is above r: the AND of two masks of pairs.
    """
    number = {}
    class_of = [number.setdefault(pair, len(number)) for pair in zip(lp.class_of, rp.class_of)]
    by_l = fibres([l for l, _ in number], len(lp.class_rows))
    by_r = fibres([r for _, r in number], len(rp.class_rows))
    up_l = [union_over(row, by_l) for row in lp.class_rows]
    up_r = [union_over(row, by_r) for row in rp.class_rows]
    return class_of, [up_l[l] & up_r[r] for l, r in number]


@per_monoid
def green_preorder(m, which):
    """The preorder <=_K on S^1 for K in {"R", "L", "J", "H"}, on its classes.

    s <=_K t holds when the principal K-ideal of s is contained in that of
    t, i.e. when t reaches s in the K Cayley graph: its edges point down
    the order, as ``closure_classes`` takes them.  J follows the union of
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
    return Preorder(m.elements, *closure_classes(graph))


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


class EggBox:
    """One D-class laid out as a grid: R-classes x L-classes of H-cells."""

    def __init__(self, members, cells, idempotent, col_images):
        self.members = members
        self.cells = cells
        self.idempotent = idempotent
        self.col_images = col_images

    @property
    def shape(self):
        return len(self.cells), len(self.cells[0])


def _idempotent(u):
    """Is the map with image tuple u idempotent: u*u == u?"""
    return multiplier(u)(u) == u


def eggboxes(ts):
    """EggBox grids for every D-class, ordered as the J-classes are.

    The cells are the H-classes: H-class h sits in the box of the J-class,
    the row of the R-class and the column of the L-class of its least
    member, all read from the preorders' class lists.  Only the column
    images are computed from elements, one per L-class.
    """
    m = ts.adjoin_identity()
    jp, rp, lp, hp = (green_preorder(m, kind) for kind in ("J", "R", "L", "H"))
    jq, lq, hq = jp.poset, lp.poset, hp.poset
    grids = [{} for _ in jq.classes]
    for h, i in enumerate(hp.firsts):
        grids[jp.class_of[i]][rp.class_of[i], lp.class_of[i]] = h
    boxes = []
    for cls, grid in zip(jq.classes, grids):
        row_ids = sorted({r for r, _ in grid})
        col_ids = sorted({c for _, c in grid})
        if len(grid) != len(row_ids) * len(col_ids):
            raise ConsistencyError("empty H-cell inside a D-class")
        cells = tuple(tuple(hq.classes[grid[r, c]] for c in col_ids) for r in row_ids)
        if sum(len(cell) for row in cells for cell in row) != len(cls):
            raise ConsistencyError("H-cells do not fill their D-class")
        flags = tuple(
            tuple(tuple(_idempotent(t.images) for t in cell) for cell in row) for row in cells
        )
        col_images = tuple(lq.classes[c][0].image() for c in col_ids)
        boxes.append(EggBox(members=cls, cells=cells, idempotent=flags, col_images=col_images))
    return boxes
