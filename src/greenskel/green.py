"""Green's preorders on a finite transformation semigroup, via principal ideals.

All relations live on the monoid S^1 (the identity is adjoined when missing).
Principal ideals are computed literally from the multiplication table and
held as bit masks over the canonical element numbering, so the preorder
tests are plain mask inclusions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .order import Preorder, quotient_cached


class ConsistencyError(RuntimeError):
    """An internal cross-check failed; indicates a bug, not bad input."""


def ideal_masks(ts):
    """(right, left, two_sided) principal-ideal masks per element of S^1.

    right[i] covers s_i * S^1, left[i] covers S^1 * s_i, and the two-sided
    mask is the union of (u * s_i) * S^1 over all u, i.e. S^1 * s_i * S^1.
    """
    m = ts.adjoin_identity()
    if "ideal_masks" in m._cache:
        return m._cache["ideal_masks"]
    table = m.table()
    size = len(m.elements)
    right = [0] * size
    left = [0] * size
    for i in range(size):
        row = table[i]
        acc = 0
        for j in range(size):
            acc |= 1 << row[j]
        right[i] = acc
    for j in range(size):
        acc = 0
        for i in range(size):
            acc |= 1 << table[i][j]
        left[j] = acc
    both = [0] * size
    for i in range(size):
        acc = 0
        rest = left[i]
        while rest:
            low = rest & -rest
            acc |= right[low.bit_length() - 1]
            rest ^= low
        both[i] = acc
    masks = (right, left, both)
    m._cache["ideal_masks"] = masks
    return masks


def green_preorder(ts, which):
    """The preorder <=_K on S^1 for K in {"R", "L", "J", "H"}.

    s <=_K t holds when the principal K-ideal of s is contained in that of
    t; <=_H is the meet of <=_L and <=_R.
    """
    m = ts.adjoin_identity()
    key = ("green_preorder", which)
    if key in m._cache:
        return m._cache[key]
    if which == "H":
        lrows = green_preorder(m, "L").rows
        rrows = green_preorder(m, "R").rows
        rows = [a & b for a, b in zip(lrows, rrows)]
    else:
        try:
            masks = ideal_masks(m)[("R", "L", "J").index(which)]
        except ValueError:
            raise ValueError(f"unknown Green relation {which!r}") from None
        rows = []
        for mi in masks:
            acc = 0
            for j, mj in enumerate(masks):
                if mi & ~mj == 0:
                    acc |= 1 << j
            rows.append(acc)
    p = Preorder(m.elements, rows)
    m._cache[key] = p
    return p


def green_poset(ts, which):
    """Classes of the K-preorder with their induced partial order."""
    return quotient_cached(green_preorder(ts, which))


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


def d_classes(ts):
    """D-classes as the join of the L- and R-partitions.

    Cross-checked against the J-classes: the two partitions must agree on a
    finite semigroup, and a mismatch raises ConsistencyError.
    """
    m = ts.adjoin_identity()
    if "d_classes" in m._cache:
        return m._cache["d_classes"]
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
    classes = tuple(tuple(m.elements[i] for i in idx) for idx in d_part)
    m._cache["d_classes"] = classes
    return classes


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
        cells = []
        flags = []
        for ri in row_ids:
            row_cells = []
            row_flags = []
            for ci in col_ids:
                cell = tuple(
                    t for t in rp.classes[ri] if lp.class_of[t] == ci and t in member_set
                )
                if not cell:
                    raise ConsistencyError("empty H-cell inside a D-class")
                row_cells.append(cell)
                row_flags.append(tuple(t * t == t for t in cell))
            cells.append(tuple(row_cells))
            flags.append(tuple(row_flags))
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
