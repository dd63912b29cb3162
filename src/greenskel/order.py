"""Finite preorders, their partial-order quotients, and maps between them.

Relations are stored densely: ``rows[i]`` is a bit mask whose bit j says
``items[i] <= items[j]``.  A relation given by its generating edges, such
as a Cayley graph, is closed by ``transitive_closure_rows``: Tarjan's
strongly connected components, then one pass over their condensation.
A closed relation needs no graph search to be quotiented: two items are
mutually related exactly when their rows are equal, so ``Preorder.check``
groups equal rows and checks transitivity once per group, and ``quotient``
takes those groups as its classes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class MalformedPreorderError(ValueError):
    """Input relation is not reflexive and transitive."""


class NotAMorphismError(ValueError):
    """A map claimed to respect preorders does not; carries a witness pair."""

    def __init__(self, witness):
        a, b = witness
        super().__init__(f"{a!r} <= {b!r} in the source but the images are unrelated")
        self.witness = witness


class Preorder:
    """An indexed carrier plus a reflexive-transitive boolean relation."""

    def __init__(self, items, rows):
        self.items = tuple(items)
        self.rows = list(rows)
        if len(self.rows) != len(self.items):
            raise ValueError("relation size does not match carrier size")
        self._index = {a: i for i, a in enumerate(self.items)}
        if len(self._index) != len(self.items):
            raise ValueError("carrier items must be distinct")

    def __len__(self):
        return len(self.items)

    def index(self, a):
        return self._index[a]

    def leq_idx(self, i, j):
        return self.rows[i] >> j & 1 == 1

    def leq(self, a, b):
        return self.leq_idx(self._index[a], self._index[b])

    def check(self):
        """Raise MalformedPreorderError unless reflexive and transitive.

        Reflexivity is checked per item.  In a reflexive, transitive
        relation two items are mutually related exactly when their rows are
        equal, so transitivity is checked once per group of equal rows; the
        first failing item and its witness are those an item-by-item scan
        finds.  Returns the group of every item and each group's class row
        (bit h when the group's row holds a member of group h): the classes
        and order of ``quotient``.
        """
        for i, row in enumerate(self.rows):
            if not row >> i & 1:
                raise MalformedPreorderError(f"relation not reflexive at {self.items[i]!r}")
        group_of, masks, group_rows = _row_groups(self.rows)
        class_rows = []
        for g, row in enumerate(group_rows):
            reach = 0
            class_row = 0
            for h in _hit_groups(row, group_of, masks):
                reach |= group_rows[h]
                class_row |= 1 << h
            bad = reach & ~row
            if bad:
                i = (masks[g] & -masks[g]).bit_length() - 1
                j = (bad & -bad).bit_length() - 1
                raise MalformedPreorderError(
                    f"relation not transitive: {self.items[i]!r} reaches {self.items[j]!r} in two steps only"
                )
            class_rows.append(class_row)
        return group_of, class_rows

    @cached_property
    def poset(self):
        """``quotient(self)``, computed on first use and kept."""
        return quotient(self)


def _row_groups(rows):
    """Group the indices by equal rows, in one dict pass.

    Groups are numbered by least member.  Returns the group of every index,
    the member mask of every group and the row every group shares.
    """
    number = {}
    group_of = []
    masks = []
    for i, row in enumerate(rows):
        g = number.setdefault(row, len(masks))
        if g == len(masks):
            masks.append(0)
        masks[g] |= 1 << i
        group_of.append(g)
    return group_of, masks, list(number)


def _hit_groups(row, group_of, masks):
    """Each group that ``row`` holds a member of, once, in order of first hit.

    After each hit the group's whole mask is cleared, so a row that holds a
    group's later members without its least one still hits that group.
    """
    rest = row
    while rest:
        h = group_of[(rest & -rest).bit_length() - 1]
        yield h
        rest &= ~masks[h]


def _tarjan_sccs(rows):
    """Strongly connected components of the relation digraph, iteratively."""
    n = len(rows)
    index = [0] * n
    low = [0] * n
    on_stack = [False] * n
    visited = [False] * n
    comp_of = [-1] * n
    stack = []
    counter = 0
    ncomp = 0
    for root in range(n):
        if visited[root]:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                visited[v] = True
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            rest = rows[v] >> pi
            while rest:
                step = (rest & -rest).bit_length()
                w = pi + step - 1
                pi = w + 1
                rest = rows[v] >> pi
                if not visited[w]:
                    work[-1] = (v, pi)
                    work.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            work.pop()
            if work:
                pv = work[-1][0]
                low[pv] = min(low[pv], low[v])
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    comp_of[w] = ncomp
                    if w == v:
                        break
                ncomp += 1
    return ncomp, comp_of


def transitive_closure_rows(rows):
    """Reflexive-transitive closure of a relation given as bit-mask rows.

    Tarjan numbers each strongly connected component after every component
    it reaches, so one ascending pass over the components finds the reach
    of each from the reaches already found.  Members of a component share
    one row.
    """
    ncomp, comp_of = _tarjan_sccs(rows)
    members = [0] * ncomp
    for i, c in enumerate(comp_of):
        members[c] |= 1 << i
    reach = [0] * ncomp
    for c in range(ncomp):
        out = 0
        rest = members[c]
        while rest:
            low = rest & -rest
            out |= rows[low.bit_length() - 1]
            rest ^= low
        acc = members[c]
        rest = out & ~acc
        while rest:
            acc |= reach[comp_of[(rest & -rest).bit_length() - 1]]
            rest &= ~acc
        reach[c] = acc
    return [reach[c] for c in comp_of]


@dataclass
class ClassPoset:
    """Quotient of a preorder: equivalence classes under mutual <=, ordered.

    Classes are numbered by their least member's position in the source
    carrier, and each class is named by that least member.
    """

    items: tuple
    classes: tuple
    rows: list
    covers: tuple
    class_of: dict

    def __len__(self):
        return len(self.classes)

    def leq_idx(self, i, j):
        return self.rows[i] >> j & 1 == 1

    def leq(self, a, b):
        return self.leq_idx(self.class_of[a], self.class_of[b])

    def rep(self, ci):
        return self.classes[ci][0]

    def strict_up_mask(self, ci):
        return self.rows[ci] & ~(1 << ci)

    def levels(self):
        """Longest-chain height of every class above the minimal ones."""
        order = sorted(range(len(self.classes)), key=lambda i: _down_count(self.rows, i))
        level = [0] * len(self.classes)
        for i in order:
            below = [level[lo] + 1 for lo, hi in self.covers if hi == i]
            level[i] = max(below, default=0)
        return level

    def maximal(self):
        return tuple(i for i in range(len(self.classes)) if self.strict_up_mask(i) == 0)

    def minimal(self):
        up = _transpose(self.rows)
        return tuple(i for i in range(len(self.classes)) if up[i] & ~(1 << i) == 0)


def _transpose(rows):
    n = len(rows)
    cols = [0] * n
    for i, row in enumerate(rows):
        rest = row
        while rest:
            low = rest & -rest
            cols[low.bit_length() - 1] |= 1 << i
            rest ^= low
    return cols


def _down_count(rows, i):
    return sum(1 for row in rows if row >> i & 1)


def quotient(p):
    """Collapse mutual comparabilities; the classes inherit a partial order.

    The classes are the groups of equal rows that ``p.check()`` verified,
    numbered by least member, ordered by the class rows it collected.
    ``Preorder.poset`` keeps the result; this always computes.
    """
    group_of, rows = p.check()
    members = [[] for _ in rows]
    for a, g in zip(p.items, group_of):
        members[g].append(a)
    covers = _transitive_reduction(rows)
    class_of = dict(zip(p.items, group_of))
    return ClassPoset(p.items, tuple(map(tuple, members)), rows, covers, class_of)


def _transitive_reduction(rows):
    n = len(rows)
    strict = [row & ~(1 << i) for i, row in enumerate(rows)]
    strict_down = _transpose(strict)
    covers = []
    for i in range(n):
        rest = strict[i]
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            if strict[i] & strict_down[j] & ~(1 << j) == 0:
                covers.append((i, j))
    return tuple(sorted(covers))


def order_violation(src_rows, dst_rows, f):
    """First (i, j) with i <= j in the source but not f[i] <= f[j], else None.

    ``f`` lists the target index of every source index.  The up-set of each
    hit target is pulled back through the fibres of f once, on first use;
    source item i then fails exactly at the bits of its row outside the
    pullback of f[i]'s up-set.  The lowest failing i and its lowest failing
    j are the pair a pairwise scan in index order meets first.
    """
    fibre = {}
    hit = 0
    for i, t in enumerate(f):
        fibre[t] = fibre.get(t, 0) | 1 << i
        hit |= 1 << t
    allowed = {}
    for i, row in enumerate(src_rows):
        t = f[i]
        pulled = allowed.get(t)
        if pulled is None:
            pulled = 0
            rest = dst_rows[t] & hit
            while rest:
                low = rest & -rest
                pulled |= fibre[low.bit_length() - 1]
                rest ^= low
            allowed[t] = pulled
        bad = row & ~pulled
        if bad:
            return i, (bad & -bad).bit_length() - 1
    return None


def is_order_isomorphism(src_rows, dst_rows, f):
    """Is the index map ``f`` a bijection that preserves and reflects <=?"""
    if sorted(f) != list(range(len(dst_rows))):
        return False
    inverse = [0] * len(f)
    for i, t in enumerate(f):
        inverse[t] = i
    return (
        order_violation(src_rows, dst_rows, f) is None
        and order_violation(dst_rows, src_rows, inverse) is None
    )


def _item_violation(fmap, src, dst):
    """First items (a, b) with a <= b in ``src`` but not fmap[a] <= fmap[b], else None."""
    found = order_violation(src.rows, dst.rows, [dst.index(fmap[a]) for a in src.items])
    if found is None:
        return None
    i, j = found
    return src.items[i], src.items[j]


@dataclass
class InducedMap:
    """The quotient-level map induced by a preorder-respecting item map."""

    source: ClassPoset
    target: ClassPoset
    class_map: tuple

    def apply(self, a):
        return self.class_map[self.source.class_of[a]]

    def is_surjective(self):
        return len(set(self.class_map)) == len(self.target)

    def fibers(self):
        """For each target class, the list of source classes mapping onto it."""
        out = [[] for _ in range(len(self.target))]
        for ci, cj in enumerate(self.class_map):
            out[cj].append(ci)
        return out


def induce(f, src, dst):
    """Quotient-level map of a preorder morphism; the one check of its laws.

    The class rows of a quotient are exact: class(a) <= class(b) exactly
    when a <= b.  So f respects the preorders exactly when (1) every member
    of a source class lands in the target class of the class's first
    member, and (2) the class map so defined respects the class rows.
    Those two are decided here, by one pass of lookups over the items,
    class by class, and one ``order_violation`` over the classes.  (1) is
    also well-definedness on classes, the item->class square
    ``class_map[class(a)] == class(f(a))`` for every item, and "the
    preimage of every target class is a union of source classes".

    When either fails, the item-level check names the first offending pair
    and NotAMorphismError carries it.  Only posets planted by hand, whose
    class rows disagree with their items, can fail (1) or (2) with no such
    pair; that raises AssertionError.  Both quotients are taken first, so
    a malformed preorder raises MalformedPreorderError before any map law.
    """
    missing = [a for a in src.items if a not in f]
    if missing:
        raise ValueError(f"map not total on the source carrier, e.g. {missing[0]!r}")
    sp = src.poset
    tp = dst.poset
    target_class = tp.class_of
    class_map = []
    split = None
    for cls in sp.classes:
        target = target_class[f[cls[0]]]
        if split is None and any(target_class[f[a]] != target for a in cls[1:]):
            split = cls
        class_map.append(target)
    class_map = tuple(class_map)
    if split is not None or order_violation(sp.rows, tp.rows, class_map) is not None:
        witness = _item_violation(f, src, dst)
        if witness is not None:
            raise NotAMorphismError(witness)
        if split is not None:
            count = len({target_class[f[b]] for b in split})
            raise AssertionError(f"class of {split[0]!r} maps into {count} target classes")
        raise AssertionError("induced class map is not order-preserving")
    return InducedMap(sp, tp, class_map)


def poset_isomorphic(p, q):
    """Search for an order isomorphism p -> q; None if there is none.

    Backtracking over classes, pruned by purely order-theoretic signatures
    (chain level, cover up-degree, cover down-degree); class sizes are
    deliberately ignored since corresponding classes need not have equal
    member counts.
    """
    np_, nq = len(p), len(q)
    if np_ != nq:
        return None
    psig = _signatures(p)
    qsig = _signatures(q)
    if sorted(psig) != sorted(qsig):
        return None
    candidates = [
        tuple(j for j in range(nq) if qsig[j] == psig[i]) for i in range(np_)
    ]
    order = sorted(range(np_), key=lambda i: (len(candidates[i]), i))
    assignment = [-1] * np_
    used = [False] * nq

    def backtrack(k):
        if k == np_:
            return True
        i = order[k]
        for j in candidates[i]:
            if used[j]:
                continue
            good = True
            for prev in order[:k]:
                pj = assignment[prev]
                if (
                    p.leq_idx(i, prev) != q.leq_idx(j, pj)
                    or p.leq_idx(prev, i) != q.leq_idx(pj, j)
                ):
                    good = False
                    break
            if good:
                assignment[i] = j
                used[j] = True
                if backtrack(k + 1):
                    return True
                assignment[i] = -1
                used[j] = False
        return False

    if not backtrack(0):
        return None
    return {i: assignment[i] for i in range(np_)}


def _signatures(poset):
    levels = poset.levels()
    up = [0] * len(poset)
    down = [0] * len(poset)
    for lo, hi in poset.covers:
        up[lo] += 1
        down[hi] += 1
    return [(levels[i], up[i], down[i]) for i in range(len(poset))]


def lattice_violation(poset):
    """First pair of classes lacking a unique join or meet, else None.

    Exhaustive: for each pair the common upper (lower) bounds are collected
    and the pair fails unless exactly one of them is minimal (maximal).
    """
    n = len(poset)
    up = poset.rows
    down = _transpose(poset.rows)
    for i in range(n):
        for j in range(i + 1, n):
            common_up = up[i] & up[j]
            if _extreme_count(common_up, down) != 1:
                return ("join", i, j)
            common_down = down[i] & down[j]
            if _extreme_count(common_down, up) != 1:
                return ("meet", i, j)
    return None


def _extreme_count(candidates, toward):
    """Number of members of ``candidates`` with no other candidate strictly toward them."""
    count = 0
    rest = candidates
    while rest:
        low = rest & -rest
        k = low.bit_length() - 1
        rest ^= low
        if candidates & toward[k] & ~(1 << k) == 0:
            count += 1
    return count
