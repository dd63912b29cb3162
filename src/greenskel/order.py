"""Finite preorders, their partial-order quotients, and maps between them.

A ``Preorder`` is held on its classes: the class of every item plus the
order of the classes, one bit row per class.  Its constructor checks the
laws on those classes and finds the covers of the class order with the
same union, and ``ClassPoset(p)``, the quotient, takes them as they are.
Every query is answered on the classes.

A relation given by its generating edges, such as a Cayley graph, is
closed by ``closure_classes``.  Every edge points down the order, so b <=
a when a reaches b: Tarjan's strongly connected components of the
adjacency lists, then one pass over their condensation with class bit
rows, which is the form ``Preorder`` takes.
"""

from functools import cached_property

from .core import _WIDE, apply_mask


class MalformedPreorderError(ValueError):
    """Input relation is not reflexive and transitive."""


class NotAMorphismError(ValueError):
    """A map claimed to respect preorders does not; carries a witness pair."""

    def __init__(self, witness):
        a, b = witness
        super().__init__(f"{a!r} <= {b!r} in the source but the images are unrelated")
        self.witness = witness


class Preorder:
    """An indexed carrier plus a reflexive-transitive relation, held on its classes.

    items[i] <= items[j] when class ``class_of[i]`` <= class
    ``class_of[j]``: bit d of ``class_rows[c]`` says class c <= class d.
    ``firsts[c]`` is the index of class c's least member, and ``covers``
    lists the pairs (c, d), sorted, where d is strictly above c with no
    class between.

    The constructor decides the laws, so every Preorder is a preorder: the
    items are distinct (else ValueError), and MalformedPreorderError is
    raised unless the classes are partially ordered.  One pass over
    ``class_of`` checks that every item lies in a class already met or in
    the next one, so the classes are numbered by least member, and that
    every class row has a member.  The class rows are then checked per
    class: reflexive, with no bit past the last class, transitive, and
    distinct, since in a reflexive, transitive relation two classes with
    equal rows are mutually related.  Transitivity takes one union per
    class: ``above``, the OR of the strict rows of the classes strictly
    above c, must lie inside c's row.  The covers of c are then the bits
    of its strict row outside ``above``.  Each class is named in a message
    by its least member.
    """

    def __init__(self, items, class_of, class_rows):
        self.items = items = tuple(items)
        if len(class_of) != len(items):
            raise ValueError("class list size does not match carrier size")
        if len(set(items)) != len(items):
            raise ValueError("carrier items must be distinct")
        self.class_of = class_of
        self.class_rows = class_rows
        self.firsts = firsts = []
        count = 0
        for i, c in enumerate(class_of):
            if c == count:
                count += 1
                firsts.append(i)
            elif not 0 <= c < count:
                raise MalformedPreorderError(
                    f"class {c!r} of {items[i]!r} is not numbered by least member"
                )
        if count != len(class_rows):
            raise MalformedPreorderError(
                f"class count {count} differs from class row count {len(class_rows)}"
            )

        def rep(c):
            return items[class_of.index(c)]

        strict = [row & ~(1 << c) for c, row in enumerate(class_rows)]
        covers = []
        first = {}
        for c, row in enumerate(class_rows):
            if not row >> c & 1:
                raise MalformedPreorderError(f"relation not reflexive at {rep(c)!r}")
            if row >> count:
                raise MalformedPreorderError(
                    f"class of {rep(c)!r} is below a class that does not exist"
                )
            above = union_over(strict[c], strict)
            bad = above & ~row
            if bad:
                raise MalformedPreorderError(
                    f"relation not transitive: {rep(c)!r} reaches {rep((bad & -bad).bit_length() - 1)!r} in two steps only"
                )
            d = first.setdefault(row, c)
            if d != c:
                raise MalformedPreorderError(f"classes of {rep(d)!r} and {rep(c)!r} are mutually related")
            rest = strict[c] & ~above
            while rest:
                low = rest & -rest
                covers.append((c, low.bit_length() - 1))
                rest ^= low
        self.covers = tuple(covers)

    @cached_property
    def rows(self):
        """Item rows, N² bits; only perfbench/tracing.py reads them, to count relation pairs."""
        members = fibres(self.class_of, len(self.class_rows))
        up = [union_over(row, members) for row in self.class_rows]
        return [up[c] for c in self.class_of]

    def __len__(self):
        return len(self.items)

    @cached_property
    def poset(self):
        """``ClassPoset(self)``, built on first use and kept."""
        return ClassPoset(self)


def union_over(row, masks):
    """The OR of ``masks[k]`` over the bits k of ``row``.

    Up to ``_WIDE`` masks the bits are peeled off ``row``; above that they
    are read from its binary digits (``set_bits``), as ``apply_mask`` does.
    """
    acc = 0
    if len(masks) > _WIDE:
        for k in set_bits(row):
            acc |= masks[k]
        return acc
    while row:
        low = row & -row
        acc |= masks[low.bit_length() - 1]
        row ^= low
    return acc


def fibres(labels, count):
    """Bit i of ``fibres(labels, count)[c]`` says labels[i] == c.

    Setting the bits one at a time would copy the growing int each time, so
    each mask is filled as packed bytes, sized to its last index, and read
    by one ``int.from_bytes``.
    """
    last = [-1] * count
    for i, c in enumerate(labels):
        last[c] = i
    packed = [bytearray(j // 8 + 1) for j in last]
    for i, c in enumerate(labels):
        packed[c][i >> 3] |= 1 << (i & 7)
    return [int.from_bytes(p, "little") for p in packed]


def set_bits(row):
    """The positions of the set bits of ``row``, lowest first.

    The binary digits are read once, lowest first, and ``str.find`` jumps
    from member to member: one step per member, where peeling a bit off a
    wide int copies the whole int.
    """
    digits = bin(row)[:1:-1]
    out = []
    k = digits.find("1")
    while k >= 0:
        out.append(k)
        k = digits.find("1", k + 1)
    return out


def strongly_connected(succ):
    """Tarjan's strongly connected components of a digraph, iteratively.

    ``succ[v]`` lists the heads of the edges out of v.  Returns the number
    of components and the component of every vertex; each component is
    numbered after every component it reaches.
    """
    n = len(succ)
    order = [-1] * n
    low = [0] * n
    comp_of = [-1] * n
    stack = []
    counter = 0
    ncomp = 0
    for root in range(n):
        if order[root] >= 0:
            continue
        order[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, heads = work[-1]
            for w in heads:
                if order[w] < 0:
                    order[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                # a vertex seen but not yet in a component is on the stack
                if comp_of[w] < 0 and order[w] < low[v]:
                    low[v] = order[w]
            else:
                work.pop()
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
                if low[v] == order[v]:
                    while True:
                        w = stack.pop()
                        comp_of[w] = ncomp
                        if w == v:
                            break
                    ncomp += 1
    return ncomp, comp_of


def closure_classes(succ):
    """Reflexive-transitive closure of a digraph, as the classes and rows of a ``Preorder``.

    Every edge points down the order: b <= a when a reaches b.  The
    classes are the strongly connected components of ``succ``, renumbered
    by least member, and bit d of ``class_rows[c]`` says class d reaches
    class c, which is c <= d.  Tarjan numbers each component after every
    component it reaches, so in one descending pass a component's row is
    whole when its turn comes, and is then ORed into the rows of the
    components its edges reach.  Those edges of the condensation are held
    as bit rows of C components, and so are the rows: C bits, not n.
    """
    ncomp, comp_of = strongly_connected(succ)
    renumber = [-1] * ncomp
    count = 0
    for c in comp_of:
        if renumber[c] < 0:
            renumber[c] = count
            count += 1
    out = [0] * ncomp
    for v, heads in enumerate(succ):
        c = comp_of[v]
        for w in heads:
            out[c] |= 1 << comp_of[w]
    reach = [1 << r for r in renumber]
    for c in range(ncomp - 1, -1, -1):
        row = reach[c]
        rest = out[c] & ~(1 << c)
        while rest:
            low = rest & -rest
            reach[low.bit_length() - 1] |= row
            rest ^= low
    class_rows = [0] * ncomp
    for c, r in enumerate(renumber):
        class_rows[r] = reach[c]
    return [renumber[c] for c in comp_of], class_rows


class ClassPoset:
    """Quotient of a preorder: equivalence classes under mutual <=, ordered.

    Built from a ``Preorder`` p.  Classes are numbered by their least
    member's position in the source carrier, and each class is named by
    that least member.  ``items``, ``rows`` (bit d of ``rows[c]`` says
    class c <= class d), ``covers`` and ``item_class`` (the class of every
    item by index) are p's own objects, which its constructor checked and
    found; only the member lists are built here.
    """

    def __init__(self, p):
        members = [[] for _ in p.class_rows]
        for a, c in zip(p.items, p.class_of):
            members[c].append(a)
        self.items = p.items
        self.classes = tuple(map(tuple, members))
        self.rows = p.class_rows
        self.covers = p.covers
        self.item_class = p.class_of

    def __len__(self):
        return len(self.classes)

    def _covers_bottom_up(self):
        """The covers (lo, hi), by decreasing up-set size of hi.

        A class strictly below another has a strictly larger up-set, so
        every cover into a class comes before every cover out of it.
        """
        return sorted(self.covers, key=lambda cover: -self.rows[cover[1]].bit_count())

    def levels(self):
        """Longest-chain height of every class above the minimal ones, in one pass bottom up."""
        level = [0] * len(self.classes)
        for lo, hi in self._covers_bottom_up():
            level[hi] = max(level[hi], level[lo] + 1)
        return level

    def down_sets(self):
        """Bit d of ``down_sets()[c]`` says class d <= class c: the converse of ``rows``.

        Bottom up, each down-set is the class's own bit ORed with the
        down-sets of its lower covers.
        """
        down = [1 << i for i in range(len(self.classes))]
        for lo, hi in self._covers_bottom_up():
            down[hi] |= down[lo]
        return down

    def maximal(self):
        return tuple(i for i, row in enumerate(self.rows) if row & ~(1 << i) == 0)


def order_violation(src_rows, dst_rows, f):
    """First (i, j) with i <= j in the source but not f[i] <= f[j], else None.

    ``f`` lists the target index of every source index.  The up-set of each
    hit target is pulled back through the fibres of f once, on first use;
    source item i then fails exactly at the bits of its row outside the
    pullback of f[i]'s up-set.  The lowest failing i and its lowest failing
    j are the pair a pairwise scan in index order meets first.
    """
    fibre = fibres(f, len(dst_rows))
    allowed = {}
    for i, row in enumerate(src_rows):
        t = f[i]
        pulled = allowed.get(t)
        if pulled is None:
            pulled = allowed[t] = union_over(dst_rows[t], fibre)
        bad = row & ~pulled
        if bad:
            return i, (bad & -bad).bit_length() - 1
    return None


class InducedMap:
    """The quotient-level map induced by a preorder-respecting item map."""

    def __init__(self, source, target, class_map):
        self.source = source
        self.target = target
        self.class_map = class_map

    def is_surjective(self):
        return len(set(self.class_map)) == len(self.target)

    def is_isomorphism(self):
        """Is the class map f an order isomorphism?  The one such verdict.

        It needs f to preserve the order, which ``induce_indexed``, the
        maker of every InducedMap, decides.  Then f is one exactly when it
        is a bijection and both posets relate as many class pairs: f x f
        maps the source's pairs injectively into the target's, so equal
        counts make it onto, and f[i] <= f[j] comes only from i <= j.
        """
        return len(self.source) == len(self.target) and self.is_surjective() and (
            sum(map(int.bit_count, self.source.rows)) == sum(map(int.bit_count, self.target.rows))
        )

    def fibers(self):
        """For each target class, the list of source classes mapping onto it."""
        out = [[] for _ in range(len(self.target))]
        for ci, cj in enumerate(self.class_map):
            out[cj].append(ci)
        return out


def induce_indexed(image, src, dst):
    """Quotient-level map of a preorder morphism; the one check of its laws.

    ``image[i]`` is the index in ``dst`` of the image of source item i.
    The class rows of a ``Preorder`` are exact: class(a) <= class(b)
    exactly when a <= b.  So the map respects the preorders exactly when
    (1) every member of a source class lands in the target class of the
    class's first member, and (2) the class map so defined respects the
    class rows.  Those two are decided here on the preorders' own classes,
    by one comparison of two lists of target classes over the items and
    one ``order_violation`` over the classes.  (1) is also
    well-definedness on classes, the item->class square
    ``class_map[class(a)] == class(f(a))`` for every item, and "the
    preimage of every target class is a union of source classes".

    When either fails, some pair of items a <= b has unrelated images: a
    class split over two target classes, or a broken class order, at the
    first members of its classes.  ``order_violation`` names the first
    such pair, one source item row at a time against the target class of
    each image, and NotAMorphismError carries it.
    """
    lands = list(map(dst.class_of.__getitem__, image))
    class_map = tuple(map(lands.__getitem__, src.firsts))
    if (
        list(map(class_map.__getitem__, src.class_of)) != lands
        or order_violation(src.class_rows, dst.class_rows, class_map) is not None
    ):
        members = fibres(src.class_of, len(src.class_rows))
        item_rows = (union_over(src.class_rows[c], members) for c in src.class_of)
        i, j = order_violation(item_rows, dst.class_rows, lands)
        raise NotAMorphismError((src.items[i], src.items[j]))
    return InducedMap(src.poset, dst.poset, class_map)


def poset_isomorphic(p, q):
    """Search for an order isomorphism p -> q; None if there is none.

    Backtracking over classes, without recursion, pruned by purely
    order-theoretic signatures (chain level, cover up-degree, cover
    down-degree); class sizes are deliberately ignored since corresponding
    classes need not have equal member counts.  At each depth the up-set
    and the down-set of the class to assign, within the classes assigned
    before it, are mapped through the assignment once; a candidate fits
    when its own up-set and down-set within the used classes of q equal
    them, two masked comparisons of bit rows.
    """
    np_, nq = len(p), len(q)
    if np_ != nq:
        return None
    psig = _signatures(p)
    qsig = _signatures(q)
    if sorted(psig) != sorted(qsig):
        return None
    by_signature = {}
    for j, sig in enumerate(qsig):
        by_signature.setdefault(sig, []).append(j)
    candidates = [by_signature[sig] for sig in psig]
    order = sorted(range(np_), key=lambda i: (len(candidates[i]), i))
    p_down, q_down = p.down_sets(), q.down_sets()
    # before[k]: the classes assigned above depth k, order[:k], as a mask
    before = [0] * np_
    for k in range(1, np_):
        before[k] = before[k - 1] | 1 << order[k - 1]
    assignment = [-1] * np_
    used = 0
    # depth k assigns class order[k]; tried[k] counts its candidates tried
    # so far, so a return to depth k resumes after the last one
    tried = [0] * np_
    k = 0
    while 0 <= k < np_:
        i = order[k]
        if assignment[i] >= 0:  # back from depth k + 1: undo the choice here
            used ^= 1 << assignment[i]
            assignment[i] = -1
        up = apply_mask(p.rows[i] & before[k], assignment)
        down = apply_mask(p_down[i] & before[k], assignment)
        for j in candidates[i][tried[k]:]:
            tried[k] += 1
            if not used >> j & 1 and q.rows[j] & used == up and q_down[j] & used == down:
                assignment[i] = j
                used |= 1 << j
                break
        if assignment[i] >= 0:
            k += 1
            if k < np_:
                tried[k] = 0
        else:
            k -= 1
    if k < 0:
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
    down = poset.down_sets()
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
