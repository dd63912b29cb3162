"""Slow, independent reference implementations used as test oracles.

Most of it works on raw image tuples and plain Python sets, avoiding the
library's bit masks, caching, and ordering conventions on purpose.  The
few oracles that take the library's objects, so that witnesses and error
messages compare exactly, say so.
"""

import itertools
from dataclasses import dataclass

from greenskel.core import (
    DomainMismatchError,
    StateSubset,
    Transformation,
    TransformationSemigroup,
    apply_mask,
)
from greenskel.green import ConsistencyError, green_poset, green_preorder
from greenskel.maps import im_bar, im_bar_S
from greenskel.morphisms import TsMorphism
from greenskel.order import (
    MalformedPreorderError,
    Preorder,
    _signatures,
    induce_indexed,
)
from greenskel.skeleton import image_set, subduction_preorder


def comp(s, t):
    """First s, then t, on raw image tuples."""
    return tuple(t[x] for x in s)


def close(gens):
    """Fixed-point closure under composition; order-free set algorithm."""
    elements = set(gens)
    while True:
        fresh = {comp(s, t) for s in elements for t in elements} - elements
        if not fresh:
            return elements
        elements |= fresh


def with_identity(elements, n):
    return set(elements) | {tuple(range(n))}


def right_ideal(s, monoid):
    return {comp(s, t) for t in monoid}


def left_ideal(s, monoid):
    return {comp(t, s) for t in monoid}


def two_sided_ideal(s, monoid):
    return {comp(comp(u, s), t) for u in monoid for t in monoid}


def green_leq(a, b, monoid, kind):
    if kind == "R":
        return right_ideal(a, monoid) <= right_ideal(b, monoid)
    if kind == "L":
        return left_ideal(a, monoid) <= left_ideal(b, monoid)
    if kind == "J":
        return two_sided_ideal(a, monoid) <= two_sided_ideal(b, monoid)
    if kind == "H":
        return green_leq(a, b, monoid, "L") and green_leq(a, b, monoid, "R")
    raise ValueError(kind)


def reversed_cayley_rows(m, which):
    """Bit t of row s when t*g = s (R), g*t = s (L) or either (J), g in the generating images.

    The library's Green path before it kept relations on classes: it takes
    the semigroup object and element numbering, so rows compare exactly.
    """
    index = {t.images: i for i, t in enumerate(m.elements)}
    gens = m.generating_images()
    rows = [0] * len(index)
    for s, i in index.items():
        for g in gens:
            if which != "L":
                rows[index[comp(s, g)]] |= 1 << i
            if which != "R":
                rows[index[comp(g, s)]] |= 1 << i
    return rows


def cayley_graphs(m):
    """The right and left Cayley graphs of S^1 as successor tuples, by tuple products.

    The library's path before the edges were read off the keys: one
    ``multiplier`` per element and per generator, on the element objects'
    image tuples.  It takes the library's element numbering and generating
    images, so the graphs compare exactly.
    """
    m = m.adjoin_identity()
    index = {t.images: i for i, t in enumerate(m.elements)}
    gens = m.generating_images()
    right = [tuple(index[comp(s, g)] for g in gens) for s in index]
    left = [tuple(index[comp(g, s)] for g in gens) for s in index]
    return right, left


def green_rows(m, which):
    """Dense rows of Green's preorder on S^1: bit j of row i when s_i <=_K s_j.

    The reflexive-transitive closure of the reversed Cayley rows by the
    bit-row Tarjan below, and H as the AND of the L and R rows.
    """
    m = m.adjoin_identity()
    if which == "H":
        return [a & b for a, b in zip(green_rows(m, "L"), green_rows(m, "R"))]
    return tarjan_closure_rows(reversed_cayley_rows(m, which))


def tarjan_sccs(rows):
    """Strongly connected components of a bit-row digraph, iteratively.

    Returns the count and the component of every vertex; each component is
    numbered after every component it reaches.
    """
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


def tarjan_closure_rows(rows):
    """Reflexive-transitive closure of bit rows, by ``tarjan_sccs``.

    Tarjan numbers each strongly connected component after every component
    it reaches, so one ascending pass over the components finds the reach
    of each from the reaches already found.  Members of a component share
    one row.
    """
    ncomp, comp_of = tarjan_sccs(rows)
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


def classes_by_mutual(items, leq):
    """Partition by mutual comparability, ordered by first item occurrence."""
    out = []
    assigned = {}
    for a in items:
        if a in assigned:
            continue
        cls = [b for b in items if b not in assigned and leq(a, b) and leq(b, a)]
        for b in cls:
            assigned[b] = len(out)
        out.append(tuple(cls))
    return out


def image_set_origin(m):
    """Each image of an element of ``m`` with its first witness in canonical order.

    The full set comes first, witnessed by the identity.  Takes and returns
    the library's objects, so that the subsets compare exactly.
    """
    origin = {StateSubset.full(m.n): m.identity()}
    for t in m.elements:
        sub = t.image()
        if sub not in origin:
            origin[sub] = t
    return origin


def right_regular_table(elements, n):
    """rho(s) for every s in S^1 by the full |S^1|^2 table of products.

    ``elements`` are the image tuples of S.  The states are the elements of
    S^1, identity first and the rest sorted, and rho(s) sends state a to
    state a*s.  Returns the image tuple of rho(s) under s's image tuple.
    """
    one = tuple(range(n))
    carrier = [one] + sorted(set(elements) - {one})
    state = {a: i for i, a in enumerate(carrier)}
    return {s: tuple(state[comp(a, s)] for a in carrier) for s in carrier}


def regular_representation(ts):
    """The representation semigroup itself, with rho over S^1, the long way.

    rho(s) for every s of S^1 comes from ``right_regular_table``, and the
    representation is generated from rho(s) for every s of S.  Takes and
    returns the library's objects: ``(rep, rho)`` with ``rho`` a dict from
    the elements of S^1 to their maps.
    """
    m = ts.adjoin_identity()
    table = right_regular_table([t.images for t in ts.elements], ts.n)
    rho = {s: Transformation(table[s.images]) for s in m.elements}
    rep = TransformationSemigroup.generate(len(table), [rho[s] for s in ts.elements])
    return rep, rho


def corollary_maps(ts):
    """``(j_map, l_map)`` through the representation's own Green classes.

    s -> rho(s) is induced from the J (L) classes of S^1 into those of the
    representation's monoid, then composed with that monoid's ``im_bar_S``
    (``im_bar``) into its skeleton (inclusion) classes.
    """
    rep, rho = regular_representation(ts)
    m, mt = ts.adjoin_identity(), rep.adjoin_identity()
    maps = []
    for kind, rep_bar in (("J", im_bar_S), ("L", im_bar)):
        src, dst = green_preorder(m, kind), green_preorder(mt, kind)
        at = {t: i for i, t in enumerate(dst.items)}
        bridge = induce_indexed([at[rho[s]] for s in src.items], src, dst)
        rep_map = rep_bar(mt).class_map
        maps.append(tuple(rep_map[c] for c in bridge.class_map))
    return tuple(maps)


def image_of(s):
    return frozenset(s)


def images(monoid):
    return {image_of(s) for s in monoid}


def act(subset, s):
    return frozenset(s[x] for x in subset)


def subduction(P, Q, monoid):
    return any(P <= act(Q, s) for s in monoid)


def inclusion_rows(subsets):
    """Inclusion on distinct library subsets by all |I|^2 pair tests.

    Bit j of row i says subsets[i] <= subsets[j]: the pair loop that
    ``skeleton.inclusion`` replaced with ANDs of per-state columns.
    """
    masks = [P.mask for P in subsets]
    return [sum(1 << j for j, q in enumerate(masks) if p & ~q == 0) for p in masks]


def subduction_by_images(subsets, gens):
    """Subduction on a closed carrier of library subsets, every orbit edge applied anew.

    Every inclusion pair (``inclusion_rows``) and every pair Q^g <= Q, each
    Q^g found by its own ``apply_mask``, closed by the fixpoint of
    ``transitive_closure_rows`` and grouped into classes by equal rows
    (``equal_row_classes``): none of the library's closure.  Returns the
    ``Preorder``.
    """
    index = {P.mask: i for i, P in enumerate(subsets)}
    rows = inclusion_rows(subsets)
    for q, i in index.items():
        for g in gens:
            rows[index[apply_mask(q, g)]] |= 1 << i
    return Preorder(subsets, *equal_row_classes(subsets, transitive_closure_rows(rows)))


def extended_image_set(ts):
    """The extended carrier of S^1 renumbered from the library's plain ``image_set``.

    The form ``skeleton.extended_image_set`` had before it seeded one
    orbit search with the singletons: the singletons missing from I(X) are
    adjoined, the orbit's edges are moved into the larger carrier, and an
    adjoined {x} goes to {x^g} for every generating image g, with no
    ``apply_mask``.  Returns ``(subsets, edges, adjoined)``.
    """
    m = ts.adjoin_identity()
    base = image_set(m)
    adjoined = frozenset(
        s for x in range(m.n) if (s := StateSubset.singleton(m.n, x)) not in base
    )
    subsets = tuple(sorted(set(base.subsets) | adjoined, key=StateSubset.sort_key))
    position = {P.mask: i for i, P in enumerate(subsets)}
    moved = [position[P.mask] for P in base.subsets]
    edges = [None] * len(subsets)
    for P, heads in zip(base.subsets, base.edges):
        edges[position[P.mask]] = tuple(map(moved.__getitem__, heads))
    for P in adjoined:
        x = P.mask.bit_length() - 1
        edges[position[P.mask]] = tuple(position[1 << g[x]] for g in m.generating_images())
    return subsets, tuple(edges), adjoined


def is_closed(elements):
    """Does every product of two of ``elements`` lie among them?  All pairs.

    ``elements`` is any iterable of maps, a semigroup or a plain list, so
    a set the constructor refuses can be judged too.
    """
    els = set(elements)
    return all(s * t in els for s in els for t in els)


def closure_scan(generators, elements):
    """The validating constructor's generating set and first missing product, on tuples.

    ``elements`` are the maps in canonical order.  The generating set is
    searched as the constructor does, one image tuple product at a time:
    the declared generators in the set join first, then each element not
    yet reached, by decreasing rank, then in canonical order.  Returns the
    list of generator image tuples and the first (s, g), s in element order
    and then g in list order, with s*g outside the set, or None.
    """
    members = {t.images for t in elements}
    gens = []
    reached = set()

    def join(h):
        gens.append(h)
        frontier = [h] + [comp(u, h) for u in reached]
        while frontier:
            fresh = {w for w in frontier if w in members and w not in reached}
            reached.update(fresh)
            frontier = [comp(u, g) for u in fresh for g in gens]

    for g in dict.fromkeys(generators):
        if g.images in members:
            join(g.images)
    for h in sorted(members - reached, key=lambda u: (-len(set(u)), u)):
        if h not in reached:
            join(h)
    for s in elements:
        for g in gens:
            if comp(s.images, g) not in members:
                return gens, (s, Transformation(g))
    return gens, None


@dataclass(frozen=True)
class SubductionWitness:
    """An element s with P contained in Q^s."""

    s: object
    P: StateSubset
    Q: StateSubset

    def __post_init__(self):
        if not self.P.issubset(self.Q.apply(self.s)):
            raise ValueError(f"{self.s!r} does not carry {self.Q!r} over {self.P!r}")


def subduction_leq(P, Q, ts):
    """First witness s (identity first, then canonical) with P <= Q^s, or None.

    |P| > |Q| is rejected outright: images never grow under the action.
    The scan applies each element to Q in turn and stops at the first hit.
    Unlike the rest of this module it takes the library's subsets and
    elements, so that witnesses compare exactly.
    """
    m = ts.adjoin_identity()
    if len(P) > len(Q):
        return None
    if Q.n != m.n:
        raise DomainMismatchError("subset and map act on different state counts")
    pmask, qmask = P.mask, Q.mask
    if pmask & ~qmask == 0:
        return SubductionWitness(m.identity(), P, Q)
    for s in m.elements:
        if pmask & ~apply_mask(qmask, s.images) == 0:
            return SubductionWitness(s, P, Q)
    return None


def functoriality_subduction(m):
    """The subduction and skeleton-map verdicts of a functoriality check, pair by pair.

    Every pair (P, Q) of I(X) is scanned, i then j, with ``subduction_leq``
    on both sides: a source witness s must give psi(P) <= psi(Q)^phi(s)
    ("verbatim"), and psi(P) <= psi(Q) must hold downstairs
    ("target_relation", whose first failing pair is returned as the
    witness).  The skeleton classes are the groups of mutual subduction,
    and the node map is built class by class.  Returns
    ``(subduction, skeleton_map, target_witness)``.
    """
    sm, tm = m.source.adjoin_identity(), m.target.adjoin_identity()
    phi = dict(m.elem_map)
    phi.setdefault(sm.identity(), tm.identity())

    def psi(P):
        return StateSubset.of(m.target.n, (m.state_map[x] for x in P))

    def leq_x(P, Q):
        return subduction_leq(P, Q, sm) is not None

    def leq_y(P, Q):
        return subduction_leq(P, Q, tm) is not None

    ix = image_set(sm).subsets
    cx = classes_by_mutual(ix, leq_x)
    cy = classes_by_mutual(image_set(tm).subsets, leq_y)
    verbatim = True
    target_witness = None
    for P in ix:
        for Q in ix:
            w = subduction_leq(P, Q, sm)
            if w is None:
                continue
            if not psi(P).issubset(psi(Q).apply(phi[w.s])):
                verbatim = False
            if not leq_y(psi(P), psi(Q)) and target_witness is None:
                target_witness = (P, Q)
    class_of_y = {P: k for k, cls in enumerate(cy) for P in cls}
    node_map = []
    for cls in cx:
        targets = {class_of_y.get(psi(P)) for P in cls}
        if len(targets) != 1 or None in targets:
            node_map = None
            break
        node_map.append(targets.pop())
    well_defined = node_map is not None
    order_preserving = well_defined and all(
        leq_y(psi(a[0]), psi(b[0])) for a in cx for b in cx if leq_x(a[0], b[0])
    )
    skeleton_map = {
        "well_defined": well_defined,
        "order_preserving": order_preserving,
        "surjective": well_defined and sorted(set(node_map)) == list(range(len(cy))),
    }
    subduction = {"verbatim": verbatim, "target_relation": target_witness is None}
    return subduction, skeleton_map, target_witness


def leq(p, a, b):
    """a <= b between two items of a library ``Preorder``, read at their classes."""
    c, d = p.class_of[p.items.index(a)], p.class_of[p.items.index(b)]
    return p.class_rows[c] >> d & 1 == 1


def class_of(q):
    """The class of every item of a library ``ClassPoset``, keyed by item."""
    return dict(zip(q.items, q.item_class))


def relation(p):
    """A library preorder as a plain set of item pairs."""
    return {
        (a, b)
        for i, a in enumerate(p.items)
        for j, b in enumerate(p.items)
        if p.rows[i] >> j & 1
    }


def mutual_classes(items, pairs):
    """Each item -> the frozenset of items related to it both ways."""
    return {
        a: frozenset(b for b in items if (a, b) in pairs and (b, a) in pairs)
        for a in items
    }


def class_order(cls, pairs):
    """Pairs of classes (A, B) with every member of A below every member of B."""
    classes = set(cls.values())
    return {
        (A, B)
        for A in classes
        for B in classes
        if all((a, b) in pairs for a in A for b in B)
    }


def arrow(src_items, src_pairs, dst_items, dst_pairs, f):
    """Surjective and order-preserving verdicts of the map ``f`` (a dict)."""
    return {
        "surjective": {f[a] for a in src_items} == set(dst_items),
        "order_preserving": all((f[a], f[b]) in dst_pairs for a, b in src_pairs),
    }


def induced(items, f, src_cls, dst_cls):
    """Class -> class map read off the members, the last member winning."""
    return {src_cls[a]: dst_cls[f[a]] for a in items}


def square(items, f, src_cls, dst_cls):
    """Does class(a) -> class(f(a)) agree with the induced class map on every item?"""
    g = induced(items, f, src_cls, dst_cls)
    return all(g[src_cls[a]] == dst_cls[f[a]] for a in items)


def fibres_are_unions(items, f, src_cls, dst_cls):
    """Is the preimage of every target class a union of source classes?"""
    for target in {dst_cls[f[a]] for a in items}:
        preimage = {a for a in items if dst_cls[f[a]] == target}
        if preimage != set().union(*(src_cls[a] for a in preimage)):
            return False
    return True


def diagram(ts):
    """Every verdict of ``verify_diagram``, decided the way each law reads.

    The L, J and subduction relations come from the library's preorders as
    plain pair sets (other tests compare those with the ideal and
    subduction oracles); inclusion is ``issubset``.  Classes, class orders,
    the induced maps and every verdict are then built on plain sets and
    dicts.  Returns the ``DiagramReport.to_dict()`` document.
    """
    m = ts.adjoin_identity()
    S = m.elements
    I = image_set(m).subsets
    im = {t: t.image() for t in S}
    lrel = relation(green_preorder(m, "L"))
    jrel = relation(green_preorder(m, "J"))
    incl = {(P, Q) for P in I for Q in I if P.issubset(Q)}
    subd = relation(subduction_preorder(m))
    lcls, jcls = mutual_classes(S, lrel), mutual_classes(S, jrel)
    icls, scls = mutual_classes(I, incl), mutual_classes(I, subd)
    lord, jord = class_order(lcls, lrel), class_order(jcls, jrel)
    iord, sord = class_order(icls, incl), class_order(scls, subd)
    lset, jset = set(lcls.values()), set(jcls.values())
    iset, sset = set(icls.values()), set(scls.values())
    l_to_j = {lcls[t]: jcls[t] for t in S}
    i_to_s = {icls[P]: scls[P] for P in I}
    ibar = induced(S, im, lcls, icls)
    ibar_s = induced(S, im, jcls, scls)

    arrows = {
        "S1->S1/L": arrow(S, lrel, lset, lord, lcls),
        "S1->S1/J": arrow(S, jrel, jset, jord, jcls),
        "im": {
            "surjective": set(im.values()) == set(I),
            "order_preserving": all((im[a], im[b]) in incl for a, b in lrel)
            and all((im[a], im[b]) in subd for a, b in jrel),
        },
        "S1/L->S1/J": arrow(lset, lord, jset, jord, l_to_j),
        "I(X)->skeleton": arrow(iset, iord, sset, sord, i_to_s),
        "im_bar": arrow(lset, lord, iset, iord, ibar),
        "im_bar_S": arrow(jset, jord, sset, sord, ibar_s),
    }
    commutes = {
        "im_bar o /L = im": all(ibar[lcls[t]] == {im[t]} for t in S),
        "im_bar_S o collapse = collapse o im_bar": all(
            ibar_s[l_to_j[A]] == i_to_s[ibar[A]] for A in lset
        ),
        "paths S1->skeleton": square(S, im, jcls, scls),
    }
    preimage_unions = {
        "im_bar fibers are unions of L-classes": fibres_are_unions(S, im, lcls, icls),
        "im_bar_S fibers are unions of J-classes": fibres_are_unions(S, im, jcls, scls),
    }
    verdicts = [v for a in arrows.values() for v in a.values()]
    verdicts += list(commutes.values()) + list(preimage_unions.values())
    return {
        "sizes": {
            "S1": len(S),
            "S1/L": len(lset),
            "S1/J": len(jset),
            "I(X)": len(I),
            "skeleton": len(sset),
        },
        "arrows": arrows,
        "commutes": commutes,
        "preimage_unions": preimage_unions,
        "passed": all(verdicts),
    }


def functoriality_squares(m):
    """The item->class squares of a functoriality check, on plain sets.

    ``L_quotient`` and ``J_quotient`` for the element map phi on the Green
    classes, ``inclusion_to_skeleton_collapse`` for the state map psi on
    the subduction classes.  As in the report, all three read False unless
    phi respects both Green preorders and psi carries I(X) onto I(Y)
    respecting subduction.
    """
    sm, tm = m.source.adjoin_identity(), m.target.adjoin_identity()
    phi = dict(m.elem_map)
    phi.setdefault(sm.identity(), tm.identity())
    ix, iy = image_set(sm).subsets, image_set(tm).subsets
    psi = {P: StateSubset.of(m.target.n, (m.state_map[x] for x in P)) for P in ix}
    rel = {
        (side, kind): relation(green_preorder(side, kind))
        for side in (sm, tm)
        for kind in ("L", "J")
    }
    subx, suby = relation(subduction_preorder(sm)), relation(subduction_preorder(tm))
    gate = set(psi.values()) == set(iy)
    gate = gate and all((psi[P], psi[Q]) in suby for P, Q in subx)
    for kind in ("L", "J"):
        gate = gate and all((phi[a], phi[b]) in rel[tm, kind] for a, b in rel[sm, kind])
    if not gate:
        return dict.fromkeys(("L_quotient", "J_quotient", "inclusion_to_skeleton_collapse"), False)
    out = {}
    for kind in ("L", "J"):
        src_cls = mutual_classes(sm.elements, rel[sm, kind])
        dst_cls = mutual_classes(tm.elements, rel[tm, kind])
        out[f"{kind}_quotient"] = square(sm.elements, phi, src_cls, dst_cls)
    out["inclusion_to_skeleton_collapse"] = square(
        ix, psi, mutual_classes(ix, subx), mutual_classes(iy, suby)
    )
    return out


def transitive(pairs, items):
    """Is the given relation transitive on items?"""
    rel = set(pairs)
    return all(
        ((a, c) in rel)
        for a, b in pairs
        for b2, c in pairs
        if b == b2
    )


def levels(poset):
    """Longest-chain height of every class, classes taken by down-set size.

    The down-set of each class is counted over every class row, and each
    class scans every cover for the ones below it: quadratic, the way the
    definition reads.
    """
    n = len(poset.classes)
    order = sorted(range(n), key=lambda i: sum(1 for row in poset.rows if row >> i & 1))
    level = [0] * n
    for i in order:
        below = [level[lo] + 1 for lo, hi in poset.covers if hi == i]
        level[i] = max(below, default=0)
    return level


def reachable(rows, i):
    """Reflexive-transitive reachability by plain BFS over index lists."""
    seen = {i}
    frontier = [i]
    while frontier:
        nxt = []
        for v in frontier:
            for w in rows[v]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def transitive_reduction(rows):
    """The covers (i, j) of a partial order's bit rows, sorted: j above i, nothing between.

    j covers i when it is strictly above i and strictly above no class
    strictly above i: one union of strict rows per class.  The library's
    cover search before the ``Preorder`` constructor found the covers with
    its transitivity union.
    """
    strict = [row & ~(1 << i) for i, row in enumerate(rows)]
    covers = []
    for i, row in enumerate(strict):
        above = 0
        for j in range(len(rows)):
            if row >> j & 1:
                above |= strict[j]
        covers.extend((i, j) for j in range(len(rows)) if row >> j & 1 and not above >> j & 1)
    return tuple(covers)


def leq_rows(items, leq):
    """Bit-mask rows of a relation, by calling ``leq`` on every item pair."""
    return [
        sum(1 << j for j, b in enumerate(items) if leq(a, b)) for a in items
    ]


def transitive_closure_rows(rows):
    """Reflexive-transitive closure of bit-mask rows by plain fixpoint iteration."""
    n = len(rows)
    closed = [row | 1 << i for i, row in enumerate(rows)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = closed[i]
            rest = acc
            while rest:
                low = rest & -rest
                acc |= closed[low.bit_length() - 1]
                rest ^= low
            if acc != closed[i]:
                closed[i] = acc
                changed = True
    return closed


def quotient(items, rows):
    """The quotient of a bit-mask relation the slow way, or MalformedPreorderError.

    Checks transitivity item by item (each row must hold the rows of all its
    bits), finds the classes with ``tarjan_sccs`` over the dense rows,
    renumbers them by least member and finds the covers pair by
    pair.  It takes bit-mask rows and raises the library's error, unlike the
    rest of this module, so that messages and numbering compare exactly.
    Returns ``(classes, rows, covers, class_of)`` as ``ClassPoset`` holds them.
    """
    for i, row in enumerate(rows):
        if not row >> i & 1:
            raise MalformedPreorderError(f"relation not reflexive at {items[i]!r}")
    for i, row in enumerate(rows):
        reach = 0
        for j in range(len(rows)):
            if row >> j & 1:
                reach |= rows[j]
        if reach & ~row:
            j = min(k for k in range(len(rows)) if reach >> k & 1 and not row >> k & 1)
            raise MalformedPreorderError(
                f"relation not transitive: {items[i]!r} reaches {items[j]!r} in two steps only"
            )
    ncomp, comp_of = tarjan_sccs(rows)
    members = [[i for i in range(len(rows)) if comp_of[i] == c] for c in range(ncomp)]
    order = sorted(range(ncomp), key=lambda c: members[c][0])
    renumber = {old: new for new, old in enumerate(order)}
    classes = tuple(tuple(items[i] for i in members[old]) for old in order)
    class_idx = [renumber[c] for c in comp_of]
    class_rows = [
        sum({1 << class_idx[i] for i in range(len(rows)) if rows[members[old][0]] >> i & 1})
        for old in order
    ]
    covers = tuple(
        (a, b)
        for a in range(ncomp)
        for b in range(ncomp)
        if a != b and class_rows[a] >> b & 1 and not any(
            c not in (a, b) and class_rows[a] >> c & 1 and class_rows[c] >> b & 1
            for c in range(ncomp)
        )
    )
    class_of = {a: class_idx[i] for i, a in enumerate(items)}
    return classes, class_rows, covers, class_of


def preorder(items, rows):
    """The library ``Preorder`` of closed bit rows, with the classes ``quotient`` finds."""
    _, class_rows, _, class_of = quotient(items, rows)
    return Preorder(items, [class_of[a] for a in items], class_rows)


def equal_row_classes(items, rows):
    """The classes and class rows of bit rows by grouping equal rows, or MalformedPreorderError.

    The library's check of dense rows before every relation was held on its
    classes.  In a reflexive, transitive relation two items are mutually
    related exactly when their rows are equal, so the groups of equal rows,
    numbered by least member, are the classes, and transitivity is checked
    once per group: the first failing item and its witness are those an
    item-by-item scan finds.  It stands in for ``quotient`` on carriers
    where the cubic cover search is too slow.
    """
    for i, row in enumerate(rows):
        if not row >> i & 1:
            raise MalformedPreorderError(f"relation not reflexive at {items[i]!r}")
    number = {}
    class_of = []
    masks = []
    for i, row in enumerate(rows):
        g = number.setdefault(row, len(masks))
        if g == len(masks):
            masks.append(0)
        masks[g] |= 1 << i
        class_of.append(g)
    group_rows = list(number)
    class_rows = []
    for g, row in enumerate(group_rows):
        reach = 0
        class_row = 0
        rest = row
        while rest:
            # a row that holds a group's later members without its least
            # one still hits that group
            h = class_of[(rest & -rest).bit_length() - 1]
            reach |= group_rows[h]
            class_row |= 1 << h
            rest &= ~masks[h]
        bad = reach & ~row
        if bad:
            i = (masks[g] & -masks[g]).bit_length() - 1
            j = (bad & -bad).bit_length() - 1
            raise MalformedPreorderError(
                f"relation not transitive: {items[i]!r} reaches {items[j]!r} in two steps only"
            )
        class_rows.append(class_row)
    return class_of, class_rows


def class_item_rows(class_of, class_rows):
    """Bit j of row i when class_of[i] <= class_of[j], pair by pair."""
    return [
        sum(1 << j for j, d in enumerate(class_of) if class_rows[c] >> d & 1) for c in class_of
    ]


def all_partitions(items):
    """Every set partition, by brute-force block assignment."""
    items = list(items)
    if not items:
        yield ()
        return
    first, rest = items[0], items[1:]
    for sub in all_partitions(rest):
        for k in range(len(sub)):
            yield tuple(
                tuple(block) + (first,) if i == k else tuple(block)
                for i, block in enumerate(sub)
            )
        yield sub + ((first,),)


def normalize_partition(blocks):
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def is_lattice(leq, size):
    """Exhaustive unique-lub and unique-glb test over index pairs."""
    for i, j in itertools.combinations(range(size), 2):
        ups = [k for k in range(size) if leq(i, k) and leq(j, k)]
        least = [u for u in ups if all(leq(u, v) for v in ups)]
        if len(least) != 1:
            return False
        downs = [k for k in range(size) if leq(k, i) and leq(k, j)]
        greatest = [d for d in downs if all(leq(v, d) for v in downs)]
        if len(greatest) != 1:
            return False
    return True


def first_order_violation(src_pairs, dst_pairs, f):
    """First (i, j), scanning i then j, with i <= j in the source but not f[i] <= f[j].

    Relations are sets of index pairs and ``f`` lists the target of every
    source index: the plain pairwise check that order preservation means.
    """
    n = len(f)
    for i in range(n):
        for j in range(n):
            if (i, j) in src_pairs and (f[i], f[j]) not in dst_pairs:
                return i, j
    return None


def is_order_isomorphism(src_pairs, dst_pairs, f, dst_size):
    """Is f a bijection onto range(dst_size) with i <= j iff f[i] <= f[j]?"""
    if sorted(f) != list(range(dst_size)):
        return False
    n = len(f)
    return all(
        ((i, j) in src_pairs) == ((f[i], f[j]) in dst_pairs)
        for i in range(n)
        for j in range(n)
    )


def validate(m):
    """The morphism laws checked pair by pair, the way they read.

    Same checks, order and witnesses as ``greenskel.validate``, but the
    homomorphism law is scanned over all |S|^2 pairs in canonical order.
    """
    S = m.source.elements
    hit_states = set(m.state_map)
    if len(hit_states) != m.target.n:
        return False, ("state_map_not_onto", min(set(range(m.target.n)) - hit_states))
    for s in S:
        if m.elem_map[s] not in m.target:
            return False, ("elem_map_not_into_target", s)
    hit = {m.elem_map[s] for s in S}
    for t in m.target.elements:
        if t not in hit:
            return False, ("elem_map_not_onto", t)
    for s in S:
        for t in S:
            if m.elem_map[s * t] != m.elem_map[s] * m.elem_map[t]:
                return False, ("homomorphism", (s, t))
    for s in S:
        for x in range(m.source.n):
            if m.state_map[s(x)] != m.elem_map[s](m.state_map[x]):
                return False, ("compatibility", (x, s))
    if m.source.has_identity and not m.elem_map[m.source.identity()].is_identity():
        return False, ("identity_condition", m.source.identity())
    return True, None


def quotient_by_scan(ts, blocks):
    """``quotient_ts`` block by block: every block's image blocks, as a set.

    Takes the library's objects, so that the target, the element map and
    the error messages compare exactly.  The target is always a new
    semigroup built by the validating constructor, also for the discrete
    partition.
    """
    blocks = tuple(tuple(b) for b in blocks)
    block_of = {x: b for b, block in enumerate(blocks) for x in block}
    if sorted(block_of) != list(range(ts.n)) or sum(len(b) for b in blocks) != ts.n:
        raise ValueError("partition does not cover the state set exactly")

    def induced(s):
        images = []
        for block in blocks:
            targets = {block_of[s(x)] for x in block}
            if len(targets) != 1:
                raise ValueError(f"partition not admissible: {s!r} splits block {block}")
            images.append(targets.pop())
        return Transformation(tuple(images))

    elem_map = {s: induced(s) for s in ts.elements}
    target = TransformationSemigroup(
        len(blocks), [elem_map[g] for g in ts.generators], set(elem_map.values())
    )
    state_map = tuple(block_of[x] for x in range(ts.n))
    return target, TsMorphism(ts, target, state_map, elem_map)


def image_transport(m):
    """The image-set and transport witnesses of a functoriality check, on subsets.

    psi is applied to ``StateSubset`` objects, subset by subset, and the
    orbit edges (Q, g) of I(X) are scanned in order.  Returns the sorted
    symmetric difference of psi(I(X)) and I(Y) (None when psi is onto)
    and the first edge with psi(Q^g) != psi(Q)^phi(g) (or None).  It
    reads the morphism as given, valid or not, and takes the library's
    objects, so that witnesses compare exactly.
    """
    sm, tm = m.source.adjoin_identity(), m.target.adjoin_identity()
    phi = dict(m.elem_map)
    phi.setdefault(sm.identity(), tm.identity())

    def psi(P):
        return StateSubset.of(m.target.n, (m.state_map[x] for x in P))

    ix, iy = image_set(sm).subsets, image_set(tm).subsets
    missed = {psi(P) for P in ix} ^ set(iy)
    images = sorted(missed, key=StateSubset.sort_key) if missed else None
    gens = [Transformation(g) for g in sm.generating_images()]
    transport = next(
        ((Q, g) for Q in ix for g in gens if psi(Q.apply(g)) != psi(Q).apply(phi[g])),
        None,
    )
    return images, transport


def eggboxes(ts):
    """Egg-box grids on element objects: (members, cells, idempotent, col_images) per D-class.

    The library's layout before it read the class lists by index: each
    J-class's members are bucketed by R-class and then by L-class through
    dicts keyed by element (``class_of``), idempotency is
    ``Transformation.is_idempotent`` and each column's image is its
    L-class's first member's ``image()``.
    """
    m = ts.adjoin_identity()
    lq, rq = green_poset(m, "L"), green_poset(m, "R")
    l_of, r_of = class_of(lq), class_of(rq)
    out = []
    for cls in green_poset(m, "J").classes:
        member_set = set(cls)
        row_ids = sorted({r_of[t] for t in cls})
        col_ids = sorted({l_of[t] for t in cls})
        cells = []
        for ri in row_ids:
            buckets = [[t for t in rq.classes[ri] if t in member_set and l_of[t] == ci] for ci in col_ids]
            if not all(buckets):
                raise ConsistencyError("empty H-cell inside a D-class")
            cells.append(tuple(map(tuple, buckets)))
        flags = tuple(tuple(tuple(t.is_idempotent() for t in cell) for cell in row) for row in cells)
        col_images = tuple(lq.classes[ci][0].image() for ci in col_ids)
        out.append((cls, tuple(cells), flags, col_images))
    return out


def induce_by_items(f, src, dst):
    """The class map of ``f`` from the classes of ``src`` to those of ``dst``, or the first bad pair.

    The library's dict path before it decided the laws on indices: the
    target class of every member of every source class, looked up through
    a dict keyed by item (``class_of``), class by class, then the class
    rows.  Returns ``("map", class_map)`` when f respects both preorders,
    else ``("witness", (a, b))`` with the first pair of a pairwise scan
    over the item rows of ``class_item_rows``; the class rows of a
    ``Preorder`` are exact, so a split class or a broken class order always
    has one.
    """
    sp, tp = src.poset, dst.poset
    t_of = class_of(tp)
    class_map = tuple(t_of[f[cls[0]]] for cls in sp.classes)
    split = any(t_of[f[a]] != class_map[c] for c, cls in enumerate(sp.classes) for a in cls)
    broken = any(
        sp.rows[c] >> d & 1 and not tp.rows[class_map[c]] >> class_map[d] & 1
        for c in range(len(sp))
        for d in range(len(sp))
    )
    if not split and not broken:
        return "map", class_map
    src_rows = class_item_rows(src.class_of, src.class_rows)
    dst_rows = class_item_rows(dst.class_of, dst.class_rows)
    at = {b: j for j, b in enumerate(dst.items)}
    return "witness", next(
        (a, b)
        for i, a in enumerate(src.items)
        for j, b in enumerate(src.items)
        if src_rows[i] >> j & 1 and not dst_rows[at[f[a]]] >> at[f[b]] & 1
    )


def im_square(m):
    """The ``im`` square of a functoriality check on subsets: psi(im(s)) == im(phi(s)) for all s.

    The library's form before it compared masks by index: ``image()`` of
    every element and of its image under phi, psi applied to each subset.
    """
    sm, tm = m.source.adjoin_identity(), m.target.adjoin_identity()
    phi = dict(m.elem_map)
    phi.setdefault(sm.identity(), tm.identity())
    return all(
        StateSubset.of(m.target.n, (m.state_map[x] for x in s.image())) == phi[s].image()
        for s in sm.elements
    )


def poset_isomorphic(p, q):
    """Oracle for ``order.poset_isomorphic``: the same search, pair by pair.

    Classes are placed in the same order and candidates tried in the same
    order, so the answer is the same; a candidate is tested against every
    class placed before it, four class-row lookups per pair.
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
    # depth k assigns class order[k]; tried[k] counts its candidates tried
    # so far, so a return to depth k resumes after the last one
    tried = [0] * np_
    k = 0
    while 0 <= k < np_:
        i = order[k]
        if assignment[i] >= 0:  # back from depth k + 1: undo the choice here
            used[assignment[i]] = False
            assignment[i] = -1
        for j in candidates[i][tried[k]:]:
            tried[k] += 1
            if not used[j] and all(
                p.rows[i] >> prev & 1 == q.rows[j] >> assignment[prev] & 1
                and p.rows[prev] >> i & 1 == q.rows[assignment[prev]] >> j & 1
                for prev in order[:k]
            ):
                assignment[i] = j
                used[j] = True
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
