"""Image sets of a transformation semigroup and the subduction order on them.

P is subduction-below Q when P fits inside some image of Q under the
action, i.e. P <= Q^s for some s in S^1.  Collapsing mutual subduction
gives the skeleton: the partial order of subduction classes.

The image of s is X^s, and every semigroup is closed, so I(X) is the orbit
of the full state set X under a generating set of S^1 (the orbit method of
Linton, Pfeiffer, Robertson and Ruskuc, 2002): no element is built.  The
search applies each generator g to each subset Q once, and keeps the
result as the orbit edge Q -> Q^g, an entry of the edge table: one
``apply_mask`` per edge, and no other consumer acts on a subset again.
I(X) is closed under the action, so Q's images {Q^s : s in S^1} are the
members reachable from Q along those edges.  Singletons map to
singletons, {x}^g = {x^g}, so the extended carrier is the orbit of X and
every singleton, found by the same search.

Inclusion is read off the states: has[x], the subsets that contain x, is
a column, and P's row of supersets is the AND of the columns of its
members; states with equal columns share one AND, so the rows take at
most sum |P| big-int ANDs, not |I(X)|^2 pair tests.  Inclusion commutes with
the action (P <= R gives P^s <= R^s), so subduction is the
reflexive-transitive closure of the orbit edges Q -> Q^g, which point
down the order, and the inclusion covers, from each subset down to the
subsets it covers: |I(X)|*|G| stored edges plus the covers, with no
subset acted on, instead of |I(X)|^2*|S^1| subset tests.

``orbit``, ``inclusion`` and ``subduction`` need only generating image
tuples, so ``regrep`` runs them on a representation it never builds.
"""

from functools import cached_property

from .core import StateSubset, apply_mask, per_monoid
from .order import Preorder, closure_classes


class ImageSet:
    """The distinct images of the elements of S^1, plus optional singletons.

    ``subsets`` is the orbit of the full state set, sorted; in extended
    mode, that of the full set and every singleton.  Singletons adjoined
    so never arise as images; they are listed in ``adjoined``.  ``edges[i][k]`` is the position of subsets[i]^g for the
    k-th image tuple g of the monoid's ``generating_images()``, and
    ``position`` maps the mask of each subset to its position.
    """

    def __init__(self, n, subsets, edges, adjoined=frozenset()):
        self.n = n
        self.subsets = subsets
        self.edges = edges
        self.adjoined = adjoined

    def __len__(self):
        return len(self.subsets)

    def __iter__(self):
        return iter(self.subsets)

    def __contains__(self, P):
        return P in self.subsets

    @cached_property
    def position(self):
        return {P.mask: i for i, P in enumerate(self.subsets)}


def orbit(n, gens, starts):
    """The orbit of the subset masks ``starts`` of n states under the image tuples ``gens``, with its edges.

    Returns the subsets, sorted, and the edge table: ``edges[i][k]`` is the
    position of subsets[i]^gens[k].  The search numbers the subsets as it
    meets them, one ``apply_mask`` per (subset, generator), and the sort
    renumbers the edges.
    """
    order = list(dict.fromkeys(starts))
    found = {q: j for j, q in enumerate(order)}
    heads = []
    for q in order:
        row = []
        for g in gens:
            p = apply_mask(q, g)
            j = found.setdefault(p, len(order))
            if j == len(order):
                order.append(p)
            row.append(j)
        heads.append(row)
    subsets = [StateSubset(n, p) for p in order]
    rank = sorted(range(len(order)), key=[P.sort_key() for P in subsets].__getitem__)
    position = [0] * len(rank)
    for i, d in enumerate(rank):
        position[d] = i
    return (
        tuple(map(subsets.__getitem__, rank)),
        tuple([tuple(map(position.__getitem__, heads[d])) for d in rank]),
    )


def inclusion(subsets):
    """Plain subset inclusion on distinct subsets, as a Preorder: one class per subset.

    Bit j of P's row says P <= subsets[j].  That row is the AND, over the
    members x of P, of the column has[x]: the subsets that contain x.  The
    columns are read off the subsets' binary digits, one string per subset,
    and a state whose column equals another's adds no AND, so the rows
    take one AND per (distinct column, subset containing it) rather than
    |I|^2 pair tests.
    """
    width = f"0{subsets[0].n}b"
    digits = [format(P.mask, width) for P in subsets]
    rows = [(1 << len(subsets)) - 1] * len(subsets)
    for column in set(map("".join, zip(*digits))):
        has = int(column[::-1], 2)
        j = column.find("1")
        while j >= 0:
            rows[j] &= has
            j = column.find("1", j + 1)
    return Preorder(subsets, list(range(len(subsets))), rows)


def subduction(incl, edges):
    """Subduction on the carrier of ``incl``, given the orbit edges on that carrier.

    ``incl`` is an ``inclusion``, whose classes are its items, and
    ``edges[i][k]`` the position of the image of item i under the k-th
    generator.  Inclusion is the closure of its covers, so subduction is
    the closure of the orbit edges Q -> Q^g as they are and the covers, each
    from the larger subset down to the smaller; no subset is acted on.
    """
    succ = list(map(list, edges))
    for c, d in incl.covers:
        succ[d].append(c)
    return Preorder(incl.items, *closure_classes(succ))


@per_monoid
def image_set(m):
    """I(X): the orbit of the full set under the generating images, with its edges."""
    return ImageSet(m.n, *orbit(m.n, m.generating_images(), [(1 << m.n) - 1]))


@per_monoid
def extended_image_set(m):
    """I(X) together with all singletons; extras are flagged as adjoined.

    One orbit search from the full set and every singleton: singletons map
    to singletons, so it adds to I(X) the singletons it lacks, with their
    edges.
    """
    singletons = [1 << x for x in range(m.n)]
    found = image_set(m).position
    adjoined = frozenset(StateSubset(m.n, s) for s in singletons if s not in found)
    return ImageSet(
        m.n, *orbit(m.n, m.generating_images(), [(1 << m.n) - 1, *singletons]), adjoined
    )


@per_monoid
def subduction_preorder(m, extended=False):
    """The subduction relation on I(X) (or its extended variant) as a Preorder, on its stored edges."""
    iset = extended_image_set(m) if extended else image_set(m)
    return subduction(inclusion_preorder(m, extended), iset.edges)


@per_monoid
def inclusion_preorder(m, extended=False):
    """Plain subset inclusion on the same carrier; already antisymmetric."""
    iset = extended_image_set(m) if extended else image_set(m)
    return inclusion(iset.subsets)


def inclusion_poset(ts, extended=False):
    return inclusion_preorder(ts, extended).poset


def skeleton_poset(ts, extended=False):
    """Subduction classes of I(X) (or extended) with their partial order."""
    return subduction_preorder(ts, extended).poset
