"""Image sets of a transformation semigroup and the subduction order on them.

P is subduction-below Q when P fits inside some image of Q under the
action, i.e. P <= Q^s for some s in S^1.  Collapsing mutual subduction
gives the skeleton: the partial order of subduction classes.

The image of s is X^s, and every semigroup is closed, so I(X) is the orbit
of the full state set X under a generating set of S^1 (the orbit method of
Linton, Pfeiffer, Robertson and Ruskuc, 2002): no element is built.  I(X)
is closed under the action, so Q's images {Q^s : s in S^1} are the members
reachable from Q in the orbit graph Q -> Q^g, g in a generating set.
Inclusion commutes with the action (P <= R gives P^s <= R^s), so
subduction is the reflexive-transitive closure of the orbit edges and the
inclusions together: |I(X)|*|G| subset images, not |I(X)|^2*|S^1|.  The
extended carrier is closed too, since singletons map to singletons.

``orbit``, ``inclusion`` and ``subduction`` need only generating image
tuples, so ``regrep`` runs them on a representation it never builds.
"""

from .core import StateSubset, apply_mask, per_monoid
from .order import Preorder, closure_classes


class ImageSet:
    """The distinct images of the elements of S^1, plus optional singletons.

    ``subsets`` is the orbit of the full state set, sorted.  Singletons
    adjoined in extended mode never arise as images; they are listed in
    ``adjoined``.
    """

    def __init__(self, n, subsets, adjoined=frozenset()):
        self.n = n
        self.subsets = subsets
        self.adjoined = adjoined

    def __len__(self):
        return len(self.subsets)

    def __iter__(self):
        return iter(self.subsets)

    def __contains__(self, P):
        return P in self.subsets


def orbit(n, gens):
    """The orbit of the full set of n states under the image tuples ``gens``, sorted."""
    order = [(1 << n) - 1]
    seen = set(order)
    for q in order:
        for g in gens:
            p = apply_mask(q, g)
            if p not in seen:
                seen.add(p)
                order.append(p)
    return tuple(sorted((StateSubset(n, p) for p in seen), key=StateSubset.sort_key))


def inclusion(subsets):
    """Plain subset inclusion on distinct subsets, as a Preorder: one class per subset."""
    masks = [P.mask for P in subsets]
    rows = [sum(1 << j for j, q in enumerate(masks) if p & ~q == 0) for p in masks]
    return Preorder(subsets, list(range(len(masks))), rows)


def subduction(incl, gens):
    """Subduction on the carrier of ``incl``, acted on by the image tuples ``gens``.

    The closure of the inclusion edges and the reversed orbit edges Q^g -> Q.
    ``incl`` is an ``inclusion``, whose class rows are its item rows.
    """
    index = {P.mask: i for i, P in enumerate(incl.items)}
    succ = [[j for j, bit in enumerate(bin(row)[:1:-1]) if bit == "1"] for row in incl.class_rows]
    for q, i in index.items():
        for g in gens:
            succ[index[apply_mask(q, g)]].append(i)
    return Preorder(incl.items, *closure_classes(succ))


@per_monoid
def image_set(m):
    """I(X): the orbit of the full set under the generating images."""
    return ImageSet(m.n, orbit(m.n, m.generating_images()))


@per_monoid
def extended_image_set(m):
    """I(X) together with all singletons; extras are flagged as adjoined."""
    base = image_set(m)
    adjoined = frozenset(
        s for x in range(m.n) if (s := StateSubset.singleton(m.n, x)) not in base
    )
    subsets = tuple(sorted(set(base.subsets) | adjoined, key=StateSubset.sort_key))
    return ImageSet(m.n, subsets, adjoined)


@per_monoid
def subduction_preorder(m, extended=False):
    """The subduction relation on I(X) (or its extended variant) as a Preorder."""
    return subduction(inclusion_preorder(m, extended), m.generating_images())


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
