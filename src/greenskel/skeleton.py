"""Image sets of a transformation semigroup and the subduction order on them.

P is subduction-below Q when P fits inside some image of Q under the
action, i.e. P <= Q^s for some s in S^1.  Collapsing mutual subduction
gives the skeleton: the partial order of subduction classes.

I(X) is closed under the action, so Q's images {Q^s : s in S^1} are the
members reachable from Q in the orbit graph Q -> Q^g, g in a generating
set.  Inclusion commutes with the action (P <= R gives P^s <= R^s), so
subduction is the reflexive-transitive closure of the orbit edges and the
inclusions together: |I(X)|*|G| subset images, not |I(X)|^2*|S^1|.  The
extended carrier is closed too, since singletons map to singletons.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import StateSubset, apply_mask, per_monoid
from .order import Preorder, transitive_closure_rows


@dataclass
class ImageSet:
    """The distinct images of the elements of S^1, plus optional singletons.

    ``origin`` holds one witness element per subset (the identity for the
    full state set).  Singletons adjoined in extended mode never arise as
    images and therefore carry no witness; they are listed in ``adjoined``.
    """

    n: int
    subsets: tuple
    origin: dict
    adjoined: frozenset = field(default_factory=frozenset)

    def __len__(self):
        return len(self.subsets)

    def __iter__(self):
        return iter(self.subsets)

    def __contains__(self, P):
        return P in self.origin or P in self.adjoined

    def witness(self, P):
        """An element whose image is P, or None for an adjoined singleton."""
        return self.origin.get(P)


@per_monoid
def image_set(m):
    """I(X): every subset of the state set arising as an element's image."""
    first = {}
    for t in m.elements:
        first.setdefault(frozenset(t.images), t)
    origin = {StateSubset.full(m.n): m.identity()}
    for image, t in first.items():
        origin.setdefault(StateSubset.of(m.n, image), t)
    return ImageSet(m.n, tuple(sorted(origin, key=StateSubset.sort_key)), origin)


@per_monoid
def extended_image_set(m):
    """I(X) together with all singletons; extras are flagged as adjoined."""
    base = image_set(m)
    adjoined = frozenset(
        s for x in range(m.n) if (s := StateSubset.singleton(m.n, x)) not in base.origin
    )
    subsets = tuple(sorted(set(base.subsets) | adjoined, key=StateSubset.sort_key))
    return ImageSet(m.n, subsets, dict(base.origin), adjoined)


@per_monoid
def subduction_preorder(m, extended=False):
    """The subduction relation on I(X) (or its extended variant) as a Preorder.

    The inclusion edges P -> R (P <= R) and the reversed orbit edges
    Q^g -> Q (g in the generating set) are closed once: P reaches Q exactly
    when P lies in a member of Q's orbit.  An orbit step that leaves the
    carrier, which a closed element set never takes, raises KeyError.
    """
    incl = inclusion_preorder(m, extended)
    index = {P.mask: i for i, P in enumerate(incl.items)}
    rows = list(incl.rows)
    gens = m.generating_images()
    for q, i in index.items():
        for g in gens:
            rows[index[apply_mask(q, g)]] |= 1 << i
    return Preorder(incl.items, transitive_closure_rows(rows))


@per_monoid
def inclusion_preorder(m, extended=False):
    """Plain subset inclusion on the same carrier; already antisymmetric."""
    iset = extended_image_set(m) if extended else image_set(m)
    masks = [P.mask for P in iset.subsets]
    rows = [sum(1 << j for j, q in enumerate(masks) if p & ~q == 0) for p in masks]
    return Preorder(iset.subsets, rows)


def inclusion_poset(ts, extended=False):
    return inclusion_preorder(ts, extended).poset


def skeleton_poset(ts, extended=False):
    """Subduction classes of I(X) (or extended) with their partial order."""
    return subduction_preorder(ts, extended).poset
