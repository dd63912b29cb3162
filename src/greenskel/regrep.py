"""Right regular representation: S acting on S^1 by right multiplication.

State a*s is where state a goes under rho(s), so the image of rho(s) is
the principal left ideal S^1*s.  That turns the J-class order into the
subduction order and the L-class order into inclusion.  Both isomorphisms
are verified here, on the orbit of the full state set under rho(G) for a
generating set G, without building the representation.
"""

from functools import cached_property

from .core import multiplier
from .green import ConsistencyError, green_preorder
from .order import induce_indexed, is_order_isomorphism, poset_isomorphic
from .skeleton import ImageSet, inclusion, orbit, subduction


class RegRep:
    """The base semigroup together with its right-multiplication action.

    States are the elements of S^1, identity first and the rest in
    canonical order; ``state_of`` numbers them.  ``gens`` holds the image
    tuple of rho(g) for each g of ``base.generating_images()``.
    ``orbit`` is the ImageSet of the full state set under those tuples,
    and ``at[a]`` the position in it of the image of rho(carrier[a]).
    """

    def __init__(self, base, monoid, carrier, state_of, gens, orbit, at):
        self.base = base
        self.monoid = monoid
        self.carrier = carrier
        self.state_of = state_of
        self.gens = gens
        self.orbit = orbit
        self.at = at

    @cached_property
    def images(self):
        """``images[a]``: the image of rho(carrier[a]) as a bit mask, read once."""
        return tuple(self.orbit.subsets[i].mask for i in self.at)


def right_regular(ts):
    """Represent every element of S as right multiplication on S^1.

    rho(g) is built for a generating set only: entry a is the state of a*g.
    A breadth-first walk of those edges from the identity state must reach
    every state of S (else ConsistencyError).  The image of rho(a*g), that
    of rho(a) under rho(g), is read off the edges of the images' orbit.
    rho(s) sends the identity state to s, so the representation is
    faithful by construction.
    """
    m = ts.adjoin_identity()
    one = m.identity()
    carrier = (one,) + tuple(t for t in m.elements if t != one)
    state_of = {a: i for i, a in enumerate(carrier)}
    state_of_images = {a.images: i for a, i in state_of.items()}
    times = [multiplier(a.images) for a in carrier]
    gens = tuple(
        tuple(state_of_images[times_a(g)] for times_a in times) for g in ts.generating_images()
    )
    n = len(carrier)
    full = (1 << n) - 1
    iset = ImageSet(n, *orbit(n, gens, [full]))
    at = [None] * n
    at[0] = iset.position[full]
    order = [0]
    for a in order:
        for rho_g, j in zip(gens, iset.edges[at[a]]):
            b = rho_g[a]
            if at[b] is None:
                at[b] = j
                order.append(b)
    if len(order) < n:
        raise ConsistencyError(f"the walk misses {carrier[at.index(None)]}")
    return RegRep(ts, m, carrier, state_of, gens, iset, at)


class CorollaryReport:
    """Witnesses that, on the regular representation, the induced maps are isos.

    ``j_map`` takes the J-class of s in S^1 to the skeleton class of
    im(rho(s)), ``l_map`` its L-class to that image set; ``j_found`` and
    ``l_found`` record that an independent backtracking search also finds
    isomorphisms.
    """

    def __init__(self, regrep, j_map, l_map, j_is_iso, l_is_iso, j_found, l_found):
        self.regrep = regrep
        self.j_map = j_map
        self.l_map = l_map
        self.j_is_iso = j_is_iso
        self.l_is_iso = l_is_iso
        self.j_found = j_found
        self.l_found = l_found

    @property
    def passed(self):
        return self.j_is_iso and self.l_is_iso and self.j_found and self.l_found


def corollary_check(ts):
    """Verify both isomorphisms carried by the right regular representation.

    s -> im(rho(s)) induces maps from the J-classes to the skeleton classes
    and from the L-classes to the image sets, and each must be an order
    isomorphism.  The target carrier is the representation's orbit, where
    the walk placed every image; its edge table gives the subduction
    order, so no subset is acted on again.
    """
    rr = right_regular(ts)
    m = rr.monoid
    incl = inclusion(rr.orbit.subsets)
    # the orbit position of im(rho(s)) for every s, in element order
    im = [rr.at[a] for a in map(rr.state_of.__getitem__, m.elements)]
    verdicts = []
    for kind, target in (("J", subduction(incl, rr.orbit.edges)), ("L", incl)):
        bridge = induce_indexed(im, green_preorder(m, kind), target)
        source, dest = bridge.source, bridge.target
        verdicts += [
            bridge.class_map,
            is_order_isomorphism(source.rows, dest.rows, bridge.class_map),
            poset_isomorphic(source, dest) is not None,
        ]
    j_map, j_is_iso, j_found, l_map, l_is_iso, l_found = verdicts
    return CorollaryReport(rr, j_map, l_map, j_is_iso, l_is_iso, j_found, l_found)
