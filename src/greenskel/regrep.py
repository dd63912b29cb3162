"""Right regular representation: S acting on S^1 by right multiplication.

State a*s is where state a goes under rho(s), so the image of rho(s) is
the principal left ideal S^1*s.  That turns the J-class order into the
subduction order and the L-class order into inclusion.  Both isomorphisms
are verified here, on the orbit of the full state set under rho(G) for a
generating set G, without building the representation.
"""

from .core import apply_mask, multiplier
from .green import ConsistencyError, green_preorder
from .order import induce_indexed, is_order_isomorphism, poset_isomorphic
from .skeleton import inclusion, orbit, subduction


class RegRep:
    """The base semigroup together with its right-multiplication action.

    States are the elements of S^1, identity first and the rest in
    canonical order; ``state_of`` numbers them.  ``gens`` holds the image
    tuple of rho(g) for each g of ``base.generating_images()``, and
    ``images[a]`` the image of rho(carrier[a]) as a bit mask.
    """

    def __init__(self, base, monoid, carrier, state_of, gens, images):
        self.base = base
        self.monoid = monoid
        self.carrier = carrier
        self.state_of = state_of
        self.gens = gens
        self.images = images


def right_regular(ts):
    """Represent every element of S as right multiplication on S^1.

    rho(g) is built for a generating set only: entry a is the state of a*g.
    A breadth-first walk of those edges from the identity state must reach
    every state of S (else ConsistencyError), and sets the image of
    rho(a*g) to that of rho(a) under rho(g): one ``apply_mask`` per distinct
    (image, g).  rho(s) sends the identity state to s, so the
    representation is faithful by construction.
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
    images = [None] * len(carrier)
    images[0] = (1 << len(carrier)) - 1
    moved = {}
    order = [0]
    for a in order:
        for k, rho_g in enumerate(gens):
            b = rho_g[a]
            if images[b] is None:
                key = (images[a], k)
                if key not in moved:
                    moved[key] = apply_mask(images[a], rho_g)
                images[b] = moved[key]
                order.append(b)
    if len(order) < len(carrier):
        raise ConsistencyError(f"the walk misses {carrier[images.index(None)]}")
    return RegRep(ts, m, carrier, state_of, gens, images)


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
    isomorphism.  The target carrier is the orbit of the full state set
    under rho(G), found apart from the walk that gave the images; its edge
    table gives the subduction order, so no subset is acted on again.
    """
    rr = right_regular(ts)
    m = rr.monoid
    subsets, edges = orbit(len(rr.carrier), rr.gens)
    incl = inclusion(subsets)
    position = {P.mask: i for i, P in enumerate(incl.items)}
    if not position.keys() >= set(rr.images):
        raise ConsistencyError("a walked image is not in the orbit of the full state set")
    # the orbit position of im(rho(s)) for every s, in element order
    im = [position[rr.images[a]] for a in map(rr.state_of.__getitem__, m.elements)]
    verdicts = []
    for kind, target in (("J", subduction(incl, edges)), ("L", incl)):
        bridge = induce_indexed(im, green_preorder(m, kind), target)
        source, dest = bridge.source, bridge.target
        verdicts += [
            bridge.class_map,
            is_order_isomorphism(source.rows, dest.rows, bridge.class_map),
            poset_isomorphic(source, dest) is not None,
        ]
    j_map, j_is_iso, j_found, l_map, l_is_iso, l_found = verdicts
    return CorollaryReport(rr, j_map, l_map, j_is_iso, l_is_iso, j_found, l_found)
