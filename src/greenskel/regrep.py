"""Right regular representation: S acting on S^1 by right multiplication.

State a*s is where state a goes under rho(s), so the image of rho(s) is
the principal left ideal S^1*s.  That turns the J-class order into the
subduction order and the L-class order into inclusion.  Both isomorphisms
are verified here, on the orbit of the full state set under rho(G) for a
generating set G, without building the representation.  Each is decided
once, by ``InducedMap.is_isomorphism`` on the induced class map, and
witnessed again by the independent search ``poset_isomorphic``.

rho(G) is S^1's right Cayley graph relabelled, with no product taken: it
rests on the same right edges as the R and J preorders.  The L-versus-
inclusion isomorphism still checks the left edges against the orbit of
rho(G) independently, and ``naive.right_regular_table`` checks rho(G)
against the full product table in the tests.
"""

from operator import itemgetter

from .green import ConsistencyError, _cayley_graphs, green_preorder
from .order import induce_indexed, poset_isomorphic
from .skeleton import ImageSet, inclusion, orbit, subduction


class RegRep:
    """The base semigroup together with its right-multiplication action.

    States are the elements of S^1, identity first and the rest in
    canonical order; ``one`` is the identity's index among the elements.
    ``gens`` holds the image tuple of rho(g) for each g of
    ``base.generating_images()``, ``orbit`` the ImageSet of the full state
    set under them, and ``at[a]`` the position in it of im(rho(carrier[a])).
    """

    def __init__(self, base, monoid, carrier, one, gens, orbit, at):
        self.base = base
        self.monoid = monoid
        self.carrier = carrier
        self.one = one
        self.gens = gens
        self.orbit = orbit
        self.at = at


def right_regular(ts):
    """Represent every element of S as right multiplication on S^1.

    rho(g) is built for a generating set only: entry a is the state of a*g,
    the right Cayley edge of a under g.  A breadth-first walk of those
    edges from the identity state must reach every state of S (else
    ConsistencyError).  The image of rho(a*g), that of rho(a) under rho(g),
    is read off the edges of the images' orbit.  rho(s) sends the identity
    state to s, so the representation is faithful by construction.
    """
    m = ts.adjoin_identity()
    right = _cayley_graphs(m)[0]
    one = m.keys.index(m._key(range(m.n)))
    # element e is state e + 1 before the identity and state e after it
    rows = right[one:one + 1] + right[:one] + right[one + 1:]
    n = len(rows)
    state = list(range(1, one + 1)) + [0] + list(range(one + 1, n))
    gens = tuple(
        tuple(map(state.__getitem__, map(itemgetter(c), rows)))
        for c in map(m.generating_images().index, ts.generating_images())
    )
    # dropped before the elements are built below, which lowers the peak memory at scale
    del rows, state
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
    carrier = m.elements[one:one + 1] + m.elements[:one] + m.elements[one + 1:]
    if len(order) < n:
        raise ConsistencyError(f"the walk misses {carrier[at.index(None)]}")
    return RegRep(ts, m, carrier, one, gens, iset, at)


class CorollaryReport:
    """Witnesses that, on the regular representation, the induced maps are isos.

    ``j_map`` takes the J-class of s in S^1 to the skeleton class of
    im(rho(s)), ``l_map`` its L-class to that image set.  ``j_is_iso`` and
    ``l_is_iso`` are ``InducedMap.is_isomorphism`` of those maps;
    ``j_found`` and ``l_found`` record that an independent backtracking
    search also finds isomorphisms.
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
    im = rr.at[1:rr.one + 1] + rr.at[:1] + rr.at[rr.one + 1:]
    verdicts = []
    for kind, target in (("J", subduction(incl, rr.orbit.edges)), ("L", incl)):
        bridge = induce_indexed(im, green_preorder(m, kind), target)
        verdicts += [
            bridge.class_map,
            bridge.is_isomorphism(),
            poset_isomorphic(bridge.source, bridge.target) is not None,
        ]
    j_map, j_is_iso, j_found, l_map, l_is_iso, l_found = verdicts
    return CorollaryReport(rr, j_map, l_map, j_is_iso, l_is_iso, j_found, l_found)
