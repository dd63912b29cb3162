"""Right regular representation: S acting on S^1 by right multiplication.

State a*s is where state a goes under the map representing s.  Images of
representing maps are principal left ideals, which is what turns the
J-class order into the subduction order and the L-class order into plain
inclusion; both isomorphisms are verified here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Transformation, TransformationSemigroup, multiplier
from .green import ConsistencyError, green_poset, green_preorder
from .maps import im_bar, im_bar_S
from .order import induce, is_order_isomorphism, poset_isomorphic
from .skeleton import inclusion_poset, skeleton_poset


@dataclass
class RegRep:
    """The base semigroup together with its right-multiplication action.

    States of ``rep`` are the elements of S^1, identity first and the rest
    in canonical element order; ``state_of`` is that numbering.  ``rho_of``
    holds rho(s) for every s in S^1: each element of ``rep`` under the
    element it represents, plus the identity map of the states when S has
    no identity.
    """

    base: TransformationSemigroup
    monoid: TransformationSemigroup
    carrier: tuple
    state_of: dict
    rep: TransformationSemigroup
    rho_of: dict

    def rho(self, s):
        """The transformation of the state set S^1 representing s."""
        return self.rho_of[s]


def right_regular(ts, max_elements=1_000_000):
    """Represent every element of S as right multiplication on S^1.

    rho(g) is built for a generating set only, and ``rep`` is generated
    from those maps.  The identity state goes to the state of s under
    rho(s), so each r in ``rep`` is read as the element ``carrier[r(0)]``.
    Every r is a product rho(g1)...rho(gk) = rho(g1...gk), so the reading
    is rho's inverse; it is checked to be injective (the representation is
    faithful, |rep| = |S|) and onto exactly the elements of S (it closes
    onto S).
    """
    m = ts.adjoin_identity()
    one = m.identity()
    carrier = (one,) + tuple(t for t in m.elements if t != one)
    state_of = {a: i for i, a in enumerate(carrier)}
    # rho(g) sends state a to state a*g, multiplied here on image tuples
    state_of_images = {a.images: i for a, i in state_of.items()}
    times = [multiplier(a.images) for a in carrier]
    gens = tuple(
        Transformation(tuple(state_of_images[times_a(g)] for times_a in times))
        for g in ts.generating_images()
    )
    rep = TransformationSemigroup.generate(len(carrier), gens, max_elements)
    rho_of = {carrier[r.images[0]]: r for r in rep.elements}
    if rho_of.keys() != set(ts.elements):
        raise ConsistencyError("representation does not close onto the represented elements")
    if len(rho_of) != len(rep.elements):
        raise ConsistencyError("right regular representation is not faithful")
    rho_of.setdefault(one, Transformation.identity(len(carrier)))
    return RegRep(ts, m, carrier, state_of, rep, rho_of)


@dataclass
class CorollaryReport:
    """Witnesses that, on the regular representation, the induced maps are isos.

    ``j_map`` takes a J-class of the base S^1 to a skeleton class of the
    representation by composing the element bridge s -> rho(s) with the
    representation's induced map on J-classes; ``l_map`` likewise lands in
    the inclusion order of the representation's image sets.  ``j_found`` and
    ``l_found`` record that an independent backtracking search also finds
    isomorphisms.
    """

    regrep: RegRep
    j_map: tuple
    l_map: tuple
    j_is_iso: bool
    l_is_iso: bool
    j_found: bool
    l_found: bool

    @property
    def passed(self):
        return self.j_is_iso and self.l_is_iso and self.j_found and self.l_found


def corollary_check(ts, max_elements=1_000_000):
    """Verify both isomorphisms carried by the right regular representation.

    (1) J-class order of S^1 vs the representation's skeleton, witnessed by
    the induced map on J-classes (not merely by search); (2) L-class order
    vs inclusion of the representation's image sets, witnessed likewise.
    """
    rr = right_regular(ts, max_elements)
    m = rr.monoid
    mt = rr.rep.adjoin_identity()
    verdicts = []
    for kind, rep_bar, target in (("J", im_bar_S, skeleton_poset), ("L", im_bar, inclusion_poset)):
        bridge = induce(rr.rho_of, green_preorder(m, kind), green_preorder(mt, kind))
        rep_map = rep_bar(mt).class_map
        class_map = tuple(rep_map[c] for c in bridge.class_map)
        source, dest = green_poset(m, kind), target(mt)
        verdicts += [
            class_map,
            is_order_isomorphism(source.rows, dest.rows, class_map),
            poset_isomorphic(source, dest) is not None,
        ]
    j_map, j_is_iso, j_found, l_map, l_is_iso, l_found = verdicts
    return CorollaryReport(rr, j_map, l_map, j_is_iso, l_is_iso, j_found, l_found)
