"""Right regular representation: S acting on S^1 by right multiplication.

State a*s is where state a goes under the map representing s.  Images of
representing maps are principal left ideals, which is what turns the
J-class order into the subduction order and the L-class order into plain
inclusion; both isomorphisms are verified here.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Transformation, TransformationSemigroup
from .green import ConsistencyError, green_poset, green_preorder
from .maps import im_bar, im_bar_S
from .order import induce, is_order_isomorphism, poset_isomorphic
from .skeleton import inclusion_poset, skeleton_poset


@dataclass
class RegRep:
    """The base semigroup together with its right-multiplication action.

    States of ``rep`` are the elements of S^1, identity first and the rest
    in canonical element order; ``state_of`` is that numbering.  ``rho_of``
    holds rho(s) for every s in S^1, built once.
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

    The representation is faithful: the identity state separates any two
    distinct elements, so |rep| = |S| (cross-checked).
    """
    m = ts.adjoin_identity()
    one = m.identity()
    carrier = (one,) + tuple(t for t in m.elements if t != one)
    state_of = {a: i for i, a in enumerate(carrier)}
    # rho(s) sends state a to state a*s, multiplied here on image tuples
    state_of_images = {a.images: i for a, i in state_of.items()}
    rho_of = {
        s: Transformation(
            tuple(state_of_images[tuple(s.images[x] for x in a.images)] for a in carrier)
        )
        for s in m.elements
    }
    gens = tuple(rho_of[Transformation(g)] for g in ts.generating_images())
    rep = TransformationSemigroup.generate(len(carrier), gens, max_elements)
    if set(rep.elements) != {rho_of[s] for s in ts.elements}:
        raise ConsistencyError("representation does not close onto the represented elements")
    if len(rep.elements) != len(ts.elements):
        raise ConsistencyError("right regular representation is not faithful")
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
    j_bridge = induce(rr.rho_of, green_preorder(m, "J"), green_preorder(mt, "J"))
    rep_imbar_s = im_bar_S(mt)
    j_map = tuple(
        rep_imbar_s.class_map[j_bridge.class_map[ci]]
        for ci in range(len(j_bridge.source))
    )
    j_is_iso = is_order_isomorphism(green_poset(m, "J").rows, skeleton_poset(mt).rows, j_map)
    j_found = poset_isomorphic(green_poset(m, "J"), skeleton_poset(mt)) is not None

    l_bridge = induce(rr.rho_of, green_preorder(m, "L"), green_preorder(mt, "L"))
    rep_imbar = im_bar(mt)
    l_map = tuple(
        rep_imbar.class_map[l_bridge.class_map[ci]]
        for ci in range(len(l_bridge.source))
    )
    l_is_iso = is_order_isomorphism(green_poset(m, "L").rows, inclusion_poset(mt).rows, l_map)
    l_found = poset_isomorphic(green_poset(m, "L"), inclusion_poset(mt)) is not None

    return CorollaryReport(rr, j_map, l_map, j_is_iso, l_is_iso, j_found, l_found)
