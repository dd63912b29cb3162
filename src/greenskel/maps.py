"""The image map and the order morphisms it induces between class posets.

im sends an element of S^1 to its image subset.  It respects <=_L into
inclusion and <=_J into subduction, so it drops to order-preserving
surjections im_bar : S^1/L -> (I(X), inclusion) and
im_bar_S : S^1/J -> skeleton.  im is held by element index: the image
masks are read off the elements' keys, and each element's image is a
position in the carrier of I(X), looked up in ``ImageSet.position``.
Everything here is verified exhaustively, not trusted: each law of an
induced map is decided once, on the preorders' own classes, by the
``induce_indexed`` that builds it, which raises when the law fails; the
diagram report lists those laws beside the verdicts it computes itself.
"""

from .core import per_monoid
from .green import green_preorder, green_poset
from .order import induce_indexed, order_violation
from .skeleton import (
    image_set,
    inclusion_poset,
    inclusion_preorder,
    skeleton_poset,
    subduction_preorder,
)


@per_monoid
def image_masks(m):
    """The image of every element of S^1 as a bit mask, in element order, read off its key."""
    bit = [1 << x for x in range(m.n)]
    return [sum(map(bit.__getitem__, set(u))) for u in m.keys]


@per_monoid
def im_index(m):
    """The position of every element's image in I(X), in element order."""
    return list(map(image_set(m).position.__getitem__, image_masks(m)))


@per_monoid
def im_bar(m):
    """Induced surjection S^1/L -> (I(X), inclusion), laws re-verified."""
    out = induce_indexed(im_index(m), green_preorder(m, "L"), inclusion_preorder(m))
    if not out.is_surjective():
        raise AssertionError("induced map on L-classes misses an image set")
    return out


@per_monoid
def im_bar_S(m):
    """Induced surjection S^1/J -> skeleton, laws re-verified."""
    out = induce_indexed(im_index(m), green_preorder(m, "J"), subduction_preorder(m))
    if not out.is_surjective():
        raise AssertionError("induced map on J-classes misses a subduction class")
    return out


def l_to_j(m):
    """The J-class of every L-class of S^1, read at the L-class's least member."""
    return tuple(map(green_preorder(m, "J").class_of.__getitem__, green_preorder(m, "L").firsts))


class DiagramReport:
    """Verdict sheet for the square of order surjections built from im.

    ``sizes`` records the carrier sizes of the six nodes; ``arrows`` maps
    each arrow name to its (surjective, order_preserving) verdicts;
    ``commutes`` covers the item triangle, the class square, and the two
    composite paths from S^1 to the skeleton; ``preimage_unions`` states
    that arrow fibers are unions of source classes.  A failed law of
    ``im_bar`` or ``im_bar_S`` raises before a report exists, so the
    verdicts their ``induce`` decided read True, and so do those of the two
    collapses out of S^1, which hold by construction of the quotients.
    """

    def __init__(self, sizes, arrows, commutes, preimage_unions):
        self.sizes = sizes
        self.arrows = arrows
        self.commutes = commutes
        self.preimage_unions = preimage_unions

    @property
    def passed(self):
        for verdicts in self.arrows.values():
            if not all(verdicts.values()):
                return False
        return all(self.commutes.values()) and all(self.preimage_unions.values())

    def to_dict(self):
        return {
            "sizes": dict(self.sizes),
            "arrows": {k: dict(v) for k, v in self.arrows.items()},
            "commutes": dict(self.commutes),
            "preimage_unions": dict(self.preimage_unions),
            "passed": self.passed,
        }

    def to_text(self):
        lines = []
        for name, size in self.sizes.items():
            lines.append(f"node {name}: {size}")
        for name, verdicts in self.arrows.items():
            flags = ", ".join(f"{k}={'yes' if v else 'NO'}" for k, v in verdicts.items())
            lines.append(f"arrow {name}: {flags}")
        for name, v in self.commutes.items():
            lines.append(f"commutes {name}: {'yes' if v else 'NO'}")
        for name, v in self.preimage_unions.items():
            lines.append(f"preimage union {name}: {'yes' if v else 'NO'}")
        lines.append(f"diagram: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _class_arrow(src, dst, index_map):
    return {
        "surjective": len(set(index_map)) == len(dst),
        "order_preserving": order_violation(src.rows, dst.rows, index_map) is None,
    }


def verify_diagram(ts):
    """Build every arrow of the im square and report all of its laws.

    Arrows: the two quotient collapses out of S^1, im itself, the two
    class-level collapses (L-class to J-class, image set to subduction
    class), and the induced maps im_bar and im_bar_S.  What building
    im_bar and im_bar_S decides (im respects both orders and is onto I(X);
    their class maps are onto and order-preserving, their item->class
    squares commute and their fibres are unions of classes) is read from
    their having been built: a failed law raises before a report exists.
    The collapses out of S^1 are onto and order-preserving by the
    construction of the quotients.  The two class-level collapses and the
    class square are computed here.
    """
    m = ts.adjoin_identity()
    lq = green_poset(m, "L")
    jq = green_poset(m, "J")
    iq = inclusion_poset(m)
    sq = skeleton_poset(m)

    sizes = {
        "S1": len(m.elements),
        "S1/L": len(lq),
        "S1/J": len(jq),
        "I(X)": len(iq.items),
        "skeleton": len(sq),
    }

    ibar = im_bar(m)
    ibar_s = im_bar_S(m)

    # vertical collapses L -> J and I(X) -> skeleton; inclusion's classes are its subsets
    lj = l_to_j(m)
    i_to_s = tuple(sq.item_class)

    arrows = {
        # a Preorder's class rows are exact: every item lies in its
        # class, and class(a) <= class(b) exactly when a <= b
        "S1->S1/L": {"surjective": True, "order_preserving": True},
        "S1->S1/J": {"surjective": True, "order_preserving": True},
        # im_bar raises unless onto the inclusion classes, which are single
        # subsets; the induces of im_bar and im_bar_S check im on both orders
        "im": {"surjective": True, "order_preserving": True},
        "S1/L->S1/J": _class_arrow(lq, jq, lj),
        "I(X)->skeleton": _class_arrow(iq, sq, i_to_s),
        # im_bar and im_bar_S raise unless surjective, and their induce
        # raises unless the class map is order-preserving
        "im_bar": {"surjective": True, "order_preserving": True},
        "im_bar_S": {"surjective": True, "order_preserving": True},
    }

    commutes = {
        # item triangle: the item->class square induce checks for im_bar
        "im_bar o /L = im": True,
        # class square: both routes S1/L -> skeleton agree
        "im_bar_S o collapse = collapse o im_bar": all(
            ibar_s.class_map[lj[c]] == i_to_s[ibar.class_map[c]]
            for c in range(len(lq))
        ),
        # item paths S1 -> skeleton: the square induce checks for im_bar_S
        "paths S1->skeleton": True,
    }

    # induce's one pass over the classes: every fibre is a union of classes
    preimage_unions = {
        "im_bar fibers are unions of L-classes": True,
        "im_bar_S fibers are unions of J-classes": True,
    }

    return DiagramReport(sizes, arrows, commutes, preimage_unions)
