"""Small named semigroups exercising distinct order phenomena.

Every factory returns a monoid unless noted; names describe the behavior
the fixture exists to pin down.
"""

from .core import Transformation, TransformationSemigroup


def _monoid(n, one_based_gens):
    gens = [Transformation.from_one_based(g) for g in one_based_gens]
    return TransformationSemigroup.generate(n, gens).adjoin_identity()


def chain_collapse():
    """Three states, J-order a 4-chain, skeleton a 3-chain.

    Two distinct J-classes share the image {1,3}, so the induced map onto
    the skeleton collapses exactly one adjacent pair of the chain.
    """
    return _monoid(3, [[1, 3, 3], [3, 1, 3]])


def collapse_motif():
    """Five-element monoid on three states with a diamond-to-chain collapse.

    The J-order has an incomparable pair in the middle; both middle classes
    share an image class, so the skeleton is a 4-chain.
    """
    return _monoid(3, [[1, 1, 3], [3, 2, 3]])


def hidden_relation():
    """Two J-incomparable elements whose images are subduction-comparable.

    The subduction order genuinely extends what collapsing the J-order
    yields: im(a) sits strictly below im(b) in the skeleton although no
    products witness a J-comparability of a and b.
    """
    return _monoid(5, [[2, 1, 1, 1, 4], [1, 2, 2, 3, 4]])


def hidden_relation_pair():
    """The generators (a, b) of hidden_relation, for direct pair assertions."""
    return (
        Transformation.from_one_based([2, 1, 1, 1, 4]),
        Transformation.from_one_based([1, 2, 2, 3, 4]),
    )


def nonlattice():
    """31-element monoid on five states whose skeleton is not a lattice.

    13 D-classes map onto 9 skeleton classes; some pair of skeleton classes
    has no least upper bound, and at least one class holds several subsets.
    """
    return _monoid(5, [[2, 2, 1, 2, 4], [3, 5, 2, 3, 2], [3, 5, 4, 5, 4]])


def trivial(n=1):
    """The identity-only monoid on n states."""
    gens = [Transformation.identity(n)]
    return TransformationSemigroup.generate(n, gens)


def right_zero(n=3):
    """All constant maps on n states; no identity.

    One D-class of constants: a single R-class crossed with n singleton
    L-classes, every cell idempotent.
    """
    gens = [Transformation(tuple([x] * n)) for x in range(n)]
    return TransformationSemigroup.generate(n, gens)


def full_tmonoid(n=3):
    """The full transformation monoid on n states."""
    if n == 1:
        return trivial(1)
    cycle = Transformation(tuple((x + 1) % n for x in range(n)))
    swap = Transformation((1, 0) + tuple(range(2, n)))
    collapse = Transformation((0, 0) + tuple(range(2, n)))
    return TransformationSemigroup.generate(n, [cycle, swap, collapse])


def all_fixtures():
    """Name -> semigroup, in a fixed order."""
    return {
        "trivial1": trivial(1),
        "trivial2": trivial(2),
        "chain_collapse": chain_collapse(),
        "collapse_motif": collapse_motif(),
        "right_zero3": right_zero(3),
        "full_t3": full_tmonoid(3),
        "hidden_relation": hidden_relation(),
        "nonlattice": nonlattice(),
    }
