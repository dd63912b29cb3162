"""Surjective morphisms of transformation semigroups and what they transport.

A morphism is a pair of surjections: states onto states and elements onto
elements, compatible with the actions.  Quotients by admissible state
partitions are the canonical way to manufacture them.  The checks at the
bottom verify that such a morphism carries the whole order apparatus of
the source (Green preorders, image sets, subduction) onto the target's.

The element map is held as element indices, ``TsMorphism.elem_index``:
the target index of each source element, in canonical order.  A quotient
reads it off the elements' keys, and the laws and the functoriality check
read it as it is, so no dict keyed by elements is built on that path;
``elem_map`` is derived from it when first read.  The trade-off: the
homomorphism law is read off the right Cayley graphs of S^1 and T^1, the
edges the R and J preorders rest on, instead of multiplying elements.
The law is then only as right as those edges: a wrong edge that hides a
failing product goes unseen, as it would in R and J, and one that
invents a failure raises ``ConsistencyError`` when the pairwise scan
finds no witness.  The tests keep the pairwise law over all |S|^2
products (``naive.validate``) as the oracle.
"""

from bisect import bisect_left
from functools import cache, cached_property, partial
from operator import eq, itemgetter
from types import MappingProxyType

from .core import (
    ResourceLimitError,
    StateSubset,
    Transformation,
    TransformationSemigroup,
    _key_kind,
    _left_times,
    _read_only,
    _times,
    apply_mask,
    multiplier,
)
from .green import ConsistencyError, _cayley_graphs, green_preorder
from .maps import im_bar, im_bar_S, im_index, image_masks, l_to_j
from .order import NotAMorphismError, induce_indexed
from .skeleton import image_set, subduction_preorder

MAX_PARTITION_STATES = 8


class TsMorphism:
    """Paired surjections (states, elements) compatible with the actions.

    ``elem_index[i]`` is the target index of the i-th source element, or
    None where the image given lies outside the target.  The constructor
    takes the element map as a mapping, keeps a read-only copy of it as
    ``elem_map`` and reads the indices off it through the target's index
    once; a quotient builds its morphism on the indices, and ``elem_map``
    is then derived on first read.  Immutable, so the verdict ``validate``
    stores on first use cannot go stale.  Morphisms with equal source,
    target, state map and element indices are equal.
    """

    def __init__(self, source, target, state_map, elem_map):
        self._set_maps(source, target, state_map)
        given = MappingProxyType(dict(elem_map))
        try:
            images = list(map(given.__getitem__, source.elements))
        except KeyError as err:
            raise ValueError(f"elem_map not total, e.g. {err.args[0]!r}") from None
        object.__setattr__(self, "elem_map", given)
        object.__setattr__(self, "elem_index", tuple(map(target._index.get, images)))

    @classmethod
    def _on_indices(cls, source, target, state_map, elem_index):
        """The morphism sending source element i to target element ``elem_index[i]``."""
        m = cls.__new__(cls)
        m._set_maps(source, target, state_map)
        object.__setattr__(m, "elem_index", elem_index)
        return m

    def _set_maps(self, source, target, state_map):
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "state_map", tuple(state_map))
        if len(self.state_map) != source.n:
            raise ValueError("state_map must cover every source state")
        for y in self.state_map:
            if not 0 <= y < target.n:
                raise ValueError(f"state image {y} outside the target state set")

    @cached_property
    def elem_map(self):
        """The element map keyed by elements, read-only, built from ``elem_index``."""
        image = self.target.elements.__getitem__
        return MappingProxyType(dict(zip(self.source.elements, map(image, self.elem_index))))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.source, self.target, self.state_map) == (
                other.source,
                other.target,
                other.state_map,
            ) and all(map(eq, self.elem_index, other.elem_index))
        return NotImplemented

    __setattr__ = __delattr__ = _read_only

    @cached_property
    def _verdict(self):
        return _check_laws(self)

    def then(self, other):
        """Composite morphism: apply self, then other."""
        if other.source is not self.target:
            raise ValueError("composition requires matching middle semigroup")
        return TsMorphism._on_indices(
            self.source,
            other.target,
            tuple(other.state_map[y] for y in self.state_map),
            tuple(map(other.elem_index.__getitem__, self.elem_index)),
        )


def _identity_at(m):
    """The index of the identity among the elements of the monoid m: a bisection of its keys."""
    return bisect_left(m.keys, m._key(range(m.n)))


def _on_monoids(m):
    """S^1, T^1 and the element map on their element indices.

    An identity adjoined to T moves the target indices from its place on
    up by one; an identity adjoined to S is sent to T^1's identity.
    """
    sm, tm = m.source.adjoin_identity(), m.target.adjoin_identity()
    phi = m.elem_index
    if tm is not m.target:
        at = _identity_at(tm)
        phi = [j + (j >= at) for j in phi]
    if sm is not m.source:
        phi = list(phi)
        phi.insert(_identity_at(sm), _identity_at(tm))
    return sm, tm, phi


def _generator_images(sm, tm, phi):
    """The keys of phi(g) in T^1, for g in S^1's generating images in order."""
    at = partial(bisect_left, sm.keys)
    return [tm.keys[phi[at(sm._key(g))]] for g in sm.generating_images()]


def _homomorphism_holds(m):
    """Does phi(s*g) == phi(s)phi(g) hold for every s in S^1 and g in its generating images?

    With S^1's identity sent to T^1's, the law on S^1 is the law on S.  If
    it holds for every g of a generating set, induction on the length of t
    gives phi(st) = phi(s)phi(t) for every t.  The index of s*g is S^1's
    right Cayley edge; that of t*phi(g) is T^1's right edge when phi(g) is
    among T^1's generating images, and otherwise one ``_times`` pass over
    T^1's keys, placed by bisection.
    """
    sm, tm, phi = _on_monoids(m)
    right, tright = _cayley_graphs(sm)[0], None
    tkeys = tm.keys
    tgens = {g: k for k, g in enumerate(map(tm._key, tm.generating_images()))}
    for k, h in enumerate(_generator_images(sm, tm, phi)):
        if h in tgens:
            if tright is None:
                tright = _cayley_graphs(tm)[0]
            times_h = list(map(itemgetter(tgens[h]), tright))
        else:
            times_h = list(map(partial(bisect_left, tkeys), _times(tm.n, h)(tkeys)))
        images = map(phi.__getitem__, map(itemgetter(k), right))
        if not all(map(eq, images, map(times_h.__getitem__, phi))):
            return False
    return True


def _homomorphism_violation(m):
    """The first (s, t) in canonical order with phi(st) != phi(s)phi(t), or None.

    The verdict is ``_homomorphism_holds``; only when it fails does the
    pairwise scan run, to find the first witness.  A scan that finds none
    means the Cayley edges are wrong, and raises ``ConsistencyError``.
    """
    if _homomorphism_holds(m):
        return None
    for s in m.source.elements:
        for t in m.source.elements:
            if m.elem_map[s * t] != m.elem_map[s] * m.elem_map[t]:
                return s, t
    raise ConsistencyError("the Cayley edges break the homomorphism law, but no product does")


def validate(m):
    """Check the morphism laws; returns (ok, first violation or None).

    The laws are checked on the first call only; the verdict is stored on
    the morphism, which cannot change, and later calls return it.
    """
    return m._verdict


def _check_laws(m):
    """The verdict of ``validate``, computed.

    Violations are tagged tuples: surjectivity of either map, the
    homomorphism law, action compatibility, and the identity condition
    (the identity of the source must map to the identity of the target).
    All are decided on ``elem_index`` and the elements' keys: "into" and
    "onto" are set tests on the indices, and the homomorphism law is read
    off the right Cayley graphs (``_homomorphism_holds``).  Compatibility
    compares, per element s, the key of s then the state map with that of
    the state map then phi(s): one translate per source element, and one
    per target element for the second, looked up through ``elem_index``.
    ``Transformation``s are built, and the pairwise and per-state scans
    run, only to name the first witness.
    """
    source, target, state_map, phi = m.source, m.target, m.state_map, m.elem_index
    hit_states = set(state_map)
    if len(hit_states) != target.n:
        y = min(set(range(target.n)) - hit_states)
        return False, ("state_map_not_onto", y)
    if None in phi:
        return False, ("elem_map_not_into_target", source.elements[phi.index(None)])
    hit = set(phi)
    if len(hit) != len(target):
        j = min(set(range(len(target))) - hit)
        return False, ("elem_map_not_onto", target.elements[j])
    witness = _homomorphism_violation(m)
    if witness is not None:
        return False, ("homomorphism", witness)
    n = source.n
    then = [u for u, in _left_times(target.n, [state_map])(target.keys)]
    if _key_kind(n) is not _key_kind(target.n):
        then = list(map(tuple, then))
    agree = list(map(eq, _times(n, state_map)(source.keys), map(then.__getitem__, phi)))
    if False in agree:
        i = agree.index(False)
        s, fs = source.elements[i], target.elements[phi[i]]
        x = next(x for x in range(n) if state_map[s(x)] != fs(state_map[x]))
        return False, ("compatibility", (x, s))
    if source.has_identity:
        if target.keys[phi[_identity_at(source)]] != target._key(range(target.n)):
            return False, ("identity_condition", source.identity())
    return True, None


class AdmissiblePartition:
    """A state partition every element maps block-into-block; immutable."""

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        object.__setattr__(self, "blocks", blocks)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.blocks == other.blocks
        return NotImplemented

    def __hash__(self):
        return hash((self.blocks,))

    __setattr__ = __delattr__ = _read_only

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def block_index(self):
        out = {}
        for b, block in enumerate(self.blocks):
            for x in block:
                out[x] = b
        return out


def _partitions(n):
    """Every set partition of range(n), in restricted-growth order, with its growth string."""
    code = [0] * n
    while True:
        blocks = {}
        for x, b in enumerate(code):
            blocks.setdefault(b, []).append(x)
        yield tuple(tuple(blocks[b]) for b in sorted(blocks)), tuple(code)
        # next restricted growth string
        i = n - 1
        while i > 0:
            if code[i] <= max(code[:i]):
                code[i] += 1
                for j in range(i + 1, n):
                    code[j] = 0
                break
            code[i] = 0
            i -= 1
        else:
            return


def admissible_partitions(ts):
    """Every state partition whose blocks are stable under all elements.

    Stability under a generating set suffices: induced block maps compose.
    The one-block and discrete partitions are always included.  There are
    Bell(n) partitions, so n is capped at ``MAX_PARTITION_STATES``.
    """
    if ts.n > MAX_PARTITION_STATES:
        raise ResourceLimitError(
            "partitions", f"partition enumeration capped at {MAX_PARTITION_STATES} states"
        )
    gens = ts.generating_images()
    out = []
    for blocks, block_of in _partitions(ts.n):
        if all(
            len({block_of[g[x]] for x in block}) == 1
            for g in gens
            for block in blocks
        ):
            out.append(AdmissiblePartition(blocks))
    return out


@cache
def _trivial():
    """The target of every one-block quotient, built on first use: one state and its one map."""
    one = Transformation((0,))
    return TransformationSemigroup(1, [one], [one])


def quotient_ts(ts, partition):
    """Collapse states along an admissible partition.

    Returns the induced semigroup on the blocks and the quotient morphism.
    Distinct elements may induce the same block map, so the element map is
    generally non-injective; the target always acts faithfully.

    Every element is read on its key, one pass each: its key translated
    through the state map gives the block of every state's image
    (``lands``).  One ``_left_times`` pass then reads ``lands`` at the first
    member of each state's block and at the first member of each block.
    The element keeps the blocks when the first equals ``lands``, and the
    second is its block map.  The target is built on the set of block
    maps, as ``generate`` builds its result, and its closure is decided;
    ``elem_index`` comes from one dict over the target's keys.  The blocks
    are scanned one by one only to name the first that an element splits.

    Two partitions take a shortcut.  The one-block partition gives the
    trivial semigroup, the same object for every source, so its stored
    structures are built once.  The discrete partition in its own
    numbering, (0,), (1,), ..., gives S itself: the target is ``ts``, the
    element indices ``range(|S|)`` and the state map ``range(n)``.  The
    induced semigroup would be a copy of S with equal content, on which
    the same deterministic code would recompute everything the checks
    read; on ``ts`` they read what was computed for S^1 already.
    ``validate`` and ``functoriality_check`` still run every law on both
    morphisms.  Singleton blocks in any other order take the general path.
    """
    if not isinstance(partition, AdmissiblePartition):
        partition = AdmissiblePartition(tuple(tuple(b) for b in partition))
    blocks = partition.blocks
    if not all(blocks):
        raise ValueError("partition has an empty block")
    block_of = partition.block_index()
    if sorted(block_of) != list(range(ts.n)) or sum(len(b) for b in blocks) != ts.n:
        raise ValueError("partition does not cover the state set exactly")
    state_map = tuple(block_of[x] for x in range(ts.n))
    if state_map == tuple(range(ts.n)):
        return ts, TsMorphism._on_indices(ts, ts, state_map, range(len(ts)))
    if len(blocks) == 1:
        target = _trivial()
        return target, TsMorphism._on_indices(ts, target, state_map, (0,) * len(ts))

    n, tn = ts.n, len(blocks)
    firsts = tuple(block[0] for block in blocks)
    lands = list(_times(n, state_map)(ts.keys))
    reads = list(_left_times(n, [tuple(firsts[b] for b in state_map), firsts])(lands))
    at_first = list(map(itemgetter(0), reads))
    if at_first != lands:
        i = next(i for i, (u, v) in enumerate(zip(at_first, lands)) if u != v)
        split = next(block for block in blocks if len({lands[i][x] for x in block}) != 1)
        raise ValueError(f"partition not admissible: {ts.elements[i]!r} splits block {split}")
    block_maps = list(map(itemgetter(1), reads))
    if _key_kind(tn) is not _key_kind(n):
        block_maps = list(map(_key_kind(tn), block_maps))
    declared = [g.images for g in ts.generators]
    block_map = multiplier(firsts)
    generators = [Transformation._product(block_map(multiplier(g)(state_map))) for g in declared]
    # when S's declared generators are its generating images, their block
    # maps generate T, and T's search would return them as they are
    gens = None
    if ts.generating_images() == declared:
        gens = tuple(dict.fromkeys(t.images for t in generators))
    target = TransformationSemigroup._on_keys(tn, generators, set(block_maps), gens)
    at = {u: j for j, u in enumerate(target.keys)}
    elem_index = tuple(map(at.__getitem__, block_maps))
    return target, TsMorphism._on_indices(ts, target, state_map, elem_index)


class FunctorialityReport:
    """Verdicts that a morphism maps the source's order diagram onto the target's.

    Four grouped verdicts: order_maps (element map induces surjections of
    the L and J preorders and class posets), images_onto (state map carries
    I(X) onto I(Y)), subduction (every orbit edge Q -> Q^g transports, so
    every subduction witness transports verbatim, and the target relation
    holds), squares (all node maps commute with both diagrams' arrows).
    The skeleton-level map gets its own well-definedness,
    order-preservation and surjectivity verdicts.  The target relation and
    all three come from one ``induce`` of the two subduction preorders,
    tried only when images_onto holds; when it is not tried or refuses the
    map, all four read False.  The squares L_quotient, J_quotient and
    inclusion_to_skeleton_collapse are the item->class squares of the L, J
    and skeleton induces, which raise unless they commute; the rest are computed.
    """

    def __init__(self, order_maps, images_onto, subduction, squares, skeleton_map, witnesses):
        self.order_maps = order_maps
        self.images_onto = images_onto
        self.subduction = subduction
        self.squares = squares
        self.skeleton_map = skeleton_map
        self.witnesses = witnesses

    @property
    def order_maps_ok(self):
        return all(all(v.values()) for v in self.order_maps.values())

    @property
    def subduction_ok(self):
        return all(self.subduction.values())

    @property
    def squares_ok(self):
        return all(self.squares.values())

    @property
    def skeleton_ok(self):
        return all(self.skeleton_map.values())

    @property
    def passed(self):
        return (
            self.order_maps_ok
            and self.images_onto
            and self.subduction_ok
            and self.squares_ok
            and self.skeleton_ok
        )

    def to_dict(self):
        return {
            "order_maps": {k: dict(v) for k, v in self.order_maps.items()},
            "images_onto": self.images_onto,
            "subduction": dict(self.subduction),
            "squares": dict(self.squares),
            "skeleton_map": dict(self.skeleton_map),
            "passed": self.passed,
        }


def functoriality_check(m):
    """Verify that the whole order apparatus transports along a valid morphism.

    ``validate`` runs first; a morphism its caller has validated already
    returns the stored verdict.  phi is read on element indices of S^1 and
    T^1, from ``elem_index``.
    """
    ok, violation = validate(m)
    if not ok:
        raise ValueError(f"morphism fails validation: {violation}")
    sm, tm, phi_idx = _on_monoids(m)
    witnesses = {}

    # (a) element map respects and surjects both Green structures
    order_maps = {}
    induced_green = {}
    item_surjective = len(set(phi_idx)) == len(tm)
    for kind in ("L", "J"):
        entry = {"morphism": True, "item_surjective": True, "class_surjective": True}
        try:
            ind = induce_indexed(phi_idx, green_preorder(sm, kind), green_preorder(tm, kind))
            induced_green[kind] = ind
            entry["class_surjective"] = ind.is_surjective()
        except NotAMorphismError as err:
            entry["morphism"] = False
            witnesses[f"{kind}_morphism"] = err.witness
        entry["item_surjective"] = item_surjective
        order_maps[kind] = entry

    # (b) state map carries image sets onto image sets, decided on masks
    ix = image_set(sm)
    iy = image_set(tm)
    state_map = m.state_map
    psi_masks = [apply_mask(P.mask, state_map) for P in ix.subsets]
    images_onto = set(psi_masks) == iy.position.keys()
    if not images_onto:
        witnesses["images"] = sorted(
            {StateSubset(tm.n, mask) for mask in psi_masks} ^ set(iy.subsets),
            key=StateSubset.sort_key,
        )

    # (c) subduction transports verbatim: if psi(Q^g) = psi(Q)^phi(g) on
    # every orbit edge, induction on word length gives it for every s in
    # S^1, so a witness s of P <= Q^s gives psi(P) <= psi(Q)^phi(s);
    # psi(Q^g) is read through the edge table, one ``apply_mask`` per edge
    phi_gens = _generator_images(sm, tm, phi_idx)
    transport = next(
        (
            (Q, k)
            for Q, q, heads in zip(ix.subsets, psi_masks, ix.edges)
            for k, j in enumerate(heads)
            if psi_masks[j] != apply_mask(q, phi_gens[k])
        ),
        None,
    )
    if transport is not None:
        Q, k = transport
        witnesses["transport"] = (Q, Transformation(sm.generating_images()[k]))

    # the target relation and the skeleton-level node map: psi induces a
    # map of the subduction preorders, or the first pair it breaks; onto
    # I(Y), psi sends the k-th subset of I(X) to a position in I(Y), the
    # carriers of the two subduction preorders
    skeleton = None
    if images_onto:
        psi = list(map(iy.position.__getitem__, psi_masks))
        try:
            skeleton = induce_indexed(psi, subduction_preorder(sm), subduction_preorder(tm))
        except NotAMorphismError as err:
            witnesses["target_subduction"] = err.witness
    well_defined = skeleton is not None
    subduction = {"verbatim": transport is None, "target_relation": well_defined}
    skeleton_map = {
        "well_defined": well_defined,
        "order_preserving": well_defined,
        "surjective": well_defined and skeleton.is_surjective(),
    }

    # (d) the six node maps against every arrow of the two diagrams
    squares = {}
    if well_defined and all(v["morphism"] for v in order_maps.values()):
        alpha_l = induced_green["L"].class_map
        alpha_j = induced_green["J"].class_map
        ibx, iby = im_bar(sm), im_bar(tm)
        ibsx, ibsy = im_bar_S(sm), im_bar_S(tm)
        lj_x, lj_y = l_to_j(sm), l_to_j(tm)

        # the induces of phi on L and J raise unless these squares commute
        squares["L_quotient"] = True
        squares["J_quotient"] = True
        # psi(im(s)) == im(phi(s)) on masks, every element at once
        squares["im"] = list(map(psi_masks.__getitem__, im_index(sm))) == list(
            map(image_masks(tm).__getitem__, phi_idx)
        )
        squares["L_to_J_collapse"] = all(
            alpha_j[lj_x[c]] == lj_y[alpha_l[c]] for c in range(len(alpha_l))
        )
        # the item->class square of the skeleton induce, which raises unless it commutes
        squares["inclusion_to_skeleton_collapse"] = True
        # inclusion has one class per subset of I(X), in carrier order
        squares["im_bar"] = all(
            iby.class_map[alpha_l[c]] == psi[ibx.class_map[c]] for c in range(len(alpha_l))
        )
        squares["im_bar_S"] = all(
            ibsy.class_map[alpha_j[d]] == skeleton.class_map[ibsx.class_map[d]]
            for d in range(len(alpha_j))
        )
    else:
        for name in (
            "L_quotient",
            "J_quotient",
            "im",
            "L_to_J_collapse",
            "inclusion_to_skeleton_collapse",
            "im_bar",
            "im_bar_S",
        ):
            squares[name] = False

    return FunctorialityReport(order_maps, images_onto, subduction, squares, skeleton_map, witnesses)
