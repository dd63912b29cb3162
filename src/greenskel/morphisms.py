"""Surjective morphisms of transformation semigroups and what they transport.

A morphism is a pair of surjections: states onto states and elements onto
elements, compatible with the actions.  Quotients by admissible state
partitions are the canonical way to manufacture them.  The checks at the
bottom verify that such a morphism carries the whole order apparatus of
the source (Green preorders, image sets, subduction) onto the target's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType

from .core import (
    ResourceLimitError,
    StateSubset,
    Transformation,
    TransformationSemigroup,
    multiplier,
)
from .green import green_poset, green_preorder
from .maps import im_bar, im_bar_S, im_map
from .order import NotAMorphismError, induce
from .skeleton import image_set, inclusion_poset, subduction_preorder

MAX_PARTITION_STATES = 8


@dataclass(frozen=True)
class TsMorphism:
    """Paired surjections (states, elements) compatible with the actions.

    Immutable: ``state_map`` is a tuple and ``elem_map`` a read-only copy of
    the mapping given, so the verdict ``validate`` stores on first use
    cannot go stale.
    """

    source: TransformationSemigroup
    target: TransformationSemigroup
    state_map: tuple
    elem_map: MappingProxyType

    def __post_init__(self):
        object.__setattr__(self, "state_map", tuple(self.state_map))
        object.__setattr__(self, "elem_map", MappingProxyType(dict(self.elem_map)))
        if len(self.state_map) != self.source.n:
            raise ValueError("state_map must cover every source state")
        for y in self.state_map:
            if not 0 <= y < self.target.n:
                raise ValueError(f"state image {y} outside the target state set")
        missing = [s for s in self.source.elements if s not in self.elem_map]
        if missing:
            raise ValueError(f"elem_map not total, e.g. {missing[0]!r}")

    @cached_property
    def _verdict(self):
        return _check_laws(self)

    def map_subset(self, P):
        return StateSubset.of(self.target.n, (self.state_map[x] for x in P))

    def then(self, other):
        """Composite morphism: apply self, then other."""
        if other.source is not self.target:
            raise ValueError("composition requires matching middle semigroup")
        return TsMorphism(
            self.source,
            other.target,
            tuple(other.state_map[y] for y in self.state_map),
            {s: other.elem_map[t] for s, t in self.elem_map.items()},
        )


def _homomorphism_violation(m):
    """The first (s, t) in canonical order with phi(st) != phi(s)phi(t), or None.

    The verdict is decided on a generating set G: if s*g lies in S and
    phi(s*g) = phi(s)phi(g) for every s in S and g in G, then for
    t = g1...gk induction on k gives phi(st) = phi(s)phi(t).  Only when a
    generator pair fails or a product leaves S does the pairwise scan run,
    to find the first witness (or raise the KeyError of a product that
    elem_map does not cover).
    """
    phi = {s.images: m.elem_map[s].images for s in m.source.elements}
    gens = [(g, phi[g]) for g in m.source.generating_images()]
    for s, fs in phi.items():
        times_s, times_fs = multiplier(s), multiplier(fs)
        if any(phi.get(times_s(g)) != times_fs(fg) for g, fg in gens):
            break
    else:
        return None
    for s in m.source.elements:
        for t in m.source.elements:
            if m.elem_map[s * t] != m.elem_map[s] * m.elem_map[t]:
                return s, t
    return None


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
    The homomorphism law is decided on a generating set of the source,
    |S|·|G| products instead of |S|²; the pairwise scan in canonical
    order runs only to locate the first witness.
    """
    hit_states = set(m.state_map)
    if len(hit_states) != m.target.n:
        y = min(set(range(m.target.n)) - hit_states)
        return False, ("state_map_not_onto", y)
    for s in m.source.elements:
        if m.elem_map[s] not in m.target:
            return False, ("elem_map_not_into_target", s)
    hit = set(m.elem_map[s] for s in m.source.elements)
    for t in m.target.elements:
        if t not in hit:
            return False, ("elem_map_not_onto", t)
    witness = _homomorphism_violation(m)
    if witness is not None:
        return False, ("homomorphism", witness)
    for s in m.source.elements:
        fs = m.elem_map[s]
        for x in range(m.source.n):
            if m.state_map[s(x)] != fs(m.state_map[x]):
                return False, ("compatibility", (x, s))
    if m.source.has_identity:
        one = m.source.identity()
        if not m.elem_map[one].is_identity():
            return False, ("identity_condition", one)
    return True, None


@dataclass(frozen=True)
class AdmissiblePartition:
    """A state partition every element maps block-into-block."""

    blocks: tuple

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
    """All set partitions of range(n) in restricted-growth order."""
    code = [0] * n
    while True:
        blocks = {}
        for x, b in enumerate(code):
            blocks.setdefault(b, []).append(x)
        yield tuple(tuple(blocks[b]) for b in sorted(blocks))
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
    for blocks in _partitions(ts.n):
        block_of = {}
        for b, block in enumerate(blocks):
            for x in block:
                block_of[x] = b
        if all(
            len({block_of[g[x]] for x in block}) == 1
            for g in gens
            for block in blocks
        ):
            out.append(AdmissiblePartition(blocks))
    return out


def quotient_ts(ts, partition):
    """Collapse states along an admissible partition.

    Returns the induced semigroup on the blocks and the quotient morphism.
    Distinct elements may induce the same block map, so the element map is
    generally non-injective; the target always acts faithfully.
    """
    if not isinstance(partition, AdmissiblePartition):
        partition = AdmissiblePartition(tuple(tuple(b) for b in partition))
    block_of = partition.block_index()
    if sorted(block_of) != list(range(ts.n)) or sum(
        len(b) for b in partition.blocks
    ) != ts.n:
        raise ValueError("partition does not cover the state set exactly")

    def induced(s):
        images = []
        for block in partition.blocks:
            targets = {block_of[s(x)] for x in block}
            if len(targets) != 1:
                raise ValueError(
                    f"partition not admissible: {s!r} splits block {block}"
                )
            images.append(targets.pop())
        return Transformation(tuple(images))

    elem_map = {s: induced(s) for s in ts.elements}
    target = TransformationSemigroup(
        len(partition.blocks),
        [elem_map[g] for g in ts.generators],
        set(elem_map.values()),
    )
    state_map = tuple(block_of[x] for x in range(ts.n))
    return target, TsMorphism(ts, target, state_map, elem_map)


@dataclass
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

    order_maps: dict
    images_onto: bool
    subduction: dict
    squares: dict
    skeleton_map: dict
    witnesses: dict = field(default_factory=dict)

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


def _extended_elem_map(m):
    """elem_map extended to the monoids on both sides."""
    sm = m.source.adjoin_identity()
    tm = m.target.adjoin_identity()
    ext = dict(m.elem_map)
    one = sm.identity()
    if one not in ext:
        ext[one] = tm.identity()
    return sm, tm, ext


def functoriality_check(m):
    """Verify that the whole order apparatus transports along a valid morphism.

    ``validate`` runs first; a morphism its caller has validated already
    returns the stored verdict.
    """
    ok, violation = validate(m)
    if not ok:
        raise ValueError(f"morphism fails validation: {violation}")
    sm, tm, phi = _extended_elem_map(m)
    witnesses = {}

    # (a) element map respects and surjects both Green structures
    order_maps = {}
    induced_green = {}
    for kind in ("L", "J"):
        entry = {"morphism": True, "item_surjective": True, "class_surjective": True}
        try:
            ind = induce(phi, green_preorder(sm, kind), green_preorder(tm, kind))
            induced_green[kind] = ind
            entry["class_surjective"] = ind.is_surjective()
        except NotAMorphismError as err:
            entry["morphism"] = False
            witnesses[f"{kind}_morphism"] = err.witness
        entry["item_surjective"] = {phi[s] for s in sm.elements} == set(tm.elements)
        order_maps[kind] = entry

    # (b) state map carries image sets onto image sets
    ix = image_set(sm)
    iy = image_set(tm)
    psi = {P: m.map_subset(P) for P in ix.subsets}
    images_onto = set(psi.values()) == set(iy.subsets)
    if not images_onto:
        witnesses["images"] = sorted(
            set(psi.values()) ^ set(iy.subsets), key=StateSubset.sort_key
        )

    # (c) subduction transports verbatim: if psi(Q^g) = psi(Q)^phi(g) on
    # every orbit edge, induction on word length gives it for every s in
    # S^1, so a witness s of P <= Q^s gives psi(P) <= psi(Q)^phi(s)
    gens = [Transformation(g) for g in sm.generating_images()]
    transport = next(
        (
            (Q, g)
            for Q in ix.subsets
            for g in gens
            if m.map_subset(Q.apply(g)) != psi[Q].apply(phi[g])
        ),
        None,
    )
    if transport is not None:
        witnesses["transport"] = transport

    # the target relation and the skeleton-level node map: psi induces a
    # map of the subduction preorders, or the first pair it breaks
    skeleton = None
    if images_onto:
        try:
            skeleton = induce(psi, subduction_preorder(sm), subduction_preorder(tm))
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
        lqx, lqy = green_poset(sm, "L"), green_poset(tm, "L")
        jqx, jqy = green_poset(sm, "J"), green_poset(tm, "J")
        iqx, iqy = inclusion_poset(sm), inclusion_poset(tm)
        alpha_l = induced_green["L"].class_map
        alpha_j = induced_green["J"].class_map
        imx, imy = im_map(sm), im_map(tm)
        ibx, iby = im_bar(sm), im_bar(tm)
        ibsx, ibsy = im_bar_S(sm), im_bar_S(tm)
        lj_x = tuple(jqx.class_of[cls[0]] for cls in lqx.classes)
        lj_y = tuple(jqy.class_of[cls[0]] for cls in lqy.classes)

        # the induces of phi on L and J raise unless these squares commute
        squares["L_quotient"] = True
        squares["J_quotient"] = True
        squares["im"] = all(psi[imx[s]] == imy[phi[s]] for s in sm.elements)
        squares["L_to_J_collapse"] = all(
            alpha_j[lj_x[c]] == lj_y[alpha_l[c]] for c in range(len(lqx))
        )
        # the item->class square of the skeleton induce, which raises unless it commutes
        squares["inclusion_to_skeleton_collapse"] = True
        squares["im_bar"] = all(
            iqy.classes[iby.class_map[alpha_l[c]]][0]
            == psi[iqx.classes[ibx.class_map[c]][0]]
            for c in range(len(lqx))
        )
        squares["im_bar_S"] = all(
            ibsy.class_map[alpha_j[d]] == skeleton.class_map[ibsx.class_map[d]]
            for d in range(len(jqx))
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
