from pathlib import Path

import pytest
from hypothesis import assume, given, settings

from greenskel import (
    DomainMismatchError,
    ImageSet,
    NotClosedError,
    Preorder,
    ResourceLimitError,
    StateSubset,
    Transformation,
    TransformationSemigroup,
    extended_image_set,
    image_set,
    inclusion_poset,
    inclusion_preorder,
    skeleton_poset,
    subduction_preorder,
)
from greenskel.catalog import (
    all_fixtures,
    chain_collapse,
    collapse_motif,
    hidden_relation,
    hidden_relation_pair,
    nonlattice,
    right_zero,
    trivial,
)
from greenskel.cli import InputDocument, build_semigroup, parse
from greenskel.core import _WIDE, apply_mask
from greenskel.regrep import right_regular
from greenskel.skeleton import inclusion, orbit, subduction
import naive
from conftest import (
    assert_image_set_matches_scan,
    assert_preorder_laws,
    assert_relations_match_oracle,
    count_apply_mask,
    generator_lists,
)
from naive import SubductionWitness, subduction_leq

INPUTS = Path(__file__).resolve().parent.parent / "inputs"


def subsets_one_based(iset):
    return {p.one_based for p in iset.subsets}


def assert_positions(iset):
    """``position`` maps the mask of every subset, and nothing else, to its index."""
    assert len(iset.position) == len(iset.subsets)
    for i, P in enumerate(iset.subsets):
        assert iset.position[P.mask] == i


def assert_extended_matches_renumbering(doc):
    """The seeded orbit against the plain orbit renumbered, with and without ``monoid: false``."""
    for monoid in (True, False):
        ts = build_semigroup(InputDocument(doc.n, doc.generators, monoid), max_elements=200)
        iset = extended_image_set(ts)
        assert (iset.subsets, iset.edges, iset.adjoined) == naive.extended_image_set(ts)
        assert_positions(image_set(ts))
        assert_positions(iset)


def document(n, gens):
    return InputDocument(n, tuple(g.one_based for g in gens))


class TestImageSet:
    def test_chain_collapse_images(self):
        iset = image_set(chain_collapse())
        assert subsets_one_based(iset) == {(1, 2, 3), (1, 3), (3,)}

    def test_nonlattice_count(self):
        assert len(image_set(nonlattice())) == 16

    def test_trivial(self):
        iset = image_set(trivial(1))
        assert subsets_one_based(iset) == {(1,)}

    def test_origin_matches_naive_scan(self, fixtures):
        # the orbit of a fresh generated semigroup and the scan of the same
        # elements given to the constructor both match scanning t.image()
        inputs = [build_semigroup(parse(p.read_text())) for p in sorted(INPUTS.glob("*.tsg"))]
        assert inputs
        for ts in list(fixtures.values()) + inputs:
            m = ts.adjoin_identity()
            assert_image_set_matches_scan(m)
            fresh = TransformationSemigroup.generate(m.n, m.generators)
            image_set(fresh)
            assert "elements" not in vars(fresh)
            assert_image_set_matches_scan(fresh)
            assert_image_set_matches_scan(TransformationSemigroup(m.n, m.generators, m.elements))

    def test_matches_naive_images(self, fixtures):
        for ts in fixtures.values():
            m = ts.adjoin_identity()
            expected = naive.images([t.images for t in m])
            got = {frozenset(p.members) for p in image_set(m).subsets}
            assert got == expected


class TestExtendedImageSet:
    def test_chain_collapse_adjoins_two(self):
        iset = extended_image_set(chain_collapse())
        assert subsets_one_based(iset) == {(1, 2, 3), (1, 3), (3,), (1,), (2,)}
        assert {p.one_based for p in iset.adjoined} == {(1,), (2,)}

    def test_right_zero_already_has_singletons(self):
        ts = right_zero(3)
        assert extended_image_set(ts).subsets == image_set(ts).subsets
        assert extended_image_set(ts).adjoined == frozenset()

    def test_trivial_two_states(self):
        iset = extended_image_set(trivial(2))
        assert subsets_one_based(iset) == {(1, 2), (1,), (2,)}
        assert len(iset.adjoined) == 2

    def test_fixtures_match_renumbering(self, fixtures):
        for ts in fixtures.values():
            assert_extended_matches_renumbering(document(ts.n, ts.generators))

    def test_inputs_match_renumbering(self):
        paths = sorted(INPUTS.glob("*.tsg"))
        assert paths
        for path in paths:
            assert_extended_matches_renumbering(parse(path.read_text()))

    @given(generator_lists)
    @settings(max_examples=60, deadline=None)
    def test_random_match_renumbering(self, gens):
        try:
            assert_extended_matches_renumbering(document(gens[0].n, gens))
        except ResourceLimitError:
            assume(False)


class TestSubductionLeq:
    def test_inclusion_gives_identity_witness(self):
        m = chain_collapse()
        P = StateSubset.from_one_based(3, [3])
        Q = StateSubset.from_one_based(3, [1, 3])
        w = subduction_leq(P, Q, m)
        assert w is not None and w.s.is_identity()

    def test_cardinality_obstruction(self):
        m = chain_collapse()
        big = StateSubset.full(3)
        small = StateSubset.from_one_based(3, [1, 3])
        assert subduction_leq(big, small, m) is None

    def test_hidden_relation_pair(self):
        m = hidden_relation()
        a, b = hidden_relation_pair()
        assert a.image().one_based == (1, 2, 4)
        assert b.image().one_based == (1, 2, 3, 4)
        forward = subduction_leq(a.image(), b.image(), m)
        assert forward is not None and forward.s.is_identity()
        assert subduction_leq(b.image(), a.image(), m) is None

    def test_first_witness_is_canonical(self):
        m = collapse_motif()
        P = StateSubset.from_one_based(3, [1, 3])
        Q = StateSubset.from_one_based(3, [2, 3])
        w = subduction_leq(P, Q, m)
        # not included directly, so the witness is the first non-identity
        # element in canonical order that carries Q over P
        assert w is not None
        assert w.s.one_based == (1, 1, 3)

    def test_domain_mismatch(self):
        m = chain_collapse()
        for P, Q in [
            (StateSubset.of(4, [0]), StateSubset.of(4, [1, 3])),
            (StateSubset.of(2, [0]), StateSubset.of(2, [1])),
        ]:
            with pytest.raises(DomainMismatchError):
                subduction_leq(P, Q, m)

    def test_witness_validation(self):
        m = chain_collapse()
        Q = StateSubset.from_one_based(3, [1, 3])
        with pytest.raises(ValueError):
            SubductionWitness(m.identity(), StateSubset.full(3), Q)

    def test_matches_naive_oracle(self, fixtures):
        for ts in fixtures.values():
            m = ts.adjoin_identity()
            monoid = [t.images for t in m]
            subsets = image_set(m).subsets
            for P in subsets:
                for Q in subsets:
                    got = subduction_leq(P, Q, m) is not None
                    expected = naive.subduction(
                        frozenset(P.members), frozenset(Q.members), monoid
                    )
                    assert got == expected


class TestSkeleton:
    def test_chain_collapse_three_chain(self):
        sk = skeleton_poset(chain_collapse())
        assert len(sk) == 3
        assert all(len(cls) == 1 for cls in sk.classes)
        assert sk.covers == ((1, 0), (2, 1))

    def test_nonlattice_classes(self):
        sk = skeleton_poset(nonlattice())
        assert len(sk) == 9
        assert any(len(cls) > 1 for cls in sk.classes)

    def test_collapse_motif_matches_naive_classes(self):
        m = collapse_motif()
        monoid = [t.images for t in m]
        subsets = [frozenset(p.members) for p in image_set(m).subsets]
        expected = naive.classes_by_mutual(
            subsets, lambda a, b: naive.subduction(a, b, monoid)
        )
        got = [
            tuple(frozenset(p.members) for p in cls)
            for cls in skeleton_poset(m).classes
        ]
        assert sorted(map(sorted, got)) == sorted(map(sorted, expected))
        # 4-chain: the two two-element images are mutually subduction-related
        assert len(skeleton_poset(m)) == 4

    def test_preorder_laws(self, fixtures):
        for ts in fixtures.values():
            for extended in (False, True):
                assert_preorder_laws(subduction_preorder(ts, extended))

    def test_mutual_subduction_equal_size(self, fixtures):
        for ts in fixtures.values():
            for extended in (False, True):
                for cls in skeleton_poset(ts, extended).classes:
                    assert len({len(p) for p in cls}) == 1

    def test_inclusion_embeds(self, fixtures):
        for ts in fixtures.values():
            m = ts.adjoin_identity()
            subsets = image_set(m).subsets
            p = subduction_preorder(m)
            for P in subsets:
                for Q in subsets:
                    if P.issubset(Q):
                        assert naive.leq(p, P, Q)

    def test_full_set_is_unique_maximum(self, fixtures):
        for ts in fixtures.values():
            m = ts.adjoin_identity()
            for extended in (False, True):
                sk = skeleton_poset(m, extended)
                top = naive.class_of(sk)[StateSubset.full(m.n)]
                assert sk.maximal() == (top,)

    def test_extended_adds_minimal_classes(self):
        sk = skeleton_poset(trivial(2), extended=True)
        assert len(sk) == 3
        below = [any(sk.rows[j] >> i & 1 for j in range(len(sk)) if j != i) for i in range(len(sk))]
        assert below.count(False) == 2

    def test_inclusion_poset_is_discrete_quotient(self, fixtures):
        for ts in fixtures.values():
            iq = inclusion_poset(ts)
            assert all(len(cls) == 1 for cls in iq.classes)
            assert len(iq) == len(image_set(ts))


class TestSubductionPreorder:
    def test_fixtures_match_oracle(self):
        # rebuilt with its first generator alone, most fixtures declare too
        # few generators: an orbit over the declared ones misses images of Q
        for f in all_fixtures().values():
            assert_relations_match_oracle(f)
            assert_relations_match_oracle(
                TransformationSemigroup(f.n, f.generators[:1], f.elements)
            )

    def test_non_closed_element_set_raises(self):
        # a = [2 3 4 4]: a*a = [3 4 4 4] is missing, and so is its image
        # {3,4}; the set is refused before any relation is asked of it
        a = Transformation.from_one_based([2, 3, 4, 4])
        with pytest.raises(NotClosedError) as err:
            TransformationSemigroup(4, [a], [a])
        assert err.value.pair == (a, a)

    def test_non_closed_element_set_inside_its_orbit(self):
        # b*a = [1 1 4 3] and b*b = [2 2 3 4] are missing, but their images
        # are a's and b's, so the orbit of X stays in the carrier and cannot
        # tell; the constructor refuses the set, and its closure, which has
        # the same image sets, matches the oracle
        a = Transformation.from_one_based([1, 1, 3, 4])
        b = Transformation.from_one_based([2, 2, 4, 3])
        assert not naive.is_closed([a, b])
        with pytest.raises(NotClosedError) as err:
            TransformationSemigroup(4, [a], [a, b])
        assert err.value.pair == (b, a)
        ts = TransformationSemigroup.generate(4, [a, b])
        assert len(ts) == 4
        assert_relations_match_oracle(ts)
        assert [len(cls) for cls in skeleton_poset(ts).classes] == [1, 2]


@given(generator_lists)
@settings(max_examples=40, deadline=None)
def test_random_semigroup_subduction_laws(gens):
    n = gens[0].n
    try:
        ts = TransformationSemigroup.generate(n, gens, max_elements=100)
    except ResourceLimitError:
        assume(False)
    m = ts.adjoin_identity()
    assert_preorder_laws(subduction_preorder(m))
    assert_relations_match_oracle(ts)
    for cls in skeleton_poset(m).classes:
        assert len({len(x) for x in cls}) == 1


def assert_edges_are_images(iset, gens):
    """``edges[i][k]`` is the position of subsets[i]^gens[k], for every subset and generator."""
    position = {P.mask: i for i, P in enumerate(iset.subsets)}
    assert len(iset.edges) == len(iset.subsets)
    for P, heads in zip(iset.subsets, iset.edges):
        assert list(heads) == [position[apply_mask(P.mask, g)] for g in gens], P


def assert_matches_edge_oracles(subsets, gens, incl, subd):
    """Inclusion and subduction on ``subsets`` against the pair loop and the per-edge images."""
    want = Preorder(subsets, list(range(len(subsets))), naive.inclusion_rows(subsets))
    assert (incl.class_of, incl.class_rows, incl.covers) == (
        want.class_of,
        want.class_rows,
        want.covers,
    )
    want = naive.subduction_by_images(subsets, gens)
    assert (subd.class_of, subd.class_rows, subd.covers) == (
        want.class_of,
        want.class_rows,
        want.covers,
    )


def assert_carriers_match_edge_oracles(m):
    """Edges, inclusion and subduction of the monoid ``m`` against the oracles, both carriers."""
    gens = m.generating_images()
    for extended in (False, True):
        iset = extended_image_set(m) if extended else image_set(m)
        assert_edges_are_images(iset, gens)
        assert_matches_edge_oracles(
            iset.subsets, gens, inclusion_preorder(m, extended), subduction_preorder(m, extended)
        )


def reflect_and_fold(n):
    """A small monoid on n states whose orbit misses most singletons.

    Generated by x -> n-1-x, the idempotent sending n-1 to 0, and a map
    into four states.
    """
    gens = [
        tuple(n - 1 - x for x in range(n)),
        tuple(x if x < n - 1 else 0 for x in range(n)),
        tuple((3 * x + 1) % min(n, 4) for x in range(n)),
    ]
    return TransformationSemigroup.generate(n, map(Transformation, gens)).adjoin_identity()


class TestOrbitEdges:
    @pytest.mark.parametrize("n", [1, 2, _WIDE - 1, _WIDE, _WIDE + 1])
    def test_both_carriers_on_both_sides_of_the_width_switch(self, n):
        m = reflect_and_fold(n)
        assert_carriers_match_edge_oracles(m)
        if n > 2:
            assert extended_image_set(m).adjoined

    def test_fixtures(self, fixtures):
        for ts in fixtures.values():
            assert_carriers_match_edge_oracles(ts.adjoin_identity())

    def test_subduction_acts_on_no_subset(self, fixtures, monkeypatch):
        ms = [ts.adjoin_identity() for ts in fixtures.values()] + [reflect_and_fold(_WIDE + 1)]
        for m in ms:
            image_set(m), extended_image_set(m)
        calls = count_apply_mask(monkeypatch)
        for m in ms:
            for extended in (False, True):
                subduction_preorder(m, extended)
        assert calls == [0]

    def test_catalan_representation_orbit(self):
        # C_8 on its 1,430 elements: rows as wide as the carrier take the
        # digit paths of apply_mask and of the order module
        gens = [
            Transformation(tuple(k + 1 if x == k else x for x in range(8))) for k in range(7)
        ]
        rr = right_regular(TransformationSemigroup.generate(8, gens))
        n = len(rr.carrier)
        subsets, edges = orbit(n, rr.gens, [(1 << n) - 1])
        assert len(subsets) == n == 1430 > _WIDE
        assert subsets == rr.orbit.subsets
        assert_positions(rr.orbit)
        assert_edges_are_images(ImageSet(len(rr.carrier), subsets, edges), rr.gens)
        incl = inclusion(subsets)
        assert_matches_edge_oracles(subsets, rr.gens, incl, subduction(incl, edges))


@given(generator_lists)
@settings(max_examples=60, deadline=None)
def test_random_edges_inclusion_and_subduction_match_oracles(gens):
    n = gens[0].n
    try:
        ts = TransformationSemigroup.generate(n, gens, max_elements=100)
    except ResourceLimitError:
        assume(False)
    assert_carriers_match_edge_oracles(ts.adjoin_identity())
