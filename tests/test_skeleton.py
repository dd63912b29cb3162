from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from greenskel import (
    DomainMismatchError,
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
from greenskel.cli import build_semigroup, parse
import naive
from naive import SubductionWitness, subduction_leq

INPUTS = Path(__file__).resolve().parent.parent / "inputs"


def subsets_one_based(iset):
    return {p.one_based for p in iset.subsets}


class TestImageSet:
    def test_chain_collapse_images(self):
        iset = image_set(chain_collapse())
        assert subsets_one_based(iset) == {(1, 2, 3), (1, 3), (3,)}

    def test_nonlattice_count(self):
        assert len(image_set(nonlattice())) == 16

    def test_trivial(self):
        iset = image_set(trivial(1))
        assert subsets_one_based(iset) == {(1,)}

    def test_witnesses_valid(self, fixtures):
        for ts in fixtures.values():
            m = ts.adjoin_identity()
            iset = image_set(m)
            assert StateSubset.full(m.n) in iset
            for p in iset.subsets:
                w = iset.witness(p)
                assert w in m and w.image() == p
            assert iset.witness(StateSubset.full(m.n)).is_identity()

    def test_origin_matches_naive_scan(self, fixtures):
        # same subsets, witnesses and dict order as scanning t.image()
        inputs = [build_semigroup(parse(p.read_text())) for p in sorted(INPUTS.glob("*.tsg"))]
        assert inputs
        for ts in list(fixtures.values()) + inputs:
            m = ts.adjoin_identity()
            origin = naive.image_set_origin(m)
            assert list(image_set(m).origin.items()) == list(origin.items())

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
        for p in iset.adjoined:
            assert iset.witness(p) is None

    def test_right_zero_already_has_singletons(self):
        ts = right_zero(3)
        assert extended_image_set(ts).subsets == image_set(ts).subsets
        assert extended_image_set(ts).adjoined == frozenset()

    def test_trivial_two_states(self):
        iset = extended_image_set(trivial(2))
        assert subsets_one_based(iset) == {(1, 2), (1,), (2,)}
        assert len(iset.adjoined) == 2


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
                subduction_preorder(ts, extended).check()

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
                        assert p.leq(P, Q)

    def test_full_set_is_unique_maximum(self, fixtures):
        for ts in fixtures.values():
            m = ts.adjoin_identity()
            for extended in (False, True):
                sk = skeleton_poset(m, extended)
                top = sk.class_of[StateSubset.full(m.n)]
                assert sk.maximal() == (top,)

    def test_extended_adds_minimal_classes(self):
        sk = skeleton_poset(trivial(2), extended=True)
        assert len(sk) == 3
        assert len(sk.minimal()) == 2

    def test_inclusion_poset_is_discrete_quotient(self, fixtures):
        for ts in fixtures.values():
            iq = inclusion_poset(ts)
            assert all(len(cls) == 1 for cls in iq.classes)
            assert len(iq) == len(image_set(ts))


def assert_relations_match_oracle(ts):
    """Subduction and inclusion rows equal the naive relations, both carriers."""
    m = ts.adjoin_identity()
    monoid = [t.images for t in m]
    for extended in (False, True):
        iset = extended_image_set(m) if extended else image_set(m)
        sets = [frozenset(p.members) for p in iset.subsets]
        subd = subduction_preorder(m, extended)
        incl = inclusion_preorder(m, extended)
        assert subd.items == incl.items == iset.subsets
        assert subd.rows == naive.leq_rows(
            sets, lambda a, b: naive.subduction(a, b, monoid)
        ), (ts, extended)
        assert incl.rows == naive.leq_rows(sets, lambda a, b: a <= b), (ts, extended)


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
        # a = [2 3 4 4]: a*a = [3 4 4 4] is missing, and so is its image {3,4}
        a = Transformation.from_one_based([2, 3, 4, 4])
        for extended in (False, True):
            with pytest.raises(KeyError):
                subduction_preorder(TransformationSemigroup(4, [a], [a]), extended)


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.tuples(*[st.integers(0, n - 1)] * n).map(Transformation),
            min_size=1,
            max_size=3,
        )
    )
)
@settings(max_examples=40, deadline=None)
def test_random_semigroup_subduction_laws(gens):
    n = gens[0].n
    try:
        ts = TransformationSemigroup.generate(n, gens, max_elements=100)
    except ResourceLimitError:
        assume(False)
    m = ts.adjoin_identity()
    subduction_preorder(m).check()
    assert_relations_match_oracle(ts)
    for cls in skeleton_poset(m).classes:
        assert len({len(x) for x in cls}) == 1
