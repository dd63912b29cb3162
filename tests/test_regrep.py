from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from greenskel import (
    ResourceLimitError,
    Transformation,
    TransformationSemigroup,
    corollary_check,
    green_poset,
    inclusion_poset,
    right_regular,
    skeleton_poset,
)
from greenskel.catalog import chain_collapse, collapse_motif, right_zero, trivial
from greenskel.cli import build_semigroup, parse

import naive

INPUTS = Path(__file__).resolve().parent.parent / "inputs"


@st.composite
def semigroups(draw, max_states=3, cap=30):
    """A generated semigroup, with the identity among its generators or not."""
    n = draw(st.integers(1, max_states))
    gens = [
        Transformation(tuple(draw(st.integers(0, n - 1)) for _ in range(n)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    if draw(st.booleans()):
        gens.append(Transformation.identity(n))
    try:
        return TransformationSemigroup.generate(n, gens, cap)
    except ResourceLimitError:
        assume(False)


def assert_matches_table(ts):
    """Representation and every rho(s) of S^1 agree with the full product table."""
    table = naive.right_regular_table([t.images for t in ts.elements], ts.n)
    rr = right_regular(ts)
    want = sorted(table[t.images] for t in ts.elements)
    assert [r.images for r in rr.rep.elements] == want
    assert len(rr.carrier) == len(table)
    for s in rr.carrier:
        assert rr.rho(s).images == table[s.images]


def declared_generators_miss(ts):
    """The same elements with only the first declared generator."""
    return TransformationSemigroup(ts.n, ts.generators[:1], ts.elements)


class TestRepresentationOracle:
    def test_fixtures(self, fixtures):
        for ts in fixtures.values():
            assert_matches_table(ts)

    def test_example_inputs(self):
        paths = sorted(INPUTS.glob("*.tsg"))
        assert paths
        for path in paths:
            assert_matches_table(build_semigroup(parse(path.read_text(encoding="utf-8"))))

    def test_declared_generators_miss_elements(self, fixtures):
        for ts in fixtures.values():
            assert_matches_table(declared_generators_miss(ts))

    @settings(max_examples=60, deadline=None)
    @given(semigroups(), st.booleans())
    def test_generated(self, ts, miss):
        assert_matches_table(declared_generators_miss(ts) if miss else ts)


class TestRepresentation:
    def test_carrier_is_identity_then_canonical(self, fixtures):
        for ts in fixtures.values():
            rr = right_regular(ts)
            m = rr.monoid
            assert rr.carrier[0] == m.identity()
            rest = [t for t in m.elements if t != m.identity()]
            assert list(rr.carrier[1:]) == rest
            assert all(rr.state_of[a] == i for i, a in enumerate(rr.carrier))

    def test_faithful(self, fixtures):
        for ts in fixtures.values():
            rr = right_regular(ts)
            assert len(rr.rep.elements) == len(ts.elements)
            seen = {rr.rho(s) for s in ts.elements}
            assert len(seen) == len(ts.elements)

    def test_rho_is_a_homomorphism(self):
        ts = chain_collapse()
        rr = right_regular(ts)
        for s in ts.elements:
            for t in ts.elements:
                assert rr.rho(s * t) == rr.rho(s) * rr.rho(t)

    def test_identity_state_reads_off_the_element(self, fixtures):
        # state 0 carries the identity, so rho(s) sends it to the state of s
        for ts in fixtures.values():
            rr = right_regular(ts)
            for s in ts.elements:
                assert rr.rho(s).images[0] == rr.state_of[s]

    def test_images_are_left_ideals(self, fixtures):
        for ts in fixtures.values():
            rr = right_regular(ts)
            monoid = [t.images for t in rr.monoid]
            for s in ts.elements:
                ideal = naive.left_ideal(s.images, monoid)
                expect = {rr.state_of[Transformation(f)] for f in ideal}
                assert set(rr.rho(s).image().members) == expect

    def test_chain_collapse_image_of_middle_element(self):
        ts = chain_collapse()
        rr = right_regular(ts)
        elements = {t.one_based: t for t in ts}
        t2, t3 = elements[(3, 1, 3)], elements[(3, 3, 3)]
        got = set(rr.rho(t2).image().members)
        assert got == {rr.state_of[t2], rr.state_of[t3]}

    def test_collapse_motif_matches_frozen_listing(self):
        # reference listing of the representation, states ordered
        # [identity, a, b, ba, ab] where a, b are the two generators
        ts = collapse_motif()
        a = Transformation.from_one_based((1, 1, 3))
        b = Transformation.from_one_based((3, 2, 3))
        reference_carrier = (ts.adjoin_identity().identity(), a, b, b * a, a * b)
        reference = {
            reference_carrier[0]: (1, 2, 3, 4, 5),
            a: (2, 2, 4, 4, 5),
            b: (3, 5, 3, 5, 5),
            b * a: (4, 5, 4, 5, 5),
            a * b: (5, 5, 5, 5, 5),
        }
        rr = right_regular(ts)
        assert set(rr.carrier) == set(reference_carrier)
        sigma = {rr.state_of[t]: i for i, t in enumerate(reference_carrier)}
        for s in rr.carrier:
            mine = rr.rho(s).images
            relabeled = [None] * len(mine)
            for x, y in enumerate(mine):
                relabeled[sigma[x]] = sigma[y] + 1
            assert tuple(relabeled) == reference[s]

    def test_cap_propagates(self):
        with pytest.raises(ResourceLimitError):
            right_regular(collapse_motif(), max_elements=2)

    def test_right_zero_without_identity(self):
        ts = right_zero(3)
        rr = right_regular(ts)
        assert len(rr.carrier) == 4 and len(rr.rep.elements) == 3


class TestCorollary:
    def test_all_fixtures_pass(self, fixtures):
        for name, ts in fixtures.items():
            report = corollary_check(ts)
            assert report.passed, name
            assert report.j_is_iso and report.l_is_iso
            assert report.j_found and report.l_found

    def test_declared_generators_miss_elements(self, fixtures):
        for name, ts in fixtures.items():
            src = TransformationSemigroup(ts.n, ts.generators[:1], ts.elements)
            report = corollary_check(src)
            assert report.passed, name
            assert report.regrep.rep.elements == right_regular(ts).rep.elements

    def test_maps_come_from_the_induced_maps(self):
        ts = collapse_motif()
        report = corollary_check(ts)
        rr = report.regrep
        mt = rr.rep.adjoin_identity()
        jq = green_poset(rr.monoid, "J")
        sq = skeleton_poset(mt)
        for ci, cls in enumerate(jq.classes):
            assert report.j_map[ci] == sq.class_of[rr.rho(cls[0]).image()]
        lq = green_poset(rr.monoid, "L")
        iq = inclusion_poset(mt)
        for ci, cls in enumerate(lq.classes):
            assert report.l_map[ci] == iq.class_of[rr.rho(cls[0]).image()]

    def test_rep_skeleton_size_equals_j_class_count(self, fixtures):
        for ts in fixtures.values():
            rr = right_regular(ts)
            mt = rr.rep.adjoin_identity()
            assert len(skeleton_poset(mt)) == len(green_poset(rr.monoid, "J"))
            assert len(inclusion_poset(mt)) == len(green_poset(rr.monoid, "L"))

    def test_trivial(self):
        report = corollary_check(trivial(1))
        assert report.passed
        assert report.j_map == (0,) and report.l_map == (0,)
