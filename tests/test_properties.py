"""Law checks over randomly generated semigroups."""

from hypothesis import assume, given, settings, strategies as st

from greenskel import (
    ResourceLimitError,
    Transformation,
    TransformationSemigroup,
    admissible_partitions,
    corollary_check,
    d_classes,
    functoriality_check,
    green_preorder,
    image_set,
    inclusion_preorder,
    quotient_ts,
    right_regular,
    skeleton_poset,
    subduction_preorder,
    validate,
    verify_diagram,
)

import naive
from naive import subduction_leq


@st.composite
def semigroups(draw, max_states=4, max_gens=3, cap=200):
    n = draw(st.integers(1, max_states))
    gens = tuple(
        Transformation(tuple(draw(st.integers(0, n - 1)) for _ in range(n)))
        for _ in range(draw(st.integers(1, max_gens)))
    )
    try:
        return TransformationSemigroup.generate(n, gens, cap)
    except ResourceLimitError:
        assume(False)


small = semigroups(max_states=3, cap=30)


@settings(max_examples=60, deadline=None)
@given(semigroups())
def test_closure_matches_naive(ts):
    expect = naive.close([g.images for g in ts.generators])
    assert {t.images for t in ts.elements} == expect


@settings(max_examples=60, deadline=None)
@given(semigroups())
def test_image_set_matches_naive_scan(ts):
    m = ts.adjoin_identity()
    origin = naive.image_set_origin(m)
    assert list(image_set(m).origin.items()) == list(origin.items())


@settings(max_examples=40, deadline=None)
@given(small)
def test_green_preorders_match_naive(ts):
    m = ts.adjoin_identity()
    monoid = [t.images for t in m]
    for kind in ("R", "L", "J", "H"):
        p = green_preorder(m, kind)
        for a in m.elements:
            for b in m.elements:
                assert p.leq(a, b) == naive.green_leq(a.images, b.images, monoid, kind)


@settings(max_examples=60, deadline=None)
@given(semigroups())
def test_h_is_meet_and_d_is_j(ts):
    m = ts.adjoin_identity()
    hp = green_preorder(m, "H")
    lp, rp = green_preorder(m, "L"), green_preorder(m, "R")
    for i in range(len(hp)):
        assert hp.rows[i] == lp.rows[i] & rp.rows[i]
    d_classes(m)  # raises ConsistencyError if the L-R join differs from J


@settings(max_examples=60, deadline=None)
@given(semigroups())
def test_preorders_are_preorders(ts):
    m = ts.adjoin_identity()
    for kind in ("R", "L", "J", "H"):
        green_preorder(m, kind).check()
    subduction_preorder(m).check()
    inclusion_preorder(m).check()


@settings(max_examples=40, deadline=None)
@given(small)
def test_subduction_matches_naive(ts):
    m = ts.adjoin_identity()
    monoid = [t.images for t in m]
    subsets = image_set(m).subsets
    for P in subsets:
        for Q in subsets:
            got = subduction_leq(P, Q, m) is not None
            assert got == naive.subduction(set(P.members), set(Q.members), monoid)


@settings(max_examples=60, deadline=None)
@given(semigroups())
def test_subduction_facts(ts):
    m = ts.adjoin_identity()
    subsets = image_set(m).subsets
    sp = subduction_preorder(m)
    ip = inclusion_preorder(m)
    for i, P in enumerate(subsets):
        # inclusion is a subrelation, and subduction cannot grow the size
        assert ip.rows[i] & ~sp.rows[i] == 0
        for j, Q in enumerate(subsets):
            if sp.rows[i] >> j & 1:
                assert len(P) <= len(Q)
    for cls in skeleton_poset(m).classes:
        assert len({len(P) for P in cls}) == 1


@settings(max_examples=60, deadline=None)
@given(semigroups())
def test_im_and_diagram(ts):
    m = ts.adjoin_identity()
    report = verify_diagram(m)
    assert all(report.arrows["im"].values()) and report.witnesses == {}
    assert report.passed
    assert report.to_dict() == naive.diagram(m)


@settings(max_examples=30, deadline=None)
@given(semigroups(max_states=3, cap=24))
def test_regular_representation(ts):
    rr = right_regular(ts)
    assert len(rr.rep.elements) == len(ts.elements)
    assert corollary_check(ts).passed


@settings(max_examples=30, deadline=None)
@given(small, st.data())
def test_quotient_functoriality(ts, data):
    parts = admissible_partitions(ts)
    partition = data.draw(st.sampled_from(parts))
    target, q = quotient_ts(ts, partition)
    assert validate(q) == (True, None)
    assert functoriality_check(q).passed
    assert len(target) <= len(ts)
