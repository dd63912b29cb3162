from pathlib import Path

from greenskel import (
    green_poset,
    green_preorder,
    im_bar,
    im_bar_S,
    image_set,
    skeleton_poset,
    subduction_preorder,
    verify_diagram,
)
from greenskel.catalog import (
    chain_collapse,
    hidden_relation,
    hidden_relation_pair,
    nonlattice,
    trivial,
)
from greenskel.cli import build_semigroup, parse

import naive

INPUTS = Path(__file__).resolve().parent.parent / "inputs"


class TestImRespectsOrders:
    def test_all_fixtures(self, fixtures):
        for ts in fixtures.values():
            report = verify_diagram(ts)
            assert all(report.arrows["im"].values())

    def test_equal_images_on_comparable_pair(self):
        m = chain_collapse()
        elements = {t.one_based: t for t in m}
        t1, t2 = elements[(1, 3, 3)], elements[(3, 1, 3)]
        jp = green_preorder(m, "J")
        assert naive.leq(jp, t2, t1)
        assert t1.image() == t2.image()
        sp = subduction_preorder(m)
        assert naive.leq(sp, t2.image(), t1.image()) and naive.leq(sp, t1.image(), t2.image())

    def test_vacuous_for_incomparable_pair(self):
        m = hidden_relation()
        a, b = hidden_relation_pair()
        jp = green_preorder(m, "J")
        assert not naive.leq(jp, a, b) and not naive.leq(jp, b, a)
        assert all(verify_diagram(m).arrows["im"].values())


class TestInducedMaps:
    def test_chain_collapse_im_bar(self):
        m = chain_collapse()
        out = im_bar(m)
        assert len(out.source) == 4 and len(out.target) == 3
        assert out.is_surjective()
        # the L-classes of both rank-2 elements land on {1,3}
        elements = {t.one_based: t for t in m}
        t1, t2 = elements[(1, 3, 3)], elements[(3, 1, 3)]
        l_of = naive.class_of(out.source)
        assert l_of[t1] != l_of[t2]
        c1 = out.class_map[l_of[t1]]
        c2 = out.class_map[l_of[t2]]
        assert c1 == c2
        assert out.target.classes[c1][0].one_based == (1, 3)
        # distinct left ideals despite the equal image
        monoid = [t.images for t in m]
        assert naive.left_ideal(t1.images, monoid) != naive.left_ideal(t2.images, monoid)

    def test_chain_collapse_im_bar_s_fibers(self):
        m = chain_collapse()
        out = im_bar_S(m)
        fibers = out.fibers()
        assert sorted(len(f) for f in fibers) == [1, 1, 2]
        merged = next(f for f in fibers if len(f) == 2)
        reps = {out.source.classes[ci][0].one_based for ci in merged}
        assert reps == {(1, 3, 3), (3, 1, 3)}

    def test_trivial_monoid(self):
        m = trivial(1)
        assert len(im_bar(m).source) == 1 and len(im_bar(m).target) == 1
        assert len(im_bar_S(m).source) == 1 and len(im_bar_S(m).target) == 1

    def test_nonlattice_sizes(self):
        m = nonlattice()
        ibs = im_bar_S(m)
        assert len(ibs.source) == 13 and len(ibs.target) == 9
        assert sum(len(f) for f in ibs.fibers()) == 13
        ib = im_bar(m)
        assert len(ib.target) == 16 and ib.is_surjective()

    def test_fibers_partition_j_classes(self, fixtures):
        for ts in fixtures.values():
            out = im_bar_S(ts)
            fibers = out.fibers()
            assert sorted(ci for fiber in fibers for ci in fiber) == list(
                range(len(out.source))
            )
            assert len(fibers) == len(out.target)


class TestDiagram:
    def test_all_fixtures_pass(self, fixtures):
        for name, ts in fixtures.items():
            report = verify_diagram(ts)
            assert report.passed, name
            assert report.to_dict() == naive.diagram(ts), name

    def test_sizes_consistent(self):
        m = nonlattice()
        report = verify_diagram(m)
        assert report.sizes == {
            "S1": 31,
            "S1/L": len(green_poset(m, "L")),
            "S1/J": 13,
            "I(X)": 16,
            "skeleton": 9,
        }

    def test_paths_agree_elementwise(self, fixtures):
        for ts in fixtures.values():
            m = ts.adjoin_identity()
            jq = green_poset(m, "J")
            sq = skeleton_poset(m)
            ibs = im_bar_S(m)
            j_of, s_of = naive.class_of(jq), naive.class_of(sq)
            for t in m.elements:
                assert ibs.class_map[j_of[t]] == s_of[t.image()]

    def test_inputs_match_oracle(self):
        paths = sorted(INPUTS.glob("*.tsg"))
        assert paths
        for path in paths:
            ts = build_semigroup(parse(path.read_text(encoding="utf-8")), 1_000_000)
            assert verify_diagram(ts).to_dict() == naive.diagram(ts), path.name

    def test_report_serialization(self):
        report = verify_diagram(chain_collapse())
        data = report.to_dict()
        assert data["passed"] is True
        assert set(data) == {"sizes", "arrows", "commutes", "preimage_unions", "passed"}
        text = report.to_text()
        assert "diagram: PASS" in text
        assert "NO" not in text

    def test_failure_is_visible_in_text(self):
        report = verify_diagram(trivial(1))
        report.commutes["paths S1->skeleton"] = False
        assert not report.passed
        assert "FAIL" in report.to_text()


class TestHiddenRelationRegression:
    def test_skeleton_has_relation_beyond_collapsed_j_order(self):
        m = hidden_relation()
        a, b = hidden_relation_pair()
        jq = green_poset(m, "J")
        sq = skeleton_poset(m)
        ca, cb = naive.class_of(jq)[a], naive.class_of(jq)[b]
        assert not jq.rows[ca] >> cb & 1 and not jq.rows[cb] >> ca & 1
        sa, sb = naive.class_of(sq)[a.image()], naive.class_of(sq)[b.image()]
        assert sa != sb and sq.rows[sa] >> sb & 1 and not sq.rows[sb] >> sa & 1
        # and the fibers of those image classes contain the classes of a, b
        ibs = im_bar_S(m)
        assert ibs.class_map[ca] == sa and ibs.class_map[cb] == sb

    def test_no_product_witnesses_comparability(self):
        m = hidden_relation()
        a, b = hidden_relation_pair()
        els = list(m.elements)
        assert not any(s * a * t == b for s in els for t in els)
        assert not any(s * b * t == a for s in els for t in els)

    def test_image_count(self):
        assert len(image_set(hidden_relation())) == 5
        assert len(green_poset(hidden_relation(), "J")) == 6
        assert len(skeleton_poset(hidden_relation())) == 5
