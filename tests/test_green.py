from pathlib import Path

import pytest

from greenskel import (
    ConsistencyError,
    NotAMorphismError,
    Preorder,
    Transformation,
    d_classes,
    eggboxes,
    green_poset,
    green_preorder,
)
from greenskel.cli import parse
from greenskel.core import NotClosedError, TransformationSemigroup
from greenskel.green import _cayley_graphs
from greenskel.order import induce_indexed
from greenskel.catalog import (
    chain_collapse,
    collapse_motif,
    full_tmonoid,
    nonlattice,
    right_zero,
    trivial,
)

import naive
from conftest import assert_green_matches_dense_path, assert_preorder_laws, sample_semigroups

INPUTS = Path(__file__).resolve().parent.parent / "inputs"


def named(monoid, one_based):
    return monoid.elements[
        [t.one_based for t in monoid.elements].index(tuple(one_based))
    ]


def down_set(p, t):
    """Members s with s <= t: the principal ideal of t in a Green preorder."""
    return {a for a in p.items if naive.leq(p, a, t)}


class TestIdeals:
    """Principal ideals, read off as down-sets of Green's preorders."""

    def test_chain_collapse_two_sided_ideals(self):
        m = chain_collapse()
        j = green_preorder(m, "J")
        t1, t2, t3 = (named(m, g) for g in ([1, 3, 3], [3, 1, 3], [3, 3, 3]))
        assert down_set(j, t1) == {t1, t2, t3}
        assert down_set(j, t2) == {t2, t3}
        assert down_set(j, t3) == {t3}
        assert down_set(j, m.identity()) == set(m.elements)

    def test_chain_collapse_left_ideal_chain(self):
        m = chain_collapse()
        l = green_preorder(m, "L")
        t1, t2, t3 = (named(m, g) for g in ([1, 3, 3], [3, 1, 3], [3, 3, 3]))
        chain = (t3, t2, t1, m.identity())
        for small, big in zip(chain, chain[1:]):
            assert naive.leq(l, small, big) and not naive.leq(l, big, small)
            assert down_set(l, small) < down_set(l, big)

    @pytest.mark.parametrize("factory", [chain_collapse, collapse_motif, right_zero, trivial])
    def test_ideals_match_naive_products(self, factory):
        m = factory().adjoin_identity()
        monoid = [t.images for t in m]
        for kind, oracle in (
            ("R", naive.right_ideal),
            ("L", naive.left_ideal),
            ("J", naive.two_sided_ideal),
        ):
            p = green_preorder(m, kind)
            for s in m.elements:
                got = {t.images for t in down_set(p, s)}
                assert got == oracle(s.images, monoid), kind


class TestPreorders:
    @pytest.mark.parametrize("kind", ["R", "L", "J", "H"])
    def test_laws_on_fixtures(self, kind, fixtures):
        for ts in fixtures.values():
            assert_preorder_laws(green_preorder(ts, kind))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            green_preorder(trivial(1), "Q")

    def test_h_is_meet_of_l_and_r(self, fixtures):
        for ts in fixtures.values():
            m = ts.adjoin_identity()
            h = green_preorder(m, "H").rows
            l = green_preorder(m, "L").rows
            r = green_preorder(m, "R").rows
            assert h == [a & b for a, b in zip(l, r)]

    def test_l_and_r_imply_j(self, fixtures):
        for ts in fixtures.values():
            m = ts.adjoin_identity()
            j = green_preorder(m, "J").rows
            for kind in ("L", "R"):
                rows = green_preorder(m, kind).rows
                for fine, coarse in zip(rows, j):
                    assert fine & ~coarse == 0

    @pytest.mark.parametrize("kind", ["R", "L", "J", "H"])
    @pytest.mark.parametrize(
        "factory", [chain_collapse, collapse_motif, right_zero, trivial, full_tmonoid]
    )
    def test_classes_match_naive_oracle(self, kind, factory):
        m = factory().adjoin_identity()
        monoid = [t.images for t in m]
        expected = naive.classes_by_mutual(
            monoid, lambda a, b: naive.green_leq(a, b, monoid, kind)
        )
        got = [tuple(t.images for t in cls) for cls in green_poset(m, kind).classes]
        assert sorted(map(sorted, got)) == sorted(map(sorted, expected))

    def test_preorder_matches_naive_oracle(self):
        sources = []
        for factory in (chain_collapse, collapse_motif, right_zero, trivial):
            ts = factory()
            # declared generators that do not reach every element
            sources += [ts, TransformationSemigroup(ts.n, ts.generators[:1], ts.elements)]
        for ts in sources:
            m = ts.adjoin_identity()
            monoid = [t.images for t in m]
            for kind in ("R", "L", "J", "H"):
                p = green_preorder(m, kind)
                for a in m.elements:
                    for b in m.elements:
                        want = naive.green_leq(a.images, b.images, monoid, kind)
                        assert naive.leq(p, a, b) == want, (ts, kind, a, b)
        # a product leaves a non-closed element set, which is refused
        ts = collapse_motif()
        assert not naive.is_closed(ts.elements[:-1])
        with pytest.raises(NotClosedError):
            TransformationSemigroup(ts.n, ts.generators, ts.elements[:-1])


class TestDensePath:
    """The class-level Green path against the dense per-element one it replaced."""

    def test_fixtures(self, fixtures):
        for ts in fixtures.values():
            assert_green_matches_dense_path(ts)

    def test_example_inputs(self):
        paths = sorted(INPUTS.glob("*.tsg"))
        assert paths
        for path in paths:
            doc = parse(path.read_text())
            gens = [Transformation.from_one_based(g) for g in doc.generators]
            assert_green_matches_dense_path(TransformationSemigroup.generate(doc.n, gens))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_full_transformation_monoids(self, n):
        assert_green_matches_dense_path(full_tmonoid(n))

    @pytest.mark.parametrize("kind", ["R", "L", "J", "H"])
    @pytest.mark.parametrize("factory", [chain_collapse, collapse_motif, nonlattice, full_tmonoid])
    def test_planted_non_morphism_witness_is_first_pair(self, kind, factory):
        # shifting the element numbering by one breaks the preorder; the
        # witness is the first failing pair of a pairwise scan in item order
        m = factory().adjoin_identity()
        n = len(m.elements)
        f = [(i + 1) % n for i in range(n)]
        rows = naive.green_rows(m, kind)
        pairs = {(i, j) for i, row in enumerate(rows) for j in range(n) if row >> j & 1}
        i, j = naive.first_order_violation(pairs, pairs, f)
        p = green_preorder(m, kind)
        with pytest.raises(NotAMorphismError) as info:
            induce_indexed(f, p, p)
        assert info.value.witness == (m.elements[i], m.elements[j])


class TestClasses:
    def test_chain_collapse_j_chain(self):
        m = chain_collapse()
        jq = green_poset(m, "J")
        assert len(jq) == 4
        assert all(len(cls) == 1 for cls in jq.classes)
        order = [jq.classes[i][0].one_based for i in range(4)]
        assert order == [(1, 2, 3), (1, 3, 3), (3, 1, 3), (3, 3, 3)]
        # linear: t3 < t2 < t1 < 1
        assert jq.covers == ((1, 0), (2, 1), (3, 2))

    def test_collapse_motif_j_shape(self):
        m = collapse_motif()
        jq = green_poset(m, "J")
        assert len(jq) == 5
        at = naive.class_of(jq)
        one = at[m.identity()]
        a = at[named(m, [1, 1, 3])]
        b = at[named(m, [3, 2, 3])]
        r = at[named(m, [3, 1, 3])]
        z = at[named(m, [3, 3, 3])]
        assert not jq.rows[a] >> b & 1 and not jq.rows[b] >> a & 1
        for lower, upper in [(a, one), (b, one), (r, a), (r, b), (z, r)]:
            assert jq.rows[lower] >> upper & 1 and not jq.rows[upper] >> lower & 1

    def test_nonlattice_counts(self):
        m = nonlattice()
        assert len(green_poset(m, "J")) == 13
        assert len(d_classes(m)) == 13

    def test_d_equals_j_on_fixtures(self, fixtures):
        for ts in fixtures.values():
            m = ts.adjoin_identity()
            d = sorted(tuple(sorted(t.images for t in cls)) for cls in d_classes(m))
            j = sorted(
                tuple(sorted(t.images for t in cls))
                for cls in green_poset(m, "J").classes
            )
            assert d == j

    def test_d_classes_refuse_a_differing_j_partition(self):
        # plant the finer L-partition as J on a fresh copy: the join of L
        # and R no longer matches it
        m = full_tmonoid(3)
        m = TransformationSemigroup(m.n, m.generators, m.elements)
        m._memo[(green_preorder.__wrapped__, ("J",))] = green_preorder(m, "L")
        with pytest.raises(ConsistencyError, match="does not match the J partition"):
            d_classes(m)

    def test_d_classes_refuse_a_coarser_j_partition(self):
        # plant one J-class for all of T3: its three D-classes do not join into one
        m = full_tmonoid(3)
        m = TransformationSemigroup(m.n, m.generators, m.elements)
        m._memo[(green_preorder.__wrapped__, ("J",))] = Preorder(m.elements, [0] * len(m), [1])
        with pytest.raises(ConsistencyError, match="does not match the J partition"):
            d_classes(m)

    def test_full_t3_class_counts(self):
        m = full_tmonoid(3)
        assert len(green_poset(m, "J")) == 3
        assert len(green_poset(m, "L")) == 7
        assert len(green_poset(m, "R")) == 5
        assert len(green_poset(m, "H")) == 13


def swap_collapse_cycle(n):
    """Generators on n states: swap 0 and 1, send 1 to 0, and rotate the top three states.

    Each acts where it can (n = 1 keeps only the identity), so S stays at
    most a dozen elements while the keys hold the highest states.
    """
    if n == 1:
        return [Transformation((0,))]
    swap = list(range(n))
    swap[0], swap[1] = 1, 0
    collapse = [0] + list(range(1, n))
    collapse[1] = 0
    gens = [swap, collapse]
    if n >= 5:
        rotate = list(range(n))
        rotate[n - 3], rotate[n - 2], rotate[n - 1] = n - 2, n - 1, n - 3
        gens.append(rotate)
    return [Transformation(g) for g in gens]


class TestCayleyGraphs:
    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257])
    def test_key_edges_match_tuple_products(self, n):
        # byte keys up to 256 states, tuple keys above
        m = TransformationSemigroup.generate(n, swap_collapse_cycle(n)).adjoin_identity()
        assert isinstance(m.keys[0], bytes if n <= 256 else tuple)
        assert [tuple(u) for u in m.keys] == [t.images for t in m.elements]
        assert _cayley_graphs(m) == naive.cayley_graphs(m)

    def test_constructed_semigroups_match_tuple_products(self, fixtures):
        for ts in list(fixtures.values()) + sample_semigroups(seed=3, count=30):
            m = TransformationSemigroup(ts.n, ts.generators, ts.elements).adjoin_identity()
            assert _cayley_graphs(m) == naive.cayley_graphs(m), ts


class TestEggBoxes:
    def test_match_object_oracle(self, fixtures):
        corpus = list(fixtures.values()) + sample_semigroups(seed=5, count=30) + [full_tmonoid(4)]
        for ts in corpus:
            got = [(b.members, b.cells, b.idempotent, b.col_images) for b in eggboxes(ts)]
            assert got == naive.eggboxes(ts), ts

    def test_refuse_an_h_class_across_j_classes(self):
        # plant the one-class H preorder on T3: its single cell cannot fill
        # any one D-class
        m = full_tmonoid(3)
        m = TransformationSemigroup(m.n, m.generators, m.elements)
        m._memo[(green_preorder.__wrapped__, ("H",))] = Preorder(m.elements, [0] * len(m), [1])
        with pytest.raises(ConsistencyError):
            eggboxes(m)

    def test_cells_partition_each_d_class(self, fixtures):
        for ts in fixtures.values():
            m = ts.adjoin_identity()
            seen = []
            for box in eggboxes(m):
                cell_members = [t for row in box.cells for cell in row for t in cell]
                assert sorted(t.images for t in cell_members) == sorted(
                    t.images for t in box.members
                )
                seen.extend(box.members)
            assert sorted(t.images for t in seen) == sorted(t.images for t in m)

    def test_idempotent_flags(self, fixtures):
        for ts in fixtures.values():
            m = ts.adjoin_identity()
            for box in eggboxes(m):
                for row, flag_row in zip(box.cells, box.idempotent):
                    for cell, flags in zip(row, flag_row):
                        assert flags == tuple(t.is_idempotent() for t in cell)

    def test_column_images_consistent(self, fixtures):
        for ts in fixtures.values():
            m = ts.adjoin_identity()
            for box in eggboxes(m):
                for c, img in enumerate(box.col_images):
                    for row in box.cells:
                        for t in row[c]:
                            assert t.image() == img

    def test_right_zero_single_box(self):
        ts = right_zero(3)
        boxes = eggboxes(ts)
        # identity box (from S^1) plus the constants box
        shapes = sorted(box.shape for box in boxes)
        assert shapes == [(1, 1), (1, 3)]
        constants = next(box for box in boxes if box.shape == (1, 3))
        assert all(all(flags) for row in constants.idempotent for flags in row)

    def test_full_t3_box_shapes(self):
        m = full_tmonoid(3)
        shapes = {box.shape for box in eggboxes(m)}
        # ranks 3, 2, 1: units, 3 kernels x 3 images, 1 kernel x 3 images
        assert shapes == {(1, 1), (3, 3), (1, 3)}
