import inspect
import random
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from greenskel import (
    MalformedPreorderError,
    NotAMorphismError,
    Preorder,
    green_preorder,
    lattice_violation,
    poset_isomorphic,
    subduction_preorder,
)
from greenskel.catalog import chain_collapse, full_tmonoid
from greenskel.core import _WIDE
from greenskel.maps import im_index
from greenskel.order import (
    ClassPoset,
    closure_classes,
    fibres,
    induce_indexed,
    is_order_isomorphism,
    order_violation,
    set_bits,
    strongly_connected,
    transpose,
    union_over,
)

import naive


def preorder_from_pairs(items, pairs):
    closed = set(pairs) | {(a, a) for a in items}
    changed = True
    while changed:
        changed = False
        for a, b in list(closed):
            for b2, c in list(closed):
                if b == b2 and (a, c) not in closed:
                    closed.add((a, c))
                    changed = True
    return naive.preorder(items, naive.leq_rows(items, lambda a, b: (a, b) in closed))


def relations(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=12
        ).map(lambda pairs: (n, pairs))
    )


def closed_rows(n, pairs):
    rows = [0] * n
    for a, b in pairs:
        rows[a] |= 1 << b
    return naive.transitive_closure_rows(rows)


@st.composite
def digraphs(draw, max_n=14):
    """Bit-mask rows of a random digraph; cycles and self-loops allowed."""
    n = draw(st.integers(0, max_n))
    rows = [0] * n
    if n:
        for a, b in draw(
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3 * n)
        ):
            rows[a] |= 1 << b
    return rows


def pair_set(rows):
    return {(i, j) for i, row in enumerate(rows) for j in range(len(rows)) if row >> j & 1}


def successors(rows):
    return [[j for j in range(len(rows)) if row >> j & 1] for row in rows]


def converse(rows):
    """The edges j -> i for every bit j of row i: each edge points down from j to i <= j."""
    return [[i for i, row in enumerate(rows) if row >> j & 1] for j in range(len(rows))]


def closure(rows):
    """The library's reflexive-transitive closure of bit rows, as a Preorder."""
    return Preorder(range(len(rows)), *closure_classes(converse(rows)))


SPOILS = ("exact", "flipped bit", "extra class", "renumbered class", "empty class")


def spoil(class_of, class_rows, kind, a, b):
    """A copy of a class list and its rows, exact or with one planted change.

    The change may leave a valid class list, such as an item split off
    below its class; every class index stays below the number of rows.
    """
    class_of, rows = list(class_of), list(class_rows)
    count = len(rows)
    if kind == "flipped bit" and count:
        rows[a % count] ^= 1 << b % count
    elif kind == "extra class" and class_of:
        # item i moves into a new last class, below its old one
        i = a % len(class_of)
        rows.append(rows[class_of[i]] | 1 << count)
        class_of[i] = count
    elif kind == "renumbered class" and count:
        swap = {a % count: b % count, b % count: a % count}
        perm = [swap.get(c, c) for c in range(count)]
        class_of = [perm[c] for c in class_of]
        moved = [0] * count
        for c, row in enumerate(rows):
            moved[perm[c]] = sum(1 << perm[d] for d in range(count) if row >> d & 1)
        rows = moved
    elif kind == "empty class":
        k = a % (count + 1)
        class_of = [c + (c >= k) for c in class_of]
        rows = [sum(1 << d + (d >= k) for d in range(count) if row >> d & 1) for row in rows]
        rows.insert(k, 1 << k)
    return class_of, rows


@st.composite
def preorder_maps(draw):
    """(source rows, target rows, map) for a random or constant map between preorders."""
    src_n, src_pairs = draw(relations())
    dst_n, dst_pairs = draw(relations())
    if draw(st.booleans()):
        f = [draw(st.integers(0, dst_n - 1))] * src_n
    else:
        f = draw(st.lists(st.integers(0, dst_n - 1), min_size=src_n, max_size=src_n))
    return closed_rows(src_n, src_pairs), closed_rows(dst_n, dst_pairs), f


@st.composite
def relabelings(draw):
    """(rows, target rows, map): a relabeling of a preorder, as is or spoiled."""
    n, pairs = draw(relations())
    rows = closed_rows(n, pairs)
    perm = draw(st.permutations(range(n)))
    moved = [0] * n
    for i, j in pair_set(rows):
        moved[perm[i]] |= 1 << perm[j]
    spoil = draw(st.sampled_from(("none", "extra pair", "random map")))
    f = list(perm)
    if spoil == "extra pair":
        a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        moved[a] |= 1 << b
        moved = naive.transitive_closure_rows(moved)
    elif spoil == "random map":
        f = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return rows, moved, f


@st.composite
def quotient_inputs(draw, max_n=8):
    """Bit-mask rows: closed, closed with one bit flipped or cleared, not reflexive, or arbitrary."""
    kind = draw(st.sampled_from(("closed", "flipped", "cleared", "not reflexive", "arbitrary")))
    rows = naive.transitive_closure_rows(draw(digraphs(max_n=max_n)))
    n = len(rows)
    if kind == "arbitrary":
        return draw(st.lists(st.integers(0, (1 << n) - 1), min_size=n, max_size=n))
    if n and kind == "flipped":
        rows[draw(st.integers(0, n - 1))] ^= 1 << draw(st.integers(0, n - 1))
    if n and kind == "cleared":
        i = draw(st.integers(0, n - 1))
        rows[i] &= ~(1 << draw(st.sampled_from([j for j in range(n) if rows[i] >> j & 1])))
    if n and kind == "not reflexive":
        i = draw(st.integers(0, n - 1))
        rows[i] &= ~(1 << i)
    return rows


@st.composite
def posets(draw, n=None):
    """A random partial order on range(n), n from 1 to 6 unless given."""
    if n is None:
        n = draw(st.integers(1, 6))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10))
    upward = [(min(a, b), max(a, b)) for a, b in pairs]
    return ClassPoset(naive.preorder(range(n), closed_rows(n, upward)))


def relabeled_poset(poset, perm):
    rows = [0] * len(poset)
    for i, j in pair_set(poset.rows):
        rows[perm[i]] |= 1 << perm[j]
    return ClassPoset(naive.preorder(range(len(poset)), rows))


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


def strict_digraph(nx, poset):
    g = nx.DiGraph()
    g.add_nodes_from(range(len(poset)))
    g.add_edges_from(
        (i, j) for i in range(len(poset)) for j in range(len(poset)) if i != j and poset.rows[i] >> j & 1
    )
    return g


class TestPreorder:
    def test_duplicate_items_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            Preorder("aa", [0, 1], [0b01, 0b10])

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="size"):
            Preorder("a", [0, 0], [0b1])

    def test_check_rejects_empty_class(self):
        with pytest.raises(MalformedPreorderError, match="class count 1 differs from class row count 2"):
            Preorder("ab", [0, 0], [0b01, 0b10])

    def test_check_rejects_class_without_row(self):
        with pytest.raises(MalformedPreorderError, match="class 5 of 'b' is not numbered by least member"):
            Preorder("ab", [0, 5], [0b1])

    def test_check_rejects_classes_not_numbered_by_least_member(self):
        with pytest.raises(MalformedPreorderError, match="class 1 of 'a' is not numbered by least member"):
            Preorder("ab", [1, 0], [0b11, 0b10])

    def test_check_rejects_bit_past_last_class(self):
        with pytest.raises(MalformedPreorderError, match="class of 'a' is below a class that does not exist"):
            Preorder("a", [0], [0b11])

    def test_factored_check_rejects_missing_reflexivity(self):
        with pytest.raises(MalformedPreorderError, match="not reflexive at 'b'"):
            Preorder("abc", [0, 1, 1], [0b01, 0b00])

    def test_factored_check_rejects_missing_transitivity(self):
        # classes a <= b <= c but not a <= c
        with pytest.raises(MalformedPreorderError, match="'a' reaches 'c' in two steps only"):
            Preorder("abcd", [0, 1, 2, 1], [0b011, 0b110, 0b100])

    def test_factored_check_rejects_mutually_related_classes(self):
        with pytest.raises(MalformedPreorderError, match="classes of 'a' and 'b' are mutually related"):
            Preorder("abc", [0, 1, 2], [0b111, 0b111, 0b100])

    def test_factored_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Preorder("ab", [0], [0b1])

    def test_factored_answers_through_item_rows(self):
        p = Preorder("abcd", [0, 1, 0, 2], [0b111, 0b110, 0b100])
        assert p.rows == [0b1111, 0b1010, 0b1111, 0b1000]
        assert p.rows == naive.class_item_rows(p.class_of, p.class_rows)
        assert naive.leq(p, "b", "d") and naive.leq(p, "a", "c") and naive.leq(p, "c", "a")
        assert not naive.leq(p, "b", "a")
        assert p.poset.classes == (("a", "c"), ("b",), ("d",))

    def test_leq_lookup(self):
        p = preorder_from_pairs("abc", [("a", "b"), ("b", "c")])
        assert naive.leq(p, "a", "c") and not naive.leq(p, "c", "a")

    @given(relations())
    @settings(max_examples=80)
    def test_closure_is_reflexive_transitive_and_minimal(self, case):
        n, pairs = case
        rows = [0] * n
        for a, b in pairs:
            rows[a] |= 1 << b
        closed = closure(rows).rows
        # contains the input
        for a, b in pairs:
            assert closed[a] >> b & 1
        # minimal: agrees with BFS reachability
        adjacency = [[b for b in range(n) if rows[a] >> b & 1] for a in range(n)]
        for a in range(n):
            assert {b for b in range(n) if closed[a] >> b & 1} == naive.reachable(
                adjacency, a
            )

    @given(digraphs())
    @settings(max_examples=200)
    @example([])
    @example([0b1])
    @example([0b010, 0b101, 0b100])
    @example([0b0010, 0b0100, 0b0001, 0b0000])
    def test_closure_matches_fixpoint_oracle(self, rows):
        assert closure(rows).rows == naive.transitive_closure_rows(rows)

    @given(digraphs(), st.tuples(st.sampled_from(SPOILS), st.integers(0, 99), st.integers(0, 99)))
    @settings(max_examples=400)
    @example([], ("exact", 0, 0))
    @example([], ("extra class", 0, 0))
    @example([0b1], ("exact", 0, 0))
    @example([0b010, 0b101, 0b100], ("exact", 0, 0))
    @example([0b0010, 0b0100, 0b0001, 0b0000], ("exact", 0, 0))
    @example([0b010, 0b101, 0b100], ("flipped bit", 1, 1))  # not reflexive
    @example([0b010, 0b100, 0b000], ("flipped bit", 0, 2))  # still a partial order
    @example([0b0010, 0b0000, 0b0001], ("extra class", 2, 0))  # a valid split
    @example([0b010, 0b100, 0b000], ("renumbered class", 0, 1))
    @example([0b010, 0b100, 0b000], ("empty class", 1, 0))
    def test_closure_classes_match_naive_quotient(self, rows, spoiling):
        n = len(rows)
        succ = successors(rows)
        ncomp, comp_of = strongly_connected(succ)
        assert sorted(set(comp_of)) == list(range(ncomp))
        # each component is numbered after every component it reaches
        assert all(comp_of[v] >= comp_of[w] for v in range(n) for w in succ[v])
        assert comp_of == naive.tarjan_sccs(rows)[1]
        # the closure takes the edges pointing down the order: j -> i for i <= j
        class_of, class_rows = closure_classes(converse(rows))
        closed = naive.transitive_closure_rows(rows)
        classes, want_rows, covers, want_class_of = naive.quotient(list(range(n)), closed)
        assert class_of == [want_class_of[i] for i in range(n)]
        assert class_rows == want_rows
        p = Preorder(range(n), class_of, class_rows)
        q = p.poset
        assert (q.classes, q.rows, q.covers, naive.class_of(q)) == (classes, want_rows, covers, want_class_of)
        assert "rows" not in vars(p)
        assert p.rows == closed
        # the constructor accepts a class list, exact or spoiled, exactly
        # when the oracle quotient of its item rows gives it back
        class_of, class_rows = spoil(class_of, class_rows, *spoiling)
        item_rows = naive.class_item_rows(class_of, class_rows)
        try:
            _, want_rows, _, want_class_of = naive.quotient(range(n), item_rows)
        except MalformedPreorderError:
            with pytest.raises(MalformedPreorderError):
                Preorder(range(n), class_of, class_rows)
            return
        if (class_of, class_rows) == ([want_class_of[i] for i in range(n)], want_rows):
            assert Preorder(range(n), class_of, class_rows).rows == item_rows
        else:
            with pytest.raises(MalformedPreorderError):
                Preorder(range(n), class_of, class_rows)


class TestConstructorCovers:
    @given(digraphs())
    @settings(max_examples=200)
    @example([])
    @example([0b010, 0b101, 0b100])
    @example([0b0110, 0b1000, 0b1000, 0])
    def test_covers_match_transitive_reduction_oracle(self, rows):
        p = closure(rows)
        assert p.covers == naive.transitive_reduction(p.class_rows)
        assert p.poset.covers is p.covers

    @given(digraphs(), st.integers(0, 9999))
    @settings(max_examples=300, deadline=None)
    @example([], 0)
    @example([0b0010, 0b0100, 0b1000, 0b0000], 1)
    def test_planted_non_transitive_row_keeps_its_message(self, rows, pick):
        # clear a strict bit of a class row that is not a cover: the class
        # reaches it through a class between, so transitivity fails there
        # first, with the message the item-level oracle gives.  A chain of
        # three new items on top guarantees such a bit.
        n = len(rows)
        p = closure(rows + [1 << n + 1, 1 << n + 2, 0])
        class_of, class_rows = list(p.class_of), list(p.class_rows)
        covers = set(p.covers)
        planted = [
            (c, d)
            for c, row in enumerate(class_rows)
            for d in range(len(class_rows))
            if d != c and row >> d & 1 and (c, d) not in covers
        ]
        c, d = planted[pick % len(planted)]
        class_rows[c] &= ~(1 << d)
        items = [f"i{k}" for k in range(len(class_of))]
        with pytest.raises(MalformedPreorderError) as want:
            naive.quotient(items, naive.class_item_rows(class_of, class_rows))
        with pytest.raises(MalformedPreorderError) as got:
            Preorder(items, class_of, class_rows)
        assert "not transitive" in str(got.value)
        assert str(got.value) == str(want.value)


class TestQuotient:
    def test_two_element_cycle_collapses(self):
        p = preorder_from_pairs("abcd", [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")])
        q = ClassPoset(p)
        assert q.classes == (("a", "b"), ("c",), ("d",))
        at = naive.class_of(q)
        assert q.rows[at["a"]] >> at["d"] & 1 and not q.rows[at["d"]] >> at["a"] & 1
        assert at["b"] == 0

    def test_malformed_input_rejected(self):
        with pytest.raises(MalformedPreorderError):
            Preorder("abc", [0, 1, 2], [0b011, 0b110, 0b100])

    def test_hasse_of_chain(self):
        p = preorder_from_pairs("abc", [("a", "b"), ("b", "c")])
        q = ClassPoset(p)
        assert q.covers == ((0, 1), (1, 2))

    def test_hasse_drops_transitive_edge(self):
        p = preorder_from_pairs("abc", [("a", "b"), ("b", "c"), ("a", "c")])
        q = ClassPoset(p)
        assert q.covers == ((0, 1), (1, 2))

    def test_levels_and_extremes(self):
        # diamond: bottom a, middle b c, top d
        p = preorder_from_pairs("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        q = ClassPoset(p)
        assert q.levels() == [0, 1, 1, 2]
        assert q.maximal() == (3,)
        assert [i for i in range(4) if not any(q.rows[j] >> i & 1 for j in range(4) if j != i)] == [0]
        assert q.covers == ((0, 1), (0, 2), (1, 3), (2, 3))

    @given(digraphs(max_n=14))
    @settings(max_examples=300)
    @example([0b10, 0b01])
    @example([0b0110, 0b1000, 0b1000, 0])
    def test_levels_match_naive(self, rows):
        q = ClassPoset(closure(rows))
        assert q.levels() == naive.levels(q)

    @given(quotient_inputs())
    @settings(max_examples=400)
    @example([0b101, 0b110, 0b110])
    @example([0b011, 0b011, 0b110])
    @example([0b0111, 0b0111, 0b1100, 0b1000])
    def test_matches_check_and_tarjan_oracle(self, rows):
        # the equal-rows grouping stands in for the Tarjan oracle on large
        # carriers; the library's quotient takes its classes
        items = list(range(len(rows)))
        try:
            want = naive.quotient(items, rows)
        except MalformedPreorderError as err:
            with pytest.raises(MalformedPreorderError) as got:
                naive.equal_row_classes(items, rows)
            assert str(got.value) == str(err)
            return
        q = ClassPoset(Preorder(items, *naive.equal_row_classes(items, rows)))
        assert (q.classes, q.rows, q.covers, naive.class_of(q)) == want

    def test_poset_is_kept_and_equals_quotient(self):
        p = preorder_from_pairs("abcd", [("a", "b"), ("b", "a"), ("b", "c"), ("c", "d")])
        assert p.poset is p.poset
        q = ClassPoset(p)
        assert q is not p.poset
        # the quotient shares the objects its preorder's constructor checked
        assert (q.items, q.rows, q.covers, q.item_class) == (p.items, p.class_rows, p.covers, p.class_of)
        assert q.rows is p.class_rows and q.covers is p.covers and q.item_class is p.class_of
        assert (q.items, q.classes, q.rows, q.covers, q.item_class) == (
            p.poset.items,
            p.poset.classes,
            p.poset.rows,
            p.poset.covers,
            p.poset.item_class,
        )

    def test_row_with_later_class_member_only(self):
        # 1 and 2 share a row; row 0 holds 2 but not 1
        with pytest.raises(MalformedPreorderError) as err:
            naive.equal_row_classes([0, 1, 2], [0b101, 0b110, 0b110])
        assert str(err.value) == "relation not transitive: 0 reaches 1 in two steps only"

    @given(relations())
    @settings(max_examples=80)
    def test_quotient_is_partial_order(self, case):
        n, pairs = case
        rows = [0] * n
        for a, b in pairs:
            rows[a] |= 1 << b
        q = ClassPoset(closure(rows))
        # antisymmetry of the class order
        for i in range(len(q)):
            for j in range(len(q)):
                if i != j:
                    assert not (q.rows[i] >> j & 1 and q.rows[j] >> i & 1)
        # classes partition the carrier
        members = [a for cls in q.classes for a in cls]
        assert sorted(members) == list(range(n))
        # covers regenerate the strict order
        cover_adj = [[] for _ in range(len(q))]
        for lo, hi in q.covers:
            cover_adj[lo].append(hi)
        for i in range(len(q)):
            reach = naive.reachable(cover_adj, i)
            assert reach == {j for j in range(len(q)) if q.rows[i] >> j & 1}


class TestMorphism:
    def test_identity_map_is_morphism(self):
        p = preorder_from_pairs("abc", [("a", "b"), ("b", "c")])
        out = induce_indexed([0, 1, 2], p, p)
        assert out.class_map == (0, 1, 2)

    def test_first_violation_reported(self):
        src = preorder_from_pairs("ab", [("a", "b")])
        dst = preorder_from_pairs("xy", [("y", "x")])
        with pytest.raises(NotAMorphismError) as info:
            induce_indexed([0, 1], src, dst)
        assert info.value.witness == ("a", "b")

    def test_induce_collapses_chain(self):
        m = chain_collapse()
        out = induce_indexed(im_index(m), green_preorder(m, "J"), subduction_preorder(m))
        assert len(out.source) == 4 and len(out.target) == 3
        assert out.is_surjective()
        fibers = out.fibers()
        assert sorted(len(f) for f in fibers) == [1, 1, 2]
        # the two collapsed J-classes are exactly those with image {1,3}
        merged = next(f for f in fibers if len(f) == 2)
        for ci in merged:
            rep = out.source.classes[ci][0]
            assert rep.image().one_based == (1, 3)

    def test_induced_identity_is_order_isomorphism(self):
        p = preorder_from_pairs("abc", [("a", "b"), ("b", "c")])
        out = induce_indexed([0, 1, 2], p, p)
        assert is_order_isomorphism(out.source.rows, out.target.rows, out.class_map)


class TestInduceIndexed:
    @given(preorder_maps())
    @example(([0b11, 0b10], [0b01, 0b10], [0, 1]))  # not monotone
    @example(([0b11, 0b11], [0b01, 0b10], [0, 1]))  # one class split over two targets
    @example(([0b11, 0b10], [0b111, 0b110, 0b100], [0, 2]))  # monotone
    @settings(max_examples=200)
    def test_index_core_matches_dict_path_and_oracle(self, case):
        src_rows, dst_rows, f = case
        src = naive.preorder([f"a{i}" for i in range(len(src_rows))], src_rows)
        dst = naive.preorder([f"b{t}" for t in range(len(dst_rows))], dst_rows)
        fmap = {f"a{i}": f"b{t}" for i, t in enumerate(f)}
        kind, want = naive.induce_by_items(fmap, src, dst)
        if kind == "map":
            assert induce_indexed(f, src, dst).class_map == want
        else:
            with pytest.raises(NotAMorphismError) as info:
                induce_indexed(f, src, dst)
            assert info.value.witness == want

    @pytest.mark.parametrize("kind", ["L", "J"])
    def test_planted_non_morphism_on_green_preorders(self, kind):
        # shifting the element numbering of chain_collapse by one breaks
        # both preorders; the index path names the oracle's first pair
        m = chain_collapse()
        p = green_preorder(m, kind)
        n = len(p)
        f = [(i + 1) % n for i in range(n)]
        fmap = {a: p.items[t] for a, t in zip(p.items, f)}
        kind_, want = naive.induce_by_items(fmap, p, p)
        assert kind_ == "witness"
        with pytest.raises(NotAMorphismError) as info:
            induce_indexed(f, p, p)
        assert info.value.witness == want


    def test_planted_shift_on_full_t5_derives_no_item_rows(self):
        # the witness search reads one item row at a time from the class
        # rows; neither preorder keeps the N^2 bits of its item rows
        m = full_tmonoid(5).adjoin_identity()
        for kind in ("L", "J"):
            p = green_preorder(m, kind)
            n = len(p)
            f = [(i + 1) % n for i in range(n)]
            with pytest.raises(NotAMorphismError) as info:
                induce_indexed(f, p, p)
            a, b = info.value.witness
            i, j = p.items.index(a), p.items.index(b)
            assert naive.leq(p, a, b) and not naive.leq(p, p.items[f[i]], p.items[f[j]])
        for kind in ("L", "J"):
            assert "rows" not in vars(green_preorder(m, kind)), kind


class TestOrderViolation:
    @given(preorder_maps())
    @example(([0b1], [0b1], [0]))  # one item on each side
    @example(([0b11, 0b10], [0b01, 0b10], [0, 1]))  # not monotone
    @example(([0b11, 0b10], [0b111, 0b110, 0b100], [0, 2]))  # monotone, not surjective
    @example(([0b11, 0b10], [0b1], [0, 0]))  # constant onto a one-item target
    @example(([0b11, 0b11], [0b01, 0b10], [0, 1]))  # one class split over two targets
    @settings(max_examples=200)
    def test_first_witness_matches_pairwise_oracle(self, case):
        src_rows, dst_rows, f = case
        want = naive.first_order_violation(pair_set(src_rows), pair_set(dst_rows), f)
        assert order_violation(src_rows, dst_rows, f) == want
        src = naive.preorder([f"a{i}" for i in range(len(src_rows))], src_rows)
        dst = naive.preorder([f"b{t}" for t in range(len(dst_rows))], dst_rows)
        if want is None:
            out = induce_indexed(f, src, dst)
            assert all(out.class_map[src.class_of[i]] == dst.class_of[t] for i, t in enumerate(f))
        else:
            with pytest.raises(NotAMorphismError) as info:
                induce_indexed(f, src, dst)
            assert info.value.witness == (f"a{want[0]}", f"a{want[1]}")

    @given(relabelings())
    @example(([0b1], [0b1], [0]))  # one item on each side
    @example(([0b1], [0b11, 0b10], [0]))  # not onto the larger target
    @example(([0b11, 0b10], [0b11, 0b10], [0, 0]))  # constant, not injective
    @settings(max_examples=200)
    def test_isomorphism_matches_iff_definition(self, case):
        src_rows, dst_rows, f = case
        want = naive.is_order_isomorphism(pair_set(src_rows), pair_set(dst_rows), f, len(dst_rows))
        assert is_order_isomorphism(src_rows, dst_rows, f) == want


class TestWideRows:
    """The row walks on both sides of the width switch against their definitions."""

    @staticmethod
    def random_rows(rng, n):
        density = rng.choice([0.0, 0.05, 0.5, 1.0])
        return [sum(1 << j for j in range(n) if rng.random() < density) for _ in range(n)]

    @given(st.sampled_from([1, 5, _WIDE - 1, _WIDE, _WIDE + 1, 3 * _WIDE]), st.integers(0, 2**32))
    @settings(max_examples=40, deadline=None)
    def test_walks_match_definitions(self, n, seed):
        rng = random.Random(seed)
        rows = self.random_rows(rng, n)
        bits = [[j for j in range(n) if row >> j & 1] for row in rows]
        assert [set_bits(row) for row in rows] == bits
        assert transpose(rows) == [
            sum(1 << i for i in range(n) if rows[i] >> j & 1) for j in range(n)
        ]
        masks = self.random_rows(rng, n)
        for row, members in zip(rows, bits):
            want = 0
            for k in members:
                want |= masks[k]
            assert union_over(row, masks) == want
        f = [rng.randrange(n) for _ in range(n)]
        dst = self.random_rows(rng, n)
        want = next(
            ((i, j) for i in range(n) for j in bits[i] if not dst[f[i]] >> f[j] & 1), None
        )
        assert order_violation(rows, dst, f) == want

    @given(
        st.sampled_from([0, 1, 5, _WIDE - 1, _WIDE, _WIDE + 1, 3 * _WIDE]),
        st.integers(1, 9),
        st.integers(0, 2**32),
    )
    @settings(max_examples=40, deadline=None)
    def test_fibres_match_bit_by_bit_build(self, n, count, seed):
        rng = random.Random(seed)
        labels = [rng.randrange(count) for _ in range(n)]
        want = [0] * count
        for i, c in enumerate(labels):
            want[c] |= 1 << i
        assert fibres(labels, count) == want

    def test_fibres_of_many_items(self):
        # the binary digits of each fibre, written out and read once
        rng = random.Random(3)
        labels = [rng.randrange(7) for _ in range(200_000)]
        labels[-1] = 6
        digits = [["0"] * len(labels) for _ in range(8)]
        for i, c in enumerate(labels):
            digits[c][~i] = "1"
        got = fibres(labels, 8)
        assert got == [int("".join(d), 2) for d in digits] and got[7] == 0


class TestIsomorphism:
    def chain(self, labels):
        return ClassPoset(
            preorder_from_pairs(labels, list(zip(labels, labels[1:])))
        )

    def test_chains_isomorphic(self):
        iso = poset_isomorphic(self.chain("abc"), self.chain("xyz"))
        assert iso == {0: 0, 1: 1, 2: 2}

    def test_deep_chain_needs_no_recursion(self):
        # one class per level: a recursive search would need a frame per class
        n = 400
        chain = ClassPoset(Preorder(range(n), list(range(n)), [-1 << i & (1 << n) - 1 for i in range(n)]))
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 100)
        try:
            iso = poset_isomorphic(chain, chain)
        finally:
            sys.setrecursionlimit(limit)
        assert iso == {i: i for i in range(n)}

    def test_chain_vs_antichain(self):
        anti = ClassPoset(preorder_from_pairs("abc", []))
        assert poset_isomorphic(self.chain("abc"), anti) is None

    def test_size_mismatch(self):
        assert poset_isomorphic(self.chain("ab"), self.chain("abc")) is None

    def test_diamond_vs_chain_same_size(self):
        diamond = ClassPoset(
            preorder_from_pairs("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        )
        assert poset_isomorphic(diamond, self.chain("wxyz")) is None
        assert poset_isomorphic(diamond, diamond) is not None

    def test_class_sizes_ignored(self):
        # same 2-chain shape, very different class sizes
        fat = ClassPoset(
            preorder_from_pairs(
                "abcx", [("a", "b"), ("b", "a"), ("a", "c"), ("b", "c"), ("x", "a"), ("a", "x")]
            )
        )
        thin = self.chain("pq")
        assert len(fat) == 2 and len(fat.classes[0]) == 3
        iso = poset_isomorphic(fat, thin)
        assert iso == {0: 0, 1: 1}

    @given(p=posets(), data=st.data())
    @settings(max_examples=300)
    def test_search_matches_pairwise_oracle(self, p, data):
        n = len(p)
        other = p if data.draw(st.booleans()) else data.draw(posets(n))
        q = relabeled_poset(other, data.draw(st.permutations(range(n))))
        assert poset_isomorphic(p, q) == naive.poset_isomorphic(p, q)

    def test_backtracking_matches_pairwise_oracle(self):
        # equal signatures all round: the first choice for one class leaves
        # a later class without a candidate, so the search backs up once
        p = ClassPoset(naive.preorder(range(6), [59, 34, 52, 24, 16, 32]))
        q = ClassPoset(naive.preorder(range(6), [11, 2, 12, 8, 62, 34]))
        iso = poset_isomorphic(p, q)
        assert iso == naive.poset_isomorphic(p, q) is not None
        assert is_order_isomorphism(p.rows, q.rows, [iso[i] for i in range(6)])

    @given(relations(max_n=5), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_relabeling_always_isomorphic(self, case, rng):
        n, pairs = case
        rows = [0] * n
        for a, b in pairs:
            rows[a] |= 1 << b
        closed = naive.transitive_closure_rows(rows)
        p = ClassPoset(naive.preorder(range(n), closed))
        perm = list(range(n))
        rng.shuffle(perm)
        rows2 = [0] * n
        for i in range(n):
            for j in range(n):
                if closed[i] >> j & 1:
                    rows2[perm[i]] |= 1 << perm[j]
        relabeled = ClassPoset(naive.preorder(range(n), rows2))
        iso = poset_isomorphic(p, relabeled)
        assert iso is not None
        for i in range(len(p)):
            for j in range(len(p)):
                assert p.rows[i] >> j & 1 == relabeled.rows[iso[i]] >> iso[j] & 1


class TestAgainstNetworkx:
    @given(p=posets())
    @settings(max_examples=150)
    def test_covers_are_the_transitive_reduction(self, nx, p):
        want = nx.transitive_reduction(strict_digraph(nx, p))
        assert p.covers == naive.transitive_reduction(p.rows) == tuple(sorted(want.edges))

    @given(p=posets(), data=st.data())
    @settings(max_examples=150)
    def test_isomorphism_matches_networkx(self, nx, p, data):
        n = len(p)
        other = p if data.draw(st.booleans()) else data.draw(posets(n))
        q = relabeled_poset(other, data.draw(st.permutations(range(n))))
        iso = poset_isomorphic(p, q)
        assert (iso is not None) == nx.is_isomorphic(strict_digraph(nx, p), strict_digraph(nx, q))
        if iso is not None:
            assert is_order_isomorphism(p.rows, q.rows, [iso[i] for i in range(n)])


class TestLattice:
    def test_diamond_is_lattice(self):
        diamond = ClassPoset(
            preorder_from_pairs("abcd", [("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
        )
        assert lattice_violation(diamond) is None

    def test_double_diamond_is_not(self):
        # two incomparable joins for the bottom pair
        p = preorder_from_pairs(
            "abcdef",
            [("a", "c"), ("b", "c"), ("a", "d"), ("b", "d"), ("c", "e"), ("d", "e"),
             ("c", "f"), ("d", "f")],
        )
        q = ClassPoset(p)
        violation = lattice_violation(q)
        assert violation is not None
        kind, i, j = violation
        assert kind in ("join", "meet")

    @given(relations(max_n=5))
    @settings(max_examples=60)
    def test_matches_naive_lattice_test(self, case):
        n, pairs = case
        rows = [0] * n
        for a, b in pairs:
            rows[a] |= 1 << b
        q = ClassPoset(naive.preorder(range(n), naive.transitive_closure_rows(rows)))
        assert (lattice_violation(q) is None) == naive.is_lattice(lambda i, j: q.rows[i] >> j & 1 == 1, len(q))
