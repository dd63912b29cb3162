import itertools
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from greenskel import (
    DomainMismatchError,
    NotClosedError,
    ResourceLimitError,
    StateSubset,
    Transformation,
    TransformationSemigroup,
    apply_mask,
    d_classes,
    extended_image_set,
    green_poset,
    green_preorder,
    im_bar,
    im_bar_S,
    im_map,
    image_set,
    inclusion_poset,
    inclusion_preorder,
    skeleton_poset,
    subduction_preorder,
)
from greenskel.catalog import chain_collapse, full_tmonoid, nonlattice, trivial
from greenskel.cli import parse

import naive
from conftest import assert_relations_match_oracle, generator_lists

INPUTS = Path(__file__).resolve().parent.parent / "inputs"


def transformations(max_n=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(*[st.integers(0, n - 1)] * n).map(Transformation)
    )


def same_n_pairs(max_n=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.tuples(
            st.tuples(*[st.integers(0, n - 1)] * n).map(Transformation),
            st.tuples(*[st.integers(0, n - 1)] * n).map(Transformation),
        )
    )


def assert_same_semigroup(fast, slow):
    """``fast`` has ``slow``'s elements, numbering, generators and identity flag."""
    assert fast.elements == slow.elements
    assert fast.generators == slow.generators
    assert fast.has_identity == slow.has_identity
    assert [fast.index(t) for t in slow.elements] == list(range(len(slow)))
    for t in fast.elements:
        assert t == Transformation(t.images)
        assert hash(t) == hash((t.images,))


def assert_lazy_matches(fast, slow, probes):
    """``fast`` answers as ``slow`` does; only ``elements`` and ``index`` build."""
    assert len(fast) == len(slow)
    assert fast.has_identity == slow.has_identity
    assert [t in fast for t in probes] == [t in slow for t in probes]
    assert fast.generating_images() == slow.generating_images()
    assert_same_semigroup(fast, slow)


def assert_matches_constructor(n, gens):
    """``generate`` and ``adjoin_identity`` against the validating constructor.

    S and S^1 are compared with S's elements read before S^1 is made, and
    with S^1 made first: ``len``, ``has_identity``, ``in``,
    ``generating_images()`` and ``adjoin_identity()`` must not build them.
    """
    elements = [Transformation(w) for w in naive.close([g.images for g in gens])]
    built = TransformationSemigroup(n, gens, elements)
    one = Transformation.identity(n)
    built1 = built
    if not built.has_identity:
        built1 = TransformationSemigroup(n, built.generators + (one,), built.elements + (one,))
    assert_same_semigroup(built.adjoin_identity(), built1)
    probes = [Transformation(t) for t in itertools.product(range(n), repeat=n)]
    for read_first in (True, False):
        ts = TransformationSemigroup.generate(n, gens, max_elements=300)
        if read_first:
            assert_same_semigroup(ts, built)
        m = ts.adjoin_identity()
        assert (m is ts) == ts.has_identity
        if not read_first:
            for x in (ts, m):
                assert "elements" not in vars(x) and "_index" not in vars(x)
        for fast, slow in ((m, built1), (ts, built)):
            assert_lazy_matches(fast, slow, probes)


def assert_stored_generating_set_is_searched(ts):
    for x in (ts, ts.adjoin_identity()):
        fresh = TransformationSemigroup(x.n, x.generators, x.elements)
        assert x.generating_images() == fresh.generating_images()


class TestTransformation:
    def test_entry_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Transformation((0, 3, 1))
        with pytest.raises(ValueError):
            Transformation((-1, 0))
        with pytest.raises(ValueError):
            Transformation(())
        with pytest.raises(ValueError):
            Transformation((0, 1.0))
        for seq in ([1, 4, 2], [0, 1], [2]):
            with pytest.raises(ValueError):
                Transformation.from_one_based(seq)

    @given(same_n_pairs())
    def test_product_equals_checked_map(self, pair):
        s, t = pair
        st_ = s * t
        assert st_ == Transformation(st_.images)
        assert hash(st_) == hash((st_.images,)) == hash(Transformation(st_.images))

    def test_one_based_round_trip(self):
        t = Transformation.from_one_based([1, 3, 3])
        assert t.images == (0, 2, 2)
        assert t.one_based == (1, 3, 3)
        assert repr(t) == "T[1 3 3]"

    def test_identity(self):
        e = Transformation.identity(4)
        assert e.is_identity() and e.is_idempotent()
        assert e.image() == StateSubset.full(4)

    def test_composition_is_first_then_second(self):
        s = Transformation.from_one_based([2, 1, 1])
        t = Transformation.from_one_based([3, 3, 2])
        # x^(st) = (x^s)^t
        assert (s * t).images == tuple(t.images[x] for x in s.images)

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatchError):
            Transformation((0,)) * Transformation((0, 1))

    @given(same_n_pairs())
    def test_action_pointwise(self, pair):
        s, t = pair
        st_ = s * t
        for x in range(s.n):
            assert st_(x) == t(s(x))

    @given(st.integers(1, 5).flatmap(lambda n: st.lists(
        st.tuples(*[st.integers(0, n - 1)] * n).map(Transformation),
        min_size=3, max_size=3)))
    def test_associativity(self, triple):
        a, b, c = triple
        assert (a * b) * c == a * (b * c)

    @given(transformations())
    def test_identity_laws(self, t):
        e = Transformation.identity(t.n)
        assert e * t == t and t * e == t

    @given(transformations())
    def test_idempotent_definition(self, t):
        assert t.is_idempotent() == (t * t == t)

    @given(transformations())
    @example(Transformation((0,)))
    @example(Transformation((2, 2, 0, 2)))
    def test_image_members(self, t):
        assert set(t.image().members) == set(t.images)


class TestStateSubset:
    def test_constructors_agree(self):
        assert StateSubset.of(4, [0, 2]) == StateSubset(4, 0b0101)
        assert StateSubset.from_one_based(4, [1, 3]) == StateSubset.of(4, [0, 2])
        assert StateSubset.singleton(3, 2).members == (2,)
        assert len(StateSubset.full(3)) == 3

    def test_mask_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            StateSubset(2, 0b100)
        with pytest.raises(ValueError):
            StateSubset(2, -1)

    def test_membership_and_repr(self):
        p = StateSubset.of(3, [0, 2])
        assert 0 in p and 1 not in p and 2 in p
        assert list(p) == [0, 2]
        assert repr(p) == "{1,3}"
        assert bool(StateSubset.of(3, [])) is True

    def test_issubset(self):
        small = StateSubset.of(3, [0])
        big = StateSubset.of(3, [0, 2])
        assert small.issubset(big) and not big.issubset(small)
        with pytest.raises(DomainMismatchError):
            small.issubset(StateSubset.full(4))

    @given(st.integers(1, 6).flatmap(lambda n: st.tuples(
        st.sets(st.integers(0, n - 1)),
        st.tuples(*[st.integers(0, n - 1)] * n).map(Transformation))))
    def test_apply_matches_set_comprehension(self, case):
        members, t = case
        p = StateSubset.of(t.n, members)
        assert set(p.apply(t).members) == {t(x) for x in members}

    def test_apply_mask_raw(self):
        assert apply_mask(0b101, (2, 0, 2)) == 0b100


class TestGenerate:
    def test_chain_collapse_closure(self):
        ts = TransformationSemigroup.generate(
            3,
            [Transformation.from_one_based([1, 3, 3]), Transformation.from_one_based([3, 1, 3])],
        )
        assert len(ts) == 3
        assert not ts.has_identity
        m = ts.adjoin_identity()
        assert len(m) == 4 and m.has_identity
        expected = {(1, 3, 3), (3, 1, 3), (3, 3, 3), (1, 2, 3)}
        assert {t.one_based for t in m} == expected

    @pytest.mark.parametrize("n", [1, 2, 255, 256, 257, 300])
    def test_key_kind_edges(self, n):
        # byte keys up to 256 states (n = 256 pads the table with nothing),
        # image tuples as keys above; the closures are known in closed form
        shift = tuple((x + 1) % n for x in range(n))
        cycle = {tuple((x + k) % n for x in range(n)) for k in range(n)}
        constants = {(x,) * n for x in range(n)}
        climb = tuple(min(x + 1, n - 1) for x in range(n))
        climbs = {tuple(min(x + k, n - 1) for x in range(n)) for k in range(1, max(n, 2))}
        for images, want, has_identity in (
            ([shift, (0,) * n], cycle | constants, True),
            ([climb], climbs, n == 1),
        ):
            gens = [Transformation(g) for g in images]
            ts = TransformationSemigroup.generate(n, gens)
            assert [t.images for t in ts.elements] == sorted(want)
            assert len(ts) == len(want) and ts.has_identity == has_identity
            assert Transformation((0,)) not in ts or n == 1
            if n >= 3:
                assert Transformation((1, 0) + tuple(range(2, n))) not in ts
            m = ts.adjoin_identity()
            assert [t.images for t in m.elements] == sorted(naive.with_identity(want, n))
            built = TransformationSemigroup(n, gens, ts.elements)
            assert built.elements == ts.elements
            assert built.generating_images() == ts.generating_images()
            assert naive.closure_scan(gens, ts.elements) == (ts.generating_images(), None)
            for dropped in sorted(want)[1:3]:
                chosen = [t for t in ts.elements if t.images != dropped]
                gens_scanned, pair = naive.closure_scan(gens, chosen)
                if pair is None:
                    built = TransformationSemigroup(n, gens, chosen)
                    assert built.generating_images() == gens_scanned
                    continue
                with pytest.raises(NotClosedError) as err:
                    TransformationSemigroup(n, gens, chosen)
                assert err.value.pair == pair

    def test_element_cap_boundary_across_chunks(self):
        # full T6 takes more than one chunk of products and more than one level
        gens = [
            Transformation(g)
            for g in ((1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5), (0, 0, 2, 3, 4, 5))
        ]
        assert len(TransformationSemigroup.generate(6, gens, max_elements=46656)) == 46656
        with pytest.raises(ResourceLimitError) as info:
            TransformationSemigroup.generate(6, gens, max_elements=46655)
        assert info.value.stage == "enumerate"
        assert str(info.value) == "element cap 46655 exceeded while closing generators"

    def test_nonlattice_closure_count(self):
        ts = nonlattice()
        assert len(ts) == 31
        gens = [g.images for g in ts.generators if not g.is_identity()]
        assert naive.with_identity(naive.close(gens), 5) == {t.images for t in ts}

    @given(generator_lists)
    @settings(max_examples=60, deadline=None)
    def test_closure_matches_naive_oracle(self, gens):
        n = gens[0].n
        ts = TransformationSemigroup.generate(n, gens, max_elements=300)
        want = naive.close([g.images for g in gens])
        assert [t.images for t in ts.elements] == sorted(want)
        m = ts.adjoin_identity()
        assert [t.images for t in m.elements] == sorted(naive.with_identity(want, n))
        assert naive.is_closed(ts)
        assert_stored_generating_set_is_searched(ts)

    @given(generator_lists)
    @settings(max_examples=60, deadline=None)
    def test_matches_constructor(self, gens):
        assert_matches_constructor(gens[0].n, gens)

    def test_matches_constructor_on_fixtures(self, fixtures):
        for ts in fixtures.values():
            assert_matches_constructor(ts.n, list(ts.generators))
        for gens in ([(0,)], [(0, 0)], [(1, 0)], [(0, 0), (1, 1)]):
            assert_matches_constructor(len(gens[0]), [Transformation(g) for g in gens])
        paths = sorted(INPUTS.glob("*.tsg"))
        assert paths
        for path in paths:
            doc = parse(path.read_text())
            gens = [Transformation.from_one_based(g) for g in doc.generators]
            assert_matches_constructor(doc.n, gens)

    def test_canonical_numbering_is_lex_sorted(self):
        ts = nonlattice()
        images = [t.images for t in ts.elements]
        assert images == sorted(images)
        for i, t in enumerate(ts.elements):
            assert ts.index(t) == i

    def test_generate_deterministic(self):
        a = nonlattice()
        b = nonlattice()
        assert a.elements == b.elements
        assert a.generators == b.generators

    def test_element_cap(self):
        assert len(full_tmonoid(4)) == 256
        with pytest.raises(ResourceLimitError) as info:
            TransformationSemigroup.generate(
                4, list(full_tmonoid(4).generators), max_elements=10
            )
        assert info.value.stage == "enumerate"

    @pytest.mark.parametrize("cap", [0, 1, 2])
    def test_element_cap_counts_generators(self, cap):
        constants = [Transformation((x, x, x)) for x in range(3)]
        with pytest.raises(ResourceLimitError) as info:
            TransformationSemigroup.generate(3, constants, max_elements=cap)
        assert info.value.stage == "enumerate"
        assert len(TransformationSemigroup.generate(3, constants, max_elements=3)) == 3

    def test_generator_domain_checked(self):
        with pytest.raises(DomainMismatchError):
            TransformationSemigroup.generate(3, [Transformation((0, 1))])
        with pytest.raises(ValueError):
            TransformationSemigroup.generate(3, [])


class TestSemigroup:
    def test_adjoin_identity_idempotent(self):
        ts = chain_collapse()
        assert ts.adjoin_identity() is ts
        base = TransformationSemigroup.generate(
            3, [Transformation.from_one_based([1, 3, 3]), Transformation.from_one_based([3, 1, 3])]
        )
        m = base.adjoin_identity()
        assert m is not base
        assert base.adjoin_identity() is m
        assert m.adjoin_identity() is m
        assert m.identity() in m

    def test_generating_images_declared_first_and_generating(self, fixtures):
        for ts in fixtures.values():
            outside = Transformation(tuple(range(ts.n))[::-1])
            for declared in (ts.generators, ts.generators[:1], (outside,) + ts.generators[:1]):
                src = TransformationSemigroup(ts.n, declared, ts.elements)
                gens = src.generating_images()
                inside = [g.images for g in src.generators if g in src]
                assert gens[: len(inside)] == inside
                assert len(set(gens)) == len(gens)
                assert naive.close(gens) == {t.images for t in src.elements}
                ranks = [len(set(g)) for g in gens[len(inside) :]]
                assert ranks == sorted(ranks, reverse=True)

    def test_generating_images_join_by_rank(self, fixtures):
        # [1 1 1] = [2 2 2]*[1 1 3]: [1 1 3] joins first, by its larger rank,
        # and the [2 2 2] reached before it is multiplied by it
        t, u, c = (Transformation.from_one_based(x) for x in ([2, 2, 2], [1, 1, 3], [1, 1, 1]))
        assert TransformationSemigroup(3, [t], [t, u, c]).generating_images() == [t.images, u.images]
        sizes = {
            name: len(TransformationSemigroup(ts.n, ts.generators[:1], ts.elements).generating_images())
            for name, ts in fixtures.items()
            if name in ("full_t3", "hidden_relation", "nonlattice")
        }
        assert sizes == {"full_t3": 3, "hidden_relation": 3, "nonlattice": 6}

    def test_stored_generating_set_is_the_search_result(self, fixtures):
        # generate and adjoin_identity store a generating set instead of
        # searching; it must be the list the search of a fresh instance gives
        for f in fixtures.values():
            generated = TransformationSemigroup.generate(f.n, f.generators)
            assert_stored_generating_set_is_searched(generated)
            built = TransformationSemigroup(f.n, f.generators[:1], f.elements)
            built.generating_images()
            assert_stored_generating_set_is_searched(built)

    def test_constructor_checks_domains(self):
        t = Transformation((0, 0))
        with pytest.raises(DomainMismatchError):
            TransformationSemigroup(3, [t], [t])
        with pytest.raises(DomainMismatchError):
            TransformationSemigroup(2, [Transformation((0,))], [t])
        with pytest.raises(ValueError):
            TransformationSemigroup(2, [t], [])

    def test_full_t3_size(self):
        assert len(full_tmonoid(3)) == 27
        assert len(full_tmonoid(2)) == 4

    def test_trivial(self):
        ts = trivial(1)
        assert len(ts) == 1 and ts.has_identity

    def test_is_closed_detects_gap(self):
        # [1 1 3] is no product of the declared [2 2 2], so it joins G; the
        # one missing product, [2 2 2]*[1 1 3] = [1 1 1], has it on the right,
        # so a check over the declared generators alone would pass the set
        t = Transformation.from_one_based([2, 2, 2])
        u = Transformation.from_one_based([1, 1, 3])
        assert [s * g in (t, u) for s in (t, u) for g in (t, u)] == [True, False, True, True]
        assert not naive.is_closed([t, u])
        with pytest.raises(NotClosedError) as err:
            TransformationSemigroup(3, [t], [t, u])
        assert err.value.pair == (t, u)
        assert isinstance(err.value, ValueError)
        assert str(err.value) == "element set is not closed: T[2 2 2] * T[1 1 3] = T[1 1 1] is missing"
        closed = [t, u, Transformation.from_one_based([1, 1, 1])]
        assert naive.is_closed(closed)
        assert naive.is_closed(TransformationSemigroup(3, [t], closed))


class TestClosureDecided:
    """The validating constructor refuses exactly the element sets that are not closed."""

    def test_one_element_sets_on_four_states(self):
        refused = 0
        for images in itertools.product(range(4), repeat=4):
            a = Transformation(images)
            if naive.is_closed([a]):
                ts = TransformationSemigroup(4, [a], [a])
                assert_relations_match_oracle(ts)
                continue
            with pytest.raises(NotClosedError) as err:
                TransformationSemigroup(4, [a], [a])
            # G is [a], so a*a is the only product and the first missing
            assert err.value.pair == (a, a)
            refused += 1
        assert refused == 215

    @given(generator_lists, st.data())
    @settings(max_examples=100, deadline=None)
    def test_sub_selections_raise_exactly_when_not_closed(self, gens, data):
        n = gens[0].n
        try:
            ts = TransformationSemigroup.generate(n, gens, max_elements=60)
        except ResourceLimitError:
            assume(False)
        keep = data.draw(st.lists(st.booleans(), min_size=len(ts), max_size=len(ts)))
        chosen = [t for t, k in zip(ts.elements, keep) if k]
        assume(chosen)
        declared = data.draw(st.lists(st.sampled_from(ts.elements), max_size=3))
        gens, pair = naive.closure_scan(declared, chosen)
        if naive.is_closed(chosen):
            assert pair is None
            built = TransformationSemigroup(n, declared, chosen)
            assert built.elements == tuple(chosen)
            assert built.generating_images() == gens
            assert naive.close(built.generating_images()) == {t.images for t in chosen}
            return
        with pytest.raises(NotClosedError) as err:
            TransformationSemigroup(n, declared, chosen)
        assert err.value.pair == pair
        s, g = err.value.pair
        assert s in chosen and g in chosen and s * g not in chosen
        # every earlier element was checked against g and passed
        assert all(r * g in chosen for r in chosen[: chosen.index(s)])


def without_identity():
    """chain_collapse's generators closed without the identity."""
    gens = [Transformation.from_one_based([1, 3, 3]), Transformation.from_one_based([3, 1, 3])]
    ts = TransformationSemigroup.generate(3, gens)
    assert not ts.has_identity
    return ts


# every memoised function, with each spelling of one call
SPELLINGS = {
    "green_preorder": [
        lambda ts: green_preorder(ts, "J"),
        lambda ts: green_preorder(ts, which="J"),
    ],
    "d_classes": [d_classes, lambda ts: d_classes(ts=ts)],
    "image_set": [image_set],
    "extended_image_set": [extended_image_set],
    "im_map": [im_map],
    "im_bar": [im_bar],
    "im_bar_S": [im_bar_S],
    **{
        f.__name__: [
            f,
            lambda ts, f=f: f(ts, False),
            lambda ts, f=f: f(ts, extended=False),
            lambda ts, f=f: f(ts=ts, extended=False),
        ]
        for f in (subduction_preorder, inclusion_preorder)
    },
}


class TestPerMonoid:
    @pytest.mark.parametrize("name", list(SPELLINGS))
    def test_every_spelling_on_s_and_s1_is_one_object(self, name):
        ts = without_identity()
        m = ts.adjoin_identity()
        first = SPELLINGS[name][0](ts)
        for call in SPELLINGS[name]:
            assert call(ts) is first and call(m) is first
        assert ts._memo == {}

    @pytest.mark.parametrize("name", list(SPELLINGS))
    def test_second_monoid_has_its_own_entry(self, name):
        ts, other = without_identity(), without_identity()
        ours = SPELLINGS[name][0](ts)
        theirs = SPELLINGS[name][0](other)
        assert theirs is not ours
        assert any(v is ours for v in ts.adjoin_identity()._memo.values())
        assert any(v is theirs for v in other.adjoin_identity()._memo.values())
        assert not any(v is ours for v in other.adjoin_identity()._memo.values())

    def test_arguments_key_separate_entries(self):
        m = chain_collapse()
        kinds = {kind: green_preorder(m, kind) for kind in "RLJH"}
        assert len({id(p) for p in kinds.values()}) == 4
        for f in (subduction_preorder, inclusion_preorder):
            assert f(m, True) is f(m, extended=True)
            assert f(m, True) is not f(m)

    def test_posets_are_the_kept_quotients(self):
        ts = without_identity()
        m = ts.adjoin_identity()
        assert green_poset(ts, "J") is green_preorder(m, "J").poset
        assert skeleton_poset(ts) is subduction_preorder(m).poset
        assert inclusion_poset(ts, extended=True) is inclusion_preorder(m, True).poset

    def test_failed_call_stores_nothing(self):
        m = chain_collapse()
        with pytest.raises(ValueError, match="unknown Green relation"):
            green_preorder(m, "X")
        assert m._memo == {}
        for bad in (lambda: green_preorder(m), lambda: green_preorder(m, kind="J")):
            with pytest.raises(TypeError):
                bad()
        assert m._memo == {}
