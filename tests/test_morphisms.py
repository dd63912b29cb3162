import dataclasses
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from greenskel import (
    AdmissiblePartition,
    NotClosedError,
    ResourceLimitError,
    Transformation,
    TransformationSemigroup,
    TsMorphism,
    admissible_partitions,
    functoriality_check,
    green_preorder,
    image_set,
    quotient_ts,
    validate,
)
from greenskel import morphisms
from greenskel.catalog import chain_collapse, full_tmonoid, right_zero, trivial

import naive
from conftest import count_apply_mask, random_semigroup, sample_semigroups


def identity_morphism(ts):
    return TsMorphism(ts, ts, tuple(range(ts.n)), {s: s for s in ts.elements})


def merge_13(ts):
    """Quotient of a 3-state semigroup gluing the outer states."""
    return quotient_ts(ts, AdmissiblePartition(((0, 2), (1,))))


class TestValidate:
    def test_identity_morphism(self, fixtures):
        for ts in fixtures.values():
            ok, witness = validate(identity_morphism(ts))
            assert ok and witness is None

    def test_quotient_morphism(self):
        ts = chain_collapse()
        _, q = merge_13(ts)
        ok, witness = validate(q)
        assert ok and witness is None

    def test_state_map_not_onto(self):
        ts = chain_collapse()
        target, q = merge_13(ts)
        bad = TsMorphism(ts, target, (0, 0, 0), q.elem_map)
        assert validate(bad) == (False, ("state_map_not_onto", 1))

    def test_elem_map_not_into_target(self):
        ts = chain_collapse()
        target, q = merge_13(ts)
        t3 = Transformation.from_one_based((3, 3, 3))
        bad_map = dict(q.elem_map)
        bad_map[t3] = Transformation((1, 0))
        bad = TsMorphism(ts, target, q.state_map, bad_map)
        assert validate(bad) == (False, ("elem_map_not_into_target", t3))

    def test_elem_map_not_onto(self):
        ts = chain_collapse()
        target, q = merge_13(ts)
        one = target.identity()
        bad = TsMorphism(ts, target, q.state_map, {s: one for s in ts.elements})
        assert validate(bad) == (False, ("elem_map_not_onto", Transformation((0, 0))))

    def test_homomorphism_witness(self):
        ts = chain_collapse()
        target, q = merge_13(ts)
        one, const = target.identity(), Transformation((0, 0))
        t1 = Transformation.from_one_based((1, 3, 3))
        bad_map = {s: const for s in ts.elements}
        bad_map[t1] = one
        bad = TsMorphism(ts, target, q.state_map, bad_map)
        ok, witness = validate(bad)
        assert not ok and witness == ("homomorphism", (ts.identity(), t1))

    def test_compatibility_witness(self):
        ts = chain_collapse()
        target, q = merge_13(ts)
        t1 = Transformation.from_one_based((1, 3, 3))
        bad = TsMorphism(ts, target, (0, 1, 1), q.elem_map)
        ok, witness = validate(bad)
        assert not ok and witness == ("compatibility", (1, t1))

    def test_laws_checked_once_per_morphism(self, monkeypatch):
        calls = []
        check = morphisms._check_laws
        monkeypatch.setattr(morphisms, "_check_laws", lambda m: calls.append(m) or check(m))
        ts = chain_collapse()
        _, q = merge_13(ts)
        assert validate(q) == validate(q) == (True, None)
        functoriality_check(q)
        assert calls == [q]
        bad = TsMorphism(ts, q.target, (0, 0, 0), q.elem_map)
        assert validate(bad) == validate(bad) == (False, ("state_map_not_onto", 1))
        with pytest.raises(ValueError, match="state_map_not_onto"):
            functoriality_check(bad)
        assert calls == [q, bad]

    def test_maps_are_read_only(self):
        ts = chain_collapse()
        _, q = merge_13(ts)
        given = dict(q.elem_map)
        m = TsMorphism(ts, q.target, list(q.state_map), given)
        assert validate(m) == (True, None)
        for name in ("state_map", "elem_map", "source", "target", "_verdict"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(m, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del m._verdict
        with pytest.raises(TypeError):
            m.elem_map[ts.identity()] = Transformation((0, 0))
        with pytest.raises(TypeError):
            m.state_map[0] = 1
        # the morphism holds its own copy of the mapping it was given
        given[ts.identity()] = Transformation((0, 0))
        assert m.elem_map[ts.identity()].is_identity()
        assert isinstance(m.state_map, tuple) and m == q
        assert validate(m) == (True, None)

    def test_discrete_quotient_with_planted_element_map_fails(self, fixtures):
        for name, ts in fixtures.items():
            if len(ts) < 2:
                continue
            _, q = quotient_ts(ts, [(x,) for x in range(ts.n)])
            a, b = ts.elements[-2:]
            planted = dict(q.elem_map)
            planted[a], planted[b] = b, a
            bad = TsMorphism(ts, ts, q.state_map, planted)
            ok, violation = validate(bad)
            assert not ok and (ok, violation) == naive.validate(bad), name

    def test_automorphism_fails_compatibility_on_identity_states(self):
        # any bijection of a right-zero semigroup is a homomorphism, so only
        # compatibility with the identity state map can refuse it
        ts = right_zero(3)
        c0, c1, c2 = ts.elements
        bad = TsMorphism(ts, ts, (0, 1, 2), {c0: c1, c1: c2, c2: c0})
        assert validate(bad) == naive.validate(bad) == (False, ("compatibility", (0, c0)))

    def test_state_map_length_checked_up_front(self):
        ts = chain_collapse()
        with pytest.raises(ValueError):
            TsMorphism(ts, ts, (0, 1), {s: s for s in ts.elements})
        with pytest.raises(ValueError):
            TsMorphism(ts, ts, (0, 1, 7), {s: s for s in ts.elements})
        with pytest.raises(ValueError):
            TsMorphism(ts, ts, (0, 1, 2), {})


SOURCE_KINDS = ("generated", "first_generator_only", "not_closed")


def perturbed_quotient(ts, blocks, kind, swap, trim):
    """A quotient morphism of ts, possibly broken, on a source of the given kind.

    ``kind`` picks the source: ts itself, ts rebuilt with only its first
    declared generator, or ts without its last element (a set that need
    not be closed).  Such a set builds only when it is closed; otherwise
    the constructor must refuse it, and the result is None.  ``swap``
    names two source elements whose images are exchanged; ``trim`` drops
    elem_map entries outside the source.  The target is the image of the
    source, so both surjectivity checks pass and the homomorphism law is
    always reached.
    """
    if kind == "first_generator_only":
        source = TransformationSemigroup(ts.n, ts.generators[:1], ts.elements)
    elif kind == "not_closed":
        if not naive.is_closed(ts.elements[:-1]):
            with pytest.raises(NotClosedError):
                TransformationSemigroup(ts.n, ts.generators, ts.elements[:-1])
            return None
        source = TransformationSemigroup(ts.n, ts.generators, ts.elements[:-1])
    else:
        source = ts
    _, q = quotient_ts(ts, blocks)
    elem_map = dict(q.elem_map)
    if swap is not None:
        a, b = (source.elements[i % len(source)] for i in swap)
        elem_map[a], elem_map[b] = elem_map[b], elem_map[a]
    if trim:
        elem_map = {s: elem_map[s] for s in source.elements}
    target = TransformationSemigroup(
        q.target.n, q.target.generators, {elem_map[s] for s in source.elements}
    )
    return TsMorphism(source, target, q.state_map, elem_map)


def outcome(check, m):
    """The (ok, violation) pair, or the type of the exception raised."""
    try:
        return check(m)
    except Exception as err:
        return type(err)


@st.composite
def morphism_cases(draw):
    ts = random_semigroup(draw(st.randoms(use_true_random=False)), cap=60)
    assume(ts is not None)
    kind = draw(st.sampled_from(SOURCE_KINDS))
    assume(kind != "not_closed" or len(ts) > 1)
    blocks = draw(st.sampled_from(admissible_partitions(ts))).blocks
    swap = draw(st.none() | st.tuples(st.integers(0, 59), st.integers(0, 59)))
    return perturbed_quotient(ts, blocks, kind, swap, draw(st.booleans()))


class TestValidateDifferential:
    @settings(max_examples=150, deadline=None)
    @given(morphism_cases())
    def test_matches_naive(self, m):
        if m is not None:
            assert outcome(validate, m) == outcome(naive.validate, m)

    def test_corpus_matches_naive(self):
        rng = random.Random(5)
        seen = set()
        for ts in sample_semigroups(seed=5, count=40):
            for p in admissible_partitions(ts):
                for kind in SOURCE_KINDS:
                    if kind == "not_closed" and len(ts) == 1:
                        continue
                    swap = (rng.randrange(60), rng.randrange(60)) if rng.random() < 0.5 else None
                    m = perturbed_quotient(ts, p.blocks, kind, swap, rng.random() < 0.5)
                    if m is None:
                        seen.add("NotClosedError")
                        continue
                    got = outcome(validate, m)
                    assert got == outcome(naive.validate, m), (kind, p.blocks, swap)
                    if isinstance(got, type):
                        seen.add(got.__name__)
                    else:
                        seen.add(got[1][0] if got[1] else "ok")
        # passing and failing morphisms and refused non-closed sources all occurred
        assert {"ok", "homomorphism", "NotClosedError"} <= seen

    def test_declared_generators_miss_elements(self):
        # T[1 3 3] alone generates {T[1 3 3]}; the other elements must join G
        ts = chain_collapse()
        source = TransformationSemigroup(ts.n, ts.generators[:1], ts.elements)
        _, q = quotient_ts(ts, AdmissiblePartition(((0, 2), (1,))))
        m = TsMorphism(source, q.target, q.state_map, q.elem_map)
        assert validate(m) == naive.validate(m) == (True, None)
        t2 = Transformation.from_one_based((3, 1, 3))
        bad_map = dict(q.elem_map)
        bad_map[t2] = q.elem_map[ts.identity()]
        bad = TsMorphism(source, q.target, q.state_map, bad_map)
        assert validate(bad) == naive.validate(bad)
        assert validate(bad)[1][0] == "homomorphism"

    def test_non_closed_source_raises_like_naive(self):
        # T[3 1 3] squared is T[3 3 3], which this element set leaves out;
        # no morphism can be built on it, as the constructor refuses it
        ts = chain_collapse()
        t2, t3 = Transformation.from_one_based((3, 1, 3)), Transformation.from_one_based((3, 3, 3))
        assert t2 * t2 == t3 and not naive.is_closed([t2, ts.identity()])
        with pytest.raises(NotClosedError) as err:
            TransformationSemigroup(ts.n, [t2], [t2, ts.identity()])
        assert err.value.pair == (t2, t2)
        assert str(err.value) == "element set is not closed: T[3 1 3] * T[3 1 3] = T[3 3 3] is missing"


class TestFunctorialityDifferential:
    """Subduction, skeleton-map and item->class square verdicts against the oracles."""

    @staticmethod
    def assert_matches_oracle(m):
        report = functoriality_check(m)
        subduction, skeleton_map, target_witness = naive.functoriality_subduction(m)
        assert report.subduction == subduction
        assert report.skeleton_map == skeleton_map
        assert report.witnesses.get("target_subduction") == target_witness
        squares = naive.functoriality_squares(m)
        assert {name: report.squares[name] for name in squares} == squares
        assert_im_square_matches_oracle(report, m)

    def test_catalog_quotients(self, fixtures):
        count = 0
        for name, ts in fixtures.items():
            for p in admissible_partitions(ts):
                self.assert_matches_oracle(quotient_ts(ts, p)[1])
                count += 1
        assert count == 27

    @settings(max_examples=100, deadline=None)
    @given(morphism_cases())
    def test_valid_morphism_cases(self, m):
        assume(m is not None and outcome(validate, m) == (True, None))
        self.assert_matches_oracle(m)


def assert_im_square_matches_oracle(report, m):
    """The ``im`` square, decided on masks by index, against psi(im(s)) == im(phi(s)) on subsets.

    The report decides the square only when phi respects both Green
    preorders and psi respects subduction; otherwise it reads False.
    """
    gated = report.skeleton_map["well_defined"] and all(
        v["morphism"] for v in report.order_maps.values()
    )
    assert report.squares["im"] == (gated and naive.im_square(m))


def assert_quotient_matches_scan(ts, blocks):
    """quotient_ts against the per-block scan: equal target and maps, or equal error text.

    Returns "ok" or "error".
    """
    try:
        want_target, want = naive.quotient_by_scan(ts, blocks)
    except ValueError as err:
        with pytest.raises(ValueError) as got:
            quotient_ts(ts, blocks)
        assert str(got.value) == str(err), blocks
        return "error"
    target, q = quotient_ts(ts, blocks)
    assert (target.n, target.generators, target.elements) == (
        want_target.n,
        want_target.generators,
        want_target.elements,
    ), blocks
    assert target.generating_images() == want_target.generating_images()
    assert q.state_map == want.state_map and dict(q.elem_map) == dict(want.elem_map), blocks
    return "ok"


def every_numbering(n):
    """Every set partition of range(n), as the brute force lists it and normalized."""
    for part in naive.all_partitions(range(n)):
        yield part
        yield naive.normalize_partition(part)


def planted_morphism(ts, blocks, rng):
    """A quotient morphism of ts with its target states permuted, and maybe two images swapped.

    Both maps stay onto and into the target, so ``validate`` reaches the
    homomorphism law, and when the element map is left alone, compatibility.
    """
    _, q = quotient_ts(ts, blocks)
    perm = list(range(q.target.n))
    rng.shuffle(perm)
    elem_map = dict(q.elem_map)
    if rng.random() < 0.3 and len(ts) > 1:
        a, b = rng.sample(ts.elements, 2)
        elem_map[a], elem_map[b] = elem_map[b], elem_map[a]
    return TsMorphism(ts, q.target, tuple(perm[y] for y in q.state_map), elem_map)


def assert_transport_matches_scan(m):
    """functoriality_check past validation against the subset-by-subset scan.

    Returns the names of the witnesses found.
    """
    images, transport = naive.image_transport(m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(morphisms, "validate", lambda m: (True, None))
        report = functoriality_check(m)
    assert_im_square_matches_oracle(report, m)
    assert report.witnesses.get("images") == images
    assert report.witnesses.get("transport") == transport
    assert report.images_onto == (images is None)
    assert report.subduction["verbatim"] == (transport is None)
    return {name for name in ("images", "transport") if name in report.witnesses}


class TestQuotientDifferential:
    """The tuple path of quotient_ts, compatibility and transport against the scans."""

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_every_partition_matches_scan(self, rng):
        ts = random_semigroup(rng, cap=60)
        assume(ts is not None)
        for blocks in every_numbering(ts.n):
            assert_quotient_matches_scan(ts, blocks)

    def test_corpus_matches_scan(self, fixtures):
        seen = set()
        for ts in sample_semigroups(seed=11, count=30) + list(fixtures.values()):
            if ts.n > 4:
                continue
            for blocks in every_numbering(ts.n):
                seen.add(assert_quotient_matches_scan(ts, blocks))
        assert seen == {"ok", "error"}

    @settings(max_examples=100, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_planted_failures_match_scan(self, rng):
        ts = random_semigroup(rng, cap=60)
        assume(ts is not None)
        blocks = rng.choice(admissible_partitions(ts)).blocks
        m = planted_morphism(ts, blocks, rng)
        assert validate(m) == naive.validate(m)
        assert_transport_matches_scan(m)

    def test_planted_corpus_meets_every_witness(self, fixtures):
        rng = random.Random(13)
        verdicts, witnesses = set(), set()
        for ts in sample_semigroups(seed=13, count=40) + list(fixtures.values()):
            if ts.n > 5:
                continue
            for p in admissible_partitions(ts):
                m = planted_morphism(ts, p.blocks, rng)
                ok, violation = validate(m)
                assert (ok, violation) == naive.validate(m)
                verdicts.add(violation[0] if violation else "ok")
                witnesses |= assert_transport_matches_scan(m)
        assert {"ok", "homomorphism", "compatibility"} <= verdicts
        assert witnesses == {"images", "transport"}


class TestPartitions:
    def test_trivial_two_states(self):
        parts = admissible_partitions(trivial(2))
        assert [p.blocks for p in parts] == [((0, 1),), ((0,), (1,))]

    def test_chain_collapse(self):
        parts = admissible_partitions(chain_collapse())
        blocks = [p.blocks for p in parts]
        assert ((0, 2), (1,)) in blocks
        assert ((0, 1), (2,)) not in blocks
        assert len(parts) == 3

    def test_matches_naive_stability(self, fixtures):
        for ts in fixtures.values():
            if ts.n > 5:
                continue
            got = {p.blocks for p in admissible_partitions(ts)}
            gens = [g.images for g in ts.generators]
            expect = set()
            for part in naive.all_partitions(range(ts.n)):
                block_of = {x: i for i, b in enumerate(part) for x in b}
                if all(
                    len({block_of[g[x]] for x in b}) == 1 for g in gens for b in part
                ):
                    expect.add(naive.normalize_partition(part))
            assert got == expect

    def test_declared_generators_miss_elements(self, fixtures):
        for name, ts in fixtures.items():
            src = TransformationSemigroup(ts.n, ts.generators[:1], ts.elements)
            parts = admissible_partitions(src)
            # stability is a property of the elements, not of the declared generators
            assert parts == admissible_partitions(ts), name
            for p in parts:
                target, m = quotient_ts(src, p)
                assert validate(m) == (True, None), (name, p.blocks)

    def test_full_monoid_is_rigid(self):
        parts = admissible_partitions(full_tmonoid(3))
        assert [len(p) for p in parts] == [1, 3]

    def test_cap(self):
        with pytest.raises(ResourceLimitError) as err:
            admissible_partitions(trivial(9))
        assert err.value.stage == "partitions"

    def test_block_index(self):
        p = AdmissiblePartition(((0, 2), (1,)))
        assert p.block_index() == {0: 0, 1: 1, 2: 0}
        assert len(p) == 2 and list(p) == [(0, 2), (1,)]


class TestQuotient:
    def test_merge_13_structure(self):
        ts = chain_collapse()
        target, q = merge_13(ts)
        assert target.n == 2 and len(target) == 2
        const = Transformation((0, 0))
        fibers = {}
        for s, t in q.elem_map.items():
            fibers.setdefault(t, set()).add(s.one_based)
        assert fibers[target.identity()] == {(1, 2, 3)}
        assert fibers[const] == {(1, 3, 3), (3, 1, 3), (3, 3, 3)}

    def test_one_block(self):
        ts = chain_collapse()
        target, q = quotient_ts(ts, [(0, 1, 2)])
        assert target.n == 1 and len(target) == 1
        assert q.state_map == (0, 0, 0)

    def test_discrete_is_iso(self):
        ts = chain_collapse()
        target, q = quotient_ts(ts, [(0,), (1,), (2,)])
        assert q.state_map == (0, 1, 2)
        assert sorted(t.images for t in target) == sorted(t.images for t in ts)

    def test_discrete_target_is_source(self, fixtures):
        for name, ts in fixtures.items():
            target, q = quotient_ts(ts, [(x,) for x in range(ts.n)])
            assert target is ts and q.target is ts, name
            assert q.state_map == tuple(range(ts.n))
            assert all(q.elem_map[s] is s for s in ts.elements)
            assert validate(q) == naive.validate(q) == (True, None)
            report = functoriality_check(q)
            assert report.passed and report.witnesses == {}, name

    def test_permuted_singletons_take_the_general_path(self):
        ts = chain_collapse()
        target, q = quotient_ts(ts, [(1,), (0,), (2,)])
        want, want_q = naive.quotient_by_scan(ts, [(1,), (0,), (2,)])
        assert target is not ts and q.state_map == (1, 0, 2)
        assert target.elements == want.elements and dict(q.elem_map) == dict(want_q.elem_map)
        assert validate(q) == (True, None) and functoriality_check(q).passed

    def test_rejects_empty_block(self):
        ts = trivial(1)
        with pytest.raises(ValueError) as err:
            quotient_ts(ts, [(0,), ()])
        assert str(err.value) == "partition has an empty block"
        with pytest.raises(ValueError, match="empty block"):
            quotient_ts(chain_collapse(), [(), (0, 1, 2)])

    def test_rejects_non_cover(self):
        ts = chain_collapse()
        with pytest.raises(ValueError):
            quotient_ts(ts, [(0, 1)])
        with pytest.raises(ValueError):
            quotient_ts(ts, [(0, 1), (1, 2)])

    def test_rejects_inadmissible(self):
        ts = chain_collapse()
        with pytest.raises(ValueError, match="not admissible"):
            quotient_ts(ts, [(0, 1), (2,)])

    def test_then_composes(self):
        ts = chain_collapse()
        mid, q1 = merge_13(ts)
        _, q2 = quotient_ts(mid, [(0, 1)])
        comp = q1.then(q2)
        assert comp.state_map == (0, 0, 0)
        assert all(t.images == (0,) for t in comp.elem_map.values())
        assert validate(comp)[0]

    def test_then_requires_matching_middle(self):
        ts = chain_collapse()
        _, q1 = merge_13(ts)
        _, other = merge_13(chain_collapse())
        with pytest.raises(ValueError):
            q1.then(other)


class TestFunctoriality:
    def test_identity_morphism(self, fixtures):
        for name, ts in fixtures.items():
            report = functoriality_check(identity_morphism(ts))
            assert report.passed, name
            assert report.witnesses == {}

    def test_quotients_of_fixtures(self, fixtures):
        for name, ts in fixtures.items():
            if ts.n > 5:
                continue
            for p in admissible_partitions(ts):
                _, q = quotient_ts(ts, p)
                report = functoriality_check(q)
                assert report.passed, (name, p.blocks)

    def test_one_subset_image_per_orbit_edge(self, fixtures, monkeypatch):
        # with the image sets found, the check applies the state map to
        # each subset of I(X) once and phi(g) to psi(Q) once per orbit edge
        cases = []
        for ts in list(fixtures.values()) + sample_semigroups(seed=5, count=10):
            if ts.n > 5:
                continue
            for p in admissible_partitions(ts):
                _, q = quotient_ts(ts, p)
                assert functoriality_check(q).passed
                sm = ts.adjoin_identity()
                cases.append((q, len(image_set(sm)) * (1 + len(sm.generating_images()))))
        calls = count_apply_mask(monkeypatch)
        for q, bound in cases:
            before = calls[0]
            functoriality_check(q)
            assert 0 < calls[0] - before <= bound

    def test_rejects_invalid_morphism(self):
        ts = chain_collapse()
        target, q = merge_13(ts)
        bad = TsMorphism(ts, target, (0, 0, 0), q.elem_map)
        with pytest.raises(ValueError, match="state_map_not_onto"):
            functoriality_check(bad)

    def test_report_shape(self):
        ts = chain_collapse()
        _, q = merge_13(ts)
        data = functoriality_check(q).to_dict()
        assert set(data["order_maps"]) == {"L", "J"}
        assert set(data["subduction"]) == {"verbatim", "target_relation"}
        assert set(data["skeleton_map"]) == {
            "well_defined",
            "order_preserving",
            "surjective",
        }
        assert len(data["squares"]) == 7 and data["passed"] is True

    def test_element_preimages_union_j_classes(self):
        # the preimage of each target element is a union of source J-classes
        # only when the quotient identifies whole classes; what must always
        # hold is that comparabilities map forward, checked here elementwise
        ts = chain_collapse()
        target, q = merge_13(ts)
        jp, jq = green_preorder(ts, "J"), green_preorder(target, "J")
        for s in ts.elements:
            for t in ts.elements:
                if naive.leq(jp, s, t):
                    assert naive.leq(jq, q.elem_map[s], q.elem_map[t])
