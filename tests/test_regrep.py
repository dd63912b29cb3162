import hashlib
import json
import sys
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from greenskel import (
    ResourceLimitError,
    StateSubset,
    Transformation,
    TransformationSemigroup,
    corollary_check,
    green_poset,
    inclusion_poset,
    right_regular,
    skeleton_poset,
)
from greenskel import cli, green, order, regrep
from greenskel.catalog import chain_collapse, collapse_motif, full_tmonoid, right_zero, trivial
from greenskel.cli import build_semigroup, parse
from greenskel.green import ConsistencyError

import naive
from conftest import count_apply_mask

INPUTS = Path(__file__).resolve().parent.parent / "inputs"

# the Catalan monoid C_8: generator k moves state k to k + 1 and fixes the rest
CATALAN_8 = "states: 8\n" + "".join(
    "gen: " + " ".join(str(x + 2 if x == k else x + 1) for x in range(8)) + "\n" for k in range(7)
)


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


def image_masks(rr):
    """The image of rho(carrier[a]) as a bit mask, for every state a."""
    return [rr.orbit.subsets[i].mask for i in rr.at]


def assert_matches_table(ts):
    """The states, rho(G) and the walked image of every s of S^1 agree with the full product table.

    The representation the long way (``naive.regular_representation``) is
    exactly the set of the rho(s), s in S: it closes onto S, faithfully.
    """
    table = naive.right_regular_table([t.images for t in ts.elements], ts.n)
    rr = right_regular(ts)
    assert [a.images for a in rr.carrier] == list(table)
    assert rr.gens == tuple(table[g] for g in ts.generating_images())
    state = naive.state_of(rr)
    masks = image_masks(rr)
    for s in rr.carrier:
        assert masks[state[s]] == StateSubset.of(len(table), table[s.images]).mask
    rep, _ = naive.regular_representation(ts)
    want = sorted(table[t.images] for t in ts.elements)
    assert [r.images for r in rep.elements] == want


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
            assert all(naive.state_of(rr)[a] == i for i, a in enumerate(rr.carrier))

    def test_faithful(self, fixtures):
        for ts in fixtures.values():
            rr = right_regular(ts)
            rep, _ = naive.regular_representation(ts)
            assert len(rep.elements) == len(ts.elements)
            # rho(G) generates one transformation per element of S
            seen = TransformationSemigroup.generate(len(rr.carrier), list(map(Transformation, rr.gens)))
            assert set(seen.elements) == set(rep.elements)

    def test_rho_is_a_homomorphism(self):
        ts = chain_collapse()
        _, rho = naive.regular_representation(ts)
        for s in ts.elements:
            for t in ts.elements:
                assert rho[s * t] == rho[s] * rho[t]

    def test_identity_state_reads_off_the_element(self, fixtures):
        # state 0 carries the identity, so rho(s) sends it to the state of s
        for ts in fixtures.values():
            rr = right_regular(ts)
            _, rho = naive.regular_representation(ts)
            state = naive.state_of(rr)
            for s in ts.elements:
                assert rho[s].images[0] == state[s]

    def test_images_are_left_ideals(self, fixtures):
        for ts in fixtures.values():
            rr = right_regular(ts)
            monoid = [t.images for t in rr.monoid]
            state = naive.state_of(rr)
            masks = image_masks(rr)
            for s in ts.elements:
                ideal = naive.left_ideal(s.images, monoid)
                expect = {state[Transformation(f)] for f in ideal}
                assert masks[state[s]] == sum(1 << a for a in expect)

    def test_chain_collapse_image_of_middle_element(self):
        ts = chain_collapse()
        rr = right_regular(ts)
        elements = {t.one_based: t for t in ts}
        t2, t3 = elements[(3, 1, 3)], elements[(3, 3, 3)]
        state = naive.state_of(rr)
        assert image_masks(rr)[state[t2]] == 1 << state[t2] | 1 << state[t3]

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
        table = naive.right_regular_table([t.images for t in ts.elements], ts.n)
        assert rr.gens == tuple(table[g] for g in ts.generating_images())
        sigma = {naive.state_of(rr)[t]: i for i, t in enumerate(reference_carrier)}
        for s in rr.carrier:
            mine = table[s.images]
            relabeled = [None] * len(mine)
            for x, y in enumerate(mine):
                relabeled[sigma[x]] = sigma[y] + 1
            assert tuple(relabeled) == reference[s]

    def test_right_zero_without_identity(self):
        ts = right_zero(3)
        rr = right_regular(ts)
        rep, _ = naive.regular_representation(ts)
        assert len(rr.carrier) == 4 and len(rep.elements) == 3
        # rho(s) of a right zero s is constant at s, and rho(1) is onto
        assert image_masks(rr) == [0b1111, 0b0010, 0b0100, 0b1000]


class TestRightCayleyEdges:
    """rho(G) is S^1's right Cayley graph, relabelled from elements to states."""

    def test_planted_wrong_right_edge_breaks_the_table(self, monkeypatch):
        # one column of the graph with two targets swapped: rho(G) reads
        # those edges, so it no longer matches the full product table
        real = green._cayley_graphs

        def planted(m):
            right, left = real(m)
            right = list(right)
            j = next(j for j, row in enumerate(right) if row[0] != right[0][0])
            right[0], right[j] = (right[j][0],) + right[0][1:], (right[0][0],) + right[j][1:]
            return right, left

        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get("_cayley_graphs") is real:
                monkeypatch.setattr(module, "_cayley_graphs", planted)
        with pytest.raises(AssertionError):
            assert_matches_table(full_tmonoid(3))

    @pytest.mark.parametrize("make", [full_tmonoid, right_zero])
    def test_builds_no_element_index(self, make):
        # the identity is found among the keys, not through the element index
        ts = make()
        rr = right_regular(ts)
        assert "_index" not in vars(ts) and "_index" not in vars(rr.monoid)


class TestCorollary:
    def test_all_fixtures_pass(self, fixtures):
        for name, ts in fixtures.items():
            report = corollary_check(ts)
            assert report.passed, name
            assert report.j_is_iso and report.l_is_iso
            assert report.j_found and report.l_found

    def test_declared_generators_miss_elements(self, fixtures):
        for name, ts in fixtures.items():
            src = declared_generators_miss(ts)
            report = corollary_check(src)
            assert report.passed, name
            whole = corollary_check(ts)
            assert (report.j_map, report.l_map) == (whole.j_map, whole.l_map), name
            assert image_masks(report.regrep) == image_masks(whole.regrep), name

    def test_maps_come_from_the_induced_maps(self):
        ts = collapse_motif()
        report = corollary_check(ts)
        rr = report.regrep
        rep, rho = naive.regular_representation(ts)
        mt = rep.adjoin_identity()
        jq = green_poset(rr.monoid, "J")
        s_of = naive.class_of(skeleton_poset(mt))
        for ci, cls in enumerate(jq.classes):
            assert report.j_map[ci] == s_of[rho[cls[0]].image()]
        lq = green_poset(rr.monoid, "L")
        i_of = naive.class_of(inclusion_poset(mt))
        for ci, cls in enumerate(lq.classes):
            assert report.l_map[ci] == i_of[rho[cls[0]].image()]

    def test_rep_skeleton_size_equals_j_class_count(self, fixtures):
        for ts in fixtures.values():
            report = corollary_check(ts)
            rep, _ = naive.regular_representation(ts)
            mt = rep.adjoin_identity()
            m = report.regrep.monoid
            assert len(skeleton_poset(mt)) == len(green_poset(m, "J")) == len(set(report.j_map))
            assert len(inclusion_poset(mt)) == len(green_poset(m, "L")) == len(set(report.l_map))

    def test_planted_bijection_that_does_not_reflect_fails(self, monkeypatch, capsys):
        # every class map replaced by a 2-antichain onto a 2-chain: a
        # bijection that preserves the order but reflects none of it
        antichain = naive.preorder("ab", [0b01, 0b10])
        chain = naive.preorder("xy", [0b11, 0b10])
        planted = order.induce_indexed([0, 1], antichain, chain)
        monkeypatch.setattr(regrep, "induce_indexed", lambda image, src, dst: planted)
        report = corollary_check(collapse_motif())
        assert not report.j_is_iso and not report.l_is_iso and not report.passed
        assert cli.main(["regrep", "--input", str(INPUTS / "collapse_motif.tsg")]) == 1
        assert "J-order vs skeleton isomorphism: FAIL" in capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize(
        "extra, digest",
        [
            ("", "347e7e0f03388d23b41c147570472341a35c0f936c2b11e511f84abb9ef400e4"),
            ("monoid: false\n", "4492b42f3530ca26cf332c645dbf9308c3e1bc1fa006fcf74931bd09f286ca69"),
        ],
    )
    def test_catalan_report_bytes(self, extra, digest):
        # golden: sha256 of the C_8 regrep text report plus its --out JSON
        bundle = cli.run(parse(CATALAN_8 + extra), ("regrep",))
        blob = cli.report_text(bundle) + json.dumps(cli.report_data(bundle), indent=2) + "\n"
        assert hashlib.sha256(blob.encode()).hexdigest() == digest

    def test_trivial(self):
        report = corollary_check(trivial(1))
        assert report.passed
        assert report.j_map == (0,) and report.l_map == (0,)

    def test_subduction_reads_the_orbit_edges(self, fixtures, monkeypatch):
        # the skeleton order of the representation comes from the edge
        # table of its orbit: no subset is acted on again
        calls = count_apply_mask(monkeypatch)
        real = regrep.subduction
        inside = []

        def counted(incl, edges):
            before = calls[0]
            out = real(incl, edges)
            inside.append(calls[0] - before)
            return out

        monkeypatch.setattr(regrep, "subduction", counted)
        for ts in list(fixtures.values()) + [full_tmonoid(4)]:
            assert corollary_check(ts).passed
        assert inside == [0] * (len(fixtures) + 1)
        assert calls[0] > 0

    def test_one_orbit_per_check(self, fixtures, monkeypatch):
        # the walk, inclusion and subduction all read the one orbit of
        # rho(G), which acts on each (image set, generator) pair at most
        # once, and not at all for an identity generator; poset_isomorphic's
        # calls act on classes, not on states
        apply_mask = order.apply_mask
        calls = count_apply_mask(monkeypatch)
        monkeypatch.setattr(order, "apply_mask", apply_mask)
        real = regrep.orbit
        orbits = []

        def counted(n, gens, starts):
            subsets, edges = real(n, gens, starts)
            moves = sum(1 for g in gens if g != tuple(range(n)))
            orbits.append((n, len(subsets) * moves))
            assert starts == [(1 << n) - 1]
            return subsets, edges

        monkeypatch.setattr(regrep, "orbit", counted)
        for name, ts in {**fixtures, "full_t4": full_tmonoid(4)}.items():
            orbits.clear()
            before = calls[0]
            states = len(corollary_check(ts).regrep.carrier)
            assert [n for n, _ in orbits] == [states], name
            assert calls[0] - before == orbits[0][1], name


def assert_matches_oracle(ts):
    report = corollary_check(ts)
    assert report.passed
    assert (report.j_map, report.l_map) == naive.corollary_maps(ts)


class TestCorollaryOracle:
    """j_map and l_map equal the maps composed through the representation semigroup."""

    def test_fixtures(self, fixtures):
        for ts in fixtures.values():
            assert_matches_oracle(ts)
            assert_matches_oracle(declared_generators_miss(ts))

    def test_example_inputs(self):
        for path in sorted(INPUTS.glob("*.tsg")):
            assert_matches_oracle(build_semigroup(parse(path.read_text(encoding="utf-8"))))

    @settings(max_examples=60, deadline=None)
    @given(semigroups(), st.booleans())
    def test_generated(self, ts, miss):
        assert_matches_oracle(declared_generators_miss(ts) if miss else ts)

    def test_full_t4(self):
        assert_matches_oracle(full_tmonoid(4))


def foreign_semigroup_work(ts, check=corollary_check):
    """Calls made by ``check(ts)`` that work on a semigroup other than S^1.

    Every call of ``TransformationSemigroup.generate`` counts, and every
    call of ``green_preorder``, through any module that holds it, on a
    semigroup whose S^1 is not that of ``ts``.
    """
    m = ts.adjoin_identity()
    calls = []
    generate = TransformationSemigroup.generate.__func__
    green_preorder = green.green_preorder

    def counted_generate(cls, *args, **kwargs):
        calls.append(("generate", args))
        return generate(cls, *args, **kwargs)

    def counted_green_preorder(x, *args, **kwargs):
        if x.adjoin_identity() is not m:
            calls.append(("green_preorder", x))
        return green_preorder(x, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(TransformationSemigroup, "generate", classmethod(counted_generate))
        for module in list(sys.modules.values()):
            if getattr(module, "__dict__", {}).get("green_preorder") is green_preorder:
                mp.setattr(module, "green_preorder", counted_green_preorder)
        check(ts)
    return calls


class TestNoRepresentationSemigroup:
    def test_fixtures_and_full_t4(self, fixtures):
        for name, ts in {**fixtures, "full_t4": full_tmonoid(4)}.items():
            assert foreign_semigroup_work(ts) == [], name
            assert foreign_semigroup_work(declared_generators_miss(ts)) == [], name

    def test_counter_sees_the_representation_semigroup(self):
        # the long way generates the representation and takes its Green's relations
        calls = foreign_semigroup_work(collapse_motif(), naive.corollary_maps)
        assert [kind for kind, _ in calls].count("generate") == 1
        assert any(kind == "green_preorder" for kind, _ in calls)


class TestWalkChecks:
    def test_unreached_state_raises(self):
        # a and b generate collapse_motif; a alone misses b
        ts = collapse_motif()
        first = ts.generating_images()[:1]
        ts.generating_images = lambda: list(first)
        with pytest.raises(ConsistencyError, match="miss"):
            right_regular(ts)
