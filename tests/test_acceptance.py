"""End-to-end acceptance gate.

Each test pins one released behavior exactly (discrete checks, no
tolerances) and prints a single pass/fail line; the suite summary repeats
the lines so a full run shows the whole scoreboard.
"""

import functools
import json
import subprocess
import sys
from pathlib import Path

from greenskel import (
    Transformation,
    TransformationSemigroup,
    admissible_partitions,
    corollary_check,
    d_classes,
    functoriality_check,
    green_poset,
    green_preorder,
    im_bar_S,
    image_set,
    lattice_violation,
    poset_isomorphic,
    quotient_ts,
    right_regular,
    skeleton_poset,
    subduction_preorder,
    validate,
    verify_diagram,
)
from greenskel.catalog import (
    all_fixtures,
    chain_collapse,
    collapse_motif,
    hidden_relation,
    hidden_relation_pair,
    nonlattice,
)
from greenskel.cli import emit_dot, parse, report_data, report_text, run

import naive
from naive import subduction_leq
from conftest import assert_preorder_laws, sample_semigroups

INPUTS = Path(__file__).resolve().parent.parent / "inputs"
RESULTS = []


def criterion(number, label):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            verdict = "FAIL"
            try:
                fn(*args, **kwargs)
                verdict = "PASS"
            finally:
                line = f"criterion {number} ({label}): {verdict}"
                RESULTS.append(line)
                print(line)

        return wrapper

    return deco


@criterion(1, "chain collapse regression")
def test_chain_collapse():
    m = chain_collapse()
    by_images = {t.one_based: t for t in m}
    one = by_images[(1, 2, 3)]
    t1, t2, t3 = by_images[(1, 3, 3)], by_images[(3, 1, 3)], by_images[(3, 3, 3)]

    jq = green_poset(m, "J")
    assert len(jq) == 4 and all(len(cls) == 1 for cls in jq.classes)
    c = {t: naive.class_of(jq)[t] for t in (one, t1, t2, t3)}
    chain = [t3, t2, t1, one]
    for lo in range(4):
        for hi in range(4):
            assert jq.rows[c[chain[lo]]] >> c[chain[hi]] & 1 == (lo <= hi)
    assert set(jq.covers) == {
        (c[t3], c[t2]),
        (c[t2], c[t1]),
        (c[t1], c[one]),
    }

    assert {p.one_based for p in image_set(m)} == {(1, 2, 3), (1, 3), (3,)}

    sq = skeleton_poset(m)
    assert len(sq) == 3 and len(sq.covers) == 2
    assert all(
        sq.rows[i] >> j & 1 or sq.rows[j] >> i & 1 for i in range(3) for j in range(3)
    )

    fibers = im_bar_S(m).fibers()
    merged = [f for f in fibers if len(f) > 1]
    assert merged == [sorted((c[t1], c[t2]))] or merged == [[c[t1], c[t2]]]
    assert sorted(len(f) for f in fibers) == [1, 1, 2]


@criterion(2, "regular representation listing")
def test_regular_representation_listing():
    m = collapse_motif()
    assert m.n == 3 and len(m) == 5

    a = Transformation.from_one_based((1, 1, 3))
    b = Transformation.from_one_based((3, 2, 3))
    reference_carrier = (m.identity(), a, b, b * a, a * b)
    reference = {
        reference_carrier[0]: (1, 2, 3, 4, 5),
        a: (2, 2, 4, 4, 5),
        b: (3, 5, 3, 5, 5),
        b * a: (4, 5, 4, 5, 5),
        a * b: (5, 5, 5, 5, 5),
    }

    rr = right_regular(m)
    assert set(rr.carrier) == set(reference_carrier)
    # rho(s) for every s from the full table of products, on the states
    # that rho of the generators uses
    table = naive.right_regular_table([t.images for t in m.elements], m.n)
    assert rr.gens == tuple(table[g] for g in m.generating_images())
    sigma = {rr.state_of[t]: i for i, t in enumerate(reference_carrier)}
    for s in rr.carrier:
        mine = table[s.images]
        relabeled = [None] * len(mine)
        for x, y in enumerate(mine):
            relabeled[sigma[x]] = sigma[y] + 1
        assert tuple(relabeled) == reference[s]

    m_prime = TransformationSemigroup.generate(
        5, [Transformation.from_one_based(t) for t in reference.values()]
    )
    assert len(m_prime) == 5
    assert poset_isomorphic(green_poset(m, "J"), skeleton_poset(m_prime)) is not None


@criterion(3, "hidden comparability regression")
def test_hidden_comparability():
    m = hidden_relation()
    a, b = hidden_relation_pair()
    assert (a.one_based, b.one_based) == ((2, 1, 1, 1, 4), (1, 2, 2, 3, 4))

    jp = green_preorder(m, "J")
    assert not naive.leq(jp, a, b) and not naive.leq(jp, b, a)
    els = list(m.elements)
    assert not any(s * a * t == b for s in els for t in els)
    assert not any(s * b * t == a for s in els for t in els)

    assert subduction_leq(a.image(), b.image(), m) is not None
    assert subduction_leq(b.image(), a.image(), m) is None

    jq, sq = green_poset(m, "J"), skeleton_poset(m)
    sa, sb = naive.class_of(sq)[a.image()], naive.class_of(sq)[b.image()]
    assert sa != sb and sq.rows[sa] >> sb & 1
    assert not jq.rows[naive.class_of(jq)[a]] >> naive.class_of(jq)[b] & 1


@criterion(4, "non-lattice skeleton regression")
def test_non_lattice_skeleton():
    m = nonlattice()
    assert len(m) == 31
    assert len(image_set(m)) == 16

    dparts = d_classes(m)
    assert len(dparts) == 13
    jq = green_poset(m, "J")
    assert {frozenset(cls) for cls in dparts} == {frozenset(c) for c in jq.classes}

    sq = skeleton_poset(m)
    assert len(sq) == 9
    assert any(len(cls) > 1 for cls in sq.classes)

    violation = lattice_violation(sq)
    assert violation is not None and violation[0] in ("join", "meet")
    assert not naive.is_lattice(lambda i, j: sq.rows[i] >> j & 1 == 1, len(sq))


@criterion(5, "order-law suite over random semigroups")
def test_order_laws_over_corpus():
    sampled = sample_semigroups(20260814, 200, max_states=4, max_gens=3, monoid_cap=60)
    assert len(sampled) >= 200
    assert all(len(ts.adjoin_identity()) <= 60 for ts in sampled)
    corpus = list(all_fixtures().values()) + sampled
    for ts in corpus:
        m = ts.adjoin_identity()
        sp = subduction_preorder(m)
        assert_preorder_laws(sp)
        for cls in skeleton_poset(m).classes:
            assert len({len(P) for P in cls}) == 1

        lp, jp = green_preorder(m, "L"), green_preorder(m, "J")
        lrows = naive.class_item_rows(lp.class_of, lp.class_rows)
        jrows = naive.class_item_rows(jp.class_of, jp.class_rows)
        for i, s in enumerate(m.elements):
            for j, t in enumerate(m.elements):
                if lrows[i] >> j & 1:
                    assert s.image().issubset(t.image())
                if jrows[i] >> j & 1:
                    assert naive.leq(sp, s.image(), t.image())

        report = verify_diagram(m)
        assert report.passed
        assert all(
            v["surjective"] and v["order_preserving"] for v in report.arrows.values()
        )
        assert all(report.commutes.values())
        assert all(report.preimage_unions.values())


@criterion(6, "regular representation suite")
def test_regular_representation_over_corpus():
    corpus = sample_semigroups(901, 50, max_states=4, max_gens=3, monoid_cap=30)
    assert len(corpus) >= 50
    for ts in corpus:
        report = corollary_check(ts)
        assert report.passed
        rep, rho = naive.regular_representation(ts)
        assert len(rep) == len(ts)
        mt = rep.adjoin_identity()
        rep_jq = green_poset(mt, "J")
        rep_map = im_bar_S(mt).class_map
        jq = green_poset(report.regrep.monoid, "J")
        for ci, cls in enumerate(jq.classes):
            assert report.j_map[ci] == rep_map[naive.class_of(rep_jq)[rho[cls[0]]]]
        assert (report.j_map, report.l_map) == naive.corollary_maps(ts)


@criterion(7, "quotient functoriality suite")
def test_quotient_functoriality():
    for name, ts in all_fixtures().items():
        if ts.n > 5:
            continue
        for partition in admissible_partitions(ts):
            target, morphism = quotient_ts(ts, partition)
            ok, violation = validate(morphism)
            assert ok, (name, partition.blocks, violation)
            report = functoriality_check(morphism)
            assert report.order_maps_ok, (name, partition.blocks)
            assert report.images_onto, (name, partition.blocks)
            assert report.subduction_ok, (name, partition.blocks)
            assert report.squares_ok, (name, partition.blocks)
            assert report.skeleton_ok, (name, partition.blocks)


@criterion(8, "deterministic output")
def test_deterministic_output():
    tasks = ("green", "skeleton", "diagram")
    for path in sorted(INPUTS.glob("*.tsg")):
        doc = parse(path.read_text(encoding="utf-8"))
        first, second = run(doc, tasks), run(doc, tasks)
        assert report_text(first) == report_text(second)
        assert json.dumps(report_data(first)) == json.dumps(report_data(second))
        for which in ("jposet", "lposet", "skeleton", "eggbox", "collapse"):
            assert emit_dot(first, which) == emit_dot(second, which)

    chain = str(INPUTS / "chain_collapse.tsg")
    for cmd in (
        [sys.executable, "-m", "greenskel.cli", "analyze", "--input", chain],
        [sys.executable, "-m", "greenskel.cli", "dot", "--input", chain, "--which", "collapse"],
    ):
        outs = [
            subprocess.run(cmd, capture_output=True, check=True).stdout
            for _ in range(2)
        ]
        assert outs[0] == outs[1] and outs[0]
