import random
import sys

import pytest
from hypothesis import strategies as st

from greenskel import (
    Preorder,
    StateSubset,
    Transformation,
    TransformationSemigroup,
    extended_image_set,
    green_preorder,
    image_set,
    inclusion_preorder,
    subduction_preorder,
)
from greenskel import catalog, cli, core, green, maps, morphisms, order, regrep, skeleton

import naive

# one to three generators on one to four states
generator_lists = st.integers(1, 4).flatmap(
    lambda n: st.lists(
        st.tuples(*[st.integers(0, n - 1)] * n).map(Transformation), min_size=1, max_size=3
    )
)


@pytest.fixture(scope="session")
def fixtures():
    return catalog.all_fixtures()


def random_semigroup(rng, max_states=4, max_gens=3, cap=200):
    """A random generated semigroup; None when the closure is too large."""
    n = rng.randint(1, max_states)
    k = rng.randint(1, max_gens)
    gens = [
        Transformation(tuple(rng.randrange(n) for _ in range(n))) for _ in range(k)
    ]
    try:
        return TransformationSemigroup.generate(n, gens, max_elements=cap)
    except Exception:
        return None


def sample_semigroups(seed, count, max_states=4, max_gens=3, monoid_cap=60):
    """Deterministic corpus of semigroups with |S^1| below the cap."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        ts = random_semigroup(rng, max_states, max_gens, cap=monoid_cap + 1)
        if ts is None:
            continue
        if len(ts.adjoin_identity()) <= monoid_cap:
            out.append(ts)
    return out


def assert_image_set_matches_scan(m):
    """The subsets of ``image_set(m)`` are the element scan's.

    The subsets are read before anything else, so on a generated ``m`` they
    come from the orbit alone, with no element built.
    """
    iset = image_set(m)
    subsets = iset.subsets
    origin = naive.image_set_origin(m)
    assert subsets == tuple(sorted(origin, key=StateSubset.sort_key))
    assert all(P in iset for P in origin)


def count_apply_mask(monkeypatch):
    """Count the library's calls of ``apply_mask`` from here on.

    Every module that imported it gets a counting stand-in.  Returns a
    one-item list that holds the count.
    """
    calls = [0]
    real = core.apply_mask

    def counted(mask, images):
        calls[0] += 1
        return real(mask, images)

    for module in (cli, core, green, maps, morphisms, order, regrep, skeleton):
        if getattr(module, "apply_mask", None) is real:
            monkeypatch.setattr(module, "apply_mask", counted)
    return calls


def assert_preorder_laws(p):
    """The item rows of ``p`` are reflexive and transitive, on ``p``'s classes.

    ``naive.equal_row_classes`` decides the laws item by item, apart from
    the check on the classes that built ``p``.
    """
    assert naive.equal_row_classes(p.items, p.rows) == (list(p.class_of), p.class_rows)


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


def assert_green_matches_dense_path(ts):
    """Each Green preorder of a fresh copy of ``ts`` equals the dense oracle's.

    The oracle closes the reversed Cayley rows with the bit-row Tarjan
    (``naive.green_rows``).  Its quotient is ``naive.quotient``, whose cover
    search is cubic in the classes; above 300 elements the classes and
    class rows come from ``naive.equal_row_classes`` and the covers from
    the library's quotient of them.  Compared: classes, class rows, covers,
    the class of every item and the preorder's class list and class rows,
    then the item rows, which nothing before derives.
    """
    m = TransformationSemigroup(ts.n, ts.generators, ts.elements).adjoin_identity()
    for kind in ("R", "L", "J", "H"):
        rows = naive.green_rows(m, kind)
        if len(rows) <= 300:
            want = naive.quotient(m.elements, rows)
        else:
            q = Preorder(m.elements, *naive.equal_row_classes(m.elements, rows)).poset
            want = q.classes, q.rows, q.covers, naive.class_of(q)
        p = green_preorder(m, kind)
        got = p.poset
        assert (got.classes, got.rows, got.covers, naive.class_of(got)) == want, (ts, kind)
        assert (p.class_of, p.class_rows) == ([want[3][t] for t in m.elements], want[1]), (ts, kind)
        assert "rows" not in vars(p)
        assert p.rows == rows, (ts, kind)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # repeat the acceptance scoreboard where captured stdout cannot hide it
    mod = sys.modules.get("test_acceptance")
    if mod is not None and getattr(mod, "RESULTS", None):
        terminalreporter.section("acceptance criteria")
        for line in mod.RESULTS:
            terminalreporter.write_line(line)
