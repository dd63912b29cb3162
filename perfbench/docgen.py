"""Deterministic `.tsg` documents for the benchmark workloads.

A seed names the same bytes on every machine: all randomness comes from
`random.Random` seeded with a string, which does not depend on hash
randomisation.  Sizes are measured by a small closure written here, not by
greenskel, and travel with each document as the counts the output check
expects.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

DEFAULT_TASKS = ("green", "skeleton", "diagram")
ALL_TASKS = ("green", "skeleton", "diagram", "regrep", "functorial")

# Full transformation monoids: a cycle, a transposition and a rank n-1 map.
T4_GENS = ((2, 3, 4, 1), (2, 1, 3, 4), (1, 1, 3, 4))
T5_GENS = ((2, 3, 4, 5, 1), (2, 1, 3, 4, 5), (1, 1, 3, 4, 5))

# A run times every document many times and keeps its fastest pass, so no
# document may take much more than a second: the machine's speed drifts
# within seconds, and a long op rarely runs all of its length undisturbed.

# analyze_mid: full T4 and two random 6-state monoids per band of |S| take
# the default tasks; the analysis cost grows about as |S|^2, so narrow
# bands keep a pass's cost close to the same from seed to seed.  T4 with
# regrep and functorial takes 3.4 s, so random 4-state monoids of 60-79
# elements take all five tasks instead.
ANALYZE_BANDS = ((150, 190), (150, 190), (300, 340), (300, 340))
ALL_TASKS_COUNT = 2
ALL_TASKS_ELEMENTS = (60, 80)

# skeleton_wide: full T5 and random 7-state semigroups.  Full T6 (8.5 s)
# and random ones of its size (10-20 s) take too long; bounding |S| and
# |I(X)| bounds the subduction cost, which grows with both.
WIDE_COUNT = 10
WIDE_ELEMENTS = (1500, 2000)
WIDE_IMAGE_SETS = (36, 44)

# audit_small: the draws of scripts/audit_random.py, stratified by |S|.
# A draw's cost grows about as |S|^2, and only 3% of draws have more than
# 30 elements, so a plain stream of 200 draws varies in cost by a third
# from seed to seed.  Fixed quotas per size band make every seed's stream
# cost about the same: bands of ten sizes up to 30, then bands of five
# sizes, over-sampled.  Draws of up to 10 elements are under-sampled: each
# costs less than the garbage collection and check around it, and fewer of
# them leave room for more passes.  "over" counts draws past the cap (4%
# of draws).
AUDIT_MAX_STATES = 4
AUDIT_MAX_GENS = 3
AUDIT_CAP = 60
AUDIT_QUOTAS = {0: 82, 1: 13, 2: 10, 3: 3, 4: 2, 5: 2, 6: 2, 7: 2, 8: 2, "over": 8}


def audit_band(elements):
    """Quota band of a draw with |S| = elements (None past the count)."""
    if elements is None or elements > AUDIT_CAP:
        return "over"
    if elements <= 30:
        return (elements - 1) // 10
    return 3 + (elements - 31) // 5


@dataclass(frozen=True)
class Doc:
    """One generated input and what an independent count says about it.

    ``elements`` is |S| (None when the closure passes ``cap``),
    ``reported_elements`` the count the CLI reports (|S^1| for a monoid
    document, else |S|), ``image_sets`` is |I(X)| and
    ``skeleton_classes`` the number of strongly connected components of
    the orbit graph of X, which are exactly the subduction classes.
    """

    name: str
    text: str
    elements: int | None
    reported_elements: int | None
    image_sets: int
    skeleton_classes: int
    tasks: tuple = DEFAULT_TASKS


def closure(n, gens, cap):
    """(|S|, identity in S) for the semigroup the 0-based gens generate.

    Returns (None, False) as soon as more than ``cap`` elements appear.
    """
    seen = set(gens)
    if len(seen) > cap:
        return None, False
    frontier = list(seen)
    while frontier:
        fresh = []
        for u in frontier:
            for g in gens:
                w = tuple(g[x] for x in u)
                if w not in seen:
                    if len(seen) >= cap:
                        return None, False
                    seen.add(w)
                    fresh.append(w)
        frontier = fresh
    return len(seen), tuple(range(n)) in seen


def _apply(mask, g):
    out = 0
    for x, y in enumerate(g):
        if mask >> x & 1:
            out |= 1 << y
    return out


def _orbit(mask, gens):
    seen = {mask}
    frontier = [mask]
    while frontier:
        fresh = []
        for q in frontier:
            for g in gens:
                r = _apply(q, g)
                if r not in seen:
                    seen.add(r)
                    fresh.append(r)
        frontier = fresh
    return seen


def image_orbit(n, gens):
    """(|I(X)|, subduction class count): I(X) is the orbit of X under S^1.

    Mutual subduction forces equal sizes, hence P = Q^s and Q = P^t, so the
    subduction classes are the strongly connected components of the orbit
    graph.
    """
    images = _orbit((1 << n) - 1, gens)
    reach = {q: _orbit(q, gens) for q in images}
    classes = {frozenset(p for p in reach[q] if q in reach[p]) for q in images}
    return len(images), len(classes)


def render(n, gens, monoid=True, extended=False, comment=None):
    """A .tsg document for 0-based generators."""
    lines = [f"# {comment}"] if comment else []
    lines.append(f"states: {n}")
    lines.append(f"monoid: {'true' if monoid else 'false'}")
    lines.append(f"extended: {'true' if extended else 'false'}")
    lines.extend("gen: " + " ".join(str(x + 1) for x in g) for g in gens)
    return "\n".join(lines) + "\n"


def read_tsg(text):
    """(n, 0-based gens, monoid, extended) of a well-formed document."""
    n, gens, monoid, extended = None, [], True, False
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, rest = line.partition(":")
        key, rest = key.strip().lower(), rest.strip()
        if key == "states":
            n = int(rest)
        elif key == "gen":
            gens.append(tuple(int(v) - 1 for v in rest.split()))
        elif key == "monoid":
            monoid = rest.lower() in ("true", "yes", "1")
        elif key == "extended":
            extended = rest.lower() in ("true", "yes", "1")
    return n, tuple(gens), monoid, extended


def make_doc(name, text, cap=10**7, tasks=DEFAULT_TASKS):
    n, gens, monoid, _ = read_tsg(text)
    gens = tuple(dict.fromkeys(gens))
    size, has_one = closure(n, gens, cap)
    mono = None if size is None else size + (0 if has_one else 1)
    images, classes = image_orbit(n, gens)
    return Doc(name, text, size, mono if monoid else size, images, classes, tasks)


def _random_gens(rng, n, count):
    return tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(count))


def _draw_sized(rng, n, lo, hi, image_band=None):
    """Random 2- or 3-generator semigroup on n states with lo <= |S| < hi."""
    while True:
        gens = _random_gens(rng, n, rng.choice((2, 3)))
        size, _ = closure(n, gens, hi - 1)
        if size is None or size < lo:
            continue
        if image_band is not None:
            images = len(_orbit((1 << n) - 1, gens))
            if not image_band[0] <= images <= image_band[1]:
                continue
        return gens


def analyze_mid(seed, root=None):
    rng = random.Random(f"analyze_mid:{seed}")
    docs = [make_doc("t4", render(4, _zero_based(T4_GENS), comment="full T4"))]
    for k, (lo, hi) in enumerate(ANALYZE_BANDS):
        gens = _draw_sized(rng, 6, lo, hi)
        docs.append(make_doc(f"random6_{k}", render(6, gens)))
    for k in range(ALL_TASKS_COUNT):
        gens = _draw_sized(rng, 4, *ALL_TASKS_ELEMENTS)
        docs.append(make_doc(f"random4_all_{k}", render(4, gens), tasks=ALL_TASKS))
    return docs


def skeleton_wide(seed, root=None):
    rng = random.Random(f"skeleton_wide:{seed}")
    docs = [make_doc("t5", render(5, _zero_based(T5_GENS), comment="full T5"))]
    for k in range(WIDE_COUNT):
        gens = _draw_sized(rng, 7, *WIDE_ELEMENTS, image_band=WIDE_IMAGE_SETS)
        docs.append(make_doc(f"random7_{k}", render(7, gens)))
    return docs


def audit_small(seed, root):
    """inputs/*.tsg, the catalog fixtures, then the seeded audit stream.

    Draws over the cap stay in the stream: enumerating them until the cap
    trips is work the audit pays for.  Sizes are counted a little past the
    cap, so the check can tell a draw at the cap from one well over it.
    A draw whose band is full is passed over.
    """
    from greenskel import catalog

    docs = [
        make_doc(f"inputs/{p.name}", p.read_text(encoding="utf-8"))
        for p in sorted((Path(root) / "inputs").glob("*.tsg"))
    ]
    for name, ts in catalog.all_fixtures().items():
        gens = tuple(g.images for g in ts.generators)
        docs.append(make_doc(f"catalog/{name}", render(ts.n, gens, monoid=ts.has_identity)))
    rng = random.Random(f"audit_small:{seed}")
    left = dict(AUDIT_QUOTAS)
    while any(left.values()):
        n = rng.randint(1, AUDIT_MAX_STATES)
        gens = _random_gens(rng, n, rng.randint(1, AUDIT_MAX_GENS))
        monoid = rng.random() < 0.5
        extended = rng.random() < 0.25
        doc = make_doc(f"draw{len(docs)}", render(n, gens, monoid, extended), cap=AUDIT_CAP + 2)
        band = audit_band(doc.elements)
        if left[band]:
            left[band] -= 1
            docs.append(doc)
    return docs


def _zero_based(gens):
    return tuple(tuple(x - 1 for x in g) for g in gens)


WORKLOADS = {
    "analyze_mid": analyze_mid,
    "skeleton_wide": skeleton_wide,
    "audit_small": audit_small,
}
