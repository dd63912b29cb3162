"""Random audit: verify every law on a stream of random semigroups.

Draws generated transformation semigroups from a seeded RNG, then checks
the diagram of induced maps, the regular-representation isomorphisms, and
functoriality of every admissible quotient.  Stops at the first failure
and prints the offending generators so the case can be replayed: a check
that reports a failed law exits 1, and one that raises an internal
verification error exits 4, as the greenskel command does.
"""

import argparse
import random
import sys

from greenskel import (
    ConsistencyError,
    MalformedPreorderError,
    NotAMorphismError,
    ResourceLimitError,
    Transformation,
    TransformationSemigroup,
    admissible_partitions,
    corollary_check,
    functoriality_check,
    quotient_ts,
    validate,
    verify_diagram,
)


def draw(rng, max_states, max_gens, cap):
    n = rng.randint(1, max_states)
    gens = [
        Transformation(tuple(rng.randrange(n) for _ in range(n)))
        for _ in range(rng.randint(1, max_gens))
    ]
    try:
        return TransformationSemigroup.generate(n, gens, max_elements=cap)
    except ResourceLimitError:
        return None


def describe(ts):
    gens = ", ".join(repr(g) for g in ts.generators)
    return f"n={ts.n} gens=[{gens}]"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=200)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--max-states", type=int, default=4)
    ap.add_argument("--max-gens", type=int, default=3)
    ap.add_argument("--cap", type=int, default=60, help="skip closures above this size")
    args = ap.parse_args(argv)

    rng = random.Random(args.seed)
    checked = skipped = partitions = 0
    largest = 0
    while checked < args.count:
        ts = draw(rng, args.max_states, args.max_gens, args.cap)
        if ts is None:
            skipped += 1
            continue
        checked += 1
        largest = max(largest, len(ts))

        try:
            report = verify_diagram(ts.adjoin_identity())
            if not report.passed:
                print(f"diagram FAIL on {describe(ts)}")
                print(report.to_text())
                return 1
            cor = corollary_check(ts)
            if not cor.passed:
                print(f"representation FAIL on {describe(ts)}")
                print(
                    f"  j_is_iso={cor.j_is_iso} j_found={cor.j_found} "
                    f"l_is_iso={cor.l_is_iso} l_found={cor.l_found}"
                )
                return 1
            for partition in admissible_partitions(ts):
                target, morphism = quotient_ts(ts, partition)
                ok, violation = validate(morphism)
                if not ok or not functoriality_check(morphism).passed:
                    print(f"functoriality FAIL on {describe(ts)} blocks={partition.blocks}")
                    if violation:
                        print(f"  violation: {violation}")
                    return 1
                partitions += 1
        except (ConsistencyError, MalformedPreorderError, NotAMorphismError, AssertionError) as err:
            print(f"FAIL on {describe(ts)}: {err}")
            return 4

    print(
        f"audited {checked} semigroup(s) (seed {args.seed}, {skipped} over cap, "
        f"largest {largest} elements), {partitions} quotient morphism(s): all ok"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
