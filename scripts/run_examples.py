"""Analyze and verify every semigroup description under inputs/.

Prints each report, runs the full verification battery, and optionally
dumps DOT renderings next to a chosen directory.  Exit codes are those of
the greenskel command: 0 every input passes, 1 an input fails
verification, 2 an input cannot be read or parsed, 3 a resource cap is
hit, 4 an internal verification failure.  The first error stops the run,
and its message names the file.
"""

import argparse
import sys
from pathlib import Path

from greenskel import ConsistencyError, MalformedPreorderError, NotAMorphismError, ResourceLimitError
from greenskel.cli import (
    DOT_KINDS,
    InputError,
    emit_dot,
    parse,
    report_text,
    run,
    verification_lines,
)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--inputs",
        default=Path(__file__).resolve().parent.parent / "inputs",
        type=Path,
        help="directory of .tsg files",
    )
    ap.add_argument("--dot-dir", type=Path, help="also write every DOT rendering here")
    ap.add_argument("--max-elements", type=int, default=1_000_000)
    args = ap.parse_args(argv)

    paths = sorted(args.inputs.glob("*.tsg"))
    if not paths:
        print(f"no .tsg files under {args.inputs}", file=sys.stderr)
        return 2

    failures = 0
    for path in paths:
        print(f"== {path.name}")
        try:
            doc = parse(path.read_text(encoding="utf-8-sig"))
            bundle = run(doc, ("green", "skeleton", "diagram"), args.max_elements)
            sys.stdout.write(report_text(bundle))
            lines, ok = verification_lines(bundle)
            sys.stdout.write("\n".join(lines) + "\n\n")
            failures += 0 if ok else 1
            if args.dot_dir:
                args.dot_dir.mkdir(parents=True, exist_ok=True)
                for which in DOT_KINDS:
                    out = args.dot_dir / f"{path.stem}.{which}.dot"
                    out.write_text(emit_dot(bundle, which), encoding="utf-8")
        except (InputError, OSError, UnicodeError) as err:
            print(f"error in {path.name}: {err}", file=sys.stderr)
            return 2
        except ResourceLimitError as err:
            print(f"resource cap in stage {err.stage} on {path.name}: {err}", file=sys.stderr)
            return 3
        except MemoryError:
            print(f"resource cap in stage memory on {path.name}: out of memory", file=sys.stderr)
            return 3
        except (ConsistencyError, MalformedPreorderError, NotAMorphismError, AssertionError) as err:
            print(f"internal verification failure on {path.name}: {err}", file=sys.stderr)
            return 4

    print(f"{len(paths)} input(s), {failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
