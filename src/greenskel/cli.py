"""Command line front end: parse a semigroup description, analyze, report, draw.

Input grammar (UTF-8, optional byte-order mark, LF or CRLF, `#` starts a comment):

    states: 3
    gen: 1 3 3        # one generator per line, 1-based images
    gen: 3 1 3
    monoid: true      # optional, default true: adjoin the identity
    extended: false   # optional: also adjoin missing singleton subsets

Subcommands: analyze, dot, verify, regrep, functorial.  Exit codes:
0 all verifications passed, 1 a verification found a counterexample,
2 input error, 3 resource cap exceeded or memory exhausted, 4 internal
verification failure (a broken invariant, reported without a traceback).
"""

import sys
from functools import cached_property

from .core import ResourceLimitError, Transformation, TransformationSemigroup, _read_only
from .green import ConsistencyError, d_classes, eggboxes, green_poset
from .maps import im_bar_S, verify_diagram
from .morphisms import admissible_partitions, functoriality_check, quotient_ts, validate
from .order import MalformedPreorderError, NotAMorphismError, lattice_violation, order_violation
from .regrep import corollary_check
from .skeleton import (
    extended_image_set,
    image_set,
    inclusion_preorder,
    skeleton_poset,
    subduction_preorder,
)

ALL_TASKS = ("green", "skeleton", "diagram", "regrep", "functorial")
DEFAULT_TASKS = ("green", "skeleton", "diagram")
# tasks each subcommand runs; analyze's --task overrides the default
COMMAND_TASKS = {
    "analyze": DEFAULT_TASKS,
    "verify": DEFAULT_TASKS,
    "regrep": ("regrep",),
    "functorial": ("functorial",),
}
DOT_TASKS = {
    "jposet": ("green",),
    "lposet": ("green",),
    "skeleton": ("skeleton",),
    "eggbox": ("green",),
    "collapse": ("green", "skeleton", "diagram"),
}
DOT_KINDS = tuple(DOT_TASKS)


class InputError(ValueError):
    """Malformed input document or unusable command arguments."""


class MissingAnalysisError(RuntimeError):
    """A rendering was requested for an analysis the bundle does not hold."""


class InputDocument:
    """A parsed semigroup description; immutable."""

    __slots__ = ("n", "generators", "monoid", "extended")

    def __init__(self, n, generators, monoid=True, extended=False):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "monoid", monoid)
        object.__setattr__(self, "extended", extended)

    def _fields(self):
        return self.n, self.generators, self.monoid, self.extended

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    __setattr__ = __delattr__ = _read_only


def _parse_bool(value, lineno):
    low = value.strip().lower()
    if low in ("true", "yes", "1"):
        return True
    if low in ("false", "no", "0"):
        return False
    raise InputError(f"line {lineno}: expected true or false, got {value!r}")


def parse(text):
    """Parse a semigroup description; errors carry the offending line number."""
    n = None
    generators = []
    flags = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise InputError(f"line {lineno}: expected 'key: value', got {line!r}")
        key = key.strip().lower()
        rest = rest.strip()
        if n is None and key != "states":
            raise InputError(f"line {lineno}: the first significant line must be 'states: <n>'")
        if key == "states":
            if n is not None:
                raise InputError(f"line {lineno}: 'states' given twice")
            try:
                n = int(rest)
            except ValueError:
                raise InputError(f"line {lineno}: state count {rest!r} is not an integer") from None
            if n < 1:
                raise InputError(f"line {lineno}: state count must be at least 1")
        elif key == "gen":
            entries = rest.split()
            if len(entries) != n:
                raise InputError(f"line {lineno}: expected {n} entries, got {len(entries)}")
            try:
                values = tuple(int(e) for e in entries)
            except ValueError:
                raise InputError(f"line {lineno}: generator entries must be integers") from None
            for v in values:
                if not 1 <= v <= n:
                    raise InputError(f"line {lineno}: entry {v} outside 1..{n}")
            generators.append(values)
        elif key in ("monoid", "extended"):
            if key in flags:
                raise InputError(f"line {lineno}: {key!r} given twice")
            flags[key] = _parse_bool(rest, lineno)
        else:
            raise InputError(f"line {lineno}: unknown key {key!r}")
    if n is None:
        raise InputError("missing 'states:' line")
    if not generators:
        raise InputError("no generators given")
    return InputDocument(n, tuple(generators), flags.get("monoid", True), flags.get("extended", False))


def serialize(doc):
    """Inverse of parse, up to comments and flag defaults."""
    lines = [f"states: {doc.n}"]
    lines.append(f"monoid: {'true' if doc.monoid else 'false'}")
    lines.append(f"extended: {'true' if doc.extended else 'false'}")
    for g in doc.generators:
        lines.append("gen: " + " ".join(str(v) for v in g))
    return "\n".join(lines) + "\n"


def build_semigroup(doc, max_elements=1_000_000):
    gens = [Transformation.from_one_based(g) for g in doc.generators]
    ts = TransformationSemigroup.generate(doc.n, gens, max_elements)
    if not doc.monoid:
        return ts
    m = ts.adjoin_identity()
    if len(m) > max_elements:
        raise ResourceLimitError(
            "enumerate", f"element cap {max_elements} exceeded by adjoining the identity"
        )
    return m


class AnalysisBundle:
    """Results of the requested analyses for one input document.

    ``run`` fills in the results of the tasks it runs; the others stay None.
    """

    def __init__(self, doc, semigroup, monoid, tasks):
        self.doc = doc
        self.semigroup = semigroup
        self.monoid = monoid
        self.tasks = tasks
        self.green = self.dclasses = self.boxes = self.images = self.skeleton = None
        self.diagram = self.corollary = self.functorial = None

    @cached_property
    def lattice(self):
        """``lattice_violation`` of the skeleton, decided on first read and kept.

        None when the skeleton is a lattice.  A run that only draws the
        skeleton never reads it.
        """
        return lattice_violation(self.skeleton)

    @property
    def passed(self):
        if self.diagram is not None and not self.diagram.passed:
            return False
        if self.corollary is not None and not self.corollary.passed:
            return False
        if self.functorial is not None:
            for entry in self.functorial:
                if not entry["valid"] or not entry["report"].passed:
                    return False
        return True


def run(doc, tasks, max_elements=1_000_000):
    """Execute the requested analyses; 'diagram' implies green and skeleton."""
    tasks = set(tasks)
    unknown = tasks - set(ALL_TASKS)
    if unknown:
        raise InputError(f"unknown task {sorted(unknown)[0]!r}")
    if "diagram" in tasks:
        tasks |= {"green", "skeleton"}
    ts = build_semigroup(doc, max_elements)
    m = ts.adjoin_identity()
    bundle = AnalysisBundle(doc, ts, m, tuple(sorted(tasks)))
    if "green" in tasks:
        bundle.green = {kind: green_poset(m, kind) for kind in ("R", "L", "J", "H")}
        bundle.dclasses = d_classes(m)
        bundle.boxes = tuple(eggboxes(m))
    if "skeleton" in tasks:
        bundle.images = extended_image_set(m) if doc.extended else image_set(m)
        bundle.skeleton = skeleton_poset(m, doc.extended)
    if "diagram" in tasks:
        bundle.diagram = verify_diagram(m)
    if "regrep" in tasks:
        bundle.corollary = corollary_check(ts)
    if "functorial" in tasks:
        bundle.functorial = []
        for partition in admissible_partitions(ts):
            target, morphism = quotient_ts(ts, partition)
            ok, violation = validate(morphism)
            entry = {
                "partition": partition,
                "target": target,
                "valid": ok,
                "violation": violation,
                "report": functoriality_check(morphism) if ok else None,
            }
            bundle.functorial.append(entry)
    return bundle


def _one_based_blocks(partition):
    return [[x + 1 for x in block] for block in partition.blocks]


def report_text(bundle):
    """Human-readable summary; one fact per line, deterministic."""
    doc = bundle.doc
    m = bundle.monoid
    lines = [
        f"states: {doc.n}",
        f"generators: {len(doc.generators)}",
        f"monoid: {'true' if doc.monoid else 'false'}",
        f"elements: {len(bundle.semigroup)}",
        f"monoid elements: {len(m)}",
    ]
    if bundle.green is not None:
        counts = {kind: len(bundle.green[kind]) for kind in ("R", "L", "J", "H")}
        lines.append(
            "green classes: "
            + " ".join(f"{kind}={counts[kind]}" for kind in ("R", "L", "J", "H"))
        )
        lines.append(f"D-classes: {len(bundle.dclasses)} (D = J)")
        for i, box in enumerate(bundle.boxes):
            rows, cols = box.shape
            lines.append(
                f"egg-box {i} [{box.members[0]!r}]: {rows}x{cols}, {len(box.members)} element(s)"
            )
    if bundle.skeleton is not None:
        adjoined = len(bundle.images.adjoined)
        suffix = f" (+{adjoined} adjoined singleton(s))" if adjoined else ""
        lines.append(f"image sets: {len(bundle.images)}{suffix}")
        lines.append(f"skeleton classes: {len(bundle.skeleton)}")
        sizes = [len(cls) for cls in bundle.skeleton.classes]
        lines.append("skeleton class sizes: " + " ".join(str(s) for s in sizes))
        violation = bundle.lattice
        if violation is None:
            lines.append("skeleton lattice: yes")
        else:
            kind, i, j = violation
            lines.append(f"skeleton lattice: no (no unique {kind} for classes {i} and {j})")
    if bundle.diagram is not None:
        lines.append("diagram:")
        lines.extend("  " + ln for ln in bundle.diagram.to_text().splitlines())
    if bundle.corollary is not None:
        c = bundle.corollary
        lines += [
            f"regular representation: {len(c.regrep.carrier)} states, {len(c.regrep.base)} elements",
            "J-order vs skeleton isomorphism: " + ("ok" if c.j_is_iso and c.j_found else "FAIL"),
            "L-order vs inclusion isomorphism: " + ("ok" if c.l_is_iso and c.l_found else "FAIL"),
        ]
    if bundle.functorial is not None:
        lines.append(f"admissible partitions: {len(bundle.functorial)}")
        for entry in bundle.functorial:
            blocks = "/".join(
                "".join(str(x) for x in block) for block in _one_based_blocks(entry["partition"])
            )
            verdict = "ok" if entry["valid"] and entry["report"].passed else "FAIL"
            lines.append(
                f"partition {blocks}: target {entry['target'].n} state(s) "
                f"{len(entry['target'])} element(s), {verdict}"
            )
    return "\n".join(lines) + "\n"


def _poset_data(poset, label):
    return {
        "classes": [[label(a) for a in cls] for cls in poset.classes],
        "covers": [list(c) for c in poset.covers],
    }


def report_data(bundle):
    """Structured report with every count and verdict; JSON-serializable."""
    doc = bundle.doc
    data = {
        "input": {
            "states": doc.n,
            "generators": [list(g) for g in doc.generators],
            "monoid": doc.monoid,
            "extended": doc.extended,
        },
        "counts": {
            "elements": len(bundle.semigroup),
            "monoid_elements": len(bundle.monoid),
        },
    }
    if bundle.green is not None:
        data["counts"].update(
            {f"{kind.lower()}_classes": len(bundle.green[kind]) for kind in ("R", "L", "J", "H")}
        )
        data["counts"]["d_classes"] = len(bundle.dclasses)
        data["green"] = {
            kind.lower(): _poset_data(bundle.green[kind], repr) for kind in ("R", "L", "J", "H")
        }
        data["green"]["eggboxes"] = [
            {
                "rows": box.shape[0],
                "cols": box.shape[1],
                "members": len(box.members),
                "col_images": [repr(p) for p in box.col_images],
            }
            for box in bundle.boxes
        ]
    if bundle.skeleton is not None:
        data["counts"]["image_sets"] = len(bundle.images)
        data["counts"]["skeleton_classes"] = len(bundle.skeleton)
        violation = bundle.lattice
        data["skeleton"] = _poset_data(bundle.skeleton, repr)
        data["skeleton"]["adjoined"] = sorted(repr(p) for p in bundle.images.adjoined)
        data["skeleton"]["lattice"] = violation is None
        if violation is not None:
            data["skeleton"]["lattice_violation"] = {
                "kind": violation[0],
                "classes": [violation[1], violation[2]],
            }
    if bundle.diagram is not None:
        data["diagram"] = bundle.diagram.to_dict()
    if bundle.corollary is not None:
        c = bundle.corollary
        data["regrep"] = {
            "states": len(c.regrep.carrier),
            "elements": len(c.regrep.base),
            "j_map": list(c.j_map),
            "l_map": list(c.l_map),
            "j_is_iso": c.j_is_iso,
            "l_is_iso": c.l_is_iso,
            "j_found": c.j_found,
            "l_found": c.l_found,
            "passed": c.passed,
        }
    if bundle.functorial is not None:
        data["functorial"] = [
            {
                "blocks": _one_based_blocks(entry["partition"]),
                "target_states": entry["target"].n,
                "target_elements": len(entry["target"]),
                "valid": entry["valid"],
                "report": entry["report"].to_dict() if entry["report"] else None,
            }
            for entry in bundle.functorial
        ]
    data["passed"] = bundle.passed
    return data


def _dot_poset(poset, labels, name):
    lines = [f"digraph {name} {{", "  rankdir=BT;", "  node [shape=box];"]
    for i in range(len(poset)):
        lines.append(f'  c{i} [label="{labels[i]}"];')
    for lo, hi in poset.covers:
        lines.append(f"  c{lo} -> c{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_collapse(bundle):
    """J-class Hasse diagram with a filled cluster per multi-class skeleton fiber."""
    m = bundle.monoid
    jq = green_poset(m, "J")
    fibers = im_bar_S(m).fibers()
    lines = ["digraph collapse {", "  rankdir=BT;", "  node [shape=box];"]
    clustered = set()
    for target, classes in enumerate(fibers):
        if len(classes) < 2:
            continue
        lines.append(f"  subgraph cluster_{target} {{")
        lines.append("    style=filled;")
        lines.append("    color=lightgrey;")
        for ci in classes:
            lines.append(f'    c{ci} [label="{jq.classes[ci][0]!r}"];')
            clustered.add(ci)
        lines.append("  }")
    for ci in range(len(jq)):
        if ci not in clustered:
            lines.append(f'  c{ci} [label="{jq.classes[ci][0]!r}"];')
    for lo, hi in jq.covers:
        lines.append(f"  c{lo} -> c{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_eggboxes(bundle):
    """One HTML-like table per D-class: column images on top, idempotent cells shaded."""
    m = bundle.monoid
    jq = green_poset(m, "J")
    lines = ["digraph eggbox {", "  rankdir=BT;", "  node [shape=plaintext];"]
    for i, box in enumerate(bundle.boxes):
        rows = ['<TABLE BORDER="0" CELLBORDER="1" CELLSPACING="0">']
        header = "".join(f'<TD BORDER="0">{p!r}</TD>' for p in box.col_images)
        rows.append(f"<TR>{header}</TR>")
        for r in range(box.shape[0]):
            cells = []
            for c in range(box.shape[1]):
                members = box.cells[r][c]
                flags = box.idempotent[r][c]
                text = " ".join(
                    f"{t!r}*" if star else f"{t!r}" for t, star in zip(members, flags)
                )
                shade = ' BGCOLOR="lightgrey"' if any(flags) else ""
                cells.append(f"<TD{shade}>{text}</TD>")
            rows.append("<TR>" + "".join(cells) + "</TR>")
        rows.append("</TABLE>")
        lines.append(f"  d{i} [label=<{''.join(rows)}>];")
    for lo, hi in jq.covers:
        lines.append(f"  d{lo} -> d{hi};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def emit_dot(bundle, which):
    """Render one of the bundle's structures as deterministic DOT text."""
    if which in ("jposet", "lposet"):
        if bundle.green is None:
            raise MissingAnalysisError(f"{which} rendering needs the green task")
        q = bundle.green[which[0].upper()]
        return _dot_poset(q, [repr(cls[0]) for cls in q.classes], which)
    if which == "skeleton":
        if bundle.skeleton is None:
            raise MissingAnalysisError("skeleton rendering needs the skeleton task")
        labels = [
            "\\n".join(repr(p) for p in cls) for cls in bundle.skeleton.classes
        ]
        return _dot_poset(bundle.skeleton, labels, "skeleton")
    if which == "eggbox":
        if bundle.boxes is None:
            raise MissingAnalysisError("eggbox rendering needs the green task")
        return _dot_eggboxes(bundle)
    if which == "collapse":
        if bundle.green is None or bundle.skeleton is None:
            raise MissingAnalysisError("collapse rendering needs green and skeleton tasks")
        return _dot_collapse(bundle)
    raise InputError(f"unknown dot kind {which!r}")


def verification_lines(bundle):
    """One line per verified law; returns (lines, all_ok)."""
    m = bundle.monoid
    lines = []
    checks = []

    checks.append(("im respects both orders", all(bundle.diagram.arrows["im"].values())))
    # a bundle with a diagram means run() built subduction_preorder(m), and
    # a Preorder that is not reflexive and transitive cannot be built
    checks.append(("subduction reflexive and transitive", True))
    same_size = all(
        len({len(p) for p in cls}) == 1 for cls in skeleton_poset(m).classes
    )
    checks.append(("mutual subduction implies equal size", same_size))
    # inclusion has one class per subset of I(X), so its class rows are its item rows
    subd = subduction_preorder(m)
    embeds = order_violation(inclusion_preorder(m).class_rows, subd.class_rows, subd.class_of) is None
    checks.append(("inclusion embeds into subduction", embeds))
    sq = skeleton_poset(m)
    full_class = sq.item_class[image_set(m).position[(1 << m.n) - 1]]
    checks.append(("full state set is the unique skeleton maximum", sq.maximal() == (full_class,)))
    # run() also built the memoised d_classes(m), which raises
    # ConsistencyError unless the D and J partitions agree
    checks.append(("D partition equals J partition", True))
    checks.append(("diagram of induced maps", bundle.diagram.passed))

    all_ok = True
    for name, good in checks:
        lines.append(f"{name}: {'ok' if good else 'FAIL'}")
        all_ok = all_ok and good
    lines.append(f"verification: {'PASS' if all_ok else 'FAIL'}")
    return lines, all_ok


def _write_out(path, text):
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as err:
        raise InputError(f"cannot write {path}: {err}") from None


def main(argv=None):
    import argparse

    parser = argparse.ArgumentParser(
        prog="greenskel",
        description="Green's class orders, subduction skeletons, and their morphisms "
        "for finite transformation semigroups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--input", required=True, help="semigroup description file")
        p.add_argument("--max-elements", type=int, default=1_000_000, metavar="K")
        p.add_argument("--extended", action="store_true", help="adjoin missing singletons")
        p.add_argument("--out", help="also write the structured report (or DOT) here")

    p_analyze = sub.add_parser("analyze", help="run analyses and print a summary")
    common(p_analyze)
    p_analyze.add_argument(
        "--task", action="append", choices=ALL_TASKS, help="repeatable; default green+skeleton+diagram"
    )
    p_dot = sub.add_parser("dot", help="emit a DOT rendering")
    common(p_dot)
    p_dot.add_argument("--which", required=True, choices=DOT_KINDS)
    for name, helptext in (
        ("verify", "verify every law on this input"),
        ("regrep", "check the right regular representation isomorphisms"),
        ("functorial", "check every admissible quotient morphism"),
    ):
        common(sub.add_parser(name, help=helptext))

    args = parser.parse_args(argv)
    try:
        if args.max_elements < 1:
            raise InputError(f"--max-elements must be at least 1, got {args.max_elements}")
        try:
            with open(args.input, encoding="utf-8-sig") as fh:
                text = fh.read()
        except OSError as err:
            raise InputError(f"cannot read {args.input}: {err}") from None
        except UnicodeDecodeError as err:
            raise InputError(f"{args.input} is not UTF-8: {err}") from None
        doc = parse(text)
        if args.extended:
            doc = InputDocument(doc.n, doc.generators, doc.monoid, True)
        return _dispatch(args, doc)
    except InputError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except ResourceLimitError as err:
        print(f"resource cap in stage {err.stage}: {err}", file=sys.stderr)
        return 3
    except MemoryError:
        print("resource cap in stage memory: out of memory", file=sys.stderr)
        return 3
    except (ConsistencyError, MalformedPreorderError, NotAMorphismError, AssertionError) as err:
        print(f"internal verification failure: {err}", file=sys.stderr)
        return 4


def _dispatch(args, doc):
    if args.command == "dot":
        bundle = run(doc, DOT_TASKS[args.which], args.max_elements)
        text = emit_dot(bundle, args.which)
        if args.out:
            _write_out(args.out, text)
        else:
            sys.stdout.write(text)
        return 0
    bundle = run(doc, getattr(args, "task", None) or COMMAND_TASKS[args.command], args.max_elements)
    if args.command == "verify":
        lines, ok = verification_lines(bundle)
        sys.stdout.write("\n".join(lines) + "\n")
    else:
        ok = bundle.passed
        sys.stdout.write(report_text(bundle))
    if args.out:
        import json

        _write_out(args.out, json.dumps(report_data(bundle), indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
