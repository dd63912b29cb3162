"""What each workload does with one document, and how its output is checked.

An op takes the greenskel package and one parsed document and returns what
the program produced; it is the only code inside the timed region.  The
check then runs untimed: verdicts must pass, sizes must match the counts
`docgen` made independently, and where this commit's digest of the
document's output is on record, the output must hash to it.
"""

from __future__ import annotations

import hashlib
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import docgen

DOT_KINDS = ("jposet", "lposet", "skeleton", "eggbox", "collapse")
DIGESTS = Path(__file__).resolve().parent / "digests.json"


def short_hash(data):
    return hashlib.sha256(data).hexdigest()[:16]


def doc_key(doc):
    return short_hash(doc.text.encode("utf-8"))


@dataclass
class Result:
    """Outputs of one op: the bytes to digest and the facts to check."""

    outputs: list
    facts: dict


# -- ops: the timed part ---------------------------------------------------------


def analyze_op(gs, doc, parsed):
    cli = gs.cli
    bundle = cli.run(parsed, doc.tasks)
    text = cli.report_text(bundle)
    data = cli.report_data(bundle)
    report = json.dumps(data, indent=2) + "\n"
    dots = [cli.emit_dot(bundle, which) for which in DOT_KINDS]
    return Result(
        [text, report, *dots],
        {
            "passed": bundle.passed and data["passed"],
            "reported_elements": len(bundle.semigroup),
            "image_sets": len(bundle.images),
            "skeleton_classes": len(bundle.skeleton),
        },
    )


def skeleton_op(gs, doc, parsed):
    cli = gs.cli
    bundle = cli.run(parsed, ("skeleton",))
    dot = cli.emit_dot(bundle, "skeleton")
    return Result(
        [dot],
        {
            "passed": bundle.passed,
            "reported_elements": len(bundle.semigroup),
            "image_sets": len(bundle.images),
            "skeleton_classes": len(bundle.skeleton),
        },
    )


def audit_op(gs, doc, parsed):
    """verify_diagram, corollary_check and every admissible quotient, as the audit does."""
    gens = [gs.Transformation.from_one_based(g) for g in parsed.generators]
    try:
        ts = gs.TransformationSemigroup.generate(parsed.n, gens, docgen.AUDIT_CAP)
    except gs.ResourceLimitError:
        return Result(["over cap"], {"over_cap": True})
    elements = len(ts)
    if parsed.monoid:
        ts = ts.adjoin_identity()
    diagram = gs.verify_diagram(ts.adjoin_identity())
    corollary = gs.corollary_check(ts)
    quotients = []
    for partition in gs.admissible_partitions(ts):
        _, morphism = gs.quotient_ts(ts, partition)
        ok, violation = gs.validate(morphism)
        report = gs.functoriality_check(morphism) if ok else None
        quotients.append((partition.blocks, ok, violation, report))
    skeleton = gs.skeleton_poset(ts, parsed.extended)
    lattice = gs.lattice_violation(skeleton)
    summary = {
        "diagram": diagram.to_dict(),
        "regrep": [corollary.j_map, corollary.l_map, corollary.passed],
        "quotients": [
            [blocks, ok, violation, report.to_dict() if report else None]
            for blocks, ok, violation, report in quotients
        ],
        "skeleton": [len(skeleton), lattice],
    }
    passed = (
        diagram.passed
        and corollary.passed
        and all(ok and report.passed for _, ok, _, report in quotients)
    )
    return Result(
        [json.dumps(summary, sort_keys=True, default=repr)],
        {
            "over_cap": False,
            "passed": passed,
            "elements": elements,
            "skeleton_classes": None if parsed.extended else len(skeleton),
        },
    )


OPS = {
    "analyze_mid": analyze_op,
    "skeleton_wide": skeleton_op,
    "audit_small": audit_op,
}


# -- checks: untimed ------------------------------------------------------------


def expected_problems(workload, doc, result):
    """Ways the op's facts disagree with the verdicts and independent counts."""
    facts = result.facts
    if workload == "audit_small":
        size = doc.elements
        # The cap trips when |S| > cap; draws right at the cap may go
        # either way, so that counting S^1 against the cap stays legal.
        if facts["over_cap"]:
            if size is not None and size < docgen.AUDIT_CAP:
                return [f"{size} elements reported over the cap"]
            return []
        if size is None or size > docgen.AUDIT_CAP + 1:
            return ["draw over the cap was enumerated"]
        problems = []
        if not facts["passed"]:
            problems.append("a verdict failed")
        if facts["elements"] != size:
            problems.append(f"{facts['elements']} elements, expected {size}")
        if facts["skeleton_classes"] is not None and facts["skeleton_classes"] != doc.skeleton_classes:
            problems.append("skeleton class count differs from the orbit graph")
        return problems
    problems = []
    if not facts["passed"]:
        problems.append("a verdict failed")
    for key in ("reported_elements", "image_sets", "skeleton_classes"):
        if facts[key] != getattr(doc, key):
            problems.append(f"{key} {facts[key]}, expected {getattr(doc, key)}")
    return problems


def output_digest(result):
    h = hashlib.sha256()
    for text in result.outputs:
        h.update(text.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()[:16]


def load_digests(workload):
    """Recorded output digest per document key, for one workload."""
    if not DIGESTS.exists():
        return {}
    return json.loads(DIGESTS.read_text(encoding="utf-8"))["outputs"].get(workload, {})


class Checker:
    """Counts attempted and failed ops; a failure never stops the run."""

    def __init__(self, workload, digests):
        self.workload = workload
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.digests_checked = 0
        self.messages = []

    def record(self, doc, result, error):
        self.attempted += 1
        if error is not None:
            problems = [f"{type(error).__name__}: {error}"]
        else:
            problems = expected_problems(self.workload, doc, result)
            want = self.digests.get(doc_key(doc))
            if want is not None:
                self.digests_checked += 1
                if output_digest(result) != want:
                    problems.append("output digest differs from the recorded one")
        if problems:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{doc.name}: {'; '.join(problems)}")
                print(f"FAILED {self.messages[-1]}", file=sys.stderr)
        return not problems
