"""Byte-for-byte snapshots of every report the CLI can produce.

Each case is one input document run with the default analyze tasks; its
directory under ``tests/golden/`` holds the text report, the JSON report,
the five DOT renderings and the ``verify`` listing.  The cases are every
``inputs/*.tsg``, every catalog fixture and the full transformation monoid
on four states.

The snapshots pin output across refactors, so regenerate them only for an
intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import json
from pathlib import Path

import pytest

from greenskel import catalog
from greenskel.cli import (
    DOT_KINDS,
    InputDocument,
    emit_dot,
    parse,
    report_data,
    report_text,
    run,
    verification_lines,
)

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
INPUTS = TESTS.parent / "inputs"
TASKS = ("green", "skeleton", "diagram")


def documents():
    """Case name -> input document, in a fixed order."""
    docs = {
        f"input_{path.stem}": parse(path.read_text(encoding="utf-8"))
        for path in sorted(INPUTS.glob("*.tsg"))
    }
    fixtures = dict(catalog.all_fixtures(), full_t4=catalog.full_tmonoid(4))
    for name, ts in fixtures.items():
        gens = tuple(g.one_based for g in ts.generators)
        docs[f"catalog_{name}"] = InputDocument(ts.n, gens, ts.has_identity)
    return docs


def render(doc):
    """File name -> exact text the CLI would print or write for this document."""
    bundle = run(doc, TASKS)
    out = {
        "report.txt": report_text(bundle),
        "report.json": json.dumps(report_data(bundle), indent=2) + "\n",
    }
    for which in DOT_KINDS:
        out[f"{which}.dot"] = emit_dot(bundle, which)
    lines, _ = verification_lines(bundle)
    out["verify.txt"] = "\n".join(lines) + "\n"
    return out


DOCUMENTS = documents()


def test_every_case_has_a_snapshot():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(DOCUMENTS)


@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_output_matches_snapshot(name):
    for filename, text in render(DOCUMENTS[name]).items():
        want = (GOLDEN / name / filename).read_bytes()
        assert text.encode("utf-8") == want, f"{name}/{filename} differs from its snapshot"


def main():
    for name, doc in DOCUMENTS.items():
        case = GOLDEN / name
        case.mkdir(parents=True, exist_ok=True)
        for filename, text in render(doc).items():
            (case / filename).write_bytes(text.encode("utf-8"))


if __name__ == "__main__":
    main()
