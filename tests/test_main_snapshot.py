"""Byte-for-byte snapshots of the console entry point ``cli.main``.

Every ``inputs/*.tsg`` runs through every subcommand (``analyze``,
``analyze`` with the regrep and functorial tasks, ``verify``, ``regrep``,
``functorial`` and ``dot --which`` for each kind), with and without
``--extended``, always with ``--out``.  ``tests/golden_main/<input>/``
holds, per case, the exit code (``.exit``), the standard output
(``.stdout``), the standard error (``.stderr``) and the bytes written to
``--out`` (``.out``).  A ``dot`` run without ``--out`` must print exactly
the bytes it writes with it.

The snapshots pin the command line across refactors, so regenerate them
only for an intended output change:

    PYTHONPATH=src python tests/test_main_snapshot.py
"""

import contextlib
import io
import tempfile
from pathlib import Path

import pytest

from greenskel.cli import main

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden_main"
INPUTS = TESTS.parent / "inputs"
DOT_KINDS = ("jposet", "lposet", "skeleton", "eggbox", "collapse")

COMMANDS = {
    "analyze": ["analyze"],
    "analyze_regrep_functorial": ["analyze", "--task", "regrep", "--task", "functorial"],
    "verify": ["verify"],
    "regrep": ["regrep"],
    "functorial": ["functorial"],
    **{f"dot_{which}": ["dot", "--which", which] for which in DOT_KINDS},
}


def cases():
    """(input stem, case name, argv without --input/--out), in a fixed order."""
    for path in sorted(INPUTS.glob("*.tsg")):
        for name, argv in COMMANDS.items():
            yield path.stem, name, argv
            yield path.stem, f"{name}_extended", argv + ["--extended"]


def invoke(argv, with_out):
    """Run ``main``; returns (exit code, stdout, stderr, --out bytes or None)."""
    with tempfile.TemporaryDirectory() as tmp:
        out_path = Path(tmp) / "out"
        if with_out:
            argv = argv + ["--out", str(out_path)]
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        out = out_path.read_bytes() if out_path.exists() else None
    return code, stdout.getvalue(), stderr.getvalue(), out


def render(stem, argv):
    """File suffix -> exact bytes of one case, run with ``--out``."""
    code, stdout, stderr, out = invoke(argv + ["--input", str(INPUTS / f"{stem}.tsg")], True)
    return {
        "exit": f"{code}\n".encode(),
        "stdout": stdout.encode("utf-8"),
        "stderr": stderr.encode("utf-8"),
        "out": out if out is not None else b"",
    }


CASES = list(cases())


def test_every_case_has_a_snapshot():
    want = sorted(
        f"{stem}/{name}.{suffix}"
        for stem, name, _ in CASES
        for suffix in ("exit", "stdout", "stderr", "out")
    )
    have = sorted(str(p.relative_to(GOLDEN)) for p in GOLDEN.glob("*/*"))
    assert have == want


@pytest.mark.parametrize("stem,name,argv", CASES, ids=[f"{s}/{n}" for s, n, _ in CASES])
def test_main_matches_snapshot(stem, name, argv):
    for suffix, data in render(stem, argv).items():
        want = (GOLDEN / stem / f"{name}.{suffix}").read_bytes()
        assert data == want, f"{stem}/{name}.{suffix} differs from its snapshot"
    if argv[0] == "dot":
        code, stdout, stderr, _ = invoke(argv + ["--input", str(INPUTS / f"{stem}.tsg")], False)
        assert stderr == ""
        assert f"{code}\n".encode() == (GOLDEN / stem / f"{name}.exit").read_bytes()
        assert stdout.encode("utf-8") == (GOLDEN / stem / f"{name}.out").read_bytes()


def write_snapshots():
    for stem, name, argv in CASES:
        case = GOLDEN / stem
        case.mkdir(parents=True, exist_ok=True)
        for suffix, data in render(stem, argv).items():
            (case / f"{name}.{suffix}").write_bytes(data)


if __name__ == "__main__":
    write_snapshots()
