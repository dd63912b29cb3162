"""Tests of the benchmark itself: inputs, metric names and the output check.

    python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import docgen  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def gs():
    return run.import_greenskel()


@pytest.mark.parametrize("workload", sorted(docgen.WORKLOADS))
def test_same_seed_gives_byte_identical_documents(gs, workload):
    make = docgen.WORKLOADS[workload]
    first = [doc.text.encode("utf-8") for doc in make(7, ROOT)]
    again = [doc.text.encode("utf-8") for doc in make(7, ROOT)]
    other = [doc.text.encode("utf-8") for doc in make(8, ROOT)]
    assert first == again
    assert first != other


def test_documents_parse_and_counts_match_the_program(gs):
    doc = docgen.analyze_mid(1)[1]
    parsed = gs.cli.parse(doc.text)
    result = workloads.analyze_op(gs, doc, parsed)
    assert workloads.expected_problems("analyze_mid", doc, result) == []


def test_every_metric_name_is_well_formed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics] + [w["name"] for w in spec["workloads"]]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()


def test_traced_run_reports_every_per_layer_metric(gs):
    docs = docgen.audit_small(1, ROOT)[:30]
    checker = workloads.Checker("audit_small", {})
    client = run.Client(gs, "audit_small", docs, checker)
    _, metrics = run.traced_run(client, 0.0, "audit_small", 1)
    assert set(metrics) == set(tracing.metric_units())
    assert all(NAME.fullmatch(name) for name in metrics)
    assert metrics["trace.spans"][0] > 0
    assert 0 < metrics["trace.coverage_share"][0] <= 1
    assert checker.failed == 0
    # the program's functions are restored afterwards
    assert not hasattr(gs.verify_diagram, "__wrapped__")


def test_corrupted_digest_counts_as_a_failed_op(gs):
    docs = docgen.audit_small(1, ROOT)[:4]
    results = [workloads.audit_op(gs, doc, gs.cli.parse(doc.text)) for doc in docs]
    good = {workloads.doc_key(d): workloads.output_digest(r) for d, r in zip(docs, results)}
    bad = dict(good)
    bad[workloads.doc_key(docs[2])] = "0" * 16

    checker = workloads.Checker("audit_small", good)
    run.Client(gs, "audit_small", docs, checker).one_pass()
    assert (checker.attempted, checker.failed, checker.digests_checked) == (4, 0, 4)

    checker = workloads.Checker("audit_small", bad)
    run.Client(gs, "audit_small", docs, checker).one_pass()
    assert (checker.attempted, checker.failed) == (4, 1)
    assert "digest" in checker.messages[0]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "audit_small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
