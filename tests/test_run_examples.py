import importlib.util
from pathlib import Path

import pytest

from greenskel import ConsistencyError

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "run_examples.py"
FULL_T5 = "states: 5\ngen: 2 3 4 5 1\ngen: 2 1 3 4 5\ngen: 1 1 3 4 5\n"


def load_examples():
    spec = importlib.util.spec_from_file_location("run_examples", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def inputs(tmp_path, name, data):
    (tmp_path / name).write_bytes(data)
    return ["--inputs", str(tmp_path)]


def test_example_inputs_exit_0(capsys):
    assert load_examples().main([]) == 0
    count = len(list((ROOT / "inputs").glob("*.tsg")))
    assert capsys.readouterr().out.endswith(f"{count} input(s), 0 failure(s)\n")


def test_byte_order_mark_is_read_as_the_command_reads_it(tmp_path, capsys):
    text = (ROOT / "inputs" / "chain_collapse.tsg").read_text(encoding="utf-8")
    assert load_examples().main(inputs(tmp_path, "bom.tsg", b"\xef\xbb\xbf" + text.encode())) == 0
    assert "verification: PASS" in capsys.readouterr().out


@pytest.mark.parametrize(
    "data, want",
    [(b"states: 2\ngen: 1 3\n", "error in bad.tsg: line 2: "), (b"\xff\xfe", "error in bad.tsg: ")],
    ids=["parse", "not_utf8"],
)
def test_unreadable_input_exits_2_naming_the_file(tmp_path, capsys, data, want):
    assert load_examples().main(inputs(tmp_path, "bad.tsg", data)) == 2
    assert capsys.readouterr().err.startswith(want)


def test_cap_hit_exits_3_naming_the_stage_and_file(tmp_path, capsys):
    args = inputs(tmp_path, "t5.tsg", FULL_T5.encode()) + ["--max-elements", "10"]
    assert load_examples().main(args) == 3
    assert capsys.readouterr().err.startswith("resource cap in stage enumerate on t5.tsg: ")


def test_internal_failure_exits_4_naming_the_file(tmp_path, monkeypatch, capsys):
    examples = load_examples()

    def broken(*args):
        raise ConsistencyError("planted")

    monkeypatch.setattr(examples, "run", broken)
    assert examples.main(inputs(tmp_path, "t5.tsg", FULL_T5.encode())) == 4
    assert capsys.readouterr().err == "internal verification failure on t5.tsg: planted\n"
