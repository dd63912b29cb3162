import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from greenskel import (
    ConsistencyError,
    MalformedPreorderError,
    NotAMorphismError,
    Preorder,
    ResourceLimitError,
    Transformation,
    green_preorder,
    inclusion_preorder,
    subduction_preorder,
    verify_diagram,
)
from greenskel.catalog import all_fixtures
from greenskel.cli import (
    ALL_TASKS,
    DEFAULT_TASKS,
    DOT_KINDS,
    AnalysisBundle,
    InputDocument,
    InputError,
    MissingAnalysisError,
    build_semigroup,
    emit_dot,
    parse,
    report_data,
    report_text,
    run,
    serialize,
    verification_lines,
)
import greenskel.cli as cli

import naive

INPUTS = Path(__file__).resolve().parent.parent / "inputs"
CHAIN = str(INPUTS / "chain_collapse.tsg")
NONLATTICE = str(INPUTS / "nonlattice.tsg")
T6 = "states: 6\ngen: 2 3 4 5 6 1\ngen: 2 1 3 4 5 6\ngen: 1 1 3 4 5 6\n"


def read(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


@st.composite
def documents(draw):
    n = draw(st.integers(1, 5))
    gens = tuple(
        tuple(draw(st.integers(1, n)) for _ in range(n))
        for _ in range(draw(st.integers(1, 3)))
    )
    return InputDocument(n, gens, draw(st.booleans()), draw(st.booleans()))


def input_lines():
    """Arbitrary lines, and lines with a known key and an arbitrary or numeric value."""
    value = st.one_of(
        st.text(max_size=12),
        st.lists(st.integers(-3, 12).map(str), max_size=6).map(" ".join),
    )
    keyed = st.builds(
        "{}:{}".format, st.sampled_from(["states", "gen", "monoid", "extended", "Gen ", ""]), value
    )
    return st.lists(st.one_of(st.text(max_size=20), keyed), max_size=8)


@st.composite
def embedding_cases(draw):
    """A partial order with one class per item, and a preorder on the same items.

    The first stands for inclusion and the second for subduction; about
    half the time the second holds the first's pairs, so both verdicts come up.
    """
    n = draw(st.integers(1, 6))
    pairs = st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=10)
    upward = [(min(a, b), max(a, b)) for a, b in draw(pairs)]
    other = draw(pairs) + (upward if draw(st.booleans()) else [])

    def closed(edges):
        rows = [0] * n
        for a, b in edges:
            rows[a] |= 1 << b
        return naive.transitive_closure_rows(rows)

    return naive.preorder(range(n), closed(upward)), naive.preorder(range(n), closed(other))


def embeds_by_items(incl, subd):
    """Is every item row of ``incl`` inside the same item's row of ``subd``?"""
    rows = zip(
        naive.class_item_rows(incl.class_of, incl.class_rows),
        naive.class_item_rows(subd.class_of, subd.class_rows),
    )
    return all(a & ~b == 0 for a, b in rows)


def embedding_line(bundle, incl=None, subd=None):
    """The "inclusion embeds into subduction" verdict of ``verification_lines``, with the preorders it reads replaced."""
    with pytest.MonkeyPatch.context() as mp:
        if incl is not None:
            mp.setattr(cli, "inclusion_preorder", lambda m: incl)
        if subd is not None:
            mp.setattr(cli, "subduction_preorder", lambda m: subd)
        lines, _ = verification_lines(bundle)
    verdicts = [line for line in lines if line.startswith("inclusion embeds into subduction: ")]
    assert len(verdicts) == 1
    return verdicts[0].endswith(": ok")


def discrete(items):
    return Preorder(items, list(range(len(items))), [1 << i for i in range(len(items))])


class TestParse:
    def test_example_inputs_parse(self):
        for path in sorted(INPUTS.glob("*.tsg")):
            doc = parse(read(path))
            assert doc.n >= 1 and doc.generators

    def test_comments_blanks_crlf(self):
        text = "# header\r\nstates: 3\r\n\r\ngen: 1 3 3  # inline\r\ngen: 3 1 3\r\n"
        doc = parse(text)
        assert doc == InputDocument(3, ((1, 3, 3), (3, 1, 3)), True, False)

    def test_flags(self):
        doc = parse("states: 2\nmonoid: false\nextended: yes\ngen: 1 1\n")
        assert not doc.monoid and doc.extended

    @given(documents())
    def test_round_trip(self, doc):
        assert parse(serialize(doc)) == doc

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("gen: 1 1\nstates: 2\n", "line 1: the first significant line"),
            ("states: 2\nstates: 2\n", "line 2: 'states' given twice"),
            ("states: x\n", "line 1: state count 'x' is not an integer"),
            ("states: 0\n", "line 1: state count must be at least 1"),
            ("states: 2\ngen: 1\n", "line 2: expected 2 entries, got 1"),
            ("states: 2\ngen: 1 q\n", "line 2: generator entries must be integers"),
            ("states: 2\ngen: 1 3\n", "line 2: entry 3 outside 1..2"),
            ("states: 2\nrank: 4\n", "line 2: unknown key 'rank'"),
            ("states: 2\nmonoid: maybe\ngen: 1 1\n", "line 2: expected true or false"),
            ("states: 2\njust words\n", "line 2: expected 'key: value'"),
            ("states: 2\nmonoid: true\ngen: 1 1\nmonoid: false\n", "line 4: 'monoid' given twice"),
            ("states: 2\nextended: no\nextended: no\ngen: 1 1\n", "line 3: 'extended' given twice"),
            ("# nothing\n", "missing 'states:'"),
            ("states: 2\n", "no generators"),
        ],
    )
    def test_errors_carry_line_numbers(self, text, fragment):
        with pytest.raises(InputError) as err:
            parse(text)
        assert fragment in str(err.value)

    @given(input_lines())
    @settings(max_examples=300)
    @example(["states: 2", "gen: 1 2", "gen: 2 0"])
    @example(["states: 1" + "0" * 5000])
    @example(["states: \u0663", "gen: 1 2 3"])
    def test_only_input_error_escapes(self, lines):
        try:
            doc = parse("\n".join(lines))
        except InputError:
            return
        assert doc.n >= 1 and doc.generators
        assert all(len(g) == doc.n and all(1 <= v <= doc.n for v in g) for g in doc.generators)

    def test_input_error_is_value_error(self):
        assert issubclass(InputError, ValueError)


class TestRun:
    def test_monoid_flag(self):
        doc = parse(read(CHAIN))
        assert len(build_semigroup(doc)) == 4
        bare = InputDocument(doc.n, doc.generators, monoid=False)
        assert len(build_semigroup(bare)) == 3
        bundle = run(bare, ("green",))
        assert len(bundle.semigroup) == 3 and len(bundle.monoid) == 4

    def test_diagram_implies_green_and_skeleton(self):
        bundle = run(parse(read(CHAIN)), ("diagram",))
        assert bundle.green is not None and bundle.skeleton is not None
        assert bundle.tasks == ("diagram", "green", "skeleton")

    def test_unknown_task(self):
        with pytest.raises(InputError, match="unknown task"):
            run(parse(read(CHAIN)), ("green", "cohomology"))

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            run(parse(read(NONLATTICE)), ("green",), max_elements=5)

    def test_nonlattice_counts(self):
        bundle = run(parse(read(NONLATTICE)), ("green", "skeleton", "diagram"))
        data = report_data(bundle)
        assert data["counts"]["monoid_elements"] == 31
        assert data["counts"]["image_sets"] == 16
        assert data["counts"]["j_classes"] == 13
        assert data["counts"]["skeleton_classes"] == 9
        assert data["skeleton"]["lattice"] is False
        assert data["skeleton"]["lattice_violation"] == {
            "kind": "join",
            "classes": [1, 7],
        }
        assert data["passed"] is True

    def test_text_and_data_agree(self):
        bundle = run(parse(read(NONLATTICE)), ("green", "skeleton", "diagram"))
        text = report_text(bundle)
        data = report_data(bundle)
        counts = data["counts"]
        assert f"monoid elements: {counts['monoid_elements']}" in text
        assert (
            f"green classes: R={counts['r_classes']} L={counts['l_classes']} "
            f"J={counts['j_classes']} H={counts['h_classes']}" in text
        )
        assert f"image sets: {counts['image_sets']}" in text
        assert f"skeleton classes: {counts['skeleton_classes']}" in text
        assert "skeleton lattice: no (no unique join for classes 1 and 7)" in text
        assert "diagram: PASS" in text
        json.dumps(data)

    def test_chain_text(self):
        bundle = run(parse(read(CHAIN)), ("green", "skeleton", "diagram"))
        text = report_text(bundle)
        for line in (
            "green classes: R=4 L=4 J=4 H=4",
            "D-classes: 4 (D = J)",
            "image sets: 3",
            "skeleton classes: 3",
            "skeleton lattice: yes",
        ):
            assert line in text

    def test_regrep_task(self):
        bundle = run(parse(read(CHAIN)), ("regrep",))
        assert bundle.corollary.passed
        data = report_data(bundle)
        assert data["regrep"]["states"] == 4 and data["regrep"]["passed"] is True

    def test_functorial_task(self):
        bundle = run(parse(read(CHAIN)), ("functorial",))
        assert len(bundle.functorial) == 3
        assert all(e["valid"] and e["report"].passed for e in bundle.functorial)
        text = report_text(bundle)
        assert "admissible partitions: 3" in text
        assert "partition 13/2: target 2 state(s) 2 element(s), ok" in text

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("monoid", [True, False])
    @pytest.mark.parametrize(
        "text",
        ["states: 6\ngen: 2 3 4 5 6 1\ngen: 2 1 3 4 5 6\ngen: 1 1 3 4 5 6\n", read(CHAIN)],
        ids=["full_t6", "chain_collapse"],
    )
    def test_skeleton_task_builds_no_element(self, text, monoid, extended):
        # the closure's set, the orbit of X and the subduction closure are
        # all the skeleton needs: neither S nor S^1 builds its elements
        doc = parse(text)
        bundle = run(InputDocument(doc.n, doc.generators, monoid, extended), ("skeleton",))
        emit_dot(bundle, "skeleton")
        report_text(bundle)
        report_data(bundle)
        assert (bundle.semigroup is bundle.monoid) == bundle.semigroup.has_identity
        for ts in (bundle.semigroup, bundle.monoid):
            assert "elements" not in vars(ts) and "_index" not in vars(ts)

    @pytest.mark.parametrize(
        "text",
        ["states: 5\ngen: 2 3 4 5 1\ngen: 2 1 3 4 5\ngen: 1 1 3 4 5\n", read(CHAIN)],
        ids=["full_t5", "chain_collapse"],
    )
    def test_default_tasks_take_no_image_or_idempotency_per_element(self, text, monkeypatch):
        # images and idempotency come from keys and image tuples; an
        # element's image() is taken only for an egg-box column, one per L-class
        calls = {"image": 0, "is_idempotent": 0}
        for name in calls:
            original = getattr(Transformation, name)

            def counted(self, _name=name, _original=original):
                calls[_name] += 1
                return _original(self)

            monkeypatch.setattr(Transformation, name, counted)
        bundle = run(parse(text), DEFAULT_TASKS)
        for which in DOT_KINDS:
            emit_dot(bundle, which)
        report_text(bundle)
        report_data(bundle)
        verification_lines(bundle)
        assert calls["is_idempotent"] == 0
        assert 0 < calls["image"] <= len(bundle.green["L"])

    @pytest.mark.parametrize("path", [CHAIN, NONLATTICE])
    def test_lattice_verdict_decided_once(self, path, monkeypatch):
        calls = []
        original = cli.lattice_violation
        monkeypatch.setattr(cli, "lattice_violation", lambda p: calls.append(p) or original(p))
        bundle = run(parse(read(path)), DEFAULT_TASKS)
        emit_dot(bundle, "skeleton")
        assert calls == []
        text, data = report_text(bundle), report_data(bundle)
        assert calls == [bundle.skeleton]
        assert ("skeleton lattice: yes" in text) == data["skeleton"]["lattice"]

    @pytest.mark.parametrize("path", [CHAIN, NONLATTICE, str(INPUTS / "right_zero.tsg")])
    def test_all_tasks_derive_no_item_rows(self, path):
        # every report reads Green's preorders on their classes; only a
        # failed map law would derive the per-element rows
        bundle = run(parse(read(path)), ALL_TASKS)
        for which in DOT_KINDS:
            emit_dot(bundle, which)
        report_text(bundle)
        report_data(bundle)
        verification_lines(bundle)
        for kind in ("R", "L", "J", "H"):
            assert "rows" not in vars(green_preorder(bundle.monoid, kind)), kind


class TestDot:
    def test_trivial_collapse_exact(self):
        bundle = run(parse(read(INPUTS / "trivial.tsg")), ("green", "skeleton", "diagram"))
        assert emit_dot(bundle, "collapse") == (
            "digraph collapse {\n"
            "  rankdir=BT;\n"
            "  node [shape=box];\n"
            '  c0 [label="T[1]"];\n'
            "}\n"
        )

    def test_chain_collapse_exact(self):
        bundle = run(parse(read(CHAIN)), ("green", "skeleton", "diagram"))
        assert emit_dot(bundle, "collapse") == (
            "digraph collapse {\n"
            "  rankdir=BT;\n"
            "  node [shape=box];\n"
            "  subgraph cluster_1 {\n"
            "    style=filled;\n"
            "    color=lightgrey;\n"
            '    c1 [label="T[1 3 3]"];\n'
            '    c2 [label="T[3 1 3]"];\n'
            "  }\n"
            '  c0 [label="T[1 2 3]"];\n'
            '  c3 [label="T[3 3 3]"];\n'
            "  c1 -> c0;\n"
            "  c2 -> c1;\n"
            "  c3 -> c2;\n"
            "}\n"
        )

    def test_poset_kinds_render(self):
        bundle = run(parse(read(NONLATTICE)), ("green", "skeleton"))
        for which in ("jposet", "lposet", "skeleton", "eggbox"):
            text = emit_dot(bundle, which)
            assert text.startswith("digraph ") and text.endswith("}\n")

    def test_eggbox_marks_idempotents(self):
        bundle = run(parse(read(CHAIN)), ("green",))
        text = emit_dot(bundle, "eggbox")
        assert 'BGCOLOR="lightgrey"' in text and "T[3 3 3]*" in text

    def test_missing_analysis(self):
        bundle = run(parse(read(CHAIN)), ("green",))
        with pytest.raises(MissingAnalysisError):
            emit_dot(bundle, "skeleton")
        with pytest.raises(MissingAnalysisError):
            emit_dot(run(parse(read(CHAIN)), ("skeleton",)), "jposet")
        with pytest.raises(InputError):
            emit_dot(bundle, "mystery")


class TestVerificationLines:
    def test_all_inputs_pass(self):
        for path in sorted(INPUTS.glob("*.tsg")):
            bundle = run(parse(read(path)), ("green", "skeleton", "diagram"))
            lines, ok = verification_lines(bundle)
            assert ok, path
            assert lines[-1] == "verification: PASS"
            assert len(lines) == 8
            assert all(line.endswith(": ok") for line in lines[:-1])

    def test_full_t6_derives_no_item_rows(self):
        # every check reads the preorders on their classes
        bundle = run(parse(T6), DEFAULT_TASKS)
        lines, ok = verification_lines(bundle)
        assert ok and "inclusion embeds into subduction: ok" in lines
        preorders = [v for v in bundle.monoid._memo.values() if isinstance(v, Preorder)]
        assert len(preorders) == 6  # R, L, J, H, inclusion, subduction
        assert not any("rows" in vars(p) for p in preorders)

    def test_embedding_failure_is_reported(self, monkeypatch):
        # a discrete subduction on the same image sets misses the inclusions
        bundle = run(parse(read(CHAIN)), DEFAULT_TASKS)
        monkeypatch.setattr(cli, "subduction_preorder", lambda m: discrete(inclusion_preorder(m).items))
        lines, ok = verification_lines(bundle)
        assert "inclusion embeds into subduction: FAIL" in lines
        assert not ok and lines[-1] == "verification: FAIL"

    def test_embedding_matches_item_rows_on_catalog(self):
        for name, ts in all_fixtures().items():
            m = ts.adjoin_identity()
            bundle = AnalysisBundle(None, ts, m, DEFAULT_TASKS)
            bundle.diagram = verify_diagram(m)
            incl, subd = inclusion_preorder(m), subduction_preorder(m)
            assert embedding_line(bundle) is embeds_by_items(incl, subd) is True, name
            bare = discrete(incl.items)
            assert embedding_line(bundle, subd=bare) is embeds_by_items(incl, bare), name

    @given(embedding_cases())
    @settings(max_examples=200, deadline=None)
    @example((discrete((0, 1)), discrete((0, 1))))
    def test_embedding_matches_item_rows(self, case):
        incl, subd = case
        bundle = run(parse("states: 1\ngen: 1\n"), DEFAULT_TASKS)
        assert embedding_line(bundle, incl, subd) == embeds_by_items(incl, subd)


class TestMain:
    def test_analyze_ok(self, capsys):
        assert cli.main(["analyze", "--input", CHAIN]) == 0
        out = capsys.readouterr().out
        assert "skeleton classes: 3" in out and "diagram: PASS" in out

    def test_analyze_out_json(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert cli.main(["analyze", "--input", NONLATTICE, "--out", str(out)]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["counts"]["skeleton_classes"] == 9 and data["passed"] is True

    def test_analyze_extended(self, capsys):
        assert cli.main(["analyze", "--input", CHAIN, "--extended"]) == 0
        out = capsys.readouterr().out
        assert "image sets: 5 (+2 adjoined singleton(s))" in out

    def test_dot_to_file(self, tmp_path, capsys):
        out = tmp_path / "g.dot"
        rc = cli.main(
            ["dot", "--input", CHAIN, "--which", "collapse", "--out", str(out)]
        )
        captured = capsys.readouterr()
        assert rc == 0 and captured.out == ""
        assert out.read_text().startswith("digraph collapse {")

    def test_verify_ok(self, capsys):
        assert cli.main(["verify", "--input", NONLATTICE]) == 0
        out = capsys.readouterr().out
        assert out.rstrip().endswith("verification: PASS")

    def test_regrep_and_functorial(self, capsys):
        assert cli.main(["regrep", "--input", str(INPUTS / "collapse_motif.tsg")]) == 0
        assert cli.main(["functorial", "--input", CHAIN]) == 0
        out = capsys.readouterr().out
        assert "isomorphism: ok" in out and "admissible partitions: 3" in out

    @pytest.mark.parametrize("command", [["analyze"], ["dot", "--which", "collapse"]])
    def test_unwritable_out_exit_2(self, tmp_path, capsys, command):
        # an unwritable --out is an input error, not a counterexample
        out = tmp_path / "no_such_dir" / "report"
        assert cli.main(command + ["--input", CHAIN, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
        assert not out.parent.exists()

    def test_missing_file_exit_2(self, capsys):
        assert cli.main(["analyze", "--input", str(INPUTS / "no_such.tsg")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsg"
        bad.write_text("states: 2\ngen: 9 9\n")
        assert cli.main(["analyze", "--input", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("eol", ["\n", "\r\n"])
    def test_byte_order_mark_is_skipped(self, tmp_path, capsys, eol):
        text = eol.join(["states: 3", "gen: 1 3 3", "gen: 3 1 3", ""])
        plain, marked = tmp_path / "plain.tsg", tmp_path / "marked.tsg"
        plain.write_bytes(text.encode())
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert cli.main(["analyze", "--input", str(plain)]) == 0
        want = capsys.readouterr()
        assert cli.main(["analyze", "--input", str(marked)]) == 0
        assert capsys.readouterr() == want

    def test_undecodable_file_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.tsg"
        bad.write_bytes(b"states: 2\ngen: 1 \xff\n")
        assert cli.main(["analyze", "--input", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "not UTF-8" in err

    @pytest.mark.parametrize("cap", ["0", "-3"])
    def test_non_positive_cap_exit_2(self, cap, capsys):
        # an unusable argument is an input error, not a resource cap
        assert cli.main(["analyze", "--input", NONLATTICE, "--max-elements", cap]) == 2
        assert capsys.readouterr().err == f"error: --max-elements must be at least 1, got {cap}\n"

    def test_cap_exit_3(self, capsys):
        rc = cli.main(["analyze", "--input", NONLATTICE, "--max-elements", "5"])
        assert rc == 3
        assert "resource cap" in capsys.readouterr().err

    def test_t6_under_small_budget_exit_3(self, tmp_path, capsys):
        # full T6 has 46,656 elements; enumeration stops at the cap
        doc = tmp_path / "t6.tsg"
        doc.write_text("states: 6\ngen: 2 3 4 5 6 1\ngen: 2 1 3 4 5 6\ngen: 1 1 3 4 5 6\n")
        rc = cli.main(["analyze", "--input", str(doc), "--max-elements", "1000"])
        assert rc == 3
        assert "resource cap in stage enumerate" in capsys.readouterr().err

    def test_cap_below_generator_count_exit_3(self, capsys):
        # three distinct constant generators already exceed a cap of one
        rc = cli.main(["analyze", "--input", str(INPUTS / "right_zero.tsg"), "--max-elements", "1"])
        assert rc == 3
        assert "resource cap in stage enumerate" in capsys.readouterr().err

    def test_adjoined_identity_counts_against_cap_exit_3(self, tmp_path, capsys):
        # three constant maps fill a cap of three; S^1 has four elements
        doc = tmp_path / "constants.tsg"
        doc.write_text("states: 3\nmonoid: true\ngen: 1 1 1\ngen: 2 2 2\ngen: 3 3 3\n")
        rc = cli.main(["analyze", "--input", str(doc), "--max-elements", "3"])
        assert rc == 3
        assert "resource cap in stage enumerate" in capsys.readouterr().err
        assert cli.main(["analyze", "--input", str(doc), "--max-elements", "4"]) == 0
        capsys.readouterr()

    def test_failed_verification_exit_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verification_lines", lambda b: (["x: FAIL"], False))
        assert cli.main(["verify", "--input", CHAIN]) == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "fault, code, line",
        [
            pytest.param(
                MalformedPreorderError("relation not reflexive at 'a'"),
                4,
                "internal verification failure: relation not reflexive at 'a'",
                id="malformed-preorder",
            ),
            pytest.param(
                NotAMorphismError(("a", "b")),
                4,
                "internal verification failure: 'a' <= 'b' in the source but the images are unrelated",
                id="not-a-morphism",
            ),
            pytest.param(
                AssertionError("induced class map is not order-preserving"),
                4,
                "internal verification failure: induced class map is not order-preserving",
                id="assertion",
            ),
            pytest.param(
                ConsistencyError("D and J partitions differ"),
                4,
                "internal verification failure: D and J partitions differ",
                id="consistency",
            ),
            pytest.param(MemoryError(), 3, "resource cap in stage memory: out of memory", id="memory"),
        ],
    )
    def test_internal_fault_exit_code(self, capsys, monkeypatch, fault, code, line):
        def fail(m):
            raise fault

        monkeypatch.setattr(cli, "verify_diagram", fail)
        assert cli.main(["verify", "--input", CHAIN]) == code
        assert capsys.readouterr().err == line + "\n"


class TestStartUp:
    def test_import_loads_no_dataclasses_inspect_or_argparse(self):
        # without site, nothing but greenskel's own imports can load them
        code = (
            "import json, sys; sys.path.insert(0, sys.argv[1]); import greenskel, greenskel.cli; "
            "print(sorted({'dataclasses', 'inspect', 'argparse'} & set(sys.modules)))"
        )
        src = str(Path(cli.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-I", "-S", "-c", code, src], capture_output=True, text=True, check=True
        ).stdout
        assert out == "[]\n"


class TestDeterminism:
    def test_in_process_byte_identical(self):
        doc = parse(read(NONLATTICE))
        first = run(doc, ("green", "skeleton", "diagram"))
        second = run(doc, ("green", "skeleton", "diagram"))
        assert report_text(first) == report_text(second)
        assert json.dumps(report_data(first)) == json.dumps(report_data(second))
        for which in ("jposet", "lposet", "skeleton", "eggbox", "collapse"):
            assert emit_dot(first, which) == emit_dot(second, which)

    def test_across_interpreters(self):
        cmd = [sys.executable, "-m", "greenskel.cli", "verify", "--input", NONLATTICE]
        runs = [
            subprocess.run(cmd, capture_output=True, check=True).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1] and b"verification: PASS" in runs[0]

    def test_output_ignores_hash_seed(self, tmp_path):
        # the element set is keyed by bytes, whose hash is salted per process
        t5 = tmp_path / "t5.tsg"
        t5.write_text("states: 5\ngen: 2 3 4 5 1\ngen: 2 1 3 4 5\ngen: 1 1 3 4 5\n")
        for path in (CHAIN, str(t5)):
            for args in (["analyze"], ["dot", "--which", "skeleton"]):
                cmd = [sys.executable, "-m", "greenskel.cli", *args, "--input", path]
                outs = [
                    subprocess.run(
                        cmd, capture_output=True, check=True, env={**os.environ, "PYTHONHASHSEED": seed}
                    ).stdout
                    for seed in ("0", "12345")
                ]
                assert outs[0] == outs[1] and outs[0]
