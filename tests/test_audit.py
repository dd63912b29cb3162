import importlib.util
from pathlib import Path

from greenskel import NotAMorphismError

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "audit_random.py"


def load_audit():
    spec = importlib.util.spec_from_file_location("audit_random", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_clean_run_exits_0(capsys):
    assert load_audit().main(["--count", "3", "--seed", "0"]) == 0
    assert capsys.readouterr().out.startswith("audited 3 semigroup(s) (seed 0, ")


def test_raising_check_prints_the_generators_and_exits_4(monkeypatch, capsys):
    # a law that fails by raising, as verify_diagram does through induce,
    # still names the semigroup it failed on, so the case can be replayed
    audit = load_audit()
    drawn = []
    draw = audit.draw

    def recorded(*args):
        ts = draw(*args)
        if ts is not None:
            drawn.append(ts)
        return ts

    def broken(m):
        raise NotAMorphismError(("a", "b"))

    monkeypatch.setattr(audit, "draw", recorded)
    monkeypatch.setattr(audit, "verify_diagram", broken)
    assert audit.main(["--count", "5", "--seed", "0"]) == 4
    assert len(drawn) == 1
    ts = drawn[0]
    gens = ", ".join(map(repr, ts.generators))
    assert capsys.readouterr().out == (
        f"FAIL on n={ts.n} gens=[{gens}]: 'a' <= 'b' in the source but the images are unrelated\n"
    )
