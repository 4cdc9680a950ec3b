import importlib.util
import json
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_models_runs(capsys):
    assert load("demo_models").main() == 0
    assert "clamped semiflow" in capsys.readouterr().out


def test_sweep_outputs_covers_every_command(capsys):
    doc = str(SCRIPTS.parent / "fixtures" / "attractor.json")
    assert load("sweep_outputs").main([doc]) == 0
    calls = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    labels = 3                  # S, all and core
    per_line = 2 * 2            # default bound and --bound 8, --json and --human
    assert len(calls) == per_line * (2 * labels + 8 * labels ** 2)
    assert {c["argv"][0] for c in calls} == {
        "check", "invariant-part", "isolating", "index-nbhd", "index", "sim",
        "admissible", "szymczak-equal", "shift-equiv"}
    assert all(set(c) == {"argv", "exit", "stdout", "stderr"} for c in calls)
    assert all(c["exit"] in (0, 1, 2, 3) for c in calls)
    check = next(c for c in calls if c["argv"][:1] == ["check"]
                 and c["argv"][-1] == "--json")
    assert check["exit"] == 0 and json.loads(check["stdout"])["table"]
