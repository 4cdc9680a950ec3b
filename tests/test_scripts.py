import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPTS = ROOT / "scripts"


def load(name, folder=SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_demo_models_runs(capsys):
    assert load("demo_models").main() == 0
    assert "clamped semiflow" in capsys.readouterr().out


def test_sweep_outputs_covers_every_command(capsys):
    doc = str(ROOT / "fixtures" / "attractor.json")
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


@pytest.mark.parametrize("doc, source, target", [
    ("attractor.json", "all", "core"),      # dynamics._SearchContext
    ("clamp_flow.json", "unit", "half"),    # semiflow._ContContext
], ids=["finite", "semiflow"])
def test_bench_tracer_counts_the_search_tests(capsys, doc, source, target):
    """The per-layer tracer of the benchmark (``--trace 1``) still finds the
    search context whose cached subset tests it counts, in discrete and in
    continuous time."""
    from conley_kernel import cli
    tracer = load("tracer", ROOT / "bench").Tracer()
    with tracer.installed():
        code = cli.main(["admissible", str(ROOT / "fixtures" / doc), "--from",
                         source, "--set", target, "--json"])
    assert code == 0 and json.loads(capsys.readouterr().out)["status"] == "found"
    assert tracer.counts["dynamics.searches"] == 1
    assert tracer.counts["dynamics.subset_tests"] > 0


def test_sweep_bench_requests_prints_one_line_per_request(capsys, tmp_path):
    script = load("sweep_bench_requests")
    assert script.main(["finite-index", "1"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    workload, _ = script.set_up(script.bench.builders()["finite-index"], 1,
                                str(tmp_path))
    assert [line["name"] for line in lines] == [r.name for r in workload.requests]
    assert all(set(line) == {"name", "exit", "stdout"} for line in lines)
    assert all(line["exit"] in (0, 1, 2, 3) for line in lines)
    assert script.main(["no-such-workload", "1"]) == 2


@pytest.mark.parametrize("argv, message", [
    (["--only", "no-such-suite"], "unknown suite 'no-such-suite'"),
    (["--only", "box-algebra", "--trials", "-1"],
     "--trials must not be negative"),
    (["--only", "box-algebra", "--trials", "0"],
     "input error: --trials must be at least 1"),
])
def test_run_suites_rejects_bad_input(capsys, argv, message):
    assert load("run_suites").main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_run_suites_runs_the_named_suites(capsys):
    assert load("run_suites").main(["--only", "worked-models", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("worked-models") and " pass " in out


@pytest.mark.parametrize("name, argv", [
    ("demo_models", []),
    ("run_suites", ["--only", "worked-models", "--trials", "1"]),
    ("sweep_outputs", [str(ROOT / "fixtures" / "shift2d.json")]),
    ("sweep_bench_requests", ["szymczak", "1"]),
])
@pytest.mark.parametrize("decoy", [False, True], ids=["unset", "decoy"])
def test_scripts_run_on_their_own_checkout(tmp_path, name, argv, decoy):
    """Each script runs as the README gives it, from any directory and
    without PYTHONPATH, on the kernel under src/ of its own checkout even
    when another kernel is importable (here a decoy that fails to load),
    so two checkouts compare their own outputs."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    if decoy:
        (tmp_path / "conley_kernel").mkdir()
        (tmp_path / "conley_kernel" / "__init__.py").write_text(
            "raise ImportError('decoy kernel')\n")
        env["PYTHONPATH"] = str(tmp_path)
    done = subprocess.run([sys.executable, str(SCRIPTS / f"{name}.py"), *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout and done.stderr == ""
