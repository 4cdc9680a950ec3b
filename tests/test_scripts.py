import importlib.util
import io
import json
import os
import re
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


def sweep_record(*argv, code):
    return json.dumps({"argv": list(argv), "exit": code, "stdout": "",
                       "stderr": ""})


def test_undecided_share_counts_the_json_calls_per_command(tmp_path, capsys):
    doc = "d.json"
    lines = [sweep_record("sim", doc, "--from", "A", "--set", "B", "--json",
                          code=3),
             sweep_record("sim", doc, "--from", "A", "--set", "B", "--human",
                          code=3),
             sweep_record("sim", doc, "--from", "B", "--set", "A", "--bound",
                          "8", "--json", code=0),
             sweep_record("index", doc, "--set", "S", "--nbhd", "N", "--json",
                          code=1),
             sweep_record("index", doc, "--set", "S", "--nbhd", "N",
                          "--search", "8", "--json", code=3)]
    sweep = tmp_path / "sweep.jsonl"
    sweep.write_text("\n".join(lines) + "\n")
    script = load("undecided_share")
    assert script.main([str(sweep)]) == 0
    assert capsys.readouterr().out == \
        "sim: 1/2\nindex: 0/1\nindex --search: 1/1\n"


@pytest.mark.parametrize("line", [
    "not json", "[]", '{"argv": [], "exit": 0, "stdout": "", "stderr": ""}',
    '{"argv": ["sim", "--json"], "exit": "3", "stdout": "", "stderr": ""}',
    '{"argv": ["sim", "--json"], "exit": 3}',
], ids=["text", "list", "no-argv", "exit-text", "no-output"])
def test_undecided_share_rejects_a_line_that_is_no_sweep_record(
        monkeypatch, capsys, line):
    good = sweep_record("sim", "d.json", "--json", code=3)
    monkeypatch.setattr(sys, "stdin", io.StringIO(f"{good}\n{line}\n"))
    assert load("undecided_share").main([]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "input error: line 2 is not a sweep record\n"


@pytest.mark.parametrize("doc, source, target", [
    ("attractor.json", "all", "core"),      # dynamics._SearchContext
    ("clamp_flow.json", "unit", "half"),    # the same class, a flow's times
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


def test_sweep_bench_requests_prints_seeds_in_one_stream(capsys):
    """Several seeds print the outputs of the single seeds one after
    another; a seed that is not a number is a usage error."""
    script = load("sweep_bench_requests")
    single = []
    for seed in ("3", "1"):
        assert script.main(["szymczak", seed]) == 0
        single.append(capsys.readouterr().out)
    assert single[0] != single[1]
    assert script.main(["szymczak", "3", "1"]) == 0
    assert capsys.readouterr().out == "".join(single)
    for argv in (["szymczak"], ["szymczak", "3", "x"]):
        assert script.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage:")


def test_sweep_suites_prints_one_line_per_verify_run(capsys):
    """Each suite at its defaults, and a seeded one again at --trials 20
    --seed 7; an unknown suite is a usage error before any suite runs."""
    script = load("sweep_suites")
    assert script.main(["worked-models", "thm-4-properness"]) == 0
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [line["argv"] for line in lines] == [
        ["verify", "--suite", "worked-models", "--json"],
        ["verify", "--suite", "thm-4-properness", "--json"],
        ["verify", "--suite", "thm-4-properness", "--trials", "20", "--seed",
         "7", "--json"]]
    assert all(line["exit"] == 0 and line["stderr"] == "" for line in lines)
    assert json.loads(lines[2]["stdout"])["meta"]["seed"] == 7
    assert script.main(["worked-models", "no-such-suite"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage:") and "no-such-suite" in err


@pytest.mark.parametrize("argv, message", [
    (["--only", "no-such-suite"], "unknown suite 'no-such-suite'"),
    (["--only", "thm-4-composition", "--trials", "-1"],
     "--trials must not be negative"),
    (["--only", "thm-4-composition", "--trials", "0"],
     "input error: --trials must be at least 1"),
    (["--only", "worked-models", "--only", "no-such-suite"],
     "unknown suite 'no-such-suite'; known: cont-discriminator, "),
])
def test_run_suites_rejects_bad_input(capsys, argv, message):
    # before it runs any suite, as verify reports every input error
    assert load("run_suites").main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: ") and message in err


def test_run_suites_runs_the_named_suites(capsys):
    assert load("run_suites").main(["--only", "worked-models", "--trials", "1"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("worked-models") and " pass " in out


def test_run_suites_passes_each_suite_what_it_reads(capsys):
    # worked-models reads no seed or trials; one --seed still runs it
    argv = ["--only", "worked-models", "--only", "thm-4-properness",
            "--seed", "3", "--trials", "2"]
    assert load("run_suites").main(argv) == 0
    out = capsys.readouterr().out
    assert [line.split()[:2] for line in out.splitlines()
            if not line.startswith(" ")] == [["worked-models", "pass"],
                                            ["thm-4-properness", "pass"]]
    note = "finite carrier: 1 weakly compactifiable pairs checked"
    assert f"    {note}\n" in out
    # at its defaults (300 trials, seed 19) the suite checks other pairs
    from conley_kernel.suites import suite_thm_properness
    assert suite_thm_properness().lines[0] != note


def test_run_suites_rejects_a_bad_trial_count_no_suite_reads(capsys):
    assert load("run_suites").main(["--only", "worked-models",
                                    "--trials", "0"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: --trials must be")


@pytest.mark.parametrize("name, argv", [
    ("demo_models", []),
    ("run_suites", ["--only", "worked-models", "--trials", "1"]),
    ("sweep_outputs", [str(ROOT / "fixtures" / "shift2d.json")]),
    ("sweep_bench_requests", ["szymczak", "1"]),
    ("sweep_suites", ["worked-models"]),
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


# one unseeded and one seeded suite
COMPARED = ([str(ROOT / "fixtures" / "attractor.json")], ["1"],
            ["worked-models", "thm-4-properness"])


def test_compare_outputs_finds_a_checkout_identical_to_itself(capsys,
                                                               tmp_path):
    """The parent is a copy of this checkout (links to its src/ and bench/)
    whose scripts/ lacks sweep_suites.py: both sides run the change's
    scripts, each on its own kernel, so every sweep is identical."""
    parent = tmp_path / "parent"
    (parent / "scripts").mkdir(parents=True)
    for name in ("src", "bench"):
        (parent / name).symlink_to(ROOT / name)
    for path in SCRIPTS.glob("*.py"):
        if path.name != "sweep_suites.py":
            (parent / "scripts" / path.name).write_bytes(path.read_bytes())
    script = load("compare_outputs")
    assert script.compare(str(parent), str(ROOT), *COMPARED) == 0
    lines = capsys.readouterr().out.splitlines()
    workloads = [w["name"] for w in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert [line.split(":")[0] for line in lines] == ["sweep_outputs"] + \
        [f"sweep_bench_requests {w}" for w in workloads] + ["sweep_suites"]
    assert lines[-1] == "sweep_suites: identical (3 lines)"
    assert all(re.fullmatch(r"[^:]+: identical \(\d+ lines\)", line)
               for line in lines)
    assert script.main([str(ROOT)]) == 2


def test_compare_outputs_sweeps_each_fixture_in_a_process_of_its_own():
    """A fixture's sweep runs in a process that has loaded only what its
    own document kind loads, so a name that a box-only process misses
    shows."""
    name, script, argvs = load("compare_outputs").sweeps(str(ROOT))[0]
    assert (name, script) == ("sweep_outputs", "sweep_outputs.py")
    assert argvs == [[str(path)] for path in
                     sorted((ROOT / "fixtures").glob("*.json"))]
    assert len(argvs) > 1


def test_compare_outputs_shows_the_first_difference(capsys, tmp_path):
    """The change's sweeps run on a stub parent whose kernel is a CLI that
    prints one word and that has no suites and no benchmark."""
    kernel = tmp_path / "stub" / "src" / "conley_kernel"
    kernel.mkdir(parents=True)
    (kernel / "__init__.py").write_text("")
    (kernel / "cli.py").write_text("def main(argv):\n    print('other')\n")
    stub = kernel.parent.parent
    script = load("compare_outputs")
    assert script.compare(str(stub), str(ROOT), *COMPARED) == 1
    out = capsys.readouterr().out
    assert out.startswith("sweep_outputs: differs at line 1:\n  parent: {")
    assert '"stdout": "other\\n"}\n  change: {' in out
    assert f"sweep_bench_requests szymczak: failed (exit 1 in {stub}: " \
        "ModuleNotFoundError: No module named 'run')" in out
    assert f"sweep_suites: failed (exit 1 in {stub}: ModuleNotFoundError: " \
        "No module named 'conley_kernel.suites')" in out
    assert script.main([str(tmp_path), str(ROOT)]) == 2


def test_compare_outputs_sweeps_the_suites_of_the_change(capsys, tmp_path):
    """With no suite named, both sides sweep the change's suites, so a
    suite that only the parent has is no difference (two stub checkouts
    whose sweeps print the suite names)."""
    sides = []
    for side, names in (("parent", ["a", "b", "extra"]), ("change", ["a", "b"])):
        root = tmp_path / side
        (root / "scripts").mkdir(parents=True)
        (root / "src" / "conley_kernel").mkdir(parents=True)
        (root / "src" / "conley_kernel" / "__init__.py").write_text("")
        (root / "src" / "conley_kernel" / "suites.py").write_text(
            f"SUITES = dict.fromkeys({names!r})\n")
        for name in ("sweep_outputs", "sweep_bench_requests"):
            (root / "scripts" / f"{name}.py").write_text("print('same')\n")
        (root / "scripts" / "sweep_suites.py").write_text(
            "import sys\nsys.path.insert(0, 'src')\n"
            "from conley_kernel.suites import SUITES\n"
            "print(*(sys.argv[1:] or sorted(SUITES)), sep='\\n')\n")
        (root / "BENCHMARK.json").write_text('{"workloads": [{"name": "w"}]}')
        sides.append(str(root))
    assert load("compare_outputs").compare(*sides) == 0
    assert capsys.readouterr().out.splitlines()[-1] == \
        "sweep_suites: identical (2 lines)"


def test_bench_pairs_dry_run_alternates_the_sides(capsys, tmp_path):
    """Workload by workload and seed by seed, the parent runs first on even
    pairs and the change on odd ones; a dry run runs nothing and writes no
    file."""
    other = tmp_path / "parent"
    (other / "bench").mkdir(parents=True)
    (other / "bench" / "run.py").write_text("raise SystemExit(1)\n")
    argv = [str(other), str(ROOT), "--workload", "box-nd,szymczak", "--seeds",
            "7,3", "--pairs", "3", "--label", "t", "--dry-run"]
    assert load("bench_pairs").main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    order = [line.split(":")[0] for line in lines]
    assert order == [f"seed {s} pair {i} {side}" for _ in range(2)
                     for s in (7, 3)
                     for i, sides in enumerate((("parent", "change"),
                                                ("change", "parent"),
                                                ("parent", "change")))
                     for side in sides]
    for k, line in enumerate(lines):
        folder = str(other) if line.split(":")[0].endswith("parent") \
            else str(ROOT)
        workload, seed = ("box-nd", "szymczak")[k // 12], line.split()[1]
        assert f"(cd {folder} && python3 bench/run.py --workload {workload} " \
               f"--seed {seed} --seconds {seconds} --trace 0)" in line
    assert not list(tmp_path.glob("BENCH_*.json"))
    assert not (ROOT / "BENCH_t.json").exists()


def test_bench_pairs_setup_only_alternates_timed_set_ups(capsys, tmp_path):
    """--setup-only runs the bench's one timed set-up per run; a dry run
    lists the commands, and a claim can only be setup_s."""
    other = tmp_path / "parent"
    (other / "bench").mkdir(parents=True)
    (other / "bench" / "run.py").write_text("raise SystemExit(1)\n")
    argv = [str(other), str(ROOT), "--workload", "szymczak", "--seeds", "7",
            "--pairs", "2", "--label", "t", "--setup-only", "--dry-run"]
    assert load("bench_pairs").main(argv) == 0
    command = "python3 bench/run.py --setup-only --workload szymczak --seed 7"
    assert capsys.readouterr().out.splitlines() == [
        f"seed 7 pair 0 parent: (cd {other} && {command})",
        f"seed 7 pair 0 change: (cd {ROOT} && {command})",
        f"seed 7 pair 1 change: (cd {ROOT} && {command})",
        f"seed 7 pair 1 parent: (cd {other} && {command})"]
    with pytest.raises(SystemExit) as exc:
        load("bench_pairs").main(argv + ["--claim", "verdicts_per_s"])
    assert exc.value.code == 2
    assert "--setup-only measures setup_s alone" in capsys.readouterr().err


def test_bench_pairs_records_setup_samples(tmp_path, monkeypatch):
    """Stand-in checkouts whose bench/run.py prints a fixed set-up time:
    the record keeps every sample per side, summarized as setup_s."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    folders = []
    for side, seconds in (("parent", 0.15), ("change", 0.12)):
        folder = tmp_path / side
        (folder / "bench").mkdir(parents=True)
        (folder / "BENCHMARK.json").write_text(json.dumps(spec))
        (folder / "bench" / "run.py").write_text(
            f"print({json.dumps(json.dumps({'setup_s': seconds}))})\n")
        folders.append(str(folder))
    monkeypatch.chdir(tmp_path)
    assert load("bench_pairs").main([
        *folders, "--workload", "szymczak", "--seeds", "7", "--pairs", "3",
        "--label", "t", "--setup-only", "--claim", "setup_s"]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    runs = record["runs"]["szymczak seed 7 setup-only"]
    assert runs == {"parent": [{"setup_s": 0.15}] * 3,
                    "change": [{"setup_s": 0.12}] * 3}
    assert record["summary"]["szymczak seed 7 setup-only"] == {"setup_s": {
        "parent_median": 0.15, "parent_q1": 0.15, "parent_q3": 0.15,
        "change_median": 0.12, "change_q1": 0.12, "change_q3": 0.12,
        "change_wins": "3/3", "worse_by": -0.2, "within_bound": True,
        "gain_shown": True, "unresolved": False}}
    assert record["claimed"]["metric"] == "setup_s"


@pytest.mark.parametrize("change, message", [
    (["--workload", "nope"], "unknown workload 'nope'"),
    (["--seeds", "7,x"], "--seeds must be a comma list of integers"),
    (["--seeds", ""], "--seeds must be a comma list of integers"),
    (["--pairs", "0"], "--pairs must be at least 1"),
    (["--label", "a/b"], "--label may hold letters"),
    (["--claim", "speed"], "unknown metric 'speed'"),
    (["--pairs", "two"], "invalid int value: 'two'"),
    (["--workload", "box-nd,nope"], "unknown workload 'nope'"),
    (["--workload", "box-nd,szymczak", "--claim", "setup_s"],
     "--claim names the metric of one workload"),
])
def test_bench_pairs_rejects_bad_arguments(capsys, change, message):
    argv = {"--workload": "box-nd", "--seeds": "7,3", "--pairs": "2",
            "--label": "t"}
    argv.update(dict(zip(change[::2], change[1::2])))
    with pytest.raises(SystemExit) as exc:
        load("bench_pairs").main([str(ROOT), str(ROOT), "--dry-run",
                                  *(x for kv in argv.items() for x in kv)])
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == "" and message in err


def test_bench_pairs_needs_two_checkouts(capsys, tmp_path):
    with pytest.raises(SystemExit) as exc:
        load("bench_pairs").main([str(tmp_path), str(ROOT), "--workload",
                                  "box-nd", "--seeds", "7", "--pairs", "1",
                                  "--label", "t", "--dry-run"])
    assert exc.value.code == 2
    assert "is not a checkout with bench/run.py" in capsys.readouterr().err


def test_bench_pairs_summary_counts_wins_by_direction():
    script = load("bench_pairs")
    spec = {"end_to_end": [
        {"name": "verdicts_per_s", "better": "higher", "bound": 0.25},
        {"name": "latency_p50_ms", "better": "lower", "bound": 0.25}]}

    def run(v, lat, failed=0):
        return {"correct": True, "failed": failed, "metrics": {
            "verdicts_per_s": {"value": v}, "latency_p50_ms": {"value": lat}}}
    parent = [run(10, 3), run(12, 2), run(11, 4)]
    change = [run(13, 3), run(12, 1), run(14, 2, failed=1)]
    got = script.summarize(spec, parent, change)
    assert got["verdicts_per_s"] == {
        "parent_median": 11, "parent_q1": 10.5, "parent_q3": 11.5,
        "change_median": 13, "change_q1": 12.5, "change_q3": 13.5,
        "change_wins": "2/3", "worse_by": round(-2 / 11, 4),
        "within_bound": True, "gain_shown": False, "unresolved": False}
    assert got["latency_p50_ms"]["change_wins"] == "2/3"
    assert got["latency_p50_ms"]["worse_by"] == round(-1 / 3, 4)
    assert got["correct"] is True and got["failed"] == [0, 1]


def test_bench_pairs_summary_measures_each_metric_against_its_bound():
    """worse_by is the change's median against the parent's, as a fraction
    in the metric's worse direction; within_bound compares it with the
    metric's bound."""
    script = load("bench_pairs")
    spec = {"end_to_end": [
        {"name": "verdicts_per_s", "better": "higher", "bound": 0.25},
        {"name": "latency_p50_ms", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]}

    def run(v, lat, rss):
        return {"correct": True, "failed": 0, "metrics": {
            "verdicts_per_s": {"value": v}, "latency_p50_ms": {"value": lat},
            "peak_rss_mb": {"value": rss}}}
    parent = [run(100, 2, 20)] * 3
    change = [run(70, 2.5, 22.5)] * 3
    got = script.summarize(spec, parent, change)
    assert (got["verdicts_per_s"]["worse_by"],
            got["verdicts_per_s"]["within_bound"]) == (0.3, False)
    assert (got["latency_p50_ms"]["worse_by"],
            got["latency_p50_ms"]["within_bound"]) == (0.25, True)
    assert (got["peak_rss_mb"]["worse_by"],
            got["peak_rss_mb"]["within_bound"]) == (0.125, False)
    assert script.compare_samples([0.0], [0.0], -1, 0.25)["worse_by"] is None
    assert script.compare_samples([2.0], [1.0], -1)["within_bound"] is None


def test_bench_pairs_applies_the_claim_rule():
    """gain_shown needs 9/10 pairs won and a median shift wider than the
    parent's inter-quartile range; unresolved marks a parent spread wider
    than the bound unless every change run beats every parent run."""
    compare = load("bench_pairs").compare_samples
    parent = [100.0 + i for i in range(10)]     # quartiles 102.25, 106.75
    nine = [x - 20 for x in parent[:9]] + [200.0]
    eight = [x - 20 for x in parent[:8]] + [200.0] * 2
    row = compare(parent, nine, -1, 0.25)
    assert (row["change_wins"], row["gain_shown"]) == ("9/10", True)
    row = compare(parent, eight, -1, 0.25)
    assert (row["change_wins"], row["gain_shown"]) == ("8/10", False)
    row = compare(parent, [x - 1 for x in parent], -1, 0.25)
    assert (row["change_wins"], row["gain_shown"]) == ("10/10", False)
    row = compare(parent, [x + 20 for x in parent], 1, 0.25)
    assert (row["change_wins"], row["gain_shown"]) == ("10/10", True)
    assert not row["unresolved"]
    wide = [60.0 + 10 * i for i in range(10)]   # IQR 45 of a median of 105
    row = compare(wide, [x - 5 for x in wide], -1, 0.25)
    assert (row["within_bound"], row["unresolved"]) == (True, True)
    assert compare(wide, [50.0] * 10, -1, 0.25)["unresolved"] is False
    assert compare(wide, [50.0] * 10, -1)["unresolved"] is None


def test_bench_pairs_writes_and_extends_the_record(tmp_path, monkeypatch):
    """With stand-in checkouts whose bench/run.py prints a fixed result
    (the parent's slower), the record holds every run per side, and a
    second invocation adds its workload and keeps the claim."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    folders = []
    for side, rate in (("parent", 100.0), ("change", 125.0)):
        folder = tmp_path / side
        (folder / "bench").mkdir(parents=True)
        (folder / "BENCHMARK.json").write_text(json.dumps(spec))
        result = {"correct": True, "attempted": 10, "failed": 0, "metrics": {
            m["name"]: {"value": rate if m["better"] == "higher" else 1 / rate,
                        "unit": m["unit"]} for m in spec["end_to_end"]}}
        (folder / "bench" / "run.py").write_text(
            f"print('bench: log line')\nprint({json.dumps(json.dumps(result))})\n")
        folders.append(str(folder))
    monkeypatch.chdir(tmp_path)
    script = load("bench_pairs")
    assert script.main([*folders, "--workload", "box-nd", "--seeds", "7,3",
                        "--pairs", "2", "--label", "t",
                        "--claim", "verdicts_per_s"]) == 0
    assert script.main([*folders, "--workload", "szymczak", "--seeds", "7",
                        "--pairs", "1", "--label", "t"]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert list(record)[:6] == ["label", "what", "machine", "claimed", "runs",
                                "summary"]
    assert record["claimed"] == {"workload": "box-nd",
                                 "metric": "verdicts_per_s", "seeds": [7, 3]}
    assert list(record["runs"]) == ["box-nd seed 7", "box-nd seed 3",
                                    "szymczak seed 7"]
    assert [len(record["runs"][k]["change"]) for k in record["runs"]] == \
        [2, 2, 1]
    row = record["summary"]["box-nd seed 3"]
    assert row["verdicts_per_s"]["change_median"] == 125.0
    assert row["latency_tail_ms"]["change_wins"] == "2/2"
    assert row["correct"] is True and row["failed"] == [0]
    assert f"--seconds {spec['run_seconds']}" in record["what"]
