import ast
import contextlib
import dataclasses
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conley_kernel import cli
from conley_kernel import conley as co
from conley_kernel import dynamics as dyn
from conley_kernel.cli import main
from conley_kernel.documents import document_builder, parse_document
from kernel_oracles import prime_cycle_document

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"
SRC = str(Path(__file__).resolve().parent.parent / "src")


def fx(name):
    return str(FIXTURES / name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def unreached_definitions(path, roots) -> list:
    """The top-level functions, classes and assignments of the module at
    path that no chain of name references reaches from roots (docstrings,
    which name other code too, do not count)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    defs = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defs[node.name] = node
        elif isinstance(node, ast.Assign):
            defs.update((t.id, node) for t in node.targets
                        if isinstance(t, ast.Name))
    seen, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name in defs and name not in seen:
            seen.add(name)
            todo += [n.id for n in ast.walk(defs[name])
                     if isinstance(n, ast.Name)]
    return sorted(set(defs) - seen)


class TestCheck:
    def test_doubling_unit_not_compactifiable(self, capsys):
        code, out, _ = run(capsys, "check", fx("doubling.json"),
                           "--set", "unit", "--json")
        assert code == 0
        table = json.loads(out)["table"]
        assert table["unit"]["compactifiable"] is False
        assert table["unit"]["induced domain open in E"] is False

    def test_doubling_origin_compactifiable(self, capsys):
        code, out, _ = run(capsys, "check", fx("doubling.json"),
                           "--set", "origin", "--json")
        assert code == 0
        assert json.loads(out)["table"]["origin"]["compactifiable"] is True

    def test_finite_document_all_true(self, capsys):
        code, out, _ = run(capsys, "check", fx("attractor.json"), "--json")
        assert code == 0
        table = json.loads(out)["table"]
        assert all(v["compactifiable"] for v in table.values())

    @staticmethod
    def _flow_with(tmp_path, boxes):
        """clamp_flow.json, under floor(1, 0), with the set X of the boxes."""
        doc = json.loads(Path(fx("clamp_flow.json")).read_text())
        doc["sets"]["X"] = [[box] for box in boxes]
        return write(tmp_path / "flow.json", doc)

    def test_semiflow_probes_decide_false(self, capsys, tmp_path):
        # [0, 1) u [2, 3) is not forward invariant; the probes find both
        # induced-semiflow predicates false
        path = self._flow_with(tmp_path, [["0", True, "1", False],
                                          ["2", True, "3", False]])
        code, out, _ = run(capsys, "check", path, "--set", "X", "--json")
        assert code == 0
        row = json.loads(out)["table"]["X"]
        assert row["induced semiflow finite-time proper"] is False
        assert row["induced semiflow openly defined"] is False
        assert row["compactifiable"] is False

    def test_semiflow_probes_undecided(self, capsys, tmp_path):
        # on (0, 1] u [2, 3] no probe time shows a failure of properness
        path = self._flow_with(tmp_path, [["0", False, "1", True],
                                          ["2", True, "3", True]])
        code, out, _ = run(capsys, "check", path, "--set", "X", "--json")
        assert code == 3
        assert json.loads(out)["table"]["X"] == {
            "compactifiable": "unknown",
            "reason": "finite-time properness undecided for this set"}


class TestInvariantPart:
    def test_exact(self, capsys):
        code, out, _ = run(capsys, "invariant-part", fx("doubling.json"),
                           "--set", "unit", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "exact"
        assert payload["invariant_part"] == [[["0", True, "0", True]]]

    def test_unknown_exits_3(self, capsys):
        code, _, _ = run(capsys, "invariant-part", fx("shift2d.json"),
                         "--set", "step_zero", "--bound", "6")
        assert code == 3


class TestCertificates:
    def test_isolating(self, capsys):
        code, _, _ = run(capsys, "isolating", fx("doubling.json"),
                         "--set", "S", "--nbhd", "unit")
        assert code == 0

    def test_index_nbhd_failure(self, capsys):
        code, _, _ = run(capsys, "index-nbhd", fx("doubling.json"),
                         "--set", "S", "--nbhd", "unit")
        assert code == 1

    def test_flow_discriminator(self, capsys):
        good, _, _ = run(capsys, "index-nbhd", fx("clamp_flow.json"),
                         "--set", "S", "--nbhd", "unit")
        bad, out, _ = run(capsys, "index-nbhd", fx("clamp_flow.json"),
                          "--set", "S", "--nbhd", "halfopen", "--json")
        assert good == 0 and bad == 1
        assert "finite-time proper" in json.loads(out)["reason"]


class TestSimAdmissible:
    def test_sim_equivalent(self, capsys):
        code, _, _ = run(capsys, "sim", fx("shift2d.json"),
                         "--from", "step_pm3", "--set", "step_zero",
                         "--bound", "6")
        assert code == 0

    def test_sim_not_equivalent_finite(self, capsys):
        code, _, _ = run(capsys, "sim", fx("attractor.json"),
                         "--from", "core", "--set", "all")
        assert code == 0

    def test_admissible_found(self, capsys):
        code, out, _ = run(capsys, "admissible", fx("doubling.json"),
                           "--from", "unit", "--set", "open_half",
                           "--bound", "8", "--json")
        assert code == 0
        assert json.loads(out)["triple"] == ["0", "2", "2"]

    def test_admissible_undecided(self, capsys):
        code, _, _ = run(capsys, "admissible", fx("doubling.json"),
                         "--from", "origin", "--set", "unit", "--bound", "8")
        assert code == 3


class TestIndex:
    def test_finite_attractor(self, capsys):
        code, out, _ = run(capsys, "index", fx("attractor.json"),
                           "--set", "S", "--nbhd", "all", "--json")
        assert code == 0
        rep = json.loads(out)["report"]
        assert rep["ok"]
        assert rep["neighbourhoods"][0]["canonical_invariant"] == [2, [1, 1]]

    @pytest.mark.parametrize("nbhd, endo", [
        (["*", "a"], "Endo{*->*, a->*, **->**}"),
        (["*", "a", "**"], "Endo{*->*, a->*, **->a, ***->***}")])
    def test_basepoint_is_renamed_past_the_points_of_n(self, tmp_path, capsys,
                                                        nbhd, endo):
        # the point added by the one-point compactification is named *, **,
        # ... until the name is no point of N
        doc = write(tmp_path / "star.json", {
            "kind": "finite_map",
            "system": {"points": ["*", "a", "**"],
                       "table": {"*": "*", "a": "*", "**": "a"}},
            "sets": {"S": ["*"], "N": nbhd}})
        code, out, _ = run(capsys, "index", doc, "--set", "S", "--nbhd", "N",
                           "--json")
        assert code == 0
        assert json.loads(out)["report"]["neighbourhoods"][0]["object"] == endo

    def test_doubling_with_search(self, capsys):
        code, out, _ = run(capsys, "index", fx("doubling.json"),
                           "--set", "S", "--nbhd", "unit",
                           "--search", "8", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["constructed"]["subset"] == \
            [[["-1/2", False, "1/2", False]]]
        assert payload["constructed"]["triple"] == ["0", "1", "1"]

    def test_clamp_flow_certified(self, capsys):
        code, out, _ = run(capsys, "index", fx("clamp_flow.json"),
                           "--set", "S", "--nbhd", "unit", "--json")
        assert code == 0
        assert json.loads(out)["report"]["ok"]

    def test_corner_flow_certified(self, capsys):
        code, out, _ = run(capsys, "index", fx("corner_flow.json"),
                           "--set", "S", "--nbhd", "square", "--json")
        assert code == 0
        assert json.loads(out)["report"]["ok"]


class TestDecidedStatus:
    """A decided index or szymczak-equal reply names its outcome in
    ``status``; a failed law, forced here, is the other value."""

    INDEX = {"attractor.json": ("S", "all"),
             "doubling.json": ("S", "open_half"),
             "clamp_flow.json": ("S", "unit")}
    EQUAL = {"attractor.json": ("all", "core"),
             "doubling.json": ("open_half", "open_quarter"),
             "clamp_flow.json": ("unit", "half")}

    @pytest.mark.parametrize("name", sorted(INDEX))
    def test_index(self, capsys, monkeypatch, name):
        s, nbhd = self.INDEX[name]
        argv = ("index", fx(name), "--set", s, "--nbhd", nbhd, "--bound", "8",
                "--json")
        code, out, _ = run(capsys, *argv)
        assert (code, json.loads(out)["status"]) == (0, "certified")
        real = co.verify_simple_system

        def failing(*args, **kwargs):
            rep = real(*args, **kwargs)
            return dataclasses.replace(rep, checks=rep.checks + (
                co.Check("forced", "a failed law", False),))
        monkeypatch.setattr(co, "verify_simple_system", failing)
        code, out, _ = run(capsys, *argv)
        payload = json.loads(out)
        assert (code, payload["status"], payload["report"]["ok"]) == \
            (1, "violated", False)
        code, out, _ = run(capsys, *argv[:-1])
        assert (code, out.splitlines()[-1]) == (1, "VIOLATION in functor laws")

    @pytest.mark.parametrize("name", sorted(EQUAL))
    def test_szymczak_equal(self, capsys, monkeypatch, name):
        source, target = self.EQUAL[name]
        argv = ("szymczak-equal", fx(name), "--from", source, "--set", target,
                "--bound", "8", "--json")
        code, out, _ = run(capsys, *argv)
        payload = json.loads(out)
        assert (code, payload["status"], payload["equal"]) == \
            (0, "equal", True)
        monkeypatch.setattr(co, "same_class", lambda *args: False)
        code, out, _ = run(capsys, *argv)
        payload = json.loads(out)
        assert (code, payload["status"], payload["equal"]) == \
            (1, "different", False)
        code, out, _ = run(capsys, *argv[:-1])
        assert code == 1 and out.endswith(": DIFFERENT\n")


class TestSzymczakCommands:
    def test_szymczak_equal(self, capsys):
        code, _, _ = run(capsys, "szymczak-equal", fx("doubling.json"),
                         "--from", "open_half", "--set", "open_quarter",
                         "--bound", "8")
        assert code == 0

    def test_shift_equiv_finite(self, capsys):
        code, out, _ = run(capsys, "shift-equiv", fx("attractor.json"),
                           "--from", "core", "--set", "all", "--json")
        assert code == 0
        assert json.loads(out)["status"] == "yes"

    def test_shift_equiv_interval(self, capsys):
        code, _, _ = run(capsys, "shift-equiv", fx("doubling.json"),
                         "--from", "open_half", "--set", "open_quarter",
                         "--bound", "8")
        assert code == 0


class TestVerify:
    def test_named_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "worked-models")
        assert code == 0

    def test_seeded_suite(self, capsys):
        code, _, _ = run(capsys, "verify", "--suite", "thm-4-properness",
                         "--trials", "50", "--seed", "7")
        assert code == 0

    def test_unknown_suite(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "unknown-name")
        assert code == 2 and out == ""
        assert err.startswith("input error: unknown suite 'unknown-name'; "
                              "known: cont-discriminator, ")
        for name in ("box-algebra", "finite-algebra", "pam-laws"):
            code, out, err = run(capsys, "verify", "--suite", name, "--json")
            assert code == 2 and out == ""
            assert err == (
                f"input error: unknown suite {name!r}; known: "
                "cont-discriminator, cont-laws, invariant-part-oracle, "
                "simple-system, szymczak-oracle, thm-4-composition, "
                "thm-4-properness, worked-models\n")

    def test_bound_is_a_usage_error(self, capsys):
        # no suite reads a bound, so verify takes none and echoes none
        with pytest.raises(SystemExit) as info:
            main(["verify", "--suite", "worked-models", "--bound", "3",
                  "--json"])
        out, err = capsys.readouterr()
        assert info.value.code == 2 and out == ""
        assert err.startswith("usage:") and "--bound" in err

    @pytest.mark.parametrize("suite", ["worked-models", "simple-system",
                                       "cont-laws", "cont-discriminator",
                                       "szymczak-oracle"])
    @pytest.mark.parametrize("option", ["--seed", "--trials"])
    def test_an_option_the_suite_does_not_read_is_an_input_error(
            self, capsys, suite, option):
        # worked-models used to pass and echo meta.seed 99 unread
        code, out, err = run(capsys, "verify", "--suite", suite, option,
                             "99", "--json")
        assert code == 2 and out == ""
        assert err == f"input error: suite {suite!r} reads no {option}\n"

    def test_meta_echoes_the_seed_the_suite_read(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "thm-4-properness",
                           "--trials", "3", "--seed", "99", "--json")
        assert code == 0 and json.loads(out)["meta"]["seed"] == 99
        code, out, _ = run(capsys, "verify", "--suite", "worked-models",
                           "--json")
        assert code == 0 and "seed" not in json.loads(out)["meta"]

    def test_seeded_names_the_suites_that_take_trials_and_seed(self):
        import inspect
        from conley_kernel import suites
        params = {name: set(inspect.signature(suite).parameters)
                  for name, suite in suites.SUITES.items()}
        assert suites.SEEDED == {name for name, p in params.items()
                                 if {"trials", "seed"} <= p}
        assert all(not {"trials", "seed"} & p for name, p in params.items()
                   if name not in suites.SEEDED)

    def test_zero_trials_are_an_input_error(self, capsys):
        # a suite run on 0 trials used to report pass
        code, out, err = run(capsys, "verify", "--suite", "thm-4-composition",
                             "--trials", "0", "--json")
        assert code == 2 and out == ""
        assert err.startswith("input error: --trials must be at least 1")

    def test_suites_define_only_what_verify_runs(self):
        """Every top-level definition of suites.py is reached from SUITES,
        run_suite or check_request; what only tests use lives under
        tests/."""
        from conley_kernel import suites
        roots = ["SUITES", "run_suite", "check_request"]
        assert unreached_definitions(Path(suites.__file__), roots) == []

    def test_kernel_oracles_define_only_what_tests_read(self):
        """Every top-level definition of tests/kernel_oracles.py is read by
        some tests/test_*.py, directly or through another definition of
        that module: an oracle that no test runs is deleted, not kept."""
        here = Path(__file__).resolve().parent
        read = [alias.name for path in here.glob("test_*.py")
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.ImportFrom)
                and node.module == "kernel_oracles" for alias in node.names]
        assert unreached_definitions(here / "kernel_oracles.py", read) == []

    def test_only_verify_loads_the_suites(self):
        # the suites and their oracles are test code, which the other
        # commands do not import
        probe = ("import sys, conley_kernel.cli; "
                 "print('conley_kernel.suites' in sys.modules)")
        done = subprocess.run([sys.executable, "-c", probe], check=True,
                              capture_output=True, text=True, timeout=60,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert done.stdout.strip() == "False"


def write(path, data):
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


# memo fields of the systems; the cached properties are the other
# entries of an instance's __dict__
MEMOS = ("_iterates", "_images", "_preimages", "_time_maps", "_swept")


class TestParseCache:
    """cli keeps the parse of each document text and rebuilds the system
    and the sets of every load from it, so two loads share no memo."""

    @pytest.mark.parametrize("name, label", [
        ("attractor.json", "all"), ("doubling.json", "unit"),
        ("clamp_flow.json", "unit")])
    def test_two_loads_share_no_memo(self, name, label):
        # the CLI twin of test_two_parses_of_one_document_share_no_memo
        parsed = parse_document(json.loads(Path(fx(name)).read_text()))
        one, two = cli._load(fx(name)), cli._load(fx(name))
        objects = [(doc.system, *doc.sets.values()) for doc in (one, two)]
        assert one.system == two.system and one.sets == two.sets
        for a, b, p in zip(*objects, (parsed.system, *parsed.sets.values())):
            assert a is not b
            # fields and cached properties as right after a parse
            assert vars(a).keys() == vars(b).keys() == vars(p).keys()
            for m in MEMOS:
                if hasattr(a, m):
                    assert getattr(a, m) == {} == getattr(b, m)
                    assert getattr(a, m) is not getattr(b, m)
        if name == "attractor.json":   # finite sets hold the map's space
            assert one.system.space is not two.system.space
            assert all(s.space is one.system.space for s in one.sets.values())
        if name == "clamp_flow.json":  # the carrier caches its boxes
            assert one.system.carrier is not two.system.carrier
            assert vars(one.system.carrier).keys() == \
                vars(parsed.system.carrier).keys()
        one.system.dom(one.sets[label], 3)
        one.system.time_map(2)
        assert any(getattr(one.system, m, None) for m in MEMOS)
        assert not any(getattr(two.system, m, None) for m in MEMOS)

    def test_a_rewritten_file_answers_per_its_new_text(self, tmp_path, capsys):
        doc = {"kind": "finite_map",
               "system": {"points": ["a", "b"], "table": {"a": "a"}},
               "sets": {"E": ["a", "b"]}}
        path = write(tmp_path / "doc.json", doc)
        answers = []
        for table in ({"a": "a"}, {"a": "a", "b": "b"}, {"a": "a"}):
            doc["system"]["table"] = table
            write(tmp_path / "doc.json", doc)
            code, out, _ = run(capsys, "invariant-part", path, "--set", "E",
                               "--json")
            assert code == 0
            answers.append(json.loads(out)["invariant_part"])
        assert answers == [["a"], ["a", "b"], ["a"]]

    def test_parse_runs_once_until_evicted(self, tmp_path, monkeypatch):
        calls = []

        def counted(data):
            calls.append(data)
            return document_builder(data)

        monkeypatch.setattr(cli, "document_builder", counted)
        cli._builder.cache_clear()
        kept = fx("doubling.json")
        for _ in range(3):
            cli._load(kept)
        assert len(calls) == 1
        others = [write(tmp_path / f"{i}.json",
                        {"kind": "finite_map",
                         "system": {"points": [f"p{i}"], "table": {}}})
                  for i in range(cli.PARSE_CACHE_SIZE)]
        for path in others[:-1]:
            cli._load(path)
        cli._load(kept)                  # the least recently used is others[0]
        assert len(calls) == cli.PARSE_CACHE_SIZE
        cli._load(others[-1])            # evicts others[0], keeps doubling
        cli._load(kept)
        assert len(calls) == cli.PARSE_CACHE_SIZE + 1
        for path in others:              # each evicts the next one read
            cli._load(path)
        cli._load(kept)
        assert len(calls) == 2 * cli.PARSE_CACHE_SIZE + 2

    def test_a_failed_parse_is_never_kept(self, tmp_path, capsys, monkeypatch):
        calls = []

        def counted(data):
            calls.append(data)
            return document_builder(data)

        monkeypatch.setattr(cli, "document_builder", counted)
        bad = write(tmp_path / "bad.json", {"kind": "nope"})
        for _ in range(2):
            code, out, err = run(capsys, "check", bad)
            assert code == 2 and out == ""
            assert err == "input error: unknown document kind 'nope'\n"
        assert len(calls) == 2

    @pytest.mark.parametrize("carrier, message", [
        ([[["-1", True, "inf", False]]],
         "carrier leaves the natural domain of the rules"),
        ([[["1", True, "2", True]]], "carrier is not forward invariant"),
    ], ids=["off-natural-range", "not-forward-invariant"])
    def test_a_bad_carrier_fails_every_load(self, tmp_path, capsys, carrier,
                                             message):
        # the flow's carrier checks run in the parse, which is never kept
        bad = write(tmp_path / "bad.json", {"kind": "semiflow", "system": {
            "dimension": 1, "carrier": carrier,
            "axes": [{"kind": "floor", "velocity": "1", "clamp": "0"}]}})
        for _ in range(2):
            code, out, err = run(capsys, "check", bad)
            assert code == 2 and out == ""
            assert err.startswith(f"input error: bad semiflow system: {message}")

    def test_threads_get_their_own_system(self):
        barrier, systems = threading.Barrier(8), [None] * 8

        def load(i):
            barrier.wait()
            systems[i] = cli._load(fx("clamp_flow.json")).system

        threads = [threading.Thread(target=load, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len({id(s) for s in systems}) == 8
        assert all(s == systems[0] for s in systems)
        assert len({id(s._time_maps) for s in systems}) == 8


# texts nested deeper than the JSON decoder recurses: unreadable, not an
# exhausted resource
DEEP_BRACKETS = b"[" * 200_000 + b"]" * 200_000
DEEP_SET = (FIXTURES / "doubling.json").read_bytes().replace(
    b'"unit": [[["-1", true, "1", true]]]',
    b'"unit": ' + b"[" * 5000 + b"]" * 5000)


@pytest.mark.parametrize("content", [
    b"\xff\xfe{}", "\ufeff{}".encode("utf-8"), None, DEEP_BRACKETS, DEEP_SET],
    ids=["not-utf-8", "utf-8-bom", "directory", "nested-200000-deep",
         "set-nested-5000-deep"])
def test_every_read_failure_has_one_message(tmp_path, capsys, content):
    path = tmp_path / "doc.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    for _ in range(2):                   # a failure is never cached
        code, out, err = run(capsys, "check", str(path), "--json")
        assert code == 2 and out == ""
        assert err.startswith(f"input error: cannot read document {path}: ")
        assert err.count("\n") == 1 and "Traceback" not in err


class TestExitCodes:
    def test_missing_document(self, capsys):
        code, _, err = run(capsys, "check", "no-such-file.json")
        assert code == 2

    def test_unknown_label(self, capsys):
        code, _, _ = run(capsys, "invariant-part", fx("attractor.json"),
                         "--set", "nope")
        assert code == 2

    def test_malformed_document(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"kind": "interval_map", "system": {
            "dimension": 1,
            "pieces": [{"domain": [[["0", True, "1", True]]],
                        "rules": [{"slope": "0.5", "intercept": "0"}]}],
        }}))
        code, _, _ = run(capsys, "check", str(bad))
        assert code == 2

    def test_sets_not_an_object(self, tmp_path, capsys):
        raw = json.loads(Path(fx("doubling.json")).read_text())
        raw["sets"] = [raw["sets"]["unit"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        code, _, err = run(capsys, "check", str(bad))
        assert code == 2
        assert "'sets' must be a JSON object" in err

    @pytest.mark.parametrize("kind,key,value,message", [
        ("finite_map", "table", [], "table must be a JSON object"),
        ("finite_map", "table", "", "table must be a JSON object"),
        ("finite_map", "table", 0, "table must be a JSON object"),
        ("interval_map", "pieces", {}, "pieces must be a JSON list"),
        ("interval_map", "pieces", "", "pieces must be a JSON list"),
        ("semiflow", "axes", {}, "axes must be a JSON list"),
        ("semiflow", "axes", "", "axes must be a JSON list"),
        ("semiflow", "axes", [{"kind": "floor", "velocity": "1", "clamp": "0"},
                              {"kind": "identity"}],
         "dimension 1 does not match the 2 axes"),
        ("finite_map", "kind", ["x"], "unknown document kind ['x']"),
        ("finite_map", "kind", {"x": "y"}, "unknown document kind {'x': 'y'}"),
        ("finite_map", "table", {"1": 2}, "table entry 1->2 leaves the space"),
        ("finite_map", "table", {"1": ["2"]},
         "table entry 1->['2'] leaves the space"),
        ("finite_map", "sets", {"A": [1, "2"]}, "subset contains unknown points"),
        ("finite_map", "sets", {"A": [["1"]]}, "subset contains unknown points"),
        ("interval_map", "sets", {"A": "x"}, "a box set must be a list of boxes"),
        ("interval_map", "sets", {"A": [[]]}, "each box needs 1 interval(s)"),
        ("finite_map", "sets", {"A": "1"},
         "a finite set must be a list of point names"),
        ("finite_map", "points", ["1", "2", "1"],
         "bad finite system: point identifiers must be unique\n"),
        ("interval_map", "pieces",
         [{"domain": [[["0", True, "1", True]]], "rules": []}],
         "bad interval system: one rule per axis required"),
        ("semiflow", "axes", [{"kind": "spin"}],
         "bad semiflow system: unknown axis kind 'spin'"),
        ("finite_map", "document", ["x"], "document must be a JSON object"),
        ("semiflow", "sets", {"A": [[["-1", True, "0", True]]]},
         "set leaves the semiflow carrier"),
    ], ids=["table-list", "table-string", "table-number", "pieces-object",
            "pieces-string", "axes-object", "axes-string", "axes-count",
            "kind-list", "kind-object", "target-number", "target-list",
            "member-number", "member-list", "boxes-string", "box-size",
            "finite-set-string", "duplicate-points", "rule-count",
            "axis-kind", "document-list", "set-off-carrier"])
    def test_malformed_system_shapes(self, tmp_path, capsys, kind, key, value,
                                     message):
        """Point names are strings: a number naming a point is not
        converted, and an unhashable one raises no traceback.  Each row
        replaces one entry of a valid document (``document`` the whole)."""
        system = {"finite_map": {"points": ["1", "2"]},
                  "interval_map": {"dimension": 1, "pieces": []},
                  "semiflow": {"dimension": 1, "axes": [
                      {"kind": "floor", "velocity": "1", "clamp": "0"}]}}[kind]
        doc = {"kind": kind, "system": system}
        if key == "document":
            doc = value
        elif key in ("kind", "sets"):   # the document's own kind or sets
            doc[key] = value
        else:
            doc["system"] = {**system, key: value}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "check", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("document, start", [
        ((FIXTURES / "doubling.json").read_text().replace(
            '"unit": [[["-1", true, "1", true]]]',
            '"unit": ' + "[" * 900 + "]" * 900),
         "input error: interval must be [lo, lo_closed, hi, hi_closed], "
         "got [[[["),
        (json.dumps({"kind": "finite_map", "system": {
            "points": ["a", "b"], "table": {"a": "b" * 5000}}}),
         "input error: bad finite system: table entry a->bbbb"),
        ((FIXTURES / "doubling.json").read_text().replace(
            '"slope": "2"', '"slope": "' + "9" * 3000 + '.5"'),
         "input error: bad interval system: bad rational '9999"),
    ], ids=["set-nested-900-deep", "target-5000-long", "slope-3000-digits"])
    def test_a_long_bad_value_gives_a_short_message(self, tmp_path, capsys,
                                                    document, start):
        """The bad value is echoed cut, so the one message line stays
        short however large or deep the value."""
        bad = tmp_path / "bad.json"
        bad.write_text(document)
        code, out, err = run(capsys, "check", str(bad))
        assert code == 2 and out == ""
        assert err.startswith(start) and err.count("\n") == 1
        assert len(err) <= 201


NEGATIVE_BOUNDS = {
    "admissible --bound": ("admissible", "doubling.json", "--from", "unit",
                           "--set", "open_half", "--bound", "-1"),
    "invariant-part --bound": ("invariant-part", "doubling.json",
                               "--set", "unit", "--bound", "-2"),
    "index --search": ("index", "doubling.json", "--set", "S",
                       "--nbhd", "unit", "--search", "-3"),
    "finite index --search": ("index", "attractor.json", "--set", "core",
                              "--nbhd", "all", "--search", "-3"),
    "finite sim --bound": ("sim", "attractor.json", "--from", "all",
                           "--set", "core", "--bound", "-1"),
    "flow check --bound": ("check", "clamp_flow.json", "--bound", "-1"),
    "verify --trials": ("verify", "--suite", "thm-4-composition",
                        "--trials", "-1"),
}


@pytest.mark.parametrize("case", sorted(NEGATIVE_BOUNDS))
def test_negative_bounds_are_input_errors(case, capsys):
    command, *argv = NEGATIVE_BOUNDS[case]
    argv = [fx(a) if a.endswith(".json") else a for a in argv]
    code, out, err = run(capsys, command, *argv, "--json")
    assert code == 2 and out == ""
    assert err.startswith("input error: ") and "negative" in err


def test_zero_bound_stays_valid(capsys):
    code, out, _ = run(capsys, "admissible", fx("doubling.json"), "--from",
                       "origin", "--set", "origin", "--bound", "0", "--json")
    assert code == 0
    assert json.loads(out)["meta"]["bound"] == "0"

# two distinct fixed points a, b (and c -> a): {a} and {b} are not related
UNRELATED = {"kind": "finite_map",
             "system": {"points": ["a", "b", "c"],
                        "table": {"a": "a", "b": "b", "c": "a"}},
             "sets": {"A": ["a"], "B": ["b"]}}


class TestUnrelatedFinitePair:
    @pytest.mark.parametrize("command, status", [
        ("sim", "not_equivalent"), ("admissible", "none"),
        ("szymczak-equal", "none"), ("shift-equiv", "no")])
    def test_complete_negative_exits_1(self, tmp_path, capsys, command, status):
        doc = tmp_path / "unrelated.json"
        doc.write_text(json.dumps(UNRELATED))
        # the CLI bound must not cut the finite carrier's complete search
        code, out, _ = run(capsys, command, str(doc), "--from", "A",
                           "--set", "B", "--bound", "2", "--json")
        assert code == 1
        assert json.loads(out)["status"] == status


    @pytest.mark.parametrize("command", ["sim", "admissible", "szymczak-equal"])
    def test_meta_records_the_bound_the_search_used(self, tmp_path, capsys,
                                                    command):
        doc = tmp_path / "unrelated.json"
        doc.write_text(json.dumps(UNRELATED))
        parsed = parse_document(UNRELATED)
        derived = dyn.find_admissible(parsed.system, parsed.resolve("A"),
                                      parsed.resolve("B")).bound
        code, out, _ = run(capsys, command, str(doc), "--from", "A",
                           "--set", "B", "--json")
        assert code == 1
        assert json.loads(out)["meta"]["bound"] == str(derived) != "64"


class TestFiniteWorkReportsNoBound:
    """Finite work other than a search takes no bound, so `meta` has none,
    with or without --bound."""

    @pytest.mark.parametrize("argv, code", [
        (["invariant-part", "--set", "all"], 0),
        (["check"], 0),
        (["isolating", "--set", "S", "--nbhd", "all"], 0),
        (["index-nbhd", "--set", "S", "--nbhd", "all"], 0),
        (["index", "--set", "S", "--nbhd", "all"], 0),
        (["index", "--set", "S", "--nbhd", "all", "--search", "4"], 0),
        (["shift-equiv", "--from", "core", "--set", "all"], 0)])
    @pytest.mark.parametrize("bound", [[], ["--bound", "5"]])
    def test_meta_has_no_bound(self, capsys, argv, code, bound):
        got, out, _ = run(capsys, argv[0], fx("attractor.json"), *argv[1:],
                          *bound, "--json")
        assert got == code
        assert "bound" not in json.loads(out)["meta"]


class TestRepeatedCalls:
    def test_no_state_leaks_between_calls(self, capsys):
        code, out, _ = run(capsys, "check", fx("attractor.json"),
                           "--set", "core", "--set", "all", "--json")
        assert code == 0
        assert sorted(json.loads(out)["table"]) == ["all", "core"]
        code, out, _ = run(capsys, "invariant-part", fx("attractor.json"),
                           "--set", "all", "--json")
        assert code == 0
        assert json.loads(out)["invariant_part"] == ["s"]
        code, out, _ = run(capsys, "check", fx("attractor.json"),
                           "--set", "S", "--human")
        assert code == 0
        assert out.splitlines()[0] == "S:"
        code, out, _ = run(capsys, "check", fx("attractor.json"), "--json")
        assert code == 0
        assert sorted(json.loads(out)["table"]) == ["S", "all", "core"]


UNBOUNDED_S = "invariance of an unbounded set is undecided"


def clamp_with_ray(tmp_path):
    """clamp_flow.json plus the unbounded set ray = [0, inf)."""
    raw = json.loads(Path(fx("clamp_flow.json")).read_text())
    raw["sets"]["ray"] = [[["0", True, "inf", False]]]
    doc = tmp_path / "clamp_ray.json"
    doc.write_text(json.dumps(raw))
    return str(doc)


class TestUndecidedPayload:
    """Every exit 3 prints the `unknown` payload on standard output, with
    the bound the work actually used."""

    @pytest.mark.parametrize("command", ["isolating", "index-nbhd", "index"])
    def test_unbounded_set_prints_unknown(self, tmp_path, capsys, command):
        doc = clamp_with_ray(tmp_path)
        code, out, _ = run(capsys, command, doc, "--set", "ray",
                           "--nbhd", "ray", "--json")
        assert code == 3
        payload = json.loads(out)
        assert payload["status"] == "unknown"
        assert payload["reason"] == UNBOUNDED_S
        assert "bound" not in payload["meta"]
        code, out, _ = run(capsys, command, doc, "--set", "ray",
                           "--nbhd", "ray", "--human")
        assert code == 3
        assert out == f"unknown: {UNBOUNDED_S}\n"

    def test_shift_equiv_reports_the_invariant_part_cap(self, capsys):
        code, out, _ = run(capsys, "shift-equiv", fx("shift2d.json"),
                           "--from", "step_pm3", "--set", "step_pm3",
                           "--bound", "8", "--json")
        assert code == 3
        payload = json.loads(out)
        assert payload["reason"] == "invariant part did not stabilize"
        assert payload["meta"]["bound"] == "64"
        assert payload["outer"]

    def test_index_search_reports_the_seed_halvings(self, tmp_path, capsys):
        # no closed inflation of S by 2^-k, k < 24, fits in N = (-2^-30, 2^-30)
        raw = json.loads(Path(fx("doubling.json")).read_text())
        raw["sets"]["tiny"] = [[["-1/1073741824", False,
                                 "1/1073741824", False]]]
        doc = tmp_path / "doubling_tiny.json"
        doc.write_text(json.dumps(raw))
        code, out, _ = run(capsys, "index", str(doc),
                           "--set", "S", "--nbhd", "tiny",
                           "--search", "8", "--json")
        assert code == 3
        payload = json.loads(out)
        assert payload["reason"] == \
            "no compact box neighbourhood of S inside N found"
        assert payload["meta"]["bound"] == str(co.SEED_HALVINGS) == "24"

    def test_index_search_clips_the_seed_to_the_flow_carrier(self, capsys):
        # N = [0, 1) at the edge of the carrier [0, inf): the inflation
        # [-1/2, 1/2] clipped to the carrier is the compact seed [0, 1/2]
        code, out, _ = run(capsys, "index", fx("clamp_flow.json"),
                           "--set", "S", "--nbhd", "halfopen",
                           "--search", "8", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["constructed"] == {
            "subset": [[["0", True, "1/2", True]]],
            "triple": ["1/4", "1/4", "1/4"]}
        assert payload["report"]["ok"] is True

    def test_folding_map_stops_at_the_iterate_box_budget(self, tmp_path,
                                                        capsys):
        # x -> -2x on [-1, 1], 3x - 5 beyond 1, 3x + 5 below -1: the
        # invariant part of [-1, 4] is a Cantor set, and D_16 is the first
        # iterate of more than affine.ITERATE_BOX_BUDGET = 4096 intervals
        def rule(slope, intercept):
            return [{"slope": slope, "intercept": intercept}]
        doc = tmp_path / "fold.json"
        doc.write_text(json.dumps({
            "kind": "interval_map",
            "system": {"dimension": 1, "pieces": [
                {"domain": [[["-inf", False, "-1", False]]],
                 "rules": rule("3", "5")},
                {"domain": [[["-1", True, "1", True]]],
                 "rules": rule("-2", "0")},
                {"domain": [[["1", False, "inf", False]]],
                 "rules": rule("3", "-5")}]},
            "sets": {"E": [[["-1", True, "4", True]]]}}))
        start = time.perf_counter()
        code, out, _ = run(capsys, "invariant-part", str(doc), "--set", "E",
                           "--json")
        assert time.perf_counter() - start < 20
        assert code == 3
        payload = json.loads(out)
        assert payload["reason"] == "an iterate exceeded 4096 boxes"
        assert payload["meta"]["bound"] == "16"
        assert "outer" not in payload

    def test_flow_invariant_part_reports_no_bound(self, tmp_path, capsys):
        code, out, _ = run(capsys, "invariant-part", clamp_with_ray(tmp_path),
                           "--set", "ray", "--json")
        assert code == 3
        payload = json.loads(out)
        assert payload["reason"] == "floor axis unbounded above in E"
        assert "bound" not in payload["meta"]
        assert payload["outer"] == [[["0", True, "inf", False]]]


class TestCrashesAreNotNegatives:
    """Exit 1 is a complete negative, so no exception may end in it: running
    out of memory or stack is undecided (exit 3), anything else is an
    internal error (exit 4)."""

    @staticmethod
    def raising(exc):
        def handler(*args, **kwargs):
            raise exc
        return handler

    @pytest.mark.parametrize("exc", [MemoryError(), RecursionError("deep")],
                             ids=["memory", "recursion"])
    @pytest.mark.parametrize("flag", ["--json", "--human"])
    def test_resource_exhaustion_is_undecided(self, capsys, monkeypatch, exc,
                                              flag):
        monkeypatch.setattr(dyn, "sim_f", self.raising(exc))
        code, out, err = run(capsys, "sim", fx("doubling.json"), "--from",
                             "unit", "--set", "unit", flag)
        assert code == 3 and err == ""
        if flag == "--json":
            payload = json.loads(out)
            assert payload["status"] == "unknown"
            assert payload["reason"] == "resource exhausted"
            assert "bound" not in payload["meta"]
        else:
            assert out == "unknown: resource exhausted\n"

    # The child limits its own address space to 64 MB above its size and
    # runs a sim handler whose frame holds a growing list until no
    # allocation of any size succeeds.  It first makes its own and its
    # caller's frame objects (one that cannot be made later drops the error
    # and frees the frame), empties the dict free lists, and keeps two
    # blocks that it frees for the tracebacks of its error.  So the error
    # holds the frame and its list: until it is released, no dict or tuple
    # can be made, and a reply built in the except clause fails again.
    EXHAUST = """if True:
        import os, resource, sys
        from conley_kernel import cli

        def hog(args, doc, bound):
            sys._getframe(0), sys._getframe(1)
            held = [{"k": i} for i in range(100)]
            spare = [bytes(24), bytes(24)]
            for size in [1 << 16, 1 << 12] + list(range(512, -1, -8)):
                try:
                    while True:
                        held = (held, bytes(size))
                except MemoryError:
                    pass
            del spare
            raise MemoryError

        cli.COMMANDS = tuple((name, text, hog if name == "sim" else handler, options)
                             for name, text, handler, options in cli.COMMANDS)
        with open("/proc/self/statm") as fh:
            size = int(fh.read().split()[0]) * os.sysconf("SC_PAGE_SIZE")
        limit = size + (64 << 20)
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        sys.exit(cli.main(sys.argv[1:]))
    """

    @pytest.mark.skipif(not os.path.exists("/proc/self/statm"),
                        reason="reads the child's size from /proc")
    def test_exhausted_memory_replies_unknown(self):
        pytest.importorskip("resource")
        done = subprocess.run(
            [sys.executable, "-c", self.EXHAUST, "sim", fx("attractor.json"),
             "--from", "S", "--set", "S", "--json"],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": SRC})
        assert done.returncode == 3, done.stdout + done.stderr
        payload = json.loads(done.stdout)
        assert payload["status"] == "unknown"
        assert payload["reason"] == "resource exhausted"
        assert "bound" not in payload["meta"]

    def test_other_exceptions_are_internal_errors(self, capsys, monkeypatch):
        monkeypatch.setattr(dyn, "sim_f",
                            self.raising(RuntimeError("two\nlines")))
        code, out, err = run(capsys, "sim", fx("doubling.json"), "--from",
                             "unit", "--set", "unit", "--json")
        assert code == 4 and out == ""
        assert err == "internal error: RuntimeError: two lines\n"

    @pytest.mark.parametrize("argv", [
        ["index", fx("kinked.json"), "--set", "S", "--nbhd", "N", "--json"],
        ["index", fx("kinked.json"), "--set", "S", "--nbhd", "N", "--human"],
        ["verify", "--suite", "worked-models", "--json"],
    ], ids=["json", "human", "verify"])
    def test_closed_stdout_is_an_internal_error(self, argv):
        # a pipe whose read end is closed: every write to it fails
        read, write = os.pipe()
        os.close(read)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "conley_kernel.cli", *argv],
                stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
                env={**os.environ, "PYTHONPATH": SRC})
        finally:
            os.close(write)
        assert done.returncode == 4
        assert done.stderr.startswith("internal error: BrokenPipeError")
        assert done.stderr.count("\n") == 1

    @pytest.mark.parametrize("exc, code", [(MemoryError(), 3),
                                           (ZeroDivisionError("x"), 4)],
                             ids=["memory", "internal"])
    def test_verify_keeps_the_contract(self, capsys, monkeypatch, exc, code):
        from conley_kernel import suites
        monkeypatch.setattr(suites, "run_suite", self.raising(exc))
        got, out, err = run(capsys, "verify", "--suite", "thm-4-composition",
                            "--json")
        assert got == code
        if code == 3:
            assert json.loads(out)["reason"] == "resource exhausted"
        else:
            assert out == "" and err.startswith("internal error: ZeroDivisionError")


class TestPrimeCycleSearches:
    """A cycle of each prime 2..7 (2..11) plus a fixed point z, searched
    from W, one point of each cycle, to Z = {z}: no triple exists.  The
    derived bound, reported as meta.bound, is 423 (4,623); Inv(Z) = Z is
    not in W, which decides the triple search before it tests a time."""

    @pytest.mark.parametrize("command", ["admissible", "szymczak-equal"])
    @pytest.mark.parametrize("primes, bound", [
        ((2, 3, 5, 7), 423), ((2, 3, 5, 7, 11), 4623)], ids=["2..7", "2..11"])
    def test_complete_negative(self, capsys, tmp_path, command, primes, bound):
        doc = write(tmp_path / "primes.json", prime_cycle_document(primes))
        code, out, _ = run(capsys, command, doc, "--from", "W", "--set", "Z",
                           "--json")
        payload = json.loads(out)
        assert code == 1, out
        assert payload["status"] == "none"
        assert payload["meta"]["bound"] == str(bound)


class TestLargePeriod:
    """Disjoint prime cycles, whose power sequence has a huge period.  No
    Szymczak table and no loop of the complete triple search is sized by
    the period, so each command answers under an address-space limit set
    on the child alone."""

    @staticmethod
    def run_limited(command, doc, *argv, limit):
        resource = pytest.importorskip("resource")

        def set_limit():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        return subprocess.run(
            [sys.executable, "-m", "conley_kernel.cli", command, str(doc),
             *argv],
            capture_output=True, text=True, timeout=120, preexec_fn=set_limit,
            env={**os.environ, "PYTHONPATH": SRC})

    @pytest.mark.parametrize("argv, answer", [
        (["index", "--set", "S", "--nbhd", "N"], "carrier: finite"),
        (["szymczak-equal", "--from", "N", "--set", "N"], ": equal"),
    ], ids=["index", "szymczak-equal"])
    def test_answers_within_one_gigabyte(self, tmp_path, argv, answer):
        # the primes 2..19: 77 points, period 9,699,690
        pts, table = [], {}
        for length in (2, 3, 5, 7, 11, 13, 17, 19):
            cycle = [f"c{length}.{i}" for i in range(length)]
            pts += cycle
            table.update({x: cycle[(i + 1) % length] for i, x in enumerate(cycle)})
        doc = tmp_path / "prime_cycles.json"
        doc.write_text(json.dumps({
            "kind": "finite_map", "system": {"points": pts, "table": table},
            "sets": {"S": pts, "N": pts}}))
        done = self.run_limited(argv[0], doc, *argv[1:], limit=1 << 30)
        assert done.returncode == 0, done.stdout + done.stderr
        assert answer in done.stdout

    def test_prime_cycle_search_within_800_megabytes(self, tmp_path):
        # the scan up to the derived bound 4,623 exhausted this limit
        doc = write(tmp_path / "primes.json",
                    prime_cycle_document((2, 3, 5, 7, 11)))
        done = self.run_limited("admissible", doc, "--from", "W", "--set",
                                "Z", "--json", limit=800 << 20)
        assert done.returncode == 1, done.stdout + done.stderr
        assert json.loads(done.stdout)["status"] == "none"
        assert done.stderr == ""


# ---------------------------------------------------------------------------
# plain lines are read off COMMANDS; argparse parses or rejects the rest

FLAGS = sorted({flag for *_, options in cli.COMMANDS for flag, _ in options}
               | {"--bound"})
WORDS = ([name for name, *_ in cli.COMMANDS] + FLAGS +
         [fx("attractor.json"), "--json", "--human", "-h", "--help", "--fr",
          "--set=all", "--", "-1", "-0", "", " 7", "1e3", "5", "S", "N",
          "all", "core", "unit"])


def parse_or_none(argv):
    """argparse's namespace for argv, or None where it exits: a rejected
    line or a help text."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli._parser().parse_args(argv)
        except SystemExit:
            return None


@st.composite
def command_lines(draw):
    """A document line of one command, all its required flags given, with
    up to two words of WORDS put in or over it."""
    name, _, _, options = draw(st.sampled_from(cli.COMMANDS))
    flags = [flag for flag, kwargs in options if kwargs.get("required")] + \
        draw(st.lists(st.sampled_from(["--bound"] + [f for f, _ in options]),
                      max_size=2))
    values = st.sampled_from(["S", "all", "core", "5", "", " 7", "1e3"])
    pairs = draw(st.permutations([[flag, draw(values)] for flag in flags]))
    argv = [name, fx("attractor.json")] + [w for pair in pairs for w in pair] \
        + draw(st.sampled_from([[], ["--json"], ["--human"]]))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(argv)))
        argv[at:at + draw(st.integers(0, 1))] = [draw(st.sampled_from(WORDS))]
    return argv


@settings(max_examples=500, deadline=None)
@given(command_lines())
def test_the_reader_agrees_with_argparse(argv):
    """A line the reader reads parses to the same namespace, and never is
    one that argparse rejects or answers with help."""
    read = cli._read(argv)
    assert read is None or read == parse_or_none(argv)


def load_sweep_outputs():
    """The module of scripts/sweep_outputs.py."""
    spec = importlib.util.spec_from_file_location(
        "sweep_outputs", Path(SRC).parent / "scripts" / "sweep_outputs.py")
    sweep = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(sweep)
    return sweep


def test_every_sweep_line_is_plain():
    """Every line scripts/sweep_outputs.py runs is read without argparse,
    to the namespace argparse gives it."""
    sweep = load_sweep_outputs()
    lines = 0
    for doc in sorted(FIXTURES.glob("*.json")):
        labels = sorted(json.loads(doc.read_text())["sets"])
        for line in sweep.command_lines(str(doc), labels):
            for bound in ([], ["--bound", "8"]):
                for mode in ("--json", "--human"):
                    argv = line + bound + [mode]
                    read = cli._read(argv)
                    assert read is not None and read == parse_or_none(argv)
                    lines += 1
    assert lines > 3000


def test_appended_sets_are_a_fresh_list_per_line():
    argv = ["check", fx("attractor.json"), "--set", "S", "--set", "core"]
    first = cli._read(argv)
    assert first.set == ["S", "core"] and cli._read(argv).set is not first.set


@pytest.mark.parametrize("argv, code, out, err", [
    (["sim", fx("attractor.json"), "--fr", "all", "--set", "core"], 0,
     "equivalent\n", ""),
    (["check", fx("attractor.json"), "--set=all"], 0, "all:\n", ""),
    (["check", fx("attractor.json"), "--json", "--human"], 2, "",
     "not allowed with"),
    (["check", fx("attractor.json"), "--bound", "1e3"], 2, "",
     "invalid int value"),
    (["index", fx("doubling.json"), "--set", "S", "--nbhd", "unit",
      "--search", "-0", "--json"], 3, '{\n  "meta": {\n    "bound": "0",', ""),
    (["--help"], 0, "usage:", ""),
    (["index", "--help"], 0, "usage:", ""),
], ids=["abbreviation", "equals-form", "json-and-human", "bad-int",
        "negative-zero", "help", "command-help"])
def test_lines_only_argparse_serves(capsys, argv, code, out, err):
    assert cli._read(argv) is None
    try:
        got = main(argv)
    except SystemExit as exc:           # argparse's help and usage errors
        got = exc.code
    stdout, stderr = capsys.readouterr()
    assert got == code
    assert stdout.startswith(out) and err in stderr


# ---------------------------------------------------------------------------
# metamorphic invariance: a change of coordinates changes no exact answer

def _flags(checks):
    return None if checks is None else [(c["name"], c["ok"]) for c in checks]


def _relabelling_invariants(record):
    """What the sweep record of a --json line keeps under a relabelling of
    points: the exit code, the status, the bound, the triples and
    witnesses, the exponent and the report's verdict, canonical invariants
    and check flags; not the sets, reprs and least tables, which follow
    point names and order."""
    reply = json.loads(record["stdout"] or "{}")
    report = reply.get("report") or {}
    return (record["exit"], reply.get("status"), reply.get("meta", {}).get("bound"),
            reply.get("triple"), reply.get("triples"), reply.get("forward"),
            reply.get("backward"), reply.get("equal"), reply.get("exponent"),
            report.get("ok"),
            [n["canonical_invariant"] for n in report.get("neighbourhoods", [])],
            _flags(reply.get("checks")), _flags(report.get("checks")))


def _random_finite_document(rng):
    """A partial map on up to 8 points with sets A, B and S; S is the
    cycles inside a random set, so that ``index`` has invariant sets to
    certify."""
    points = [f"p{i}" for i in range(rng.randint(1, 8))]
    table = {x: rng.choice(points) for x in points if rng.random() < 0.8}
    sets = {name: [x for x in points if rng.random() < 0.5] for name in "ABS"}
    doc = {"kind": "finite_map", "system": {"points": points, "table": table},
           "sets": sets}
    parsed = parse_document(doc)
    sets["S"] = list(parsed.system.invariant_part(parsed.sets["S"]).ordered())
    return doc


def _relabelled(doc, rng):
    """doc with every point renamed and the points in a shuffled order."""
    old = doc["system"]["points"]
    new = [f"x{i}" for i in rng.sample(range(100), len(old))]
    name = dict(zip(old, new))
    points = rng.sample(new, len(new))
    table = {name[x]: name[y] for x, y in doc["system"]["table"].items()}
    sets = {k: rng.sample([name[x] for x in v], len(v))
            for k, v in doc["sets"].items()}
    return {"kind": "finite_map", "system": {"points": points, "table": table},
            "sets": sets}


RELABELLED_COMMANDS = (("sim", "--from", "--set"),
                       ("admissible", "--from", "--set"),
                       ("szymczak-equal", "--from", "--set"),
                       ("shift-equiv", "--from", "--set"),
                       ("index", "--set", "--nbhd"),
                       ("index-nbhd", "--set", "--nbhd"))


def test_finite_relabelling_changes_no_exact_answer(tmp_path):
    """Renaming and reordering the points of a finite document changes no
    exit code, status, bound, triple, witness, exponent or index
    invariant, on every ordered pair of its sets."""
    sweep = load_sweep_outputs()
    rng = random.Random(97)
    calls = certified = 0
    for k in range(30):
        doc = _random_finite_document(rng)
        paths = [write(tmp_path / f"{k}.json", doc),
                 write(tmp_path / f"{k}r.json", _relabelled(doc, rng))]
        for command, first, second in RELABELLED_COMMANDS:
            for a in doc["sets"]:
                for b in doc["sets"]:
                    got = [_relabelling_invariants(sweep.run(
                        [command, path, first, a, second, b, "--json"]))
                        for path in paths]
                    assert got[0] == got[1], (doc, command, a, b)
                    calls += 2
                    certified += command == "index" and got[0][0] == 0
    assert calls == 3240 and certified > 50


def _scaled_flow(path, c):
    """The flow document at path with every speed multiplied by c."""
    doc = json.loads(Path(path).read_text())
    for axis in doc["system"]["axes"]:
        axis["velocity"] = str(Fraction(axis["velocity"]) * c)
    return doc


def _time_scale_invariants(record):
    """What the sweep record of a flow's --json line keeps when its time is
    rescaled: the exit code, the status, the ``check`` table, ``equal`` and
    the report's verdict."""
    reply = json.loads(record["stdout"] or "{}")
    return (record["exit"], reply.get("status"), reply.get("table"), reply.get("equal"),
            (reply.get("report") or {}).get("ok"))


@pytest.mark.parametrize("c", [Fraction(3), Fraction(1, 5)],
                         ids=["three", "one-fifth"])
def test_flow_time_rescaling_changes_no_verdict(tmp_path, c):
    """Every speed times c is the same flow in time t/c: every sweep line
    of the two flow fixtures keeps its verdict.  Triples should scale by
    1/c, but at c = 1/5 two admissible pairs of clamp_flow.json keep the
    least candidate time instead, so they are not compared here."""
    sweep = load_sweep_outputs()
    calls = 0
    for name in ("clamp_flow.json", "corner_flow.json"):
        scaled = write(tmp_path / name, _scaled_flow(fx(name), c))
        labels = sorted(json.loads(Path(fx(name)).read_text())["sets"])
        for line in sweep.command_lines(fx(name), labels):
            want = _time_scale_invariants(sweep.run(line + ["--json"]))
            line[1] = scaled
            assert _time_scale_invariants(sweep.run(line + ["--json"])) == \
                want, line
            calls += 2
    assert calls == 428
