"""The kernel loads per carrier: a process loads the modules of the
document kinds it reads, and the package loads none of them."""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import conley_kernel
from conley_kernel import cli
from conley_kernel import conley as co
from conley_kernel import dynamics as dyn
from conley_kernel import semiflow as sf

ROOT = Path(__file__).resolve().parent.parent
SRC = str(ROOT / "src")
BOX_MODULES = {"boxes", "affine", "semiflow"}
FINITE_MODULES = {"finite", "szymczak"}

# run cli.main on argv, then print the kernel modules loaded, one JSON line
PROBE = ("import json, sys\n"
         "from conley_kernel.cli import main\n"
         "code = main(sys.argv[1:])\n"
         "print(json.dumps([code, sorted(m.split('.', 1)[1] for m in sys.modules"
         " if m.startswith('conley_kernel.'))]))\n")


def fresh(*args):
    """Standard output of a fresh interpreter on the checkout's src/."""
    done = subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, timeout=120, cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert done.returncode == 0 and done.stderr == "", done.stderr
    return done.stdout


@pytest.mark.parametrize("argv, unloaded", [
    (["shift-equiv", "fixtures/attractor.json", "--from", "core", "--set",
      "all"], BOX_MODULES),
    (["index", "fixtures/doubling.json", "--set", "S", "--nbhd", "unit",
      "--search", "8"], FINITE_MODULES),
    (["index-nbhd", "fixtures/clamp_flow.json", "--set", "S", "--nbhd",
      "unit"], FINITE_MODULES),
], ids=["finite", "interval", "semiflow"])
def test_a_process_loads_only_its_document_kind(capsys, monkeypatch, argv,
                                                unloaded):
    """The reply of a fresh process equals the in-process reply, and the
    process has loaded no module of the other document kinds."""
    *reply, last = fresh("-c", PROBE, *argv).splitlines(keepends=True)
    code, loaded = json.loads(last)
    monkeypatch.chdir(ROOT)
    assert (code, "".join(reply)) == (cli.main(argv), capsys.readouterr().out)
    assert code == 0 and not unloaded & set(loaded)
    assert {"cli", "documents", "carriers"} <= set(loaded)


def test_the_package_loads_no_kernel_module():
    probe = ("import sys, conley_kernel; print(sorted(m for m in sys.modules "
             "if m.startswith('conley_kernel.')))")
    assert fresh("-c", probe) == "[]\n"


# the names the package exported when it imported them eagerly
PUBLIC = {"boxes": ("BoxSet", "Cut", "Interval", "NEG_INF", "POS_INF", "rat"),
          "affine": ("AffineRule", "Piece", "PiecewiseAffineMap"),
          "finite": ("FinitePartialMap", "FiniteSpace", "FiniteSubset")}


def test_every_public_name_resolves():
    assert conley_kernel.__all__ == ["__version__", *(
        name for names in PUBLIC.values() for name in names)]
    for home, names in PUBLIC.items():
        module = importlib.import_module(f"conley_kernel.{home}")
        for name in names:
            assert getattr(conley_kernel, name) is getattr(module, name)
    with pytest.raises(AttributeError, match="no attribute 'nothing'"):
        conley_kernel.nothing


def test_the_one_undecided_class_is_caught_everywhere():
    assert cli.Undecided is dyn.Undecided is co.Undecided is sf.Undecided


# what a system answers about its time domain, with the same parameters on
# every system type
TIME_DOMAIN = ("dom", "preimage_n", "time_map", "interior_of",
               "search_context", "invariant_part", "check_invariant",
               "weak_compactifiability_checks")


def test_every_system_answers_the_time_domain_interface():
    from conley_kernel.affine import PiecewiseAffineMap
    from conley_kernel.finite import FinitePartialMap
    from conley_kernel.szymczak import BasedEndo
    systems = {FinitePartialMap: ("finite", None),
               BasedEndo: ("finite", None),
               PiecewiseAffineMap: ("interval", 64),
               sf.ExactSemiflow: ("semiflow", 8)}
    for name in TIME_DOMAIN:
        parameters = {str(list(inspect.signature(getattr(t, name))
                               .parameters.values())) for t in systems}
        assert len(parameters) == 1, (name, parameters)
    for t, (carrier_name, default_bound) in systems.items():
        assert (t.carrier_name, t.default_bound) == (carrier_name,
                                                     default_bound)
    # g o f of realized maps: a semiflow's are piecewise affine
    assert inspect.signature(FinitePartialMap.after).parameters == \
        inspect.signature(PiecewiseAffineMap.after).parameters
