"""What importing the package and running the CLI load.

``import susykit`` and ``import susykit.cli`` load the enumeration path
only.  The surgery calculus, the gluing operad and curve configurations
load on the first use of one of their names, and DOT export when
``export-dot`` runs, so ``enumerate`` pays for none of them.  Every check
runs in a fresh interpreter, since a test run has loaded everything."""

import subprocess
import sys
from pathlib import Path

import pytest

from test_cli import GOLDEN_INPUTS, run, script_env, write

DEFERRED = ["susykit.calculus", "susykit.curves", "susykit.dot", "susykit.operad"]


def fresh(code: str, *argv: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter with ``argv``, this checkout's
    sources first on its path."""
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True,
        text=True,
        env=script_env(),
        timeout=60,
    )


def test_the_package_and_the_cli_load_no_deferred_module():
    proc = fresh(
        "import sys, susykit, susykit.cli\n"
        "print(*sorted(m for m in sys.modules if 'susykit' in m))"
    )
    loaded = proc.stdout.split()
    assert "susykit.cli" in loaded
    assert [m for m in DEFERRED if m in loaded] == []


def test_enumerate_loads_no_module():
    # a strata workload times the command alone, so it must import nothing
    proc = fresh(
        "import contextlib, io, sys, susykit, susykit.cli\n"
        "loaded = set(sys.modules)\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    rc = susykit.cli.main(['enumerate', '--genus', '0', '--ns', '5', '--poset'])\n"
        "print(rc, *sorted(m for m in sys.modules.keys() - loaded if 'susykit' in m))"
    )
    assert (proc.stdout, proc.stderr) == ("0\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        "dims corollas.json",
        "evaluate contraction.json",
        "check-axioms --cases 2",
        "dual-graph curve.json",
        "export-dot tree.json",
    ],
)
def test_a_deferred_command_runs_from_a_fresh_interpreter(tmp_path, capsys, argv):
    args = [
        write(tmp_path, a, GOLDEN_INPUTS[a]()) if a in GOLDEN_INPUTS else a
        for a in argv.split()
    ]
    proc = fresh("import sys, susykit.cli\nsys.exit(susykit.cli.main(sys.argv[1:]))", *args)
    assert (proc.returncode, proc.stderr) == (0, "")
    # the same output as in a test run, where every module is loaded already
    assert run(capsys, *args) == (0, proc.stdout, "")


@pytest.mark.parametrize(
    "code",
    [
        # each public name is the object that its defining module holds
        "for name in susykit.__all__:\n"
        "    value = getattr(susykit, name)\n"
        "    if name != '__version__':\n"
        "        home = 'susykit.susy' if isinstance(value, str) else value.__module__\n"
        "        assert getattr(sys.modules[home], name) is value, name",
        "names = {}\n"
        "exec('from susykit import *', names)\n"
        "assert set(susykit.__all__) <= names.keys()",
        "assert set(susykit.__all__) <= set(dir(susykit))",
        "assert susykit.calculus.graft is susykit.graft",
        # the first use binds every public name of its module in the package
        "susykit.graft\n"
        "unbound = [n for n in susykit.__all__ if n not in vars(susykit)]\n"
        "assert not any(hasattr(susykit.calculus, n) for n in unbound), unbound",
        "assert susykit.operad.GluingRecipe is susykit.GluingRecipe",
        "assert susykit.curves.dual_graph is susykit.dual_graph",
        "assert not hasattr(susykit, 'no_such_name')\n"
        "try:\n"
        "    susykit.no_such_name\n"
        "except AttributeError as exc:\n"
        "    assert 'no_such_name' in str(exc)\n"
        "else:\n"
        "    raise AssertionError('no AttributeError')",
    ],
)
def test_the_public_surface_on_a_fresh_import(code):
    proc = fresh(f"import sys, susykit\n{code}")
    assert (proc.returncode, proc.stderr) == (0, "")


def test_the_hygiene_checks_pass_run_alone():
    # they once read the value types from the modules that the package had
    # bound, so run alone, before another test file loaded the operad, they
    # missed its types
    hygiene = Path(__file__).with_name("test_hygiene.py")
    proc = fresh(
        "import sys, pytest\nsys.exit(pytest.main(sys.argv[1:]))",
        "-q", "-p", "no:cacheprovider", str(hygiene),
    )
    assert proc.returncode == 0, proc.stdout[-2000:]
