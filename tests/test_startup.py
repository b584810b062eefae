"""What a fresh process loads: importing the CLI loads no package module
but `operadlab.cli`, and each command loads only the modules it runs.
Every case starts its own interpreter, which lists the package modules
it has loaded as it exits, so nothing this test session has imported
counts."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
LISTING = ("import atexit, sys\n"
           "atexit.register(lambda: print('loaded:', *sorted(\n"
           "    m for m in sys.modules if m.startswith('operadlab.')), file=sys.stderr))\n")
# what `python -m operadlab.cli ARGS` runs
AS_MAIN = "import runpy\nrunpy.run_module('operadlab.cli', run_name='__main__', alter_sys=True)\n"


def run(code, *argv):
    """(completed process, the operadlab.* modules it loaded) of a fresh
    interpreter that runs `code` with `argv` as its arguments."""
    r = subprocess.run([sys.executable, "-c", LISTING + code, *argv], env=ENV,
                       capture_output=True, text=True, timeout=120)
    *lines, last = r.stderr.splitlines()
    r.stderr = "".join(line + "\n" for line in lines)
    assert last.startswith("loaded:")
    return r, set(last.split()[1:])


def cli(*argv):
    return run(AS_MAIN, *argv)


def plain_cli(*argv):
    """`python -m operadlab.cli ARGS`, as a user runs it."""
    return subprocess.run([sys.executable, "-m", "operadlab.cli", *argv], env=ENV,
                          capture_output=True, text=True, timeout=120)


def test_importing_the_cli_loads_no_other_package_module():
    r, mods = run("import operadlab.cli")
    assert r.returncode == 0 and mods == {"operadlab.cli"}


def test_importing_the_package_loads_a_name_on_first_use():
    r, mods = run("import operadlab\n"
                  "assert 'Scalar' not in vars(operadlab)\n"
                  "assert operadlab.Scalar is operadlab.scalar.Scalar\n"
                  "assert 'Scalar' in vars(operadlab)\n")
    assert r.returncode == 0, r.stderr
    assert mods == {"operadlab.scalar"}


TOWER = "operad T { gen m: none; rel m(m(x,y),z) - (q + v)*m(x,m(y,z)) = 0; }\n"

CORE = {"operadlab.scalar", "operadlab.free3", "operadlab.presentation"}


@pytest.mark.parametrize("argv, modules", [
    (("table", "--json"), CORE | {"operadlab.checkers"}),
    (("check", "FILE", "--cyclic", "--dihedral", "--json"), CORE | {"operadlab.checkers"}),
    (("quantize", "--mutate", "--json"), CORE | {"operadlab.quantize"}),
    (("mlab", "--seed", "1", "--trials", "20", "--json"),
     {"operadlab.scalar", "operadlab.mlab"}),
], ids=["table", "check", "quantize", "mlab"])
def test_a_command_loads_only_its_own_modules(tmp_path, argv, modules):
    path = tmp_path / "tower.op"
    path.write_text(TOWER, encoding="utf-8")
    r, mods = cli(*(str(path) if a == "FILE" else a for a in argv))
    assert r.returncode == 0 and r.stderr == ""
    assert json.loads(r.stdout)["command"] == argv[0]
    assert mods == modules


def test_help_loads_no_package_module():
    r = plain_cli("--help")
    assert r.returncode == 0 and r.stdout.startswith("usage: operadlab")
    r, mods = cli("--help")
    assert r.returncode == 0 and mods == set()


def test_a_failed_command_exits_with_one_error_line_before_loading_checkers():
    r = plain_cli("mlab", "--trials", "-1")
    assert (r.returncode, r.stdout) == (2, "")
    assert r.stderr == "error: trial count -1 is negative\n"
    # main builds its error classes after the command has failed: checkers
    # is not loaded when the error is raised
    r, _ = run("import sys\n"
               "from operadlab import cli\n"
               "seen = []\n"
               "def probe(args, command=cli.cmd_mlab):\n"
               "    try:\n"
               "        return command(args)\n"
               "    finally:\n"
               "        seen.extend(m for m in sys.modules if m.startswith('operadlab.'))\n"
               "cli.cmd_mlab = probe\n"
               "code = cli.main(['mlab', '--trials', '-1'])\n"
               "print(code, *sorted(seen))\n")
    assert r.stdout.split() == ["2", "operadlab.cli", "operadlab.mlab", "operadlab.scalar"]
