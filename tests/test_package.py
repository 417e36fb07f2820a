"""The package's public surface: every exported name resolves, every
CLI subcommand prints its help, the CLI imports no scipy, and the ops that
only the test oracles compose stay out of the package. No other test
imports the package's `__all__` or asks a subcommand for --help, so a stale
export or a broken argument declaration would otherwise pass the suite."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import samaseg
from samaseg import attention
from samaseg.cli import _build_parser, main
from samaseg.tensor import Tensor


def test_every_exported_name_resolves():
    assert samaseg.__all__
    for name in samaseg.__all__:
        assert getattr(samaseg, name, None) is not None, name


def test_oracle_only_ops_are_not_in_the_package():
    # they live in tests/conftest.py; a package call to one must fail here
    for name in ("sqrt", "log", "max_const", "mean", "detach", "__rsub__", "__truediv__",
                 "__rtruediv__"):
        assert not hasattr(Tensor, name), name
    assert not hasattr(attention, "diff_softmax")


def _subcommands():
    sub = next(a for a in _build_parser()._actions if a.dest == "command")
    return sorted(sub.choices)


@pytest.mark.parametrize("command", _subcommands())
def test_help_exits_zero(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert f"usage: samaseg {command}" in capsys.readouterr().out


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency; scipy serves the tests as an oracle
    env = dict(os.environ, PYTHONPATH=str(Path(samaseg.__file__).resolve().parent.parent))
    out = subprocess.run([sys.executable, "-c", "import sys, samaseg.cli; "
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                         env=env, check=True, stdout=subprocess.PIPE, text=True, timeout=120)
    assert out.stdout.strip() == "[]"
