"""Golden outputs of the symbolic pipelines and the catalog.

Each file under ``golden/`` maps the commands listed for it below to the
stdout and exit code they produced when the file was written:

* ``verify-symbolic.json`` holds every symbolic pipeline and its twin, and
  the p34 derivation;
* ``catalog.json`` holds ``catalog list``, ``catalog show`` of every key,
  and ``reduce`` of every key, plain and through the whole lattice.

All of these use exact arithmetic only, so their output does not depend on
the host; the numeric pipelines print BLAS-dependent residuals and stay out.

Regenerate the files (only when an output is meant to change) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from laxlab import catalog, cli, verify

GOLDEN_DIR = pathlib.Path(__file__).with_name("golden")

SYMBOLIC_CASES = [c for c in verify.CASES if not c.startswith("numeric-")]

COMMANDS = {
    "verify-symbolic.json": [
        f"verify --case {case} --format json{flag}"
        for case in SYMBOLIC_CASES
        for flag in ("", " --negative-control")
    ] + ["derive p34 --format json"],
    "catalog.json": ["catalog list"] + [
        command
        for key in catalog.keys()
        for command in (
            f"catalog show {key}",
            f"reduce {key}",
            f"reduce {key} --v-du --hbar-zero --scalarize --canonical",
        )
    ],
}


def _run(command: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(command.split())
    return {"stdout": out.getvalue(), "exit": code}


def _golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))


def test_golden_covers_every_command():
    for name, commands in COMMANDS.items():
        assert sorted(_golden(name)) == sorted(commands), name


@pytest.mark.parametrize("name, command", [
    pytest.param(name, c, id=c)
    for name, commands in COMMANDS.items() for c in commands
])
def test_golden_output(name, command):
    expected = _golden(name)[command]
    got = _run(command)
    assert got == expected, f"output of `laxlab {command}` changed"


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, commands in COMMANDS.items():
        (GOLDEN_DIR / name).write_text(
            json.dumps({c: _run(c) for c in commands}, indent=1,
                       ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
