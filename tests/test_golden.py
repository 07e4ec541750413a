"""Golden outputs of the symbolic pipelines and the catalog.

Each file under ``golden/`` maps the commands listed for it below to the
stdout and exit code they produced when the file was written:

* ``verify-symbolic.json`` holds every symbolic pipeline and its twin, and
  the p34 derivation;
* ``catalog.json`` holds ``catalog list``, ``catalog show`` of every key,
  and ``reduce`` of every key, plain and through the whole lattice;
* ``usage.json`` holds the help of every command, the usage errors, and
  the parse errors of malformed ``reduce --expr`` texts, with their
  standard error as well.

argparse wraps help and usage text to the terminal width, so every command
runs with ``COLUMNS=80``.

All of these use exact arithmetic only, so their output does not depend on
the host; the numeric pipelines print BLAS-dependent residuals and stay out.

Regenerate the files (only when an output is meant to change) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import os
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
    "usage.json": ["", "-h", "--format json verify --case prop31"] + [
        f"{command} -h"
        for command in ("verify", "derive", "reduce", "integrate", "catalog")
    ] + [
        "frobnicate",
        "verify",
        "verify --case",
        "verify --case prop99",
        "verify --case prop31 extra",
        "verify --case prop31 --rules bogus",
        "derive p99",
        "reduce",
        "reduce --v-du --v-u",
        "integrate",
        "integrate pii --grid x",
        "catalog",
        "catalog show",
    ] + [
        f"reduce --expr {text}"
        for text in (
            "u$v", "(u+v", "[u,v", "[u,v]_", "x^-1", "hbar^-1", "beta^-2",
            "u^-1", "u'^-1", "/u", "u+", "u)", "u^", "2/u", "u/(1+lam)",
            "u/hbar", "-u+2*v/3-i*lam^-2*p^-1", "2*v/3-u-i*lam^-2*p^-1+4",
            "[u,v]_+-[u',z]*delta^2",
        )
    ],
}

#: Files whose records also hold standard error.
WITH_STDERR = {"usage.json"}


def _run(command: str, with_stderr: bool) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command.split())
    record = {"stdout": out.getvalue(), "exit": code}
    if with_stderr:
        record["stderr"] = err.getvalue()
    return record


def _golden(name: str) -> dict:
    return json.loads((GOLDEN_DIR / name).read_text(encoding="utf-8"))


def test_golden_covers_every_command():
    for name, commands in COMMANDS.items():
        assert sorted(_golden(name)) == sorted(commands), name


@pytest.mark.parametrize("name, command", [
    pytest.param(name, c, id=c or "(no arguments)")
    for name, commands in COMMANDS.items() for c in commands
])
def test_golden_output(name, command, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    expected = _golden(name)[command]
    got = _run(command, name in WITH_STDERR)
    assert got == expected, f"output of `laxlab {command}` changed"


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, commands in COMMANDS.items():
        records = {c: _run(c, name in WITH_STDERR) for c in commands}
        (GOLDEN_DIR / name).write_text(
            json.dumps(records, indent=1,
                       ensure_ascii=False) + "\n",
            encoding="utf-8",
        )
