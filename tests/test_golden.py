"""Golden outputs of the symbolic pipelines.

``golden/verify-symbolic.json`` maps each command below to the stdout and
exit code it produced when the file was written.  The symbolic pipelines
use exact arithmetic only, so their output does not depend on the host; the
numeric pipelines print BLAS-dependent residuals and stay out.

Regenerate the file (only when an output is meant to change) with::

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib

import pytest

from laxlab import cli, verify

GOLDEN = pathlib.Path(__file__).with_name("golden") / "verify-symbolic.json"

SYMBOLIC_CASES = [c for c in verify.CASES if not c.startswith("numeric-")]

COMMANDS = [
    f"verify --case {case} --format json{flag}"
    for case in SYMBOLIC_CASES
    for flag in ("", " --negative-control")
] + ["derive p34 --format json"]


def _run(command: str) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(command.split())
    return {"stdout": out.getvalue(), "exit": code}


def _golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_every_command():
    assert sorted(_golden()) == sorted(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_golden_output(command):
    expected = _golden()[command]
    got = _run(command)
    assert got == expected, f"output of `laxlab {command}` changed"


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(
        json.dumps({c: _run(c) for c in COMMANDS}, indent=1,
                   ensure_ascii=False) + "\n",
        encoding="utf-8",
    )
