"""CLI tests: exit-code contract, selector rejection, output formats.

Everything runs through in-process ``cli.main`` except the real subprocess
tests of the installed entry point and of what a cold command imports.
"""

import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
import warnings

import pytest

import laxlab
from laxlab import _dop853, cli, ncexpr, verify


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# exit-code contract
# ---------------------------------------------------------------------------
def test_verify_exit_zero_on_success(capsys):
    code, out, _ = run_cli(["verify", "--case", "fn-classical"], capsys)
    assert code == 0
    assert out.startswith("case: fn-classical\n")


def test_verify_exit_one_on_discrepancy(capsys):
    code, out, _ = run_cli(
        ["verify", "--case", "fn-classical", "--negative-control"], capsys
    )
    assert code == 1
    assert "status: discrepancy" in out


def test_unknown_selectors_exit_two_before_computation(capsys):
    for argv in (
        ["verify", "--case", "prop99"],
        ["derive", "unknown-target"],
        ["integrate", "p35"],
        ["catalog", "drop"],
        ["nonsense"],
    ):
        code, out, err = run_cli(argv, capsys)
        assert code == 2, argv


def test_unknown_catalog_key_exits_two(capsys):
    code, _, err = run_cli(["reduce", "not-a-key"], capsys)
    assert code == 2 and "unknown catalog key" in err
    code, _, err = run_cli(["catalog", "show", "not-a-key"], capsys)
    assert code == 2 and "unknown catalog key" in err


def test_no_arguments_prints_help_exit_two(capsys):
    code, out, _ = run_cli([], capsys)
    assert code == 2
    assert "verify" in out and "integrate" in out


def test_help_exits_zero(capsys):
    code, _, _ = run_cli(["--help"], capsys)
    assert code == 0


@pytest.mark.parametrize("argv, built", [
    (["catalog", "list"], ["catalog"]),
    (["verify", "-h"], ["verify"]),
    (["reduce", "--expr", "u"], ["reduce"]),
    ([], list(cli._COMMANDS)),
    (["-h"], list(cli._COMMANDS)),
    (["frobnicate"], list(cli._COMMANDS)),
    (["--format", "json", "verify"], list(cli._COMMANDS)),
])
def test_main_builds_only_the_named_subcommand(argv, built, monkeypatch,
                                               capsys):
    registered = []
    for name, register in cli._COMMANDS.items():
        def recording(sub, name=name, register=register):
            registered.append(name)
            register(sub)
        monkeypatch.setitem(cli._COMMANDS, name, recording)
    run_cli(argv, capsys)
    assert registered == built


# ---------------------------------------------------------------------------
# verify output
# ---------------------------------------------------------------------------
def test_verify_json_deterministic(capsys):
    code, out1, _ = run_cli(
        ["verify", "--case", "prop31", "--format", "json"], capsys
    )
    code2, out2, _ = run_cli(
        ["verify", "--case", "prop31", "--format", "json"], capsys
    )
    assert code == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["case"] == "prop31"
    assert payload["status"] == "verified-with-notes"


def test_verify_all_emits_every_case_and_summary(capsys):
    code, out, _ = run_cli(["verify", "--case", "all"], capsys)
    assert code == 0
    for case in verify.CASES:
        assert f"case: {case}\n" in out
    assert "summary:" in out
    summary = out.split("summary:", 1)[1]
    for case in verify.CASES:
        assert case in summary


def test_verify_all_json_is_array(capsys):
    code, out, _ = run_cli(
        ["verify", "--case", "all", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert [entry["case"] for entry in payload] == list(verify.CASES)


def test_verify_all_negative_controls_exit_one(capsys):
    code, out, _ = run_cli(
        ["verify", "--case", "all", "--negative-control"], capsys
    )
    assert code == 1


def test_verify_rules_flag_only_for_prop31(capsys):
    code, _, _ = run_cli(
        ["verify", "--case", "prop31", "--rules", "quantum-zv"], capsys
    )
    assert code == 0
    code, _, err = run_cli(
        ["verify", "--case", "case-i", "--rules", "quantum-zv"], capsys
    )
    assert code == 2
    code, out, err = run_cli(
        ["verify", "--case", "all", "--rules", "quantum-zv"], capsys
    )
    assert code == 2 and out == "" and "prop31" in err
    code, _, _ = run_cli(
        ["verify", "--case", "prop31", "--rules", "no-such-rules"], capsys
    )
    assert code == 2


_RULE_SELECTIONS = [(name,) for name in ncexpr.BUILTIN_RULESET_NAMES] + list(
    itertools.combinations(ncexpr.BUILTIN_RULESET_NAMES, 2))


@pytest.mark.parametrize("names", _RULE_SELECTIONS, ids="+".join)
def test_verify_prop31_under_every_rule_selection(capsys, names):
    argv = ["verify", "--case", "prop31", "--format", "json"]
    for name in names:
        argv += ["--rules", name]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0, out
    assert json.loads(out)["status"] == verify.VERIFIED_WITH_NOTES
    code, out, _ = run_cli(argv + ["--negative-control"], capsys)
    assert code == 1
    assert json.loads(out)["status"] == verify.DISCREPANCY


def test_every_negative_control_exits_one_in_process(capsys):
    for case in verify.CASES:
        code, _, _ = run_cli(
            ["verify", "--case", case, "--negative-control"], capsys
        )
        assert code == 1, case


# ---------------------------------------------------------------------------
# derive / reduce
# ---------------------------------------------------------------------------
def test_derive_p34(capsys):
    code, out, _ = run_cli(["derive", "p34", "--format", "json"], capsys)
    assert code == 0
    assert json.loads(out)["case"] == "qp34-chain"


def test_reduce_composition(capsys):
    code, out, _ = run_cli(
        ["reduce", "qmpii-target-residual", "--v-zero", "--hbar-zero",
         "--scalarize"],
        capsys,
    )
    assert code == 0
    assert out.strip() == "-alpha + u'' - z*u - 2*u*u*u"


def test_reduce_expr_with_rules(capsys):
    code, out, _ = run_cli(
        ["reduce", "--expr", "p^-1*p*u", "--rules", "inverse-pq"], capsys
    )
    assert code == 0 and out.strip() == "u"


def test_reduce_flag_conflicts(capsys):
    code, _, _ = run_cli(
        ["reduce", "pii-classical", "--v-du", "--v-u"], capsys
    )
    assert code == 2
    code, _, err = run_cli(["reduce"], capsys)
    assert code == 2
    code, _, err = run_cli(
        ["reduce", "pii-classical", "--expr", "u"], capsys
    )
    assert code == 2


def test_reduce_parse_error_exits_one(capsys):
    code, _, err = run_cli(["reduce", "--expr", "u +* z"], capsys)
    assert code == 1 and "error" in err


def test_reduce_deeply_nested_expr_exits_one_without_traceback(capsys):
    text = "(" * 2000 + "u" + ")" * 2000
    code, out, err = run_cli(["reduce", "--expr", text], capsys)
    assert code == 1 and out == ""
    assert err.startswith("error: expression nested too deeply (at position ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("text, pos", [("1" * 5000, 0), ("u^" + "1" * 5000, 1)],
                         ids=["5000-digit-integer", "5000-digit-exponent"])
def test_reduce_overlong_integer_exits_one_without_traceback(text, pos, capsys):
    code, out, err = run_cli(["reduce", "--expr", text], capsys)
    assert code == 1 and out == ""
    assert err.startswith(
        f"error: integer has too many digits (at position {pos}, ")
    assert err.count("\n") == 1 and "Traceback" not in err


_U8, _U9, _V8 = "u" + "'" * 8, "u" + "'" * 9, "v" + "'" * 8


def test_reduce_top_of_derivative_tower(capsys):
    code, out, _ = run_cli(
        ["reduce", "--expr", f"{_U8}*z - z*{_U8}", "--rules", "quantum-zu"],
        capsys,
    )
    assert code == 0 and out == f"1/2*i*hbar*{_U8}\n"


@pytest.mark.parametrize("argv, want", [
    (["--expr", f"{_U9}*z - z*{_U9}", "--rules", "quantum-zu"],
     f"1/2*i*hbar*{_U9}"),
    # no rule of these sets matches u^(9)*z
    (["--expr", f"{_V8}*z", "--v-du", "--rules", "quantum-zv", "--rules",
      "inverse-pq", "--rules", "commute-vu"], f"{_U9}*z"),
], ids=["u9", "v8-bound-to-u9"])
def test_reduce_above_order_eight_exits_zero(argv, want, capsys):
    assert run_cli(["reduce", *argv], capsys) == (0, want + "\n", "")


def test_reduce_key_failure_prints_one_error_line(monkeypatch, capsys):
    monkeypatch.setattr(ncexpr, "PASS_BUDGET", 1)
    code, out, err = run_cli(
        ["reduce", "qmpii-target-residual", "--rules", "quantum-zu",
         "--rules", "commute-vu"], capsys
    )
    assert code == 1 and out == ""
    assert err.startswith("error: rewrite budget of 1 rule applications ")
    assert err.count("\n") == 1


def test_reduce_needing_many_applications_exits_zero(capsys):
    # needs 12 869 rule applications
    code, out, err = run_cli(["reduce", "--expr", "v^8*z^8", "--rules",
                              "quantum-zv"], capsys)
    assert code == 0 and err == ""
    assert len(re.split(r" [-+] ", out.strip())) == 12870


def test_pass_budget_variable_is_ignored(monkeypatch, capsys):
    # the budget is a module constant that no environment variable sets
    monkeypatch.setenv("LAXLAB_PASS_BUDGET", "abc")
    assert run_cli(["reduce", "--expr", "u"], capsys) == (0, "u\n", "")


def test_reduce_pair_prints_both_members(capsys):
    code, out, _ = run_cli(["reduce", "fn-pair", "--v-du"], capsys)
    assert code == 0
    assert "z-member:" in out and "spectral member:" in out


# ---------------------------------------------------------------------------
# integrate
# ---------------------------------------------------------------------------
def test_integrate_matches_rational_oracle(capsys):
    code, out, _ = run_cli(
        ["integrate", "pii", "--alpha", "1", "--z0", "1", "--z1", "5",
         "--u0", "1", "--du0", "-1"],
        capsys,
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    worst = max(
        abs(complex(float(r["u_re_0_0"]), float(r["u_im_0_0"]))
            - 1.0 / float(r["z"]))
        for r in rows
    )
    assert worst < 1e-8


def test_integrate_validation_exits_two(capsys):
    code, _, err = run_cli(["integrate", "pii", "--ddu0", "1"], capsys)
    assert code == 2
    code, _, err = run_cli(["integrate", "dpii3"], capsys)
    assert code == 2 and "u''" in err
    code, out, err = run_cli(
        ["integrate", "dpii3", "--alpha", "5", "--ddu0", "0.1"], capsys)
    assert code == 2 and out == "" and err == "error: dpii3 takes no alpha\n"
    code, out, err = run_cli(["integrate", "pii", "--u0=nanj"], capsys)
    assert code == 2 and out == "" and "error:" in err
    code, out, err = run_cli(
        ["integrate", "pii", "--rtol=1e-20", "--u0=0.3", "--du0=0.1"], capsys)
    assert code == 2 and out == "" and "error:" in err and "rtol" in err
    for z0, z1 in (("1", "1.0000000000000002"), ("-1e308", "1e308")):
        code, out, err = run_cli(
            ["integrate", "pii", f"--z0={z0}", f"--z1={z1}", "--grid", "9"],
            capsys)
        assert code == 2 and out == ""
        assert err == (f"error: 9 grid points from z0 = {float(z0)!r} to "
                       f"z1 = {float(z1)!r} are not strictly monotone: the "
                       "span is too short or too wide\n")
    # distinct grid points whose spacing h leaves h**2 (h**3 for dpii3), the
    # audit's divisor, below the smallest normal float
    for argv, h, depth in (
            (["pii", "--z1=1e-300"], 1.25e-301, 2),
            (["pii", "--z1=1e-158", "--u0", "0.1"], 1.25e-159, 2),
            (["dpii3", "--z1=1e-104", "--ddu0", "0.1"], 1.25e-105, 3)):
        code, out, err = run_cli(
            ["integrate", *argv, "--z0", "0", "--grid", "9"], capsys)
        assert code == 2 and out == ""
        assert err == (f"error: grid spacing {h!r} is too small for the "
                       f"finite-difference audit: h**{depth} is below the "
                       "smallest normal float\n")


@pytest.mark.parametrize("argv, rows", [
    (["pii", "--z1=1e160"], 3),
    (["dpii3", "--z1=1e104", "--ddu0", "0"], 1),
], ids=["pii", "dpii3"])
def test_integrate_wide_span_runs(argv, rows, capsys):
    # h**depth overflows a float here; the spacing check must not raise
    code, out, err = run_cli(
        ["integrate", *argv, "--z0", "0", "--grid", "9"], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert len(lines) == 10
    assert sum(not line.endswith(",") for line in lines[1:]) == rows


def test_integrate_pole_exits_one(capsys):
    code, _, err = run_cli(
        ["integrate", "p34", "--alpha", "0.7", "--u0", "0.3",
         "--du0", "-0.2", "--z1", "5"],
        capsys,
    )
    assert code == 1 and "error" in err


@pytest.mark.parametrize("argv, what", [
    (["integrate", "matrix-pii", "--n", "1000000000000"],
     "u0: the 1000000000000 x 1000000000000 complex matrix"),
    (["integrate", "pii", "--grid", str(2**62)], f"a grid of {2**62} points"),
], ids=["n", "grid"])
def test_integrate_size_past_the_address_space_exits_one(argv, what, capsys):
    # numpy rejects these byte counts, above 2**63, before allocating
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err == f"error: out of memory: {what} is too large to allocate\n"


@pytest.mark.parametrize("argv, target, failure, detail", [
    (["integrate", "matrix-pii", "--n", "1000000"], "eye",
     MemoryError("Unable to allocate 14.6 TiB"), "Unable to allocate 14.6 TiB"),
    (["integrate", "pii", "--grid", "100000000000"], "linspace",
     MemoryError(), "allocation failed"),
], ids=["n", "grid"])
def test_integrate_allocation_failure_exits_one(argv, target, failure, detail,
                                                monkeypatch, capsys):
    # the allocation is refused by a stand-in, never attempted
    from laxlab import numeric

    def refuse(*args, **kwargs):
        raise failure

    monkeypatch.setattr(numeric.np, target, refuse)
    code, out, err = run_cli(argv, capsys)
    assert code == 1 and out == ""
    assert err == f"error: out of memory: {detail}\n"


def test_integrate_writes_file(tmp_path, capsys):
    target = tmp_path / "out.csv"
    code, out, _ = run_cli(
        ["integrate", "pii", "--alpha", "1", "--u0", "1", "--du0", "-1",
         "--output", str(target)],
        capsys,
    )
    assert code == 0 and out == ""
    assert target.read_text().startswith("z,u_re_0_0")


def test_integrate_unwritable_output_exits_two(tmp_path, capsys):
    target = tmp_path / "missing" / "x.csv"
    code, out, err = run_cli(
        ["integrate", "pii", "--grid", "9", "--output", str(target)], capsys
    )
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {target}")
    assert not target.parent.exists()


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------
def test_catalog_list_covers_manifest(capsys):
    from laxlab import catalog

    code, out, _ = run_cli(["catalog", "list"], capsys)
    assert code == 0
    for key in catalog.keys():
        assert key in out


def test_catalog_show_pair(capsys):
    code, out, _ = run_cli(["catalog", "show", "qpii-pair"], capsys)
    assert code == 0
    assert "z-member:" in out and "rule sets: quantum-zv" in out
    code, out, _ = run_cli(["catalog", "show", "gauge-G"], capsys)
    assert code == 0 and "inverse:" in out
    code, out, _ = run_cli(["catalog", "show", "pii-classical"], capsys)
    assert code == 0 and "lhs:" in out


# ---------------------------------------------------------------------------
# the real subprocess tests
# ---------------------------------------------------------------------------
def _child_env() -> dict:
    # The child interpreter must import the same laxlab as this process,
    # whether it comes from an install or from pytest's ``pythonpath``.
    package_root = os.path.dirname(os.path.dirname(laxlab.__file__))
    path = filter(None, [package_root, os.environ.get("PYTHONPATH")])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def test_subprocess_entry_point():
    env = _child_env()
    ok = subprocess.run(
        [sys.executable, "-m", "laxlab.cli", "verify", "--case",
         "fn-classical"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert ok.returncode == 0, ok.stderr
    assert ok.stdout.startswith("case: fn-classical")
    bad = subprocess.run(
        [sys.executable, "-m", "laxlab.cli", "verify", "--case",
         "fn-classical", "--negative-control"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert bad.returncode == 1
    usage = subprocess.run(
        [sys.executable, "-m", "laxlab.cli", "verify", "--case", "nope"],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert usage.returncode == 2


def test_closed_stdout_pipe_exits_1_without_traceback():
    # The read end is closed before the child starts, so its first write to
    # stdout fails with EPIPE, as under ``laxlab ... | head -c 10``.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "laxlab.cli", "verify", "--case",
             "fn-classical", "--format", "json"],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120,
            env=_child_env(),
        )
    finally:
        os.close(write_end)
    assert child.returncode == 1
    assert "Traceback" not in child.stderr


@pytest.mark.parametrize("argv", [
    ["--u0", "1e8"],
    ["--u0", "1e9"],
    ["--u0", "1e160"],
    ["--u0", "1e9j", "--n", "2"],
])
def test_integrate_from_the_pole_exits_one_at_once(argv):
    # --u0 1e160 used to hang in the stepper: a child with a timeout
    child = subprocess.run(
        [sys.executable, "-m", "laxlab.cli", "integrate", "pii", *argv],
        capture_output=True, text=True, timeout=60, env=_child_env(),
    )
    assert child.returncode == 1 and child.stdout == ""
    assert child.stderr == "error: |u| exceeded 1e+08 near z = 1\n"


@pytest.mark.parametrize("argv", [
    ["--du0", "1e300"],
    ["--z0=-1e308", "--z1=1e308"],
], ids=["overflow", "wide-span"])
def test_integrate_prints_no_numpy_warning(argv, capsys):
    # every warning is an error here: pytest would capture it otherwise
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["integrate", "pii", *argv], capsys)
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1
    assert code == (1 if argv[0] == "--du0" else 2)


def test_integrate_unbounded_work_exits_one(monkeypatch, capsys):
    # dpii3's oscillation speeds up like sqrt(z), so the run out to 1e6
    # never ends without the cap; a lower cap keeps the test short
    monkeypatch.setattr(_dop853, "MAX_NFEV", 2000)
    code, out, err = run_cli(
        ["integrate", "dpii3", "--z1", "1e6", "--u0", "0.001", "--ddu0", "0",
         "--grid", "9"], capsys)
    assert code == 1 and out == ""
    match = re.fullmatch(r"error: integration stopped after (\d+) evaluations"
                         r" near z = (\S+)\n", err)
    assert match is not None, err
    assert int(match[1]) >= 2000
    assert 1 < float(match[2]) < 1e6


def test_integrate_overflow_reports_a_stall(capsys):
    code, out, err = run_cli(["integrate", "pii", "--du0", "1e300"], capsys)
    assert code == 1 and out == ""
    assert err == ("error: integration stalled: Required step size is less "
                   "than spacing between numbers.\n")


@pytest.mark.parametrize("argv", [
    ["pii", "--alpha=1e30", "--z0=3", "--u0=1e-30", "--rtol=1e8"],
    ["dpii3", "--u0=0", "--rtol=1", "--ddu0=-7"],
    ["matrix-pii", "--alpha=1e-30", "--z1=0.5", "--u0=1e308+1e308j"],
], ids=["pii-nan-event", "dpii3-nan-event", "matrix-pii-overflowing-u0"])
def test_integrate_overflow_exits_one_with_one_error_line(argv):
    # a child process, so that stderr holds any traceback or warning
    child = subprocess.run(
        [sys.executable, "-m", "laxlab.cli", "integrate", *argv],
        capture_output=True, text=True, timeout=60, env=_child_env(),
    )
    assert child.returncode == 1 and child.stdout == ""
    assert child.stderr.startswith("error: ")
    assert child.stderr.count("\n") == 1
    assert "Traceback" not in child.stderr and "Warning" not in child.stderr


def _modules_after(code: str) -> set:
    """The modules loaded once ``code`` has run in a fresh interpreter."""
    child = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys\nprint(' '.join(sorted(sys.modules)))"],
        capture_output=True, text=True, timeout=120, env=_child_env(),
    )
    assert child.returncode == 0, child.stderr
    return set(child.stdout.splitlines()[-1].split())


@pytest.mark.parametrize("argv, absent", [
    (["reduce", "--expr", "v*z", "--rules", "quantum-zv"],
     {"laxlab.verify", "laxlab.catalog", "laxlab.laxmat", "laxlab.numeric",
      "dataclasses", "json"}),
    (["verify", "--case", "prop31", "--format", "json"],
     {"dataclasses", "laxlab.numeric"}),
    (["verify", "--case", "prop31"], {"dataclasses", "laxlab.numeric", "json"}),
    (["derive", "p34"], {"dataclasses", "laxlab.numeric", "json"}),
    (["catalog", "list"], {"laxlab.verify", "laxlab.numeric"}),
    (["reduce", "qpii-pair", "--v-du"],
     {"laxlab.verify", "laxlab.numeric", "dataclasses"}),
    (["catalog", "show", "qpii-pair"],
     {"laxlab.verify", "laxlab.numeric", "dataclasses"}),
    (["integrate", "pii", "--grid", "9"], {"scipy"}),
    (["verify", "--case", "numeric-pii"], {"scipy"}),
], ids=["reduce-expr", "verify-json", "verify-text", "derive-text",
        "catalog-list", "reduce-key", "catalog-show", "integrate",
        "verify-numeric"])
def test_cold_command_loads_only_what_it_runs(argv, absent):
    # diffed against a bare interpreter, since ``site`` may preload modules
    bare = _modules_after("")
    loaded = _modules_after(
        f"from laxlab.cli import main\nassert main({argv!r}) == 0") - bare
    assert "laxlab.cli" in loaded
    assert sorted(loaded & absent) == []


_BLOCK_SCIPY = '''
import sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, BlockScipy())
'''


def test_numeric_commands_run_without_scipy(capsys):
    argvs = [
        ["integrate", "pii", "--alpha", "1.0", "--u0", "1.0", "--du0=-1.0"],
        ["integrate", "p34", "--z1", "2", "--u0", "0.1+0.2j", "--du0", "0.1"],
        ["integrate", "matrix-pii", "--n", "2", "--z1", "3", "--u0", "0.2",
         "--du0=-0.1j"],
        ["integrate", "dpii3", "--z1", "3", "--u0", "0.3+0.1j",
         "--du0=-0.2", "--ddu0", "0.05", "--grid", "41"],
        ["verify", "--case", "all", "--format", "json"],
    ]
    expected = ""
    for argv in argvs:
        code, out, _ = run_cli(argv, capsys)
        expected += out + f"--- exit {code}\n"
    child = subprocess.run(
        [sys.executable, "-c", _BLOCK_SCIPY + (
            "from laxlab.cli import main\n"
            f"for argv in {argvs!r}:\n"
            "    code = main(argv)\n"
            "    sys.stdout.write(f'--- exit {code}\\n')\n"
            "assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)\n"
        )],
        capture_output=True, text=True, timeout=300, env=_child_env(),
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.count("--- exit 0\n") == len(argvs)
    assert child.stdout == expected
