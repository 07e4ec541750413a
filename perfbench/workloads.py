"""The three benchmark workloads: seeded inputs, the calls one operation
makes, and output checks that do not use the code under test.

Every call goes through ``laxlab.cli.main`` in-process, with standard
output captured, exactly as the ``laxlab`` command would run it.  Checks
return ``None`` for a good output and a one-line reason otherwise.  They
rely on plain-Python models written here (a commutative expansion, a
reader for the printed expression format, finite differences over the
CSV samples), never on a stored copy of an earlier output.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import random
import re
import traceback
from fractions import Fraction
from typing import Callable, NamedTuple

WORKLOADS = ("normalize-scale", "verify-symbolic", "numeric-flows")

# normalize-scale: a product of FORMS linear forms, each over all of
# FORM_ATOMS, has len(FORM_ATOMS) ** FORMS distinct words (216) whatever the
# seed, so every operation rewrites the same words; only the coefficients
# change.  NORMALIZE_POOL distinct products are cycled through.
NORMALIZE_RULES = ("quantum-zv", "commute-vu", "commute-uu")
FORM_ATOMS = ("z", "u", "v", "u'", "v'", "u''")
FORMS = 3
NORMALIZE_POOL = 8

SYMBOLIC_CASES = (
    "fn-classical", "prop31", "case-i", "case-ii", "case-iii-v0",
    "case-iii-vu", "prop41-gauge", "qp34-chain", "qp34-comparison",
    "eliminate-pq",
)
NUMERIC_CASES = ("numeric-pii", "numeric-p34-map", "numeric-dpii")

# numeric-flows: NUMERIC_POOL sets of seeded initial data.  Spans and sizes
# keep every trajectory far from a movable pole: over 800 seeded sets, |u|
# stayed below 2.
NUMERIC_POOL = 4
FLOW_SPANS = {"pii": (1, 3), "p34": (1, 2), "matrix-pii": (1, 3),
              "dpii3": (1, 3)}
MATRIX_N = 2
# Stated tolerances of the independent numeric checks.
FD_RESIDUAL_TOL = 1e-4      # 5-point u'' stencil against the flow's rhs
FIRST_INTEGRAL_TOL = 1e-7   # drift of u'' - 2u^3 + z*u/3 along dpii3
CLOSED_FORM_TOL = 1e-8      # alpha = 1, u(1) = 1, u'(1) = -1 against 1/z


class Call(NamedTuple):
    """One ``laxlab`` invocation and the check its output must pass."""

    label: str
    argv: tuple
    check: Callable[[int, str], "str | None"]


class Workload(NamedTuple):
    rounds: list            # list[list[Call]]; operation i runs rounds[i % len]
    final_checks: Callable  # (cli) -> list[str]; extra program runs


def run_call(cli, argv) -> tuple:
    """Run ``laxlab`` in-process; return (exit code, stdout, stderr).  An
    exception escaping ``main`` is a failed call (exit code None)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(list(argv))
        except Exception:  # noqa: BLE001 - the benchmark must keep running
            rc = None
            traceback.print_exc()
    return rc, out.getvalue(), err.getvalue()


def build(name: str, seed: int) -> Workload:
    return _BUILDERS[name](seed)


# ---------------------------------------------------------------------------
# Gaussian rationals as (re, im) pairs of Fractions
# ---------------------------------------------------------------------------

def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gadd_into(acc: dict, key, c) -> None:
    old = acc.get(key, (Fraction(0), Fraction(0)))
    new = (old[0] + c[0], old[1] + c[1])
    if new[0] or new[1]:
        acc[key] = new
    else:
        acc.pop(key, None)


# ---------------------------------------------------------------------------
# normalize-scale
# ---------------------------------------------------------------------------

def _rand_q(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 6))


def _signed(q: Fraction, first: bool) -> str:
    mag = f"{abs(q.numerator)}/{q.denominator}"
    if first:
        return mag if q > 0 else f"-{mag}"
    return f" + {mag}" if q > 0 else f" - {mag}"


def _product(rng: random.Random) -> tuple:
    """Return (text, forms); forms[j] is a list of (atom, (re, im), hbar)."""
    forms, texts = [], []
    for _ in range(FORMS):
        atoms = list(FORM_ATOMS)
        rng.shuffle(atoms)
        form, parts = [], []
        for atom in atoms:
            re_, im, hb = _rand_q(rng), _rand_q(rng), _rand_q(rng)
            form.append((atom, (re_, im), hb))
            coeff = (_signed(re_, True) + _signed(im, False) + "*i"
                     + _signed(hb, False) + "*hbar")
            parts.append(f"({coeff})*{atom}")
        forms.append(form)
        texts.append("(" + " + ".join(parts) + ")")
    return "*".join(texts), forms


def _commutative_images(forms) -> tuple:
    """The product's hbar^0 and hbar^1 parts with commuting atoms, expanded
    here.  The hbar^0 part is the plain product at hbar = 0.  The hbar^1
    part collects the hbar parts of the coefficients and, from the relation
    [z, v^(k)] = -(i/2)*hbar*u^(k), one (i/2)*u^(k) term for each v^(k)
    that stands before a z in a word: reordering swaps each such pair once,
    and the other rules are commutations without hbar."""
    # ordered word -> (hbar^0 coefficient, hbar^1 coefficient); each form
    # holds each atom once, so every ordered word arises once
    acc = {(): ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(0)))}
    for form in forms:
        nxt = {}
        for word, (c0, c1) in acc.items():
            for atom, coeff, hbar in form:
                e1 = _gmul(c1, coeff)
                nxt[word + (atom,)] = (
                    _gmul(c0, coeff),
                    (e1[0] + c0[0] * hbar, e1[1] + c0[1] * hbar))
        acc = nxt
    image0: dict = {}
    image1: dict = {}
    half_i = (Fraction(0), Fraction(1, 2))
    for word, (c0, c1) in acc.items():
        _gadd_into(image0, tuple(sorted(word)), c0)
        _gadd_into(image1, tuple(sorted(word)), c1)
        for p, a in enumerate(word):
            family, order = _family_order(a)
            if family != "v":
                continue
            for q in range(p + 1, len(word)):
                if word[q] == "z":
                    key = word[:p] + word[p + 1:q] + word[q + 1:]
                    key += ("u" + "'" * order,)
                    _gadd_into(image1, tuple(sorted(key)), _gmul(c0, half_i))
    return image0, image1


_NUM = r"\d+(?:/\d+)?"
_MIXED_RE = re.compile(rf"^\((-?{_NUM})([+-])(?:({_NUM})\*)?i\)$")
_CENTRAL_RE = re.compile(r"^(lam|hbar|alpha)(?:\^(-?\d+))?$")
_ATOM_RE = re.compile(r"^([a-z]+)('*)$")


def _read_terms(text: str) -> list:
    """Read laxlab's printed sum into [(coeff, {central: power}, word)].

    The printed grammar: terms joined by ' + ' / ' - ', each a '*'-joined
    run of an optional coefficient ('n/d', 'i', 'n/d*i' or '(a+b*i)'),
    central powers ('hbar^2') and atoms ('u', "v''")."""
    pieces = re.split(r" ([+-]) ", text.strip())
    signs = [1] + [1 if s == "+" else -1 for s in pieces[1::2]]
    terms = []
    for sign, body in zip(signs, pieces[0::2]):
        if body.startswith("-"):
            sign, body = -sign, body[1:]
        coeff = (Fraction(sign), Fraction(0))
        if body.startswith("("):
            end = body.index(")") + 1
            m = _MIXED_RE.match(body[:end])
            if m is None:
                raise ValueError(f"unreadable coefficient {body[:end]!r}")
            im = Fraction(m.group(3) or 1) * (1 if m.group(2) == "+" else -1)
            coeff = _gmul(coeff, (Fraction(m.group(1)), im))
            body = body[end + 1:]
        centrals, word = {}, []
        for factor in body.split("*") if body else []:
            if re.fullmatch(_NUM, factor):
                coeff = _gmul(coeff, (Fraction(factor), Fraction(0)))
            elif factor == "i":
                coeff = _gmul(coeff, (Fraction(0), Fraction(1)))
            elif (m := _CENTRAL_RE.match(factor)) is not None:
                centrals[m.group(1)] = int(m.group(2) or 1)
            elif _ATOM_RE.match(factor) is not None:
                word.append(factor)
            else:
                raise ValueError(f"unreadable factor {factor!r}")
        terms.append((coeff, centrals, tuple(word)))
    return terms


def _family_order(atom: str) -> tuple:
    return atom.rstrip("'"), len(atom) - len(atom.rstrip("'"))


def _reducible(a: str, b: str) -> bool:
    """True when the adjacent pair a*b is the left side of a rule of
    quantum-zv (v^(k)*z), commute-vu (v^(j)*u^(k)) or commute-uu
    (u^(j)*u^(k) with k < j)."""
    (fa, oa), (fb, ob) = _family_order(a), _family_order(b)
    if fa == "v":
        return (fb == "z" and ob == 0) or fb == "u"
    return fa == "u" and fb == "u" and ob < oa


def _check_reduce(forms) -> Callable:
    expected = _commutative_images(forms)

    def check(rc, out):
        if rc != 0:
            return f"exit code {rc}, expected 0"
        try:
            terms = _read_terms(out)
        except ValueError as exc:
            return str(exc)
        images: tuple = ({}, {})
        for coeff, centrals, word in terms:
            for a, b in zip(word, word[1:]):
                if _reducible(a, b):
                    return f"output word {'*'.join(word)} is not in normal form"
            if set(centrals) - {"hbar"}:
                return f"unexpected central factor in {centrals}"
            power = centrals.get("hbar", 0)
            if power < len(images):
                _gadd_into(images[power], tuple(sorted(word)), coeff)
        for power, (got, want) in enumerate(zip(images, expected)):
            if got != want:
                return (f"commutative image of the hbar^{power} part "
                        "differs from the expansion")
        return None

    return check


def _normalize_scale(seed: int) -> Workload:
    rng = random.Random(f"normalize-scale:{seed}")
    rules = [arg for name in NORMALIZE_RULES for arg in ("--rules", name)]
    rounds = []
    for _ in range(NORMALIZE_POOL):
        text, forms = _product(rng)
        argv = ("reduce", "--expr", text, *rules)
        rounds.append([Call("reduce", argv, _check_reduce(forms))])
    return Workload(rounds, lambda cli: [])


# ---------------------------------------------------------------------------
# verify-symbolic (and the pipeline calls of numeric-flows)
# ---------------------------------------------------------------------------

def _check_verify(case: str, negative: bool) -> Callable:
    want_rc = 1 if negative else 0

    def check(rc, out):
        if rc != want_rc:
            return f"exit code {rc}, expected {want_rc}"
        try:
            report = json.loads(out)
        except ValueError:
            return "output is not valid JSON"
        status = report.get("status")
        if report.get("case") != case:
            return f"report names case {report.get('case')!r}"
        if negative and status != "discrepancy":
            return f"negative twin reported {status!r}"
        if not negative and status not in ("verified", "verified-with-notes"):
            return f"pipeline reported {status!r}"
        return None

    return check


def _verify_calls(cases) -> list:
    calls = []
    for case in cases:
        for negative in (False, True):
            argv = ("verify", "--case", case, "--format", "json")
            label = f"verify.case.{case}"
            if negative:
                argv += ("--negative-control",)
                label += ".negative"
            calls.append(Call(label, argv, _check_verify(case, negative)))
    return calls


def _verify_symbolic(seed: int) -> Workload:
    # The pipelines take no input data, so the seed changes nothing here.
    return Workload([_verify_calls(SYMBOLIC_CASES)], lambda cli: [])


# ---------------------------------------------------------------------------
# numeric-flows
# ---------------------------------------------------------------------------

def _read_csv(out: str, names: tuple) -> tuple:
    """Return (z, {name: complex array (G, n, n)}) from integrate's CSV."""
    import numpy as np

    rows = list(csv.reader(io.StringIO(out)))
    header, body = rows[0], rows[1:]
    col = {h: k for k, h in enumerate(header)}
    n = round(sum(1 for h in header if h.startswith("u_re_")) ** 0.5)
    z = np.array([float(r[0]) for r in body])
    blocks = {}
    for name in names:
        a = np.empty((len(body), n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                re_ = col[f"{name}_re_{i}_{j}"]
                im = col[f"{name}_im_{i}_{j}"]
                a[:, i, j] = [complex(float(r[re_]), float(r[im]))
                              for r in body]
        blocks[name] = a
    return z, blocks


def _flow_rhs(rhs: str, z, u, alpha):
    """u'' of the second-order flows: 2u^3 - zu + alpha for pii and
    matrix-pii, 2u^3 + zu - alpha for p34."""
    import numpy as np

    eye = np.eye(u.shape[-1])
    cube = u @ u @ u
    zu = z[:, None, None] * u
    if rhs == "p34":
        return 2 * cube + zu - alpha * eye
    return 2 * cube - zu + alpha * eye


def _check_flow(rhs: str, alpha: float) -> Callable:
    def check(rc, out):
        import numpy as np

        if rc != 0:
            return f"exit code {rc}, expected 0"
        z, b = _read_csv(out, ("u",))
        u = b["u"]
        h = (z[-1] - z[0]) / (len(z) - 1)
        d2 = (-u[:-4] + 16 * u[1:-3] - 30 * u[2:-2] + 16 * u[3:-1]
              - u[4:]) / (12 * h * h)
        worst = float(np.max(np.abs(d2 - _flow_rhs(rhs, z, u, alpha)[2:-2])))
        if not worst < FD_RESIDUAL_TOL:
            return f"finite-difference residual {worst:.3e}"
        return None

    return check


def _check_first_integral(rc, out):
    import numpy as np

    if rc != 0:
        return f"exit code {rc}, expected 0"
    z, b = _read_csv(out, ("u", "ddu"))
    u, ddu = b["u"][:, 0, 0], b["ddu"][:, 0, 0]
    first = ddu - 2 * u ** 3 + z * u / 3
    drift = float(np.max(np.abs(first - first[0])))
    if not drift < FIRST_INTEGRAL_TOL:
        return f"first-integral drift {drift:.3e}"
    return None


def _cplx(rng: random.Random, scale: float) -> str:
    return (f"{rng.uniform(-scale, scale):.3f}"
            f"{rng.uniform(-scale, scale):+.3f}j")


def _integrate_argv(rhs: str, *opts: str) -> tuple:
    z0, z1 = FLOW_SPANS[rhs]
    return ("integrate", rhs, f"--z0={z0}", f"--z1={z1}", *opts)


def _closed_form_checks(cli) -> list:
    """alpha = 1, u(1) = 1, u'(1) = -1: pii and p34 must follow u = 1/z."""
    import numpy as np

    errors = []
    for rhs in ("pii", "p34"):
        argv = _integrate_argv(rhs, "--alpha=1", "--u0=1", "--du0=-1")
        rc, out, err = run_call(cli, argv)
        if rc != 0:
            errors.append(f"closed-form {rhs}: exit code {rc}: {err.strip()}")
            continue
        z, b = _read_csv(out, ("u", "du"))
        gap = max(float(np.max(np.abs(b["u"][:, 0, 0] - 1 / z))),
                  float(np.max(np.abs(b["du"][:, 0, 0] + 1 / z ** 2))))
        if not gap < CLOSED_FORM_TOL:
            errors.append(f"closed-form {rhs}: misses u = 1/z by {gap:.3e}")
    return errors


def _numeric_flows(seed: int) -> Workload:
    rng = random.Random(f"numeric-flows:{seed}")
    rounds = []
    for _ in range(NUMERIC_POOL):
        calls = []
        for rhs in ("pii", "p34", "matrix-pii"):
            alpha = round(rng.uniform(-0.5, 0.5), 3)
            opts = [f"--alpha={alpha}", f"--u0={_cplx(rng, 0.3)}",
                    f"--du0={_cplx(rng, 0.3)}"]
            if rhs == "matrix-pii":
                opts.append(f"--n={MATRIX_N}")
            calls.append(Call(f"integrate.{rhs}", _integrate_argv(rhs, *opts),
                              _check_flow(rhs, alpha)))
        opts = [f"--u0={_cplx(rng, 0.3)}", f"--du0={_cplx(rng, 0.3)}",
                f"--ddu0={_cplx(rng, 0.3)}"]
        calls.append(Call("integrate.dpii3", _integrate_argv("dpii3", *opts),
                          _check_first_integral))
        rounds.append(calls + _verify_calls(NUMERIC_CASES))
    return Workload(rounds, _closed_form_checks)


_BUILDERS = {
    "normalize-scale": _normalize_scale,
    "verify-symbolic": _verify_symbolic,
    "numeric-flows": _numeric_flows,
}
