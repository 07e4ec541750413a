"""Command-line front door.

Subcommands
-----------
verify     run verification pipelines and emit their reports
derive     run a derivation chain and emit its report
reduce     apply the substitution/limit lattice to a catalog entry
integrate  integrate an operator flow and emit the trajectory as CSV
catalog    list or show the recorded constructions

Each invocation builds the argument parser of the named subcommand only;
help, a missing or unknown command, or an option in first place builds all
five, so every help and error text reads the same either way.  Each command
imports only the modules it runs: ``reduce --expr`` needs the kernel alone.

Exit codes are the process-level contract: 0 when every requested case is
verified or verified-with-notes, 1 on any discrepancy, failed computation,
exhausted memory or closed output pipe, 2 on usage errors (unknown
selectors are rejected before any computation runs).  Identical
invocations are byte-deterministic in json mode.
"""

from __future__ import annotations

import argparse
import os
import sys

from .ncexpr import (
    BUILTIN_RULESET_NAMES,
    LaxlabError,
    NCExpr,
    builtin_ruleset,
    combine_rulesets,
    normalize,
    parse as parse_expr,
)


def _print_report(report, fmt: str) -> None:
    if fmt == "json":
        print(report.to_json())
    else:
        print(report.to_text(), end="")


def _ruleset(names):
    """The rule set named by the repeated ``--rules`` option, if any."""
    if not names:
        return None
    sets = [builtin_ruleset(name) for name in names]
    return sets[0] if len(sets) == 1 else combine_rulesets(
        "+".join(names), *sets
    )


def _cmd_verify(args) -> int:
    from . import verify

    rules = _ruleset(args.rules)
    cases = verify.CASES if args.case == "all" else (args.case,)
    try:
        reports = [verify.run(case, args.negative_control, rules)
                   for case in cases]
    except verify.VerifyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.case != "all":
        _print_report(reports[0], args.format)
    elif args.format == "json":
        import json

        print(json.dumps([r.to_dict() for r in reports], indent=2,
                         ensure_ascii=False))
    else:
        for rep in reports:
            _print_report(rep, "text")
            print()
        print("summary:")
        width = max(len(r.case) for r in reports)
        for rep in reports:
            print(f"  {rep.case:{width}s}  {rep.status}")
    return int(any(r.status == verify.DISCREPANCY for r in reports))


def _cmd_derive(args) -> int:
    from . import verify

    report = verify.run("qp34-chain")
    _print_report(report, args.format)
    return int(report.status == verify.DISCREPANCY)


def _format_mat(m) -> str:
    return "\n".join(
        f"  entry {k // 2 + 1}{k % 2 + 1}: {e}"
        for k, e in enumerate(m.entries)
    )


def _cmd_reduce(args) -> int:
    if (args.key is None) == (args.expr is None):
        print("error: give exactly one of a catalog KEY or --expr",
              file=sys.stderr)
        return 2
    if args.key is not None:
        from . import catalog

        if args.key not in catalog.keys():
            print(f"error: unknown catalog key {args.key!r}", file=sys.stderr)
            return 2

    subs = None
    if args.v_du:
        subs = {"v": NCExpr.gen("u", 1)}
    elif args.v_u:
        subs = {"v": NCExpr.gen("u")}
    elif args.v_zero:
        subs = {"v": NCExpr.zero()}
    rules = _ruleset(args.rules)

    def reduce_expr(e: NCExpr) -> NCExpr:
        if subs is not None:
            e = e.substitute(subs)
        if args.hbar_zero:
            e = e.classical_limit()
        if rules is not None:
            e = normalize(e, rules)
        if args.scalarize:
            e = e.scalarize()
        if args.canonical:
            e = e.canonical()
        return e

    # Everything is reduced before anything is printed, so a failed
    # reduction prints its error line alone.
    try:
        if args.expr is not None:
            text = str(reduce_expr(parse_expr(args.expr)))
        else:
            obj = catalog.build(args.key)
            if isinstance(obj, catalog.TargetEquation):
                text = str(reduce_expr(obj.lhs))
            elif isinstance(obj, catalog.TargetSystem):
                text = "\n".join(
                    f"eq {k}: {reduce_expr(eq)}"
                    for k, eq in enumerate(obj.equations, start=1)
                )
            elif isinstance(obj, catalog.LaxPairSpec):
                text = "\n".join((
                    "z-member:", _format_mat(obj.p.map(reduce_expr)),
                    "spectral member:", _format_mat(obj.q.map(reduce_expr)),
                ))
            else:
                print(f"error: catalog key {args.key!r} holds a gauge "
                      "matrix, which the reduction lattice does not apply to",
                      file=sys.stderr)
                return 2
    except LaxlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(text)
    return 0


def _cmd_integrate(args) -> int:
    from . import numeric

    try:
        problem = numeric.ODEProblem(
            args.rhs,
            alpha=args.alpha,
            n=args.n,
            z0=args.z0,
            z1=args.z1,
            u0=args.u0,
            du0=args.du0,
            ddu0=args.ddu0,
            rtol=args.rtol,
            atol=args.atol,
            grid_points=args.grid,
        )
    except numeric.NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        trajectory = numeric.integrate(problem)
    except numeric.NumericError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    csv_text = trajectory.to_csv()
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(csv_text)
        except OSError as exc:
            print(f"error: cannot write {args.output}: {exc.strerror}",
                  file=sys.stderr)
            return 2
    else:
        sys.stdout.write(csv_text)
    return 0


def _cmd_catalog(args) -> int:
    from . import catalog

    if args.action == "list":
        for key in catalog.keys():
            info = catalog.describe(key)
            params = ", ".join(info["params"]) if info["params"] else "-"
            print(f"{key}  [{info['kind']}; params: {params}]")
            print(f"    {info['citation']}")
        return 0
    # show
    if args.key is None:
        print("error: catalog show requires a KEY", file=sys.stderr)
        return 2
    if args.key not in catalog.keys():
        print(f"error: unknown catalog key {args.key!r}", file=sys.stderr)
        return 2
    info = catalog.describe(args.key)
    print(f"key: {args.key}")
    print(f"kind: {info['kind']}")
    params = ", ".join(info["params"]) if info["params"] else "-"
    print(f"params: {params}")
    print(f"notes: {info['citation']}")
    obj = catalog.build(args.key)
    if isinstance(obj, catalog.TargetEquation):
        print(f"lhs: {obj.lhs}")
    elif isinstance(obj, catalog.TargetSystem):
        for k, eq in enumerate(obj.equations, start=1):
            print(f"eq {k}: {eq}")
    elif isinstance(obj, catalog.LaxPairSpec):
        if obj.rules:
            print(f"rule sets: {', '.join(obj.rules)}")
        print("z-member:")
        print(_format_mat(obj.p))
        print("spectral member:")
        print(_format_mat(obj.q))
    else:
        print("gauge matrix:")
        print(_format_mat(obj.g))
        print("inverse:")
        print(_format_mat(obj.g_inv))
    return 0


def _add_verify(sub) -> None:
    from . import verify

    p_verify = sub.add_parser(
        "verify", help="run verification pipelines",
        description="Run one pipeline (or all of them) and print its "
                    "report.  Exit 0 on verified/verified-with-notes, "
                    "1 on discrepancy.",
    )
    p_verify.add_argument("--case", required=True,
                          choices=verify.CASES + ("all",),
                          help="pipeline id, or 'all'")
    p_verify.add_argument("--format", choices=("text", "json"),
                          default="text")
    p_verify.add_argument("--negative-control", action="store_true",
                          help="run the pipeline's mutated twin, which "
                               "must report a discrepancy")
    p_verify.add_argument("--rules", action="append",
                          choices=tuple(BUILTIN_RULESET_NAMES),
                          help="normalize under a built-in rule set "
                               "(prop31 only; repeatable)")
    p_verify.set_defaults(func=_cmd_verify)


def _add_derive(sub) -> None:
    p_derive = sub.add_parser(
        "derive", help="run a derivation chain",
        description="Run a derivation chain end to end and print its "
                    "report.",
    )
    p_derive.add_argument("target", choices=("p34",),
                          help="derivation to run")
    p_derive.add_argument("--format", choices=("text", "json"),
                          default="text")
    p_derive.set_defaults(func=_cmd_derive)


def _add_reduce(sub) -> None:
    p_reduce = sub.add_parser(
        "reduce", help="apply substitutions and limits",
        description="Apply the substitution/limit lattice to a catalog "
                    "entry or an --expr expression and print the result.  "
                    "Order: v-binding, hbar -> 0, rule normalization, "
                    "scalar projection, canonical form.",
    )
    p_reduce.add_argument("key", nargs="?", default=None,
                          help="catalog key to reduce")
    p_reduce.add_argument("--expr", default=None,
                          help="expression text to reduce instead of a "
                               "catalog key")
    group = p_reduce.add_mutually_exclusive_group()
    group.add_argument("--v-du", action="store_true",
                       help="bind v = u'")
    group.add_argument("--v-u", action="store_true", help="bind v = u")
    group.add_argument("--v-zero", action="store_true", help="bind v = 0")
    p_reduce.add_argument("--hbar-zero", action="store_true",
                          help="take the hbar -> 0 limit")
    p_reduce.add_argument("--rules", action="append",
                          choices=tuple(BUILTIN_RULESET_NAMES),
                          help="normalize under a built-in rule set "
                               "(repeatable)")
    p_reduce.add_argument("--scalarize", action="store_true",
                          help="project to the commutative scalar image")
    p_reduce.add_argument("--canonical", action="store_true",
                          help="rescale to the canonical normal form")
    p_reduce.set_defaults(func=_cmd_reduce)


def _add_integrate(sub) -> None:
    p_int = sub.add_parser(
        "integrate", help="integrate an operator flow",
        description="Integrate one of the recorded flows and print the "
                    "trajectory as CSV (columns: z, Re/Im of every matrix "
                    "entry of each stored derivative level, and the "
                    "independent finite-difference residual).",
    )
    p_int.add_argument("rhs", choices=("pii", "p34", "matrix-pii", "dpii3"),
                       help="flow to integrate")
    p_int.add_argument("--alpha", type=float, default=0.0)
    p_int.add_argument("--z0", type=float, default=1.0)
    p_int.add_argument("--z1", type=float, default=5.0)
    p_int.add_argument("--u0", type=complex, default=0.0,
                       help="initial value (complex accepted, j-notation)")
    p_int.add_argument("--du0", type=complex, default=0.0,
                       help="initial first derivative")
    p_int.add_argument("--ddu0", type=complex, default=None,
                       help="initial second derivative (third-order flow "
                            "only)")
    p_int.add_argument("--n", type=int, default=1,
                       help="matrix size (entries are n x n multiples of "
                            "identity when initial data is scalar)")
    p_int.add_argument("--grid", type=int, default=161,
                       help="number of output grid points")
    p_int.add_argument("--rtol", type=float, default=1e-10)
    p_int.add_argument("--atol", type=float, default=1e-12)
    p_int.add_argument("--output", default=None,
                       help="write CSV here instead of standard output")
    p_int.set_defaults(func=_cmd_integrate)


def _add_catalog(sub) -> None:
    p_cat = sub.add_parser(
        "catalog", help="list or show recorded constructions",
        description="List every catalog key with its kind, parameters, "
                    "and notes, or show one entry in full.",
    )
    p_cat.add_argument("action", choices=("list", "show"))
    p_cat.add_argument("key", nargs="?", default=None,
                       help="catalog key (for show)")
    p_cat.set_defaults(func=_cmd_catalog)


#: Each subcommand, in help order, with the function that registers it.
_COMMANDS = {
    "verify": _add_verify,
    "derive": _add_derive,
    "reduce": _add_reduce,
    "integrate": _add_integrate,
    "catalog": _add_catalog,
}


def build_parser(commands=tuple(_COMMANDS)) -> argparse.ArgumentParser:
    """The argument parser with the subcommands named in ``commands``."""
    parser = argparse.ArgumentParser(
        prog="laxlab",
        description="Symbolic and numeric checks for 2x2 spectral-problem "
                    "compatibility derivations.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    for name in commands:
        _COMMANDS[name](sub)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Only the named subcommand is built; any other first argument (none,
    # an option, an unknown command) needs every subcommand for its help
    # or error text.
    if argv and argv[0] in _COMMANDS:
        parser = build_parser(argv[:1])
    else:
        parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    if not hasattr(args, "func"):
        parser.print_help()
        return 2
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe early (``laxlab ... | head``).  Python
        # flushes stdout again at exit; pointing it at devnull keeps that
        # flush from failing a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
