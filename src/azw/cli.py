"""Command line front end.

Every command writes one deterministic JSON document to stdout
({"status": ..., "payload": ...}) and two timings to stderr, and exits
nonzero exactly when the status is not "ok"; `abszeta spectrum --csv`
prints CSV rows instead when it succeeds. A missing or unreadable file is
a `domain_error` document like any other failure; only usage errors exit
2, with argparse's message on stderr. The first stderr line,
`elapsed <ms> ms`, is the command's compute time; the second,
`import <ms> ms`, runs from the start of `import azw` to the start of the
command. All of this happens in one place, `_runner`. The AZW_PRECISION
environment variable overrides the default PrecisionPolicy target.

Each command imports only the modules it runs, before its timer starts,
so they count in the `import` line and not in `elapsed`: `graph` loads
azw.graphs; `zeta`, `verify` and `abszeta spectrum` azw.zeta;
`abszeta Z`, `abszeta zeta` and `verify functional-eq` azw.abszeta,
which runs without the exact layer. No command loads a package from
outside the standard library, nor `inspect`: the records are plain
classes that generate no code. The numeric family (azw.abszeta) loads
neither `fractions` nor `decimal`. Dropping those took the median
`import` line of 11 runs (CPython 3.11.7, bytecode caching off, so azw's
sources compile on every run) from 31.9 to 22.8 ms for `graph info`,
from 66.2 to 48.7 ms for `zeta grover`, and from 56.1 to 37.2 ms for
`abszeta zeta`.

The parser accepts no abbreviated option and has `--help` but no `-h`.
An option that takes a value takes the next token whatever it looks like,
so `--w -1e300` and `--s -inf` are values (`_attach_values`). `graph gen`
reads FAMILY, PARAMS and `--out` in any order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import import_module

from . import _IMPORT_STARTED
from .errors import AzwError


def _policy():
    from .multizeta import DEFAULT_POLICY, PrecisionPolicy

    raw = os.environ.get("AZW_PRECISION")
    if raw is None:
        return DEFAULT_POLICY
    return PrecisionPolicy(target=float(raw))


def _runner(body, modules: tuple[str, ...]):
    """The command that imports `modules`, then runs `body(args)` and
    reports its outcome; the one place that times, maps errors, prints and
    sets the exit code.

    The body returns (status, payload). A str payload is printed as it is
    (the `--csv` rendering); anything else goes out as the JSON document.
    AzwError, ArithmeticError, OSError and ValueError become a
    `domain_error` document. The command returns the exit code: 1 when
    the status is not "ok".
    """

    def command(args: argparse.Namespace) -> int:
        for module in modules:
            import_module(module)
        started = time.perf_counter()
        try:
            status, payload = body(args)
        except (AzwError, ArithmeticError, OSError, ValueError) as exc:
            status, payload = "domain_error", {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(payload, str):
            print(payload)
        else:
            print(json.dumps({"status": status, "payload": payload}, indent=2))
        print(f"elapsed {(time.perf_counter() - started) * 1000.0:.1f} ms", file=sys.stderr)
        print(f"import {(started - _IMPORT_STARTED) * 1000.0:.1f} ms", file=sys.stderr)
        return 0 if status == "ok" else 1

    return command


def _load_graph(path: str):
    from .graphs import graph_from_json

    with open(path, "r", encoding="utf-8") as fh:
        return graph_from_json(fh.read())


def _graph_summary(g) -> dict:
    return {
        "n": g.n,
        "m": g.m,
        "edges": [list(e) for e in g.edges],
        "degrees": list(g.degrees()),
        "min_degree": g.min_degree(),
        "betti": g.betti,
    }


def _rational_payload(f) -> dict:
    return {
        "numerator": {"coeffs": [str(c) for c in f.num.coeffs]},
        "denominator": {"coeffs": [str(c) for c in f.den.coeffs]},
    }


def _parse_exponents(raw: str) -> tuple[int, ...]:
    """`--m`/`--n`'s comma list as ints; the empty string is no exponent.
    Anything else that is not a list of ints is a usage error."""
    raw = raw.strip()
    if not raw:
        return ()
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {raw!r}") from None


# ------------------------------------------------------------------ graph

def graph_gen(args):
    """Generate a named family member, e.g. `graph gen cycle 4`."""
    from .graphs import generate

    g = generate(args.family, *args.params)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(g.to_json())
    return "ok", _graph_summary(g)


def graph_info(args):
    """Validate a graph file and print its summary."""
    return "ok", _graph_summary(_load_graph(args.path))


# ------------------------------------------------------------------- zeta

def zeta_grover(args):
    """Grover-walk zeta 1/det(I - uU) as exact coefficients."""
    from .zeta import grover_zeta

    return "ok", _rational_payload(grover_zeta(_load_graph(args.path)))


def zeta_ihara(args):
    """Reduced-cycle zeta via the edge-matrix or Bass determinant route."""
    from .zeta import ihara_zeta

    f = ihara_zeta(_load_graph(args.path), route=args.route)
    return "ok", {"route": args.route, **_rational_payload(f)}


# ----------------------------------------------------------------- verify

def _verify_each(args, identity: str, check, residual):
    """Run check(graph) -> report dict on FILE or on the corpus.

    Each report reads {graph, <report keys>, identity, residual}; a check
    that names its identity itself keeps it where it put it.
    residual(report) is the command's residual rule.
    """
    from .graphs import builtin_corpus

    named = builtin_corpus() if args.corpus else [(args.path, _load_graph(args.path))]
    reports = []
    for name, g in named:
        rep = {"graph": name, **check(g)}
        rep.setdefault("identity", identity)
        rep["residual"] = residual(rep)
        reports.append(rep)
    all_ok = all(rep["status"] == "ok" for rep in reports)
    return ("ok" if all_ok else "verification_failed"), {"reports": reports}


def _zero_if_ok(rep: dict) -> int:
    return 0 if rep["status"] == "ok" else 1


def verify_konno_sato_cmd(args):
    """Exact arc-side vs vertex-side determinant identity."""
    from .zeta import verify_konno_sato

    return _verify_each(args, "konno-sato", lambda g: verify_konno_sato(g).to_dict(),
                        lambda rep: 0 if rep["status"] == "ok" else len(rep["mismatches"]))


def verify_ihara_bass_cmd(args):
    """Edge-matrix route vs Bass route, plus the positive-support bridge."""
    from .zeta import verify_ihara_routes

    return _verify_each(args, "ihara-bass", lambda g: verify_ihara_routes(g).to_dict(),
                        _zero_if_ok)


def verify_ihara_series_cmd(args):
    """Brute-force reduced-cycle counts vs the log-series coefficients."""
    from .zeta import verify_ihara_series

    return _verify_each(args, "ihara-series",
                        lambda g: verify_ihara_series(g, r_max=args.r_max).to_dict(), _zero_if_ok)


def verify_automorphic_cmd(args):
    """Automorphy certificate (C, D) = (det U, -2m) with exact identity."""
    from .zeta import automorphic_weight

    return _verify_each(args, "automorphic",
                        lambda g: {"status": "ok", "identity": "automorphic",
                                   **automorphic_weight(g).to_dict()},
                        lambda rep: rep["max_residual"])


def verify_functional_eq_cmd(args):
    """Cycle-graph absolute zeta functional equation at one point."""
    from .abszeta import verify_functional_equation

    rep = verify_functional_equation(args.n, args.s, tol=args.tol, policy=_policy())
    return ("ok" if rep.ok else "verification_failed"), {**rep.to_dict(), "identity": "functional-eq"}


# ---------------------------------------------------------------- abszeta

def _form_from_options(args):
    from .abszeta import CyclotomicForm

    return CyclotomicForm(l=args.l, num_exponents=args.m, den_exponents=args.n)


def abszeta_Z(args):
    """Absolute Hurwitz zeta Z_f(w, s) of the given form. With --method all,
    each pair of methods must agree within the sum of their errs, or the
    status is verification_failed."""
    from .abszeta import absolute_hurwitz_Z

    form = _form_from_options(args)
    policy = _policy()
    methods = ["structure", "series", "mellin"] if args.method == "all" else [args.method]
    values = [absolute_hurwitz_Z(form, args.w, args.s, mth, policy) for mth in methods]
    payload = {"form": form.to_dict(), "w": args.w, "s": args.s,
               "results": [v.to_dict() for v in values]}
    if len(values) == 1:
        return "ok", payload
    pairs = []
    for i, vi in enumerate(values):
        for vj in values[i + 1:]:
            delta = abs(vi.value - vj.value)
            pairs.append({
                "methods": [vi.method, vj.method],
                "relative_delta": delta / max(abs(vi.value), 1e-300),
                "within_err": delta <= vi.error + vj.error,
            })
    payload["pairwise"] = pairs
    return ("ok" if all(p["within_err"] for p in pairs) else "verification_failed"), payload


def abszeta_zeta(args):
    """Absolute zeta zeta_f(s) as the product of multiple gammas."""
    from .abszeta import absolute_zeta

    form = _form_from_options(args)
    result = absolute_zeta(form, args.s, _policy())
    return "ok", {"form": form.to_dict(), "s": args.s, **result.to_dict()}


def abszeta_spectrum(args):
    """Certified Grover spectrum of a graph, checked against the mapped route."""
    from .zeta import matched_spectra

    direct, mapped = matched_spectra(_load_graph(args.path))
    if args.csv:
        # repr keeps each double whole, so every value is within its err
        rows = ["re,im,multiplicity,err"]
        rows += [f"{value.real!r},{value.imag!r},{mult},{err!r}"
                 for (value, mult), err in zip(direct.entries, direct.err)]
        return "ok", "\n".join(rows)
    payload = direct.to_dict()
    payload["consistent_with_mapped_route"] = True
    payload["mapped_source"] = mapped.source
    return "ok", payload


# ----------------------------------------------------------------- parser

class _Parser(argparse.ArgumentParser):
    """One level of the command tree: no abbreviated options, `--help`."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, add_help=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")


def _group(levels, name: str, doc: str):
    return levels.add_parser(name, help=doc, description=doc).add_subparsers(
        metavar="COMMAND", required=True)


def _command(commands, name: str, body, *modules: str) -> argparse.ArgumentParser:
    """The subcommand `name`: `body` under `_runner`, after importing
    `modules`. The body's docstring is its help."""
    parser = commands.add_parser(name, help=body.__doc__, description=body.__doc__)
    parser.set_defaults(run=_runner(body, modules))
    return parser


def _path(parser) -> argparse.ArgumentParser:
    parser.add_argument("path", metavar="PATH")
    return parser


def _file_or_corpus(parser) -> argparse.ArgumentParser:
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("path", nargs="?", metavar="FILE")
    which.add_argument("--corpus", action="store_true", help="Run the built-in graph corpus.")
    return parser


def _form_options(parser) -> argparse.ArgumentParser:
    parser.add_argument("--l", type=int, default=0, help="(default: %(default)s)")
    parser.add_argument("--m", type=_parse_exponents, default="",
                        help="Comma-separated numerator exponents.")
    parser.add_argument("--n", type=_parse_exponents, required=True,
                        help="Comma-separated denominator exponents.")
    return parser


def _parser() -> argparse.ArgumentParser:
    root = _Parser(prog="azw",
                   description="Grover-walk graph zetas, determinant identities, absolute zetas.")
    groups = root.add_subparsers(metavar="COMMAND", required=True)

    graph = _group(groups, "graph", "Build and inspect graphs.")
    gen = _command(graph, "gen", graph_gen, "azw.graphs")
    gen.add_argument("family", metavar="FAMILY")
    gen.add_argument("params", metavar="PARAMS", nargs="*", type=int)
    gen.add_argument("--out", metavar="FILE",
                     help="Write the graph JSON to a file instead of embedding it.")
    _path(_command(graph, "info", graph_info, "azw.graphs"))

    zeta = _group(groups, "zeta", "Exact zeta functions of a graph.")
    _path(_command(zeta, "grover", zeta_grover, "azw.zeta"))
    _path(_command(zeta, "ihara", zeta_ihara, "azw.zeta")).add_argument(
        "--route", choices=("edge", "bass"), default="bass", help="(default: %(default)s)")

    verify = _group(groups, "verify", "Identity verifiers; exit code 1 when any check fails.")
    _file_or_corpus(_command(verify, "konno-sato", verify_konno_sato_cmd, "azw.zeta"))
    _file_or_corpus(_command(verify, "ihara-bass", verify_ihara_bass_cmd, "azw.zeta"))
    series = _file_or_corpus(_command(verify, "ihara-series", verify_ihara_series_cmd, "azw.zeta"))
    series.add_argument("--r-max", type=int, default=6, help="(default: %(default)s)")
    _file_or_corpus(_command(verify, "automorphic", verify_automorphic_cmd, "azw.zeta"))
    fe = _command(verify, "functional-eq", verify_functional_eq_cmd, "azw.abszeta")
    fe.add_argument("--n", type=int, required=True)
    fe.add_argument("--s", type=float, required=True)
    fe.add_argument("--tol", type=float, default=1e-6, help="(default: %(default)s)")

    abszeta = _group(groups, "abszeta",
                     "Absolute Hurwitz zeta and absolute zeta of cyclotomic forms.")
    z = _form_options(_command(abszeta, "Z", abszeta_Z, "azw.abszeta"))
    z.add_argument("--w", type=float, required=True)
    z.add_argument("--s", type=float, required=True)
    z.add_argument("--method", choices=("structure", "series", "mellin", "all"),
                   default="structure", help="(default: %(default)s)")
    _form_options(_command(abszeta, "zeta", abszeta_zeta, "azw.abszeta")).add_argument(
        "--s", type=float, required=True)
    _path(_command(abszeta, "spectrum", abszeta_spectrum, "azw.zeta")).add_argument(
        "--csv", action="store_true", help="Emit CSV rows instead of JSON.")
    return root


def _levels(parser: argparse.ArgumentParser, path: tuple[str, ...] = ()):
    """(path, parser) for `parser` and every command level below it."""
    yield path, parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _levels(sub, (*path, name))


def _attach_values(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """argv with `--opt value` joined into `--opt=value` for every option
    that takes a value. argparse alone reads a value such as -1e300 or
    -inf as an unknown option; joined, it is the option's value. Nothing
    after `--` changes."""
    takes_value = {opt for _, level in _levels(parser) for action in level._actions
                   if action.nargs != 0 for opt in action.option_strings}
    out = []
    tokens = iter(argv)
    for token in tokens:
        if token == "--":
            return [*out, token, *tokens]
        if token in takes_value:
            value = next(tokens, None)
            if value is not None:
                token = f"{token}={value}"
        out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit code; a usage error exits 2."""
    parser = _parser()
    argv = _attach_values(parser, sys.argv[1:] if argv is None else list(argv))
    if argv[:2] == ["graph", "gen"]:
        # a parser with subcommands fills FAMILY and PARAMS only from the
        # positionals before the first option; gen's own parser reads its
        # tokens intermixed, so `gen cycle --out F 4` is `gen cycle 4 --out F`
        args = dict(_levels(parser))[("graph", "gen")].parse_intermixed_args(argv[2:])
    else:
        args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main())
