"""Command line front end.

Every command writes one deterministic JSON document to stdout
({"status": ..., "payload": ...}) and two timings to stderr, and exits
nonzero exactly when the status is not "ok"; `abszeta spectrum --csv`
prints CSV rows instead when it succeeds. A missing or unreadable file is
a `domain_error` document like any other failure; only usage errors exit
2 with click's message. The first stderr line, `elapsed <ms> ms`, is the
command's compute time; the second, `import <ms> ms`, runs from the start
of `import azw` to the start of the command. All of this happens in one
place, `_runner`. The AZW_PRECISION environment variable overrides the
default PrecisionPolicy target.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time

import click

from . import _IMPORT_STARTED
from . import abszeta as az
from . import graphs as gr
from . import zeta as zt
from .errors import AzwError
from .multizeta import DEFAULT_POLICY, PrecisionPolicy
from .polynomials import ExactRationalFunction


def _policy() -> PrecisionPolicy:
    raw = os.environ.get("AZW_PRECISION")
    if raw is None:
        return DEFAULT_POLICY
    return PrecisionPolicy(target=float(raw))


def _runner(body):
    """Run a command body and report its outcome; the one place that times,
    maps errors, prints and sets the exit code.

    The body returns (status, payload). A str payload is printed as it is
    (the `--csv` rendering); anything else goes out as the JSON document.
    AzwError, ArithmeticError, OSError and ValueError become a
    `domain_error` document. Exit code 1 when the status is not "ok".
    """

    @functools.wraps(body)
    def command(**kwargs) -> None:
        started = time.perf_counter()
        try:
            status, payload = body(**kwargs)
        except (AzwError, ArithmeticError, OSError, ValueError) as exc:
            status, payload = "domain_error", {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(payload, str):
            click.echo(payload)
        else:
            click.echo(json.dumps({"status": status, "payload": payload}, indent=2))
        click.echo(f"elapsed {(time.perf_counter() - started) * 1000.0:.1f} ms", err=True)
        click.echo(f"import {(started - _IMPORT_STARTED) * 1000.0:.1f} ms", err=True)
        if status != "ok":
            sys.exit(1)

    return command


def _load_graph(path: str) -> gr.Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return gr.graph_from_json(fh.read())


def _graph_summary(g: gr.Graph) -> dict:
    return {
        "n": g.n,
        "m": g.m,
        "edges": [list(e) for e in g.edges],
        "degrees": list(g.degrees()),
        "min_degree": g.min_degree(),
        "betti": g.betti,
    }


def _rational_payload(f: ExactRationalFunction) -> dict:
    return {
        "numerator": {"coeffs": [str(c) for c in f.num.coeffs]},
        "denominator": {"coeffs": [str(c) for c in f.den.coeffs]},
    }


def _parse_exponents(raw: str) -> tuple[int, ...]:
    raw = raw.strip()
    if not raw:
        return ()
    return tuple(int(part) for part in raw.split(","))


@click.group()
def main() -> None:
    """Grover-walk graph zetas, determinant identities, absolute zetas."""


# ------------------------------------------------------------------ graph

@main.group()
def graph() -> None:
    """Build and inspect graphs."""


@graph.command("gen")
@click.argument("family")
@click.argument("params", nargs=-1, type=int)
@click.option("--out", metavar="FILE", default=None,
              help="Write the graph JSON to a file instead of embedding it.")
@_runner
def graph_gen(family: str, params: tuple[int, ...], out: str | None):
    """Generate a named family member, e.g. `graph gen cycle 4`."""
    g = gr.generate(family, *params)
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(g.to_json())
    return "ok", _graph_summary(g)


@graph.command("info")
@click.argument("path")
@_runner
def graph_info(path: str):
    """Validate a graph file and print its summary."""
    return "ok", _graph_summary(_load_graph(path))


# ------------------------------------------------------------------- zeta

@main.group()
def zeta() -> None:
    """Exact zeta functions of a graph."""


@zeta.command("grover")
@click.argument("path")
@_runner
def zeta_grover(path: str):
    """Grover-walk zeta 1/det(I - uU) as exact coefficients."""
    return "ok", _rational_payload(zt.grover_zeta(_load_graph(path)))


@zeta.command("ihara")
@click.argument("path")
@click.option("--route", type=click.Choice(["edge", "bass"]), default="bass",
              show_default=True)
@_runner
def zeta_ihara(path: str, route: str):
    """Reduced-cycle zeta via the edge-matrix or Bass determinant route."""
    f = zt.ihara_zeta(_load_graph(path), route=route)
    return "ok", {"route": route, **_rational_payload(f)}


# ----------------------------------------------------------------- verify

def _file_or_corpus(fn):
    fn = click.option("--corpus", is_flag=True, help="Run the built-in graph corpus.")(fn)
    return click.argument("path", required=False)(fn)


def _verify_each(path: str | None, corpus: bool, identity: str, check, residual):
    """Run check(graph) -> report dict on FILE or on the corpus.

    Each report reads {graph, <report keys>, identity, residual}; a check
    that names its identity itself keeps it where it put it.
    residual(report) is the command's residual rule.
    """
    if corpus == (path is not None):
        raise click.UsageError("give exactly one of FILE or --corpus")
    named = gr.builtin_corpus() if corpus else [(path, _load_graph(path))]
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


@main.group()
def verify() -> None:
    """Identity verifiers; exit code 1 when any check fails."""


@verify.command("konno-sato")
@_file_or_corpus
@_runner
def verify_konno_sato_cmd(path: str | None, corpus: bool):
    """Exact arc-side vs vertex-side determinant identity."""
    return _verify_each(path, corpus, "konno-sato",
                        lambda g: zt.verify_konno_sato(g).to_dict(),
                        lambda rep: 0 if rep["status"] == "ok" else len(rep["mismatches"]))


@verify.command("ihara-bass")
@_file_or_corpus
@_runner
def verify_ihara_bass_cmd(path: str | None, corpus: bool):
    """Edge-matrix route vs Bass route, plus the positive-support bridge."""
    return _verify_each(path, corpus, "ihara-bass",
                        lambda g: zt.verify_ihara_routes(g).to_dict(), _zero_if_ok)


@verify.command("ihara-series")
@_file_or_corpus
@click.option("--r-max", type=int, default=6, show_default=True)
@_runner
def verify_ihara_series_cmd(path: str | None, corpus: bool, r_max: int):
    """Brute-force reduced-cycle counts vs the log-series coefficients."""
    return _verify_each(path, corpus, "ihara-series",
                        lambda g: zt.verify_ihara_series(g, r_max=r_max).to_dict(), _zero_if_ok)


@verify.command("automorphic")
@_file_or_corpus
@_runner
def verify_automorphic_cmd(path: str | None, corpus: bool):
    """Automorphy certificate (C, D) = (det U, -2m) with exact identity."""
    return _verify_each(path, corpus, "automorphic",
                        lambda g: {"status": "ok", "identity": "automorphic",
                                   **zt.automorphic_weight(g).to_dict()},
                        lambda rep: rep["max_residual"])


@verify.command("functional-eq")
@click.option("--n", "cycle_n", type=int, required=True)
@click.option("--s", "s_value", type=float, required=True)
@click.option("--tol", type=float, default=1e-6, show_default=True)
@_runner
def verify_functional_eq_cmd(cycle_n: int, s_value: float, tol: float):
    """Cycle-graph absolute zeta functional equation at one point."""
    rep = az.verify_functional_equation(cycle_n, s_value, tol=tol, policy=_policy())
    return ("ok" if rep.ok else "verification_failed"), {**rep.to_dict(), "identity": "functional-eq"}


# ---------------------------------------------------------------- abszeta

@main.group(name="abszeta")
def abszeta_group() -> None:
    """Absolute Hurwitz zeta and absolute zeta of cyclotomic forms."""


def _form_from_options(l: int, m: str, n: str) -> az.CyclotomicForm:
    return az.CyclotomicForm(l=l, num_exponents=_parse_exponents(m),
                             den_exponents=_parse_exponents(n))


@abszeta_group.command("Z")
@click.option("--l", "l_value", type=int, default=0, show_default=True)
@click.option("--m", "m_value", default="", help="Comma-separated numerator exponents.")
@click.option("--n", "n_value", required=True, help="Comma-separated denominator exponents.")
@click.option("--w", "w_value", type=float, required=True)
@click.option("--s", "s_value", type=float, required=True)
@click.option("--method", type=click.Choice(["structure", "series", "mellin", "all"]),
              default="structure", show_default=True)
@_runner
def abszeta_Z(l_value: int, m_value: str, n_value: str,
              w_value: float, s_value: float, method: str):
    """Absolute Hurwitz zeta Z_f(w, s) of the given form."""
    form = _form_from_options(l_value, m_value, n_value)
    policy = _policy()
    methods = ["structure", "series", "mellin"] if method == "all" else [method]
    results = [az.absolute_hurwitz_Z(form, w_value, s_value, mth, policy).to_dict()
               for mth in methods]
    payload = {"form": form.to_dict(), "w": w_value, "s": s_value, "results": results}
    if len(results) > 1:
        deltas = []
        for i in range(len(results)):
            for j in range(i + 1, len(results)):
                vi = complex(*results[i]["value"])
                vj = complex(*results[j]["value"])
                deltas.append({
                    "methods": [results[i]["method"], results[j]["method"]],
                    "relative_delta": abs(vi - vj) / max(abs(vi), 1e-300),
                })
        payload["pairwise"] = deltas
    return "ok", payload


@abszeta_group.command("zeta")
@click.option("--l", "l_value", type=int, default=0, show_default=True)
@click.option("--m", "m_value", default="")
@click.option("--n", "n_value", required=True)
@click.option("--s", "s_value", type=float, required=True)
@_runner
def abszeta_zeta(l_value: int, m_value: str, n_value: str, s_value: float):
    """Absolute zeta zeta_f(s) as the product of multiple gammas."""
    form = _form_from_options(l_value, m_value, n_value)
    result = az.absolute_zeta(form, s_value, _policy())
    return "ok", {"form": form.to_dict(), "s": s_value, **result.to_dict()}


@abszeta_group.command("spectrum")
@click.argument("path")
@click.option("--csv", "as_csv", is_flag=True, help="Emit CSV rows instead of JSON.")
@_runner
def abszeta_spectrum(path: str, as_csv: bool):
    """Grover spectrum of a graph, cross-checked against the mapped route."""
    direct, mapped = zt.matched_spectra(_load_graph(path))
    if as_csv:
        rows = ["re,im,multiplicity"]
        rows += [f"{value.real:.12g},{value.imag:.12g},{mult}" for value, mult in direct.entries]
        return "ok", "\n".join(rows)
    payload = direct.to_dict()
    payload["consistent_with_mapped_route"] = True
    payload["mapped_source"] = mapped.source
    return "ok", payload


if __name__ == "__main__":
    main()
