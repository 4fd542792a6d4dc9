"""Command line front end.

Every command writes one deterministic JSON document to stdout
({"status": ..., "payload": ...}) and two timings to stderr, and exits
nonzero exactly when the status is not "ok". The first stderr line,
`elapsed <ms> ms`, is the command's compute time; the second,
`import <ms> ms`, runs from the start of `import azw` to the start of the
command. The AZW_PRECISION environment variable overrides the default
PrecisionPolicy target.
"""

from __future__ import annotations

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


def _report_times(started: float) -> None:
    elapsed_ms = (time.perf_counter() - started) * 1000.0
    click.echo(f"elapsed {elapsed_ms:.1f} ms", err=True)
    click.echo(f"import {(started - _IMPORT_STARTED) * 1000.0:.1f} ms", err=True)


def _emit(status: str, payload, started: float) -> None:
    doc = {"status": status, "payload": payload}
    click.echo(json.dumps(doc, indent=2, sort_keys=False))
    _report_times(started)
    if status != "ok":
        sys.exit(1)


def _run(started: float, fn) -> None:
    try:
        status, payload = fn()
    except (AzwError, ArithmeticError, OSError, ValueError) as exc:
        _emit("domain_error", {"error": type(exc).__name__, "message": str(exc)}, started)
        return
    _emit(status, payload, started)


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
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write the graph JSON to a file instead of embedding it.")
def graph_gen(family: str, params: tuple[int, ...], out: str | None) -> None:
    """Generate a named family member, e.g. `graph gen cycle 4`."""
    started = time.perf_counter()

    def work():
        g = gr.generate(family, *params)
        if out is not None:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(g.to_json())
        return "ok", _graph_summary(g)

    _run(started, work)


@graph.command("info")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
def graph_info(path: str) -> None:
    """Validate a graph file and print its summary."""
    started = time.perf_counter()
    _run(started, lambda: ("ok", _graph_summary(_load_graph(path))))


# ------------------------------------------------------------------- zeta

@main.group()
def zeta() -> None:
    """Exact zeta functions of a graph."""


@zeta.command("grover")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
def zeta_grover(path: str) -> None:
    """Grover-walk zeta 1/det(I - uU) as exact coefficients."""
    started = time.perf_counter()
    _run(started, lambda: ("ok", _rational_payload(zt.grover_zeta(_load_graph(path)))))


@zeta.command("ihara")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--route", type=click.Choice(["edge", "bass"]), default="bass",
              show_default=True)
def zeta_ihara(path: str, route: str) -> None:
    """Reduced-cycle zeta via the edge-matrix or Bass determinant route."""
    started = time.perf_counter()

    def work():
        f = zt.ihara_zeta(_load_graph(path), route=route)
        payload = {"route": route}
        payload.update(_rational_payload(f))
        return "ok", payload

    _run(started, work)


# ----------------------------------------------------------------- verify

def _corpus_or_file(path: str | None, corpus: bool) -> list[tuple[str, gr.Graph]]:
    if corpus == (path is not None):
        raise click.UsageError("give exactly one of FILE or --corpus")
    if corpus:
        return list(gr.builtin_corpus())
    return [(path, _load_graph(path))]


def _verify_many(named, one) -> tuple[str, dict]:
    reports = []
    all_ok = True
    for name, g in named:
        rep = one(g)
        all_ok &= rep["status"] == "ok"
        rep_named = {"graph": name}
        rep_named.update(rep)
        reports.append(rep_named)
    return ("ok" if all_ok else "verification_failed"), {"reports": reports}


@main.group()
def verify() -> None:
    """Identity verifiers; exit code 1 when any check fails."""


@verify.command("konno-sato")
@click.argument("path", required=False, type=click.Path(exists=True, dir_okay=False))
@click.option("--corpus", is_flag=True, help="Run the built-in graph corpus.")
def verify_konno_sato_cmd(path: str | None, corpus: bool) -> None:
    """Exact arc-side vs vertex-side determinant identity."""
    started = time.perf_counter()

    def one(g: gr.Graph) -> dict:
        rep = zt.verify_konno_sato(g).to_dict()
        rep["identity"] = "konno-sato"
        rep["residual"] = 0 if rep["status"] == "ok" else len(rep["mismatches"])
        return rep

    _run(started, lambda: _verify_many(_corpus_or_file(path, corpus), one))


@verify.command("ihara-bass")
@click.argument("path", required=False, type=click.Path(exists=True, dir_okay=False))
@click.option("--corpus", is_flag=True)
def verify_ihara_bass_cmd(path: str | None, corpus: bool) -> None:
    """Edge-matrix route vs Bass route, plus the positive-support bridge."""
    started = time.perf_counter()

    def one(g: gr.Graph) -> dict:
        rep = zt.verify_ihara_routes(g).to_dict()
        rep["identity"] = "ihara-bass"
        rep["residual"] = 0 if rep["status"] == "ok" else 1
        return rep

    _run(started, lambda: _verify_many(_corpus_or_file(path, corpus), one))


@verify.command("ihara-series")
@click.argument("path", required=False, type=click.Path(exists=True, dir_okay=False))
@click.option("--corpus", is_flag=True)
@click.option("--r-max", type=int, default=6, show_default=True)
def verify_ihara_series_cmd(path: str | None, corpus: bool, r_max: int) -> None:
    """Brute-force reduced-cycle counts vs the log-series coefficients."""
    started = time.perf_counter()

    def one(g: gr.Graph) -> dict:
        rep = zt.verify_ihara_series(g, r_max=r_max).to_dict()
        rep["identity"] = "ihara-series"
        rep["residual"] = 0 if rep["status"] == "ok" else 1
        return rep

    _run(started, lambda: _verify_many(_corpus_or_file(path, corpus), one))


@verify.command("automorphic")
@click.argument("path", required=False, type=click.Path(exists=True, dir_okay=False))
@click.option("--corpus", is_flag=True)
def verify_automorphic_cmd(path: str | None, corpus: bool) -> None:
    """Automorphy certificate (C, D) = (det U, -2m) with exact identity."""
    started = time.perf_counter()

    def one(g: gr.Graph) -> dict:
        cert = zt.automorphic_weight(g)
        rep = {"status": "ok", "identity": "automorphic"}
        rep.update(cert.to_dict())
        rep["residual"] = cert.max_residual
        return rep

    _run(started, lambda: _verify_many(_corpus_or_file(path, corpus), one))


@verify.command("functional-eq")
@click.option("--n", "cycle_n", type=int, required=True)
@click.option("--s", "s_value", type=float, required=True)
@click.option("--tol", type=float, default=1e-6, show_default=True)
def verify_functional_eq_cmd(cycle_n: int, s_value: float, tol: float) -> None:
    """Cycle-graph absolute zeta functional equation at one point."""
    started = time.perf_counter()

    def work():
        rep = az.verify_functional_equation(cycle_n, s_value, tol=tol, policy=_policy())
        d = rep.to_dict()
        d["identity"] = "functional-eq"
        return ("ok" if rep.ok else "verification_failed"), d

    _run(started, work)


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
def abszeta_Z(l_value: int, m_value: str, n_value: str,
              w_value: float, s_value: float, method: str) -> None:
    """Absolute Hurwitz zeta Z_f(w, s) of the given form."""
    started = time.perf_counter()

    def work():
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

    _run(started, work)


@abszeta_group.command("zeta")
@click.option("--l", "l_value", type=int, default=0, show_default=True)
@click.option("--m", "m_value", default="")
@click.option("--n", "n_value", required=True)
@click.option("--s", "s_value", type=float, required=True)
def abszeta_zeta(l_value: int, m_value: str, n_value: str, s_value: float) -> None:
    """Absolute zeta zeta_f(s) as the product of multiple gammas."""
    started = time.perf_counter()

    def work():
        form = _form_from_options(l_value, m_value, n_value)
        result = az.absolute_zeta(form, s_value, _policy())
        payload = {"form": form.to_dict(), "s": s_value}
        payload.update(result.to_dict())
        return "ok", payload

    _run(started, work)


@abszeta_group.command("spectrum")
@click.argument("path", type=click.Path(exists=True, dir_okay=False))
@click.option("--csv", "as_csv", is_flag=True, help="Emit CSV rows instead of JSON.")
def abszeta_spectrum(path: str, as_csv: bool) -> None:
    """Grover spectrum of a graph, cross-checked against the mapped route."""
    started = time.perf_counter()
    if as_csv:
        try:
            direct, _ = zt.matched_spectra(_load_graph(path))
        except AzwError as exc:
            click.echo(f"error,{type(exc).__name__},{exc}", err=True)
            sys.exit(1)
        click.echo("re,im,multiplicity")
        for value, mult in direct.entries:
            click.echo(f"{value.real:.12g},{value.imag:.12g},{mult}")
        _report_times(started)
        return

    def work():
        direct, mapped = zt.matched_spectra(_load_graph(path))
        payload = direct.to_dict()
        payload["consistent_with_mapped_route"] = True
        payload["mapped_source"] = mapped.source
        return "ok", payload

    _run(started, work)


if __name__ == "__main__":
    main()
