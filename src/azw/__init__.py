"""Grover-walk graph zeta functions and absolute zeta evaluation.

The package builds the walk operators of a simple connected graph with
exact rational entries, computes graph zeta functions as exact rational
functions, verifies the determinant identities linking them, and then
evaluates the absolute Hurwitz zeta / absolute zeta of the cyclotomic
forms those zetas produce, by three mutually cross-checking methods.

`import azw` loads no submodule. A public name is resolved on first
access (PEP 562 `__getattr__`): its home module in `_HOMES` is imported
and the name is stored in this namespace, so every later lookup is a
plain attribute read. What a first access loads, besides `azw.errors`
and `azw._record` (the base of the immutable records):

* `azw.graphs` names: graphs alone;
* `azw.matrices` names: graphs and matrices;
* `azw.polynomials` names: graphs, matrices and polynomials;
* `azw.zeta` names: those three and zeta;
* `azw.multizeta` names: multizeta alone;
* `azw.abszeta` names: multizeta and abszeta; `factor_cyclotomic`,
  `automorphic_data` and `CyclotomicForm.as_rational_function` add
  polynomials (with matrices and graphs) on their first call, never zeta.

The submodule names in `__all__` resolve the same way. azw needs nothing
outside the standard library: the spectra come from the exact charpolys.
The records are plain `__slots__` classes on `azw._record`, which
generates no code, so no azw module loads `inspect` (nor `ast`, `dis`
or `tokenize`). multizeta and abszeta load no `fractions` (nor, through
it, `decimal`): only the exact layer, matrices, polynomials and zeta,
imports it. `azw.cli` says what each command loads and how long its
import takes.
"""

from time import perf_counter as _perf_counter

_IMPORT_STARTED = _perf_counter()  # the CLI reports import time from here

__version__ = "0.1.0"

# home module -> the public names it defines
_HOMES = {
    "abszeta": (
        "AbsZetaValue", "CyclotomicForm", "FunctionalEquationReport", "absolute_hurwitz_Z",
        "absolute_zeta", "automorphic_data", "cycle_zeta_form", "factor_cyclotomic",
        "verify_functional_equation",
    ),
    "graphs": (
        "ArcTable", "Graph", "arc_table", "build_graph", "builtin_corpus", "generate",
        "graph_from_json",
    ),
    "matrices": (
        "ExactMatrix", "adjacency_and_degree", "det_exact", "edge_matrix", "grover_matrix",
        "positive_support", "transition_matrix",
    ),
    "multizeta": (
        "DEFAULT_POLICY", "MultiZetaParams", "PrecisionPolicy", "direct_series", "hurwitz_zeta",
        "hurwitz_zeta_ds", "log_gamma", "multiple_gamma", "multiple_hurwitz_zeta",
        "multiple_hurwitz_zeta_ds", "multiple_sine",
    ),
    "polynomials": (
        "ExactPolynomial", "ExactRationalFunction", "poly_gcd", "poly_matrix_det",
        "rational_function_eval", "reversed_charpoly",
    ),
    "zeta": (
        "AutomorphyCertificate", "CycleSeriesReport", "IharaRouteReport", "KonnoSatoReport",
        "SpectrumReport", "automorphic_weight", "count_reduced_cycles", "grover_zeta",
        "ihara_zeta", "log_zeta_series", "matched_spectra", "spectrum",
        "spectrum_via_konno_sato", "transition_spectrum", "verify_ihara_routes",
        "verify_ihara_series", "verify_konno_sato",
    ),
}
_HOME = {name: module for module, names in _HOMES.items() for name in names}
_SUBMODULES = (*_HOMES, "errors")

__all__ = sorted((*_HOME, *_SUBMODULES))


def __getattr__(name: str):
    home = name if name in _SUBMODULES else _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{home}")
    value = module if home == name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
