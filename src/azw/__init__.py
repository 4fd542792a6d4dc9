"""Grover-walk graph zeta functions and absolute zeta evaluation.

The package builds the walk operators of a simple connected graph with
exact rational entries, computes graph zeta functions as exact rational
functions, verifies the determinant identities linking them, and then
evaluates the absolute Hurwitz zeta / absolute zeta of the cyclotomic
forms those zetas produce, by three mutually cross-checking methods.

numpy is imported on first use (the float spectra), not by `import azw`.
"""

from time import perf_counter as _perf_counter

_IMPORT_STARTED = _perf_counter()  # the CLI reports import time from here

from .abszeta import (
    AbsZetaValue,
    CyclotomicForm,
    FunctionalEquationReport,
    absolute_hurwitz_Z,
    absolute_zeta,
    automorphic_data,
    cycle_zeta_form,
    factor_cyclotomic,
    verify_functional_equation,
)
from .graphs import (
    ArcTable,
    Graph,
    arc_table,
    build_graph,
    builtin_corpus,
    generate,
    graph_from_json,
)
from .matrices import (
    ExactMatrix,
    adjacency_and_degree,
    det_exact,
    edge_matrix,
    grover_matrix,
    positive_support,
    transition_matrix,
)
from .multizeta import (
    DEFAULT_POLICY,
    MultiZetaParams,
    PrecisionPolicy,
    direct_series,
    hurwitz_zeta,
    hurwitz_zeta_ds,
    log_gamma,
    multiple_gamma,
    multiple_hurwitz_zeta,
    multiple_hurwitz_zeta_ds,
    multiple_sine,
)
from .polynomials import (
    ExactPolynomial,
    ExactRationalFunction,
    poly_gcd,
    poly_matrix_det,
    rational_function_eval,
    reversed_charpoly,
)
from .zeta import (
    AutomorphyCertificate,
    CycleSeriesReport,
    IharaRouteReport,
    KonnoSatoReport,
    SpectrumReport,
    automorphic_weight,
    count_reduced_cycles,
    grover_zeta,
    ihara_zeta,
    log_zeta_series,
    matched_spectra,
    spectrum,
    spectrum_via_konno_sato,
    transition_spectrum,
    verify_ihara_routes,
    verify_ihara_series,
    verify_konno_sato,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
