"""Span tracing of azw's layers, installed from outside the package.

`Tracer.install()` replaces each traced function with a wrapper in every
azw module that holds a reference to it (so `azw.zeta.reversed_charpoly`
and `azw.polynomials.reversed_charpoly` are both patched), and
`uninstall()` puts the originals back. Each wrapper opens a span charged
to one layer metric; a span's self time is its duration minus the
durations of its direct children, so the self times of all spans in a
pass partition the pass's wall time exactly.
"""

from __future__ import annotations

import functools
import json
import sys
import time

GRAPHS = "graphs.self_s"
BUILD = "matrices.build_s"
DET = "matrices.det_s"
CHARPOLY = "polynomials.charpoly_s"
POLYDET = "polynomials.polydet_s"
RATIONAL = "polynomials.rational_s"
ZETA = "zeta.self_s"
SPECTRUM = "zeta.spectrum_s"
HURWITZ = "multizeta.hurwitz_s"
GAMMA = "multizeta.gamma_s"
MHZ = "multizeta.mhz_s"
STRUCTURE = "abszeta.structure_s"
SERIES = "abszeta.series_s"
MELLIN = "abszeta.mellin_s"
QUAD = "abszeta.quad_s"
ABSZETA = "abszeta.zeta_s"
FE = "abszeta.fe_s"
FACTOR = "abszeta.factor_s"
CLI_COMPUTE = "cli.compute_s"
CLI_OVERHEAD = "cli.overhead_s"
GLUE = "bench.glue_s"

# Every layer whose self time is part of a pass, in report order.
TIME_LAYERS = (GRAPHS, BUILD, DET, CHARPOLY, POLYDET, RATIONAL, ZETA, SPECTRUM,
               HURWITZ, GAMMA, MHZ, STRUCTURE, SERIES, MELLIN, QUAD, ABSZETA, FE,
               FACTOR, CLI_COMPUTE, CLI_OVERHEAD, GLUE)

GRAPH_CALLS = "graphs.calls"
CHARPOLY_CALLS = "polynomials.charpoly_calls"
HURWITZ_CALLS = "multizeta.hurwitz_calls"

# module -> {function name: (layer, call counter or None)}. Private names
# are traced where they are the kernel a public function hands work to
# (`_hurwitz_core`) or are imported by another module (`_rectangular_series`).
FUNCTIONS = {
    "azw.graphs": {name: (GRAPHS, GRAPH_CALLS) for name in (
        "build_graph", "arc_table", "generate", "graph_from_json", "builtin_corpus")},
    "azw.matrices": {
        "grover_matrix": (BUILD, None),
        "edge_matrix": (BUILD, None),
        "transition_matrix": (BUILD, None),
        "adjacency_and_degree": (BUILD, None),
        "positive_support": (BUILD, None),
        "det_exact": (DET, None),
    },
    "azw.polynomials": {
        "reversed_charpoly": (CHARPOLY, CHARPOLY_CALLS),
        "poly_matrix_det": (POLYDET, None),
        "poly_gcd": (RATIONAL, None),
        "rational_function_eval": (RATIONAL, None),
    },
    "azw.zeta": {
        **{name: (ZETA, None) for name in (
            "grover_zeta", "ihara_zeta", "verify_konno_sato", "verify_ihara_routes",
            "verify_ihara_series", "count_reduced_cycles", "log_zeta_series",
            "automorphic_weight")},
        **{name: (SPECTRUM, None) for name in (
            "spectrum", "transition_spectrum", "spectrum_via_konno_sato",
            "matched_spectra")},
    },
    "azw.multizeta": {
        "_hurwitz_core": (HURWITZ, HURWITZ_CALLS),
        "digamma": (HURWITZ, HURWITZ_CALLS),
        "hurwitz_zeta": (HURWITZ, None),
        "hurwitz_zeta_ds": (HURWITZ, None),
        "log_gamma": (GAMMA, None),
        "multiple_gamma": (GAMMA, None),
        "multiple_sine": (GAMMA, None),
        "multiple_hurwitz_zeta": (MHZ, None),
        "multiple_hurwitz_zeta_ds": (MHZ, None),
        "multiple_hurwitz_zeta_finite_part": (MHZ, None),
        "direct_series": (MHZ, None),
        "_collapsed_series": (MHZ, None),
        "_rectangular_series": (MHZ, None),
    },
    "azw.abszeta": {
        "absolute_hurwitz_Z": (None, None),  # layer chosen by the method argument
        "quad": (QUAD, None),
        "absolute_zeta": (ABSZETA, None),
        "verify_functional_equation": (FE, None),
        "factor_cyclotomic": (FACTOR, None),
        "automorphic_data": (FACTOR, None),
        "cycle_zeta_form": (FACTOR, None),
    },
}

# ExactRationalFunction construction and arithmetic (gcd normalisation).
RATIONAL_METHODS = ("from_parts", "from_polynomial", "one", "__mul__", "__truediv__",
                    "scale_monomial", "scale", "reciprocal_argument", "eval_exact")

Z_METHOD_LAYERS = {"structure": STRUCTURE, "series": SERIES, "mellin": MELLIN}

# lru caches that every new graph pays cold: (module, function, hit-ratio metric).
GRAPH_CACHES = (
    ("azw.matrices", "grover_matrix", "matrices.cache_hit_ratio"),
    ("azw.matrices", "edge_matrix", "matrices.cache_hit_ratio"),
    ("azw.matrices", "transition_matrix", "matrices.cache_hit_ratio"),
    ("azw.matrices", "adjacency_and_degree", "matrices.cache_hit_ratio"),
    ("azw.polynomials", "reversed_charpoly", "polynomials.charpoly_cache_hit_ratio"),
)


class CacheLedger:
    """Hit and miss counts of the graph caches, kept across `cache_clear`
    (which resets `cache_info`)."""

    def __init__(self):
        self.counts: dict[str, list[int]] = {}
        self.record = False

    def clear_graph_caches(self) -> None:
        for module, name, metric in GRAPH_CACHES:
            fn = getattr(sys.modules[module], name)
            if self.record:
                info = fn.cache_info()
                hits_misses = self.counts.setdefault(metric, [0, 0])
                hits_misses[0] += info.hits
                hits_misses[1] += info.misses
            fn.cache_clear()

    def ratios(self) -> dict[str, float]:
        out = {}
        for _, _, metric in GRAPH_CACHES:
            hits, misses = self.counts.get(metric, (0, 0))
            out[metric] = hits / (hits + misses) if hits + misses else 0.0
        return out


class Tracer:
    """In-memory span recorder; see the module docstring."""

    def __init__(self):
        self.spans: list[tuple] = []      # (id, parent, name, layer, start_ns, end_ns)
        self.self_ns: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[list] = []      # [id, name, layer, start_ns, child_ns]
        self._patched: list[tuple] = []
        self._next_id = 0

    # -- spans -------------------------------------------------------------

    def begin(self, name: str, layer: str) -> None:
        self._next_id += 1
        self._stack.append([self._next_id, name, layer, time.perf_counter_ns(), 0])

    def end(self) -> None:
        end = time.perf_counter_ns()
        span_id, name, layer, start, child = self._stack.pop()
        duration = end - start
        self.self_ns[layer] = self.self_ns.get(layer, 0) + duration - child
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[4] += duration
        self.spans.append((span_id, parent[0] if parent else 0, name, layer, start, end))

    def charge(self, layer: str, seconds: float) -> None:
        """Book time measured outside this process (a child's printed
        elapsed) to a layer, as if it were a child span of the open span."""
        ns = int(seconds * 1e9)
        self.self_ns[layer] = self.self_ns.get(layer, 0) + ns
        self._stack[-1][4] += ns

    def count(self, counter: str) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + 1

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, fn, name: str, layer, counter):
        tracer = self

        if layer is None:  # absolute_hurwitz_Z
            def pick(args, kwargs):
                method = kwargs.get("method", args[3] if len(args) > 3 else "structure")
                return Z_METHOD_LAYERS.get(method, STRUCTURE)
        else:
            def pick(args, kwargs):
                return layer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                tracer.count(counter)
            tracer.begin(name, pick(args, kwargs))
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end()

        for attr in ("cache_info", "cache_clear"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        return traced

    def install(self) -> None:
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "azw" or key.startswith("azw."))]
        for module_name, table in FUNCTIONS.items():
            home = sys.modules[module_name]
            for name, (layer, counter) in table.items():
                original = getattr(home, name)
                wrapper = self._wrap(original, f"{module_name}.{name}", layer, counter)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patched.append((module, attr, original))
        cls = sys.modules["azw.polynomials"].ExactRationalFunction
        for name in RATIONAL_METHODS:
            raw = cls.__dict__[name]
            is_classmethod = isinstance(raw, classmethod)
            fn = raw.__func__ if is_classmethod else raw
            wrapper = self._wrap(fn, f"ExactRationalFunction.{name}", RATIONAL, None)
            setattr(cls, name, classmethod(wrapper) if is_classmethod else wrapper)
            self._patched.append((cls, name, raw))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
