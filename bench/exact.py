"""exact-ladder: graph zetas and identity checks over a size ladder.

The ladder separates the costs later exact-layer changes will move:
dense graphs are bound by the Faddeev-LeVerrier characteristic
polynomial, long cycles by the vertex-side polynomial determinant,
automorphic_weight by rational-function gcd normalisation, and the two
random irregular graphs show coefficient growth. The oracles below share
no code with the timed path: they build the walk matrices from the arc
definitions and take Bareiss determinants at rational points.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import azw
from azw import zeta as zt

from core import Request
from tracing import CacheLedger

WHY = ("exact Fraction kernels only: charpoly, polynomial determinants and "
       "rational normalisation over a graph size ladder, caches cold per graph")

# (n, m) of the two seeded irregular graphs: fixed so the cost is
# comparable across seeds; the seed only decides which edges.
RANDOM_SHAPES = ((9, 18), (12, 18))
ORACLE_POINTS = (Fraction(1, 3), Fraction(-2, 7), Fraction(3, 5))
AUTOMORPHY_RESIDUAL_LIMIT = 1e-10
SPECTRUM_TOL = 1e-7


def random_irregular_graph(rng: random.Random, n: int, m: int) -> azw.Graph:
    """Connected, minimum degree 2, not regular: spanning tree plus edges."""
    while True:
        order = list(range(n))
        rng.shuffle(order)
        edges = set()
        for i in range(1, n):
            u, v = order[i], order[rng.randrange(i)]
            edges.add((min(u, v), max(u, v)))
        while len(edges) < m:
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        g = azw.build_graph(n, sorted(edges))
        degrees = g.degrees()
        if min(degrees) >= 2 and len(set(degrees)) > 1:
            return g


def ladder(seed: int) -> list[tuple[str, azw.Graph]]:
    """The size ladder, interleaved with the package's verification corpus
    (trees, cycles, small dense graphs).

    The corpus puts the median request among many small deterministic
    calls, so latency_p50_ms does not hinge on where one seeded graph's
    call falls; interleaving spreads those calls over the whole pass, so
    the median samples the machine over the pass and not over its first
    half second.
    """
    rng = random.Random(f"exact-ladder:{seed}")
    rungs = [(f"C{n}", azw.generate("cycle", n)) for n in (12, 24, 36)]
    rungs += [(f"K{n}", azw.generate("complete", n)) for n in (5, 6, 7)]
    rungs += [("petersen", azw.generate("petersen")),
              ("K3,5", azw.generate("complete_bipartite", 3, 5))]
    rungs += [(f"R{n}_{m}", random_irregular_graph(rng, n, m)) for n, m in RANDOM_SHAPES]
    names = {name for name, _ in rungs}
    corpus = [(name, g) for name, g in azw.builtin_corpus() if name not in names]
    return [pair for both in zip(corpus, rungs) for pair in both]


# ---------------------------------------------------------------- oracles

def bareiss_det(rows: list[list[Fraction]]) -> Fraction:
    """Fraction-free elimination on rows scaled to integers."""
    n = len(rows)
    scale = 1
    work = []
    for row in rows:
        den = math.lcm(*(x.denominator for x in row))
        scale *= den
        work.append([int(x * den) for x in row])
    sign, prev = 1, 1
    for k in range(n - 1):
        if work[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if work[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            work[k], work[swap] = work[swap], work[k]
            sign = -sign
        pivot = work[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                work[i][j] = (work[i][j] * pivot - work[i][k] * work[k][j]) // prev
        prev = pivot
    return Fraction(sign * work[n - 1][n - 1]) / scale if n else Fraction(1)


def arcs_of(g: azw.Graph) -> list[tuple[int, int]]:
    arcs = []
    for u, v in g.edges:
        arcs += [(u, v), (v, u)]
    return arcs


def grover_rows(g: azw.Graph) -> list[list[Fraction]]:
    """U[e][f] = 2/deg(o(e)) - [f = e reversed] when f ends where e starts."""
    arcs = arcs_of(g)
    deg = g.degrees()
    return [[(Fraction(2, deg[oe]) - (1 if (tf, of) == (oe, te) else 0)) if tf == oe else Fraction(0)
             for (of, tf) in arcs] for (oe, te) in arcs]


def nonbacktracking_rows(g: azw.Graph) -> list[list[Fraction]]:
    """B[e][f] = 1 when f starts where e ends and f is not e reversed."""
    arcs = arcs_of(g)
    return [[Fraction(1) if (of == te and tf != oe) else Fraction(0) for (of, tf) in arcs]
            for (oe, te) in arcs]


def det_one_minus(rows: list[list[Fraction]], u: Fraction) -> Fraction:
    n = len(rows)
    return bareiss_det([[(1 if i == j else 0) - u * rows[i][j] for j in range(n)]
                        for i in range(n)])


def horner(coeffs, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def matches_inverse(f, dets: dict) -> str | None:
    """f = num/den must satisfy den(u) = det(I - uM) * num(u) at each point."""
    for u, d in dets.items():
        if horner(f.den.coeffs, u) != d * horner(f.num.coeffs, u):
            return f"1/zeta({u}) != det(I - uM) = {d}"
    return None


class GraphOracle:
    """Reference data for one graph, computed before the first pass."""

    def __init__(self, name: str, g: azw.Graph):
        self.name = name
        self.g = g
        u_rows = grover_rows(g)
        self.grover = {u: det_one_minus(u_rows, u) for u in ORACLE_POINTS}
        b_rows = nonbacktracking_rows(g)
        self.ihara = {u: det_one_minus(b_rows, u) for u in ORACLE_POINTS}
        self.det_u = bareiss_det(u_rows)
        size = len(u_rows)
        self.trace_u = float(sum(u_rows[i][i] for i in range(size)))
        self.trace_u2 = float(sum(u_rows[i][k] * u_rows[k][i]
                                  for i in range(size) for k in range(size) if u_rows[i][k]))
        self.cycle_n = g.n if g.m == g.n and set(g.degrees()) == {2} else None

    def check_grover(self, f) -> str | None:
        if self.cycle_n is not None:
            n = self.cycle_n
            want_den = [Fraction(0)] * (2 * n + 1)
            want_den[0], want_den[n], want_den[2 * n] = Fraction(1), Fraction(-2), Fraction(1)
            if list(f.num.coeffs) != [1] or list(f.den.coeffs) != want_den:
                return f"grover_zeta(C{n}) is not exactly 1/(u^{n} - 1)^2"
        return matches_inverse(f, self.grover)

    def check_ihara(self, f) -> str | None:
        return matches_inverse(f, self.ihara)

    def check_konno_sato(self, rep) -> str | None:
        if not rep.ok:
            return "Konno-Sato report not ok"
        for u, d in self.grover.items():
            if horner(rep.lhs.coeffs, u) != d:
                return f"Konno-Sato lhs({u}) != det(I - uU)"
        return None

    def check_routes(self, rep) -> str | None:
        # the support identity holds only at minimum degree >= 2
        support_ok = rep.support_equals_edge_matrix or self.g.min_degree() < 2
        if not (rep.ok and rep.routes_equal and support_ok):
            return "Ihara route report not ok"
        return self.check_ihara(rep.zeta)

    def check_automorphic(self, cert) -> str | None:
        if cert.sign != self.det_u:
            return f"sign {cert.sign} != det U = {self.det_u}"
        if cert.weight != -2 * self.g.m:
            return f"weight {cert.weight} != -2m"
        if not cert.max_residual <= AUTOMORPHY_RESIDUAL_LIMIT:
            return f"residual {cert.max_residual:.3e} above {AUTOMORPHY_RESIDUAL_LIMIT}"
        return None

    def check_spectra(self, pair) -> str | None:
        for rep in pair:
            if rep.dimension != 2 * self.g.m:
                return f"{rep.source} spectrum has dimension {rep.dimension}"
            s1 = sum(mult * v for v, mult in rep.entries)
            s2 = sum(mult * v * v for v, mult in rep.entries)
            scale = SPECTRUM_TOL * 2 * self.g.m
            if abs(s1 - self.trace_u) > scale or abs(s2 - self.trace_u2) > scale:
                return f"{rep.source} spectrum power sums disagree with tr U, tr U^2"
            if any(abs(abs(v) - 1.0) > SPECTRUM_TOL for v, _ in rep.entries):
                return f"{rep.source} eigenvalue off the unit circle"
        return None


# ---------------------------------------------------------------- canonical forms

def canon_rational(f) -> dict:
    return {"num": [str(c) for c in f.num.coeffs], "den": [str(c) for c in f.den.coeffs]}


def canon_report(rep) -> dict:
    return rep.to_dict()


def canon_spectra(pair) -> list:
    return [rep.to_dict() for rep in pair]


# ---------------------------------------------------------------- workload

class ExactLadder:
    name = "exact-ladder"
    why = WHY

    def __init__(self, seed: int):
        self.seed = seed
        self.graphs = ladder(seed)
        self.caches = CacheLedger()

    def prepare(self) -> None:
        self.requests = []
        for name, g in self.graphs:
            oracle = GraphOracle(name, g)
            self.requests += self._requests_for(oracle)

    def _requests_for(self, o: GraphOracle) -> list[Request]:
        g, name = o.g, o.name
        # every new graph, like every CLI process, pays the lru caches cold
        clear = self.caches.clear_graph_caches
        return [
            Request(f"{name}.grover_zeta", lambda: zt.grover_zeta(g), o.check_grover,
                    before=clear, canon=canon_rational),
            Request(f"{name}.ihara_zeta.edge", lambda: zt.ihara_zeta(g, route="edge"),
                    o.check_ihara, canon=canon_rational),
            Request(f"{name}.ihara_zeta.bass", lambda: zt.ihara_zeta(g, route="bass"),
                    o.check_ihara, canon=canon_rational),
            Request(f"{name}.verify_konno_sato", lambda: zt.verify_konno_sato(g),
                    o.check_konno_sato, canon=canon_report),
            Request(f"{name}.verify_ihara_routes", lambda: zt.verify_ihara_routes(g),
                    o.check_routes, canon=canon_report),
            Request(f"{name}.automorphic_weight", lambda: zt.automorphic_weight(g),
                    o.check_automorphic, canon=canon_report),
            Request(f"{name}.matched_spectra", lambda: zt.matched_spectra(g),
                    o.check_spectra, canon=canon_spectra),
        ]

    def warmup_requests(self) -> list[Request]:
        """Every call of a pass on the corpus graphs (K5 and Petersen are both
        corpus and rung), trees included, at about a tenth of a pass."""
        corpus = {name for name, _ in azw.builtin_corpus()}
        return [r for r in self.requests if r.name.split(".")[0] in corpus]

    def info(self) -> dict:
        return {"graphs": {name: {"n": g.n, "m": g.m, "edges": [list(e) for e in g.edges]}
                           for name, g in self.graphs}}


Workload = ExactLadder


def generate_inputs(seed: int) -> None:
    """Input generation alone, as timed by the set-up probe."""
    ladder(seed)
