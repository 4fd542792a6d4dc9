"""numeric-grid: the multizeta kernel and the absolute-zeta methods.

Two groups of requests. The kernel group (0.02-0.6 ms each) is bound by
the Euler-Maclaurin Hurwitz kernel: structure-method Z, absolute zeta,
multiple gamma and sine, the functional equation, Hurwitz zeta and its
s-derivative, digamma. The oracle group (0.5-150 ms each) runs series and
Mellin Z on the acceptance-criterion-7 grid, on the a=1, b=3 form and on
unequal periods (2, 3). Series cost steps with w, so w takes fixed values
and the seed draws s. Elsewhere discrete parameters are cycled and
continuous ones stratified, so the grid's cost and its share of defect
points hardly change with the seed.

The grid keeps a defect slice at Re(s) in [-8, -2], where the seed kernel
returns wrong values without raising. Those points may be refused with an
AzwError; a wrong value there counts as an error.
"""

from __future__ import annotations

import random
from fractions import Fraction

import azw
from azw import abszeta as az
from azw import multizeta as mz

from core import Request

WHY = ("Hurwitz-kernel-bound requests plus series/Mellin oracles, with the "
       "Re(s) in [-8, -2] defect slice kept; no exact graph kernels")

# A value returned without an error estimate passes when it lies within
# SLACK * target * max(|ref|, 1) of the reference. The healthy grid's worst
# case is about 2e-12 (order-3 multiple sine), 20 * target.
SLACK = 100.0
DEFECT_S = (-8.0, -2.0)
# The seed's Mellin err is scipy quad's estimate, not a bound, and falls
# short of the true error at rare points (about 1 in 6000; seed 15 has
# one). A miss by less than this factor is that known defect; a larger
# one is an unexpected failure. Either way it counts as an error.
MELLIN_ERR_FACTOR = 10.0

KERNEL_COUNTS = {
    "hurwitz_zeta": 100, "hurwitz_zeta_ds": 100,
    "hurwitz_zeta.defect": 40, "hurwitz_zeta_ds.defect": 40,
    "digamma": 60, "multiple_gamma": 150, "multiple_sine": 60,
    "absolute_zeta": 60, "verify_functional_equation": 30,
    "Z.structure": 120, "Z.structure.defect": 40,
}
# Each kernel point is requested KERNEL_REPEATS times per pass, which
# brings the kernel group to about a third of a pass without more
# reference values; the Mellin count keeps the oracle group above 10% of
# requests, so latency_p90_ms lies among the Mellin requests.
KERNEL_REPEATS = 3
MELLIN_COUNT = 360
FACTOR_COUNT = 10
CRITERION7 = ((3.0, 1.0), (4.0, 0.5), (2.5, 2.0))



def _off_integers(x: float) -> float:
    """Move x at least 0.05 away from the nearest integer (poles, lattices)."""
    k = round(x)
    if abs(x - k) > 0.05:
        return x
    return k + (0.06 if x >= k else -0.06)


def _strata(rng: random.Random, lo: float, hi: float, count: int) -> list[float]:
    """One uniform draw from each of `count` equal slices of [lo, hi), in
    seeded order: the seed moves points only within their slice."""
    out = [lo + (i + rng.random()) * (hi - lo) / count for i in range(count)]
    rng.shuffle(out)
    return out


def _strata_2d(rng: random.Random, x_range: tuple, y_range: tuple, count: int,
               y_slices: int = 5) -> list[tuple[float, float]]:
    """One draw per cell of a (count / y_slices) x y_slices grid over the
    rectangle: whether a defect-slice point fails depends on both s and a,
    so both are stratified together."""
    x_slices = count // y_slices
    (x0, x1), (y0, y1) = x_range, y_range
    out = [(x0 + (i + rng.random()) * (x1 - x0) / x_slices,
            y0 + (j + rng.random()) * (y1 - y0) / y_slices)
           for i in range(x_slices) for j in range(y_slices)]
    rng.shuffle(out)
    return out


def _cycle(rng: random.Random, choices: list, count: int) -> list:
    """`count` picks that run through every choice equally often."""
    choices = list(choices)
    rng.shuffle(choices)
    return [choices[i % len(choices)] for i in range(count)]


def _form(l: int, num: tuple, den: tuple) -> az.CyclotomicForm:
    return az.CyclotomicForm(l=l, num_exponents=num, den_exponents=den)


def _params(order: int, x: float, period: int) -> mz.MultiZetaParams:
    return mz.MultiZetaParams(order=order, shift=x, periods=(float(period),) * order)


class NumericGrid:
    name = "numeric-grid"
    why = WHY

    def __init__(self, seed: int):
        self.seed = seed
        self.target = mz.DEFAULT_POLICY.target
        self.points = self._draw(random.Random(f"numeric-grid:{seed}"))

    # (kind, params, known_defect) for every distinct point
    def _draw(self, rng: random.Random) -> list[tuple]:
        pts = []
        for kind, count in KERNEL_COUNTS.items():
            defect = kind.endswith(".defect")
            u = lambda lo, hi: _strata(rng, lo, hi, count)
            if kind.startswith("hurwitz"):
                s_range = DEFECT_S if defect else (-1.5, 8.0)
                for s, a in _strata_2d(rng, s_range, (0.1, 5.0), count):
                    pts.append((kind, (_off_integers(s), a), defect))
            elif kind == "digamma":
                pts += [(kind, (a,), False) for a in u(0.1, 8.0)]
            elif kind in ("multiple_gamma", "multiple_sine"):
                combos = _cycle(rng, [(r, n) for r in (1, 2, 3) for n in (1, 2, 3)], count)
                for (order, period), t in zip(combos, u(0.0, 1.0)):
                    hi = 6.0 if kind == "multiple_gamma" else order * period - 0.2
                    pts.append((kind, (order, 0.2 + t * (hi - 0.2), period), False))
            elif kind == "absolute_zeta":
                pts += [(kind, (n, s), False)
                        for n, s in zip(_cycle(rng, (2, 3, 4), count), u(0.2, 3.0))]
            elif kind == "verify_functional_equation":
                pts += [(kind, (n, _off_integers(s)), False)
                        for n, s in zip(_cycle(rng, (3, 4), count), u(0.1, 2.9))]
            else:  # structure Z on the b=2 and the a=1, b=3 forms
                forms = [(0, (), (n, n)) for n in (2, 3, 4)] + [(0, (n,), (n, n, n)) for n in (2, 3, 4)]
                w_range = DEFECT_S if defect else (1.5, 6.0)
                for form, w, s in zip(_cycle(rng, forms, count), u(*w_range), u(0.2, 3.0)):
                    pts.append(("Z.structure", (form, _off_integers(w), s), defect))
        for n in (2, 3):
            for w, s in CRITERION7:
                pts.append(("Z.series", ((0, (), (n, n)), w, s + rng.uniform(-0.2, 0.2)), False))
        for w in (3.5, 4.0):
            pts.append(("Z.series", ((0, (3,), (3, 3, 3)), w, rng.uniform(0.3, 2.5)), False))
        for w in (7.0, 7.5):
            pts.append(("Z.series", ((0, (), (2, 3)), w, rng.uniform(0.3, 2.5)), False))
        families = (((0, (), (2, 2)), (2.5, 4.0)), ((0, (), (3, 3)), (2.5, 4.0)),
                    ((0, (3,), (3, 3, 3)), (3.5, 4.5)), ((0, (), (2, 3)), (6.0, 8.0)))
        per_family = MELLIN_COUNT // len(families)
        for form, (lo, hi) in families:
            for w, s in zip(_strata(rng, lo, hi, per_family), _strata(rng, 0.3, 2.5, per_family)):
                pts.append(("Z.mellin", (form, w, s), False))
        combos = _cycle(rng, [(n, e) for n in (2, 3, 4, 5, 6) for e in (0, 1, 2)], FACTOR_COUNT)
        for n, e in combos:
            extra = ((), (n,), (2 * n,))[e]
            pts.append(("factor_cyclotomic", (0, extra, (n, n) + extra), False))
        return pts

    def prepare(self) -> None:
        import references  # mpmath stays out of the set-up probe's import time
        self.ref = references
        unique = [self._request(i, *p) for i, p in enumerate(self.points)]
        kernel = [r for r, (kind, _, _) in zip(unique, self.points) if kind in KERNEL_COUNTS]
        self.requests = unique + kernel * (KERNEL_REPEATS - 1)
        random.Random(f"numeric-grid-order:{self.seed}").shuffle(self.requests)

    def warmup_requests(self) -> list[Request]:
        return self.requests

    def info(self) -> dict:
        return {"points": [[kind, repr(params)] for kind, params, _ in self.points],
                "slack": SLACK, "target": self.target}

    # -- checks --------------------------------------------------------------

    def _close(self, want):
        want = complex(want)
        tol = SLACK * self.target * max(abs(want), 1.0)

        def check(got) -> str | None:
            got = complex(got)
            if abs(got - want) <= tol:
                return None
            return f"|got - ref| = {abs(got - want):.3e} > {tol:.1e} (ref {want:.12g})"
        return check

    @staticmethod
    def _within_err(want):
        want = complex(want)

        def check(got) -> str | None:
            if abs(got.value - want) <= got.error:
                return None
            return (f"|got - ref| = {abs(got.value - want):.3e} > err {got.error:.1e} "
                    f"(ref {want:.12g})")
        return check

    def _fe_check(self, n: int, s: float):
        lhs_ok = self._close(self.ref.absolute_zeta(0, (), (n, n), -2 * n - s))

        def check(rep) -> str | None:
            if not rep.ok:
                return f"functional equation report not ok (residual {rep.residual:.3e})"
            return lhs_ok(rep.lhs)
        return check

    @staticmethod
    def _factor_check(l: int, num: tuple, den: tuple):
        def value(l, num, den, x):
            v = x ** (l // 2)
            for e in num:
                v *= x ** e - 1
            for e in den:
                v /= x ** e - 1
            return v

        points = (Fraction(2), Fraction(5, 3))
        want = [value(l, num, den, x) for x in points]

        def check(form) -> str | None:
            got = [value(form.l, form.num_exponents, form.den_exponents, x) for x in points]
            return None if got == want else f"factored form {form.to_dict()} differs in value"
        return check

    # -- requests ------------------------------------------------------------

    def _request(self, i: int, kind: str, p: tuple, defect: bool) -> Request:
        name = f"{i:04d}.{kind}"
        ref = self.ref
        if kind.startswith("hurwitz_zeta"):
            s, a = p
            deriv = kind.startswith("hurwitz_zeta_ds")
            call = (lambda: azw.hurwitz_zeta_ds(s, a)) if deriv else (lambda: azw.hurwitz_zeta(s, a))
            return Request(name, call, self._close(ref.hurwitz(s, a, int(deriv))),
                           refusal_ok=defect, known_defect=defect)
        if kind == "digamma":
            (a,) = p
            return Request(name, lambda: mz.digamma(a), self._close(ref.digamma(a)))
        if kind == "multiple_gamma":
            order, x, period = p
            params = _params(order, x, period)
            return Request(name, lambda: azw.multiple_gamma(params),
                           self._close(ref.multiple_gamma(order, x, period)))
        if kind == "multiple_sine":
            order, x, period = p
            params = _params(order, x, period)
            return Request(name, lambda: azw.multiple_sine(params),
                           self._close(ref.multiple_sine(order, x, period)))
        if kind == "absolute_zeta":
            n, s = p
            form = _form(0, (), (n, n))
            return Request(name, lambda: azw.absolute_zeta(form, s),
                           self._within_err(ref.absolute_zeta(0, (), (n, n), s)),
                           canon=lambda v: v.to_dict())
        if kind == "verify_functional_equation":
            n, s = p
            return Request(name, lambda: azw.verify_functional_equation(n, s),
                           self._fe_check(n, s), canon=lambda v: v.to_dict())
        if kind == "factor_cyclotomic":
            l, num, den = p
            f = _form(l, num, den).as_rational_function()
            return Request(name, lambda: azw.factor_cyclotomic(f),
                           self._factor_check(l, num, den), canon=lambda v: v.to_dict())
        (l, num, den), w, s = p
        form = _form(l, num, den)
        method = kind.split(".")[1]
        want = complex(ref.absolute_Z(l, num, den, w, s))
        known = defect
        if method == "mellin":
            known = lambda v: abs(v.value - want) <= MELLIN_ERR_FACTOR * v.error
        return Request(name, lambda: azw.absolute_hurwitz_Z(form, w, s, method),
                       self._within_err(want), refusal_ok=defect, known_defect=known,
                       canon=lambda v: v.to_dict())


Workload = NumericGrid


def generate_inputs(seed: int) -> None:
    """Input generation alone, as timed by the set-up probe."""
    NumericGrid(seed)
