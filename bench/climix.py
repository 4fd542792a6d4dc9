"""cli-mix: whole `python -m azw.cli` processes, one at a time.

Each request is a fresh interpreter, so import cost is in every latency.
Children run strictly one after another (never two at once), with
PYTHONPATH=src because azw is not installed, and one BLAS thread. Output
goes to files in the work directory, so the bench can reap each child
with wait4 and read its peak RSS.
"""

from __future__ import annotations

import json
import os
import random
import re
import signal
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from types import SimpleNamespace

import azw

import exact
from core import Request
from numeric import SLACK
from tracing import CLI_COMPUTE, CLI_OVERHEAD

WHY = ("fresh CLI processes one after another: import cost, arg parsing and "
       "small computations, including two known-bad calls")

CHILD_TIMEOUT_S = 120
RANDOM_SHAPE = (8, 12)
ELAPSED = re.compile(r"elapsed ([0-9.]+) ms")


@dataclass
class CliResult:
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    rss_kb: int

    @property
    def elapsed_s(self) -> float | None:
        m = ELAPSED.search(self.stderr)
        return float(m.group(1)) / 1e3 if m else None


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def run_child(argv: list[str], workdir: str, env: dict, cwd: str) -> CliResult:
    """Run one child to completion and reap it with its own rusage."""
    out_path = os.path.join(workdir, "child.out")
    err_path = os.path.join(workdir, "child.err")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        started = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=cwd)
        previous = signal.signal(signal.SIGALRM, _alarm)
        signal.alarm(CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8", errors="replace") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return CliResult(proc.returncode, stdout, stderr, wall, usage.ru_maxrss)


# ---------------------------------------------------------------- checks

def _doc(res: CliResult, want_ok: bool = True) -> dict:
    """Parsed stdout; raises ValueError with the reason when it is unusable."""
    if "Traceback (most recent call last)" in res.stderr:
        last = res.stderr.strip().splitlines()[-1]
        raise ValueError(f"raw traceback: {last[:160]}")
    doc = json.loads(res.stdout)
    if want_ok and (doc.get("status") != "ok" or res.returncode != 0):
        raise ValueError(f"status {doc.get('status')!r}, exit {res.returncode}: "
                         f"{json.dumps(doc.get('payload'))[:160]}")
    return doc


def _guard(check):
    def wrapped(res: CliResult) -> str | None:
        try:
            return check(res)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return str(exc) or type(exc).__name__
    return wrapped


def _fractions(coeffs) -> list[Fraction]:
    return [Fraction(c) for c in coeffs]


def _rational(payload: dict) -> SimpleNamespace:
    return SimpleNamespace(num=SimpleNamespace(coeffs=_fractions(payload["numerator"]["coeffs"])),
                           den=SimpleNamespace(coeffs=_fractions(payload["denominator"]["coeffs"])))


def _value_within(want, allow_refusal: bool):
    want = complex(want)

    def check(res: CliResult) -> str | None:
        doc = _doc(res, want_ok=False)
        if doc["status"] == "domain_error" and allow_refusal and res.returncode != 0:
            return None
        doc = _doc(res)
        results = doc["payload"].get("results", [doc["payload"]])
        for r in results:
            got = complex(*r["value"])
            if not abs(got - want) <= r["err"]:
                return (f"{r['method']}: |got - ref| = {abs(got - want):.3e} > err "
                        f"{r['err']:.1e} (got {got.real:.10g}, ref {want.real:.10g})")
        return None
    return check


class CliMix:
    name = "cli-mix"
    why = WHY
    tracer = None  # set by run.py during traced passes

    def __init__(self, seed: int, root: str = ".", workdir: str = ".bench_work"):
        self.seed = seed
        self.root = os.path.abspath(root)
        self.workdir = os.path.abspath(workdir)
        self.rng = random.Random(f"cli-mix:{seed}")
        self.graph = exact.random_irregular_graph(self.rng, *RANDOM_SHAPE)
        self.files = {}
        os.makedirs(self.workdir, exist_ok=True)
        for key, g in (("random", self.graph), ("c3", azw.generate("cycle", 3)),
                       ("petersen", azw.generate("petersen"))):
            path = os.path.join(self.workdir, f"{key}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(g.to_json())
            self.files[key] = path
        self.env = child_env(self.root)

    def _cli(self, *args: str):
        argv = [sys.executable, "-m", "azw.cli", *args]

        def call() -> CliResult:
            res = run_child(argv, self.workdir, self.env, self.root)
            if self.tracer is not None:
                compute = min(res.elapsed_s or 0.0, res.wall_s)
                self.tracer.charge(CLI_COMPUTE, compute)
                self.tracer.charge(CLI_OVERHEAD, res.wall_s - compute)
            return res
        return call

    def prepare(self) -> None:
        import references as ref  # mpmath stays out of the set-up probe's import time
        g = self.graph
        petersen = exact.GraphOracle("petersen", azw.generate("petersen"))
        c3 = exact.GraphOracle("C3", azw.generate("cycle", 3))
        corpus = {name: exact.GraphOracle(name, cg) for name, cg in azw.builtin_corpus()}
        spectrum_oracle = exact.GraphOracle("random", g)

        def graph_info(res):
            p = _doc(res)["payload"]
            want = {"n": g.n, "m": g.m, "edges": [list(e) for e in g.edges],
                    "degrees": list(g.degrees())}
            return None if all(p[k] == v for k, v in want.items()) else "graph summary differs"

        def grover(oracle):
            return lambda res: oracle.check_grover(_rational(_doc(res)["payload"]))

        def konno_sato(res):
            reports = _doc(res)["payload"]["reports"]
            if [r["graph"] for r in reports] != list(corpus):
                return "corpus graphs differ"
            for r in reports:
                o = corpus[r["graph"]]
                if r["status"] != "ok":
                    return f"{r['graph']}: report not ok"
                lhs = _fractions(r["lhs"])
                for u, d in o.grover.items():
                    if exact.horner(lhs, u) != d:
                        return f"{r['graph']}: lhs({u}) != det(I - uU)"
            return None

        def automorphic(res):
            reports = _doc(res)["payload"]["reports"]
            if [r["graph"] for r in reports] != list(corpus):
                return "corpus graphs differ"
            for r in reports:
                o = corpus[r["graph"]]
                if (r["status"] != "ok" or r["C"] != o.det_u or r["D"] != -2 * o.g.m
                        or not r["residual"] <= exact.AUTOMORPHY_RESIDUAL_LIMIT):
                    return f"{r['graph']}: certificate differs from det U, -2m"
            return None

        fe_ref = complex(ref.absolute_zeta(0, (), (3, 3), -6 - 0.7))

        def functional_eq(res):
            p = _doc(res)["payload"]
            lhs = complex(*p["lhs"])
            tol = SLACK * azw.DEFAULT_POLICY.target * max(abs(fe_ref), 1.0)
            return None if abs(lhs - fe_ref) <= tol else f"lhs off reference by {abs(lhs - fe_ref):.3e}"

        def spectrum(res):
            p = _doc(res)["payload"]
            entries = [(complex(*e["value"]), e["multiplicity"]) for e in p["eigenvalues"]]
            rep = SimpleNamespace(entries=entries, source=p["source"],
                                  dimension=sum(m for _, m in entries))
            return spectrum_oracle.check_spectra([rep])

        f = self.files
        self.requests = [
            Request("graph_info", self._cli("graph", "info", f["random"]), _guard(graph_info)),
            Request("zeta_grover.C3", self._cli("zeta", "grover", f["c3"]), _guard(grover(c3))),
            Request("zeta_grover.petersen", self._cli("zeta", "grover", f["petersen"]),
                    _guard(grover(petersen))),
            Request("verify_konno_sato.corpus", self._cli("verify", "konno-sato", "--corpus"),
                    _guard(konno_sato)),
            Request("verify_automorphic.corpus", self._cli("verify", "automorphic", "--corpus"),
                    _guard(automorphic)),
            Request("abszeta_Z.all", self._cli("abszeta", "Z", "--n", "2,2", "--w", "3", "--s", "1",
                                               "--method", "all"),
                    _guard(_value_within(ref.absolute_Z(0, (), (2, 2), 3, 1), False))),
            Request("abszeta_zeta", self._cli("abszeta", "zeta", "--n", "3,3", "--s", "0.5"),
                    _guard(_value_within(ref.absolute_zeta(0, (), (3, 3), 0.5), False))),
            Request("verify_functional_eq", self._cli("verify", "functional-eq", "--n", "3",
                                                      "--s", "0.7"), _guard(functional_eq)),
            Request("abszeta_spectrum", self._cli("abszeta", "spectrum", f["random"]),
                    _guard(spectrum)),
            # known-bad at the seed: a wrong value with status ok (Re(w) <= -2
            # kernel defect), and an OverflowError traceback from a huge shift
            Request("abszeta_Z.w-9.5", self._cli("abszeta", "Z", "--n", "2,2", "--w", "-9.5",
                                                 "--s", "1"),
                    _guard(_value_within(ref.absolute_Z(0, (), (2, 2), -9.5, 1), True)),
                    known_defect=True),
            Request("abszeta_zeta.s300", self._cli("abszeta", "zeta", "--n", "2,2,2",
                                                   "--s", "300"),
                    _guard(_value_within(ref.absolute_zeta(0, (), (2, 2, 2), 300), True)),
                    known_defect=True),
        ]
        for req in self.requests:
            req.canon = lambda res: {"stdout": res.stdout, "exit": res.returncode}
        self.rng.shuffle(self.requests)

    def warmup_requests(self) -> list[Request]:
        """One child: it pulls every module all commands import into the page cache."""
        return [r for r in self.requests if r.name == "graph_info"]

    def info(self) -> dict:
        return {"order": [r.name for r in self.requests], "graph": json.loads(self.graph.to_json())}


Workload = CliMix


def generate_inputs(seed: int) -> None:
    """Input generation alone, as timed by the set-up probe."""
    CliMix(seed, workdir=os.path.join(".bench_work", "probe"))
