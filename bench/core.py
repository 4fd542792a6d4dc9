"""Request model, the closed-loop pass loop and outcome checks.

A workload is a list of requests replayed in one pass by a single caller,
one request at a time. Each request carries the call that is timed and a
check that runs after the pass, outside every timed region, against a
reference computed before the first pass.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Callable

from azw.errors import AzwError

from tracing import GLUE


@dataclass
class Request:
    """One timed call and how to judge what it returned.

    check(value) returns None when the value is right, else a reason.
    refusal_ok: an AzwError is a correct answer here (the point lies where
      the program may decline).
    known_defect: the point lies in a class of inputs on which the seed
      program is known to be wrong; a failure here is counted in the
      error rate but does not mark the run as incorrect. A callable
      decides from the returned value whether a failure is of that class.
    before: untimed-per-request work that belongs to the pass, such as
      clearing the graph caches ahead of a new graph.
    canon: value -> JSON-able canonical form, digested to compare outputs
      across passes and across commits.
    """

    name: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    refusal_ok: bool = False
    known_defect: bool | Callable[[object], bool] = False
    before: Callable[[], None] | None = None
    canon: Callable[[object], object] = repr


@dataclass
class Outcome:
    value: object = None
    error: BaseException | None = None


def judge(req: Request, out: Outcome) -> str | None:
    """None when the outcome is correct, else the reason it is wrong."""
    if out.error is not None:
        if isinstance(out.error, AzwError) and req.refusal_ok:
            return None
        return f"raised {type(out.error).__name__}: {str(out.error)[:160]}"
    try:
        return req.check(out.value)
    except Exception as exc:  # a malformed value is a wrong answer, not a bench crash
        return f"check failed on malformed output: {type(exc).__name__}: {exc}"


def digest(req: Request, out: Outcome) -> str:
    if out.error is not None:
        doc = {"error": type(out.error).__name__}
    else:
        doc = req.canon(out.value)
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"), default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def run_pass(requests: list[Request], tracer=None) -> tuple[float, list[float], list[Outcome]]:
    """Replay every request once; returns (pass seconds, latencies ms, outcomes).

    With a tracer, the pass and each request are spans charged to the
    bench's glue, so every traced layer span nests under a request.
    """
    latencies = []
    outcomes = []
    clock = time.perf_counter
    if tracer is not None:
        tracer.begin("bench.pass", GLUE)
    started = clock()
    for req in requests:
        if req.before is not None:
            req.before()
        if tracer is not None:
            tracer.begin(req.name, GLUE)
        t0 = clock()
        try:
            out = Outcome(value=req.call())
        except Exception as exc:  # judged after the pass; a raw error is a wrong answer
            out = Outcome(error=exc)
        latencies.append((clock() - t0) * 1e3)
        if tracer is not None:
            tracer.end()
        outcomes.append(out)
    elapsed = clock() - started
    if tracer is not None:
        tracer.end()
    return elapsed, latencies, outcomes


class Ledger:
    """Correctness bookkeeping over every measured pass.

    The unit of account is the distinct request, a position in the
    request list: `attempted` is the number of requests in one pass and
    `failed` the number that were wrong in at least one pass. Both then
    depend on the seed alone, not on how many passes fit in a run.
    """

    def __init__(self, requests: list[Request]):
        self.requests = requests
        self.calls = 0                          # every judged call, all passes
        self.failures: dict[str, str] = {}     # request name -> first reason
        self.failed_at: set[int] = set()
        self.unexpected_at: set[int] = set()
        self.digests: dict[str, str] = {}

    def add_pass(self, outcomes: list[Outcome]) -> None:
        for i, (req, out) in enumerate(zip(self.requests, outcomes)):
            self.calls += 1
            reason = judge(req, out)
            dig = digest(req, out)
            prev = self.digests.setdefault(req.name, dig)
            if reason is None and prev != dig:
                reason = "output differs from an earlier pass"
            if reason is not None:
                self.failed_at.add(i)
                self.failures.setdefault(req.name, reason)
                known = req.known_defect
                if callable(known):
                    known = out.error is None and known(out.value)
                if not known:
                    self.unexpected_at.add(i)

    @property
    def attempted(self) -> int:
        return len(self.requests)

    @property
    def failed(self) -> int:
        return len(self.failed_at)

    @property
    def unexpected(self) -> int:
        return len(self.unexpected_at)

    @property
    def correct(self) -> bool:
        return self.calls > 0 and self.unexpected == 0
