"""Byte-identity of the exact outputs.

`tests/data/exact_outputs.json` holds the SHA-256 of each exact output on
the corpus and a few more graphs: the JSON of the Grover zeta, of the
Ihara zeta by both routes and of the Grover zeta's cyclotomic form (or
the error that refuses it), the reports of the three exact verifiers,
and the log series of both zetas to u^6. A refactor of the exact layer
must leave every one of them unchanged. When an output is meant to
change, regenerate the file with

    PYTHONPATH=src python tests/test_exact_outputs.py
"""

import hashlib
import json
import sys
from pathlib import Path

from azw import (
    automorphic_weight,
    builtin_corpus,
    factor_cyclotomic,
    generate,
    grover_zeta,
    ihara_zeta,
    log_zeta_series,
    verify_ihara_routes,
    verify_konno_sato,
)
from azw.errors import NotCyclotomicError

DIGESTS = Path(__file__).parent / "data" / "exact_outputs.json"


def graphs():
    """The corpus, plus a long cycle, a denser complete graph, an uneven
    bipartite one and two more trees, whose Konno-Sato side reduces by a
    nontrivial gcd."""
    return builtin_corpus() + (
        ("C24", generate("cycle", 24)),
        ("K7", generate("complete", 7)),
        ("K3,5", generate("complete_bipartite", 3, 5)),
        ("S6", generate("star", 6)),
        ("P6", generate("path", 6)),
    )


def exact_outputs(g) -> dict[str, str]:
    """Each exact output on g, as the text that is hashed."""
    grover = grover_zeta(g)
    bass = ihara_zeta(g, route="bass")
    try:
        form = json.dumps(factor_cyclotomic(grover).to_dict())
    except NotCyclotomicError as exc:
        form = f"NotCyclotomicError: {exc}"
    return {
        "grover_zeta": grover.to_json(),
        "ihara_zeta/bass": bass.to_json(),
        "ihara_zeta/edge": ihara_zeta(g, route="edge").to_json(),
        "factor_cyclotomic": form,
        "verify_konno_sato": json.dumps(verify_konno_sato(g).to_dict()),
        "verify_ihara_routes": json.dumps(verify_ihara_routes(g).to_dict()),
        "automorphic_weight": json.dumps(automorphic_weight(g).to_dict()),
        "log_zeta_series/grover": json.dumps([str(c) for c in log_zeta_series(grover, 6)]),
        "log_zeta_series/ihara": json.dumps([str(c) for c in log_zeta_series(bass, 6)]),
    }


def digests() -> dict[str, str]:
    return {f"{name}/{key}": hashlib.sha256(text.encode()).hexdigest()
            for name, g in graphs() for key, text in exact_outputs(g).items()}


def test_exact_outputs_are_byte_identical():
    want = json.loads(DIGESTS.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    moved = [name for name in want if got[name] != want[name]]
    assert not moved, f"exact outputs changed: {', '.join(moved)}"


if __name__ == "__main__":
    DIGESTS.parent.mkdir(exist_ok=True)
    DIGESTS.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    sys.exit(0)
