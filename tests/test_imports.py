"""Neither numpy nor scipy ever loads, and `quad` stays patchable.

No command loads `dataclasses` or `inspect`, and the numeric commands
load neither `fractions` nor `decimal`: each would add to the start-up
of every command process, and no command computes with it.

The charpoly primes are also found on first use, never at import. Each
CLI command loads only the azw modules it runs, and `import azw` none:
the package resolves its public names on first access, and those names,
`from azw import *` included, are the objects of their home modules.

azw has no runtime dependency: the spectra come from the exact
charpolys, and the Mellin method runs on azw's own exp-sinh rule, so
numpy and scipy stay unloaded even after a spectrum and a Mellin call.
The check runs in a fresh interpreter, because this test session may
have loaded both.
"""

import json
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import azw
import azw.abszeta
from azw import CyclotomicForm, PrecisionPolicy, absolute_hurwitz_Z

SRC = str(Path(__file__).resolve().parents[1] / "src")
QUICK = PrecisionPolicy(target=1e-10)

CHILD = textwrap.dedent("""
    import sys
    import azw.cli
    heavy = ("numpy", "scipy", "scipy.integrate")
    print("after import:", sorted(m for m in heavy if m in sys.modules))
    from azw import CyclotomicForm, absolute_hurwitz_Z, generate, spectrum
    rep = spectrum(generate("cycle", 4))
    print("multiplicities:", sorted(mult for _, mult in rep.entries))
    z = absolute_hurwitz_Z(CyclotomicForm(0, (), (2, 2)), 3.0, 1.0, "mellin")
    print("mellin:", z.method, z.value.real > 0)
    print("after use:", sorted(m for m in heavy if m in sys.modules))
""")


def test_import_azw_cli_loads_neither_numpy_nor_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout.splitlines()
    assert out == [
        "after import: []",
        "multiplicities: [2, 2, 2, 2]",
        "mellin: mellin True",
        "after use: []",
    ]


def test_import_azw_cli_finds_no_charpoly_primes():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    child = "import azw.cli, azw.polynomials; print(azw.polynomials._PRIMES)"
    out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out == "[]\n"


def test_matrices_has_no_primes_and_the_cli_computes_none():
    # the modular arithmetic lives in polynomials alone, and its prime
    # list is still empty after importing the CLI
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    child = ("import azw.cli, azw.matrices, azw.polynomials; "
             "print(hasattr(azw.matrices, '_PRIMES'), azw.polynomials._PRIMES)")
    out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out == "False []\n"


def test_mellin_calls_quad_through_the_module_attribute(monkeypatch):
    # replacing azw.abszeta.quad must reroute the Mellin quadrature: one
    # call per evaluation, with the same value as the plain rule
    form = CyclotomicForm(0, (), (2, 2))
    plain = absolute_hurwitz_Z(form, 3.0, 1.0, "mellin", QUICK)
    calls = []
    rule = azw.abszeta.quad

    def counting_quad(*args, **kwargs):
        calls.append(args)
        return rule(*args, **kwargs)

    monkeypatch.setattr(azw.abszeta, "quad", counting_quad)
    hooked = absolute_hurwitz_Z(form, 3.0, 1.0, "mellin", QUICK)
    assert len(calls) == 1
    assert hooked == plain


# `azw.__all__` before the package resolved its names lazily
PUBLIC = [
    "AbsZetaValue", "ArcTable", "AutomorphyCertificate", "CycleSeriesReport", "CyclotomicForm",
    "DEFAULT_POLICY", "ExactMatrix", "ExactPolynomial", "ExactRationalFunction",
    "FunctionalEquationReport", "Graph", "IharaRouteReport", "KonnoSatoReport",
    "MultiZetaParams", "PrecisionPolicy", "SpectrumReport", "absolute_hurwitz_Z",
    "absolute_zeta", "abszeta", "adjacency_and_degree", "arc_table", "automorphic_data",
    "automorphic_weight", "build_graph", "builtin_corpus", "count_reduced_cycles",
    "cycle_zeta_form", "det_exact", "direct_series", "edge_matrix", "errors",
    "factor_cyclotomic", "generate", "graph_from_json", "graphs", "grover_matrix",
    "grover_zeta", "hurwitz_zeta", "hurwitz_zeta_ds", "ihara_zeta", "log_gamma",
    "log_zeta_series", "matched_spectra", "matrices", "multiple_gamma",
    "multiple_hurwitz_zeta", "multiple_hurwitz_zeta_ds", "multiple_sine", "multizeta",
    "poly_gcd", "poly_matrix_det", "polynomials", "positive_support", "rational_function_eval",
    "reversed_charpoly", "spectrum", "spectrum_via_konno_sato", "transition_matrix",
    "transition_spectrum", "verify_functional_equation", "verify_ihara_routes",
    "verify_ihara_series", "verify_konno_sato", "zeta",
]


def _home_object(name: str):
    """The object `name` is in the module that defines it."""
    value = getattr(azw, name)
    if isinstance(value, types.ModuleType):
        return sys.modules[f"azw.{name}"]
    home = getattr(value, "__module__", None) or type(value).__module__
    return getattr(sys.modules[home], name)


def test_the_public_names_are_unchanged():
    assert azw.__all__ == PUBLIC
    star: dict = {}
    exec("from azw import *", star)
    assert sorted(name for name in star if not name.startswith("__")) == PUBLIC
    listed = dir(azw)
    for name in PUBLIC:
        assert star[name] is getattr(azw, name) is _home_object(name), name
        assert name in listed, name


def test_a_resolved_name_is_a_plain_attribute():
    value = azw.hurwitz_zeta
    assert vars(azw)["hurwitz_zeta"] is value is azw.multizeta.hurwitz_zeta


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        azw.no_such_name  # noqa: B018
    with pytest.raises(ImportError):
        exec("from azw import no_such_name", {})


def _child(code: str, *args: str) -> str:
    """stdout of `code` run with `args` in a fresh interpreter."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, timeout=120, check=True).stdout


def test_import_azw_loads_no_submodule():
    out = _child("import sys, azw; print(sorted(m for m in sys.modules if m.startswith('azw')))")
    assert out == "['azw']\n"


# The CLI run as `python -m azw.cli` runs it, in a fresh interpreter; the
# child prints the exit code and the modules loaded by the end.
RUN_CLI = textwrap.dedent("""
    import contextlib, io, json, runpy, sys
    sys.argv = ["azw", *json.loads(sys.argv[1])]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            runpy.run_module("azw.cli", run_name="__main__", alter_sys=True)
        except SystemExit as exit:
            code = exit.code
    print(json.dumps([code, sorted(sys.modules)]))
""")

GRAPHS = ["azw", "azw._record", "azw.errors", "azw.graphs"]
ZETA = sorted([*GRAPHS, "azw.matrices", "azw.polynomials", "azw.zeta"])
ABSZETA = ["azw", "azw._record", "azw.abszeta", "azw.errors", "azw.multizeta"]  # no exact layer


COMMANDS = [
    (["graph", "gen", "cycle", "4"], GRAPHS),
    (["graph", "info", "{c4}"], GRAPHS),
    (["zeta", "grover", "{c4}"], ZETA),
    (["zeta", "ihara", "{c4}"], ZETA),
    (["verify", "konno-sato", "{c4}"], ZETA),
    (["verify", "ihara-bass", "{c4}"], ZETA),
    (["verify", "ihara-series", "{c4}"], ZETA),
    (["verify", "automorphic", "--corpus"], ZETA),
    (["verify", "functional-eq", "--n", "3", "--s", "0.7"], ABSZETA),
    (["abszeta", "Z", "--n", "2,2", "--w", "3", "--s", "1"], ABSZETA),
    (["abszeta", "zeta", "--n", "3,3", "--s", "0.5"], ABSZETA),
    (["abszeta", "spectrum", "{c4}"], ZETA),
]


@pytest.fixture(scope="module")
def run_cli(tmp_path_factory):
    """argv -> [exit code, sorted sys.modules] of the command, run once in
    a fresh interpreter; {c4} in argv names a file holding C4."""
    c4 = tmp_path_factory.mktemp("cli") / "c4.json"
    c4.write_text(azw.generate("cycle", 4).to_json())
    runs = {}

    def run(argv: list[str]) -> list:
        argv = [arg.format(c4=c4) for arg in argv]
        key = tuple(argv)
        if key not in runs:
            runs[key] = json.loads(_child(RUN_CLI, json.dumps(argv)))
        return runs[key]

    return run


COMMAND_IDS = [" ".join(argv[:2]) for argv, _ in COMMANDS]


@pytest.mark.parametrize("argv, modules", COMMANDS, ids=COMMAND_IDS)
def test_each_command_loads_only_its_modules(run_cli, argv, modules):
    code, loaded = run_cli(argv)
    assert code == 0
    assert [m for m in loaded if m == "azw" or m.startswith("azw.")] == modules
    assert not any(m == "click" or m.startswith("click.") for m in loaded)
    assert not any(m == "numpy" or m.startswith("numpy.") for m in loaded)


@pytest.mark.parametrize("argv, modules", COMMANDS, ids=COMMAND_IDS)
def test_no_command_pays_for_imports_it_does_not_use(run_cli, argv, modules):
    # `dataclasses` imports `inspect` (and with it ast, dis and tokenize)
    # and generates each record's methods with exec; the numeric commands
    # run no exact arithmetic, and `fractions` imports `decimal`
    code, loaded = run_cli(argv)
    assert code == 0
    assert {"dataclasses", "inspect"}.isdisjoint(loaded)
    if modules == ABSZETA:
        assert {"fractions", "decimal"}.isdisjoint(loaded)
