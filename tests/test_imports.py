"""numpy loads on first use, scipy never, and `quad` stays patchable.

The charpoly primes are also found on first use, never at import.

`import azw` must not pay for numpy: only the float spectra use it. The
Mellin method runs on azw's own exp-sinh rule, so scipy stays unloaded
even after a Mellin call. The check runs in a fresh interpreter, because
this test session may have loaded both.
"""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

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
        "after use: ['numpy']",
    ]


def test_import_azw_cli_finds_no_charpoly_primes():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    child = "import azw.cli, azw.polynomials; print(azw.polynomials._PRIMES)"
    out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out == "[]\n"


def test_polynomials_and_matrices_share_one_prime_list():
    # det_exact and the charpoly find primes through one list, still empty
    # after importing the CLI
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    child = ("import azw.cli, azw.matrices, azw.polynomials; "
             "print(azw.polynomials._PRIMES is azw.matrices._PRIMES, azw.matrices._PRIMES)")
    out = subprocess.run([sys.executable, "-c", child], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    assert out == "True []\n"


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
