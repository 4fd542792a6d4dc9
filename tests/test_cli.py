import contextlib
import io
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import pytest

from azw import MultiZetaParams, generate, multiple_gamma
from azw.cli import _levels, _parser, main


@dataclass
class Result:
    exit_code: int
    stdout: str
    stderr: str
    exception: BaseException | None  # what main raised; None when it returned

    @property
    def output(self) -> str:
        return self.stdout + self.stderr


def invoke(argv: list[str], env: dict | None = None) -> Result:
    """main(argv) in this process, with stdout and stderr captured and env
    set for the call. A SystemExit gives the exit code, as in a process;
    any other exception is kept and reads as exit code 1."""
    out, err = io.StringIO(), io.StringIO()
    exception = None
    with mock.patch.dict(os.environ, env or {}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # noqa: BLE001  (reported through the result)
            code, exception = 1, exc
    return Result(code, out.getvalue(), err.getvalue(), exception)


@pytest.fixture()
def cycle4_file(tmp_path):
    path = tmp_path / "c4.json"
    path.write_text(generate("cycle", 4).to_json())
    return str(path)


def _run_process(*args: str, timeout: float = 120) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter, as a user runs it."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run([sys.executable, "-m", "azw.cli", *args], env=env,
                          capture_output=True, text=True, timeout=timeout)


def _payload(result):
    assert result.stdout.strip()
    doc = json.loads(result.stdout)
    return doc["status"], doc["payload"]


def test_graph_gen_cycle():
    result = invoke(["graph", "gen", "cycle", "4"])
    assert result.exit_code == 0
    status, payload = _payload(result)
    assert status == "ok"
    assert payload["n"] == 4 and payload["m"] == 4


def test_graph_gen_writes_file(tmp_path):
    out = tmp_path / "pet.json"
    result = invoke(["graph", "gen", "petersen", "--out", str(out)])
    assert result.exit_code == 0
    _, payload = _payload(result)
    assert payload["betti"] == 6
    assert json.loads(out.read_text())["n"] == 10


def test_graph_gen_reads_its_arguments_in_any_order(tmp_path):
    out = str(tmp_path / "c4.json")
    results = [invoke(["graph", "gen", *argv]) for argv in (
        ["cycle", "4", "--out", out], ["cycle", "--out", out, "4"], ["--out", out, "cycle", "4"])]
    assert [r.exit_code for r in results] == [0, 0, 0]
    assert results[0].stdout == results[1].stdout == results[2].stdout
    assert _payload(results[0])[1]["n"] == 4
    assert json.loads(Path(out).read_text())["n"] == 4


def test_graph_gen_refuses_a_member_over_the_edge_limit():
    result = invoke(["graph", "gen", "cycle", "1000001"])
    assert result.exit_code == 1
    status, payload = _payload(result)
    assert status == "domain_error"
    assert payload["error"] == "InvalidParameterError"


def test_graph_info(cycle4_file):
    result = invoke(["graph", "info", cycle4_file])
    assert result.exit_code == 0
    status, payload = _payload(result)
    assert payload["degrees"] == [2, 2, 2, 2]
    assert payload["betti"] == 1


def test_graph_info_rejects_invalid(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"n": 4, "edges": [[0, 1], [2, 3]]}')
    result = invoke(["graph", "info", str(bad)])
    assert result.exit_code == 1
    status, payload = _payload(result)
    assert status == "domain_error"
    assert "Disconnected" in payload["error"]


def test_zeta_grover_cycle4(cycle4_file):
    result = invoke(["zeta", "grover", cycle4_file])
    assert result.exit_code == 0
    _, payload = _payload(result)
    assert payload["numerator"]["coeffs"] == ["1"]
    assert payload["denominator"]["coeffs"] == ["1", "0", "0", "0", "-2", "0", "0", "0", "1"]


def test_zeta_ihara_tree_is_constant_one(tmp_path):
    path = tmp_path / "k2.json"
    path.write_text(generate("complete", 2).to_json())
    result = invoke(["zeta", "ihara", str(path), "--route", "bass"])
    assert result.exit_code == 0
    _, payload = _payload(result)
    assert payload["numerator"]["coeffs"] == ["1"]
    assert payload["denominator"]["coeffs"] == ["1"]


def test_zeta_ihara_routes_byte_identical(tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(generate("cycle", 3).to_json())
    edge = invoke(["zeta", "ihara", str(path), "--route", "edge"])
    bass = invoke(["zeta", "ihara", str(path), "--route", "bass"])
    e_doc = json.loads(edge.stdout)["payload"]
    b_doc = json.loads(bass.stdout)["payload"]
    assert e_doc["numerator"] == b_doc["numerator"]
    assert e_doc["denominator"] == b_doc["denominator"]


def test_verify_konno_sato_corpus():
    result = invoke(["verify", "konno-sato", "--corpus"])
    assert result.exit_code == 0
    status, payload = _payload(result)
    assert status == "ok"
    assert len(payload["reports"]) == 12
    assert all(r["status"] == "ok" for r in payload["reports"])


def test_verify_ihara_bass_single(cycle4_file):
    result = invoke(["verify", "ihara-bass", cycle4_file])
    assert result.exit_code == 0
    _, payload = _payload(result)
    assert payload["reports"][0]["routes_equal"] is True


def test_verify_ihara_series_single(tmp_path):
    path = tmp_path / "c3.json"
    path.write_text(generate("cycle", 3).to_json())
    result = invoke(["verify", "ihara-series", str(path), "--r-max", "6"])
    assert result.exit_code == 0
    _, payload = _payload(result)
    assert payload["reports"][0]["counts"] == [0, 0, 6, 0, 0, 6]


def test_verify_ihara_series_refuses_an_empty_range():
    result = invoke(["verify", "ihara-series", "--corpus", "--r-max", "-3"])
    assert result.exit_code == 1
    status, payload = _payload(result)
    assert status == "domain_error"
    assert payload["error"] == "InvalidParameterError"


def test_verify_automorphic(cycle4_file):
    result = invoke(["verify", "automorphic", cycle4_file])
    assert result.exit_code == 0
    _, payload = _payload(result)
    report = payload["reports"][0]
    assert (report["C"], report["D"]) == (1, -8)
    assert report["residual"] <= 1e-10


def test_verify_requires_file_or_corpus():
    assert invoke(["verify", "konno-sato"]).exit_code == 2


@pytest.mark.parametrize("command, keys", [
    ("konno-sato", ["graph", "status", "lhs", "rhs", "mismatches", "identity", "residual"]),
    ("ihara-bass", ["graph", "status", "min_degree", "routes_equal",
                    "support_equals_edge_matrix", "zeta_num", "zeta_den", "identity",
                    "residual"]),
    ("ihara-series", ["graph", "status", "r_max", "counts", "from_series", "identity",
                      "residual"]),
    ("automorphic", ["graph", "status", "identity", "C", "D", "max_residual", "residual"]),
])
def test_verify_report_key_order(cycle4_file, command, keys):
    result = invoke(["verify", command, cycle4_file])
    assert result.exit_code == 0
    _, payload = _payload(result)
    assert list(payload["reports"][0]) == keys


def test_verify_functional_eq_key_order():
    result = invoke(["verify", "functional-eq", "--n", "3", "--s", "0.7"])
    _, payload = _payload(result)
    assert list(payload) == ["n", "s", "lhs", "rhs", "residual", "status", "identity"]


@pytest.mark.parametrize("path", [path for path, _ in _levels(_parser())],
                         ids=lambda path: " ".join(path) or "main")
def test_help_exits_zero(path):
    result = invoke([*path, "--help"])
    assert result.exit_code == 0
    assert result.stdout.startswith("usage:")


@pytest.mark.parametrize("argv", [
    ("graph", "info"),
    ("verify", "konno-sato"),
    ("zeta", "grover"),
], ids=" ".join)
def test_missing_file_is_domain_error(tmp_path, argv):
    result = invoke([*argv, str(tmp_path / "missing.json")])
    assert result.exit_code == 1
    status, payload = _payload(result)
    assert status == "domain_error"
    assert payload["error"] == "FileNotFoundError"


def test_directory_path_is_domain_error(tmp_path):
    result = invoke(["graph", "info", str(tmp_path)])
    assert result.exit_code == 1
    assert _payload(result)[0] == "domain_error"


def test_verify_functional_eq():
    result = invoke(["verify", "functional-eq", "--n", "3", "--s", "0.7"])
    assert result.exit_code == 0
    _, payload = _payload(result)
    assert payload["residual"] <= 1e-6


def test_verify_functional_eq_singular_exit():
    result = invoke(["verify", "functional-eq", "--n", "3", "--s", "0"])
    assert result.exit_code == 1
    status, payload = _payload(result)
    assert status == "domain_error"
    assert payload["error"] == "SingularPointError"


def test_abszeta_Z_all_methods():
    result = invoke([
        "abszeta", "Z", "--l", "0", "--n", "2,2", "--w", "3", "--s", "1",
        "--method", "all"])
    assert result.exit_code == 0
    _, payload = _payload(result)
    assert [r["method"] for r in payload["results"]] == ["structure", "series", "mellin"]
    assert all(d["relative_delta"] <= 1e-6 for d in payload["pairwise"])
    assert all(d["within_err"] for d in payload["pairwise"])


def test_abszeta_Z_all_methods_fails_when_a_pair_disagrees(monkeypatch):
    # one method off by 1e-9 relative, far beyond every err, breaks the
    # two pairs it is in
    import azw.abszeta
    from azw import AbsZetaValue

    rule = azw.abszeta.absolute_hurwitz_Z

    def shifted(form, w, s, method, policy):
        z = rule(form, w, s, method, policy)
        if method != "series":
            return z
        return AbsZetaValue(z.value * (1 + 1e-9), z.method, z.error)

    monkeypatch.setattr(azw.abszeta, "absolute_hurwitz_Z", shifted)
    result = invoke(["abszeta", "Z", "--n", "2,2", "--w", "3", "--s", "1", "--method", "all"])
    assert result.exit_code == 1
    status, payload = _payload(result)
    assert status == "verification_failed"
    assert [(d["methods"], d["within_err"]) for d in payload["pairwise"]] == [
        (["structure", "series"], False), (["structure", "mellin"], True),
        (["series", "mellin"], False)]


def test_abszeta_Z_unequal_exponents_all_methods():
    # (2, 3) refolds to one period 6: all three methods answer and agree
    result = invoke([
        "abszeta", "Z", "--n", "2,3", "--w", "7", "--s", "1.3", "--method", "all"])
    assert result.exit_code == 0
    _, payload = _payload(result)
    assert [r["method"] for r in payload["results"]] == ["structure", "series", "mellin"]
    assert all(d["relative_delta"] < 1e-12 for d in payload["pairwise"])
    assert all(d["within_err"] for d in payload["pairwise"])


def test_abszeta_zeta_unequal_exponents():
    result = invoke(["abszeta", "zeta", "--n", "2,3", "--s", "1"])
    assert result.exit_code == 0
    status, payload = _payload(result)
    assert status == "ok"
    # exp of the w-derivative at 0 of the (2, 3) lattice zeta at 6, by mpmath
    assert abs(complex(*payload["value"]) - 1.4443970442929028) <= payload["err"]


def test_abszeta_zeta_of_overflowing_gammas():
    # (x^2 - 1)^2 / (x^2 - 1)^3 at s = 40 is Gamma_1(42; 2) =
    # Gamma(21) 2^20.5 / sqrt(2 pi), though one Gamma_3 factor overflows
    result = invoke(["abszeta", "zeta", "--m", "2,2", "--n", "2,2,2", "--s", "40"])
    assert result.exit_code == 0
    status, payload = _payload(result)
    assert status == "ok"
    assert abs(complex(*payload["value"]) - 1.439294261355527e24) <= payload["err"]


def test_abszeta_zeta_is_gamma2():
    result = invoke(["abszeta", "zeta", "--l", "0", "--n", "3,3", "--s", "0.5"])
    assert result.exit_code == 0
    _, payload = _payload(result)
    got = complex(*payload["value"])
    want = multiple_gamma(MultiZetaParams(2, 6.5, (3.0, 3.0)))
    assert abs(got - want) <= 1e-9 * abs(want)


def test_abszeta_Z_domain_error_exit():
    result = invoke([
        "abszeta", "Z", "--l", "0", "--n", "2,2", "--w", "1.5", "--s", "1",
        "--method", "series"])
    assert result.exit_code == 1
    status, _ = _payload(result)
    assert status == "domain_error"


def test_abszeta_zeta_gamma_overflow_is_domain_error():
    proc = _run_process("abszeta", "zeta", "--n", "2,2,2", "--s", "300")
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["status"] == "domain_error"
    assert "Traceback" not in proc.stdout + proc.stderr


@pytest.mark.parametrize("argv", [
    ("Z", "--n", "2,2", "--w", "1e300", "--s", "1"),
    ("Z", "--n", "2,2", "--w", "inf", "--s", "1"),
    ("Z", "--n", "2,2", "--w", "3", "--s", "inf", "--method", "series"),
    ("zeta", "--n", "2,2", "--s", "1e300"),
    ("Z", "--n", "2,2", "--w", "inf", "--s", "1", "--method", "series"),
])
def test_extreme_floats_are_domain_errors(argv):
    # a huge s must be refused before any sum starts, and an infinite one
    # before it reaches int() or a series that can never converge
    proc = _run_process("abszeta", *argv, timeout=20)
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["status"] == "domain_error"
    assert "Traceback" not in proc.stdout + proc.stderr


def test_overflow_message_names_the_arguments():
    proc = _run_process("abszeta", "Z", "--n", "2,2", "--w", "-1e300", "--s", "1", timeout=20)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["status"] == "domain_error"
    assert doc["payload"]["error"] == "DomainError"
    assert doc["payload"]["message"] != "math range error"
    assert "s=(-1e+300" in doc["payload"]["message"]


def _document(status: str, payload: dict) -> str:
    return json.dumps({"status": status, "payload": payload}, indent=2) + "\n"


_FORM_2_2 = {"l": 0, "m": [], "n": [2, 2]}


@pytest.mark.parametrize("argv, code, stdout", [
    (["--n", "2,2", "--w", "-1e300", "--s", "1"], 1, _document("domain_error", {
        "error": "DomainError",
        "message": "period scale 2.0^(-s) overflows double precision at s=(-1e+300+0j)"})),
    (["--n", "2,2", "--w", "-inf", "--s", "1"], 1, _document("domain_error", {
        "error": "DomainError",
        "message": "Z_f needs a finite w and s, got w=(-inf+0j), s=(1+0j)"})),
    (["--s", "-2.5e-3", "--w", "3", "--n", "2,2"], 0, _document("ok", {
        "form": _FORM_2_2, "w": 3.0, "s": -0.0025, "results": [
            {"value": [0.05541582386431486, 0.0], "err": 5.541582386431486e-14,
             "method": "structure"}]})),
], ids=["w=-1e300", "w=-inf", "s=-2.5e-3"])
def test_negative_float_values_parse_as_values(argv, code, stdout):
    # an option's value is the next token even when it reads like an option
    result = invoke(["abszeta", "Z", *argv])
    assert (result.exit_code, result.stdout) == (code, stdout)


@pytest.mark.parametrize("argv", [
    ("abszeta", "Z", "--n", "2,2", "--s", "1", "--w"),            # no value
    ("abszeta", "Z", "--n", "2,2", "--w", "3", "--s", "1", "--met", "all"),  # abbreviated
    ("abszeta", "Z", "--n", "2,2", "--w", "x", "--s", "1"),       # not a float
    ("abszeta", "Z", "--n", "2,2", "--w", "3", "--s", "1", "--method", "bogus"),
    ("abszeta", "Z", "--n", "2,2", "--w", "3", "--s", "1", "--", "x"),
    ("abszeta", "zeta", "--n", "2,x", "--s", "1"),                # not an int list
    ("abszeta", "zeta", "--n", "2,,2", "--s", "1"),               # empty exponent
    ("abszeta", "Z", "--n", "2,2", "--m", "1.5", "--w", "3", "--s", "1"),
    ("verify", "ihara-bass", "--corpus", "c4.json"),              # both FILE and --corpus
    ("graph", "info"),
    ("graph",),
    (),
], ids=lambda argv: " ".join(argv) or "no command")
def test_usage_errors_exit_2_with_nothing_on_stdout(argv):
    result = invoke(list(argv))
    assert (result.exit_code, result.stdout, result.exception) == (2, "", None)
    assert "usage:" in result.stderr


def test_zero_exponent_is_a_domain_error_not_a_usage_error():
    # `--n 0` parses as an int list; CyclotomicForm refuses the value
    result = invoke(["abszeta", "zeta", "--n", "0", "--s", "1"])
    assert (result.exit_code, result.stdout) == (1, _document("domain_error", {
        "error": "InvalidParameterError",
        "message": "exponents must be positive integers, got 0"}))


def test_mellin_underflow_is_domain_error():
    # every node of the Mellin integrand underflows at s = 1e300
    proc = _run_process("abszeta", "Z", "--n", "2,2", "--w", "3", "--s", "1e300",
                        "--method", "mellin", timeout=20)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["status"] == "domain_error"
    assert doc["payload"]["error"] == "PrecisionError"


@pytest.mark.parametrize("method", ["structure", "series"])
def test_huge_s_underflow_is_domain_error(method):
    proc = _run_process("abszeta", "Z", "--n", "2,2", "--w", "3", "--s", "1e300",
                        "--method", method, timeout=20)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stdout + proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["status"] == "domain_error"
    assert doc["payload"]["error"] == "PrecisionError"


def test_duplicate_edge_in_a_large_graph_is_refused_quickly(tmp_path):
    # K250 plus one repeated edge: 31,126 edges, counted once each
    n = 250
    edges = [[i, j] for i in range(n) for j in range(i + 1, n)] + [[1, 0]]
    path = tmp_path / "k250dup.json"
    path.write_text(json.dumps({"n": n, "edges": edges}))
    proc = _run_process("graph", "info", str(path), timeout=20)
    assert proc.returncode == 1
    doc = json.loads(proc.stdout)
    assert doc["status"] == "domain_error"
    assert doc["payload"]["error"] == "DuplicateEdgeError"
    assert doc["payload"]["message"] == "duplicate edge(s) [(0, 1)]"


def test_stderr_reports_compute_then_import_time():
    proc = _run_process("graph", "gen", "cycle", "3")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["status"] == "ok"
    lines = proc.stderr.splitlines()
    assert len(lines) == 2
    compute = re.fullmatch(r"elapsed ([0-9.]+) ms", lines[0])
    imported = re.fullmatch(r"import ([0-9.]+) ms", lines[1])
    assert compute and imported
    assert float(compute.group(1)) >= 0.0 and float(imported.group(1)) > 0.0


def test_abszeta_spectrum_json(cycle4_file):
    result = invoke(["abszeta", "spectrum", cycle4_file])
    assert result.exit_code == 0
    _, payload = _payload(result)
    assert payload["consistent_with_mapped_route"] is True
    mults = sorted(e["multiplicity"] for e in payload["eigenvalues"])
    assert mults == [2, 2, 2, 2]


def test_abszeta_spectrum_csv(cycle4_file):
    result = invoke(["abszeta", "spectrum", cycle4_file, "--csv"])
    assert result.exit_code == 0
    lines = result.stdout.strip().splitlines()
    assert lines[0] == "re,im,multiplicity,err"
    assert len(lines) == 5
    assert all(line.split(",")[2] == "2" for line in lines[1:])


@pytest.mark.parametrize("csv", [(), ("--csv",)], ids=["json", "csv"])
def test_abszeta_spectrum_undecodable_file(tmp_path, csv):
    # --csv has no error path of its own: a failure is the same JSON document
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe\x00 not utf-8")
    result = invoke(["abszeta", "spectrum", str(bad), *csv])
    assert result.exit_code == 1
    assert result.exception is None
    assert "Traceback" not in result.output
    status, payload = _payload(result)
    assert status == "domain_error"
    assert payload["error"] == "UnicodeDecodeError"


def test_abszeta_spectrum_one_vertex_graph(tmp_path):
    # the walk needs a neighbour at every vertex, as `verify konno-sato` says
    path = tmp_path / "k1.json"
    path.write_text(json.dumps({"n": 1, "edges": []}))
    for argv in (["abszeta", "spectrum", str(path)], ["verify", "konno-sato", str(path)]):
        result = invoke(argv)
        assert result.exit_code == 1 and result.exception is None, argv
        status, payload = _payload(result)
        assert status == "domain_error"
        assert payload["error"] == "InvalidParameterError", argv


@pytest.mark.parametrize("tol", ["inf", "-1", "nan"])
def test_verify_functional_eq_refuses_bad_tol(tol):
    result = invoke(["verify", "functional-eq", "--n", "3", "--s", "0.7", "--tol", tol])
    assert result.exit_code == 1
    status, payload = _payload(result)
    assert status == "domain_error"
    assert payload["error"] == "InvalidParameterError"


def test_output_is_deterministic(cycle4_file):
    a = invoke(["zeta", "grover", cycle4_file]).stdout
    b = invoke(["zeta", "grover", cycle4_file]).stdout
    assert a == b
    c = invoke(["verify", "konno-sato", "--corpus"]).stdout
    d = invoke(["verify", "konno-sato", "--corpus"]).stdout
    assert c == d


def test_precision_env_override():
    result = invoke(["abszeta", "zeta", "--l", "0", "--n", "3,3", "--s", "0.5"],
                    env={"AZW_PRECISION": "1e-10"})
    assert result.exit_code == 0
    bad = invoke(["abszeta", "zeta", "--l", "0", "--n", "3,3", "--s", "0.5"],
                 env={"AZW_PRECISION": "1e-20"})
    assert bad.exit_code == 1
    for raw in ("nan", "inf"):
        bad = invoke(["abszeta", "zeta", "--l", "0", "--n", "3,3", "--s", "0.5"],
                     env={"AZW_PRECISION": raw})
        assert bad.exit_code == 1
        status, payload = _payload(bad)
        assert (status, payload["error"]) == ("domain_error", "InvalidParameterError")
