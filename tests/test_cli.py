import json
import os
import subprocess
import sys

import pytest

from isingexact.cli import run


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_critical_json(capsys):
    code, out, _ = _run(capsys, "critical")
    assert code == 0
    doc = json.loads(out)
    assert f"{doc['k_crit']:.10f}".startswith("0.4406867935")
    assert doc["tanh_k_crit"] == pytest.approx(0.41421356237309515, abs=1e-14)
    assert doc["sinh_sq_2k_crit"] == pytest.approx(1.0, abs=1e-13)


def test_z_subcommand_all_methods_agree(capsys):
    values = {}
    for method in ("oracle", "transfer", "kaufman", "pfaffian", "kacward"):
        code, out, _ = _run(capsys, "z", "--method", method, "--rows", "3",
                            "--cols", "4", "--kh", "0.3", "--kv", "0.6")
        assert code == 0
        doc = json.loads(out)
        assert doc["method"] == method
        assert doc["params"]["rows"] == 3
        values[method] = doc["log_z"]
    spread = max(values.values()) - min(values.values())
    assert spread < 1e-10


def test_compare_subcommand(capsys):
    code, out, _ = _run(capsys, "compare", "--rows", "4", "--cols", "4",
                        "--kh", "0.44", "--kv", "0.44", "--bc", "torus")
    assert code == 0
    doc = json.loads(out)
    assert set(doc["log_z"]) == {"oracle", "transfer", "kaufman", "pfaffian", "kacward"}
    assert doc["max_pairwise_delta"] < 1e-8


def test_dimers_all_methods(capsys):
    for method in ("product", "pfaffian", "enumerate"):
        code, out, _ = _run(capsys, "dimers", "--rows", "2", "--cols", "2",
                            "--method", method)
        assert code == 0
        assert json.loads(out)["count"] == 2


def test_free_energy_json(capsys):
    code, out, _ = _run(capsys, "free-energy", "--method", "onsager", "--k", "0.3")
    assert code == 0
    doc = json.loads(out)
    assert doc["f"] == pytest.approx(0.7905590709512628, abs=1e-10)


def test_sweep_csv_shape(capsys):
    code, out, _ = _run(capsys, "sweep", "--k-from", "0.2", "--k-to", "0.4",
                        "--steps", "3", "--points", "64")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,minus_beta_f,internal_energy,specific_heat"
    assert len(lines) == 4
    first = [float(v) for v in lines[1].split(",")]
    assert first[0] == pytest.approx(0.2)
    assert len(first) == 4


def test_identical_invocations_are_byte_identical(capsys):
    _, out1, _ = _run(capsys, "compare", "--rows", "3", "--cols", "3",
                      "--kh", "0.5", "--kv", "0.2")
    _, out2, _ = _run(capsys, "compare", "--rows", "3", "--cols", "3",
                      "--kh", "0.5", "--kv", "0.2")
    assert out1 == out2


def test_csv_output_has_header(capsys):
    code, out, _ = _run(capsys, "critical", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k_crit,tanh_k_crit,sinh_sq_2k_crit"
    assert len(lines) == 2


def test_exit_code_flag_error(capsys):
    assert _run(capsys, "z", "--method", "bogus", "--rows", "2", "--cols", "2",
                "--kh", "0.1", "--kv", "0.1")[0] == 2
    assert _run(capsys, "unknown-subcommand")[0] == 2


def test_exit_code_capacity_error(capsys):
    code, out, err = _run(capsys, "z", "--method", "transfer", "--rows", "2",
                          "--cols", "99", "--kh", "0.1", "--kv", "0.1")
    assert code == 3
    assert out == ""
    assert "error" in err


def test_quadrature_points_beyond_ceiling_exit_code(capsys):
    for argv in (("free-energy", "--method", "onsager", "--k", "0.3"),
                 ("sweep", "--k-from", "0.2", "--k-to", "0.3", "--steps", "2")):
        code, out, err = _run(capsys, *argv, "--points", "100000")
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_sweep_failing_row_prints_nothing(capsys):
    code, out, err = _run(capsys, "sweep", "--k-from", "-0.1", "--k-to", "0.3",
                          "--steps", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, isingexact.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert loaded.strip() == "[]"


def test_exit_code_domain_error(capsys):
    code, out, err = _run(capsys, "z", "--method", "kaufman", "--rows", "3",
                          "--cols", "3", "--kh", "0.3", "--kv", "0.3",
                          "--bc", "free")
    assert code == 1
    assert out == ""
    assert "torus-only" in err


def test_seventeen_digit_floats(capsys):
    _, out, _ = _run(capsys, "free-energy", "--method", "onsager", "--k", "0.3")
    assert "0.79055907095126277" in out
