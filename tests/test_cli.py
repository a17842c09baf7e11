import importlib
import itertools
import json
import math
import os
import subprocess
import sys
import time
import warnings

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from isingexact import (LatticeSpec, MatchingWeights, ReducedCouplings, build_lattice_graph,
                        count_matchings_dp, critical_point_square, dimer_count_torus,
                        dirac_free_energy, enumerate_partition_graph, fermionic_free_energy,
                        ising_pfaffian_torus, kacward_log_z, kaufman_partition,
                        triangular_free_energy)
from isingexact.cli import run
from isingexact.core import K_CRIT
from isingexact.pfaffian import dimer_count_free as dimer_count_free_pf
from isingexact.spectral import dimer_count_free as dimer_count_free_product
from isingexact.thermo import (QuadratureSpec, internal_energy, onsager_free_energy,
                               specific_heat)
from isingexact.transfer2d import log_z_torus


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


def test_compare_just_off_the_critical_point(capsys):
    # the Kac-Ward factor in its cosine form cancelled here: 1.6e-8 apart
    k = repr(K_CRIT * (1.0 + 1e-9))
    code, out, _ = _run(capsys, "compare", "--rows", "4", "--cols", "6", "--kh", k, "--kv", k)
    assert code == 0
    doc = json.loads(out)
    assert set(doc["log_z"]) == {"oracle", "transfer", "kaufman", "pfaffian", "kacward"}
    assert doc["max_pairwise_delta"] <= 1e-13


def test_dimers_all_methods(capsys):
    # 3 x 3 has an odd site count: no perfect matching, by every method
    for side, want in (("2", 2), ("3", 0)):
        for method in ("product", "pfaffian", "enumerate"):
            code, out, err = _run(capsys, "dimers", "--rows", side, "--cols", side,
                                  "--method", method)
            assert code == 0, err
            assert json.loads(out)["count"] == want


def test_dimers_default_method_follows_the_boundary(capsys):
    # no --method: the product on the free grid, the Pfaffian on the torus
    for bc, method, want in (("free", "product", 36), ("torus", "pfaffian", 272)):
        code, out, err = _run(capsys, "dimers", "--rows", "4", "--cols", "4", "--bc", bc)
        assert code == 0, err
        doc = json.loads(out)
        assert doc["method"] == method
        assert doc["count"] == pytest.approx(want, rel=1e-12)
    code, out, err = _run(capsys, "dimers", "--rows", "4", "--cols", "4", "--bc", "torus",
                          "--method", "product")
    _refused(code, out, err)
    assert "torus dimer counts are Pfaffian-only" in err


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


def test_sweep_rows_are_the_scalar_calls(capsys, monkeypatch):
    q = QuadratureSpec(points_per_axis=64)
    step = (0.5 - 0.3) / 4
    # one step is the row at --k-from alone
    for steps, ks in ((5, [0.3 + i * step for i in range(5)]), (1, [0.3])):
        want = ["k,minus_beta_f,internal_energy,specific_heat"] + [
            ",".join(format(v, ".17g") for v in (k, onsager_free_energy(k, k, q),
                                                 internal_energy(k, q=q), specific_heat(k, q=q)))
            for k in ks]
        argv = ("sweep", "--k-from", "0.3", "--k-to", "0.5", "--steps", str(steps),
                "--points", "64")
        code, out, _ = _run(capsys, *argv)
        assert code == 0 and out.splitlines() == want
        # the sweep reads no environment: a thread-count variable is ignored
        with monkeypatch.context() as env:
            env.setenv("ISING_THREADS", "abc")
            assert _run(capsys, *argv)[:2] == (0, out)


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
    # the Kac-Ward case is refused before numpy is asked for 74.5 GiB
    for method, rows, cols in (("transfer", "99", "99"), ("kacward", "100000", "100000")):
        code, out, err = _run(capsys, "z", "--method", method, "--rows", rows,
                              "--cols", cols, "--kh", "0.1", "--kv", "0.1")
        assert code == 3
        assert out == ""
        assert "error" in err


def test_transfer_with_only_a_wide_safe_cut(capsys):
    # the sign-safe cut is 15 columns wide; the dense product at the narrow
    # cut answers, as it did before the cut was chosen
    for rows, cols, kh, kv in (("15", "3", "0.3", "-0.3"), ("15", "4", "-0.3", "-0.3")):
        code, out, err = _run(capsys, "z", "--method", "transfer", "--rows", rows,
                              "--cols", cols, "--kh", kh, "--kv", kv)
        assert code == 0, err
        assert json.loads(out)["log_z"] == log_z_torus(int(rows), int(cols), float(kh),
                                                       float(kv))


def test_quadrature_points_beyond_ceiling_exit_code(capsys):
    for argv in (("free-energy", "--method", "onsager", "--k", "0.3"),
                 ("sweep", "--k-from", "0.2", "--k-to", "0.3", "--steps", "2")):
        code, out, err = _run(capsys, *argv, "--points", "100000")
        assert code == 3
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_free_energy_at_large_coupling(capsys):
    for method, want in (("onsager", 800.0), ("fermionic", 800.0), ("dirac", 800.0),
                         ("triangular", 1200.0)):
        code, out, err = _run(capsys, "free-energy", "--method", method, "--k", "400")
        assert code == 0, err
        assert json.loads(out)["f"] == pytest.approx(want, rel=1e-15)


def test_free_energy_past_the_float_range_is_a_domain_error(capsys):
    for method in ("onsager", "fermionic", "dirac", "triangular"):
        code, out, err = _run(capsys, "free-energy", "--method", method, "--k", "1e308")
        assert code == 1
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err


def test_every_route_at_large_coupling(capsys):
    # ln Z -> 2 m n K + ln 2 on the 4 x 4 torus
    for k, want in (("80", 2560.6931471805597), ("400", 12800.69314718056),
                    ("1e300", 3.2e301)):
        for method in ("oracle", "transfer", "kaufman", "pfaffian", "kacward"):
            code, out, err = _run(capsys, "z", "--method", method, "--rows", "4",
                                  "--cols", "4", "--kh", k, "--kv", k)
            assert code == 0, (method, err)
            assert json.loads(out)["log_z"] == pytest.approx(want, rel=1e-15), method


def test_kaufman_at_tiny_coupling_matches_oracle(capsys):
    for rows, cols in ((4, 4), (3, 5)):
        values = []
        for method in ("kaufman", "oracle"):
            code, out, err = _run(capsys, "z", "--method", method, "--rows", str(rows),
                                  "--cols", str(cols), "--kh", "1e-300", "--kv", "1e-300")
            assert code == 0, err
            values.append(json.loads(out)["log_z"])
        # ln Z -> mn ln 2; Kaufman's four products cancel from ~5e3 down to it
        assert values[0] == pytest.approx(values[1], rel=1e-12)


def test_sweep_failing_row_prints_nothing(capsys):
    code, out, err = _run(capsys, "sweep", "--k-from", "-0.1", "--k-to", "0.3",
                          "--steps", "3")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_cli_import_loads_no_scipy():
    # nor the Gauss-Legendre machinery (built on first use), an FFT or a
    # thread pool
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    unwanted = ("scipy", "numpy.polynomial", "numpy.fft", "concurrent.futures")
    loaded = subprocess.run(
        [sys.executable, "-c",
         "import sys, isingexact.cli; "
         f"print(sorted(m for m in sys.modules if m.startswith({unwanted!r})))"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert loaded.strip() == "[]"


def test_exit_code_domain_error(capsys):
    code, out, err = _run(capsys, "z", "--method", "kaufman", "--rows", "3",
                          "--cols", "3", "--kh", "0.3", "--kv", "0.3",
                          "--bc", "free")
    assert code == 1
    assert out == ""
    assert "torus-only" in err
    code, out, err = _run(capsys, "z", "--method", "transfer", "--rows", "15",
                          "--cols", "1", "--kh", "400", "--kv", "-400")
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and "underflows" in err


def _oracle(rows, cols, kh, kv, bc="torus", kd=None):
    spec = LatticeSpec(rows, cols, geometry="square" if kd is None else "triangular",
                       boundary=bc)
    return enumerate_partition_graph(build_lattice_graph(spec, ReducedCouplings(kh, kv, kd)))


def _z_doc(method, log_z, rows, cols, kh, kv, bc="torus", kd=None):
    params = {"rows": rows, "cols": cols, "kh": kh, "kv": kv, "bc": bc}
    if kd is not None:
        params["kd"] = kd
    return {"method": method, "log_z": log_z, "params": params}


def _compare_doc(rows, cols, kh, kv):
    log_z = {"oracle": _oracle(rows, cols, kh, kv),
             "transfer": log_z_torus(rows, cols, kh, kv),
             "kaufman": kaufman_partition(rows, cols, kv, kh),
             "pfaffian": ising_pfaffian_torus(rows, cols, kh, kv),
             "kacward": kacward_log_z(rows, cols, kh, kv)}
    delta = max(abs(a - b) for a, b in itertools.combinations(log_z.values(), 2))
    return {"log_z": log_z, "max_pairwise_delta": delta,
            "params": {"rows": rows, "cols": cols, "kh": kh, "kv": kv, "bc": "torus"}}


def _dimers_doc(method, count, rows, cols, z1, z2, bc):
    return {"method": method, "count": float(count),
            "params": {"rows": rows, "cols": cols, "z1": z1, "z2": z2, "bc": bc}}


def _free_energy_doc(method, f, k, points=256, **couplings):
    return {"method": method, "f": f, "params": {"k": k, "points_per_axis": points,
                                                 **couplings}}


_W = MatchingWeights(0.5, 2.0)
_Q = QuadratureSpec(points_per_axis=256)
_KC = critical_point_square()

# each invocation with its output document, from the library calls it makes
_OUTPUTS = {
    "z --method oracle --rows 3 --cols 4 --kh 0.3 --kv 0.6":
        lambda: _z_doc("oracle", _oracle(3, 4, 0.3, 0.6), 3, 4, 0.3, 0.6),
    "z --method oracle --rows 3 --cols 4 --kh 0.3 --kv 0.6 --bc free":
        lambda: _z_doc("oracle", _oracle(3, 4, 0.3, 0.6, "free"), 3, 4, 0.3, 0.6, "free"),
    "z --method oracle --rows 3 --cols 3 --kh 0.3 --kv 0.2 --kd 0.1":
        lambda: _z_doc("oracle", _oracle(3, 3, 0.3, 0.2, kd=0.1), 3, 3, 0.3, 0.2, kd=0.1),
    "z --method oracle --rows 3 --cols 4 --kh 0.3 --kv 0.2 --kd -0.25 --bc free":
        lambda: _z_doc("oracle", _oracle(3, 4, 0.3, 0.2, "free", -0.25), 3, 4, 0.3, 0.2,
                       "free", -0.25),
    "z --method transfer --rows 3 --cols 5 --kh 0.44 --kv 0.2":
        lambda: _z_doc("transfer", log_z_torus(3, 5, 0.44, 0.2), 3, 5, 0.44, 0.2),
    "z --method kaufman --rows 3 --cols 5 --kh 0.44 --kv 0.2":
        lambda: _z_doc("kaufman", kaufman_partition(3, 5, 0.2, 0.44), 3, 5, 0.44, 0.2),
    "z --method pfaffian --rows 3 --cols 5 --kh 0.44 --kv 0.2":
        lambda: _z_doc("pfaffian", ising_pfaffian_torus(3, 5, 0.44, 0.2), 3, 5, 0.44, 0.2),
    "z --method kacward --rows 3 --cols 5 --kh 0.44 --kv 0.2":
        lambda: _z_doc("kacward", kacward_log_z(3, 5, 0.44, 0.2), 3, 5, 0.44, 0.2),
    "compare --rows 4 --cols 4 --kh 0.44 --kv 0.2": lambda: _compare_doc(4, 4, 0.44, 0.2),
    "dimers --rows 4 --cols 6 --z1 0.5 --z2 2":
        lambda: _dimers_doc("product", dimer_count_free_product(4, 6, _W), 4, 6, 0.5, 2.0,
                            "free"),
    "dimers --rows 4 --cols 6 --z1 0.5 --z2 2 --method pfaffian":
        lambda: _dimers_doc("pfaffian", dimer_count_free_pf(4, 6, _W), 4, 6, 0.5, 2.0, "free"),
    "dimers --rows 4 --cols 6 --z1 0.5 --z2 2 --method enumerate":
        lambda: _dimers_doc("enumerate", count_matchings_dp(4, 6, _W), 4, 6, 0.5, 2.0, "free"),
    "dimers --rows 4 --cols 6 --z1 0.5 --z2 2 --bc torus":
        lambda: _dimers_doc("pfaffian", dimer_count_torus(4, 6, _W), 4, 6, 0.5, 2.0, "torus"),
    "free-energy --method onsager --k 0.3":
        lambda: _free_energy_doc("onsager", onsager_free_energy(0.3, 0.3, _Q), 0.3, k2=0.3),
    "free-energy --method onsager --k 0.3 --k2 0.5":
        lambda: _free_energy_doc("onsager", onsager_free_energy(0.3, 0.5, _Q), 0.3, k2=0.5),
    "free-energy --method fermionic --k 0.3":
        lambda: _free_energy_doc("fermionic", fermionic_free_energy(0.3, _Q), 0.3),
    "free-energy --method dirac --k 0.3":
        lambda: _free_energy_doc("dirac", dirac_free_energy(0.3, _Q), 0.3),
    "free-energy --method triangular --k 0.3":
        lambda: _free_energy_doc("triangular", triangular_free_energy(0.3, 0.3, 0.3, _Q), 0.3,
                                 k2=0.3, k3=0.3),
    "free-energy --method triangular --k 0.3 --k2 0.2 --k3 0.1 --points 64":
        lambda: _free_energy_doc("triangular", triangular_free_energy(
            0.3, 0.2, 0.1, QuadratureSpec(points_per_axis=64)), 0.3, 64, k2=0.2, k3=0.1),
    "critical": lambda: {"k_crit": _KC, "tanh_k_crit": math.tanh(_KC),
                         "sinh_sq_2k_crit": math.sinh(2.0 * _KC) ** 2},
}


def _text(v):
    """The CLI's rendering of one value: floats to 17 significant digits."""
    if isinstance(v, dict):
        return "{" + ", ".join(f'"{k}": {_text(x)}' for k, x in v.items()) + "}"
    if isinstance(v, str):
        return f'"{v}"'
    return format(v, ".17g") if isinstance(v, float) else str(v)


def _csv(doc):
    flat = {k: v for k, v in doc.items() if not isinstance(v, dict)}
    flat.update({f"{k}.{kk}": vv for k, v in doc.items() if isinstance(v, dict)
                 for kk, vv in v.items()})
    return "\n".join((",".join(flat), ",".join(
        format(v, ".17g") if isinstance(v, float) else str(v) for v in flat.values()))) + "\n"


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize("argv", list(_OUTPUTS))
def test_output_bytes(capsys, argv, fmt):
    # the exact bytes of each output: every route called with the arguments
    # shown, keys in this order, floats in 17 significant digits
    code, out, err = _run(capsys, *argv.split(), "--format", fmt)
    assert code == 0, err
    doc = _OUTPUTS[argv]()
    assert out == (_text(doc) + "\n" if fmt == "json" else _csv(doc))


def test_seventeen_digit_floats(capsys):
    _, out, _ = _run(capsys, "free-energy", "--method", "onsager", "--k", "0.3")
    assert format(onsager_free_energy(0.3, 0.3), ".17g") in out


def _refused(code, out, err, want_code=1):
    assert code == want_code, err
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err


def test_every_route_past_the_float_range(capsys):
    # a numpy floating-point warning on the way would be a second stderr line
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for method in ("oracle", "transfer", "kaufman", "pfaffian", "kacward"):
            _refused(*_run(capsys, "z", "--method", method, "--rows", "4", "--cols", "4",
                           "--kh", "1e308", "--kv", "1e308"))


def test_kacward_needs_positive_sides(capsys):
    code, out, err = _run(capsys, "z", "--method", "kacward", "--rows", "0", "--cols", "4",
                          "--kh", "0.3", "--kv", "0.3")
    _refused(code, out, err)
    assert "lattice sides must be positive" in err


def test_dense_transfer_past_twelve_columns_exit_code(capsys):
    _refused(*_run(capsys, "z", "--method", "transfer", "--rows", "13", "--cols", "13",
                   "--kh", "-0.3", "--kv", "-0.3"), want_code=3)


def _break_pfaffian_cross_check(monkeypatch):
    # the Kac-Ward kernel's four determinants, each off by 1e-6
    module = importlib.import_module("isingexact.pfaffian")
    exact = module._kacward_log_products
    monkeypatch.setattr(module, "_kacward_log_products",
                        lambda *args: {pair: log_p + 1e-6 for pair, log_p in exact(*args).items()})


def test_pfaffian_cross_check_failure_exit_code(capsys, monkeypatch):
    # a Pfaffian^2 that misses its closed-form determinant is a DomainError
    _break_pfaffian_cross_check(monkeypatch)
    code, out, err = _run(capsys, "z", "--method", "pfaffian", "--rows", "4", "--cols", "4",
                          "--kh", "0.3", "--kv", "0.3")
    _refused(code, out, err)
    assert "torus1" in err and "closed form" in err


def test_compare_fails_on_a_failed_self_check(capsys, monkeypatch):
    # compare skips a route that refuses its input, but not one whose own
    # cross-check failed: the other four agreeing would hide a wrong route
    _break_pfaffian_cross_check(monkeypatch)
    code, out, err = _run(capsys, "compare", "--rows", "4", "--cols", "4",
                          "--kh", "0.3", "--kv", "0.3")
    assert code == 1 and out == ""
    assert err.startswith("error:") and "closed form" in err and "skipping" not in err


def test_compare_skips_the_oracle_past_its_ceiling(capsys):
    code, out, err = _run(capsys, "compare", "--rows", "6", "--cols", "6",
                          "--kh", "0.3", "--kv", "0.3")
    assert code == 0
    assert err.startswith("compare: skipping oracle") and err.count("\n") == 1
    doc = json.loads(out)
    assert list(doc["log_z"]) == ["transfer", "kaufman", "pfaffian", "kacward"]
    assert doc["max_pairwise_delta"] < 1e-10


def test_compare_on_a_long_two_row_torus_at_a_strong_coupling(capsys):
    # the Pfaffian's sweep delays ~200 pivots, and its determinant
    # cross-check passes
    code, out, err = _run(capsys, "compare", "--rows", "99", "--cols", "2",
                          "--kh", "0.3", "--kv", "400")
    assert code == 0
    assert err.startswith("compare: skipping oracle") and err.count("\n") == 1
    doc = json.loads(out)
    assert list(doc["log_z"]) == ["transfer", "kaufman", "pfaffian", "kacward"]
    assert doc["max_pairwise_delta"] < 1e-10 * abs(doc["log_z"]["kacward"])


def test_compare_on_a_long_torus(capsys):
    # the Pfaffian sweep reduces the 1024 columns by cyclic reduction
    code, out, _ = _run(capsys, "compare", "--rows", "16", "--cols", "1024",
                        "--kh", "0.3", "--kv", "0.6")
    assert code == 0
    doc = json.loads(out)
    assert {"kaufman", "pfaffian", "kacward"} <= set(doc["log_z"])
    assert doc["max_pairwise_delta"] <= 1e-12 * abs(doc["log_z"]["kacward"])


def test_compare_runs_every_route_on_every_small_torus(capsys):
    # sides of 1 included: the oracle and all four closed routes take them
    for rows, cols in itertools.product(range(1, 6), repeat=2):
        for kh, kv in ((0.3, 0.3), (0.9, 0.2), (0.2, 1.3), (2.0, 0.3), (K_CRIT, K_CRIT)):
            code, out, err = _run(capsys, "compare", "--rows", str(rows), "--cols", str(cols),
                                  "--kh", repr(kh), "--kv", repr(kv))
            assert code == 0 and err == ""
            doc = json.loads(out)
            assert list(doc["log_z"]) == ["oracle", "transfer", "kaufman", "pfaffian", "kacward"]
            assert doc["max_pairwise_delta"] <= 1e-10 * abs(doc["log_z"]["oracle"])


@pytest.mark.parametrize("rows,cols", [(2, 13), (13, 2)])
def test_compare_lists_every_route_at_the_oracle_ceiling(capsys, rows, cols):
    # 26 sites, the oracle's ceiling: its DOS is counted through a separator
    code, out, err = _run(capsys, "compare", "--rows", str(rows), "--cols", str(cols),
                          "--kh", "0.3", "--kv", "0.6")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert list(doc["log_z"]) == ["oracle", "transfer", "kaufman", "pfaffian", "kacward"]
    assert doc["max_pairwise_delta"] <= 1e-12 * abs(doc["log_z"]["oracle"])


def test_compare_on_the_free_grid_has_too_few_methods(capsys):
    code, out, err = _run(capsys, "compare", "--bc", "free", "--rows", "3", "--cols", "3",
                          "--kh", "0.3", "--kv", "0.3")
    assert code == 1 and out == ""
    assert "fewer than two methods" in err


def test_diagonal_coupling_is_oracle_only(capsys):
    code, out, err = _run(capsys, "z", "--method", "kaufman", "--rows", "3", "--cols", "3",
                          "--kh", "0.3", "--kv", "0.3", "--kd", "0.2")
    _refused(code, out, err)
    assert "diagonal-coupling" in err


@pytest.mark.parametrize("method,flag", [("fermionic", "--k2"), ("dirac", "--k3"),
                                         ("onsager", "--k3")])
def test_free_energy_refuses_a_coupling_its_method_does_not_read(capsys, method, flag):
    code, out, err = _run(capsys, "free-energy", "--method", method, "--k", "0.3",
                          flag, "0.9")
    _refused(code, out, err)
    assert flag in err


@pytest.mark.parametrize("argv", [
    ("--rows", "100", "--cols", "100"),
    ("--rows", "60", "--cols", "60", "--method", "pfaffian"),
    ("--rows", "4", "--cols", "4", "--bc", "torus", "--method", "pfaffian", "--z1", "1e200"),
    ("--rows", "4", "--cols", "4", "--z1", "1e200"),
    ("--rows", "4", "--cols", "4", "--z1", "1e200", "--method", "enumerate"),
    ("--rows", "4", "--cols", "4", "--z1", "nan"),
    ("--rows", "4", "--cols", "4", "--z1", "nan", "--method", "enumerate"),
    ("--rows", "-2", "--cols", "4", "--method", "enumerate"),
    # counts below the normal float range of grids that have a matching
    ("--rows", "3", "--cols", "4", "--z2", "1e-14", "--method", "pfaffian"),
    ("--bc", "torus", "--rows", "2", "--cols", "3", "--z2", "1e13"),
    # 9 z1^2 z2^8 = 9e-296, whose partial counts fall below the normal range:
    # enumerate printed 4.0000000000000011e-296
    *(("--rows", rows, "--cols", cols, "--z1", z1, "--z2", z2, "--method", method)
      for rows, cols, z1, z2 in (("4", "5", "1e-200", "1e13"), ("5", "4", "1e13", "1e-200"))
      for method in ("product", "pfaffian", "enumerate")),
])
def test_dimers_refusals(capsys, argv):
    _refused(*_run(capsys, "dimers", *argv))


@pytest.mark.parametrize("rows,cols", [("24", "24"), ("7000000", "2")])
def test_dimers_enumerate_past_the_work_ceiling_exit_code(capsys, rows, cols):
    # 24 x 24 would run the profile DP for days, and a 7e6-row strip pays a
    # fixed cost per row for minutes; both are refused up front
    start = time.perf_counter()
    _refused(*_run(capsys, "dimers", "--method", "enumerate", "--rows", rows, "--cols", cols),
             want_code=3)
    assert time.perf_counter() - start < 1.0


def test_dimers_product_past_its_factor_ceiling_exit_code(capsys):
    # 1e5 x 2e5 terms: numpy raised a MemoryError with a traceback
    start = time.perf_counter()
    _refused(*_run(capsys, "dimers", "--rows", "200000", "--cols", "200000"), want_code=3)
    assert time.perf_counter() - start < 1.0


def test_dimers_product_of_a_grid_without_matchings_is_zero(capsys):
    # 2 x 3 with no z1 dimers: the midpoint cosine of the odd side is 0
    for method in ("product", "pfaffian", "enumerate"):
        code, out, err = _run(capsys, "dimers", "--rows", "2", "--cols", "3", "--z1", "0",
                              "--method", method)
        assert code == 0, err
        assert json.loads(out)["count"] == 0


def test_dimers_enumerate_along_the_shorter_side(capsys):
    for rows, cols in (("2", "40"), ("40", "2")):
        code, out, err = _run(capsys, "dimers", "--rows", rows, "--cols", cols,
                              "--method", "enumerate")
        assert code == 0, err
        assert json.loads(out)["count"] == 165580141


_VALUES = [0.0, 1e-300, 1e-8, 0.3, K_CRIT, 2.0, 80.0, 400.0, 1e308]
_EXTREMES = [1e308, -1e308, math.nan, math.inf, -math.inf]
# half the draws come from the extremes, where the defects live
_REALS = st.one_of(st.sampled_from(_EXTREMES),
                   st.sampled_from([s * v for v in _VALUES for s in (1.0, -1.0)]))
_SIDES = st.integers(-1, 6)


def _no_constant(name):
    raise ValueError(f"non-finite {name} in JSON output")


@st.composite
def _argv(draw):
    """One `ising` invocation; values go in --flag=value form so that a
    negative or non-finite value reaches the command instead of argparse."""
    def flag(name, strategy):
        return f"--{name}={draw(strategy)}"

    sub = draw(st.sampled_from(("z", "free-energy", "dimers", "critical", "compare",
                                "sweep")))
    argv = [sub]
    if sub in ("z", "compare"):
        argv += [flag("rows", _SIDES), flag("cols", _SIDES), flag("kh", _REALS),
                 flag("kv", _REALS), flag("bc", st.sampled_from(("free", "torus")))]
        if sub == "z":
            argv.append(flag("method", st.sampled_from(
                ("oracle", "transfer", "kaufman", "pfaffian", "kacward"))))
            if draw(st.booleans()):
                argv.append(flag("kd", _REALS))
    elif sub == "free-energy":
        argv += [flag("method", st.sampled_from(("onsager", "fermionic", "dirac",
                                                 "triangular"))),
                 flag("k", _REALS), flag("points", st.sampled_from((-1, 15, 16, 4096, 4097)))]
        # a method refuses a coupling it does not read, so each is drawn on
        # some draws only
        argv += [flag(name, _REALS) for name in ("k2", "k3") if draw(st.booleans())]
    elif sub == "dimers":
        argv += [flag("rows", _SIDES), flag("cols", _SIDES), flag("z1", _REALS),
                 flag("z2", _REALS), flag("bc", st.sampled_from(("free", "torus")))]
        if draw(st.booleans()):
            argv.append(flag("method", st.sampled_from(("product", "pfaffian", "enumerate"))))
    elif sub == "sweep":
        argv += [flag("k-from", _REALS), flag("k-to", _REALS),
                 flag("steps", st.sampled_from((-1, 0, 1, 3))),
                 flag("points", st.sampled_from((15, 16, 4096, 4097)))]
    if sub != "sweep":
        argv.append(flag("format", st.sampled_from(("json", "csv"))))
    return argv


@given(_argv())
@settings(derandomize=True, deadline=None, max_examples=200,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_fuzz_run_exits_typed_and_prints_finite(capsys, argv):
    code, out, err = _run(capsys, *argv)
    assert code in (0, 1, 2, 3), argv
    assert "Traceback" not in err, argv
    if code:
        assert out == "", argv
    elif "--format=json" in argv:
        json.loads(out, parse_constant=_no_constant)
    else:
        fields = [f.lower() for line in out.splitlines() for f in line.split(",")]
        assert not {"nan", "inf", "-inf"} & set(fields), (argv, out)
