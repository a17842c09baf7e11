"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Checks that every public layer function is wrapped and records a span on a
tiny input, that traced and untraced passes return bit-identical values,
that a wrong or failing route is counted instead of aborting the run, and
that the workloads match BENCHMARK.json (run.py checks the metric names
against it on every run).  Exits 1 on the first
failure.  Takes a few seconds.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys

import run

run.pin_threads()
sys.path.insert(0, str(run.SRC))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import LAYERS, Tracer, layer_metrics, self_times  # noqa: E402

L = workloads.L
core = workloads.core
Q16 = L["thermo"].QuadratureSpec(points_per_axis=16)
SPEC = core.LatticeSpec(2, 2)
K = core.ReducedCouplings(k_h=0.3, k_v=0.4)
SKEW = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _cli_main():
    argv = sys.argv
    sys.argv = ["ising", "critical"]
    try:
        L["cli"].main()
    except SystemExit as exc:
        return exc.code
    finally:
        sys.argv = argv


# one tiny call per public layer function, made through the module attribute
TINY = {
    ("oracle", "build_lattice_graph"): lambda: L["oracle"].build_lattice_graph(SPEC, K),
    ("oracle", "enumerate_partition_graph"): lambda: L["oracle"].enumerate_partition_graph(
        L["oracle"].WeightedGraph(2, ((0, 1, 0.3),))),
    ("oracle", "count_matchings"): lambda: L["oracle"].count_matchings(2, 2),
    ("oracle", "count_matchings_graph"): lambda: L["oracle"].count_matchings_graph(
        2, [(0, 1, 1.0)]),
    ("oracle", "count_matchings_dp"): lambda: L["oracle"].count_matchings_dp(2, 2),
    ("oracle", "hafnian"): lambda: L["oracle"].hafnian(np.ones((2, 2))),
    ("chain1d", "transfer_closed"): lambda: L["chain1d"].transfer_closed(
        L["chain1d"].ChainParams(3, 0.2, 0.1, True)),
    ("chain1d", "recursive_open"): lambda: L["chain1d"].recursive_open(
        L["chain1d"].ChainParams(3, 0.2, 0.1, False)),
    ("chain1d", "induction_closed"): lambda: L["chain1d"].induction_closed(
        L["chain1d"].ChainParams(3, 0.2, 0.1, True)),
    ("transfer2d", "build_transfer"): lambda: L["transfer2d"].build_transfer(2, 0.3, 0.4),
    ("transfer2d", "partition_torus_transfer"): lambda: L["transfer2d"].partition_torus_transfer(
        3, L["transfer2d"].build_transfer(2, 0.3, 0.4)),
    ("transfer2d", "log_z_torus"): lambda: L["transfer2d"].log_z_torus(2, 2, 0.3, 0.4),
    ("spectral", "gamma_spectrum"): lambda: L["spectral"].gamma_spectrum(2, 0.3, 0.4),
    ("spectral", "kaufman_partition"): lambda: L["spectral"].kaufman_partition(2, 2, 0.4, 0.3),
    ("spectral", "kacward_products"): lambda: L["spectral"].kacward_products(
        2, 2, 0.3, 0.4, L["spectral"].GridParity()),
    ("spectral", "kacward_log_z"): lambda: L["spectral"].kacward_log_z(2, 2, 0.3, 0.4),
    ("spectral", "dimer_count_free"): lambda: L["spectral"].dimer_count_free(2, 2),
    ("spectral", "triangular_log_z_per_site"): lambda: L["spectral"].triangular_log_z_per_site(
        2, 2, core.ReducedCouplings(k_h=0.3, k_v=0.4, k_d=0.2)),
    ("pfaffian", "pfaffian"): lambda: L["pfaffian"].pfaffian(SKEW),
    ("pfaffian", "pfaffian_value"): lambda: L["pfaffian"].pfaffian_value(SKEW),
    ("pfaffian", "build_dimer_matrix"): lambda: L["pfaffian"].build_dimer_matrix(
        core.LatticeSpec(2, 2, boundary="free"), L["oracle"].MatchingWeights()),
    ("pfaffian", "dimer_count_free"): lambda: L["pfaffian"].dimer_count_free(2, 2),
    ("pfaffian", "dimer_count_torus"): lambda: L["pfaffian"].dimer_count_torus(2, 2),
    ("pfaffian", "ising_torus_logdet"): lambda: L["pfaffian"].ising_torus_logdet(
        2, 2, 0.3, 0.4, 1.0, 1.0),
    ("pfaffian", "ising_pfaffian_torus"): lambda: L["pfaffian"].ising_pfaffian_torus(
        2, 2, 0.3, 0.4),
    ("thermo", "onsager_free_energy"): lambda: L["thermo"].onsager_free_energy(0.3, 0.4, Q16),
    ("thermo", "fermionic_free_energy"): lambda: L["thermo"].fermionic_free_energy(0.3, Q16),
    ("thermo", "dirac_free_energy"): lambda: L["thermo"].dirac_free_energy(0.3, Q16),
    ("thermo", "triangular_free_energy"): lambda: L["thermo"].triangular_free_energy(
        0.3, 0.4, 0.2, Q16),
    ("thermo", "critical_point_square"): lambda: L["thermo"].critical_point_square(),
    ("thermo", "internal_energy"): lambda: L["thermo"].internal_energy(0.3, q=Q16),
    ("thermo", "specific_heat"): lambda: L["thermo"].specific_heat(0.3, q=Q16),
    ("startriangle", "complete_elliptic"): lambda: L["startriangle"].complete_elliptic(0.5),
    ("startriangle", "elliptic_k_series"): lambda: L["startriangle"].elliptic_k_series(0.5),
    ("startriangle", "star_to_triangle"): lambda: L["startriangle"].star_to_triangle(
        0.5, 0.6, 0.7),
    ("startriangle", "modulus_k"): lambda: L["startriangle"].modulus_k(0.3, 0.4, 0.5),
    ("startriangle", "integral_a"): lambda: L["startriangle"].integral_a(0.3, 0.5),
    ("startriangle", "integral_b"): lambda: L["startriangle"].integral_b(0.3, 0.5),
    ("startriangle", "ab_coefficients"): lambda: L["startriangle"].ab_coefficients(0.5),
    ("startriangle", "correlation_f"): lambda: L["startriangle"].correlation_f(0.3, 0.5),
    ("startriangle", "b_near_critical"): lambda: L["startriangle"].b_near_critical(0.5),
    ("startriangle", "square_lattice_energy"): lambda: L["startriangle"].square_lattice_energy(
        0.3, 0.4),
    ("startriangle", "landen_descending"): lambda: L["startriangle"].landen_descending(0.5),
    ("cli", "run"): lambda: L["cli"].run(["critical"]),
    ("cli", "main"): _cli_main,
}


def test_every_wrapped_function_records_a_span():
    tracer = Tracer()
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        wrapped = tracer.wrapped()
        for call in TINY.values():
            call()
    assert wrapped == set(TINY), f"untested: {wrapped - set(TINY)}, stale: {set(TINY) - wrapped}"
    seen = {(s["layer"], s["name"]) for s in tracer.spans}
    assert seen == wrapped, f"no span from {wrapped - seen}"
    assert {layer for layer, _ in wrapped} == set(LAYERS)
    for s, own in zip(tracer.spans, self_times(tracer.spans)):
        assert 0.0 <= own <= s["t1"] - s["t0"]


def test_self_time_subtracts_the_union_of_children():
    def span(sid, parent, t0, t1):
        return {"id": sid, "parent": parent, "t0": t0, "t1": t1}
    spans = [span(0, None, 0.0, 10.0), span(1, 0, 1.0, 3.0), span(2, 0, 2.0, 5.0),
             span(3, 0, 7.0, 8.0), span(4, 3, 7.0, 7.5)]
    assert self_times(spans) == [5.0, 2.0, 3.0, 0.5, 0.5]


def test_namespaces_are_patched():
    package = sys.modules["isingexact"]
    original = L["pfaffian"].pfaffian
    with Tracer():
        assert L["pfaffian"].pfaffian is not original
        assert package.pfaffian is L["pfaffian"].pfaffian
        assert L["cli"].kaufman_partition is L["spectral"].kaufman_partition
        assert L["cli"].dimer_count_free_pf is L["pfaffian"].dimer_count_free
    assert L["pfaffian"].pfaffian is original and package.pfaffian is original


def _small(workload, keep):
    workload.tasks = [t for t in workload.tasks if keep(t)]
    return workload


def test_traced_and_untraced_are_bit_identical():
    cases = [
        _small(workloads.crossval(3), lambda t: t.kind != "torus" or t.name.startswith(
            ("torus 2x2 ", "torus 2x5 ", "torus 3x4 "))),
        _small(workloads.large_lattice(3), lambda t: t.name.startswith(
            ("transfer 8x8 ", "pfaffian 8x8 ", "free dimers 16x16 ", "spectral 16x"))),
        _small(workloads.cli(3), lambda t: t.kind in ("critical", "compare")),
    ]
    for workload in cases:
        plain = run.run_window(workload, passes=1)
        tracer = Tracer()
        with tracer:
            traced = run.run_window(workload, tracer=tracer, passes=1)
        assert [[a.result for a in p] for p in plain.passes] == \
            [[a.result for a in p] for p in traced.passes], f"{workload.name}: traced values differ"
        attempted, failures, digits = run.verify(workload, traced, workloads.GATE)
        assert not failures and attempted == len(workload.tasks), failures
        assert min(digits) >= 8
        metrics = layer_metrics([tracer.spans] + tracer.groups, 1, sweep_workers=2)
        if workload.name == "cli":
            assert tracer.groups and metrics["oracle.calls"] >= 1
        if workload.name == "crossval":
            assert metrics["oracle.dos_miss"] >= 1 and metrics["oracle.dos_hit"] >= 1


def test_wrong_value_counts_as_failure():
    workload = _small(workloads.crossval(5), lambda t: t.name.startswith("torus 2x3 "))
    spectral = L["spectral"]
    original = spectral.kaufman_partition
    calls = []

    def broken(*args, **kwargs):
        calls.append(args)
        if len(calls) == 1:
            raise ZeroDivisionError("deliberate")
        if len(calls) == 2:
            return float("nan")
        return original(*args, **kwargs) * (1.0 + 1e-6)

    spectral.kaufman_partition = broken
    try:
        window = run.run_window(workload, passes=1)
    finally:
        spectral.kaufman_partition = original
    attempted, failures, _ = run.verify(workload, window, workloads.GATE)
    assert attempted == len(workload.tasks) == 6
    assert len(failures) == attempted, failures


def test_workloads_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def main() -> int:
    tests = [(name, fn) for name, fn in globals().items()
             if name.startswith("test_") and callable(fn)]
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            print(f"FAIL {name}: {exc}")
            return 1
        print(f"ok   {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
