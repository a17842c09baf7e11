"""The benchmark's three workloads: seeded inputs, timed tasks and checks.

A task's `run(tracer)` is the timed request; its `check(result)` is untimed
and returns groups of values that must agree pairwise to `GATE` (relative).
The seed fixes every coupling, weight and CLI argument; which shapes and
requests a pass contains never depends on it, so runs with different seeds
do the same amount of work.

Functions are looked up on the layer modules at call time, so the tracer's
wrappers see every call.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from spans import SPAN_MARKER, layer_modules

GATE = 1e-8
HERE = Path(__file__).resolve().parent
WORKLOADS = ("crossval", "large_lattice", "cli")
SWEEP_STEPS = 51

L = layer_modules()
core = importlib.import_module("isingexact.core")


@dataclass
class Task:
    name: str
    kind: str
    run: Callable
    check: Callable = lambda result: result


@dataclass
class Workload:
    name: str
    tasks: list
    dos_cache: dict | None = None   # the oracle's cache, where the tasks use it


def _couplings(rng, lo=0.2, hi=0.9) -> tuple:
    kh = float(rng.uniform(lo, hi))
    kv = kh if rng.uniform() < 0.5 else float(rng.uniform(lo, hi))
    return kh, kv


def _torus_routes(m, n, kh, kv, oracle=True, transfer=True, pfaffian=True):
    """ln Z of the m x n torus by every applicable independent route."""
    routes = []
    if oracle:
        spec = core.LatticeSpec(m, n)
        graph = L["oracle"].build_lattice_graph(spec, core.ReducedCouplings(k_h=kh, k_v=kv))
        routes.append(L["oracle"].enumerate_partition_graph(graph))
    if transfer:
        routes.append(L["transfer2d"].log_z_torus(m, n, kh, kv))
    routes.append(L["spectral"].kaufman_partition(m, n, kv, kh))
    if pfaffian:
        routes.append(L["pfaffian"].ising_pfaffian_torus(m, n, kh, kv))
    routes.append(L["spectral"].kacward_log_z(m, n, kh, kv))
    return [routes]


# ---------------------------------------------------------------------------
# crossval: the criterion-1 family plus the 1D triple and u by two routes
# ---------------------------------------------------------------------------

def crossval(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    iso = (float(rng.uniform(0.15, 0.35)), core.K_CRIT, float(rng.uniform(0.6, 1.0)))
    couplings = [(k, k) for k in iso] + list(itertools.combinations(iso, 2))
    shapes = [(m, n) for m in range(2, 5) for n in range(m, 13) if m * n <= 24]
    tasks = [Task(f"torus {m}x{n} kh={kh:.6f} kv={kv:.6f}", "torus",
                  lambda m=m, n=n, kh=kh, kv=kv, tracer=None: _torus_routes(m, n, kh, kv))
             for m, n in shapes for kh, kv in couplings]

    for n in range(2, 21):
        for _ in range(4):
            k = float(rng.uniform(0.05, 1.5))
            h = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.1, 0.8))
            tasks.append(Task(f"chain n={n} k={k:.6f} h={h:.6f}", "chain",
                              lambda n=n, k=k, h=h, tracer=None: _chain_routes(n, k, h)))

    # the finite-difference step is explicit: the default 1e-4 leaves a
    # truncation error of ~2e-8 relative, above the gate
    for lo, hi in ((0.2, 0.35), (0.2, 0.35), (0.55, 0.9), (0.55, 0.9)):
        k = float(rng.uniform(lo, hi))
        tasks.append(Task(f"energy k={k:.6f}", "energy",
                          lambda k=k, tracer=None: [[
                              L["startriangle"].square_lattice_energy(k, k),
                              L["thermo"].internal_energy(k, dk=1e-5)]]))
    return Workload("crossval", tasks, dos_cache=L["oracle"]._DOS_CACHE)


def _chain_routes(n, k, h):
    oracle = L["oracle"]
    chain = L["chain1d"]
    closed_graph = oracle.build_lattice_graph(
        core.LatticeSpec(1, n, geometry="chain", boundary="torus"),
        core.ReducedCouplings(k_h=k, k_v=0.0))
    open_graph = oracle.build_lattice_graph(
        core.LatticeSpec(1, n, geometry="chain", boundary="free"),
        core.ReducedCouplings(k_h=k, k_v=0.0))
    closed = chain.ChainParams(n_spins=n, k=k, h=h, closed=True)
    opened = chain.ChainParams(n_spins=n, k=k, h=h, closed=False)
    return [[oracle.enumerate_partition_graph(closed_graph, h=h),
             chain.transfer_closed(closed), chain.induction_closed(closed)],
            [oracle.enumerate_partition_graph(open_graph, h=h),
             chain.recursive_open(opened)]]


# ---------------------------------------------------------------------------
# large_lattice: square tori past enumeration, no oracle
# ---------------------------------------------------------------------------

# (rows, width): width 12 is a 4096-state transfer, so it runs with few rows
TRANSFER_SHAPES = ((8, 8), (12, 8), (9, 9), (6, 10), (10, 10), (4, 11), (2, 12), (3, 12))
PFAFFIAN_SIDES = (8, 10, 12, 14, 16)
FREE_DIMERS = ((16, 16), (24, 24), (32, 32), (32, 40))
TORUS_DIMERS = ((16, 24), (20, 32))
SPECTRAL_SIDES = (16, 32, 64, 128, 256, 512, 1024, 2048)


def large_lattice(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    tasks = []
    for m, n in TRANSFER_SHAPES:
        kh, kv = _couplings(rng)
        tasks.append(Task(f"transfer {m}x{n} kh={kh:.6f} kv={kv:.6f}", "transfer",
                          lambda m=m, n=n, kh=kh, kv=kv, tracer=None:
                          _torus_routes(m, n, kh, kv, oracle=False)))
    for side in PFAFFIAN_SIDES:
        kh, kv = _couplings(rng)
        tasks.append(Task(f"pfaffian {side}x{side} kh={kh:.6f} kv={kv:.6f}", "pfaffian",
                          lambda s=side, kh=kh, kv=kv, tracer=None:
                          _torus_routes(s, s, kh, kv, oracle=False, transfer=False)))
    for m, n in FREE_DIMERS:
        w = L["oracle"].MatchingWeights(*rng.uniform(0.6, 1.2, size=2))
        tasks.append(Task(f"free dimers {m}x{n} z={w.z1:.6f},{w.z2:.6f}", "dimers",
                          lambda m=m, n=n, w=w, tracer=None: [[
                              L["pfaffian"].dimer_count_free(m, n, w),
                              L["spectral"].dimer_count_free(m, n, w)]]))
    for m, n in TORUS_DIMERS:
        z1, z2 = rng.uniform(0.6, 1.2, size=2)
        w, wt = L["oracle"].MatchingWeights(z1, z2), L["oracle"].MatchingWeights(z2, z1)
        # the transposed torus with swapped weights counts the same matchings
        tasks.append(Task(f"torus dimers {m}x{n} z={z1:.6f},{z2:.6f}", "dimers",
                          lambda m=m, n=n, w=w, wt=wt, tracer=None: [[
                              L["pfaffian"].dimer_count_torus(m, n, w),
                              L["pfaffian"].dimer_count_torus(n, m, wt)]]))
    for m, n in itertools.combinations_with_replacement(SPECTRAL_SIDES, 2):
        for _ in range(3):
            kh, kv = _couplings(rng)
            tasks.append(Task(f"spectral {m}x{n} kh={kh:.6f} kv={kv:.6f}", "spectral",
                              lambda m=m, n=n, kh=kh, kv=kv, tracer=None: [[
                                  L["spectral"].kaufman_partition(m, n, kv, kh),
                                  L["spectral"].kacward_log_z(m, n, kh, kv)]]))
    return Workload("large_lattice", tasks)


# ---------------------------------------------------------------------------
# cli: one fresh interpreter per request
# ---------------------------------------------------------------------------

def _cli_request(args, env):
    def run(tracer=None):
        if tracer is None:
            cmd = [sys.executable, "-m", "isingexact.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "tracecli.py"), *args]
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"ising {' '.join(args)} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-300:]}")
        if tracer is not None:
            line = proc.stderr.rstrip("\n").rsplit("\n", 1)[-1]
            if not line.startswith(SPAN_MARKER):
                raise RuntimeError("traced CLI printed no spans")
            tracer.groups.append(json.loads(line[len(SPAN_MARKER):]))
        return proc.stdout
    return run


def _check_critical(out):
    doc = json.loads(out)
    return [[doc["k_crit"], core.K_CRIT], [doc["tanh_k_crit"], math.sqrt(2.0) - 1.0],
            [doc["sinh_sq_2k_crit"], 1.0]]


def _check_compare(out):
    doc = json.loads(out)
    methods = ("oracle", "transfer", "kaufman", "pfaffian", "kacward")
    missing = [m for m in methods if m not in doc["log_z"]]
    if missing:
        raise RuntimeError(f"compare skipped {missing}")
    return [[doc["log_z"][m] for m in methods]]


@functools.lru_cache
def _sweep_reference(k_from, k_to, steps):
    thermo = L["thermo"]
    q = thermo.QuadratureSpec(points_per_axis=256)
    step = (k_to - k_from) / (steps - 1)
    rows = []
    for i in range(steps):
        k = k_from + i * step
        rows.append((k, thermo.onsager_free_energy(k, k, q),
                     thermo.internal_energy(k, q=q), thermo.specific_heat(k, q=q)))
    return rows


def _check_sweep(k_from, k_to, steps):
    def check(out):
        lines = out.strip().splitlines()
        if lines[0] != "k,minus_beta_f,internal_energy,specific_heat":
            raise RuntimeError(f"unexpected sweep header {lines[0]!r}")
        rows = [tuple(float(x) for x in line.split(",")) for line in lines[1:]]
        reference = _sweep_reference(k_from, k_to, steps)
        if len(rows) != len(reference):
            raise RuntimeError(f"sweep printed {len(rows)} rows, expected {steps}")
        return [[got, want] for row, ref in zip(rows, reference)
                for got, want in zip(row, ref)]
    return check


@functools.lru_cache
def _free_energy_reference(k, points):
    thermo = L["thermo"]
    return thermo.onsager_free_energy(k, k, thermo.QuadratureSpec(points_per_axis=points))


def _check_free_energy(k, points):
    return lambda out: [[json.loads(out)["f"], _free_energy_reference(k, points)]]


def cli(seed: int) -> Workload:
    env = cli_env()
    rng = np.random.default_rng(seed)
    kh, kv = (float(x) for x in rng.uniform(0.2, 0.9, size=2))
    k_from, k_to = float(rng.uniform(0.2, 0.3)), float(rng.uniform(0.6, 0.8))
    k_free = float(rng.uniform(0.2, 0.9))
    requests = [
        ("critical", ["critical"], _check_critical),
        ("compare", ["compare", "--rows", "4", "--cols", "4",
                     "--kh", repr(kh), "--kv", repr(kv)], _check_compare),
        ("sweep", ["sweep", "--k-from", repr(k_from), "--k-to", repr(k_to),
                   "--steps", str(SWEEP_STEPS)], _check_sweep(k_from, k_to, SWEEP_STEPS)),
        ("free_energy", ["free-energy", "--method", "onsager", "--k", repr(k_free),
                         "--points", "2048"], _check_free_energy(k_free, 2048)),
    ]
    tasks = [Task(f"ising {' '.join(args)}", kind, _cli_request(args, env), check)
             for kind, args, check in requests]
    return Workload("cli", tasks)


def build(name: str, seed: int) -> Workload:
    return {"crossval": crossval, "large_lattice": large_lattice, "cli": cli}[name](seed)


def cli_env() -> dict:
    """Environment of every CLI subprocess: the checkout's sources first."""
    env = dict(os.environ)
    src = str(HERE.parent / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env
