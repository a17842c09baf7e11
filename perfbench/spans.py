"""Layer spans recorded from outside the isingexact package.

`Tracer.install()` replaces every public function of the layer modules with
a wrapper that records one span per call: layer, function, start, end, the
span that caused it (per thread), the current request id and a few work
sizes read from the call's arguments.  The package itself is not changed.

Layer modules are resolved through `importlib`, never by attribute access
on the package: `isingexact.pfaffian` is the re-exported *function*, not the
module.  A function is replaced in every `isingexact*` namespace that holds
it (the re-exports in `isingexact` and the names `isingexact.cli` imported),
so calls made through any of them are recorded.  Callers outside the
package must look functions up on the module at call time.

`layer_metrics()` turns span groups (one group per process) into the
per-layer metrics; a span's self time is its duration minus the part of it
that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

SPAN_MARKER = "PERFBENCH_SPANS "   # prefixes the span line a traced CLI prints

LAYERS = ("oracle", "transfer2d", "pfaffian", "spectral", "thermo",
          "startriangle", "chain1d", "cli")

_QUADRATURES = ("onsager_free_energy", "fermionic_free_energy",
                "dirac_free_energy", "triangular_free_energy")


def _work_size(layer: str, name: str, args: dict) -> dict:
    """Work done by one call, computed from its bound arguments."""
    if layer == "oracle" and name == "enumerate_partition_graph":
        return {"sites": args["g"].num_sites}
    if layer == "transfer2d" and name == "partition_torus_transfer":
        return {"rows": args["m"], "dim": args["t"].dim}
    if layer == "pfaffian" and name == "pfaffian":
        return {"dim": len(args["a"])}
    if layer == "spectral" and name == "kacward_products":
        return {"factors": args["m"] * args["n"]}
    if layer == "spectral" and name == "gamma_spectrum":
        return {"factors": 2 * args["n"]}
    if layer == "thermo" and name in _QUADRATURES:
        return {"nodes": args["q"].points_per_axis ** 2}
    return {}


def layer_modules() -> dict:
    return {layer: importlib.import_module(f"isingexact.{layer}") for layer in LAYERS}


def public_functions(module) -> list:
    """(name, function) for every public function defined in `module`."""
    return [(name, fn) for name, fn in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(fn)
            and fn.__module__ == module.__name__]


class Tracer:
    """Records spans while installed; `install()`/`uninstall()` or `with`."""

    def __init__(self):
        self.spans = []          # dicts, appended when a call returns
        self.groups = []         # span lists received from traced subprocesses
        self.request = None      # set by the caller before each request
        self._local = threading.local()
        self._ids = itertools.count()
        self._patched = []       # (namespace, attribute, original)
        self._main = threading.main_thread().ident

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        namespaces = [m for n, m in list(sys.modules.items())
                      if n == "isingexact" or n.startswith("isingexact.")]
        oracle = importlib.import_module("isingexact.oracle")
        for layer, module in layer_modules().items():
            for name, fn in public_functions(module):
                wrapper = self._wrap(layer, name, fn, oracle)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapper)
                            self._patched.append((ns, attr, fn))

    def uninstall(self) -> None:
        while self._patched:
            ns, attr, fn = self._patched.pop()
            setattr(ns, attr, fn)

    def wrapped(self) -> set:
        """(layer, function) of every function replaced by install()."""
        return {(fn.__module__.rsplit(".", 1)[1], fn.__name__)
                for _, _, fn in self._patched}

    def _wrap(self, layer, name, fn, oracle):
        signature = inspect.signature(fn)
        probe_dos = layer == "oracle" and name == "enumerate_partition_graph"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            info = _work_size(layer, name, bound.arguments)
            stack = getattr(tracer._local, "stack", None)
            if stack is None:
                stack = tracer._local.stack = []
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            dos_before = len(oracle._DOS_CACHE) if probe_dos else 0
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if probe_dos:
                    info["dos_miss"] = len(oracle._DOS_CACHE) > dos_before
                ident = threading.get_ident()
                tracer.spans.append({
                    "id": sid, "parent": parent, "layer": layer, "name": name,
                    "t0": t0, "t1": t1, "request": tracer.request,
                    "worker": ident != tracer._main, "info": info})
        return wrapper


def self_times(spans: list) -> list:
    """Duration of each span minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["t0"], s["t1"]))
    out = []
    for s in spans:
        covered, end = 0.0, s["t0"]
        for c0, c1 in sorted(children.get(s["id"], ())):
            c0, c1 = max(c0, end), min(c1, s["t1"])
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append(s["t1"] - s["t0"] - covered)
    return out


def pfaffian_work(dim: int) -> tuple:
    """(flops, bytes of np.outer temporaries) of one Parlett-Reid Pfaffian.

    Step k updates the trailing (dim-k-2)^2 block with two outer products
    and their difference: 4 flops and two 8-byte temporaries per entry."""
    cells = sum((dim - k - 2) ** 2 for k in range(0, dim - 2, 2))
    return 4 * cells, 16 * cells


def transfer_flops(rows: int, dim: int) -> int:
    """Dense matmuls of ln Tr T^m plus the closing trace contraction."""
    if rows == 1:
        return dim
    return max(rows - 2, 0) * 2 * dim ** 3 + 2 * dim ** 2


def layer_metrics(groups: list, passes: int, sweep_workers: int) -> dict:
    """Per-layer metrics (per pass) from span groups, one group per process.

    `sweep_workers` is the worker count of the CLI sweep's thread pool."""
    total = defaultdict(float)
    calls = defaultdict(int)
    max_dim = 0
    sweep_busy = sweep_capacity = 0.0
    for spans in groups:
        for s, own in zip(spans, self_times(spans)):
            layer, name, info = s["layer"], s["name"], s["info"]
            total[f"{layer}.busy_s"] += own
            total[f"{layer}.{name}.self_s"] += own
            calls[f"{layer}.{name}"] += 1
            if name == "enumerate_partition_graph":
                if info["dos_miss"]:
                    total["oracle.dos_miss"] += 1
                    total["oracle.states"] += 2 ** info["sites"]
                    total["oracle.miss_s"] += own
                else:
                    total["oracle.dos_hit"] += 1
            elif name == "partition_torus_transfer":
                total["transfer2d.flops"] += transfer_flops(info["rows"], info["dim"])
            elif layer == "pfaffian" and name == "pfaffian":
                flops, temp = pfaffian_work(info["dim"])
                total["pfaffian.flops"] += flops
                total["pfaffian.temp_bytes"] += temp
                max_dim = max(max_dim, info["dim"])
            total[f"{layer}.factors"] += info.get("factors", 0)
            total[f"{layer}.nodes"] += info.get("nodes", 0)
        # the sweep's pool threads run thermo calls as root spans; the sweep
        # wall is the cli.run span of the same process
        if any(s["worker"] for s in spans):
            wall = sum(s["t1"] - s["t0"] for s in spans
                       if s["layer"] == "cli" and s["name"] == "run")
            sweep_busy += sum(s["t1"] - s["t0"] for s in spans
                              if s["worker"] and s["parent"] is None)
            sweep_capacity += wall * sweep_workers

    def per_pass(key):
        return total[key] / passes

    def layer_calls(layer):
        return sum(c for k, c in calls.items() if k.startswith(layer + ".")) / passes

    def self_s(layer, *names):
        return sum(per_pass(f"{layer}.{n}.self_s") for n in names)

    def rate(work, seconds):
        return work / seconds if seconds > 0 else 0.0

    hits, misses = per_pass("oracle.dos_hit"), per_pass("oracle.dos_miss")
    elim = self_s("pfaffian", "pfaffian")
    power = self_s("transfer2d", "partition_torus_transfer")
    return {
        "oracle.calls": layer_calls("oracle"),
        "oracle.busy_s": per_pass("oracle.busy_s"),
        "oracle.dos_hit": hits,
        "oracle.dos_miss": misses,
        "oracle.dos_hit_ratio": rate(hits, hits + misses),
        "oracle.states": per_pass("oracle.states"),
        "oracle.states_per_s": rate(total["oracle.states"], total["oracle.miss_s"]),
        "transfer2d.build_s": self_s("transfer2d", "build_transfer"),
        "transfer2d.power_s": power,
        "transfer2d.flops": per_pass("transfer2d.flops"),
        "transfer2d.gflops_per_s": rate(per_pass("transfer2d.flops"), power) / 1e9,
        "pfaffian.calls": calls["pfaffian.pfaffian"] / passes,
        "pfaffian.elim_s": elim,
        "pfaffian.other_s": per_pass("pfaffian.busy_s") - elim,
        "pfaffian.flops": per_pass("pfaffian.flops"),
        "pfaffian.temp_bytes": per_pass("pfaffian.temp_bytes"),
        "pfaffian.max_dim": max_dim,
        "spectral.kaufman_s": self_s("spectral", "kaufman_partition", "gamma_spectrum"),
        "spectral.kacward_s": self_s("spectral", "kacward_log_z", "kacward_products"),
        "spectral.factors": per_pass("spectral.factors"),
        "thermo.calls": layer_calls("thermo"),
        "thermo.busy_s": per_pass("thermo.busy_s"),
        "thermo.nodes": per_pass("thermo.nodes"),
        "thermo.nodes_per_s": rate(total["thermo.nodes"], total["thermo.busy_s"]),
        "thermo.sweep_overlap": rate(sweep_busy, sweep_capacity),
        "startriangle.busy_s": per_pass("startriangle.busy_s"),
        "chain1d.busy_s": per_pass("chain1d.busy_s"),
    }
