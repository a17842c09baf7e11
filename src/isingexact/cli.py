"""Command-line frontend.

Subcommands: z, free-energy, dimers, critical, compare, sweep.  Data goes
to stdout (JSON object or headered CSV), diagnostics to stderr.  Exit
codes: 0 success, 1 numerical-domain failure (e.g. a vanishing Pfaffian or
a coupling outside a formula's domain), 2 bad flags, 3 problem size beyond
an exact method's hard limit.

All floats are printed with 17 significant digits so identical invocations
produce byte-identical, round-trippable output.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys

import numpy as np

from . import (
    CapacityError,
    DomainError,
    K_CRIT,
    LatticeSpec,
    MatchingWeights,
    MethodResult,
    ReducedCouplings,
    QuadratureSpec,
    build_lattice_graph,
    count_matchings_dp,
    critical_point_square,
    dimer_count_torus,
    dirac_free_energy,
    enumerate_partition_graph,
    fermionic_free_energy,
    internal_energy,
    ising_pfaffian_torus,
    kacward_log_z,
    kaufman_partition,
    log_z_torus,
    onsager_free_energy,
    specific_heat,
    triangular_free_energy,
)
from .pfaffian import dimer_count_free as dimer_count_free_pf
from .spectral import dimer_count_free as dimer_count_free_product

# Torus-only routes as fn(rows, cols, kh, kv).  Kaufman's transfer direction
# runs along the columns: (k_t, k_s) = (kv, kh).  Each entry looks its
# function up at call time, so a patched module attribute takes effect.
_TORUS_METHODS = {
    "transfer": lambda rows, cols, kh, kv: log_z_torus(rows, cols, kh, kv),
    "kaufman": lambda rows, cols, kh, kv: kaufman_partition(rows, cols, kv, kh),
    "pfaffian": lambda rows, cols, kh, kv: ising_pfaffian_torus(rows, cols, kh, kv),
    "kacward": lambda rows, cols, kh, kv: kacward_log_z(rows, cols, kh, kv),
}
_Z_METHODS = ("oracle",) + tuple(_TORUS_METHODS)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _json_value(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, dict):
        return _json_object(v)
    if isinstance(v, (list, tuple)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    raise TypeError(f"unserializable value {v!r}")


def _json_object(d: dict) -> str:
    items = ", ".join(f"{json.dumps(k)}: {_json_value(v)}" for k, v in d.items())
    return "{" + items + "}"


def _emit(d: dict, fmt: str) -> None:
    if fmt == "json":
        print(_json_object(d))
    else:
        flat = {k: v for k, v in d.items() if not isinstance(v, dict)}
        for k, v in d.items():
            if isinstance(v, dict):
                flat.update({f"{k}.{kk}": vv for kk, vv in v.items()})
        print(",".join(flat.keys()))
        print(",".join(_fmt(v) for v in flat.values()))


def _compute_log_z(method: str, rows: int, cols: int, kh: float, kv: float,
                   kd, bc: str) -> MethodResult:
    params = {"rows": rows, "cols": cols, "kh": kh, "kv": kv, "bc": bc}
    if kd is not None:
        params["kd"] = kd
    if method == "oracle":
        geometry = "triangular" if kd is not None else "square"
        spec = LatticeSpec(rows, cols, geometry=geometry, boundary=bc)
        g = build_lattice_graph(spec, ReducedCouplings(k_h=kh, k_v=kv, k_d=kd))
        return MethodResult(enumerate_partition_graph(g), "oracle", params)
    if kd is not None:
        raise DomainError(f"method {method!r} has no diagonal-coupling form")
    if bc != "torus":
        raise DomainError(f"method {method!r} is torus-only")
    if method not in _TORUS_METHODS:
        raise DomainError(f"unknown method {method!r}")
    return MethodResult(_TORUS_METHODS[method](rows, cols, kh, kv), method, params)


def _cmd_z(args) -> int:
    res = _compute_log_z(args.method, args.rows, args.cols,
                         args.kh, args.kv, args.kd, args.bc)
    _emit({"method": res.method, "log_z": res.log_z, "params": res.params},
          args.format)
    return 0


def _cmd_free_energy(args) -> int:
    q = QuadratureSpec(points_per_axis=args.points)
    params = {"k": args.k, "points_per_axis": args.points}
    if args.method == "onsager":
        k2 = args.k2 if args.k2 is not None else args.k
        params["k2"] = k2
        f = onsager_free_energy(args.k, k2, q)
    elif args.method == "fermionic":
        f = fermionic_free_energy(args.k, q)
    elif args.method == "dirac":
        f = dirac_free_energy(args.k, q)
    else:  # triangular
        k2 = args.k2 if args.k2 is not None else args.k
        k3 = args.k3 if args.k3 is not None else args.k
        params.update(k2=k2, k3=k3)
        f = triangular_free_energy(args.k, k2, k3, q)
    _emit({"method": args.method, "f": f, "params": params}, args.format)
    return 0


def _cmd_dimers(args) -> int:
    w = MatchingWeights(z1=args.z1, z2=args.z2)
    m, n = args.rows, args.cols
    LatticeSpec(m, n, boundary=args.bc)   # rejects sides < 1
    method = args.method or ("pfaffian" if args.bc == "torus" else "product")
    if args.bc == "torus":
        if method != "pfaffian":
            raise DomainError("torus dimer counts are Pfaffian-only")
        count = dimer_count_torus(m, n, w)
    elif method == "product":
        count = dimer_count_free_product(m, n, w)
    elif method == "pfaffian":
        count = dimer_count_free_pf(m, n, w)
    else:  # enumerate
        count = count_matchings_dp(m, n, w)
    _emit({"method": method, "count": float(count),
           "params": {"rows": m, "cols": n, "z1": args.z1, "z2": args.z2,
                      "bc": args.bc}}, args.format)
    return 0


def _cmd_critical(args) -> int:
    kc = critical_point_square()
    _emit({"k_crit": kc, "tanh_k_crit": math.tanh(kc),
           "sinh_sq_2k_crit": math.sinh(2.0 * kc) ** 2}, args.format)
    return 0


def _cmd_compare(args) -> int:
    values = {}
    for method in _Z_METHODS:
        try:
            res = _compute_log_z(method, args.rows, args.cols,
                                 args.kh, args.kv, None, args.bc)
        except (DomainError, CapacityError) as exc:
            print(f"compare: skipping {method}: {exc}", file=sys.stderr)
            continue
        values[method] = res.log_z
    if len(values) < 2:
        raise DomainError("fewer than two methods applicable; nothing to compare")
    max_delta = max(abs(a - b) for a, b in itertools.combinations(values.values(), 2))
    _emit({"log_z": values, "max_pairwise_delta": max_delta,
           "params": {"rows": args.rows, "cols": args.cols,
                      "kh": args.kh, "kv": args.kv, "bc": args.bc}},
          args.format)
    return 0


def _cmd_sweep(args) -> int:
    if args.steps < 1:
        raise DomainError("steps must be >= 1")
    q = QuadratureSpec(points_per_axis=args.points)
    if args.steps == 1:
        ks = [args.k_from]
    else:
        step = (args.k_to - args.k_from) / (args.steps - 1)
        ks = [args.k_from + i * step for i in range(args.steps)]
    # every row is computed before any output, so a failing row leaves
    # stdout empty
    rows = [(k, onsager_free_energy(k, k, q), internal_energy(k, q=q),
             specific_heat(k, q=q)) for k in ks]
    print("k,minus_beta_f,internal_energy,specific_heat")
    for row in rows:
        print(",".join(_fmt(v) for v in row))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ising",
        description="Exact Ising-model partition functions, dimer counts, "
                    "and thermodynamic-limit observables.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_format(p, default="json"):
        p.add_argument("--format", choices=("json", "csv"), default=default)

    p = sub.add_parser("z", help="log partition function of one finite lattice")
    p.add_argument("--method", choices=_Z_METHODS, required=True)
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--kh", type=float, required=True)
    p.add_argument("--kv", type=float, required=True)
    p.add_argument("--kd", type=float, default=None,
                   help="diagonal coupling (triangular lattice, oracle only)")
    p.add_argument("--bc", choices=("free", "torus"), default="torus")
    add_format(p)
    p.set_defaults(func=_cmd_z)

    p = sub.add_parser("free-energy", help="thermodynamic-limit -beta f per site")
    p.add_argument("--method", choices=("onsager", "fermionic", "dirac", "triangular"),
                   required=True)
    p.add_argument("--k", type=float, required=True)
    p.add_argument("--k2", type=float, default=None)
    p.add_argument("--k3", type=float, default=None)
    p.add_argument("--points", type=int, default=256,
                   help="midpoint-rule nodes on the one angle left after the "
                        "closed-form inner integral")
    add_format(p)
    p.set_defaults(func=_cmd_free_energy)

    p = sub.add_parser("dimers", help="weighted perfect-matching count of a grid")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--z1", type=float, default=1.0)
    p.add_argument("--z2", type=float, default=1.0)
    p.add_argument("--method", choices=("product", "pfaffian", "enumerate"),
                   help="default: product on the free grid, pfaffian on the torus")
    p.add_argument("--bc", choices=("free", "torus"), default="free")
    add_format(p)
    p.set_defaults(func=_cmd_dimers)

    p = sub.add_parser("critical", help="square-lattice critical coupling")
    add_format(p)
    p.set_defaults(func=_cmd_critical)

    p = sub.add_parser("compare",
                       help="run every applicable method on one lattice and "
                            "report the max pairwise log Z deviation")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--kh", type=float, required=True)
    p.add_argument("--kv", type=float, required=True)
    p.add_argument("--bc", choices=("free", "torus"), default="torus")
    add_format(p)
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("sweep",
                       help="CSV of -beta f, u, c over evenly spaced couplings, "
                            "one row per coupling in input order")
    p.add_argument("--k-from", type=float, required=True, dest="k_from")
    p.add_argument("--k-to", type=float, required=True, dest="k_to")
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--points", type=int, default=256,
                   help="midpoint-rule nodes of each free-energy integral")
    p.set_defaults(func=_cmd_sweep)

    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        # every route refuses a value past the float range itself, so numpy's
        # floating-point warnings on the way there would only be noise
        with np.errstate(all="ignore"):
            return args.func(args)
    except CapacityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
