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
    LatticeSpec,
    MatchingWeights,
    MethodResult,
    ReducedCouplings,
    QuadratureSpec,
    SelfCheckError,
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

# The route tables.  Each entry looks its function up in this module at call
# time, so a patched module attribute takes effect.

# The z and compare routes as fn(spec, couplings), the oracle first.
# Kaufman's transfer direction runs along the columns: (k_t, k_s) = (kv, kh).
_LOG_Z = {
    "oracle": lambda s, c: enumerate_partition_graph(build_lattice_graph(s, c)),
    "transfer": lambda s, c: log_z_torus(s.rows, s.cols, c.k_h, c.k_v),
    "kaufman": lambda s, c: kaufman_partition(s.rows, s.cols, c.k_v, c.k_h),
    "pfaffian": lambda s, c: ising_pfaffian_torus(s.rows, s.cols, c.k_h, c.k_v),
    "kacward": lambda s, c: kacward_log_z(s.rows, s.cols, c.k_h, c.k_v),
}

# The free-energy routes: the couplings each reads besides --k, and
# fn(k, *those couplings, quadrature).
_FREE_ENERGY = {
    "onsager": (("k2",), lambda k, k2, q: onsager_free_energy(k, k2, q)),
    "fermionic": ((), lambda k, q: fermionic_free_energy(k, q)),
    "dirac": ((), lambda k, q: dirac_free_energy(k, q)),
    "triangular": (("k2", "k3"), lambda k, k2, k3, q: triangular_free_energy(k, k2, k3, q)),
}

# The dimer routes by boundary as fn(rows, cols, weights), the default first.
_DIMERS = {
    "free": {"product": lambda m, n, w: dimer_count_free_product(m, n, w),
             "pfaffian": lambda m, n, w: dimer_count_free_pf(m, n, w),
             "enumerate": lambda m, n, w: count_matchings_dp(m, n, w)},
    "torus": {"pfaffian": lambda m, n, w: dimer_count_torus(m, n, w)},
}


def _fmt(x) -> str:
    return format(x, ".17g") if isinstance(x, float) else str(x)


def _json_value(v) -> str:
    if isinstance(v, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json_value(x)}" for k, x in v.items()) + "}"
    return json.dumps(v) if isinstance(v, str) else _fmt(v)


def _emit(d: dict, fmt: str) -> None:
    if fmt == "json":
        print(_json_value(d))
    else:
        flat = {k: v for k, v in d.items() if not isinstance(v, dict)}
        flat.update({f"{k}.{kk}": vv for k, v in d.items() if isinstance(v, dict)
                     for kk, vv in v.items()})
        print(",".join(flat.keys()))
        print(",".join(_fmt(v) for v in flat.values()))


def _lattice(args, kd=None):
    """The spec, couplings and params of a z or compare invocation."""
    params = {"rows": args.rows, "cols": args.cols, "kh": args.kh, "kv": args.kv,
              "bc": args.bc}
    if kd is not None:
        params["kd"] = kd
    geometry = "square" if kd is None else "triangular"
    return (LatticeSpec(args.rows, args.cols, geometry=geometry, boundary=args.bc),
            ReducedCouplings(k_h=args.kh, k_v=args.kv, k_d=kd), params)


def _check_applies(method: str, spec: LatticeSpec) -> None:
    """Every route but the oracle needs the square lattice on the torus."""
    if method == "oracle":
        return
    if spec.geometry != "square":
        raise DomainError(f"method {method!r} has no diagonal-coupling form")
    if spec.boundary != "torus":
        raise DomainError(f"method {method!r} is torus-only")


def _log_z(method: str, spec: LatticeSpec, couplings: ReducedCouplings,
           params: dict) -> MethodResult:
    _check_applies(method, spec)
    return MethodResult(_LOG_Z[method](spec, couplings), method, params)


def _cmd_z(args) -> int:
    res = _log_z(args.method, *_lattice(args, args.kd))
    _emit({"method": res.method, "log_z": res.log_z, "params": res.params}, args.format)
    return 0


def _cmd_free_energy(args) -> int:
    reads, fn = _FREE_ENERGY[args.method]
    params = {"k": args.k, "points_per_axis": args.points}
    for name in ("k2", "k3"):
        value = getattr(args, name)
        if name in reads:
            params[name] = args.k if value is None else value
        elif value is not None:
            raise DomainError(f"method {args.method!r} does not read --{name}")
    f = fn(args.k, *(params[name] for name in reads),
           QuadratureSpec(points_per_axis=args.points))
    _emit({"method": args.method, "f": f, "params": params}, args.format)
    return 0


def _cmd_dimers(args) -> int:
    w = MatchingWeights(z1=args.z1, z2=args.z2)
    routes = _DIMERS[args.bc]
    method = args.method or next(iter(routes))
    if method not in routes:
        raise DomainError(f"{args.bc} dimer counts are {'/'.join(routes).title()}-only")
    count = routes[method](args.rows, args.cols, w)
    _emit({"method": method, "count": float(count),
           "params": {"rows": args.rows, "cols": args.cols, "z1": args.z1, "z2": args.z2,
                      "bc": args.bc}}, args.format)
    return 0


def _cmd_critical(args) -> int:
    kc = critical_point_square()
    _emit({"k_crit": kc, "tanh_k_crit": math.tanh(kc),
           "sinh_sq_2k_crit": math.sinh(2.0 * kc) ** 2}, args.format)
    return 0


def _cmd_compare(args) -> int:
    spec, couplings, params = _lattice(args)
    values = {}
    for method in _LOG_Z:
        # a route that does not apply, is past its capacity or refuses the
        # input is skipped; a route whose own check failed is an error
        try:
            values[method] = _log_z(method, spec, couplings, params).log_z
        except SelfCheckError:
            raise
        except (DomainError, CapacityError) as exc:
            print(f"compare: skipping {method}: {exc}", file=sys.stderr)
    if len(values) < 2:
        raise DomainError("fewer than two methods applicable; nothing to compare")
    max_delta = max(abs(a - b) for a, b in itertools.combinations(values.values(), 2))
    _emit({"log_z": values, "max_pairwise_delta": max_delta, "params": params},
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

    def add_format(p):
        p.add_argument("--format", choices=("json", "csv"), default="json")

    def add_lattice(p):
        for side in ("--rows", "--cols"):
            p.add_argument(side, type=int, required=True)
        for coupling in ("--kh", "--kv"):
            p.add_argument(coupling, type=float, required=True)
        p.add_argument("--bc", choices=("free", "torus"), default="torus")

    p = sub.add_parser("z", help="log partition function of one finite lattice")
    p.add_argument("--method", choices=tuple(_LOG_Z), required=True)
    add_lattice(p)
    p.add_argument("--kd", type=float, default=None,
                   help="diagonal coupling (triangular lattice, oracle only)")
    add_format(p)
    p.set_defaults(func=_cmd_z)

    p = sub.add_parser("free-energy", help="thermodynamic-limit -beta f per site")
    p.add_argument("--method", choices=tuple(_FREE_ENERGY), required=True)
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
    p.add_argument("--method", choices=tuple(_DIMERS["free"]),   # the free grid has them all
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
    add_lattice(p)
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
