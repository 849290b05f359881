"""Command line interface.

    xhbac figure <id> [--config path] [--out path] [--set key=value ...]
    xhbac accept <suite>
    xhbac query <op> [--key value ...]

Global flags: --nmax (Fock cutoff), --tol and --seed (seed of the randomized
acceptance suites).  The XHBAC_TOL environment variable (or --tol) overrides
the default comparison tolerance.  Exit codes: 0 success, 1 invariant failure,
2 usage error.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import __version__
from .acceptance import SUITES, run_acceptance
from .bosonic_sim import (
    FockTruncation,
    asymptotic_upper_bound,
    jc_deexcitation,
    optimize_interaction_time,
    upper_bound_G,
)
from .config import ExperimentConfig
from .figures import FIGURE_IDS, run_figure
from .protocols import (
    beta_swap_matrix,
    ideal_ground_population,
    ladder_ground_population,
    markovian_best,
    noisy_fixed_point,
    noisy_ground_population,
    optimal_round,
)
from .results import ResultTable
from .thermal_core import (
    CompositeSpec,
    EnergySpectrum,
    beta_opt_alpha,
    beta_order,
    default_tolerance,
    gibbs_state,
    thermo_curve,
    thermo_majorizes,
)

USAGE_ERROR = 2
INVARIANT_FAILURE = 1


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(x) for x in raw.split(","))


def _spectrum(args: dict) -> EnergySpectrum:
    if "E" in args:
        return EnergySpectrum(_floats(args["E"]), float(args.get("beta", 1.0)))
    return EnergySpectrum((0.0, 1.0), float(args.get("betaE", 1.0)))


def _trunc(args: dict, spectrum: EnergySpectrum) -> FockTruncation:
    n_max = int(args.get("nmax", 60))
    return FockTruncation.thermal(spectrum.beta * spectrum.gap, n_max)


def _op_gibbs(args):
    spectrum = _spectrum(args)
    g = gibbs_state(spectrum)
    return [f"p{i}" for i in range(g.size)], list(map(float, g))


def _op_beta_order(args):
    spectrum = _spectrum(args)
    order = beta_order(_floats(args["p"]), spectrum)
    return [f"pos{i}" for i in range(order.size)], [int(x) for x in order]


def _op_curve_height(args):
    spectrum = _spectrum(args)
    curve = thermo_curve(_floats(args["p"]), spectrum)
    return ["height"], [curve.height(float(args["x"]))]


def _op_thermo_majorizes(args):
    spectrum = _spectrum(args)
    return ["majorizes"], [thermo_majorizes(_floats(args["p"]), _floats(args["q"]), spectrum)]


def _op_beta_swap_matrix(args):
    spectrum = _spectrum(args)
    i = int(args.get("i", 0))
    j = int(args.get("j", spectrum.dim - 1))
    matrix = beta_swap_matrix(i, j, spectrum)
    cols, vals = [], []
    for a in range(matrix.shape[0]):
        for b in range(matrix.shape[1]):
            cols.append(f"m{a}{b}")
            vals.append(float(matrix[a, b]))
    return cols, vals


def _op_alpha_opt(args):
    d = int(args["d"])
    r = int(args.get("r", 1))
    alpha = beta_opt_alpha(d, r)
    pairs = [f"({m // r},{m % r})" for m in alpha]
    return [f"pos{i}" for i in range(alpha.size)], pairs


def _op_optimal_round(args):
    system = _spectrum(args)
    ancilla = None
    if "ancE" in args:
        ancilla = EnergySpectrum(_floats(args["ancE"]), system.beta)
    spec = CompositeSpec(system=system, ancilla=ancilla)
    out = optimal_round(_floats(args["p"]), spec)
    return [f"p{i}" for i in range(out.size)], list(map(float, out))


def _op_markovian_best(args):
    spectrum = _spectrum(args)
    return ["best"], [markovian_best(float(args["p0"]), spectrum)]


def _op_jc_deexcitation(args):
    spectrum = _spectrum(args)
    value = jc_deexcitation(float(args["s"]), spectrum, _trunc(args, spectrum))
    return ["probability"], [value]


def _op_optimal_s(args):
    spectrum = _spectrum(args)
    best = optimize_interaction_time(spectrum, float(args.get("lo", 0.0)),
                                     float(args.get("hi", 10.0)), _trunc(args, spectrum))
    return ["s_star", "probability", "epsilon"], [best.s_star, best.probability,
                                                  1.0 - best.probability]


def _op_upper_bound(args):
    return ["bound"], [upper_bound_G(float(args["betaE"]))]


def _op_asymptotic_bound(args):
    return ["bound"], [asymptotic_upper_bound(float(args["betaE"]))]


def _op_ideal_ground(args):
    return ["p0"], [ideal_ground_population(int(args["k"]), float(args["betaE"]),
                                            float(args["p0"]))]


def _op_noisy_ground(args):
    return ["p0"], [noisy_ground_population(int(args["k"]), float(args["eps"]),
                                            float(args["betaE"]), float(args["p0"]))]


def _op_noisy_asymptote(args):
    return ["p0"], [noisy_fixed_point(float(args["eps"]), float(args["betaE"]))]


def _op_ladder_ground(args):
    spectrum = _spectrum(args)
    return ["p0"], [ladder_ground_population(int(args["blocks"]), spectrum, float(args["p0"]))]


QUERY_OPS = {
    "gibbs": _op_gibbs,
    "beta-order": _op_beta_order,
    "curve-height": _op_curve_height,
    "thermo-majorizes": _op_thermo_majorizes,
    "beta-swap-matrix": _op_beta_swap_matrix,
    "alpha-opt": _op_alpha_opt,
    "optimal-round": _op_optimal_round,
    "markovian-best": _op_markovian_best,
    "jc-deexcitation": _op_jc_deexcitation,
    "optimal-s": _op_optimal_s,
    "upper-bound": _op_upper_bound,
    "asymptotic-bound": _op_asymptotic_bound,
    "ideal-ground": _op_ideal_ground,
    "noisy-ground": _op_noisy_ground,
    "noisy-asymptote": _op_noisy_asymptote,
    "ladder-ground": _op_ladder_ground,
}


def _parse_kv(tokens: list[str]) -> dict[str, str]:
    args: dict[str, str] = {}
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if not token.startswith("--"):
            raise ValueError(f"expected --key value pairs, got {token!r}")
        if i + 1 >= len(tokens):
            raise ValueError(f"missing value for {token!r}")
        args[token[2:]] = tokens[i + 1]
        i += 2
    return args


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="xhbac", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=f"xhbac {__version__}")
    parser.add_argument("--nmax", type=int, default=None, help="Fock cutoff override")
    parser.add_argument("--tol", type=float, default=None,
                        help="default comparison tolerance (also via XHBAC_TOL)")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
    sub = parser.add_subparsers(dest="command")

    fig = sub.add_parser("figure", help="emit a figure data table as CSV")
    fig.add_argument("id", choices=FIGURE_IDS)
    fig.add_argument("--config", default=None, help="JSON config file")
    fig.add_argument("--out", default=None, help="output path (default: stdout)")
    fig.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="config override; flags win over the file")

    acc = sub.add_parser("accept", help="run an acceptance suite")
    acc.add_argument("suite", help=f"one of: {', '.join(sorted(SUITES))}")

    qry = sub.add_parser("query", help="evaluate one core operation")
    qry.add_argument("op", help=f"one of: {', '.join(sorted(QUERY_OPS))}")
    qry.add_argument("args", nargs=argparse.REMAINDER)
    return parser


def _figure_command(ns) -> int:
    overrides: dict[str, str] = {}
    for item in ns.set:
        if "=" not in item:
            print(f"error: --set expects KEY=VALUE, got {item!r}", file=sys.stderr)
            return USAGE_ERROR
        key, _, value = item.partition("=")
        overrides[key] = value
    if ns.nmax is not None:
        overrides["n_max"] = str(ns.nmax)
    try:
        config = ExperimentConfig() if ns.config is None else ExperimentConfig.from_json(ns.config)
        config = config.with_overrides(overrides)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        table = run_figure(ns.id, config)
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return INVARIANT_FAILURE
    if ns.out or config.out:
        table.write(ns.out or config.out)
    else:
        sys.stdout.write(table.to_csv())
    return 0


def _accept_command(ns) -> int:
    if ns.suite not in SUITES:
        print(f"error: unknown suite {ns.suite!r}; registered: {sorted(SUITES)}",
              file=sys.stderr)
        return USAGE_ERROR
    results = run_acceptance(ns.suite, seed=ns.seed)
    return 0 if all(r.passed for r in results) else INVARIANT_FAILURE


def _query_command(ns) -> int:
    if ns.op not in QUERY_OPS:
        print(f"error: unknown op {ns.op!r}; registered: {sorted(QUERY_OPS)}",
              file=sys.stderr)
        return USAGE_ERROR
    try:
        kv = _parse_kv(list(ns.args))
        if ns.nmax is not None:
            kv.setdefault("nmax", str(ns.nmax))
        columns, values = QUERY_OPS[ns.op](kv)
    except (KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    table = ResultTable(columns=columns, metadata={"op": ns.op, "args": kv,
                                                   "version": __version__})
    table.append(*values)
    sys.stdout.write(table.to_csv())
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.tol is not None:
        os.environ["XHBAC_TOL"] = repr(ns.tol)
    try:
        default_tolerance()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    if ns.command == "figure":
        return _figure_command(ns)
    if ns.command == "accept":
        return _accept_command(ns)
    if ns.command == "query":
        return _query_command(ns)
    parser.print_help()
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
