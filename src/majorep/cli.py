"""Command-line front end.

State-producing commands print a state JSON document on stdout and every
state-consuming command accepts one on stdin (or a file path), so commands
compose under pipes.  Exit codes: 0 success, 1 reference-table mismatch,
2 malformed input document, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import serialize
from .states import FullState, SymmetricState, dicke_state, ghz_state, random_symmetric_state

EXIT_OK = 0
EXIT_TABLE_MISMATCH = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERICAL = 3


class CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


def _read_json(path: str) -> dict:
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot read JSON document: {exc}", EXIT_BAD_INPUT)


def _load_state(path: str):
    try:
        return serialize.state_from_dict(_read_json(path))
    except (serialize.FormatError, ValueError, TypeError, KeyError) as exc:
        raise CliError(f"bad state document: {exc}", EXIT_BAD_INPUT)


def _load_density(path: str):
    try:
        return serialize.density_from_dict(_read_json(path))
    except (serialize.FormatError, ValueError, TypeError, KeyError) as exc:
        raise CliError(f"bad density document: {exc}", EXIT_BAD_INPUT)


def _as_symmetric(state) -> SymmetricState:
    if isinstance(state, SymmetricState):
        return state
    from .states import project_to_symmetric

    sym, residual = project_to_symmetric(state)
    if residual > 1e-9:
        raise CliError(f"state is not permutation symmetric (residual {residual:.2e})",
                       EXIT_NUMERICAL)
    return sym


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    sys.stdout.write("\n")


def _parse_complex_list(text: str, count: int) -> list[complex]:
    parts = text.split(",")
    if len(parts) != count:
        raise CliError(f"expected {count} comma-separated entries", EXIT_BAD_INPUT)
    try:
        return [complex(p.strip().replace(" ", "")) for p in parts]
    except ValueError as exc:
        raise CliError(f"bad complex entry: {exc}", EXIT_BAD_INPUT)


def cmd_gen(args) -> int:
    if args.kind == "ghz":
        state = ghz_state(args.n)
    elif args.kind == "dicke":
        if args.l is None:
            raise CliError("dicke requires --l", EXIT_BAD_INPUT)
        state = dicke_state(args.n, args.l)
    elif args.kind == "dnk":
        from .marginals import dnk_state

        if args.k is None:
            raise CliError("dnk requires --k", EXIT_BAD_INPUT)
        d0 = _parse_complex_list(args.d0, 1)[0]
        d1 = _parse_complex_list(args.d1, 1)[0]
        state = dnk_state(args.n, args.k, d0, d1)
    elif args.kind == "gdicke":
        from .marginals import generalized_dicke_state

        if args.k is None or args.coeffs is None:
            raise CliError("gdicke requires --k and --coeffs", EXIT_BAD_INPUT)
        doc = _read_json(args.coeffs)
        try:
            alphas = np.asarray(doc["alphas"]["re"], float) + 1j * np.asarray(
                doc["alphas"]["im"], float
            )
            a = [
                np.asarray(block["re"], float) + 1j * np.asarray(block["im"], float)
                for block in doc["a"]
            ]
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"bad coefficient document: {exc}", EXIT_BAD_INPUT)
        state = generalized_dicke_state(args.n, args.k, alphas, a)
    elif args.kind == "random":
        rng = np.random.default_rng(args.seed)
        state = random_symmetric_state(args.n, rng)
    else:
        raise CliError(f"unknown generator {args.kind!r}", EXIT_BAD_INPUT)
    _emit(serialize.state_to_dict(state))
    return EXIT_OK


def cmd_points(args) -> int:
    from .stellar import majorana_points

    state = _as_symmetric(_load_state(args.state))
    const = majorana_points(state)
    _emit(serialize.constellation_to_dict(const))
    if args.csv:
        with open(args.csv, "w") as fh:
            fh.write(serialize.constellation_to_csv(const))
    return EXIT_OK


def cmd_classify(args) -> int:
    from .slocc import classify

    state = _as_symmetric(_load_state(args.state))
    config = classify(state)
    if args.json:
        _emit(serialize.configuration_to_dict(config))
    else:
        print(f"{config.label()}  diversity={config.diversity}")
    return EXIT_OK


def cmd_rotate(args) -> int:
    from .stellar import euler_su2, su2_rotate

    state = _as_symmetric(_load_state(args.state))
    u = euler_su2(*args.euler)
    _emit(serialize.state_to_dict(su2_rotate(state, u)))
    return EXIT_OK


def cmd_ilo(args) -> int:
    from .slocc import apply_ilo

    state = _as_symmetric(_load_state(args.state))
    entries = _parse_complex_list(args.matrix, 4)
    matrix = np.array(entries, dtype=complex).reshape(2, 2)
    _emit(serialize.state_to_dict(apply_ilo(state, matrix)))
    return EXIT_OK


def cmd_rdm(args) -> int:
    from .marginals import rdm_full, rdm_symmetric
    from .states import expand_to_full

    state = _load_state(args.state)
    keep = [int(q) for q in args.keep.split(",") if q.strip()]
    if args.basis == "symmetric":
        dm = rdm_symmetric(_as_symmetric(state), len(keep))
    else:
        full = state if isinstance(state, FullState) else expand_to_full(state)
        dm = rdm_full(full, keep)
    _emit(serialize.density_to_dict(dm))
    return EXIT_OK


def cmd_reconstruct(args) -> int:
    from .marginals import reconstruct_from_two_marginals

    rho_a = _load_density(args.rho_a)
    rho_b = _load_density(args.rho_b)
    result = reconstruct_from_two_marginals(rho_a, rho_b)
    if result.is_ambiguous:
        print("AMBIGUOUS")
    else:
        _emit(serialize.state_to_dict(result.state))
    return EXIT_OK


def cmd_falsify(args) -> int:
    from .marginals import marginal_match_search, rdm_full
    from .states import expand_to_full

    state = _load_state(args.state)
    full = state if isinstance(state, FullState) else expand_to_full(state)
    targets = []
    for spec_part in args.marginals.split(";"):
        keep = tuple(int(q) for q in spec_part.split(",") if q.strip())
        targets.append((keep, rdm_full(full, keep)))
    matches = marginal_match_search(targets, full.n, restarts=args.restarts, seed=args.seed)
    _emit({"matches": [serialize.state_to_dict(m) for m in matches]})
    return EXIT_OK


def cmd_entangle(args) -> int:
    from .geomeasure import geometric_measure

    state = _as_symmetric(_load_state(args.state))
    report = geometric_measure(state, grid=args.grid, restarts=args.restarts)
    _emit(serialize.report_to_dict(report))
    return EXIT_OK


def cmd_landscape(args) -> int:
    from .geomeasure import overlap_landscape

    state = _as_symmetric(_load_state(args.state))
    alphas = np.linspace(0.0, 2 * np.pi, args.grid, endpoint=False)
    betas = np.linspace(0.0, np.pi, args.grid)
    f_grid = overlap_landscape(state, alphas, betas)
    sys.stdout.write(serialize.landscape_to_csv(alphas, betas, f_grid))
    return EXIT_OK


def cmd_table1(args) -> int:
    from .table1 import check_rows

    failures = 0
    for result in check_rows(tol=args.tol):
        status = "PASS" if result["ok"] else "FAIL"
        failures += not result["ok"]
        print(
            f"{status}  {result['name']:<24} poly={result['poly_err']:.2e} "
            f"roots={result['roots_err']:.2e} expansion={result['expansion_err']:.2e}"
        )
    return EXIT_TABLE_MISMATCH if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0, help="seed for stochastic steps")
    common.add_argument("--grid", type=int, default=64, help="landscape grid resolution")
    common.add_argument("--restarts", type=int, default=16, help="multistart count")

    parser = argparse.ArgumentParser(
        prog="majorep",
        description="Majorana constellations, SLOCC families, marginals, and "
        "geometric entanglement of symmetric multiqubit states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a state document")
    p.add_argument("kind", choices=["ghz", "dicke", "dnk", "gdicke", "random"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--l", type=int, help="excitation index for dicke")
    p.add_argument("--k", type=int, help="second-spinor multiplicity / top weight")
    p.add_argument("--d0", default="0", help="complex amplitude, e.g. 0.6 or 0.6+0.1j")
    p.add_argument("--d1", default="1", help="complex amplitude")
    p.add_argument("--coeffs", help="JSON file with gdicke block coefficients")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("points", parents=[common], help="Majorana constellation of a state")
    p.add_argument("state", nargs="?", default="-")
    p.add_argument("--csv", help="also write alpha,beta,multiplicity rows to this file")
    p.set_defaults(func=cmd_points)

    p = sub.add_parser("classify", parents=[common], help="degeneracy configuration label")
    p.add_argument("state", nargs="?", default="-")
    p.add_argument("--json", action="store_true", help="emit JSON instead of the label")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("rotate", parents=[common], help="collective SU(2) rotation")
    p.add_argument("state", nargs="?", default="-")
    p.add_argument("--euler", type=float, nargs=3, required=True, metavar=("A", "B", "C"))
    p.set_defaults(func=cmd_rotate)

    p = sub.add_parser("ilo", parents=[common], help="identical invertible local operation")
    p.add_argument("state", nargs="?", default="-")
    p.add_argument("--matrix", required=True, help="m00,m01,m10,m11 (complex entries)")
    p.set_defaults(func=cmd_ilo)

    p = sub.add_parser("rdm", parents=[common], help="reduced density matrix")
    p.add_argument("state", nargs="?", default="-")
    p.add_argument("--keep", required=True, help="comma-separated qubit labels, 1-based")
    p.add_argument("--basis", choices=["computational", "symmetric"], default="computational")
    p.set_defaults(func=cmd_rdm)

    p = sub.add_parser("reconstruct", parents=[common],
                       help="whole state from two (n-1)-qubit marginals")
    p.add_argument("rho_a", help="marginal over qubits 1..n-1")
    p.add_argument("rho_b", help="marginal over qubits 2..n")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("falsify", parents=[common],
                       help="search all states matching the listed marginals")
    p.add_argument("state", nargs="?", default="-")
    p.add_argument("--marginals", required=True,
                   help="semicolon-separated keep sets, e.g. '1,2;1,3'")
    p.set_defaults(func=cmd_falsify)

    p = sub.add_parser("entangle", parents=[common], help="geometric entanglement report")
    p.add_argument("state", nargs="?", default="-")
    p.set_defaults(func=cmd_entangle)

    p = sub.add_parser("landscape", parents=[common], help="overlap landscape CSV")
    p.add_argument("state", nargs="?", default="-")
    p.set_defaults(func=cmd_landscape)

    p = sub.add_parser("table1", parents=[common],
                       help="recompute the reference rows and diff against embedded values")
    p.add_argument("--tol", type=float, default=1e-9,
                   help="largest accepted error per row item")
    p.set_defaults(func=cmd_table1)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except (ValueError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
