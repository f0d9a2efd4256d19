"""Command-line interface: structure transforms, rigidity tests, registration.

Exit codes: 0 = success / positive verdict, 2 = bad input or usage,
3 = negative verdict (flexible, not connected, condition fails, not
affinely rigid), 4 = inconclusive, 5 = inconsistent data.

Reports are JSON documents (the machine interface); stdout carries a short
human summary. Every randomized command records its seed in the report so
the run can be replayed exactly.
"""

from __future__ import annotations

import argparse
import secrets
import sys
import time
from datetime import datetime, timezone

from . import families, formats, registration, rigidity
from .errors import (
    AffrigError,
    InconsistentLengthsError,
    InconsistentScansError,
    InvalidInputError,
    NonUniqueTransformError,
    NotAffinelyRigidError,
)
from .hypergraph import (
    Graph,
    as_hypergraph,
    body_graph,
    is_k_vertex_connected,
    neighborhood_hypergraph,
    squared_graph,
    truncate_hyperedges,
    zha_zhang_condition,
)
from .numkernel import DEFAULT_PRIME, DEFAULT_REL_TOL
from .rigidity import Framework

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NEGATIVE = 3
EXIT_INCONCLUSIVE = 4
EXIT_INCONSISTENT = 5

# The first row whose types match an error gives its exit code. Python's own
# RecursionError and MemoryError mean the input is too large for this run;
# they end as a usage error with a message, never as a traceback.
_EXIT_CODES = (
    (NotAffinelyRigidError, EXIT_NEGATIVE),
    (
        (InconsistentScansError, NonUniqueTransformError, InconsistentLengthsError),
        EXIT_INCONSISTENT,
    ),
    (
        (AffrigError, OSError, ValueError, RecursionError, MemoryError),
        EXIT_USAGE,
    ),
)


def _exit_code(error: Exception) -> int | None:
    """Exit code for ``error`` from the first matching table row, else None."""
    return next(
        (code for types, code in _EXIT_CODES if isinstance(error, types)), None
    )


def _say(args, message: str) -> None:
    """Human summary line; moved to stderr when a document owns stdout."""
    if args.quiet:
        return
    owns_stdout = "-" in (getattr(args, "output", None), args.report)
    print(message, file=sys.stderr if owns_stdout else sys.stdout)


def _load_structure(path: str):
    return formats.structure_from_document(formats.load_document(path))


def _need_graph(structure, what: str) -> Graph:
    if not isinstance(structure, Graph):
        raise InvalidInputError(f"{what} needs a graph input")
    return structure


def _finish_report(args, report: dict, started: float) -> None:
    report["timings"] = {"elapsed_seconds": time.perf_counter() - started}
    report["timestamp"] = datetime.now(timezone.utc).isoformat()
    if args.report is not None:
        formats.write_document(report, args.report)


def _pick_seed(args) -> int:
    return args.seed if args.seed is not None else secrets.randbits(32)


def cmd_transform(args) -> int:
    structure = _load_structure(args.input)
    if args.op == "body":
        result = body_graph(as_hypergraph(structure))
    elif args.op == "neighborhood":
        result = neighborhood_hypergraph(_need_graph(structure, "neighborhood"))
    elif args.op == "square":
        result = squared_graph(_need_graph(structure, "square"))
    else:
        if args.k is None:
            raise InvalidInputError("truncate needs --k")
        result = truncate_hyperedges(as_hypergraph(structure), args.k)
    formats.write_document(formats.document_from_structure(result), args.output)
    if isinstance(result, Graph):
        _say(args, f"{args.op}: {result.vertex_count} vertices, "
                   f"{len(result.edges)} edges")
    else:
        _say(args, f"{args.op}: {result.vertex_count} vertices, "
                   f"{len(result.hyperedges)} hyperedges")
    return EXIT_OK


_VERDICT_EXIT = {
    rigidity.RIGID: EXIT_OK,
    rigidity.FLEXIBLE: EXIT_NEGATIVE,
    rigidity.INCONCLUSIVE: EXIT_INCONCLUSIVE,
}


def cmd_test(args) -> int:
    started = time.perf_counter()
    structure = _load_structure(args.input)
    parameters = {"input": args.input, "dim": args.dim, "mode": args.mode}
    if args.mode == "generic":
        seed = _pick_seed(args)
        parameters.update(trials=args.trials, seed=seed, prime=args.prime)
        result = rigidity.generic_affine_rigidity_test(
            as_hypergraph(structure),
            args.dim,
            trials=args.trials,
            seed=seed,
            prime=args.prime,
        )
    elif args.mode == "framework":
        if args.framework is None:
            raise InvalidInputError("framework mode needs --framework FILE")
        coords = formats.coordinates_from_document(
            formats.load_document(args.framework)
        )
        if coords.shape[1] != args.dim:
            raise InvalidInputError(
                f"framework dim {coords.shape[1]} does not match --dim {args.dim}"
            )
        parameters.update(tol=args.tol, framework=args.framework)
        framework = Framework(structure, coords)
        result = rigidity.affine_rigidity_test(framework, rel_tol=args.tol)
    else:
        seed = _pick_seed(args)
        parameters.update(tol=args.tol, seed=seed)
        gamma = _need_graph(structure, "neighborhood mode")
        framework = families.generic_framework(gamma, args.dim, seed=seed)
        result = rigidity.neighborhood_affine_rigidity_test(
            framework, rel_tol=args.tol, seed=seed
        )
    report = formats.report_document(
        "test",
        parameters=parameters,
        verdict=result.verdict,
        corank=result.corank,
        one_sided=result.one_sided,
        certificate=result.certificate,
        residuals=result.residuals,
    )
    _finish_report(args, report, started)
    _say(args, f"verdict: {result.verdict} (corank {result.corank}); "
               f"{result.certificate}")
    return _VERDICT_EXIT[result.verdict]


def cmd_connectivity(args) -> int:
    started = time.perf_counter()
    gamma = _need_graph(_load_structure(args.input), "connectivity")
    connected = is_k_vertex_connected(gamma, args.k)
    verdict = "connected" if connected else "not-connected"
    report = formats.report_document(
        "connectivity",
        parameters={"input": args.input, "k": args.k},
        verdict=verdict,
    )
    _finish_report(args, report, started)
    _say(args, f"{args.k}-vertex-connected: {'yes' if connected else 'no'}")
    return EXIT_OK if connected else EXIT_NEGATIVE


def cmd_zz(args) -> int:
    started = time.perf_counter()
    theta = as_hypergraph(_load_structure(args.input))
    holds = zha_zhang_condition(theta, args.dim)
    report = formats.report_document(
        "zz",
        parameters={"input": args.input, "dim": args.dim},
        verdict="holds" if holds else "fails",
    )
    _finish_report(args, report, started)
    _say(args, f"overlap-chain condition in dimension {args.dim}: "
               f"{'holds' if holds else 'fails'}")
    return EXIT_OK if holds else EXIT_NEGATIVE


# Registration failures that still end in a report: verdict and summary.
_REGISTER_FAILURES = {
    EXIT_NEGATIVE: ("not-affinely-rigid", "not affinely rigid"),
    EXIT_INCONSISTENT: ("inconsistent", "inconsistent data"),
}


def cmd_register(args) -> int:
    started = time.perf_counter()
    scan_set = formats.scan_set_from_document(formats.load_document(args.input))
    parameters = {"input": args.input, "mode": args.mode, "tol": args.tol}
    try:
        if args.mode == "affine":
            result = registration.affine_register(scan_set, rel_tol=args.tol)
        else:
            result = registration.euclidean_register(scan_set, rel_tol=args.tol)
    except AffrigError as error:
        code = _exit_code(error)
        if code not in _REGISTER_FAILURES:
            raise
        verdict, summary = _REGISTER_FAILURES[code]
        fields = {"corank": error.corank} if code == EXIT_NEGATIVE else {}
        report = formats.report_document(
            "register",
            parameters=parameters,
            verdict=verdict,
            error=str(error),
            **fields,
        )
        _finish_report(args, report, started)
        _say(args, f"{summary}: {error}")
        return code
    formats.write_document(
        formats.document_from_coordinates(result.config), args.output
    )
    diagnostics = dict(result.diagnostics)
    report = formats.report_document(
        "register",
        parameters=parameters,
        verdict="registered",
        gauge=result.gauge,
        corank=diagnostics.pop("corank"),
        residuals=diagnostics,
    )
    _finish_report(args, report, started)
    worst = max(result.diagnostics["scan_residuals"])
    _say(args, f"registered {result.config.shape[0]} vertices up to a global "
               f"{result.gauge} transform; worst scan residual {worst:.3g}")
    return EXIT_OK


def cmd_examples(args) -> int:
    name = args.name
    params = args.params
    seed = args.seed if args.seed is not None else 0

    def need_params(count: int):
        if len(params) != count:
            raise InvalidInputError(
                f"example {name!r} takes {count} parameter(s), got {len(params)}"
            )
        return [int(p) for p in params]

    if name == "fig1":
        need_params(0)
        structure = families.fig1_hypergraph()
    elif name == "fig2":
        need_params(0)
        structure = families.fig2_graph()
    elif name in ("fig3", "pentagon"):
        need_params(0)
        structure = families.pentagon_hypergraph()
    elif name == "hextorus":
        m, n = need_params(2)
        structure = families.hexagonal_torus(m, n)
    elif name == "star":
        (k,) = need_params(1)
        structure = families.star_graph(k)
    elif name == "wheel":
        (k,) = need_params(1)
        structure = families.wheel_graph(k)
    elif name == "trilateration":
        d, n = need_params(2)
        structure = families.trilateration_graph(n, d, seed=seed)
    else:
        raise InvalidInputError(f"unknown example {name!r}")
    formats.write_document(formats.document_from_structure(structure), args.output)
    if isinstance(structure, Graph):
        _say(args, f"{name}: {structure.vertex_count} vertices, "
                   f"{len(structure.edges)} edges")
    else:
        _say(args, f"{name}: {structure.vertex_count} vertices, "
                   f"{len(structure.hyperedges)} hyperedges")
    if args.dim is not None:
        if args.coordinates_output is None:
            raise InvalidInputError("--dim needs --coordinates-output FILE")
        framework = families.generic_framework(structure, args.dim, seed=seed)
        formats.write_document(
            formats.document_from_coordinates(framework.coordinates),
            args.coordinates_output,
        )
        _say(args, f"generic coordinates in dimension {args.dim} (seed {seed})")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--tol", type=float, default=DEFAULT_REL_TOL,
                        help="relative tolerance for rank decisions")
    shared.add_argument("--trials", type=int, default=3,
                        help="trials for the randomized generic test")
    shared.add_argument("--seed", type=int, default=None,
                        help="seed for randomized steps (recorded in reports)")
    shared.add_argument("--prime", type=int, default=DEFAULT_PRIME,
                        help="modulus for exact finite-field arithmetic")
    shared.add_argument("--quiet", action="store_true",
                        help="suppress the human summary")
    shared.add_argument("--report", default=None, metavar="FILE",
                        help="write a JSON report ('-' for stdout)")

    parser = argparse.ArgumentParser(
        prog="affrig",
        description="Affine rigidity analysis and scan registration.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    transform = commands.add_parser(
        "transform", parents=[shared],
        help="derive body / neighborhood / squared / truncated structures",
    )
    transform.add_argument("input", help="structure file ('-' for stdin)")
    transform.add_argument("op",
                           choices=["body", "neighborhood", "square", "truncate"])
    transform.add_argument("--k", type=int, default=None,
                           help="subset size for truncate")
    transform.add_argument("-o", "--output", default="-",
                           help="output file ('-' for stdout)")
    transform.set_defaults(run=cmd_transform)

    test = commands.add_parser(
        "test", parents=[shared], help="affine rigidity tests",
    )
    test.add_argument("input", help="structure file ('-' for stdin)")
    test.add_argument("--dim", type=int, required=True)
    test.add_argument("--mode", choices=["generic", "framework", "neighborhood"],
                      default="generic")
    test.add_argument("--framework", default=None, metavar="FILE",
                      help="coordinates for framework mode")
    test.set_defaults(run=cmd_test, output=None)

    connectivity = commands.add_parser(
        "connectivity", parents=[shared], help="k-vertex-connectivity check",
    )
    connectivity.add_argument("input", help="graph file ('-' for stdin)")
    connectivity.add_argument("--k", type=int, required=True)
    connectivity.set_defaults(run=cmd_connectivity, output=None)

    zz = commands.add_parser(
        "zz", parents=[shared],
        help="hyperedge overlap-chain condition in dimension d",
    )
    zz.add_argument("input", help="hypergraph file ('-' for stdin)")
    zz.add_argument("--dim", type=int, required=True)
    zz.set_defaults(run=cmd_zz, output=None)

    register = commands.add_parser(
        "register", parents=[shared], help="merge local scans",
    )
    register.add_argument("input", help="scan-set file ('-' for stdin)")
    register.add_argument("--mode", choices=["affine", "euclidean"],
                          default="affine")
    register.add_argument("-o", "--output", default="-",
                          help="recovered coordinates file ('-' for stdout)")
    register.set_defaults(run=cmd_register)

    examples = commands.add_parser(
        "examples", parents=[shared], help="emit a named example structure",
    )
    examples.add_argument("name",
                          help="fig1|fig2|fig3|pentagon|hextorus m n|star k|"
                               "wheel k|trilateration d n")
    examples.add_argument("params", nargs="*",
                          help="numeric parameters for parametric families")
    examples.add_argument("-o", "--output", default="-",
                          help="structure file ('-' for stdout)")
    examples.add_argument("--dim", type=int, default=None,
                          help="also draw generic coordinates in this dimension")
    examples.add_argument("--coordinates-output", default=None, metavar="FILE",
                          help="where to write the generic coordinates")
    examples.set_defaults(run=cmd_examples)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.run(args)
    except Exception as error:
        code = _exit_code(error)
        if code is None:
            raise
        message = str(error)
        if isinstance(error, (RecursionError, MemoryError)):
            message = f"input too large ({type(error).__name__}: {error})"
        print(f"affrig: {message}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
