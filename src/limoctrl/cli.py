"""Command-line front end.

Machine-readable results go to stdout (or the --out file); everything
meant for humans goes to stderr. Exit codes: 0 success, 1 domain failure
(constraint violations, failed checks, solver non-convergence), 2 usage or
parse errors, 141 when the reader of stdout has gone before the output was
written (the code a shell reports for a process that SIGPIPE ended; nothing
is printed). All commands are deterministic given their flags and seed.
"""
import argparse
import contextlib
import functools
import json
import os
import sys

import numpy as np

from .errors import LimoctrlError
from .evaluation import simulate_cost
from .graphs import _size_error, design_condition_applies, graph_from_dict, size_from_dict
from .plant import _graph_size_error, plant_from_dict, validate
from .ratio import ratio_report_to_csv, ratio_sweep
from .synthesis import STRATEGIES, strategy_builder
from .verify import run_acceptance


def _fail_usage(message):
    print(f"error: {message}", file=sys.stderr)
    raise SystemExit(2)


def _load_json(path, what):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        _fail_usage(f"cannot read {what} file {path}: {exc}")
    except json.JSONDecodeError as exc:
        _fail_usage(f"{what} file {path} is not valid JSON: {exc}")


def _build(loader, payload, what):
    try:
        return loader(payload)
    except (KeyError, TypeError, ValueError) as exc:
        _fail_usage(f"{what} JSON has the wrong shape: {exc}")


def _load_graph(path, what, n, size_error):
    """The graph in the JSON file at path, refused with size_error(n, its
    "n") before its n x n mask is built if it has another size."""
    payload = _load_json(path, what)
    error = size_error(n, _build(size_from_dict, payload, what))
    if error:
        raise error
    return _build(graph_from_dict, payload, what)


EXIT_CLOSED_STDOUT = 141      # 128 + SIGPIPE, as a shell reports it


@contextlib.contextmanager
def _output(out_path):
    if out_path:
        with open(out_path, "w") as fh:
            yield fh
        return
    try:
        yield sys.stdout
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout's reader has gone; what is still buffered would fail again,
        # with a traceback, at exit, so the dead descriptor goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise SystemExit(EXIT_CLOSED_STDOUT)


def _emit(text, out_path):
    with _output(out_path) as fh:
        fh.write(text)


def _matrix_rows(m):
    """Yield the text json.dumps(row.tolist()) gives each row of the float64
    matrix m, one row at a time.

    A matrix with a NaN or an infinity takes json.dumps itself, which
    spells those NaN, Infinity and -Infinity.
    """
    if not np.isfinite(m).all():
        for row in m:
            yield json.dumps(row.tolist())
        return
    keep = m.view(np.uint64) != 0           # every float but +0.0
    zeros = ["0.0"] * m.shape[1]
    for row, k in zip(m, keep):
        parts = zeros.copy()
        for j, v in zip(np.flatnonzero(k).tolist(), row[k].tolist()):
            # a kept entry that is zero is -0.0, whose repr is "-0.0"
            parts[j] = repr(v) if v else "-0.0"
        yield "[" + ", ".join(parts) + "]"


def _write_controller(fh, k, cost):
    """Write the controller object, one matrix row per line.

    The floats are the shortest round-trip decimals an indented json.dump
    would write (json spells a finite float with repr), and only one row's
    text is held at a time. Only the nonzero entries go through repr.
    Every +0.0 is written as the literal 0.0 and every -0.0 as the literal
    -0.0, the text repr gives it: the designs are sparse (A_K and C_K
    diagonal, the structured B_K and D_K on the plant graph), so most
    entries are signed zeros (deadbeat's D_K = -(A + D) / b turns the
    off-graph zeros of rows with b_ii > 0 into -0.0), and formatting them
    one by one would dominate the write.
    """
    for idx, name in enumerate(("A_K", "B_K", "C_K", "D_K")):
        fh.write(("{" if idx == 0 else ",") + f'\n  "{name}": [')
        for r, text in enumerate(_matrix_rows(getattr(k, name))):
            fh.write(("," if r else "") + "\n    " + text)
        fh.write("\n  ]")
    if cost is not None:
        fh.write(',\n  "cost": ' + json.dumps(cost.as_dict()))
    fh.write("\n}\n")


def _grid(text):
    try:
        values = [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated float list: {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("r grid is empty")
    return values


def cmd_validate(args):
    p = _build(plant_from_dict, _load_json(args.plant, "plant"), "plant")
    g = _load_graph(args.graph, "graph", p.n, _graph_size_error)
    violations = validate(p, g, args.eps_b)
    lines = [json.dumps(v.as_dict()) for v in violations]
    if args.design_graph:
        g_c = _load_graph(args.design_graph, "design graph", g.n, _size_error)
        applies, witness = design_condition_applies(g, g_c)
        lines.append(json.dumps({"design_condition_applies": applies,
                                 "witness": list(witness) if witness else None}))
    _emit("".join(line + "\n" for line in lines), args.out)
    if violations:
        print(f"{len(violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


def cmd_synthesize(args):
    p = _build(plant_from_dict, _load_json(args.plant, "plant"), "plant")
    g = _load_graph(args.graph, "graph", p.n, _graph_size_error)
    violations = validate(p, g, args.eps_b)
    if violations:
        for v in violations:
            print(json.dumps(v.as_dict()), file=sys.stderr)
        print("plant is not admissible; not synthesizing", file=sys.stderr)
        return 1
    k = strategy_builder(args.strategy)(p, g)
    cost = simulate_cost(p, k) if args.with_cost else None
    with _output(args.out) as fh:
        _write_controller(fh, k, cost)
    return 0


def cmd_ratio_sweep(args):
    report = ratio_sweep(args.i, args.j, args.eps_b, args.r_grid, n=args.n)
    if args.format == "csv":
        _emit(ratio_report_to_csv(report), args.out)
    else:
        _emit(json.dumps(report.as_dict(), indent=2) + "\n", args.out)
    return 0


def cmd_verify(args):
    results = run_acceptance(seed=args.seed, scale=args.scale)
    _emit("".join(json.dumps(r.as_dict()) + "\n" for r in results), args.out)
    failed = [r for r in results if not r.passed]
    skipped = sum(1 for r in results if r.skipped)
    print(f"{len(results) - len(failed)}/{len(results)} checks passed"
          + (f", {skipped} skipped" if skipped else ""), file=sys.stderr)
    for r in failed:
        print(f"FAILED {r.name}: measured {r.measured} vs tolerance "
              f"{r.tolerance}; {r.detail}", file=sys.stderr)
    return 1 if failed else 0


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose --help text is written as every output is
    (_emit), so that a closed stdout ends it with exit code 141 too, where
    argparse would drop the error or leave it to the flush at exit."""

    def print_help(self, file=None):
        if file is None:
            _emit(self.format_help(), None)
        else:
            super().print_help(file)


@functools.cache
def _parser():
    """The argument parser, built on the first call and reused by every later
    main() in the same process."""
    top = _Parser(
        prog="limoctrl",
        description="Synthesis and competitive-ratio experiments for "
                    "limited-information disturbance-rejection controllers.")
    sub = top.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("validate", help="check a plant against its graph and gain floor")
    pv.add_argument("--plant", required=True)
    pv.add_argument("--graph", required=True)
    pv.add_argument("--design-graph", default=None,
                    help="optionally also report whether the design-graph "
                         "path condition applies")
    pv.add_argument("--eps-b", type=float, default=1.0)
    pv.add_argument("--out", default=None)
    pv.set_defaults(fn=cmd_validate)

    ps = sub.add_parser("synthesize", help="emit a controller as JSON")
    ps.add_argument("--plant", required=True)
    ps.add_argument("--graph", required=True)
    ps.add_argument("--strategy", required=True, choices=tuple(STRATEGIES))
    ps.add_argument("--eps-b", type=float, default=1.0)
    ps.add_argument("--with-cost", action="store_true",
                    help="append the simulated closed-loop cost")
    ps.add_argument("--out", default=None)
    ps.set_defaults(fn=cmd_synthesize)

    pr = sub.add_parser("ratio-sweep",
                        help="deadbeat-vs-optimal ratio along the worst-case family")
    pr.add_argument("--i", type=int, default=1, help="coupling source vertex")
    pr.add_argument("--j", type=int, default=2, help="coupling target vertex")
    pr.add_argument("--eps-b", type=float, default=1.0)
    pr.add_argument("--r-grid", type=_grid, default=[1.0, 10.0, 100.0, 1000.0])
    pr.add_argument("--n", type=int, default=2)
    pr.add_argument("--format", choices=("json", "csv"), default="csv")
    pr.add_argument("--out", default=None)
    pr.set_defaults(fn=cmd_ratio_sweep)

    pw = sub.add_parser("verify", help="run the acceptance checks")
    pw.add_argument("--seed", type=int, default=0)
    pw.add_argument("--scale", type=float, default=1.0,
                    help="multiplier on ensemble sizes; 0 skips ensembles")
    pw.add_argument("--out", default=None)
    pw.set_defaults(fn=cmd_verify)
    return top


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except LimoctrlError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
