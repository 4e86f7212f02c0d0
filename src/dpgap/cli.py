"""Command-line entry point.

Eight subcommands cover the experiments: classify, phase-diagram, gap,
cutoff, norm, conjugate, flux, fields.  Reports are written as JSON with 17
significant digits (lossless float round trip) or as fixed-header CSV;
human-readable tables print 9 significant digits.  Exit codes: 0 success,
2 precondition violation, 3 numerical failure, 4 I/O failure; failures put a
single machine-parsable line ``CODE: message`` on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import sys

import numpy as np

from . import classifier, cutoffs, geometry
from .errors import (DpgapError, NonConvergedError, NumericalError, PreconditionError,
                     RangeError)
from .fem.solve import OBJECTIVE_DIRICHLET, OBJECTIVE_G, gap_experiment
from .orlicz import (LogPower, conjugate_exponents, conjugate_log_power, conjugate_numeric,
                     luxemburg_norm)

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

DEFAULT_GRID = "0.25,0.5,1,1.25,2,3"


def _format_float(x):
    return format(float(x), ".17g")


def _dump_json(obj, indent=0):
    """JSON text with every float printed to 17 significant digits."""
    pad = " " * indent
    if isinstance(obj, dict):
        items = (f'{pad}  {json.dumps(str(k))}: {_dump_json(v, indent + 2).lstrip()}'
                 for k, v in obj.items())
        body = ",\n".join(items)
        return f"{pad}{{\n{body}\n{pad}}}" if obj else f"{pad}{{}}"
    if isinstance(obj, (list, tuple)):
        items = (_dump_json(v, indent + 2) for v in obj)
        body = ",\n".join(items)
        return f"{pad}[\n{body}\n{pad}]" if len(obj) else f"{pad}[]"
    if isinstance(obj, bool) or obj is None:
        return pad + json.dumps(obj)
    if isinstance(obj, (int, np.integer)):
        return pad + str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return pad + _format_float(obj)
    return pad + json.dumps(obj)


def _open_out(path):
    """stdout for a path of None or "-", else the file at path, to write."""
    if path is None or path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w")


def _write_text(path, text):
    with _open_out(path) as fh:
        fh.write(text)
        if not text.endswith("\n"):
            fh.write("\n")


def _write_csv(path, header, rows):
    """The header, then each row as it is drawn from the iterable rows."""
    with _open_out(path) as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_format_float(v) if isinstance(v, (float, np.floating))
                        else v for v in row])


def _parse_floats(text):
    try:
        return [float(v) for v in str(text).split(",") if v != ""]
    except ValueError as exc:
        raise RangeError(f"could not parse number list {text!r}") from exc


def _parse_ints(text):
    try:
        return [int(v) for v in str(text).split(",") if v != ""]
    except ValueError as exc:
        raise RangeError(f"could not parse integer list {text!r}") from exc


# ---------------------------------------------------------------- commands

def _cmd_classify(args):
    report = classifier.classify_alpha_beta(args.alpha, args.beta, p=args.p)
    out = {"alpha": args.alpha, "beta": args.beta, "p": args.p}
    out.update(report.to_dict())
    _write_text(args.out, _dump_json(out))
    return EXIT_OK


def _cmd_phase_diagram(args):
    alphas = _parse_floats(args.grid if args.alphas is None else args.alphas)
    betas = _parse_floats(args.grid if args.betas is None else args.betas)
    rows = classifier.phase_diagram(alphas, betas, p=args.p)
    if args.format == "json":
        _write_text(args.out, _dump_json(
            [{"alpha": a, "beta": b, "verdict": v} for a, b, v in rows]))
    else:
        _write_csv(args.out, ["alpha", "beta", "verdict"], rows)
    return EXIT_OK


def _cmd_gap(args):
    levels = _parse_ints(args.levels)
    report = gap_experiment(args.alpha, args.beta, levels,
                            grading=args.grading, mode=args.mode,
                            force_g=args.force_g)
    stalled = [lv["n"] for lv in report.levels if not lv["converged"]]
    if stalled:
        raise NonConvergedError(
            f"Newton did not converge on mesh level(s) n = "
            f"{', '.join(map(str, stalled))}")
    _write_text(args.out, _dump_json(report.to_dict()))
    if args.table:
        print(f"{'n':>6} {'E1':>16} {'E2':>16} {'s_opt':>16} {'sep':>16}")
        for lv in report.levels:
            print(f"{lv['n']:>6} {lv['E1']:>16.9g} {lv['E2']:>16.9g} "
                  f"{lv['s_opt']:>16.9g} {lv['sep_value']:>16.9g}")
    return EXIT_OK


def _cmd_cutoff(args):
    if args.kind == "loglog":
        cut = cutoffs.build_loglog_cutoff(args.eps)
        pair = None
        if args.alpha is not None:
            pair = LogPower(args.p, args.alpha)
        energy = cutoffs.cutoff_energy(cut, pair) if pair is not None else None
    elif args.kind == "psi-harmonic":
        if args.alpha is None:
            raise RangeError("psi-harmonic cutoff requires --alpha")
        psi = LogPower(args.p, args.alpha)
        if args.r1 is not None:
            r1 = args.r1
        elif args.delta is not None:
            r1 = cutoffs.find_inner_radius(psi, args.r2, args.delta)
        else:
            raise RangeError("psi-harmonic cutoff requires --r1 or --delta")
        cut = cutoffs.build_psi_harmonic_cutoff(psi, r1, args.r2)
        energy = cut.energy_certificate
    else:
        raise RangeError(f"unknown cutoff kind {args.kind!r}")

    table = cut.profile_table()
    _write_csv(args.out, ["r", "eta", "eta_prime"], (row[:3].tolist() for row in table))
    cert = {
        "kind": cut.kind, "r1": cut.r1, "r2": cut.r2,
        "ln_r1": cut.ln_r1, "ln_r2": cut.ln_r2,
        "normalization_constant": cut.c, "eps": cut.eps,
        "energy": energy,
    }
    _write_text(args.certificate, _dump_json(cert))
    return EXIT_OK


_NORM_COLUMNS = {"u2": 3, "grad_u2": 4, "b2": 5}


def _cmd_norm(args):
    if args.field not in _NORM_COLUMNS:
        raise RangeError(f"unknown field {args.field!r}; "
                         f"choose from {sorted(_NORM_COLUMNS)}")
    table = geometry.sample_fields_grid(args.res)
    values = table[:, _NORM_COLUMNS[args.field]]
    weights = np.full(len(values), 4.0 / len(values))
    f = LogPower(args.p, args.gamma)
    norm = luxemburg_norm(values, weights, f)
    _write_text(args.out, _dump_json({
        "field": args.field, "p": args.p, "gamma": args.gamma,
        "resolution": args.res, "luxemburg_norm": norm,
    }))
    return EXIT_OK


def _cmd_conjugate(args):
    star = conjugate_log_power(args.p, args.gamma)
    back = conjugate_exponents(star.p, star.gamma)
    samples = _parse_floats(args.s)
    if not all(s > 0.0 for s in samples):
        raise RangeError("conjugate samples must be positive")
    # extreme exponents overflow or underflow in both conjugates
    with np.errstate(all="ignore"):
        numeric = conjugate_numeric(LogPower(args.p, args.gamma), samples)
        closed = np.array([float(star(s)) for s in samples])
        ratio = numeric / closed
    if not np.all(np.isfinite([numeric, closed, ratio])):
        raise NumericalError("conjugate or ratio not finite in double precision")
    ratios = [{"s": s, "numeric": num, "closed_form": cf, "ratio": r}
              for s, num, cf, r in zip(samples, numeric.tolist(), closed.tolist(),
                                       ratio.tolist())]
    _write_text(args.out, _dump_json({
        "p": args.p, "gamma": args.gamma,
        "conjugate": {"p": star.p, "gamma": star.gamma},
        "round_trip": {"p": back[0], "gamma": back[1]},
        "samples": ratios,
    }))
    return EXIT_OK


def _cmd_flux(args):
    value = geometry.boundary_flux(args.nquad)
    print(f"{value:.9g}")
    if args.out:
        _write_text(args.out, _dump_json({"nquad": args.nquad, "flux": value}))
    return EXIT_OK


def _cmd_fields(args):
    table = geometry.sample_fields_grid(args.res)
    _write_csv(args.out, ["x1", "x2", "a", "u2", "grad_u2_norm", "b2_norm"],
               (row.tolist() for row in table))
    return EXIT_OK


# ---------------------------------------------------------------- plumbing

class _Parser(argparse.ArgumentParser):
    """A bad command line is a RangeError: one ``RANGE:`` line and exit 2,
    not argparse's usage text.  Subcommand parsers inherit the class."""

    def error(self, message):
        raise RangeError(f"{self.prog}: {message}")


def _build_parser():
    parser = _Parser(
        prog="dpgap",
        description="Double-phase Lavrentiev-gap laboratory")
    parser.add_argument("--config", default=None,
                        help="JSON file whose keys mirror the flags")
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("classify", help="Gap/NoGap verdict for one (alpha, beta)")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("phase-diagram", help="verdict table over a grid")
    p.add_argument("--grid", default=DEFAULT_GRID,
                   help="comma list used for both axes")
    p.add_argument("--alphas", default=None)
    p.add_argument("--betas", default=None)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_phase_diagram)

    p = sub.add_parser("gap", help="conforming vs enriched minimization")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--levels", default="32,64,128")
    p.add_argument("--grading", type=float, default=2.0)
    p.add_argument("--mode", choices=[OBJECTIVE_G, OBJECTIVE_DIRICHLET], default=None)
    p.add_argument("--force-g", action="store_true", dest="force_g")
    p.add_argument("--table", action="store_true",
                   help="also print a human-readable level table")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_gap)

    p = sub.add_parser("cutoff", help="singularity-removing radial cutoff")
    p.add_argument("--kind", choices=["loglog", "psi-harmonic"], required=True)
    p.add_argument("--eps", type=float, default=1e-4)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--r1", type=float, default=None)
    p.add_argument("--r2", type=float, default=0.5)
    p.add_argument("--delta", type=float, default=None,
                   help="energy budget; picks r1 automatically")
    p.add_argument("--out", default=None, help="CSV profile (r, eta, eta')")
    p.add_argument("--certificate", default=None, help="JSON energy certificate")
    p.set_defaults(func=_cmd_cutoff)

    p = sub.add_parser("norm", help="Luxemburg norm of a sampled field")
    p.add_argument("--field", default="u2")
    p.add_argument("--p", type=float, default=2.0)
    p.add_argument("--gamma", type=float, default=0.0)
    p.add_argument("--res", type=int, default=256)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_norm)

    p = sub.add_parser("conjugate", help="closed-form vs numeric conjugate")
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--s", default="10,1e3,1e6")
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_conjugate)

    p = sub.add_parser("flux", help="boundary flux of (b2 . nu) u2")
    p.add_argument("--nquad", type=int, default=1024)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_flux)

    p = sub.add_parser("fields", help="CSV sampler of the checkerboard fields")
    p.add_argument("--res", type=int, default=128)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_fields)

    return parser


def _apply_config(argv):
    """Expand --config path.json into flags placed before the explicit ones."""
    if "--config" not in argv:
        return argv
    i = argv.index("--config")
    try:
        path = argv[i + 1]
    except IndexError:
        raise RangeError("--config requires a path")
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise RangeError("config file must hold a JSON object")
    rest = argv[:i] + argv[i + 2:]
    command = cfg.pop("command", None)
    flags = []
    for key, value in cfg.items():
        flag = "--" + str(key).replace("_", "-")
        # false and null add no flag, so a null leaves its flag at the default
        if value is None or isinstance(value, bool):
            if value:
                flags.append(flag)
        elif isinstance(value, list):
            flags.extend([flag, ",".join(str(v) for v in value)])
        else:
            flags.extend([flag, str(value)])
    # an explicit command wins over the config's
    if command is not None and (not rest or rest[0].startswith("-")):
        rest = [str(command)] + rest
    # config flags first so explicit flags override (argparse keeps the last)
    if rest and not rest[0].startswith("-"):
        return [rest[0]] + flags + rest[1:]
    return flags + rest


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        argv = _apply_config(argv)
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_help()
            return EXIT_PRECONDITION
        return args.func(args)
    except PreconditionError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except DpgapError as exc:
        print(f"{exc.code}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (OSError, json.JSONDecodeError) as exc:
        print(f"IO_ERROR: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
