"""Command-line front end.

Subcommands take a model JSON file and write coefficient tables, point
patterns (CSV plus a JSON sidecar), pcf curves, repulsiveness reports,
log-densities, MLE fits, or Monte Carlo validation reports.  Everything
is reproducible byte for byte under a fixed --seed.

The module imports only argparse, math and sys: the parser is built and the
arguments are checked before numpy loads, so --help and usage errors cost
little more than the interpreter's start-up, and each command loads just
the modules it runs.
"""

from __future__ import annotations

import argparse
import math
import sys


def _write_json(path, payload) -> None:
    import json

    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _report(args, payload) -> int:
    """Write ``payload`` to --out if given and print it as sorted JSON."""
    import json

    if args.out:
        _write_json(args.out, payload)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def cmd_coeffs(args) -> int:
    import csv

    import numpy as np

    from . import models

    model = models.resolve(models.load_model(args.model))
    kernel = model.kernel
    beta = model.correlation_beta
    mults = kernel.mults
    lam = kernel.values
    with np.errstate(divide="ignore"):
        lam_tilde = np.where(lam < 1.0, lam / (1.0 - lam), math.inf)
    rows = [(ell, int(mults[ell]), beta.values[ell], lam[ell], lam_tilde[ell]) for ell in range(len(lam))]
    if args.format == "json":
        payload = {
            "dim": model.dim,
            "eta": kernel.eta,
            "tail_bound": kernel.tail_bound,
            "levels": [
                {
                    "level": r[0],
                    "multiplicity": r[1],
                    "beta_d": r[2],
                    "lambda": r[3],
                    "lambda_tilde": None if math.isinf(r[4]) else r[4],
                }
                for r in rows
            ],
        }
        _write_json(args.out, payload)
    else:
        with open(args.out, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["level", "multiplicity", "beta_d", "lambda", "lambda_tilde"])
            for ell, m, b, l_, lt in rows:
                w.writerow([ell, m, _fmt(b), _fmt(l_), _fmt(lt)])
    print(f"wrote {len(rows)} levels to {args.out} (eta = {kernel.eta:.17g})")
    return 0


def cmd_simulate(args) -> int:
    from . import models, sampler, streams

    spec = models.load_model(args.model)
    model = models.resolve(spec)
    result = sampler.sample_dpp(model, streams.substream(args.seed, "basis"))
    result.pattern.to_csv(args.out)
    sidecar = {
        "seed": args.seed,
        "model": spec.to_json(),
        **result.to_json(),
    }
    _write_json(str(args.out) + ".json", sidecar)
    print(f"wrote {len(result.pattern)} points to {args.out}")
    return 0


def cmd_pcf(args) -> int:
    import csv

    import numpy as np

    from . import diagnostics, models

    model = models.resolve(models.load_model(args.model))
    s = np.linspace(0.0, math.pi, args.grid)
    g0 = diagnostics.pcf(model, s)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["s", "g0"])
        for si, gi in zip(s, g0):
            w.writerow([_fmt(si), _fmt(gi)])
    print(f"wrote {args.grid} pcf rows to {args.out}")
    return 0


def cmd_repulsiveness(args) -> int:
    from . import diagnostics, models

    model = models.resolve(models.load_model(args.model))
    report = diagnostics.repulsiveness_report(model)
    payload = report.to_json()
    if report.slope is not None and math.isinf(report.slope):
        payload["pcf_slope_at_zero"] = "inf"
    return _report(args, payload)


def cmd_loglik(args) -> int:
    from . import likelihood, models, sphere

    model = models.resolve(models.load_model(args.model))
    if model.density is None:
        raise ValueError(
            "the model has an eigenvalue at 1 (projection): no density exists"
        )
    pattern = sphere.PointPattern.from_csv(args.pattern)
    ctx = likelihood.DensityContext(model.density)
    value = likelihood.log_density(pattern, ctx)
    payload = {
        "n_points": len(pattern),
        "log_density": None if math.isinf(value) else value,
        "infeasible": bool(math.isinf(value)),
        "log_normalizer_D": ctx.log_normalizer,
    }
    return _report(args, payload)


def cmd_mle(args) -> int:
    from . import likelihood, models, spectra, sphere

    model = models.resolve(models.load_model(args.model))
    pattern = sphere.PointPattern.from_csv(args.pattern)
    alpha = spectra.correlation_mercer(model.psi_beta)
    fit_spec = likelihood.ScaledFitSpec.from_correlation(alpha)
    fit = likelihood.newton_mle(pattern, fit_spec, zeta0=args.zeta0)
    payload = fit.to_json()
    return _report(args, payload)


def cmd_validate(args) -> int:
    from . import diagnostics, models

    model = models.resolve(models.load_model(args.model))
    report = diagnostics.montecarlo_validate(model, args.reps, args.seed)
    payload = report.to_json()
    return _report(args, payload)


def cmd_project(args) -> int:
    import csv

    from . import sphere

    pattern = sphere.PointPattern.from_csv(args.pattern)
    if pattern.dim != 2:
        raise ValueError("projection plots are for S^2 patterns")
    # disc scale: the equator (colat pi/2) maps to radius 1
    scale = 2.0 * math.sin(math.pi / 4.0)
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["u", "v", "hemisphere"])
        for p in pattern:
            hemi = "north" if p.colat <= math.pi / 2.0 else "south"
            u, v = sphere.equal_area_project(p, hemi)
            w.writerow([_fmt(u / scale), _fmt(v / scale), hemi])
    print(f"wrote {len(pattern)} projected points to {args.out}")
    return 0


def _int_at_least(low: int):
    """argparse type: an integer >= low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return parse


def _log_scale(text: str) -> float:
    """argparse type of --zeta0: finite, and with exp(zeta0) finite."""
    try:
        value = float(text)
        ok = math.isfinite(value) and math.isfinite(math.exp(value))
    except (ValueError, OverflowError):
        ok = False
    if not ok:
        raise argparse.ArgumentTypeError(f"must be finite with exp(zeta0) finite, got {text!r}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spheredpp",
        description="Isotropic determinantal point processes on S^1 and S^2",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="coefficient/eigenvalue table for a model")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("simulate", help="draw one exact sample")
    p.add_argument("--model", required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pcf", help="pair correlation curve g0(s)")
    p.add_argument("--model", required=True)
    p.add_argument("--grid", type=_int_at_least(2), default=512)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_pcf)

    p = sub.add_parser("repulsiveness", help="eta, I(g0), slope, curvature")
    p.add_argument("--model", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_repulsiveness)

    p = sub.add_parser("loglik", help="log density of a pattern under a model")
    p.add_argument("--model", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_loglik)

    p = sub.add_parser("mle", help="fit the density-kernel scaling chi")
    p.add_argument("--model", required=True)
    p.add_argument("--pattern", required=True)
    p.add_argument("--zeta0", type=_log_scale, default=0.0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_mle)

    p = sub.add_parser("validate", help="Monte Carlo count-moment check")
    p.add_argument("--model", required=True)
    p.add_argument("--reps", type=_int_at_least(2), required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("project", help="equal-area plot data for an S^2 pattern")
    p.add_argument("--pattern", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_project)

    return parser


def run(argv=None) -> int:
    """Parse and execute; 0 = success, 1 = runtime failure, 2 = usage error."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
