"""``dim``: the closed forms (``closed_forms``), which load no measures;
only ``dim local`` adds the layout and ``measures_dim``, and on a real
base ``beta_shift``, ``roots``, ``numerics`` and ``logarithm``."""

from ..errors import UsageError
from . import _digit_set, _emit, _fraction, _scalar_dict, default_precision


def run(args):
    if args.what == "formula":
        from ..closed_forms import digit_set_scale, dim_formula, dim_formula_sup
        vhat = _fraction(args.vhat)
        cfg = {"cmd": "dim formula", "vhat": args.vhat}
        if args.theta is None:  # the supremum, with or without --sup
            value, theta0 = dim_formula_sup(vhat)
            payload = {"value": str(value), "theta0": None if theta0 is None else str(theta0)}
        else:
            theta = _fraction(args.theta)
            cfg["theta"] = args.theta
            value = dim_formula(theta, vhat)
            payload = {"value": str(value)}
        plain = str(value)
        if args.digit_set is not None:
            from ..numerics import Scalar
            ds = _digit_set(args.digit_set, args.base)
            scale = digit_set_scale(ds, default_precision())
            scaled = scale * Scalar.from_fraction(value)
            payload["scale"] = _scalar_dict(scale)
            payload["scaled_value"] = _scalar_dict(scaled)
            cfg.update({"base": args.base, "digit_set": args.digit_set})
            plain = f"{float(scaled.mid):.10f} * (exact rational factor {value})"
        _emit(args, payload, cfg, plain=plain)
    elif args.what == "local":
        from ..measures_dim import local_dimension_bary, local_dimension_beta
        theta, vhat = _fraction(args.theta), _fraction(args.vhat)
        tol = _fraction(args.tolerance)
        if tol <= 0:  # no trajectory narrows to a width below tol/10 <= 0
            raise UsageError(f"dim local needs --tolerance > 0, got {args.tolerance}")
        bits = default_precision()
        if args.beta is not None:
            from ..beta_shift import BetaSystem
            system = BetaSystem.parse(args.beta, bits)
            rep = local_dimension_beta(system, args.N, theta, vhat, args.stages, tol, bits)
        else:
            base = args.base if args.digit_set is None else _digit_set(args.digit_set, args.base)
            rep = local_dimension_bary(theta, vhat, base, args.stages, tol, bits)
        if args.format == "csv":
            text = rep.to_csv()
            if args.output:
                with open(args.output, "w") as fh:
                    fh.write(text)
            else:
                print(text, end="")
        else:
            _emit(args, rep.to_json_dict(), {"cmd": "dim local", "theta": args.theta,
                                             "vhat": args.vhat, "stages": args.stages,
                                             "beta": args.beta, "base": args.base,
                                             "digit_set": args.digit_set, "N": args.N})
    else:  # s0
        from ..closed_forms import critical_exponent_s0
        theta, vhat, eps = _fraction(args.theta), _fraction(args.vhat), _fraction(args.eps)
        value = critical_exponent_s0(theta, vhat, eps)
        _emit(args, {"s0": str(value)},
              {"cmd": "dim s0", "theta": args.theta, "vhat": args.vhat, "eps": args.eps},
              plain=str(value))
    return 0
