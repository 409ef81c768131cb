"""Command-line interface.

Exit codes: 0 success / all checks pass, 1 audit failure or violated
mathematical hypothesis, 2 usage or parse error or an input over a size
budget (``errors.OverBudget``).  All output is
deterministic given the inputs and ``--seed``; ``--json`` writes the
machine-readable record.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

# Only what every command needs is imported here; each ``_cmd_*`` imports
# the modules it uses, so a process loads just its subcommand's share of the
# package: ``audit`` only for ``audit``, ``avg`` and ``scc`` (through
# ``averages``).
from .errors import HypothesisViolated, OverBudget, ParseError, SupportTooLarge, TsirelsonError
from .scalars import parse_scalar, render_scalar


def _load_space(args):
    from . import spaces

    name = args.space
    arithmetic = getattr(args, "arithmetic", None)
    try:
        spec = spaces.preset(name)
    except ValueError as exc:
        if not os.path.exists(name):
            raise ValueError(f"{exc}, and no space file {name!r}") from None
        # the override is applied while the file is parsed: a rational
        # default would refuse irrational weights before it could win
        with open(name, "r", encoding="utf-8") as fh:
            return spaces.parse_space_config(fh.read(), arithmetic)
    if arithmetic:
        spec = spec.replace(arithmetic=arithmetic)
    return spec


def _load_vector(path: str, spec):
    from .vectors import parse_vector

    with open(path, "r", encoding="utf-8") as fh:
        return parse_vector(fh.read(), spec.arithmetic)


def _emit(args, payload: dict, text: str) -> None:
    print(text)
    if getattr(args, "json", None):
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, indent=1)
            fh.write("\n")


def _norm_of(args):
    """The norm of the vector file, refused above the support bound before
    the fill starts."""
    from .norm import NORM_SUPPORT_BOUND, norm as compute_norm

    spec = _load_space(args)
    x = _load_vector(args.vector, spec)
    if len(x) > NORM_SUPPORT_BOUND:
        raise SupportTooLarge(
            f"the vector has {len(x)} support points; norm and witness handle "
            f"up to {NORM_SUPPORT_BOUND}"
        )
    return compute_norm(spec, x)


def _cmd_norm(args) -> int:
    payload = _norm_of(args).as_dict()
    _emit(args, payload, f"norm = {payload['value']}\nwitness = {payload['witness']}")
    return 0


def _cmd_witness(args) -> int:
    from .trees import format_functional

    result = _norm_of(args)
    _emit(args, result.as_dict(), format_functional(result.witness))
    return 0


def _cmd_family(args) -> int:
    from . import families

    fam = families.parse_family(args.family)
    if args.family_cmd == "member":
        elems = _parse_set(args.set)
        verdict = families.is_member(fam, elems)
        _emit(args, {"member": verdict}, "true" if verdict else "false")
        return 0
    if args.family_cmd == "admissible":
        sets = [_parse_set(s) for s in args.sets.split(";")]
        verdict = families.is_admissible(fam, sets)
        _emit(args, {"admissible": verdict}, "true" if verdict else "false")
        return 0
    if args.family_cmd == "decompose":
        elems = _parse_set(args.set)
        witness = families.decompose(fam, elems)
        if witness is None:
            _emit(args, {"member": False}, "not a member")
            return 1
        pieces = [list(p) for p in witness.piece_sets()]
        _emit(args, {"member": True, "pieces": pieces}, f"pieces = {pieces}")
        return 0
    # maxweight, the last subcommand the parser admits
    weights = {}
    for part in args.weights.split(","):
        coord, _, w = part.partition(":")
        weights[int(coord)] = parse_scalar(w)
    subset, value = families.max_weight_subset(fam, weights)
    payload = {"set": list(subset), "value": render_scalar(value)}
    _emit(args, payload, f"set = {list(subset)} value = {render_scalar(value)}")
    return 0


def _parse_set(text: str):
    return tuple(int(t) for t in text.split(",") if t.strip())


def _cmd_regularize(args) -> int:
    from . import spaces

    spec = _load_space(args)
    if spec.kind == spaces.SINGLE:
        raise ParseError(
            f"regularize needs an A- or S-ladder weight sequence; {args.space} "
            "is a single-family space with one weight"
        )
    mode = spaces.PRODUCT if spec.kind == spaces.A_TYPE else spaces.SUM
    if args.mode:
        mode = args.mode
    values = spaces.regularize(spec.thetas, mode, args.horizon, spec.arithmetic)
    rendered = [render_scalar(v) for v in values]
    _emit(args, {"mode": mode, "theta_hat": rendered}, "\n".join(rendered))
    return 0


def _cmd_scc(args) -> int:
    from . import averages

    if args.scc_cmd == "build":
        scc = averages.build_scc(args.level, parse_scalar(args.epsilon), args.start)
        payload = {
            "j": scc.j,
            "epsilon": render_scalar(scc.epsilon),
            "support": list(scc.support),
            "coefficients": [render_scalar(a) for a in scc.coefficients],
        }
        _emit(args, payload, f"support = {list(scc.support)} a = {payload['coefficients'][0]}")
        return 0
    with open(args.input, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    try:
        scc = averages.SCC(
            data["j"],
            Fraction(data["epsilon"]),
            tuple(data["support"]),
            tuple(Fraction(a) for a in data["coefficients"]),
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        message = f"not a special convex combination: {type(exc).__name__}: {exc}"
        raise ParseError(message) from None
    if not isinstance(scc.j, int) or len(scc.support) != len(scc.coefficients):
        raise ParseError("j must be an integer, with one coefficient per support point")
    verdict = averages.check_scc(scc)
    _emit(args, {"valid": verdict}, "valid" if verdict else "invalid")
    return 0 if verdict else 1


def _cmd_split(args) -> int:
    from . import functionals

    spec = _load_space(args)
    if spec.inner_ak is None:
        raise HypothesisViolated("split needs a space with inner_ak")
    f = functionals.parse_functional(args.functional)
    parts = functionals.split_xk(spec, f)
    rendered = [functionals.format_functional(p) for p in parts]
    _emit(args, {"parts": rendered}, "\n".join(rendered))
    return 0


def _cmd_comparable(args) -> int:
    from . import functionals

    spec = _load_space(args)
    f = functionals.parse_functional(args.functional)
    blocks = [_load_vector(path, spec) for path in args.blocks]
    result = functionals.make_comparable(spec, f, blocks)
    _emit(
        args,
        {"functional": functionals.format_functional(result)},
        functionals.format_functional(result),
    )
    return 0


def _cmd_audit(args) -> int:
    from . import audit

    suite = args.suite
    if suite == "sch1":
        report = audit.audit_sch1_grid(ground=args.ground)
    elif suite == "l3":
        report = audit.audit_l3(args.level, args.trials, args.seed)
    elif suite == "pest":
        spec = _load_space(args)
        report = audit.audit_pest(spec, args.trials, args.seed)
    elif suite == "kriv":
        spec = _load_space(args)
        report = audit.audit_kriv(spec, args.count, args.r, args.seed)
    elif suite == "avg":
        from . import averages

        spec = _load_space(args)
        if args.avg_cmd == "build":
            tree = _averaging_tree(args, spec, leaf_budget=args.leaf_budget)
            if args.out:
                with open(args.out, "w", encoding="utf-8") as fh:
                    json.dump(averages.tree_to_dict(tree), fh, sort_keys=True)
                    fh.write("\n")
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                tree = averages.tree_from_dict(json.load(fh), exact=spec.exact)
        report = averages.check_averaging_tree(spec, tree)
    elif suite == "tav":
        from . import averages

        spec = _load_space(args)
        report = averages.audit_tav(spec, _averaging_tree(args, spec), parse_scalar(args.delta))
    else:  # domination, the last suite the parser admits
        spec = _load_space(args)
        ys = [_load_vector(p, spec) for p in args.ys]
        zs = [_load_vector(p, spec) for p in args.zs]
        est = audit.estimate_domination(spec, ys, zs, args.trials, args.seed)
        row = audit.AuditRow("estimate", {"estimate": est}, None)
        params = {"trials": args.trials}
        report = audit.AuditReport("domination", params, (row,), args.seed)
    _emit(args, report.to_dict(), report.table())
    return 0 if report.all_pass else 1


def _averaging_tree(args, spec, **leaf_budget):
    """The averaging tree of ``avg build`` and ``audit tav`` over the basis
    pool; ``audit tav`` passes no leaf budget and keeps the library's."""
    from . import averages

    return averages.build_averaging_tree(
        spec,
        averages.basis_pool(),
        args.levels,
        parse_scalar(args.epsilon),
        relaxed_scale=args.relaxed,
        **leaf_budget,
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsirelson",
        description="norms, functionals and constructions in mixed Tsirelson spaces",
    )
    json_help = "write machine-readable output to this path"
    parser.add_argument("--json", help=json_help)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--arithmetic", choices=["rational", "float64"])
    sub = parser.add_subparsers(dest="command", required=True)
    # Every subcommand also takes --json, and the seeded audits --seed, after
    # its name.  SUPPRESS leaves an option that is not given out of the
    # subcommand's namespace, so it cannot overwrite the global value.
    with_json = argparse.ArgumentParser(add_help=False)
    with_json.add_argument("--json", default=argparse.SUPPRESS, help=json_help)
    with_seed = argparse.ArgumentParser(add_help=False, parents=[with_json])
    with_seed.add_argument("--seed", type=int, default=argparse.SUPPRESS)

    p_norm = sub.add_parser(
        "norm", help="norm of a vector with witness", parents=[with_json]
    )
    p_norm.add_argument("--space", required=True)
    p_norm.add_argument("--vector", required=True)
    p_norm.set_defaults(func=_cmd_norm)

    p_wit = sub.add_parser(
        "witness", help="print the witness functional only", parents=[with_json]
    )
    p_wit.add_argument("--space", required=True)
    p_wit.add_argument("--vector", required=True)
    p_wit.set_defaults(func=_cmd_witness)

    p_fam = sub.add_parser("family", help="family membership and relatives")
    fam_sub = p_fam.add_subparsers(dest="family_cmd", required=True)
    for name in ("member", "decompose"):
        q = fam_sub.add_parser(name, parents=[with_json])
        q.add_argument("--family", required=True)
        q.add_argument("--set", required=True)
        q.set_defaults(func=_cmd_family)
    q = fam_sub.add_parser("admissible", parents=[with_json])
    q.add_argument("--family", required=True)
    q.add_argument("--sets", required=True, help="semicolon-separated sets")
    q.set_defaults(func=_cmd_family)
    q = fam_sub.add_parser("maxweight", parents=[with_json])
    q.add_argument("--family", required=True)
    q.add_argument("--weights", required=True, help="coord:weight,coord:weight,...")
    q.set_defaults(func=_cmd_family)

    p_reg = sub.add_parser(
        "regularize", help="regularized weight sequence", parents=[with_json]
    )
    p_reg.add_argument("--space", required=True)
    p_reg.add_argument("--horizon", type=int, required=True)
    p_reg.add_argument("--mode", choices=["product", "sum"])
    p_reg.set_defaults(func=_cmd_regularize)

    p_scc = sub.add_parser("scc", help="special convex combinations")
    scc_sub = p_scc.add_subparsers(dest="scc_cmd", required=True)
    q = scc_sub.add_parser("build", parents=[with_json])
    q.add_argument("--level", type=int, required=True)
    q.add_argument("--epsilon", required=True)
    q.add_argument("--start", type=int, default=1)
    q.set_defaults(func=_cmd_scc)
    q = scc_sub.add_parser("check", parents=[with_json])
    q.add_argument("--input", required=True, help="JSON file with the candidate")
    q.set_defaults(func=_cmd_scc)

    p_avg = sub.add_parser("avg", help="averaging trees")
    avg_sub = p_avg.add_subparsers(dest="avg_cmd", required=True)
    q = avg_sub.add_parser("build", parents=[with_json])
    q.add_argument("--space", required=True)
    q.add_argument("--levels", type=int, required=True)
    q.add_argument("--epsilon", required=True)
    q.add_argument("--relaxed", type=int)
    q.add_argument("--leaf-budget", type=int, default=100_000)
    q.add_argument("--out", help="serialize the tree to this JSON path")
    q.set_defaults(func=_cmd_audit, suite="avg")
    q = avg_sub.add_parser("check", parents=[with_json])
    q.add_argument("--space", required=True)
    q.add_argument("--input", required=True, help="tree JSON from avg build --out")
    q.set_defaults(func=_cmd_audit, suite="avg")

    p_split = sub.add_parser(
        "split", help="split an auxiliary-space functional", parents=[with_json]
    )
    p_split.add_argument("--space", required=True)
    p_split.add_argument("--functional", required=True)
    p_split.set_defaults(func=_cmd_split)

    p_cmp = sub.add_parser(
        "comparable", help="rewrite comparably with blocks", parents=[with_json]
    )
    p_cmp.add_argument("--space", required=True)
    p_cmp.add_argument("--functional", required=True)
    p_cmp.add_argument("--blocks", nargs="+", required=True)
    p_cmp.set_defaults(func=_cmd_comparable)

    p_audit = sub.add_parser("audit", help="quantitative bound audits")
    audit_sub = p_audit.add_subparsers(dest="suite", required=True)
    q = audit_sub.add_parser("sch1", parents=[with_json])
    q.add_argument("--ground", type=int, default=12)
    q.set_defaults(func=_cmd_audit, suite="sch1")
    q = audit_sub.add_parser("l3", parents=[with_seed])
    q.add_argument("--level", type=int, default=2)
    q.add_argument("--trials", type=int, default=100)
    q.set_defaults(func=_cmd_audit, suite="l3")
    q = audit_sub.add_parser("pest", parents=[with_seed])
    q.add_argument("--space", default="tzafriri:1/2")
    q.add_argument("--trials", type=int, default=100)
    q.set_defaults(func=_cmd_audit, suite="pest")
    q = audit_sub.add_parser("kriv", parents=[with_seed])
    q.add_argument("--space", default="tzafriri:1/2")
    q.add_argument("--count", type=int, default=1, help="number of blocks N")
    q.add_argument("--r", type=int, default=1)
    q.set_defaults(func=_cmd_audit, suite="kriv")
    q = audit_sub.add_parser("tav", parents=[with_json])
    q.add_argument("--space", default="geometric-s:1/2")
    q.add_argument("--levels", type=int, default=1)
    q.add_argument("--epsilon", default="1/2")
    q.add_argument("--delta", default="1/2")
    q.add_argument("--relaxed", type=int)
    q.set_defaults(func=_cmd_audit, suite="tav")
    q = audit_sub.add_parser("domination", parents=[with_seed])
    q.add_argument("--space", required=True)
    q.add_argument("--ys", nargs="+", required=True)
    q.add_argument("--zs", nargs="+", required=True)
    q.add_argument("--trials", type=int, default=50)
    q.set_defaults(func=_cmd_audit, suite="domination")

    return parser


def run(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (ParseError, ValueError, OverBudget) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 1
    except TsirelsonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
