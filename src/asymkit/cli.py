"""Command-line front end.

One subcommand per library operation; inputs are JSON files, output is a
single deterministic JSON report on stdout (or an aligned table with
``--format table``).  Exit codes: 0 success, 2 validation error, 3 numerical
degeneracy.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import jsonio
from .approx import max_overlap
from .bochner import gns_construct, is_positive_definite
from .channels import (
    embed_channel,
    is_g_covariant,
    twirl_channel,
    uniform_twirl_over_subgroup,
)
from .equivalence import (
    decide_g_equivalence,
    decide_unitary_g_equivalence,
    u1_shift_equivalence,
)
from .errors import NumericalDegeneracyError, ValidationError
from .groups import (
    direct_product,
    group_from_json,
    group_to_json,
    make_cyclic,
    make_dihedral,
    make_symmetric,
)
from .reps import decompose, regular_rep
from .states import charfunc, fourier_inverse, reduction_onto_irreps

_MAKERS = {
    "cyclic": make_cyclic,
    "dihedral": make_dihedral,
    "symmetric": make_symmetric,
}


def _load_file(path: str, parse, *extra):
    """Read one JSON input file and build an object from it as ``parse(obj, *extra)``.

    A missing file, malformed JSON, or content the parser rejects (a missing key, a
    value of the wrong type, a broken invariant) raises ValidationError naming the file.
    """
    try:
        with open(path) as fh:
            obj = json.load(fh)
        return parse(obj, *extra)
    except FileNotFoundError:
        raise ValidationError(f"input file not found: {path}")
    except (KeyError, TypeError, ValueError, AttributeError, ValidationError) as exc:
        raise ValidationError(f"malformed input in {path}: {exc!r}") from exc


def _load_group(args) -> "GroupTable":
    if getattr(args, "make", None):
        return _make_group(args.make)
    if args.group is None:
        raise ValidationError("this command needs --group FILE (or --make NAME:N)")
    return _load_file(args.group, group_from_json)


def _make_group(spec: str):
    if spec == "klein":
        z2 = make_cyclic(2)
        return direct_product(z2, make_cyclic(2))
    name, _, arg = spec.partition(":")
    if name not in _MAKERS or not arg:
        raise ValidationError(
            f"unknown group spec {spec!r}; use cyclic:N, dihedral:N, symmetric:N or klein"
        )
    try:
        n = int(arg)
    except ValueError:
        raise ValidationError(f"group spec parameter must be an integer, got {arg!r}")
    return _MAKERS[name](n)


def _load_rep(args):
    if args.rep is not None:
        def parse(obj):
            group = None
            if "group" not in obj and (args.group or getattr(args, "make", None)):
                group = _load_group(args)
            return jsonio.rep_from_json(obj, group)

        return _load_file(args.rep, parse)
    if args.group is not None or getattr(args, "make", None):
        return regular_rep(_load_group(args))
    raise ValidationError("this command needs --rep FILE, or --group FILE for the regular action")


def _load_states(args, count: int, parse):
    paths = args.state or []
    if len(paths) != count:
        raise ValidationError(f"this command needs exactly {count} --state file(s)")
    return [_load_file(p, parse) for p in paths]


def _load_channel(args):
    if args.channel is None:
        raise ValidationError("this command needs --channel FILE")
    return _load_file(args.channel, jsonio.channel_from_json)


# -- command handlers: each returns the result payload ------------------------


def _cmd_group(args):
    g = _load_group(args)
    return {
        "group": group_to_json(g),
        "abelian": g.is_abelian,
        "conjugacy_classes": g.conjugacy_classes(),
        "inverses": g.inv.tolist(),
    }


def _cmd_decompose(args):
    rep = _load_rep(args)
    dec = decompose(rep, seed=args.seed)
    return {
        "summary": [{"label": b.label, "dim": b.dim, "mult": b.mult} for b in dec.blocks],
        "decomposition": jsonio.decomposition_to_json(dec),
        "residual": dec._residual,
    }


def _cmd_charfunc(args):
    rep = _load_rep(args)
    (state,) = _load_states(args, 1, jsonio.state_from_json)
    return {"charfunc": jsonio.report_to_json(charfunc(state, rep))}


def _cmd_reduce(args):
    rep = _load_rep(args)
    (state,) = _load_states(args, 1, jsonio.state_from_json)
    dec = decompose(rep, seed=args.seed)
    red = reduction_onto_irreps(state, dec)
    return {"reduction": jsonio.reduction_to_json(red)}


def _cmd_fourier(args):
    rep = _load_rep(args)
    if args.func is None:
        raise ValidationError("fourier needs --func FILE")
    dec = decompose(rep, seed=args.seed)
    f = _load_file(args.func, jsonio.func_from_json, rep.group)
    red = fourier_inverse(f, dec)
    return {"reduction": jsonio.reduction_to_json(red)}


def _cmd_uequiv(args):
    rep = _load_rep(args)
    psi, phi = _load_states(args, 2, jsonio.state_from_json)
    dec = decompose(rep, seed=args.seed)
    tol = 1e-8 if args.tol is None else args.tol
    verdict = decide_unitary_g_equivalence(psi, phi, dec, tol=tol)
    return {"verdict": jsonio.report_to_json(verdict)}


def _cmd_equiv(args):
    rep = _load_rep(args)
    psi, phi = _load_states(args, 2, jsonio.state_from_json)
    verdict = decide_g_equivalence(psi, phi, rep)
    return {"verdict": jsonio.report_to_json(verdict)}


def _cmd_u1shift(args):
    w1, w2 = _load_states(args, 2, jsonio.weight_state_from_json)
    delta = u1_shift_equivalence(w1, w2)
    return {"shift": delta, "equivalent": delta is not None}


def _cmd_overlap(args):
    rep = _load_rep(args)
    psi, phi = _load_states(args, 2, jsonio.state_from_json)
    dec = decompose(rep, seed=args.seed)
    report = max_overlap(psi, phi, dec)
    return {"overlap": jsonio.report_to_json(report)}


def _cmd_bochner(args):
    g = _load_group(args)
    if args.func is None:
        raise ValidationError("bochner needs --func FILE")
    f = _load_file(args.func, jsonio.func_from_json, g)
    dec = decompose(regular_rep(g), seed=args.seed)
    report = is_positive_definite(f, dec, tol=args.tol)
    return {"bochner": jsonio.report_to_json(report)}


def _cmd_gns(args):
    g = _load_group(args)
    if args.func is None:
        raise ValidationError("gns needs --func FILE")
    f = _load_file(args.func, jsonio.func_from_json, g)
    return {"gns": jsonio.report_to_json(gns_construct(f))}


def _cmd_covcheck(args):
    c = _load_channel(args)
    r_in = _load_rep(args)
    r_out = _load_file(args.rep_out, jsonio.rep_from_json, r_in.group) if args.rep_out else r_in
    check = is_g_covariant(c, r_in, r_out, tol=1e-8 if args.tol is None else args.tol)
    return jsonio.report_to_json(check)


def _cmd_twirl(args):
    rep = _load_rep(args)
    if args.subgroup is not None:
        try:
            elements = [int(x) for x in args.subgroup.split(",") if x.strip() != ""]
        except ValueError:
            raise ValidationError(f"--subgroup needs comma-separated indices: {args.subgroup!r}")
        out = uniform_twirl_over_subgroup(rep, elements)
    else:
        out = twirl_channel(_load_channel(args), rep)
    return {"channel": jsonio.report_to_json(out)}


def _cmd_embed(args):
    c = _load_channel(args)
    r_in = _load_rep(args)
    if args.rep_out is None:
        raise ValidationError("embed needs --rep-out FILE for the output-space action")
    r_out = _load_file(args.rep_out, jsonio.rep_from_json, r_in.group)
    out = embed_channel(c, r_in, r_out)
    return {"channel": jsonio.report_to_json(out)}


_HANDLERS = {
    "group": _cmd_group,
    "decompose": _cmd_decompose,
    "charfunc": _cmd_charfunc,
    "reduce": _cmd_reduce,
    "fourier": _cmd_fourier,
    "uequiv": _cmd_uequiv,
    "equiv": _cmd_equiv,
    "u1shift": _cmd_u1shift,
    "overlap": _cmd_overlap,
    "bochner": _cmd_bochner,
    "gns": _cmd_gns,
    "covcheck": _cmd_covcheck,
    "twirl": _cmd_twirl,
    "embed": _cmd_embed,
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one: do not modify it."""
    parser = argparse.ArgumentParser(
        prog="asymkit",
        description="Symmetry analysis for finite groups: decompositions, "
        "characteristic functions, equivalence of states, covariant channels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--group", help="group JSON file")
        p.add_argument("--make", help="built-in group: cyclic:N, dihedral:N, symmetric:N, klein")
        p.add_argument("--rep", help="representation JSON file")
        p.add_argument("--rep-out", dest="rep_out", help="output-space representation JSON file")
        p.add_argument("--state", action="append", help="state JSON file (repeatable)")
        p.add_argument("--func", help="group-function JSON file")
        p.add_argument("--channel", help="channel JSON file")
        p.add_argument("--subgroup", help="comma-separated element indices")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--format", choices=("json", "table"), default="json")
    return parser


def _render_table(obj, indent: int = 0, out=None):
    pad = "  " * indent
    if isinstance(obj, dict):
        width = max((len(str(k)) for k in obj), default=0)
        for k, v in obj.items():
            if isinstance(v, (dict, list)):
                print(f"{pad}{k}:", file=out)
                _render_table(v, indent + 1, out)
            else:
                print(f"{pad}{str(k).ljust(width)}  {_fmt(v)}", file=out)
    elif isinstance(obj, list):
        if obj and all(isinstance(x, (int, float)) for x in obj):
            print(pad + "  ".join(_fmt(x) for x in obj), file=out)
        elif (
            obj
            and all(isinstance(x, list) and len(x) == 2 for x in obj)
            and all(isinstance(y, (int, float)) for x in obj for y in x)
        ):
            print(pad + "  ".join(f"{x[0]:.12g}{x[1]:+.12g}j" for x in obj), file=out)
        else:
            for x in obj:
                _render_table(x, indent, out)
    else:
        print(pad + _fmt(obj), file=out)


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result = _HANDLERS[args.command](args)
    except ValidationError as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 2
    except NumericalDegeneracyError as exc:
        print(f"numerical degeneracy: {exc}", file=sys.stderr)
        return 3
    report = {"command": args.command, "seed": args.seed, "result": result}
    if args.format == "table":
        _render_table(jsonio.listed(report))
    else:
        print(jsonio.canonical_dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
