"""Command-line interface.

Every subcommand prints a JSON report to stdout (or a text rendering with
--format human) and a one-line-per-check summary to stderr.  Exit codes:
0 all checks passed, 1 a verification failed, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from itertools import product

from . import forms, geometry, sbbt as sbbt_mod, tangents, tensorform
from .field import make_field
from .geometry import Arc
from .report import Report


def _factor_prime_power(q: int):
    for p in range(2, q + 1):
        if q % p == 0:
            h = 0
            m = q
            while m % p == 0:
                m //= p
                h += 1
            if m != 1:
                raise ValueError(f"q = {q} is not a prime power")
            return p, h
    raise ValueError(f"q = {q} is not a prime power")


def _load_arc(path: str) -> Arc:
    with open(path, encoding="utf-8") as fh:
        return Arc.from_json(json.load(fh))


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _arc_inputs(arc: Arc) -> dict:
    return {"q": arc.gf.q, "k": arc.k, "n": arc.n, "t": arc.t}


# -- subcommand handlers ---------------------------------------------------


def cmd_arc_new(args) -> Report:
    p, h = _factor_prime_power(args.q)
    gf = make_field(p, h)
    if args.type == "nrc":
        arc = geometry.normal_rational_curve(gf, args.k)
    elif args.type == "conic":
        arc = geometry.conic(gf)
    elif args.type == "hyperoval":
        arc = geometry.hyperoval(gf)
    else:
        if not args.points:
            raise ValueError("--type custom requires --points FILE")
        with open(args.points, encoding="utf-8") as fh:
            data = json.load(fh)
        pts = data["points"] if isinstance(data, dict) else data
        arc = geometry.arc_from_points(
            gf, args.k, [[gf.element_from_json(c) for c in p] for p in pts]
        )
    report = Report("arc new", _arc_inputs(arc), [])
    chk = report.check("is-arc")
    ok, witness = geometry.is_arc(arc.gf, arc.k, arc.points)
    chk.tally(ok, {"subset": list(witness)} if witness else None)
    _write_json(args.output, arc.to_json())
    report.notes.append(f"wrote {args.output}")
    return report


def cmd_arc_verify(args) -> Report:
    arc = _load_arc(args.arc)
    report = Report("arc verify", _arc_inputs(arc), [])
    chk = report.check("is-arc")
    ok, witness = geometry.is_arc(arc.gf, arc.k, arc.points)
    chk.tally(ok, {"subset": list(witness)} if witness else None)
    size = report.check("spans")
    size.tally(arc.n >= arc.k, {"n": arc.n, "k": arc.k})
    return report


def cmd_arc_project(args) -> Report:
    arc = _load_arc(args.arc)
    image = geometry.project(arc, args.index)
    report = Report("arc project", _arc_inputs(arc), [])
    chk = report.check("image-is-arc")
    ok, witness = geometry.is_arc(image.gf, image.k, image.points)
    chk.tally(ok, {"subset": list(witness)} if witness else None)
    tchk = report.check("t-preserved")
    tchk.tally(image.t == arc.t, {"t_in": arc.t, "t_out": image.t})
    _write_json(args.output, image.to_json())
    report.notes.append(f"wrote {args.output}")
    return report


def cmd_arc_mds(args) -> Report:
    arc = _load_arc(args.arc)
    report = Report("arc mds", _arc_inputs(arc), [])
    ok, gen, witness = geometry.mds_check(arc)
    chk = report.check("all-maximal-minors-nonzero")
    chk.tally(ok, {"columns": list(witness)} if witness else None)
    report.result = {
        "generator": [[arc.gf.element_to_json(c) for c in row] for row in gen]
    }
    return report


def cmd_phi(args) -> Report:
    arc = _load_arc(args.arc)
    report = Report("phi", {**_arc_inputs(arc), "deg": args.t}, [])
    sub = forms.vanishing_subspace(arc.gf, arc.k, arc.points, args.t)
    chk = report.check("basis-vanishes-on-arc")
    for f in sub.forms():
        chk.tally(forms.vanishes_on(arc.gf, f, arc.points), None)
    report.result = {
        "dim": sub.dim,
        "basis": [forms.form_to_json(arc.gf, f) for f in sub.forms()],
    }
    return report


def cmd_tangents_build(args) -> Report:
    arc = _load_arc(args.arc)
    ts = tangents.build_tangent_system(arc)
    report = Report("tangents build", _arc_inputs(arc), [])
    tangents.verify_scaling_chain(ts, report)
    _write_json(args.output, ts.to_json())
    report.notes.append(f"wrote {args.output}")
    return report


def cmd_tangents_lemma(args) -> Report:
    arc = _load_arc(args.arc)
    report = Report("tangents lemma-check", _arc_inputs(arc), [])
    tangents.verify_tangent_counts(arc, report)
    if not report.passed:
        report.notes.append("tangent counts are off; skipping the system build")
        return report
    ts = tangents.build_tangent_system(arc)
    tangents.verify_scaling_chain(ts, report)
    tangents.verify_lemma_of_tangents(ts, seed=args.seed, report=report)
    return report


def cmd_tensor_build(args) -> Report:
    arc = _load_arc(args.arc)
    ts = tangents.build_tangent_system(arc)
    F = tensorform.build_tensor_form(arc, ts)
    report = Report("tensor build", _arc_inputs(arc), [])
    tensorform.check_signed_evaluations(arc, ts, F, report)
    _write_json(args.output, F.to_json(arc.gf))
    report.notes.append(f"wrote {args.output}")
    return report


def cmd_tensor_verify(args) -> Report:
    arc = _load_arc(args.arc)
    report = Report("tensor verify", _arc_inputs(arc), [])
    ts = tangents.build_tangent_system(arc)
    F = tensorform.build_tensor_form(arc, ts)
    tensorform.verify_tensor_form(arc, ts, F, report)
    if args.search_exact:
        found, _ = tensorform.search_exact_tangent_match(arc, ts, F)
        report.notes.append(
            "a correction by block-vanishing terms making the partial "
            f"evaluations exactly equal the tangent forms {'exists' if found else 'was not found'}"
        )
    return report


def cmd_tensor_extract(args) -> Report:
    arc = _load_arc(args.arc)
    exponents = json.loads(args.exponents)
    ts = tangents.build_tangent_system(arc)
    F = tensorform.build_tensor_form(arc, ts)
    extracted = tensorform.shift_extract(arc.gf, F, exponents)
    report = Report(
        "tensor extract", {**_arc_inputs(arc), "exponents": exponents}, []
    )
    dim = forms.vanishing_subspace(arc.gf, arc.k, arc.points, arc.t).dim
    if dim == 0:
        chk = report.check("extracted-form-vanishes-on-arc")
        chk.tally(forms.vanishes_on(arc.gf, extracted, arc.points), None)
    else:
        report.notes.append(
            f"arc lies on a degree-{arc.t} hypersurface (dim {dim}); "
            "vanishing of extracted forms is not asserted"
        )
    report.result = {"form": forms.form_to_json(arc.gf, extracted)}
    return report


def cmd_tensor_quadric(args) -> Report:
    arc = _load_arc(args.arc)
    report = Report("tensor quadric-check", _arc_inputs(arc), [])
    quad = tensorform.quadric_check(arc)
    chk = report.check("quadric-found")
    chk.tally(quad is not None, {"dim_phi2": 0} if quad is None else None)
    if quad is not None:
        v = report.check("quadric-vanishes-on-arc")
        v.tally(forms.vanishes_on(arc.gf, quad, arc.points), None)
        report.result = {"quadric": forms.form_to_json(arc.gf, quad)}
    return report


def cmd_sbbt_build(args) -> Report:
    arc = _load_arc(args.arc)
    ts = tangents.build_tangent_system(arc)
    sb = sbbt_mod.build_sbbt(arc, ts)
    report = Report("sbbt build", {**_arc_inputs(arc), "m": sb.m}, [])
    chk = report.check("degree")
    chk.tally(sb.phi.t == sb.m * arc.t, {"deg": sb.phi.t})
    _write_json(args.output, sb.to_json(arc.gf))
    report.notes.append(f"wrote {args.output}")
    return report


def cmd_sbbt_verify(args) -> Report:
    arc = _load_arc(args.arc)
    ts = tangents.build_tangent_system(arc)
    sb = sbbt_mod.build_sbbt(arc, ts)
    report = Report("sbbt verify", {**_arc_inputs(arc), "m": sb.m}, [])
    sbbt_mod.verify_sbbt(arc, ts, sb, seed=args.seed, report=report)
    if args.dump_duals:
        report.result = {
            "duals": [
                {
                    "dual": [arc.gf.element_to_json(c) for c in ell],
                    "arc_points_on": on,
                    "phi_value": arc.gf.element_to_json(v),
                }
                for ell, on, v in sbbt_mod.classify_hyperplanes(arc, sb)
            ]
        }
    return report


def cmd_suite(args) -> Report:
    arc = _load_arc(args.arc)
    report = Report("suite", _arc_inputs(arc), [])

    ok, _, witness = geometry.mds_check(arc)
    report.check("is-arc").tally(ok, {"subset": list(witness)} if witness else None)
    report.check("mds-generator").tally(
        ok, {"columns": list(witness)} if witness else None
    )
    if not ok:
        report.notes.append("not an arc; downstream stages skipped")
        return report

    if arc.t < 1:
        report.notes.append("t = 0: tangent, tensor and dual-form stages skipped")
        return report

    tangents.verify_tangent_counts(arc, report)
    ts = tangents.build_tangent_system(arc)
    tangents.verify_scaling_chain(ts, report)
    tangents.verify_lemma_of_tangents(ts, seed=args.seed, report=report)

    F = tensorform.build_tensor_form(arc, ts)
    tensorform.verify_tensor_form(arc, ts, F, report)

    dim = forms.vanishing_subspace(arc.gf, arc.k, arc.points, arc.t).dim
    if dim == 0:
        chk = report.check("shift-extract-forms-vanish-on-arc")
        span = [
            m
            for d in range(arc.t + 1)
            for m in forms.monomial_basis(arc.k, d)
        ]
        for combo in product(span, repeat=arc.k - 2):
            f = tensorform.shift_extract(arc.gf, F, list(combo))
            chk.tally(
                forms.vanishes_on(arc.gf, f, arc.points),
                {"exponents": [list(e) for e in combo]},
            )
    else:
        report.notes.append(
            f"arc lies on a degree-{arc.t} hypersurface (dim {dim}); "
            "shift-extract vanishing not asserted"
        )

    if arc.k == 4 and arc.n == arc.gf.q + 1 and arc.gf.p != 2:
        quad = tensorform.quadric_check(arc)
        qc = report.check("quadric-through-arc")
        qc.tally(
            quad is not None
            and forms.vanishes_on(arc.gf, quad, arc.points),
            None,
        )

    m = 1 if arc.gf.p == 2 else 2
    if arc.n >= m * arc.t + arc.k - 1:
        sb = sbbt_mod.build_sbbt(arc, ts)
        sbbt_mod.verify_sbbt(arc, ts, sb, seed=args.seed, report=report)
    else:
        report.notes.append(
            f"arc too small for the dual form (needs {m * arc.t + arc.k - 1} points)"
        )
    return report


# -- parser ----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="arcforms",
        description="Construct and verify tangent systems, tensor forms and "
        "dual hypersurfaces of arcs over finite fields.",
    )
    parser.add_argument(
        "--format", choices=("human", "json"), default="json",
        help="stdout rendering (default json)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    arc_p = sub.add_parser("arc", help="arc construction and checks")
    arc_sub = arc_p.add_subparsers(dest="subcommand", required=True)

    new_p = arc_sub.add_parser("new")
    new_p.add_argument("--type", choices=("nrc", "conic", "hyperoval", "custom"), required=True)
    new_p.add_argument("--q", type=int, required=True)
    new_p.add_argument("--k", type=int, default=3)
    new_p.add_argument("--points", help="JSON file with point vectors (custom)")
    new_p.add_argument("-o", "--output", required=True)
    new_p.set_defaults(handler=cmd_arc_new)

    verify_p = arc_sub.add_parser("verify")
    verify_p.add_argument("arc")
    verify_p.set_defaults(handler=cmd_arc_verify)

    proj_p = arc_sub.add_parser("project")
    proj_p.add_argument("arc")
    proj_p.add_argument("--index", type=int, required=True)
    proj_p.add_argument("-o", "--output", required=True)
    proj_p.set_defaults(handler=cmd_arc_project)

    mds_p = arc_sub.add_parser("mds")
    mds_p.add_argument("arc")
    mds_p.set_defaults(handler=cmd_arc_mds)

    phi_p = sub.add_parser("phi", help="forms of a given degree vanishing on the arc")
    phi_p.add_argument("arc")
    phi_p.add_argument("--t", type=int, required=True)
    phi_p.set_defaults(handler=cmd_phi)

    tan_p = sub.add_parser("tangents", help="scaled tangent system")
    tan_sub = tan_p.add_subparsers(dest="subcommand", required=True)
    tb = tan_sub.add_parser("build")
    tb.add_argument("arc")
    tb.add_argument("-o", "--output", required=True)
    tb.set_defaults(handler=cmd_tangents_build)
    tl = tan_sub.add_parser("lemma-check")
    tl.add_argument("arc")
    tl.add_argument("--seed", type=int, default=0)
    tl.set_defaults(handler=cmd_tangents_lemma)

    ten_p = sub.add_parser("tensor", help="the multihomogeneous tensor form")
    ten_sub = ten_p.add_subparsers(dest="subcommand", required=True)
    teb = ten_sub.add_parser("build")
    teb.add_argument("arc")
    teb.add_argument("-o", "--output", required=True)
    teb.set_defaults(handler=cmd_tensor_build)
    tev = ten_sub.add_parser("verify")
    tev.add_argument("arc")
    tev.add_argument(
        "--search-exact", action="store_true",
        help="also search for a block-vanishing correction making the "
        "tangent-form match exact",
    )
    tev.set_defaults(handler=cmd_tensor_verify)
    tex = ten_sub.add_parser("extract")
    tex.add_argument("arc")
    tex.add_argument("--exponents", required=True, help="JSON list of k-2 exponent tuples")
    tex.set_defaults(handler=cmd_tensor_extract)
    teq = ten_sub.add_parser("quadric-check")
    teq.add_argument("arc")
    teq.set_defaults(handler=cmd_tensor_quadric)

    sb_p = sub.add_parser("sbbt", help="the dual hypersurface form")
    sb_sub = sb_p.add_subparsers(dest="subcommand", required=True)
    sbb = sb_sub.add_parser("build")
    sbb.add_argument("arc")
    sbb.add_argument("-o", "--output", required=True)
    sbb.set_defaults(handler=cmd_sbbt_build)
    sbv = sb_sub.add_parser("verify")
    sbv.add_argument("arc")
    sbv.add_argument("--seed", type=int, default=0)
    sbv.add_argument("--dump-duals", action="store_true")
    sbv.set_defaults(handler=cmd_sbbt_verify)

    suite_p = sub.add_parser("suite", help="run every applicable verifier")
    suite_p.add_argument("arc")
    suite_p.add_argument("--seed", type=int, default=0)
    suite_p.set_defaults(handler=cmd_suite)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    start = time.monotonic()
    try:
        report = args.handler(args)
    except (
        ValueError,
        IndexError,
        OSError,
        KeyError,
        json.JSONDecodeError,
        tangents.TangentCountError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report.elapsed_ms = int((time.monotonic() - start) * 1000)
    print(report.summary(), file=sys.stderr)
    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.summary())
    return 0 if report.passed else 1


if __name__ == "__main__":
    sys.exit(main())
