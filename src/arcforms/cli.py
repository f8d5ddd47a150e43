"""Command-line interface.

Every subcommand prints a JSON report to stdout (or a text rendering with
--format human) and a one-line-per-check summary to stderr.  Exit codes:
0 all checks passed, 1 a verification failed, 2 usage or input error.

``main`` builds or loads the arc and opens the report; each handler is
called as ``handler(pipeline, args, report)``, reads the stages it needs
from the lazy ``Pipeline``, adds to the report and returns the JSON
artifact for ``-o`` (``main`` writes it and notes the path) or ``None``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cached_property
from itertools import product

from . import forms, geometry, linalg, sbbt as sbbt_mod, tangents, tensorform
from .field import make_field
from .geometry import Arc
from .report import Report

# `phi --t` materialises a nullspace basis of at least (N - n)·N entries,
# N = C(k+t-1, t), and refuses more than this many.  On a 2-vCPU x86 host
# (Python 3.11) the q=7 twisted cubic took 10 s and 35 MiB at t = 12
# (2.0·10^5 entries) and 22 s and 60 MiB at t = 14 (4.6·10^5).
PHI_MAX_BASIS = 250_000


def _factor_prime_power(q: int):
    p = next((p for p in range(2, q + 1) if q % p == 0), None)
    h = next((h for h in range(1, q.bit_length()) if p and p**h == q), None)
    if h is None:
        raise ValueError(f"q = {q} is not a prime power")
    return p, h


def _new_arc(args) -> Arc:
    p, h = _factor_prime_power(args.q)
    gf = make_field(p, h)
    if args.type != "custom" and args.points is not None:
        raise ValueError(f"--points is only read with --type custom, not {args.type}")
    if args.type in ("conic", "hyperoval") and args.k != 3:
        raise ValueError(f"a {args.type} is a plane arc: --k must be 3, got {args.k}")
    if args.type == "nrc":
        return geometry.normal_rational_curve(gf, args.k)
    if args.type == "conic":
        return geometry.conic(gf)
    if args.type == "hyperoval":
        return geometry.hyperoval(gf)
    if not args.points:
        raise ValueError("--type custom requires --points FILE")
    with open(args.points, encoding="utf-8") as fh:
        data = json.load(fh)
    pts = data["points"] if isinstance(data, dict) else data
    arc = Arc.from_json({"field": gf.to_json(), "k": args.k, "points": pts})
    geometry.check_arc(arc)
    return arc


def _load_arc(path: str) -> Arc:
    with open(path, encoding="utf-8") as fh:
        return Arc.from_json(json.load(fh))


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


class Pipeline:
    """arc -> scaled tangent system -> tensor form F -> dual form phi, each
    stage built on first use and kept.  Builders are called through their
    module (``tangents.build_tangent_system``), so a tracer that replaces a
    module's functions sees every build."""

    def __init__(self, arc: Arc):
        self.arc = arc

    @cached_property
    def ts(self) -> tangents.TangentSystem:
        return tangents.build_tangent_system(self.arc)

    @cached_property
    def F(self) -> tensorform.MultiForm:
        return tensorform.build_tensor_form(self.arc, self.ts)

    @cached_property
    def sb(self) -> sbbt_mod.SBBTForm:
        return sbbt_mod.build_sbbt(self.arc, self.ts)

    @cached_property
    def phi_dim(self) -> int:
        """Dimension of the degree-t forms vanishing on the arc: N minus
        the rank of the arc's n×N Veronese matrix."""
        arc = self.arc
        rows = [forms.veronese(arc.gf, x, arc.t) for x in arc.points]
        return forms.num_monomials(arc.k, arc.t) - linalg.rank(arc.gf, rows)


def _tally_is_arc(report: Report, name: str, arc: Arc) -> None:
    ok, witness = geometry.is_arc(arc.gf, arc.k, arc.points)
    report.check(name).tally(ok, {"subset": list(witness)} if witness else None)


def _on_hypersurface(pipeline: Pipeline, report: Report, unasserted: str) -> bool:
    """Whether the arc lies on a degree-t hypersurface; if so, note what is ``unasserted``."""
    dim, t = pipeline.phi_dim, pipeline.arc.t
    if dim:
        report.notes.append(f"arc lies on a degree-{t} hypersurface (dim {dim}); {unasserted}")
    return dim > 0


# -- subcommand handlers ---------------------------------------------------


def cmd_arc_new(pipeline, args, report):
    _tally_is_arc(report, "is-arc", pipeline.arc)
    return pipeline.arc.to_json()


def cmd_arc_verify(pipeline, args, report):
    arc = pipeline.arc
    _tally_is_arc(report, "is-arc", arc)
    report.check("spans").tally(arc.n >= arc.k, {"n": arc.n, "k": arc.k})


def cmd_arc_project(pipeline, args, report):
    image = geometry.project(pipeline.arc, args.index)
    _tally_is_arc(report, "image-is-arc", image)
    t = pipeline.arc.t
    report.check("t-preserved").tally(image.t == t, {"t_in": t, "t_out": image.t})
    return image.to_json()


def cmd_arc_mds(pipeline, args, report):
    arc = pipeline.arc
    ok, gen, witness = geometry.mds_check(arc)
    chk = report.check("all-maximal-minors-nonzero")
    chk.tally(ok, {"columns": list(witness)} if witness else None)
    report.result = {"generator": [[arc.gf.element_to_json(c) for c in row] for row in gen]}


def cmd_phi(pipeline, args, report):
    arc = pipeline.arc
    report.inputs["deg"] = args.t
    N = forms.num_monomials(arc.k, args.t)
    if (N - arc.n) * N > PHI_MAX_BASIS:
        raise ValueError(
            f"phi --t {args.t}: (N - n)·N = {(N - arc.n) * N} basis entries > {PHI_MAX_BASIS}"
        )
    sub = forms.vanishing_subspace(arc.gf, arc.k, arc.points, args.t)
    chk = report.check("basis-vanishes-on-arc")
    for f in sub.forms():
        chk.tally(forms.vanishes_on(arc.gf, f, arc.points), None)
    report.result = {
        "dim": sub.dim,
        "basis": [forms.form_to_json(arc.gf, f) for f in sub.forms()],
    }


def cmd_tangents_build(pipeline, args, report):
    tangents.verify_scaling_chain(pipeline.ts, report)
    return pipeline.ts.to_json()


def cmd_tangents_lemma(pipeline, args, report):
    tangents.verify_tangent_counts(pipeline.arc, report)
    if not report.passed:
        report.notes.append("tangent counts are off; skipping the system build")
        return
    tangents.verify_scaling_chain(pipeline.ts, report)
    tangents.verify_lemma_of_tangents(pipeline.ts, seed=args.seed, report=report)


def cmd_tensor_build(pipeline, args, report):
    arc = pipeline.arc
    tensorform.check_signed_evaluations(arc, pipeline.ts, pipeline.F, report)
    return pipeline.F.to_json(arc.gf)


def cmd_tensor_verify(pipeline, args, report):
    arc, ts, F = pipeline.arc, pipeline.ts, pipeline.F
    tensorform.verify_tensor_form(arc, ts, F, report)
    if args.search_exact:
        found, _ = tensorform.search_exact_tangent_match(arc, ts, F)
        report.notes.append(
            "a correction by block-vanishing terms making the partial "
            f"evaluations exactly equal the tangent forms {'exists' if found else 'was not found'}"
        )


def cmd_tensor_extract(pipeline, args, report):
    arc = pipeline.arc
    exponents = json.loads(args.exponents)
    extracted = tensorform.shift_extract(arc.gf, pipeline.F, exponents)
    report.inputs["exponents"] = exponents
    if not _on_hypersurface(pipeline, report, "vanishing of extracted forms is not asserted"):
        chk = report.check("extracted-form-vanishes-on-arc")
        chk.tally(forms.vanishes_on(arc.gf, extracted, arc.points), None)
    report.result = {"form": forms.form_to_json(arc.gf, extracted)}


def cmd_tensor_quadric(pipeline, args, report):
    arc = pipeline.arc
    quad = tensorform.quadric_check(arc)
    report.check("quadric-found").tally(quad is not None, {"dim_phi2": 0} if quad is None else None)
    if quad is not None:
        ok = forms.vanishes_on(arc.gf, quad, arc.points)
        report.check("quadric-vanishes-on-arc").tally(ok, None)
        report.result = {"quadric": forms.form_to_json(arc.gf, quad)}


def cmd_sbbt_build(pipeline, args, report):
    arc, sb = pipeline.arc, pipeline.sb
    report.inputs["m"] = sb.m
    report.check("degree").tally(sb.phi.t == sb.m * arc.t, {"deg": sb.phi.t})
    return sb.to_json(arc.gf)


def cmd_sbbt_verify(pipeline, args, report):
    arc, sb = pipeline.arc, pipeline.sb
    report.inputs["m"] = sb.m
    sbbt_mod.verify_sbbt(arc, pipeline.ts, sb, seed=args.seed, report=report)
    if args.dump_duals:
        gf = arc.gf
        report.result = {"duals": [
            {"dual": [gf.element_to_json(c) for c in ell], "arc_points_on": on,
             "phi_value": gf.element_to_json(v)}
            for ell, on, v in sbbt_mod.classify_hyperplanes(arc, sb)
        ]}


def cmd_suite(pipeline, args, report):
    arc = pipeline.arc
    ok, _, witness = geometry.mds_check(arc)
    report.check("is-arc").tally(ok, {"subset": list(witness)} if witness else None)
    report.check("mds-generator").tally(ok, {"columns": list(witness)} if witness else None)
    if not ok:
        report.notes.append("not an arc; downstream stages skipped")
        return
    if arc.t < 1:
        report.notes.append("t = 0: tangent, tensor and dual-form stages skipped")
        return

    # On an arc the tangent counts hold, so this runs the whole lemma check.
    cmd_tangents_lemma(pipeline, args, report)
    tensorform.verify_tensor_form(arc, pipeline.ts, pipeline.F, report)

    if not _on_hypersurface(pipeline, report, "shift-extract vanishing not asserted"):
        chk = report.check("shift-extract-forms-vanish-on-arc")
        span = [m for d in range(arc.t + 1) for m in forms.monomial_basis(arc.k, d)]
        for combo in product(span, repeat=arc.k - 2):
            f = tensorform.shift_extract(arc.gf, pipeline.F, list(combo))
            chk.tally(
                forms.vanishes_on(arc.gf, f, arc.points),
                {"exponents": [list(e) for e in combo]},
            )

    if arc.k == 4 and arc.n == arc.gf.q + 1 and arc.gf.p != 2:
        quad = tensorform.quadric_check(arc)
        ok = quad is not None and forms.vanishes_on(arc.gf, quad, arc.points)
        report.check("quadric-through-arc").tally(ok, None)

    m = 1 if arc.gf.p == 2 else 2
    if arc.n >= m * arc.t + arc.k - 1:
        sbbt_mod.verify_sbbt(arc, pipeline.ts, pipeline.sb, seed=args.seed, report=report)
    else:
        report.notes.append(
            f"arc too small for the dual form (needs {m * arc.t + arc.k - 1} points)"
        )


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
        arc = _load_arc(args.arc) if hasattr(args, "arc") else _new_arc(args)
        name = " ".join(filter(None, (args.command, getattr(args, "subcommand", None))))
        report = Report(name, {"q": arc.gf.q, "k": arc.k, "n": arc.n, "t": arc.t}, [])
        artifact = args.handler(Pipeline(arc), args, report)
        if artifact is not None:
            _write_json(args.output, artifact)
            report.notes.append(f"wrote {args.output}")
    except (ValueError, IndexError, OSError, KeyError, tangents.TangentCountError) as exc:
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
