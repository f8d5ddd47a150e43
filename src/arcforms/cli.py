"""Command-line interface.

Every subcommand prints a JSON report to stdout (or a text rendering with
--format human) and a one-line-per-check summary to stderr.  Exit codes:
0 all checks passed, 1 a verification failed, 2 usage or input error.

``main`` builds or loads the arc and opens the report; each handler is
called as ``handler(pipeline, args, report)``, reads the stages it needs
from the lazy ``Pipeline``, adds to the report and returns the JSON
artifact for ``-o`` or ``None``; ``main`` writes it by ``_write_json``,
json.dump but for the tensor form's Runs, and notes the path.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from functools import cache, cached_property
from itertools import product

from . import forms, geometry, sbbt as sbbt_mod, tangents, tensorform
from .field import is_prime, make_field
from .geometry import Arc
from .report import Report
from .tensorform import Runs

# _write_runs joins the texts of this many list items per write.
WRITE_SLICE = 8192


def _factor_prime_power(q: int):
    """(p, h) with q = p^h, p prime: at each h the one candidate p is the
    integer h-th root of q, found by bisection.  The largest h goes first,
    so a perfect power is split before is_prime sees q beyond its range."""
    for h in range(q.bit_length() - 1, 0, -1):
        lo, hi = 1, 2 ** (q.bit_length() // h + 1)  # lo^h <= q < hi^h
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if mid**h <= q else (lo, mid)
        if lo**h == q and is_prime(lo):
            return lo, h
    raise ValueError(f"q = {q} is not a prime power")


def _parse_json(text: str):
    """json.loads, with too deep a nesting a ValueError, not a RecursionError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError("JSON input is nested too deeply") from None


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
        data = _parse_json(fh.read())
    if isinstance(data, dict) and "points" not in data:
        raise ValueError("points object has no key 'points'")
    pts = data["points"] if isinstance(data, dict) else data
    arc = Arc.from_json({"field": gf.to_json(), "k": args.k, "points": pts})
    geometry.check_arc(arc)
    return arc


def _load_arc(path: str) -> Arc:
    with open(path, encoding="utf-8") as fh:
        return Arc.from_json(_parse_json(fh.read()))


def _write_runs(fh, runs: Runs) -> None:
    """Write the runs' list as json.dump(indent=2) lays out the value of a
    top-level key, at most WRITE_SLICE items a write.  Each element's text
    is rendered once, keyed by its int."""
    texts, piece, size = {}, ["["], 0
    for a, count in runs.pairs:
        if a not in texts:
            value = runs.gf.element_to_json(a)  # an int, or a list of ints
            if isinstance(value, list):
                value = "[" + ",".join(f"\n      {c}" for c in value) + "\n    ]"
            texts[a] = f"\n    {value},"
        text = texts[a]
        while size + count > WRITE_SLICE:  # top the piece up and write it
            fh.write("".join(piece) + text * (WRITE_SLICE - size))
            piece, size, count = [], 0, count - (WRITE_SLICE - size)
        piece.append(text * count)
        size += count
    # the last piece holds the last item: drop its comma
    fh.write("".join(piece)[:-1] + "\n  ]" if size else "[]")


def _write_json(path: str, obj) -> None:
    """Write json.dumps(obj, indent=2) and a newline, by json.dump; a Runs
    under "coeffs", the last key of a tensor artifact, by _write_runs."""
    with open(path, "w", encoding="utf-8") as fh:
        runs = obj.get("coeffs") if isinstance(obj, dict) else None
        if isinstance(runs, Runs):
            fh.write(json.dumps({**obj, "coeffs": []}, indent=2)[: -len("[]\n}")])
            _write_runs(fh, runs)
            fh.write("\n}")
        else:
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
        # the build's own refusals first, then phi's, before anything is built
        tangents.check_buildable(self.arc)
        sbbt_mod.check_size(self.arc)
        return sbbt_mod.build_sbbt(self.arc, self.ts)

    @cached_property
    def phi_dim(self) -> int:
        """Dimension of the degree-t forms vanishing on the arc: N minus
        the socle size w, the rank of the arc's Veronese matrix, read off
        the tangent system's one elimination of it."""
        soc, _ = self.ts.socle
        return forms.num_monomials(self.arc.k, self.arc.t) - len(soc)


def _tally_is_arc(report: Report, name: str, arc: Arc) -> None:
    ok, witness = geometry.arc_witness(arc)
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


def _check_vanishing_basis_size(arc: Arc, t: int, what: str) -> None:
    """Refuse, before building it, a basis of the degree-t forms vanishing
    on the arc with more than forms.MAX_ENTRIES entries, (N - n)·N."""
    N = forms.num_monomials(arc.k, t)
    if (N - arc.n) * N > forms.MAX_ENTRIES:
        raise ValueError(f"{what}: (N - n)·N = {(N - arc.n) * N} basis entries > {forms.MAX_ENTRIES}")


def cmd_phi(pipeline, args, report):
    arc = pipeline.arc
    report.inputs["deg"] = args.t
    _check_vanishing_basis_size(arc, args.t, f"phi --t {args.t}")
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
    try:
        ts = pipeline.ts
    except (ValueError, tangents.TangentCountError):
        if tangents.verify_tangent_counts(pipeline.arc, report).passed:
            raise  # the counts hold, so the error is the build's own
        report.notes.append("tangent counts are off; skipping the system build")
        return
    # the build raises on any subset with a wrong count, so all len(fS) hold
    report.check("tangent-count").tally_many(len(ts.fS), [])
    tangents.verify_scaling_chain(ts, report)
    tangents.verify_lemma_of_tangents(ts, seed=args.seed, report=report)


def cmd_tensor_build(pipeline, args, report):
    arc = pipeline.arc
    tensorform.check_signed_evaluations(arc, pipeline.ts, pipeline.F, report)
    return pipeline.F.to_json(arc.gf)


def cmd_tensor_verify(pipeline, args, report):
    arc = pipeline.arc
    if args.search_exact:  # refused before the tangent system is built
        _check_vanishing_basis_size(arc, arc.t, "tensor verify --search-exact")
    ts, F = pipeline.ts, pipeline.F
    tensorform.verify_tensor_form(arc, ts, F, report)
    if args.search_exact:
        found, _ = tensorform.search_exact_tangent_match(arc, ts, F)
        report.notes.append(
            "a correction by block-vanishing terms making the partial "
            f"evaluations exactly equal the tangent forms {'exists' if found else 'was not found'}"
        )


def cmd_tensor_extract(pipeline, args, report):
    arc = pipeline.arc
    exponents = _parse_json(args.exponents)
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
    hyperplanes = sbbt_mod.classify_hyperplanes(arc, sb) if args.dump_duals else None
    sbbt_mod.verify_sbbt(arc, pipeline.ts, sb, seed=args.seed, report=report, hyperplanes=hyperplanes)
    if args.dump_duals:
        gf = arc.gf
        report.result = {"duals": [
            {"dual": [gf.element_to_json(c) for c in ell], "arc_points_on": on,
             "phi_value": gf.element_to_json(v)}
            for ell, on, v in hyperplanes
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

    _, size = sbbt_mod.interpolation_size(arc)
    if arc.n >= size:
        sbbt_mod.verify_sbbt(arc, pipeline.ts, pipeline.sb, seed=args.seed, report=report)
    else:
        report.notes.append(f"arc too small for the dual form (needs {size} points)")


# -- parser ----------------------------------------------------------------


@cache  # parsing leaves the parser as it was, so one serves every main call
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
