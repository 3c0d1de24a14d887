"""Batch front end: load JSON jobs, run verifications, emit reports.

Every subcommand produces a deterministic report (JSON or aligned text):
no timestamps, no filesystem paths, keys sorted, the seed echoed back.
Exit status 0 means every check passed, 1 means a mathematical check
failed (the report carries the witness), 2 means the input or the
options were unusable.
"""

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import fixtures as fx
from .algebra import (p1_chart_operator_discrepancy, p1_polyvector_presheaf,
                      p1_slice_ranks)
from .complexes import (Complex, betti_numbers, chain_map_from_json,
                        complex_from_json, complex_to_json, homology,
                        is_quasi_iso, json_int, novikov_induced_rank,
                        parse_scalar, telescope, telescope_comparison)
from .linalg import SparseMatrix, rank
from .errors import (AxiomFailure, BadSequence, CosimplicialIdentityFailure,
                     CutoffTooSmall, FunctorialityFailure, InputError,
                     NotAComplex, RingMismatch, ShapeMismatch, UnknownFixture,
                     UnsupportedRing)
from .involutive import (build_cover_functions, check_weak_cover_conditions,
                         cover_monotonicity_report, grid_points, parse_poly,
                         symplectic_names)
from .polyvec import bv_axiom_check
from .presheaf import (TOP, cech, inclusion_exclusion, induction_pipeline,
                       nerve_cosimplicial, presheaf_from_json,
                       presheaf_to_json, tot, tw, tw_to_tot, verify_descent,
                       whitney_section)
from .scalars import QQ, NovikovRing

_INPUT_FAULTS = (InputError, UnknownFixture, CutoffTooSmall, UnsupportedRing,
                 ShapeMismatch, RingMismatch, NotAComplex, BadSequence)


# ---------------------------------------------------------------------------
# small helpers


def _load_json(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read input: {exc}") from exc
    except ValueError as exc:
        raise InputError(f"malformed JSON: {exc}") from exc


def _load_presheaf(job, default_fixture="triangle-boundary", check=True):
    if job.input is None:
        return fx.emit_fixture(default_fixture, seed=job.seed)
    return presheaf_from_json(_load_json(job.input), check=check)


def _betti_json(table):
    return {str(n): v for n, v in sorted(table.items())}


def _check(check_id, ok, **detail):
    return {"id": check_id, "ok": bool(ok), **detail}


def _homology_check(check_id, c, win):
    """The homology table of c as one check, its Betti numbers or torsion
    orders cut to the degree window win (lo, hi) when one is given."""
    body = homology(c).to_json()
    if win is not None:
        table = "betti" if body["kind"] == "betti" else "torsion_u_orders"
        body[table] = {n: v for n, v in body[table].items()
                       if win[0] <= int(n) <= win[1]}
    return _check(check_id, True, **body)


# ---------------------------------------------------------------------------
# subcommand bodies: each returns (options_echo, checks, payload)


def _cmd_validate(job):
    F = _load_presheaf(job, check=False)
    checks = []
    try:
        F.validate()
        checks.append(_check("restriction-functoriality", True))
    except FunctorialityFailure as exc:
        checks.append(_check("restriction-functoriality", False,
                             witness=str(exc.args[0])))
    try:
        nerve_cosimplicial(F).validate()
        checks.append(_check("nerve-cosimplicial", True))
    except CosimplicialIdentityFailure as exc:
        checks.append(_check("nerve-cosimplicial", False,
                             witness=str(exc.args[0])))
    return {}, checks, None


def _cmd_homology(job):
    if job.input is None:
        c = fx.circle_complex()
    else:
        c = complex_from_json(_load_json(job.input))
    return ({"degree_window": list(job.degree_window)}
            if job.degree_window else {}), \
        [_homology_check("homology-table", c, job.degree_window)], None


def _cmd_cech(job):
    F = _load_presheaf(job)
    return {}, [_homology_check("cech-table", cech(F).cx,
                                job.degree_window)], None


def _iso_verdict(f) -> bool:
    """is_quasi_iso(f).ok, with no cone when f is square and of full rank
    in every degree of its source or target, an isomorphism of complexes
    (a verdict read off certified structure, as in McConnell et al.,
    "Certifying algorithms", 2011; a failing check keeps the cone's)."""
    if all(m.nrows == m.ncols == rank(m)
           for m in map(f.mat, {*f.source.degrees(), *f.target.degrees()})):
        return True
    return is_quasi_iso(f).ok


def _split_verdict(f, exact, source_betti, target_betti):
    """(ok, witness_degree) of is_quasi_iso(f), for f with a section s that
    is itself a chain map, where exact tells whether f s = id holds.  Then
    H(f) H(s) = id makes H(f) onto, so equal Betti numbers make f a
    quasi-isomorphism, with no cone.  A section that is not a chain map
    has no H(s), and its exactness says nothing of H(f): the caller
    answers for that (``whitney_section`` is tested to be a chain map)."""
    if exact and source_betti == target_betti:
        return True, None
    cert = is_quasi_iso(f)
    return cert.ok, cert.witness_degree


def _tot_checks(F, T, tb):
    C = T.cech
    to_cech = T.to_cech()
    cb = betti_numbers(C.cx)
    checks = [_check("totalization-iso", _iso_verdict(to_cech) and tb == cb,
                     tot_betti=_betti_json(tb), cech_betti=_betti_json(cb))]
    if F.has_top:
        taug, caug = T.augmentation(), C.augmentation()
        ok = all((to_cech.mat(n) @ taug.mat(n) - caug.mat(n)).is_zero()
                 for n in F.value(TOP).degrees())
        checks.append(_check("tot-augmentation-intertwines", ok))
    return checks


def _tw_checks(F, T, tb, cutoff):
    W = tw(F, cutoff)
    integ = tw_to_tot(W, T)
    section = whitney_section(T, W)
    exact = all(integ.mat(n) @ section.mat(n)
                == SparseMatrix.identity(T.cx.dim(n))
                for n in T.cx.degrees())
    wb = betti_numbers(W.cx)
    ok, witness = _split_verdict(integ, exact, wb, tb)
    return [_check("integration-quasi-iso", ok, witness_degree=witness),
            _check("whitney-section-exact", exact),
            _check("betti-stability",
                   wb == betti_numbers(tw(F, cutoff + 1).cx),
                   weight_cutoff=cutoff, betti=_betti_json(wb))]


def _cmd_tot(job):
    F = _load_presheaf(job)
    T = tot(F)
    return {}, _tot_checks(F, T, betti_numbers(T.cx)), None


def _cmd_tw(job):
    F = _load_presheaf(job)
    cutoff = job.weight_cutoff if job.weight_cutoff is not None else F.n_sets
    T = tot(F)
    return {"weight_cutoff": cutoff}, \
        _tw_checks(F, T, betti_numbers(T.cx), cutoff), None


def _cmd_compare(job):
    F = _load_presheaf(job)
    cutoff = job.weight_cutoff if job.weight_cutoff is not None else F.n_sets
    T = tot(F)
    tb = betti_numbers(T.cx)
    return {"weight_cutoff": cutoff}, \
        _tot_checks(F, T, tb) + _tw_checks(F, T, tb, cutoff), None


def _cmd_descent(job):
    F = _load_presheaf(job)
    rep = verify_descent(F)
    return {}, [_check("descent-quasi-iso", rep.ok, **rep.to_json())], None


def _cmd_incl_excl(job):
    bundled = job.input is None
    F = _load_presheaf(job, default_fixture="three-edge")
    dec = inclusion_exclusion(F)
    checks = [_check("inclusion-exclusion-iso", dec.ok)]
    if bundled:
        pf, pg, aug_rest, aug_int = fx.triangle_pipeline_data()
        rep = induction_pipeline(pf, pg, aug_rest, aug_int)
        checks.append(_check("induction-pipeline", rep.ok,
                             comparison_ok=rep.theta_ok,
                             composite_ok=rep.composite_ok))
    return {}, checks, None


def _cmd_bv_check(job):
    try:
        count = bv_axiom_check(nvars=2, max_degree=3)
        checks = [_check("bv-axioms", True, instances=count)]
    except AxiomFailure as exc:
        checks = [_check("bv-axioms", False, axiom=exc.witness[0],
                         witness=list(exc.witness[1:]))]
    return {"nvars": 2, "max_degree": 3}, checks, None


def _cmd_p1_demo(job):
    window = job.laurent_cutoff if job.laurent_cutoff is not None else 4
    F = p1_polyvector_presheaf(window)
    table = {n: b for n, b in betti_numbers(cech(F).cx).items() if b}
    checks = [_check("p1-cech-betti", table == {0: 1, 1: 3},
                     betti=_betti_json(table))]
    slices = p1_slice_ranks(window)
    checks.append(_check("p1-slice-oracle",
                         slices == {0: (1, 0), 1: (3, 0)},
                         kernel_cokernel={str(k): list(v)
                                          for k, v in sorted(slices.items())}))
    rows = p1_chart_operator_discrepancy(window)
    shape_ok = all(r["difference"] == f"2*x^{r['field_exponent'] - 1}"
                   for r in rows)
    checks.append(_check("p1-chart-discrepancy", shape_ok, rows=rows))
    return {"laurent_cutoff": window}, checks, None


_DEFAULT_COVER_JOB = {
    "pairs": 1,
    "sequences": [["q1 - 1", "q1 - 1/2", "q1 - 1/3"]],
    "sets": ["q1"],
    "grid": [["-2", "2", "1/2"], ["-2", "2", "1/2"]],
    "smoothing": {
        "mode": "intersection",
        "deltas": ["1/100", "1/200"],
        "f1": ["q1 - 1", "q1 - 1/2"],
        "f2": ["p1 - 1", "p1 - 1/2"],
    },
}


def _json_list(x, field):
    """x if it is a JSON list, else an InputError that names field."""
    if type(x) is list:
        return x
    raise InputError(f"{field} must be a JSON list, not {json.dumps(x)}")


def _cmd_covers_check(job):
    data = (_load_json(job.input) if job.input is not None
            else _DEFAULT_COVER_JOB)
    try:
        pairs = json_int(data["pairs"], "pairs")
        if pairs < 0:
            raise InputError(f"pairs is {pairs}; it must be at least 0")
        # before any name is built, so a huge pairs costs nothing
        axes = _json_list(data["grid"], "grid")
        if len(axes) != 2 * pairs:
            raise InputError("grid must have one range per symplectic "
                             f"variable: {2 * pairs} for pairs = {pairs}, "
                             f"not {len(axes)}")
        names = symplectic_names(pairs)
        seqs = [[parse_poly(s, names) for s in _json_list(seq, f"sequences[{k}]")]
                for k, seq in enumerate(_json_list(data["sequences"], "sequences"))]
        cutters = [parse_poly(s, names) for s in _json_list(data["sets"], "sets")]
        ranges = []
        for k, r in enumerate(axes):
            try:
                lo, hi, step = (parse_scalar(QQ, x)
                                for x in _json_list(r, f"grid[{k}]"))
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise InputError(f"bad grid range {r!r}: {exc}") from exc
            ranges.append((lo, hi, step))
        smoothing = data.get("smoothing")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed covers job: {exc}") from exc
    # the grid is the product of its axes: bound its size before building it
    points = 1
    for lo, hi, step in ranges:
        points *= ((hi - lo) // step + 1) if step > 0 and hi >= lo else 0
    if points > _GRID_CAP:
        raise InputError(f"covers grid has {points} points, over the cap "
                         f"{_GRID_CAP}; use fewer points per axis")
    grid = grid_points(ranges)
    preds = [(lambda pt, c=c: c(pt) <= 0) for c in cutters]
    try:
        rep = check_weak_cover_conditions(seqs, grid, preds)
    except ValueError as exc:    # str() refuses an int of over 4300 digits
        raise InputError("weak-cover-bullets: a value is too long to report") from exc
    checks = [_check("weak-cover-bullets", rep.ok,
                     bracket_checked=rep.bracket_checked,
                     violations=rep.violations)]
    if smoothing is not None:
        try:
            mode = smoothing["mode"]
            deltas = [parse_scalar(QQ, d)
                      for d in _json_list(smoothing["deltas"], "deltas")]
            f1s = [parse_poly(s, names) for s in _json_list(smoothing["f1"], "f1")]
            f2s = [parse_poly(s, names) for s in _json_list(smoothing["f2"], "f2")]
        except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            raise InputError(f"malformed smoothing block: {exc}") from exc
        gs = build_cover_functions(f1s, f2s, mode, deltas)
        try:
            mono = cover_monotonicity_report(gs, grid)
        except OverflowError as exc:    # float() of a reported value
            raise InputError("stage-monotonicity: a value overflows a float") from exc
        checks.append(_check("stage-monotonicity", mono.ok,
                             violations=mono.violations,
                             step_bounds=mono.step_bounds))
    return {"pairs": pairs, "grid_size": len(grid)}, checks, None


# the bundled telescope's length is at most this multiple of m + 1, the
# length that certifies vanishing past the truncation order m
_LENGTH_CAP = 2
# and m is at most this: the Q-expansions of the purity comparison grow
# with both m and the length
_ORDER_CAP = 48
# covers-check evaluates every grid point, about 90 us each on the bundled
# job's shape (2 vCPU VM), so a grid has at most this many points
_GRID_CAP = 100_000


def _cmd_telescope(job):
    if job.input is not None:
        for flag in ("--novikov-den", "--novikov-e", "--weight-cutoff"):
            if getattr(job, flag[2:].replace("-", "_")) is not None:
                raise InputError(f"{flag} sets the bundled Novikov telescope "
                                 "only; it cannot go with --input")
        data = _load_json(job.input)
        try:
            terms = [complex_from_json(t) for t in data["terms"]]
            maps = [chain_map_from_json(terms[i], terms[i + 1], m)
                    for i, m in enumerate(data["maps"])]
        except (KeyError, TypeError, IndexError) as exc:
            raise InputError(f"malformed telescope diagram: {exc}") from exc
        for f in maps:
            f.validate()
        tel = telescope(terms, maps)
        if terms[0].ring == QQ:
            tb = betti_numbers(tel.cx)
            lb = betti_numbers(terms[-1])
            nz = {n: b for n, b in tb.items() if b}
            nzl = {n: b for n, b in lb.items() if b}
            return {}, [_check("telescope-stabilization", nz == nzl,
                               telescope_betti=_betti_json(nz),
                               last_term_betti=_betti_json(nzl))], None
        return {}, [_homology_check("telescope-table", tel.cx, None)], None
    den = job.novikov_den if job.novikov_den is not None else 1
    exp = job.novikov_e if job.novikov_e is not None else Fraction(3)
    length = job.weight_cutoff if job.weight_cutoff is not None else 4
    if den < 1 or exp <= 0 or length < 1:
        raise InputError("telescope options out of range")
    # every bound from the ring alone, before any term is built: length
    # m + 1 certifies, and the cost grows with m and the length
    m = NovikovRing(den, exp).truncation_order
    if m > _ORDER_CAP:
        raise InputError(
            f"truncation order m = {m} of the bundled telescope is over the "
            f"cap {_ORDER_CAP}; choose --novikov-den and --novikov-e with "
            f"den*e at most {_ORDER_CAP}")
    if length <= m:
        raise InputError(
            f"telescope length {length} cannot certify vanishing past the "
            f"truncation order {m}; use at least {m + 1} terms")
    cap = _LENGTH_CAP * (m + 1)
    if length > cap:
        raise InputError(
            f"telescope length {length} is over {_LENGTH_CAP}*(m + 1) = {cap} "
            f"for the truncation order m = {m}; use {m + 1} to {cap} terms")
    terms, maps = fx.novikov_telescope_terms(den, exp, length)
    # no class survives: a comparison spanning the full truncation order
    # induces zero on homology, so nothing has valuation-zero persistence;
    # its target t2 is the full telescope, whose torsion is the table
    _, t2, comp = telescope_comparison(terms, maps, length - m, length)
    rep = homology(t2.cx)
    induced_rank = novikov_induced_rank(comp, 0)
    return {"novikov_den": den, "novikov_e": str(exp), "length": length}, \
        [_check("telescope-pure-torsion", induced_rank == 0,
                induced_rank=induced_rank, **rep.to_json())], None


def _cmd_emit_fixture(job):
    obj = fx.emit_fixture(job.fixture, seed=job.seed)
    payload = (complex_to_json(obj) if isinstance(obj, Complex)
               else presheaf_to_json(obj))
    return {"fixture": job.fixture, "seed": job.seed}, [], payload


# each subcommand's body and the options it reads; --out, --format and
# --seed, which run() and main() read, come with every subcommand
_BODIES = {
    "validate": (_cmd_validate, ("--input",)),
    "homology": (_cmd_homology, ("--input", "--degree-window")),
    "cech": (_cmd_cech, ("--input", "--degree-window")),
    "tot": (_cmd_tot, ("--input",)),
    "tw": (_cmd_tw, ("--input", "--weight-cutoff")),
    "compare": (_cmd_compare, ("--input", "--weight-cutoff")),
    "descent": (_cmd_descent, ("--input",)),
    "incl-excl": (_cmd_incl_excl, ("--input",)),
    "bv-check": (_cmd_bv_check, ()),
    "p1-demo": (_cmd_p1_demo, ("--laurent-cutoff",)),
    "covers-check": (_cmd_covers_check, ("--input",)),
    "telescope": (_cmd_telescope, ("--input", "--novikov-den", "--novikov-e",
                                   "--weight-cutoff")),
    "emit-fixture": (_cmd_emit_fixture, ("fixture",)),
}
COMMANDS = tuple(_BODIES)


# ---------------------------------------------------------------------------
# report assembly


def run(job):
    """Execute one job, the namespace job_from_args returns; returns
    (report dict, exit code)."""
    options, checks, payload = _BODIES[job.command][0](job)
    report = {
        "command": job.command,
        "seed": job.seed,
        "threads": job.threads,
        "options": options,
        "checks": checks,
        "ok": all(c["ok"] for c in checks),
    }
    if payload is not None:
        # fixture emission: the artifact itself is the output, directly
        # consumable by --input elsewhere
        report = payload
    return report, 0 if report.get("ok", True) else 1


def render_json(report):
    return json.dumps(report, sort_keys=True, indent=2) + "\n"


def render_text(report):
    if "checks" not in report:
        return render_json(report)
    lines = [f"descentlab {report['command']}",
             f"seed {report['seed']}  threads {report['threads']}"]
    if report["options"]:
        opts = "  ".join(f"{k}={report['options'][k]}"
                         for k in sorted(report["options"]))
        lines.append(f"options: {opts}")
    width = max((len(c["id"]) for c in report["checks"]), default=0)
    for c in report["checks"]:
        detail = {k: v for k, v in c.items() if k not in ("id", "ok")}
        tail = f"  {json.dumps(detail, sort_keys=True)}" if detail else ""
        lines.append(f"{'PASS' if c['ok'] else 'FAIL'} "
                     f"{c['id']:<{width}}{tail}")
    lines.append(f"overall: {'PASS' if report['ok'] else 'FAIL'}")
    return "\n".join(lines) + "\n"


def render(report, fmt):
    return render_text(report) if fmt == "text" else render_json(report)


# ---------------------------------------------------------------------------
# argument handling


def _window_arg(text):
    lo, sep, hi = text.partition(":")
    if not sep:
        raise argparse.ArgumentTypeError("degree window looks like lo:hi")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))
    if lo > hi:
        raise argparse.ArgumentTypeError(
            f"degree window {lo}:{hi} is empty: lo exceeds hi")
    return lo, hi


def _fraction_arg(text):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(str(exc))


# the add_argument keywords of each option
_OPTIONS = {
    "fixture": dict(help="bundled fixture name"),
    "--out": dict(default=None, help="write report here"),
    "--format": dict(choices=("json", "text"), default="json"),
    "--seed": dict(type=int, default=0),
    "--input": dict(default=None,
                    help="input JSON (bundled fixture when omitted)"),
    "--degree-window": dict(type=_window_arg, default=None),
    "--weight-cutoff": dict(type=int, default=None),
    "--laurent-cutoff": dict(type=int, default=None),
    "--novikov-den": dict(type=int, default=None),
    "--novikov-e": dict(type=_fraction_arg, default=None),
}


@functools.cache
def _parser():
    """The argument parser, built on first use and shared by every main()
    call in the process (parsing keeps no state in it)."""
    top = argparse.ArgumentParser(
        prog="descentlab",
        description="exact homological-algebra constructions and checks")
    sub = top.add_subparsers(dest="command", required=True)
    for name, (_, reads) in _BODIES.items():
        p = sub.add_parser(name)
        for opt in reads + ("--out", "--format", "--seed"):
            p.add_argument(opt, **_OPTIONS[opt])
    return top


def _threads_from_env():
    raw = os.environ.get("DESCENTLAB_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError as exc:
        raise InputError(f"DESCENTLAB_THREADS must be an integer: {raw!r}") \
            from exc
    if threads < 1:
        raise InputError("DESCENTLAB_THREADS must be at least 1")
    return threads


def job_from_args(args):
    """The parsed options as one job, with threads read from
    DESCENTLAB_THREADS."""
    args.threads = _threads_from_env()
    return args


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        job = job_from_args(args)
        report, code = run(job)
    except _INPUT_FAULTS as exc:
        print(f"descentlab: {exc}", file=sys.stderr)
        return 2
    except (FunctorialityFailure, CosimplicialIdentityFailure) as exc:
        print(f"descentlab: input is not a presheaf: {exc}", file=sys.stderr)
        return 2
    text = render(report, job.format)
    if job.out:
        try:
            with open(job.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"descentlab: cannot write report: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
