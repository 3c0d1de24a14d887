"""The benchmark workloads: inputs from a seed, jobs, known answers.

Every workload imports descentlab inside ``setup`` (so a repeated set-up pays
the imports again) and calls the library through module attributes, so the
span wrappers of a traced run see every call.  ``plan`` and ``setup`` are the
only places that use the seed; jobs receive generated inputs only.

A job returns ``(ok, detail)``; ``ok`` is true only when the verdict matches
an answer known independently of the code under test: the Betti numbers
``random_presheaf`` builds in, the bundled fixtures' known tables, and the
counts and tables of the acceptance battery.
"""

import importlib
import json
import math
import os
import random
import re
from fractions import Fraction

MODULES = ("linalg", "scalars", "complexes", "simplex", "presheaf",
           "polyvec", "involutive", "algebra", "fixtures", "cli")


def import_descentlab():
    """The package's modules, by short name, freshly imported if purged."""
    return {name: importlib.import_module(f"descentlab.{name}")
            for name in MODULES}


def nz(table):
    return {int(k): v for k, v in table.items() if v}


class Workload:
    """Inputs built once per set-up; ``cycle`` orders the timed jobs."""

    name = ""

    def plan(self, seed):
        """Untimed, once per run, before the timed set-ups: choose inputs
        whose choosing costs a seed-dependent time (the default has none)."""

    def setup(self, seed, workdir):
        raise NotImplementedError

    def cycle(self):
        """Jobs of the closed loop, in order; repeated if the run outlasts it."""
        raise NotImplementedError

    def tour(self):
        """Jobs that reach every wrap target of this workload once."""
        raise NotImplementedError

    def fresh(self, job):
        """Untimed per-job input preparation (the default has none)."""
        return None

    def run(self, job, inp):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# seeded random covers of a stated size
#
# random_presheaf's cost grows fast with the size of its values, so a cover
# drawn without a size band makes one job last 0.4 s and the next 28 s.  The
# benchmark states each workload's input size as a band on a dimension the
# cost follows, and draws covers from independent per-candidate seeds until
# enough fall in the band.  The band test runs on the block dimensions that
# random_presheaf draws first, replayed on a copy of the candidate's stream,
# so a rejected candidate costs a few milliseconds instead of a full
# generation; the generated cover's dimensions are then checked against the
# replay.


def _block_value_dims(mods, rng, n_sets, max_dim, width):
    """Total dimension of each value random_presheaf(rng, n_sets, ...) builds.

    Replays the block draws at the start of random_presheaf on ``rng``.
    """
    fx, pre = mods["fixtures"], mods["presheaf"]
    supports = pre.all_subsets(n_sets)
    blocks = {}
    for S in supports:
        if rng.random() < 0.35:
            continue
        hi = rng.randrange(width)
        w, _ = fx.random_complex(rng, 0, hi, max_cells=max(2, max_dim // 2),
                                 twist=False)
        blocks[S] = w.total_dim()
    if not blocks:
        S = supports[rng.randrange(len(supports))]
        w, _ = fx.random_complex(rng, 0, 0, twist=False)
        blocks[S] = w.total_dim()
    return {J: sum(d for S, d in blocks.items() if set(J) <= set(S))
            for J in supports}


def forms_ambient_dim(n_sets, cutoff, value_dims):
    """Ambient dimension of tw(F, cutoff): sum over levels p of
    dim(weight-truncated forms on the p-simplex) * dim(nerve level p)."""
    total = 0
    for p in range(n_sets):
        model = sum(math.comb(p, k) * math.comb(cutoff - k + p, p)
                    for k in range(p + 1) if cutoff - k >= 0)
        level = sum(d for J, d in value_dims.items() if len(J) == p + 1)
        total += model * level
    return total


def cech_dim(value_dims):
    return sum(value_dims.values())


def banded_picks(mods, tag, seed, n_sets, size, band, strata, per_stratum,
                 max_dim=4, width=4, accept=None):
    """Candidate keys for random_presheaf(rng, n_sets, max_dim, width) whose
    ``size(value_dims)`` lies in ``band``, ``per_stratum`` of them in each of
    ``strata`` equal slices of the band; returns [(key, value_dims)] in
    rounds that visit every slice once, spread out, so that any run of
    consecutive jobs covers the band evenly whatever the seed.  ``accept``,
    if given, is a further test on a candidate's key that passed the band.

    This is the search, done once per run and not timed: how many candidates
    it rejects depends on the seed.  ``banded_covers`` generates the picks.
    """
    lo, hi = band
    buckets = [[] for _ in range(strata)]
    k = 0
    while any(len(b) < per_stratum for b in buckets):
        cand = f"{tag}:{seed}:{k}"
        k += 1
        dims = _block_value_dims(mods, random.Random(cand), n_sets,
                                 max_dim, width)
        s = size(dims)
        if not lo <= s <= hi:
            continue
        bucket = buckets[min(strata - 1, (s - lo) * strata // (hi - lo))]
        if len(bucket) < per_stratum and (accept is None or accept(cand)):
            bucket.append((cand, dims))
    order = sorted(range(strata), key=lambda i: (_bit_reverse(i, strata), i))
    return [buckets[i][r] for r in range(per_stratum) for i in order]


def banded_covers(mods, picks, n_sets, max_dim=4, width=4):
    """[(F, expected_betti)] generated from ``banded_picks``' keys, each
    checked against the block dimensions the search replayed."""
    fx = mods["fixtures"]
    covers = []
    for cand, dims in picks:
        F, expected = fx.random_presheaf(random.Random(cand), n_sets,
                                         max_dim=max_dim, width=width)
        got = {J: F.value(J).total_dim() for J in dims}
        if got != dims:
            raise RuntimeError("random_presheaf no longer draws its blocks "
                               "first; update _block_value_dims")
        covers.append((F, nz(expected)))
    return covers


def map_bits(F):
    """Bit length of the entries of F's generating restriction maps.  Among
    N=5 covers of one Cech dimension the CLI's cost follows it (correlation
    0.95 on 16 covers), where it varies 2.5-fold with the dimension alone."""
    return sum(v.numerator.bit_length() + v.denominator.bit_length()
               for f in F.adjacent.values() for mat in f.mats.values()
               for row in mat.rows for v in row.values())


def _bit_reverse(i, n):
    """Position of i in a van der Corput ordering of range(n)."""
    bits = max(1, (n - 1).bit_length())
    return int(format(i, f"0{bits}b")[::-1], 2)


def fresh_cover(pre, F):
    """The same values and generating maps in a new CoverPresheaf, so its
    restriction cache starts empty."""
    return pre.CoverPresheaf(F.n_sets, F.values, F.adjacent, check=False)


# ---------------------------------------------------------------------------
# forms: acceptance criteria 1 and 2 on one N=4 cover per job


class Forms(Workload):
    """tot + to_cech, tw at cutoffs 4 and 5, the integration quasi-iso and
    the exact Whitney section, on seeded N=4 covers."""

    name = "forms"
    N = 4
    BAND = (350, 550)          # ambient dimension of tw(F, 5)
    STRATA, PER_STRATUM = 8, 6

    def plan(self, seed):
        self.picks = banded_picks(
            import_descentlab(), "forms", seed, self.N,
            lambda dims: forms_ambient_dim(self.N, self.N + 1, dims),
            self.BAND, self.STRATA, self.PER_STRATUM)

    def setup(self, seed, workdir):
        m = self.mods = import_descentlab()
        self.covers = banded_covers(m, self.picks, self.N)
        self.inputs = [fresh_cover(m["presheaf"], F) for F, _ in self.covers]

    def cycle(self):
        return list(range(len(self.covers)))

    def tour(self):
        return [0]

    def fresh(self, job):
        inp, self.inputs[job] = self.inputs[job], None
        if inp is None:
            inp = fresh_cover(self.mods["presheaf"], self.covers[job][0])
        return inp

    def run(self, job, F):
        m = self.mods
        pre, cx, lin = m["presheaf"], m["complexes"], m["linalg"]
        expected = self.covers[job][1]
        # criterion 1: equalizer totalization against the value-sum complex
        T, C = pre.tot(F), pre.cech(F)
        iso = T.to_cech()
        iso.validate()
        for n in C.cx.degrees():
            mat = iso.mat(n)
            if not mat.nrows == mat.ncols == C.cx.dim(n):
                return False, f"to_cech not square in degree {n}"
            if lin.rank(mat) != mat.nrows:
                return False, f"to_cech not bijective in degree {n}"
        taug, caug = T.augmentation(), C.augmentation()
        for n in F.value(pre.TOP).degrees():
            if not (iso.mat(n) @ taug.mat(n) - caug.mat(n)).is_zero():
                return False, f"augmentations differ in degree {n}"
        # criterion 2: forms model, integration and Whitney section
        W, W1 = pre.tw(F, self.N), pre.tw(F, self.N + 1)
        b, b1 = nz(cx.betti_numbers(W.cx)), nz(cx.betti_numbers(W1.cx))
        if not b == b1 == expected:
            return False, f"betti {b} / {b1}, expected {expected}"
        integ = pre.tw_to_tot(W, T)
        cert = cx.is_quasi_iso(integ)
        if not cert.ok:
            return False, f"integration fails in degree {cert.witness_degree}"
        sect = pre.whitney_section(T, W)
        for n in T.cx.degrees():
            comp = integ.mat(n) @ sect.mat(n)
            if not (comp - lin.SparseMatrix.identity(comp.nrows)).is_zero():
                return False, f"section not exact in degree {n}"
        return True, ""


# ---------------------------------------------------------------------------
# scalar: exact scalar and series arithmetic, almost no elimination


def _rand_poly(Poly, rng, nvars, max_degree=3, max_terms=4):
    terms = {}
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = [0] * nvars
        for _ in range(rng.randrange(max_degree + 1)):
            exps[rng.randrange(nvars)] += 1
        terms[tuple(exps)] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    return Poly(nvars, terms)


class Scalar(Workload):
    """BV axioms, then short jobs that each check a batch of Poisson
    identities, smoothing signs, translations, composition families and
    Novikov telescopes, every check with a known answer."""

    name = "scalar"
    BV = ((2, 3, 131240), (2, 2, 28824))     # (nvars, max_degree, instances)
    # one short job at size factor 1 takes about 0.3 s; every short job has
    # the same make-up, and the 24 input sets scale it by factors spread
    # evenly over [0.5, 1.5], so job times form one continuous range and the
    # median moves smoothly when the machine speeds up or slows down
    POISSON_BATCH = 23
    TRANSLATION_BATCH = 800
    COMPOSITION_BATCH = 80
    GRID_STEPS = 17            # per axis, for each of the six sweeps
    TELESCOPE_SHAPES = tuple((den, Fraction(e2, 2)) for den in (1, 2)
                             for e2 in (4, 5, 6, 7, 8))      # (den, e)
    INPUT_SETS, ROUNDS = 24, 6     # rounds reuse the input sets in turn

    def setup(self, seed, workdir):
        m = self.mods = import_descentlab()
        inv, fx = m["involutive"], m["fixtures"]
        Poly = inv.Poly
        rng = random.Random(f"scalar:{seed}")
        curves = [inv.SmoothingCurve(d, mode)
                  for d in (Fraction(1), Fraction(1, 2), Fraction(1, 4))
                  for mode in (inv.INTERSECTION, inv.UNION)]
        self.inputs = []
        sizes = [0.5 + i / (self.INPUT_SETS - 1)
                 for i in range(self.INPUT_SETS)]
        rng.shuffle(sizes)
        for f in sizes:
            batch = {}
            batch["poisson"] = [tuple(_rand_poly(Poly, rng, 4)
                                      for _ in range(3))
                                for _ in range(round(self.POISSON_BATCH * f))]
            batch["translation"] = [
                (inv.SmoothingCurve(Fraction(rng.randrange(1, 9), 2),
                                    rng.choice((inv.INTERSECTION, inv.UNION))),
                 Fraction(rng.randrange(-8, 9), 3),
                 Fraction(rng.randrange(-8, 9), 3),
                 Fraction(rng.randrange(-6, 7), 5))
                for _ in range(round(self.TRANSLATION_BATCH * f))]
            fams = []
            for _ in range(round(self.COMPOSITION_BATCH * f)):
                v = [Poly.var(4, i) for i in range(4)]
                base = rng.choice([[v[0], v[1]], [v[0] * v[2], v[1] * v[3]],
                                   [v[0], v[1] * v[3]]])
                fs = [_rand_poly(Poly, rng, 2, max_degree=2).compose(base)
                      for _ in range(2)]
                fams.append((fs, _rand_poly(Poly, rng, 2, max_degree=2),
                             _rand_poly(Poly, rng, 2, max_degree=2)))
            batch["composition"] = fams
            tels = []
            for den, e in self.TELESCOPE_SHAPES:
                order = math.ceil(e * den)
                terms, maps = fx.novikov_telescope_terms(
                    den, e, order + rng.randrange(1, 3))
                tels.append((terms, maps, order))
            batch["telescope"] = tels
            # an exact grid of GRID_STEPS points a side with a seeded
            # rational step and offset, inside [-2, 2]
            k = rng.randrange(95, 104)
            steps = round(self.GRID_STEPS * f ** 0.5)
            step = Fraction(4 * k, 100 * (steps - 1))
            lo = -2 + Fraction(rng.randrange(0, 7), 7 * k)
            count = ((2 - lo) // step + 1) ** 2
            batch["sweep"] = (curves, [(lo, 2, step)] * 2, count)
            self.inputs.append(batch)

    def cycle(self):
        # the (2,2) check before every twentieth short job, so its share of
        # the jobs, not of the run's time, is fixed and the job count scales
        # with speed; the 7.5 s (2,3) check runs only in the traced tour, as
        # in a timed run it would hold a quarter of the time and amplify how
        # the job count follows machine speed
        jobs = []
        for r in range(self.ROUNDS * self.INPUT_SETS):
            if r % 20 == 0:
                jobs.append(("bv", 1))
            jobs.append(("short", r % self.INPUT_SETS))
        return jobs

    def tour(self):
        return [("short", 0), ("bv", 1), ("bv", 0)]

    def run(self, job, _):
        kind, i = job
        if kind == "bv":
            nvars, degree, want = self.BV[i]
            got = self.mods["polyvec"].bv_axiom_check(
                nvars=nvars, max_degree=degree, jacobi=True)
            return got == want, f"{got} instances, expected {want}"
        batch = self.inputs[i]
        for check in (self._poisson, self._translation, self._composition,
                      self._telescopes, self._sweep):
            ok, detail = check(batch)
            if not ok:
                return ok, detail
        return True, ""

    def _poisson(self, batch):
        pb = self.mods["involutive"].poisson_bracket
        for f, g, h in batch["poisson"]:
            if pb(f, g) != -pb(g, f):
                return False, "antisymmetry"
            if pb(f + g.scale(2), h) != pb(f, h) + pb(g, h).scale(2):
                return False, "bilinearity"
            if pb(f, g * h) != pb(f, g) * h + g * pb(f, h):
                return False, "Leibniz"
            if not (pb(f, pb(g, h)) + pb(g, pb(h, f))
                    + pb(h, pb(f, g))).is_zero():
                return False, "Jacobi"
        return True, ""

    def _translation(self, batch):
        inv = self.mods["involutive"]
        for c, x, y, s in batch["translation"]:
            if inv.smoothing_h(c, x + s, y + s) != \
                    inv.smoothing_h(c, x, y).plus_sqrt2(s):
                return False, f"translation at ({x},{y}) by {s}"
        return True, ""

    def _composition(self, batch):
        inv = self.mods["involutive"]
        for fs, g1, g2 in batch["composition"]:
            if inv.check_composition_lemma(fs, g1, g2) is not True:
                return False, "composition lemma"
        return True, ""

    def _sweep(self, batch):
        inv = self.mods["involutive"]
        curves, ranges, count = batch["sweep"]
        grid = inv.grid_points(ranges)
        if len(grid) != count:
            return False, f"grid has {len(grid)} points, expected {count}"
        for curve in curves:
            for x, y in grid:
                if inv.smoothing_h(curve, x, y).sign() != \
                        inv.region_sign(curve, x, y):
                    return False, f"sign at ({x},{y}), delta {curve.delta}"
        return True, ""

    def _telescopes(self, batch):
        cx, lin = self.mods["complexes"], self.mods["linalg"]
        for terms, maps, m_order in batch["telescope"]:
            length = len(terms)
            tel = cx.telescope(terms, maps)
            rep = cx.homology(tel.cx)
            orders = {n: os_ for n, os_ in rep.torsion.items() if os_}
            if rep.truncation_order != m_order or orders != {0: [m_order]}:
                return False, f"torsion {orders}, expected {{0: [{m_order}]}}"
            t1, t2, comp = cx.telescope_comparison(terms, maps,
                                                   length - m_order, length)
            q1 = cx.novikov_q_expansion_complex(t1.cx)
            q2 = cx.novikov_q_expansion_complex(t2.cx)
            induced, _, _ = cx.homology_map(
                cx.novikov_q_expansion_map(comp, q1, q2), 0)
            if lin.rank(induced) != 0:
                return False, "a class survives the full truncation order"
        return True, ""


# ---------------------------------------------------------------------------
# cli: parse, validate, compute and render, in-process


_CHECK_LINE = re.compile(r"^(PASS|FAIL) (\S+)\s*(\{.*\})?$")


def parse_text_report(text):
    """The checks and verdict of a text report, in the JSON report's shape."""
    lines = text.rstrip("\n").split("\n")
    checks = []
    for line in lines[2:-1]:
        hit = _CHECK_LINE.match(line)
        if hit:
            detail = json.loads(hit.group(3)) if hit.group(3) else {}
            checks.append({"id": hit.group(2), "ok": hit.group(1) == "PASS",
                           **detail})
    return {"command": lines[0].split(" ", 1)[1], "checks": checks,
            "ok": lines[-1] == "overall: PASS"}


class Cli(Workload):
    """descentlab.cli.main on JSON inputs written at set-up, both formats,
    each report produced twice and compared byte for byte."""

    name = "cli"
    # Cech dimension band and number of covers at each N; the three N=5
    # covers take turns, so no single cover sets the long jobs' times.  The
    # N=3 band keeps compare (whose cost grows steeply with the cover: 0.13
    # to 0.49 s over [40, 60]) below the N=5 jobs.
    BANDS = {3: ((30, 40), 1), 4: ((100, 130), 1), 5: ((250, 280), 3)}
    # and the N=5 covers' restriction-map size (map_bits): the middle of its
    # range at that dimension, so the three covers cost about the same and
    # the long jobs, which set the tail, do not follow the seed
    N5_MAP_BITS = (9800, 10900)
    FIXTURE_BETTI = {"triangle-boundary": {0: 1, 1: 1},
                     "three-edge": {0: 1, 1: 1},
                     "torus-square": {0: 1, 1: 2, 2: 1},
                     "disjoint": {0: 2},
                     "constant": {0: 1, 1: 1},
                     "p1-polyvector": {0: 1, 1: 3}}
    PRESHEAF_COMMANDS = ("validate", "cech", "tot", "descent", "incl-excl")
    N5_COMMANDS = ("validate", "cech", "descent", "incl-excl")
    TELESCOPES = ((1, "3", 4), (2, "3", 7), (3, "5/3", 6), (2, "5/2", 8))
    CHUNK = 6

    def __init__(self):
        # first-pass reports, kept across set-ups: the same seed gives the
        # same inputs, so a report must match its first pass byte for byte
        # also when the workload was set up again in between
        self.first_pass = {}

    def plan(self, seed):
        m = import_descentlab()
        lo, hi = self.N5_MAP_BITS

        def n5_accept(cand):
            F, _ = m["fixtures"].random_presheaf(random.Random(cand), 5,
                                                 max_dim=4, width=4)
            return lo <= map_bits(F) <= hi

        self.picks = {n_sets: banded_picks(
            m, f"cli{n_sets}", seed, n_sets, cech_dim, band, 1, count,
            accept=n5_accept if n_sets == 5 else None)
            for n_sets, (band, count) in self.BANDS.items()}

    def setup(self, seed, workdir):
        m = self.mods = import_descentlab()
        cli, fx, pre = m["cli"], m["fixtures"], m["presheaf"]
        indir = os.path.join(workdir, "in")
        os.makedirs(indir, exist_ok=True)
        self.out_path = os.path.join(workdir, "report.out")
        inputs = {}        # name -> (path, n_sets, Cech Betti, descends)
        for name in ("triangle-boundary", "three-edge", "torus-square",
                     "disjoint", "constant", "random", "p1-polyvector",
                     "novikov-telescope"):
            path = os.path.join(indir, f"{name}.json")
            code = cli.main(["emit-fixture", name, "--out", path])
            if code != 0:
                raise RuntimeError(f"emit-fixture {name} exited {code}")
            if name == "novikov-telescope":
                self.novikov_path = path
                continue
            if name == "random":
                _, betti = fx.random_presheaf(random.Random(0), 3)
                inputs[name] = (path, 3, nz(betti), True)
            else:
                n_sets = 3 if name == "three-edge" else 2
                inputs[name] = (path, n_sets, self.FIXTURE_BETTI[name],
                                name != "disjoint")
        for n_sets, (_, count) in self.BANDS.items():
            covers = banded_covers(m, self.picks[n_sets], n_sets)
            for i, (F, betti) in enumerate(covers):
                name = f"random-n{n_sets}" + (f"-{i}" if count > 1 else "")
                path = os.path.join(indir, f"{name}.json")
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(pre.presheaf_to_json(F), fh)
                inputs[name] = (path, n_sets, betti, True)
        self.inputs_meta = inputs
        self.jobs = self._job_list(inputs)

    def _job_list(self, inputs):
        """Distinct jobs, round-robin over subcommands so any stretch of the
        list mixes them, and over inputs in bit-reversed order so the large
        covers are spread through the list instead of ending it (a run
        holds one cycle and part of the next, and that part must have the
        whole cycle's mix); then each chunk is run twice (two passes)."""
        per_cmd = []
        for cmd in self.PRESHEAF_COMMANDS:
            per_cmd.append([(cmd, name) for name in inputs])
        per_cmd.append([("compare", name) for name, meta in inputs.items()
                        if meta[1] <= 3])
        per_cmd.append([("homology", "novikov-telescope")])
        per_cmd.append([("telescope", t) for t in self.TELESCOPES])
        per_cmd.append([("p1-demo", w) for w in range(4, 13)])
        per_cmd.append([("covers-check", None)])
        distinct = []
        depth = max(len(lst) for lst in per_cmd)
        for i in sorted(range(depth), key=lambda i: (_bit_reverse(i, depth),
                                                     i)):
            for lst in per_cmd:
                if i < len(lst):
                    for fmt in ("json", "text"):
                        if self._runs_on(lst[i], fmt):
                            distinct.append(lst[i] + (fmt,))
        jobs = []
        for c in range(0, len(distinct), self.CHUNK):
            chunk = distinct[c:c + self.CHUNK]
            jobs.extend((j, 1) for j in chunk)
            jobs.extend((j, 2) for j in chunk)
        return jobs

    def _runs_on(self, pair, fmt):
        """Each subcommand and format runs on one of the N=5 covers, in
        turn.  tot does not run on them: a 1.3 s job whose cost follows
        the cover more than its Cech dimension, it would set the tail and
        a seventh of the run's time from one seeded cover."""
        cmd, name = pair
        if not str(name).startswith("random-n5-"):
            return True
        if cmd == "tot":
            return False
        turn = 2 * self.N5_COMMANDS.index(cmd) + (fmt == "text")
        return int(name.rsplit("-", 1)[1]) == turn % self.BANDS[5][1]

    def cycle(self):
        return self.jobs

    def tour(self):
        # each subcommand in each format once, on its first input
        seen, out = set(), []
        for spec, pass_no in self.jobs:
            if pass_no == 1 and (spec[0], spec[2]) not in seen:
                seen.add((spec[0], spec[2]))
                out += [(spec, 1), (spec, 2)]
        return out

    def _argv(self, spec):
        cmd, arg, fmt = spec
        argv = [cmd]
        if cmd in self.PRESHEAF_COMMANDS or cmd == "compare":
            argv += ["--input", self.inputs_meta[arg][0]]
        elif cmd == "homology":
            argv += ["--input", self.novikov_path]
        elif cmd == "telescope":
            den, e, length = arg
            argv += ["--novikov-den", str(den), "--novikov-e", e,
                     "--weight-cutoff", str(length)]
        elif cmd == "p1-demo":
            argv += ["--laurent-cutoff", str(arg)]
        return argv + ["--format", fmt, "--out", self.out_path]

    def run(self, job, _):
        spec, pass_no = job
        code = self.mods["cli"].main(self._argv(spec))
        with open(self.out_path, "rb") as fh:
            raw = fh.read()
        if pass_no == 1:
            self.first_pass[spec] = raw
        elif self.first_pass.get(spec) != raw:
            return False, "report differs between passes"
        text = raw.decode("utf-8")
        report = json.loads(text) if spec[2] == "json" \
            else parse_text_report(text)
        return self._known_answer(spec, code, report)

    def _known_answer(self, spec, code, report):
        cmd, arg, _ = spec
        checks = {c["id"]: c for c in report["checks"]}
        want_code = 0
        if cmd in self.PRESHEAF_COMMANDS or cmd == "compare":
            _, _, betti, descends = self.inputs_meta[arg]
            if cmd == "descent":
                want_code = 0 if descends else 1
                c = checks.get("descent-quasi-iso", {})
                ok = (c.get("descends") == descends
                      and nz(c.get("cech_betti", {})) == betti
                      and c.get("witness_degree") == (None if descends else 0))
            elif cmd == "cech":
                ok = nz(checks.get("cech-table", {}).get("betti", {})) == betti
            elif cmd == "tot":
                c = checks.get("totalization-iso", {})
                ok = report["ok"] and nz(c.get("tot_betti", {})) == betti \
                    and nz(c.get("cech_betti", {})) == betti
            elif cmd == "compare":
                c = checks.get("betti-stability", {})
                ok = report["ok"] and nz(c.get("betti", {})) == betti \
                    and "whitney-section-exact" in checks
            elif cmd == "validate":
                ok = report["ok"] and len(checks) == 2
            else:
                ok = report["ok"] and "inclusion-exclusion-iso" in checks
        elif cmd == "homology":
            c = checks.get("homology-table", {})
            ok = {k: v for k, v in c.get("torsion_u_orders", {}).items()
                  if v} == {"0": [3]}
        elif cmd == "telescope":
            den, e, _ = arg
            order = math.ceil(Fraction(e) * den)
            c = checks.get("telescope-pure-torsion", {})
            ok = report["ok"] and c.get("induced_rank") == 0 and \
                {k: v for k, v in c.get("torsion_u_orders", {}).items()
                 if v} == {"0": [order]}
        elif cmd == "p1-demo":
            c = checks.get("p1-cech-betti", {})
            ok = report["ok"] and c.get("betti") == {"0": 1, "1": 3}
        else:
            ok = report["ok"] and len(checks) == 2
        if code != want_code:
            return False, f"exit {code}, expected {want_code}"
        return ok, "" if ok else f"unexpected report for {spec}"


WORKLOADS = {w.name: w for w in (Forms, Scalar, Cli)}
