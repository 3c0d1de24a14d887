"""Span tracer for the traced benchmark run, installed from outside the package.

Nothing under ``src/`` knows about it: ``install`` replaces each wrap target
(a public function or method of a descentlab module) by a wrapper that
records one span per call, in every ``descentlab.*`` namespace that bound the
function with ``from .x import y``, and ``uninstall`` puts the originals back.
The wrappers are built on the first ``install``; later ones only rebind them.

A span is (job id, name, start, end, parent span).  Spans live in typed
arrays in memory and are written out once, after the run.

Per-entry arithmetic helpers (``vec_axpy``, ``scalar_is_zero``,
``as_fraction``, ``format_rational`` and the term-level methods of ``Poly``,
``Polyvector``, ``PolyForm``) are deliberately not wrapped: a span per call
would cost more than the work it measures.  Their time counts as self time
of the enclosing span.  Public functions that no workload calls (the product
code in ``algebra``, ``image_basis``, ``solve``, ``Echelon``,
``schouten_oracle``, ``fold_cover_value``, ...) are not wrap targets either,
because every target must be reached by at least one workload.
"""

import gzip
import os
import sys
from array import array
from collections import defaultdict
from functools import wraps
from time import perf_counter

QQ = "Q"        # descentlab.scalars.QQ, the rational coefficient ring


# ---------------------------------------------------------------------------
# counters taken at the layer boundary, from a call's arguments and result


def _rref(c, args, result):
    rows = args[0].rows
    c["linalg.rref_nnz_in"] += sum(len(r) for r in rows)
    c["rref_rows_in"] += sum(1 for r in rows if r)
    c["linalg.rref_pivots"] += len(result)
    c["linalg.rref_nnz_out"] += sum(len(row) for _, row in result)


def _echelon_add(c, args, result):
    c["echelon_adds"] += 1
    c["echelon_useful"] += 1 if result else 0


def _omega_model(c, args, result):
    c["simplex.omega_basis_dim"] += args[0].cx.total_dim()


def _cone(c, args, result):
    c["complexes.cone_dim"] += result.cx.total_dim()


def _tw(c, args, result):
    c["presheaf.tw_ambient_dim"] += result.ambient.total_dim()
    c["presheaf.tw_kernel_dim"] += result.cx.total_dim()


def _tot(c, args, result):
    c["presheaf.tot_ambient_dim"] += result.ambient.total_dim()


def _cech(c, args, result):
    c["presheaf.cech_dim"] += args[0].cx.total_dim()


def _bv(c, args, result):
    c["polyvec.axiom_instances"] += result


def _render(c, args, result):
    c["cli.report_bytes"] += len(result.encode("utf-8"))


# (layer, "module:attribute path", workloads that reach it, counter hook)
TARGETS = [
    ("linalg", "linalg:rref", "forms scalar cli", _rref),
    ("linalg", "linalg:rank", "forms scalar cli", None),
    ("linalg", "linalg:kernel_basis", "forms scalar cli", None),
    ("linalg", "linalg:SparseMatrix.__matmul__", "forms scalar cli", None),
    ("linalg", "linalg:SparseMatrix.matvec", "forms scalar cli", None),
    ("linalg", "linalg:SparseMatrix.column", "forms scalar cli", None),
    ("linalg", "linalg:SparseMatrix.__add__", "forms scalar cli", None),
    ("linalg", "linalg:SparseMatrix.__sub__", "forms scalar cli", None),
    ("linalg", "linalg:SparseMatrix.scale", "forms scalar cli", None),
    ("linalg", "linalg:SparseMatrix.__eq__", "forms cli", None),
    ("linalg", "linalg:SparseMatrix.is_zero", "forms scalar cli", None),
    ("linalg", "linalg:SparseMatrix.paste", "forms scalar cli", None),
    ("linalg", "linalg:SparseMatrix.from_entries", "forms cli", None),
    ("linalg", "linalg:SparseMatrix.identity", "forms scalar cli", None),
    ("linalg", "linalg:TrackedEchelon.add", "forms scalar cli", _echelon_add),
    ("linalg", "linalg:TrackedEchelon.represent", "forms scalar cli", None),
    ("scalars", "scalars:NovikovElem.__mul__", "scalar cli", None),
    ("complexes", "complexes:ChainMap.validate", "forms cli", None),
    ("complexes", "complexes:ChainMap.compose", "forms scalar cli", None),
    ("complexes", "complexes:ChainMap.__add__", "forms cli", None),
    ("complexes", "complexes:ChainMap.scale", "forms cli", None),
    ("complexes", "complexes:ChainMap.__eq__", "cli", None),
    ("complexes", "complexes:ChainMap.identity", "forms scalar cli", None),
    ("complexes", "complexes:shift", "forms scalar cli", None),
    ("complexes", "complexes:cone", "forms scalar cli", _cone),
    ("complexes", "complexes:cocone", "cli", None),
    ("complexes", "complexes:direct_sum", "forms scalar cli", None),
    ("complexes", "complexes:TensorComplex.__init__", "forms cli", None),
    ("complexes", "complexes:telescope", "scalar cli", None),
    ("complexes", "complexes:telescope_comparison", "scalar cli", None),
    ("complexes", "complexes:betti_numbers", "forms cli", None),
    ("complexes", "complexes:homology", "scalar cli", None),
    ("complexes", "complexes:novikov_q_expansion", "scalar cli", None),
    ("complexes", "complexes:novikov_q_expansion_complex", "scalar cli", None),
    ("complexes", "complexes:novikov_q_expansion_map", "scalar cli", None),
    ("complexes", "complexes:HomologySpace.__init__", "scalar cli", None),
    ("complexes", "complexes:HomologySpace.project", "scalar cli", None),
    ("complexes", "complexes:homology_map", "scalar cli", None),
    ("complexes", "complexes:is_quasi_iso", "forms cli", None),
    ("complexes", "complexes:complex_from_json", "cli", None),
    ("complexes", "complexes:chain_map_from_json", "cli", None),
    ("simplex", "simplex:coface", "forms cli", None),
    ("simplex", "simplex:nc_d_on", "forms cli", None),
    ("simplex", "simplex:nc_pullback", "forms cli", None),
    ("simplex", "simplex:pf_pullback", "forms cli", None),
    ("simplex", "simplex:integration_cochain", "forms cli", None),
    ("simplex", "simplex:integrate_over_face", "forms cli", None),
    ("simplex", "simplex:whitney", "forms cli", None),
    ("simplex", "simplex:NCModel.__init__", "forms cli", None),
    ("simplex", "simplex:NCModel.to_vec", "forms cli", None),
    ("simplex", "simplex:OmegaModel.__init__", "forms cli", _omega_model),
    ("simplex", "simplex:OmegaModel.to_vec", "forms cli", None),
    ("presheaf", "presheaf:subsets", "forms cli", None),
    ("presheaf", "presheaf:all_subsets", "forms cli", None),
    ("presheaf", "presheaf:parse_key", "cli", None),
    ("presheaf", "presheaf:CoverPresheaf.res", "forms cli", None),
    ("presheaf", "presheaf:CoverPresheaf.validate", "cli", None),
    ("presheaf", "presheaf:Nerve.__init__", "forms cli", None),
    ("presheaf", "presheaf:Nerve.dmap", "forms cli", None),
    ("presheaf", "presheaf:Nerve.coface", "forms cli", None),
    ("presheaf", "presheaf:Nerve.validate", "cli", None),
    ("presheaf", "presheaf:Nerve.augmentation_to_level", "forms cli", None),
    ("presheaf", "presheaf:Nerve.locate", "forms cli", None),
    ("presheaf", "presheaf:nerve_cosimplicial", "cli", None),
    ("presheaf", "presheaf:CechComplex.__init__", "forms cli", _cech),
    ("presheaf", "presheaf:CechComplex.augmentation", "forms cli", None),
    ("presheaf", "presheaf:cech", "forms cli", None),
    ("presheaf", "presheaf:EqualizerTotalization.represent",
     "forms cli", None),
    ("presheaf", "presheaf:EqualizerTotalization.level_component",
     "forms cli", None),
    ("presheaf", "presheaf:EqualizerTotalization.augmentation",
     "forms cli", None),
    ("presheaf", "presheaf:TotComplex.to_cech", "forms cli", None),
    ("presheaf", "presheaf:tot", "forms cli", _tot),
    ("presheaf", "presheaf:tw", "forms cli", _tw),
    ("presheaf", "presheaf:tw_to_tot", "forms cli", None),
    ("presheaf", "presheaf:whitney_section", "forms cli", None),
    ("presheaf", "presheaf:drop_first_restrict", "cli", None),
    ("presheaf", "presheaf:first_intersections", "cli", None),
    ("presheaf", "presheaf:inclusion_exclusion", "cli", None),
    ("presheaf", "presheaf:verify_descent", "cli", None),
    ("presheaf", "presheaf:presheaf_from_json", "cli", None),
    ("polyvec", "polyvec:bv_axiom_check", "scalar", _bv),
    ("polyvec", "polyvec:bv_delta", "scalar", None),
    ("involutive", "involutive:poisson_bracket", "scalar", None),
    ("involutive", "involutive:check_composition_lemma", "scalar", None),
    ("involutive", "involutive:smoothing_h", "scalar cli", None),
    ("involutive", "involutive:region_sign", "scalar", None),
    ("involutive", "involutive:grid_points", "scalar cli", None),
    ("involutive", "involutive:parse_poly", "cli", None),
    ("involutive", "involutive:symplectic_names", "cli", None),
    ("involutive", "involutive:check_weak_cover_conditions", "cli", None),
    ("involutive", "involutive:check_delta_sequence", "cli", None),
    ("involutive", "involutive:build_cover_functions", "cli", None),
    ("involutive", "involutive:cover_monotonicity_report", "cli", None),
    ("algebra", "algebra:p1_polyvector_presheaf", "cli", None),
    ("algebra", "algebra:p1_slice_ranks", "cli", None),
    ("algebra", "algebra:p1_chart_operator_discrepancy", "cli", None),
    ("cli", "cli:main", "cli", None),
    ("cli", "cli:run", "cli", None),
    ("cli", "cli:job_from_args", "cli", None),
    ("cli", "cli:render", "cli", _render),
    ("cli", "cli:render_json", "cli", None),
    ("cli", "cli:render_text", "cli", None),
]

def span_name(layer, target):
    """'linalg:SparseMatrix.__matmul__' -> 'linalg.SparseMatrix.__matmul__'."""
    return f"{layer}.{target.split(':', 1)[1]}"


class WrapTargetMissing(Exception):
    """A wrap target named in TARGETS does not exist in the package."""


class Tracer:
    """In-memory span store plus the wrappers that fill it."""

    def __init__(self):
        self.names = []
        self._name_idx = {}
        self.job = array("l")
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self._stack = []
        self.job_id = -1
        self.counts = defaultdict(float)
        self.calls = defaultdict(int)      # target -> calls
        self._bindings = None              # [(owner, key, original, wrapper)]

    def _idx(self, name):
        i = self._name_idx.get(name)
        if i is None:
            i = self._name_idx[name] = len(self.names)
            self.names.append(name)
        return i

    def _wrapper(self, fn, target, layer, hook):
        default = self._idx(span_name(layer, target))
        # homology over the Novikov ring gets a span name of its own
        novikov = (self._idx("complexes.homology_novikov")
                   if target == "complexes:homology" else -1)
        tracer, calls, counts, stack = self, self.calls, self.counts, self._stack
        job, name, start, end, parent = (self.job, self.name, self.start,
                                         self.end, self.parent)

        @wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            job.append(tracer.job_id)
            name.append(novikov if novikov >= 0 and args[0].ring != QQ
                        else default)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            calls[target] += 1
            if hook is not None:
                hook(counts, args, result)
            return result

        return wrapper

    def install(self, job_id):
        """Wrap every target everywhere it is bound, recording spans under
        ``job_id``; raise if a target is missing."""
        if self._bindings is None:
            self._bindings = self._bind_all()
        self.job_id = job_id
        for owner, key, _, wrapped in self._bindings:
            setattr(owner, key, wrapped)

    def _bind_all(self):
        bindings, missing = [], []
        for layer, target, _, hook in TARGETS:
            modname, path = target.split(":")
            mod = sys.modules.get(f"descentlab.{modname}")
            owner_name, _, attr = path.rpartition(".")
            owner = mod
            if owner is not None and owner_name:
                owner = vars(mod).get(owner_name)
            raw = vars(owner).get(attr) if owner is not None else None
            if raw is None:
                missing.append(target)
                continue
            kind = type(raw) if isinstance(raw, (classmethod,
                                                 staticmethod)) else None
            fn = raw.__func__ if kind else raw
            wrapped = self._wrapper(fn, target, layer, hook)
            if kind:
                wrapped = kind(wrapped)
            # a method: every alias in its class (__radd__ = __add__); a
            # function: every descentlab namespace that imported it
            owners = [owner] if owner_name else [
                m for modkey, m in list(sys.modules.items())
                if modkey == "descentlab" or modkey.startswith("descentlab.")]
            for o in owners:
                for key, val in list(vars(o).items()):
                    if val is raw:
                        bindings.append((o, key, raw, wrapped))
        if missing:
            raise WrapTargetMissing(", ".join(missing))
        return bindings

    def unreached(self, workload):
        """Targets this workload should reach that no traced call reached."""
        return [target for _, target, workloads, _ in TARGETS
                if workload in workloads.split() and not self.calls[target]]

    def uninstall(self):
        for owner, key, raw, _ in self._bindings or ():
            setattr(owner, key, raw)
        self.job_id = -1

    # -- analysis ---------------------------------------------------------

    def self_times(self):
        """{span name: (calls, summed self time)}.  Spans are recorded only
        while a job runs, so every span belongs to one."""
        n = len(self.start)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        out = defaultdict(lambda: [0, 0.0])
        for i in range(n):
            agg = out[self.names[self.name[i]]]
            agg[0] += 1
            agg[1] += end[i] - start[i] - child[i]
        return out

    def covered_time(self):
        """Summed duration of top-level spans."""
        return sum(self.end[i] - self.start[i] for i in range(len(self.start))
                   if self.parent[i] < 0)

    def write(self, path):
        """Write every span as tab-separated text, gzip-compressed."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("span\tjob\tname\tstart\tend\tparent\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(f"{i}\t{self.job[i]}\t{names[self.name[i]]}\t"
                         f"{self.start[i]:.9f}\t{self.end[i]:.9f}\t"
                         f"{self.parent[i]}\n")


# ---------------------------------------------------------------------------
# per-layer metrics


def _sum(st, names, idx):
    return sum(st[n][idx] for n in names if n in st)


def _layer(st, layer):
    return [n for n in st if n.startswith(layer + ".")]


def layer_metrics(tracer, job_wall, untraced_wall, fraction_share):
    """The per-layer metrics of BENCHMARK.json from one traced pass."""
    st = tracer.self_times()
    c = tracer.counts
    S = lambda *names: _sum(st, names, 1)          # noqa: E731
    N = lambda *names: _sum(st, names, 0)          # noqa: E731
    echelon = ("linalg.TrackedEchelon.add", "linalg.TrackedEchelon.represent")
    m = {
        "linalg.rref_s": S("linalg.rref"),
        "linalg.rref_calls": N("linalg.rref"),
        "linalg.rref_nnz_in": c["linalg.rref_nnz_in"],
        "linalg.rref_pivots": c["linalg.rref_pivots"],
        "linalg.rref_nnz_out": c["linalg.rref_nnz_out"],
        "linalg.rref_pivot_ratio": (c["linalg.rref_pivots"] / c["rref_rows_in"]
                                    if c["rref_rows_in"] else 0.0),
        "linalg.echelon_s": S(*echelon),
        "linalg.echelon_calls": N(*echelon),
        "linalg.echelon_add_useful_ratio": (
            c["echelon_useful"] / c["echelon_adds"]
            if c["echelon_adds"] else 0.0),
        "linalg.matmul_s": S("linalg.SparseMatrix.__matmul__"),
        "linalg.matmul_calls": N("linalg.SparseMatrix.__matmul__"),
        "linalg.column_calls": N("linalg.SparseMatrix.column"),
        "linalg.self_s": S(*_layer(st, "linalg")),
        "scalars.fraction_share": fraction_share,
        "scalars.novikov_ops": N(*_layer(st, "scalars")),
        "complexes.betti_s": S("complexes.betti_numbers"),
        "complexes.qiso_s": S("complexes.is_quasi_iso"),
        "complexes.cone_dim": c["complexes.cone_dim"],
        "complexes.tensor_s": S("complexes.TensorComplex.__init__"),
        "complexes.homology_novikov_s": S(
            "complexes.homology_novikov", "complexes.novikov_q_expansion",
            "complexes.novikov_q_expansion_complex",
            "complexes.novikov_q_expansion_map"),
        "complexes.telescope_s": S("complexes.telescope",
                                   "complexes.telescope_comparison"),
        "complexes.self_s": S(*_layer(st, "complexes")),
        "simplex.model_s": S("simplex.NCModel.__init__",
                             "simplex.OmegaModel.__init__"),
        "simplex.omega_basis_dim": c["simplex.omega_basis_dim"],
        "simplex.pullback_calls": N("simplex.nc_pullback",
                                    "simplex.pf_pullback"),
        "simplex.pullback_s": S("simplex.nc_pullback", "simplex.pf_pullback"),
        "simplex.integrate_s": S("simplex.integration_cochain",
                                 "simplex.integrate_over_face"),
        "simplex.self_s": S(*_layer(st, "simplex")),
        "presheaf.tw_s": S("presheaf.tw"),
        "presheaf.tw_ambient_dim": c["presheaf.tw_ambient_dim"],
        "presheaf.tw_kernel_dim": c["presheaf.tw_kernel_dim"],
        "presheaf.tot_s": S("presheaf.tot"),
        "presheaf.tot_ambient_dim": c["presheaf.tot_ambient_dim"],
        "presheaf.transport_s": S("presheaf.tw_to_tot",
                                  "presheaf.whitney_section",
                                  "presheaf.TotComplex.to_cech"),
        "presheaf.validate_s": S("presheaf.CoverPresheaf.validate",
                                 "presheaf.Nerve.validate"),
        "presheaf.cech_s": S("presheaf.cech", "presheaf.CechComplex.__init__"),
        "presheaf.cech_dim": c["presheaf.cech_dim"],
        "presheaf.descent_s": S("presheaf.verify_descent"),
        "presheaf.incl_excl_s": S("presheaf.inclusion_exclusion",
                                  "presheaf.drop_first_restrict",
                                  "presheaf.first_intersections"),
        "presheaf.from_json_s": S("presheaf.presheaf_from_json"),
        "presheaf.self_s": S(*_layer(st, "presheaf")),
        "polyvec.bv_s": S("polyvec.bv_axiom_check"),
        "polyvec.axiom_instances": c["polyvec.axiom_instances"],
        "polyvec.self_s": S(*_layer(st, "polyvec")),
        "involutive.bracket_calls": N("involutive.poisson_bracket"),
        "involutive.smoothing_calls": N("involutive.smoothing_h"),
        "involutive.self_s": S(*_layer(st, "involutive")),
        "algebra.self_s": S(*_layer(st, "algebra")),
        "cli.self_s": S(*_layer(st, "cli")) - S("cli.render", "cli.render_json",
                                                 "cli.render_text"),
        "cli.render_s": S("cli.render", "cli.render_json", "cli.render_text"),
        "cli.report_bytes": c["cli.report_bytes"],
        "trace.coverage": (tracer.covered_time() / job_wall
                           if job_wall else 0.0),
        "trace.overhead_ratio": (job_wall / untraced_wall - 1.0
                                 if untraced_wall else 0.0),
    }
    return m


def fraction_share(profile_stats):
    """Share of profiled own time spent in functions of fractions.py."""
    total = frac = 0.0
    for (filename, _, _), (_, _, tottime, _, _) in profile_stats.items():
        total += tottime
        if os.path.basename(filename) == "fractions.py":
            frac += tottime
    return frac / total if total else 0.0
