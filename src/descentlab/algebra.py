"""Products on cover cohomology, and the projective-line polyvector cover.

Two cochain-level products are implemented: the front/back-face cup product
on the Cech complex of a cover, and the levelwise wedge-times-value product
on the polynomial-forms totalization.  Both need the presheaf values to be
graded algebras, supplied as a value product: a function
mult(J, q1, vec1, q2, vec2) that multiplies within F(J), taking dict-vectors
in internal degrees q1 and q2 to one in degree q1 + q2.
"""

from fractions import Fraction

from .complexes import ChainMap, Complex, HomologySpace
from .errors import InputError, ShapeMismatch
from .linalg import SparseMatrix, accumulate, add_into, rank
from .presheaf import (TOP, CechComplex, CoverPresheaf, TwComplex,
                       _transport, tot, tw, tw_to_tot)
from .scalars import QQ
from .simplex import PolyForm


def point_product(F: CoverPresheaf):
    """Scalar multiplication, for presheaves of one-dimensional degree-0
    values."""

    def mult(J, q1, v1, q2, v2):
        if q1 or q2 or not v1 or not v2:
            return {}
        c = v1.get(0, Fraction(0)) * v2.get(0, Fraction(0))
        return {0: c} if c else {}

    return mult


def graph_product(F: CoverPresheaf):
    """Front/back vertex-evaluation product on cell-graph cochains.

    On vertices the product is pointwise; a function multiplies an edge
    cochain through its evaluation at the edge's first vertex from the left
    and at the second vertex from the right; edge times edge is zero (there
    are no 2-cells).
    """

    def mult(J, q1, v1, q2, v2):
        labels = F.value(J).labels or {}
        edges = labels.get(1, [])
        vidx = {v: i for i, v in enumerate(labels.get(0, []))}
        out = {}
        if q1 == 0 and q2 == 0:
            for i, a in v1.items():
                b = v2.get(i)
                if b:
                    out[i] = a * b
        elif q1 == 0 and q2 == 1:
            for k, (a, _) in enumerate(edges):
                f, w = v1.get(vidx[a]), v2.get(k)
                if f and w:
                    out[k] = f * w
        elif q1 == 1 and q2 == 0:
            for k, (_, b) in enumerate(edges):
                w, g = v1.get(k), v2.get(vidx[b])
                if w and g:
                    out[k] = w * g
        return {k: v for k, v in out.items() if v}

    return mult


# ---------------------------------------------------------------------------
# cup product on the Cech side


def cech_cup(C: CechComplex, prod, n1, x: dict, n2, y: dict):
    """Front-face/back-face product of Cech cochains.

    The (p1+p2, K) component collects x's front (p1, K[:p1+1]) component
    times y's back (p2, K[p1:]) component, both restricted to F(K), with the
    sign that moves x's internal degree past y's Cech level.
    """
    F = C.F
    out = {}
    for p, K, off, q in C.blocks(n1 + n2):
        acc = {}
        for p1 in range(p + 1):
            p2 = p - p1
            q1, q2 = n1 - p1, n2 - p2
            J1, J2 = K[:p1 + 1], K[p1:]
            xc = C.component(n1, x, J1)
            yc = C.component(n2, y, J2)
            if not xc or not yc:
                continue
            rx = F.res(J1, K).mat(q1).matvec(xc)
            ry = F.res(J2, K).mat(q2).matvec(yc)
            piece = prod(K, q1, rx, q2, ry)
            if not piece:
                continue
            add_into(acc, piece, -1 if (q1 * p2) % 2 else 1)
        for i, v in acc.items():
            out[off + i] = v
    return out


# ---------------------------------------------------------------------------
# product on the forms totalization


def tw_include(small: TwComplex, big: TwComplex) -> ChainMap:
    """Canonical inclusion between forms totalizations, small cutoff into
    large: form monomials are sent to themselves."""
    if big.weight_cutoff < small.weight_cutoff:
        raise ShapeMismatch("target cutoff is smaller than the source's")
    return _transport(small, big, lambda p, key: PolyForm(p, {key: Fraction(1)}))


def tw_product(small: TwComplex, big: TwComplex, prod,
               n1, x: dict, n2, y: dict):
    """Product of two forms-totalization elements, landing at doubled cutoff.

    x and y are kernel-coordinate vectors of `small` in degrees n1 and n2;
    the result is a kernel-coordinate vector of `big`, whose weight cutoff
    must be at least twice small's.  Levelwise, (w1 (x) a1)(w2 (x) a2) =
    (-1)^(|a1| |w2|) (w1 ^ w2) (x) (a1 a2), the value product taken
    componentwise over the overlaps.
    """
    if big.weight_cutoff < 2 * small.weight_cutoff:
        raise ShapeMismatch("target cutoff cannot hold the product")
    F = small.F
    nerve = small.nerve
    n = n1 + n2

    def amb_of(deg, coords):
        out = {}
        for j, c in coords.items():
            add_into(out, small.kernel[deg][j], c)
        return out

    ax, ay = amb_of(n1, x), amb_of(n2, y)
    amb = {}
    for p in range(F.n_sets):
        lv1 = small.level_component(n1, ax, p)
        lv2 = small.level_component(n2, ay, p)
        if not lv1 or not lv2:
            continue
        tensor = small.tensors[p]
        model_s, model_b = small.models[p], big.models[p]
        for col1, c1 in lv1.items():
            i1, a1, b1 = tensor.locate(n1, col1)
            q1 = n1 - i1
            J1, loc1 = nerve.locate(p, q1, b1)
            w1 = PolyForm(p, {model_s.basis(i1)[a1]: Fraction(1)})
            for col2, c2 in lv2.items():
                i2, a2, b2 = tensor.locate(n2, col2)
                q2 = n2 - i2
                J2, loc2 = nerve.locate(p, q2, b2)
                if J1 != J2:
                    continue
                w2 = PolyForm(p, {model_s.basis(i2)[a2]: Fraction(1)})
                wprod = w1.wedge(w2)
                if wprod.is_zero():
                    continue
                piece = prod(J1, q1, {loc1: c1}, q2, {loc2: c2})
                if not piece:
                    continue
                sign = -1 if (q1 * i2) % 2 else 1
                fvec = model_b.to_vec(i1 + i2, wprod)
                for aout, cw in fvec.items():
                    for locout, cv in piece.items():
                        b = nerve.pos(q1 + q2, J1, locout)
                        accumulate(amb, big.ambient_pos(n, p, i1 + i2, aout, b),
                                   cw * cv * sign)
    return big.represent(n, amb)


# ---------------------------------------------------------------------------
# homology-level comparison of the two products


def product_homology_agreement(F: CoverPresheaf, cutoff: int, prod):
    """Compare the two products on cohomology classes through the zigzag.

    For every pair of classes on the forms side, multiply there, push to the
    Cech side, and check the result agrees with the cup product of the
    pushed classes up to coboundary.  Returns the number of pairs compared;
    raises ShapeMismatch on the first disagreement.
    """
    W = tw(F, cutoff)
    W2 = tw(F, 2 * cutoff)
    T = tot(F)
    C = T.cech
    to_tot_s = tw_to_tot(W, T)
    to_tot_b = tw_to_tot(W2, T)
    to_cech = T.to_cech()
    push_s = {n: to_cech.mat(n) @ to_tot_s.mat(n) for n in W.cx.degrees()}
    push_b = {n: to_cech.mat(n) @ to_tot_b.mat(n) for n in W2.cx.degrees()}
    spaces = {n: HomologySpace(W.cx, n) for n in W.cx.degrees()}
    cech_spaces = {}
    compared = 0
    for n1, h1 in spaces.items():
        for n2, h2 in spaces.items():
            n = n1 + n2
            if n not in cech_spaces:
                cech_spaces[n] = HomologySpace(C.cx, n)
            hc = cech_spaces[n]
            for a in h1.reps:
                for b in h2.reps:
                    lhs_tw = tw_product(W, W2, prod, n1, a, n2, b)
                    lhs = push_b[n].matvec(lhs_tw) if lhs_tw else {}
                    ua = push_s[n1].matvec(a)
                    ub = push_s[n2].matvec(b)
                    rhs = cech_cup(C, prod, n1, ua, n2, ub)
                    diff = add_into(lhs, rhs, -1)
                    if diff and any(hc.project(diff).values()):
                        raise ShapeMismatch(
                            f"products disagree on classes at degrees "
                            f"({n1}, {n2})")
                    compared += 1
    return compared


# ---------------------------------------------------------------------------
# the projective line through polynomial vector fields


def p1_polyvector_presheaf(window: int) -> CoverPresheaf:
    """Two affine charts with polynomial functions and vector fields.

    Degree 0 of each value holds functions, degree 1 holds vector fields,
    and the differential is zero.  Chart coordinates are exchanged by
    u -> 1/u, under which a field u^k d/du transforms to -(v^(2-k)) d/dv.
    Exponents are clipped to a window: [0, window] on the charts; on the
    overlap, exponents representable in both charts, which is [-window,
    window] for functions and [2 - window, window] for fields.  The top
    value holds the globally regular sections: constants, and the
    three-dimensional space of fields spanned by d/du, u d/du, u^2 d/du.
    """
    D = window
    if D < 2:
        raise InputError("window must be at least 2")

    c1, c2 = (Complex(QQ, {0: D + 1, 1: D + 1}, {}, support=(0, 1))
              for _ in range(2))
    fun_lo, fun_hi = -D, D
    fld_lo, fld_hi = 2 - D, D
    overlap = Complex(QQ, {0: fun_hi - fun_lo + 1, 1: fld_hi - fld_lo + 1}, {},
                      support=(0, 1))
    top = Complex(QQ, {0: 1, 1: 3}, {}, support=(0, 1))

    def fun_col(t):
        return t - fun_lo

    def fld_col(t):
        return t - fld_lo

    # chart 1 sits inside the overlap as written
    m0 = SparseMatrix.from_entries(
        overlap.dim(0), D + 1,
        [(fun_col(k), k, 1) for k in range(D + 1)])
    m1 = SparseMatrix.from_entries(
        overlap.dim(1), D + 1,
        [(fld_col(k), k, 1) for k in range(D + 1)
         if fld_lo <= k <= fld_hi])
    r1 = ChainMap(c1, overlap, {0: m0, 1: m1})
    # chart 2: y^k -> x^(-k),  y^k dy -> -x^(2-k) dx
    m0 = SparseMatrix.from_entries(
        overlap.dim(0), D + 1,
        [(fun_col(-k), k, 1) for k in range(D + 1)])
    m1 = SparseMatrix.from_entries(
        overlap.dim(1), D + 1,
        [(fld_col(2 - k), k, -1) for k in range(D + 1)
         if fld_lo <= 2 - k <= fld_hi])
    r2 = ChainMap(c2, overlap, {0: m0, 1: m1})
    # global sections into the charts
    t1 = ChainMap(top, c1, {
        0: SparseMatrix.from_entries(D + 1, 1, [(0, 0, 1)]),
        1: SparseMatrix.from_entries(D + 1, 3,
                                     [(k, k, 1) for k in range(3)]),
    })
    t2 = ChainMap(top, c2, {
        0: SparseMatrix.from_entries(D + 1, 1, [(0, 0, 1)]),
        1: SparseMatrix.from_entries(D + 1, 3,
                                     [(2 - k, k, -1)
                                      for k in range(3)]),
    })
    values = {(1,): c1, (2,): c2, (1, 2): overlap, TOP: top}
    adjacent = {((1,), (1, 2)): r1, ((2,), (1, 2)): r2,
                (TOP, (1,)): t1, (TOP, (2,)): t2}
    return CoverPresheaf(2, values, adjacent)


def p1_slice_ranks(window: int):
    """Independent rank computation, one polyvector degree at a time.

    Each degree gives a two-term complex (chart sections) -> (overlap
    sections); the report maps polyvector degree to (kernel dimension,
    cokernel dimension).  Computed straight from the difference-of-
    restrictions matrix, with no Cech machinery involved.
    """
    F = p1_polyvector_presheaf(window)
    out = {}
    for k in (0, 1):
        r1 = F.res((1,), (1, 2)).mat(k)
        r2 = F.res((2,), (1, 2)).mat(k)
        stacked = SparseMatrix(r1.nrows, r1.ncols + r2.ncols)
        stacked.paste(r1, 0, 0)
        stacked.paste(r2, 0, r1.ncols, -1)
        rk = rank(stacked)
        out[k] = (stacked.ncols - rk, stacked.nrows - rk)
    return out


def p1_chart_operator_discrepancy(window: int):
    """How the odd Laplacian changes across the coordinate flip.

    Applies the single-variable operator to u^t d/du in each chart and
    expresses both answers in the first chart.  The difference is reported
    per exponent; it is a nonzero constant multiple of x^(t-1), which is the
    point: the operator depends on the chosen volume form.
    """
    out = []
    for t in range(2 - window, window + 1):
        # chart 1: delta(x^t xi) = t x^(t-1)
        own = (t, t - 1)
        # chart 2: x^t xi = -(y^(2-t)) eta, delta gives -(2-t) y^(1-t),
        # which reads -(2-t) x^(t-1) back in chart 1
        other = (-(2 - t), t - 1)
        out.append({
            "field_exponent": t,
            "chart1": f"{own[0]}*x^{own[1]}",
            "chart2_read_in_chart1": f"{other[0]}*x^{other[1]}",
            "difference": f"{own[0] - other[0]}*x^{t - 1}",
        })
    return out
