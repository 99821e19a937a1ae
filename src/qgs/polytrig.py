"""Edgewise poly-trigonometric functions and the one closed-form mass kernel.

Functions on a metric graph are stored per edge as finite sums of terms
``c * x**p * exp(1j*w*x)`` with p <= 2.  This class contains every
eigenfunction of a free Laplacian realisation (p = 0), edgewise quadratics
such as torsion functions (w = 0), and is closed under differentiation and
restriction.  Pairwise products reach p = 4, whose integrals are closed
form: `integrate_powexp` integrates all windows of all edges in one numpy
call (2d sinc(wd/pi) exp(iwm) for p = 0; the antiderivative, or a
fixed-length series near wd = 0, for p >= 1).  Every L2 integral goes
through it once, over one layout of terms and windows (`_layout`): `masses`
gives the masses of many functions and their derivatives, `gram` the cross
terms (`inner_product` is one of them).
A norm too small for the closed form to resolve from rounding is
integrated again by a positive Gauss rule with an explicit error bound.
"""

from __future__ import annotations

import cmath
import math
from itertools import accumulate
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

MAX_TERM_POWER = 2       # per-term polynomial degree cap; products reach 4
PRUNE_REL = 1e-15        # drop terms whose |coeff| is below this times the edge max
_SERIES_SWITCH = 0.5     # |w*d| below which the Taylor branch of the kernel is used
_SERIES_TERMS = 8        # fixed length of that branch (see _exp_poly_base)
_RESOLVED_REL = 1e-12    # a mass below this share of its gross scale is re-integrated
SUP_SAMPLES = 4096       # boundary points of sup_on_disk_neighborhood's stadium

# Pascal triangle up to the largest power a pairwise product can reach.
_BINOM = np.array([[math.comb(p, q) if q <= p else 0 for q in range(5)] for p in range(5)],
                  dtype=float)
# _SERIES[q, j] = 1 / ((n0 + 2j)! (n0 + 2j + q + 1)), n0 = q mod 2 (see _exp_poly_base)
_SERIES = np.array([[1.0 / (math.factorial(q % 2 + 2 * j) * (q % 2 + 2 * j + q + 1))
                     for j in range(_SERIES_TERMS)] for q in range(5)])


class PolyTrigTerm(NamedTuple):
    """One term c * x**power * exp(1j*freq*x)."""

    coeff: complex
    power: int
    freq: float


def canonical_terms(terms: Iterable[PolyTrigTerm]) -> tuple[PolyTrigTerm, ...]:
    """Merge terms sharing (power, freq), prune relatively negligible ones."""
    merged: dict[tuple[int, float], complex] = {}
    for t in terms:
        if t.power < 0 or t.power > MAX_TERM_POWER:
            raise ValueError(f"term power {t.power} outside 0..{MAX_TERM_POWER}")
        key = (int(t.power), float(t.freq) + 0.0)  # +0.0 folds -0.0 into 0.0
        merged[key] = merged.get(key, 0j) + complex(t.coeff)
    return _pruned(merged)


def _pruned(merged: dict[tuple[int, float], complex]) -> tuple[PolyTrigTerm, ...]:
    """The terms of coefficient sums by canonical key (power, freq): those at
    least PRUNE_REL of the largest |sum|, sorted by key."""
    if not merged:
        return ()
    peak = max(abs(c) for c in merged.values())
    if peak == 0.0:
        return ()
    out = [PolyTrigTerm(c, p, w) for (p, w), c in merged.items()
           if abs(c) >= PRUNE_REL * peak]
    out.sort(key=lambda t: (t.power, t.freq))
    return tuple(out)


class IntervalUnion:
    """Sorted union of disjoint closed intervals inside [0, length].

    Touching intervals are merged; overlapping interiors and non-finite ends
    are rejected.  ``length`` is the ambient edge length (defaults to the last
    endpoint).  The measure queries read the read-only arrays ``starts``,
    ``ends`` and ``cum``: cum[j] sums the first j lengths left to right.
    """

    __slots__ = ("intervals", "length", "starts", "ends", "cum")

    def __init__(self, intervals: Iterable[Sequence[float]], length: float | None = None):
        ivs = sorted((float(a), float(b)) for a, b in intervals)
        if not all(math.isfinite(a) and math.isfinite(b) for a, b in ivs):
            raise ValueError("interval ends must be finite")
        ivs = [(a, b) for a, b in ivs if b > a]
        merged: list[tuple[float, float]] = []
        for a, b in ivs:
            if merged and a < merged[-1][1] - 1e-12 * max(1.0, merged[-1][1]):
                raise ValueError(f"intervals overlap near {a!r}")
            if merged and a <= merged[-1][1]:
                merged[-1] = (merged[-1][0], max(merged[-1][1], b))
            else:
                merged.append((a, b))
        if merged and merged[0][0] < -1e-12:
            raise ValueError("interval extends below 0")
        if length is None:
            length = merged[-1][1] if merged else 0.0
        length = float(length)
        if merged and merged[-1][1] > length * (1.0 + 1e-12) + 1e-300:
            raise ValueError(f"interval extends beyond edge length {length}")
        # clamp fp spill at the domain ends
        self._store([(min(max(a, 0.0), length), min(b, length)) for a, b in merged], length)

    @classmethod
    def _sorted(cls, parts: list[tuple[float, float]], length: float) -> "IntervalUnion":
        """The union of float parts that are already sorted, nonempty,
        separated by gaps and inside [0, length] but for a last end that spills
        past length by rounding, which is clamped as the constructor does;
        nothing else is checked."""
        iu = cls.__new__(cls)
        iu._store(parts and [*parts[:-1], (parts[-1][0], min(parts[-1][1], length))], length)
        return iu

    def _store(self, merged: list[tuple[float, float]], length: float):
        self.intervals: tuple[tuple[float, float], ...] = tuple(merged)
        self.length = length
        # one read-only buffer: the starts, the ends and the running sums
        n = len(merged)
        starts, ends = zip(*merged) if merged else ((), ())
        buf = np.array([*starts, *ends, *accumulate((b - a for a, b in merged), initial=0.0)])
        buf.setflags(write=False)
        self.starts, self.ends, self.cum = buf[:n], buf[n:2 * n], buf[2 * n:]

    def __len__(self):
        return len(self.intervals)

    def __bool__(self):
        return bool(self.intervals)

    def __eq__(self, other):
        return isinstance(other, IntervalUnion) and self.intervals == other.intervals

    def __repr__(self):
        return f"IntervalUnion({list(self.intervals)!r}, length={self.length!r})"

    @property
    def measure(self) -> float:
        return float(self.cum[-1])

    def measure_in(self, lo: float, hi: float) -> float:
        return sum(min(b, hi) - max(a, lo) for a, b in self.intervals
                   if min(b, hi) > max(a, lo))

    def prefix_measures(self, points: np.ndarray) -> np.ndarray:
        """F(t) = |self ∩ [0, t]| for each t in points, by one sorted search: j
        is the last interval that starts at or below t (t raised to the first
        start), F(t) = cum[j] + (min(t, ends[j]) - starts[j]).  Below 8
        intervals, the floats of summing the clipped lengths left to right."""
        pts = np.asarray(points, dtype=float)
        if not self.intervals:
            return np.zeros_like(pts)
        pts = np.maximum(pts, self.starts[0])
        j = np.searchsorted(self.starts, pts, side="right") - 1
        return self.cum[j] + (np.minimum(pts, self.ends[j]) - self.starts[j])

    def gaps(self) -> tuple[float, list[float], float]:
        """(left endpoint gap, interior gaps, right endpoint gap) on [0, length]."""
        if not self.intervals:
            return self.length, [], self.length
        interior = self.starts[1:] - self.ends[:-1]
        return (float(self.starts[0]), interior[interior > 0.0].tolist(),
                self.length - float(self.ends[-1]))


def whole_edge(length: float) -> IntervalUnion:
    return IntervalUnion([(0.0, length)], length=length)


# ---------------------------------------------------------------------------
# exact quadrature kernel


def _exp_poly_base(w: np.ndarray, d: np.ndarray, qmax: int) -> list[np.ndarray]:
    """I[q] = ∫_{-d}^{d} y**q exp(1j*w*y) dy for q = 0..qmax, elementwise.

    q = 0 is 2d sinc(wd/pi), exact at w = 0.  For q >= 1 the antiderivative
    is used where |wd| > 1/2, and below that, where it would cancel like
    1/w**(q+1), the parity series
        I_q = 2 d**(q+1) (i s)**n0 sum_j (-s**2)**j / ((n0+2j)! (n0+2j+q+1)),
    s = wd, n0 = q mod 2, summed by Horner over a fixed _SERIES_TERMS = 8
    terms (j = 0..7).  For |s| <= 1/2 and 1 <= q <= 4 the terms alternate,
    each is at most 0.09 of the one before and the first omitted one (j = 8)
    is below 1.8e-19 of the first, so the sum is within 9 % of its first
    term and the truncation error is below 2.1e-19 relative: no
    data-dependent stopping test is needed.
    """
    s = w * d
    out = [2.0 * d * np.sinc(s / math.pi)]
    if not qmax:
        return out
    w, d = np.broadcast_to(w, s.shape), np.broadcast_to(d, s.shape)
    small = np.abs(s) <= _SERIES_SWITCH
    ds, ss, t = d[small], s[small], -s[small] ** 2
    iw, db = 1j * w[~small], d[~small]
    epd, emd = np.exp(iw * db), np.exp(-iw * db)
    for q in range(1, qmax + 1):
        col = np.empty(s.shape, dtype=complex)
        acc = np.full(t.shape, _SERIES[q, -1])
        for c in _SERIES[q, -2::-1]:
            acc = acc * t + c
        col[small] = 2.0 * ds ** (q + 1) * (1j * ss if q % 2 else 1.0) * acc
        # the antiderivative sum_j (-1)^j q!/(q-j)! y^(q-j) / (iw)^(j+1) e^(iwy) at -+d
        parts = [(-1.0) ** j * math.perm(q, j) * db ** (q - j) / iw ** (j + 1)
                 for j in range(q + 1)]
        col[~small] = epd * sum(parts) - emd * sum((-1.0) ** (q - j) * part
                                                   for j, part in enumerate(parts))
        out.append(col)
    return out


def integrate_powexp(powers, freqs, a, b) -> np.ndarray:
    """∫_a^b x**p exp(1j*w*x) dx, elementwise over p and w (one shape)
    broadcast against the window ends a, b, so the windows of an edge, as
    arrays against a trailing term axis, are one call.  Empty windows give 0.
    With m, d the midpoint and half-width, (m + y)**p is expanded binomially
    over _exp_poly_base; with every power 0 it is 2d sinc(wd/pi) exp(iwm)."""
    powers = np.asarray(powers, dtype=int)
    freqs = np.asarray(freqs, dtype=float)
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    m = 0.5 * (a + b)
    d = 0.5 * np.maximum(b - a, 0.0)
    qmax = int(powers.max(initial=0))
    base = _exp_poly_base(freqs, d, qmax)
    res = base[0]
    if qmax:
        res = sum(_BINOM[powers, q] * m ** np.maximum(powers - q, 0) * base[q]
                  for q in range(qmax + 1))
    return np.exp(1j * freqs * m) * res


# ---------------------------------------------------------------------------
# graph functions


class GraphFunction:
    """Edgewise poly-trig function; edges absent from the map are zero.
    Functions are values: operations build new ones and never edit terms."""

    __slots__ = ("graph", "terms", "_mass")

    def __init__(self, graph, terms_by_edge: Mapping[str, Iterable[PolyTrigTerm]]):
        self.graph = graph
        terms: dict[str, tuple[PolyTrigTerm, ...]] = {}
        lengths = graph.edge_lengths
        for eid, ts in terms_by_edge.items():
            if eid not in lengths:
                raise ValueError(f"unknown edge {eid!r}")
            canon = canonical_terms(ts)
            if canon:
                terms[eid] = canon
        self.terms = terms
        self._mass: Mass | None = None  # the whole-graph Mass, once masses has it

    @classmethod
    def _canonical(cls, graph, terms: dict[str, tuple[PolyTrigTerm, ...]]) -> "GraphFunction":
        """A function from edge terms that are already what canonical_terms
        makes of them (merged, pruned, sorted, -0.0 folded, no empty edge)
        on edges of the graph; nothing is checked."""
        f = cls.__new__(cls)
        f.graph, f.terms, f._mass = graph, terms, None
        return f

    @classmethod
    def zero(cls, graph) -> "GraphFunction":
        return cls(graph, {})

    def is_zero(self) -> bool:
        return not self.terms

    def evaluate(self, eid: str, x: float) -> complex:
        val = 0j
        for c, p, w in self.terms.get(eid, ()):
            val += c * x ** p * cmath.exp(1j * w * x)
        return val

    def derivative(self, order: int = 1) -> "GraphFunction":
        """Exact termwise derivative of the given order (order 0 is the identity)."""
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        terms = {e: list(ts) for e, ts in self.terms.items()}
        for _ in range(order):
            nxt: dict[str, list[PolyTrigTerm]] = {}
            for e, ts in terms.items():
                acc: list[PolyTrigTerm] = []
                for c, p, w in ts:
                    if p > 0:
                        acc.append(PolyTrigTerm(c * p, p - 1, w))
                    if w != 0.0:
                        acc.append(PolyTrigTerm(c * 1j * w, p, w))
                if acc:
                    nxt[e] = acc
            terms = nxt
        return GraphFunction(self.graph, terms)

    def boundary_trace(self, sign: int) -> np.ndarray:
        """The boundary vector (sign * f(e, 0)) ⊕ f(e, len) in the graph's
        boundary coordinates; sign is +1 (plus-trace) or -1 (minus-trace)."""
        g = self.graph
        return np.array([sign * self.evaluate(eid, 0.0) if end == 0
                         else self.evaluate(eid, g.edge_lengths[eid])
                         for eid, end in g.boundary_coords], dtype=complex)

    def __add__(self, other: "GraphFunction") -> "GraphFunction":
        if other.graph is not self.graph:
            raise ValueError("functions live on different graphs")
        merged: dict[str, list[PolyTrigTerm]] = {e: list(ts) for e, ts in self.terms.items()}
        for e, ts in other.terms.items():
            merged.setdefault(e, []).extend(ts)
        return GraphFunction(self.graph, merged)

    def __mul__(self, scalar: complex) -> "GraphFunction":
        z = complex(scalar)
        return GraphFunction(self.graph, {
            e: [PolyTrigTerm(c * z, p, w) for c, p, w in ts]
            for e, ts in self.terms.items()})

    __rmul__ = __mul__

    def __sub__(self, other: "GraphFunction") -> "GraphFunction":
        return self + (other * (-1.0))

    def to_json(self) -> dict:
        return {"edges": {
            e: [{"re": t.coeff.real, "im": t.coeff.imag, "power": t.power, "freq": t.freq}
                for t in ts]
            for e, ts in sorted(self.terms.items())}}


def _coerce_region(graph, region) -> dict[str, IntervalUnion] | None:
    if region is None:
        return None
    out: dict[str, IntervalUnion] = {}
    lengths = graph.edge_lengths
    for eid, iv in dict(region).items():
        if eid not in lengths:
            raise ValueError(f"region references unknown edge {eid!r}")
        ell = lengths[eid]
        if not math.isfinite(ell):
            raise ValueError("quadrature region on an infinite edge")
        if not isinstance(iv, IntervalUnion):
            iv = IntervalUnion(iv, length=ell)
        elif iv and iv.ends[-1] > ell * (1 + 1e-12):
            raise ValueError(f"region outside [0, {ell}] on edge {eid!r}")
        out[eid] = iv
    return out


def _layout(fns: Sequence[GraphFunction], region):
    """What every L2 integral of fns reads: the edges that carry terms, the
    coerced region, and each function's block per edge as (functions, edges,
    keys) arrays slot, c, p, w: its terms, then zero terms at the keys
    (p - 1, w) of f' = sum (c i w x**p + c p x**(p - 1)) exp(iwx), padded to
    the widest block with (0, 0) outside slot; and per edge the window ends
    a, b: [0, l] first, then the region's windows, padded with empty ones."""
    graph = fns[0].graph
    if any(f.graph is not graph for f in fns):
        raise ValueError("functions live on different graphs")
    reg = _coerce_region(graph, region)
    edges = tuple(dict.fromkeys(e for f in fns for e in f.terms))
    windows = [[(0.0, graph.edge_lengths[e]), *(reg[e].intervals if reg and e in reg else ())]
               for e in edges]
    blocks = [f.terms.get(e, ()) for f in fns for e in edges]
    if any(t.power for b in blocks for t in b):
        blocks = [b + tuple(PolyTrigTerm(0j, p - 1, w) for _, p, w in b
                            if p and (p - 1, w) not in {t[1:] for t in b}) for b in blocks]
    sizes = np.array(list(map(len, blocks)), dtype=int).reshape(len(fns), len(edges))
    slot = np.arange(sizes.max(initial=0)) < sizes[..., None]
    cpw = np.zeros((3, *slot.shape), dtype=complex)
    cpw[:, slot] = np.array([x for b in blocks for t in b for x in t],
                            dtype=complex).reshape(-1, 3).T
    a, b = np.zeros((2, len(edges), max(map(len, windows), default=1)))
    for i, ws in enumerate(windows):
        a[i, :len(ws)], b[i, :len(ws)] = zip(*ws)
    return edges, reg, slot, cpw[0], cpw[1].real.astype(int), cpw[2].real, a, b


def _integrate(p, w, a, b) -> np.ndarray:
    """I[..., s, t, k] = ∫ x**(p_s + p_t) exp(1j*(w_s - w_t)*x) over window k
    of each edge: the one kernel call, refused where a window is unbounded."""
    if not np.isfinite(b).all():
        raise ValueError("whole-graph quadrature on a non-compact graph")
    return integrate_powexp((p[..., None] + p[..., None, :])[..., None],
                            (w[..., None] - w[..., None, :])[..., None],
                            a[:, None, None], b[:, None, None])


def gram(fns: Sequence[GraphFunction], region=None) -> np.ndarray:
    """G[i, j] = <fns[i], fns[j]> = ∫ fns[i] conj(fns[j]) over the region (the
    whole graph without one): on each edge of _layout the functions' blocks
    side by side on one key axis, one kernel call over the whole edge or the
    region's windows, I_st their window sum, and G[i, j] the sum of c_s
    conj(c_t) I_st over the edges and the keys s of block i, t of block j:
    Hermitian up to rounding."""
    n = len(fns)
    if not n:
        return np.zeros((0, 0), dtype=complex)
    *_, c, p, w, a, b = _layout(fns, region)
    e, k = c.shape[1:]
    p, w = (x.transpose(1, 0, 2).reshape(e, n * k) for x in (p, w))
    cols = slice(None, 1) if region is None else slice(1, None)
    ints = _integrate(p, w, a[:, cols], b[:, cols]).sum(axis=-1).reshape(e, n, k, n, k)
    return np.einsum("iek,eikjl,jel->ij", c, ints, c.conj())


def inner_product(f: GraphFunction, g: GraphFunction, region=None) -> complex:
    """L2 inner product <f, g> = ∫ f conj(g), over the whole graph or a
    per-edge region given as a mapping edge id -> IntervalUnion."""
    return complex(gram([f, g], region)[0, 1])


class Mass:
    """||f||^2 on the whole graph and on the region (the whole graph again
    without one), the same of f', and f's edge arrays: row i is edges[i], its
    first sizes[i] keys f's, then padding (0, 0); gram[i] is their Gram."""

    __slots__ = ("whole", "part", "_d", "edges", "sizes", "coeffs", "freqs", "gram")

    def __init__(self, whole: float, part: float, d: tuple[_Settled, _Settled], *arrays):
        self.whole, self.part, self._d = whole, part, d
        self.edges, self.sizes, self.coeffs, self.freqs, self.gram = arrays

    d_whole = property(lambda self: self._d[0](), doc="f''s whole-graph mass")
    d_part = property(lambda self: self._d[1](), doc="f''s mass on the region")


def masses(fns: Sequence[GraphFunction], region=None) -> list[Mass]:
    """The Mass of each function in fns from one kernel call over _layout's
    (functions, edges, keys, keys, 1 + windows) array: each function's own
    term keys per edge (no union basis) by [0, l] and the region's windows.
    f' has coefficients c i w at (p, w) and c p at (p - 1, w).  A mass is an
    array sum of c conj(c') I, its imaginary residue asserted to be noise;
    one below _RESOLVED_REL of its gross scale (the sum of |c conj(c') I|, the
    closed form's cancellation floor being about 1e-16 of it) is integrated
    again by _gauss_norm_sq: f's at once, f''s on its first read, f' built
    only then.  A function keeps its whole-graph Mass."""
    if not fns:
        return []
    if region is None and all(f._mass is not None and f.graph is fns[0].graph for f in fns):
        return [f._mass for f in fns]
    edges, reg, slot, c, p, w, a, b = _layout(fns, region)
    n = len(fns)
    d = c * 1j * w
    if p.any():  # + p c at (p - 1, w): key j one power above key i
        above = (p[..., None, :] == p[..., None] + 1) & (w[..., None, :] == w[..., None])
        d = d + ((above & slot[..., None]) * (p * c)[..., None, :]).sum(axis=-1)
    ints = _integrate(p, w, a, b)
    cd = np.stack((c, d), axis=1)  # (functions, f and f', edges, keys)
    pair = cd[..., None] * cd.conj()[..., None, :]
    sums = [[x.reshape(n, 2, -1).sum(axis=-1).tolist() for x in (v, np.abs(v))]
            for v in (pair * ints[:, None, ..., 0], pair[..., None] * ints[:, None, ..., 1:])]
    sizes = slot.sum(axis=-1)
    out = []
    for i, f in enumerate(fns):
        whole, d_whole = (_Settled(f, None, o, sums[0][0][i][o], sums[0][1][i][o])
                          for o in (0, 1))
        arrays = (edges, sizes[i], c[i], w[i], ints[i, ..., 0])
        whole = whole()
        f._mass = Mass(whole, whole, (d_whole, d_whole), *arrays)
        if region is None:
            out.append(f._mass)
            continue
        part, d_part = (_Settled(f, reg, o, sums[1][0][i][o], sums[1][1][i][o]) for o in (0, 1))
        out.append(Mass(whole, part(), (d_whole, d_part), *arrays))
    return out


class _Settled:
    """∫ |f^(order)|^2 over the windows from its sum of c conj(c') I and the
    gross scale, checked at once and, if unresolved, integrated again on the
    first call (see masses)."""

    __slots__ = ("f", "reg", "order", "value")

    def __init__(self, f: GraphFunction, reg, order: int, val: complex, gross: float):
        if abs(val.imag) > 1e-10 * max(val.real, 0.0) + 1e-12 * gross + 1e-300:
            raise AssertionError(f"mass lost hermiticity: {val!r}")
        # a copy of f, which keeps this through its Mass: no reference cycle
        self.f = (GraphFunction._canonical(f.graph, f.terms) if val.real <= _RESOLVED_REL * gross
                  else None)
        self.reg, self.order, self.value = reg, order, val.real

    def __call__(self) -> float:
        if self.f is not None:
            self.value, self.f = _gauss_norm_sq(self.f.derivative(self.order), self.reg), None
        return self.value


def _gauss_norm_sq(f: GraphFunction, reg) -> float:
    """∫ |f|^2 by n-point Gauss-Legendre on every window [lo, hi], cut into
    pieces of length L with |u| L <= 8: a sum of positive terms.  With u = w -
    (middle frequency), |f|^2 is the entire g(z) = sum c_s conj(c_t)
    z**(p_s+p_t) exp(1j*(u_s - u_t)*z) on the line, |g| <= M = (sum |c|
    (hi + L)**p exp(|u| L))**2 within L of a piece, and Cauchy's estimate in
    the Gauss error term bounds a piece's error by L M (n!)**4 / ((2n+1)
    ((2n)!)**2) <= 2 L M 16**-n; n puts that below 1e-40 L (sum |c|)**2.

    That bound is for exact arithmetic.  Evaluating f at a node in floats
    errs by about d = (terms + 4) eps sum |c x**p| (eps the machine epsilon),
    so |f|**2 errs by d (2 |f| + d) and the result by about |W| d (2 sup_W |f|
    + d) over the windows W: a floor far above 1e-40 when f is tiny on W."""
    total = 0.0
    for eid, terms in f.terms.items():
        c, p, w = np.array(terms, dtype=complex).T
        p, w = p.real, w.real
        u = np.abs(w - 0.5 * (w.max() + w.min()))
        log_tol = math.log(1e-40) + 2.0 * math.log(float(np.abs(c).sum()))
        windows = (((0.0, f.graph.edge_lengths[eid]),) if reg is None
                   else reg[eid].intervals if eid in reg else ())
        for lo, hi in windows:
            pieces = 1 + int(u.max() * (hi - lo) / 8.0)
            length = (hi - lo) / pieces
            logs = np.log(np.abs(c)) + p * math.log(hi + length) + u * length
            log_m = 2.0 * (logs.max() + math.log(np.exp(logs - logs.max()).sum()))
            n = max(1, math.ceil((math.log(2.0) + log_m - log_tol) / math.log(16.0)))
            nodes, weights = np.polynomial.legendre.leggauss(n)
            for mid in (lo + length * (np.arange(pieces) + 0.5)).tolist():
                x = (mid + 0.5 * length * nodes)[:, None]
                vals = (c * x ** p * np.exp(1j * w * x)).sum(axis=1)
                total += 0.5 * length * float(weights @ np.abs(vals) ** 2)
    return total


def sup_on_disk_neighborhood(terms: Iterable[PolyTrigTerm], ell: float,
                             radius_factor: float) -> float:
    """Certified upper bound on sup |F(z)| over (0, ell) + D_{radius_factor*ell}.

    F is entire, so the sup is attained on the stadium boundary; we sample it
    and pad with a global Lipschitz bound, hence the result is always >= the
    true supremum (possibly loose, never low; inf past the float range).
    """
    terms = canonical_terms(terms)
    if not terms:
        return 0.0
    R = radius_factor * ell
    if R <= 0.0:
        raise ValueError("radius factor must be positive")
    # boundary: bottom & top sides plus two half circles
    per = 2.0 * ell + 2.0 * math.pi * R
    n_side = max(8, int(SUP_SAMPLES * ell / per))
    n_cap = max(8, (SUP_SAMPLES - 2 * n_side) // 2)
    xs = np.linspace(0.0, ell, n_side)
    phi_l = np.linspace(0.5 * math.pi, 1.5 * math.pi, n_cap)
    phi_r = np.linspace(-0.5 * math.pi, 0.5 * math.pi, n_cap)
    zs = np.concatenate([
        xs - 1j * R, xs + 1j * R,
        R * np.exp(1j * phi_l),
        ell + R * np.exp(1j * phi_r),
    ])
    # Lipschitz padding: |F'| <= sum |c| (p r^(p-1) + |w| r^p) e^{|w| R} on the hull
    r_max = math.hypot(ell + R, R)
    lip = 0.0
    try:
        for c, p, w in terms:
            grow = math.exp(abs(w) * R)
            lip += abs(c) * (p * r_max ** max(p - 1, 0) + abs(w) * r_max ** p) * grow
    except OverflowError:  # a growth factor past the float range
        return math.inf
    vals = np.zeros(zs.size, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for c, p, w in terms:
            vals += c * zs ** p * np.exp(1j * w * zs)
    peak = float(np.abs(vals).max())
    spacing = max(ell / max(n_side - 1, 1), math.pi * R / max(n_cap - 1, 1))
    sup = peak + 0.5 * lip * spacing
    return math.inf if math.isnan(sup) else sup


def cosine_power_terms(alpha: int, freq: float) -> tuple[PolyTrigTerm, ...]:
    """cos(freq*x)**alpha expanded into complex exponentials with exact
    integer binomial coefficients (alpha <= 30)."""
    if not 0 <= alpha <= 30:
        raise ValueError("alpha outside 0..30")
    scale = 2.0 ** (-alpha)
    return canonical_terms(
        PolyTrigTerm(math.comb(alpha, j) * scale, 0, (alpha - 2 * j) * freq)
        for j in range(alpha + 1))
