"""Sonine-Laguerre polynomials at real order and half-line quadrature.

The polynomials here are the generalized Laguerre family L_n^(a) with real
order a > -1, evaluated by the three-term recurrence in the degree.  A direct
alternating-sum evaluator with compensated accumulation is kept alongside as a
reference oracle; it is exact for small degrees but loses digits once the
terms grow, which is exactly why the recurrence is the production path.

Quadrature comes in two shapes that share one node-doubling loop:
`integrate_half_line` / `inner_product` take arbitrary callables and find
their cutoff by probing the integrand, while `gram_matrix` integrates every
pairwise product of a family on one shared panel node set up to a cutoff the
caller supplies.  For the Laguerre forms that cutoff comes from the closed-form
envelope `laguerre_envelope_log` through `envelope_cutoff`, without sampling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from ._np import is_integer, np
from .errors import ConvergenceError, DomainError

# Panel geometry: the integration window (0, T] is split into geometrically
# graded panels so endpoint behaviour x**q with fractional q > -1 is confined
# to panels of negligible measure.
_PANEL_LEVELS = 40
_MAX_NODE_DOUBLINGS = 6
_TAIL_START = 8.0
_TAIL_DOUBLINGS = 22
_TAIL_DROP = 1e-18
# the decay test looks at T, 1.1 T and 1.3 T so one zero of the integrand
# cannot pass for decay
_TAIL_PROBES = (1.0, 1.1, 1.3)


@dataclass(frozen=True)
class SonineLaguerre:
    """Polynomial identity card: degree n >= 0 and real order > -1."""

    degree: int
    order: float

    def __post_init__(self):
        if not is_integer(self.degree) or self.degree < 0:
            raise DomainError(f"degree must be a non-negative integer, got {self.degree!r}")
        if not (float(self.order) > -1.0):
            raise DomainError(f"order must exceed -1, got {self.order!r}")


def _float_array(x, what):
    """x as a float array; a complex point, or one float() refuses, is a DomainError naming `what`."""
    try:
        # a complex array would otherwise be cast to its real part with only a warning
        if not np.iscomplexobj(x):
            return np.asarray(x, dtype=float)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} must be real: {exc}") from exc
    raise DomainError(f"{what} must be real, got a complex value")


def _check_argument(x):
    arr = _float_array(x, "argument")
    if not np.all(np.isfinite(arr)):
        raise DomainError("argument must be finite")
    if np.any(arr < 0.0):
        raise DomainError("argument must be non-negative")
    return arr


def positive_grid(x):
    """x as a float array, refused unless every point is real, finite and positive."""
    arr = _float_array(x, "radial coordinate")
    if not np.all(np.isfinite(arr)):
        raise DomainError("radial coordinate must be finite")
    if np.any(arr <= 0.0):
        raise DomainError("radial coordinate must be positive")
    return arr


def pointwise(derivatives, x, order):
    """The order-th entry of derivatives(grid, orders) at x: one grid check, a float for a scalar."""
    (out,) = derivatives(positive_grid(x), (order,))
    return float(out) if np.ndim(x) == 0 else out


def _recurrence(n, a, x):
    ones = np.ones_like(x)
    if n == 0:
        return ones
    prev = ones
    cur = np.empty_like(x)
    np.subtract(a + 1.0, x, out=cur)
    nxt = np.empty_like(x)
    # in place: a fresh 2e4-point temporary is past glibc's mmap threshold, so mmapped every step
    for k in range(1, n):
        # ((2k + a + 1 - x) * cur - (k + a) * prev) / (k + 1), operation by operation
        np.subtract(2.0 * k + a + 1.0, x, out=nxt)
        nxt *= cur
        prev *= k + a
        nxt -= prev
        nxt /= k + 1.0
        prev, cur, nxt = cur, nxt, prev
    return cur


def eval_sonine_laguerre(poly: SonineLaguerre, x):
    """Evaluate L_n^(a)(x) for x >= 0 (scalar or array)."""
    arr = _check_argument(x)
    out = _recurrence(poly.degree, float(poly.order), arr)
    return float(out) if np.ndim(x) == 0 else out


def eval_sonine_laguerre_derivative(poly: SonineLaguerre, x):
    """d/dx L_n^(a)(x); zero for n = 0, else -L_{n-1}^(a+1)(x)."""
    arr = _check_argument(x)
    if poly.degree == 0:
        out = np.zeros_like(arr)
    else:
        out = -_recurrence(poly.degree - 1, float(poly.order) + 1.0, arr)
    return float(out) if np.ndim(x) == 0 else out


def sonine_laguerre_direct_sum(poly: SonineLaguerre, x):
    """Direct power-series evaluation (reference oracle), scalar or array x >= 0.

    The coefficient c_p = (-1)**p (a+p+1)...(a+n) / (p! (n-p)!) of x**p is
    rational in the binary value of the order; the coefficients are built once
    per call, downward from c_n = (-1)**n / n! by c_{p-1} = -c_p (a+p) p / (n-p+1).
    Each point is summed by Horner's rule in exact rational arithmetic and
    rounded once at the end: float accumulation, even compensated, cannot
    survive the ~13 digits of cancellation near the top of the zero region
    (n=15, x=10).  Intended for cross-checks at small degree only.
    """
    xs = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(xs)) or np.any(xs < 0.0):
        raise DomainError("argument must be finite and non-negative")
    n = poly.degree
    a = Fraction(float(poly.order))
    coeffs = [Fraction((-1) ** n, math.factorial(n))]  # c_n, c_{n-1}, ..., c_0
    for p in range(n, 0, -1):
        coeffs.append(-coeffs[-1] * (a + p) * p / (n - p + 1))
    out = np.empty(xs.shape)
    for idx, xv in np.ndenumerate(xs):
        xq = Fraction(float(xv))
        total = coeffs[0]
        for c in coeffs[1:]:
            total = total * xq + c
        out[idx] = float(total)
    return float(out) if np.ndim(x) == 0 else out


def laguerre_envelope_log(degree: int, order: float, t):
    """log L_n^(a)(-t) for t >= 0, a bound on log|L_n^(a)(t)|.

    Coefficient p of L_n^(a) is (-1)**p C(n+a, n-p)/p!, and C(n+a, n-p) > 0
    for a > -1, so flipping the sign of t turns every term positive and the sum
    dominates |L_n^(a)(t)|.  The sum is taken in the log domain (coefficient
    ratios (n-p)/((a+p+1)(p+1)), then log-sum-exp), so it stays finite at any
    degree.
    """
    arr = np.asarray(t, dtype=float)
    p = np.arange(degree)
    log_coeff = math.lgamma(degree + order + 1.0) - math.lgamma(degree + 1.0) - math.lgamma(order + 1.0)
    log_coeff = np.concatenate(
        [[log_coeff], log_coeff + np.cumsum(np.log((degree - p) / ((order + p + 1.0) * (p + 1.0))))]
    )
    with np.errstate(divide="ignore"):
        log_t = np.log(arr)
    powers = np.arange(degree + 1).reshape((-1,) + (1,) * arr.ndim)
    # where= leaves the constant term at 0 instead of forming 0 * log(0) = NaN at t = 0
    scaled = np.multiply(powers, log_t, out=np.zeros(powers.shape[:1] + arr.shape), where=powers > 0)
    terms = log_coeff.reshape(powers.shape) + scaled
    peak = terms.max(axis=0)
    return peak + np.log(np.sum(np.exp(terms - peak), axis=0))


@dataclass(frozen=True)
class Quadrature:
    """Half-line integration policy: graded Gauss-Legendre panels with node doubling.

    node_count is the per-panel point count at the first refinement.
    Integration raises ConvergenceError when successive estimates still differ
    by more than target_rel_tol; `gram_matrix` applies the tolerance to every
    entry of the matrix.
    """

    node_count: int = 8
    target_rel_tol: float = 1e-10

    def __post_init__(self):
        if self.node_count < 2:
            raise DomainError("node_count must be at least 2")
        if not (self.target_rel_tol > 0.0):
            raise DomainError("target_rel_tol must be positive")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    converged: bool
    node_count: int
    last_change: float


@dataclass(frozen=True)
class GramResult:
    """Pairwise inner products of a family, with the effort that produced them.

    node_count is the converged per-panel point count and last_change the
    largest entry change at the final doubling.
    """

    matrix: np.ndarray
    cutoff: float
    node_count: int
    last_change: float


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gauss_legendre(points):
    rule = _GL_CACHE.get(points)
    if rule is None:
        rule = np.polynomial.legendre.leggauss(points)
        _GL_CACHE[points] = rule
    return rule


def _vectorized(fn):
    probe = np.array([0.5, 1.5])
    try:
        out = np.asarray(fn(probe), dtype=float)
        if out.shape == probe.shape:
            return fn
    except Exception:
        pass
    return np.vectorize(fn, otypes=[float])


def _tail_cutoff(fn):
    """Smallest doubling of T = 8 past which the integrand has died off."""
    t = _TAIL_START
    peak = 0.0
    last_probe = (math.inf, math.inf)
    for _ in range(_TAIL_DOUBLINGS):
        samples = np.concatenate([np.geomspace(t * 1e-8, t, 96), np.linspace(t / 96.0, t, 96)])
        vals = np.abs(np.asarray(fn(samples), dtype=float))
        vals = vals[np.isfinite(vals)]
        if vals.size:
            peak = max(peak, float(vals.max()))
        probes = np.abs(np.asarray(fn(t * np.array(_TAIL_PROBES)), dtype=float))
        last_probe = (float(probes.max()), peak)
        if np.all(probes <= _TAIL_DROP * peak + 1e-300):
            return t
        t *= 2.0
    raise ConvergenceError(
        f"integrand has not decayed below {_TAIL_DROP:g} of its peak by x = {t:g}",
        estimates=last_probe,
    )


def envelope_cutoff(log_bound, decreasing_from: float) -> float:
    """Cutoff for a unit-norm function known only through a bound on its magnitude.

    log_bound(x) returns log B(x) with B >= |f| pointwise, and B decreases for
    x >= decreasing_from.  The policy is the one `_tail_cutoff` applies to
    sampled values, with the bound standing in for |f|**2's samples: the
    smallest T = 8 * 2**j past decreasing_from at which B**2 <= 1e-18 / T at
    T, 1.1 T and 1.3 T.  1/T is the mean of |f|**2 on (0, T] once the norm
    has gathered there, and the peak is never below the mean, so a T that
    passes here passes the sampled test too whenever the samples catch the
    peak.  Nothing of f is sampled.
    """
    start = _TAIL_START
    while start < decreasing_from:
        start *= 2.0
    # every candidate T is tested in one call to the bound
    cutoffs = start * 2.0 ** np.arange(_TAIL_DOUBLINGS)
    probes = np.asarray(log_bound(cutoffs[:, None] * np.array(_TAIL_PROBES)), dtype=float)
    limits = 0.5 * np.log(_TAIL_DROP / cutoffs)
    passed = np.all(probes <= limits[:, None], axis=1)
    if not passed.any():
        raise ConvergenceError(
            f"envelope has not decayed below {_TAIL_DROP:g} of the mean by x = {cutoffs[-1]:g}",
            estimates=(float(probes[-1].max()), float(limits[-1])),
        )
    return float(cutoffs[np.argmax(passed)])


def _panel_edges(cutoff):
    edges = [0.0]
    edges.extend(cutoff * 2.0 ** (j - _PANEL_LEVELS) for j in range(1, _PANEL_LEVELS + 1))
    return np.asarray(edges)


def _panel_rule(edges, points):
    """Flat nodes and weights of the composite Gauss-Legendre rule on edges."""
    x, w = _gauss_legendre(points)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = mid[:, None] + half[:, None] * x[None, :]
    weights = half[:, None] * w[None, :]
    return nodes.ravel(), weights.ravel()


def _refine(estimate, points, tol, what):
    """Double the node count, at most _MAX_NODE_DOUBLINGS times, until successive estimates agree.

    estimate(points) returns (value, scale) with value a float or an array;
    the loop stops once every entry moves by at most tol * scale and returns
    (value, points, largest change).  When the doubling budget runs out it
    raises ConvergenceError carrying the last two estimates.
    """
    value = estimate(points)[0]
    for _ in range(_MAX_NODE_DOUBLINGS):
        prev = value
        points *= 2
        value, scale = estimate(points)
        change = np.abs(value - prev)
        if np.all(change <= tol * np.maximum(scale, 1e-300)):
            return value, points, float(np.max(change))
    raise ConvergenceError(
        f"{what} did not settle within the node-doubling budget",
        estimates=(prev, value),
    )


def integrate_half_line(fn, quad: Quadrature | None = None) -> QuadratureResult:
    """Integrate fn over (0, inf) under the given policy.

    The per-panel node count doubles until the estimate moves by less than
    target_rel_tol (relative to the integral scale); ConvergenceError carries
    the last two estimates if the doubling budget runs out.
    """
    quad = quad or Quadrature()
    fn = _vectorized(fn)
    edges = _panel_edges(_tail_cutoff(fn))

    def estimate(points):
        nodes, weights = _panel_rule(edges, points)
        vals = weights * np.asarray(fn(nodes), dtype=float)
        value = float(np.sum(vals))
        return value, max(abs(value), 1e-2 * float(np.sum(np.abs(vals))))

    value, points, change = _refine(estimate, quad.node_count, quad.target_rel_tol, "panel quadrature")
    return QuadratureResult(value, True, points, change)


def inner_product(f, g, quad: Quadrature | None = None) -> float:
    """L2 inner product of f and g on (0, inf); raises ConvergenceError if unsettled."""
    fv = _vectorized(f)
    gv = _vectorized(g)
    return integrate_half_line(lambda t: fv(t) * gv(t), quad).value


def gram_matrix(fns, cutoff: float, quad: Quadrature | None = None) -> GramResult:
    """All pairwise L2 inner products of fns on (0, cutoff] at once.

    Every function takes an array of nodes and is evaluated once per
    refinement on the shared graded panel nodes, giving V (functions x nodes);
    then G = (V w) V^T and the scale is A = (|V| w) |V|^T.  The per-panel
    node count doubles until every entry satisfies
    |G - G_prev| <= target_rel_tol * max(|G|, 1e-2 A), the rule
    `integrate_half_line` applies to a single integral.  The cutoff is taken
    as given: the caller vouches that every product has decayed past it.
    """
    quad = quad or Quadrature()
    edges = _panel_edges(cutoff)

    def estimate(points):
        nodes, weights = _panel_rule(edges, points)
        v = np.vstack([np.asarray(fn(nodes), dtype=float) for fn in fns])
        mag = np.abs(v)
        matrix = (v * weights) @ v.T
        return matrix, np.maximum(np.abs(matrix), 1e-2 * ((mag * weights) @ mag.T))

    matrix, points, change = _refine(estimate, quad.node_count, quad.target_rel_tol, "Gram matrix")
    return GramResult(matrix, float(cutoff), points, change)
