"""Verification numerics: Laguerre cards, the integer oracle, envelope bounds and quadrature.

Only `verify` executes this module; the grid layer every grid verb runs is
`_grid`.  A `SonineLaguerre` card is a polynomial L_n^(a) of real order
a > -1; its evaluators are `_grid.laguerre_stack`'s stack of one, and no
production code calls them.  A direct power-series evaluator in exact
integer arithmetic, `sonine_laguerre_direct_sums(cards, x)`, is kept
alongside as a reference oracle: it checks and splits the points once for a
batch of cards and rounds once per point, but its cost grows fast with the
degree, which is why the recurrence is the production path.

`gauss_laguerre(alpha, k)` is the k-point Gauss rule of the weight
x**alpha exp(-x), which integrates that weight times any polynomial of degree
up to 2k - 1 exactly; criterion 3's Gram matrices are sums over such rules.
`integrate_half_line` / `inner_product` are the probe quadrature, an
independent route: they take callables that map an array of points to an
array of values of the same shape, find their cutoff by probing the
integrand and double the nodes of graded Gauss-Legendre panels until the
estimate settles.  `log_envelopes(forms, grid)` is a closed-form bound on each
form's log |value| (`laguerre_envelope_log`), evaluated without sampling.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

from . import _grid
from ._np import as_float, is_integer, np
from .errors import ConvergenceError, DomainError


# Panel geometry: the integration window (0, T] is split into geometrically
# graded panels so endpoint behaviour x**q with fractional q > -1 is confined
# to panels of negligible measure.
_PANEL_LEVELS = 40
_MAX_NODE_DOUBLINGS = 6
# the largest first node count, refused before any rule is built: its last doubling,
# 2048 points a panel, builds the Gauss-Legendre rule from a 2048 x 2048 matrix (32 MiB)
MAX_NODE_COUNT = 32
_TAIL_START = 8.0
_TAIL_DOUBLINGS = 22
_TAIL_DROP = 1e-18
# the decay test looks at T, 1.1 T and 1.3 T so one zero of the integrand
# cannot pass for decay
_TAIL_PROBES = (1.0, 1.1, 1.3)


@dataclass(frozen=True)
class SonineLaguerre:
    """Polynomial identity card: degree n >= 0 and finite real order > -1."""

    degree: int
    order: float

    def __post_init__(self):
        if not is_integer(self.degree) or self.degree < 0:
            raise DomainError(f"degree must be a non-negative integer, got {self.degree!r}")
        if not (-1.0 < as_float(self.order, "order", DomainError) < math.inf):
            raise DomainError(f"order must be finite and exceed -1, got {self.order!r}")


def _card_values(poly, x, derivative):
    """Row derivative, in {0, 1}, of the card's stack of one (`laguerre_stack`).

    A value out of float range is refused as the oracle refuses it, with
    numpy's overflow warning silenced first.
    """
    arr = _grid._check_argument(x)
    with np.errstate(over="ignore", invalid="ignore"):
        stack = _grid.laguerre_stack([poly.degree], [float(poly.order)], arr.reshape(-1), derivative)
    out = stack[derivative][0].reshape(arr.shape)
    _grid.refuse_non_finite(out, arr, f"{'d/dx ' if derivative else ''}L_{poly.degree}^({poly.order!r})")
    return float(out) if np.ndim(x) == 0 else out


def eval_sonine_laguerre(poly: SonineLaguerre, x):
    """Evaluate L_n^(a)(x) for x >= 0 (scalar or array); DomainError if it leaves float range."""
    return _card_values(poly, x, 0)


def eval_sonine_laguerre_derivative(poly: SonineLaguerre, x):
    """d/dx L_n^(a)(x); zero for n = 0, else -L_{n-1}^(a+1)(x)."""
    return _card_values(poly, x, 1)


def sonine_laguerre_direct_sums(cards, x):
    """Direct power-series evaluation (reference oracle) of each card at scalar or array x >= 0, a row per card.

    The points are checked and split once for every card.  The coefficient
    c_p = (-1)**p (a+p+1)...(a+n) / (p! (n-p)!) of x**p is rational in the
    binary value of the order a = A/B, B a power of two, so n! B**n is a
    common denominator, over which c_p has the numerator
    N_p = (-1)**p C(n, p) B**p (A + (p+1) B)...(A + n B).  A point x = X/Y
    is summed by Horner's rule in integers, sum_p N_p X**p Y**(n-p), and
    rounded once, by one int/int true division by n! B**n Y**n, which
    Python rounds correctly: float accumulation, even compensated, cannot
    survive the ~13 digits of cancellation near the top of the zero region
    (n=15, x=10).  Intended for cross-checks at small degree only.
    """
    xs = _grid._float_array(x, "argument")
    if not np.all(np.isfinite(xs)) or np.any(xs < 0.0):
        raise DomainError("argument must be finite and non-negative")
    points = [(idx, float(xv), *float(xv).as_integer_ratio()) for idx, xv in np.ndenumerate(xs)]
    out = np.empty((len(cards),) + xs.shape)
    for k, card in enumerate(cards):
        n = int(card.degree)  # a numpy degree would overflow int64 in the coefficients
        big_a, big_b = float(card.order).as_integer_ratio()
        numerators = []  # N_n, N_{n-1}, ..., N_0
        rising = 1
        for p in range(n, -1, -1):
            numerators.append((-1) ** p * math.comb(n, p) * big_b**p * rising)
            rising *= big_a + p * big_b
        denominator = math.factorial(n) * big_b**n
        for idx, xv, big_x, big_y in points:
            total, scale = numerators[0], 1
            for numerator in numerators[1:]:
                scale *= big_y
                total = total * big_x + numerator * scale
            try:
                out[(k, *idx)] = total / (denominator * scale)
            except OverflowError:
                raise DomainError(f"L_{n}^({card.order!r})({xv!r}) is out of float range") from None
    return out


def laguerre_envelope_log(degrees, orders, t):
    """log L_n^(a)(-t) >= log|L_n^(a)(t)| for t >= 0, with (n, a) = (degrees[i], orders[i]) on row t[i].

    Coefficient p of L_n^(a) is (-1)**p C(n+a, n-p)/p!, and C(n+a, n-p) > 0
    for a > -1, so flipping the sign of t turns every term positive and the sum
    dominates |L_n^(a)(t)|.  The sum is taken in the log domain (coefficient
    ratios (n-p)/((a+p+1)(p+1)), then log-sum-exp), so it stays finite at any
    degree.  A row's log coefficients past its degree are -inf: they add exact
    zeros after its own terms, so each row has the bits it would have alone.
    """
    first = [[math.lgamma(n + a + 1.0) - math.lgamma(n + 1.0) - math.lgamma(a + 1.0)]
             for n, a in zip(degrees, orders)]
    degrees, orders = np.array(degrees)[:, None], np.array(orders, dtype=float)[:, None]
    p = np.arange(degrees.max())
    ratios = (degrees - p) / ((orders + p + 1.0) * (p + 1.0))
    steps = np.log(ratios, out=np.full(ratios.shape, -np.inf), where=p < degrees)
    log_coeff = np.concatenate([first, first + np.cumsum(steps, axis=-1)], axis=-1).T[:, :, None]
    with np.errstate(divide="ignore"):
        log_t = np.log(t)
    powers = np.arange(len(log_coeff))[:, None, None]
    # where= leaves the constant term at 0 instead of forming 0 * log(0) = NaN at t = 0
    terms = log_coeff + np.multiply(powers, log_t, out=np.zeros(powers.shape[:1] + t.shape), where=powers > 0)
    peak = terms.max(axis=0)
    return peak + np.log(np.sum(np.exp(terms - peak), axis=0))


def gauss_laguerre(alpha, k):
    """Nodes and log weights of the k-point Gauss rule of the weight x**alpha exp(-x), alpha > -1.

    It is exact on the weight times a polynomial of degree below 2k.  The nodes
    are the eigenvalues of the Jacobi matrix (Golub & Welsch, Math. Comp. 23,
    1969, 221-230); the weights are Gamma(k + alpha + 1) / (k! x L_k^(alpha)'(x)**2),
    not the eigenvectors' (1e13 relative off at k = 40), and are logs, so w exp(x) stays in range.
    """
    steps = np.arange(1.0, k)
    jacobi = np.diag(2.0 * np.arange(k) + alpha + 1.0) + np.diag(np.sqrt(steps * (steps + alpha)), -1)
    nodes = np.linalg.eigvalsh(jacobi)
    slope = _grid.laguerre_stack([k], [alpha], nodes, 1)[1][0]
    log_scale = math.lgamma(k + alpha + 1.0) - math.lgamma(k + 1.0)
    return nodes, log_scale - np.log(nodes) - 2.0 * np.log(np.abs(slope))


@dataclass(frozen=True)
class Quadrature:
    """Half-line integration policy: graded Gauss-Legendre panels with node doubling.

    node_count is the per-panel point count at the first refinement, an
    integer in [2, MAX_NODE_COUNT], and target_rel_tol a positive real number.
    Integration raises ConvergenceError when successive estimates still differ
    by more than target_rel_tol.
    """

    node_count: int = 8
    target_rel_tol: float = 1e-10

    def __post_init__(self):
        if not (is_integer(self.node_count) and 2 <= self.node_count <= MAX_NODE_COUNT):
            raise DomainError(f"node_count must be an integer in [2, {MAX_NODE_COUNT}], got {self.node_count!r}")
        if not (isinstance(self.target_rel_tol, numbers.Real) and self.target_rel_tol > 0.0):
            raise DomainError(f"target_rel_tol must be a positive number, got {self.target_rel_tol!r}")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    converged: bool
    node_count: int
    last_change: float


@functools.cache
def _gauss_legendre(points):
    return np.polynomial.legendre.leggauss(points)


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


def log_envelopes(forms, grid):
    """log |norm| + q log x - decay + log L_n^(a)(-t) >= log |value| of forms of one class, a grid row each."""
    rows = [f._constants() + (f.log_norm, f.exponent) for f in forms]
    *constants, log_norms, exponents = _grid.columns(rows)
    decay, t = forms[0]._decay_and_argument(grid, *constants)
    envelope = laguerre_envelope_log([f.degree for f in forms], [f.order for f in forms], t)
    return log_norms + exponents * np.log(grid) - decay + envelope


def _refine(estimate, points, tol, what):
    """Double the node count, at most _MAX_NODE_DOUBLINGS times, until successive estimates agree.

    estimate(points) returns (value, scale), two floats; the loop stops once
    the value moves by at most tol * scale and returns (value, points,
    change).  When the doubling budget runs out it raises ConvergenceError
    carrying the last two estimates.
    """
    value = estimate(points)[0]
    for _ in range(_MAX_NODE_DOUBLINGS):
        prev = value
        points *= 2
        value, scale = estimate(points)
        change = abs(value - prev)
        if change <= tol * max(scale, 1e-300):
            return value, points, change
    raise ConvergenceError(
        f"{what} did not settle within the node-doubling budget",
        estimates=(prev, value),
    )


def integrate_half_line(fn, quad: Quadrature | None = None) -> QuadratureResult:
    """Integrate fn over (0, inf) under the given policy.

    fn takes an array of points and returns their values as an array of the
    same shape; it is called on whole node sets, never point by point.  The
    per-panel node count doubles until the estimate moves by less than
    target_rel_tol (relative to the integral scale); ConvergenceError carries
    the last two estimates if the doubling budget runs out.
    """
    quad = quad or Quadrature()
    edges = np.concatenate([[0.0], np.ldexp(_tail_cutoff(fn), np.arange(1 - _PANEL_LEVELS, 1))])
    half, mid = 0.5 * (edges[1:] - edges[:-1])[:, None], 0.5 * (edges[1:] + edges[:-1])[:, None]

    def estimate(points):
        x, w = _gauss_legendre(points)
        vals = (half * w).ravel() * np.asarray(fn((mid + half * x).ravel()), dtype=float)
        value = float(np.sum(vals))
        return value, max(abs(value), 1e-2 * float(np.sum(np.abs(vals))))

    value, points, change = _refine(estimate, quad.node_count, quad.target_rel_tol, "panel quadrature")
    return QuadratureResult(value, True, points, change)


def inner_product(f, g, quad: Quadrature | None = None) -> float:
    """L2 inner product of array-valued f and g on (0, inf); raises ConvergenceError if unsettled."""
    return integrate_half_line(lambda t: f(t) * g(t), quad).value
