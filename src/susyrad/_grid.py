"""The grid layer: checked grids, the Laguerre recurrence and the batch build of the forms.

Only a verb that evaluates a waveform on a grid executes this module; the
closed forms (energies, trap numbers, admissibility) never reach it.  A grid
is checked once, on entry (`positive_grid`, `_check_argument`); a pointwise
method asks for the one derivative it needs (`pointwise`), and a value out of
float range is refused at its first point (`refuse_non_finite`).

The generalized Laguerre polynomials L_n^(a), of real order a > -1, are
evaluated by a recurrence in the degree, one batch of rows (degree, order)
at a time.  It runs on the pair P_k = k! L_k^(a) and W_k = k! L_{k-1}^(a+1):

    P_{k+1} = (k + a + 1 - t) P_k - t W_k,    W_{k+1} = (k + 1) (W_k + P_k),

from (k + 1) L_{k+1}^(a) = (k + a + 1) L_k^(a) - t L_k^(a+1) (DLMF §18.9.14)
and L_k^(a+1) = L_k^(a) + L_{k-1}^(a+1) (DLMF §18.9.13).  The step has no
division: the textbook three-term step divides by k + 1, its costliest
pass, and no reordering could drop it and keep the bits, since x / (k + 1)
is correctly rounded and x * (1 / (k + 1)) is not.  Its first factor,
k + a + 1 - t, is a difference taken before any product, as the textbook
step's 2k + a + 1 - t is, so near t = k + a + 1, where large orders put
the cancellation, it costs no more than there; and where t is small
against the degree the pair is far better conditioned than the three-term
recurrence, whose error there grows with the degree.  The pair is
carried as Q_k = 2**-E_k P_k and 2**-E_k W_k with E_k >= ceil(log2 k!), so
neither leaves double range before the textbook form's values would; a
step's scale 2**-m_k, m_k = E_{k+1} - E_k, enters exactly, through its
coefficients and a copy t * 2**-m_k of the argument, and a row ending at
degree d is multiplied once by kappa_d = 2**E_d / d! (`_scales`).  Powers
of two move no bits, so E_k serves speed: m_k keeps its value until E_k
would leave [ceil(log2 k!), ceil(log2 k!) + 16], and the copy of the
argument is formed again only then, not at every step where log2(k + 1)
rounds the other way.  A step is six passes and gives two rows:
`laguerre_stack` takes d^j/dt^j L_n^(a) = (-1)^j L_{n-j}^(a+j) from a pass
that runs the values chain, then each odd chain, whose W gives the even row
above it.
`_recurrence` keeps its last lone values row in a one-entry slot (a batch is
not kept), keyed on the degrees, the orders and the argument's values,
holding private copies of the argument and the row, at most 2**17 elements,
so that a lone form's residual after its value on the same grid runs only
the odd rows of its pass; every row keeps its bits.

The Laguerre forms of `_laguerre_forms` are built here as a batch:
`family_derivatives(forms, grid, orders)` builds each factor's derivative
stack once for the whole family, up to the highest order asked for, with the
per-form constants as columns and one recurrence pass for the whole family,
so a value and a residual's (0, 2) each run one pass, whatever the number
of forms.  The prefactor norm * x**q * exp(-decay) and its derivatives are
one exponential per order (`_prefactor_stack`), so none of its factors
leaves double range on its own; the exponential's stack is relative to
itself (w_0 = 1).  Columns and floats see the same operations, so every
element has the bits it would have alone.  A form's `derivatives(grid,
orders)` is the same build for a family of one, on its grid's points as one
row and with its own constants as floats.  The Laguerre argument is checked
before any stack is formed.
"""

from __future__ import annotations

from ._np import np
from .errors import DomainError

# `_recurrence`'s one-entry memo of a lone row, (degrees, orders, x, values row) or
# None, and the largest values row it keeps
_SLOT_ELEMENTS = 2**17
_last_values = None

# `_scales`' table, replaced whole when it grows: (mantissa, shift, exponent, step, sigmas,
# kappas), the lists holding 2**-m_k and kappa_k for the degrees k < K, K! = mantissa * 2**shift
# with mantissa its leading 128 bits, exponent E_K and step m_{K-1}; it starts at K = 1
_scale_table = (1, 0, 0, 3, [1.0], [1.0])
# how far E_k may run above ceil(log2 k!) before its step m_k must change
_SLACK = 16


def _scales(top):
    """Per degree k <= top: 2**-m_k, m_k = E_{k+1} - E_k, and kappa_k = 2**E_k / k!, as two lists.

    E_0 = E_1 = 0, and from degree 1 on m_k starts at 3 and keeps the value
    of m_{k-1} unless E_{k+1} would leave [ceil(log2 (k+1)!), ceil(log2
    (k+1)!) + _SLACK], when it moves only as far as it must; so kappa_k lies
    in [1, 2**17).  The integer arithmetic runs on k! kept to its leading
    128 bits: exact while k! fits in them (k <= 34), and from a k! low by
    less than k 2**-127 of itself beyond, so that kappa_k, rounded once by
    int true division, is the correctly rounded 2**E_k / k! unless that lies
    within k 2**-127 of a midpoint of doubles.  The whole k! would cost time
    quadratic in the degree: 3.4 s for degree 4e4.
    """
    global _scale_table
    mantissa, shift, exponent, step, sigmas, kappas = _scale_table  # read once: another thread may replace it
    if len(sigmas) <= top:
        sigmas, kappas = sigmas[:], kappas[:]
        # at least doubled, so that a caller stepping up the degree copies the lists few times
        for k in range(len(sigmas), max(top + 1, 2 * len(sigmas))):
            kappas.append((1 << (exponent - shift)) / mantissa)
            mantissa *= k + 1
            excess = max(mantissa.bit_length() - 128, 0)
            mantissa, shift = mantissa >> excess, shift + excess
            least = shift + (mantissa - 1).bit_length()  # ceil(log2 (k + 1)!)
            step = min(max(step, least - exponent), least + _SLACK - exponent)
            exponent += step
            sigmas.append(2.0**-step)
        _scale_table = (mantissa, shift, exponent, step, sigmas, kappas)
    return sigmas, kappas


def _float_array(x, what):
    """x as a float array; a complex point, or one float() refuses, is a DomainError naming `what`."""
    try:
        # a complex array would otherwise be cast to its real part with only a warning
        if not np.iscomplexobj(x):
            return np.asarray(x, dtype=float)
    except OverflowError as exc:
        raise DomainError(f"{what} is out of float range: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{what} must be real: {exc}") from exc
    raise DomainError(f"{what} must be real, got a complex value")


def _check_argument(x):
    arr = _float_array(x, "argument")
    # the array methods skip np.all's and np.any's dispatch, which a small grid notices
    if not np.isfinite(arr).all():
        raise DomainError("argument must be finite")
    if (arr < 0.0).any():
        raise DomainError("argument must be non-negative")
    return arr


def positive_grid(x):
    """x as a float array, refused unless every point is real, finite and positive."""
    arr = _float_array(x, "radial coordinate")
    if not np.isfinite(arr).all():
        raise DomainError("radial coordinate must be finite")
    if (arr <= 0.0).any():
        raise DomainError("radial coordinate must be positive")
    return arr


def pointwise(derivatives, x, order):
    """The order-th entry of derivatives(grid, orders) at x: one grid check, a float for a scalar."""
    (out,) = derivatives(positive_grid(x), (order,))
    return float(out) if np.ndim(x) == 0 else out


def refuse_non_finite(out, grid, label):
    """Raise DomainError at the first grid point where out is not finite: out of float range there."""
    finite = np.isfinite(out)
    if not finite.all():
        point = float(np.broadcast_to(grid, np.shape(out))[~finite][0])
        raise DomainError(f"{label}({point!r}) is out of float range")


def _rows(stack, j, degrees, orders, x):
    """Fill stack[j] with L_{n-j}^(a+j) per row (n, a), and stack[j + 1] with L_{n-j-1}^(a+j+1) if j is odd.

    The rows of degree n >= j take part; the rest are zero.  The row j + 1,
    from the chain's W, is kept only when the stack has it.  The rows still
    running at step k, those of degree > k, are a prefix of the buffers, and
    a row is copied out when it is done.  Coefficient columns are formed in
    the one-row order of operations, so each row has the bits it would have
    alone.
    """
    rows, points = len(degrees), x.shape[-1]
    if j:
        live = sum(n >= j for n in degrees)
        degrees, orders = [n - j for n in degrees[:live]], [a + j for a in orders[:live]]
        x = x[:live] if x.ndim == 2 else x
    top = degrees[0] if degrees else 0
    # running[k]: the rows of degree > k, the prefix that step k advances
    running, m = [], len(degrees)
    for k in range(top):
        while degrees[m - 1] <= k:
            m -= 1
        running.append(m)
    # rows that end before the top degree, and rows past the ones taking part, are copied
    # out; the rest end in q and w
    out = total = None
    if top == 0 or degrees[-1] < top or len(degrees) < rows:
        out = np.ones((rows, points))
        out[len(degrees) :] = 0.0
        if j % 2 and j + 1 < len(stack):
            # L_{-1} = 0 on the rows of degree 0; the others are copied out
            total = stack[j + 1] = np.zeros((rows, points))
    if top == 0:
        stack[j] = out
        return
    sigmas, kappas = _scales(top)
    m = running[0]
    if m == 1:
        # a lone row keeps Python floats: a (1, 1) column costs numpy broadcasting on every
        # step, which slowed records_mix by 5 % and eval_wide by 2 % in paired runs
        a = float(orders[0])
        c_q = [(k + 1.0 + a) * sigmas[k] for k in range(top)]
    else:
        a = np.array(orders[:m], dtype=float)[:, None]
        c_q = (np.arange(1.0, top + 1.0)[:, None, None] + a) * np.array(sigmas[:top])[:, None, None]
    x = (x[None] if x.ndim == 1 else x)[:m]  # a shared row is one row that every prefix broadcasts
    # q = Q_k and w = W_k on entry to step k: Q_1 = a + 1 - x and W_1 = 1 (m_0 = 0)
    q = np.empty((m, points))
    np.subtract(c_q[0], x, out=q)
    w = np.ones_like(q)
    tmp = np.empty_like(q)
    # x 2**-m_k, formed again where the step's scale changes
    scaled = scale = None
    # in place: a fresh 2e4-point temporary is past glibc's mmap threshold, so mmapped every step
    for k in range(1, top):
        if sigmas[k] != scale:
            scale = sigmas[k]
            scaled = np.multiply(x, scale, out=scaled)
        if running[k] < m:
            # the rows of degree k are done
            np.multiply(q[running[k] :], kappas[k], out=out[running[k] : m])
            if total is not None:
                np.multiply(w[running[k] :], kappas[k], out=total[running[k] : m])
            m = running[k]
            q, w, tmp, c_q, x, scaled = q[:m], w[:m], tmp[:m], c_q[:, :m], x[:m], scaled[:m]
        # Q_{k+1} = ((k + a + 1) 2**-m_k - x 2**-m_k) Q_k - (x 2**-m_k) W_k,
        # then W_{k+1} = (k + 1) 2**-m_k (W_k + Q_k)
        np.subtract(c_q[k], scaled, out=tmp)
        tmp *= q
        q += w
        w *= scaled
        tmp -= w
        q *= (k + 1.0) * sigmas[k]
        q, w, tmp = tmp, q, w
    kappa, keep = kappas[top], j % 2 and j + 1 < len(stack)
    if out is None:
        # kappa_1 = 1, and a product by 1 moves no bits
        if kappa != 1.0:
            q *= kappa
            if keep:
                w *= kappa
        stack[j] = q
        if keep:
            stack[j + 1] = w
    else:
        np.multiply(q, kappa, out=out[:m])
        stack[j] = out
        if total is not None:
            np.multiply(w, kappa, out=total[:m])


def _recurrence(degrees, orders, x, order=0):
    """L_{degrees[i]-j}^(orders[i]+j) for every row i and j <= order: order + 1 (rows x points) arrays.

    The rows come in order of descending degree, on one shared argument row
    x (1-D) or one row each (2-D); a row of degree < j is zero at j.  Degrees
    that rise are a ValueError.  The recurrences of the values and of the
    rows of odd j run one after another, and each odd chain's W gives the
    row j + 1, so one recurrence pass gives every derivative row.  The
    chains are independent, so the values and the odd rows keep the bits of
    their own recurrences.  An even row from W stays within 2.5 times the
    error of its own recurrence on the local scale at n <= 200; a running
    sum of three-term rows (DLMF §18.9.13) came to 3.0 times with the
    textbook step and 4.1 times without its division, since a sum carries
    the rounding errors of all its terms.

    The last lone values row is kept in a one-entry slot, so that a
    residual's (0, 2) pass after a value on the same grid runs only its odd
    chains.  The slot keys on the degrees, the orders, and x's dtype, shape
    and values (`np.array_equal`), and holds private copies of x and of the
    values row; a call that matches takes a copy of the row, and any other
    call runs the values chain.  Only a pass of one row (one degree)
    replaces the slot: batches are not kept and leave it as it was, since a
    batch's values are seldom asked for twice in a row and copying them
    costs more.  Every row keeps its bits: L_n^(a)(t) depends on (n, a, t)
    alone, and x enters the chain only as a + 1 - x, as c - x 2**-m_k and
    as the product (x 2**-m_k) W_k, where equal values give equal bits.
    That holds for 0.0 and -0.0 too: a + 1 and c = (k + a + 1) 2**-m_k are
    never -0.0, and at x = 0 the product is a zero taken from c Q_k > 0,
    since L_k^(a)(0) > 0.
    A values row of more than _SLOT_ELEMENTS elements (1 MiB of floats), or
    one of top degree 0, whose chain has no step, is not kept.
    """
    global _last_values
    key_degrees, key_orders = tuple(degrees), tuple(orders)
    if any(n < m for n, m in zip(key_degrees, key_degrees[1:])):
        raise ValueError(f"rows must come in order of descending degree, got degrees {list(key_degrees)}")
    slot = _last_values  # read once: another thread may replace it meanwhile
    stack = [None] * (order + 1)
    chains = range(1, order + 1, 2)
    hit = (slot is not None and slot[:2] == (key_degrees, key_orders) and slot[2].dtype == x.dtype
           and slot[2].shape == x.shape and np.array_equal(slot[2], x))
    if hit:
        stack[0] = slot[3].copy()
    else:
        chains = (0, *chains)
    for j in chains:
        _rows(stack, j, degrees, orders, x)
    if not hit and len(key_degrees) == 1:
        keep = key_degrees[0] > 0 and stack[0].size <= _SLOT_ELEMENTS
        _last_values = (key_degrees, key_orders, x.copy(), stack[0].copy()) if keep else None
    return stack


def laguerre_stack(degrees, orders, t, order):
    """d^j/dt^j L_n^(a)(t) = (-1)^j L_{n-j}^(a+j)(t) for j <= order, per row; zero once j > n.

    t is an argument `_check_argument` has passed, and the rows come in order
    of descending degree.  One recurrence pass gives every derivative row
    (`_recurrence`, with the contiguous relations of DLMF §18.9), and the
    odd rows take their sign here.
    """
    stack = _recurrence(degrees, orders, t, order)
    for j in range(1, order + 1, 2):
        live = stack[j][: sum(n >= j for n in degrees)]
        np.negative(live, out=live)
    return stack


def _product_rule(u, w, z, order):
    """d^order/dx^order of u*w*z from per-factor stacks u[j], w[j], z[j], where w[0] is 1."""
    if order == 0:
        return u[0] * z[0]
    if order == 1:
        return u[1] * z[0] + u[0] * w[1] * z[0] + u[0] * z[1]
    if order == 2:
        return (
            u[2] * z[0]
            + u[0] * w[2] * z[0]
            + u[0] * z[2]
            + 2.0 * (u[1] * w[1] * z[0] + u[1] * z[1] + u[0] * w[1] * z[1])
        )
    return (
        u[3] * z[0]
        + u[0] * w[3] * z[0]
        + u[0] * z[3]
        + 3.0 * (u[2] * w[1] * z[0] + u[2] * z[1])
        + 3.0 * (u[1] * w[2] * z[0] + u[0] * w[2] * z[1])
        + 3.0 * (u[1] * z[2] + u[0] * w[1] * z[2])
        + 6.0 * u[1] * w[1] * z[1]
    )


def _prefactor_stack(grid, decay, log_norm, exponent, order):
    """u_j = q (q-1) ... (q-j+1) exp(log_norm + (q-j) log x - decay) for j <= order, q the exponent.

    u_j is norm * (d^j/dx^j x**q) * exp(-decay), formed as one exponential per
    order, so that no factor leaves double range on its own where the product
    does not (Gil, Segura & Temme, Numerical Methods for Special Functions,
    2007, ch. 4).  An entry whose coefficient is 0 (an integer q < j) is
    exactly 0, even where its exponential would overflow.
    """
    log_x = np.log(grid)
    stack, coeff = [], np.float64(1.0)  # a float64 or a column, so that coeff.all() is cheap
    for j in range(order + 1):
        arg = (exponent - j) * log_x
        arg += log_norm
        arg -= decay
        if j:
            coeff = coeff * (exponent - (j - 1))
            if not coeff.all():
                np.copyto(arg, -np.inf, where=coeff == 0.0)
        np.exp(arg, out=arg)
        if j:
            arg *= coeff
        stack.append(arg)
    return stack


def columns(rows):
    """Per-form tuples of floats as columns, one row per form."""
    return tuple(np.array(rows, dtype=float).T[..., None])


def family_derivatives(forms, grid, orders):
    """[d^k/dx^k for k in orders] of forms of one class, each (forms x points), from one build.

    grid, checked by positive_grid, is one row shared by every form (1-D) or
    one row per form (2-D).  The build takes the forms in order of
    descending degree, and the rows come back in the order given.
    """
    rank = sorted(range(len(forms)), key=lambda i: -forms[i].degree)
    unrank = sorted(range(len(forms)), key=rank.__getitem__)
    forms = [forms[i] for i in rank]
    *constants, log_norms, exponents = columns([f._constants() + (f.log_norm, f.exponent) for f in forms])
    built = _build(forms, grid[rank] if grid.ndim == 2 else grid, orders, constants, log_norms, exponents)
    return [d[unrank] for d in built]


def _build(forms, grid, orders, constants, log_norm, exponent):
    """The derivatives of forms in order of descending degree, as `laguerre_stack` needs them.

    The constants, log_norm and exponent are columns, or a lone form's own floats.
    """
    form, top = forms[0], max(orders)
    # x/scale or x*x can overflow on a finite grid; the overflow is left as inf,
    # which is refused here, before any stack is formed
    with np.errstate(over="ignore"):
        decay, t = form._decay_and_argument(grid, *constants)
    try:
        t = _check_argument(t)
    except DomainError as exc:
        raise DomainError("radial coordinate too large: its Laguerre argument overflows") from exc
    p = laguerre_stack([f.degree for f in forms], [f.order for f in forms], t, top)
    w, z = form._factor_stacks(grid, t, p, top, *constants)
    u = _prefactor_stack(grid, decay, log_norm, exponent, top)
    del decay, t, p  # the batch's temporaries end here
    return [_product_rule(u, w, z, k) for k in orders]
