"""The grid layer: checked grids, the Laguerre recurrence and the batch build of the forms.

Only a verb that evaluates a waveform on a grid executes this module; the
closed forms (energies, trap numbers, admissibility) never reach it.  A grid
is checked once, on entry (`positive_grid`, `_check_argument`), and a
pointwise method asks for the one derivative it needs (`pointwise`,
`finite_pointwise`).

The generalized Laguerre polynomials L_n^(a), of real order a > -1, are
evaluated by the three-term recurrence in the degree, one batch of rows
(degree, order) at a time.  One recurrence pass gives every derivative row:
`laguerre_stack` takes d^j/dt^j L_n^(a) = (-1)^j L_{n-j}^(a+j) from a pass
that runs the values chain, then each odd chain, and sums the even rows by
the contiguous relation L_k^(a+1) = sum_{i<=k} L_i^(a) (DLMF §18.9.13).
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
of forms.  The power stack is formed once per distinct exponent, because
numpy's power of an exponent column skips its scalar fast paths (x**0.5,
x**2) and rounds differently; so every element sees the operations it would
alone.  A form's `derivatives(grid, orders)` is the same build for a family
of one, on its grid's points as one row and with its own constants as
floats.  The Laguerre argument is checked before any stack is formed.
"""

from __future__ import annotations

from ._np import np
from .errors import DomainError

# `_recurrence`'s one-entry memo of a lone row, (degrees, orders, x, values row) or
# None, and the largest values row it keeps
_SLOT_ELEMENTS = 2**17
_last_values = None


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


def finite_pointwise(derivatives, x, order, label):
    """pointwise, refused as out of float range where not finite; numpy warns of nothing first."""
    grid = positive_grid(x)
    with np.errstate(all="ignore"):
        (out,) = derivatives(grid, (order,))
    refuse_non_finite(out, grid, label)
    return float(out) if np.ndim(x) == 0 else out


def _rows(stack, j, degrees, orders, x):
    """Fill stack[j] with L_{n-j}^(a+j) per row (n, a), and stack[j + 1] with its sums if j is odd.

    The rows of degree n >= j take part; the rest are zero.  The running sums
    are kept only when the stack has a row j + 1 to put them in.  The rows
    still running at step k, those of degree > k, are a prefix of the
    buffers, and a row is copied out when it is done.
    Coefficient columns are formed in the one-row order of operations, so
    each row has the bits it would have alone.
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
    # out; the rest end in cur
    out = None
    if top == 0 or degrees[-1] < top or len(degrees) < rows:
        out = np.ones((rows, points))
        out[len(degrees) :] = 0.0
    total = None
    if j % 2 and j + 1 < len(stack):
        # sum_{i<=k} L_i^(a) = L_k^(a+1) (DLMF §18.9.13), from L_0 = 1 on the rows that go on
        total = np.ones((rows, points))
        total[running[0] if top else 0 :] = 0.0
        stack[j + 1] = total
    if top == 0:
        stack[j] = out
        return
    m = running[0]
    if m == 1:
        # a lone row keeps Python floats: a (1, 1) column costs numpy broadcasting on every
        # step, which slowed records_mix by 5 % and eval_wide by 2 % in paired runs
        a = float(orders[0])
        c_next = [2.0 * k + a + 1.0 for k in range(1, top)]
        c_prev = [k + a for k in range(1, top)]
    else:
        a = np.array(orders[:m], dtype=float)[:, None]
        steps = np.arange(1.0, top)[:, None, None]
        c_next, c_prev = 2.0 * steps + a + 1.0, steps + a
    x = x.reshape(-1, points)[:m]  # a shared row is one row that every prefix broadcasts
    prev = np.ones((m, points))
    cur = np.empty_like(prev)
    np.subtract(a + 1.0, x, out=cur)
    nxt = np.empty_like(prev)
    partial = None if total is None else total[:m]
    # in place: a fresh 2e4-point temporary is past glibc's mmap threshold, so mmapped every step
    for k in range(1, top):
        if running[k] < m:
            # the rows of degree k are done
            out[running[k] : m] = cur[running[k] :]
            m = running[k]
            prev, cur, nxt, c_next, c_prev = prev[:m], cur[:m], nxt[:m], c_next[:, :m], c_prev[:, :m]
            x = x[:m]
            if partial is not None:
                partial = partial[:m]
        if partial is not None:
            partial += cur
        # ((2k + a + 1 - x) * cur - (k + a) * prev) / (k + 1), operation by operation
        np.subtract(c_next[k - 1], x, out=nxt)
        nxt *= cur
        prev *= c_prev[k - 1]
        nxt -= prev
        nxt /= k + 1.0
        prev, cur, nxt = cur, nxt, prev
    if out is None:
        stack[j] = cur
    else:
        out[:m] = cur
        stack[j] = out


def _recurrence(degrees, orders, x, order=0):
    """L_{degrees[i]-j}^(orders[i]+j) for every row i and j <= order: order + 1 (rows x points) arrays.

    The rows come in order of descending degree, on one shared argument row
    x (1-D) or one row each (2-D); a row of degree < j is zero at j.  Degrees
    that rise are a ValueError.  The three-term recurrences of the values and
    of the rows of odd j run one after another, and the running sums of each
    odd row give the row j + 1 (DLMF §18.9.13), so one recurrence pass gives
    every derivative row.  The chains are independent, so the values and the
    odd rows keep the bits of their own recurrences.  An even row is summed
    once, from the odd row below it, because a sum carries the rounding
    errors of all its terms: summed from the values, the rows j = 1, 2 and 3
    at n <= 200 had up to 5, 8 and 200 times the error of their own
    recurrences on the local scale, where the row 2 summed from the row 1
    stays within 3 times.

    The last lone values row is kept in a one-entry slot, so that a
    residual's (0, 2) pass after a value on the same grid runs only its odd
    chains.  The slot keys on the degrees, the orders, and x's dtype, shape
    and values (`np.array_equal`), and holds private copies of x and of the
    values row; a call that matches takes a copy of the row, and any other
    call runs the values chain.  Only a pass of one row (one degree)
    replaces the slot: batches are not kept and leave it as it was, since a
    batch's values are seldom asked for twice in a row and copying them
    costs more.  Every row keeps its bits: L_n^(a)(t) depends on (n, a, t)
    alone, and x enters the chain only as c - x, where equal values give
    equal bits, 0.0 and -0.0 included, since a coefficient c is never -0.0.
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
    (`_recurrence`, with the contiguous relation of DLMF §18.9.13), and the
    odd rows take their sign here.
    """
    stack = _recurrence(degrees, orders, t, order)
    for j in range(1, order + 1, 2):
        live = stack[j][: sum(n >= j for n in degrees)]
        np.negative(live, out=live)
    return stack


def _triple_product_derivatives(u, w, z, order):
    """Derivative of u*w*z given per-factor stacks u[j], w[j], z[j] for j <= order."""
    if order == 0:
        return u[0] * w[0] * z[0]
    if order == 1:
        return u[1] * w[0] * z[0] + u[0] * w[1] * z[0] + u[0] * w[0] * z[1]
    if order == 2:
        return (
            u[2] * w[0] * z[0]
            + u[0] * w[2] * z[0]
            + u[0] * w[0] * z[2]
            + 2.0 * (u[1] * w[1] * z[0] + u[1] * w[0] * z[1] + u[0] * w[1] * z[1])
        )
    return (
        u[3] * w[0] * z[0]
        + u[0] * w[3] * z[0]
        + u[0] * w[0] * z[3]
        + 3.0 * (u[2] * w[1] * z[0] + u[2] * w[0] * z[1])
        + 3.0 * (u[1] * w[2] * z[0] + u[0] * w[2] * z[1])
        + 3.0 * (u[1] * w[0] * z[2] + u[0] * w[1] * z[2])
        + 6.0 * u[1] * w[1] * z[1]
    )


def _power_stack(x, exponent, order):
    # u_j = exponent (exponent - 1) ... (exponent - j + 1) x**(exponent - j)
    stack = [np.power(x, exponent)]
    coeff = 1.0
    for j in range(1, order + 1):
        coeff *= exponent - (j - 1)
        stack.append(coeff * np.power(x, exponent - j))
    return stack


def _power_stacks(exponents, grid, order):
    """Each row's power stack, formed once per distinct exponent (see the module docstring).

    A batch of one exponent, as every family of one angular number is, takes
    its stack as formed, with no scatter into rows.
    """
    groups = {}
    for i, exponent in enumerate(exponents):
        groups.setdefault(exponent, []).append(i)
    if len(groups) == 1:
        return _power_stack(grid, exponents[0], order)
    stacks = [np.empty((len(exponents), grid.shape[-1])) for _ in range(order + 1)]
    for exponent, rows in groups.items():
        part = _power_stack(grid if grid.ndim == 1 else grid[rows], exponent, order)
        for stack, values in zip(stacks, part):
            stack[rows] = values
    return stacks


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
    *constants, norms = columns([f._constants() + (f.norm,) for f in forms])
    built = _build(forms, grid[rank] if grid.ndim == 2 else grid, orders, constants, norms)
    return [d[unrank] for d in built]


def _build(forms, grid, orders, constants, norms):
    """The derivatives of forms in order of descending degree, as `laguerre_stack` needs them.

    The constants and norms are columns, or a lone form's own floats.
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
    w, z = form._factor_stacks(grid, t, np.exp(-decay), p, top, *constants)
    del decay, t, p  # the batch's temporaries end here
    stacks = (_power_stacks([f.exponent for f in forms], grid, top), w, z)
    return [norms * _triple_product_derivatives(*stacks, k) for k in orders]
