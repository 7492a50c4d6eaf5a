"""Output checks that re-derive every expected number from closed forms.

Nothing here imports susyrad: each check parses the rendered CSV or JSON text
and compares it with formulas written out again in this file, so a defect in
the program cannot also hide in its own check.  A check returns None when the
output is right and (kind, reason) when it is not.
"""

from __future__ import annotations

import csv
import json
import math
from fractions import Fraction

import numpy as np

RESIDUAL_TOL = 1e-8
MAP_CONSTANCY_TOL = 1e-8

# JSON floats round-trip exactly; CSV cells carry 12 significant digits.
REL_TOL = {"json": 1e-12, "csv": 2e-11}
HBAR = 6.62607015e-34 / (2.0 * math.pi)  # exact since the 2019 SI
PRESETS = {"electron": (-1.602176634e-19, 9.1093837e-31), "proton": (1.602176634e-19, 1.67262192e-27)}


# The oscillator partner-shift identity is measured as an absolute defect of
# (V- - V+ - 2) * x**2, which loses ~x**4 ulps to cancellation: about 3e-12
# on the default grid (x up to 12), above the program's 1e-12 tolerance.  A
# value under this floor is the known defect; anything larger is a new one.
SHIFT_IDENTITY_FLOOR = 1e-10
KNOWN_FAILURE_KINDS = {
    "nonfinite": "non-finite or all-zero amplitudes at large n and l (ROADMAP item 4)",
    "shift-identity-floor": "oscillator shift_identity_defect above 1e-12 but below 1e-10 (cancellation)",
}


class CheckFailure(Exception):
    """Raised inside a check; the message is the reason for the failure."""

    def __init__(self, message, kind="check"):
        super().__init__(message)
        self.kind = kind


def require(ok, message):
    if not ok:
        raise CheckFailure(message)


def close(actual, expected, rel, what, scale=None):
    ref = abs(expected) if scale is None else scale
    require(
        actual is not None and math.isfinite(actual) and abs(actual - expected) <= rel * max(ref, 1e-300),
        f"{what}: got {actual!r}, expected {expected!r}",
    )


# --- parsing ----------------------------------------------------------------


def _cell(text):
    if text == "":
        return None
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def parse_record(text, fmt):
    """Rendered record -> {'command', 'rows', 'diagnostics': {name: (value, tol)}}."""
    if fmt == "json":
        payload = json.loads(text)
        diags = {d["name"]: (d["value"], d["tolerance"]) for d in payload["diagnostics"]}
        return {"command": payload["command"], "inputs": payload["inputs"], "rows": payload["rows"], "diagnostics": diags}
    command, inputs, diags, body = None, {}, {}, []
    for line in text.splitlines():
        if line.startswith("# command: "):
            command = line[len("# command: "):]
        elif line.startswith("# input: "):
            key, value = line[len("# input: "):].split(" = ", 1)
            inputs[key] = _cell(value)
        elif line.startswith("# diagnostic: "):
            name, rest = line[len("# diagnostic: "):].split(" = ", 1)
            value, tol = rest.split(" (tolerance ")
            diags[name] = (float(value), float(tol.rstrip(")")))
        else:
            body.append(line)
    reader = csv.reader(body)
    header = next(reader)
    rows = [{k: v for k, v in zip(header, map(_cell, cells)) if v is not None} for cells in reader]
    return {"command": command, "inputs": inputs, "rows": rows, "diagnostics": diags}


def _diagnostics_within(record, names):
    for name in names:
        require(name in record["diagnostics"], f"diagnostic {name} missing")
        value, tol = record["diagnostics"][name]
        require(math.isfinite(value) and value <= tol, f"diagnostic {name} = {value!r} exceeds {tol!r}")


# --- closed forms -------------------------------------------------------------


def laguerre_exact(degree, order, x):
    """L_degree^(order)(x) by the explicit sum in exact rational arithmetic."""
    a, xq = Fraction(order), Fraction(x)
    total = Fraction(0)
    for p in range(degree + 1):
        rising = Fraction(1)
        for j in range(p + 1, degree + 1):
            rising *= a + j
        term = rising * xq**p / (math.factorial(p) * math.factorial(degree - p))
        total += -term if p % 2 else term
    return float(total)


def coulomb_form(n_star, l_star, degree, dim):
    """(scale, power, degree, order, norm) of the normalized Coulomb-form state."""
    g = (dim - 3) / 2.0
    scale, order = n_star + g, 2.0 * l_star + 2.0 * g + 1.0
    norm_sq = math.exp(
        math.lgamma(degree + 1.0) - (order + 2.0) * math.log(scale)
        - math.lgamma(degree + order + 1.0) - math.log(2.0 * degree + order + 1.0)
    )
    return scale, l_star + g + 1.0, degree, order, math.sqrt(norm_sq)


def coulomb_amplitude(form, y):
    scale, power, degree, order, norm = form
    return norm * y**power * math.exp(-y / (2.0 * scale)) * laguerre_exact(degree, order, y / scale)


def oscillator_form(l_star, degree, dim):
    g = (dim - 3) / 2.0
    order = l_star + g + 0.5
    norm = math.sqrt(2.0 * math.exp(math.lgamma(degree + 1.0) - math.lgamma(degree + order + 1.0)))
    return l_star + g + 1.0, degree, order, norm


def oscillator_amplitude(form, y):
    power, degree, order, norm = form
    return norm * y**power * math.exp(-0.5 * y * y) * laguerre_exact(degree, order, y * y)


def hydrogen_amplitude(n, l, r):
    t = 2.0 * r / n
    pre = (2.0 / n**2) * math.exp(0.5 * (math.lgamma(n - l) - math.lgamma(n + l + 1)))
    return pre * t**l * math.exp(-r / n) * laguerre_exact(n - l - 1, 2 * l + 1, t)


def coulomb_levels(case, n, l):
    """(n*, l*, degree) for a Coulomb-side case, or None when (n, l) is inadmissible."""
    dim = case["dim"]
    if case["family"] in ("coulomb", "hydrogen"):
        return (float(n), float(l), n - l - 1) if n >= 1 and 0 <= l <= n - 1 else None
    table = case["model"]
    if n < 1 or l < 0 or l not in table["shift"]:
        return None
    delta = table["override"].get((l, n), table["delta"][l])
    shift = table["shift"][l]
    g = (dim - 3) / 2.0
    n_star, l_star = n - delta, l + shift - delta
    if n - l - shift - 1 < 0 or not (l_star + g + 1.0 > 0.0) or not (n_star + g > 0.0):
        return None
    return n_star, l_star, n - l - shift - 1


def oscillator_levels(case, big_n, big_l):
    """(N*, L*, degree) for an oscillator-side case, or None when inadmissible."""
    if big_n < 0 or not (0 <= big_l <= big_n) or (big_n - big_l) % 2:
        return None
    if case["family"] == "oscillator":
        return float(big_n), float(big_l), (big_n - big_l) // 2
    table = case["model"]
    if big_l not in table["shift"]:
        return None
    delta = table["override"].get((big_l, big_n), table["delta"][big_l])
    shift = table["shift"][big_l]
    g = (case["dim"] - 3) / 2.0
    n_star, l_star = big_n - 2.0 * delta, big_l + 2.0 * shift - 2.0 * delta
    degree = (big_n - big_l) // 2 - shift
    if degree < 0 or not (l_star + g + 1.0 > 0.0):
        return None
    return n_star, l_star, degree


def coulomb_energy(n_star, dim):
    return -1.0 / (2.0 * (n_star + (dim - 3) / 2.0) ** 2)


def oscillator_energy(n_star, dim):
    return (2.0 * n_star + 2.0 * ((dim - 3) / 2.0) + 3.0) / 2.0


def map_target(case, lam):
    """Closed-form (D, N, L) for one lambda, or None when the map is inadmissible."""
    d, n, l = case["source"]
    delta, i, big_delta, big_i = case["delta"], case["i"], case["Delta"], case["I"]
    lam2 = 2 * lam
    if lam2.denominator != 1 or (case["mode"] == "exact" and lam.denominator != 1):
        return None
    spread = 2 * (Fraction(big_delta) - Fraction(delta))
    if case["mode"] == "exact":
        big_d, big_n, big_l = 2 * d - 2 - 2 * lam, 2 * n - 2 + lam, 2 * l + lam
    else:
        if (spread + lam).denominator != 1:
            return None
        big_d, big_n, big_l = 2 * d - 2 - 2 * lam, 2 * n - 2 + spread + lam, 2 * l + spread - 2 * (big_i - i) + lam
    if any(Fraction(v).denominator != 1 for v in (big_d, big_n, big_l)):
        return None
    big_d, big_n, big_l = int(big_d), int(big_n), int(big_l)
    g, big_g = (d - 3) / 2.0, (big_d - 3) / 2.0
    admissible = (
        big_d >= 2 and big_n >= 0 and big_l >= 0 and (big_n - big_l) % 2 == 0
        and n - l - i - 1 >= 0 and (big_n - big_l) // 2 - big_i >= 0
        and l + i - delta + g + 1.0 > 0.0 and n - delta + g > 0.0
        and big_l + 2.0 * big_i - 2.0 * big_delta + big_g + 1.0 > 0.0
    )
    return (big_d, big_n, big_l) if admissible else None


# --- per-command checks -------------------------------------------------------


def _int(value):
    require(value is not None and float(value) == int(value), f"expected an integer, got {value!r}")
    return int(value)


def check_spectrum(case, rec, rel):
    upper = case["family"] in ("oscillator", "anharmonic")
    n_key, l_key = ("N", "L") if upper else ("n", "l")
    pairs = [(n, l) for n in case["n"] for l in case["l"]]
    require(len(rec["rows"]) == len(pairs), f"{len(rec['rows'])} rows, expected {len(pairs)}")
    for (n, l), row in zip(pairs, rec["rows"]):
        require((_int(row.get(n_key)), _int(row.get(l_key))) == (n, l), f"row order at {(n, l)}")
        levels = (oscillator_levels if upper else coulomb_levels)(case, n, l)
        if levels is None:
            require(row.get("error") and row.get("energy") is None, f"{(n, l)} should be an error row")
            continue
        require(not row.get("error"), f"{(n, l)} unexpected error {row.get('error')!r}")
        n_star, l_star, _ = levels
        energy = (oscillator_energy if upper else coulomb_energy)(n_star, case["dim"])
        close(row.get("energy"), energy, rel, f"energy at {(n, l)}")
        close(row.get(f"{n_key}_star"), n_star, rel, f"{n_key}* at {(n, l)}", scale=1.0)
        close(row.get(f"{l_key}_star"), l_star, rel, f"{l_key}* at {(n, l)}", scale=1.0)


def check_wavefunction(case, rec, rel):
    family, dim, n, l = case["family"], case["dim"], case["n"], case["l"]
    inputs = rec["inputs"]
    lo, hi, points = float(inputs["grid_min"]), float(inputs["grid_max"]), int(inputs["points"])
    if case.get("points") is not None:
        require(points == case["points"], f"points {points}, asked for {case['points']}")
    rows = rec["rows"]
    require(len(rows) == points, f"{len(rows)} rows, expected {points}")
    coord = "r" if family == "hydrogen" else ("Y" if family in ("oscillator", "anharmonic") else "y")
    amps = [row.get("amplitude") for row in rows]
    require(all(a is not None and math.isfinite(a) for a in amps), "non-finite amplitude")
    peak = max(abs(a) for a in amps)
    require(peak > 0.0, "every amplitude is zero")
    if family == "hydrogen":
        amplitude, degree = (lambda x: hydrogen_amplitude(n, l, x)), n - l - 1
    elif family in ("oscillator", "anharmonic"):
        _, l_star, degree = oscillator_levels(case, n, l)
        form = oscillator_form(l_star, degree, dim)
        amplitude = lambda x: oscillator_amplitude(form, x)  # noqa: E731
    else:
        n_star, l_star, degree = coulomb_levels(case, n, l)
        form = coulomb_form(n_star, l_star, degree, dim)
        amplitude = lambda x: coulomb_amplitude(form, x)  # noqa: E731
    for k in (0, points // 3, points // 2, points - 1):
        x = lo + (hi - lo) * k / (points - 1)
        close(rows[k].get(coord), x, 1e-11, f"grid point {k}")
        close(amps[k], amplitude(rows[k][coord]), 1e-9, f"amplitude at {coord}={x:g}", scale=peak)
    _diagnostics_within(rec, ["relative_residual"])
    nodes = rec["diagnostics"]["node_count"][0]
    require(0 <= nodes <= degree, f"node_count {nodes} outside [0, {degree}]")


def check_susy_pair(case, rec, rel):
    beta = case["l"] + (case["dim"] - 3) / 2.0 + 1.0
    rows = rec["rows"]
    require(len(rows) == case.get("points", 120), f"{len(rows)} rows")
    for row in rows:
        x = row["x"]
        if case["family"] == "coulomb":
            u1, u2 = 1.0 / beta - 2.0 * beta / x, 2.0 * beta / x**2
        else:
            u1, u2 = 2.0 * x - 2.0 * beta / x, 2.0 + 2.0 * beta / x**2
        v_plus, v_minus = 0.25 * u1 * u1 - 0.5 * u2, 0.25 * u1 * u1 + 0.5 * u2
        scale = max(abs(v_plus), abs(v_minus), 1.0)
        close(row.get("v_plus"), v_plus, 1e-10, f"v_plus at x={x:g}", scale=scale)
        close(row.get("v_minus"), v_minus, 1e-10, f"v_minus at x={x:g}", scale=scale)
        close(row.get("difference"), u2, 1e-10, f"partner shift at x={x:g}", scale=scale)
    _diagnostics_within(rec, ["ground_annihilation_residual"])
    try:
        _diagnostics_within(rec, ["shift_identity_defect"])
    except CheckFailure as exc:
        value = rec["diagnostics"].get("shift_identity_defect", (math.inf,))[0]
        if case["family"] == "oscillator" and value <= SHIFT_IDENTITY_FLOOR:
            raise CheckFailure(str(exc), kind="shift-identity-floor") from None
        raise


def check_map(case, rec, rel):
    rows = rec["rows"]
    lams = case["lams"]
    require(len(rows) == len(lams), f"{len(rows)} rows, expected {len(lams)}")
    verified = False
    for lam, row in zip(lams, rows):
        close(row.get("lambda"), float(lam), 1e-12, "lambda", scale=1.0)
        target = map_target(case, lam)
        if target is None:
            require(row.get("violations") and row.get("D") is None, f"lambda={lam} should be inadmissible")
            continue
        require(not row.get("violations"), f"lambda={lam} unexpected violations {row.get('violations')!r}")
        got = (_int(row.get("D")), _int(row.get("N")), _int(row.get("L")))
        require(got == target, f"lambda={lam} target {got}, expected {target}")
        defect = row.get("constancy_defect")
        require(defect is not None and 0.0 <= defect <= MAP_CONSTANCY_TOL, f"lambda={lam} constancy {defect!r}")
        require(_int(row.get("excluded_points")) >= 0 and math.isfinite(row.get("scale_factor")), "scale data")
        verified = True
    if verified:
        _diagnostics_within(rec, ["max_constancy_defect"])


def _charge_mass(trap):
    if trap.get("charge") is not None:
        return trap["charge"], trap["mass"]
    return PRESETS[trap["species"]]


def _check_preset_inputs(trap, inputs):
    charge, mass = _charge_mass(trap)
    close(float(inputs["e_coulomb"]), charge, 1e-6, "charge input")
    close(float(inputs["m_kg"]), mass, 1e-6, "mass input")
    return float(inputs["e_coulomb"]), float(inputs["m_kg"])


def check_trap_frequencies(case, rec, rel):
    trap = case["trap"]
    charge, mass = _check_preset_inputs(trap, rec["inputs"])
    w_c = abs(charge * trap["B"]) / mass
    w_z = math.sqrt(charge * trap["V"] / (mass * trap["d"] ** 2))
    rows = {row["quantity"]: row for row in rec["rows"]}
    require(set(rows) == {"cyclotron", "axial"} and len(rec["rows"]) == 2, "frequency rows")
    for name, w in (("cyclotron", w_c), ("axial", w_z)):
        close(rows[name].get("angular_frequency_rad_s"), w, rel, f"{name} angular frequency")
        close(rows[name].get("frequency_hz"), w / (2.0 * math.pi), rel, f"{name} frequency")


def check_trap_operating_point(case, rec, rel):
    trap = case["trap"]
    charge, mass = _check_preset_inputs(trap, rec["inputs"])
    voltage = math.copysign(abs(charge) * trap["B"] ** 2 * trap["d"] ** 2 / mass, charge)
    require(len(rec["rows"]) == 1, "one row expected")
    close(rec["rows"][0].get("V_volt"), voltage, rel, "operating voltage")
    _diagnostics_within(rec, ["frequency_match"])


def check_trap_levels(case, rec, rel):
    big_l, n_max, big_delta, trap = case["L"], case["n_max"], case["Delta"], case.get("trap")
    ladder = list(range(big_l, n_max + 1, 2))
    rows = rec["rows"]
    require(len(rows) == len(ladder), f"{len(rows)} rows, expected {len(ladder)}")
    w_c = None
    if trap is not None:
        charge, mass = _charge_mass(trap)
        w_c = abs(charge * trap["B"]) / mass
    for big_n, row in zip(ladder, rows):
        require(_int(row.get("N")) == big_n, f"row order at N={big_n}")
        if not (big_l - 2.0 * big_delta + 0.5 > 0.0):
            require(row.get("error") and row.get("energy_quanta") is None, f"N={big_n} should be an error row")
            continue
        quanta = big_n - 2.0 * big_delta + 1.0
        close(row.get("energy_quanta"), quanta, rel, f"energy quanta at N={big_n}")
        if w_c is not None:
            close(row.get("energy_joule"), quanta * HBAR * w_c, 1e-6, f"energy joule at N={big_n}")
        else:
            require(row.get("energy_joule") is None, "joule column without a trap")


CHECKERS = {
    "spectrum": check_spectrum,
    "wavefunction": check_wavefunction,
    "susy-pair": check_susy_pair,
    "map": check_map,
    "trap frequencies": check_trap_frequencies,
    "trap operating-point": check_trap_operating_point,
    "trap levels": check_trap_levels,
}


def check_rendered(case, text):
    """None when the rendered record matches the closed forms, else (kind, reason)."""
    try:
        rec = parse_record(text, case["fmt"])
        require(rec["command"] == case["kind"], f"command {rec['command']!r}, expected {case['kind']!r}")
        CHECKERS[case["kind"]](case, rec, REL_TOL[case["fmt"]])
    except CheckFailure as exc:
        return exc.kind, str(exc)
    except (KeyError, ValueError, TypeError, IndexError, StopIteration) as exc:
        return "check", f"unreadable {case['fmt']} record: {exc!r}"
    return None


def check_fatal(case, code, stdout, stderr):
    """None when a fatal invocation exited with the expected code and message."""
    if code != case["exit_code"]:
        return "check", f"exit code {code}, expected {case['exit_code']}"
    if stdout.strip():
        return "check", "fatal invocation wrote to stdout"
    if case["message"] not in stderr:
        return "check", f"stderr lacks {case['message']!r}: {stderr.strip()[-200:]!r}"
    return None


def check_verify(results):
    """The nine verify criteria, each passed and within its own tolerance."""
    if [r.criterion for r in results] != list(range(1, 10)):
        return "check", f"criteria {[r.criterion for r in results]}, expected 1..9"
    for r in results:
        if not (r.passed and math.isfinite(r.value) and r.value <= r.tolerance):
            return "check", f"criterion {r.criterion} {r.name} failed: {r.value!r} > {r.tolerance!r} ({r.detail})"
    return None


def check_eval(case, energy, values, rel_residual):
    """Returns (kind, reason) for an eval_wide operation, or None when it passed.

    kind 'nonfinite' is the known overflow/underflow class (a NaN, an infinity
    or amplitudes that are all zero); 'check' is a finite wrong answer.
    """
    finite = bool(np.all(np.isfinite(values)))
    peak = float(np.max(np.abs(values))) if finite else math.nan
    if not finite or peak == 0.0 or not math.isfinite(rel_residual):
        what = "non-finite amplitude" if not finite else ("all amplitudes zero" if peak == 0.0 else "non-finite residual")
        return "nonfinite", what
    upper = case["family"] in ("oscillator", "anharmonic")
    levels = (oscillator_levels if upper else coulomb_levels)(case, case["n"], case["l"])
    expected = (oscillator_energy if upper else coulomb_energy)(levels[0], case["dim"])
    if not abs(energy - expected) <= 1e-12 * abs(expected):
        return "check", f"energy {energy!r}, expected {expected!r}"
    if not rel_residual <= RESIDUAL_TOL:
        return "check", f"relative residual {rel_residual:.3e} > {RESIDUAL_TOL:g}"
    return None
