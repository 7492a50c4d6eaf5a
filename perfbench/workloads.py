"""Seeded inputs and operations of the four workloads.

Every input comes from ``random.Random(seed)``; the program only ever sees
the generated values.  Record cases are plain dicts that both the in-process
stream (``records_mix``) and the CLI corpus (``cli_cold``) use, so one set of
closed-form checks in ``checks.py`` covers both paths.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from statistics import median

import numpy as np

import checks

FORMATS = ("csv", "json")
EVAL_POINTS = 20_000
EVAL_CASES_PER_FAMILY = 32
RECORD_BLOCKS = 64
MAX_FAILURES_LISTED = 40
TRAP_SPECIES = {"electron": -1.0, "proton": 1.0}


# --- record cases ---------------------------------------------------------------


def _model_table(rng, side):
    """Defect (Coulomb side) or anharmonic (oscillator side) table for l = 0..2.

    delta < 0.45 and Delta < 0.24 keep every entry admissible down to d = 2.
    """
    top = 0.45 if side == "defect" else 0.24
    table = {"delta": {}, "shift": {}, "override": {}}
    for l in range(3):
        table["delta"][l] = round(rng.uniform(0.0, top), 3)
        table["shift"][l] = rng.randint(0, 1)
    n = rng.randint(2, 6) if side == "defect" else 2 * rng.randint(1, 3)
    table["override"][(0, n)] = round(rng.uniform(0.0, top), 3)
    return table


def config_text(case):
    """The configuration file a case's model and trap are read from."""
    lines = ["format_version = 1", ""]
    table = case.get("model")
    if table is not None:
        side = case["family"]
        l_key, n_key, d_key = ("l", "n", "delta") if side == "defect" else ("L", "N", "Delta")
        for l, delta in table["delta"].items():
            lines += [f"[{side}]", f"dimension = {case['dim']}", f"{l_key} = {l}",
                      f"{d_key} = {delta!r}", f"shift = {table['shift'][l]}", ""]
        for (l, n), delta in table["override"].items():
            lines += [f"[{side}]", f"dimension = {case['dim']}", f"{l_key} = {l}", f"{n_key} = {n}",
                      f"{d_key} = {delta!r}", f"shift = {table['shift'][l]}", ""]
    trap = case.get("trap")
    if trap is not None and trap.get("via_config"):
        lines += ["[trap]", f"B_tesla = {trap['B']!r}", f"V_volt = {trap['V']!r}",
                  f"d_meter = {trap['d']!r}", f"species = {trap['species']}", ""]
    return "\n".join(lines)


def _trap(rng, via_config=False):
    species = rng.choice(sorted(TRAP_SPECIES))
    return {
        "B": round(rng.uniform(1.0, 8.0), 3),
        "V": TRAP_SPECIES[species] * round(rng.uniform(1.0, 20.0), 3),
        "d": round(rng.uniform(0.005, 0.02), 5),
        "species": species,
        "via_config": via_config,
    }


def _spectrum(rng, family):
    upper = family in ("oscillator", "anharmonic")
    case = {"kind": "spectrum", "family": family, "dim": rng.randint(2, 8 if family in ("coulomb", "oscillator") else 6)}
    if upper:
        case["n"] = list(range(0, rng.randint(4, 12) + 1))
    else:
        case["n"] = list(range(1, rng.randint(4, 20) + 1))
    case["l"] = list(range(0, rng.randint(0, 3) + 1))
    if family in ("defect", "anharmonic"):
        case["model"] = _model_table(rng, family)
    return case


def _wavefunction(rng, family):
    dim = 3 if family == "hydrogen" else rng.randint(2, 8 if family in ("coulomb", "oscillator") else 6)
    case = {"kind": "wavefunction", "family": family, "dim": dim}
    if family in ("oscillator", "anharmonic"):
        case["model"] = _model_table(rng, family) if family == "anharmonic" else None
        while True:
            big_n, big_l = rng.randint(0, 10), rng.randint(0, 2)
            case["n"], case["l"] = big_n, big_l
            if checks.oscillator_levels(case, big_n, big_l) is not None:
                break
    else:
        case["model"] = _model_table(rng, family) if family == "defect" else None
        while True:
            n = rng.randint(1, 8)
            l = rng.randint(0, min(n - 1, 2))
            case["n"], case["l"] = n, l
            if checks.coulomb_levels(case, n, l) is not None:
                break
    case["points"] = rng.choice([None, rng.randint(50, 400)])
    return case


def _susy_pair(rng, family):
    return {"kind": "susy-pair", "family": family, "dim": rng.randint(2, 8), "l": rng.randint(0, 4)}


def _map(rng, mode):
    d = rng.randint(2, 6) if mode == "exact" else rng.randint(3, 6)
    n = rng.randint(1, 5)
    l = rng.randint(0, n - 1)
    case = {"kind": "map", "mode": mode, "source": (d, n, l), "delta": 0.0, "i": 0, "Delta": 0.0, "I": 0}
    if mode == "broken":
        case["delta"] = rng.choice([0.0, 0.25, 0.5])
        case["Delta"] = rng.choice([0.0, 0.25, 0.5])
        case["i"] = rng.randint(0, 1) if n - l - 1 >= 1 else 0
        case["I"] = rng.randint(0, 1)
    lo, hi = rng.randint(-2, 0), rng.randint(1, 4)
    step = Fraction(1) if mode == "exact" else Fraction(1, 2)
    case["range"] = (lo, hi)
    case["lams"] = [lo + k * step for k in range(int((hi - lo) / step) + 1)]
    return case


def _trap_frequencies(rng):
    return {"kind": "trap frequencies", "trap": _trap(rng, via_config=rng.random() < 0.5)}


def _trap_operating_point(rng):
    return {"kind": "trap operating-point", "trap": _trap(rng)}


def _trap_levels(rng):
    big_l = rng.randint(0, 3)
    case = {"kind": "trap levels", "L": big_l, "n_max": big_l + rng.randint(4, 30),
            "Delta": round(rng.uniform(0.0, 0.3), 3)}
    if rng.random() < 0.5:
        case["trap"] = _trap(rng, via_config=rng.random() < 0.5)
    return case


TEMPLATES = [
    lambda rng: _spectrum(rng, "coulomb"),
    lambda rng: _spectrum(rng, "oscillator"),
    lambda rng: _spectrum(rng, "defect"),
    lambda rng: _spectrum(rng, "anharmonic"),
    lambda rng: _wavefunction(rng, "coulomb"),
    lambda rng: _wavefunction(rng, "oscillator"),
    lambda rng: _wavefunction(rng, "hydrogen"),
    lambda rng: _wavefunction(rng, "defect"),
    lambda rng: _wavefunction(rng, "anharmonic"),
    lambda rng: _susy_pair(rng, "coulomb"),
    lambda rng: _susy_pair(rng, "oscillator"),
    lambda rng: _map(rng, "exact"),
    lambda rng: _map(rng, "broken"),
    _trap_frequencies,
    _trap_operating_point,
    _trap_levels,
]


def record_block(rng, parity):
    """One case of every template; output formats alternate from template to
    template, starting with FORMATS[parity], so two blocks of opposite parity
    render every template once in each format."""
    block = []
    for index, template in enumerate(TEMPLATES):
        case = template(rng)
        case["fmt"] = FORMATS[(parity + index) % 2]
        block.append(case)
    return block


def records_cases(seed):
    rng = random.Random(seed)
    cases = [case for b in range(RECORD_BLOCKS) for case in record_block(rng, b % 2)]
    rng.shuffle(cases)
    return cases


# --- in-process record building -------------------------------------------------


def build_record(case):
    """Build the case's OutputRecord through the same calls the CLI makes."""
    from susyrad import config, geonium, reports

    kind = case["kind"]
    model = None
    parsed = None
    if _needs_config(case):
        parsed = config.ModelConfig(config.parse_config(config_text(case)))
    if case.get("model") is not None:
        side = case["family"]
        model = parsed.defect_model(case["dim"]) if side == "defect" else parsed.anharmonic_model(case["dim"])
    if kind == "spectrum":
        return reports.spectrum_record(case["family"], case["dim"], case["n"], case["l"], model=model)
    if kind == "wavefunction":
        lo, hi, count = reports.default_wavefunction_grid(case["family"], case["dim"], case["n"])
        count = count if case["points"] is None else case["points"]
        return reports.wavefunction_record(case["family"], case["dim"], case["n"], case["l"], lo, hi, count, model=model)
    if kind == "susy-pair":
        return reports.susy_pair_record(case["family"], case["dim"], case["l"])
    if kind == "map":
        return reports.map_record(case["source"], case["lams"], mode=case["mode"], delta=case["delta"],
                                  i=case["i"], Delta=case["Delta"], I=case["I"])
    trap = case.get("trap")
    trap_config = None
    if trap is not None:
        if trap["via_config"]:
            trap_config = parsed.trap()
        else:
            trap_config = geonium.trap_config(trap["B"], trap["V"], trap["d"], trap["species"])
    if kind == "trap frequencies":
        return reports.trap_frequencies_record(trap_config)
    if kind == "trap operating-point":
        preset = geonium.PRESETS[trap["species"]]
        return reports.trap_operating_point_record(trap["B"], trap["d"], preset.charge, preset.mass)
    return reports.trap_levels_record(case["L"], case["n_max"], case["Delta"], config=trap_config)


class RecordsMix:
    """records_mix: build a record, then render it as CSV or JSON."""

    def __init__(self, seed):
        self.cases = records_cases(seed)
        self.warmup = self.cases[0]

    def run(self, case):
        return build_record(case).render(case["fmt"])

    def check(self, case, text):
        return checks.check_rendered(case, text)

    def describe(self, case):
        return {k: case[k] for k in ("kind", "family", "dim", "n", "l", "fmt") if k in case}


# --- eval_wide ------------------------------------------------------------------


def eval_cases(seed, per_family=EVAL_CASES_PER_FAMILY):
    """Latin-hypercube draw over (polynomial degree, l) for each of the four families.

    The degree sets an operation's cost, so stratifying it, the l range and
    d keeps the cost mix the same from seed to seed, while every admissible
    (d, n, l) region with n <= 200 (N <= 400), the overflow corner of small
    degree and large l included, is drawn.
    """
    rng = random.Random(seed)
    cases = []
    for family in ("coulomb", "defect", "oscillator", "anharmonic"):
        perm = list(range(per_family))
        rng.shuffle(perm)
        dims = [2 + k % 7 for k in range(per_family)]
        rng.shuffle(dims)
        for k in range(per_family):
            u = (k + rng.random()) / per_family
            v = (perm[k] + rng.random()) / per_family
            case = {"family": family, "dim": dims[k], "model": None}
            if family in ("coulomb", "defect"):
                degree = int(u * 200)  # n - l - 1, with n <= 200
                l = int(v * (200 - degree))
                case.update(n=l + degree + 1, l=l)
                if family == "defect":
                    shift = rng.randint(0, 1) if degree >= 1 else 0
                    case["model"] = {"delta": {l: round(rng.uniform(0.0, 0.45), 4)}, "shift": {l: shift}, "override": {}}
            else:
                degree = int(u * 201)  # (N - L)/2, with N <= 400
                big_l = int(v * (401 - 2 * degree))
                case.update(n=big_l + 2 * degree, l=big_l)
                if family == "anharmonic":
                    shift = rng.randint(0, 1) if degree >= 1 else 0
                    case["model"] = {"delta": {big_l: round(rng.uniform(0.0, 0.24), 4)}, "shift": {big_l: shift}, "override": {}}
            cases.append(case)
    rng.shuffle(cases)
    return cases


def make_state(case):
    from susyrad import coulomb, oscillator, qdt

    family, dim, n, l = case["family"], case["dim"], case["n"], case["l"]
    if family == "coulomb":
        return coulomb.CoulombState(dim, n, l)
    if family == "oscillator":
        return oscillator.OscillatorState(dim, n, l)
    table = case["model"]
    cls = qdt.DefectModel if family == "defect" else qdt.AnharmonicModel
    return cls(dim, table["delta"], table["shift"]).state(n, l)


class EvalWide:
    """eval_wide: value, second derivative and relative residual on 2e4 points."""

    def __init__(self, seed):
        from susyrad import reports

        self.cases = eval_cases(seed)
        self.warmup = min(self.cases, key=lambda case: case["n"])
        for case in self.cases:
            case["extent"] = reports.default_wavefunction_grid(case["family"], case["dim"], case["n"])[:2]

    def run(self, case):
        from susyrad import susy

        state = make_state(case)
        grid = np.linspace(*case["extent"], EVAL_POINTS)
        values = state.value(grid)
        residual = susy.apply_operator(state.operator(), state, grid, state.operator_eigenvalue())
        return state.energy, values, residual

    def check(self, case, result):
        energy, values, residual = result
        with np.errstate(all="ignore"):
            rel = float(np.max(np.abs(residual)) / np.max(np.abs(values)))
        return checks.check_eval(case, energy, values, rel)

    def describe(self, case):
        return {k: case[k] for k in ("family", "dim", "n", "l")}


# --- verify_suite ---------------------------------------------------------------


class VerifySuite:
    """verify_suite: the nine-criterion verify suite, in process.

    Its inputs are fixed inside the program (verify._RNG_SEED), so the
    benchmark seed changes nothing here.
    """

    def __init__(self, seed):
        self.cases = [None]
        self.warmup = None

    def run(self, case):
        from susyrad import verify

        return verify.run_all()

    def check(self, case, results):
        return checks.check_verify(results)

    def describe(self, case):
        return {"suite": "verify.run_all"}


IN_PROCESS = {"records_mix": RecordsMix, "eval_wide": EvalWide, "verify_suite": VerifySuite}


# --- cli_cold corpus ------------------------------------------------------------


def _range_text(values):
    return f"{values[0]}..{values[-1]}" if len(values) > 1 else str(values[0])


def _fraction_text(lam):
    return str(lam.numerator) if lam.denominator == 1 else f"{lam.numerator}/{lam.denominator}"


def cli_argv(case, config_path=None, out_path=None, lambda_list=False):
    """The susyrad argv that asks for the same record as build_record(case)."""
    kind = case["kind"]
    if kind == "spectrum":
        argv = ["spectrum", "--family", case["family"], "--dim", str(case["dim"]),
                "--n", _range_text(case["n"]), "--l", _range_text(case["l"])]
    elif kind == "wavefunction":
        argv = ["wavefunction", "--family", case["family"], "--dim", str(case["dim"]),
                "--n", str(case["n"]), "--l", str(case["l"])]
        if case["points"] is not None:
            argv += ["--points", str(case["points"])]
    elif kind == "susy-pair":
        argv = ["susy-pair", "--family", case["family"], "--dim", str(case["dim"]), "--l", str(case["l"])]
    elif kind == "map":
        d, n, l = case["source"]
        argv = ["map", "--d", str(d), "--n", str(n), "--l", str(l), "--mode", case["mode"]]
        if lambda_list:
            argv += ["--lambda", ",".join(_fraction_text(lam) for lam in case["lams"])]
        else:
            argv += ["--lambda-range", f"{case['range'][0]}..{case['range'][1]}"]
        if case["mode"] == "broken":
            argv += ["--delta", repr(case["delta"]), "--i", str(case["i"]),
                     "--Delta", repr(case["Delta"]), "--I", str(case["I"])]
    else:
        trap = case.get("trap")
        argv = kind.split()
        if kind == "trap levels":
            argv += ["--L", str(case["L"]), "--N-max", str(case["n_max"]), "--Delta", repr(case["Delta"])]
        if kind == "trap operating-point":
            argv += ["--B", repr(trap["B"]), "--d", repr(trap["d"]), "--species", trap["species"]]
        elif trap is not None and not trap["via_config"]:
            argv += ["--B", repr(trap["B"]), "--V", repr(trap["V"]), "--d", repr(trap["d"]),
                     "--species", trap["species"]]
    if config_path is not None:
        argv += ["--config", config_path]
    argv += ["--format", case["fmt"]]
    if out_path is not None:
        argv += ["--out", out_path]
    return argv


def _needs_config(case):
    return case.get("model") is not None or (case.get("trap") or {}).get("via_config", False)


def cli_corpus(seed, workdir):
    """About 30 invocations: every verb except verify, both formats, --out,
    --config files, sweeps with error rows, and expected fatal exits.

    Config files are written into workdir.  Each entry is
    {'argv', 'case' or None, 'out' or None, 'fatal' or None}.
    """
    import os

    rng = random.Random(seed)
    entries = []

    def add(case, out=False, lambda_list=False):
        idx = len(entries)
        config_path = None
        if _needs_config(case):
            config_path = os.path.join(workdir, f"case{idx}.cfg")
            with open(config_path, "w", encoding="utf-8") as handle:
                handle.write(config_text(case))
        out_path = os.path.join(workdir, f"out{idx}.{case['fmt']}") if out else None
        entries.append({"argv": cli_argv(case, config_path, out_path, lambda_list), "case": case,
                        "out": out_path, "fatal": None})

    parity = rng.randint(0, 1)
    block = record_block(rng, parity)
    for case in block:
        add(case)
    extra = record_block(rng, 1 - parity)
    for case, kw in (
        (extra[0], {"out": True}),  # coulomb spectrum
        (extra[3], {"out": True}),  # anharmonic spectrum
        (extra[4], {"out": True}),  # coulomb wavefunction
        (extra[7], {}),  # defect wavefunction
        (extra[11], {"lambda_list": True}),  # exact map, explicit list
        (extra[12], {"lambda_list": True}),  # broken map, explicit list
        (extra[13], {}),  # trap frequencies
        (extra[15], {}),  # trap levels
    ):
        case["fmt"] = "json" if case["fmt"] == "csv" else "csv"
        if case["kind"] == "map" and kw.get("lambda_list"):
            case["lams"] = case["lams"] + [Fraction(1, 3)] if case["mode"] == "exact" else case["lams"]
        add(case, **kw)

    bad_config = os.path.join(workdir, "bad.cfg")
    with open(bad_config, "w", encoding="utf-8") as handle:
        handle.write("[defect]\ndimension = 3\n")
    n = rng.randint(1, 6)
    b_field, length = round(rng.uniform(1.0, 8.0), 3), round(rng.uniform(0.005, 0.02), 5)
    fatal = [
        (["spectrum", "--family", "defect", "--n", f"1..{n + 2}"], 1, "the defect family needs --config"),
        (["wavefunction", "--n", str(n), "--l", str(n + rng.randint(0, 3))], 1, "angular number must satisfy"),
        (["map", "--d", "3", "--n", str(n), "--l", "0", "--lambda", "1", "--lambda-range", "0..2"], 1,
         "give exactly one of --lambda or --lambda-range"),
        (["spectrum", "--family", "defect", "--config", bad_config], 1, "format_version must appear"),
        (["trap", "frequencies", "--B", repr(b_field), "--V", repr(round(rng.uniform(1.0, 20.0), 3)),
          "--d", repr(length), "--species", "electron"], 1, "unstable trap"),
        (["spectrum", "--format", rng.choice(["xml", "tsv", "yaml"])], 2, "Invalid value for '--format'"),
    ]
    for argv, code, message in fatal:
        entries.append({"argv": argv, "case": None, "out": None,
                        "fatal": {"exit_code": code, "message": message}})
    return entries


def check_cli(entry, code, stdout, stderr):
    """None when one CLI invocation produced the right output, else (kind, reason)."""
    if entry["fatal"] is not None:
        return checks.check_fatal(entry["fatal"], code, stdout, stderr)
    if code != 0:
        return "check", f"exit code {code}: {stderr.strip()[-200:]!r}"
    text = stdout
    if entry["out"] is not None:
        if stdout.strip():
            return "check", "--out invocation wrote to stdout"
        with open(entry["out"], encoding="utf-8") as handle:
            text = handle.read()
    return checks.check_rendered(entry["case"], text)


def describe_cli(entry):
    return " ".join(entry["argv"][:8])


class Outcomes:
    """Latencies and outcomes of one timed loop, kept per case, plus the failures seen.

    A case is attempted once it has run and failed when any of its repeats
    failed, so for a given seed ``attempted`` and ``failed`` do not depend on
    how many repeats fitted into the run.
    """

    def __init__(self, count):
        self.times = [[] for _ in range(count)]
        self.starts = [[] for _ in range(count)]
        self.oks = [[] for _ in range(count)]
        self.case_kind = [None] * count
        self.failures = []
        self.operations = 0
        self.ref_times, self.ref_starts = [], []

    def covered(self):
        """True once every case has run at least once."""
        return self.operations >= len(self.times)

    def add(self, index, start_ns, elapsed_ns, failure, describe):
        """Record one operation; failure is None or (kind, reason), describe() names the case."""
        self.operations += 1
        self.starts[index].append(start_ns)
        self.times[index].append(elapsed_ns)
        self.oks[index].append(failure is None)
        if failure is not None:
            kind, reason = failure
            if self.case_kind[index] is None:
                self.case_kind[index] = kind
            case = describe()
            if len(self.failures) < MAX_FAILURES_LISTED and all(f["case"] != case for f in self.failures):
                self.failures.append({"kind": kind, "reason": reason, "case": case})

    def add_reference(self, start_ns, elapsed_ns):
        self.ref_starts.append(start_ns)
        self.ref_times.append(elapsed_ns)

    def as_dict(self):
        kinds = {}
        for kind in self.case_kind:
            if kind is not None:
                kinds[kind] = kinds.get(kind, 0) + 1
        return {"operations": self.operations, "attempted": sum(1 for t in self.times if t),
                "failed": sum(kinds.values()), "failure_kinds": kinds, "failures": self.failures,
                "case_times_ns": self.times, "case_starts_ns": self.starts, "case_ok": self.oks,
                "ref_times_ns": self.ref_times, "ref_starts_ns": self.ref_starts}


def summarize(case_times, case_ok):
    """Per-case median of repeats -> (ops_per_s, sorted latencies in ms of the passing cases).

    ops_per_s is the number of passing cases over the summed latencies of
    all cases: one pass of the case list at the run's typical speed.  Failing
    cases are counted by fail_ratio, not in the latency percentiles.
    """
    typical = [(median(t), all(ok)) for t, ok in zip(case_times, case_ok) if t]
    total_s = sum(t for t, _ in typical) / 1e9
    latencies = sorted(t / 1e6 for t, ok in typical if ok)
    return (len(latencies) / total_s if total_s > 0 else 0.0), latencies


def host_normalised(timing, nominal_ns, margin_ns):
    """Each operation's time over the host's slowdown around it.

    The slowdown at an operation is the median time of the reference samples
    that started within margin_ns of the operation (at least the three
    nearest to its midpoint) over the reference's nominal time.  Returns case
    times in the layout of timing["case_times_ns"].
    """
    ref_starts = np.asarray(timing["ref_starts_ns"], dtype=np.int64)
    ref_times = np.asarray(timing["ref_times_ns"], dtype=float)
    need = min(3, len(ref_times))
    scaled = []
    for times, starts in zip(timing["case_times_ns"], timing["case_starts_ns"]):
        case = []
        for elapsed, start in zip(times, starts):
            lo, hi = np.searchsorted(ref_starts, (start - margin_ns, start + elapsed + margin_ns))
            if hi - lo < need:
                nearest = np.argsort(np.abs(ref_starts - (start + elapsed // 2)), kind="stable")[:need]
                local = ref_times[nearest]
            else:
                local = ref_times[lo:hi]
            case.append(elapsed * nominal_ns / float(np.median(local)))
        scaled.append(case)
    return scaled


def percentile(sorted_values, q):
    """Nearest-rank percentile of a non-empty ascending list."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]
