#!/usr/bin/env python3
"""Compare what the library's model and scan functions return at two
revisions.

    python tools/model_bits.py BASE [HEAD]

BASE and HEAD (default ``HEAD``) are git revisions of the repository that
holds this file; each is exported with ``git archive`` (``cli_bytes.export``)
into a temporary directory.  In each tree one child interpreter imports
that tree's ``cptsim`` and evaluates ``FUNCTIONS`` on the same inputs:
``N_DRAWS`` draws of ``tests/conftest.py::random_params`` from
``np.random.default_rng(SEED)``, then the five fault-1 points (fig-1
geometry at the ``FAULT1_POINTS`` gamma_g, pumping strength and mode).
``sweep_linear`` and ``sweep_adaptive`` are ``sweep(p, default_sweep_spec(p))``
in each spacing: the sampled deltas and rho_ee of the library's sweep.
``sampled_linear`` and ``sampled_adaptive`` are the ``fwhm``,
``resonance_center`` and ``asymmetry`` of that sweep, each with its own
value or error.
The functions of ``EACH_CASE`` are evaluated at each input as drawn, at
rabi = 0 and at delta_raman = 0, as ``tests/test_steady_state.py``'s
``_factorization_cases`` are: ``assemble_linear_system`` gives A and b,
and ``factorization`` the y0, Z, S, r, c0, p0, p1, q0, q1 and ``damping``
of ``RationalLineshape(p)``.
The scan side reads the scans of ``tools/call_times.py`` (``SCANS``, at
``SCAN_SEED``): its 100 scans of distinct lengths and its 120 scans of
three lengths, which the tree's benchmark ``scan-batch`` writes.
``fit_resonance`` is evaluated on each scan, and ``batch_metrics`` once
over each of the two sets; each row of its table and of its q-max
summary is one result.

Each result is written out bit for bit: every float and array by its
bytes (so the sign of every zero counts), every tuple and list item by
item, every dataclass field by field, every dict entry by entry, and a
raised error by its type, message and attributes.  The tool prints, per
function, how many results differ, and the first of them.  The exit
status is 0 when no result differs, 1 when any does, and 2 on a usage or
git error.

Standard library and git only; the trees need numpy, as cptsim does, and
``tests/conftest.py`` imports pytest.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from call_times import N_SCANS, SCANS
from call_times import SEED as SCAN_SEED
from cli_bytes import export

SEED = 5
N_DRAWS = 2000
FUNCTIONS = ("resonance_metrics", "physical_contrast", "calibration_fwhm",
             "calibrate_power_broadening", "solve_steady_state",
             "sweep_linear", "sweep_adaptive", "sampled_linear", "sampled_adaptive",
             "assemble_linear_system", "factorization", "fit_resonance", "batch_metrics")
EACH_CASE = ("assemble_linear_system", "factorization")
# (gamma_g/2pi in Hz, pumping strength, mode) at the fig-1 geometry
FAULT1_POINTS = (
    (0.1, 1e7, "NONE"), (0.1, 1e7, "COMPLETE"), (0.1, 3e6, "COMPLETE"),
    (1.0, 3e6, "NONE"), (1.0, 3e6, "COMPLETE"),
)

# Run in a tree after call_times.SCANS; prints one JSON object, function
# name -> the digest of each result, in input order.
CHILD = r"""
import dataclasses, hashlib, json, struct
import cptsim.lineshape as lineshape
import cptsim.steady_state as steady_state
from cptsim import Depolarization, batch_metrics, fit_resonance, rabi_for_pumping_strength
from conftest import make_params, random_params

def canon(obj):
    if dataclasses.is_dataclass(obj):
        return "%s(%s)" % (type(obj).__name__, ", ".join(
            "%s=%s" % (f.name, canon(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)))
    if isinstance(obj, (tuple, list)):
        return "(%s)" % ", ".join(canon(item) for item in obj)
    if isinstance(obj, dict):
        return "{%s}" % ", ".join("%r: %s" % (k, canon(v)) for k, v in obj.items())
    if isinstance(obj, np.ndarray):
        return "array(%s, %s, %s)" % (obj.dtype.str, obj.shape, obj.tobytes().hex())
    if isinstance(obj, float):
        return struct.pack("<d", obj).hex()
    if isinstance(obj, complex):
        return struct.pack("<dd", obj.real, obj.imag).hex()
    return repr(obj)

def error_text(exc):
    return "%s: %s %s" % (type(exc).__name__, exc, " ".join(
        "%s=%s" % (k, canon(v)) for k, v in sorted(vars(exc).items())))

def outcome(fn, arg):
    try:
        return canon(fn(arg))
    except Exception as exc:
        return error_text(exc)

rng = np.random.default_rng(SEED)
inputs = [random_params(rng) for _ in range(N_DRAWS)]
for gamma_g, s, mode in FAULT1_POINTS:
    base = make_params(mode=Depolarization[mode], gamma_g=gamma_g)
    inputs.append(base.replace(rabi=rabi_for_pumping_strength(base, s)))

def sweep_in(spacing):
    return lambda p: lineshape.sweep(p, lineshape.default_sweep_spec(p, spacing=spacing))

def sampled_in(spacing):
    def sampled(p):
        shape = sweep_in(spacing)(p)
        return tuple(outcome(metric, shape) for metric in
                     (lineshape.fwhm, lineshape.resonance_center, lineshape.asymmetry))
    return sampled

def factorization(p):
    model = steady_state.RationalLineshape(p)
    return tuple(getattr(model, key) for key in
                 ("y0", "Z", "S", "r", "c0", "p0", "p1", "q0", "q1", "damping"))

own = {"sweep_" + s.name.lower(): sweep_in(s) for s in lineshape.Spacing}
own.update({"sampled_" + s.name.lower(): sampled_in(s) for s in lineshape.Spacing})
own["factorization"] = factorization
cases = [q for p in inputs for q in (p, p.replace(rabi=0.0), p.replace(delta_raman=0.0))]

def table_rows(scan_set):
    try:
        result = batch_metrics(scan_set)
    except Exception as exc:
        return [error_text(exc)]
    return [canon(row) for row in result.rows + result.qmax]

def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]

digests = {}
for name in FUNCTIONS:
    if name == "fit_resonance":
        out = [outcome(fit_resonance, scan) for scan in scans + mix]
    elif name == "batch_metrics":
        out = table_rows(scans) + table_rows(mix)
    else:
        fn = own.get(name) or getattr(lineshape, name, None) or getattr(steady_state, name)
        out = [outcome(fn, p) for p in (cases if name in EACH_CASE else inputs)]
    digests[name] = [digest(text) for text in out]
print(json.dumps(digests))
"""


def run_tree(tree: Path) -> dict[str, list[str]]:
    """Digests of FUNCTIONS on every input, evaluated in ``tree``."""
    code = (f"SEED, N_DRAWS = {SEED}, {N_DRAWS}\nFUNCTIONS = {FUNCTIONS!r}\n"
            f"SCAN_SEED, N_SCANS = {SCAN_SEED}, {N_SCANS}\n"
            f"EACH_CASE = {EACH_CASE!r}\nFAULT1_POINTS = {FAULT1_POINTS!r}\n{SCANS}{CHILD}")
    proc = subprocess.run([sys.executable, "-c", code, str(tree)], cwd=tree,
                          capture_output=True, text=True, timeout=3600)
    if proc.returncode:
        raise SystemExit(f"model_bits: the child in {tree} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2 or argv[0] in ("-h", "--help"):
        print("usage:", __doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    revs = (argv[0], argv[1] if len(argv) == 2 else "HEAD")
    results = []
    with tempfile.TemporaryDirectory(prefix="model_bits.") as tmp:
        for side, rev in zip(("base", "head"), revs):
            tree = Path(tmp) / side
            print(f"{side}: {rev} = {export(rev, tree)}")
            results.append(run_tree(tree))
    any_differ = False
    for name in FUNCTIONS:
        # a result that one side lacks (a table of another length) differs
        pairs = list(zip_longest(results[0][name], results[1][name]))
        differ = [i for i, (old, new) in enumerate(pairs) if old != new]
        any_differ = any_differ or bool(differ)
        first = f", the first is result {differ[0]}" if differ else ""
        print(f"{name}: {len(differ)} of {len(pairs)} results differ{first}")
    return 1 if any_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
