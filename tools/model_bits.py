#!/usr/bin/env python3
"""Compare what the model's library functions return at two revisions.

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
The functions of ``EACH_CASE`` are evaluated at each input as drawn, at
rabi = 0 and at delta_raman = 0, as ``tests/test_steady_state.py``'s
``_factorization_cases`` are: ``assemble_linear_system`` gives A and b,
and ``factorization`` the y0, Z, S, r, c0, p0, p1, q0, q1 and ``damping``
of ``RationalLineshape(p)``.

Each result is written out bit for bit: every float and array by its
bytes (so the sign of every zero counts), every tuple item by item and
every dataclass field by field, and a raised error by its type,
message and attributes.  The tool prints, per function, how many inputs
give a different result, and the first of them.  The exit status is 0
when no result differs, 1 when any does, and 2 on a usage or git error.

Standard library and git only; the trees need numpy, as cptsim does, and
``tests/conftest.py`` imports pytest.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

from cli_bytes import export

SEED = 5
N_DRAWS = 2000
FUNCTIONS = ("resonance_metrics", "physical_contrast", "calibration_fwhm",
             "calibrate_power_broadening", "solve_steady_state",
             "sweep_linear", "sweep_adaptive", "assemble_linear_system",
             "factorization")
EACH_CASE = ("assemble_linear_system", "factorization")
# (gamma_g/2pi in Hz, pumping strength, mode) at the fig-1 geometry
FAULT1_POINTS = (
    (0.1, 1e7, "NONE"), (0.1, 1e7, "COMPLETE"), (0.1, 3e6, "COMPLETE"),
    (1.0, 3e6, "NONE"), (1.0, 3e6, "COMPLETE"),
)

# Run in a tree as ``python -c CHILD TREE``; prints one JSON object,
# function name -> the digest of each input's result, in input order.
CHILD = r"""
import dataclasses, hashlib, json, struct, sys
tree = sys.argv[1]
sys.path[:0] = [tree + "/src", tree + "/tests"]
import numpy as np
import cptsim.lineshape as lineshape
import cptsim.steady_state as steady_state
from cptsim import Depolarization, rabi_for_pumping_strength
from conftest import make_params, random_params

def canon(obj):
    if dataclasses.is_dataclass(obj):
        return "%s(%s)" % (type(obj).__name__, ", ".join(
            "%s=%s" % (f.name, canon(getattr(obj, f.name)))
            for f in dataclasses.fields(obj)))
    if isinstance(obj, tuple):
        return "(%s)" % ", ".join(canon(item) for item in obj)
    if isinstance(obj, np.ndarray):
        return "array(%s, %s, %s)" % (obj.dtype.str, obj.shape, obj.tobytes().hex())
    if isinstance(obj, float):
        return struct.pack("<d", obj).hex()
    if isinstance(obj, complex):
        return struct.pack("<dd", obj.real, obj.imag).hex()
    return repr(obj)

rng = np.random.default_rng(SEED)
inputs = [random_params(rng) for _ in range(N_DRAWS)]
for gamma_g, s, mode in FAULT1_POINTS:
    base = make_params(mode=Depolarization[mode], gamma_g=gamma_g)
    inputs.append(base.replace(rabi=rabi_for_pumping_strength(base, s)))

def sweep_in(spacing):
    return lambda p: lineshape.sweep(p, lineshape.default_sweep_spec(p, spacing=spacing))

def factorization(p):
    model = steady_state.RationalLineshape(p)
    return tuple(getattr(model, key) for key in
                 ("y0", "Z", "S", "r", "c0", "p0", "p1", "q0", "q1", "damping"))

own = {"sweep_" + s.name.lower(): sweep_in(s) for s in lineshape.Spacing}
own["factorization"] = factorization
cases = [q for p in inputs for q in (p, p.replace(rabi=0.0), p.replace(delta_raman=0.0))]
digests = {}
for name in FUNCTIONS:
    fn = own.get(name) or getattr(lineshape, name, None) or getattr(steady_state, name)
    out = []
    for p in (cases if name in EACH_CASE else inputs):
        try:
            text = canon(fn(p))
        except Exception as exc:
            text = "%s: %s %s" % (type(exc).__name__, exc, " ".join(
                "%s=%s" % (k, canon(v)) for k, v in sorted(vars(exc).items())))
        out.append(hashlib.sha256(text.encode()).hexdigest()[:16])
    digests[name] = out
print(json.dumps(digests))
"""


def run_tree(tree: Path) -> dict[str, list[str]]:
    """Digests of FUNCTIONS on every input, evaluated in ``tree``."""
    code = (f"SEED, N_DRAWS = {SEED}, {N_DRAWS}\nFUNCTIONS = {FUNCTIONS!r}\n"
            f"EACH_CASE = {EACH_CASE!r}\nFAULT1_POINTS = {FAULT1_POINTS!r}\n{CHILD}")
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
        differ = [i for i, (old, new) in enumerate(zip(results[0][name], results[1][name]))
                  if old != new]
        any_differ = any_differ or bool(differ)
        first = f", the first is input {differ[0]}" if differ else ""
        print(f"{name}: {len(differ)} of {len(results[0][name])} inputs differ{first}")
    return 1 if any_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
