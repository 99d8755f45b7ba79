#!/usr/bin/env python3
"""Run the tests once per CPU-kernel setting, each in a child process.

    python tools/kernels.py [PYTEST_ARGS ...]

numpy here links a ``DYNAMIC_ARCH`` OpenBLAS, which picks its kernel from
the CPU when it loads, and numpy picks its own SIMD loops; so the bits of
the model depend on the kernel.  For each of ``SETTINGS`` this tool runs
``python -m pytest -q -rfE -p no:cacheprovider`` with PYTEST_ARGS (by
default the whole suite, with ``--continue-on-collection-errors``) in the
repository that holds this file, with ``src`` first on PYTHONPATH.  The
child's environment is this process's without any variable a setting
sets, plus the setting's own, so "default" is the default kernel even
when the tool itself runs under a setting.  A setting forces a kernel
the CPU supports: ``OPENBLAS_CORETYPE`` selects an older OpenBLAS
kernel, and ``NPY_DISABLE_CPU_FEATURES`` turns off numpy's AVX2 and
AVX-512 loops.

One JSON line per setting goes to stdout: its name, the variables it
set, pytest's exit status, the counts of pytest's summary line (passed,
failed, xfailed, ...) and the ids of the failing and erroring tests.  The
exit status is 0; a child that prints no summary line stops the tool with
its output and status 1.

Standard library only; the tree needs what its tests need.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
SETTINGS = {
    "default": {},
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "no-avx": {"NPY_DISABLE_CPU_FEATURES": "AVX512_ICL AVX512_SPR X86_V4 X86_V3"},
}
SETTING_VARIABLES = {key for extra in SETTINGS.values() for key in extra}
DEFAULT_ARGS = ["--continue-on-collection-errors"]
RUN_TIMEOUT_S = 3600

# "1 failed, 420 passed, 4 xfailed in 18.83s", between rows of "="
SUMMARY = re.compile(r"^=*\s*((?:\d+ \w+(?:, )?)+) in [\d.]+s")
COUNT = re.compile(r"(\d+) (\w+)")


def parse(output: str) -> tuple[dict[str, int], list[str]] | None:
    """The counts of pytest's last summary line in ``output`` (plural
    names: "error" counts as "errors") and the ids of its ``FAILED`` and
    ``ERROR`` lines, in order; None without a summary line."""
    counts = None
    failing = []
    for line in output.splitlines():
        match = SUMMARY.match(line)
        if match:
            counts = {("errors" if name == "error" else name): int(n)
                      for n, name in COUNT.findall(match.group(1))}
        elif line.startswith(("FAILED ", "ERROR ")):
            failing.append(line.split(" ", 1)[1].split(" - ", 1)[0])
    return None if counts is None else (counts, failing)


def run_setting(name: str, pytest_args: list[str]) -> dict:
    """The JSON record of one child pytest run under setting ``name``."""
    extra = SETTINGS[name]
    env = {key: value for key, value in os.environ.items() if key not in SETTING_VARIABLES}
    env.update(extra, PYTHONPATH=os.pathsep.join(
        filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                           *pytest_args], cwd=REPO, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    parsed = parse(proc.stdout)
    if parsed is None:
        raise SystemExit(f"kernels: no pytest summary under {name} "
                         f"(exit {proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    counts, failing = parsed
    return {"setting": name, "env": extra, "exit": proc.returncode, **counts,
            "failing": failing}


def main(argv: list[str]) -> int:
    if argv[:1] in (["-h"], ["--help"]):
        print("usage:", __doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 0
    for name in SETTINGS:
        print(json.dumps(run_setting(name, argv or DEFAULT_ARGS)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
