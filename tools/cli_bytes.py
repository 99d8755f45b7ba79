#!/usr/bin/env python3
"""Compare what ``python -m cptsim`` prints and writes at two revisions.

    python tools/cli_bytes.py BASE [HEAD]

BASE and HEAD (default ``HEAD``) are git revisions of the repository that
holds this file; each is exported with ``git archive`` into a temporary
directory.  One fixed matrix of commands (``MATRIX``) runs against each
tree with ``PYTHONPATH`` set to its ``src``.  Each command runs in a fresh
directory that holds the same generated inputs: scans at the Rb-87 clock
frequency (peaks, a sloped dip, a flat line, malformed files), a config
file and an existing directory.  The matrix covers every subcommand, both
formats, stdout and ``--out`` with its sidecars, ``--preset fig1``, a
stiff point, the exit-2 and exit-3 paths and ``--help`` of the program and
of each subcommand.

Every difference in exit code, stdout, stderr or a file left in the run
directory is printed.  The exit status is 0 when there is none, 1 when
there is any, and 2 on a usage or git error.  Before comparing, the
absolute paths of the run directory and of the tree, which differ from
run to run, are replaced with ``<run>`` and ``<tree>``.

Standard library and git only; the trees need numpy, as cptsim does.
"""

from __future__ import annotations

import difflib
import io
import os
import random
import shutil
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
CLOCK_HZ = 6.834682610904e9
STIFF = ("--preset", "fig1", "--gamma-g-hz", "1", "--pumping-strength", "3e6")
SUBCOMMANDS = ("solve", "sweep", "contrast-ratio", "power-broadening",
               "spin-exchange", "analyze")

# (name, argv after ``python -m cptsim``)
MATRIX = [
    ("help", ["--help"]),
    *((f"help-{sub}", [sub, "--help"]) for sub in SUBCOMMANDS),
    ("version", ["--version"]),
    ("solve-fig1-both-json", ["solve", "--preset", "fig1", "--mode", "both",
                              "--format", "json"]),
    ("solve-strength-csv", ["solve", "--preset", "fig1", "--pumping-strength", "1e3"]),
    ("solve-config-out", ["solve", "--config", "run.cfg", "--format", "json",
                          "--out", "solve.json"]),
    ("solve-negative-value", ["solve", "--pumping-strength", "5", "--delta-opt-hz",
                              "-40e6", "--delta-raman-hz", "-25"]),
    ("solve-stiff", ["solve", *STIFF, "--mode", "both", "--format", "json"]),
    ("sweep-linear-out", ["sweep", "--preset", "fig1", "--spacing", "linear",
                          "--n-points", "2001", "--out", "linear.csv"]),
    ("sweep-adaptive-out", ["sweep", "--preset", "fig1", "--out", "adaptive.csv"]),
    ("sweep-complete-stdout", ["sweep", "--preset", "fig1", "--mode", "complete"]),
    ("sweep-json-stdout", ["sweep", "--preset", "fig1", "--spacing", "linear",
                           "--n-points", "101", "--format", "json"]),
    ("sweep-json-out", ["sweep", "--pumping-strength", "8.9", "--delta-span-hz", "3000",
                        "--format", "json", "--out", "sweep.json"]),
    ("sweep-large-out", ["sweep", "--pumping-strength", "8.9", "--spacing", "linear",
                         "--n-points", "100000", "--out", "large.csv"]),
    ("sweep-stiff", ["sweep", *STIFF]),
    ("sweep-no-resonance", ["sweep", "--rabi-hz", "0", "--n-points", "3"]),
    ("contrast-ratio-csv", ["contrast-ratio", "--pumping-strengths", "1,10,1e3"]),
    ("contrast-ratio-stiff-json", ["contrast-ratio", "--gamma-g-hz", "1",
                                   "--pumping-strengths", "10,3e6", "--format", "json"]),
    ("power-broadening-none", ["power-broadening", "--mode", "none"]),
    ("power-broadening-complete-out", ["power-broadening", "--mode", "complete",
                                       "--format", "json", "--out", "pb.json"]),
    ("spin-exchange-csv", ["spin-exchange"]),
    ("spin-exchange-json-out", ["spin-exchange", "--t-min-c", "60", "--t-max-c", "70",
                                "--format", "json", "--out", "se.json"]),
    ("spin-exchange-out-of-range", ["spin-exchange", "--t-max-c", "500"]),
    ("analyze-out", ["analyze", "scans", "--out", "table.csv"]),
    ("analyze-csv-stdout", ["analyze", "scans"]),
    ("analyze-json-stdout", ["analyze", "scans", "--format", "json"]),
    ("analyze-every-scan-failed", ["analyze", "failed"]),
    ("analyze-json-out-refused", ["analyze", "scans", "--format", "json",
                                  "--out", "table.csv"]),
    ("analyze-missing-input", ["analyze", "nope.csv"]),
    ("solve-without-drive", ["solve", "--format", "json"]),
    ("preset-conflict", ["sweep", "--preset", "fig1", "--gamma-opt-hz", "2e9"]),
    ("out-is-a-directory", ["spin-exchange", "--out", "outdir"]),
    ("unknown-flag", ["sweep", "--bogus", "1"]),
]

_DIFF_LINES = 40


def _scan_lines(rng: random.Random, n: int, offset_hz: float, fwhm_hz: float,
                contrast: float, sign: int, slope: float, meta: dict) -> list[str]:
    """A Lorentzian peak (sign +1) or dip (-1) on a sloped baseline near
    the clock frequency, with 1% Gaussian noise on its amplitude."""
    span, w = 10.0 * fwhm_hz, fwhm_hz / 2.0
    amp = sign * contrast / (1.0 - sign * contrast)
    lines = [f"# {key} = {value}" for key, value in meta.items()]
    lines.append("frequency_hz,signal")
    for i in range(n):
        x = -span / 2.0 + span * i / (n - 1)
        y = (1.0 + slope * x + amp * w * w / ((x - offset_hz) ** 2 + w * w)
             + rng.gauss(0.0, 0.01 * abs(amp)))
        lines.append(f"{CLOCK_HZ + x!r},{y!r}")
    return lines


def write_inputs(root: Path) -> None:
    """The inputs every command finds in its run directory."""
    rng = random.Random(2024)
    scans, failed = root / "scans", root / "failed"
    scans.mkdir()
    failed.mkdir()
    cases = [("ne_a.csv", 401, 120.0, 1500.0, 0.04, +1, 0.0, 0.1),
             ("ne_b.csv", 201, -80.0, 1500.0, 0.06, +1, 0.0, 0.3),
             ("n2_dip.csv", 801, 40.0, 2500.0, 0.03, -1, 2e-6, 0.2)]
    for name, n, offset, fwhm, contrast, sign, slope, intensity in cases:
        meta = {"gas": name[:2].upper(), "temperature_C": 65,
                "intensity_mW_cm2": intensity}
        lines = _scan_lines(rng, n, offset, fwhm, contrast, sign, slope, meta)
        (scans / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    flat = [f"{CLOCK_HZ + 10.0 * i!r},{1.0 + rng.gauss(0.0, 1e-3)!r}" for i in range(200)]
    (scans / "flat.csv").write_text("\n".join(flat) + "\n", encoding="utf-8")
    for folder in (scans, failed):
        (folder / "text.csv").write_text("frequency_hz,signal\n1,2\nbad\n", encoding="utf-8")
        (folder / "short.csv").write_text("".join(f"{i}.0,1.0\n" for i in range(15)),
                                          encoding="utf-8")
    (root / "run.cfg").write_text("# solve configuration\nrabi_hz = 1e6\n"
                                  "gamma_g_hz = 250\n", encoding="utf-8")
    (root / "outdir").mkdir()


def export(rev: str, dest: Path) -> str:
    """Extract ``rev`` into ``dest``; return its commit hash."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").decode().strip()
    archive = _git("archive", "--format=tar", commit)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)
    return commit


def _git(*args: str) -> bytes:
    proc = subprocess.run(["git", "-C", str(REPO), *args], capture_output=True)
    if proc.returncode:
        raise SystemExit(f"cli_bytes: git {' '.join(args)}: "
                         f"{proc.stderr.decode(errors='replace').strip()}")
    return proc.stdout


def run_matrix(tree: Path, inputs: Path, runs: Path) -> dict:
    """Each command of MATRIX in a fresh copy of ``inputs``: name ->
    (exit code, stdout, stderr, {relative path: bytes} of the run directory)."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    results = {}
    for name, argv in MATRIX:
        cwd = runs / name
        shutil.copytree(inputs, cwd)
        proc = subprocess.run([sys.executable, "-m", "cptsim", *argv], cwd=cwd,
                              env=env, capture_output=True, timeout=600)
        files = {str(p.relative_to(cwd)): p.read_bytes()
                 for p in sorted(cwd.rglob("*")) if p.is_file()}
        results[name] = (proc.returncode, _normalize(proc.stdout, cwd, tree),
                         _normalize(proc.stderr, cwd, tree), files)
        shutil.rmtree(cwd)
    return results


def _normalize(data: bytes, cwd: Path, tree: Path) -> bytes:
    text = data.decode("utf-8", errors="surrogateescape")
    text = text.replace(str(cwd), "<run>").replace(str(tree), "<tree>")
    return text.encode("utf-8", errors="surrogateescape")


def _diff(label: str, old: bytes, new: bytes) -> list[str]:
    lines = list(difflib.unified_diff(
        old.decode("utf-8", errors="replace").splitlines(),
        new.decode("utf-8", errors="replace").splitlines(),
        "base", "head", lineterm="", n=1))
    if len(lines) > _DIFF_LINES:
        lines = lines[:_DIFF_LINES] + [f"... {len(lines) - _DIFF_LINES} more diff lines"]
    return [f"  {label} differs:"] + [f"    {line}" for line in lines]


def compare(base: tuple, head: tuple) -> list[str]:
    """Every difference between two results of one command."""
    out = []
    if base[0] != head[0]:
        out.append(f"  exit code {base[0]} -> {head[0]}")
    for label, i in (("stdout", 1), ("stderr", 2)):
        if base[i] != head[i]:
            out += _diff(label, base[i], head[i])
    for path in sorted(base[3].keys() | head[3].keys()):
        old, new = base[3].get(path), head[3].get(path)
        if old is None or new is None:
            out.append(f"  file {path} only in {'head' if old is None else 'base'}")
        elif old != new:
            out += _diff(f"file {path}", old, new)
    return out


def main(argv: list[str]) -> int:
    if not 1 <= len(argv) <= 2 or argv[0] in ("-h", "--help"):
        print("usage:", __doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    revs = (argv[0], argv[1] if len(argv) == 2 else "HEAD")
    with tempfile.TemporaryDirectory(prefix="cli_bytes.") as tmp:
        tmp = Path(tmp)
        inputs = tmp / "inputs"
        inputs.mkdir()
        write_inputs(inputs)
        results = []
        for side, rev in zip(("base", "head"), revs):
            tree, runs = tmp / side / "tree", tmp / side / "runs"
            runs.mkdir(parents=True)
            print(f"{side}: {rev} = {export(rev, tree)}")
            results.append(run_matrix(tree, inputs, runs))
    n_differ = 0
    for name, argv_ in MATRIX:
        lines = compare(results[0][name], results[1][name])
        n_differ += bool(lines)
        verdict = "DIFFERS" if lines else "same"
        print(f"{verdict:7} {name}: cptsim {' '.join(argv_)}  [exit {results[1][name][0]}]")
        for line in lines:
            print(line)
    print(f"{len(MATRIX)} commands, {n_differ} with a difference")
    return 1 if n_differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
