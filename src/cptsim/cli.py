"""Command-line front end.

Subcommands: solve | sweep | contrast-ratio | power-broadening |
spin-exchange | analyze.  All user-facing frequencies are ordinary
frequencies in Hz (a quoted "1 GHz" linewidth is --gamma-opt-hz 1e9);
internally everything is converted to angular units by 2*pi.

A flat ``key = value`` config file can preload any flag of a
subcommand (keys use underscores, e.g. ``gamma_g_hz = 250``); explicit
command-line flags win over the config file.  Outputs are written
atomically (temp file + rename) and are byte-reproducible for a given
configuration.

``sweep`` writes its samples as a ``delta_hz,rho_ee`` CSV only with
``--out`` (without it, stdout gets the metrics JSON and no CSV is
formatted), or as the ``samples`` of ``--format json``.  ``delta_hz`` is
each angular detuning divided by 2*pi, and every CSV and JSON number is
Python's shortest round-trip ``repr`` of the double.

Exit codes: 0 success (possibly with per-item soft errors in analyze),
2 configuration error, 3 computational error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError, CptsimError
from .lineshape import (BROADENING_MULTIPLE, METRIC_SPAN_HALFWIDTHS, Lineshape,
                        Spacing, SweepSpec, _calibrate, _metrics, _sample,
                        calibrate_power_broadening, default_sweep_spec,
                        physical_contrast)
from .params import (Depolarization, ModelParams, angular_to_hz,
                     hz_to_angular, pumping_strength,
                     rabi_for_pumping_strength)
from .scans import (FILE_KEY, METRIC_COLUMNS, VARY_KEY, Scan, batch_metrics,
                    failed_row, load_scan)
from .steady_state import RationalLineshape, solve_steady_state
from .vapor import (ATOMIC_MASS_UNIT_KG, RB87_MASS_AMU, RB87_NUCLEAR_SPIN,
                    RB87_SIGMA_SE_CM2, VaporParams, spin_exchange)

FIG1_PRESET_HZ = {
    "gamma_opt_hz": 1e9,
    "omega_e_hz": 817e6,
    "delta_opt_hz": -30e6,
    "delta_raman_hz": 0.0,
}

BLOCK_SIZE = 4096  # rows per chunk of the sweep CSV (see _sweep_csv)
MAX_SPIN_EXCHANGE_ROWS = 100_000  # steps of 0.003 C span the whole vapor-pressure window

# the fig-1 geometry, then each value the library also states, read from it
DEFAULTS = {
    **FIG1_PRESET_HZ,
    "gamma_nat_hz": 5.75e6,
    "gamma_g_hz": 100.0,
    "mode": "none",
    "format": "csv",
    "span_halfwidths": METRIC_SPAN_HALFWIDTHS,
    "n_points": SweepSpec.n_points,
    "spacing": SweepSpec.spacing.value,
    "multiple": BROADENING_MULTIPLE,
    "t_min_c": 50.0,
    "t_max_c": 90.0,
    "t_step_c": 1.0,
    "nuclear_spin": RB87_NUCLEAR_SPIN,
    "sigma_se_cm2": RB87_SIGMA_SE_CM2,
    "atomic_mass_amu": RB87_MASS_AMU,
    "vary": VARY_KEY,
}


def _fmt(value) -> str:
    """Deterministic text form: full-precision repr for floats."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Write the str ``chunks`` in order through a unique temp file in the
    same directory, then rename; a large output streams, chunk by chunk.

    The temp file is removed on failure.  An unwritable destination is a
    ConfigError (exit code 2) that names ``path`` and the system's reason,
    not the temp file.
    """
    path = Path(path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(prefix=path.name + ".", suffix=".tmp",
                                   dir=path.parent)
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        # mkstemp creates the file 0600; give it the mode open() would
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
        tmp = None
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


def _sidecar(path: Path, suffix: str) -> Path:
    path = Path(path)
    stem = path.stem if path.suffix else path.name
    return path.with_name(stem + suffix)


def _emit(out, text: str) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        _write_atomic(Path(out), [text])


# ----------------------------------------------------------------- config

def _load_config_file(path: str) -> dict[str, str]:
    cfg: dict[str, str] = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
        cfg[key.strip()] = value.strip()
    return cfg


def _merge_config(args: argparse.Namespace, options: dict) -> dict:
    """Fill unset options from the config file, then from DEFAULTS.

    ``options`` maps each config-settable destination of the subcommand
    to its (type, choices, flags), as ``build_parser`` recorded them.
    """
    opts = dict(vars(args))
    if args.config:
        cfg = _load_config_file(args.config)
        for key, raw in cfg.items():
            if key not in options:
                raise ConfigError(f"unknown config key {key!r}")
            if opts.get(key) is not None:
                continue  # explicit flag wins
            kind, choices, _ = options[key]
            try:
                value = kind(raw) if kind else raw
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from exc
            if choices and value not in choices:
                raise ConfigError(
                    f"config key {key!r}: {value!r} not in {sorted(choices)}")
            opts[key] = value
    for key, value in DEFAULTS.items():
        if key in opts and opts[key] is None:
            opts[key] = value
    return opts


def _base_params(opts: dict, depolarization=Depolarization.COMPLETE) -> ModelParams:
    """Optical/relaxation parameters from Hz options; the Raman detuning
    is 0 for a subcommand without --delta-raman-hz.

    ``--preset fig1`` fixes the FIG1_PRESET_HZ values, which are also
    the DEFAULTS, so a different value given with it is a ConfigError.
    """
    if opts.get("preset") == "fig1":
        for key, value in FIG1_PRESET_HZ.items():
            if opts.get(key, value) != value:
                raise ConfigError(f"--preset fig1 sets {key} to {value!r}, "
                                  f"not {opts[key]!r}")
    return ModelParams(
        rabi=0.0,
        gamma_opt=hz_to_angular(opts["gamma_opt_hz"]),
        gamma_nat=hz_to_angular(opts["gamma_nat_hz"]),
        gamma_g=hz_to_angular(opts["gamma_g_hz"]),
        omega_e=hz_to_angular(opts["omega_e_hz"]),
        delta_opt=hz_to_angular(opts["delta_opt_hz"]),
        delta_raman=hz_to_angular(opts.get("delta_raman_hz", 0.0)),
        depolarization=depolarization,
    )


def _build_params(opts: dict):
    """ModelParams (or a pair for mode=both) from Hz-denominated options."""
    mode = opts["mode"]
    base = _base_params(opts)
    rabi_hz = opts.get("rabi_hz")
    strength = opts.get("pumping_strength")
    if rabi_hz is not None and strength is not None:
        raise ConfigError("give either --rabi-hz or --pumping-strength, not both")
    if rabi_hz is not None:
        rabi = hz_to_angular(rabi_hz)
    elif strength is not None:
        rabi = rabi_for_pumping_strength(base, strength)
    elif opts.get("preset") == "fig1":
        rabi = calibrate_power_broadening(base, BROADENING_MULTIPLE)
    else:
        raise ConfigError("one of --rabi-hz, --pumping-strength, or --preset is required")

    def with_mode(m: str) -> ModelParams:
        return base.replace(rabi=rabi, depolarization=Depolarization(m))

    if mode == "both":
        return with_mode("none"), with_mode("complete")
    return (with_mode(mode),)


def _params_hz_dict(p: ModelParams) -> dict:
    """Each rate of ``p`` in Hz, in field order, then its mode and strength."""
    rates_hz = {f"{field.name}_hz": angular_to_hz(getattr(p, field.name))
                for field in dataclasses.fields(p) if field.name != "depolarization"}
    return {**rates_hz, "mode": p.depolarization.value,
            "pumping_strength": pumping_strength(p)}


def _level_name(level) -> str:
    f, m = level
    return f"F{f}_m{m}"


# ------------------------------------------------------------- subcommands

def cmd_solve(opts: dict) -> int:
    params_list = _build_params(opts)
    blocks = {}
    for p in params_list:
        sol = solve_steady_state(p)
        blocks[p.depolarization.value] = {
            "params_hz": _params_hz_dict(p),
            "ground": {_level_name(l): v for l, v in sol.ground_as_dict().items()},
            "excited_bare": {_level_name(l): v
                             for l, v in sol.excited_as_dict(effective=False).items()},
            "excited_effective": {_level_name(l): v
                                  for l, v in sol.excited_as_dict().items()},
            "coherence_re": sol.coherence.real,
            "coherence_im": sol.coherence.imag,
            "rho_ee": sol.rho_ee,
            "residual_norm": sol.residual_norm,
        }

    if opts["format"] == "json":
        payload = blocks if len(blocks) > 1 else next(iter(blocks.values()))
        _emit(opts.get("out"), _dump_json(payload))
    else:
        lines = ["quantity,value"]
        for mode, block in blocks.items():
            prefix = f"{mode}." if len(blocks) > 1 else ""
            for section in ("ground", "excited_bare", "excited_effective"):
                for name, value in block[section].items():
                    lines.append(f"{prefix}{section}.{name},{_fmt(value)}")
            for key in ("coherence_re", "coherence_im", "rho_ee", "residual_norm"):
                lines.append(f"{prefix}{key},{_fmt(block[key])}")
            for key, value in block["params_hz"].items():
                lines.append(f"{prefix}params.{key},{_fmt(value)}")
        _emit(opts.get("out"), "\n".join(lines) + "\n")
    return 0


def _sweep_spec_from(opts: dict, params: ModelParams) -> SweepSpec:
    spacing = Spacing(opts["spacing"])
    if opts.get("delta_span_hz") is not None:
        half_span = hz_to_angular(opts["delta_span_hz"]) / 2.0
        return SweepSpec(-half_span, half_span, opts["n_points"], spacing)
    return default_sweep_spec(params, opts["span_halfwidths"],
                              opts["n_points"], spacing)


def _sweep_csv(shape: Lineshape) -> Iterator[str]:
    """The sweep CSV in chunks of BLOCK_SIZE rows, so no more than one
    chunk of lines is held at once; each column converted once per chunk,
    each number its repr."""
    yield "delta_hz,rho_ee\n"
    for start in range(0, shape.deltas.size, BLOCK_SIZE):
        block = slice(start, start + BLOCK_SIZE)
        hz = angular_to_hz(shape.deltas[block]).tolist()
        ys = shape.rho_ee[block].tolist()
        yield "".join(f"{d!r},{y!r}\n" for d, y in zip(hz, ys))


def cmd_sweep(opts: dict) -> int:
    (params,) = _build_params(opts)
    spec = _sweep_spec_from(opts, params)
    # one factorization serves the samples and the metrics
    model = RationalLineshape(params)
    shape = _sample(model, spec)
    metrics = _metrics(model)

    metrics_block = {
        "params_hz": _params_hz_dict(params),
        **dataclasses.asdict(metrics),
        "n_samples": int(shape.deltas.size),
    }
    out = opts.get("out")
    if opts["format"] == "json":
        payload = dict(metrics_block)
        payload["samples"] = np.column_stack(
            (angular_to_hz(shape.deltas), shape.rho_ee)).tolist()
        _emit(out, _dump_json(payload))
        return 0

    if out is None:
        # bulk samples go to files only; the summary is the console artifact
        sys.stdout.write(_dump_json(metrics_block))
    else:
        _write_atomic(Path(out), _sweep_csv(shape))
        _write_atomic(_sidecar(Path(out), "_metrics.json"), [_dump_json(metrics_block)])
    return 0


def cmd_contrast_ratio(opts: dict) -> int:
    try:
        strengths = [float(tok) for tok in opts["pumping_strengths"].split(",") if tok]
    except ValueError as exc:
        raise ConfigError(f"--pumping-strengths: {exc}") from exc
    if not strengths:
        raise ConfigError("--pumping-strengths needs at least one value")

    base = _base_params(opts, Depolarization.NONE)
    rows = []
    for s in strengths:
        p_none = base.replace(rabi=rabi_for_pumping_strength(base, s))
        p_complete = p_none.replace(depolarization=Depolarization.COMPLETE)
        c_none = physical_contrast(p_none).physical_contrast
        c_complete = physical_contrast(p_complete).physical_contrast
        rows.append({
            "pumping_strength": s,
            "contrast_none": c_none,
            "contrast_complete": c_complete,
            "ratio": c_complete / c_none if c_none else math.nan,
        })

    if opts["format"] == "json":
        _emit(opts.get("out"), _dump_json({"rows": rows}))
    else:
        _emit(opts.get("out"), _table_csv(rows, list(rows[0])))
    return 0


def cmd_power_broadening(opts: dict) -> int:
    mode = opts["mode"]
    base = _base_params(opts, Depolarization(mode))
    rabi, w0, w = _calibrate(base, opts["multiple"])
    calibrated = base.replace(rabi=rabi)
    block = {
        "multiple": opts["multiple"],
        "mode": mode,
        "rabi_hz": angular_to_hz(rabi),
        "pumping_strength": pumping_strength(calibrated),
        "fwhm0_hz": w0,
        "fwhm_hz": w,
        "target_fwhm_hz": (1.0 + opts["multiple"]) * w0,
    }
    if opts["format"] == "json":
        _emit(opts.get("out"), _dump_json(block))
    else:
        lines = ["quantity,value"] + [f"{k},{_fmt(v)}" for k, v in block.items()]
        _emit(opts.get("out"), "\n".join(lines) + "\n")
    return 0


def cmd_spin_exchange(opts: dict) -> int:
    t_min, t_max, t_step = opts["t_min_c"], opts["t_max_c"], opts["t_step_c"]
    if not (math.isfinite(t_min) and t_min <= t_max < math.inf and t_step > 0):
        raise ConfigError("need finite t_max_c >= t_min_c and t_step_c > 0")
    # the last temperature passes t_max by roundoff at most; the first is
    # t_min + 0.0, not t_min + 0 * t_step, which is NaN for an infinite step.
    # Each temperature is formed as its row is solved, so a range past the
    # vapor-pressure window fails at its first temperature outside it
    # without ever holding the whole range.
    steps = (t_max - t_min) / t_step + 1e-9
    if not steps < MAX_SPIN_EXCHANGE_ROWS:  # also inf, from a tiny step
        raise ConfigError(f"t_min_c to t_max_c in steps of t_step_c exceeds "
                          f"{MAX_SPIN_EXCHANGE_ROWS} rows")
    n_steps = math.floor(steps)
    rows = []
    for i in range(n_steps + 1):
        t_c = t_min + (i * t_step if i else 0.0)
        vp = VaporParams(
            temperature=t_c + 273.15,
            nuclear_spin=opts["nuclear_spin"],
            atomic_mass=opts["atomic_mass_amu"] * ATOMIC_MASS_UNIT_KG,
            sigma_se=opts["sigma_se_cm2"],
        )
        res = spin_exchange(vp)
        rows.append({
            "temperature_C": t_c,
            "n_cm3": res.n,
            "vr_cm_s": res.v_r,
            "gamma_se_rad_s": res.gamma_se,
            "width_hz": res.width_hz,
        })
    if opts["format"] == "json":
        _emit(opts.get("out"), _dump_json({"rows": rows}))
    else:
        _emit(opts.get("out"), _table_csv(rows, list(rows[0])))
    return 0


def _collect_scan_paths(inputs: list[str]) -> list[Path]:
    paths: list[Path] = []
    for item in inputs:
        p = Path(item)
        if p.is_dir():
            paths.extend(sorted(p.glob("*.csv")))
        elif p.exists():
            paths.append(p)
        else:
            raise ConfigError(f"input not found: {item}")
    if not paths:
        raise ConfigError("no scan files found")
    return paths


def _csv_field(text: str) -> str:
    """``text`` as one CSV field: as it is, or in double quotes with its own
    double quotes doubled where it holds a comma, a double quote, CR or LF
    (RFC 4180 section 2, rules 6 and 7)."""
    if "," in text or '"' in text or "\r" in text or "\n" in text:
        return '"' + text.replace('"', '""') + '"'
    return text


def _table_csv(rows: list[dict], columns: list[str]) -> str:
    lines = [",".join(map(_csv_field, columns))]
    for row in rows:
        lines.append(",".join(_csv_field(_fmt(row.get(c))) for c in columns))
    return "\n".join(lines) + "\n"


def cmd_analyze(opts: dict) -> int:
    out = opts.get("out")
    if out is not None and opts["format"] == "json":
        raise ConfigError("analyze --out writes the CSV table with _qmax.csv and "
                          ".json sidecars; --format json is for stdout only")
    paths = _collect_scan_paths(opts["inputs"])
    entries: list[tuple[str, object]] = []
    scans: list[Scan] = []
    for p in paths:
        try:
            scan = load_scan(p)
            # the loaded scan owns a fresh dict; a "# file = ..." line keeps its key's place
            scan.metadata[FILE_KEY] = p.name
            scans.append(scan)
            entries.append(("scan", scan))
        except Exception as exc:
            entries.append(("error", failed_row({FILE_KEY: p.name}, exc)))

    batch = batch_metrics(scans, vary=opts["vary"])
    fit_rows = iter(batch.rows)
    rows = [next(fit_rows) if kind == "scan" else payload for kind, payload in entries]

    meta_keys = sorted({k for row in rows for k in row}
                       - set(METRIC_COLUMNS) - {"status"})
    columns = meta_keys + ["status"] + list(METRIC_COLUMNS)
    csv_text = _table_csv(rows, columns)
    qmax_text = _table_csv(batch.qmax, columns)
    mirror = _dump_json({"rows": rows, "qmax": batch.qmax})

    if out is None:
        if opts["format"] == "json":
            sys.stdout.write(mirror)
        else:
            sys.stdout.write(csv_text)
    else:
        _write_atomic(Path(out), [csv_text])
        _write_atomic(_sidecar(Path(out), "_qmax.csv"), [qmax_text])
        _write_atomic(_sidecar(Path(out), ".json"), [mirror])

    n_failed = sum(1 for row in rows if row["status"] != "ok")
    if rows and n_failed == len(rows):
        print("analyze: every scan failed", file=sys.stderr)
        return 3
    return 0


# ------------------------------------------------------------------ parser

class _Options:
    """Adds options to a parser or argument group, recording the type,
    choices and flags of each under its destination (the config-file key)."""

    def __init__(self, target, table: dict):
        self.target, self.table = target, table

    def __call__(self, *flags, **kwargs):
        action = self.target.add_argument(*flags, **kwargs)
        self.table[action.dest] = (kwargs.get("type"), kwargs.get("choices"), flags)

    def group(self, title: str) -> "_Options":
        return _Options(self.target.add_argument_group(title), self.table)


def _add_common(p: argparse.ArgumentParser, add: _Options) -> None:
    p.add_argument("--config", help="flat key = value config file; flags win")
    add("--out", help="output path (default: stdout)")
    add("--format", choices=("csv", "json"),
        help="output format (default csv)")


def _add_mode(add: _Options, *extra_modes: str) -> None:
    """--mode and --preset, taken by solve, sweep and power-broadening."""
    add("--mode", choices=(*(mode.value for mode in Depolarization), *extra_modes),
        help="excited-state depolarization mode (default none)")
    add("--preset", choices=("fig1",),
        help="fig1: 1 GHz optical width, 817 MHz excited splitting, "
             "-30 MHz optical detuning, zero Raman detuning (the defaults; "
             "a different value given with the preset is an error), and "
             "without --rabi-hz or --pumping-strength the Rabi frequency "
             f"calibrated for {BROADENING_MULTIPLE:g}x power broadening")


def _add_model(add: _Options, drive: bool = True, raman: bool = True) -> None:
    """The model parameters; ``drive`` adds the two ways to set V and
    ``raman`` the two-photon detuning."""
    g = add.group("model parameters (Hz)")
    if drive:
        g("--rabi-hz", dest="rabi_hz", type=float,
          help="Rabi frequency V/2pi of each field component")
        g("--pumping-strength", dest="pumping_strength", type=float,
          help="set V via the dimensionless strength V^2*lu/gamma_g")
    g("--gamma-opt-hz", dest="gamma_opt_hz", type=float,
      help="optical-coherence relaxation Gamma/2pi [1e9]")
    g("--gamma-nat-hz", dest="gamma_nat_hz", type=float,
      help="excited-state decay gamma/2pi [5.75e6]")
    g("--gamma-g-hz", dest="gamma_g_hz", type=float,
      help="ground-state relaxation Gamma_g/2pi [100]")
    g("--omega-e-hz", dest="omega_e_hz", type=float,
      help="excited hyperfine splitting omega_e/2pi [817e6]")
    g("--delta-opt-hz", dest="delta_opt_hz", type=float,
      help="optical detuning Delta/2pi from F_e=2 [-30e6]")
    if raman:
        g("--delta-raman-hz", dest="delta_raman_hz", type=float,
          help="two-photon detuning delta/2pi [0]")


def build_parser() -> tuple[argparse.ArgumentParser, dict]:
    """The parser, and per subcommand its config-settable options
    (destination -> (type, choices, flags))."""
    parser = argparse.ArgumentParser(
        prog="cptsim",
        description="Four-level sigma+ CPT steady-state simulator and scan analyzer. "
                    "All frequencies on this interface are in Hz (angular/2pi).")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    options = {}

    def subcommand(name: str, summary: str) -> tuple[argparse.ArgumentParser, _Options]:
        # no prefix matching: an unknown flag is an error, never another flag
        p = sub.add_parser(name, help=summary, allow_abbrev=False)
        return p, _Options(p, options.setdefault(name, {}))

    p, add = subcommand("solve", "steady-state populations at one detuning")
    _add_common(p, add)
    _add_mode(add, "both")
    _add_model(add)

    p, add = subcommand("sweep", "lineshape over Raman detuning + metrics")
    _add_common(p, add)
    _add_mode(add)
    _add_model(add, raman=False)
    add("--delta-span-hz", dest="delta_span_hz", type=float,
        help="full sweep span centered on 0 (default: auto)")
    add("--span-halfwidths", dest="span_halfwidths", type=float,
        help="auto span in units of the estimated half width [20]")
    add("--n-points", dest="n_points", type=int,
        help="number of base grid points [1001]")
    add("--spacing", choices=tuple(spacing.value for spacing in Spacing),
        help="grid refinement mode [adaptive]")

    p, add = subcommand("contrast-ratio", "contrast in both modes vs pumping strength")
    _add_common(p, add)
    _add_model(add, drive=False, raman=False)
    add("--pumping-strengths", dest="pumping_strengths", required=True,
        help="comma-separated list of V^2*lu/gamma_g values")

    p, add = subcommand("power-broadening",
                        "calibrate V for a given power-broadening multiple")
    _add_common(p, add)
    _add_mode(add)
    _add_model(add, drive=False, raman=False)
    add("--multiple", dest="multiple", type=float,
        help=f"excess FWHM over the zero-power FWHM, in units of it [{BROADENING_MULTIPLE:g}]")

    p, add = subcommand("spin-exchange", "spin-exchange broadening vs temperature")
    _add_common(p, add)
    add("--t-min-c", dest="t_min_c", type=float, help="start [50 C]")
    add("--t-max-c", dest="t_max_c", type=float, help="stop [90 C]")
    add("--t-step-c", dest="t_step_c", type=float, help="step [1 C]")
    add("--nuclear-spin", dest="nuclear_spin", type=float,
        help="nuclear spin I [1.5]")
    add("--sigma-se-cm2", dest="sigma_se_cm2", type=float,
        help="spin-exchange cross section [1.9e-14]")
    add("--atomic-mass-amu", dest="atomic_mass_amu", type=float,
        help="atomic mass [86.909180527]")

    p, add = subcommand("analyze", "fit scans and tabulate metrics")
    _add_common(p, add)
    p.add_argument("inputs", nargs="+",
                   help="scan CSV files and/or directories of *.csv")
    add("--vary", dest="vary",
        help="metadata key swept within a group [intensity_mW_cm2]")

    return parser, options


_DISPATCH = {
    "solve": cmd_solve,
    "sweep": cmd_sweep,
    "contrast-ratio": cmd_contrast_ratio,
    "power-broadening": cmd_power_broadening,
    "spin-exchange": cmd_spin_exchange,
    "analyze": cmd_analyze,
}


def _attach_negative_values(argv: list[str], options: dict) -> list[str]:
    """``argv`` with each value that follows an option of the subcommand
    and starts with a negative number joined to it, as in
    ``--delta-opt-hz=-30e6``; for a comma-separated list the first field
    counts (``--pumping-strengths=-1e3,5``).

    argparse reads a token that starts with '-' as a flag unless it has
    the form -N or -N.N, so a separate -30e6 or -inf would not reach its
    option.  Tokens after a bare '--' are left as they are.
    """
    command = next((tok for tok in argv if not tok.startswith("-")), None)
    takes_value = {flag for _, _, flags in options.get(command, {}).values()
                   for flag in flags}
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--":
            return out + argv[i:]
        if (tok in takes_value and i + 1 < len(argv)
                and _is_negative_number(argv[i + 1].split(",", 1)[0])):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def _is_negative_number(tok: str) -> bool:
    if not tok.startswith("-"):
        return False
    try:
        float(tok)
    except ValueError:
        return False
    return True


def main(argv=None) -> int:
    parser, options = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(_attach_negative_values(argv, options))
    try:
        opts = _merge_config(args, options[args.command])
        return _DISPATCH[args.command](opts)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CptsimError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
