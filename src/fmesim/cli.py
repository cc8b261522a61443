"""Command-line front end.

Subcommands: write-sim, herald, retrieve, protocol, sweep, preset-list.
Exit codes: 0 ok, 2 config or usage error (a stdout that cannot be written
included), 3 no success within max_trials, 4 numeric failure.  Every output
file embeds the resolved configuration, its provenance tags, and the master
seed, so rerunning write-sim, herald, retrieve or protocol from the embedded
config reproduces the output byte for byte.  A sweep row embeds its point's
config but row i keys the random streams, and the axes are not embedded,
so a sweep row is reproduced by rerunning its sweep with the same axes, not
by a protocol run of its config.  main returns the exit code; run, the
entry point, ends the process with os._exit after one checked flush.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import errno
import io
import itertools
import json
import math
import os
import stat
import sys
import warnings
from typing import TYPE_CHECKING, NoReturn

from . import config as cfg_mod
from .config import SEED_LIMIT, ConfigError, ResolvedConfig

if TYPE_CHECKING:
    from .protocol import ProtocolEngine

def _complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _metadata(args, cfg: ResolvedConfig) -> dict:
    return {
        "tool": "fmesim",
        "command": args.command,
        "seed": args.seed,
        "preset": cfg.preset,
        "config": cfg.serializable_values(),
        "provenance": {k: cfg.provenance[k] for k in sorted(cfg.provenance)},
    }


def _write_text(out_path: str | None, text: str) -> None:
    """Write text to stdout, or to out_path if given, 2^16 characters at a
    time, so that no encoded copy of a whole large table is made.  Without
    descriptor 1, sys.stdout is None, and writing to it fails as on a closed
    descriptor."""
    try:
        if out_path is None and sys.stdout is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        with (contextlib.nullcontext(sys.stdout) if out_path is None
              else open(out_path, "w", encoding="utf-8", newline="")) as fh:
            for start in range(0, len(text), 1 << 16):
                fh.write(text[start:start + (1 << 16)])
            fh.flush()
    except OSError as exc:
        raise (_stdout_error(exc) if out_path is None else _out_error(out_path, exc)) from exc


def _stderr_line(text: str) -> None:
    """Print text as a line on stderr, if there is one (sys.stderr is None
    without descriptor 2, where print writes to stdout) and it can be written."""
    with contextlib.suppress(OSError):
        if sys.stderr is not None:
            print(text, file=sys.stderr)


def _out_error(out_path: str, exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write --out {out_path}: {exc.strerror or exc}")


def _stdout_error(exc: OSError) -> ConfigError:
    return ConfigError(f"cannot write stdout: {exc.strerror or exc}")


def _check_out(out_path: str) -> None:
    """Fail as writing out_path would, before any work, creating and
    truncating nothing: it must be a writable file or a new name in a
    writable directory."""
    try:
        if not out_path:  # os.path.dirname("") would name the current directory
            raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT))
        if os.path.isdir(out_path):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        target = out_path
        if not os.path.exists(out_path):
            target = os.path.dirname(out_path) or os.curdir
            if not stat.S_ISDIR(os.stat(target).st_mode):  # os.stat raises ENOENT, ENOTDIR
                raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR))
        if not os.access(target, os.W_OK):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES))
    except OSError as exc:
        raise _out_error(out_path, exc) from exc


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _format_cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, list):
        return json.dumps(value)
    return str(value)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _key_line(key: str, value, tag: str) -> str:
    """preset-list's line of one configuration key."""
    spec = cfg_mod.SCHEMA[key]
    unit = f" {spec.unit}" if spec.unit else ""
    return f"  {key} = {_format_cell(value)}{unit} [{tag}]  {spec.description}"


def cmd_preset_list(args) -> int:
    lines = []
    for name, preset in sorted(cfg_mod.PRESETS.items()):
        lines.append(f"preset {name}")
        lines += [f"  {text}" for text in (preset.description, *preset.level_labels)]
        lines += [_key_line(key, value, preset.provenance(key))
                  for key, value in sorted(preset.values.items())]
        lines.append("")
    lines.append("package defaults (apply when neither preset nor config sets a key)")
    lines += [_key_line(key, value, "default") for key, value in sorted(cfg_mod.DEFAULTS.items())]
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _load(args) -> ResolvedConfig:
    if not 0 <= args.seed < SEED_LIMIT:
        raise ConfigError(f"--seed must be in [0, 2**64), got {args.seed}")
    if getattr(args, "workers", 1) < 1:
        raise ConfigError(f"--workers must be >= 1, got {args.workers}")
    cfg = cfg_mod.load_config(path=args.config, preset=args.preset, overrides=args.set)
    if getattr(args, "runs", None) is not None:
        cfg = cfg_mod.with_overrides(cfg, {"runs": args.runs})
    if args.out is not None:
        _check_out(args.out)
    return cfg


def _engine(cfg: ResolvedConfig, label: str) -> ProtocolEngine:
    """The engine of cfg; each warning its build raises prints on stderr as
    one line, warning: <label>: <message>, also when the build rejects cfg."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return cfg_mod.build_setup(cfg)
        finally:
            for w in caught:
                _stderr_line(f"warning: {label}: {w.message}")


def _stage(payload):
    """The handler of a one-configuration command: it resolves the
    configuration, builds its engine and prints payload(cfg, engine,
    metadata) as JSON."""

    def handler(args) -> int:
        cfg = _load(args)
        record = payload(cfg, _engine(cfg, args.command), _metadata(args, cfg))
        _write_text(args.out, json.dumps(record, indent=2) + "\n")
        return 0

    return handler


def _write_sim(cfg: ResolvedConfig, engine: ProtocolEngine, meta: dict) -> dict:
    rates = engine.rates
    state = engine.write_state
    n_mean = state.mean_occupation()  # printed null when infinite
    return {
        "metadata": meta,
        "engine": cfg.values["engine"],
        "derived_rates_rad_per_s": {
            "chi_I": _complex_pair(rates.chi_I),
            "chi_II": _complex_pair(rates.chi_II),
            "P_I": _complex_pair(rates.P_I),
            "P_II": _complex_pair(rates.P_II),
        },
        "write_state": {
            "cutoff": state.cutoff,
            "chain": [_complex_pair(c) for c in state.chain],
            "u_I": _complex_pair(state.u_I),
            "u_II": _complex_pair(state.u_II),
            "tail_ratio": state.tail_ratio,
        },
        "expected_occupation": {  # n pairs put n quanta in b
            "photon": _json_safe(n_mean),
            "spin_I": _json_safe(n_mean * abs(state.u_I) ** 2),
            "spin_II": _json_safe(n_mean * abs(state.u_II) ** 2),
        },
    }


def _herald(cfg: ResolvedConfig, engine: ProtocolEngine, meta: dict) -> dict:
    conditional = None
    if engine.true_herald:  # the heralded spin state, with the photon absorbed
        spin_i, spin_ii = engine.spin
        conditional = {"spin_I": _complex_pair(spin_i), "spin_II": _complex_pair(spin_ii)}
    return {
        "metadata": meta,
        "p_click": engine.p_click,
        "p_dark": engine.detector.p_dark,
        "false_herald_fraction": engine.false_fraction,
        "branches": [
            {"kind": b.kind, "n_photons": b.n_photons, "probability": b.probability}
            for b in engine.branches
        ],
        "conditional_state_single_photon": conditional,
    }


def _retrieve(cfg: ResolvedConfig, engine: ProtocolEngine, meta: dict) -> dict:
    from . import retrieval

    if not engine.true_herald:
        raise ConfigError("the click branch table has no detected single photon: "
                          "eta or the write drive is zero")
    qubit, splitting = engine.qubit, cfg.values["delta_omega_read"]
    return {
        "c1": _complex_pair(qubit.c1),
        "c2": _complex_pair(qubit.c2),
        "omega_I_hz": -splitting,
        "omega_II_hz": splitting,
        "concurrence": retrieval.concurrence(qubit),
        "fidelity_bell": retrieval.fidelity_to_bell(qubit),
        "retrieval_efficiency": qubit.retrieval_efficiency,
        "metadata": meta,
    }


def _row_label(command: str, row: int, rows: int) -> str:
    """How stderr names a row of command's table in progress and warnings."""
    return f"sweep row {row + 1}/{rows}" if command == "sweep" else command


def _progress(command: str, runs: list[int]):
    """The progress callback write(row, done) of rows of the given runs: it
    prints on stderr once per tenth of a row's runs passed, so at most ten
    lines per row, each once, the last at done == runs[row]."""
    tenths = [0] * len(runs)

    def write(row, done):
        if done * 10 // runs[row] > tenths[row]:
            tenths[row] = done * 10 // runs[row]
            _stderr_line(f"{_row_label(command, row, len(runs))}: {done}/{runs[row]} runs")

    return write


def _run_rows(args, cfg: ResolvedConfig, points) -> int:
    """Monte Carlo statistics at each grid point (a dict of key -> raw value
    overrides of cfg; row i keys the random streams), written as one csv or
    json table; returns how many rows had no success.  Every point is
    resolved and every row's engine built before the first run is drawn, so
    a rejection in any row exits before any Monte Carlo.  protocol.run_rows
    draws every row in this process by its one draw plan, and each row is
    formatted as its tally is drawn; the table is written once, after the
    last row, so a failed run writes nothing."""
    row_cfgs = [cfg_mod.with_overrides(cfg, point) for point in points]
    from .protocol import ProtocolStats, aggregate, run_rows

    engines = [_engine(row_cfg, _row_label(args.command, i, len(row_cfgs)))
               for i, row_cfg in enumerate(row_cfgs)]
    runs = [row_cfg.values["runs"] for row_cfg in row_cfgs]
    tallies = run_rows(engines, args.seed, runs, _progress(args.command, runs))
    meta = _metadata(args, cfg)
    buf, tail = io.StringIO(), ""
    if args.format == "json":
        table = json.dumps({"metadata": meta, "results": [0]}, indent=2) + "\n"
        head, tail = table.rsplit("0", 1)  # the framing around a placeholder entry
        buf.write(head)
    else:
        buf.write(f"# fmesim {args.command}\n# seed: {args.seed}\n")
        for name in ("config", "provenance"):
            buf.write(f"# {name}: {json.dumps(meta[name], sort_keys=True)}\n")
        config_keys = sorted(cfg.values)
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["row", *config_keys, *ProtocolStats._fields])
    failed = 0
    for i, (row_cfg, engine, tally) in enumerate(zip(row_cfgs, engines, tallies)):
        stats = aggregate(tally, engine)
        failed += stats.n_success == 0
        values = row_cfg.serializable_values()
        if args.format == "json":
            entry = {"row": i, "config": values}
            entry.update((k, _json_safe(v)) for k, v in zip(stats._fields, stats))
            text = json.dumps(entry, indent=2).replace("\n", "\n    ")  # nested in results
            buf.write(f",\n    {text}" if i else text)
        else:
            writer.writerow([i, *(_format_cell(values[k]) for k in config_keys),
                             *map(_format_cell, stats)])
    buf.write(tail)
    _write_text(args.out, buf.getvalue())
    return failed


def cmd_protocol(args) -> int:
    return 3 if _run_rows(args, _load(args), [{}]) else 0


def _parse_sweep_axis(text: str) -> tuple[str, list]:
    if "=" not in text:
        raise ConfigError(f"--sweep expects KEY=V1,V2,... got {text!r}")
    key, raw = text.split("=", 1)
    key = key.strip()
    raw = raw.strip()
    if raw.startswith("["):
        try:
            values = json.loads(raw)
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"--sweep {key}: invalid JSON list: {exc}") from exc
        if not isinstance(values, list) or not values:
            raise ConfigError(f"--sweep {key}: expected a nonempty JSON list")
    else:
        parts = [p for p in raw.split(",") if p != ""]
        if not parts:
            raise ConfigError(f"--sweep {key}: no values given")
        values = [cfg_mod.parse_value(part) for part in parts]
    return key, values


def cmd_sweep(args) -> int:
    """One output row per point of the grid the --sweep axes span, first axis
    slowest; the axes and the grid size are checked before any point resolves."""
    cfg = _load(args)
    axes = [_parse_sweep_axis(text) for text in args.sweep]
    if not axes:
        raise ConfigError("sweep requires at least one --sweep KEY=V1,V2,...")
    seen = set()
    for key, _ in axes:
        if key in seen:
            raise ConfigError(f"--sweep {key} is given twice; list its values in one axis")
        seen.add(key)
    n_points = math.prod(len(values) for _, values in axes)
    if n_points > cfg_mod.ROW_LIMIT:  # rows key the random streams
        raise ConfigError(f"--sweep grid has {n_points} points, more than 2**31 rows")
    keys = [key for key, _ in axes]
    points = itertools.product(*(values for _, values in axes))  # first axis slowest
    _run_rows(args, cfg, (dict(zip(keys, combo)) for combo in points))
    return 0


# ---------------------------------------------------------------------------
# Parser and dispatch
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def print_help(self, file=None):  # argparse's ignores a failed write, and without
        _write_text(None, self.format_help())  # stdout prints on stderr; fail as output does


_OUT = (("--out", {"metavar": "PATH", "help": "output file (default stdout)"}),)
_CONFIG = (
    ("--config", {"metavar": "PATH", "help": "JSON configuration file"}),
    ("--preset", {"metavar": "NAME", "help": "named parameter preset"}),
    ("--set", {"metavar": "KEY=VALUE", "action": "append", "default": [],
               "help": "override one configuration key (repeatable)"}),
    ("--seed", {"type": int, "default": 0, "help": "master seed (default 0)"}),
)
_MC = (
    ("--runs", {"type": int, "default": None, "help": "Monte Carlo run count"}),
    ("--workers", {"type": int, "default": 1,
                   "help": "ignored: every run is drawn in the CLI process"}),
    ("--format", {"choices": ("csv", "json"), "default": "csv", "help": "output format"}),
)
_SWEEP = (("--sweep", {"metavar": "KEY=V1,V2,...", "action": "append", "default": [],
                       "help": "sweep axis (repeatable; axes combine as a grid)"}),)

# Each subcommand as --help lists it: name, help, option groups, handler.
_COMMANDS = (
    ("write-sim", "write-stage state, derived rates, occupations (JSON)",
     (_CONFIG, _OUT), _stage(_write_sim)),
    ("herald", "click probability, branch table, conditional state (JSON)",
     (_CONFIG, _OUT), _stage(_herald)),
    ("retrieve", "output frequency-qubit record for a true herald (JSON)",
     (_CONFIG, _OUT), _stage(_retrieve)),
    ("protocol", "repeat-until-success Monte Carlo statistics",
     (_CONFIG, _OUT, _MC), cmd_protocol),
    ("sweep", "Monte Carlo statistics over a parameter grid",
     (_CONFIG, _OUT, _MC, _SWEEP), cmd_sweep),
    ("preset-list", "list presets and defaults with provenance flags", (_OUT,), cmd_preset_list),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fmesim",
        description=(
            "Simulator of a heralded frequency-multiplexed entangled "
            "single-photon source (two-species atomic ensemble)."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, groups, handler in _COMMANDS:
        sub_parser = sub.add_parser(name, help=text)
        for flag, options in itertools.chain(*groups):
            sub_parser.add_argument(flag, **options)
        sub_parser.set_defaults(func=handler)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)  # -h may raise the ConfigError of _write_text
        return args.func(args)
    except ConfigError as exc:
        _stderr_line(f"error: {exc}")
        return 2
    except (FloatingPointError, ZeroDivisionError, OverflowError) as exc:
        _stderr_line(f"numeric failure: {exc}")
        return 4


def run(argv=None) -> NoReturn:
    """Run main(argv) and end the process with its exit code by os._exit,
    which skips interpreter finalization; stdout is flushed first, and a
    failed flush exits 2.  stderr is line-buffered, and every write to it
    ends a line, so it holds nothing to flush.  Every run is drawn in this
    process, so no child is left to reap.  argparse's SystemExit and any
    uncaught exception leave by the interpreter's normal exit."""
    code = main(argv)
    if sys.stdout is not None:
        try:
            sys.stdout.flush()
        except OSError as exc:
            if not code:  # else main reported the failed write, whose bytes fail again here
                _stderr_line(f"error: {_stdout_error(exc)}")
                code = 2
    os._exit(code)


if __name__ == "__main__":
    run()
