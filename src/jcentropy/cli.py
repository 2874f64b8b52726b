"""Command-line front end.

Subcommands::

    evolve       one trajectory -> CSV of entropies, purities, negativity
    sweep        Bloch-sphere sweep -> CSV map of P, R_bar, E
    fixed-point  stationary atomic state for a given mean photon number -> JSON
    selfcheck    run the built-in invariant suite

Flags override config-file keys (flat ``key = value`` lines); each flag and
key is a field of ``RunConfig``, the one option table, with ``-`` for ``_``.
Outputs are deterministic byte for byte given a configuration.
Run metadata that can vary between runs (wall time) goes to a sidecar JSON
next to the data file, never into the CSV.

Exit codes: 0 success, 1 selfcheck failure, 2 bad input (any
``InvalidParameter``, the CLI's own parse, config-file, atom and ``--out``
refusals included), 3 a computed fault (any ``ValidationError``) or a sweep in
which no cell is ``ok``; ``errors`` states the contract.
"""

from __future__ import annotations

import argparse
import collections
import dataclasses
import json
import math
import os
import sys
import time

import numpy as np

from . import dynamics, entanglement, entropy, sweep as sweep_mod
from .errors import AllStepsSkipped, InvalidParameter, ValidationError
from .states import (
    BlochParams,
    auto_truncate,
    bloch_qubit,
    eigvalsh,
    lapack_solver,
    product_state,
    thermal_field,
    truncation_floor,
    validate_density,
)

EXIT_OK = 0
EXIT_SELFCHECK = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

EVOLVE_HEADER = (
    "lambda_t,S_a,S_f,S_af,dS_a,dS_f,dS_sum,purity_a,purity_f,N_expect,lambda_m,n_neg_sig"
)
SWEEP_HEADER = "theta,r,P,R_bar,E,n_neg_sig,status"
# every float at 17 significant digits, so it reads back exactly; one data row of each CSV
_FLOAT = "{:.17g}"
_fmt = _FLOAT.format
EVOLVE_ROW = ",".join([_FLOAT] * 11 + ["{}"])
SWEEP_ROW = ",".join([_FLOAT] * 5 + ["{}", "{}"])
# Bytes per evolve row while the CSV is built (tracemalloc: 1065 at 219 characters a row):
# per value a Python float (32), a float64 (8) and 25 characters in the row and the file,
# and a str header per row.
_EVOLVE_ROW_BYTES = len(EVOLVE_HEADER.split(",")) * (32 + 8 + 2 * 25) + 49


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_n_f(text: str) -> int | str:
    if text != "auto" and int(text) < 1:
        raise ValueError("must be 'auto' or an integer >= 1")
    return text if text == "auto" else int(text)


def _parse_grid(text: str) -> tuple[int, int]:
    a, _, b = text.lower().partition("x")
    return int(a), int(b)


def _parse_list(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


EVOLVE_SWEEP = ("evolve", "sweep")


def _option(default, parse, commands, help_text):
    """A ``RunConfig`` field: its default, the parser of its text, the subcommands that
    take it (and echo it in the sidecar), and the flag's help."""
    return dataclasses.field(default=default,
                             metadata={"parse": parse, "commands": commands, "help": help_text})


def _key(option) -> str:
    """The flag, without its ``--``, and the config-file key of a ``RunConfig`` field."""
    return option.name.replace("_", "-")


@dataclasses.dataclass
class RunConfig:
    """The one option table of ``evolve`` and ``sweep``.  Its parsers check only what they
    read; the library checks each value where it first takes it (``InvalidParameter``)."""

    n_bar: float = _option(0.1, _finite_float, EVOLVE_SWEEP, "mean thermal photon number")
    n_f: int | str = _option("auto", _parse_n_f, EVOLVE_SWEEP,
                             "field truncation: auto or an integer >= 1")
    atom: str = _option("ground", str, ("evolve",), "ground | excited | r=..,theta=..[,phi=..]")
    t_max: float = _option(25.0, _finite_float, EVOLVE_SWEEP, "last sample time")
    dt: float = _option(0.01, _finite_float, EVOLVE_SWEEP, "sample spacing")
    eps: float = _option(entropy.DEFAULT_EPS, _finite_float, ("sweep",),
                         "entropy-change noise threshold")
    artifact_threshold: float = _option(
        entanglement.ARTIFACT_THRESHOLD, _finite_float, EVOLVE_SWEEP,
        "PT eigenvalue magnitude below which a negative is an artifact")
    diagnostics: tuple[str, ...] = _option(("exchange", "mutual", "ppt"), _parse_list,
                                           ("sweep",), "comma list from: exchange,mutual,ppt")
    grid: tuple[int, int] = _option((51, 51), _parse_grid, ("sweep",), "resolution, e.g. 51x51")
    workers: int = _option(1, int, ("sweep",), "worker processes")
    out: str | None = _option(None, str, EVOLVE_SWEEP, "output CSV path")

    def resolved_n_f(self) -> int:
        if self.n_f != "auto":
            return self.n_f
        # the scan is quadratic in n_f: refuse on its closed-form floor before running it
        dynamics.require_memory(truncation_floor(self.n_bar) + 2)
        return auto_truncate(self.n_bar)


def _options(command: str) -> list[dataclasses.Field]:
    """The ``RunConfig`` fields that ``command`` takes."""
    return [opt for opt in dataclasses.fields(RunConfig) if command in opt.metadata["commands"]]


def _parse_atom(text: str) -> BlochParams:
    if text == "ground":
        return BlochParams(r=1.0, theta=-np.pi / 2, phi=0.0)
    if text == "excited":
        return BlochParams(r=1.0, theta=np.pi / 2, phi=0.0)
    values = {}
    for part in text.split(","):
        if "=" not in part:
            raise InvalidParameter(f"atom: cannot parse {part!r} in {text!r}")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in ("r", "theta", "phi"):
            raise InvalidParameter(f"atom: unknown component {key!r}")
        try:
            values[key] = float(raw)
        except ValueError:
            raise InvalidParameter(f"atom: {key}={raw!r} is not a number") from None
    if "r" not in values or "theta" not in values:
        raise InvalidParameter(f"atom: {text!r} needs at least r= and theta=")
    return BlochParams(r=values["r"], theta=values["theta"], phi=values.get("phi", 0.0))


def _read_config_file(path: str) -> dict[str, str]:
    entries = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise InvalidParameter(f"config: line {lineno} is not 'key = value'")
                key, _, value = line.partition("=")
                entries[key.strip().replace("_", "-")] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidParameter(f"config: cannot read {path}: {exc}") from exc
    return entries


def _build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config-file values, then flags, each parsed by its option's parser."""
    from_file = _read_config_file(args.config) if args.config else {}
    options = {_key(option): option for option in _options(args.command)}
    for key in from_file:
        if key not in options:
            raise InvalidParameter(f"config: unknown key {key!r} for {args.command}")
    values = {}
    for key, option in options.items():
        for raw in (from_file.get(key), getattr(args, option.name)):
            if raw is None:
                continue
            try:
                values[option.name] = option.metadata["parse"](raw)
            except ValueError as exc:
                raise InvalidParameter(f"{key}: cannot parse {raw!r} ({exc})") from None
    return RunConfig(**values)


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise InvalidParameter(f"out: cannot write {path}: {exc}") from exc


def _write_outputs(command: str, cfg: RunConfig, lines: list[str], n_f: int,
                   tail_mass: float, start: float) -> None:
    """The CSV, then the sidecar holding what can vary between runs."""
    _write(cfg.out, "\n".join(lines) + "\n")
    meta = {
        "config": {option.name: getattr(cfg, option.name) for option in _options(command)},
        "chosen_n_f": n_f,
        "tail_mass": tail_mass,
        "wall_time_s": time.monotonic() - start,
        "workers": cfg.workers,  # 1 for evolve, which runs in one process
        "rows": len(lines) - 1,
        # every run evolves Bloch atoms on a diagonal field: excitation-banded states
        "band_solver": lapack_solver(),
        "numpy": np.__version__,
    }
    _write(cfg.out + ".meta.json", json.dumps(meta, indent=2, sort_keys=True) + "\n")


def cmd_evolve(cfg: RunConfig) -> int:
    start = time.monotonic()
    n_f = cfg.resolved_n_f()
    samples = dynamics.sample_count(cfg.t_max, cfg.dt)
    dynamics.require_memory(n_f + 2, samples=samples, extra=samples * _EVOLVE_ROW_BYTES)
    field = thermal_field(cfg.n_bar, n_f)
    atom = bloch_qubit(_parse_atom(cfg.atom))
    joint = product_state(atom, field)
    data = dynamics.trajectory_data(joint, dynamics.time_grid(cfg.t_max, cfg.dt), ppt=True,
                                    artifact_threshold=cfg.artifact_threshold)
    ds_a = data.s_atom - data.s_atom[0]
    ds_f = data.s_field - data.s_field[0]
    columns = [data.t, data.s_atom, data.s_field, data.s_joint, ds_a, ds_f, ds_a + ds_f,
               data.purity_atom, data.purity_field, data.n_expectation, data.lambda_m]
    # Python floats format faster than numpy scalars, to the same text
    rows = zip(*(col.tolist() for col in columns), data.n_significant.tolist())
    lines = [EVOLVE_HEADER] + [EVOLVE_ROW.format(*row) for row in rows]
    _write_outputs("evolve", cfg, lines, n_f, field.tail_mass, start)
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    start = time.monotonic()
    n_f = cfg.resolved_n_f()
    grid = sweep_mod.default_grid(cfg.n_bar, n_f, cfg.grid, cfg.t_max, cfg.dt)
    cells = sweep_mod.run_sweep(grid, cfg.diagnostics, eps=cfg.eps,
                                artifact_threshold=cfg.artifact_threshold, workers=cfg.workers)
    statuses = collections.Counter(c.status for c in cells)
    if "ok" not in statuses:  # a map with no trusted cell is refused, not written
        raise AllStepsSkipped("no cell has status ok: " + ", ".join(
            f"{count} {status}" for status, count in sorted(statuses.items())))
    lines = [SWEEP_HEADER] + [
        SWEEP_ROW.format(*(0.0 if v is None else v for v in (c.theta, c.r, c.p, c.r_bar, c.e)),
                         c.n_significant_negatives, c.status)
        for c in cells
    ]
    _write_outputs("sweep", cfg, lines, n_f, grid.field.tail_mass, start)
    return EXIT_OK


def cmd_fixed_point(n_bar: float) -> int:
    params = sweep_mod.fixed_point(n_bar)
    p_e = (1.0 + params.r * np.sin(params.theta)) / 2.0
    payload = {
        "r": params.r,
        "theta": params.theta,
        "P_e": p_e,
        "P_g": 1.0 - p_e,
    }
    print(json.dumps(payload))
    return EXIT_OK


# --- selfcheck fixtures ---------------------------------------------------


def _check_propagator_unitarity() -> float:
    # U (I/D) U^dag = I/D for every unitary U, so D rho(t) - I is U U^dag - I
    eye = np.eye(30)
    out = dynamics.evolve(validate_density(eye / 30, (2, 15)), 7.3)
    return float(np.linalg.norm(30 * out.mat - eye))


def _check_propagator_identity() -> float:
    field = thermal_field(0.4, 13)
    joint = product_state(bloch_qubit(BlochParams(0.7, 0.4, 1.3)), field)
    return float(np.abs(dynamics.evolve(joint, 0.0).mat - joint.mat).max())


def _check_vacuum_rabi_flip() -> float:
    # |e,0> fully transfers to |g,1> at a quarter period
    joint = product_state(bloch_qubit(BlochParams(1.0, np.pi / 2)), thermal_field(0.0, 1))
    out = dynamics.evolve(joint, np.pi / 2)
    return float(abs(out.mat[4, 4].real - 1.0))  # g-sector level 1


def _check_dark_state() -> float:
    field = thermal_field(0.0, 2)
    atom = bloch_qubit(BlochParams(1.0, -np.pi / 2))
    joint = product_state(atom, field)
    out = dynamics.evolve(joint, 3.21)
    return float(np.abs(out.mat - joint.mat).max())


def _check_schmidt_equality() -> float:
    c1, c2 = 0.6, 0.8
    atom = np.array([[c1 * c1, c1 * c2], [c1 * c2, c2 * c2]], dtype=complex)
    field = thermal_field(0.0, 6).density_matrix()
    joint = product_state(validate_density(atom, (2,)), field)
    data = dynamics.trajectory_data(joint, np.arange(0.0, 5.0, 0.1))
    return float(np.abs(data.s_atom - data.s_field).max())


def _check_oracle_equivalence() -> float:
    # the engine every data command runs, against the closed-form ladder populations
    field = thermal_field(0.4, 9)
    p_e = 0.3
    atom = validate_density(np.diag([p_e, 1 - p_e]).astype(complex), (2,))
    grid = np.array([0.0, 0.7, 2.9, 11.3])
    data = dynamics.trajectory_data(product_state(atom, field), grid)
    worst = 0.0
    for k, t in enumerate(grid):
        atom_pops, field_pops = dynamics.diagonal_evolve(p_e, field, t)
        closed = (entropy.entropy_from_spectrum(atom_pops),
                  entropy.entropy_from_spectrum(field_pops),
                  sum(w * w for w in atom_pops), float((field_pops ** 2).sum()))
        engine = data.s_atom[k], data.s_field[k], data.purity_atom[k], data.purity_field[k]
        worst = max(worst, *(abs(a - b) for a, b in zip(engine, closed)))
    return float(worst)


def _check_fixed_point_stationarity() -> float:
    field = thermal_field(0.1, 13)
    params = sweep_mod.fixed_point(0.1)
    joint = product_state(bloch_qubit(params), field)
    data = dynamics.trajectory_data(joint, np.array([0.0, 1.0, 5.0, 20.0]))
    return float(
        max(
            np.abs(data.s_atom - data.s_atom[0]).max(),
            np.abs(data.s_field - data.s_field[0]).max(),
        )
    )


def _check_ppt_trace() -> float:
    field = thermal_field(0.1, 13)
    atom = bloch_qubit(BlochParams(0.7, 0.4, 0.0))
    joint = dynamics.evolve(product_state(atom, field), 2.2)
    w = eigvalsh(entanglement.partial_transpose(joint.mat, joint.dims))
    entanglement._pt_columns(w, entanglement.ARTIFACT_THRESHOLD)  # refuses a PT trace fault
    return float(abs(w.sum() - 1.0))


def _check_ppt_involution() -> float:
    field = thermal_field(0.1, 5)
    atom = bloch_qubit(BlochParams(0.5, 0.3, 0.0))
    joint = dynamics.evolve(product_state(atom, field), 1.7)
    once = entanglement.partial_transpose(joint.mat, joint.dims)
    twice = entanglement.partial_transpose(once, joint.dims)
    return float(np.abs(twice - joint.mat).max())


def _check_thermal_entropy() -> float:
    n_bar = 0.1
    field = thermal_field(n_bar, auto_truncate(n_bar))
    closed = (n_bar + 1) * np.log(n_bar + 1) - n_bar * np.log(n_bar)
    return float(abs(entropy.entropy_from_spectrum(field.probs) - closed))


def _conservation_trajectory() -> dynamics.TrajectoryData:
    """The trajectory of the conservation and subadditivity checks."""
    joint = product_state(bloch_qubit(BlochParams(0.8, 0.2, 0.0)), thermal_field(0.1, 13))
    return dynamics.trajectory_data(joint, np.arange(0.0, 10.0, 0.05))


def _check_excitation_conservation() -> float:
    data = _conservation_trajectory()
    return float(data.n_expectation.max() - data.n_expectation.min())


def _check_subadditivity() -> float:
    data = _conservation_trajectory()
    margin = data.s_atom + data.s_field - data.s_joint
    return float(max(0.0, -margin.min()))


# name, callable, tolerance
SELFCHECKS: list[tuple[str, object, float]] = [
    ("propagator_unitarity", _check_propagator_unitarity, 1e-12),
    ("propagator_identity_at_zero", _check_propagator_identity, 1e-15),
    ("vacuum_rabi_flip", _check_vacuum_rabi_flip, 1e-12),
    ("dark_state_stationarity", _check_dark_state, 1e-14),
    ("schmidt_equality", _check_schmidt_equality, 1e-10),
    ("diagonal_oracle_equivalence", _check_oracle_equivalence, 1e-10),
    ("fixed_point_stationarity", _check_fixed_point_stationarity, 1e-9),
    ("ppt_trace_preservation", _check_ppt_trace, 1e-10),
    ("ppt_involution", _check_ppt_involution, 1e-15),
    ("thermal_entropy_closed_form", _check_thermal_entropy, 1e-10),
    ("excitation_conservation", _check_excitation_conservation, 1e-12),
    ("entropy_subadditivity", _check_subadditivity, 1e-10),
]


def cmd_selfcheck() -> int:
    failed = []
    for name, func, tol in SELFCHECKS:
        try:
            residual = func()
        except ValidationError as exc:  # a check that refuses fails by name
            print(f"[FAIL] {name}: {exc}")
            failed.append(name)
            continue
        ok = residual <= tol
        print(f"[{'PASS' if ok else 'FAIL'}] {name}: residual={residual:.3e} tol={tol:.1e}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"selfcheck failed: {', '.join(failed)}")
        return EXIT_SELFCHECK
    print(f"selfcheck passed: {len(SELFCHECKS)} checks")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jcentropy",
        description="Resonant atom-cavity entropy exchange and entanglement diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    data_commands = {
        "evolve": sub.add_parser("evolve", help="write one trajectory as CSV"),
        "sweep": sub.add_parser("sweep", help="write a Bloch-sphere sweep as CSV"),
    }
    for p in data_commands.values():
        p.add_argument("--config", help="flat key=value config file")
    for option in dataclasses.fields(RunConfig):
        for command in option.metadata["commands"]:
            data_commands[command].add_argument(f"--{_key(option)}", dest=option.name,
                                                help=option.metadata["help"])

    p_fp = sub.add_parser("fixed-point", help="stationary atomic state as JSON")
    p_fp.add_argument("--n-bar", type=_finite_float, dest="n_bar", required=True)

    sub.add_parser("selfcheck", help="run the built-in invariant suite")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "selfcheck":
            return cmd_selfcheck()
        if args.command == "fixed-point":
            return cmd_fixed_point(args.n_bar)
        cfg = _build_config(args)
        if cfg.out is None:
            raise InvalidParameter(f"out: required for {args.command}")
        if not os.path.isdir(os.path.dirname(cfg.out) or "."):
            raise InvalidParameter(f"out: the directory of {cfg.out} does not exist")
        if args.command == "evolve":
            return cmd_evolve(cfg)
        return cmd_sweep(cfg)
    except InvalidParameter as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValidationError, AllStepsSkipped) as exc:
        print(f"numerical validation error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
