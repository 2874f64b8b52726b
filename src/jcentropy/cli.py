"""Command-line front end.

Subcommands::

    evolve       one trajectory -> CSV of entropies, purities, negativity
    sweep        Bloch-sphere sweep -> CSV map of P, R_bar, E
    fixed-point  stationary atomic state for a given mean photon number -> JSON
    selfcheck    run the built-in invariant suite

Flags override config-file keys (flat ``key = value`` lines mirroring the
flag names); outputs are deterministic byte for byte given a configuration.
Run metadata that can vary between runs (wall time) goes to a sidecar JSON
next to the data file, never into the CSV.

Exit codes: 0 success, 1 selfcheck failure, 2 configuration error,
3 numerical validation failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import dynamics, entanglement, entropy, sweep as sweep_mod
from .errors import (
    AllStepsSkipped,
    DimensionMismatch,
    InvalidParameter,
    MissingFactorization,
    NoConvergence,
    ValidationError,
)
from .states import (
    BlochParams,
    auto_truncate,
    bloch_qubit,
    partial_trace,
    product_state,
    thermal_field,
    validate_density,
)

EXIT_OK = 0
EXIT_SELFCHECK = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

AUTO_TRUNCATE_TOL = 1e-14

EVOLVE_HEADER = (
    "lambda_t,S_a,S_f,S_af,dS_a,dS_f,dS_sum,purity_a,purity_f,N_expect,lambda_m,n_neg_sig"
)
SWEEP_HEADER = "theta,r,P,R_bar,E,n_neg_sig,status"


class ConfigError(Exception):
    """Bad flag or config-file value; the message names the offending field."""


@dataclass
class RunConfig:
    n_bar: float = 0.1
    n_f: int | str = "auto"
    atom: str = "ground"
    t_max: float = 25.0
    dt: float = 0.01
    eps: float = 1e-9
    artifact_threshold: float = 1e-12
    diagnostics: tuple[str, ...] = ("exchange", "mutual", "ppt")
    grid: tuple[int, int] = (51, 51)
    workers: int | None = None
    out: str | None = None

    def validate(self) -> "RunConfig":
        if self.n_bar < 0:
            raise ConfigError(f"n-bar: {self.n_bar} must be >= 0")
        if self.n_f != "auto" and (not isinstance(self.n_f, int) or self.n_f < 1):
            raise ConfigError(f"n-f: {self.n_f!r} must be 'auto' or an integer >= 1")
        if self.dt <= 0:
            raise ConfigError(f"dt: {self.dt} must be positive")
        if self.t_max < self.dt:
            raise ConfigError(f"t-max: {self.t_max} must be >= dt")
        for name in ("eps", "artifact_threshold"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name.replace('_', '-')}: must be positive")
        bad = set(self.diagnostics) - sweep_mod.DIAGNOSTICS
        if bad:
            raise ConfigError(f"diagnostics: unknown entries {sorted(bad)}")
        if self.grid[0] < 1 or self.grid[1] < 1:
            raise ConfigError(f"grid: {self.grid} must be at least 1x1")
        if self.workers is not None and self.workers < 1:
            raise ConfigError(f"workers: {self.workers} must be >= 1")
        return self

    def resolved_n_f(self) -> int:
        if self.n_f == "auto":
            return auto_truncate(self.n_bar, AUTO_TRUNCATE_TOL)
        return int(self.n_f)

    def time_grid(self) -> np.ndarray:
        return np.arange(0.0, self.t_max + self.dt / 2, self.dt)


def _parse_atom(text: str) -> BlochParams:
    if text == "ground":
        return BlochParams(r=1.0, theta=-np.pi / 2, phi=0.0)
    if text == "excited":
        return BlochParams(r=1.0, theta=np.pi / 2, phi=0.0)
    values = {}
    for part in text.split(","):
        if "=" not in part:
            raise ConfigError(f"atom: cannot parse {part!r} in {text!r}")
        key, _, raw = part.partition("=")
        key = key.strip()
        if key not in ("r", "theta", "phi"):
            raise ConfigError(f"atom: unknown component {key!r}")
        try:
            values[key] = float(raw)
        except ValueError:
            raise ConfigError(f"atom: {key}={raw!r} is not a number") from None
    if "r" not in values or "theta" not in values:
        raise ConfigError(f"atom: {text!r} needs at least r= and theta=")
    try:
        return BlochParams(
            r=values["r"], theta=values["theta"], phi=values.get("phi", 0.0)
        )
    except InvalidParameter as exc:
        raise ConfigError(f"atom: {exc}") from exc


def _read_config_file(path: str) -> dict[str, str]:
    entries = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"config: line {lineno} is not 'key = value'")
                key, _, value = line.partition("=")
                entries[key.strip().replace("_", "-")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    return entries


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_grid(text: str) -> tuple[int, int]:
    a, _, b = text.lower().partition("x")
    return int(a), int(b)


def _parse_list(text: str) -> tuple[str, ...]:
    return tuple(x.strip() for x in text.split(",") if x.strip())


EVOLVE_SWEEP = ("evolve", "sweep")

# One row per option: the flag and config-file key, the RunConfig field, the
# parser of its text, the subcommands that take it (and echo it in the
# sidecar), and the flag's help.
OPTIONS = [
    ("n-bar", "n_bar", _finite_float, EVOLVE_SWEEP, "mean thermal photon number"),
    ("n-f", "n_f", lambda v: v if v == "auto" else int(v), EVOLVE_SWEEP,
     "field truncation: auto or an integer >= 1"),
    ("atom", "atom", str, ("evolve",), "ground | excited | r=..,theta=..[,phi=..]"),
    ("t-max", "t_max", _finite_float, EVOLVE_SWEEP, "last sample time"),
    ("dt", "dt", _finite_float, EVOLVE_SWEEP, "sample spacing"),
    ("eps", "eps", _finite_float, EVOLVE_SWEEP, "entropy-change noise threshold"),
    ("artifact-threshold", "artifact_threshold", _finite_float, EVOLVE_SWEEP,
     "PT eigenvalue magnitude below which a negative is an artifact"),
    ("diagnostics", "diagnostics", _parse_list, ("sweep",),
     "comma list from: exchange,mutual,ppt"),
    ("grid", "grid", _parse_grid, ("sweep",), "resolution, e.g. 51x51"),
    ("workers", "workers", int, EVOLVE_SWEEP, "worker processes"),
    ("out", "out", str, EVOLVE_SWEEP, "output CSV path"),
]


def _build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then config-file values, then flags, each parsed by its table row."""
    cfg = RunConfig()
    from_file = _read_config_file(args.config) if args.config else {}
    known = {key for key, *_ in OPTIONS}
    for key in from_file:
        if key not in known:
            raise ConfigError(f"config: unknown key {key!r}")
    for key, field, parse, _, _ in OPTIONS:
        for raw in (from_file.get(key), getattr(args, field, None)):
            if raw is None:
                continue
            try:
                setattr(cfg, field, parse(raw))
            except ValueError as exc:
                raise ConfigError(f"{key}: cannot parse {raw!r} ({exc})") from None
    return cfg.validate()


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_sidecar(command: str, cfg: RunConfig, n_f: int, tail_mass: float,
                   wall_time: float, workers: int, rows: int) -> None:
    meta = {
        "config": {
            field: getattr(cfg, field)
            for _, field, _, commands, _ in OPTIONS
            if command in commands
        },
        "chosen_n_f": n_f,
        "tail_mass": tail_mass,
        "wall_time_s": wall_time,
        "workers": workers,
        "rows": rows,
    }
    with open(cfg.out + ".meta.json", "w", encoding="utf-8") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_evolve(cfg: RunConfig) -> int:
    start = time.monotonic()
    n_f = cfg.resolved_n_f()
    field = thermal_field(cfg.n_bar, n_f)
    atom = bloch_qubit(_parse_atom(cfg.atom))
    joint = product_state(atom, field)
    data = dynamics.trajectory_data(
        joint,
        cfg.time_grid(),
        ppt=True,
        artifact_threshold=cfg.artifact_threshold,
        full_verification=True,
    )
    ds_a = data.s_atom - data.s_atom[0]
    ds_f = data.s_field - data.s_field[0]
    lines = [EVOLVE_HEADER]
    for k in range(len(data)):
        lines.append(
            ",".join(
                [
                    _fmt(data.t[k]),
                    _fmt(data.s_atom[k]),
                    _fmt(data.s_field[k]),
                    _fmt(data.s_joint[k]),
                    _fmt(ds_a[k]),
                    _fmt(ds_f[k]),
                    _fmt(ds_a[k] + ds_f[k]),
                    _fmt(data.purity_atom[k]),
                    _fmt(data.purity_field[k]),
                    _fmt(data.n_expectation[k]),
                    _fmt(data.lambda_m[k]),
                    str(int(data.n_significant[k])),
                ]
            )
        )
    with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_sidecar(
        "evolve", cfg, n_f, field.tail_mass, time.monotonic() - start, 1, len(data)
    )
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    start = time.monotonic()
    n_f = cfg.resolved_n_f()
    field = thermal_field(cfg.n_bar, n_f)
    grid = sweep_mod.default_grid(cfg.n_bar, n_f, cfg.grid, cfg.t_max, cfg.dt)
    workers = cfg.workers or 1
    cells = sweep_mod.run_sweep(
        grid,
        cfg.diagnostics,
        eps=cfg.eps,
        artifact_threshold=cfg.artifact_threshold,
        workers=workers,
    )
    lines = [SWEEP_HEADER]
    for c in cells:
        lines.append(
            ",".join(
                [
                    _fmt(c.theta),
                    _fmt(c.r),
                    _fmt(c.p if c.p is not None else 0.0),
                    _fmt(c.r_bar if c.r_bar is not None else 0.0),
                    _fmt(c.e if c.e is not None else 0.0),
                    str(c.n_significant_negatives),
                    c.status,
                ]
            )
        )
    with open(cfg.out, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
    _write_sidecar(
        "sweep", cfg, n_f, field.tail_mass, time.monotonic() - start, workers, len(cells)
    )
    return EXIT_OK


def cmd_fixed_point(n_bar: float) -> int:
    params = sweep_mod.fixed_point(n_bar)  # raises InvalidParameter for n_bar <= 0
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
    u = dynamics.propagator_stack(15, [7.3])[0]
    return float(np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])))


def _check_propagator_identity() -> float:
    u = dynamics.propagator_stack(15, [0.0])[0]
    return float(np.abs(u - np.eye(u.shape[0])).max())


def _check_vacuum_rabi_flip() -> float:
    # |e,0> fully transfers to |g,1> at a quarter period
    u = dynamics.propagator_stack(3, [np.pi / 2])[0]
    amp = u[4, 0]  # g-sector level 1 row, e-sector level 0 column
    return float(abs(abs(amp) ** 2 - 1.0))


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
    field = thermal_field(0.4, 9)
    p_e = 0.3
    worst = 0.0
    atom = validate_density(np.diag([p_e, 1 - p_e]).astype(complex), (2,))
    joint = product_state(atom, field)
    for t in (0.7, 2.9, 11.3):
        (a_pop, b_pop), f_pops = dynamics.diagonal_evolve(p_e, field, t)
        evolved = dynamics.evolve(joint, t)
        r_atom = partial_trace(evolved, "atom").mat
        r_field = partial_trace(evolved, "field").mat
        worst = max(
            worst,
            abs(r_atom[0, 0].real - a_pop),
            abs(r_atom[1, 1].real - b_pop),
            float(np.abs(np.diag(r_field).real - f_pops).max()),
        )
    return worst


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
    w = np.linalg.eigvalsh(entanglement.partial_transpose(joint.mat, joint.dims))
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
    field = thermal_field(n_bar, auto_truncate(n_bar, AUTO_TRUNCATE_TOL))
    closed = (n_bar + 1) * np.log(n_bar + 1) - n_bar * np.log(n_bar)
    return float(abs(entropy.entropy_from_spectrum(field.probs) - closed))


def _check_excitation_conservation() -> float:
    field = thermal_field(0.1, 13)
    atom = bloch_qubit(BlochParams(0.8, 0.2, 0.0))
    joint = product_state(atom, field)
    data = dynamics.trajectory_data(joint, np.arange(0.0, 10.0, 0.05))
    return float(data.n_expectation.max() - data.n_expectation.min())


def _check_subadditivity() -> float:
    field = thermal_field(0.1, 13)
    atom = bloch_qubit(BlochParams(0.8, 0.2, 0.0))
    joint = product_state(atom, field)
    data = dynamics.trajectory_data(joint, np.arange(0.0, 10.0, 0.05))
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
        residual = func()
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
    for key, field, _, commands, help_text in OPTIONS:
        for command in commands:
            data_commands[command].add_argument(f"--{key}", dest=field, help=help_text)

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
            raise ConfigError(f"out: required for {args.command}")
        if args.command == "evolve":
            return cmd_evolve(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        raise ConfigError(f"command: unknown {args.command!r}")
    except (ConfigError, InvalidParameter, DimensionMismatch, MissingFactorization) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (ValidationError, NoConvergence, AllStepsSkipped) as exc:
        print(f"numerical validation error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
