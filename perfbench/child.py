"""Program processes started by run.py, one subcommand each.

    env      record the environment (versions, BLAS and its live thread count)
    setup    import jcentropy and build a workload's initial states; print the time
    sweep    one request: a single ``sweep.run_sweep`` call, cells written as JSON
    evolve   the evolve request ``jcentropy.cli.main(["evolve", ...])``, traced
    probe    isolate the per-trajectory layer costs with repeated, varied calls

``jcentropy`` is imported only inside the subcommands, after the clock starts.
With ``--spans`` a subcommand records spans around its calls into the package
and writes them to that path when it ends.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import sys
import time

from spans import Tracer

TIME_GRID = (25.0, 0.01)  # t_max, dt: the CLI defaults
STATE_BUILDERS = ["auto_truncate", "thermal_field", "bloch_qubit", "product_state"]


def _tracer(args) -> Tracer | None:
    return Tracer() if args.spans else None


def _span(tracer: Tracer | None, name: str, **attrs):
    return tracer.span(name, **attrs) if tracer else contextlib.nullcontext()


def _atom(text: str):
    r, theta, phi = (float(v) for v in text.split(","))
    return r, theta, phi


def _blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS that numpy loaded, if it is one."""
    import ctypes
    import glob

    import numpy as np

    libdir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*.so")):
        try:
            fn = ctypes.CDLL(path).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return int(fn())
    return None


def cmd_env(args) -> dict:
    import multiprocessing
    import platform

    import numpy as np

    import jcentropy
    import jcentropy.cli  # noqa: F401  (compiles every module once)

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                   cpu)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "jcentropy": jcentropy.__version__,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads_measured": _blas_threads(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "mp_start_method": multiprocessing.get_start_method(),
    }


def _build_states(n_bar: float, atom):
    from jcentropy import BlochParams, auto_truncate, bloch_qubit, product_state, thermal_field

    field = thermal_field(n_bar, auto_truncate(n_bar))
    joint = product_state(bloch_qubit(BlochParams(*atom)), field)
    return field, joint


def cmd_setup(args) -> dict:
    start = time.perf_counter()
    import jcentropy  # noqa: F401

    _build_states(args.n_bar, _atom(args.atom))
    return {"setup_s": time.perf_counter() - start}


def cmd_sweep(args) -> dict:
    tracer = _tracer(args)
    with _span(tracer, "request"):
        with _span(tracer, "pkg.import"):
            import numpy as np

            from jcentropy import auto_truncate, sweep
        n_f = auto_truncate(args.n_bar)
        grid = sweep.SweepGrid(
            theta_values=np.array([float(v) for v in args.thetas.split(",")]),
            r_values=np.array([float(v) for v in args.rs.split(",")]),
            n_bar=args.n_bar,
            n_f=n_f,
            t_grid=np.arange(0.0, TIME_GRID[0] + TIME_GRID[1] / 2, TIME_GRID[1]),
        )
        with _span(tracer, "sweep.run_sweep", workers=args.workers):
            cells = sweep.run_sweep(grid, args.diagnostics.split(","), workers=args.workers)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump({"n_f": n_f, "cells": [
            {"theta": c.theta, "r": c.r, "p": c.p, "r_bar": c.r_bar, "e": c.e,
             "n_sig": c.n_significant_negatives, "status": c.status} for c in cells]}, fh)
    if tracer:
        tracer.dump(args.spans)
    return {"cells": len(cells)}


def cmd_evolve(args) -> dict:
    tracer = Tracer()
    with tracer.span("request"):
        with tracer.span("pkg.import"):
            from jcentropy import cli
        with tracer.span("cli.main"):
            argv = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
            code = cli.main(["evolve", *argv])
    tracer.dump(args.spans)
    if code:
        sys.exit(code)
    return {}


def cmd_probe(args) -> dict:
    """Time each trajectory configuration the layers differ by, on one state.

    Configurations are (ppt, full_verification).  The first call, of the
    cheapest configuration, is cold.  Each repeat then runs three
    configurations and the ``evolve`` command back to back, so that
    differences taken within one repeat share the machine's conditions.
    Inside ``evolve`` the calls into ``dynamics`` and ``states`` get spans of
    their own, so the command's self time is what the CLI itself costs.
    """
    tracer = Tracer()
    atom = _atom(args.atom)
    with tracer.span("pkg.import"):
        import numpy as np

        import jcentropy  # noqa: F401
        from jcentropy import cli, dynamics, entanglement, entropy
    with tracer.span("states.build"):
        field, joint = _build_states(args.n_bar, atom)
    grid = np.arange(0.0, TIME_GRID[0] + TIME_GRID[1] / 2, TIME_GRID[1])
    atom_arg = "r={!r},theta={!r},phi={!r}".format(*atom)

    def run(rep, ppt, fv):
        with tracer.span("dynamics.trajectory_data", rep=rep, ppt=ppt, fv=fv):
            return dynamics.trajectory_data(joint, grid, ppt=ppt, full_verification=fv)

    run(-1, False, False)  # rep -1 is the cold call
    for rep in range(args.reps):
        for ppt, fv in [(False, False), (False, True), (True, False)]:
            data = run(rep, ppt, fv)
        with tracer.span("cli.main", rep=rep), \
                tracer.wrapping(dynamics, ["trajectory_data"], "dynamics"), \
                tracer.wrapping(cli, STATE_BUILDERS, "states"):
            code = cli.main(["evolve", "--n-bar", repr(args.n_bar), "--atom", atom_arg,
                             "--out", args.csv])
        if code:
            break

    series = entropy.EntropySeries(t=data.t, s_atom=data.s_atom, s_field=data.s_field,
                                   s_joint=data.s_joint, purity_atom=data.purity_atom,
                                   purity_field=data.purity_field)
    lam = float(data.lambda_m.mean())
    reduce_times = []
    for _ in range(200):
        t0 = time.perf_counter()
        entropy.exchange_parameter(series)
        entropy.mutual_entropy_ratio(series)
        entanglement.negativity_exponent(lam)
        reduce_times.append(time.perf_counter() - t0)
    tracer.dump(args.spans)
    return {"n_f": field.n_f, "sig_ratio": float(np.mean(data.n_significant > 0)),
            "reduce_s": statistics.median(reduce_times),
            "cli_exit": code, "csv_bytes": os.path.getsize(args.csv)}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("env")
    p = sub.add_parser("setup")
    p.add_argument("--n-bar", type=float, required=True)
    p.add_argument("--atom", required=True, help="r,theta,phi")
    p = sub.add_parser("sweep")
    p.add_argument("--n-bar", type=float, required=True)
    p.add_argument("--thetas", required=True)
    p.add_argument("--rs", required=True)
    p.add_argument("--diagnostics", required=True)
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    p = sub.add_parser("evolve")
    p.add_argument("--spans", required=True)
    p.add_argument("cli_args", nargs=argparse.REMAINDER)
    p = sub.add_parser("probe")
    p.add_argument("--n-bar", type=float, required=True)
    p.add_argument("--atom", required=True, help="r,theta,phi")
    p.add_argument("--reps", type=int, required=True)
    p.add_argument("--csv", required=True)
    p.add_argument("--spans", required=True)
    args = parser.parse_args()
    handler = {"env": cmd_env, "setup": cmd_setup, "sweep": cmd_sweep,
               "evolve": cmd_evolve, "probe": cmd_probe}[args.command]
    print(json.dumps(handler(args)))


if __name__ == "__main__":
    main()
