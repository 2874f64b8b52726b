"""Benchmark runner for jcentropy.

    python3 perfbench/run.py --workload evolve-cold --seed 1 --seconds 25 --trace 0

Runs one workload closed-loop with one client: the next request starts only
after the previous one has ended, and each request is a fresh program process
with one BLAS thread.  After the timed loop every output is checked against
the dense oracle in ``oracle.py``.  ``--trace 0`` prints the end-to-end
metrics; ``--trace 1`` runs the workload with spans recorded around the calls
into each layer and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

The program is imported from ``src/`` of the checkout that holds this file;
outputs go to ``.perfbench_out/`` there.  Workloads, their seeds and the
reasons for them are described in ``perfbench/NOTES.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import zlib
from dataclasses import dataclass

import numpy as np

import oracle
from spans import Tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
CHILD = os.path.join(HERE, "child.py")

T_SAMPLES = len(oracle.time_grid())
THETA_AXIS = np.linspace(-np.pi / 2, np.pi / 2, 51)  # default_grid's 51x51 axes
R_AXIS = np.linspace(0.02, 1.0, 51)
SPOT_CHECK_STRIDE = 20       # the sweep fully verifies cells 0, 20, 40, ...
WORKERS = min(2, len(os.sched_getaffinity(0)))
SETUP_REPEATS = 5            # fresh set-up processes before the timed loop, and again after
ORACLE_SAMPLES = 4           # seeded sample times checked per evolve request
TAIL_BEYOND = 10             # samples that must lie beyond the reported tail
CHILD_TIMEOUT = 150.0
ALL_DIAGNOSTICS = ("exchange", "mutual", "ppt")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "evolve" or "sweep"
    n_bar: float
    n_f: int                  # what auto_truncate must choose at n_bar
    diagnostics: tuple
    shape: tuple = (1, 1)     # theta x r cells per request
    probe_reps: int = 3       # repeats of each trajectory configuration in the probe

    @property
    def cells(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def dim(self) -> int:
        return 2 * (self.n_f + 2)


WORKLOADS = {w.name: w for w in (
    Workload("evolve-cold", "evolve", 0.1, 13, ALL_DIAGNOSTICS),
    Workload("sweep-warm", "sweep", 0.1, 13, ALL_DIAGNOSTICS, shape=(4, 5)),
    Workload("sweep-hot", "sweep", 1.0, 46, ("exchange", "mutual"), shape=(2, 2),
             probe_reps=1),
)}


# --- program processes ---------------------------------------------------------


@dataclass
class Result:
    wall: float
    cpu: float
    maxrss_kb: int
    code: int
    stdout: str
    stderr: str


def child_env(tmp: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["TMPDIR"] = tmp
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_child(argv: list[str], work: str) -> Result:
    """Run one program process in its own session; time it and take its rusage.

    The rusage of a reaped process includes the pool workers it reaped, so
    ``cpu`` covers every process of the request and ``maxrss_kb`` is the
    peak of the largest one.
    """
    with tempfile.TemporaryFile(dir=work) as out, tempfile.TemporaryFile(dir=work) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(work), stdout=out, stderr=err,
                                start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        _kill_group(proc.pid)  # nothing of the request may outlive it
        out.seek(0)
        err.seek(0)
        return Result(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss,
                      proc.returncode, out.read().decode(errors="replace"),
                      err.read().decode(errors="replace"))


def child_json(res: Result, what: str) -> dict:
    if res.code != 0:
        raise RuntimeError(f"{what} exited with {res.code}:\n{res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


# --- requests --------------------------------------------------------------------


@dataclass
class Request:
    index: int
    atom: tuple = ()              # evolve: (r, theta, phi)
    samples: tuple = ()           # evolve: sample indices the oracle checks
    thetas: tuple = ()            # sweep: sorted subset of THETA_AXIS
    rs: tuple = ()                # sweep: sorted subset of R_AXIS
    oracle_cell: int = 0          # sweep: index of the cell the oracle checks
    result: Result | None = None
    output: str = ""


def make_request(wl: Workload, seed: int, index: int) -> Request:
    """Inputs of request ``index``; they depend only on the workload and the seed."""
    rng = np.random.default_rng([seed, zlib.crc32(wl.name.encode()), index])
    if wl.kind == "evolve":
        atom = (1.0 - 0.98 * rng.uniform(), rng.uniform(-np.pi / 2, np.pi / 2),
                rng.uniform(0.0, 2 * np.pi))
        samples = tuple(int(i) for i in rng.choice(T_SAMPLES, ORACLE_SAMPLES, replace=False))
        return Request(index, atom=tuple(float(v) for v in atom), samples=samples)
    thetas = tuple(float(v) for v in np.sort(rng.choice(THETA_AXIS, wl.shape[0], replace=False)))
    rs = tuple(float(v) for v in np.sort(rng.choice(R_AXIS, wl.shape[1], replace=False)))
    return Request(index, thetas=thetas, rs=rs, oracle_cell=int(rng.integers(wl.cells)))


def first_atom(wl: Workload, req: Request) -> tuple:
    return req.atom if wl.kind == "evolve" else (req.rs[0], req.thetas[0], 0.0)


def _floats(values) -> str:
    return ",".join(repr(v) for v in values)


def request_argv(wl: Workload, req: Request, work: str, spans: str | None,
                 workers: int = WORKERS) -> list[str]:
    tag = f"req{req.index}-{'traced' if spans else 'plain'}-w{workers}"
    if wl.kind == "evolve":
        req.output = os.path.join(work, tag + ".csv")
        cli = ["--n-bar", repr(wl.n_bar), "--atom",
               "r={!r},theta={!r},phi={!r}".format(*req.atom), "--out", req.output]
        if spans:
            return [sys.executable, CHILD, "evolve", "--spans", spans, "--", *cli]
        return [sys.executable, "-m", "jcentropy.cli", "evolve", *cli]
    req.output = os.path.join(work, tag + ".json")
    argv = [sys.executable, CHILD, "sweep", "--n-bar", repr(wl.n_bar),
            "--thetas=" + _floats(req.thetas), "--rs=" + _floats(req.rs),
            "--diagnostics", ",".join(wl.diagnostics), "--workers", str(workers),
            "--out", req.output]
    return argv + (["--spans", spans] if spans else [])


def run_request(wl: Workload, req: Request, work: str, workers: int = WORKERS) -> Request:
    req.result = run_child(request_argv(wl, req, work, None, workers), work)
    return req


# --- checks ------------------------------------------------------------------------


def check_request(wl: Workload, req: Request, status_counts: dict | None = None) -> list[str]:
    """Failure messages of one request: exit code, traceback, oracle and invariants."""
    res = req.result
    if res.code != 0:
        return [f"exit code {res.code}: {res.stderr.strip()[-300:]}"]
    if "Traceback" in res.stderr:
        return ["traceback on stderr"]
    try:
        if wl.kind == "evolve":
            with open(req.output, encoding="utf-8") as fh:
                csv = oracle.parse_evolve_csv(fh.read())
            with open(req.output + ".meta.json", encoding="utf-8") as fh:
                n_f = json.load(fh)["chosen_n_f"]
            if n_f != wl.n_f:
                return [f"auto truncation chose n_f={n_f}, expected {wl.n_f}"]
            return oracle.check_evolve(csv, wl.n_bar, n_f, req.atom, req.samples)
        with open(req.output, encoding="utf-8") as fh:
            return check_sweep(wl, req, json.load(fh), status_counts)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def check_sweep(wl: Workload, req: Request, out: dict, status_counts: dict | None) -> list[str]:
    if out["n_f"] != wl.n_f:
        return [f"auto truncation chose n_f={out['n_f']}, expected {wl.n_f}"]
    cells = out["cells"]
    expected = [(t, r) for t in req.thetas for r in req.rs]
    if [(c["theta"], c["r"]) for c in cells] != expected:
        return ["cells are not the requested grid in theta-major order"]
    bad = []
    for c in cells:
        kind = oracle.classify_status(c["status"])
        if status_counts is not None:
            status_counts[kind] += 1
        if kind == "error":
            bad.append(f"cell theta={c['theta']!r} r={c['r']!r} status {c['status']}")
    k = req.oracle_cell
    ref = oracle.oracle_cell(wl.n_bar, wl.n_f, cells[k]["theta"], cells[k]["r"],
                             wl.diagnostics, spot_checked=k % SPOT_CHECK_STRIDE == 0)
    return bad + [f"cell {k}: {msg}" for msg in oracle.check_cell(cells[k], ref)]


def read_cells(req: Request) -> list | None:
    try:
        with open(req.output, encoding="utf-8") as fh:
            return json.load(fh)["cells"]
    except (OSError, ValueError, KeyError):
        return None


def tally(problems: list[list[str]]) -> tuple[int, int]:
    """(attempted, failed): one operation per entry, failed if it has any problem."""
    return len(problems), sum(1 for p in problems if p)


# --- statistics --------------------------------------------------------------------


def tail(values: list[float]) -> tuple[float, str]:
    """Highest percentile with TAIL_BEYOND samples beyond it, and its description."""
    xs = sorted(values)
    n = len(xs)
    if n > TAIL_BEYOND:
        pct = 100.0 * (n - TAIL_BEYOND) / n
        return xs[n - TAIL_BEYOND - 1], f"p{pct:.1f} of {n} requests, {TAIL_BEYOND} beyond it"
    return xs[-1], (f"only {n} requests, so no percentile has {TAIL_BEYOND} beyond it: "
                    f"this is the maximum")


def eigensolves_per_traj(wl: Workload) -> float:
    """Computed: field T + PT T (if requested) + joint T on fully verified trajectories."""
    spot = 1.0 if wl.kind == "evolve" else math.ceil(wl.cells / SPOT_CHECK_STRIDE) / wl.cells
    return T_SAMPLES * (1 + ("ppt" in wl.diagnostics) + spot)


# --- runs ----------------------------------------------------------------------------


def environment(work: str) -> dict:
    """Versions, BLAS and its live thread count; also compiles the package once."""
    env = child_json(run_child([sys.executable, CHILD, "env"], work), "environment probe")
    env["workers"] = WORKERS
    env["blas_threads_pinned"] = 1
    return env


def measure_setup(wl: Workload, seed: int, work: str) -> list[float]:
    atom = first_atom(wl, make_request(wl, seed, 0))
    times = []
    for _ in range(SETUP_REPEATS):
        res = run_child([sys.executable, CHILD, "setup", "--n-bar", repr(wl.n_bar),
                         "--atom=" + _floats(atom)], work)
        times.append(child_json(res, "setup")["setup_s"])
    return times


def warm_up(wl: Workload, seed: int, work: str) -> Request:
    """Request 0, untimed: warms the page cache, the allocator and the clocks."""
    return run_request(wl, make_request(wl, seed, 0), work)


def run_plain(wl: Workload, seed: int, seconds: float, work: str, report: list) -> tuple:
    setup = measure_setup(wl, seed, work)
    requests = [warm_up(wl, seed, work)]
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        requests.append(run_request(wl, make_request(wl, seed, len(requests)), work))
    loop_wall = time.perf_counter() - start
    setup += measure_setup(wl, seed, work)

    counts = {"ok": 0, "skipped": 0, "error": 0}
    problems = [check_request(wl, r, counts) for r in requests]
    timed = requests[1:]
    walls = [r.result.wall for r in timed]
    done = sum(1 for p in problems[1:] if not p)
    tail_value, tail_note = tail(walls)
    metrics = {
        "setup_s": (statistics.median(setup), "s",
                    f"median of {len(setup)} fresh processes: import + initial states"),
        "latency_p50_s": (statistics.median(walls), "s", f"median of {len(walls)} requests"),
        "latency_tail_s": (tail_value, "s", tail_note),
        "samples_per_s": (done * wl.cells * T_SAMPLES / loop_wall, "1/s",
                          f"{done} requests x {wl.cells} cells x {T_SAMPLES} samples "
                          f"over {loop_wall:.2f} s"),
        "cpu_s_per_traj": (sum(r.result.cpu for r in timed) / (len(timed) * wl.cells),
                           "s", "user+system CPU of every program process per trajectory"),
        "peak_rss_mb": (max(r.result.maxrss_kb for r in timed) / 1024.0, "MB",
                        "largest program process"),
    }
    attempted, failed = tally(problems)
    report.append(f"requests: {len(timed)} timed in {loop_wall:.2f} s after 1 untimed, "
                  "closed loop, 1 client")
    if wl.kind == "sweep":
        report.append("cell statuses: " + ", ".join(f"{k} {v}" for k, v in counts.items()))
    report.append(f"fail_ratio = {failed / attempted!r} ({failed} failed of {attempted} "
                  "attempted)")
    report += [f"  request {r.index}: {'; '.join(p)}" for r, p in zip(requests, problems) if p]
    return metrics, attempted, failed


def run_traced(wl: Workload, seed: int, seconds: float, work: str, report: list) -> tuple:
    """Traced requests paired with untraced ones, a serial sweep and a layer probe."""
    tracer = Tracer()
    plain_walls, traced_walls = [], []
    requests = [warm_up(wl, seed, work)]
    start = time.perf_counter()

    def traced_child(name: str, argv_for, **attrs) -> tuple[Result, int]:
        """Run ``argv_for(spans_path)`` under a span and adopt the spans it wrote."""
        spans = os.path.join(work, f"spans-{len(tracer.spans)}.json")
        with tracer.span(name, **attrs) as parent:
            res = run_child(argv_for(spans), work)
        if res.code == 0:
            with open(spans, encoding="utf-8") as fh:
                tracer.adopt(json.load(fh)["spans"], parent["id"], process=parent["id"])
        return res, parent["id"]

    # Pairs of the same request, untraced and traced, in alternating order.
    while len(requests) == 1 or time.perf_counter() - start < seconds / 2:
        plain = make_request(wl, seed, 1 + len(requests) // 2)
        traced = make_request(wl, seed, plain.index)
        for which in ((plain, traced) if len(requests) % 4 == 1 else (traced, plain)):
            if which is plain:
                with tracer.span("request", traced=False):
                    run_request(wl, plain, work)
                plain_walls.append(plain.result.wall)
            else:
                traced.result, _ = traced_child(
                    "request", lambda sp: request_argv(wl, traced, work, sp), traced=True)
                traced_walls.append(traced.result.wall)
            requests.append(which)

    # Pool efficiency and worker-count determinism: one grid at WORKERS and at 1.
    grid_wl = wl if wl.kind == "sweep" else dataclasses.replace(wl, kind="sweep", shape=(1, 2))
    pooled = requests[1] if wl.kind == "sweep" else make_request(grid_wl, seed, 0)
    if wl.kind == "evolve":
        pooled.result, _ = traced_child(
            "sweep.request", lambda sp: request_argv(grid_wl, pooled, work, sp))
    serial = make_request(grid_wl, seed, pooled.index)
    serial.result, _ = traced_child(
        "sweep.request", lambda sp: request_argv(grid_wl, serial, work, sp, workers=1))

    # Layer probe: one fresh process at the workload's physics.
    csv = os.path.join(work, "probe.csv")
    probe_argv = [sys.executable, CHILD, "probe", "--n-bar", repr(wl.n_bar),
                  "--atom=" + _floats(first_atom(wl, requests[1])),
                  "--reps", str(wl.probe_reps), "--csv", csv, "--spans"]
    probe_res, probe_id = traced_child("probe", lambda sp: probe_argv + [sp])
    probe = child_json(probe_res, "layer probe")

    problems = [check_request(wl, r) for r in requests]
    if wl.kind == "evolve":
        problems.append(check_request(grid_wl, pooled))
    problems.append(check_request(grid_wl, serial))
    problems.append([] if probe["cli_exit"] == 0 and probe["n_f"] == wl.n_f else
                    [f"probe: cli exit {probe['cli_exit']}, n_f {probe['n_f']}"])
    cells = [read_cells(pooled), read_cells(serial)]
    deterministic = cells[0] is not None and cells[0] == cells[1]
    problems.append([] if deterministic else
                    [f"run_sweep cells differ between workers={WORKERS} and workers=1"])

    def per_rep(name: str, **attrs) -> dict[int, float]:
        return {s["rep"]: (s["end"] - s["start"]) / 1e9 for s in tracer.spans
                if s["name"] == name and s.get("process") == probe_id
                and all(s.get(k) == v for k, v in attrs.items())}

    def traj(ppt: bool, fv: bool) -> dict[int, float]:
        return per_rep("dynamics.trajectory_data", ppt=ppt, fv=fv)

    def median_diff(a: dict, b: dict) -> float:
        """Median over repeats of a - b, each difference taken within one repeat."""
        return statistics.median(a[r] - b[r] for r in a if r >= 0)

    base = traj(False, False)
    warm_base = statistics.median(v for r, v in base.items() if r >= 0)
    parallel = tracer.durations("sweep.run_sweep", workers=WORKERS)[0]
    serial_s = tracer.durations("sweep.run_sweep", workers=1)[0]
    kinds = {"ok": 0, "skipped": 0, "error": 0}
    for c in cells[0] or []:
        kinds[oracle.classify_status(c["status"])] += 1
    computed = "computed, not measured"
    metrics = {
        "pkg.import_s": (statistics.median(tracer.durations("pkg.import")), "s",
                         "median over fresh traced processes"),
        "states.build_s": (tracer.durations("states.build", process=probe_id)[0], "s",
                           "auto_truncate + thermal_field + bloch_qubit + product_state, cold"),
        "dynamics.stack_cold_s": (base[-1] - warm_base, "s",
                                  "first trajectory_data in a fresh process minus the median "
                                  "of its repeats"),
        "dynamics.stack_bytes": (T_SAMPLES * wl.dim ** 2 * 16, "bytes", computed),
        "dynamics.traj_base_s": (warm_base, "s",
                                 "warm trajectory_data(ppt=False, fv=False)"),
        "dynamics.verify_s": (median_diff(traj(False, True), base), "s",
                              "fv=True minus fv=False"),
        "dynamics.conj_flops": (16 * T_SAMPLES * wl.dim ** 3, "flop",
                                computed + ": 2 complex GEMMs of size D per sample"),
        "dynamics.eigensolves": (eigensolves_per_traj(wl), "count",
                                 computed + ", per trajectory of this workload"),
        "entanglement.pt_s": (median_diff(traj(True, False), base), "s",
                              "ppt=True minus ppt=False"),
        "entanglement.sig_ratio": (probe["sig_ratio"], "ratio",
                                   "samples with a significant negative PT eigenvalue"),
        "entropy.reduce_s": (probe["reduce_s"], "s",
                             "exchange_parameter + mutual_entropy_ratio + negativity_exponent"),
        "sweep.serial_s": (serial_s, "s", f"run_sweep of {grid_wl.cells} cells at workers=1"),
        "sweep.pool_efficiency": (serial_s / (WORKERS * parallel), "ratio",
                                  f"serial_s / ({WORKERS} workers x {parallel:.3f} s)"),
        "sweep.cells": (grid_wl.cells, "count", f"cells of the run_sweep at {WORKERS} workers"),
        "sweep.spot_checked": (math.ceil(grid_wl.cells / SPOT_CHECK_STRIDE), "count",
                               computed + ": cells 0, 20, 40, ..."),
        "sweep.status_ok": (kinds["ok"], "count", ""),
        "sweep.status_skipped": (kinds["skipped"], "count", "documented *_skipped outcomes"),
        "sweep.status_error": (kinds["error"], "count", "error:* cells, counted as failures"),
        "cli.overhead_s": (statistics.median(
            tracer.self_seconds(s) for s in tracer.spans
            if s["name"] == "cli.main" and s.get("process") == probe_id), "s",
            "self time of a warm cli.main evolve: config, CSV formatting, sidecar"),
        "cli.csv_bytes": (probe["csv_bytes"], "bytes", computed + " from the written CSV"),
        "trace.overhead_s": (statistics.median(traced_walls) - statistics.median(plain_walls),
                             "s", f"median traced minus untraced request, {len(traced_walls)} "
                             "pairs"),
    }
    attempted, failed = tally(problems)
    report.append(f"traced: {len(requests)} requests, {attempted} checked operations, "
                  f"{failed} failed; worker-count determinism "
                  f"{'holds' if deterministic else 'FAILS'}")
    report += [f"  {'; '.join(p)}" for p in problems if p]
    os.makedirs(OUT, exist_ok=True)
    tracer.dump(os.path.join(OUT, f"trace-{wl.name}-seed{seed}.json"),
                self_time_s=tracer.self_times(),
                metrics={k: v[0] for k, v in metrics.items()})
    return metrics, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="jcentropy benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "jcentropy", "__init__.py")):
        print(f"no jcentropy package under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    os.makedirs(OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="work-", dir=OUT)
    try:
        env = environment(work)
        report = [f"workload {wl.name}, seed {args.seed}, trace {args.trace}",
                  "env " + json.dumps(env, sort_keys=True)]
        runner = run_traced if args.trace else run_plain
        metrics, attempted, failed = runner(wl, args.seed, args.seconds, work, report)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for name, (value, unit, note) in metrics.items():
        report.append(f"{name} = {value!r} {unit}" + (f"  ({note})" if note else ""))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v[0], "unit": v[1]} for k, v in metrics.items()}}
    with open(os.path.join(OUT, f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump({"env": env, "report": report, **result}, fh, indent=1)
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
