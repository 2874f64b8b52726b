"""Dense reference oracle and the output checks built on it.

The oracle recomputes trajectory observables from the closed-form
Jaynes-Cummings propagator with plain ``numpy`` (complex conjugation
``U rho U^dag`` and ``numpy.linalg.eigvalsh``).  It imports nothing from
``jcentropy``, so it keeps working when the program's evolution and
partial-transpose code are replaced.  Every check returns a list of failure
messages; an empty list means the output passed.
"""

from __future__ import annotations

import math

import numpy as np

CLAMP = 1e-14            # eigenvalues at or below this count as 0 in S = -sum w ln w
ARTIFACT = 1e-12         # |PT eigenvalue| below this is a truncation artifact
EPS = 1e-9               # ratio-denominator guard of P and R_bar
VALUE_TOL = 1e-12        # S, purity, lambda_m, P, R_bar and E against the oracle
TRACE_TOL = 1e-12
JOINT_DRIFT_TOL = 1e-10  # S_af drift along one trajectory
EXCITATION_TOL = 1e-12   # excitation-number drift along one trajectory
CHUNK = 512              # samples per batch; bounds oracle memory at dimension 96

EVOLVE_HEADER = (
    "lambda_t,S_a,S_f,S_af,dS_a,dS_f,dS_sum,purity_a,purity_f,N_expect,lambda_m,n_neg_sig"
)


def thermal_probs(n_bar: float, n_f: int) -> np.ndarray:
    """Planck weights of levels 0..n_f plus the lumped tail level."""
    probs = np.zeros(n_f + 2)
    probs[0] = 1.0 / (n_bar + 1.0)
    ratio = n_bar / (n_bar + 1.0)
    for n in range(n_f):
        probs[n + 1] = probs[n] * ratio
    probs[-1] = max(0.0, 1.0 - probs[:-1].sum())
    return probs


def initial_state(n_bar: float, n_f: int, r: float, theta: float, phi: float) -> np.ndarray:
    """Bloch atom (x) truncated thermal field, atom-major, excited sector first."""
    z = r * math.sin(theta)
    x = r * math.cos(theta) * math.cos(phi)
    y = r * math.cos(theta) * math.sin(phi)
    atom = 0.5 * np.array([[1 + z, x - 1j * y], [x + 1j * y, 1 - z]])
    return np.kron(atom, np.diag(thermal_probs(n_bar, n_f)).astype(complex))


def propagators(f_dim: int, times: np.ndarray) -> np.ndarray:
    """Closed-form U(t): cos on the pair diagonals, -i sin between |e,n> and |g,n+1>."""
    roots = np.sqrt(np.arange(1.0, f_dim))
    c, s = np.cos(times[:, None] * roots), np.sin(times[:, None] * roots)
    e, g = np.arange(f_dim - 1), np.arange(f_dim + 1, 2 * f_dim)
    u = np.zeros((len(times), 2 * f_dim, 2 * f_dim), dtype=complex)
    u[:, e, e] = c
    u[:, g, g] = c
    u[:, e, g] = -1j * s
    u[:, g, e] = -1j * s
    u[:, f_dim - 1, f_dim - 1] = 1.0  # top excited level has no partner
    u[:, f_dim, f_dim] = 1.0          # |g,0> is dark
    return u


def entropy(w: np.ndarray) -> np.ndarray:
    safe = np.where(w > CLAMP, w, 1.0)
    return -(np.where(w > CLAMP, w, 0.0) * np.log(safe)).sum(axis=-1)


def observables(rho0: np.ndarray, times: np.ndarray, ppt: bool, joint_per_sample: bool) -> dict:
    """Per-sample columns of the evolve CSV, computed densely from ``rho0``."""
    dim = rho0.shape[0]
    f_dim = dim // 2
    weights = np.concatenate([np.arange(f_dim) + 1.0, np.arange(f_dim, dtype=float)])
    s_joint0 = entropy(np.linalg.eigvalsh(rho0))
    cols: dict[str, list] = {k: [] for k in ("S_a", "S_f", "S_af", "purity_a", "purity_f",
                                             "N_expect", "trace", "lambda_m", "n_neg_sig")}
    for start in range(0, len(times), CHUNK):
        u = propagators(f_dim, times[start:start + CHUNK])
        rho = u @ rho0 @ u.conj().transpose(0, 2, 1)
        blocks = rho.reshape(-1, 2, f_dim, 2, f_dim)
        r_atom = np.einsum("tifjf->tij", blocks)
        r_field = np.einsum("taiaj->tij", blocks)
        a, b, off = r_atom[:, 0, 0].real, r_atom[:, 1, 1].real, np.abs(r_atom[:, 0, 1])
        half_gap = np.sqrt(0.25 * (a - b) ** 2 + off**2)
        cols["S_a"].append(entropy(np.stack([0.5 * (a + b) - half_gap,
                                             0.5 * (a + b) + half_gap], axis=1)))
        cols["S_f"].append(entropy(np.linalg.eigvalsh(r_field)))
        cols["S_af"].append(entropy(np.linalg.eigvalsh(rho)) if joint_per_sample
                            else np.full(len(rho), s_joint0))
        cols["purity_a"].append((np.abs(r_atom) ** 2).sum(axis=(1, 2)))
        cols["purity_f"].append((np.abs(r_field) ** 2).sum(axis=(1, 2)))
        cols["N_expect"].append(np.einsum("tii,i->t", rho, weights).real)
        cols["trace"].append(np.einsum("tii->t", rho))
        if ppt:
            pt = np.ascontiguousarray(blocks.transpose(0, 1, 4, 3, 2)).reshape(-1, dim, dim)
            w = np.linalg.eigvalsh(pt)
            sig = (w < 0.0) & (np.abs(w) >= ARTIFACT)
            cols["n_neg_sig"].append(sig.sum(axis=1))
            cols["lambda_m"].append(np.where(sig, w, 0.0).min(axis=1))
    return {k: np.concatenate(v) for k, v in cols.items() if v}


def time_grid() -> np.ndarray:
    """The CLI's default grid: t_max 25, dt 0.01, built the way the CLI builds it."""
    t_max, dt = 25.0, 0.01
    return np.arange(0.0, t_max + dt / 2, dt)


# --- evolve requests -----------------------------------------------------------


def parse_evolve_csv(text: str) -> dict[str, np.ndarray]:
    lines = text.splitlines()
    if not lines or lines[0] != EVOLVE_HEADER:
        raise ValueError("evolve CSV header differs from the documented schema")
    names = EVOLVE_HEADER.split(",")
    rows = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    if rows.ndim != 2 or rows.shape[1] != len(names):
        raise ValueError("evolve CSV rows do not have one value per column")
    return dict(zip(names, rows.T))


def check_evolve(csv: dict[str, np.ndarray], n_bar: float, n_f: int, atom: tuple,
                 sample_idx) -> list[str]:
    """Invariants on every sample, plus the oracle on the samples ``sample_idx``."""
    bad = []
    times = time_grid()
    if len(csv["lambda_t"]) != len(times) or not np.array_equal(csv["lambda_t"], times):
        return [f"time column differs from the default grid ({len(csv['lambda_t'])} rows)"]
    if not all(np.isfinite(col).all() for col in csv.values()):
        bad.append("non-finite value in evolve CSV")
    for d, s in (("dS_a", "S_a"), ("dS_f", "S_f")):
        if np.abs(csv[d] - (csv[s] - csv[s][0])).max() > VALUE_TOL:
            bad.append(f"{d} is not {s} minus its initial value")
    if np.abs(csv["dS_sum"] - (csv["dS_a"] + csv["dS_f"])).max() > VALUE_TOL:
        bad.append("dS_sum is not dS_a + dS_f")
    drift = float(np.abs(csv["S_af"] - csv["S_af"][0]).max())
    if drift > JOINT_DRIFT_TOL:
        bad.append(f"S_af drift {drift:.3e} > {JOINT_DRIFT_TOL:.0e}")
    drift = float(csv["N_expect"].max() - csv["N_expect"].min())
    if drift > EXCITATION_TOL:
        bad.append(f"excitation drift {drift:.3e} > {EXCITATION_TOL:.0e}")

    idx = np.asarray(sorted(sample_idx))
    ref = observables(initial_state(n_bar, n_f, *atom), times[idx], ppt=True,
                      joint_per_sample=True)
    worst_trace = float(np.abs(ref["trace"] - 1.0).max())
    if worst_trace > TRACE_TOL:
        bad.append(f"oracle state trace off by {worst_trace:.3e}")
    for name in ("S_a", "S_f", "S_af", "purity_a", "purity_f", "N_expect", "lambda_m"):
        err = float(np.abs(csv[name][idx] - ref[name]).max())
        if err > VALUE_TOL:
            bad.append(f"{name} differs from the oracle by {err:.3e}")
    if not np.array_equal(csv["n_neg_sig"][idx], ref["n_neg_sig"]):
        bad.append("n_neg_sig differs from the oracle")
    return bad


# --- sweep requests ------------------------------------------------------------


def reduce_cell(cols: dict, diagnostics) -> dict:
    """P, R_bar, E, n_neg_sig and status of one trajectory, per the README definitions."""
    status, p, r_bar, e, n_sig = [], None, None, None, 0
    if "exchange" in diagnostics:
        da, df = np.diff(cols["S_a"]), np.diff(cols["S_f"])
        keep = np.maximum(np.abs(da), np.abs(df)) >= EPS
        if keep.any():
            da, df = da[keep], df[keep]
            small_a = np.abs(da) <= np.abs(df)
            p = float(np.where(small_a, da / np.where(small_a, df, 1.0),
                               df / np.where(small_a, 1.0, da)).mean())
        else:
            status.append("exchange_skipped")
    if "mutual" in diagnostics:
        smaller = np.minimum(cols["S_a"], cols["S_f"])
        keep = smaller >= EPS
        if keep.any():
            mutual = cols["S_a"] + cols["S_f"] - cols["S_af"]
            r_bar = float((mutual[keep] / smaller[keep]).mean())
        else:
            status.append("mutual_skipped")
    if "ppt" in diagnostics:
        n_sig = int(cols["n_neg_sig"].max())
        lam = float(cols["lambda_m"].mean())
        e = -math.inf if lam == 0.0 else math.log10(abs(lam))
    return {"p": p, "r_bar": r_bar, "e": e, "n_sig": n_sig,
            "status": "+".join(status) if status else "ok"}


def oracle_cell(n_bar: float, n_f: int, theta: float, r: float, diagnostics,
                spot_checked: bool) -> dict:
    cols = observables(initial_state(n_bar, n_f, r, theta, 0.0), time_grid(),
                       ppt="ppt" in diagnostics, joint_per_sample=spot_checked)
    return reduce_cell(cols, diagnostics)


def _differs(a, b) -> bool:
    if a is None or b is None:
        return a is not b
    if math.isinf(a) or math.isinf(b):
        return a != b
    return abs(a - b) > VALUE_TOL


def check_cell(cell: dict, ref: dict) -> list[str]:
    bad = [f"{k} differs from the oracle: {cell[k]!r} vs {ref[k]!r}"
           for k in ("p", "r_bar", "e") if _differs(cell[k], ref[k])]
    if cell["n_sig"] != ref["n_sig"]:
        bad.append(f"n_neg_sig differs from the oracle: {cell['n_sig']} vs {ref['n_sig']}")
    if cell["status"] != ref["status"]:
        bad.append(f"status differs from the oracle: {cell['status']!r} vs {ref['status']!r}")
    return bad


def classify_status(status: str) -> str:
    """'error' counts as a failure; documented skips are outcomes, not failures."""
    parts = status.split("+")
    if any(p.startswith("error:") for p in parts):
        return "error"
    if status == "ok":
        return "ok"
    if all(p in ("exchange_skipped", "mutual_skipped") for p in parts):
        return "skipped"
    return "error"
