"""End-to-end acceptance suite.

Each test prints one PASS/FAIL line (visible with ``pytest -rA``) and asserts
its criterion at the stated tolerance.  The heavyweight fixture is the full
51x51 Bloch-sphere sweep at the converged truncation, shared by the map
criteria; expect several minutes of wall time for the whole module.
"""

import json

import numpy as np
import pytest

from conftest import random_pure_product
from dense_oracle import partial_trace, propagator_stack
from jcentropy import (
    BlochParams,
    EntropySeries,
    bloch_qubit,
    cli,
    default_grid,
    diagonal_evolve,
    evolve,
    exchange_parameter,
    product_state,
    purity_rate_approx,
    purity_rate_exact,
    run_sweep,
    thermal_field,
    trajectory_data,
    validate_density,
)
from jcentropy.entropy import entropy_from_spectrum

T_GRID = np.arange(0.0, 25.005, 0.01)


def _report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} [{detail}]")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def ground_data(ground_joint):
    return trajectory_data(ground_joint, T_GRID)


@pytest.fixture(scope="module")
def excited_data(excited_joint):
    return trajectory_data(excited_joint, T_GRID)


@pytest.fixture(scope="module")
def near_complete_data(field01):
    # the near-fixed-point state whose exchange is almost perfect
    atom = bloch_qubit(BlochParams(np.sqrt(7.0 / 10.0), -np.pi / 2, 0.0))
    return trajectory_data(product_state(atom, field01), T_GRID)


@pytest.fixture(scope="module")
def sweep_cells():
    grid = default_grid(n_bar=0.1, n_f=13, resolution=(51, 51), t_max=25.0, dt=0.01)
    return run_sweep(grid, ("exchange", "mutual", "ppt"), workers=2)


def test_c01_fixed_point_stationarity(field01):
    atom = validate_density(np.diag([1.0 / 12.0, 11.0 / 12.0]).astype(complex), (2,))
    data = trajectory_data(product_state(atom, field01), T_GRID)
    drift_a = float(np.abs(data.s_atom - data.s_atom[0]).max())
    drift_f = float(np.abs(data.s_field - data.s_field[0]).max())
    _report(
        1, "fixed_point_stationarity",
        drift_a < 1e-9 and drift_f < 1e-9,
        f"max |dS_a|={drift_a:.2e}, max |dS_f|={drift_f:.2e}, tol 1e-9",
    )


def _diagonal_oracle_series(p_e: float, field, t_grid) -> EntropySeries:
    """Entropy series from the closed-form populations of a diagonal state.

    Both partial states stay diagonal, so their populations are their
    spectra; the joint entropy is that of the initial product state.
    """
    pops = [diagonal_evolve(p_e, field, t) for t in t_grid]
    atom = np.array([a for a, _ in pops])
    field_pops = np.array([f for _, f in pops])
    s_joint0 = entropy_from_spectrum([p_e, 1.0 - p_e]) + entropy_from_spectrum(field.probs)
    return EntropySeries(
        np.asarray(t_grid), entropy_from_spectrum(atom), entropy_from_spectrum(field_pops),
        np.full(len(t_grid), s_joint0), (atom**2).sum(axis=1), (field_pops**2).sum(axis=1),
    )


def test_c02_ground_state_exchange_regime(field01, ground_data):
    p = exchange_parameter(ground_data).p
    p_oracle = exchange_parameter(_diagonal_oracle_series(0.0, field01, T_GRID)).p
    ds_a = ground_data.s_atom - ground_data.s_atom[0]
    ds_f = ground_data.s_field - ground_data.s_field[0]
    ratio = float(np.ptp(ds_a + ds_f) / np.ptp(ds_a))
    # Exchange is the anti-correlated regime, P < 0 (c03 asserts the
    # co-fluctuating P > 0).  The pure ground state sits at P = -0.63 on the
    # dense route and on the closed-form one alike: near every turning point
    # of one partial entropy the smaller-over-larger step ratio is small and
    # dilutes the mean.  Strong exchange (P < -0.8) belongs to mixed states
    # near the matched-population point and is asserted by c04.
    _report(
        2, "ground_state_exchange_regime",
        p < 0.0 and abs(p - p_oracle) < 1e-10 and ratio < 0.25,
        f"P={p:.4f} (need < 0), |P - P_closed_form|={abs(p - p_oracle):.1e} "
        f"(need < 1e-10), ptp(sum)/ptp(dS_a)={ratio:.4f} (need < 0.25)",
    )


def test_c03_excited_state_cofluctuation(excited_data):
    p = exchange_parameter(excited_data).p
    _report(3, "excited_state_cofluctuation", p > 0.0, f"P={p:.4f} (need > 0)")


def test_c04_near_complete_exchange(near_complete_data):
    p = exchange_parameter(near_complete_data).p
    ds_a = near_complete_data.s_atom - near_complete_data.s_atom[0]
    ds_sum = ds_a + (near_complete_data.s_field - near_complete_data.s_field[0])
    ratio = float(np.ptp(ds_a) / np.ptp(ds_sum))
    _report(
        4, "near_complete_exchange",
        p <= -0.95 and ratio >= 50.0,
        f"P={p:.4f} (need <= -0.95), ptp(dS_a)/ptp(sum)={ratio:.1f} (need >= 50)",
    )


def test_c05_leading_term_purity_rates(field01):
    ts = np.arange(0.0, 3.0001, 0.01)
    exact = np.array([purity_rate_exact("ground", field01, t) for t in ts])
    approx = np.array([purity_rate_approx("ground", 0.1, t) for t in ts])
    rms = [
        float(np.sqrt(((exact[:, k] - approx[:, k]) ** 2).mean())
              / np.sqrt((exact[:, k] ** 2).mean()))
        for k in (0, 1)
    ]
    antisymmetric = all(
        purity_rate_approx("ground", 0.1, t)[0] == -purity_rate_approx("ground", 0.1, t)[1]
        for t in ts[::10]
    )
    amp_ground = 2.0 * field01.probs[0] * field01.probs[1]
    amp_excited = field01.probs[0] ** 2
    amps_ok = abs(amp_ground - 0.1502) < 1e-4 and abs(amp_excited - 0.8264) < 1e-4
    _report(
        5, "leading_term_purity_rates",
        max(rms) < 0.15 and antisymmetric and amps_ok,
        f"RMS rel err atom={rms[0]:.3f}, field={rms[1]:.3f} (need < 0.15); "
        f"antisymmetry={antisymmetric}; amplitudes {amp_ground:.5f}/{amp_excited:.5f}",
    )


def test_c06_diagonal_oracle_equivalence(rng):
    worst = 0.0
    for _ in range(50):
        p_e = float(rng.uniform())
        field = thermal_field(float(rng.uniform(0.0, 2.0)), int(rng.integers(4, 13)))
        atom = validate_density(np.diag([p_e, 1.0 - p_e]).astype(complex), (2,))
        joint = product_state(atom, field)
        t = float(rng.uniform(0.0, 15.0))
        (a, b), field_pops = diagonal_evolve(p_e, field, t)
        out = evolve(joint, t)
        atom_out = partial_trace(out, "atom").mat
        field_out = partial_trace(out, "field").mat
        worst = max(
            worst,
            abs(atom_out[0, 0].real - a),
            abs(atom_out[1, 1].real - b),
            float(np.abs(np.diag(field_out).real - field_pops).max()),
        )
    _report(
        6, "diagonal_oracle_equivalence",
        worst < 1e-10,
        f"max deviation over 50 random diagonal states = {worst:.2e}, tol 1e-10",
    )


def test_c07_schmidt_equality(rng):
    worst = 0.0
    for _ in range(20):
        joint = random_pure_product(rng, 10)
        data = trajectory_data(joint, T_GRID)
        worst = max(worst, float(np.abs(data.s_atom - data.s_field).max()))
    _report(
        7, "schmidt_equality",
        worst < 1e-10,
        f"max |S_a - S_f| over 20 pure product states = {worst:.2e}, tol 1e-10",
    )


def test_c08_conservation_suite(field01, ground_data, excited_data, near_complete_data):
    s_drift = max(
        float(np.ptp(d.s_joint))
        for d in (ground_data, excited_data, near_complete_data)
    )
    n_drift = max(
        float(np.ptp(d.n_expectation))
        for d in (ground_data, excited_data, near_complete_data)
    )
    # unitarity of the closed-form propagator, on the dense test oracle
    stack = propagator_stack(field01.dim, T_GRID)
    eye = np.eye(stack.shape[1])
    unitarity = 0.0
    for start in range(0, len(stack), 512):
        u = stack[start : start + 512]
        gram = u.conj().transpose(0, 2, 1) @ u - eye
        unitarity = max(unitarity, float(np.sqrt((np.abs(gram) ** 2).sum(axis=(1, 2)).max())))
    # trace of every engine-evolved sample; evolve itself refuses |Tr - 1| > 1e-12
    ground = product_state(bloch_qubit(BlochParams(1.0, -np.pi / 2)), field01)
    trace_residual = max(abs(np.trace(evolve(ground, t).mat) - 1.0) for t in T_GRID)
    ok = (
        trace_residual < 1e-12
        and s_drift < 1e-10
        and n_drift < 1e-12
        and unitarity < 1e-12
    )
    _report(
        8, "conservation_suite", ok,
        f"|Tr-1|={trace_residual:.2e} (<1e-12), S_af drift={s_drift:.2e} (<1e-10), "
        f"<N> drift={n_drift:.2e} (<1e-12), ||U+U - I||_F={unitarity:.2e} (<1e-12)",
    )


def _exchange_region(cells, cutoff: float) -> list:
    """Cells whose exchange parameter is defined and below ``cutoff``."""
    return [c for c in cells if c.p is not None and c.p < cutoff]


def _two_region_check(cells, cutoff: float, n_theta: int) -> tuple[bool, str]:
    """Exchange region against the PPT-clean region on a theta-major map.

    The exchange region correlates with minimal entanglement, to figure
    resolution: its interior is PPT-clean, and a cell on its edge may carry
    only a negativity far weaker than that of the entangled co-fluctuating
    cells.
    """
    region_ids = {id(c) for c in _exchange_region(cells, cutoff)}
    in_region = np.array([id(c) in region_ids for c in cells]).reshape(n_theta, -1)
    # out-of-grid neighbours do not make a cell an edge cell
    pad = np.pad(in_region, 1, constant_values=True)
    interior = (
        in_region & pad[:-2, 1:-1] & pad[2:, 1:-1] & pad[1:-1, :-2] & pad[1:-1, 2:]
    ).ravel()
    exchange = [(c, bool(interior[i])) for i, c in enumerate(cells) if in_region.flat[i]]
    is_clean = lambda c: c.n_significant_negatives == 0 and c.e == -np.inf
    clean = [c for c, _ in exchange if is_clean(c)]
    dirty = [(c, inner) for c, inner in exchange if not is_clean(c)]
    entangled_cofluctuating = [
        c for c in cells
        if c.p is not None and c.p > 0 and c.n_significant_negatives >= 1
    ]
    median_e = (
        float(np.median([c.e for c in entangled_cofluctuating]))
        if entangled_cofluctuating else np.nan
    )
    # A PPT-clean cell holds truncation-scale negatives only (1e-16 to 1e-18
    # at this truncation).  The dirty edge cells show ~1e-12 artifacts: the
    # onset of their genuine eigenvalue crossing the artifact band.
    max_artifact = max((c.artifact_magnitude for c in clean), default=0.0)
    ok = (
        not any(inner for _, inner in dirty)
        and all(c.e <= median_e - 3.0 for c, _ in dirty)
        and max_artifact < 1e-15
        and len(entangled_cofluctuating) >= 1
    )
    listed = ", ".join(
        f"(th={c.theta:.3f},r={c.r:.3f},P={c.p:.4f},E={c.e:.2f},"
        f"worst={c.worst_negative:.1e},{'interior' if inner else 'edge'})"
        for c, inner in dirty
    )
    detail = (
        f"{len(exchange)} exchange cells below P={cutoff}, {len(clean)} PPT-clean "
        f"(max artifact {max_artifact:.1e}, need < 1e-15), {len(dirty)} with "
        f"significant negativity [{listed}] (need: none interior, each E <= "
        f"median E - 3 = {median_e - 3.0:.2f}); {len(entangled_cofluctuating)} "
        f"cells with P>0 and negativity (need >= 1)"
    )
    return ok, detail


def test_c09_ppt_two_region_structure(sweep_cells):
    ok, detail = _two_region_check(sweep_cells, -0.8, n_theta=51)
    _report(9, "ppt_two_region_structure", ok, detail)


def test_c09_edge_negativity_stable_under_basis_growth():
    # The three exchange-edge cells of the 51x51 map that carry negativity
    # (theta index, r index): genuine negatives do not move when the field
    # basis grows, truncation artifacts would.
    axes = default_grid(n_bar=0.1, n_f=13, resolution=(51, 51))
    edge = ((3, 47), (4, 46), (4, 47))
    worst = {}
    for n_f in (13, 20):
        field = thermal_field(0.1, n_f)
        for i, j in edge:
            atom = bloch_qubit(BlochParams(axes.r_values[j], axes.theta_values[i], 0.0))
            data = trajectory_data(
                product_state(atom, field), T_GRID, ppt=True, full_verification=False
            )
            worst[n_f, i, j] = float(data.min_transpose_eigenvalue.min())
    rel = max(abs(worst[20, i, j] / worst[13, i, j] - 1.0) for i, j in edge)
    weakest = min(abs(v) for v in worst.values())
    _report(
        9, "edge_negativity_stable_under_basis_growth",
        rel < 1e-9 and weakest >= 1e-6,
        f"worst PT eigenvalue n_f=13 vs 20: max rel change {rel:.1e} (need < 1e-9), "
        f"min |worst| {weakest:.1e} (need >= 1e-6)",
    )


def test_c10_mutual_ratio_containment(sweep_cells):
    exchange = _exchange_region(sweep_cells, -0.8)
    exchange_inside = all(c.r_bar is not None and c.r_bar <= 1.0 for c in exchange)
    broader = [
        c for c in sweep_cells
        if c.p is not None and c.p > 0 and c.r_bar is not None and c.r_bar <= 1.0
    ]
    max_rbar = max(c.r_bar for c in exchange if c.r_bar is not None)
    _report(
        10, "mutual_ratio_containment",
        exchange_inside and len(broader) >= 1,
        f"max R_bar over exchange region = {max_rbar:.3f} (need <= 1); "
        f"{len(broader)} non-exchange cells (P>0) also satisfy R_bar <= 1",
    )


def test_c11_entropy_closed_forms():
    from jcentropy import auto_truncate

    worst = 0.0
    for n_bar in (0.1, 1.0, 10.0):
        field = thermal_field(n_bar, auto_truncate(n_bar))
        closed = (n_bar + 1) * np.log(n_bar + 1) - n_bar * np.log(n_bar)
        worst = max(worst, abs(entropy_from_spectrum(field.probs) - closed))
    mixed_qubit = validate_density(np.eye(2) / 2, (2,))
    mixed = abs(entropy_from_spectrum(mixed_qubit.eigenvalues) - np.log(2))
    _report(
        11, "entropy_closed_forms",
        worst < 1e-10 and mixed < 1e-12,
        f"max thermal deviation = {worst:.2e} (tol 1e-10), "
        f"qubit ln2 deviation = {mixed:.2e} (tol 1e-12)",
    )


def test_c12_sweep_determinism(tmp_path):
    outputs = []
    for workers in (1, 4, 8):
        out = tmp_path / f"det_{workers}.csv"
        code = cli.main(
            ["sweep", "--n-bar", "0.1", "--n-f", "13", "--grid", "5x5",
             "--t-max", "2.0", "--dt", "0.01", "--workers", str(workers),
             "--diagnostics", "exchange,mutual,ppt", "--out", str(out)]
        )
        assert code == 0
        outputs.append(out.read_bytes())
    identical = outputs[0] == outputs[1] == outputs[2]
    _report(
        12, "sweep_determinism", identical,
        f"byte-identical CSV across workers 1/4/8: {identical}",
    )
