"""One table of computed faults, and how each front end refuses them.

Each row is a ``raise`` in ``dynamics``, ``entanglement``, ``entropy`` or
``states`` that a computed value can reach.  It is forced by patching a
tolerance or the solver, never the data, and all three front ends are held
to one contract:

- ``evolve`` exits 3 with one stderr line, no traceback and no CSV;
- each sweep cell that reaches the raise reads ``error:<Class>``, and a sweep
  with no ``ok`` cell exits 3 and writes no CSV;
- ``selfcheck`` prints ``[FAIL] <name>: <message>`` for a check that reaches
  the raise, prints every other check and the summary line, and exits 1.

A row records which front ends cannot reach its raise: ``selfcheck`` is None
where no check reaches it (and the selfcheck then passes), and ``sweep`` is
"spot" where only the spot-checked cells, which recompute the joint spectrum,
reach it.  Not rows: the raises that only bad input reaches (shapes, domains,
the time grid, memory), which end in ``InvalidParameter`` and exit 2, and
``AllStepsSkipped``, a diagnostic without signal, which a sweep records as
``<diagnostic>_skipped``.  Every other ``raise`` of a ``ValidationError`` in
those four modules is a row or one of the ``EXCLUDED`` raises, with its reason;
``test_every_computed_fault_is_listed`` walks the source to hold the table to
that.
"""

import ast
import collections
import inspect
from typing import NamedTuple

import numpy as np
import pytest

from conftest import dsbev_failing
from jcentropy import (ConservationViolation, NoConvergence, NotHermitian, NotPositive,
                       RangeViolation, SweepGrid, TraceNotOne, ValidationError, cli, dynamics,
                       entanglement, entropy, run_sweep, states)


def _solver_fails(*_):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


class Fault(NamedTuple):
    target: object   # the module whose tolerance or solver is patched ...
    name: str        # ... this attribute of it ...
    value: object    # ... to this
    error: type
    message: str     # how the error's message starts
    selfcheck: str | None  # a check that reaches the raise
    site: str        # the function that holds the raise
    sweep: str = "every"   # the cells that reach it: "every" or "spot"


FAULTS = {
    "states.eigvalsh": Fault(np.linalg, "eigvalsh", _solver_fails, NoConvergence,
                             "Eigenvalues did not converge", "propagator_unitarity",
                             "states.eigvalsh"),
    "states.banded_eigvalsh": Fault(states, "_dsbev", dsbev_failing(kd=1), NoConvergence,
                                    "dsbev: 1 off-diagonal entries did not converge",
                                    "schmidt_equality", "states.banded_eigvalsh"),
    "states.validate_density.hermiticity": Fault(states, "HERMITICITY_TOL", -1.0, NotHermitian,
                                                 "matrix is not Hermitian", "propagator_unitarity",
                                                 "states.validate_density"),
    "states.validate_density.trace": Fault(states, "TRACE_TOL", -1.0, TraceNotOne, "trace is ",
                                           "propagator_unitarity", "states.validate_density"),
    "states.validate_density.positivity": Fault(states, "PSD_FLOOR", 1.0, NotPositive,
                                                "minimum eigenvalue ", "propagator_unitarity",
                                                "states.validate_density"),
    "dynamics.trajectory_data.hermiticity": Fault(dynamics, "HERMITICITY_TOL", -1.0, NotHermitian,
                                                  "matrix is not Hermitian", "schmidt_equality",
                                                  "dynamics.trajectory_data"),
    "dynamics.trajectory_data.trace": Fault(dynamics, "TRACE_TOL", -1.0, TraceNotOne, "trace is ",
                                            "schmidt_equality", "dynamics.trajectory_data"),
    "dynamics.trajectory_data.positivity": Fault(dynamics, "PSD_FLOOR", 1.0, NotPositive,
                                                 "minimum eigenvalue ", "schmidt_equality",
                                                 "dynamics._joint_entropy", sweep="spot"),
    "dynamics.trajectory_data.drift": Fault(dynamics, "EXCITATION_DRIFT_TOL", -1.0,
                                            ConservationViolation, "excitation number drifted",
                                            "excitation_conservation", "dynamics.trajectory_data"),
    "entanglement.ppt_report.trace": Fault(entanglement, "PT_TRACE_TOL", -1.0, TraceNotOne,
                                           "trace is ", "ppt_trace_preservation",
                                           "entanglement._pt_columns"),
    "entropy.EntropySeries.range": Fault(entropy, "RANGE_SLACK", -1.0, RangeViolation,
                                         "s_atom reaches ", "schmidt_equality",
                                         "entropy.EntropySeries.__post_init__"),
}
# The raises of a ValidationError that no row forces, keyed as the rows are: the function
# that holds each, and why no patched tolerance or solver reaches it.
EXCLUDED = {
    "entropy.EntropySeries.purity": ("entropy.EntropySeries.__post_init__", (
        "RANGE_SLACK reaches the entropy raise first: the initial entropies of a pure "
        "atom are exactly 0, which passes only at RANGE_SLACK >= 0, and then no purity "
        "exceeds 1 + RANGE_SLACK; test_states holds a hand-built series to it")),
}
ROWS = [pytest.param(fault, id=site, marks=pytest.mark.skipif(
            fault.name == "_dsbev" and states.lapack_solver() != "dsbev",
            reason="numpy's LAPACK has no dsbev")) for site, fault in FAULTS.items()]

SMALL_RUN = ["--n-f", "4", "--t-max", "0.2", "--dt", "0.1"]


@pytest.fixture
def fault(request, monkeypatch):
    row = request.param
    assert issubclass(row.error, ValidationError)  # a computed fault, never bad input
    monkeypatch.setattr(row.target, row.name, row.value)
    return row


@pytest.mark.parametrize("fault", ROWS, indirect=True)
def test_evolve_exits_numerical(fault, tmp_path, capsys):
    out = tmp_path / "x.csv"
    assert cli.main(["evolve", *SMALL_RUN, "--out", str(out)]) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"numerical validation error: {fault.message}")
    assert not out.exists()


@pytest.mark.parametrize("fault", ROWS, indirect=True)
def test_sweep_cell_records_the_class(fault, tmp_path, capsys):
    grid = SweepGrid(theta_values=np.array([0.4]), r_values=np.array([0.5, 0.9]), n_bar=0.1,
                     n_f=4, t_grid=dynamics.time_grid(0.2, 0.1))
    first, second = run_sweep(grid, workers=1)  # cell 0 is spot-checked, cell 1 is not
    for cell in (first, second) if fault.sweep == "every" else (first,):
        assert cell.status == f"error:{fault.error.__name__}"
        assert (cell.p, cell.r_bar, cell.e) == (None, None, None)
    if fault.sweep == "spot":
        assert second.status == "ok"
    out = tmp_path / "x.csv"
    assert cli.main(["sweep", *SMALL_RUN, "--grid", "1x1", "--out", str(out)]) == 3
    assert capsys.readouterr().err == (
        f"numerical validation error: no cell has status ok: 1 error:{fault.error.__name__}\n")
    assert not out.exists()


@pytest.mark.parametrize("fault", ROWS, indirect=True)
def test_selfcheck_fails_by_name(fault, capsys):
    code = cli.main(["selfcheck"])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(cli.SELFCHECKS) + 1  # every check runs, then the summary
    if fault.selfcheck is None:
        assert code == 0 and lines[-1] == f"selfcheck passed: {len(cli.SELFCHECKS)} checks"
        return
    assert code == 1
    assert any(line.startswith(f"[FAIL] {fault.selfcheck}: {fault.message}") for line in lines)
    assert lines[-1].startswith("selfcheck failed: ") and fault.selfcheck in lines[-1]


def _validation_raises(module) -> collections.Counter:
    """The function of each ``raise`` of a ``ValidationError`` in ``module``, counted."""
    sites = collections.Counter()

    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                walk(child, [*scope, child.name])
                continue
            if isinstance(child, ast.Raise) and isinstance(child.exc, ast.Call):
                error = getattr(module, getattr(child.exc.func, "id", ""), None)
                if isinstance(error, type) and issubclass(error, ValidationError):
                    sites[".".join([module.__name__.rsplit(".", 1)[-1], *scope])] += 1
            walk(child, scope)

    walk(ast.parse(inspect.getsource(module)), [])
    return sites


def test_every_computed_fault_is_listed():
    found = sum((_validation_raises(m) for m in (dynamics, entanglement, entropy, states)),
                collections.Counter())
    listed = collections.Counter([row.site for row in FAULTS.values()]
                                 + [site for site, _ in EXCLUDED.values()])
    assert found == listed
