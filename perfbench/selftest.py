"""Self-test of the benchmark's output checks.

    python3 perfbench/selftest.py

Runs one evolve request and one two-cell sweep request, at workers=2 and at
workers=1, and confirms that they pass the checks and that the sweep cells do
not depend on the worker count.  Then it perturbs copies of the outputs the
way a wrong program could and confirms that every perturbation is caught and
counted in fail_ratio.  Exits 0 only if all of that holds.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import os
import shutil
import sys
import tempfile

import oracle
import run

SEED = 7


def perturbed_csv(req: run.Request, work: str, name: str, row: int, change) -> run.Request:
    """A copy of ``req`` whose CSV has ``change`` applied to column ``name`` of ``row``."""
    with open(req.output, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    col = oracle.EVOLVE_HEADER.split(",").index(name)
    fields = lines[row + 1].split(",")
    fields[col] = change(fields[col])
    lines[row + 1] = ",".join(fields)
    out = copy.copy(req)
    out.output = os.path.join(work, f"perturbed-{name}-{row}.csv")
    with open(out.output, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    shutil.copy(req.output + ".meta.json", out.output + ".meta.json")
    return out


def perturbed_cells(req: run.Request, work: str, label: str, edit) -> run.Request:
    with open(req.output, encoding="utf-8") as fh:
        data = json.load(fh)
    edit(data["cells"])
    out = copy.copy(req)
    out.output = os.path.join(work, f"perturbed-{label}.json")
    with open(out.output, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return out


def with_result(req: run.Request, **changes) -> run.Request:
    out = copy.copy(req)
    out.result = dataclasses.replace(req.result, **changes)
    return out


def main() -> int:
    evolve_wl = run.WORKLOADS["evolve-cold"]
    sweep_wl = dataclasses.replace(run.WORKLOADS["sweep-warm"], shape=(1, 2))
    os.makedirs(run.OUT, exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=run.OUT)
    try:
        ev = run.run_request(evolve_wl, run.make_request(evolve_wl, SEED, 0), work)
        sw = run.run_request(sweep_wl, run.make_request(sweep_wl, SEED, 0), work)
        serial = run.run_request(sweep_wl, run.make_request(sweep_wl, SEED, 0), work, workers=1)
        clean = [run.check_request(evolve_wl, ev), run.check_request(sweep_wl, sw),
                 run.check_request(sweep_wl, serial)]
        with open(sw.output, encoding="utf-8") as a, open(serial.output, encoding="utf-8") as b:
            deterministic = json.load(a)["cells"] == json.load(b)["cells"]

        checked = ev.samples[0]
        unchecked = next(i for i in range(1, run.T_SAMPLES) if i not in ev.samples)
        k = sw.oracle_cell
        bump = lambda by: (lambda v: repr(float(v) + by))  # noqa: E731
        perturbations = {
            "S_a off by 1e-9 at an oracle sample":
                (evolve_wl, perturbed_csv(ev, work, "S_a", checked, bump(1e-9))),
            "purity_f off by 1e-9 at an oracle sample":
                (evolve_wl, perturbed_csv(ev, work, "purity_f", checked, bump(1e-9))),
            "lambda_m off by 1e-10 at an oracle sample":
                (evolve_wl, perturbed_csv(ev, work, "lambda_m", checked, bump(-1e-10))),
            "n_neg_sig off by one at an oracle sample":
                (evolve_wl, perturbed_csv(ev, work, "n_neg_sig", checked,
                                          lambda v: str(int(v) + 1))),
            "excitation number drifts by 1e-11 at an unchecked sample":
                (evolve_wl, perturbed_csv(ev, work, "N_expect", unchecked, bump(1e-11))),
            "S_af drifts by 1e-9 at an unchecked sample":
                (evolve_wl, perturbed_csv(ev, work, "S_af", unchecked, bump(1e-9))),
            "non-zero exit": (evolve_wl, with_result(ev, code=3)),
            "traceback on stderr": (evolve_wl, with_result(ev, stderr="Traceback (most recent")),
            "P off by 1e-10 in the oracle cell":
                (sweep_wl, perturbed_cells(sw, work, "p",
                                           lambda c: c[k].update(p=c[k]["p"] + 1e-10))),
            "a cell with an error status":
                (sweep_wl, perturbed_cells(sw, work, "error",
                                           lambda c: c[1 - k].update(status="error:NotPositive"))),
            "oracle cell reports a documented skip it should not":
                (sweep_wl, perturbed_cells(sw, work, "skip",
                                           lambda c: c[k].update(status="exchange_skipped"))),
            "n_neg_sig off by one in the oracle cell":
                (sweep_wl, perturbed_cells(sw, work, "nsig",
                                           lambda c: c[k].update(n_sig=c[k]["n_sig"] + 1))),
        }
        caught = {label: run.check_request(wl, req) for label, (wl, req) in perturbations.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ok = True
    for label, problems in zip(("evolve", "sweep workers=2", "sweep workers=1"), clean):
        print(f"unperturbed {label}: {'passes' if not problems else problems}")
        ok &= not problems
    print(f"worker-count determinism: {'holds' if deterministic else 'FAILS'}")
    ok &= deterministic
    for label, problems in caught.items():
        print(f"{'caught' if problems else 'MISSED'}: {label}" +
              (f" -> {problems[0]}" if problems else ""))
        ok &= bool(problems)
    attempted, failed = run.tally(clean + list(caught.values()))
    print(f"fail_ratio over these {attempted} operations = {failed / attempted!r} "
          f"({failed} failed, {len(caught)} perturbed)")
    ok &= failed == len(caught)
    print("self-test passed" if ok else "self-test FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
