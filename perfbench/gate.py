"""Output gate: checks every CSV a workload batch wrote.

* ``figures`` CSVs are deterministic and must equal the stored references
  byte for byte, i.e. to the 9 significant digits the CLI prints.
* At the default seed, every stochastic CSV must be byte-identical to its
  stored reference (``validate_*`` by SHA-256 digest).
* At any seed, ``validate`` must score every cell with no ``fail`` cell
  (|z| > 5), and every stochastic estimate of ``points`` must lie within
  |z| <= 5 of its reference: the exact value where one exists, otherwise
  the stored default-seed estimate (with both standard errors combined).

``validate``'s own verdict (exit 4 when fewer than 99% of cells have
|z| <= 3) is recorded but not gated: its cells are not independent (the K
values of a group share one realization, and every group reuses the same
seed), so warn cells arrive in clusters and the verdict reads FAIL at a
few percent of seeds with no cell beyond |z| = 5.

The simulator's packet success rates tag one active device per frame; at
T > 1 that is a different estimand from the analytic per-slot conditioning
(``cli.validate`` instantiates its grid at T = 1 for this reason), so the
``sim`` PSRs are compared with the stored ``sim`` estimate, and only its
throughputs with the analytic ``eval``.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

from workloads import DEFAULT_SEED, HERE

REFERENCE = os.path.join(HERE, "reference")
Z_LIMIT = 5.0
THROUGHPUTS = ("R_c", "R_cbar")
PSRS = ("Gamma_c", "Gamma_cbar")

#: stochastic output -> (reference CSV, metrics checked against it), ...
Z_REFERENCES = {
    "sim": (("eval_analytic.csv", THROUGHPUTS), ("sim.csv", PSRS)),
    "fading": (("fading.csv", THROUGHPUTS + PSRS),),
    "eval_mc": (("eval_exact.csv", THROUGHPUTS + PSRS),),
}


def sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def read_row(path: str) -> dict:
    """The single data row of an ``eval``/``sim``/``fading`` CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        raise ValueError(f"{path}: expected one data row, found {len(rows)}")
    return rows[0]


def z_failures(label: str, got: dict, ref: dict, metrics) -> list[str]:
    failures = []
    for m in metrics:
        diff = float(got[m]) - float(ref[m])
        se = math.hypot(float(got.get(m + "_se", 0.0)), float(ref.get(m + "_se", 0.0)))
        z = diff / se if se > 0 else (0.0 if diff == 0.0 else math.inf)
        if not abs(z) <= Z_LIMIT:
            failures.append(f"{label}: {m} = {got[m]} is |z| = {abs(z):.3g} from {ref[m]}")
    return failures


def _same_bytes(label: str, path: str, ref_path: str) -> list[str]:
    with open(path, "rb") as a, open(ref_path, "rb") as b:
        got, want = a.read(), b.read()
    if got == want:
        return []
    got_lines, want_lines = got.splitlines(), want.splitlines()
    for i, (g, w) in enumerate(zip(got_lines, want_lines)):
        if g != w:
            return [f"{label}: line {i + 1} is {g.decode()!r}, reference {w.decode()!r}"]
    return [f"{label}: {len(got_lines)} lines, reference has {len(want_lines)}"]


def validate_digests() -> dict:
    """Stored default-seed digests of the validate CSVs, by file name."""
    with open(os.path.join(REFERENCE, "validate.sha256")) as fh:
        return {name: digest for digest, name in (line.split() for line in fh)}


def _check_validate(label: str, path: str, seed: int) -> list[str]:
    failures = []
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    bad = [r for r in rows if r["status"] == "fail" or r["status"].startswith("error")]
    if bad:
        failures.append(f"{label}: {len(bad)} fail/error cells")
    if any(int(r["seed"]) != seed for r in rows):
        failures.append(f"{label}: seed column differs from the seed asked for")
    if seed == DEFAULT_SEED and sha256(path) != validate_digests().get(label + ".csv"):
        failures.append(f"{label}: CSV differs from the stored default-seed digest")
    return failures


def check_command(label: str, path: str, seed: int) -> list[str]:
    """Failure messages for one command's output; empty when it is right."""
    if not os.path.isfile(path):
        return [f"{label}: no output file"]
    if label.startswith("region_"):
        return _same_bytes(label, path, os.path.join(REFERENCE, label + ".csv"))
    if label.startswith("validate"):
        return _check_validate(label, path, seed)
    got = read_row(path)
    failures = []
    if int(got["seed"]) != seed:
        failures.append(f"{label}: seed column is {got['seed']}, asked for {seed}")
    for ref_name, metrics in Z_REFERENCES[label]:
        ref = read_row(os.path.join(REFERENCE, ref_name))
        failures += z_failures(label, got, ref, metrics)
    if seed == DEFAULT_SEED:
        failures += _same_bytes(label, path, os.path.join(REFERENCE, label + ".csv"))
    return failures
