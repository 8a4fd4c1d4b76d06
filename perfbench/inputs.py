"""Inputs of the benchmark workloads, made from the run's seed.

Plain Python and numpy: nothing here imports the program under test.  A
run with seed s measures rounds r = 0, 1, 2, ...; `round_inputs` gives the
command line or the call arguments of round r and what its oracle needs.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

import numpy as np

import oracles

# spectrum_generic: Spin(4) = SU(2) x SU(2) under a definite tensor drawn by
# `definite_tensor`, cut off at RADIUS times the tensor's smallest
# eigenvalue.  lielap then enumerates exactly the labels of Casimir value
# <= 43 (30 labels, dimensions up to 20) whatever the tensor, so the work is
# nearly the same for every tensor.  Round r of a run with seed s draws its
# tensor from (s, r).  On some tensors (2 rounds in 349 at this radius)
# lielap's real_roots lists one eigenvalue of a label twice and drops its
# neighbour (a FOUND line in CHANGES.md); the oracle rejects that table, so
# such a round makes the run read correct: false until the fault is fixed.
RADIUS = 46
CUTOFF_DENOMINATOR = 64
GAP = 1e-6

# spectrum_berger: the diagonal metric gram diag(1, 1, 2/3, 3) on U(2) in the
# basis H, A, B, e.  Its spectrum is rational and known in closed form, so it
# is fixed rather than drawn.  The cutoff keeps a round near two seconds.
BERGER_GRAM = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, Fraction(2, 3), 0), (0, 0, 0, 3))
BERGER_CUTOFF = 80

# witness_spin4: the search draws its tensors inside the program, and a search
# seed whose first tensor fails the battery costs a second trial (4 and 8 of
# the seeds 0..11 at level 4, 4, 8, 12, 18 and 29 of 0..31 at level 5), which
# doubles a round.  Level 4 keeps a round under a second.  Round r
# of a run with seed s searches with WITNESS_SEARCH_SEEDS[(s + r) mod 4], so
# that every run measures the same kind of search.
WITNESS_LEVEL = 4
WITNESS_SEARCH_SEEDS = (0, 1, 2, 3)

# operator_products: every ordered su2 x su2 label of dimension <= 256 (the
# acceptance test's set) under the Casimir tensor, and the labels of
# dimension <= GENERIC_MAX_DIM under a seeded generic tensor, whose cross
# factor terms make build_DV several times dearer per label.
CASIMIR_MAX_DIM = 256
GENERIC_MAX_DIM = 64

SPIN4_DIM = 6


def definite_tensor(rng: random.Random, n: int = SPIN4_DIM) -> list[list[Fraction]]:
    """Symmetric tensor over the denominator q = 5n + 1: diagonal 1 + a/q with
    |a| <= 8, off-diagonal b/q with b in +-{1, 2, 3, 4}.  For n >= 4 a row's
    off-diagonal mass 4(n - 1)/q is below (q - 8)/q, so the tensor is strictly
    diagonally dominant, hence positive definite; every off-diagonal entry is
    nonzero, so no factor block is diagonal."""
    q = 5 * n + 1
    rows = [[Fraction(0)] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = Fraction(q + rng.randint(-8, 8), q)
        for j in range(i + 1, n):
            rows[i][j] = rows[j][i] = Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)), q)
    return rows


def smallest_eigenvalue(rows) -> float:
    return float(np.linalg.eigvalsh(np.array(rows, dtype=float))[0])


def generic_spectrum(seed: int, rnd: int) -> tuple[list[list[Fraction]], Fraction]:
    """(tensor, cutoff) of round rnd of a spectrum_generic run with this seed.

    Small numerators make accidental coincidences likely: when the two
    factor blocks have equal traces, the spin-1/2 labels (1,0) and (0,1)
    share their one eigenvalue.  Tensors whose floating-point spectrum below
    the cutoff has two eigenvalues within GAP of each other are drawn again,
    so that every tensor is generic in the paper's sense."""
    rng = random.Random(f"spectrum_generic:{seed}:{rnd}")
    while True:
        tensor = definite_tensor(rng)
        lam = smallest_eigenvalue(tensor)
        cutoff = Fraction(round(RADIUS * lam * CUTOFF_DENOMINATOR), CUTOFF_DENOMINATOR)
        values = [row[0] for row in oracles.generic_spectrum_rows(tensor, cutoff)]
        if all(b - a > GAP * b for a, b in zip(values, values[1:])):
            return tensor, cutoff


def berger_gram() -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in BERGER_GRAM]


def product_labels(max_dim: int) -> list[list[int]]:
    """Ordered spin pairs (m, m') with (m + 1)(m' + 1) <= max_dim."""
    return [[m, mp] for m in range(max_dim) for mp in range(max_dim // (m + 1))]


def rows_to_json(rows) -> list[list[str]]:
    return [[str(Fraction(x)) for x in row] for row in rows]


def round_inputs(workload: str, seed: int, rnd: int) -> dict:
    """Round rnd of a run with the given seed, as JSON-ready data: "argv"
    for a CLI workload or the call arguments of operator_products, and
    what the oracle needs."""
    if workload == "spectrum_generic":
        tensor, cutoff = generic_spectrum(seed, rnd)
        return {"argv": ["spectrum", "--group", "spin4", "--tensor",
                         json.dumps(rows_to_json(tensor)), "--max-eig", str(cutoff)],
                "tensor": rows_to_json(tensor), "cutoff": str(cutoff)}
    if workload == "spectrum_berger":
        gram = rows_to_json(berger_gram())
        return {"argv": ["spectrum", "--group", "u2", "--gram", json.dumps(gram),
                         "--max-eig", str(BERGER_CUTOFF)],
                "gram": gram, "cutoff": str(BERGER_CUTOFF)}
    if workload == "witness_spin4":
        search = WITNESS_SEARCH_SEEDS[(seed + rnd) % len(WITNESS_SEARCH_SEEDS)]
        return {"argv": ["witness", "--group", "spin4", "--level", str(WITNESS_LEVEL),
                         "--seed", str(search)],
                "level": WITNESS_LEVEL}
    if workload == "operator_products":
        tensor = definite_tensor(random.Random(f"operator_products:{seed}:{rnd}"))
        return {"casimir_labels": product_labels(CASIMIR_MAX_DIM),
                "tensor": rows_to_json(tensor),
                "generic_labels": product_labels(GENERIC_MAX_DIM)}
    raise ValueError(f"unknown workload {workload!r}")


def check_output(workload: str, inp: dict, doc: dict) -> list[str]:
    """The oracle of a CLI workload applied to its JSON output."""
    if workload == "spectrum_generic":
        tensor = [[Fraction(x) for x in row] for row in inp["tensor"]]
        return oracles.check_generic_spectrum(doc, tensor, Fraction(inp["cutoff"]))
    if workload == "spectrum_berger":
        return oracles.check_berger_spectrum(doc, inp["gram"], Fraction(inp["cutoff"]))
    if workload == "witness_spin4":
        return oracles.check_witness(doc, inp["level"])
    raise ValueError(f"no output oracle for {workload!r}")
