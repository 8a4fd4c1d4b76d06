"""Checks of lielap's outputs by computations made apart from lielap.

Nothing here imports the program under test.  Each check returns a list of
problems, empty when the output is right.

- Generic spectra: D_V(s) built in floating point from the generator
  formulas, made hermitian by the invariant weights, and diagonalised.
- Berger spectra on U(2): the closed form a m(m+2) + (b-a) k^2 + c l^2.
- Witness certificates: every resultant recomputed modulo a prime from the
  operator, its characteristic polynomial and the resultant, all mod p.
- Operators: Casimir scalars, the trace identity and weighted hermiticity,
  exactly over the rationals.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from itertools import product

import numpy as np

REL_TOL = 1e-9

# A prime p = 1 (mod 4), so that i maps to a square root of -1 in GF(p).
PRIME = 2147483629


def _sqrt_minus_one(p: int) -> int:
    g = 2
    while pow(g, (p - 1) // 2, p) != p - 1:
        g += 1
    return pow(g, (p - 1) // 4, p)


I_MOD = _sqrt_minus_one(PRIME)


# -- representations ---------------------------------------------------------


def su2_triple(m: int):
    """(H, A, B) of the spin-m irreducible on v_l = z1^(m-l) z2^l as sparse
    maps {(row, col): (real, imag)}:  H v_l = i(m-2l) v_l,
    A v_l = i(m-l) v_{l+1} + i l v_{l-1},  B v_l = (m-l) v_{l+1} - l v_{l-1}."""
    H, A, B = {}, {}, {}
    for l in range(m + 1):
        if m - 2 * l:
            H[l, l] = (0, m - 2 * l)
        if l < m:
            A[l + 1, l] = (0, m - l)
            B[l + 1, l] = (m - l, 0)
        if l > 0:
            A[l - 1, l] = (0, l)
            B[l - 1, l] = (-l, 0)
    return H, A, B


def _kron_embed(g: dict, left: int, d: int, right: int) -> dict:
    out = {}
    for (r, c), v in g.items():
        for a in range(left):
            for b in range(right):
                out[(a * d + r) * right + b, (a * d + c) * right + b] = v
    return out


def generators(spins, weight=()) -> list[dict]:
    """Sparse generators of V_m1 x ... x V_mk x C_l in the basis order
    H1, A1, B1, ..., e1, ...; the first factor's index varies slowest and a
    torus direction acts as the scalar i*l."""
    dims = [m + 1 for m in spins]
    n = math.prod(dims)
    gens = []
    for j, m in enumerate(spins):
        left, right = math.prod(dims[:j]), math.prod(dims[j + 1:])
        gens += [_kron_embed(g, left, dims[j], right) for g in su2_triple(m)]
    gens += [{(i, i): (0, l) for i in range(n)} if l else {} for l in weight]
    return gens


def invariant_weights(spins) -> list[int]:
    """Squared norms prod_j l_j! (m_j - l_j)! of the basis vectors in the
    invariant inner product, in Kronecker order."""
    return [
        math.prod(math.factorial(l) * math.factorial(m - l) for m, l in zip(spins, idx))
        for idx in product(*(range(m + 1) for m in spins))
    ]


def _dense(g: dict, n: int) -> np.ndarray:
    out = np.zeros((n, n), dtype=complex)
    for (r, c), (re, im) in g.items():
        out[r, c] = complex(re, im)
    return out


def hermitian_operator(spins, weight, tensor) -> np.ndarray:
    """W^(1/2) D_V(s) W^(-1/2) in floating point, D_V(s) = -sum S_pq X_p X_q."""
    n = math.prod(m + 1 for m in spins)
    X = [_dense(g, n) for g in generators(spins, weight)]
    S = np.array(tensor, dtype=float)
    D = np.zeros((n, n), dtype=complex)
    for p, Xp in enumerate(X):
        D -= Xp @ sum(S[p, q] * Xq for q, Xq in enumerate(X))
    w = np.sqrt(np.array(invariant_weights(spins), dtype=float))
    D = w[:, None] * D / w[None, :]
    return (D + D.conj().T) / 2


def rep_type(spins, weight=()) -> str:
    if any(weight):
        return "complex"
    return "quaternionic" if sum(m % 2 for m in spins) % 2 else "real"


def format_label(spins, weight=()) -> str:
    s = ",".join(map(str, spins))
    return f"{s};{','.join(map(str, weight))}" if weight else s


def _close(x: float, y: float) -> bool:
    return abs(x - y) <= REL_TOL * max(1.0, abs(x), abs(y))


# -- spectrum_generic --------------------------------------------------------


def generic_spectrum_rows(tensor, cutoff, k: int = 2):
    """Eigen-groups <= cutoff of every SU(2)^k label, from the numeric route:
    (value, real multiplicity, label, type, eigenspace dim in V).  The bound
    D_V(s) >= lambda_min(S) Casimir(V) limits the labels."""
    cutoff = float(cutoff)
    lam = float(np.linalg.eigvalsh(np.array(tensor, dtype=float))[0])
    radius = cutoff / (lam * (1 - 1e-9))
    rows = []
    m_max = math.isqrt(int(radius) + 1) + 1
    for spins in product(range(m_max + 1), repeat=k):
        if sum(m * (m + 2) for m in spins) > radius:
            continue
        vals = np.linalg.eigvalsh(hermitian_operator(spins, (), tensor))
        typ = rep_type(spins)
        cls = 2 if typ == "quaternionic" else 1
        dim = len(vals)
        for i in range(0, dim, cls):
            group = vals[i:i + cls]
            v = float(group.mean())
            if v <= cutoff * (1 + REL_TOL):
                rows.append((v, cls * dim, format_label(spins), typ, cls, float(np.ptp(group))))
    rows.sort()
    return rows


def _blocks(values):
    """Index ranges of runs of consecutive values that agree within REL_TOL."""
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or not _close(values[i - 1], values[i]):
            yield start, i
            start = i


def check_generic_spectrum(doc: dict, tensor, cutoff, k: int = 2) -> list[str]:
    """The table of a generic tensor: its values and real multiplicities
    equal the numeric ones label by label, and every entry is irreducible,
    of multiplicity dim V (real type) or 2 dim V (quaternionic type)."""
    problems = []
    if doc.get("irreducible_spectrum") is not True:
        problems.append("table does not report an irreducible spectrum")
    c = float(cutoff)
    # a value within the tolerance of the cutoff cannot be placed by floats
    want = [r for r in generic_spectrum_rows(tensor, cutoff, k) if not _close(r[0], c)]
    for v, *_, spread in want:
        if spread > REL_TOL * max(1.0, v):
            problems.append(f"quaternionic pair at {v} is split by {spread}")
    got = []
    for e in doc.get("entries", []):
        v = float(e["eigenvalue"])
        if _close(v, c):
            continue
        cons = e.get("contributors", [])
        if e.get("irreducible") is not True or e.get("failed_condition") is not None:
            problems.append(f"entry {v} is not irreducible")
        if len(cons) != 1:
            problems.append(f"entry {v} has {len(cons)} contributors")
            continue
        con = cons[0]
        got.append((v, e["multiplicity"], con["label"], con["type"], con["eigenspace_dim"]))
    got.sort()
    if len(got) != len(want):
        problems.append(f"{len(got)} entries below the cutoff, numeric route has {len(want)}")
        return problems
    for (gv, *_), (wv, *_) in zip(got, want):
        if not _close(gv, wv):
            problems.append(f"eigenvalue {gv} differs from numeric {wv}")
            return problems
    for lo, hi in _blocks([w[0] for w in want]):
        g = sorted(r[1:] for r in got[lo:hi])
        w = sorted(r[1:5] for r in want[lo:hi])
        if g != w:
            problems.append(f"near {want[lo][0]}: table {g}, numeric {w}")
    return problems


# -- spectrum_berger ---------------------------------------------------------


def berger_spectrum(gram, cutoff) -> dict[Fraction, dict]:
    """Exact spectrum <= cutoff of the U(2) metric with diagonal gram
    diag(g_H, g_A, g_B, g_e), g_H = g_A: the tensor is diag(a, a, b, c) with
    a = 1/g_H, b = 1/g_B, c = 1/g_e, and on the label (m; l), m = l (mod 2),
    D_V(s) = a Casimir + (b - a) (iB)^2 + c l^2 has the eigenvalues
    a m(m+2) + (b-a) k^2 + c l^2 for k = m, m-2, ..., -m.

    Returns {value: {"multiplicity": sum of dim V over labels and k,
    "contributors": {canonical label: eigenspace dim in V}}}, a label and its
    dual (m; -l) sharing one canonical label (m; |l|)."""
    cutoff = Fraction(cutoff)
    g = [[Fraction(x) for x in row] for row in gram]
    if any(g[i][j] for i in range(4) for j in range(4) if i != j) or g[0][0] != g[1][1]:
        raise ValueError("closed form needs a diagonal gram with g_H = g_A")
    a, b, c = 1 / g[0][0], 1 / g[2][2], 1 / g[3][3]
    m_max = math.isqrt(int(cutoff / min(a, b))) + 1
    l_max = math.isqrt(int(cutoff / c)) + 1
    spectrum: dict[Fraction, dict] = {}
    for m in range(m_max + 1):
        for l in range(-l_max, l_max + 1):
            if (m + l) % 2:
                continue  # -Id x (1/2) acts by (-1)^(m+l): no descent to U(2)
            name = format_label((m,), (abs(l),))
            for k in range(-m, m + 1, 2):
                value = a * m * (m + 2) + (b - a) * k * k + c * l * l
                if value > cutoff:
                    continue
                entry = spectrum.setdefault(value, {"multiplicity": 0, "contributors": {}})
                entry["multiplicity"] += m + 1
                if l >= 0:
                    cons = entry["contributors"]
                    cons[name] = cons.get(name, 0) + 1
    return spectrum


def berger_verdict(contributors: dict) -> tuple[bool, str | None]:
    """Irreducible iff one label (up to duality) with eigenspace dim 1, or 2
    on quaternionic type; otherwise the condition letter a, b or c."""
    if len(contributors) > 1:
        return False, "a"
    ((name, inner),) = contributors.items()
    spins, _, weight = name.partition(";")
    quaternionic = rep_type([int(spins)], [int(weight)] if weight else []) == "quaternionic"
    if quaternionic:
        return inner == 2, None if inner == 2 else "c"
    return inner == 1, None if inner == 1 else "b"


def check_berger_spectrum(doc: dict, gram, cutoff) -> list[str]:
    want = berger_spectrum(gram, cutoff)
    keys = sorted(want)
    floats = [float(x) for x in keys]
    seen = set()
    problems = []
    for e in doc.get("entries", []):
        if e.get("exact") is not None:
            value = Fraction(e["exact"])
            if value not in want:
                problems.append(f"exact value {value} is not in the closed-form spectrum")
                continue
        else:
            x = float(e["eigenvalue"])
            i = bisect.bisect_left(floats, x)
            near = [keys[j] for j in (i - 1, i) if 0 <= j < len(keys) and _close(floats[j], x)]
            if len(near) != 1:
                problems.append(f"eigenvalue {x} matches {len(near)} closed-form values")
                continue
            value = near[0]
        if value in seen:
            problems.append(f"value {value} listed twice")
            continue
        seen.add(value)
        w = want[value]
        if e["multiplicity"] != w["multiplicity"]:
            problems.append(
                f"multiplicity of {value}: table {e['multiplicity']}, closed form {w['multiplicity']}"
            )
        cons = {c["label"]: c["eigenspace_dim"] for c in e.get("contributors", [])}
        if cons != w["contributors"]:
            problems.append(f"contributors of {value}: table {cons}, closed form {w['contributors']}")
        verdict = berger_verdict(w["contributors"])
        if (e.get("irreducible"), e.get("failed_condition")) != verdict:
            problems.append(
                f"verdict of {value}: table {(e.get('irreducible'), e.get('failed_condition'))}, "
                f"closed form {verdict}"
            )
    missing = len(want) - len(seen)
    if missing:
        problems.append(f"{missing} closed-form eigenvalues missing from the table")
    return problems


# -- witness_spin4: certificates mod p ---------------------------------------


def _mod(x, p: int = PRIME) -> int:
    x = Fraction(x)
    if x.denominator % p == 0:
        raise ZeroDivisionError(f"denominator of {x} vanishes mod {p}")
    return x.numerator * pow(x.denominator, -1, p) % p


def operator_mod_p(spins, tensor, p: int = PRIME) -> list[list[int]]:
    """D_V(s) = -sum S_pq X_p X_q mod p, with i mapped to a root of -1."""
    n = math.prod(m + 1 for m in spins)
    rows = []
    for g in generators(spins):
        r = [[] for _ in range(n)]
        for (i, j), (re, im) in g.items():
            r[i].append((j, (re + im * I_MOD) % p))
        rows.append(r)
    S = [[_mod(x, p) for x in row] for row in tensor]
    D = [[0] * n for _ in range(n)]
    for a, Xa in enumerate(rows):
        for b, Xb in enumerate(rows):
            c = -S[a][b] % p
            if not c:
                continue
            for i in range(n):
                Di = D[i]
                for k, x in Xa[i]:
                    cx = c * x
                    for j, y in Xb[k]:
                        Di[j] = (Di[j] + cx * y) % p
    return D


def charpoly_mod_p(M: list[list[int]], p: int = PRIME) -> list[int]:
    """det(X I - M) mod p, ascending, by reduction to Hessenberg form."""
    n = len(M)
    H = [row[:] for row in M]
    for m in range(1, n - 1):
        piv = next((i for i in range(m, n) if H[i][m - 1]), None)
        if piv is None:
            continue
        if piv != m:
            H[piv], H[m] = H[m], H[piv]
            for row in H:
                row[piv], row[m] = row[m], row[piv]
        inv = pow(H[m][m - 1], -1, p)
        for i in range(m + 1, n):
            u = H[i][m - 1] * inv % p
            if not u:
                continue
            Hi, Hm = H[i], H[m]
            H[i] = [(x - u * y) % p for x, y in zip(Hi, Hm)]
            for row in H:
                row[m] = (row[m] + u * row[i]) % p
    # p_k = (X - h_kk) p_{k-1} - sum_i h_{k-i,k} (prod sub-diagonal) p_{k-i-1}
    polys = [[1]]
    for k in range(n):
        nxt = [0] + polys[k]
        for j, c in enumerate(polys[k]):
            nxt[j] = (nxt[j] - H[k][k] * c) % p
        t = 1
        for i in range(1, k + 1):
            t = t * H[k - i + 1][k - i] % p
            if not t:
                break
            c = t * H[k - i][k] % p
            for j, q in enumerate(polys[k - i]):
                nxt[j] = (nxt[j] - c * q) % p
        polys.append(nxt)
    return polys[n]


def _trim(f: list[int]) -> list[int]:
    f = list(f)
    while f and not f[-1]:
        f.pop()
    return f


def _polyrem(f: list[int], g: list[int], p: int) -> list[int]:
    f = f[:]
    inv = pow(g[-1], -1, p)
    while len(f) >= len(g) and f:
        q = f[-1] * inv % p
        shift = len(f) - len(g)
        for i, c in enumerate(g):
            f[shift + i] = (f[shift + i] - q * c) % p
        f = _trim(f)
    return f


def resultant_mod_p(f: list[int], g: list[int], p: int = PRIME) -> int:
    """Sylvester resultant lc(f)^deg(g) prod g(roots of f), mod p, by the
    Euclidean recurrence res(f, g) = (-1)^(nm) lc(g)^(n - deg r) res(g, r)."""
    f, g = _trim([x % p for x in f]), _trim([x % p for x in g])
    if not f or not g:
        return 0
    out = 1
    while True:
        n, m = len(f) - 1, len(g) - 1
        if m == 0:
            return out * pow(g[0], n, p) % p
        if n == 0:
            return out * pow(f[0], m, p) % p
        r = _polyrem(f, g, p)
        if not r:
            return 0
        if n * m % 2:
            out = -out
        out = out * pow(g[-1], n - (len(r) - 1), p) % p
        f, g = g, r


def derivative_mod_p(f: list[int], p: int = PRIME) -> list[int]:
    return [i * c % p for i, c in enumerate(f)][1:]


def check_witness(doc: dict, level: int, p: int = PRIME) -> list[str]:
    """A successful spin4 witness: every certificate nonzero and equal, mod p,
    to the resultant recomputed from the reported tensor (kind b: p_V, p_V';
    kind c: p_V, p_V''; kind a: p_V, p_W; p_V = det(D_V(s) - X I)); the
    battery covers every label and pair; every odd spin pair is certified."""
    problems = []
    if doc.get("success") is not True:
        problems.append("search does not report success")
    tensor = [[Fraction(x) for x in row] for row in doc["tensor"]["tensor"]]
    spins = {format_label(s): s for s in product(range(level + 1), repeat=2)}
    if sorted(doc.get("labels", [])) != sorted(spins):
        problems.append("labels differ from every spin pair up to the level")
        return problems
    polys = {}
    for name, s in spins.items():
        cp = charpoly_mod_p(operator_mod_p(s, tensor, p), p)
        # det(D - X I) = (-1)^dim det(X I - D)
        polys[name] = [(-c) % p for c in cp] if (len(cp) - 1) % 2 else cp
    expected = {}
    names = list(doc["labels"])
    for i, v in enumerate(names):
        kind = "c" if rep_type(spins[v]) == "quaternionic" else "b"
        expected[(kind, v)] = None
        for w in names[i + 1:]:
            expected[("a", v, w)] = None
    for cert in doc.get("certificates", []):
        key = (cert["kind"], *cert["labels"])
        if key not in expected or expected[key] is not None:
            problems.append(f"unexpected or repeated certificate {key}")
            continue
        value = Fraction(cert["value"])
        if cert.get("nonzero") is not True or value == 0:
            problems.append(f"certificate {key} is zero")
        f = polys[key[1]]
        if key[0] == "a":
            g = polys[key[2]]
        elif key[0] == "b":
            g = derivative_mod_p(f, p)
        else:
            g = derivative_mod_p(derivative_mod_p(f, p), p)
        residue = resultant_mod_p(f, g, p)
        expected[key] = residue
        if _mod(value, p) != residue:
            problems.append(f"certificate {key}: value mod p {_mod(value, p)}, recomputed {residue}")
    missing = [k for k, v in expected.items() if v is None]
    if missing:
        problems.append(f"{len(missing)} certificates missing, e.g. {missing[0]}")
    pairs = {tuple(e["spins"]): e for e in doc.get("pairs", [])}
    for m in range(1, level + 1, 2):
        for mp in range(m, level + 1, 2):
            e = pairs.get((m, mp))
            if e is None or e.get("ok") is not True:
                problems.append(f"pairs pipeline ({m},{mp}) missing or failed")
            elif Fraction(e["epsilon"]) != Fraction(1, 2 * mp):
                problems.append(f"pairs ({m},{mp}) epsilon {e['epsilon']} is not 1/{2 * mp}")
    return problems


# -- operator_products -------------------------------------------------------


def check_casimir_scalar(entries: dict, spins) -> list[str]:
    """D_V of the Casimir tensor is sum m_j(m_j+2) times the identity."""
    value = sum(m * (m + 2) for m in spins)
    n = math.prod(m + 1 for m in spins)
    diagonal = 0
    for (i, j), (re, im) in entries.items():
        if not (re or im):
            continue
        if i != j or re != value or im:
            return [f"Casimir operator of {format_label(spins)} is not {value} I at ({i}, {j})"]
        diagonal += 1
    if diagonal != (n if value else 0):
        return [f"Casimir operator of {format_label(spins)} misses diagonal entries"]
    return []


def check_trace(entries: dict, spins, tensor) -> list[str]:
    """tr D_V = dim V sum_j (S_Hj + S_Aj + S_Bj) m_j(m_j+2)/3: cross-factor
    terms are traceless and tr(g_a g_b) = -delta_ab m(m+2)(m+1)/3."""
    n = math.prod(m + 1 for m in spins)
    want = n * sum(
        sum(Fraction(tensor[3 * j + a][3 * j + a]) for a in range(3)) * m * (m + 2) / 3
        for j, m in enumerate(spins)
    )
    re = sum((v[0] for (i, j), v in entries.items() if i == j), Fraction(0))
    im = sum((v[1] for (i, j), v in entries.items() if i == j), Fraction(0))
    if (re, im) != (want, 0):
        return [f"trace of {format_label(spins)} is {re} + {im}i, identity gives {want}"]
    return []


def check_weighted_hermitian(entries: dict, spins) -> list[str]:
    """w_i D_ij = conj(D_ji) w_j for the invariant weights w, compared as
    integer cross products of numerators and denominators."""
    w = invariant_weights(spins)
    zero = (0, 0)
    for (i, j), (re, im) in entries.items():
        tre, tim = entries.get((j, i), zero)
        wi, wj = w[i], w[j]
        if (wi * re.numerator * tre.denominator != wj * tre.numerator * re.denominator
                or wi * im.numerator * tim.denominator != -wj * tim.numerator * im.denominator):
            return [f"{format_label(spins)} is not weighted hermitian at ({i}, {j})"]
    return []
