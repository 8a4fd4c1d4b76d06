"""Command-line front end.

Exit codes: 0 success, 1 a check or search failed or standard output was
closed before the output ended, 2 usage or input-file problems or an
--output path that cannot be written, 3 mathematical domain violations
(indefinite tensor, bad cutoff, a smallest tensor eigenvalue too close to
0 to bound).
JSON output is deterministic: keys sorted, floats at fixed precision, and
searches driven entirely by --seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .algebra_core import (
    GroupSpec,
    SymTensor,
    group_from_json,
    identity_tensor,
    is_positive_definite,
    preset,
    symmetric_product,
    tensor_from_json,
)
from .errors import DomainError, WitnessSearchExhausted
from .irreps import (
    build_irrep,
    classify_type,
    descends_to_quotient,
    format_label,
    label,
    labels_up_to_level,
    quaternionic_structure,
)
from .linalg import IntMatrix
from .operator import build_DV, casimir_tensor
from .polycert import PRIME, certificate, char_poly_of, char_polys_of
from .spectrum import (
    assemble_spectrum,
    table_to_csv,
    table_to_json,
    table_to_text,
)
from .witness import (
    battery_json,
    certificate_battery,
    pairs_mixed_witness,
    pairs_pipeline,
    su2_even_b_witness,
    witness_report_json,
    witness_search,
)


class UsageError(Exception):
    """Bad flags, unreadable input files or an unwritable --output: exit code 2."""


def emit(text: str, output: str | None) -> None:
    """Write text, ended by exactly one newline, to the --output path or
    to stdout: the same bytes either way."""
    text = text.rstrip("\n") + "\n"
    if not output:
        # a line at a time: one large write into a pipe that its reader
        # closes can drop the rest with no error, while the flush of a
        # full buffer raises BrokenPipeError
        sys.stdout.writelines(text.splitlines(keepends=True))
        return
    try:
        with open(output, "w") as fh:
            fh.write(text)
    except OSError as e:
        raise UsageError(f"cannot write --output {output}: {e}") from e


def check_output(output: str | None) -> None:
    """UsageError unless the --output path can be opened for writing,
    checked before any work on the path that symlinks lead to; a file
    that the check makes is removed.  An existing path that is neither a
    regular file nor a directory, such as a FIFO or a device, is left to
    `emit`, which opens it once."""
    if not output:
        return
    path = os.path.realpath(output)
    existed = os.path.exists(path)
    if existed and not os.path.isfile(path) and not os.path.isdir(path):
        return
    try:
        with open(path, "a"):
            pass
    except OSError as e:
        raise UsageError(f"cannot write --output {output}: {e}") from e
    if not existed:
        os.remove(path)


def dump_json(doc: dict, output: str | None) -> None:
    emit(json.dumps(doc, indent=2, sort_keys=True), output)


# -- input loading ---------------------------------------------------------------


def load_group(args) -> GroupSpec:
    if getattr(args, "group", None):
        try:
            return preset(args.group)
        except DomainError as e:
            raise UsageError(str(e)) from e
    path = getattr(args, "group_file", None)
    if not path:
        raise UsageError("one of --group or --group-file is required")
    try:
        with open(path) as fh:
            doc = json.load(fh)
        return group_from_json(doc)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as e:
        raise UsageError(f"cannot load group file {path}: {e}") from e


def _matrix_doc(raw: str, key: str) -> dict:
    raw = raw.strip()
    if raw == "identity":
        return {"identity": True}
    if raw.startswith("[") or raw.startswith("{"):
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as e:
            raise UsageError(f"bad inline JSON for --{key}: {e}") from e
    else:
        try:
            with open(raw) as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise UsageError(f"cannot load --{key} file {raw}: {e}") from e
    if isinstance(doc, list):
        doc = {key: doc}
    if not isinstance(doc, dict):
        raise UsageError(f"--{key} must hold a JSON object or a list of rows")
    return doc


def load_tensor(args, spec: GroupSpec) -> SymTensor:
    tensor_raw = getattr(args, "tensor", None)
    gram_raw = getattr(args, "gram", None)
    if tensor_raw and gram_raw:
        raise UsageError("--tensor and --gram are mutually exclusive")
    raw, key = (tensor_raw, "tensor") if tensor_raw else (gram_raw, "gram")
    if raw is None:
        return identity_tensor(spec.dim)
    doc = _matrix_doc(raw, key)
    if doc.get("identity"):
        return identity_tensor(spec.dim)
    try:
        tensor = tensor_from_json(doc)
    except (DomainError, ValueError, TypeError, KeyError) as e:
        # indefinite gram is a math-domain problem, not a parse problem
        if isinstance(e, DomainError):
            raise
        raise UsageError(f"bad --{key} value: {e}") from e
    if tensor.n != spec.dim:
        raise DomainError(
            f"tensor has size {tensor.n}, algebra has dimension {spec.dim}"
        )
    return tensor


# -- subcommands -----------------------------------------------------------------


def cmd_spectrum(args) -> int:
    spec = load_group(args)
    tensor = load_tensor(args, spec)
    if args.max_eig is None:
        raise UsageError("--max-eig is required")
    try:
        cutoff = Fraction(args.max_eig)
    except (ValueError, ZeroDivisionError) as e:
        raise UsageError(f"bad --max-eig value {args.max_eig!r}: {e}") from e
    table = assemble_spectrum(spec, tensor, cutoff)
    if args.format == "json":
        dump_json(table_to_json(table), args.output)
    elif args.format == "csv":
        emit(table_to_csv(table), args.output)
    else:
        emit(table_to_text(table), args.output)
    return 0


def _require_level(args) -> int:
    if args.level is None:
        raise UsageError("--level is required")
    if args.level < 0:
        raise UsageError(f"--level must be nonnegative, got {args.level}")
    return args.level


def cmd_certify(args) -> int:
    spec = load_group(args)
    level = _require_level(args)
    tensor = load_tensor(args, spec)
    if not is_positive_definite(tensor):
        raise DomainError("coefficient tensor must be positive definite")
    labels = labels_up_to_level(spec, level)
    certs = certificate_battery(char_polys_of(spec, labels, tensor, PRIME))
    verdict = all(c.verdict for c in certs)
    doc = {**battery_json(spec, level, tensor, labels, certs), "verdict": verdict}
    if args.format == "json":
        dump_json(doc, args.output)
    else:
        lines = [
            f"cert {c.kind} {' '.join(format_label(l) for l in c.labels)}: "
            f"{'nonzero' if c.verdict else 'ZERO'}"
            for c in certs
        ]
        lines.append(f"verdict: {'true' if verdict else 'false'}")
        emit("\n".join(lines), args.output)
    return 0 if verdict else 1


def cmd_witness(args) -> int:
    spec = load_group(args)
    level = _require_level(args)
    if args.trials < 1:
        raise UsageError(f"--trials must be at least 1, got {args.trials}")
    try:
        report = witness_search(spec, level, trials=args.trials, seed=args.seed)
    except WitnessSearchExhausted as e:
        if e.best is None:
            raise
        best = e.best
        if args.format == "json":
            dump_json(witness_report_json(best), args.output)
        else:
            lines = [
                f"group {spec.display_name} level {level} seed {args.seed}: search "
                f"exhausted; best trial {best.trial} certified {best.score} "
                f"of {len(best.certificates)} certificates"
            ]
            for c in best.certificates:
                if not c.verdict:
                    labs = " ".join(format_label(l) for l in c.labels)
                    lines.append(f"zero certificate {c.kind}: {labs}")
            emit("\n".join(lines), args.output)
        return 1
    doc = witness_report_json(report)

    failures = []
    if spec.k == 2 and spec.n == 0:
        pairs = [
            (m, mp)
            for m in range(1, level + 1, 2)
            for mp in range(m, level + 1, 2)
            if descends_to_quotient(spec, label((m, mp)))
        ]
        doc["pairs"] = []
        for m, mp in pairs:
            try:
                pr = pairs_pipeline(m, mp)
            except WitnessSearchExhausted as e:
                pr = e.best
            entry = {
                "spins": [m, mp],
                "epsilon": str(pr.epsilon),
                "alpha": str(pr.alpha) if pr.alpha is not None else None,
                "ok": pr.ok,
            }
            doc["pairs"].append(entry)
            if not pr.ok:
                failures.append(f"pairs ({m},{mp})")
    if spec.k == 1 and spec.n >= 1:
        doc["mixed"] = []
        for lab in report.labels:
            if not any(lab.weight):
                continue
            mw = pairs_mixed_witness(spec, lab, lab.weight)
            ok = mw.matches_expected and mw.certificate.verdict
            doc["mixed"].append(
                {
                    "label": format_label(lab),
                    "pairing": str(mw.pairing),
                    "ok": ok,
                }
            )
            if not ok:
                failures.append(f"mixed {format_label(lab)}")

    if args.format == "json":
        dump_json(doc, args.output)
    else:
        lines = [
            f"group {spec.display_name} level {level} seed {args.seed}: "
            f"certified on trial {report.trial} "
            f"({len(report.certificates)} certificates)"
        ]
        for extra in ("pairs", "mixed"):
            for entry in doc.get(extra, []):
                tag = entry.get("spins") or entry.get("label")
                lines.append(f"{extra} {tag}: {'ok' if entry['ok'] else 'FAILED'}")
        emit("\n".join(lines), args.output)
    return 1 if failures else 0


# -- paper-identity checks ---------------------------------------------------------


def check_casimir(args):
    spec = preset("su2")
    cas = casimir_tensor(spec)
    for m in range(0, args.max_m + 1):
        op = build_DV(spec, label((m,)), cas)
        if op.matrix != IntMatrix.identity(op.dim) * (m * (m + 2)):
            return False, f"scalar identity fails at m={m}"
    prod = preset("su2xsu2")
    for m, mp in [(1, 1), (2, 3), (0, 4)]:
        op = build_DV(prod, label((m, mp)), casimir_tensor(prod))
        want = m * (m + 2) + mp * (mp + 2)
        if op.matrix != IntMatrix.identity(op.dim) * want:
            return False, f"additivity fails at ({m},{mp})"
    return True, f"scalar m(m+2) for m <= {args.max_m}, additive on products"


def check_eigH(args):
    spec = preset("su2")
    ms = [args.m] if args.m is not None else list(range(0, args.max_m + 1))
    for m in ms:
        H = build_irrep(spec, label((m,)))[0]
        # diag(i(m - 2l)): nonzero on the diagonal except at l = m/2
        ls = [l for l in range(m + 1) if 2 * l != m]
        if not (
            H.den == 1
            and H.rows.tolist() == H.cols.tolist() == ls
            and not H.re.any()
            and H.im.tolist() == [m - 2 * l for l in ls]
        ):
            return False, f"H action differs at m={m}"
    return True, f"diagonal i(m-2l) for m in {ms[0]}..{ms[-1]}"


def check_quaternionic_double(args):
    spec = preset("su2")
    sq = symmetric_product(3, 0, 0, 1)
    for m in range(1, args.max_m + 1, 2):
        J = quaternionic_structure(m)
        if J.square_sign != -1 or not J.is_equivariant(
            build_irrep(spec, label((m,)))
        ):
            return False, f"structure map fails at m={m}"
        # with J^2 = -1 the charpoly is a square (Kramers), and a nonzero
        # kind-c residue leaves every multiplicity exactly 2
        if not certificate(char_poly_of(build_DV(spec, label((m,)), sq), PRIME)).verdict:
            return False, f"third-order certificate vanishes at m={m}"
    return True, f"all-double with nonzero cert_c for odd m <= {args.max_m}"


def check_tridiag(args):
    eps_found = []
    for m in range(2, args.max_m + 1, 2):
        w = su2_even_b_witness(m)
        eps_found.append(f"m={m}:eps={w.epsilon}")
    return True, "; ".join(eps_found)


def check_pairs_i(args):
    spec = preset("u2")
    for m in (1, 3, 5):
        for lam in (1, 2):
            mw = pairs_mixed_witness(spec, label((m,), (lam,)), [1])
            if not (mw.matches_expected and mw.certificate.verdict):
                return False, f"mixed witness fails at m={m}, weight={lam}"
    return True, "explicit simple spectra for m in {1,3,5}, weights {1,2}"


def check_pairs_ii(args):
    m = args.m if args.m is not None else 1
    mp = args.mprime if args.mprime is not None else 3
    pairs = [(1, 1), (m, mp)]
    seen = []
    for a, b in dict.fromkeys(pairs):
        r = pairs_pipeline(a, b)
        if not r.ok:
            return False, f"pipeline fails for ({a},{b})"
        seen.append(f"({a},{b}):alpha={r.alpha}")
    return True, "; ".join(seen)


def check_torus(args):
    spec = preset("t2")
    rows = ((Fraction(1), Fraction(1, 2)), (Fraction(1, 2), Fraction(2)))
    tensor = SymTensor(rows)
    for w in [(1, 0), (0, 1), (1, 1), (2, -1)]:
        op = build_DV(spec, label((), w), tensor)
        want = sum(
            rows[i][j] * w[i] * w[j] for i in range(2) for j in range(2)
        )
        if op.matrix != IntMatrix.identity(op.dim) * want:
            return False, f"quadratic-form value differs at weight {w}"
    return True, (
        "scalar <w, S w> on characters; coordinates have period 2*pi, so "
        "unit-period conventions differ by a factor (2*pi)^2"
    )


def check_types(args):
    spec = preset("su2")
    for m in range(0, 9):
        got = classify_type(label((m,)))
        want = "real" if m % 2 == 0 else "quaternionic"
        if got != want:
            return False, f"single-factor type differs at m={m}"
        J = quaternionic_structure(m)
        sign = 1 if m % 2 == 0 else -1
        if J.square_sign != sign or not J.is_equivariant(
            build_irrep(spec, label((m,)))
        ):
            return False, f"structure-map oracle fails at m={m}"
    for m in range(0, 4):
        for mp in range(0, 4):
            got = classify_type(label((m, mp)))
            want = "real" if (m + mp) % 2 == 0 else "quaternionic"
            if got != want:
                return False, f"product type differs at ({m},{mp})"
    for m, lam in [(1, 1), (2, 2), (0, 2)]:
        if classify_type(label((m,), (lam,))) != "complex":
            return False, f"nonzero weight not complex at ({m};{lam})"
    return True, "conjugation oracle matches the parity rule through products"


CHECKS = {
    "casimir": check_casimir,
    "eigH": check_eigH,
    "quaternionic-double": check_quaternionic_double,
    "tridiag": check_tridiag,
    "pairs-i": check_pairs_i,
    "pairs-ii": check_pairs_ii,
    "torus": check_torus,
    "types": check_types,
}

# the least --max-m at which a check runs a case: odd m >= 1, even m >= 2
LEAST_MAX_M = {"quaternionic-double": 1, "tridiag": 2}


def cmd_verify_paper(args) -> int:
    if args.max_m < 0:
        raise UsageError(f"--max-m must be nonnegative, got {args.max_m}")
    names = list(CHECKS) if args.check == "all" else [args.check]
    idle = [name for name in names if args.max_m < LEAST_MAX_M.get(name, 0)]
    if idle:
        raise UsageError(
            f"--max-m {args.max_m} leaves no case to check for "
            + ", ".join(f"{name} (needs --max-m >= {LEAST_MAX_M[name]})" for name in idle)
        )
    if "pairs-ii" in names:
        for flag, value in (("--m", args.m), ("--mprime", args.mprime)):
            if value is not None and (value < 1 or value % 2 == 0):
                raise UsageError(f"{flag} must be an odd spin >= 1 for pairs-ii, got {value}")
    results = []
    failed = False
    for name in names:
        ok, detail = CHECKS[name](args)
        results.append((name, ok, detail))
        failed = failed or not ok
    lines = [
        f"{'PASS' if ok else 'FAIL'} {name}: {detail}" for name, ok, detail in results
    ]
    if args.format == "json":
        dump_json(
            {
                "checks": [
                    {"name": n, "pass": ok, "detail": d} for n, ok, d in results
                ],
                "all_pass": not failed,
            },
            args.output,
        )
    else:
        emit("\n".join(lines), args.output)
    return 1 if failed else 0


# -- wiring ------------------------------------------------------------------------


def config_flags(args) -> list[str]:
    """The flags of a JSON config file mirroring flag names, as command-line
    tokens, so that the parser checks each value's type and choices.

    main puts them before the flags given on the command line, which win.
    The group keys are dropped when the command line names a group, since
    --group and --group-file exclude each other.
    """
    path = getattr(args, "config", None)
    if not path:
        return []
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise UsageError(f"cannot load config {path}: {e}") from e
    if not isinstance(doc, dict):
        raise UsageError("config file must hold a JSON object")
    tokens = []
    for key, value in doc.items():
        attr = key.replace("-", "_")
        if attr in ("fn", "command") or not hasattr(args, attr):
            raise UsageError(f"config key {key!r} does not match any flag")
        if attr in ("group", "group_file") and (args.group or args.group_file):
            continue
        # no flag takes null or a boolean; as text they would be the words
        # null, true and false, which --output takes as a file name
        if value is None or isinstance(value, bool):
            raise UsageError(
                f"config key {key!r} takes no null or boolean value, got {json.dumps(value)}"
            )
        text = value if isinstance(value, str) else json.dumps(value)
        tokens += ["--" + attr.replace("_", "-"), text]
    return tokens


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lielap",
        description="Exact Laplace spectra and irreducibility certificates "
        "on compact Lie groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, tensor_flags=True):
        g = p.add_mutually_exclusive_group()
        g.add_argument("--group", help="preset group name")
        g.add_argument("--group-file", help="JSON group description")
        if tensor_flags:
            p.add_argument("--tensor", help="'identity', inline JSON rows, or a file")
            p.add_argument("--gram", help="metric gram matrix; inverted exactly")
        p.add_argument("--config", help="JSON file of default flag values")
        p.add_argument("--output", help="write the result here instead of stdout")

    p = sub.add_parser("spectrum", help="assemble the exact spectrum below a cutoff")
    common(p)
    p.add_argument("--max-eig", help="eigenvalue cutoff (rational); required "
                   "here or in --config")
    p.add_argument("--format", choices=["text", "json", "csv"], default="text")
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("certify", help="certificate battery for a given tensor")
    common(p)
    p.add_argument("--level", type=int, help="label coordinate bound; required "
                   "here or in --config")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_certify)

    p = sub.add_parser("witness", help="search for a certified-simple tensor")
    common(p, tensor_flags=False)
    p.add_argument("--level", type=int, help="label coordinate bound; required "
                   "here or in --config")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=int, default=8)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_witness)

    p = sub.add_parser("verify-paper", help="named exact identity checks")
    p.add_argument("--check", choices=["all", *CHECKS], default="all")
    p.add_argument("--max-m", type=int, default=12, dest="max_m")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--mprime", type=int, default=None)
    p.add_argument("--config", help="JSON file of default flag values")
    p.add_argument("--output", help="write the result here instead of stdout")
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(fn=cmd_verify_paper)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tokens = config_flags(args)
        if tokens:
            args = parser.parse_args(argv[:1] + tokens + argv[1:])
        check_output(args.output)
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed standard output, which ends the output; what is
        # left unwritten goes to devnull, so the flush at exit raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except DomainError as e:
        print(f"domain error: {e}", file=sys.stderr)
        return 3
    except WitnessSearchExhausted as e:
        print(f"search failed: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
