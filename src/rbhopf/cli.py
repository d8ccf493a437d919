"""Command-line front end.

Subcommands: verify, rb-check, construct, search, builtin-list.  Structures
are file paths or `builtin:<name>` references; `--field Fp:<p>` re-grounds a
builtin over a prime field.  Exit codes are a stable contract: 0 all checks
passed, 1 a check failed, 2 input/parse error (any `ValueError` the package
raises on its input, or an output path that cannot be written), 3 resource
budget exceeded (a search's candidates, or the basis inputs a `verify`
check may evaluate), 4 internal error (an unexpected exception, reported as
one line on stderr instead of a traceback).

`--report machine` emits a deterministic line-oriented key-value report
(no timestamps); `--report human` is free-form and includes timing.

Start-up is most of a short command, so this module imports at the top only
what every command uses (the file format and the structures).  `verify`
reads one table, `_CHECKS`, and looks each checker up by name on the
package when it runs; the other commands import the Rota-Baxter,
Hopf-module, Yetter-Drinfeld and pre-Lie modules they need in their branch.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import fileformat
from .errors import BudgetExceededError
from .fields import QQ, field_from_name
from .fileformat import Document, load, save
from .structures import (_AXIOM_INPUTS, _AXIOMS, _unverified_builtin, builtin,
                         builtin_names, check_coassociativity)

MAX_DEFECT_ENTRIES = 16


class Report:
    """Collects argument echoes and check verdicts; renders either mode."""

    def __init__(self, command: str):
        self.command = command
        self.args: list[tuple[str, str]] = []
        self.rows: list[tuple[str, str]] = []
        self.failed = False
        self.started = time.monotonic()

    def arg(self, key: str, value):
        self.args.append((key, str(value)))

    def info(self, key: str, value):
        self.rows.append((key, str(value)))

    def check(self, name: str, verdict):
        passed = bool(verdict)
        self.rows.append(("check", f"{name} {'pass' if passed else 'fail'}"))
        if not passed:
            self.failed = True
            defect = getattr(verdict, "defect", None)
            if defect is not None:
                witness = ",".join(map(str, defect.witness))
                self.rows.append(
                    ("defect", f"{defect.identity} witness {witness} "
                               f"entries {len(defect.residual)}"))
                for key in sorted(defect.residual)[:MAX_DEFECT_ENTRIES]:
                    self.rows.append(
                        ("defect-entry",
                         f"{','.join(map(str, key))} {defect.residual[key]}"))

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def render(self, mode: str) -> str:
        if mode == "machine":
            lines = ["rbhopf-report 1", f"command {self.command}"]
            lines += [f"arg {k} {v}" for k, v in self.args]
            lines += [f"{k} {v}" for k, v in self.rows]
            lines.append(f"status {'fail' if self.failed else 'pass'}")
            return "\n".join(lines) + "\n"
        out = [f"rbhopf {self.command}"]
        for k, v in self.args:
            out.append(f"  {k}: {v}")
        for k, v in self.rows:
            if k == "check":
                name, verdict = v.rsplit(" ", 1)
                out.append(f"  [{'PASS' if verdict == 'pass' else 'FAIL'}] {name}")
            else:
                out.append(f"  {k}: {v}")
        elapsed = time.monotonic() - self.started
        out.append(f"{'FAIL' if self.failed else 'OK'} ({elapsed:.3f}s)")
        return "\n".join(out) + "\n"


class InputError(Exception):
    """User input problem; maps to exit code 2."""


def _field_option(value: str | None):
    return None if value is None else field_from_name(value)


def _load_structure(ref: str, field_flag):
    """A structure payload from builtin:NAME or a file path."""
    if ref.startswith("builtin:"):
        return builtin(ref[len("builtin:"):], field_flag or QQ)
    if field_flag is not None:
        raise InputError("--field applies only to builtin: references")
    doc = load(ref)
    if doc.kind not in fileformat.STRUCTURE_KINDS:
        raise InputError(f"{ref} is a {doc.kind} file, not a structure")
    return doc.payload


def _load_operator(path: str):
    doc = load(path)
    if doc.kind != "operator":
        raise InputError(f"{path} is a {doc.kind} file, not an operator")
    return doc.payload


def _parse_weight(field, text: str):
    try:
        return field.parse(text)
    except (ValueError, ZeroDivisionError):
        raise InputError(f"cannot parse weight {text!r} over {field.name}") from None


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# Most basis inputs one `verify` check may evaluate.  A basis input costs
# about 1.3 µs on a sparse algebra and 2.5 µs on the tensor square of S3
# (2-vCPU VM), so a check stays within about 2.5 s when its products have
# few terms; the terms a product expands to are not charged.
VERIFY_BUDGET = 10 ** 6


# The checks of `verify`, one row each: the document kinds it applies to;
# when it runs by default (a test of the payload, None for always); its
# public checker, an `rbhopf` export looked up when it runs, so a command
# imports only the modules of the checks it runs; the arguments it takes
# from the payload (None for the payload itself); and the basis inputs it
# is charged before it runs.
#
# On a structure of dim n the bialgebra check charges n² and the others n
# (`structures._AXIOM_INPUTS`).
# Associativity (charge None) is passed the budget instead and charges the
# inputs it schedules as it goes: Light's test needs only |G|·n² of the n³
# basis triples.  The bialgebra check is certified on G when associativity
# passed before it (the pass is cached on the multiplication), but its
# charge is that of the full check it falls back to.  A loaded file never
# carries the record by which a `tensor_product` multiplication inherits
# associativity from its factors, so a saved tensor square runs the full,
# budgeted Light's test here.
#
# Every other check charges the basis inputs of its largest identity.  For
# a module of dim m over H of dim h that is module associativity, m·h², or
# for a module algebra also its action compatibility, m²·h; for a
# Yetter-Drinfeld coalgebra of dim c, module associativity, c·h²; for a
# braiding form, BR2 and BR3, h³.  The generator certificates
# (`structures._on_generators`) usually evaluate far fewer, but when a
# precondition fails or exceeds its own budget the full check runs, so the
# pre-charges stay at that worst case: the fallback path.
_CHECKS = {
    **{name: (fileformat.STRUCTURE_KINDS, applies, checker, None,
              _AXIOM_INPUTS[name])
       for name, checker, applies in _AXIOMS},
    "prelie": (("prelie",), None, "check_pre_lie", lambda p: (p.comul,),
               lambda p: p.dim),
    "hopf-module": (("module",), None, "check_hopf_module", None,
                    lambda p: p.m_dim * p.hopf.dim ** 2),
    "hopf-module-algebra": (
        ("module",), lambda p: p.mul is not None, "check_hopf_module_algebra",
        None, lambda p: p.m_dim * p.hopf.dim * max(p.m_dim, p.hopf.dim)),
    "hopf-module-coalgebra": (
        ("module",), lambda p: p.comul is not None,
        "check_hopf_module_coalgebra", None, lambda p: p.m_dim * p.hopf.dim ** 2),
    "comodule": (("comodule",), None, "check_comodule",
                 lambda p: (p.hopf, p.m_dim, p.coaction, p.side), lambda p: p.m_dim),
    "yd-module": (("yd",), None, "check_yd_module",
                  lambda p: (p.hopf, p.coalgebra.dim, p.action, p.coaction),
                  lambda p: p.coalgebra.dim * p.hopf.dim ** 2),
    "yd-coalgebra": (("yd",), None, "check_yd_coalgebra", None,
                     lambda p: p.coalgebra.dim * p.hopf.dim ** 2),
    "coquasitriangular": (("sigma",), None, "check_coquasitriangular", None,
                          lambda p: p.hopf.dim ** 3),
}
_CHECK_GROUPS = {"hopf": tuple(name for name, _, _ in _AXIOMS)}


def _run_check(name: str, doc: Document, report: Report):
    """Charge one check of `_CHECKS` against `VERIFY_BUDGET`, run it, report it."""
    _, _, checker, args, charge = _CHECKS[name]
    p = doc.payload
    inputs = charge(p) if charge else 0
    if inputs > VERIFY_BUDGET:
        label = (f"{name} on dim {p.dim}"
                 if doc.kind in fileformat.STRUCTURE_KINDS else name)
        raise BudgetExceededError(
            f"{label} needs {inputs} basis inputs, more than {VERIFY_BUDGET}")
    try:
        check = getattr(sys.modules[__package__], checker)
        budget = {} if charge else {"budget": VERIFY_BUDGET}
        report.check(name, check(*(args(p) if args else (p,)), **budget))
    except ValueError as exc:
        raise InputError(f"check {name}: {exc}") from None


def cmd_verify(args) -> Report:
    report = Report("verify")
    report.arg("input", args.input)
    field = _field_option(args.field)
    if args.input.startswith("builtin:"):
        # Built unverified: the checks below are `builtin`'s own axioms.
        payload = _unverified_builtin(args.input[len("builtin:"):], field or QQ)
        doc = Document(payload.kind, payload, {})
    else:
        if field is not None:
            raise InputError("--field applies only to builtin: references")
        doc = load(args.input)
    if doc.kind == "operator":
        raise InputError("an operator file has nothing to verify on its own; "
                         "use rb-check")
    if args.checks:
        names = [name for item in args.checks.split(",")
                 for name in _CHECK_GROUPS.get(item.strip(), (item.strip(),))]
        for name in names:
            if name not in _CHECKS:
                raise InputError(f"unknown check {name!r}")
            if doc.kind not in _CHECKS[name][0]:
                raise InputError(f"check {name!r} does not apply to kind "
                                 f"{doc.kind!r}")
    else:
        names = [name for name, (kinds, default, *_) in _CHECKS.items()
                 if doc.kind in kinds and (default is None or default(doc.payload))]
    for name in names:
        _run_check(name, doc, report)
    return report


# ---------------------------------------------------------------------------
# rb-check
# ---------------------------------------------------------------------------

def cmd_rb_check(args) -> Report:
    from .rb import check_rb_algebra, check_rb_bialgebra, check_rb_coalgebra
    report = Report("rb-check")
    report.arg("structure", args.structure)
    report.arg("side", args.side)
    s = _load_structure(args.structure, _field_option(args.field))
    ops = [_load_operator(p) for p in args.operator or []]
    weights = [_parse_weight(s.field, w) for w in args.weight or []]
    if args.side in ("algebra", "coalgebra"):
        if len(ops) != 1 or len(weights) != 1:
            raise InputError(f"side {args.side} takes exactly one "
                             "--operator and one --weight")
    elif len(ops) != 2 or len(weights) != 2:
        raise InputError("side bialgebra takes two operators "
                         "(P then Q) and two weights (lambda then gamma)")
    for i, w in enumerate(args.weight):
        report.arg(f"weight{i + 1}" if args.side == "bialgebra" else "weight", w)
    if args.side == "algebra":
        report.check("rb-algebra", check_rb_algebra(s, ops[0], weights[0]))
    elif args.side == "coalgebra":
        v = check_rb_coalgebra(s, ops[0], weights[0],
                               report_idempotency=args.idempotent)
        report.check("rb-coalgebra", v)
        if args.idempotent:
            report.info("idempotent", "yes" if v.idempotent else "no")
    else:
        v = check_rb_bialgebra(s, ops[0], ops[1], weights[0], weights[1])
        report.check("rb-algebra", v.algebra)
        report.check("rb-coalgebra", v.coalgebra)
    return report


# ---------------------------------------------------------------------------
# construct
# ---------------------------------------------------------------------------

def _resolve_yd(args, field):
    hopf = _load_structure(args.hopf, field) if args.hopf else None
    if args.yd == "adjoint":
        if hopf is None:
            raise InputError("--yd adjoint needs --hopf")
        from .ydsmash import adjoint_yd
        return adjoint_yd(hopf)
    doc = load(args.yd)
    if doc.kind != "yd":
        raise InputError(f"{args.yd} is a {doc.kind} file, not a yd structure")
    return doc.payload


def _write(report: Report, payload, path: str, key: str = "output"):
    """Save `payload`, report the path under `key` and check it reloads equal."""
    save(payload, path)
    report.info(key, path)
    report.check(key.replace("output", "reload"), load(path).payload == payload)


def cmd_construct(args) -> Report:
    report = Report("construct")
    report.arg("what", args.what)
    field = _field_option(args.field)
    hopf_ref = args.hopf
    if args.what == "smash":
        if not args.yd:
            raise InputError("construct smash needs --yd (adjoint or a file)")
        from .ydsmash import check_yd_coalgebra, smash_coproduct
        ydc = _resolve_yd(args, field)
        v = check_yd_coalgebra(ydc)
        report.check("yd-coalgebra", v)
        if not v.passed:
            return report
        smash = smash_coproduct(ydc)
        report.check("coassociativity", check_coassociativity(smash))
        _write(report, smash, args.output)
    elif args.what in ("projection-right", "projection-left"):
        side = args.what.rsplit("-", 1)[1]
        if args.module:
            doc = load(args.module)
            if doc.kind != "module":
                raise InputError(f"{args.module} is not a module file")
            hm = doc.payload
            if hm.side != side:
                raise InputError(f"{args.module} is a {hm.side} module")
            from .hopfmod import verify_projection_rb
            p, verdict = verify_projection_rb(hm)
        else:
            if not args.yd:
                raise InputError("construct projection needs --module or --yd")
            from .ydsmash import smash_hopf_module_left, smash_hopf_module_right
            ydc = _resolve_yd(args, field)
            pipeline = (smash_hopf_module_right if side == "right"
                        else smash_hopf_module_left)
            _, p, verdict = pipeline(ydc)
            report.check("closed-form-matches-generic", True)
        report.check("rb-coalgebra-weight-minus-1", verdict)
        report.info("idempotent", "yes" if verdict.idempotent else "no")
        if not verdict.idempotent:
            report.failed = True
        _write(report, p, args.output)
    elif args.what == "prelie":
        if not (args.structure and args.operator and args.weight):
            raise InputError("construct prelie needs --structure, --operator "
                             "and --weight")
        from .prelie import (check_pre_lie, prelie_from_rb_minus1,
                             prelie_from_rb_zero)
        from .rb import check_rb_coalgebra
        s = _load_structure(args.structure, field)
        q = _load_operator(args.operator[0])
        w = _parse_weight(s.field, args.weight[0])
        report.arg("weight", args.weight[0])
        minus_one = s.field.coerce(-1)
        if w == minus_one:
            build = prelie_from_rb_minus1
        elif w == s.field.zero:
            build = prelie_from_rb_zero
        else:
            raise InputError("prelie constructions exist for weights -1 and 0")
        report.check("rb-coalgebra", check_rb_coalgebra(s, q, w))
        if report.failed:
            return report
        plc = build(s, q)
        report.check("pre-lie", check_pre_lie(plc.comul))
        _write(report, plc, args.output)
    elif args.what == "pi-operator":
        if not args.hopf:
            raise InputError("construct pi-operator needs --hopf")
        from .hopfmod import (hopf_module_from_projection, pi_operator,
                              tensor_square_projection, verify_projection_rb)
        pb = tensor_square_projection(_load_structure(args.hopf, field))
        hm = hopf_module_from_projection(pb)
        pi = pi_operator(pb)
        p, verdict = verify_projection_rb(hm)
        report.check("convolution-matches-projection", pi == p)
        report.check("rb-coalgebra-weight-minus-1", verdict)
        _write(report, pi, args.output)
        if args.structure_out:
            _write(report, pb.big, args.structure_out, "structure-output")
    else:
        raise InputError(f"unknown construction {args.what!r}")
    return report


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

def cmd_search(args) -> Report:
    from .rb import check_rb_algebra, check_rb_coalgebra, search_rb_operators
    report = Report("search")
    report.arg("structure", args.structure)
    report.arg("side", args.side)
    report.arg("weight", args.weight)
    s = _load_structure(args.structure, _field_option(args.field))
    weight = _parse_weight(s.field, args.weight)
    result = search_rb_operators(s, args.side, weight,
                                 idempotent_only=args.idempotent_only,
                                 budget=args.budget)
    report.info("scanned", result.candidates_scanned)
    report.info("found", len(result.operators))
    if args.out_dir:
        os.makedirs(args.out_dir, exist_ok=True)
        width = max(4, len(str(len(result.operators))))
        recheck = (check_rb_algebra if args.side == "algebra"
                   else check_rb_coalgebra)
        all_ok = True
        for i, op in enumerate(result.operators):
            path = os.path.join(args.out_dir, f"op_{i:0{width}d}.rbh")
            save(op, path)
            reloaded = load(path).payload
            all_ok &= (reloaded == op and recheck(s, reloaded, weight).passed)
            report.info("operator-file", path)
        report.check("reload-and-reverify", all_ok)
    return report


def cmd_builtin_list(args) -> Report:
    report = Report("builtin-list")
    for name in builtin_names():
        if name.endswith(":<n>"):
            report.info("builtin-family", f"{name} coalgebra")
            continue
        s = builtin(name)
        report.info("builtin", f"{name} {s.kind} {s.dim}")
    return report


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rbhopf",
        description="Exact verification and construction of Rota-Baxter "
                    "structures on algebras, coalgebras and Hopf modules.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--report", choices=("human", "machine"),
                       default="human")
        p.add_argument("--field", help="re-ground a builtin: input over "
                                       "another field, e.g. Fp:2")

    p = sub.add_parser("verify", help="run axiom checks on a structure file")
    p.add_argument("input", help="file path or builtin:<name>")
    p.add_argument("--checks", help="comma-separated check names "
                                    "(default: all applicable)")
    common(p)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("rb-check", help="check Rota-Baxter identities")
    p.add_argument("structure", help="file path or builtin:<name>")
    p.add_argument("--side", choices=("algebra", "coalgebra", "bialgebra"),
                   required=True)
    p.add_argument("--operator", action="append", metavar="FILE",
                   help="operator file; give twice (P then Q) for bialgebra")
    p.add_argument("--weight", action="append", metavar="W",
                   help="weight; give twice (lambda then gamma) for bialgebra")
    p.add_argument("--idempotent", action="store_true",
                   help="also report whether Q^2 = Q (coalgebra side)")
    common(p)
    p.set_defaults(run=cmd_rb_check)

    p = sub.add_parser("construct",
                       help="build smash coproducts, projections, pre-Lie "
                            "comultiplications, convolution operators")
    p.add_argument("what", choices=("smash", "projection-right",
                                    "projection-left", "prelie", "pi-operator"))
    p.add_argument("--hopf", help="Hopf algebra reference")
    p.add_argument("--yd", help="'adjoint' (needs --hopf) or a yd file")
    p.add_argument("--module", help="a Hopf module file")
    p.add_argument("--structure", help="a coalgebra file or builtin")
    p.add_argument("--operator", action="append", metavar="FILE")
    p.add_argument("--weight", action="append", metavar="W")
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--structure-out",
                   help="pi-operator: also write the underlying bialgebra")
    common(p)
    p.set_defaults(run=cmd_construct)

    p = sub.add_parser("search",
                       help="enumerate Rota-Baxter operators over F_p")
    p.add_argument("structure", help="file path or builtin:<name>")
    p.add_argument("--side", choices=("algebra", "coalgebra"), required=True)
    p.add_argument("--weight", required=True)
    p.add_argument("--budget", type=int, default=10 ** 8)
    p.add_argument("--idempotent-only", action="store_true")
    p.add_argument("--out-dir", help="write found operators here")
    common(p)
    p.set_defaults(run=cmd_search)

    p = sub.add_parser("builtin-list", help="list builtin structures")
    common(p)
    p.set_defaults(run=cmd_builtin_list)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        report = args.run(args)
    except (InputError, ValueError) as exc:
        # Every input the package rejects raises a ValueError (`FormatError`,
        # `ShapeError`, `PreconditionError`, a missing structure map).
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except OSError as exc:
        # `load` reports unreadable files itself, so this is a path written to.
        sys.stderr.write(f"error: cannot write {exc.filename}: {exc.strerror}\n")
        return 2
    except BudgetExceededError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 3
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return 4
    sys.stdout.write(report.render(args.report))
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
