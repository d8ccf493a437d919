"""The four workloads: fixtures, timed operations, output copies, oracles.

Each workload builds fixed structures (named below) and runs a fixed list
of operations one at a time.  The seed only fixes the order of the
operations within a pass and the negative-control corruption.  rbhopf is
imported inside `setup`, so its import is part of the set-up time.

Every pass starts from fixtures built afresh by the constructors `builtin`
uses, so no pass inherits another's cached matrices and fan-outs, and each
pass does the same work.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import oracle

HERE = os.path.dirname(os.path.abspath(__file__))


def verify(s, checks):
    """Run axiom checks on a fixture, as `builtin` does; raise on a failure."""
    for check in checks:
        v = check(s)
        if not v.passed:
            raise AssertionError(f"fixture fails {v.defect}")


def verify_hopf(st, h):
    verify(h, (st.check_associativity, st.check_coassociativity,
               st.check_unit_counit, st.check_bialgebra, st.check_antipode))


def plain_hopf(h) -> oracle.Hopf:
    return oracle.Hopf(h.dim, dict(h.mul.entries), dict(h.comul.entries),
                       h.unit.entries, h.counit.entries[0], h.antipode.entries)


def plain_mat(m) -> list:
    return [list(row) for row in m.entries]


def corrupt_entry(rng, m) -> list:
    """A copy of a dense matrix with one seeded entry moved by one."""
    out = copy.deepcopy(m)
    r, c = rng.randrange(len(out)), rng.randrange(len(out[0]))
    out[r][c] += 1
    return out


class Workload:
    name = ""
    ops: tuple[str, ...] = ()
    largest: str | None = None   # None: the slowest operation of the pass
    traced_in_process = True     # False: `pass_trace` sums traced children

    def setup(self):
        """Import rbhopf, build and verify the fixtures; returns a context."""
        raise NotImplementedError

    def order(self, rng) -> list:
        ops = list(self.ops)
        rng.shuffle(ops)
        return ops

    def begin_pass(self, ctx, index: int):
        pass

    def end_pass(self, ctx):
        pass

    def run(self, ctx, op):
        """The timed operation; returns the program's raw result."""
        raise NotImplementedError

    def extract(self, ctx, op, raw) -> tuple[bool, object]:
        """(the program's own verdicts passed, plain copy of the outputs)."""
        raise NotImplementedError

    def check(self, ctx, op, plain) -> list:
        """Oracle failures for one operation's outputs."""
        raise NotImplementedError

    def corrupt(self, rng, op, plain):
        """A copy of `plain` with one seeded entry of one output changed."""
        raise NotImplementedError

    def peak_rss_kib(self) -> int | None:
        """Peak RSS when it is not this process's own (the cli children)."""
        return None


# ---------------------------------------------------------------------------
# smash
# ---------------------------------------------------------------------------

SMASH_HOPFS = ("sweedler4", "group:S3", "C8", "C10")


class Smash(Workload):
    name = "smash"
    ops = tuple(f"{h}/{side}" for h in SMASH_HOPFS for side in ("right", "left"))
    largest = "C10/left"

    def setup(self):
        import rbhopf
        from rbhopf import structures as st
        qq = rbhopf.QQ
        hopfs = {"sweedler4": st.sweedler_hopf_algebra(qq),
                 "group:S3": st.symmetric_group_algebra(qq, 3),
                 "C8": st.cyclic_group_algebra(qq, 8),
                 "C10": st.cyclic_group_algebra(qq, 10)}
        for h in hopfs.values():
            verify_hopf(st, h)
        return {"rbhopf": rbhopf, "hopfs": hopfs,
                "yd": {k: rbhopf.adjoint_yd(h) for k, h in hopfs.items()}}

    def run(self, ctx, op):
        rb = ctx["rbhopf"]
        name, side = op.split("/")
        pipeline = (rb.smash_hopf_module_right if side == "right"
                    else rb.smash_hopf_module_left)
        hm, p, verdict = pipeline(ctx["yd"][name])
        return verdict, hm.comul, p, rb.prelie_from_rb_minus1(hm.as_coalgebra(), p)

    def extract(self, ctx, op, raw):
        verdict, comul, p, pl = raw
        return (verdict.passed and verdict.idempotent is True,
                {"comul": dict(comul.entries), "p": plain_mat(p),
                 "prelie": dict(pl.comul.entries)})

    def _reference(self, ctx, name):
        refs = ctx.setdefault("refs", {})
        if name not in refs:
            refs[name] = oracle.SmashReference(plain_hopf(ctx["hopfs"][name]))
        return refs[name]

    def check(self, ctx, op, plain):
        name, side = op.split("/")
        return oracle.smash_failures(self._reference(ctx, name), side, plain,
                                     grouplike=name != "sweedler4")

    def corrupt(self, rng, op, plain):
        return {**plain, "p": corrupt_entry(rng, plain["p"])}


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------

class Search(Workload):
    name = "search"
    ops = ("grouplike:3/coalgebra/-1", "grouplike:3/coalgebra/-1/idempotent",
           "example54/algebra/0")
    largest = "grouplike:3/coalgebra/-1"

    def setup(self):
        import rbhopf
        from rbhopf import structures as st
        gl3 = st.grouplike_coalgebra(rbhopf.GF(3), 3)
        e54 = st.example54_bialgebra(rbhopf.GF(2))
        verify(gl3, (st.check_coassociativity, st.check_unit_counit))
        verify(e54, (st.check_associativity, st.check_coassociativity,
                     st.check_unit_counit, st.check_bialgebra))
        return {"rbhopf": rbhopf,
                "structures": {"grouplike:3": gl3, "example54": e54}}

    def run(self, ctx, op):
        name, side, weight, *idem = op.split("/")
        return ctx["rbhopf"].search_rb_operators(
            ctx["structures"][name], side, int(weight),
            idempotent_only=bool(idem))

    def extract(self, ctx, op, raw):
        found = tuple(tuple(tuple(x.residue for x in row) for row in m.entries)
                      for m in raw.operators)
        return True, {"found": found, "scanned": raw.candidates_scanned}

    def _oracle(self, ctx, name, side, weight):
        cache = ctx.setdefault("oracle", {})
        key = (name, side, weight)
        if key not in cache:
            s = ctx["structures"][name]
            p = s.field.p
            residues = lambda t: ({k: v.residue for k, v in t.entries.items()}
                                  if t is not None else {})
            cache[key] = (p, s.dim, oracle.search_oracle(
                s.dim, p, side, weight, residues(s.mul), residues(s.comul)))
        return cache[key]

    def check(self, ctx, op, plain):
        name, side, weight, *idem = op.split("/")
        p, n, want = self._oracle(ctx, name, side, int(weight))
        if idem:
            want = [q for q in want if oracle.idempotent(q, p)]
        return oracle.search_failures(plain["found"], want, plain["scanned"],
                                      p ** (n * n))

    def corrupt(self, rng, op, plain):
        p = 3 if op.startswith("grouplike") else 2
        found = list(plain["found"])
        i = rng.randrange(len(found))
        q = corrupt_entry(rng, [list(row) for row in found[i]])
        found[i] = tuple(tuple(v % p for v in row) for row in q)
        return {**plain, "found": tuple(found)}


# ---------------------------------------------------------------------------
# tensor_square
# ---------------------------------------------------------------------------

class TensorSquare(Workload):
    name = "tensor_square"
    ops = ("sweedler4", "group:S3")
    largest = "group:S3"

    def setup(self):
        import rbhopf
        from rbhopf import structures as st
        qq = rbhopf.QQ
        hopfs = {"sweedler4": st.sweedler_hopf_algebra(qq),
                 "group:S3": st.symmetric_group_algebra(qq, 3)}
        for h in hopfs.values():
            verify_hopf(st, h)
        return {"rbhopf": rbhopf, "hopfs": hopfs,
                "pb": {k: rbhopf.tensor_square_projection(h)
                       for k, h in hopfs.items()}}

    def run(self, ctx, op):
        rb = ctx["rbhopf"]
        pb = ctx["pb"][op]
        big = pb.big
        verdicts = [check(big) for check in (
            rb.check_associativity, rb.check_coassociativity,
            rb.check_unit_counit, rb.check_bialgebra, rb.check_antipode)]
        out, projections = {}, []
        for side in ("right", "left"):
            out[f"pi_{side}"] = rb.pi_operator(pb, side)
            hm = rb.hopf_module_from_projection(pb, side)
            out[f"p_{side}"], v = rb.verify_projection_rb(hm)
            projections.append(v)
            verdicts.append(rb.check_hopf_module_algebra(hm))
        pi = out["pi_right"]
        verdicts.append(rb.check_rb_bialgebra(big, pi, pi, -1, -1))
        return big, verdicts, projections, out

    def extract(self, ctx, op, raw):
        big, verdicts, projections, out = raw
        ok = all(v.passed for v in verdicts + projections) and all(
            v.idempotent is True for v in projections)
        plain = {k: plain_mat(m) for k, m in out.items()}
        plain["mul"] = dict(big.mul.entries)
        plain["comul"] = dict(big.comul.entries)
        return ok, plain

    def check(self, ctx, op, plain):
        refs = ctx.setdefault("refs", {})
        if op not in refs:
            refs[op] = oracle.TensorSquareReference(plain_hopf(ctx["hopfs"][op]))
        return oracle.tensor_square_failures(refs[op], plain)

    def corrupt(self, rng, op, plain):
        return {**plain, "pi_right": corrupt_entry(rng, plain["pi_right"])}


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_ARGV = {
    "construct-smash": ["construct", "smash", "--hopf", "builtin:sweedler4",
                        "--yd", "adjoint", "-o", "smash.rbh"],
    "construct-projection-left": ["construct", "projection-left", "--hopf",
                                  "builtin:sweedler4", "--yd", "adjoint",
                                  "-o", "pl.rbh"],
    "rb-check": ["rb-check", "smash.rbh", "--side", "coalgebra", "--operator",
                 "pl.rbh", "--weight=-1", "--idempotent"],
    "construct-prelie": ["construct", "prelie", "--structure", "smash.rbh",
                         "--operator", "pl.rbh", "--weight=-1",
                         "-o", "prelie.rbh"],
    "search": ["search", "builtin:grouplike:2", "--field", "Fp:2", "--side",
               "coalgebra", "--weight", "1", "--out-dir", "ops/"],
    "verify-smash": ["verify", "smash.rbh"],
    "verify-prelie": ["verify", "prelie.rbh"],
}
CLI_DEPS = {
    "rb-check": {"construct-smash", "construct-projection-left"},
    "construct-prelie": {"construct-smash", "construct-projection-left"},
    "verify-smash": {"construct-smash"},
    "verify-prelie": {"construct-prelie"},
}


class Cli(Workload):
    """The README session as separate processes, in a fresh directory per pass.

    Untraced, each command is `python -m rbhopf.cli`; traced, each is
    `traced_cli.py`, which calls `rbhopf.cli.main(argv)` in-process under
    the tracer and writes its accumulators to a file.
    """

    name = "cli"
    ops = tuple(CLI_ARGV)
    traced_in_process = False

    def __init__(self, root: str, src: str, trace: bool):
        self.root, self.src, self.trace = root, src, trace
        self.work = os.path.join(root, ".bench_work", "cli")
        self.peak_kib = 0

    def setup(self):
        import rbhopf.cli  # noqa: F401  (the import is part of set-up)
        from rbhopf import GF, builtin
        builtin("sweedler4")
        builtin("grouplike:2", GF(2))
        return {"pass_dir": None}

    def order(self, rng) -> list:
        done, out = set(), []
        while len(out) < len(self.ops):
            ready = [op for op in self.ops if op not in done
                     and CLI_DEPS.get(op, set()) <= done]
            op = ready[rng.randrange(len(ready))]
            done.add(op)
            out.append(op)
        return out

    def begin_pass(self, ctx, index):
        d = os.path.join(self.work, f"pass-{index}")
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
        ctx["pass_dir"] = d
        ctx["stats"] = []

    def pass_trace(self, ctx) -> dict:
        """The summed accumulators of this pass's traced processes."""
        total: dict = {}
        for path in ctx["stats"]:
            if not os.path.exists(path):   # the child died; its op failed
                continue
            with open(path, encoding="utf-8") as fh:
                for k, v in json.load(fh).items():
                    total[k] = total.get(k, 0) + v
        return total

    def end_pass(self, ctx):
        shutil.rmtree(ctx["pass_dir"], ignore_errors=True)

    def run(self, ctx, op):
        d = ctx["pass_dir"]
        if self.trace:
            stats = os.path.join(d, f"{op}.stats.json")
            spans = os.path.join(self.root, ".bench_work", "spans", "cli", op)
            ctx["stats"].append(stats)
            cmd = [sys.executable, os.path.join(HERE, "traced_cli.py"), stats,
                   spans]
        else:
            cmd = [sys.executable, "-m", "rbhopf.cli"]
        env = {**os.environ, "PYTHONPATH": self.src}
        with open(os.path.join(d, f"{op}.stderr"), "wb") as err:
            proc = subprocess.Popen(cmd + CLI_ARGV[op] + ["--report", "machine"],
                                    cwd=d, env=env, stdout=subprocess.PIPE,
                                    stderr=err)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_kib = max(self.peak_kib, usage.ru_maxrss)
        return proc.returncode, out.decode("utf-8", "replace")

    def extract(self, ctx, op, raw):
        code, out = raw
        lines = out.strip().splitlines()
        plain = {"exit": code, "last": lines[-1] if lines else ""}
        d = ctx["pass_dir"]
        if code != 0:
            with open(os.path.join(d, f"{op}.stderr"), encoding="utf-8",
                      errors="replace") as fh:
                plain["stderr"] = fh.read()[-2000:]
        if op == "search":
            scanned = [ln.split()[1] for ln in lines if ln.startswith("scanned ")]
            plain["scanned"] = int(scanned[0]) if scanned else None
        try:
            if op == "construct-projection-left":
                with open(os.path.join(d, "pl.rbh"), encoding="utf-8") as fh:
                    plain["pl"] = oracle.parse_operator(fh.read())
            if op == "search":
                ops_dir = os.path.join(d, "ops")
                found = []
                for fname in sorted(os.listdir(ops_dir)):
                    if fname.startswith("op_") and fname.endswith(".rbh"):
                        with open(os.path.join(ops_dir, fname),
                                  encoding="utf-8") as fh:
                            found.append(tuple(map(tuple, oracle.parse_operator(
                                fh.read()))))
                plain["ops"] = tuple(found)
        except (OSError, ValueError, IndexError, KeyError) as exc:
            plain["read_error"] = str(exc)
        return True, plain

    def check(self, ctx, op, plain):
        fails = []
        if plain["exit"] != 0:
            fails.append(f"{op}: exit code {plain['exit']}, stderr:\n"
                         f"{plain.get('stderr', '')}")
        if plain["last"] != "status pass":
            fails.append(f"{op}: report ends with {plain['last']!r}")
        if "read_error" in plain:
            fails.append(f"{op}: output unreadable: {plain['read_error']}")
        if op == "construct-projection-left" and "pl" in plain:
            ref = self._smash_reference(ctx)
            fails += oracle.first_difference(plain["pl"], ref.left, "pl.rbh")
            fails += oracle.projection_checks(plain["pl"], 4, "pl.rbh")
        if op == "search" and "ops" in plain:
            fails += oracle.search_failures(plain["ops"], self._search_oracle(ctx),
                                            plain["scanned"], 2 ** 4)
        return fails

    def _smash_reference(self, ctx):
        if "ref" not in ctx:
            from rbhopf import builtin
            ctx["ref"] = oracle.SmashReference(plain_hopf(builtin("sweedler4")))
        return ctx["ref"]

    def _search_oracle(self, ctx):
        if "search" not in ctx:
            from rbhopf import GF, builtin
            s = builtin("grouplike:2", GF(2))
            comul = {k: v.residue for k, v in s.comul.entries.items()}
            ctx["search"] = oracle.search_oracle(2, 2, "coalgebra", 1, {}, comul)
        return ctx["search"]

    def corrupt(self, rng, op, plain):
        return {**plain, "pl": corrupt_entry(rng, plain["pl"])}

    def peak_rss_kib(self):
        return self.peak_kib


def make(name: str, root: str, src: str, trace: bool) -> Workload:
    if name == "cli":
        return Cli(root, src, trace)
    return {"smash": Smash, "search": Search,
            "tensor_square": TensorSquare}[name]()


NAMES = ("smash", "search", "tensor_square", "cli")
NEGATIVE_CONTROL_OPS = {"cli": ("construct-projection-left",)}
