"""Independent oracles in plain `Fraction` and int-mod-p arithmetic.

Nothing here imports rbhopf.  `workloads.py` copies the fixtures' structure
constants and the program's outputs into lists, dicts and tuples; the
functions below recompute what those outputs must be from the definitions
and return a list of failure messages, empty when the output is right.

Matrices are dense lists of rows.  An element of a tensor power V⊗...⊗V is
a dict {basis index tuple: nonzero coefficient}; structure constants are
fans, `comul[i] = [(j, k, v), ...]` for Δ(e_i) = Σ v e_j⊗e_k and
`mul[(i, j)] = [(k, v), ...]` for e_i e_j = Σ v e_k, so expanding an
identity on a basis element costs its nonzero terms, not dim³.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product


class Hopf:
    """Plain copy of a Hopf algebra: fans, unit, counit and antipode."""

    def __init__(self, dim, mul, comul, unit, counit, antipode):
        self.dim = dim
        self.mul = fan_pairs(mul)
        self.comul = fan_first(comul)
        self.unit = list(unit)
        self.counit = list(counit)
        self.antipode = [list(row) for row in antipode]


def fan_first(entries: dict) -> dict:
    """{(i, j, k): v} -> {i: [(j, k, v)]}."""
    out: dict = {}
    for (i, j, k), v in sorted(entries.items()):
        if v:
            out.setdefault(i, []).append((j, k, v))
    return out


def fan_pairs(entries: dict) -> dict:
    """{(i, j, k): v} -> {(i, j): [(k, v)]}."""
    out: dict = {}
    for (i, j, k), v in sorted(entries.items()):
        if v:
            out.setdefault((i, j), []).append((k, v))
    return out


def _add(out: dict, key, v):
    w = out.get(key, 0) + v
    if w:
        out[key] = w
    else:
        out.pop(key, None)


def columns(m) -> list:
    """Nonzero entries of each column of a dense matrix: [[(row, v)]]."""
    cols = [[] for _ in range(len(m[0]) if m else 0)]
    for r, row in enumerate(m):
        for c, v in enumerate(row):
            if v:
                cols[c].append((r, v))
    return cols


def matmul(a, b) -> list:
    n, k = len(a), len(b[0]) if b else 0
    out = [[0] * k for _ in range(n)]
    for i, row in enumerate(a):
        orow = out[i]
        for m, x in enumerate(row):
            if x:
                for j, y in enumerate(b[m]):
                    if y:
                        orow[j] += x * y
    return out


def kron(a, b) -> list:
    """Kronecker product, e_i⊗e_j at flat index i*dim(W) + j."""
    return [[x * y for x in ra for y in rb] for ra in a for rb in b]


def trace(m):
    return sum(m[i][i] for i in range(len(m)))


def first_difference(got, want, what: str) -> list:
    """[] when two dense matrices agree, else one message naming an entry."""
    if len(got) != len(want) or any(len(r) != len(s) for r, s in zip(got, want)):
        return [f"{what}: shape differs"]
    for i, (r, s) in enumerate(zip(got, want)):
        for j, (x, y) in enumerate(zip(r, s)):
            if x != y:
                return [f"{what}: entry ({i},{j}) is {x}, expected {y}"]
    return []


def projection_checks(p, rank: int, what: str) -> list:
    """P² = P and trace P = rank (an idempotent's rank is its trace)."""
    fails = first_difference(matmul(p, p), p, f"{what} squared")
    if trace(p) != rank:
        fails.append(f"{what}: trace {trace(p)}, expected {rank}")
    return fails


# ---------------------------------------------------------------------------
# Rota-Baxter identities, expanded on each basis element
# ---------------------------------------------------------------------------

def rb_coalgebra_failures(comul: dict, p, weight, what: str) -> list:
    """(P⊗P)Δ = (id⊗P)ΔP + (P⊗id)ΔP + γΔP on every basis vector."""
    cols = columns(p)
    for i in range(len(p)):
        lhs: dict = {}
        for j, k, v in comul.get(i, ()):
            for a, x in cols[j]:
                for b, y in cols[k]:
                    _add(lhs, (a, b), x * y * v)
        dq: dict = {}
        for m, x in cols[i]:
            for j, k, v in comul.get(m, ()):
                _add(dq, (j, k), x * v)
        rhs: dict = {}
        for (j, k), v in dq.items():
            for b, y in cols[k]:
                _add(rhs, (j, b), y * v)
            for a, x in cols[j]:
                _add(rhs, (a, k), x * v)
            _add(rhs, (j, k), weight * v)
        if lhs != rhs:
            return [f"{what}: weight {weight} coalgebra Rota-Baxter identity "
                    f"fails on e_{i}"]
    return []


def _vmul(mul: dict, u: dict, w: dict) -> dict:
    out: dict = {}
    for (a,), x in u.items():
        for (b,), y in w.items():
            for k, v in mul.get((a, b), ()):
                _add(out, (k,), x * y * v)
    return out


def _vmap(cols, u: dict) -> dict:
    out: dict = {}
    for (a,), x in u.items():
        for r, y in cols[a]:
            _add(out, (r,), x * y)
    return out


def rb_algebra_failures(mul: dict, p, weight, what: str) -> list:
    """P(x)P(y) = P(xP(y)) + P(P(x)y) + λP(xy) on every basis pair."""
    cols = columns(p)
    n = len(p)
    basis = [{(i,): 1} for i in range(n)]
    image = [_vmap(cols, e) for e in basis]
    for i, j in product(range(n), repeat=2):
        lhs = _vmul(mul, image[i], image[j])
        rhs: dict = {}
        for term in (_vmul(mul, basis[i], image[j]),
                     _vmul(mul, image[i], basis[j])):
            for key, v in _vmap(cols, term).items():
                _add(rhs, key, v)
        for key, v in _vmap(cols, _vmul(mul, basis[i], basis[j])).items():
            _add(rhs, key, weight * v)
        if lhs != rhs:
            return [f"{what}: weight {weight} algebra Rota-Baxter identity "
                    f"fails on (e_{i}, e_{j})"]
    return []


def prelie_failures(comul: dict, what: str) -> list:
    """The coassociator of Δ is symmetric in its first two slots."""
    for i in sorted(comul):
        c: dict = {}
        for j, z, v in comul[i]:
            for a, b, w in comul.get(j, ()):
                _add(c, (a, b, z), v * w)
        for a, k, v in comul[i]:
            for b, z, w in comul.get(k, ()):
                _add(c, (a, b, z), -v * w)
        for (a, b, z), v in c.items():
            if c.get((b, a, z), 0) != v:
                return [f"{what}: coassociator not symmetric at e_{i}, "
                        f"slot ({a},{b},{z})"]
    return []


def twisted_comul(comul: dict, p) -> dict:
    """Q(c₁)⊗c₂ - Q(c₂)⊗c₁ - c₁⊗c₂ as {(i, j, k): v}."""
    cols = columns(p)
    out: dict = {}
    for i, terms in comul.items():
        for j, k, v in terms:
            for r, x in cols[j]:
                _add(out, (i, r, k), x * v)
            for r, x in cols[k]:
                _add(out, (i, r, j), -x * v)
            _add(out, (i, j, k), -v)
    return out


# ---------------------------------------------------------------------------
# Smash coproduct of H in its own Yetter-Drinfeld category
# ---------------------------------------------------------------------------

class SmashReference:
    """Δ, P_R and P_L of the smash coproduct H×H of the adjoint YD coalgebra.

    Coaction ρ(c) = c₁S(c₃) ⊗ c₂, action h·c = hc; on M = C⊗H the smash
    comultiplication is Δ(c⊗h) = c₁ ⊗ c₂₍₋₁₎h₁ ⊗ c₂₍₀₎ ⊗ h₂, the right
    projection is c⊗h ↦ c ⊗ ε(h)1 and the left one is the generic
    S(m₍₋₁₎)·m₍₀₎ for x·(c⊗h) = x₁c ⊗ x₂h, ρ(c⊗h) = c₍₋₁₎h₁ ⊗ (c₍₀₎⊗h₂).
    """

    def __init__(self, hopf: Hopf):
        self.hopf = hopf
        n = hopf.dim
        self.dim = n * n
        self.rho = [self._coaction(c) for c in range(n)]
        self.comul = self._smash_comul()
        self.right = self._right()
        self.left = self._left()

    def _coaction(self, c) -> dict:
        h = self.hopf
        out: dict = {}
        for x, z, v1 in h.comul.get(c, ()):
            for c1, c2, v2 in h.comul.get(x, ()):
                for s in range(h.dim):
                    sz = h.antipode[s][z]
                    if sz:
                        for k, v3 in h.mul.get((c1, s), ()):
                            _add(out, (k, c2), v1 * v2 * sz * v3)
        return out

    def _smash_comul(self) -> dict:
        h = self.hopf
        n = h.dim
        out: dict = {}
        for c, x in product(range(n), repeat=2):
            for c1, c2, v1 in h.comul.get(c, ()):
                for (a, c0), v2 in self.rho[c2].items():
                    for x1, x2, v3 in h.comul.get(x, ()):
                        for k, v4 in h.mul.get((a, x1), ()):
                            _add(out, (c * n + x, c1 * n + k, c0 * n + x2),
                                 v1 * v2 * v3 * v4)
        return out

    def _right(self) -> list:
        h = self.hopf
        n = h.dim
        p = [[0] * self.dim for _ in range(self.dim)]
        for c, x, u in product(range(n), repeat=3):
            p[c * n + u][c * n + x] += h.counit[x] * h.unit[u]
        return p

    def _left(self) -> list:
        h = self.hopf
        n = h.dim
        p = [[0] * self.dim for _ in range(self.dim)]
        for c, x in product(range(n), repeat=2):
            col = c * n + x
            for (a, c0), v1 in self.rho[c].items():
                for x1, x2, v2 in h.comul.get(x, ()):
                    for k, v3 in h.mul.get((a, x1), ()):
                        for s in range(n):
                            sk = h.antipode[s][k]
                            if not sk:
                                continue
                            for s1, s2, v4 in h.comul.get(s, ()):
                                for r1, v5 in h.mul.get((s1, c0), ()):
                                    for r2, v6 in h.mul.get((s2, x2), ()):
                                        p[r1 * n + r2][col] += (
                                            v1 * v2 * v3 * sk * v4 * v5 * v6)
        return p


def grouplike_comul(dim: int) -> dict:
    return {(i, i, i): 1 for i in range(dim)}


def smash_failures(ref: SmashReference, side: str, out: dict,
                   grouplike: bool) -> list:
    """Check one smash pipeline's outputs against the reference.

    `out` holds `comul` ({(i, j, k): v} of the smash coalgebra), `p` (the
    projection) and `prelie` (the derived comultiplication).
    """
    fails = []
    if out["comul"] != ref.comul:
        fails.append("smash comultiplication differs from Δ(c⊗h) = "
                     "c₁ ⊗ c₂₍₋₁₎h₁ ⊗ c₂₍₀₎ ⊗ h₂")
    if grouplike and out["comul"] != grouplike_comul(ref.dim):
        fails.append("group fixture: smash comultiplication is not grouplike")
    p = out["p"]
    want = ref.right if side == "right" else ref.left
    fails += first_difference(p, want, f"P_{side[0].upper()}")
    fails += projection_checks(p, ref.hopf.dim, f"P_{side[0].upper()}")
    fails += rb_coalgebra_failures(fan_first(ref.comul), p, -1,
                                   f"P_{side[0].upper()}")
    if out["prelie"] != twisted_comul(fan_first(ref.comul), want):
        fails.append("pre-Lie comultiplication differs from "
                     "Q(c₁)⊗c₂ - Q(c₂)⊗c₁ - c₁⊗c₂")
    fails += prelie_failures(fan_first(out["prelie"]), "pre-Lie")
    return fails


# ---------------------------------------------------------------------------
# Tensor square H⊗H with i(h) = h⊗1, π(h⊗h') = hε(h')
# ---------------------------------------------------------------------------

class TensorSquareReference:
    """Structure constants of H⊗H and Π = id ⋆ (i∘S∘π) = (1ε) ⊗ id."""

    def __init__(self, hopf: Hopf):
        self.hopf = hopf
        n = hopf.dim
        self.dim = n * n
        mul: dict = {}
        for (a, b), t1 in hopf.mul.items():
            for (c, d), t2 in hopf.mul.items():
                for k1, v1 in t1:
                    for k2, v2 in t2:
                        _add(mul, (a * n + c, b * n + d, k1 * n + k2), v1 * v2)
        comul: dict = {}
        for a, t1 in hopf.comul.items():
            for b, t2 in hopf.comul.items():
                for a1, a2, v1 in t1:
                    for b1, b2, v2 in t2:
                        _add(comul, (a * n + b, a1 * n + b1, a2 * n + b2),
                             v1 * v2)
        self.mul = mul
        self.comul = comul
        unit_counit = [[u * e for e in hopf.counit] for u in hopf.unit]
        eye = [[int(i == j) for j in range(n)] for i in range(n)]
        self.pi = kron(unit_counit, eye)


def tensor_square_failures(ref: TensorSquareReference, out: dict) -> list:
    """`out` holds `mul`, `comul` of H⊗H and the four projections."""
    fails = []
    if out["mul"] != ref.mul or out["comul"] != ref.comul:
        fails.append("H⊗H structure constants differ from the tensor product")
    mul, comul = fan_pairs(ref.mul), fan_first(ref.comul)
    for name in ("pi_right", "pi_left", "p_right", "p_left"):
        p = out[name]
        fails += first_difference(p, ref.pi, name)
        fails += projection_checks(p, ref.hopf.dim, name)
    fails += rb_algebra_failures(mul, out["pi_right"], -1, "Π")
    fails += rb_coalgebra_failures(comul, out["pi_right"], -1, "Π")
    return fails


# ---------------------------------------------------------------------------
# Exhaustive search over F_p
# ---------------------------------------------------------------------------

def _matmul_mod(a, b, p):
    return [[v % p for v in row] for row in matmul(a, b)]


def _rb_coalgebra_mod(q, delta, n, p, w) -> bool:
    """(Q⊗Q)Δ = (id⊗Q)ΔQ + (Q⊗id)ΔQ + γΔQ, column by column, in dense
    vectors of V⊗V (entry a*n + b); `delta[i]` lists Δ(e_i)'s nonzeros."""
    rng = range(n)
    for i in rng:
        lhs = [0] * (n * n)
        for j, k, v in delta[i]:
            for a in rng:
                x = q[a][j]
                if x:
                    for b in rng:
                        y = q[b][k]
                        if y:
                            lhs[a * n + b] += x * y * v
        dq = [0] * (n * n)
        for m in rng:
            x = q[m][i]
            if x:
                for j, k, v in delta[m]:
                    dq[j * n + k] += x * v
        rhs = [w * t for t in dq]
        for j in rng:
            for k in rng:
                t = dq[j * n + k]
                if t:
                    for b in rng:
                        rhs[j * n + b] += q[b][k] * t
                    for a in rng:
                        rhs[a * n + k] += q[a][j] * t
        if any((x - y) % p for x, y in zip(lhs, rhs)):
            return False
    return True


def _rb_algebra_mod(q, m, n, p, w) -> bool:
    """M(P⊗P) = PM(I⊗P) + PM(P⊗I) + λPM with M the n×n² multiplication."""
    eye = [[int(i == j) for j in range(n)] for i in range(n)]
    pm = _matmul_mod(q, m, p)
    lhs = _matmul_mod(m, kron(q, q), p)
    a = _matmul_mod(pm, kron(eye, q), p)
    b = _matmul_mod(pm, kron(q, eye), p)
    return all((a[r][c] + b[r][c] + w * pm[r][c] - lhs[r][c]) % p == 0
               for r in range(n) for c in range(n * n))


def search_oracle(dim: int, p: int, side: str, weight: int, mul: dict,
                  comul: dict) -> list:
    """Every dim×dim matrix over F_p, row-major lex order, that is Rota-Baxter.

    Enumerates all p^(n²) candidates, as criterion 5 does, and evaluates the
    identity densely mod p.  Returns the operators as tuples of row tuples.
    """
    n = dim
    w = weight % p
    if side == "coalgebra":
        delta = [[(j, k, v % p) for (i2, j, k), v in sorted(comul.items())
                  if i2 == i and v % p] for i in range(n)]
        check = lambda q: _rb_coalgebra_mod(q, delta, n, p, w)
    else:
        m = [[0] * (n * n) for _ in range(n)]
        for (i, j, k), v in mul.items():
            m[k][i * n + j] = v % p
        check = lambda q: _rb_algebra_mod(q, m, n, p, w)
    found = []
    for flat in product(range(p), repeat=n * n):
        q = [flat[r * n:(r + 1) * n] for r in range(n)]
        if check(q):
            found.append(tuple(q))
    return found


def idempotent(q, p: int) -> bool:
    return _matmul_mod(q, q, p) == [list(r) for r in q]


def search_failures(found, want, scanned: int, total: int) -> list:
    fails = []
    if scanned != total:
        fails.append(f"candidates_scanned {scanned}, expected {total}")
    if len(found) != len(want):
        fails.append(f"found {len(found)} operators, oracle lists {len(want)}")
    else:
        for i, (q, r) in enumerate(zip(found, want)):
            if q != r:
                fails.append(f"operator {i} is {q}, oracle has {r}")
                break
    return fails


# ---------------------------------------------------------------------------
# The file format, read back without rbhopf
# ---------------------------------------------------------------------------

def parse_operator(text: str) -> list:
    """A dense matrix from an `rbhopf 1 operator` file (Q or F_p)."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if lines[0][:3] != ["rbhopf", "1", "operator"]:
        raise ValueError("not an operator file")
    head = {t[0]: t[1:] for t in lines[1:4]}
    rows, cols = int(head["rows"][0]), int(head["cols"][0])
    finite = head["field"][0] != "Q"
    m = [[0] * cols for _ in range(rows)]
    for t in lines[4:]:
        if t[0] != "entry":
            raise ValueError(f"unexpected line {' '.join(t)!r}")
        r, c = int(t[1]), int(t[2])
        m[r][c] = int(t[3]) if finite else Fraction(int(t[3]), int(t[4]))
    return m
