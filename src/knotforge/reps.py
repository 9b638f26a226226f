"""
SL(2, F_p) representations of knot groups: evaluation of words in matrix
generators, verification against a presentation, JSON serialization, and
exhaustive enumeration of representations up to conjugacy.

Enumeration exploits the Wirtinger structure: in any irreducible (hence any
nonabelian) representation every meridional generator is non-central and all
generators share one trace, so the first generator can be pinned to the
companion matrix of t^2 - s*t + 1 and the residual conjugation freedom is
exactly the centralizer of that companion matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .algebra import _is_prime
from .presentation import GroupPresentation


class SearchBudgetExceeded(RuntimeError):
    """Raised when representation enumeration exceeds its node budget."""


@dataclass(frozen=True)
class RepSearchConfig:
    p: int
    nonabelian_only: bool = True
    up_to_conjugacy: bool = True
    max_nodes: int = 2_000_000

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError("p must be prime")
        if self.max_nodes < 1:
            raise ValueError("budget must be at least 1")


# -- matrices over F_p -------------------------------------------------------

def identity_matrix(d):
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def _red(v, p):
    return v if p is None else v % p


def mat_mul(A, B, p):
    if p is not None and len(A) == 2:
        (a, b), (c, d) = A
        (e, f), (g, h) = B
        return (((a * e + b * g) % p, (a * f + b * h) % p),
                ((c * e + d * g) % p, (c * f + d * h) % p))
    d = len(A)
    return tuple(tuple(_red(sum(A[i][k] * B[k][j] for k in range(d)), p)
                       for j in range(d)) for i in range(d))


def mat_det2(A, p):
    return (A[0][0] * A[1][1] - A[0][1] * A[1][0]) % p


def mat_inv2(A, p):
    """Inverse of an SL2 matrix: the adjugate."""
    a, b = A[0]
    c, d = A[1]
    return ((d % p, -b % p), (-c % p, a % p))


def mat_inv(A, p):
    if p is None:
        # characteristic 0 path: only unit integer matrices (the d = 1
        # trivial representation) need inverting
        if len(A) == 1 and A[0][0] in (1, -1):
            return A
        raise NotImplementedError("matrix inversion over Z is only supported "
                                  "for 1x1 unit matrices")
    if len(A) == 2 and mat_det2(A, p) == 1:
        return mat_inv2(A, p)
    d = len(A)
    aug = [[A[i][j] % p for j in range(d)] + [1 if i == j else 0
                                              for j in range(d)]
           for i in range(d)]
    for col in range(d):
        piv = next((r for r in range(col, d) if aug[r][col] % p), None)
        if piv is None:
            raise ZeroDivisionError("matrix is singular mod %d" % p)
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], p - 2, p)
        aug[col] = [v * inv % p for v in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(v - f * w) % p for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[d:]) for row in aug)


def evaluate_word(w, mats, p):
    d = len(mats[0]) if mats else 2
    acc = identity_matrix(d)
    for g, e in w:
        M = mats[g] if e == 1 else mat_inv(mats[g], p)
        acc = mat_mul(acc, M, p)
    return acc


def is_scalar(A, p):
    d = len(A)
    a = _red(A[0][0], p)
    return all(_red(A[i][j], p) == (a if i == j else 0)
               for i in range(d) for j in range(d))


def companion_sl2(s, p):
    return ((0, (-1) % p), (1, s % p))


# -- representation container ------------------------------------------------

@dataclass(frozen=True)
class Representation:
    presentation: GroupPresentation
    p: int
    d: int
    matrices: tuple

    def __post_init__(self):
        mats = tuple(tuple(tuple(_red(v, self.p) for v in row) for row in M)
                     for M in self.matrices)
        object.__setattr__(self, "matrices", mats)
        if len(mats) != self.presentation.num_generators:
            raise ValueError("need one matrix per generator")
        for M in mats:
            if len(M) != self.d or any(len(r) != self.d for r in M):
                raise ValueError("matrix size does not match d=%d" % self.d)

    def __call__(self, w):
        return evaluate_word(w, self.matrices, self.p)

    @property
    def is_abelian(self):
        return len(set(self.matrices)) <= 1

    def trace(self, g=0):
        M = self.matrices[g]
        return _red(sum(M[i][i] for i in range(self.d)), self.p)

    def __repr__(self):
        return "Representation(d=%d, p=%d, %d generators)" % (
            self.d, self.p, len(self.matrices))


def verify_representation(pres, rho, require_sl=True):
    """Check det 1 (d=2) and that every relator maps to the identity."""
    if len(rho.matrices) != pres.num_generators:
        raise ValueError("matrix count does not match the generator count")
    if require_sl and rho.d == 2:
        for M in rho.matrices:
            if mat_det2(M, rho.p) != 1:
                return False
    ident = identity_matrix(rho.d)
    return all(rho(r) == ident for r in pres.relators)


def rep_to_json(rho):
    return json.dumps({"p": rho.p,
                       "generators": [[list(r) for r in M]
                                      for M in rho.matrices]})


def rep_from_json(text, pres):
    data = json.loads(text)
    if not isinstance(data, dict) or "p" not in data or "generators" not in data:
        raise ValueError("representation JSON needs 'p' and 'generators'")
    p = int(data["p"])
    mats = tuple(tuple(tuple(int(v) for v in row) for row in M)
                 for M in data["generators"])
    if not mats:
        raise ValueError("empty generator list")
    d = len(mats[0])
    return Representation(presentation=pres, p=p, d=d, matrices=mats)


# -- enumeration -------------------------------------------------------------

def _trace_slice(s, p, include_scalar=False):
    """All SL2(F_p) matrices of trace s, optionally without the scalars."""
    out = []
    for a in range(p):
        dd = (s - a) % p
        bc = (a * dd - 1) % p
        for b in range(p):
            if b == 0:
                if bc == 0:
                    for c in range(p):
                        out.append(((a, 0), (c, dd)))
                continue
            c = bc * pow(b, p - 2, p) % p
            out.append(((a, b), (c, dd)))
    if not include_scalar:
        out = [M for M in out if not is_scalar(M, p)]
    out.sort()
    return out


def _centralizer_of_companion(s, p):
    """Elements of SL2(F_p) commuting with the trace-s companion matrix:
    the invertible polynomials a*I + b*M with a^2 + s*a*b + b^2 = 1."""
    out = []
    for a in range(p):
        for b in range(p):
            if (a * a + s * a * b + b * b) % p == 1:
                out.append(((a % p, (-b) % p), (b % p, (a + s * b) % p)))
    return out


def least_nonsquare(p):
    return next(e for e in range(2, p) if pow(e, (p - 1) // 2, p) == p - 1)


def _pinned_class_reps(s, p):
    """Representatives of the non-scalar conjugacy classes of trace s, each
    with its centralizer in SL2(F_p).  Trace values other than +-2 form one
    class (the companion matrix); traces +-2 split into two unipotent classes
    whose centralizer is the upper unitriangular group times +-I."""
    if (s - 2) % p != 0 and (s + 2) % p != 0:
        return [(companion_sl2(s, p), _centralizer_of_companion(s, p))]
    eta = 1 if (s - 2) % p == 0 else (-1) % p
    cent = [((e, x), (0, e)) for e in (1, (-1) % p) for x in range(p)]
    if p == 2:
        return [(((1, 1), (0, 1)), cent)]
    return [(((eta, c), (0, eta)), cent)
            for c in (1, least_nonsquare(p))]


def _solve_single_occurrence(r, assign, p):
    """If relator r contains exactly one unassigned generator, occurring once,
    return (gen, forced matrix); otherwise None."""
    missing = [(i, g, e) for i, (g, e) in enumerate(r) if assign[g] is None]
    if len(missing) != 1:
        return None
    i, g, e = missing[0]
    # u X^e v = 1  =>  X^e = u^-1 v^-1; all other letters are assigned
    u = evaluate_word(r[:i], assign, p)
    v = evaluate_word(r[i + 1:], assign, p)
    rhs = mat_mul(mat_inv2(u, p), mat_inv2(v, p), p)
    X = rhs if e == 1 else mat_inv2(rhs, p)
    return g, X


def _commuting(mats, p):
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mat_mul(mats[i], mats[j], p) != mat_mul(mats[j], mats[i], p):
                return False
    return True


def _propagate(pres, assign, s, p, allow_any_trace=False):
    """Forced deductions from relators with one unassigned occurrence.
    Returns False when a contradiction is found."""
    changed = True
    ident = identity_matrix(2)
    while changed:
        changed = False
        for r in pres.relators:
            missing = {g for g, _ in r if assign[g] is None}
            if not missing:
                if evaluate_word(r, assign, p) != ident:
                    return False
                continue
            if len(missing) != 1:
                continue
            got = _solve_single_occurrence(r, assign, p)
            if got is None:
                continue
            g, X = got
            if mat_det2(X, p) != 1:
                return False
            if not allow_any_trace:
                if (X[0][0] + X[1][1]) % p != s % p or is_scalar(X, p):
                    return False
            assign[g] = X
            changed = True
    return True


def _next_branch_gen(pres, work):
    """Pick the unassigned generator to branch on: one from the relator with
    the fewest unassigned generators, so the assignment either forces the
    remaining ones through propagation or is checked immediately.  Returns
    None when every generator is assigned."""
    best = None
    for ri, r in enumerate(pres.relators):
        missing = sorted({g for g, _ in r if work[g] is None})
        if not missing:
            continue
        key = (len(missing), ri)
        if best is None or key < best[0]:
            best = (key, missing[0])
    if best is not None:
        return best[1]
    try:
        return work.index(None)
    except ValueError:
        return None


def _canonical_under(mats, zs, p):
    best = None
    for z in zs:
        zi = mat_inv2(z, p)
        cand = tuple(mat_mul(mat_mul(z, M, p), zi, p) for M in mats)
        if best is None or cand < best:
            best = cand
    return best


def enumerate_sl2(pres, cfg):
    """All SL(2, F_p) representations of a Wirtinger-type presentation, as a
    deterministically ordered list.

    Nonabelian representations are found per trace value by pinning the first
    generator to a representative of each non-scalar conjugacy class (the
    companion matrix; for traces +-2 both unipotent classes), propagating
    forced values through the relators, branching over the remaining trace
    slice, and, when up_to_conjugacy is set, deduplicating under the pinned
    matrix's centralizer.  With nonabelian_only=False abelian representations
    are included: one per SL2 conjugacy class (all generators equal) in
    conjugacy mode, or the scalar-pinned completions in raw-slice mode.
    """
    p = cfg.p
    if not pres.is_wirtinger:
        raise ValueError("enumeration needs a Wirtinger-type presentation")
    ng = pres.num_generators
    reps = []
    nodes = [0]

    def mk(mats):
        return Representation(presentation=pres, p=p, d=2, matrices=mats)

    if not cfg.nonabelian_only and cfg.up_to_conjugacy:
        for M in _abelian_class_reps(p):
            reps.append(mk((M,) * ng))

    full_sl2 = None

    def branch(work, s, sink):
        nodes[0] += 1
        if nodes[0] > cfg.max_nodes:
            raise SearchBudgetExceeded(
                "representation search exceeded %d nodes" % cfg.max_nodes)
        if not _propagate(pres, work, s, p, allow_any_trace=(s is None)):
            return
        g = _next_branch_gen(pres, work)
        if g is None:
            sink(tuple(work))
            return
        cands = _trace_slice(s, p) if s is not None else full_sl2
        for M in cands:
            work2 = list(work)
            work2[g] = M
            branch(work2, s, sink)

    if not cfg.nonabelian_only and not cfg.up_to_conjugacy:
        # raw-slice abelian/scalar pins: first generator +-I
        full_sl2 = _all_sl2(p)
        for eta in (1, (-1) % p):
            init = [None] * ng
            init[0] = ((eta, 0), (0, eta))
            branch(init, None, lambda mats: reps.append(mk(mats)))

    for s in range(p):
        found = {}
        raw = []
        for M0, zs in _pinned_class_reps(s, p):
            init = [None] * ng
            init[0] = M0

            def sink(mats, zs=zs):
                if _commuting(mats, p):
                    if cfg.nonabelian_only:
                        return
                    if cfg.up_to_conjugacy:
                        return  # abelian classes already listed
                if cfg.up_to_conjugacy:
                    found[_canonical_under(mats, zs, p)] = mats
                else:
                    raw.append(mats)

            branch(init, s, sink)
        if cfg.up_to_conjugacy:
            for canon in sorted(found):
                reps.append(mk(found[canon]))
        else:
            for mats in sorted(raw):
                reps.append(mk(mats))
    return reps


def _all_sl2(p):
    out = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p == 1:
                        out.append(((a, b), (c, d)))
    return out


def _abelian_class_reps(p):
    """One SL2(F_p) matrix per conjugacy class, deterministically ordered:
    scalars, companion matrices for traces other than +-2, and for traces
    +-2 the two unipotent classes per sign."""
    out = [identity_matrix(2), (((-1) % p, 0), (0, (-1) % p))]
    eps = least_nonsquare(p) if p > 2 else 1
    for s in range(p):
        if (s - 2) % p == 0 or (s + 2) % p == 0:
            eta = 1 if (s - 2) % p == 0 else (-1) % p
            out.append(((eta, 1), (0, eta)))
            if p > 2:
                out.append(((eta, eps), (0, eta)))
        else:
            out.append(companion_sl2(s, p))
    return out
