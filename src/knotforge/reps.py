"""
SL(2, F_p) representations of knot groups: evaluation of words in matrix
generators, verification against a presentation, JSON serialization, and
exhaustive enumeration of representations up to conjugacy.

Enumeration exploits the Wirtinger structure: in any irreducible (hence any
nonabelian) representation every meridional generator is non-central and all
generators share one trace, so the first generator can be pinned to the
companion matrix of t^2 - s*t + 1 and the residual conjugation freedom is
exactly the centralizer Z of that companion matrix (for traces +-2, of a
unipotent class representative).  That freedom prunes the search, as in
Riley's normal form for a pair of meridians: the first branched generator
ranges over one matrix per Z-conjugation orbit of the trace slice, about p
candidates instead of about p^2, and leaves are deduplicated under Z.  Each
class is listed by the member the unpruned search would keep, the last one
it visits: the Z-conjugate whose tuple of branched-generator values is
largest.  Relators force generators by one product over a cyclic rotation,
with 2x2 arithmetic mod p written out.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

from .algebra import _is_prime
from .presentation import GroupPresentation


class SearchBudgetExceeded(RuntimeError):
    """Raised when representation enumeration exceeds its node budget."""


@dataclass(frozen=True)
class RepSearchConfig:
    p: int
    nonabelian_only: bool = True
    max_nodes: int = 2_000_000

    def __post_init__(self):
        if not _is_prime(self.p):
            raise ValueError("p must be prime")
        if self.max_nodes < 1:
            raise ValueError("budget must be at least 1")


# -- matrices over F_p -------------------------------------------------------

@cache  # immutable; every evaluate_word starts from it
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
        inv = pow(aug[col][col], -1, p)
        aug[col] = [v * inv % p for v in aug[col]]
        for r in range(d):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(v - f * w) % p for v, w in zip(aug[r], aug[col])]
    return tuple(tuple(row[d:]) for row in aug)


def inverses(mats, p):
    """The inverse of each matrix (mat_inv: the adjugate for a 2x2 matrix
    of det 1); ZeroDivisionError when one is singular mod p."""
    return tuple(mat_inv(M, p) for M in mats)


def word_prefixes(w, mats, p, invs=None):
    """The products of the first 0, 1, ..., len(w) letters of the word w
    under the generator images mats, mod p: the identity first, the value
    of w last.  A letter x_g^-1 takes invs[g], the inverses of mats, when
    they are given, and mat_inv(mats[g], p) otherwise.  The 2x2 product
    over F_p is written out."""
    d = len(mats[0]) if mats else 2
    acc = identity_matrix(d)
    out = [acc]
    if p is not None and d == 2:
        a, b, c, e = 1, 0, 0, 1
        for g, s in w:
            (x, y), (z, u) = (mats[g] if s > 0 else invs[g] if invs
                              else mat_inv(mats[g], p))
            a, b, c, e = ((a * x + b * z) % p, (a * y + b * u) % p,
                          (c * x + e * z) % p, (c * y + e * u) % p)
            out.append(((a, b), (c, e)))
        return out
    for g, s in w:
        acc = mat_mul(acc, mats[g] if s > 0 else invs[g] if invs
                      else mat_inv(mats[g], p), p)
        out.append(acc)
    return out


def evaluate_word(w, mats, p):
    return word_prefixes(w, mats, p)[-1]


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
        if self.d < 1:
            raise ValueError("representation dimension must be at least 1, "
                             "got d=%d" % self.d)
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
    """Check det 1 (d=2), that every matrix is invertible and that every
    relator maps to the identity."""
    if len(rho.matrices) != pres.num_generators:
        raise ValueError("matrix count does not match the generator count")
    if require_sl and rho.d == 2:
        for M in rho.matrices:
            if mat_det2(M, rho.p) != 1:
                return False
    try:
        invs = inverses(rho.matrices, rho.p)
    except ZeroDivisionError:
        return False
    ident = identity_matrix(rho.d)
    return all(word_prefixes(r, rho.matrices, rho.p, invs)[-1] == ident
               for r in pres.relators)


def rep_to_json(rho):
    return json.dumps({"p": rho.p,
                       "generators": [[list(r) for r in M]
                                      for M in rho.matrices]})


def rep_from_json(text, pres):
    data = json.loads(text)
    if not isinstance(data, dict) or "p" not in data or "generators" not in data:
        raise ValueError("representation JSON needs 'p' and 'generators'")
    p = int(data["p"])
    if not _is_prime(p):
        raise ValueError("p = %d is not prime" % p)
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
            c = bc * pow(b, -1, p) % p
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
    # the signs of +-I, once each: they coincide at p = 2
    cent = [((e, x), (0, e)) for e in sorted({1, p - 1}) for x in range(p)]
    if p == 2:
        return [(((1, 1), (0, 1)), cent)]
    return [(((eta, c), (0, eta)), cent)
            for c in (1, least_nonsquare(p))]


def _commuting(mats, p):
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if mat_mul(mats[i], mats[j], p) != mat_mul(mats[j], mats[i], p):
                return False
    return True


def _propagate(relators, work, s, p):
    """Assign, in place, every generator that a relator forces.  A relator
    whose only unassigned letter is one occurrence of x^e, rotated to start
    just after it, reads x^e . P = 1 with P the product of its other letters,
    so x = P^-1 for e = 1 and x = P for e = -1.  Returns False on a
    contradiction: a fully assigned relator that is not I, or a forced
    matrix with det != 1, with trace != s or scalar."""
    changed = True
    while changed:
        changed = False
        for r in relators:
            pos = -1
            for i, (g, _) in enumerate(r):
                if work[g] is None:
                    if pos >= 0:
                        break  # a second unassigned letter: nothing forced
                    pos = i
            else:  # at most one unassigned letter, at pos
                a, b, c, d = 1, 0, 0, 1
                for g, e in (r if pos < 0 else r[pos + 1:] + r[:pos]):
                    (x, y), (z, w) = work[g]
                    if e < 0:
                        x, y, z, w = w, -y, -z, x
                    a, b, c, d = ((a * x + b * z) % p, (a * y + b * w) % p,
                                  (c * x + d * z) % p, (c * y + d * w) % p)
                if pos < 0:
                    if (a, b, c, d) != (1, 0, 0, 1):
                        return False
                    continue
                g, e = r[pos]
                if e > 0:
                    a, b, c, d = d, -b % p, -c % p, a
                if (a * d - b * c) % p != 1:
                    return False
                if (a + d) % p != s or (b == c == 0 and a == d):
                    return False
                work[g] = ((a, b), (c, d))
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


def _conjugate(z, zi, M, p):
    return mat_mul(mat_mul(z, M, p), zi, p)


def _orbit_reps(cands, zpairs, p):
    """The least member of each orbit of the sorted list cands under
    conjugation by the pairs (z, z^-1): one pass that marks each orbit."""
    seen = set()
    out = []
    for M in cands:
        if M not in seen:
            out.append(M)
            seen.update(_conjugate(z, zi, M, p) for z, zi in zpairs)
    return out


def enumerate_sl2(pres, cfg):
    """All SL(2, F_p) representations of a Wirtinger-type presentation, as a
    deterministically ordered list.

    Representations are listed up to conjugacy.  Nonabelian ones are found
    per trace value by pinning the first generator to a representative of
    each non-scalar conjugacy class (the companion matrix; for traces +-2
    both unipotent classes), propagating forced values through the
    relators, branching over the remaining trace slice, and deduplicating
    under the pinned matrix's centralizer Z.  The first branch tries one
    matrix per Z-orbit of the slice (its least member), since every class
    has a member there; each class is listed by the member the unpruned
    search would visit last, the Z-conjugate whose tuple of
    branched-generator values is largest.  With nonabelian_only=False
    abelian representations are included first: one per SL2 conjugacy
    class, all generators equal.
    """
    p = cfg.p
    if not pres.is_wirtinger:
        raise ValueError("enumeration needs a Wirtinger-type presentation")
    ng = pres.num_generators
    rels = pres.relators
    reps = []
    nodes = 0
    # order[k] is the generator branched on at depth k (None at a leaf).
    # Propagation assigns a set of generators that depends only on the set
    # assigned before it, so every node of one depth branches on the same
    # generator, and the search meets leaves in lexicographic order of
    # their branched-generator values.
    order = []
    slices = {}

    def mk(mats):
        return Representation(presentation=pres, p=p, d=2, matrices=mats)

    if not cfg.nonabelian_only:
        for M in _abelian_class_reps(p):
            reps.append(mk((M,) * ng))

    def branch(work, s, cands, depth, sink):
        nonlocal nodes
        nodes += 1
        if nodes > cfg.max_nodes:
            raise SearchBudgetExceeded(
                "representation search exceeded its budget: %d nodes used, "
                "reached trace %d of 0..%d" % (cfg.max_nodes, s, p - 1))
        if not _propagate(rels, work, s, p):
            return
        if depth == len(order):
            order.append(_next_branch_gen(pres, work))
        g = order[depth]
        if g is None:
            sink(tuple(work), depth)
            return
        for M in cands:
            work2 = list(work)
            work2[g] = M
            branch(work2, s, slices[s], depth + 1, sink)

    for s in range(p):
        slices[s] = _trace_slice(s, p)
        found = {}
        for M0, zs in _pinned_class_reps(s, p):
            zpairs = [(z, mat_inv2(z, p)) for z in zs]
            init = [None] * ng
            init[0] = M0

            def sink(mats, depth, zpairs=zpairs):
                if _commuting(mats, p):
                    return  # abelian classes are listed up front
                branched = order[:depth]
                canon = keep = top = None
                for z, zi in zpairs:
                    conj = tuple(_conjugate(z, zi, M, p) for M in mats)
                    if canon is None or conj < canon:
                        canon = conj
                    key = [conj[g] for g in branched]
                    if keep is None or key > top:
                        keep, top = conj, key
                found[canon] = keep

            branch(init, s, _orbit_reps(slices[s], zpairs, p), 0, sink)
        for canon in sorted(found):
            reps.append(mk(found[canon]))
    return reps


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
