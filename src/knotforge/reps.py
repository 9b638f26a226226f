"""
SL(2, F_p) representations of knot groups: evaluation of words in matrix
generators, verification against a presentation, JSON serialization, and
exhaustive enumeration of representations up to conjugacy.  Every
`Representation` is over a prime field F_p, whatever its dimension d.

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
largest.

Over F_p with p odd the classes come in pairs twice over, and the list is
made in three steps.  (1) Only the traces s <= -s mod p are searched, and
only one class of each GL2 pair.  The GL2 partner of rho is g rho g^-1
for any g of GL(2, F_p) whose determinant is a non-square; it is another
SL(2, F_p) class unless rho is GL2-stable (irreducible but not absolutely
irreducible), and its twisted polynomial is rho's, since Wada's invariant
does not change under conjugation by GL(2, F_p).  For a trace other than
+-2 the g is taken in the GL2 centralizer C of the companion matrix, so
the first branch tries one matrix per C-orbit of the slice, and meets one
class of each pair; for the traces +-2, g = diag(e, 1), e a non-square,
takes the pinned unipotent class with c = 1 to the one with c = e, so
only the first is searched.  The partner of each class met is derived by
one conjugation and put through the leaf's canonicalization (compare
Riley's normal forms, Proc. LMS 24, 1972).  (2) Every relator of a
Wirtinger-type presentation has exponent sum 0, so twisting by the
character eps that sends every meridian to -1 is a bijection between the
nonabelian classes of trace s and those of trace -s.  The sign twin of
rho, eps (x) rho conjugated by D = diag(1, -1), sends the pinned
companion (or unipotent) matrix of trace s to the pinned one of trace -s;
each class found in step 1 gives its twin, put through the leaf's
canonicalization again: a new class for -s != s, a class already found
at trace 0.  The twin's twisted polynomial is Delta_rho(-t) (Wada,
Topology 33, 1994; Kirk and Livingston, Topology 38, 1999), and the
partner of a twin is the twin of the partner.  (3) The classes, keyed by
their trace and least Z-conjugate, are laid out once in that order.

Which relator forces which generator, and which relators become complete,
depends only on which generators are assigned, so each search compiles its
propagation plan once from the relators alone: per depth, a straight-line
list of force steps (one product over a cyclic rotation of a relator) and
check steps (each relator checked once, at the depth it becomes complete),
then the generator to branch on.  Every node runs its depth's plan with the
2x2 arithmetic mod p written out.  A force step is the Wirtinger colouring
move (Blair, Kjuchukova, Velazquez and Villanueva, Comm. Anal. Geom. 28,
2020); the same colouring argument fixes the over-arc g of a crossing
in . g^e . out^-1 . g^-e whose under-arcs are known up to the linear
equation in . N = N . out, N = g^e.  The plan records each such crossing
with the branch on g, and the branch tests it on every candidate before it
recurses: a candidate it rejects is the node the next depth's check step of
that relator would reject, so it is counted as one against the budget and
the results and node totals are those of the plain search.  The trace
slices, pinned classes with their centralizers and first-branch orbit
representatives and partner conjugators are memoized per (trace, p) in a
bounded cache.
"""

from __future__ import annotations

import json
from functools import cache, lru_cache

from ._record import Record
from .algebra import _is_prime


class SearchBudgetExceeded(RuntimeError):
    """Raised when representation enumeration exceeds its node budget."""


class RepSearchConfig(Record):
    __slots__ = _fields = ("p", "nonabelian_only", "max_nodes")

    def __init__(self, p, nonabelian_only=True, max_nodes=2_000_000):
        if not _is_prime(p):
            raise ValueError("p must be prime")
        if type(max_nodes) is not int:
            # not a bool either, which would read True as a budget of 1
            raise ValueError("budget %r is not an integer" % (max_nodes,))
        if max_nodes < 1:
            raise ValueError("budget must be at least 1")
        if type(nonabelian_only) is not bool:
            # "no" was true, and 1 hashed like True yet was not it
            raise ValueError("nonabelian_only %r is not a bool"
                             % (nonabelian_only,))
        self._init(p, nonabelian_only, max_nodes)


# -- matrices over F_p -------------------------------------------------------

@cache  # immutable; every evaluate_word starts from it
def identity_matrix(d):
    return tuple(tuple(1 if i == j else 0 for j in range(d)) for i in range(d))


def mat_mul(A, B, p):
    if len(A) == 2:
        (a, b), (c, d) = A
        (e, f), (g, h) = B
        return (((a * e + b * g) % p, (a * f + b * h) % p),
                ((c * e + d * g) % p, (c * f + d * h) % p))
    d = len(A)
    return tuple(tuple(sum(A[i][k] * B[k][j] for k in range(d)) % p
                       for j in range(d)) for i in range(d))


def mat_det2(A, p):
    return (A[0][0] * A[1][1] - A[0][1] * A[1][0]) % p


def mat_inv2(A, p):
    """Inverse of an SL2 matrix: the adjugate."""
    a, b = A[0]
    c, d = A[1]
    return ((d % p, -b % p), (-c % p, a % p))


def mat_inv(A, p):
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
    if d == 2:
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
    a = A[0][0] % p
    return all(A[i][j] % p == (a if i == j else 0)
               for i in range(d) for j in range(d))


def companion_sl2(s, p):
    return ((0, (-1) % p), (1, s % p))


# -- representation container ------------------------------------------------

class Representation(Record):
    """d x d matrices over F_p, one per generator of some presentation; the
    presentation is not stored, and verify_representation checks the two
    where they meet."""
    __slots__ = _fields = ("p", "d", "matrices")

    def __init__(self, p, d, matrices):
        if not _is_prime(p):
            raise ValueError("p must be prime")
        mats = tuple(tuple(tuple(v % p for v in row) for row in M)
                     for M in matrices)
        if d < 1:
            raise ValueError("representation dimension must be at least 1, "
                             "got d=%d" % d)
        for M in mats:
            if len(M) != d or any(len(r) != d for r in M):
                raise ValueError("matrix size does not match d=%d" % d)
        self._init(p, d, mats)

    @classmethod
    def _trusted(cls, p, d, matrices):
        """A representation from a tuple of d x d matrices that are nested
        tuples already reduced mod p, built without the re-reduction and
        shape checks of the validating constructor __init__ (for enumerated
        classes and the package's own restrictions and pullbacks of checked
        representations)."""
        rho = object.__new__(cls)
        rho._init(p, d, matrices)
        return rho

    def __call__(self, w):
        return evaluate_word(w, self.matrices, self.p)

    @property
    def is_abelian(self):
        return len(set(self.matrices)) <= 1

    def trace(self, g=0):
        M = self.matrices[g]
        return sum(M[i][i] for i in range(self.d)) % self.p

    def __repr__(self):
        return "Representation(d=%d, p=%d, %d generators)" % (
            self.d, self.p, len(self.matrices))


def verify_representation(pres, rho):
    """Check det 1 (d=2), that every matrix is invertible and that every
    relator maps to the identity; a ValueError when rho has not one matrix
    per generator of pres."""
    if len(rho.matrices) != pres.num_generators:
        raise ValueError("matrix count %d does not match the generator "
                         "count %d" % (len(rho.matrices), pres.num_generators))
    if rho.d == 2:
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


def _json_int(v, what):
    """v if it is a JSON integer; a float, bool or string is refused (int()
    would truncate 7.9 to 7 or read true as 1)."""
    if type(v) is not int:
        raise ValueError("%s %s is not an integer" % (what, json.dumps(v)))
    return v


def rep_from_json(text):
    data = json.loads(text)
    if not isinstance(data, dict) or "p" not in data or "generators" not in data:
        raise ValueError("representation JSON needs 'p' and 'generators'")
    p = _json_int(data["p"], "p =")
    if not _is_prime(p):
        raise ValueError("p = %d is not prime" % p)
    mats = tuple(tuple(tuple(_json_int(v, "entry") for v in row) for row in M)
                 for M in data["generators"])
    if not mats:
        raise ValueError("empty generator list")
    d = len(mats[0])
    return Representation(p=p, d=d, matrices=mats)


# -- enumeration -------------------------------------------------------------

def _trace_slice(s, p):
    """All non-scalar SL2(F_p) matrices of trace s, sorted."""
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
    return sorted(M for M in out if not is_scalar(M, p))


def _centralizer_of_companion(s, p):
    """Elements of SL2(F_p) commuting with the trace-s companion matrix:
    the invertible polynomials a*I + b*M with a^2 + s*a*b + b^2 = 1."""
    out = []
    for a in range(p):
        for b in range(p):
            if (a * a + s * a * b + b * b) % p == 1:
                out.append(((a % p, (-b) % p), (b % p, (a + s * b) % p)))
    return out


def _is_nonsquare(n, p):
    """Whether n is a non-square mod p (Euler's criterion); F_2 has none."""
    return p > 2 and pow(n, (p - 1) // 2, p) == p - 1


def least_nonsquare(p):
    return next(e for e in range(2, p) if _is_nonsquare(e, p))


def _class_reps(s, p):
    """Representatives of the non-scalar conjugacy classes of trace s in
    SL2(F_p): the companion matrix for traces other than +-2; for traces
    +-2 the unipotent classes eta*[[1, c], [0, 1]], c = 1 and a non-square
    (one class at p = 2, where every unit is a square)."""
    if (s - 2) % p != 0 and (s + 2) % p != 0:
        return [companion_sl2(s, p)]
    eta = 1 if (s - 2) % p == 0 else (-1) % p
    cs = (1,) if p == 2 else (1, least_nonsquare(p))
    return [((eta, c), (0, eta)) for c in cs]


def _pinned_class_reps(s, p):
    """Each class representative of _class_reps(s, p) with its centralizer
    in SL2(F_p): the invertible polynomials in the companion matrix, or for
    the unipotent classes the upper unitriangular group times +-I."""
    if (s - 2) % p != 0 and (s + 2) % p != 0:
        cent = _centralizer_of_companion(s, p)
    else:
        # the signs of +-I, once each: they coincide at p = 2
        cent = [((e, x), (0, e)) for e in sorted({1, p - 1})
                for x in range(p)]
    return [(M, cent) for M in _class_reps(s, p)]


def _commute_with_first(mats, p):
    """Whether every flat 2x2 matrix (x, y, z, w) of mats commutes with
    mats[0] = (a, b, c, d) mod p: bz = cy, (a - d)y = b(x - w) and
    (a - d)z = c(x - w)."""
    a, b, c, d = mats[0]
    return all((b * z - c * y) % p == 0
               and ((a - d) * y - b * (x - w)) % p == 0
               and ((a - d) * z - c * (x - w)) % p == 0
               for x, y, z, w in mats[1:])


def _next_branch_gen(relators, assigned):
    """Pick the unassigned generator to branch on: one from the relator with
    the fewest unassigned generators, so the assignment either forces the
    remaining ones through propagation or is checked immediately.  assigned
    holds one flag per generator.  Returns None when every generator is
    assigned."""
    best = None
    for ri, r in enumerate(relators):
        missing = sorted({g for g, _ in r if not assigned[g]})
        if not missing:
            continue
        key = (len(missing), ri)
        if best is None or key < best[0]:
            best = (key, missing[0])
    if best is not None:
        return best[1]
    try:
        return assigned.index(False)
    except ValueError:
        return None


def _compile_plans(relators, ng):
    """The propagation schedule of the search, from the relators alone.

    Propagation assigns a set of generators that depends only on the set
    assigned before it, so every node of one depth runs the same steps and
    branches on the same generator.  Starting from {x_0}, each depth rescans
    the relators until nothing changes.  A relator whose only unassigned
    letter is one occurrence of x^e, rotated to start just after it, reads
    x^e . P = 1 with P the product of its other letters: a force step
    (x, e, first, rest) with P's letters split into the first and the rest,
    x = P^-1 for e = 1 and x = P for e = -1.  A relator that became complete
    is a check step (None, 0, first, rest) of its letters.  Each relator is
    used once on every path, as a force or as a check.  Letters are slots
    of the search's value array: x_h^1 is h, x_h^-1 is ng + h, and an empty
    product is the identity's slot 2 * ng.
    A crossing relator in . g^e . out^-1 . g^-e whose over-arc g is the
    generator branched on, with in and out assigned, is complete once g is
    and is checked at the next depth; it holds exactly when in . N = N . out
    for N = g^e, which the branch tests on each candidate first.
    Returns (plans, gens, crossings): plans[k] the steps of depth k,
    gens[k] the generator branched on after them (None at the leaves, the
    last depth) and crossings[k] the (in, out, e) of each such relator of
    gens[k], in relator order.
    """
    def slots(letters):
        out = tuple(h if f > 0 else ng + h for h, f in letters) or (2 * ng,)
        return out[0], out[1:]

    assigned = [False] * ng
    assigned[0] = True
    used = [False] * len(relators)
    plans, gens, crossings = [], [], []
    while True:
        steps = []
        changed = True
        while changed:
            changed = False
            for ri, r in enumerate(relators):
                if used[ri]:
                    continue
                pos = -1
                for i, (g, _) in enumerate(r):
                    if not assigned[g]:
                        if pos >= 0:
                            break  # a second unassigned letter: nothing forced
                        pos = i
                else:  # at most one unassigned letter, at pos
                    used[ri] = True
                    if pos < 0:
                        steps.append((None, 0) + slots(r))
                        continue
                    g, e = r[pos]
                    steps.append((g, e) + slots(r[pos + 1:] + r[:pos]))
                    assigned[g] = changed = True
        plans.append(tuple(steps))
        g = _next_branch_gen(relators, assigned)
        gens.append(g)
        if g is None:
            return tuple(plans), tuple(gens), tuple(crossings)
        crossings.append(tuple(
            (r[0][0], r[2][0], r[1][1]) for r in relators
            if len(r) == 4 and r[1][0] == r[3][0] == g
            and r[0][1] == 1 == -r[2][1] and r[1][1] == -r[3][1]
            and assigned[r[0][0]] and assigned[r[2][0]]))
        assigned[g] = True


def _conjugates(M, zpairs, p):
    """z M z^-1 mod p for each pair (z, z^-1) of zpairs, all flat
    (a, b, c, d), in the order of zpairs."""
    a, b, c, d = M
    out = []
    for (z0, z1, z2, z3), (w0, w1, w2, w3) in zpairs:
        e, f, g, h = (z0 * a + z1 * c, z0 * b + z1 * d,
                      z2 * a + z3 * c, z2 * b + z3 * d)
        out.append(((e * w0 + f * w2) % p, (e * w1 + f * w3) % p,
                    (g * w0 + h * w2) % p, (g * w1 + h * w3) % p))
    return out


def _orbit_reps(cands, zpairs, p):
    """The least member of each orbit of the sorted list cands under
    conjugation by the pairs (z, z^-1): one pass that marks each orbit."""
    seen = set()
    out = []
    for M in cands:
        if M not in seen:
            out.append(M)
            seen.update(_conjugates(M, zpairs, p))
    return out


def _flat_pairs(mats, p):
    """(M, M^-1) for each M = ((a, b), (c, d)) of mats in SL2(F_p), both
    flat (a, b, c, d).  For mats closed under inversion, as a trace slice or
    a centralizer is, M^-1 is the very tuple listed for it."""
    flat = {f: f for f in (M[0] + M[1] for M in mats)}
    out = []
    for f in flat:
        a, b, c, d = f
        inv = (d, -b % p, -c % p, a)
        out.append((f, flat.get(inv, inv)))
    return out


_TABLE_MEMO = 32  # (s, p) keys: every trace of the primes up to 11


@lru_cache(maxsize=_TABLE_MEMO)
def _class_tables(s, p):
    """Per pinned class of trace s over F_p (_pinned_class_reps), the flat
    matrix M0 and its centralizer Z modulo +-I as a tuple of flat
    (z, z^-1) pairs: z and -z conjugate alike, so only the lesser of each
    {z, -z} is kept (both are the same at p = 2)."""
    return tuple((M0[0] + M0[1], tuple(
        (z, zi) for z, zi in _flat_pairs(zs, p)
        if z <= tuple(-x % p for x in z)))
        for M0, zs in _pinned_class_reps(s, p))


def _gl2_pairs(mats, p):
    """(g, g^-1) for each flat g = (a, b, c, d) of mats in GL2(F_p)."""
    out = []
    for a, b, c, d in mats:
        r = pow(a * d - b * c, -1, p)
        out.append(((a, b, c, d),
                    (d * r % p, -b * r % p, -c * r % p, a * r % p)))
    return out


def _flat_mul(A, B, p):
    """The product of the flat 2x2 matrices A and B mod p."""
    a, b, c, d = A
    e, f, g, h = B
    return ((a * e + b * g) % p, (a * f + b * h) % p,
            (c * e + d * g) % p, (c * f + d * h) % p)


@lru_cache(maxsize=_TABLE_MEMO)
def _trace_tables(s, p):
    """The search's tables for trace s over F_p, as immutable tuples of
    flat (M, M^-1) pairs: the trace slice; the one pinned class searched,
    M0, with its centralizer Z in SL2(F_p) modulo +-I (`_class_tables`);
    the first branch's candidates; and the partner pairs, (z g, (z g)^-1)
    for z in the centralizer of g M0 g^-1 modulo +-I, which map a class of
    M0 to its GL2 partner's Z-orbit, with g of non-square determinant
    (empty over F_2).  For traces other than
    +-2, g lies in the GL2 centralizer C of the companion matrix M0, the
    invertible a*I + b*M0 taken modulo scalars (I and each invertible
    a*I + M0), and the candidates are the least member of each C-orbit of
    the slice.  For the unipotent traces +-2, M0 is the pinned class with
    c = 1, g = diag(e, 1) takes it to the one with c = e, and the
    candidates are the least members of the Z-orbits.  Flat and nested
    matrices sort alike."""
    pairs = {pair[0]: pair for pair in _flat_pairs(_trace_slice(s, p), p)}
    (M0, zpairs), *other = _class_tables(s, p)
    if (s - 2) % p and (s + 2) % p:
        # a*I + M0 has determinant a^2 + s*a + 1
        group = _gl2_pairs([(1, 0, 0, 1)] + [
            (a, p - 1, 1, (a + s) % p) for a in range(p)
            if (a * a + s * a + 1) % p], p)
        g = next((z for z, _ in group
                  if _is_nonsquare(z[0] * z[3] - z[1] * z[2], p)), None)
        target = zpairs
    else:
        # one unipotent class over F_2, which has no non-square
        group = zpairs
        g = (least_nonsquare(p), 0, 0, 1) if other else None
        target = other[0][1] if other else ()
    first = _orbit_reps(pairs, group, p)
    partner = _gl2_pairs([_flat_mul(z, g, p) for z, _ in target], p) \
        if g else ()
    return (tuple(pairs.values()), pairs[M0], zpairs,
            tuple(pairs[M] for M in first), tuple(partner))


def _sign_twin(mats, p):
    """D (-M) D^-1 for each flat M = (a, b, c, d) of mats, D = diag(1, -1):
    (-a, b, c, -d) mod p."""
    return tuple((-a % p, b, c, -d % p) for a, b, c, d in mats)


def _canonical(mats, zpairs, branched, p):
    """(canon, keep) for the class of the flat tuple mats under conjugation
    by the pairs (z, z^-1) of zpairs: canon its least conjugate, keep the
    conjugate whose values on the branched generators are largest."""
    canon = keep = top = None
    for conj in zip(*[_conjugates(M, zpairs, p) for M in mats]):
        key = [conj[g] for g in branched]
        if canon is None or key > top:
            keep, top = conj, key
        if canon is None or conj < canon:
            canon = conj
    return canon, keep


class RepList(list):
    """The list of representations enumerate_sl2 returns, with `twins`:
    per listed class the index of its sign twin in the list (possibly its
    own), or None for an abelian class and over F_2; `partners`: per listed
    class the index of its GL2 partner, its conjugate by a matrix of
    non-square determinant (its own for a GL2-stable class), or None for
    an abelian class and over F_2; and `nodes`: the search nodes it
    visited, what max_nodes bounds."""

    def __init__(self, reps, twins, partners, nodes):
        super().__init__(reps)
        self.twins = tuple(twins)
        self.partners = tuple(partners)
        self.nodes = nodes


def enumerate_sl2(pres, cfg):
    """All SL(2, F_p) representations of a Wirtinger-type presentation, as a
    deterministically ordered list.

    Representations are listed up to conjugacy.  Nonabelian ones are found
    per trace value by pinning the first generator to a representative of
    a non-scalar conjugacy class (the companion matrix; for traces +-2 the
    unipotent class with c = 1), propagating forced values through the
    relators, branching over the remaining trace slice, and deduplicating
    under the pinned matrix's centralizer Z.  Each class is listed by the
    member the unpruned search would visit last, its keep: the Z-conjugate
    whose tuple of branched-generator values is largest, so the list is the
    one the search of every pinned class would give; max_nodes bounds the
    nodes the smaller search visits.  With nonabelian_only=False abelian
    representations are included first: one per SL2 conjugacy class, all
    generators equal.

    The nonabelian classes are made in three steps, each class keyed by its
    trace and canon, its least Z-conjugate.  (1) Each trace s <= -s mod p
    is searched (every trace over F_2).  The first branch tries one matrix
    per orbit of the slice (its least member) under the pinned matrix's
    centralizer in GL(2, F_p) modulo scalars, so every GL2 pair of classes
    has a member there, and each class the search meets gives its GL2
    partner, g rho g^-1 with det g a non-square, canonicalized as a leaf is
    (for traces +-2, g = diag(e, 1) gives the classes of the unipotent
    class with c = e).  Over F_2, where every unit is a square, the first
    branch tries one matrix per Z-orbit, and no class has a partner or a
    twin.  (2) For p odd every class found gives its sign twin, eps (x) rho
    conjugated by D = diag(1, -1), eps the character sending every meridian
    to -1, which the relators' exponent sums 0 allow, canonicalized as a
    leaf is: a new class of trace -s != s, which visits no node of the
    budget, or a class found at trace 0.  A derived class's GL2 partner is
    the twin of its twin's partner.  (3) The list is laid out once, sorted
    by (trace, canon).  The returned RepList carries the sign twin of every
    class, so that the twisted polynomial of one class of a pair gives the
    other's, Delta_{eps rho}(t) = Delta_rho(-t) (Wada, 1994; Kirk and
    Livingston, 1999), and its GL2 partner, whose twisted polynomial is the
    class's own.
    """
    p = cfg.p
    if not pres.is_wirtinger:
        raise ValueError("enumeration needs a Wirtinger-type presentation")
    ng = pres.num_generators
    plans, gens, crossings = _compile_plans(pres.relators, ng)
    # every leaf is at the last depth, and the search meets leaves in
    # lexicographic order of their values on the branched generators
    branched = gens[:-1]
    reps, twins, partners = [], [], []
    budget = cfg.max_nodes
    nodes = 0
    # the slots of _compile_plans: x_h, then x_h^-1, then I, each a flat
    # (a, b, c, d).  One array serves the whole search, since a node's plan
    # reads only slots assigned on its own path.
    vals = [None] * (2 * ng) + [(1, 0, 0, 1)]

    def mk(mats):
        return Representation._trusted(p, 2, mats)

    if not cfg.nonabelian_only:
        for M in _abelian_class_reps(p):
            reps.append(mk((M,) * ng))
            twins.append(None)
            partners.append(None)

    def exceeded(s):
        return SearchBudgetExceeded(
            "representation search exceeded its budget: %d nodes used, "
            "reached trace %d of 0..%d" % (budget, s, p - 1))

    def branch(depth, s, cands):
        nonlocal nodes
        nodes += 1
        if nodes > budget:
            raise exceeded(s)
        # every value lies in SL2(F_p), so a forced product has det 1 and
        # needs only the trace and scalar checks
        for g, e, first, rest in plans[depth]:
            a, b, c, d = vals[first]
            for h in rest:
                x, y, z, w = vals[h]
                a, b, c, d = ((a * x + b * z) % p, (a * y + b * w) % p,
                              (c * x + d * z) % p, (c * y + d * w) % p)
            if g is None:
                if a != 1 or b or c or d != 1:
                    return
                continue
            if (a + d) % p != s or (b == c == 0 and a == d):
                return
            P, Pi = (a, b, c, d), (d, -b % p, -c % p, a)
            vals[g], vals[ng + g] = (Pi, P) if e > 0 else (P, Pi)
        g = gens[depth]
        if g is None:
            leaf(vals[:ng])
            return
        # each crossing over g is tested here, as in . N = N . out for
        # N = g^e; a candidate it rejects is the node whose check step
        # would reject it, and is counted as one
        tests = crossings[depth] and [(vals[i], vals[o], e > 0)
                                      for i, o, e in crossings[depth]]
        for M, Mi in cands:
            for (a, b, c, d), (x, y, z, w), direct in tests:
                n0, n1, n2, n3 = M if direct else Mi
                if ((a * n0 + b * n2 - n0 * x - n1 * z) % p
                        or (a * n1 + b * n3 - n0 * y - n1 * w) % p
                        or (c * n0 + d * n2 - n2 * x - n3 * z) % p
                        or (c * n1 + d * n3 - n2 * y - n3 * w) % p):
                    nodes += 1
                    if nodes > budget:
                        raise exceeded(s)
                    break
            else:
                vals[g], vals[ng + g] = M, Mi
                branch(depth + 1, s, trace_slice)

    def leaf(mats):
        # x_0 is not scalar, so its centralizer is commutative and the
        # leaf is abelian when every value commutes with x_0
        if _commute_with_first(mats, p):
            return  # abelian classes are listed up front
        canon, keep = _canonical(mats, zpairs, branched, p)
        found[canon] = keep

    # (trace, canon) -> keep for every class, and for each its sign twin's
    # and its GL2 partner's (trace, canon)
    classes, twin, mate = {}, {}, {}
    # 1. search each trace s <= -s and close its classes under GL2 partners
    for s in range(p):
        if p > 2 and -s % p < s:
            continue
        found = {}
        trace_slice, (vals[0], vals[ng]), zpairs, first, partner = \
            _trace_tables(s, p)
        branch(0, s, first)
        # the search met a class of each GL2 pair; the partner of each
        # class it met has trace s too, and it may have met that as well
        for canon in list(found) if partner else ():
            if (s, canon) not in mate:
                c2, k2 = _canonical(found[canon], partner, branched, p)
                found[c2] = k2
                mate[s, canon], mate[s, c2] = (s, c2), (s, canon)
        classes.update(((s, canon), keep) for canon, keep in found.items())
    # 2. the sign twin of each class keeps x_0 on a pinned matrix of trace
    # t = -s: a new class for t != s, one found by the search at trace 0
    if p > 2:
        centralizers = {M0: zs for t in {-s % p for s, _ in classes}
                        for M0, zs in _class_tables(t, p)}
        for (s, canon), mats in list(classes.items()):
            mats, t = _sign_twin(mats, p), -s % p
            c2, k2 = _canonical(mats, centralizers[mats[0]], branched, p)
            classes[t, c2] = k2
            twin[s, canon], twin[t, c2] = (t, c2), (s, canon)
        # the GL2 partner of a derived class is its twin's partner's twin
        mate.update({twin[key]: twin[other] for key, other in mate.items()
                     if twin[key][0] != key[0]})
    # 3. lay the list out once, by trace, then by canon; flat and nested
    # matrices sort alike
    order = sorted(classes)
    index = {key: j for j, key in enumerate(order, len(reps))}
    for key in order:
        reps.append(mk(tuple(((a, b), (c, d))
                             for a, b, c, d in classes[key])))
        twins.append(index[twin[key]] if twin else None)
        partners.append(index[mate[key]] if mate else None)
    return RepList(reps, twins, partners, nodes)


def _abelian_class_reps(p):
    """One SL2(F_p) matrix per conjugacy class, deterministically ordered:
    I and -I (once at p = 2, where they coincide), then per trace the
    non-scalar classes of _class_reps."""
    return ([((e, 0), (0, e)) for e in sorted({1, p - 1})] +
            [M for s in range(p) for M in _class_reps(s, p)])
