"""
Generate the bundled knot table (src/knotforge/data/knots.csv).

PD codes are built from standard structural descriptions rather than copied
from external tables: 2-bridge knots as numerator closures of rational
tangles, Montesinos knots as closures of rational-tangle sums, torus knots
as braid closures, and the remaining knots as symmetric unions or small
braid-closure searches.  Every diagram is verified against published
invariant values (Alexander polynomials, higher Alexander polynomials,
determinants) computed independently by knotforge, and cross-checked with a
Kauffman-bracket Jones polynomial to separate knots that share those
invariants (e.g. a prime knot versus a connected sum).

Run from the repository root:  python scripts/make_table.py
"""

from __future__ import annotations

import itertools
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from knotforge.algebra import QQ, ZZ, LaurentPoly, canonicalize
from knotforge.diagram import (InvalidDiagram, MarkedDiagram, PDCode,
                               SymUnionSpec, format_pd, symmetric_union_pd)
from knotforge.presentation import deficiency_one, wirtinger
from knotforge.reps import RepSearchConfig, enumerate_sl2, rep_to_json
from knotforge.twisted import (classical_alexander, higher_alexander,
                               knot_determinant, twisted_alexander)


# -- assembling PD codes from loose crossings --------------------------------

class _UF:
    def __init__(self):
        self.parent = {}

    def find(self, x):
        p = self.parent.setdefault(x, x)
        while p != self.parent[p]:
            p = self.parent[p]
        while self.parent[x] != p:
            self.parent[x], x = p, self.parent[x]
        return p

    def union(self, x, y):
        self.parent[self.find(x)] = self.find(y)


class Assembler:
    """Collects crossings with free edge ids; edges merged via union-find.

    Each crossing occupies a small box with compass ends NW, NE, SE, SW and
    strands NW-SE and NE-SW.  over="nwse" or "nesw" names the over-strand.
    Emitted tuples list the under-strand ends at positions 0 and 2 in
    counterclockwise order, which is what PDCode expects.
    """

    def __init__(self):
        self.uf = _UF()
        self.crossings = []  # (nw, ne, se, sw, over)
        self._next = 0

    def edge(self):
        self._next += 1
        return self._next

    def crossing(self, nw, ne, se, sw, over):
        self.crossings.append((nw, ne, se, sw, over))

    def join(self, a, b):
        self.uf.union(a, b)

    def pd(self):
        tuples = []
        for nw, ne, se, sw, over in self.crossings:
            f = self.uf.find
            nw, ne, se, sw = f(nw), f(ne), f(se), f(sw)
            if over == "nwse":
                tuples.append((sw, se, ne, nw))  # under-strand NE-SW
            else:
                tuples.append((nw, sw, se, ne))  # under-strand NW-SE
        return PDCode(tuples).relabeled()


# -- rational tangles --------------------------------------------------------

# Calibrated below by check_conventions(): which over-strand a positive
# horizontal/vertical half-twist uses.
H_OVER = {1: "nwse", -1: "nesw"}
V_OVER = {1: "nwse", -1: "nesw"}


def _twist_ops(p, q):
    """Sequence of ('h', s) / ('v', s) single-crossing twists building the
    rational tangle of fraction p/q from the 0-tangle, by running the
    Euclidean algorithm backwards.  'h' twists act on the right and send
    f -> f + s; 'v' twists act at the bottom and send 1/f -> 1/f + s."""
    if q <= 0:
        raise ValueError("need q > 0")
    ops = []
    while (p, q) != (0, 1):
        if abs(p) >= q:
            s = 1 if p > 0 else -1
            ops.append(("h", s))
            p -= s * q
        else:
            s = 1 if p > 0 else -1
            ops.append(("v", s))
            q -= s * p
    ops.reverse()
    return ops


class Tangle:
    """Open 2-string tangle with boundary edges nw, ne, se, sw."""

    def __init__(self, asm):
        self.asm = asm
        e1, e2 = asm.edge(), asm.edge()
        self.nw, self.ne = e1, e1  # 0-tangle: two horizontal strands
        self.sw, self.se = e2, e2

    def twist_h(self, s):
        a = self.asm
        ne2, se2 = a.edge(), a.edge()
        a.crossing(self.ne, ne2, se2, self.se, H_OVER[s])
        self.ne, self.se = ne2, se2

    def twist_v(self, s):
        a = self.asm
        sw2, se2 = a.edge(), a.edge()
        a.crossing(self.sw, self.se, se2, sw2, V_OVER[s])
        self.sw, self.se = sw2, se2


def rational_tangle(asm, frac):
    frac = Fraction(frac)
    t = Tangle(asm)
    for kind, s in _twist_ops(frac.numerator, frac.denominator):
        (t.twist_h if kind == "h" else t.twist_v)(s)
    return t


def numerator_closure(asm, tangles):
    """Close the horizontal sum of the given tangles."""
    for t1, t2 in zip(tangles, tangles[1:]):
        asm.join(t1.ne, t2.nw)
        asm.join(t1.se, t2.sw)
    asm.join(tangles[0].nw, tangles[-1].ne)
    asm.join(tangles[0].sw, tangles[-1].se)
    return asm.pd()


def two_bridge_pd(frac):
    """2-bridge knot C(p/q) = numerator closure of the p/q tangle."""
    asm = Assembler()
    return numerator_closure(asm, [rational_tangle(asm, frac)])


def montesinos_pd(*fracs):
    """Montesinos knot K(b1/a1, ..., br/ar)."""
    asm = Assembler()
    return numerator_closure(asm, [rational_tangle(asm, f) for f in fracs])


# -- braid closures ----------------------------------------------------------

def braid_pd(word, strands):
    """Closure of a braid word (list of nonzero ints, i = sigma_i, -i its
    inverse); positive generators put the left strand over."""
    asm = Assembler()
    start = [asm.edge() for _ in range(strands)]
    cur = list(start)
    touched = set()
    for g in word:
        i = abs(g) - 1
        touched.update((i, i + 1))
        a, b = asm.edge(), asm.edge()
        asm.crossing(cur[i], cur[i + 1], b, a, "nwse" if g > 0 else "nesw")
        cur[i], cur[i + 1] = a, b
    if touched != set(range(strands)):
        raise InvalidDiagram("braid word leaves a strand untouched")
    for s in range(strands):
        asm.join(cur[s], start[s])
    return asm.pd()


# -- Kauffman bracket / Jones polynomial -------------------------------------

def _lmul(f, g):
    out = {}
    for e1, c1 in f.items():
        for e2, c2 in g.items():
            e = e1 + e2
            v = out.get(e, 0) + c1 * c2
            if v:
                out[e] = v
            elif e in out:
                del out[e]
    return out


def jones(pd):
    """Kauffman-bracket invariant (-A^3)^(-w) <D> as a Laurent dict in A.
    Substituting t = A^(-4) gives the Jones polynomial; used here only for
    exact comparison between diagrams, where the raw form suffices."""
    n = pd.n
    if n == 0:
        return {0: 1}
    delta = {2: -1, -2: -1}
    total = {}
    for state in range(1 << n):
        uf = _UF()
        a_count = 0
        for ci, (a, b, c, d) in enumerate(pd.crossings):
            if (state >> ci) & 1:
                uf.union(a, b)
                uf.union(c, d)
                a_count += 1
            else:
                uf.union(a, d)
                uf.union(b, c)
        loops = len({uf.find(e) for e in pd.edges})
        term = {2 * a_count - n: 1}
        for _ in range(loops - 1):
            term = _lmul(term, delta)
        for e, cf in term.items():
            v = total.get(e, 0) + cf
            if v:
                total[e] = v
            elif e in total:
                del total[e]
    w = pd.writhe
    sign = 1 if (-w) % 2 == 0 else -1
    return {e - 3 * w: sign * cf for e, cf in total.items()}


def jones_mul(f, g):
    return _lmul(f, g)


def jones_mirror(f):
    return {-e: c for e, c in f.items()}


def jones_key(f):
    return tuple(sorted(f.items()))


# -- invariant helpers -------------------------------------------------------

def poly(coeffs):
    """Laurent polynomial over Z from a low-degree-first coefficient list."""
    return LaurentPoly(ZZ, {i: int(c) for i, c in enumerate(coeffs)})


def qq_poly(f):
    return LaurentPoly(QQ, {e: Fraction(c) for e, c in f.coeffs.items()})


def alex_eq(pd, target):
    return classical_alexander(pd) == canonicalize(target)


F = poly([1, -1, 1])            # t^2 - t + 1
F41 = poly([1, -3, 1])          # t^2 - 3t + 1
F61 = poly([2, -5, 2])          # 2t^2 - 5t + 2


def check(name, cond):
    if not cond:
        raise SystemExit("FAILED check: %s" % name)
    print("  ok: %s" % name)


# -- convention calibration --------------------------------------------------

def check_conventions():
    """Pin down the handedness conventions empirically: the chosen H_OVER /
    V_OVER assignment must reproduce 2-bridge determinants."""
    for p, q in [(3, 1), (5, 2), (9, 2), (7, 3), (13, 5)]:
        pd = two_bridge_pd(Fraction(p, q))
        d = knot_determinant(pd)
        if d != p:
            raise SystemExit("tangle convention broken: C(%d/%d) det %d" % (p, q, d))
    print("  ok: rational tangle conventions (det C(p/q) = p)")


ROLFSEN_3_1 = PDCode([(1, 4, 2, 5), (3, 6, 4, 1), (5, 2, 6, 3)])
ROLFSEN_4_1 = PDCode([(4, 2, 5, 1), (8, 6, 1, 5), (6, 3, 7, 4), (2, 7, 3, 8)])


def build_table():
    table = {}

    print("2-bridge knots:")
    check_conventions()

    k31 = two_bridge_pd(Fraction(3, 1))
    check("3_1 alexander", alex_eq(k31, F))
    check("3_1 det", knot_determinant(k31) == 3)
    v31 = jones(k31)
    v31r = jones(ROLFSEN_3_1)
    if v31 not in (v31r, jones_mirror(v31r)):
        raise SystemExit("3_1 Jones mismatch with reference diagram")
    # use the chirality matching the reference table diagram
    if v31 != v31r:
        k31 = k31.mirror().relabeled()
        v31 = jones(k31)
    check("3_1 jones matches reference diagram", v31 == v31r)
    table["3_1"] = k31

    k41 = two_bridge_pd(Fraction(5, 2))
    check("4_1 alexander", alex_eq(k41, F41))
    check("4_1 det", knot_determinant(k41) == 5)
    check("4_1 jones matches reference diagram",
          jones(k41) in (jones(ROLFSEN_4_1), jones_mirror(jones(ROLFSEN_4_1))))
    check("4_1 jones palindromic (amphichiral)",
          jones(k41) == jones_mirror(jones(k41)))
    table["4_1"] = k41

    k61 = two_bridge_pd(Fraction(9, 2))
    check("6_1 alexander = 2t^2-5t+2", alex_eq(k61, F61))
    check("6_1 det", knot_determinant(k61) == 9)
    table["6_1"] = k61

    k91 = braid_pd([1] * 9, 2)
    target91 = poly([1, -1, 1, -1, 1, -1, 1, -1, 1])
    check("9_1 = (2,9) torus knot alexander", alex_eq(k91, target91))
    check("9_1 det", knot_determinant(k91) == 9)
    check("9_1 agrees with C(9/1)",
          jones(k91) in (jones(two_bridge_pd(9)),
                         jones_mirror(jones(two_bridge_pd(9)))))
    table["9_1"] = k91

    print("Montesinos knots:")
    m11 = montesinos_pd(Fraction(1, 3), Fraction(2, 3), Fraction(4, 5))
    check("11a_201 = K(1/3,2/3,4/5) alexander = (2t^2-5t+2)^2",
          alex_eq(m11, F61 * F61))
    check("11a_201 det = 81", knot_determinant(m11) == 81)
    table["11a_201"] = m11

    m924 = montesinos_pd(Fraction(1, 3), Fraction(2, 3), Fraction(3, 2))
    check("9_24 = K(1/3,2/3,3/2) det = 45", knot_determinant(m924) == 45)
    a924 = classical_alexander(m924)
    check("9_24 alexander degree 6 (fibered genus 3)",
          a924.max_deg - a924.min_deg == 6)
    lead = a924.coeffs[a924.max_deg]
    check("9_24 alexander monic (fibered)", lead in (1, -1))
    table["9_24"] = m924

    m810 = montesinos_pd(Fraction(1, 3), Fraction(2, 3), Fraction(1, 2))
    check("8_10 alexander = (t^2-t+1)^3", alex_eq(m810, F * F * F))
    check("8_10 det = 27", knot_determinant(m810) == 27)
    check("8_10 second alexander trivial",
          higher_alexander(m810, 2) == canonicalize(qq_poly(poly([1]))))
    # among knots of <= 8 crossings only 8_10 has this determinant together
    # with a degree-6 Alexander polynomial, so the 8-crossing diagram pins
    # the knot down
    check("8_10 crossing count 8", m810.n == 8)
    table["8_10"] = m810

    m820 = montesinos_pd(Fraction(-1, 2), Fraction(1, 3), Fraction(2, 3))
    check("8_20 = K(-1/2,1/3,2/3) alexander = (t^2-t+1)^2",
          alex_eq(m820, F * F))
    check("8_20 det = 9", knot_determinant(m820) == 9)
    check("8_20 crossing count 8", m820.n == 8)
    # 8_20 shares Alexander polynomial and determinant with the square and
    # granny knots (trefoil connected sums); Jones separates them
    sq = jones_mul(v31, jones_mirror(v31))
    gr1 = jones_mul(v31, v31)
    gr2 = jones_mirror(gr1)
    v820 = jones(m820)
    check("8_20 is not a trefoil connected sum (jones)",
          v820 not in (sq, gr1, gr2))
    table["8_20"] = m820

    print("symmetric-union realizations:")
    table["10_137"] = find_10_137(table)
    table["10_140"] = find_10_140(table, v820)
    print("braid-closure search:")
    table["10_99"] = find_10_99()
    return table


def find_10_137(table):
    """10_137 as the Montesinos knot K(-1/2, 2/5, 3/5).

    The even symmetric union of a 2-bridge knot b(p/q) with a single
    2-twist axis tangle is the Montesinos knot K(-1/2, q/p, (p-q)/p); for
    b(3/1) this recovers 8_20 = K(-1/2, 1/3, 2/3), and for b(5/2) it gives
    K(-1/2, 2/5, 3/5) = 10_137.  The identity is double-checked here by
    scanning all even symmetric unions of the bundled 4_1 diagram with one
    2-twist region and requiring a Jones match, and the invariants
    (determinant 25, Alexander polynomial (t^2-3t+1)^2, trivial second
    Alexander polynomial, Jones different from 4_1 # 4_1) exclude every
    other knot of <= 10 crossings sharing a name candidate."""
    m = montesinos_pd(Fraction(-1, 2), Fraction(2, 5), Fraction(3, 5))
    check("10_137 = K(-1/2,2/5,3/5) has 10 crossings", m.n == 10)
    check("10_137 det = 25", knot_determinant(m) == 25)
    check("10_137 alexander = (t^2-3t+1)^2", alex_eq(m, F41 * F41))
    check("10_137 second alexander trivial",
          higher_alexander(m, 2) == canonicalize(qq_poly(poly([1]))))
    k41 = table["4_1"]
    v41 = jones(k41)
    vm = jones(m)
    check("10_137 is not 4_1 # 4_1 (jones)",
          vm != jones_mul(v41, v41)
          and jones_mirror(vm) != jones_mul(v41, v41))
    witness = False
    for e0, e1 in itertools.permutations(k41.edges, 2):
        for tw in (2, -2):
            pd = symmetric_union_pd(
                SymUnionSpec(MarkedDiagram(k41, (e0, e1)), (tw,)))
            v = jones(pd)
            if v == vm or v == jones_mirror(vm):
                witness = True
                break
        if witness:
            break
    check("10_137 realized as an even symmetric union of 4_1 "
          "with one 2-twist", witness)
    return m


def find_10_140(table, v820):
    """10_140 as the Montesinos knot K(-3/4, 1/3, 2/3).

    Same pattern as 10_137: the even symmetric union of the trefoil with a
    single 4-twist axis tangle is K(-3/4, 1/3, 2/3), the only determinant-9
    member of the K(b/a, 1/3, 2/3) family with |a + b| = 1.  Verified by a
    Jones match against the scan of even symmetric unions of the bundled
    3_1 diagram with one 4-twist region; determinant 9, Alexander
    polynomial (t^2-t+1)^2, trivial second Alexander polynomial and a Jones
    polynomial different from 8_20 and from the trefoil connected sums
    exclude the other <= 10 crossing knots with these invariants."""
    m = montesinos_pd(Fraction(-3, 4), Fraction(1, 3), Fraction(2, 3))
    check("10_140 = K(-3/4,1/3,2/3) has 10 crossings", m.n == 10)
    check("10_140 det = 9", knot_determinant(m) == 9)
    check("10_140 alexander = (t^2-t+1)^2", alex_eq(m, F * F))
    check("10_140 second alexander trivial",
          higher_alexander(m, 2) == canonicalize(qq_poly(poly([1]))))
    k31 = table["3_1"]
    v31 = jones(k31)
    vm = jones(m)
    bad = {jones_key(f) for f in (
        jones_mul(v31, jones_mirror(v31)), jones_mul(v31, v31),
        jones_mirror(jones_mul(v31, v31)), v820, jones_mirror(v820))}
    check("10_140 is not 8_20 or a trefoil connected sum (jones)",
          jones_key(vm) not in bad and jones_key(jones_mirror(vm)) not in bad)
    witness = False
    for e0, e1 in itertools.permutations(k31.edges, 2):
        for tw in (4, -4):
            pd = symmetric_union_pd(
                SymUnionSpec(MarkedDiagram(k31, (e0, e1)), (tw,)))
            v = jones(pd)
            if v == vm or v == jones_mirror(vm):
                witness = True
                break
        if witness:
            break
    check("10_140 realized as an even symmetric union of 3_1 "
          "with one 4-twist", witness)
    return m


def find_10_99():
    """10_99 via its alternating 3-braid closure.

    Searched over alternating 3-braid words sigma_1^{a_1} sigma_2^{-b_1}
    ... of total length 10; the match is pinned by determinant 81,
    Alexander polynomial (t^2-t+1)^4 and second Alexander polynomial
    (t^2-t+1)^2, a combination no other knot of <= 10 crossings and no
    small connected sum attains."""
    target1 = canonicalize(F * F * F * F)
    target2 = canonicalize(qq_poly(F * F))
    found = {}
    for k in range(1, 6):
        for a in itertools.product(range(1, 11), repeat=k):
            rest = 10 - sum(a)
            if rest < k:
                continue
            for b in itertools.product(range(1, rest + 1), repeat=k):
                if sum(b) != rest:
                    continue
                word = []
                for ai, bi in zip(a, b):
                    word.extend([1] * ai)
                    word.extend([-2] * bi)
                try:
                    pd = braid_pd(word, 3)
                except InvalidDiagram:
                    continue
                if knot_determinant(pd) != 81:
                    continue
                if classical_alexander(pd) != target1:
                    continue
                if higher_alexander(pd, 2) != target2:
                    continue
                found.setdefault(jones_key(jones(pd)), pd)
    if not found:
        raise SystemExit("no 10_99 candidate found")
    keys = list(found)
    base_v = dict(keys[0])
    for key in keys[1:]:
        v = dict(key)
        if v != base_v and v != jones_mirror(base_v):
            raise SystemExit("ambiguous 10_99 candidates")
    pd = found[keys[0]]
    check("10_99 alternating 3-braid closure, det 81, alexander "
          "(t^2-t+1)^4, second alexander (t^2-t+1)^2", pd.n == 10)
    check("10_99 jones palindromic (amphichiral)",
          dict(keys[0]) == jones_mirror(dict(keys[0])))
    return pd


HEADER = """\
# Bundled PD codes for the named knots used by knotforge.
# Generated by scripts/make_table.py from structural descriptions
# (2-bridge and Montesinos tangle closures, braid closures, symmetric
# unions) and verified against published Alexander polynomial, higher
# Alexander polynomial and determinant values from the standard knot
# tables (Rolfsen / KnotInfo); see the script for the per-knot checks.
# Columns: name,pd
"""


DATA_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "knotforge",
                        "data")


def main(out_dir=DATA_DIR):
    """Write knots.csv and rho0.json into out_dir, by default the package
    data directory."""
    table = build_table()
    order = ["3_1", "4_1", "6_1", "8_10", "8_20", "9_1", "9_24",
             "10_99", "10_137", "10_140", "11a_201"]
    out = os.path.join(out_dir, "knots.csv")
    os.makedirs(out_dir, exist_ok=True)
    with open(out, "w") as fh:
        fh.write(HEADER)
        fh.write("name,pd\n")
        for name in order:
            fh.write('%s,"%s"\n' % (name, format_pd(table[name])))
    print("wrote %s" % os.path.normpath(out))
    write_rho0(table["6_1"], os.path.join(os.path.dirname(out), "rho0.json"))


def write_rho0(pd61, out):
    """Bundled SL(2,F_7) representation of the 6_1 knot group on the
    Wirtinger generators of the bundled diagram: the unique conjugacy class
    (up to mirror) with unit twisted Alexander polynomial and meridian
    trace 4, so that det(rho(mu) t - I) = t^2 + 3t + 1 over F_7."""
    pres = deficiency_one(wirtinger(pd61))
    picked = None
    for rho in enumerate_sl2(pres, RepSearchConfig(p=7)):
        tr = sum(rho.matrices[0][i][i] for i in range(2)) % 7
        if tr != 4:
            continue
        if twisted_alexander(pres, rho).degree == 0:
            picked = rho
            break
    if picked is None:
        raise SystemExit("no rho0 representative found")
    with open(out, "w") as fh:
        fh.write(rep_to_json(picked))
        fh.write("\n")
    print("wrote %s" % os.path.normpath(out))


if __name__ == "__main__":
    main()
