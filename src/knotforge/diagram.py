"""
Knot-diagram data: PD codes, mirroring, marked partial diagrams and PD-level
symmetric-union surgery.

A PD code lists each crossing as a 4-tuple (a, b, c, d) of edge labels read
counterclockwise starting from the incoming under-strand, so a -> c is the
under-strand and b, d carry the over-strand.  Validation walks the closed
circuit, checks that the diagram is a single-component knot, and rotates
tuples by two positions where needed so that position 0 really is the
incoming under-edge for one consistent global orientation.

Crossing sign convention: a crossing is positive when its over-strand is
traversed from position 3 to position 1 (d -> b).  A positive twist region
in a symmetric union inserts crossings whose Wirtinger relation reads
out = over^-1 . in . over, matching the presentation-level template.
"""

from __future__ import annotations

import json
import re

from ._record import Record


class InvalidDiagram(ValueError):
    pass


class PDCode:
    """Validated, orientation-normalized planar diagram code of a knot."""

    __slots__ = ("crossings", "n", "_edge_order", "_slots", "_over_entry",
                 "_cache")
    _derived = Record._derived

    def __init__(self, crossings):
        crossings = [tuple(c) if isinstance(c, (tuple, list)) else c
                     for c in crossings]
        for c in crossings:
            # type(x) is int: a bool, float, str or None label is refused
            if not (isinstance(c, tuple) and len(c) == 4
                    and all(type(x) is int for x in c)):
                raise InvalidDiagram("crossing %r is not four integer "
                                     "edge labels" % (c,))
        occ = {}
        for ci, c in enumerate(crossings):
            for pos, e in enumerate(c):
                occ.setdefault(e, []).append((ci, pos))
        bad = sorted(e for e, slots in occ.items() if len(slots) != 2)
        if bad:
            raise InvalidDiagram("edge labels %s do not appear exactly twice" % bad)
        self.crossings = tuple(crossings)
        self.n = len(crossings)
        self._normalize_and_walk()

    def _normalize_and_walk(self):
        """Walk the circuit; rotate tuples so under-in sits at position 0."""
        n = self.n
        if n == 0:
            self._edge_order = ()
            self._slots = {}
            self._over_entry = ()
            return
        for _ in range(2):  # second pass re-walks after rotation fixes
            occ = {}
            for ci, c in enumerate(self.crossings):
                for pos, e in enumerate(c):
                    occ.setdefault(e, []).append((ci, pos))
            start = (0, 2)  # leave crossing 0 along its under-out edge
            edge_order = []
            slots = {}  # edge -> (source_slot, target_slot)
            entries = {}  # crossing -> set of entry positions
            cur = start
            steps = 0
            while True:
                e = self.crossings[cur[0]][cur[1]]
                s1, s2 = occ[e]
                nxt = s2 if s1 == cur else s1
                edge_order.append(e)
                slots[e] = (cur, nxt)
                entries.setdefault(nxt[0], set()).add(nxt[1])
                cur = (nxt[0], (nxt[1] + 2) % 4)
                steps += 1
                if cur == start:
                    break
                if steps > 2 * n:
                    raise InvalidDiagram("traversal does not close properly")
            if steps != 2 * n or len(slots) != 2 * n:
                raise InvalidDiagram("diagram is not a single-component knot")
            rotated = []
            needs_fix = False
            over_entry = []
            for ci, c in enumerate(self.crossings):
                ent = entries.get(ci, set())
                und = ent & {0, 2}
                ovr = ent & {1, 3}
                if len(und) != 1 or len(ovr) != 1:
                    raise InvalidDiagram("inconsistent strand orientation at "
                                         "crossing %d" % ci)
                if und == {2}:
                    rotated.append(c[2:] + c[:2])
                    needs_fix = True
                else:
                    rotated.append(c)
                over_entry.append(ovr.pop())
            if not needs_fix:
                self._edge_order = tuple(edge_order)
                self._slots = slots
                self._over_entry = tuple(over_entry)
                return
            self.crossings = tuple(rotated)
        raise InvalidDiagram("orientation normalization failed to converge")

    # -- traversal accessors -------------------------------------------------

    @property
    def edges(self):
        return sorted({e for c in self.crossings for e in c})

    @property
    def edge_order(self):
        """Edge labels in circuit order."""
        return self._edge_order

    def source_slot(self, e):
        return self._slots[e][0]

    def target_slot(self, e):
        return self._slots[e][1]

    def sign(self, ci):
        """+1 when the over-strand runs d -> b, else -1."""
        return 1 if self._over_entry[ci] == 3 else -1

    @property
    def writhe(self):
        return sum(self.sign(ci) for ci in range(self.n))

    def subarcs(self, cut_edges=(), start_cut=None):
        """Partition the strand into sub-arcs broken at undercrossings and at
        the midpoints of cut_edges.

        Returns (arcs, arc_of, events) where arcs is a list of arcs in circuit
        order (each arc a list of edge-halves (edge, 'tail'|'head')), arc_of
        maps each half to its arc index, and events[i] describes the break
        ending arc i: ('under', crossing) or ('cut', edge).  When start_cut is
        given (a cut edge), arc 0 is the arc beginning just after that cut.
        """
        if self.n == 0:
            # closed circle: abstract marks play the role of cut edges
            if not cut_edges:
                return [[("*", "tail"), ("*", "head")]], \
                    {("*", "tail"): 0, ("*", "head"): 0}, []
            order = list(dict.fromkeys(cut_edges))
            if start_cut is not None:
                i = order.index(start_cut)
                order = order[i:] + order[:i]
            arcs, arc_of, events = [], {}, []
            for k, e in enumerate(order):
                half_h = (e, "head")
                nxt = order[(k + 1) % len(order)]
                half_t = (nxt, "tail")
                arcs.append([half_h, half_t])
                arc_of[half_h] = arc_of[half_t] = k
                events.append(("cut", nxt))
            return arcs, arc_of, events
        cuts = set(cut_edges)
        unknown = cuts - set(self.edges)
        if unknown:
            raise InvalidDiagram("cut edges %s not in diagram" % sorted(unknown))
        # circuit of halves; a cut breaks between the tail and head halves of
        # its edge, an undercrossing breaks after the head half
        seq = []  # (half, break_after: None | event)
        for e in self._edge_order:
            tgt = self.target_slot(e)
            seq.append(((e, "tail"), ("cut", e) if e in cuts else None))
            under = tgt[1] == 0
            seq.append(((e, "head"), ("under", tgt[0]) if under else None))
        breaks = [i for i, (_, brk) in enumerate(seq) if brk is not None]
        if not breaks:
            raise InvalidDiagram("no arc breaks found")
        if start_cut is not None:
            want = None
            for i in breaks:
                if seq[i][1] == ("cut", start_cut):
                    want = i
                    break
            if want is None:
                raise InvalidDiagram("start_cut %r is not a cut edge" % (start_cut,))
        else:
            want = breaks[0]
        # rotate the circuit so it begins just after the chosen break
        k = (want + 1) % len(seq)
        seq = seq[k:] + seq[:k]
        arcs, arc_of, events = [], {}, []
        cur = []
        for half, brk in seq:
            cur.append(half)
            if brk is not None:
                idx = len(arcs)
                for h in cur:
                    arc_of[h] = idx
                arcs.append(cur)
                events.append(brk)
                cur = []
        assert not cur
        return arcs, arc_of, events

    def crossing_roles(self, arc_of):
        """Per crossing: (in_arc, out_arc, over_arc, sign) under a sub-arc
        partition produced by subarcs()."""
        roles = []
        for ci, (a, b, c, d) in enumerate(self.crossings):
            over_in = self.crossings[ci][self._over_entry[ci]]
            roles.append((arc_of[(a, "head")], arc_of[(c, "tail")],
                          arc_of[(over_in, "head")], self.sign(ci)))
        return roles

    # -- transforms ----------------------------------------------------------

    def mirror(self):
        """Mirror image: every crossing's over/under role swapped (each
        4-tuple rotated by one position, then re-normalized)."""
        return PDCode([c[1:] + c[:1] for c in self.crossings])

    def reflect(self):
        """Axis reflection: reverse each tuple's cyclic order keeping the
        under-in edge first (over/under roles preserved, all signs flip).
        symmetric_union_pd does not call it: it maps the positions of its
        reflected copy itself, 0, 1, 2, 3 -> 0, 3, 2, 1, as this does."""
        return PDCode([(a, d, c, b) for (a, b, c, d) in self.crossings])

    def relabeled(self):
        """Canonical relabeling: edges numbered 1..2n in circuit order."""
        if self.n == 0:
            return self
        lab = {e: i + 1 for i, e in enumerate(self._edge_order)}
        return PDCode([tuple(lab[e] for e in c) for c in self.crossings])

    def __eq__(self, other):
        return isinstance(other, PDCode) and self.crossings == other.crossings

    def __hash__(self):
        return hash(self.crossings)

    def __reduce__(self):
        return PDCode, (self.crossings,)

    def __repr__(self):
        return "PDCode(%s)" % format_pd(self)


_X_RE = re.compile(r"X\[\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*,\s*(-?\d+)\s*\]")


def parse_pd(text):
    """Parse whitespace-separated X[a,b,c,d] terms (empty = unknot)."""
    s = text.strip()
    if not s:
        return PDCode([])
    if s.startswith("["):
        return pd_from_json(s)
    crossings = []
    pos = 0
    for m in _X_RE.finditer(s):
        if s[pos:m.start()].strip():
            raise InvalidDiagram("unexpected text %r in PD code"
                                 % s[pos:m.start()].strip())
        crossings.append(tuple(int(g) for g in m.groups()))
        pos = m.end()
    if s[pos:].strip():
        raise InvalidDiagram("unexpected text %r in PD code" % s[pos:].strip())
    if not crossings:
        raise InvalidDiagram("no X[...] terms found in %r" % text)
    return PDCode(crossings)


def format_pd(pd):
    return " ".join("X[%d,%d,%d,%d]" % c for c in pd.crossings)


def pd_from_json(text):
    data = json.loads(text)
    if not isinstance(data, list):
        raise InvalidDiagram("JSON PD code must be an array of arrays")
    return PDCode(data)


class MarkedDiagram(Record):
    """A base diagram with distinct marked edges e_0, e_1, ..., e_k; e_0
    hosts the infinity-tangle and each e_i a twist region."""
    __slots__ = _fields = ("base", "marked_edges")

    def __init__(self, base, marked_edges):
        marks = tuple(marked_edges)
        if len(marks) == 0:
            raise InvalidDiagram("need at least the infinity-tangle mark e_0")
        if len(set(marks)) != len(marks):
            raise InvalidDiagram("marked edges must be distinct")
        # the unknot has no edges: its marks denote abstract points
        if base.n:
            edges = set(base.edges)
            missing = [e for e in marks if e not in edges]
            if missing:
                raise InvalidDiagram("marked edges %s not in diagram"
                                     % missing)
        self._init(base, marks)

    @property
    def k(self):
        return len(self.marked_edges) - 1


class SymUnionSpec(Record):
    """Partial diagram plus twist counts n_1..n_k (even: all n_i = 2 m_i)."""
    __slots__ = _fields = ("partial", "twists")

    def __init__(self, partial, twists):
        twists = tuple(int(n) for n in twists)
        if len(twists) != partial.k:
            raise InvalidDiagram("got %d twist counts for %d twist regions"
                                 % (len(twists), partial.k))
        self._init(partial, twists)

    @property
    def is_even(self):
        return all(n % 2 == 0 for n in self.twists)


def _twist_tuples(n, d_edges, b_edges):
    """Crossing tuples for a vertical twist region of |n| crossings between
    the partial-copy chain d_0..d_|n| and the reflected-copy chain
    b_0..b_|n| (b indexed so the reflected strand runs b_|n| -> b_0)."""
    out = []
    for j in range(1, abs(n) + 1):
        din, dout = d_edges[j - 1], d_edges[j]
        bin_, bout = b_edges[j], b_edges[j - 1]
        if n > 0:
            if j % 2 == 1:
                out.append((din, bin_, dout, bout))
            else:
                out.append((bin_, din, bout, dout))
        else:
            if j % 2 == 1:
                out.append((bin_, dout, bout, din))
            else:
                out.append((din, bout, dout, bin_))
    return out


def symmetric_union_pd(spec):
    """Build the symmetric union (D u D*)(infinity, n_1, ..., n_k) as a PD
    code: duplicate the base into D and its axis reflection, cut e_0 in both
    copies and cross-join (the infinity-tangle), and splice a twist region of
    |n_i| crossings at each e_i.  Crossing count is 2n + sum|n_i|."""
    base = spec.partial.base
    marks = spec.partial.marked_edges
    if base.n == 0:
        raise InvalidDiagram("PD-level surgery needs a diagram with >= 1 "
                             "crossing for the partial (use the presentation-"
                             "level builder for unknot partials)")
    # the reflected copy keeps crossing order; positions map 0,1,2,3 -> 0,3,2,1
    posmap = {0: 0, 1: 3, 2: 2, 3: 1}
    fresh = [0]

    def new_edge():
        fresh[0] += 1
        return ("new", fresh[0])

    crossings = {}
    for ci, c in enumerate(base.crossings):
        crossings[("D", ci)] = [("D", e) for e in c]
        crossings[("M", ci)] = [("M", c[p]) for p in (0, 3, 2, 1)]

    def cut_slots(copy, e):
        """(source half slot, target half slot) of edge e inside the copy."""
        src = base.source_slot(e)
        tgt = base.target_slot(e)
        if copy == "D":
            return (("D", src[0]), src[1]), (("D", tgt[0]), tgt[1])
        return (("M", src[0]), posmap[src[1]]), (("M", tgt[0]), posmap[tgt[1]])

    def set_slot(slot, label):
        crossings[slot[0]][slot[1]] = label

    # infinity-tangle at e_0: cross-join the two copies
    e0 = marks[0]
    (dA, dB) = cut_slots("D", e0)
    (mA, mB) = cut_slots("M", e0)
    v1, v2 = new_edge(), new_edge()
    set_slot(dA, v1)
    set_slot(mA, v1)
    set_slot(dB, v2)
    set_slot(mB, v2)

    # twist regions
    for l, n in enumerate(spec.twists):
        e = marks[l + 1]
        (dA, dB) = cut_slots("D", e)
        (mA, mB) = cut_slots("M", e)
        if n == 0:
            continue  # straight-through tangle; leave both edges intact
        nn = abs(n)
        d_edges = [new_edge() for _ in range(nn + 1)]
        b_edges = [new_edge() for _ in range(nn + 1)]
        set_slot(dA, d_edges[0])
        set_slot(mA, b_edges[0])
        if nn % 2 == 0:
            set_slot(dB, d_edges[nn])
            set_slot(mB, b_edges[nn])
        else:
            set_slot(mB, d_edges[nn])
            set_slot(dB, b_edges[nn])
        for idx, tup in enumerate(_twist_tuples(n, d_edges, b_edges)):
            crossings[("T", l, idx)] = list(tup)

    order = ([("D", ci) for ci in range(base.n)]
             + [key for key in crossings if key[0] == "T"]
             + [("M", ci) for ci in range(base.n)])
    lab = {}
    tuples = []
    for key in order:
        tuples.append(tuple(lab.setdefault(e, len(lab) + 1)
                            for e in crossings[key]))
    return PDCode(tuples)
