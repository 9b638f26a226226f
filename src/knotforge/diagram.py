"""
Knot-diagram data: PD codes, mirroring, marked partial diagrams and PD-level
symmetric-union surgery.

A PD code lists each crossing as a 4-tuple (a, b, c, d) of edge labels read
counterclockwise starting from the incoming under-strand, so a -> c is the
under-strand and b, d carry the over-strand.  Validation walks the closed
circuit once, checks that the diagram is a single-component knot, and rotates
tuples by two positions where needed so that position 0 really is the
incoming under-edge for one consistent global orientation.  A PDCode is a
value record (`_record.Record`) whose one field is its normalized
crossings: == and hash compare them, and assigning any of its attributes
raises AttributeError.

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


class PDCode(Record):
    """Validated, orientation-normalized planar diagram code of a knot; a
    value record whose one field is crossings.  `subarcs` is the one walk
    from it to the crossing roles that every presentation is built from."""

    __slots__ = ("crossings", "n", "_edge_order", "_slots", "_over_entry")
    _fields = ("crossings",)

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
        n = len(crossings)
        slots = {}  # edge -> (source_slot, target_slot), in circuit order
        over_entry = [None] * n
        rotate = set()  # crossings whose under-strand is entered at 2
        if n:
            # Walk the circuit once, leaving crossing 0 along position 2 and
            # each crossing at the slot opposite the one it was entered at.
            # That step is f = step . other (other: the far end of a slot's
            # edge; step: the opposite slot), a bijection on the slots, and
            # other . f . other = f^-1.  An orbit that other kept would hold
            # a fixed point of other or of step, and neither has one, so the
            # walk runs along distinct edges and closes within 2n steps.
            # When it covers all 2n edges, each crossing is entered once at
            # an even position and once at an odd one: only a link is refused.
            cur = start = (0, 2)
            while True:
                e = crossings[cur[0]][cur[1]]
                s1, s2 = occ[e]
                nxt = s2 if s1 == cur else s1
                slots[e] = (cur, nxt)
                ci, pos = nxt
                if pos % 2:
                    over_entry[ci] = pos
                elif pos == 2:
                    rotate.add(ci)
                cur = (ci, (pos + 2) % 4)
                if cur == start:
                    break
            if len(slots) != 2 * n:
                raise InvalidDiagram("diagram is not a single-component knot")
        # rotate by two each tuple whose under-strand is entered at 2, so
        # that position 0 is the incoming under-edge, and shift its slots
        for ci in rotate:
            c = crossings[ci]
            crossings[ci] = c[2:] + c[:2]
            over_entry[ci] ^= 2  # 1 <-> 3
        for e, ends in slots.items():
            slots[e] = tuple((ci, (pos + 2) % 4 if ci in rotate else pos)
                             for ci, pos in ends)
        self._init(tuple(crossings), n, tuple(slots), slots,
                   tuple(over_entry))

    # -- traversal accessors -------------------------------------------------

    @property
    def edges(self):
        return sorted(self._slots)

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

    def subarcs(self, cuts=()):
        """The one walk from the diagram to its sub-arcs: the strand broken
        at each undercrossing and at the midpoint of each cut edge.

        Returns (roles, events).  events[i] is the break that ends sub-arc
        i, ('under', crossing) or ('cut', edge), so there are len(events)
        sub-arcs; roles[ci] is crossing ci's (in, out, over, sign) by
        sub-arc.  Sub-arc 0 begins just after cuts[0], or, with no cuts,
        just after the walk's first undercrossing.  On the unknot the cuts
        are abstract marks, and with none there is one closed arc and no
        break."""
        if self.n == 0:
            return [], [("cut", e) for e in cuts[1:] + cuts[:1]]
        cut = set(cuts)
        unknown = cut.difference(self._slots)
        if unknown:
            raise InvalidDiagram("cut edges %s not in diagram" % sorted(unknown))
        # half-edge h is the tail (h even) or head (h odd) of order[h // 2];
        # a cut breaks after its edge's tail, an undercrossing after the head
        # of the edge entering it at position 0.  The walk starts at the head
        # of cuts[0], or at the tail after the first edge that ends under,
        # and so ends at that break
        order, slots = self._edge_order, self._slots
        if cuts:
            start = 2 * order.index(cuts[0]) + 1
        else:
            start = 2 * next(i for i, e in enumerate(order)
                             if slots[e][1][1] == 0) + 2
        ins, overs, events = [None] * self.n, [None] * self.n, []
        for h in range(start, start + 2 * len(order)):
            e = order[h // 2 % len(order)]
            if h % 2 == 0:
                if e in cut:
                    events.append(("cut", e))
            else:
                ci, pos = slots[e][1]
                if pos:
                    overs[ci] = len(events)
                else:
                    ins[ci] = len(events)
                    events.append(("under", ci))
        # the edge leaving an undercrossing starts the sub-arc after it
        return [(i, (i + 1) % len(events), o, self.sign(ci))
                for ci, (i, o) in enumerate(zip(ins, overs))], events

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
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidDiagram("invalid JSON: %s" % exc) from exc
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
