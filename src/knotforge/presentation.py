"""
Group presentations of knot groups: free-group words, Wirtinger
presentations from PD codes, the Tietze pass that shrinks a presentation
before its Fox pencil, and the symmetric-union presentation template with
its epimorphism onto the partial knot's group.

Words are freely reduced tuples of (generator index, +-1).  Crossing
relators are stored in the template form  in . o^-s . out^-1 . o^s  (s the
crossing sign), which is trivial exactly when out = o^s . in . o^-s.
"""

from __future__ import annotations

from itertools import count

from ._record import Record
from .diagram import InvalidDiagram
from .reps import Representation, verify_representation, word_prefixes


# -- free-group words --------------------------------------------------------

def reduce_word(letters):
    """Freely reduce a sequence of (gen, +-1) letters."""
    out = []
    for g, e in letters:
        if out and out[-1][0] == g and out[-1][1] == -e:
            out.pop()
        else:
            out.append((g, e))
    return tuple(out)


def inverse_word(w):
    return tuple((g, -e) for g, e in reversed(w))


def word_exponent_sum(w):
    return sum(e for _, e in w)


def map_word(w, images):
    """Apply a generator substitution (list of Words) to a Word."""
    letters = []
    for g, e in w:
        img = images[g]
        letters.extend(img if e == 1 else inverse_word(img))
    return reduce_word(letters)


def format_word(w, names):
    if not w:
        return "1"
    parts = []
    for g, e in w:
        parts.append(names[g] if e == 1 else names[g] + "^-1")
    return " ".join(parts)


# -- presentations -----------------------------------------------------------

class GroupPresentation(Record):
    """Generator names and freely reduced relators."""
    __slots__ = _fields = ("names", "relators", "meridian", "longitude",
                           "is_wirtinger")

    def __init__(self, names, relators, meridian=0, longitude=None,
                 is_wirtinger=True):
        names = tuple(names)
        relators = tuple(reduce_word(r) for r in relators)
        if not (0 <= meridian < len(names)):
            raise ValueError("meridian index out of range")
        if is_wirtinger:
            for r in relators:
                if word_exponent_sum(r) != 0:
                    raise ValueError("relator %s has nonzero exponent sum"
                                     % format_word(r, names))
        self._init(names, relators, meridian, longitude, is_wirtinger)

    @property
    def num_generators(self):
        return len(self.names)

    @property
    def deficiency(self):
        return len(self.names) - len(self.relators)

    def __repr__(self):
        return "GroupPresentation(<%d gens | %d relators>)" % (
            len(self.names), len(self.relators))


def format_presentation(pres):
    lines = ["gens: %d" % pres.num_generators]
    pos = ["x%d" % (i + 1) for i in range(pres.num_generators)]
    for r in pres.relators:
        lines.append(format_word(r, pos))
    return "\n".join(lines) + "\n"


class GeneratorMap(Record):
    """Generator-level homomorphism; images of all source relators must be
    target relators or freely reduce to 1 (checked at construction)."""
    __slots__ = _fields = ("source", "target", "images")

    def __init__(self, source, target, images):
        images = tuple(images)
        if len(images) != source.num_generators:
            raise ValueError("need one image per source generator")
        target_rels = set()
        for r in target.relators:
            for rr in (r, inverse_word(r)):
                for i in range(len(rr)):
                    target_rels.add(rr[i:] + rr[:i])
        for r in source.relators:
            img = map_word(r, images)
            if img and img not in target_rels:
                raise ValueError(
                    "relator image %s is neither trivial nor a target relator"
                    % format_word(img, target.names))
        self._init(source, target, images)

    def __call__(self, w):
        return map_word(w, self.images)

    def format(self):
        lines = []
        for nm, img in zip(self.source.names, self.images):
            lines.append("%s -> %s" % (nm, format_word(img, self.target.names)))
        return "\n".join(lines) + "\n"


# -- Wirtinger presentation --------------------------------------------------

def _crossing_relators(roles):
    """One relator per crossing role (in, out, over, sign) of
    PDCode.subarcs; each is trivial exactly when
    out = over^sign . in . over^-sign.  GroupPresentation reduces it."""
    return [((i, 1), (o, -sign), (out, -1), (o, sign))
            for i, out, o, sign in roles]


def _closed_longitude(letters, meridian):
    """The longitude of a walk along the knot from its (over, sign) letters,
    one per underpass in walk order: the conjugators q_i moving the basepoint
    meridian along the strand compose as q_n ... q_1, so the letters are
    reversed, then meridian^-e (e their exponent sum) makes the exponent sum
    zero; freely reduced."""
    lam = letters[::-1]
    e = word_exponent_sum(lam)
    lam.extend([(meridian, -1 if e > 0 else 1)] * abs(e))
    return reduce_word(lam)


def wirtinger(pd):
    """Wirtinger presentation from the uncut walk `PDCode.subarcs`: one
    generator per arc (an arc ends at each undercrossing), one conjugation
    relator per crossing role; meridian is the first arc's generator; the
    longitude is the signed product of over-arc generators along the knot,
    corrected by meridian^-writhe (the exponent sum) so its exponent sum is
    zero."""
    if pd.n == 0:
        return GroupPresentation(("x1",), (), meridian=0, longitude=())
    roles, events = pd.subarcs()
    names = tuple("x%d" % (i + 1) for i in range(len(events)))
    longitude = _closed_longitude([roles[ci][2:] for _, ci in events], 0)
    return GroupPresentation(names, tuple(_crossing_relators(roles)),
                             meridian=0, longitude=longitude)


def deficiency_one(pres):
    """Drop the last relator of a deficiency-0 Wirtinger presentation (any
    one crossing relator is a consequence of the others)."""
    if pres.deficiency == 1:
        return pres
    if pres.deficiency != 0 or not pres.relators:
        raise ValueError("expected a deficiency-0 presentation")
    return GroupPresentation(pres.names, pres.relators[:-1],
                             meridian=pres.meridian,
                             longitude=pres.longitude,
                             is_wirtinger=pres.is_wirtinger)


def _fox_span(word, drop):
    """How many powers of t the Fox row of word spans, column drop removed,
    its exponents read as `twisted._fox_program` reads them."""
    exps, e = set(), 0
    for g, s in word:
        if g != drop:
            exps.add(e if s > 0 else e - 1)
        e += s
    return max(exps) - min(exps) + 1 if exps else 0


def _substitute(relator, g, image, inverse):
    """relator with g replaced by image (g^-1 by inverse), freely and
    cyclically reduced: a conjugate relator's Fox row differs by a unit."""
    letters = []
    for h, e in relator:
        if h != g:
            letters.append((h, e))
        else:
            letters.extend(image if e > 0 else inverse)
    w = reduce_word(letters)
    while len(w) > 1 and w[0][0] == w[-1][0] and w[0][1] == -w[-1][1]:
        w = w[1:-1]
    return w


def eliminate_generators(pres, keep):
    """Tietze-eliminate generators of pres other than keep and the meridian.
    A generator g that occurs once in a relator r is replaced everywhere by
    the rest of r, inverted as needed, and r is dropped, if every relator so
    rewritten is nonempty and its Fox row, column keep removed, spans at
    most two powers of t: so the deficiency is kept and the Fox pencil needs
    no auxiliary rows.  The relators are scanned in order, each one's
    letters in order, until nothing changes.  Returns (reduced presentation
    without longitude, kept), kept the indices in pres of its generators."""
    rels = list(pres.relators)
    occurs = [set() for _ in pres.names]  # the relators each generator is in
    for i, r in enumerate(rels):
        for g, _ in r:
            occurs[g].add(i)
    gone, changed = set(), True
    while changed:
        changed = False
        for i, r in enumerate(rels):
            gens = [h for h, _ in r or ()]
            for pos, (g, s) in enumerate(r or ()):
                if g in (keep, pres.meridian) or gens.count(g) > 1:
                    continue
                image = r[pos + 1:] + r[:pos]
                inverse = inverse_word(image)
                if s > 0:
                    image, inverse = inverse, image
                new = [(i, None)]  # r is dropped, the others rewritten
                for k in occurs[g] - {i}:
                    w = _substitute(rels[k], g, image, inverse)
                    if not w or _fox_span(w, keep) > 2:
                        break
                    new.append((k, w))
                else:
                    break  # g goes
            else:
                continue  # r keeps all its generators
            for k, w in new:
                for h, _ in rels[k]:
                    occurs[h].discard(k)
                for h, _ in w or ():
                    occurs[h].add(k)
                rels[k] = w
            gone.add(g)
            changed = True
    kept = tuple(g for g in range(len(pres.names)) if g not in gone)
    index = {g: c for c, g in enumerate(kept)}
    return GroupPresentation(
        tuple(pres.names[g] for g in kept),
        tuple(tuple((index[h], e) for h, e in r)
              for r in rels if r is not None),
        meridian=index[pres.meridian],
        is_wirtinger=pres.is_wirtinger), kept


# -- symmetric-union template ------------------------------------------------

def _role_names(base, marks):
    """The crossing roles and breaks of base cut at marks, and role-based
    names of its sub-arcs: sub-arc 0 begins just after marks[0], so it is
    z2 and the last sub-arc, which ends there, is z1; the sub-arcs that end
    at and begin after marks[l] are y_l,1 and y_l,2."""
    roles, events = base.subarcs(marks)
    A = len(events)
    z1, z2 = A - 1, 0
    y1 = {l: events.index(("cut", e)) for l, e in enumerate(marks[1:], 1)}
    y2 = {l: (i + 1) % A for l, i in y1.items()}
    # a sub-arc keeps the first name it is given, in this order; the rest
    # are u1, u2, ... in walk order
    given = [(z1, "z1"), (z2, "z2")] + [
        named for l in y1
        for named in ((y1[l], "y%d_1" % l), (y2[l], "y%d_2" % l))]
    first, u = dict(reversed(given)), count(1)
    names = [first.get(i) or "u%d" % next(u) for i in range(A)]
    return roles, events, names, z1, z2, y1, y2


def _twist_roles(a, b):
    """Crossing roles (in, out, over, sign) of a twist region whose chains a
    and b run side by side: a_j passes under b_j into a_j+1, then b_j under
    a_j+1 into b_j+1."""
    roles = []
    for j in range(len(a) - 1):
        roles.append((a[j], a[j + 1], b[j], -1))
        roles.append((b[j], b[j + 1], a[j + 1], 1))
    return roles


def build_symun_presentation(spec):
    """The three outputs of the symmetric-union template: the union group
    presentation (deficiency 1, final v2 z2*^-1 relator dropped), the partial
    knot's presentation (cut Wirtinger plus identification relators), and the
    epimorphism between them (identity on unstarred arcs, star-forgetting,
    tangle generators to the identified arc classes)."""
    if not spec.is_even:
        raise InvalidDiagram("presentation-level construction needs even twists")
    base = spec.partial.base
    marks = spec.partial.marked_edges
    k = spec.partial.k
    ms = [n // 2 for n in spec.twists]
    roles, events, arc_names, z1, z2, y1, y2 = _role_names(base, marks)
    A = len(events)

    # partial-knot presentation: all sub-arcs, crossing relators,
    # y_{l,1} = y_{l,2} identifications; the z1 = z2 relator is dropped
    p_rels = _crossing_relators(roles)
    for l in range(1, k + 1):
        p_rels.append(((y1[l], 1), (y2[l], -1)))
    partial_pres = GroupPresentation(tuple(arc_names), tuple(p_rels),
                                     meridian=z2)

    # union generators: unstarred arcs, starred arcs, v1, v2, tangle chains
    names = list(arc_names) + [nm + "*" for nm in arc_names]
    star = {i: A + i for i in range(A)}
    v1 = len(names)
    names.append("v1")
    v2 = len(names)
    names.append("v2")
    chains = []  # per twist region: the x-chain and the x*-chain
    for l in range(1, k + 1):
        M = abs(ms[l - 1])
        pair = []
        for suffix in ("", "*"):
            pair.append(range(len(names), len(names) + M + 1))
            names.extend("x%d_%d%s" % (l, j, suffix) for j in range(1, M + 2))
        chains.append(pair)

    star_roles = [(star[i], star[out], star[o], sign)
                  for i, out, o, sign in roles]
    rels = _crossing_relators(roles) + _crossing_relators(star_roles)
    # per marked edge, its region's roles in walk order along each chain
    region_walks = {}
    for l, (xc, sc) in enumerate(chains, start=1):
        region = (_twist_roles(xc, sc) if ms[l - 1] > 0
                  else _twist_roles(sc, xc))
        rels += _crossing_relators(region)
        under = {role[0]: role for role in region}
        region_walks[marks[l]] = ([under[g] for g in xc[:-1]],
                                  [under[g] for g in sc[:-1]])
        rels.append(((xc[0], 1), (y1[l], -1)))
        rels.append(((sc[0], 1), (star[y1[l]], -1)))
        rels.append(((xc[-1], 1), (y2[l], -1)))
        rels.append(((sc[-1], 1), (star[y2[l]], -1)))
    rels.append(((v1, 1), (z1, -1)))
    rels.append(((v1, 1), (star[z1], -1)))
    rels.append(((v2, 1), (z2, -1)))
    # final relator v2 (z2*)^-1 dropped for deficiency 1

    # longitude carried through the template: walk D from z2, across each
    # twist region along its x-chain, to the infinity-tangle, then the
    # reflected copy backwards, across each region along its x*-chain, and
    # return through v2.  Each underpass gives its role's (over, sign); the
    # reflected walk runs against its copy's orientation, (over, -sign)
    there, back = [], []
    for kind, c in events[:-1]:  # events[-1] is the cut at marks[0]
        if kind == "under":
            there.append(roles[c])
            back.append(star_roles[c])
        else:
            there += region_walks[c][0]
            back += region_walks[c][1]
    longitude = _closed_longitude(
        [(o, s) for _, _, o, s in there] +
        [(o, -s) for _, _, o, s in reversed(back)], z2)

    union_pres = GroupPresentation(tuple(names), tuple(rels), meridian=z2,
                                   longitude=longitude)

    # unstarred and starred arcs, v1, v2, then each region's chains
    images = [((i, 1),) for i in range(A)] * 2 + [((z1, 1),), ((z2, 1),)]
    for l, (xc, sc) in enumerate(chains, start=1):
        images.extend([((y1[l], 1),)] * (len(xc) + len(sc)))
    phi = GeneratorMap(union_pres, partial_pres, tuple(images))
    return union_pres, partial_pres, phi


def lamm_pullback(phi, rho):
    """rho o phi for a representation rho of phi.target, checked there once:
    GeneratorMap proved at construction that every source relator maps to a
    target relator or to 1, so rho o phi satisfies the source unchecked."""
    return _pullback(phi, _checked(phi.target, rho), range(len(phi.images)))


def _checked(partial, rho):
    """rho, once it satisfies the presentation of a partial knot: the one
    of a template, or a candidate's in the obstruction."""
    if not verify_representation(partial, rho):
        raise ValueError("representation is not valid on the partial "
                         "knot's presentation")
    return rho


def _pullback(phi, rho, gens):
    """rho o phi on the source generators gens, rho checked on phi.target."""
    return Representation._trusted(rho.p, rho.d, tuple(
        rho.matrices[w[0][0]] if len(w) == 1 and w[0][1] == 1
        else word_prefixes(w, rho.matrices, rho.p)[-1]
        for w in map(phi.images.__getitem__, gens)))
