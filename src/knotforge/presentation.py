"""
Group presentations of knot groups: free-group words, Fox free differential
calculus, Wirtinger presentations from PD codes, the symmetric-union
presentation template with its epimorphism onto the partial knot's group,
and the 2-bridge one-relator presentation.

Words are freely reduced tuples of (generator index, +-1).  Crossing
relators are stored in the template form  in . o^-s . out^-1 . o^s  (s the
crossing sign), which is trivial exactly when out = o^s . in . o^-s.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagram import InvalidDiagram


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


def concat(*words):
    letters = []
    for w in words:
        letters.extend(w)
    return reduce_word(letters)


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


def parse_word(text, names):
    index = {nm: i for i, nm in enumerate(names)}
    letters = []
    for tok in text.split():
        if tok == "1":
            continue
        if tok.endswith("^-1"):
            nm, e = tok[:-3], -1
        else:
            nm, e = tok, 1
        if nm not in index:
            raise ValueError("unknown generator %r" % nm)
        letters.append((index[nm], e))
    return reduce_word(letters)


# -- free group ring ---------------------------------------------------------

class GroupRingElt:
    """Formal Z-linear combination of freely-reduced words."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for w, c in (terms or {}).items():
            if c:
                clean[w] = c
        self.terms = clean

    @classmethod
    def from_word(cls, w, c=1):
        return cls({reduce_word(w): c})

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GroupRingElt(out)

    def __neg__(self):
        return GroupRingElt({w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def left_mul_word(self, u):
        return GroupRingElt({concat(u, w): c for w, c in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, GroupRingElt) and self.terms == other.terms

    def __repr__(self):
        return "GroupRingElt(%r)" % (self.terms,)


def fox_derivative(w, j):
    """Fox free derivative d(w)/d(x_j) in the free group ring.

    d(x_j)/d(x_j) = 1, d(uv) = du + u.dv, hence d(x_j^-1) = -x_j^-1.
    """
    out = {}
    prefix = ()
    for g, e in w:
        if g == j:
            if e == 1:
                key = prefix
                out[key] = out.get(key, 0) + 1
            else:
                key = concat(prefix, ((g, -1),))
                out[key] = out.get(key, 0) - 1
        prefix = concat(prefix, ((g, e),))
    return GroupRingElt(out)


# -- presentations -----------------------------------------------------------

@dataclass(frozen=True)
class GroupPresentation:
    names: tuple
    relators: tuple
    meridian: int = 0
    longitude: tuple | None = None
    is_wirtinger: bool = True

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "relators",
                          tuple(reduce_word(r) for r in self.relators))
        if not (0 <= self.meridian < len(self.names)):
            raise ValueError("meridian index out of range")
        if self.is_wirtinger:
            for r in self.relators:
                if word_exponent_sum(r) != 0:
                    raise ValueError("relator %s has nonzero exponent sum"
                                     % format_word(r, self.names))

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


@dataclass(frozen=True)
class GeneratorMap:
    """Generator-level homomorphism; images of all source relators must be
    target relators or freely reduce to 1 (checked at construction)."""
    source: GroupPresentation
    target: GroupPresentation
    images: tuple

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        if len(self.images) != self.source.num_generators:
            raise ValueError("need one image per source generator")
        target_rels = set()
        for r in self.target.relators:
            for rr in (r, inverse_word(r)):
                for i in range(len(rr)):
                    target_rels.add(rr[i:] + rr[:i])
        for r in self.source.relators:
            img = map_word(r, self.images)
            if img and img not in target_rels:
                raise ValueError(
                    "relator image %s is neither trivial nor a target relator"
                    % format_word(img, self.target.names))

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
    PDCode.crossing_roles; each is trivial exactly when
    out = over^sign . in . over^-sign."""
    return [reduce_word(((i, 1), (o, -sign), (out, -1), (o, sign)))
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
    """Wirtinger presentation: one generator per arc, one conjugation relator
    per crossing; meridian is the first arc's generator; the longitude is the
    signed product of over-arc generators along the knot, corrected by
    meridian^-writhe (the exponent sum) so its exponent sum is zero."""
    if pd.n == 0:
        return GroupPresentation(("x1",), (), meridian=0, longitude=())
    arcs, arc_of, events = pd.subarcs()
    names = tuple("x%d" % (i + 1) for i in range(len(arcs)))
    roles = pd.crossing_roles(arc_of)
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


def eliminate_identifications(pres):
    """Tietze-eliminate the generators that relators x_a x_b^-1 (in either
    orientation) identify: each class of identified generators keeps its
    lowest index, so generator 0 survives, and the other relators, the
    meridian and the longitude are rewritten on the kept generators and
    freely reduced.  Returns (reduced presentation, classes), classes[g]
    the index of g's kept generator in the reduced presentation; None when
    no relator is an identification or when one closes a cycle (it would
    reduce to the empty word and change the deficiency)."""
    n = pres.num_generators
    root = list(range(n))

    def find(g):
        while root[g] != g:
            g = root[g]
        return g

    rest = []
    for r in pres.relators:
        if len(r) == 2 and r[0][0] != r[1][0] and r[0][1] == -r[1][1]:
            a, b = sorted((find(r[0][0]), find(r[1][0])))
            if a == b:
                return None
            root[b] = a
        else:
            rest.append(r)
    if len(rest) == len(pres.relators):
        return None
    roots = [find(g) for g in range(n)]
    kept = sorted(set(roots))
    index = {g: i for i, g in enumerate(kept)}
    classes = tuple(index[g] for g in roots)
    images = [((c, 1),) for c in classes]
    reduced = GroupPresentation(
        tuple(pres.names[g] for g in kept),
        tuple(map_word(r, images) for r in rest),
        meridian=classes[pres.meridian],
        longitude=(None if pres.longitude is None
                   else map_word(pres.longitude, images)),
        is_wirtinger=pres.is_wirtinger)
    return reduced, classes


# -- symmetric-union template ------------------------------------------------

def _role_names(base, marks):
    """Assign role-based names to the sub-arcs of the cut diagram."""
    arcs, arc_of, events = base.subarcs(cut_edges=marks, start_cut=marks[0])
    A = len(arcs)
    z1 = next(i for i, ev in enumerate(events) if ev == ("cut", marks[0]))
    z2 = (z1 + 1) % A
    assert z2 == 0
    y1, y2 = {}, {}
    for l, e in enumerate(marks[1:], start=1):
        i = next(i for i, ev in enumerate(events) if ev == ("cut", e))
        y1[l] = i
        y2[l] = (i + 1) % A
    names = [None] * A
    names[z1] = "z1"
    if names[z2] is None:
        names[z2] = "z2"
    for l in range(1, len(marks)):
        if names[y1[l]] is None:
            names[y1[l]] = "y%d_1" % l
        if names[y2[l]] is None:
            names[y2[l]] = "y%d_2" % l
    u = 0
    for i in range(A):
        if names[i] is None:
            u += 1
            names[i] = "u%d" % u
    return arcs, arc_of, events, names, z1, z2, y1, y2


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
    arcs, arc_of, events, arc_names, z1, z2, y1, y2 = _role_names(base, marks)
    A = len(arcs)
    roles = base.crossing_roles(arc_of)

    # partial-knot presentation: all sub-arcs, crossing relators,
    # y_{l,1} = y_{l,2} identifications; the z1 = z2 relator is dropped
    p_rels = _crossing_relators(roles)
    for l in range(1, k + 1):
        p_rels.append(reduce_word(((y1[l], 1), (y2[l], -1))))
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
        rels.append(reduce_word(((xc[0], 1), (y1[l], -1))))
        rels.append(reduce_word(((sc[0], 1), (star[y1[l]], -1))))
        rels.append(reduce_word(((xc[-1], 1), (y2[l], -1))))
        rels.append(reduce_word(((sc[-1], 1), (star[y2[l]], -1))))
    rels.append(reduce_word(((v1, 1), (z1, -1))))
    rels.append(reduce_word(((v1, 1), (star[z1], -1))))
    rels.append(reduce_word(((v2, 1), (z2, -1))))
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
    from .reps import Representation, verify_representation, word_prefixes

    if not verify_representation(phi.target, rho):
        raise ValueError("representation is not valid on the partial "
                         "presentation produced by this construction")
    mats = tuple(word_prefixes(img, rho.matrices, rho.p)[-1]
                 for img in phi.images)
    return Representation._trusted(rho.p, rho.d, mats)


# -- 2-bridge presentation ---------------------------------------------------

def two_bridge_presentation(p, q):
    """One-relator presentation of the 2-bridge knot group b(p, q):
    <a, b | w a w^-1 b^-1> with w = a^e1 b^e2 a^e3 ... b^e_{p-1},
    e_i = (-1)^floor(i*q/p)."""
    from math import gcd
    if p % 2 == 0 or p < 3 or not (0 < q < p) or gcd(p, q) != 1:
        raise ValueError("b(%d, %d) is not a 2-bridge knot" % (p, q))
    eps = [(-1) ** ((i * q) // p) for i in range(1, p)]
    w = []
    for i, e in enumerate(eps, start=1):
        g = 0 if i % 2 == 1 else 1  # a for odd positions, b for even
        w.append((g, e))
    w = reduce_word(w)
    relator = concat(w, ((0, 1),), inverse_word(w), ((1, -1),))
    return GroupPresentation(("a", "b"), (relator,), meridian=0)
