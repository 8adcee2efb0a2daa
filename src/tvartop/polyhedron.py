"""Exact rational cones, and polyhedra stored as their homogenization cones.

A ``Cone`` is held by canonical primitive integer generators: the extreme
rays of its pointed part and a basis of its lineality space, in the form
``rays_of_hcone`` returns, so equal cones have equal data.  Its H-rep is the
same enumeration run on the generators, and ``Cone`` holds the only H-rep
and containment code.  ``Cone.from_generators`` runs that enumeration once
and reads the extreme rays of a pointed cone off the generator-facet
incidences (a face is the set of points tight on some facets); only a cone
with lineality is enumerated again from its H-rep.

A polyhedron P in N_Q is stored as its homogenization cone, the closure of
cone{(1, x) : x in P} in Q x N_Q, with t first and inside t >= 0 (Ziegler,
"Lectures on Polytopes", ch. 1).  A canonical generator (m, m*v) with m > 0
is a vertex v of P and a generator (0, r) is a ray of its tail cone; the
empty polyhedron is the zero cone.  ``vertices`` (``Fraction`` tuples) and
``tail`` are read off the generators once, at construction; dimension,
containment, faces, intersection and the face relation are questions about
the cone.  V-data (``from_points_rays``) goes through
``Cone.from_generators``: one enumeration for the H-rep, then incidences.
The trivial polyhedron ``Cone.as_polyhedron`` lifts its tail's H-rep, when
known, instead of enumerating its own.  H-data goes through
``_from_hcone`` after a single ray enumeration; ``intersect`` feeds it the
union of the operands' H-reps and leaves the result's own H-rep to be
computed on demand.  All arithmetic is exact.

Most cones of a fan are faces of a few: ``cones_from_generators`` takes
generator lists from the most generators to the fewest and reads each as a
face of a pointed cone already enumerated when it can
(``Cone.face_spanned_by``: the rows tight on every generator cut out the
smallest face holding them, which they span iff its rays are among them).
``facet_separates`` certifies that two polyhedra meet in a common face when
a facet of one has the other behind it, with no exact intersection.

The kernel works on integer rows only: ray enumeration scales each row
with a non-integer entry to a primitive integer vector, uses integer rows
as given, and takes kernels, ranks and the projection off the lineality
space by fraction-free elimination
(``exactla.rref``, ``exactla.rank_and_kernel``).
Extreme rays are found by double description (Motzkin et al. 1953;
Fukuda-Prodon 1996): start from the simplicial cone of d independent rows
and cut by the other rows one at a time, joining adjacent rays across each
cut.  It needs one elimination per cone, where enumerating (d-1)-row
subsets needs one per subset.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import EmptyInput, RankMismatch
from .exactla import rank_and_kernel, rref

Vec = tuple


def qvec(xs) -> Vec:
    return tuple(x if isinstance(x, Fraction) else Fraction(x) for x in xs)


def dot(u, v) -> Fraction:
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def _idot(u, v) -> int:
    return sum(map(mul, u, v))


def vsub(u, v) -> Vec:
    return tuple(a - b for a, b in zip(u, v))


def vadd(u, v) -> Vec:
    return tuple(a + b for a, b in zip(u, v))


def is_zero(u) -> bool:
    return all(a == 0 for a in u)


def mu(v) -> int:
    """Least positive integer m with m*v integral (lcm of denominators)."""
    return lcm(*(Fraction(x).denominator for x in v))


def primitive(v) -> Vec:
    """Scale a nonzero rational vector to a primitive integer vector."""
    if not all(type(x) is int for x in v):
        v = [Fraction(x) for x in v]
        m = lcm(*(x.denominator for x in v))
        v = [x.numerator * (m // x.denominator) for x in v]
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in v)


def _int_rows(rows):
    """Distinct primitive integer forms of the nonzero rows, in order."""
    return list(dict.fromkeys(primitive(row) for row in rows if any(row)))


def _integral(rows):
    """The nonzero rows as integer vectors: a row with a non-integer entry
    scaled to its primitive form, an integer row as it is."""
    return [row if all(type(x) is int for x in row) else primitive(row)
            for row in rows if any(row)]


def _rank(rows) -> int:
    return len(rref(rows)[1])


def _pointed_rays(mat, d):
    """Extreme rays of the pointed cone {x in Q^d : mat @ x >= 0}.

    ``mat`` holds integer rows of full column rank d.  Double description:
    d independent rows cut out a simplicial cone whose rays are the oriented
    kernels of its (d-1)-row subsets; every other row then cuts the current
    cone.  Rays on its nonnegative side stay, and each adjacent pair (p, q)
    with <a,p> > 0 > <a,q> adds the ray <a,p> q - <a,q> p on the hyperplane.
    p and q are adjacent iff no third ray is tight on every row that both
    make tight (the minimal face holding both is then 2-dimensional), which
    needs at least d-2 such rows.  Tight sets are bitmasks over row indices.

    One ``rref`` of [mat^T | I] finds both: its pivot columns pick the
    independent rows (the first d in order), and the identity block of the
    row with pivot i is a primitive u with <mat[i],u> > 0 and <mat[j],u> = 0
    for the other picked rows j.
    """
    m = len(mat)
    red, basis = rref([list(col) + [int(i == j) for j in range(d)]
                       for i, col in enumerate(zip(*mat))])
    full = sum(1 << i for i in basis)
    rays = [(row[m:], full & ~(1 << i)) for row, i in zip(red, basis)]
    for i, a in enumerate(mat):
        bit = 1 << i
        if full & bit:
            continue
        vals = [_idot(a, u) for u, _ in rays]
        kept = [(u, z | bit if s == 0 else z) for (u, z), s in zip(rays, vals) if s >= 0]
        neg = [k for k, s in enumerate(vals) if s < 0]
        for ip, sp in enumerate(vals):
            if sp <= 0:
                continue
            p, zp = rays[ip]
            for iq in neg:
                q, zq = rays[iq]
                common = zp & zq
                if common.bit_count() < d - 2 or any(
                        z & common == common for k, (_, z) in enumerate(rays)
                        if k != ip and k != iq):
                    continue
                sq = vals[iq]
                new = [sp * y - sq * x for x, y in zip(p, q)]
                g = gcd(*new)
                kept.append((tuple(x // g for x in new), common | bit))
        rays = kept
    return [u for u, _ in rays]


def _project_off(v, ortho):
    """A positive multiple of v minus its orthogonal projection onto
    span(ortho); ``ortho`` is a list of pairwise orthogonal integer vectors."""
    for o in ortho:
        c = _idot(v, o)
        if c:
            n = _idot(o, o)
            v = [n * x - c * y for x, y in zip(v, o)]
    return v


def rays_of_hcone(ineqs, eqs, dim):
    """Generators of {x : <a,x> >= 0 for a in ineqs, <e,x> = 0 for e in eqs}.

    Returns (lineality basis, rays), both canonical primitive integer tuples:
    the lineality basis is the primitive form of the RREF basis of the
    lineality space, and the rays are the sorted extreme rays of the cone
    projected orthogonally off the lineality space.  Rows may be rational;
    integer rows are used as given, as the result does not depend on their
    scale, order or repetition, so callers that hold canonical H-reps or
    generators pay no normalization.
    """
    ineqs = _integral(ineqs)
    eqs = _integral(eqs)
    if eqs:
        _, w_basis = rank_and_kernel(eqs, dim)
        if not w_basis:
            return (), ()
        mat = _int_rows([[_idot(a, wj) for wj in w_basis] for a in ineqs])
        w = len(w_basis)
    else:
        w_basis = None
        mat = ineqs
        w = dim
    if w == 0:
        return (), ()
    piv, lin_y = rank_and_kernel(mat, w)
    # the pivot columns' unit vectors span a complement of the lineality
    rays_c = _pointed_rays([tuple(row[c] for c in piv) for row in mat], len(piv))

    def to_ambient(y):
        if w_basis is None:
            return y
        return [_idot(col, y) for col in zip(*w_basis)]

    lin_amb, _ = rref([to_ambient(y) for y in lin_y])
    ortho = []
    for b in lin_amb:
        b = _project_off(b, ortho)
        g = gcd(*b)
        ortho.append([x // g for x in b])
    rays_amb = set()
    for rc in rays_c:
        y = [0] * w
        for coef, c in zip(rc, piv):
            y[c] = coef
        rays_amb.add(primitive(_project_off(to_ambient(y), ortho)))
    return tuple(lin_amb), tuple(sorted(rays_amb))


class Cone:
    """Polyhedral cone given by primitive generators.

    ``rays`` lists the canonical generators: extreme rays of the pointed
    part plus a +/- pair for each lineality basis vector.  Pointedness is
    the derived ``is_pointed`` flag.
    """

    __slots__ = ("ambient_rank", "_pointed_rays", "_lineality", "_hrep", "key")

    def __init__(self, ambient_rank, pointed_rays, lineality, _hrep=None):
        self.ambient_rank = ambient_rank
        self._pointed_rays = tuple(sorted(pointed_rays))
        self._lineality = tuple(sorted(lineality))
        self._hrep = _hrep
        self.key = (ambient_rank, self._pointed_rays, self._lineality)

    @classmethod
    def from_generators(cls, ambient_rank, generators) -> "Cone":
        """The cone spanned by ``generators`` (integer or rational vectors).

        One ray enumeration gives the H-rep.  A face is the set of points
        tight on some facets, so the smallest face holding a generator g is
        cut out by the facets tight at g, and another generator h lies in it
        iff h is tight on all of them.  A generator tight on every facet lies
        in the lineality space; only then is the canonical form enumerated
        from the H-rep.  Otherwise the cone is pointed, and its extreme rays
        are the distinct primitive generators whose face holds no other.
        """
        gens = _int_rows(generators)
        eqs, ineqs = hrep = rays_of_hcone(gens, [], ambient_rank)
        tight = [sum(1 << j for j, a in enumerate(ineqs) if not _idot(a, g)) for g in gens]
        every_facet = (1 << len(ineqs)) - 1
        if every_facet in tight:
            lin, rays = rays_of_hcone(ineqs, eqs, ambient_rank)
            return cls(ambient_rank, rays, lin, hrep)
        rays = [g for i, (g, t) in enumerate(zip(gens, tight))
                if not any(u & t == t for k, u in enumerate(tight) if k != i)]
        return cls(ambient_rank, rays, (), hrep)

    def face_spanned_by(self, gens):
        """The face of this pointed cone spanned by ``gens`` (primitive
        integer vectors), or None when they span no face of it.

        The rows of the H-rep tight on every generator cut out the smallest
        face F holding them (a face is the set of points tight on some
        facets).  Their span is F iff every extreme ray of F is among them.
        F then gets its rays with no enumeration, and a valid H-rep: this
        cone's equalities and the tight rows as equalities, the other rows
        as inequalities.  The rays, and so the key, are the ones
        ``from_generators`` gives.
        """
        eqs, ineqs = self.hrep()
        if any(_idot(e, g) for e in eqs for g in gens):
            return None
        tight, loose = [], []
        for a in ineqs:
            vals = [_idot(a, g) for g in gens]
            if any(v < 0 for v in vals):
                return None
            (loose if any(vals) else tight).append(a)
        rays = [r for r in self._pointed_rays if not any(_idot(a, r) for a in tight)]
        if not set(rays) <= set(gens):
            return None
        if not tight:
            return self
        return Cone(self.ambient_rank, rays, (), (tuple(eqs) + tuple(tight), tuple(loose)))

    @property
    def rays(self):
        if not self._lineality:
            return self._pointed_rays
        out = list(self._pointed_rays)
        for l in self._lineality:
            out.append(l)
            out.append(tuple(-x for x in l))
        return tuple(out)

    @property
    def lineality(self):
        return self._lineality

    @property
    def is_pointed(self) -> bool:
        return not self._lineality

    @property
    def dim(self) -> int:
        return _rank(list(self._pointed_rays) + list(self._lineality))

    def hrep(self):
        """(equalities, inequalities): x in cone iff <e,x>=0 and <a,x>>=0."""
        if self._hrep is None:
            self._hrep = rays_of_hcone(self.rays, [], self.ambient_rank)
        return self._hrep

    def contains(self, v) -> bool:
        """Membership of a rational vector (integer or ``Fraction`` entries)."""
        eqs, ineqs = self.hrep()
        return all(_idot(e, v) == 0 for e in eqs) and all(_idot(a, v) >= 0 for a in ineqs)

    def contains_cone(self, other: "Cone") -> bool:
        return all(self.contains(r) for r in other.rays)

    def as_polyhedron(self) -> "Polyhedron":
        """The polyhedron 0 + self: the trivial coefficient with this tail.

        Its homogenization cone is [0, oo) x self.  When this cone's H-rep
        is known, the lift's is read off it: each row with a 0 prepended,
        and the row t >= 0.
        """
        n = self.ambient_rank
        hrep = None
        if self._hrep is not None:
            eqs, ineqs = self._hrep
            hrep = (tuple((0,) + e for e in eqs),
                    tuple((0,) + a for a in ineqs) + ((1,) + (0,) * n,))
        return Polyhedron(Cone(n + 1, [(1,) + (0,) * n] + [(0,) + r for r in self._pointed_rays],
                               [(0,) + l for l in self._lineality], hrep))

    def __eq__(self, other):
        return isinstance(other, Cone) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Cone({self.ambient_rank}, rays={[tuple(map(int, r)) for r in self.rays]})"


def cones_from_generators(ambient_rank, generator_lists):
    """``Cone.from_generators`` of each generator list, in order, reading
    every list it can as a face of a cone already enumerated.

    The lists are taken from the most generators to the fewest.  Each is
    matched (``Cone.face_spanned_by``) against the pointed cones enumerated
    so far, in that order, so largest first; a list that spans a face of
    none of them is enumerated and joins them.  Repeated lists are read
    once.  In a divisorial fan most members are, coefficient by coefficient,
    faces of the maximal ones, so few lists are enumerated.
    """
    pool = []
    built = {}
    out = [None] * len(generator_lists)
    for i in sorted(range(len(generator_lists)), key=lambda i: -len(generator_lists[i])):
        gens = tuple(generator_lists[i])
        cone = built.get(gens)
        if cone is None:
            rows = _int_rows(gens)
            cone = next(filter(None, (p.face_spanned_by(rows) for p in pool)), None)
            if cone is None:
                cone = Cone.from_generators(ambient_rank, rows)
                if cone.is_pointed:
                    pool.append(cone)
            built[gens] = cone
        out[i] = cone
    return out


class FaceDescriptor:
    """A face of a polyhedron, by the indices of the homogenization cone's
    generators that lie on it."""

    __slots__ = ("generators", "dim")

    def __init__(self, generators, dim):
        self.generators = tuple(sorted(generators))
        self.dim = dim

    def __eq__(self, other):
        return self.generators == other.generators

    def __hash__(self):
        return hash(self.generators)

    def __repr__(self):
        return f"Face(gens={self.generators}, dim={self.dim})"


class Polyhedron:
    """conv(vertices) + tail cone, stored as its homogenization cone ``hcone``.

    ``vertices`` and ``tail`` are decoded from the cone's generators.  For
    polyhedra whose recession cone has lineality, ``vertices`` holds the
    canonical representative points (minimal faces) in the orthogonal
    complement of the lineality space.
    """

    __slots__ = ("ambient_rank", "hcone", "vertices", "tail", "is_empty", "_faces", "key")

    def __init__(self, hcone: Cone):
        n = hcone.ambient_rank - 1
        gens = hcone._pointed_rays
        self.ambient_rank = n
        self.hcone = hcone
        self.vertices = tuple(sorted(tuple(Fraction(x, g[0]) for x in g[1:]) for g in gens if g[0]))
        self.tail = Cone(n, [g[1:] for g in gens if not g[0]], [l[1:] for l in hcone.lineality])
        self.is_empty = not self.vertices
        self._faces = None
        self.key = (n, self.vertices, self.tail.key, self.is_empty)

    @classmethod
    def empty(cls, ambient_rank) -> "Polyhedron":
        return cls(Cone(ambient_rank + 1, (), ()))

    @classmethod
    def from_points_rays(cls, ambient_rank, points, rays) -> "Polyhedron":
        pts = [qvec(p) for p in points]
        if not pts:
            raise ValueError("a nonempty polyhedron needs at least one point; use Polyhedron.empty")
        if any(len(p) != ambient_rank for p in pts) or any(len(r) != ambient_rank for r in rays):
            raise RankMismatch("generator length does not match ambient rank")
        gens = [(1,) + p for p in pts] + [(0,) + tuple(r) for r in rays]
        return cls(Cone.from_generators(ambient_rank + 1, gens))

    @classmethod
    def _from_hrep_data(cls, ambient_rank, heqs, hineqs):
        # t >= 0 is implicit in dual-derived H-reps but not in synthesized ones
        hineqs = list(hineqs) + [(1,) + (0,) * ambient_rank]
        return cls._from_hcone(ambient_rank, *rays_of_hcone(hineqs, heqs, ambient_rank + 1),
                               (heqs, hineqs))

    @classmethod
    def _from_hcone(cls, ambient_rank, lin, gens, hrep=None):
        """The polyhedron whose homogenization cone has the canonical
        generators (lin, gens) of ``rays_of_hcone`` and the H-rep ``hrep``
        (computed on demand when None); the cone must lie in t >= 0, and the
        polyhedron is empty unless some generator has t > 0."""
        if not any(g[0] for g in gens):
            return cls.empty(ambient_rank)
        return cls(Cone(ambient_rank + 1, gens, lin, hrep))

    def hrep(self):
        """Homogeneous H-rep: rows (a, u) with a + <u, x> >= 0 (or = 0)."""
        return self.hcone.hrep()

    def dim(self) -> int:
        return self.hcone.dim - 1

    def contains(self, x) -> bool:
        return self.hcone.contains((1,) + tuple(x))

    def contains_polyhedron(self, other: "Polyhedron") -> bool:
        return self.hcone.contains_cone(other.hcone)

    def cayley_generators(self, height=1):
        """Generators of the cone over (self, height) and (tail, 0) in one
        extra rank: the homogenization cone's, with t moved last and scaled
        by the height."""
        return [g[1:] + (height * g[0],) for g in self.hcone.rays]

    def faces(self):
        """All faces (self included), as FaceDescriptors into ``hcone.rays``."""
        if self.is_empty:
            raise EmptyInput("the empty polyhedron has no face lattice here")
        if not self.tail.is_pointed:
            raise ValueError("face enumeration requires a pointed recession cone")
        if self._faces is not None:
            return self._faces
        _, ineqs = self.hrep()
        gens = self.hcone.rays
        tight = [frozenset(i for i, g in enumerate(gens) if _idot(a, g) == 0) for a in ineqs]
        full = frozenset(range(len(gens)))
        seen = {full}
        queue = [full]
        while queue:
            gs = queue.pop()
            for t in tight:
                face = gs & t
                # the faces of the cone that leave t = 0 are those of the polyhedron
                if face not in seen and any(gens[i][0] for i in face):
                    seen.add(face)
                    queue.append(face)
        out = [FaceDescriptor(gs, _rank([gens[i] for i in gs]) - 1) for gs in seen]
        out.sort(key=lambda f: (f.dim, f.generators))
        self._faces = out
        return out

    def face_polyhedron(self, desc: FaceDescriptor) -> "Polyhedron":
        gens = self.hcone.rays
        return Polyhedron(Cone(self.ambient_rank + 1, [gens[i] for i in desc.generators], ()))

    def __eq__(self, other):
        return isinstance(other, Polyhedron) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        if self.is_empty:
            return f"Polyhedron.empty({self.ambient_rank})"
        vs = [tuple(str(x) for x in v) for v in self.vertices]
        rs = [tuple(map(int, r)) for r in self.tail.rays]
        return f"Polyhedron(verts={vs}, rays={rs})"


def minkowski_sum(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    if p.ambient_rank != q.ambient_rank:
        raise RankMismatch("minkowski_sum over different ambient ranks")
    if p.is_empty or q.is_empty:
        return Polyhedron.empty(p.ambient_rank)
    points = [vadd(a, b) for a in p.vertices for b in q.vertices]
    rays = list(p.tail.rays) + list(q.tail.rays)
    return Polyhedron.from_points_rays(p.ambient_rank, points, rays)


_intersect_cache = {}


def intersect(p: Polyhedron, q: Polyhedron) -> Polyhedron:
    """Exact intersection; the empty polyhedron when infeasible."""
    if p.ambient_rank != q.ambient_rank:
        raise RankMismatch("intersect over different ambient ranks")
    if p.is_empty or q.is_empty:
        return Polyhedron.empty(p.ambient_rank)
    ck = (p.key, q.key) if p.key <= q.key else (q.key, p.key)
    hit = _intersect_cache.get(ck)
    if hit is not None:
        return hit
    peq, pin = p.hrep()
    qeq, qin = q.hrep()
    if q.contains_polyhedron(p):
        out = p
    else:
        n = p.ambient_rank
        out = Polyhedron._from_hcone(
            n, *rays_of_hcone(list(pin) + list(qin), list(peq) + list(qeq), n + 1))
    _intersect_cache[ck] = out
    return out


def is_face_of(f: Polyhedron, p: Polyhedron) -> bool:
    """True iff f is the minimizer set of some linear functional over p."""
    if f.ambient_rank != p.ambient_rank:
        raise RankMismatch("is_face_of over different ambient ranks")
    if f.is_empty:
        return True
    if p.is_empty or not p.contains_polyhedron(f):
        return False
    _, ineqs = p.hrep()
    fgens = f.hcone.rays
    tight = [a for a in ineqs if all(_idot(a, g) == 0 for g in fgens)]
    face = [g for g in p.hcone.rays if all(_idot(a, g) == 0 for a in tight)]
    return sorted(face) == sorted(fgens)


def facet_separates(p: Polyhedron, q: Polyhedron) -> bool:
    """True when an inequality row a of p's H-rep certifies that p and q
    meet in a common face (or not at all).

    a >= 0 on p; if also a <= 0 on q's generators, then p and q meet inside
    the hyperplane a = 0, in the meet of p's face and q's face on it.  That
    meet is empty when no generator of q with t > 0 is tight on a, and it is
    the face itself when both faces have the same generators.  False means
    only that no row settles the pair.
    """
    qgens = q.hcone.rays
    for a in p.hrep()[1]:
        vals = [_idot(a, g) for g in qgens]
        if any(v > 0 for v in vals):
            continue
        qface = {g for g, v in zip(qgens, vals) if not v}
        if not any(g[0] for g in qface):
            return True
        if qface == {g for g in p.hcone.rays if not _idot(a, g)}:
            return True
    return False


def cone_meets_polyhedron(c: Cone, p: Polyhedron) -> bool:
    """Exact feasibility of c ∩ p (false for the empty polyhedron)."""
    if c.ambient_rank != p.ambient_rank:
        raise RankMismatch("cone and polyhedron in different ambient ranks")
    return not intersect(c.as_polyhedron(), p).is_empty
