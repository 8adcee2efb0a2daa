"""Exact rational cones and polyhedra in N_Q, in V-representation.

A polyhedron is conv(vertices) + cone(rays); the empty polyhedron is a
distinguished per-rank value.  Every nonempty polyhedron is decoded from
the canonical generators of its homogenization cone, so equality of point
sets is equality of the stored data.  V-data (``from_points_rays``) goes
V -> H -> V: one ray enumeration for the H-rep, one more for the canonical
generators.  H-data goes through the one decoder, ``_from_hcone``, after a
single ray enumeration; ``intersect`` feeds it the union of the operands'
H-reps and leaves the result's own H-rep to be computed on demand by
``hrep()``.  All arithmetic is exact.

The kernel works on primitive integer rows only: ray enumeration scales
every input row to a primitive integer vector and takes kernels, ranks and
the projection off the lineality space by fraction-free elimination
(``exactla.rref``, ``exactla.rank_and_kernel``); membership and tightness
tests dot the integer H-rows against integer homogenized generators.
Extreme rays are found by double description (Motzkin et al. 1953;
Fukuda-Prodon 1996): start from the simplicial cone of d independent rows
and cut by the other rows one at a time, joining adjacent rays across each
cut.  It needs one elimination per cone, where enumerating (d-1)-row
subsets needs one per subset.  Vertices are stored as ``Fraction`` tuples,
rays and H-rows as int tuples.
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


def _scaled(v) -> Vec:
    """The integer vector m*v for the least positive integer m making it one."""
    if all(type(x) is int for x in v):
        return tuple(v)
    w = [Fraction(x) for x in v]
    m = lcm(*(x.denominator for x in w))
    return tuple(x.numerator * (m // x.denominator) for x in w)


def _homogenized(v) -> Vec:
    """(m, m*v) for the least positive integer m making it integral."""
    return _scaled((1,) + tuple(v))


def primitive(v) -> Vec:
    """Scale a nonzero rational vector to a primitive integer vector."""
    ints = _scaled(v)
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def _int_rows(rows):
    """Distinct primitive integer forms of the nonzero rows, in order."""
    return list(dict.fromkeys(primitive(row) for row in rows if any(row)))


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
    projected orthogonally off the lineality space.
    """
    ineqs = _int_rows(ineqs)
    eqs = _int_rows(eqs)
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

    __slots__ = ("ambient_rank", "_pointed_rays", "_lineality", "_dual", "key")

    def __init__(self, ambient_rank, pointed_rays, lineality, _dual=None):
        self.ambient_rank = ambient_rank
        self._pointed_rays = tuple(sorted(pointed_rays))
        self._lineality = tuple(sorted(lineality))
        self._dual = _dual
        self.key = (ambient_rank, self._pointed_rays, self._lineality)

    @classmethod
    def from_generators(cls, ambient_rank, generators) -> "Cone":
        dlin, drays = rays_of_hcone(generators, [], ambient_rank)
        plin, prays = rays_of_hcone(drays, dlin, ambient_rank)
        cone = cls(ambient_rank, prays, plin)
        cone._dual = (dlin, drays)
        return cone

    @property
    def rays(self):
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
        if self._dual is None:
            self._dual = rays_of_hcone(self.rays, [], self.ambient_rank)
        return self._dual

    def dual(self) -> "Cone":
        dlin, drays = self.hrep()
        return Cone.from_generators(
            self.ambient_rank,
            list(drays) + [l for v in dlin for l in (v, tuple(-x for x in v))],
        )

    def contains(self, v) -> bool:
        eqs, ineqs = self.hrep()
        v = _scaled(v)
        return all(_idot(e, v) == 0 for e in eqs) and all(_idot(a, v) >= 0 for a in ineqs)

    def contains_cone(self, other: "Cone") -> bool:
        return all(self.contains(r) for r in other.rays)

    def as_polyhedron(self) -> "Polyhedron":
        return Polyhedron(
            self.ambient_rank, (tuple(Fraction(0) for _ in range(self.ambient_rank)),), self
        )

    def __eq__(self, other):
        return isinstance(other, Cone) and self.key == other.key

    def __hash__(self):
        return hash(self.key)

    def __repr__(self):
        return f"Cone({self.ambient_rank}, rays={[tuple(map(int, r)) for r in self.rays]})"


class FaceDescriptor:
    """A face of a polyhedron, by the vertex/ray indices it contains."""

    __slots__ = ("vertex_subset", "ray_subset", "dim")

    def __init__(self, vertex_subset, ray_subset, dim):
        self.vertex_subset = tuple(sorted(vertex_subset))
        self.ray_subset = tuple(sorted(ray_subset))
        self.dim = dim

    def __eq__(self, other):
        return (self.vertex_subset, self.ray_subset) == (other.vertex_subset, other.ray_subset)

    def __hash__(self):
        return hash((self.vertex_subset, self.ray_subset))

    def __repr__(self):
        return f"Face(v={self.vertex_subset}, r={self.ray_subset}, dim={self.dim})"


class Polyhedron:
    """conv(vertices) + tail cone, canonical after construction.

    For polyhedra whose recession cone has lineality, ``vertices`` holds the
    canonical representative points (minimal faces) in the orthogonal
    complement of the lineality space.
    """

    __slots__ = ("ambient_rank", "vertices", "tail", "is_empty", "_hrep", "_hgens", "_faces",
                 "key")

    def __init__(self, ambient_rank, vertices, tail, is_empty=False, _hrep=None):
        self.ambient_rank = ambient_rank
        self.vertices = tuple(sorted(vertices))
        self.tail = tail
        self.is_empty = is_empty
        self._hrep = _hrep
        self._hgens = None
        self._faces = None
        self.key = (ambient_rank, self.vertices, tail.key if tail is not None else None, is_empty)

    @classmethod
    def empty(cls, ambient_rank) -> "Polyhedron":
        return cls(ambient_rank, (), Cone(ambient_rank, (), ()), is_empty=True)

    @classmethod
    def from_points_rays(cls, ambient_rank, points, rays) -> "Polyhedron":
        pts = [qvec(p) for p in points]
        if not pts:
            raise ValueError("a nonempty polyhedron needs at least one point; use Polyhedron.empty")
        if any(len(p) != ambient_rank for p in pts) or any(len(r) != ambient_rank for r in rays):
            raise RankMismatch("generator length does not match ambient rank")
        gens = [_homogenized(p) for p in pts] + [(0,) + tuple(r) for r in rays]
        heqs, hineqs = rays_of_hcone(gens, [], ambient_rank + 1)
        return cls._from_hrep_data(ambient_rank, heqs, hineqs)

    @classmethod
    def _from_hrep_data(cls, ambient_rank, heqs, hineqs):
        # t >= 0 is implicit in dual-derived H-reps but not in synthesized ones
        hineqs = list(hineqs) + [(1,) + (0,) * ambient_rank]
        p = cls._from_hcone(ambient_rank, *rays_of_hcone(hineqs, heqs, ambient_rank + 1))
        if not p.is_empty:
            p._hrep = (heqs, hineqs)
        return p

    @classmethod
    def _from_hcone(cls, ambient_rank, lin, gens):
        """The polyhedron whose homogenization cone has the canonical
        generators (lin, gens) of ``rays_of_hcone``; empty unless every
        generator has t >= 0, every lineality vector t = 0, and some
        generator t > 0."""
        if any(l[0] for l in lin) or any(g[0] < 0 for g in gens):
            return cls.empty(ambient_rank)
        verts = [tuple(Fraction(x, g[0]) for x in g[1:]) for g in gens if g[0]]
        if not verts:
            return cls.empty(ambient_rank)
        tail = Cone(ambient_rank, [g[1:] for g in gens if not g[0]], [l[1:] for l in lin])
        return cls(ambient_rank, verts, tail)

    def hrep(self):
        """Homogeneous H-rep: rows (a, u) with a + <u, x> >= 0 (or = 0)."""
        if self._hrep is None:
            vgens, rgens = self.hgens()
            self._hrep = rays_of_hcone(vgens + rgens, [], self.ambient_rank + 1)
        return self._hrep

    def hgens(self):
        """(vertex generators, ray generators) of the homogenization cone, as
        integer vectors (m, m*v) and (0, r), one per vertex and per ray."""
        if self._hgens is None:
            self._hgens = ([_homogenized(v) for v in self.vertices],
                           [(0,) + r for r in self.tail.rays])
        return self._hgens

    @property
    def rays(self):
        return self.tail.rays

    def dim(self) -> int:
        if self.is_empty:
            return -1
        vgens, rgens = self.hgens()
        return _rank(vgens + rgens) - 1

    def contains(self, x) -> bool:
        if self.is_empty:
            return False
        return self._satisfied_by([_homogenized(x)])

    def _satisfied_by(self, gens) -> bool:
        """True iff every integer homogenized generator satisfies the H-rep."""
        eqs, ineqs = self.hrep()
        return all(_idot(e, g) == 0 for g in gens for e in eqs) and \
            all(_idot(a, g) >= 0 for g in gens for a in ineqs)

    def contains_polyhedron(self, other: "Polyhedron") -> bool:
        if other.is_empty:
            return True
        if self.is_empty:
            return False
        vgens, rgens = other.hgens()
        return self._satisfied_by(vgens + rgens)

    def faces(self):
        """All faces (self included), as FaceDescriptors into vertices/rays."""
        if self.is_empty:
            raise EmptyInput("the empty polyhedron has no face lattice here")
        if not self.tail.is_pointed:
            raise ValueError("face enumeration requires a pointed recession cone")
        if self._faces is not None:
            return self._faces
        _, ineqs = self.hrep()
        vgens, rgens = self.hgens()
        nv, nr = len(vgens), len(rgens)
        tightv = []
        tightr = []
        for a in ineqs:
            tightv.append(frozenset(i for i, g in enumerate(vgens) if _idot(a, g) == 0))
            tightr.append(frozenset(j for j, g in enumerate(rgens) if _idot(a, g) == 0))
        full = (frozenset(range(nv)), frozenset(range(nr)))
        seen = {full}
        queue = [full]
        while queue:
            vs, rs = queue.pop()
            for tv, tr in zip(tightv, tightr):
                nvs, nrs = vs & tv, rs & tr
                if not nvs:
                    continue
                if (nvs, nrs) not in seen:
                    seen.add((nvs, nrs))
                    queue.append((nvs, nrs))
        out = []
        for vs, rs in seen:
            d = _rank([vgens[i] for i in vs] + [rgens[j] for j in rs]) - 1
            out.append(FaceDescriptor(vs, rs, d))
        out.sort(key=lambda f: (f.dim, f.vertex_subset, f.ray_subset))
        self._faces = out
        return out

    def face_polyhedron(self, desc: FaceDescriptor) -> "Polyhedron":
        verts = tuple(self.vertices[i] for i in desc.vertex_subset)
        rays = tuple(self.tail.rays[j] for j in desc.ray_subset)
        return Polyhedron(self.ambient_rank, verts, Cone(self.ambient_rank, rays, ()))

    def face_polyhedra(self):
        return [self.face_polyhedron(f) for f in self.faces()]

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


def tail_cone(p: Polyhedron) -> Cone:
    """Recession cone of a nonempty polyhedron."""
    if p.is_empty:
        raise EmptyInput("tail cone of the empty polyhedron")
    return p.tail


def dual_cone(c: Cone) -> Cone:
    return c.dual()


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
    vgens, rgens = p.hgens()
    if q._satisfied_by(vgens + rgens):
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
    if p.is_empty:
        return False
    if not p.contains_polyhedron(f):
        return False
    _, ineqs = p.hrep()
    fv, fr = f.hgens()
    fgens = fv + fr
    tight = [a for a in ineqs if all(_idot(a, g) == 0 for g in fgens)]
    pv, pr = p.hgens()
    verts = tuple(v for v, g in zip(p.vertices, pv) if all(_idot(a, g) == 0 for a in tight))
    rays = tuple(r for r, g in zip(p.tail.rays, pr) if all(_idot(a, g) == 0 for a in tight))
    return sorted(verts) == list(f.vertices) and sorted(rays) == list(f.tail.rays)


def normal_fan(p: Polyhedron):
    """Cones of linearity of u -> min_{v in p} <u, v>, one per face of p.

    Returned in the same order as p.faces(); together they cover the dual
    of the tail cone.
    """
    if p.is_empty:
        raise EmptyInput("normal fan of the empty polyhedron")
    n = p.ambient_rank
    cones = []
    for desc in p.faces():
        v0 = p.vertices[desc.vertex_subset[0]]
        eqs, ineqs = [], []
        for i, v in enumerate(p.vertices):
            d = vsub(v, v0)
            if is_zero(d):
                continue
            (eqs if i in desc.vertex_subset else ineqs).append(d)
        for j, r in enumerate(p.tail.rays):
            (eqs if j in desc.ray_subset else ineqs).append(qvec(r))
        lin, rays = rays_of_hcone(ineqs, eqs, n)
        cones.append(Cone(n, rays, lin))
    return cones


def cone_meets_polyhedron(c: Cone, p: Polyhedron) -> bool:
    """Exact feasibility of c ∩ p (false for the empty polyhedron)."""
    if c.ambient_rank != p.ambient_rank:
        raise RankMismatch("cone and polyhedron in different ambient ranks")
    return not intersect(c.as_polyhedron(), p).is_empty


def trivial_polyhedron(c: Cone) -> Polyhedron:
    """The polyhedron 0 + c (the trivial coefficient for tail cone c)."""
    return c.as_polyhedron()
