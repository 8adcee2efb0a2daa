"""An independent shelling check, the oracle for the library's shelling code.

It decides the shelling condition geometrically, from each cell's own face
lattice: a face of a cell is new at its position when no earlier cell
contains it (exact polyhedron containment), and a new face is minimal when
no other new face's generator index set lies inside its own.  It reads no
face poset of the complex and shares no code with ``complexes``.
"""


def _cell_faces(cell):
    return [(cell.face_polyhedron(desc), frozenset(desc.generators), desc.dim)
            for desc in cell.faces()]


def verify(t, order):
    """(cell index, G_i key, G_i dim) per position of a shelling order, or
    None when ``order`` is not a shelling of ``t``."""
    cells = t.maximal_cells
    if sorted(order) != list(range(len(cells))):
        return None
    out = []
    for i, ci in enumerate(order):
        earlier = [cells[j] for j in order[:i]]
        new = [entry for entry in _cell_faces(cells[ci])
               if not any(c.contains_polyhedron(entry[0]) for c in earlier)]
        minimal = [a for a in new if not any(b[1] < a[1] for b in new)]
        if len(minimal) != 1:
            return None
        face, _, dim = minimal[0]
        out.append((ci, face.key, dim))
    return out


def first_cover(t, order):
    """Face key -> first position in ``order`` of a cell containing the
    face, over the faces of every cell."""
    cells = t.maximal_cells
    faces = {f.key: f for cell in cells for f, _, _ in _cell_faces(cell)}
    return {key: next(pos for pos, ci in enumerate(order)
                      if cells[ci].contains_polyhedron(f))
            for key, f in faces.items()}
