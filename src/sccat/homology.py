"""Integer homology of dimension-bounded simplicial sets.

Chain groups are the normalized ones: free on the nondegenerate simplices,
with degenerate faces dropped from boundaries.  Because every stored
object is skeletal (nothing nondegenerate above dim_bound), the normalized
complex vanishes above the bound and homology is exact in every tracked
degree, including the top one, where the incoming boundary is zero.

Besides Betti numbers and torsion this module computes whether a
simplicial map induces isomorphisms on homology, which is what the
weak-equivalence checkers consume.  The induced-map test presents each
homology group by a saturated kernel basis and uses that finitely
generated abelian groups are Hopfian: a surjection between groups with
equal invariants is an isomorphism.
"""
from __future__ import annotations

from . import intmat
from .sset import SimplicialSet, SSetMap, pi0
from .verdict import InputError, StructureError


class DimensionBoundError(InputError):
    pass


def _nondeg_pos(x: SimplicialSet, k: int) -> dict:
    key = ("ndpos", k)
    if key not in x._cache:
        x._cache[key] = {idx: n for n, idx in enumerate(x.nondeg_indices(k))}
    return x._cache[key]


def boundary_matrix(x: SimplicialSet, k: int):
    """The normalized boundary C_k -> C_{k-1}; rows index nondegenerate
    (k-1)-simplices, columns nondegenerate k-simplices.

    k = 0 yields a 0-row matrix and k = dim_bound + 1 a 0-column matrix
    (the complex is skeletal)."""
    key = ("bdry", k)
    if key in x._cache:
        return x._cache[key]
    if k <= 0 or k > x.dim_bound:
        cols = len(x.nondeg_indices(k)) if 0 <= k <= x.dim_bound else 0
        rows = len(x.nondeg_indices(k - 1)) if 0 <= k - 1 <= x.dim_bound else 0
        mat = intmat.zeros(rows, cols)
    else:
        rows_pos = _nondeg_pos(x, k - 1)
        cols = x.nondeg_indices(k)
        mat = intmat.zeros(len(rows_pos), len(cols))
        for c, idx in enumerate(cols):
            sign = 1
            for i, f in enumerate(x.dims[k][idx].faces):
                r = rows_pos.get(f)
                if r is not None:
                    mat[r][c] += sign
                sign = -sign
    x._cache[key] = mat
    return mat


def assert_chain_complex(x: SimplicialSet) -> None:
    """dd = 0 on the normalized complex; raised eagerly before any SNF."""
    for k in range(1, x.dim_bound + 1):
        prod = intmat.matmul(boundary_matrix(x, k), boundary_matrix(x, k + 1))
        if any(any(v for v in row) for row in prod):
            raise StructureError(f"boundary squared is nonzero in degree {k + 1}")


def homology(x: SimplicialSet, k: int) -> tuple:
    """(betti, sorted torsion coefficients) of H_k(X; Z).

    Degrees run 0..dim_bound; the top degree is exact because the object
    is skeletal.  Other degrees raise a dimension-bound error.
    """
    if k < 0 or k > x.dim_bound:
        raise DimensionBoundError(
            f"homology degree {k} outside tracked range 0..{x.dim_bound}")
    key = ("homology", k)
    if key in x._cache:
        return x._cache[key]
    assert_chain_complex(x)
    d_k = boundary_matrix(x, k)
    d_k1 = boundary_matrix(x, k + 1)
    n_k = len(x.nondeg_indices(k))
    rank_k = intmat.smith_normal_form(d_k).rank() if k > 0 else 0
    snf_above = intmat.smith_normal_form(d_k1)
    betti = (n_k - rank_k) - snf_above.rank()
    torsion = sorted(d for d in snf_above.invariant_factors() if d != 1)
    if betti < 0:
        raise StructureError("negative betti number: boundary data inconsistent")
    result = (betti, torsion)
    x._cache[key] = result
    return result


def betti(x: SimplicialSet, k: int) -> int:
    return homology(x, k)[0]


def reduced_homology_vanishes(x: SimplicialSet) -> tuple:
    """(True, None) if all reduced homology vanishes, else (False, (k, value)).

    H~_0 = 0 means one path component; higher degrees use `homology`.
    """
    comps = len(pi0(x))
    if comps != 1:
        return False, (0, comps)
    for k in range(1, x.dim_bound + 1):
        h = homology(x, k)
        if h != (0, []):
            return False, (k, h)
    return True, None


# ---------------------------------------------------------------------------
# induced maps on homology

def chain_map_matrix(f: SSetMap, k: int):
    """Normalized chain map in degree k: degenerate images map to zero."""
    x, y = f.source, f.target
    rows_pos = _nondeg_pos(y, k)
    cols = x.nondeg_indices(k)
    mat = intmat.zeros(len(rows_pos), len(cols))
    for c, idx in enumerate(cols):
        img = f.assign[k][idx]
        r = rows_pos.get(img)
        if r is not None:
            mat[r][c] = 1
    return mat


def _homology_presentation(x: SimplicialSet, k: int):
    """(kernel basis columns, relation matrix) presenting H_k.

    Generators are a saturated integral basis of ker d_k; relations are the
    coordinates of the boundaries of (k+1)-simplices in that basis.
    """
    d_k = boundary_matrix(x, k)
    d_k1 = boundary_matrix(x, k + 1)
    n_k = len(x.nondeg_indices(k))
    if k == 0:
        kernel = [[1 if i == j else 0 for i in range(n_k)] for j in range(n_k)]
    else:
        kernel = intmat.kernel_basis(d_k)
    s = len(kernel)
    kmat = intmat.from_columns(kernel, n_k) if s else intmat.zeros(n_k, 0)
    rels = []
    for col in intmat.columns(d_k1):
        if s == 0:
            if any(col):
                raise StructureError("boundary not a cycle")
            rels.append([])
            continue
        coords = intmat.solve(kmat, col)
        if coords is None:
            raise StructureError("boundary image escapes the kernel lattice")
        rels.append(coords)
    relmat = intmat.from_columns(rels, s) if rels else intmat.zeros(s, 0)
    return kmat, relmat


def homology_map_is_iso(f: SSetMap, k: int) -> bool:
    """Whether H_k(f) is an isomorphism.  Always definite."""
    if homology(f.source, k) != homology(f.target, k):
        return False
    kx, _ = _homology_presentation(f.source, k)
    ky, rel_y = _homology_presentation(f.target, k)
    chain = chain_map_matrix(f, k)
    s_x = intmat.shape(kx)[1]
    s_y = intmat.shape(ky)[1]
    # matrix of f_* on kernel generators, in target kernel coordinates
    cols = []
    for j in range(s_x):
        vec = [kx[i][j] for i in range(len(kx))]
        img = [sum(chain[r][i] * vec[i] for i in range(len(vec)))
               for r in range(len(chain))]
        if s_y == 0:
            if any(img):
                raise StructureError("cycle maps to a non-cycle")
            cols.append([])
            continue
        coords = intmat.solve(ky, img)
        if coords is None:
            raise StructureError("image cycle escapes the target kernel lattice")
        cols.append(coords)
    fmat = intmat.from_columns(cols, s_y) if cols else intmat.zeros(s_y, 0)
    # surjectivity of a map onto Z^{s_y} / rel_y: [F | R] must have all
    # invariant factors 1 and full rank s_y
    glued = [fmat[i] + rel_y[i] for i in range(s_y)]
    if s_y == 0:
        return True
    snf = intmat.smith_normal_form(glued)
    diag = snf.diagonal_entries()
    return len([d for d in diag if d != 0]) == s_y and all(
        d == 1 for d in diag[:s_y])


def homology_iso_all_degrees(f: SSetMap) -> tuple:
    """(True, None) or (False, failing degree)."""
    for k in range(f.source.dim_bound + 1):
        if not homology_map_is_iso(f, k):
            return False, k
    return True, None
