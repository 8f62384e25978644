"""Banded systems: the band layout, and LAPACK's band LU and band Cholesky.

A structurally symmetric sparse pattern, reordered by reverse Cuthill-McKee
(Cuthill and McKee, 1969), is a band of half-width b far below its
dimension (George and Liu, *Computer Solution of Large Sparse Positive
Definite Systems*, 1981, ch. 4). `BlockBand` writes that step once -- RCM
order, bandwidth, and the storage slot of each cell -- for both systems the
package solves, each by LAPACK (Anderson et al., *LAPACK Users' Guide*, 3rd
ed., 1999, sec. 2.4; Golub and Van Loan, *Matrix Computations*, sec. 4.3):

- the Newton-Raphson power-flow Jacobian, whose rows and columns pair by bus
  (P with angle, Q with magnitude), kept in LAPACK's general band storage
  and factored by the band LU `dgbtrf`, with partial pivoting over the
  whole band, and solved with `dgbtrs`;
- the WLS gain HᵀWH, symmetric positive definite, kept in LAPACK's lower
  band storage. `BlockCholesky` factors it by the band Cholesky `dpbtrf`
  and solves with `dpbtrs`. Cut into b x b blocks, its factor is block
  lower-bidiagonal; the selected inverse, every entry of G⁻¹ inside the
  factor's block band, comes from the recurrence of Takahashi, Fagan and
  Chen (1973), without forming G⁻¹.

Each costs O(dim·b²). numpy ships no LAPACK band routine, but its wheel
bundles an OpenBLAS that exports them: `lapack` binds the four routines
from that library through ctypes (ILP64 Fortran entry points, every
argument by reference, plus the hidden length of each character argument).
Where numpy bundles no such library, it binds the same routines from the
capsules of `scipy.linalg.cython_lapack`, loaded by spec so that the
scipy.linalg package's __init__ never runs. At b <= 64 both factors run
unblocked, column by column with rank-one updates at most 2b wide. The
inverses of the diagonal factor blocks, which only the selected inverse
reads, come from one batched doubling recursion over all blocks.
"""

from __future__ import annotations

import ctypes
import functools
import os

import numpy as np
from numpy.lib.stride_tricks import as_strided


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + c) for each (s, c)."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(counts.sum())


def read_only(*arrays: np.ndarray) -> None:
    """Mark arrays that many objects share as read-only."""
    for array in arrays:
        array.flags.writeable = False


def rcm_order(dim: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """Reverse Cuthill-McKee order of a symmetric pattern with cells (i, j).

    Breadth-first search from a node of least degree, each node's unvisited
    neighbours queued by increasing degree (ties by index), restarted on
    each remaining component; the visit order reversed. order[p] is the
    node placed at position p.
    """
    off = i != j
    i, j = i[off], j[off]
    by_node = np.lexsort((j, i))
    i, j = i[by_node], j[by_node]
    ptr = np.searchsorted(i, np.arange(dim + 1))
    degree = np.diff(ptr)
    visited = np.zeros(dim, dtype=bool)
    levels = []
    while not visited.all():
        free = np.flatnonzero(~visited)
        level = free[[np.argmin(degree[free])]]
        while len(level):
            visited[level] = True
            levels.append(level)
            counts = degree[level]
            near = j[concat_ranges(ptr[level], counts)]
            parent = np.repeat(np.arange(len(level)), counts)
            fresh = ~visited[near]
            # each new node once, queued under the first parent that reaches it
            near, first = np.unique(near[fresh], return_index=True)
            parent = parent[fresh][first]
            level = near[np.lexsort((degree[near], parent))]
    return np.concatenate(levels)[::-1]


class BlockBand:
    """The band layout of a structurally symmetric pattern.

    The pattern's cells are (i, j) over dim rows and columns. Position p of
    the band holds index order[p], an RCM order of the pattern; the
    half-bandwidth b is the largest |pos[i] - pos[j]| over the cells. Cut
    into nb = ceil(dim / b) blocks of b x b, the last one padded, the
    matrix is block-tridiagonal. The layout's arrays are read-only.
    """

    def __init__(self, dim: int, i: np.ndarray, j: np.ndarray):
        self.dim = dim
        self.order = rcm_order(dim, i, j)
        self.pos = np.empty(dim, dtype=int)
        self.pos[self.order] = np.arange(dim)
        self.size = max(1, int(np.max(np.abs(self.pos[i] - self.pos[j]), initial=0)))
        self.blocks = -(-dim // self.size)
        read_only(self.order, self.pos)

    def lower_slot(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Slots of cells (i, j) on or below the diagonal in flat [sub | diag]
        storage of b x b blocks: the nb - 1 blocks below the diagonal, then
        the nb diagonal blocks."""
        b = self.size
        p, q = self.pos[i], self.pos[j]
        first = np.where(p // b > q // b, 0, self.blocks - 1)  # the sub or diag stack
        return ((first + q // b) * b + p % b) * b + q % b

    def band_slot(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Slots of cells (i, j) on or below the diagonal in the flat lower
        band storage `BlockCholesky` takes: cell (p, q) of the band order
        at row q, column p - q, which is slot q·b + p."""
        return self.pos[j] * self.size + self.pos[i]

    def lu_slot(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Slots of cells (i, j) in the flat general band storage of
        `_Lapack.gbtrf` with kl = ku = b: cell (p, q) of the band order at
        row q, column 2b + p - q, which is slot (3q + 2)·b + p."""
        return (3 * self.pos[j] + 2) * self.size + self.pos[i]

    def gather(self, x: np.ndarray) -> np.ndarray:
        """x in band order, padded with zeros to whole blocks."""
        out = np.zeros(self.blocks * self.size)
        out[: self.dim] = x[self.order]
        return out

    def scatter(self, y: np.ndarray) -> np.ndarray:
        """The inverse of gather: y back in index order, padding dropped."""
        x = np.empty(self.dim)
        x[self.order] = y[: self.dim]
        return x


def _lower_inverses(lower: np.ndarray) -> np.ndarray:
    """Inverses of a stack of lower-triangular blocks.

    By doubling: the inverse of [[A, 0], [C, D]] is [[A⁻¹, 0], [-D⁻¹ C A⁻¹,
    D⁻¹]]. The blocks are copied into one stack padded with the identity to
    a power of two, which becomes their inverses in place: the diagonal is
    inverted first, and each doubling overwrites C with -D⁻¹ C A⁻¹ in every
    pair of every block at once, through strided views of the stack. C is
    read before it is written, and A⁻¹ and D⁻¹ are complete from the
    doublings before.
    """
    count, b, _ = lower.shape
    size = 1 << (b - 1).bit_length()
    stack = np.zeros((count, size, size))
    stack[:, :b, :b] = lower
    diagonal = stack.reshape(count, -1)[:, :: size + 1]
    diagonal[:, b:] = 1.0
    np.divide(1.0, diagonal, out=diagonal)
    stride, row, col = stack.strides
    half = 1
    while half < size:
        # the diagonal 2 half x 2 half blocks of every stacked block
        pairs = as_strided(
            stack,
            (count, size // (2 * half), 2 * half, 2 * half),
            (stride, 2 * half * (row + col), row, col),
        )
        a, c, d = pairs[..., :half, :half], pairs[..., half:, :half], pairs[..., half:, half:]
        np.negative(d @ c @ a, out=c)
        half *= 2
    return stack[:, :b, :b]


class BlockCholesky:
    """G + shift·I = L Lᵀ for a symmetric positive definite band matrix G,
    by LAPACK's band Cholesky.

    G is given in LAPACK's lower band storage for half-bandwidth b: an
    array of shape (N, b + 1) whose row j holds G[j, j], G[j + 1, j], ...,
    G[j + b, j], the last b rows padded past the matrix; N is a multiple
    of b. `dpbtrf` factors a copy in place, so the factor L is in the same
    storage (`factor`, read-only, so one factor can be shared), and
    `dpbtrs` solves with it. Raises np.linalg.LinAlgError if a leading
    minor is not positive definite. Cut into b x b blocks, L is block
    lower-bidiagonal; its diagonal blocks L_k and the blocks C_k below them
    are read off the band only within `selected_inverse`, and the factor
    keeps no block of them.
    """

    def __init__(self, band: np.ndarray, shift: float = 0.0):
        self.factor = np.array(band, dtype=float, order="C")
        self.size = self.factor.shape[-1] - 1  # b
        if self.factor.ndim != 2 or self.size < 1 or len(self.factor) % self.size:
            raise ValueError(f"band storage of shape {self.factor.shape} is not whole b x b blocks")
        self.factor[:, 0] += shift
        info = lapack().pbtrf(self.factor)
        if info:
            raise np.linalg.LinAlgError(f"leading minor {info} is not positive definite")
        read_only(self.factor)

    def _blocks(self, start: int, count: int) -> np.ndarray:
        """count b x b blocks of L, the first with its top-left cell at
        flat slot start. L[i, j] sits at flat slot j·b + i of the band, so
        block k's cell (r, c) is b(b + 1)·k + b·c + r slots past start;
        cells outside the band read other cells of it."""
        flat = self.factor.reshape(-1)
        b, step = self.size, flat.strides[0]
        return as_strided(
            flat[start:], (count, b, b), (b * (b + 1) * step, step, b * step), writeable=False
        )

    @property
    def pivots(self) -> np.ndarray:
        """Squared diagonal of L, in band order."""
        return self.factor[:, 0] ** 2

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """(G + shift·I)⁻¹ rhs by `dpbtrs`."""
        x = np.array(rhs, dtype=float)
        if x.shape != self.factor.shape[:1]:
            raise ValueError(f"right-hand side of shape {x.shape} for {len(self.factor)} rows")
        lapack().pbtrs(self.factor, x)
        return x

    def selected_inverse(self) -> np.ndarray:
        """The blocks below the diagonal of (G + shift·I)⁻¹, then its
        diagonal blocks, in one array of `BlockBand`'s [sub | diag] block
        storage: shape (2nb - 1, b, b).

        With W_k = L_k⁻¹ and C_k the block below L_k, upper triangular since
        L has half-bandwidth b: Z_k+1,k = -Z_k+1,k+1 C_k W_k and Z_k,k =
        W_kᵀ (W_k - C_kᵀ Z_k+1,k), from the last block back. W and C live
        only for this call: `pivots` and `solve` read the band alone.
        """
        b, nb = self.size, len(self.factor) // self.size
        inv = _lower_inverses(np.tril(self._blocks(0, nb)))
        c = np.triu(self._blocks(b, nb - 1))
        z = np.empty((2 * nb - 1, *inv.shape[1:]))
        z_sub, z_diag = z[: nb - 1], z[nb - 1 :]
        z_diag[nb - 1] = inv[nb - 1].T @ inv[nb - 1]
        for k in reversed(range(nb - 1)):
            z_sub[k] = -(z_diag[k + 1] @ c[k]) @ inv[k]
            z_diag[k] = inv[k].T @ (inv[k] - c[k].T @ z_sub[k])
        return z


# each routine's leading character argument, if any, and the count of its
# other arguments, info included, every one passed by reference
_SIGNATURES = {
    "dpbtrf": (True, 5),  # uplo, n, kd, ab, ldab, info
    "dpbtrs": (True, 8),  # uplo, n, kd, nrhs, ab, ldab, b, ldb, info
    "dgbtrf": (False, 8),  # m, n, kl, ku, ab, ldab, ipiv, info
    "dgbtrs": (True, 10),  # trans, n, kl, ku, nrhs, ab, ldab, ipiv, b, ldb, info
}


class _Lapack:
    """LAPACK's band Cholesky and band LU on C-ordered band storage, which is
    LAPACK's column-major storage with the row length as leading dimension.

    `routine(name)` gives each routine of `_SIGNATURES` as a ctypes function
    taking its arguments by reference, integers and pivots of `index` type,
    plus the hidden length of its character argument when `hidden_length`
    is set, as gfortran passes it to a Fortran entry point.
    """

    def __init__(self, routine, index: type, hidden_length: bool):
        self._index = index
        self._tail = (1,) if hidden_length else ()
        self._routines = {}
        for name, (character, pointers) in _SIGNATURES.items():
            function = self._routines[name] = routine(name)
            length = [ctypes.c_size_t] if character and hidden_length else []
            function.argtypes = [ctypes.c_char_p] * character + [ctypes.c_void_p] * pointers + length
            function.restype = None

    def _call(self, name: str, *args) -> int:
        info = self._index(0)
        refs = [
            a if isinstance(a, bytes)
            else a.ctypes.data if isinstance(a, np.ndarray)
            else ctypes.byref(self._index(a))
            for a in args
        ]
        tail = self._tail if _SIGNATURES[name][0] else ()
        self._routines[name](*refs, ctypes.byref(info), *tail)
        if info.value < 0:
            raise ValueError(f"LAPACK argument {-info.value} is invalid")
        return info.value

    def pbtrf(self, band: np.ndarray) -> int:
        """Factor band in place; 0, or the order of the first leading minor
        that is not positive definite."""
        n, width = band.shape
        return self._call("dpbtrf", b"L", n, width - 1, band, width)

    def pbtrs(self, factor: np.ndarray, x: np.ndarray) -> None:
        """Overwrite x with the solution of L Lᵀ x = x."""
        n, width = factor.shape
        self._call("dpbtrs", b"L", n, width - 1, 1, factor, width, x, n)

    def gbtrf(self, band: np.ndarray, b: int) -> tuple[np.ndarray, int]:
        """LU-factor band in place, with partial pivoting: general band
        storage for kl = ku = b, of shape (N, 3b + 1), whose row q holds
        A[p, q] at column 2b + p - q and whose first b columns are room for
        the fill-in that row interchanges bring. Returns the interchanges,
        and 0 or the position, from 1, of the first zero pivot of U."""
        n, width = band.shape
        pivots = np.zeros(n, dtype=self._index)
        return pivots, self._call("dgbtrf", n, n, b, b, band, width, pivots)

    def gbtrs(self, factor: np.ndarray, b: int, pivots: np.ndarray, x: np.ndarray) -> None:
        """Overwrite x with the solution of A x = x from A's LU factor. The
        interchanges may come from either binding: they are passed as this
        one's index type."""
        n, width = factor.shape
        pivots = pivots.astype(self._index, copy=False)
        self._call("dgbtrs", b"N", n, b, b, 1, factor, width, pivots, x, n)


def _numpy_openblas() -> str | None:
    """The OpenBLAS library that numpy's wheel bundles (numpy.libs/ on
    Linux and Windows, numpy/.dylibs/ on macOS), or None."""
    package = os.path.dirname(np.__file__)
    for folder in (package + ".libs", os.path.join(package, ".dylibs")):
        if os.path.isdir(folder):
            found = sorted(name for name in os.listdir(folder) if "openblas" in name)
            if found:
                return os.path.join(folder, found[0])
    return None


def _scipy_lapack() -> _Lapack:
    """The routines of `scipy.linalg.cython_lapack` (LP64; their C wrappers
    pass the hidden lengths), read from the module's capsules. The module
    is loaded by spec, so the scipy.linalg package's __init__ never runs."""
    import importlib.machinery
    import importlib.util

    import scipy

    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.linalg.cython_lapack", [os.path.join(os.path.dirname(scipy.__file__), "linalg")]
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    api = ctypes.pythonapi
    name_of = ctypes.PYFUNCTYPE(ctypes.c_char_p, ctypes.py_object)(("PyCapsule_GetName", api))
    pointer_of = ctypes.PYFUNCTYPE(ctypes.c_void_p, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", api)
    )

    def routine(name: str):
        capsule = module.__pyx_capi__[name]
        return ctypes.CFUNCTYPE(None)(pointer_of(capsule, name_of(capsule)))

    return _Lapack(routine, ctypes.c_int, False)


@functools.cache
def lapack() -> _Lapack:
    """The band routines, bound on the first factor: from numpy's own
    OpenBLAS (ILP64, symbols scipy_dpbtrf_64_ and so on), which numpy has
    already loaded, else from scipy's cython_lapack."""
    path = _numpy_openblas()
    if path is not None:
        library = ctypes.CDLL(path)
        if all(hasattr(library, f"scipy_{name}_64_") for name in _SIGNATURES):
            return _Lapack(lambda name: getattr(library, f"scipy_{name}_64_"), ctypes.c_int64, True)
    return _scipy_lapack()
