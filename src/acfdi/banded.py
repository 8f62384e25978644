"""Block-tridiagonal systems in plain numpy: the band layout, a block LU and a
block Cholesky.

A structurally symmetric sparse pattern, reordered by reverse Cuthill-McKee
(Cuthill and McKee, 1969), is a band of half-width b far below its
dimension. Cut into b x b blocks, a matrix of half-bandwidth b is
block-tridiagonal (George and Liu, *Computer Solution of Large Sparse
Positive Definite Systems*, 1981, ch. 4). `BlockBand` writes that step once
-- RCM order, bandwidth, block count, and the storage slot of each cell --
for both systems the package solves:

- the Newton-Raphson power-flow Jacobian, whose rows and columns pair by bus
  (P with angle, Q with magnitude). `block_lu_solve` factors it by block LU
  (Golub and Van Loan, *Matrix Computations*, sec. 4.5), pivoting partially
  inside each diagonal block and not across blocks;
- the WLS gain HᵀWH, symmetric positive definite. `BlockCholesky` factors
  it; its factor is block lower-bidiagonal. It solves by block substitution
  and gives the selected inverse: every entry of G⁻¹ inside the factor's
  band, by the recurrence of Takahashi, Fagan and Chen (1973), without
  forming G⁻¹.

Each costs O(dim·b²). The LU's dense calls are at most b + 1 wide, the
Cholesky's 2b.

numpy has Cholesky but no triangular solve, so each Cholesky block step
factors the 2b x 2b window [[S_k, B_kᵀ], [B_k, D_k+1]]: its lower-left block
is B_k L_k⁻ᵀ. The inverses of the diagonal factor blocks, which the
substitution and the selected inverse read, come from one batched doubling
recursion over all blocks, run when they are first read.
"""

from __future__ import annotations

import functools

import numpy as np


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
    """The block-tridiagonal layout of a structurally symmetric pattern.

    The pattern's cells are (i, j) over dim rows and columns. Position p of
    the band holds index order[p], an RCM order of the pattern; the block
    size b is the largest |pos[i] - pos[j]| over the cells, and the dim
    positions are cut into nb = ceil(dim / b) blocks, the last one padded.
    Values live in flat storage of b x b blocks [sub | diag | super]: the
    nb - 1 blocks below the diagonal, the nb diagonal blocks, the nb - 1
    above. A symmetric matrix stores only [sub | diag]. The layout's arrays
    are read-only.
    """

    def __init__(self, dim: int, i: np.ndarray, j: np.ndarray):
        self.dim = dim
        self.order = rcm_order(dim, i, j)
        self.pos = np.empty(dim, dtype=int)
        self.pos[self.order] = np.arange(dim)
        self.size = max(1, int(np.max(np.abs(self.pos[i] - self.pos[j]), initial=0)))
        self.blocks = -(-dim // self.size)
        pad = np.arange(dim, self.blocks * self.size)
        self.pad_slot = self._slot_at(pad, pad)  # diagonal slots of the padding
        read_only(self.order, self.pos, self.pad_slot)

    def _slot_at(self, p: np.ndarray, q: np.ndarray) -> np.ndarray:
        b, nb = self.size, self.blocks
        r, c = p // b, q // b
        first = np.array([0, nb - 1, 2 * nb - 1])[c - r + 1]  # block stack of the cell
        return ((first + np.minimum(r, c)) * b + p % b) * b + q % b

    def slot(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Storage slot of each cell (i, j); every cell must lie in the band."""
        return self._slot_at(self.pos[i], self.pos[j])

    def lower_slot(self, i: np.ndarray, j: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Slots of cells of a symmetric matrix in [sub | diag] storage: a cell
        of a block above the diagonal takes its mirror's slot. Also returns
        which cells were not mirrored."""
        p, q = self.pos[i], self.pos[j]
        kept = p // self.size >= q // self.size
        return self._slot_at(np.where(kept, p, q), np.where(kept, q, p)), kept

    def split(self, storage: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(sub, diag, super) block views of flat storage; super is empty for
        [sub | diag] storage."""
        nb = self.blocks
        blocks = storage.reshape(-1, self.size, self.size)
        return blocks[: nb - 1], blocks[nb - 1 : 2 * nb - 1], blocks[2 * nb - 1 :]

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


def block_lu_solve(
    sub: np.ndarray, diag: np.ndarray, sup: np.ndarray, rhs: np.ndarray
) -> np.ndarray:
    """T⁻¹ rhs for a block-tridiagonal T, by block LU without pivoting across
    blocks.

    T has diagonal blocks A_k, blocks C_k below and B_k above them. With
    S_0 = A_0 and y_0 = r_0, each step solves S_k [G_k | z_k] = [B_k | y_k]
    by LU with partial pivoting inside S_k; then S_k+1 = A_k+1 - C_k G_k and
    y_k+1 = r_k+1 - C_k z_k come from one product. Back substitution gives
    x_k = z_k - G_k x_k+1. Raises np.linalg.LinAlgError if some S_k is
    singular.
    """
    nb, b, _ = diag.shape
    work = np.empty((nb, b, b + 1))  # [B_k | y_k], then [G_k | z_k]
    work[:-1, :, :b] = sup
    work[:, :, b] = rhs.reshape(nb, b)
    schur = diag[0]
    for k in range(nb - 1):
        work[k] = np.linalg.solve(schur, work[k])
        update = sub[k] @ work[k]
        schur = diag[k + 1] - update[:, :b]
        work[k + 1, :, b] -= update[:, b]
    x = work[:, :, b]
    x[-1] = np.linalg.solve(schur, x[-1])
    for k in reversed(range(nb - 1)):
        x[k] -= work[k, :, :b] @ x[k + 1]
    return x.ravel()


def _lower_inverses(lower: np.ndarray) -> np.ndarray:
    """Inverses of a stack of lower-triangular blocks.

    By doubling: the inverse of [[A, 0], [C, D]] is [[A⁻¹, 0], [-D⁻¹ C A⁻¹,
    D⁻¹]]. Blocks are padded with the identity to a power of two, and each
    doubling is one batched product over every pair in every block.
    """
    count, b, _ = lower.shape
    size = 1 << (b - 1).bit_length()
    padded = np.broadcast_to(np.eye(size), (count, size, size)).copy()
    padded[:, :b, :b] = lower
    inv = np.zeros_like(padded)
    d = np.arange(size)
    inv[:, d, d] = 1.0 / padded[:, d, d]
    half = 1
    while half < size:
        pairs = size // (2 * half)
        q = np.arange(pairs)
        shape = (count, pairs, 2 * half, pairs, 2 * half)
        low, out = padded.reshape(shape), inv.reshape(shape)
        out[:, q, half:, q, :half] = -(
            out[:, q, half:, q, half:] @ low[:, q, half:, q, :half] @ out[:, q, :half, q, :half]
        )
        half *= 2
    return inv[:, :b, :b]


class BlockCholesky:
    """G = L Lᵀ for a symmetric positive definite block-tridiagonal G.

    G is given as its diagonal blocks D_k, shape (nb, b, b), and the blocks
    B_k below them, shape (nb - 1, b, b). L has diagonal blocks L_k
    (`lower`) and blocks C_k = B_k L_k⁻ᵀ below them (`coupling`); S_k =
    L_k L_kᵀ is the Schur complement D_k - C_k-1 C_k-1ᵀ. Raises
    np.linalg.LinAlgError if a block fails to factor. The factor's arrays
    are read-only, so one factor can be shared.
    """

    def __init__(self, diag: np.ndarray, sub: np.ndarray):
        nb, b, _ = diag.shape
        self.lower = np.empty_like(diag)
        self.coupling = np.empty_like(sub)
        window = np.empty((2 * b, 2 * b))
        schur = diag[0]
        for k in range(nb - 1):
            window[:b, :b] = schur
            window[b:, :b] = sub[k]
            window[:b, b:] = sub[k].T
            window[b:, b:] = diag[k + 1]
            factor = np.linalg.cholesky(window)
            self.lower[k] = factor[:b, :b]
            self.coupling[k] = factor[b:, :b]
            schur = diag[k + 1] - self.coupling[k] @ self.coupling[k].T
        self.lower[nb - 1] = np.linalg.cholesky(schur)
        read_only(self.lower, self.coupling)

    @functools.cached_property
    def inverse(self) -> np.ndarray:
        """The inverses of the diagonal factor blocks, built on the first
        `solve` or `selected_inverse`: a factor read only for its `pivots`
        never builds them."""
        inverse = _lower_inverses(self.lower)
        read_only(inverse)
        return inverse

    @property
    def pivots(self) -> np.ndarray:
        """Squared diagonal of L, in band order."""
        return np.diagonal(self.lower, axis1=1, axis2=2).ravel() ** 2

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """G⁻¹ rhs by block forward and back substitution."""
        inv, c = self.inverse, self.coupling
        nb = len(inv)
        y = rhs.reshape(nb, -1).copy()
        for k in range(nb):
            if k:
                y[k] -= c[k - 1] @ y[k - 1]
            y[k] = inv[k] @ y[k]
        for k in reversed(range(nb)):
            if k < nb - 1:
                y[k] -= c[k].T @ y[k + 1]
            y[k] = inv[k].T @ y[k]
        return y.ravel()

    def selected_inverse(self) -> tuple[np.ndarray, np.ndarray]:
        """The diagonal and sub-diagonal blocks of G⁻¹, in G's storage.

        With W_k = L_k⁻¹: Z_k+1,k = -Z_k+1,k+1 C_k W_k and Z_k,k =
        W_kᵀ (W_k - C_kᵀ Z_k+1,k), from the last block back.
        """
        inv, c = self.inverse, self.coupling
        nb = len(inv)
        z_diag, z_sub = np.empty_like(inv), np.empty_like(c)
        z_diag[nb - 1] = inv[nb - 1].T @ inv[nb - 1]
        for k in reversed(range(nb - 1)):
            z_sub[k] = -(z_diag[k + 1] @ c[k]) @ inv[k]
            z_diag[k] = inv[k].T @ (inv[k] - c[k].T @ z_sub[k])
        return z_diag, z_sub
