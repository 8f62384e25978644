"""Banded symmetric positive definite systems in plain numpy.

The WLS gain HᵀWH couples two state columns only where a measurement row
reads both, so after a reverse Cuthill-McKee ordering (Cuthill and McKee,
1969) it is a band of half-width b far below its dimension. Cut into b x b
blocks, a matrix of half-bandwidth b is block-tridiagonal, and its Cholesky
factor is block lower-bidiagonal (George and Liu, *Computer Solution of Large
Sparse Positive Definite Systems*, 1981, ch. 4). `BlockCholesky` factors it
in about dim/b dense block steps, solves by block substitution and gives
the selected inverse: every entry of G⁻¹ inside the factor's band, by the
recurrence of Takahashi, Fagan and Chen (1973), without forming G⁻¹. Each
costs O(dim·b²).

numpy has Cholesky but no triangular solve, so each block step factors the
2b x 2b window [[S_k, B_kᵀ], [B_k, D_k+1]]: its lower-left block is
B_k L_k⁻ᵀ. The inverses of the diagonal factor blocks, which the
substitution and the selected inverse read, come from one batched doubling
recursion over all blocks.
"""

from __future__ import annotations

import numpy as np


def concat_ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenation of arange(s, s + c) for each (s, c)."""
    ends = np.cumsum(counts)
    return np.repeat(starts - ends + counts, counts) + np.arange(counts.sum())


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
    np.linalg.LinAlgError if a block fails to factor.
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
        self.inverse = _lower_inverses(self.lower)

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
