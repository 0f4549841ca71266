"""Detailed circuit-level crossbar model (modified nodal analysis).

The idealized read-out equation (Eqn. 5) assumes perfect word/bit
lines.  Real arrays have wire segment resistance between adjacent
crosspoints, which introduces IR-drop errors that grow with array size
— one of the manufacturing limits motivating the paper's NoC tiling
(Section 3.4).  This module solves the full resistive network so the
idealization can be validated and the tiling size justified:

- every crosspoint ``(i, j)`` has its own word-line node and bit-line
  node, joined by the memristor conductance ``g[i, j]``;
- adjacent word-line nodes on a row (and bit-line nodes on a column)
  are joined by a wire segment conductance ``g_wire``;
- row drivers force ``V_I[i]`` at column 0 through a driver
  conductance;
- each bit-line reaches ground through the sense conductance ``g_s``
  at its bottom node, where the output voltage is measured.

Setting ``wire_resistance=0`` recovers Eqn. 5 exactly (up to float
round-off), which is what the tests assert.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from scipy import sparse


class DetailedCrossbarCircuit:
    """Crossbar read-out with parasitic wire resistance.

    Parameters
    ----------
    conductances:
        Memristor conductance matrix ``g`` of shape (n_rows, n_cols).
    g_sense:
        Sense conductance ``g_s`` at the foot of every bit-line.
    wire_resistance:
        Resistance of one wire segment between adjacent crosspoints,
        ohms.  ``0`` means ideal wires.
    driver_resistance:
        Output resistance of the word-line drivers, ohms.
    """

    def __init__(
        self,
        conductances: np.ndarray,
        *,
        g_sense: float,
        wire_resistance: float = 0.0,
        driver_resistance: float = 0.0,
    ) -> None:
        conductances = np.asarray(conductances, dtype=float)
        if conductances.ndim != 2:
            raise ValueError("conductances must be a 2-D array")
        if np.any(conductances < 0):
            raise ValueError("conductances must be non-negative")
        if g_sense <= 0:
            raise ValueError("g_sense must be positive")
        if wire_resistance < 0 or driver_resistance < 0:
            raise ValueError("parasitic resistances must be non-negative")
        self.g = conductances
        self.n_rows, self.n_cols = conductances.shape
        self.g_sense = float(g_sense)
        self.wire_resistance = float(wire_resistance)
        self.driver_resistance = float(driver_resistance)
        # Assembled nodal matrix, reused while the conductances are
        # unchanged: (snapshot of g, factor-ready CSR).  The Laplacian
        # depends only on g and the parasitics; the injection vector is
        # rebuilt per drive.
        self._nodal_cache: tuple[np.ndarray, sparse.csr_matrix] | None = None

    # Node numbering: word-line node (i, j) -> i * n_cols + j;
    # bit-line node (i, j)  -> offset + i * n_cols + j.
    def _wl(self, i: int, j: int) -> int:
        return i * self.n_cols + j

    def _bl(self, i: int, j: int) -> int:
        return self.n_rows * self.n_cols + i * self.n_cols + j

    def multiply(self, v_in: np.ndarray) -> np.ndarray:
        """Bit-line output voltages for the given word-line drive.

        Solves the full nodal system; with ideal wires this equals the
        Eqn. 5 read-out ``V_O = D G^T V_I``.
        """
        v_in = np.asarray(v_in, dtype=float)
        if v_in.shape != (self.n_rows,):
            raise ValueError(
                f"expected input of shape ({self.n_rows},), got {v_in.shape}"
            )
        if self.wire_resistance == 0.0 and self.driver_resistance == 0.0:
            # Ideal wires: closed form, no linear solve needed.
            denominators = self.g_sense + self.g.sum(axis=0)
            return (self.g.T @ v_in) / denominators
        return self._solve_network(v_in)

    def _driver_conductance(self) -> float:
        # Effectively-ideal parasitics still need finite conductances.
        return (
            1.0 / self.driver_resistance
            if self.driver_resistance > 0
            else 1e12
        )

    def _assemble_nodal_matrix(self) -> sparse.csr_matrix:
        # Imported here, as in _solve_network: the package re-exports
        # this module, and no solve or serve path needs scipy.sparse.
        from scipy import sparse

        n, m = self.n_rows, self.n_cols
        size = 2 * n * m
        g_wire = (
            1.0 / self.wire_resistance if self.wire_resistance > 0 else 1e12
        )
        g_driver = self._driver_conductance()

        laplacian = sparse.lil_matrix((size, size))

        def stamp(a: int, b: int, g: float) -> None:
            laplacian[a, a] += g
            laplacian[b, b] += g
            laplacian[a, b] -= g
            laplacian[b, a] -= g

        def stamp_to_ground(a: int, g: float) -> None:
            laplacian[a, a] += g

        for i in range(n):
            # Driver into the leftmost word-line node.
            stamp_to_ground(self._wl(i, 0), g_driver)
            for j in range(m):
                wl = self._wl(i, j)
                bl = self._bl(i, j)
                if self.g[i, j] > 0:
                    stamp(wl, bl, self.g[i, j])
                else:
                    # Isolated crosspoint: tie dangling pairs weakly so
                    # the system stays non-singular.
                    stamp_to_ground(wl, 1e-15)
                    stamp_to_ground(bl, 1e-15)
                if j + 1 < m:
                    stamp(wl, self._wl(i, j + 1), g_wire)
                if i + 1 < n:
                    stamp(bl, self._bl(i + 1, j), g_wire)
        for j in range(m):
            # Sense resistor at the foot (bottom row) of each bit-line.
            stamp_to_ground(self._bl(n - 1, j), self.g_sense)
        return sparse.csr_matrix(laplacian)

    def _nodal_matrix(self) -> sparse.csr_matrix:
        """The assembled Laplacian, cached while ``g`` is unchanged.

        Assembly is the dominant cost of a network solve (a Python
        double loop over crosspoints); IR-drop studies sweep many
        drive vectors over one programmed array, so the matrix is
        reused until the conductances actually move.  The snapshot
        comparison keeps the cache safe under in-place mutation of
        ``self.g``.
        """
        cache = self._nodal_cache
        if cache is not None and np.array_equal(cache[0], self.g):
            return cache[1]
        matrix = self._assemble_nodal_matrix()
        self._nodal_cache = (self.g.copy(), matrix)
        return matrix

    def _solve_network(self, v_in: np.ndarray) -> np.ndarray:
        from scipy.sparse import linalg as sparse_linalg

        n, m = self.n_rows, self.n_cols
        laplacian = self._nodal_matrix()
        injection = np.zeros(2 * n * m)
        injection[[self._wl(i, 0) for i in range(n)]] = (
            self._driver_conductance() * v_in
        )
        solution = sparse_linalg.spsolve(laplacian, injection)
        return np.array(
            [solution[self._bl(n - 1, j)] for j in range(m)], dtype=float
        )

    def ideal_multiply(self, v_in: np.ndarray) -> np.ndarray:
        """The Eqn. 5 closed form, for comparison with the network."""
        v_in = np.asarray(v_in, dtype=float)
        denominators = self.g_sense + self.g.sum(axis=0)
        return (self.g.T @ v_in) / denominators

    @staticmethod
    def batch_ideal_multiply(
        conductance_stack: np.ndarray,
        v_in: np.ndarray,
        g_sense: float,
    ) -> np.ndarray:
        """Eqn. 5 over a ``(K, n, m)`` fleet in one tensor op.

        The ideal-wire fast path for K same-shape arrays at once:
        ``v_in`` is ``(K, n)`` (or ``(n,)`` broadcast) and the result
        is ``(K, m)``, each row equal to what
        :meth:`ideal_multiply` returns for that member.  IR-drop sweeps
        use this to amortize the reference (ideal) evaluations across a
        whole fleet before the per-member network solves.
        """
        g = np.asarray(conductance_stack, dtype=float)
        if g.ndim != 3:
            raise ValueError("conductance_stack must be (K, n_rows, n_cols)")
        v_in = np.asarray(v_in, dtype=float)
        if v_in.shape == (g.shape[1],):
            v_in = np.broadcast_to(v_in, (g.shape[0], g.shape[1]))
        if v_in.shape != (g.shape[0], g.shape[1]):
            raise ValueError(
                f"expected inputs of shape ({g.shape[0]}, {g.shape[1]}), "
                f"got {v_in.shape}"
            )
        denominators = g_sense + g.sum(axis=1)
        outputs = np.matmul(g.transpose(0, 2, 1), v_in[:, :, None])[:, :, 0]
        return outputs / denominators

    def ir_drop_error(self, v_in: np.ndarray) -> float:
        """Max relative deviation of the network from the ideal model."""
        ideal = self.ideal_multiply(v_in)
        real = self.multiply(v_in)
        denom = np.max(np.abs(ideal))
        if denom == 0:
            return 0.0
        return float(np.max(np.abs(real - ideal)) / denom)
