"""Reusable PME state across mobility rebuilds (Algorithm 2, line 4).

Algorithm 2 constructs a fresh PME operator every ``lambda_RPY`` steps;
within a block the operator (interpolation matrix ``P``, BCSR matrix,
influence function) already persists and is applied to all the block's
vectors.  What *was* wasted before this cache existed is the work that
does not depend on the particle configuration at all and was still
redone at every rebuild:

* the **influence function** — ``reciprocal_scalar`` over the half
  spectrum plus the ``|b|^2`` deconvolution, a function of
  ``(box, K, p, xi, a)`` only (paper Section IV.B.4 notes it is built
  once per simulation);
* the **mesh** description;
* the **batched-pipeline workspace arena** — the ``(3s, K, K, K/2+1)``
  complex spectrum, the ``(3s, K^3)`` batch-first mesh block and the
  ``(3s, n)`` interpolation output used by
  :meth:`~repro.pme.operator.PMEOperator.apply_block`, several dozen MB
  at production sizes that would otherwise be reallocated (and page-
  faulted in) every ``lambda_RPY`` steps.  One arena per ``(K, n)``,
  as wide as the widest pass seen: a narrower pass works in its leading
  lanes, so the block width never decides how many are held.

A single :class:`MobilityCache` instance is owned by the integrator
(:class:`~repro.core.integrators.MatrixFreeBD`) and threaded into every
operator it builds (an operator built without one owns a private
cache); hit/miss counters make the reuse observable.
Position-*dependent* state (``P``, the BCSR matrix) is deliberately not
cached — it must be rebuilt when the configuration changes.

**Thread safety.** Since the serve layer shares one cache-backed
operator across a thread pool, lookups (get-or-build plus the counter
updates) are serialized by an internal lock: a rebuild racing an apply
gets exactly one built entry and exact hit/miss tallies.  The lock
covers the *maps*, not the returned objects — workspace arrays are
shared scratch, so concurrent ``apply_block`` calls against one cache
must still be serialized externally (the batcher holds a per-operator
lock for exactly this reason).
"""

from __future__ import annotations

import threading
from typing import Any

import numpy as np

from ..geometry.box import Box
from .influence import InfluenceFunction
from .mesh import Mesh

__all__ = ["MobilityCache"]


class MobilityCache:
    """Keyed stores for position-independent PME state.

    All entries are keyed on the physical parameters that determine
    them, so one cache instance serves a whole simulation even if the
    PME parameters are re-tuned mid-run (each parameter set gets its
    own entry).
    """

    def __init__(self) -> None:
        self._meshes: dict[tuple, Mesh] = {}
        self._influences: dict[tuple, InfluenceFunction] = {}
        self._workspaces: dict[tuple, dict[str, np.ndarray]] = {}
        self._lock = threading.Lock()
        #: Number of cache lookups answered from the store.
        self.hits = 0
        #: Number of lookups that had to build a fresh entry.
        self.misses = 0

    def _lookup(self, store: dict, key: tuple, build: Any,
                usable: Any = lambda entry: True) -> Any:
        """``store[key]``; built, counted as a miss, if absent or unusable."""
        with self._lock:
            entry = store.get(key)
            if entry is None or not usable(entry):
                self.misses += 1
                entry = store[key] = build()
            else:
                self.hits += 1
            return entry

    def mesh(self, box: Box, K: int) -> Mesh:
        """The ``K^3`` mesh for ``box`` (built once per ``(L, K)``)."""
        return self._lookup(self._meshes, (float(box.length), int(K)),
                            lambda: Mesh(box, K))

    def influence(self, mesh: Mesh, xi: float, p: int, radius: float,
                  interpolation: str, kernel: str) -> InfluenceFunction:
        """The influence function for the given physical parameters."""
        key = (float(mesh.box.length), mesh.K, float(xi), int(p),
               float(radius), interpolation, kernel)
        return self._lookup(self._influences, key, lambda: InfluenceFunction(
            mesh, xi, p, radius, interpolation=interpolation, kernel=kernel))

    def workspace(self, K: int, lanes: int, n: int
                  ) -> dict[str, np.ndarray]:
        """The leading ``lanes = 3 s`` lanes of the ``(K, n)`` arena.

        Returns a dict with keys ``"mesh"`` (``(lanes, K^3)`` float64:
        the spread forces, then — once the forward FFT has consumed
        them — the output of the inverse FFT, so a pass holds one
        real mesh block, not two), ``"spec"`` (``(lanes, K, K, K//2 +
        1)`` complex128) and ``"particle"`` (``(lanes, n)`` float64):
        C-contiguous views of the arena, which is reallocated (a miss)
        only for a pass wider than every pass before it.  Contents are
        scratch — callers overwrite them fully, and concurrent applies
        sharing one cache must serialize around the whole apply.
        """
        arena = self._lookup(
            self._workspaces, (int(K), int(n)), lambda: {
                "mesh": np.empty((lanes, K ** 3)),
                "spec": np.empty((lanes, K, K, K // 2 + 1),
                                 dtype=np.complex128),
                "particle": np.empty((lanes, n))},
            usable=lambda arena: arena["mesh"].shape[0] >= lanes)
        return {name: array[:lanes] for name, array in arena.items()}

    def memory_bytes(self) -> int:
        """Bytes currently held by cached arrays (workspaces +
        influence scalars/wavevectors + mesh grids)."""
        with self._lock:
            total = 0
            for ws in self._workspaces.values():
                total += sum(a.nbytes for a in ws.values())
            for infl in self._influences.values():
                total += infl.memory_bytes
                total += sum(h.nbytes for h in infl._khat)
            return total

    def stats(self) -> dict[str, Any]:
        """Hit/miss counters and entry counts (for tests and logs)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "meshes": len(self._meshes),
            "influences": len(self._influences),
            "workspaces": len(self._workspaces),
            "memory_bytes": self.memory_bytes(),
        }
