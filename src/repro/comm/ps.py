"""GPU parameter server: flat-star P2P reduction onto GPU0.

The ``ps-gpu`` strategy promotes the parameter-server execution model to
a first-class synchronous strategy (tensorpack's
``SyncMultiGPUTrainerParameterServer`` with the server pinned to a GPU):
every worker DMAs its full gradient straight to GPU0 in one stage, GPU0
runs the optimizer update, and the fresh weights fan back out -- no tree
stages, no big-array sharding.  Compared with the binomial ``p2p-tree``
schedule this trades stage parallelism for schedule simplicity: all
N-1 transfers land on GPU0's links and its dispatch thread, which is
exactly the GPU0 hot spot the paper measures, amplified.

Implementation-wise this is the :class:`~repro.comm.p2p.P2PCommunicator`
machinery with a one-stage star schedule and the sharded big-array path
disabled (a parameter server keeps whole arrays on the server).
"""

from __future__ import annotations

from typing import Generator, List, Tuple

from repro.comm.p2p import P2PCommunicator
from repro.dnn.stats import WeightArray
from repro.sim.events import Event


class PsGpuCommunicator(P2PCommunicator):
    """Flat-star parameter-server synchronization with a GPU0 server."""

    name = "ps-gpu"

    def _plan_stages(self, num_gpus: int) -> List[List[Tuple[int, int]]]:
        """One stage: every worker position sends straight to position 0."""
        if num_gpus <= 1:
            return []
        return [[(src, 0) for src in range(1, num_gpus)]]

    def sync_array(self, array: WeightArray) -> Generator[Event, None, None]:
        if self.num_gpus == 1:
            # Single GPU: just the local optimizer update.
            yield from self.server.run_kernel(self._update_kernel(array))
            return
        # Whole arrays always aggregate on the server -- the BIGARRAY
        # sharding of the tree schedule never applies.
        yield from self._tree_reduce(array)
        yield from self.server.run_kernel(self._update_kernel(array))
        yield from self._tree_broadcast(array)
