"""The simulated L4 load balancer: blocks -> servers, per epoch.

The LB is not an event-driven component — it is a *deterministic
function* of the fleet spec.  Connections live in :data:`FLEET_BLOCKS`
fleet-wide blocks; each block's home server is picked by rendezvous
(highest-random-weight) hashing over the servers alive at the epoch's
start.  Rendezvous hashing gives two properties the fleet needs:

* the assignment is a pure function of (block, alive set) — every
  worker process computes the identical plan with no coordination;
* when a server dies, only *its* blocks move (minimal disruption), and
  they spread evenly over the survivors.

Health is quantized to epochs: a server dying mid-epoch keeps its
blocks until the epoch ends (arrivals in the dead tail are lost — the
LB has not noticed yet), and the reassignment lands at the next epoch
boundary.  That one-epoch reaction lag is the fleet's bounded lag.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.cluster.spec import FLEET_BLOCKS, FleetSpec

_MASK64 = (1 << 64) - 1


def alive_servers(spec: FleetSpec, epoch: int) -> Set[int]:
    """Servers the LB considers alive for ``epoch`` (health quantized:
    a server is dropped starting from the first epoch that begins at or
    after its death)."""
    start = spec.epoch_bounds()[epoch][0]
    alive = set()
    for server in range(spec.servers):
        death = spec.death_ns(server)
        if death is None or death > start:
            alive.add(server)
    return alive


def _weight(block_id: int, server: int) -> int:
    """Rendezvous weight of (block, server) — a stable avalanche mix
    (splitmix64 finalizer).  A linear hash (CRC) must not be used here:
    its weights for adjacent servers are correlated, which funnels a
    dead server's blocks onto one runner-up instead of spreading them."""
    x = (block_id * 0x9E3779B97F4A7C15
         + server * 0xBF58476D1CE4E5B9
         + 0x94D049BB133111EB) & _MASK64
    x ^= x >> 30
    x = (x * 0xBF58476D1CE4E5B9) & _MASK64
    x ^= x >> 27
    x = (x * 0x94D049BB133111EB) & _MASK64
    x ^= x >> 31
    return x


def home_server(block_id: int, alive: Set[int]) -> int:
    """The alive server with the highest rendezvous weight for the block."""
    if not alive:
        raise ValueError("no servers alive")
    return max(alive, key=lambda server: (_weight(block_id, server), server))


@lru_cache(maxsize=64)
def _homes(alive: FrozenSet[int]) -> Tuple[int, ...]:
    """Home server of every block for one alive set (pure, so memoised:
    a server's plan asks once per epoch, but the alive set only changes
    at a death)."""
    return tuple(home_server(block, alive) for block in range(FLEET_BLOCKS))


def assignment(spec: FleetSpec, epoch: int) -> Dict[int, int]:
    """block -> server for every block, at ``epoch``."""
    return dict(enumerate(_homes(frozenset(alive_servers(spec, epoch)))))


def blocks_for(spec: FleetSpec, server_id: int, epoch: int) -> List[int]:
    """The blocks ``server_id`` serves during ``epoch`` (sorted)."""
    alive = alive_servers(spec, epoch)
    if server_id not in alive:
        return []
    return [block for block, home in enumerate(_homes(frozenset(alive)))
            if home == server_id]


def pick_counts(spec: FleetSpec, epoch: int) -> Dict[int, int]:
    """Connections each server carries during ``epoch`` — the LB's pick
    distribution, which the tests check for balance and for minimal
    movement across a death."""
    sizes = spec.block_sizes()
    counts = {server: 0 for server in alive_servers(spec, epoch)}
    for block, server in assignment(spec, epoch).items():
        counts[server] += sizes[block]
    return counts
