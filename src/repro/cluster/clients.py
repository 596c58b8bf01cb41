"""Client fleets: deterministic populations behind the load balancer.

Every connection in the fleet is generated — never stored — from the
master seed: block ``b``'s population is a pure function of
``SimRandom(master_seed, "fleet").child("block-b")``, so any worker
process can regenerate any block it is asked to serve, and the same
master seed yields the same million-connection fleet no matter how the
blocks are sharded across processes.

Per connection the generator draws a Zipf-like request weight (hot
clients ask more), a slow-reader flag, and a churn lifetime; per block
these reduce to the aggregates the server simulation actually consumes
(total/slow weight, per-epoch churn events), which is what keeps a
million connections cheap — the per-connection draws happen once per
block per run, the simulation itself works on block aggregates.

Generation has two paths.  Without numpy, the per-connection loop
(:func:`_reduce_block` over :meth:`SimRandom.batch` draws) runs; it is
also the reference the tests hold the other path to.  With numpy,
:func:`_uniforms` decodes the same draws from the same Mersenne Twister
words into arrays, and :func:`_reduce_block_vector` reduces them.  The
vector path is bit-for-bit identical to the reference, because it keeps
the steps where numpy would round differently on the scalar side:
``pow`` comes from libm, and so does every lifetime ``log`` whose last
place could change its truncated value; float totals come from the
built-in ``sum()`` (compensated from Python 3.12 on, so the two paths
must share it), and the slow weight is summed in order.  Nothing here
uses ``numpy.random``: the stream stays the stdlib generator's.

The load curve composes three client behaviours:

* **diurnal**: one compressed "day" over the run — the arrival rate
  swings ``(1-A)..(1+A)`` following a sine, quantized per epoch;
* **churn**: connections die (exponential lifetimes) and are instantly
  replaced by an identical newcomer, so the active count is constant
  and churn is an *event count* the fleet metrics export;
* **incast**: per server per epoch, bursts of ``incast_fanin``
  synchronized arrivals on top of the smooth schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

try:  # numpy is optional: the scalar reduction is bit-identical.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised via monkeypatch
    _np = None

from repro.cluster.spec import FleetSpec
from repro.sim.rng import SimRandom

#: Cap on a single connection's Zipf weight (keeps one pathological
#: draw from dominating a whole block).
MAX_CONN_WEIGHT = 10_000.0

#: Relative band around numpy's lifetimes inside which the vector path
#: recomputes them with libm.  numpy's float64 log and libm's differ by
#: at most one unit in the last place (2.2e-16 relative, measured over
#: 1.4M inputs on an AVX-512 host), so the band holds the exact
#: lifetime with thousands of ulps to spare.
_LOG_BAND = 1e-12


def fleet_rng(master_seed: int) -> SimRandom:
    """The fleet's root stream; everything derives from named children."""
    return SimRandom(master_seed, "fleet")


def server_seed(master_seed: int, server_id: int) -> int:
    """Machine seed for one server's Testbed — a named child of the
    fleet root, so per-server streams are decorrelated and independent
    of which worker process builds them."""
    return fleet_rng(master_seed).child(f"server-{server_id}").seed


@dataclass(frozen=True)
class BlockProfile:
    """One block's population, reduced to simulation aggregates."""

    block_id: int
    connections: int
    #: Sum of per-connection request weights (normalized: mean 1).
    total_weight: float
    #: Weight carried by slow-reader connections.
    slow_weight: float
    #: Largest single connection weight (Zipf skew witness).
    top_weight: float
    #: Churn events (connection replacements) per epoch.
    churn_by_epoch: Tuple[int, ...]


def generate_block(master_seed: int, block_id: int, size: int,
                   spec: FleetSpec) -> BlockProfile:
    """Regenerate block ``block_id``'s population from the master seed."""
    if size <= 0:
        return BlockProfile(block_id, 0, 0.0, 0.0, 0.0,
                            tuple([0] * spec.epochs))
    rng = fleet_rng(master_seed).child(f"block-{block_id}")
    # One batch draw per attribute keeps the stream layout explicit (and
    # replayable): weights, slow flags, churn births, churn lifetimes.
    if _np is None:
        draws = [rng.batch(size) for _ in range(4)]
        return BlockProfile(block_id, size, *_reduce_block(*draws, spec))
    draws = [_uniforms(rng, size) for _ in range(4)]
    return BlockProfile(block_id, size, *_reduce_block_vector(*draws, spec))


def _uniforms(rng: SimRandom, n: int):
    """``rng.batch(n)`` as a float64 array, consuming the same stream.

    ``random()`` builds each draw from two 32-bit Mersenne Twister
    outputs (the top 27 bits of the first, the top 26 of the second, as
    ``(a * 2**26 + b) / 2**53``), and ``getrandbits`` packs the same
    outputs, in order, little end first — so one ``getrandbits`` call
    decodes to exactly the floats ``n`` ``random()`` calls return.
    """
    words = _np.frombuffer(
        rng._rng.getrandbits(64 * n).to_bytes(8 * n, "little"), "<u8")
    mantissa = ((words & 0xFFFFFFFF) >> 5 << 26) | (words >> 38)
    return mantissa * (1.0 / 9007199254740992.0)


def _reduce_block(u_weight: List[float], u_slow: List[float],
                  u_birth: List[float], u_life: List[float],
                  spec: FleetSpec) -> tuple:
    """Per-connection reference reduction: ``(total_weight, slow_weight,
    top_weight, churn_by_epoch)`` from the four uniform draws."""
    size = len(u_weight)
    if spec.zipf_s > 0:
        inv_s = 1.0 / spec.zipf_s
        weights = [min((1.0 - u) ** -inv_s, MAX_CONN_WEIGHT)
                   for u in u_weight]
    else:
        weights = [1.0] * size
    scale = size / sum(weights)
    weights = [w * scale for w in weights]

    slow_weight = 0.0
    for u, w in zip(u_slow, weights):
        if u < spec.slow_fraction:
            slow_weight += w

    mean_life = spec.mean_lifetime_ns()
    churn = [0] * spec.epochs
    for ub, ul in zip(u_birth, u_life):
        birth = int(ub * spec.duration_ns)
        # Exponential lifetime; 1-ul is in (0, 1] so log is finite.
        death = birth + int(-mean_life * math.log(1.0 - ul))
        if death < spec.duration_ns:
            churn[spec.epoch_of(death)] += 1

    return sum(weights), slow_weight, max(weights), tuple(churn)


def _reduce_block_vector(u_weight, u_slow, u_birth, u_life,
                         spec: FleetSpec) -> tuple:
    """:func:`_reduce_block` over float64 arrays, bit for bit.

    Elementwise IEEE arithmetic (subtract, multiply, clamp, compare,
    truncate) is the same in numpy as in Python, but three steps are
    not, so they stay on the scalar side: ``pow`` goes through libm
    (numpy's SIMD kernels round differently in the last place), the
    float totals use the running interpreter's ``sum()`` (compensated
    on 3.12+), and the slow weight is added up in order because the
    reference uses ``+=``.  Lifetimes only matter once truncated to
    whole ns, so numpy's ``log`` is used wherever a :data:`_LOG_BAND`
    error could not change the truncated value, and libm's elsewhere.
    """
    size = len(u_weight)
    if spec.zipf_s > 0:
        inv_s = 1.0 / spec.zipf_s
        raw = _np.fromiter([x ** -inv_s for x in (1.0 - u_weight).tolist()],
                           _np.float64, size)
        _np.minimum(raw, MAX_CONN_WEIGHT, out=raw)
        raw *= size / sum(raw.tolist())
    else:
        raw = _np.ones(size)
    weights = raw.tolist()

    slow_weight = 0.0
    for w in raw[u_slow < spec.slow_fraction].tolist():
        slow_weight += w

    duration = spec.duration_ns
    births = (u_birth * duration).astype(_np.int64)
    neg_mean = float(-spec.mean_lifetime_ns())
    approx = neg_mean * _np.log(1.0 - u_life)

    def deaths_at(scale):
        # Lifetimes past the run end are dropped anyway; clamping them
        # to the duration keeps the int64 cast in range for any mean.
        return births + _np.minimum(approx * scale, duration).astype(
            _np.int64)

    # numpy's log may differ from libm's in the last place.  That moves
    # a truncated lifetime only when the band around it straddles an
    # integer; those few (about one per hundred blocks) take libm's.
    deaths = deaths_at(1 - _LOG_BAND)
    upper = deaths_at(1 + _LOG_BAND)
    for i in _np.flatnonzero(deaths != upper).tolist():
        life = neg_mean * math.log(1.0 - float(u_life[i]))
        deaths[i] = births[i] + int(life)
    deaths = deaths[deaths < duration]
    epochs = _np.searchsorted(spec.epoch_edges(), deaths, side="right")
    churn = _np.bincount(epochs, minlength=spec.epochs)

    return (sum(weights), slow_weight, max(weights),
            tuple(churn.tolist()))


def diurnal_factor(spec: FleetSpec, t_ns: int) -> float:
    """Rate multiplier at ``t_ns``: one compressed day over the run,
    starting at the trough (1-A), peaking (1+A) mid-run."""
    if spec.diurnal_amplitude == 0.0:
        return 1.0
    phase = 2.0 * math.pi * t_ns / spec.duration_ns
    return 1.0 + spec.diurnal_amplitude * math.sin(phase - math.pi / 2.0)


def incast_schedule(master_seed: int, server_id: int,
                    spec: FleetSpec) -> List[List[Tuple[int, int]]]:
    """Per-epoch ``(t_ns, fanin)`` incast bursts aimed at one server.

    Drawn from the server's own named stream, so the schedule is
    independent of which blocks the LB currently routes there.
    """
    rng = fleet_rng(master_seed).child(f"server-{server_id}") \
        .child("incast")
    schedule: List[List[Tuple[int, int]]] = []
    for start, end in spec.epoch_bounds():
        bursts = []
        for _ in range(spec.incast_per_epoch):
            t = start + int(rng.random() * max(1, end - start - 1))
            bursts.append((t, spec.incast_fanin))
        schedule.append(sorted(bursts))
    return schedule
