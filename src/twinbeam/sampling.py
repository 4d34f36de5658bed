"""Monte Carlo generation of per-pulse count pairs from the physical model.

In the model each of the mu modes carries a geometric photon number of
ratio lambda_sq, shared by both arms, and each arm is thinned by binomial
detection at efficiency eta.  A sum of mu such geometrics is exactly the
photon total N ~ NegBin(mu, 1 - lambda_sq), which is a Poisson total of
gamma-distributed rate L = Gamma(mu) * mean_photons / mu, for any real
mu >= 1 (so a fitted, non-integer mu samples too).  Given L, binomial
detection on two arms splits the Poisson(L) photons into three independent
Poisson counts: photons seen by both arms (rate L eta^2) and photons seen by
one arm only (rate L eta (1 - eta) each).  So a pulse is

    both ~ Poisson(L eta^2),  s = both + Poisson(L eta (1 - eta)),
                              t = both + Poisson(L eta (1 - eta)),

the model's law at O(1) cost per pulse with no per-shot binomial set-up,
vacuum (L = 0) and lossless (eta (1 - eta) = 0, so s = t) limits included.
Large sampled histograms are an end-to-end stochastic oracle for every
closed formula in the package.

Reproducibility contract: a run is a pure function of (params, n_shots,
seed), independent of how many workers execute it.  Shots are partitioned
into fixed-size blocks and each block consumes its own counter-partitioned
Philox stream, so any scheduling of blocks produces bitwise-identical
records.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import _MAX_CELLS_DEFAULT, JointDistribution, _validate_count
from .errors import ParameterError, TableSizeError
from .params import ExperimentParams

__all__ = ["ShotRecord", "sample_run", "histogram", "BLOCK_SIZE"]

# Shots per counter block.  Fixed: changing it changes the streams.
BLOCK_SIZE = 8192

# Each block owns 2**128 Philox states; draw counts per block can never
# approach that, so blocks are collision-free by construction.
_BLOCK_STRIDE = 1 << 128


@dataclass(frozen=True)
class ShotRecord:
    """Sequence of per-pulse count pairs (s, t) plus provenance metadata."""

    shots: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        shots = np.ascontiguousarray(self.shots)
        if shots.ndim != 2 or shots.shape[1] != 2 or shots.shape[0] < 1:
            raise ParameterError("shots must be a non-empty (n, 2) array")
        if not np.issubdtype(shots.dtype, np.integer) and not np.all(shots == np.floor(shots)):
            raise ParameterError("shot counts must be integers")
        if np.any(shots < 0):
            raise ParameterError("shot counts must be >= 0")
        if np.any(shots >= 2**63):  # infinity too: the cast to int64 would wrap them
            raise ParameterError("shot counts must be integers below 2**63")
        shots = shots.astype(np.int64, copy=False)
        shots.flags.writeable = False
        object.__setattr__(self, "shots", shots)

    def __len__(self) -> int:
        return int(self.shots.shape[0])

    @property
    def s(self) -> np.ndarray:
        return self.shots[:, 0]

    @property
    def t(self) -> np.ndarray:
        return self.shots[:, 1]


def _draw_block(params: ExperimentParams, shots: np.ndarray, rng: np.random.Generator) -> None:
    """Fill ``shots`` from one stream, as one gamma rate and three Poisson counts each.

    Per shot, x = Gamma(mu) * mean_counts / mu is the rate eta * L of one
    arm's detected photons; both = Poisson(eta x) counts the photons detected
    on both arms, and each arm adds its own Poisson((1 - eta) x).  Fixed draw
    order: rates, shared counts, arm-1 counts, arm-2 counts.
    """
    x = rng.standard_gamma(params.mu, size=len(shots))
    x *= params.mean_counts / params.mu
    both = rng.poisson(params.eta * x)
    one_arm = (1.0 - params.eta) * x
    np.add(both, rng.poisson(one_arm), out=shots[:, 0])
    np.add(both, rng.poisson(one_arm), out=shots[:, 1])


def _block_rng(seed: int, block_index: int) -> np.random.Generator:
    bit_gen = np.random.Philox(key=seed, counter=block_index * _BLOCK_STRIDE)
    return np.random.Generator(bit_gen)


def sample_run(
    params: ExperimentParams,
    n_shots: int,
    seed: int,
    workers: int = 1,
) -> ShotRecord:
    """Deterministic record of n_shots pulses for (params, seed).

    The result is bitwise-independent of ``workers``: parallelism only
    distributes the fixed counter blocks.
    """
    # A Gamma(mu) draw exceeds mu + 40 sqrt(mu) + 700 with probability below
    # e**-740 for every mu >= 1; below this bound each Poisson rate stays
    # inside numpy's limit (about 9.22e18) and each shot's counts inside int64.
    mu = params.mu
    if params.mean_counts / mu * (mu + 40.0 * math.sqrt(mu) + 700.0) > 2.0**62:
        raise ParameterError(f"mean counts {params.mean_counts} too large to sample")
    n_shots, seed, workers = (_validate_count(v, name) for v, name in
                              ((n_shots, "n_shots"), (seed, "seed"), (workers, "workers")))
    if n_shots < 1 or workers < 1:
        raise ParameterError(f"n_shots and workers must be >= 1, got {n_shots} and {workers}")

    shots = np.empty((n_shots, 2), dtype=np.int64)

    def run_block(index: int) -> None:  # each block fills its own rows of the record
        _draw_block(params, shots[index * BLOCK_SIZE:][:BLOCK_SIZE], _block_rng(seed, index))

    blocks = range(-(-n_shots // BLOCK_SIZE))
    if workers == 1 or len(blocks) == 1:
        list(map(run_block, blocks))
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(run_block, blocks))  # reading each result re-raises its error
    meta = {
        "params": params.to_dict(),
        "seed": seed,
        "n_shots": n_shots,
    }
    return ShotRecord(shots=shots, meta=meta)


def _pair_table(record: ShotRecord) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The record's (s, t) count table as rows (s, t, n): its occupied cells
    in s-major order with their shot counts, tallied by one ``np.bincount``
    when the grid has at most one cell per shot, else the shots themselves,
    each with count 1.  Every statistic of a record is a sum over these rows."""
    s, t = record.s, record.t
    n_t = int(t.max()) + 1
    if (int(s.max()) + 1) * n_t > len(record):  # Python ints: no overflow
        return s, t, np.broadcast_to(np.int64(1), s.shape)  # read-only, no memory
    cell = s * n_t  # below the shot count: no overflow
    cell += t
    counts = np.bincount(cell)
    cell = np.flatnonzero(counts)
    return cell // n_t, cell % n_t, counts[cell]


def _grid(table) -> np.ndarray:
    """The dense int64 count grid of a pair table, refused beyond the cell budget."""
    s, t, n = table
    shape = (int(s.max()) + 1, int(t.max()) + 1)
    if shape[0] * shape[1] > _MAX_CELLS_DEFAULT:
        raise TableSizeError(
            f"histogram needs {shape[0]} x {shape[1]} cells, "
            f"exceeding the budget of {_MAX_CELLS_DEFAULT}"
        )
    cell = s * shape[1]  # below the cell budget: no overflow
    cell += t
    counts = np.zeros(shape[0] * shape[1], dtype=np.int64)
    np.add.at(counts, cell, n)
    return counts.reshape(shape)


def histogram(record: ShotRecord) -> JointDistribution:
    """Normalised empirical joint table of a record; raw counts and the shot
    total are preserved in the table metadata."""
    counts = _grid(_pair_table(record))
    n = len(record)
    try:
        params = ExperimentParams.from_dict(record.meta["params"])
    except (KeyError, TypeError, ParameterError):  # provenance it cannot read: dropped
        params = None
    return JointDistribution(
        probs=counts / n,
        tail_bound=0.0,
        params=params,
        tol=0.0,
        symmetric=False,
        meta={"n_shots": n, "counts": counts},
    )
