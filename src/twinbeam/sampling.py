"""Monte Carlo generation of per-pulse count pairs from the physical model.

In the model each of the mu modes carries a geometric photon number of
ratio lambda_sq, shared by both arms, and each arm is thinned by binomial
detection at efficiency eta.  A sum of mu such geometrics is exactly the
photon total N ~ NegBin(mu, 1 - lambda_sq), which is a Poisson total of
gamma-distributed rate L = Gamma(mu) * mean_photons / mu.  Given L, binomial
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
        if not np.issubdtype(shots.dtype, np.integer):
            if not np.all(shots == np.floor(shots)):
                raise ParameterError("shot counts must be integers")
            shots = shots.astype(np.int64)
        if np.any(shots < 0):
            raise ParameterError("shot counts must be >= 0")
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


def _validate_sampling(params: ExperimentParams) -> None:
    if not 0.0 < params.eta <= 1.0:
        raise ParameterError(f"eta must be in (0, 1] for sampling, got {params.eta}")
    if not float(params.mu).is_integer():
        raise ParameterError(
            f"sampling requires an integer number of physical modes, got mu={params.mu}"
        )
    # A Gamma(mu) draw exceeds mu + 40 sqrt(mu) + 700 with probability below
    # e**-740 for every mu >= 1; below this bound each Poisson rate stays
    # inside numpy's limit (about 9.22e18) and each shot's counts inside int64.
    mu = params.mu
    if params.mean_counts / mu * (mu + 40.0 * math.sqrt(mu) + 700.0) > 2.0**62:
        raise ParameterError(f"mean counts {params.mean_counts} too large to sample")


def _draw_block(params: ExperimentParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """n shots from one stream, as one gamma rate and three Poisson counts.

    Per shot, x = Gamma(mu) * mean_counts / mu is the rate eta * L of one
    arm's detected photons; both = Poisson(eta x) counts the photons detected
    on both arms, and each arm adds its own Poisson((1 - eta) x).  Fixed draw
    order: rates, shared counts, arm-1 counts, arm-2 counts.
    """
    x = rng.standard_gamma(params.mu, size=n)
    x *= params.mean_counts / params.mu
    both = rng.poisson(params.eta * x)
    one_arm = (1.0 - params.eta) * x
    shots = np.empty((n, 2), dtype=np.int64)
    np.add(both, rng.poisson(one_arm), out=shots[:, 0])
    np.add(both, rng.poisson(one_arm), out=shots[:, 1])
    return shots


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
    _validate_sampling(params)
    n_shots, seed, workers = (_validate_count(v, name) for v, name in
                              ((n_shots, "n_shots"), (seed, "seed"), (workers, "workers")))
    if n_shots < 1 or workers < 1:
        raise ParameterError(f"n_shots and workers must be >= 1, got {n_shots} and {workers}")

    blocks = [
        (index, min(BLOCK_SIZE, n_shots - start))
        for index, start in enumerate(range(0, n_shots, BLOCK_SIZE))
    ]

    def run_block(spec: tuple[int, int]) -> np.ndarray:
        index, size = spec
        return _draw_block(params, size, _block_rng(seed, index))

    if workers == 1 or len(blocks) == 1:
        parts = [run_block(spec) for spec in blocks]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            parts = list(pool.map(run_block, blocks))
    shots = np.vstack(parts)
    meta = {
        "params": params.to_dict(),
        "seed": seed,
        "n_shots": n_shots,
    }
    return ShotRecord(shots=shots, meta=meta)


def histogram(record: ShotRecord) -> JointDistribution:
    """Normalised empirical joint table of a record; raw counts and the shot
    total are preserved in the table metadata."""
    s = record.s
    t = record.t
    shape = (int(s.max()) + 1, int(t.max()) + 1)
    if shape[0] * shape[1] > _MAX_CELLS_DEFAULT:
        raise TableSizeError(
            f"histogram needs {shape[0]} x {shape[1]} cells, "
            f"exceeding the budget of {_MAX_CELLS_DEFAULT}"
        )
    counts = np.bincount(s * shape[1] + t, minlength=shape[0] * shape[1]).reshape(shape)
    n = len(record)
    try:
        params = ExperimentParams.from_dict(record.meta["params"])
    except (KeyError, TypeError):  # no complete params mapping in the record
        params = None
    return JointDistribution(
        probs=counts / n,
        tail_bound=0.0,
        params=params,
        tol=0.0,
        symmetric=False,
        meta={"n_shots": n, "counts": counts},
    )
