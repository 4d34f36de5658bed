"""Monte Carlo generation of per-pulse count pairs from the physical model.

In the model each of the mu modes carries a geometric photon number of
ratio lambda_sq, shared by both arms, and each arm is thinned by binomial
detection at efficiency eta.  A sum of mu such geometrics is exactly the
photon total N ~ NegBin(mu, 1 - lambda_sq), and binomial thinning adds over
modes, so given N the two arms' counts are independent Bin(N, eta) draws.
Each pulse therefore draws N and thins it once per arm: the model's law at
O(1) cost per pulse, vacuum (NegBin(mu, 1) = 0) and lossless (Bin(N, 1) = N)
limits included.  Large sampled histograms are an end-to-end stochastic
oracle for every closed formula in the package.

Reproducibility contract: a run is a pure function of (params, n_shots,
seed), independent of how many workers execute it.  Shots are partitioned
into fixed-size blocks and each block consumes its own counter-partitioned
Philox stream, so any scheduling of blocks produces bitwise-identical
records.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .core import _MAX_CELLS_DEFAULT, JointDistribution
from .errors import ParameterError, TableSizeError
from .params import ExperimentParams

__all__ = ["ShotRecord", "sample_shot", "sample_run", "histogram", "BLOCK_SIZE"]

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
    if params.lambda_sq >= 1.0:  # N/mu beyond 2**53: no photon law to draw from
        raise ParameterError(f"mean photons {params.mean_photons} too large to sample")


def _draw_block(params: ExperimentParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """n shots from one stream; fixed draw order (photon totals, arm 1, arm 2)."""
    photons = rng.negative_binomial(params.mu, 1.0 - params.lambda_sq, size=n)
    return np.column_stack([rng.binomial(photons, params.eta) for _arm in range(2)])


def sample_shot(params: ExperimentParams, rng: np.random.Generator) -> tuple[int, int]:
    """One pulse: a negative-binomial photon total, thinned once per arm."""
    _validate_sampling(params)
    pair = _draw_block(params, 1, rng)[0]
    return int(pair[0]), int(pair[1])


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
    if isinstance(n_shots, bool) or not isinstance(n_shots, (int, np.integer)) or n_shots < 1:
        raise ParameterError(f"n_shots must be a positive integer, got {n_shots!r}")
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ParameterError(f"seed must be a non-negative integer, got {seed!r}")
    if not isinstance(workers, (int, np.integer)) or workers < 1:
        raise ParameterError(f"workers must be a positive integer, got {workers!r}")

    n_shots = int(n_shots)
    blocks = [
        (index, min(BLOCK_SIZE, n_shots - start))
        for index, start in enumerate(range(0, n_shots, BLOCK_SIZE))
    ]

    def run_block(spec: tuple[int, int]) -> np.ndarray:
        index, size = spec
        return _draw_block(params, size, _block_rng(int(seed), index))

    if workers == 1 or len(blocks) == 1:
        parts = [run_block(spec) for spec in blocks]
    else:
        with ThreadPoolExecutor(max_workers=int(workers)) as pool:
            parts = list(pool.map(run_block, blocks))
    shots = np.vstack(parts)
    meta = {
        "params": params.to_dict(),
        "seed": int(seed),
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
    counts = np.zeros(shape)
    np.add.at(counts, (s, t), 1.0)
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
        meta={"n_shots": n, "counts": counts.astype(np.int64)},
    )
