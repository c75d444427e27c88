"""Cylindrical Wiener increments with exact coupling across resolutions.

A path is the full matrix of Gaussian increments at the finest step for
m noise directions.  Summing rows in blocks coarsens the time step while
preserving the Brownian path; the projection onto fewer noise modes is
the solver's (solver.fit_noise_columns).  Generation uses the Philox
counter-based generator keyed by (seed, path_id), so any path of an
ensemble can be (re)generated on its own with identical bits.

Ensembles never hold a whole block of paths.  `stream_block` keeps one
generator per path and yields the block's increments in time-major
chunks (k, paths, m) of at most CHUNK_NORMALS normals; a path's stream
drawn in pieces is the same stream, so the chunks concatenated along
time equal sample_path(...).increments bit for bit.  The chunks of a
block share one buffer, each overwriting the last.
"""

from dataclasses import dataclass

import numpy as np

from .errors import IndivisibleFactorError, InvalidDimensionError

CHUNK_NORMALS = 2 ** 19     # normals per streamed chunk: 4 MiB of float64


@dataclass(frozen=True)
class NoisePath:
    m_modes: int
    n_steps: int
    dt_fine: float
    increments: np.ndarray      # (n_steps, m_modes), each ~ N(0, dt_fine)
    seed: int
    path_id: int

    @property
    def t_end(self):
        return self.n_steps * self.dt_fine


def path_generator(seed, path_id):
    key = np.array([seed, path_id], dtype=np.uint64)   # 128-bit Philox key
    return np.random.Generator(np.random.Philox(key=key))


def sample_path(m_modes, n_steps, dt_fine, seed, path_id=0):
    if m_modes < 1 or n_steps < 1 or dt_fine <= 0:
        raise InvalidDimensionError("m_modes, n_steps, dt_fine must be positive")
    inc = path_generator(seed, path_id).standard_normal((n_steps, m_modes)) \
        * np.sqrt(dt_fine)
    return NoisePath(m_modes=m_modes, n_steps=n_steps, dt_fine=dt_fine,
                     increments=inc, seed=seed, path_id=path_id)


def coarsen(path, factor):
    """Sum increments in blocks of `factor`; dt becomes factor*dt_fine."""
    if factor < 1 or path.n_steps % factor != 0:
        raise IndivisibleFactorError(
            f"factor {factor} does not divide n_steps {path.n_steps}")
    if factor == 1:
        return path
    return NoisePath(m_modes=path.m_modes, n_steps=path.n_steps // factor,
                     dt_fine=path.dt_fine * factor,
                     increments=_block_sums(path.increments, factor),
                     seed=path.seed, path_id=path.path_id)


def _block_sums(increments, factor):
    """Sum (..., steps, m) increments over consecutive runs of `factor` steps."""
    *lead, steps, m = increments.shape
    return increments.reshape(*lead, steps // factor, factor, m).sum(axis=-2)


def sample_block(generators, n_steps, m_modes, dt_fine, out=None):
    """The next n_steps increments of every path, time-major: shape
    (n_steps, len(generators), m_modes), scaled by sqrt(dt_fine) as
    sample_path scales them.  Each generator moves on by n_steps * m_modes
    normals, so the next call continues every path's stream.  With `out`,
    a buffer of at least n_steps rows, the increments fill out[:n_steps]
    and that view is returned."""
    if out is None:
        out = np.empty((n_steps, len(generators), m_modes))
    out = out[:n_steps]
    for i, gen in enumerate(generators):
        out[:, i] = gen.standard_normal((n_steps, m_modes))
    out *= np.sqrt(dt_fine)
    return out


def chunk_steps(paths, m_modes, multiple=1):
    """Steps per chunk: the largest multiple of `multiple` whose normals fit
    in CHUNK_NORMALS, and never less than `multiple`."""
    per_unit = max(1, paths * m_modes * multiple)
    return multiple * max(1, CHUNK_NORMALS // per_unit)


def stream_block(m_modes, n_steps, dt_fine, seed, path_ids, multiple=1):
    """Yield the increments of paths `path_ids` in time-major chunks
    (k, paths, m_modes) that cover n_steps in order.  Every chunk but the
    last has chunk_steps(...) steps; all are multiples of `multiple` when
    it divides n_steps.

    Every chunk is a view of one buffer that the next chunk overwrites:
    a consumer uses a chunk before asking for the next and keeps no
    reference to it past its loop, so the block holds one chunk at a time.
    The one consumer is solver.run_blocks, which keeps that rule for
    every ensemble experiment."""
    generators = [path_generator(seed, pid) for pid in path_ids]
    k = min(n_steps, chunk_steps(len(generators), m_modes, multiple))
    buf = np.empty((k, len(generators), m_modes))
    for lo in range(0, n_steps, k):
        yield sample_block(generators, min(k, n_steps - lo), m_modes, dt_fine, buf)


def coarsen_chunk(chunk, factors):
    """Block sums of a time-major chunk (k, paths, m) for each factor:
    {factor: (k // factor, paths, m)}, the chunked form of `coarsen`.

    A NumPy sum's order of additions follows the memory layout, so the
    sums run over a path-major copy, the layout `coarsen` sums in: row j
    of the result equals coarsen(path, factor).increments[j] bit for bit.
    """
    by_path = np.ascontiguousarray(chunk.transpose(1, 0, 2))
    return {f: np.ascontiguousarray(_block_sums(by_path, f).transpose(1, 0, 2))
            for f in factors}
