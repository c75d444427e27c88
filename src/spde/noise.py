"""Cylindrical Wiener increments with exact coupling across resolutions.

A path is the full matrix of Gaussian increments at the finest step for
m noise directions.  Truncating columns realizes the projection onto the
first m_keep noise modes; summing rows in blocks coarsens the time step
while preserving the Brownian path.  Generation uses the Philox
counter-based generator keyed by (seed, path_id), so any path of an
ensemble can be (re)generated on its own with identical bits.

Ensembles never hold a whole block of paths.  `stream_block` keeps one
generator per path and yields the block's increments in time-major
chunks (k, paths, m) of at most CHUNK_NORMALS normals; a path's stream
drawn in pieces is the same stream, so the chunks concatenated along
time equal sample_path(...).increments bit for bit.
"""

import struct
from dataclasses import dataclass

import numpy as np

from .errors import IndivisibleFactorError, InvalidDimensionError, InvalidTruncationError

MAGIC = b"SPDEWNR1"

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

    def terminal(self):
        """Brownian value W(t_end) per mode."""
        return self.increments.sum(axis=0)


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


def truncate(path, m_keep):
    """Keep the first m_keep noise directions (the projection Q with n=m_keep)."""
    if m_keep < 0 or m_keep > path.m_modes:
        raise InvalidTruncationError(
            f"m_keep {m_keep} outside [0, {path.m_modes}]")
    return NoisePath(m_modes=m_keep, n_steps=path.n_steps, dt_fine=path.dt_fine,
                     increments=path.increments[:, :m_keep],
                     seed=path.seed, path_id=path.path_id)


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


def dump_increments(path, file):
    """Binary dump: 16-byte header (magic, u32 n_steps, u32 m_modes) then
    the increment matrix as little-endian float64, row-major."""
    close = False
    if isinstance(file, (str, bytes)):
        file = open(file, "wb")
        close = True
    try:
        file.write(MAGIC)
        file.write(struct.pack("<II", path.n_steps, path.m_modes))
        file.write(np.ascontiguousarray(path.increments, dtype="<f8").tobytes())
    finally:
        if close:
            file.close()


def load_increments(file, dt_fine, seed=0, path_id=0):
    """Read a dump back; dt_fine is not stored and must be supplied."""
    close = False
    if isinstance(file, (str, bytes)):
        file = open(file, "rb")
        close = True
    try:
        header = file.read(16)
        if len(header) != 16 or header[:8] != MAGIC:
            raise InvalidDimensionError("not a noise dump (bad magic)")
        n_steps, m_modes = struct.unpack("<II", header[8:])
        data = np.frombuffer(file.read(8 * n_steps * m_modes), dtype="<f8")
        if data.size != n_steps * m_modes:
            raise InvalidDimensionError("noise dump truncated")
        inc = data.reshape(n_steps, m_modes).astype(float)
    finally:
        if close:
            file.close()
    return NoisePath(m_modes=m_modes, n_steps=n_steps, dt_fine=dt_fine,
                     increments=inc, seed=seed, path_id=path_id)


def sample_block(generators, n_steps, m_modes, dt_fine):
    """The next n_steps increments of every path, time-major: shape
    (n_steps, len(generators), m_modes), scaled by sqrt(dt_fine) as
    sample_path scales them.  Each generator moves on by n_steps * m_modes
    normals, so the next call continues every path's stream."""
    out = np.empty((n_steps, len(generators), m_modes))
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
    it divides n_steps."""
    generators = [path_generator(seed, pid) for pid in path_ids]
    k = chunk_steps(len(generators), m_modes, multiple)
    for lo in range(0, n_steps, k):
        yield sample_block(generators, min(k, n_steps - lo), m_modes, dt_fine)


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
