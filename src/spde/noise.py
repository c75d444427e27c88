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
block share one buffer, `out`, each overwriting the last.

The block driver draws nothing itself: `start_helpers` forks one helper
process per block worker.  A helper keys the generators of its blocks
and draws their raw normals path-major, with standard_normal(out=), into
a two-slot ring: a memory file that the helper maps and the parent never
maps.  One pipe says "slot ready", a second "slot free", so the helper
runs up to two chunks ahead of the step loop.  `stream_block` then runs
`sample_block` on per-path readers, whose standard_normal(shape) returns
the path's slice of the ready slot, read with os.preadv into a staging
buffer of one slice.  The sqrt(dt) scaling, the time-major layout and
every bit are those of the generators drawn in process.  A chunk lives
in a ring slot, resident in the helper, until the parent has copied it
into `out`, so the parent holds one chunk and one slice of noise.

A helper may also have a stepping job (converge's coarser Galerkin
levels).  Once it has drawn the next chunk, it scales each chunk in its
own slot by sqrt(dt), so it steps on the increments the parent reads,
bit for bit, and writes one message per chunk, what the job returns, to
a third pipe, "rows", pickled (the parent reads it with
NoiseHelper.receive).  So each block's noise is drawn once.  A helper
exits through os._exit: after its last chunk, on end of file of the
"free" pipe or a failed write when the parent stops early or dies, or on
an error, which it writes to "ready" whichever pipe the parent reads.
`stop_helpers` reaps it.
"""

import fcntl
import math
import mmap
import os
import pickle
import tempfile
from dataclasses import dataclass

import numpy as np

from .errors import IndivisibleFactorError, InvalidDimensionError, NoiseHelperError

CHUNK_NORMALS = 2 ** 19     # normals per streamed chunk: 4 MiB of float64
ROWS_PIPE_BYTES = 2 ** 20   # a helper's "rows" pipe: several chunks of rows


@dataclass(frozen=True)
class NoisePath:
    m_modes: int
    n_steps: int
    dt_fine: float
    increments: np.ndarray      # (n_steps, m_modes), each ~ N(0, dt_fine)
    seed: int
    path_id: int


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


def _steps_per_chunk(paths, m_modes, n_steps, multiple):
    return min(n_steps, chunk_steps(paths, m_modes, multiple))


def stream_block(m_modes, n_steps, dt_fine, seed, path_ids, multiple=1, helper=None):
    """Yield the increments of paths `path_ids` in time-major chunks
    (k, paths, m_modes) that cover n_steps in order.  Every chunk but the
    last has chunk_steps(...) steps; all are multiples of `multiple` when
    it divides n_steps.  With a `helper` (start_helpers) whose next block
    this is, the normals come from its ring; without one they are drawn
    here from one generator per path.  The bits are the same.

    Every chunk is a view of one buffer that the next chunk overwrites:
    a consumer uses a chunk before asking for the next and keeps no
    reference to it past its loop, so the block holds one chunk at a time.
    The one consumer is solver.run_blocks, which keeps that rule for
    every ensemble experiment."""
    paths = len(path_ids)
    k = _steps_per_chunk(paths, m_modes, n_steps, multiple)
    draws = (helper.readers(paths) if helper is not None
             else [path_generator(seed, pid) for pid in path_ids])
    buf = np.empty((k, paths, m_modes))
    for lo in range(0, n_steps, k):
        yield sample_block(draws, min(k, n_steps - lo), m_modes, dt_fine, buf)


class _Reader:
    """Path i of a helper's current block: standard_normal(shape) returns
    the path's slice of the ready slot, valid until the next read."""

    def __init__(self, helper, i, paths):
        self.helper, self.i, self.paths = helper, i, paths

    def standard_normal(self, shape):
        return self.helper.read(self.i, self.paths, shape)


class NoiseHelper:
    """The parent's end of one helper process: its pid (None once
    reaped), the ring file of two slots of `slot` normals, the "ready"
    pipe it reads, the "free" pipe it writes and, for a helper with a
    job, the "rows" pipe it reads the job's arrays from."""

    def __init__(self, pid, ring, slot, ready, free, staging, rows):
        self.pid, self.ring, self.slot = pid, ring, slot
        self.ready, self.free = ready, free
        self.rows = None if rows is None else open(rows, "rb")
        self.staging = staging     # one path's slice of a chunk
        self.s = 0                 # the slot read next

    def readers(self, paths):
        return [_Reader(self, i, paths) for i in range(paths)]

    def read(self, i, paths, shape):
        """Path i's normals in the current chunk.  Path 0 waits for the
        slot; once the last path is read, the slot goes back to the
        helper."""
        n = math.prod(shape)
        if i == 0:
            said = os.read(self.ready, 1)
            if said != b"\0":
                self._died(said)
        out = self.staging[:n]
        if os.preadv(self.ring, [out], (self.s * self.slot + i * n) * 8) != 8 * n:
            raise NoiseHelperError("noise helper ring is short of a chunk")
        if i == paths - 1:
            try:
                os.write(self.free, b"\0")
            except BrokenPipeError:
                pass    # past its last chunk; a helper that died shows at the next wait
            self.s ^= 1
        return out.reshape(shape)

    def receive(self):
        """The next message the helper's job wrote: one per chunk."""
        try:
            return pickle.load(self.rows)
        except (EOFError, pickle.UnpicklingError):
            self._died()

    def _died(self, said=b""):
        """Reap the helper and raise its error, with the message it wrote
        to "ready" after "!", whichever pipe the parent was reading."""
        _, status = os.waitpid(self.pid, 0)
        self.pid = None
        said += b"".join(iter(lambda: os.read(self.ready, 65536), b""))
        why = said.partition(b"!")[2].decode(errors="replace")
        raise NoiseHelperError(
            f"noise helper ended before its last chunk (exit status "
            f"{os.waitstatus_to_exitcode(status)}){': ' + why if why else ''}")

    def close(self):
        for fd in (self.ready, self.free, self.ring):
            os.close(fd)
        if self.rows is not None:
            self.rows.close()


def start_helpers(seed, m_modes, n_steps, span_lists, multiple=1, job=None):
    """Fork one helper per list of block spans [(lo, hi), ...] and return
    their NoiseHelpers.  Helper w draws the blocks of span_lists[w] in
    order, chunked as stream_block chunks them, and those blocks are to
    be streamed in that order with helper w.

    With `job`, a pair (dt, block), each helper also steps: block(lo, hi)
    returns step for block [lo, hi).  Once it has drawn the next chunk,
    the helper scales each chunk to dt and passes step a time-major view
    (k, paths, m_modes) with the values of the chunk stream_block yields;
    it writes what step(chunk) returns to its "rows" pipe, one message per
    chunk, which the parent reads with NoiseHelper.receive.  A helper
    that dies raises NoiseHelperError in the parent."""
    helpers = []
    try:
        for spans in span_lists:
            ks = [(hi - lo, _steps_per_chunk(hi - lo, m_modes, n_steps, multiple))
                  for lo, hi in spans]
            slot = max(paths * k for paths, k in ks) * m_modes
            staging = np.empty(max(k for _, k in ks) * m_modes)
            ring = (os.memfd_create("spde-noise") if hasattr(os, "memfd_create")
                    else os.dup(tempfile.TemporaryFile().fileno()))
            os.ftruncate(ring, 2 * slot * 8)
            ready_r, ready_w = os.pipe()
            free_r, free_w = os.pipe()
            rows_r = rows_w = None
            if job:
                rows_r, rows_w = os.pipe()
                try:    # one chunk's rows must not hold the helper's steps back
                    fcntl.fcntl(rows_w, fcntl.F_SETPIPE_SZ, ROWS_PIPE_BYTES)
                except (AttributeError, OSError):
                    pass
            pid = os.fork()
            if pid == 0:
                _helper_main(helpers, (ready_r, free_w, rows_r), ring, slot,
                             ready_w, free_r, rows_w, job,
                             (seed, m_modes, n_steps, multiple, spans))
            for fd in (ready_w, free_r, rows_w):
                if fd is not None:
                    os.close(fd)
            helpers.append(NoiseHelper(pid, ring, slot, ready_r, free_w, staging, rows_r))
    except BaseException:
        stop_helpers(helpers)
        raise
    return helpers


def _helper_main(helpers, parent_ends, ring, slot, ready, free, rows, job, draw):
    """A helper process from fork to os._exit: exit status 0 when it has
    drawn (and stepped) its blocks or the parent has stopped, else 1,
    after writing "!" and the error to `ready`."""
    code = 1
    try:
        # the parent's ends, of this helper and of those forked before it:
        # a helper holding another's "free" or "rows" end would keep that
        # one from seeing the parent stop
        for h in helpers:
            h.close()
        for fd in parent_ends:
            if fd is not None:
                os.close(fd)
        chunks = _draw_ahead(ring, slot, ready, free, *draw)
        if job is None:
            for _ in chunks:
                pass
        else:
            _step_behind(chunks, open(rows, "wb"), slot, *job)
        code = 0
    except BaseException as e:
        try:
            os.write(ready, b"!" + repr(e).encode()[:4000])
        except OSError:
            pass
    finally:
        os._exit(code)


def _draw_ahead(ring, slot, ready, free, seed, m_modes, n_steps, multiple, spans):
    """Fill the two slots in turn with each chunk's raw normals, path-major,
    and write a byte to `ready` per slot; refill a slot only after reading
    its byte from `free`.  Yields (lo, hi, t, drawn) once chunk t of block
    [lo, hi) is ready, `drawn` being its slot as (paths, k, m_modes).
    Returns after the last block, or early once the parent has closed its
    ends."""
    slots = np.frombuffer(mmap.mmap(ring, 2 * slot * 8), dtype=np.float64)
    slots = slots.reshape(2, slot)
    s, credit = 0, 2
    for lo, hi in spans:
        gens = [path_generator(seed, pid) for pid in range(lo, hi)]
        k = _steps_per_chunk(hi - lo, m_modes, n_steps, multiple)
        for t in range(0, n_steps, k):
            n = min(k, n_steps - t) * m_modes
            if credit:
                credit -= 1
            elif not os.read(free, 1):
                return
            for i, gen in enumerate(gens):
                gen.standard_normal(out=slots[s, i * n:(i + 1) * n].reshape(-1, m_modes))
            try:
                os.write(ready, b"\0")
            except BrokenPipeError:
                return
            yield lo, hi, t, slots[s, :(hi - lo) * n].reshape(hi - lo, -1, m_modes)
            s ^= 1


def _step_behind(chunks, out, slot, dt, block):
    """Step each chunk of `chunks` once the next one is drawn, so that the
    parent never waits for a draw behind a step, and write what the job
    returns for it to `out`."""
    buf = np.empty(slot)
    ahead = next(chunks, None)
    while ahead is not None:
        (lo, hi, t, drawn), ahead = ahead, next(chunks, None)
        if t == 0:
            step = block(lo, hi)
        # sample_block's values: each normal times sqrt(dt); the steps use
        # the increments elementwise, so the layout leaves every bit alone
        chunk = np.multiply(drawn, np.sqrt(dt), out=buf[:drawn.size].reshape(drawn.shape))
        chunk = chunk.transpose(1, 0, 2)
        pickle.dump(step(chunk), out, protocol=5)
        out.flush()


def stop_helpers(helpers):
    """Close the parent's ends of every helper, then reap each: a helper
    waiting for a free slot sees end of file and one still drawing or
    writing rows fails its next write, so each returns.  Closing them all
    before the first wait keeps a helper from waiting on a sibling."""
    for h in helpers:
        h.close()
    for h in helpers:
        if h.pid is not None:
            try:
                os.waitpid(h.pid, 0)
            except ChildProcessError:
                pass
            h.pid = None


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
