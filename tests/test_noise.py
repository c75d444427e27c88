import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spde import noise as sn
from spde.errors import IndivisibleFactorError, InvalidDimensionError, InvalidTruncationError


def test_determinism_same_key():
    a = sn.sample_path(4, 100, 1e-3, seed=7, path_id=3)
    b = sn.sample_path(4, 100, 1e-3, seed=7, path_id=3)
    assert np.array_equal(a.increments, b.increments)


def test_distinct_paths_differ():
    a = sn.sample_path(4, 100, 1e-3, seed=7, path_id=0)
    b = sn.sample_path(4, 100, 1e-3, seed=7, path_id=1)
    c = sn.sample_path(4, 100, 1e-3, seed=8, path_id=0)
    assert not np.array_equal(a.increments, b.increments)
    assert not np.array_equal(a.increments, c.increments)


def test_sample_block_matches_individual_paths():
    gens = [sn.path_generator(5, pid) for pid in range(4)]
    block = np.concatenate([sn.sample_block(gens, k, 3, 1e-2) for k in (20, 30)])
    assert block.shape == (50, 4, 3)
    for pid in range(4):
        single = sn.sample_path(3, 50, 1e-2, seed=5, path_id=pid)
        assert np.array_equal(block[:, pid], single.increments)


@pytest.mark.parametrize("paths,m,steps,budget", [
    (4, 3, 50, 36),       # 3-step chunks: 50 is not a multiple
    (5, 2, 37, 7),        # below one step per chunk: k = 1
    (3, 1, 64, 10 ** 6),  # one chunk for the whole path
])
def test_stream_block_matches_sample_path(monkeypatch, paths, m, steps, budget):
    monkeypatch.setattr(sn, "CHUNK_NORMALS", budget)
    k = sn.chunk_steps(paths, m)
    chunks = list(sn.stream_block(m, steps, 1e-3, 11, range(2, 2 + paths)))
    assert [c.shape[0] for c in chunks[:-1]] == [k] * (len(chunks) - 1)
    assert all(c.shape[1:] == (paths, m) and c.size <= max(budget, paths * m)
               for c in chunks)
    streamed = np.concatenate(chunks)
    for i in range(paths):
        ref = sn.sample_path(m, steps, 1e-3, seed=11, path_id=2 + i).increments
        assert np.array_equal(streamed[:, i], ref)


def test_chunk_steps_respects_budget_and_multiple():
    assert sn.chunk_steps(256, 32) * 256 * 32 == sn.CHUNK_NORMALS
    assert sn.chunk_steps(256, 8, multiple=16) == 256
    assert sn.chunk_steps(256, 8, multiple=12) % 12 == 0
    assert sn.chunk_steps(256, 8, multiple=12) * 256 * 8 <= sn.CHUNK_NORMALS
    assert sn.chunk_steps(10 ** 6, 1) == 1
    assert sn.chunk_steps(10 ** 6, 1, multiple=8) == 8


@pytest.mark.parametrize("m", [1, 3])
def test_coarsen_chunk_matches_coarsen(monkeypatch, m):
    # m = 1 with factors >= 8 is where NumPy's summation order depends on
    # the layout: coarsen_chunk must reproduce coarsen bit for bit
    monkeypatch.setattr(sn, "CHUNK_NORMALS", 5 * m * 48)
    factors = {1, 2, 3, 16}
    steps, paths = 240, 5
    coarse = {f: [] for f in factors}
    for chunk in sn.stream_block(m, steps, 1e-3, 4, range(paths), multiple=48):
        for f, c in sn.coarsen_chunk(chunk, factors).items():
            coarse[f].append(c)
    for f in factors:
        got = np.concatenate(coarse[f])
        for pid in range(paths):
            ref = sn.coarsen(sn.sample_path(m, steps, 1e-3, 4, pid), f).increments
            assert np.array_equal(got[:, pid], ref)


def test_increment_mean_clt_bound():
    dt = 1e-3
    p = sn.sample_path(1, 100000, dt, seed=11)
    mean = float(p.increments.mean())
    assert abs(mean) <= 4.0 * np.sqrt(dt / 1e5)


def test_increment_variance_concentration():
    dt = 2e-3
    p = sn.sample_path(1, 100000, dt, seed=13)
    var = float(p.increments.var(ddof=1))
    assert dt * 0.95 <= var <= dt * 1.05


def test_coarsened_variance():
    dt, factor = 1e-3, 4
    p = sn.sample_path(1, 400000, dt, seed=17)
    c = sn.coarsen(p, factor)
    var = float(c.increments.var(ddof=1))
    assert factor * dt * 0.95 <= var <= factor * dt * 1.05


def test_truncate_identity_zero_and_coupling():
    p = sn.sample_path(6, 64, 1e-2, seed=1)
    assert np.array_equal(sn.truncate(p, 6).increments, p.increments)
    z = sn.truncate(p, 0)
    assert z.increments.shape == (64, 0)
    t4 = sn.truncate(p, 4)
    t2 = sn.truncate(p, 2)
    assert np.array_equal(t4.increments[:, :2], t2.increments)


def test_truncate_bounds():
    p = sn.sample_path(3, 10, 1e-2, seed=1)
    with pytest.raises(InvalidTruncationError):
        sn.truncate(p, 4)


@given(st.integers(1, 6), st.integers(0, 6))
@settings(max_examples=30, deadline=None)
def test_truncation_nesting(a, b):
    if b > a:
        a, b = b, a
    p = sn.sample_path(6, 32, 1e-2, seed=3)
    lhs = sn.truncate(sn.truncate(p, a), b)
    rhs = sn.truncate(p, b)
    assert np.array_equal(lhs.increments, rhs.increments)


def test_coarsen_identity_and_telescoping():
    p = sn.sample_path(2, 128, 1e-3, seed=9)
    assert sn.coarsen(p, 1) is p
    full = sn.coarsen(p, 128)
    assert full.n_steps == 1
    assert np.allclose(full.increments[0], p.terminal(), rtol=1e-12)


def test_coarsen_preserves_terminal():
    p = sn.sample_path(3, 120, 1e-3, seed=21)
    for factor in (2, 3, 4, 6):
        c = sn.coarsen(p, factor)
        ref = p.terminal()
        err = np.abs(c.terminal() - ref)
        assert np.all(err <= 1e-12 * (1.0 + np.abs(ref)))
        assert c.dt_fine == pytest.approx(factor * 1e-3)


def test_coarsen_indivisible():
    p = sn.sample_path(2, 100, 1e-3, seed=2)
    with pytest.raises(IndivisibleFactorError):
        sn.coarsen(p, 7)


def test_commutation_coarsen_truncate():
    p = sn.sample_path(5, 60, 1e-2, seed=30)
    lhs = sn.coarsen(sn.truncate(p, 3), 5)
    rhs = sn.truncate(sn.coarsen(p, 5), 3)
    assert np.array_equal(lhs.increments, rhs.increments)


def test_mode_independence():
    p = sn.sample_path(4, 40000, 1e-3, seed=4)
    x = p.increments
    corr = np.corrcoef(x.T)
    off = corr[~np.eye(4, dtype=bool)]
    assert np.max(np.abs(off)) <= 4.0 / np.sqrt(40000)


def test_dump_and_load_roundtrip():
    p = sn.sample_path(3, 17, 5e-3, seed=6, path_id=2)
    buf = io.BytesIO()
    sn.dump_increments(p, buf)
    raw = buf.getvalue()
    assert raw[:8] == b"SPDEWNR1"
    assert len(raw) == 16 + 8 * 17 * 3
    buf.seek(0)
    q = sn.load_increments(buf, dt_fine=5e-3)
    assert q.n_steps == 17 and q.m_modes == 3
    assert np.array_equal(q.increments, p.increments)


def test_load_rejects_bad_magic():
    with pytest.raises(InvalidDimensionError):
        sn.load_increments(io.BytesIO(b"NOTMAGIC" + b"\0" * 8), dt_fine=1e-3)


def test_sample_path_validates():
    with pytest.raises(InvalidDimensionError):
        sn.sample_path(0, 10, 1e-3, seed=0)
    with pytest.raises(InvalidDimensionError):
        sn.sample_path(1, 10, 0.0, seed=0)
