"""Synthetic data generators: reproducibility, marginal and dependence
structure, and the scoring arithmetic."""
from __future__ import annotations

import math
import os
import struct
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.signal import lfilter
from scipy.special import ndtr, ndtri

from bfdr.bayes_factor import ScaleError, log_bf_averaged_many
from bfdr.rng import _key, derive_seed, substream, substreams
import bfdr.simulation
from bfdr.simulation import (
    SimIConfig,
    SimIIConfig,
    _CALIBRATION_BLOCK,
    _CUT_GUARD,
    _MAX_GENOTYPE_REDRAWS,
    _SIM_I_BLOCK,
    _SIM_II_BLOCK,
    _ar1_columns,
    _ar1_latents,
    _decode_genotypes,
    _dosage_from_cuts,
    _latent_cuts,
    _latent_rho_for_target,
    _undecided,
    score,
    simulate_I,
    simulate_II,
)


class TestSubstreams:
    def test_deterministic(self):
        a = substream(7, "x", 1).random(5)
        b = substream(7, "x", 1).random(5)
        np.testing.assert_array_equal(a, b)

    def test_tags_separate_streams(self):
        a = substream(7, "x", 1).random(5)
        b = substream(7, "x", 2).random(5)
        c = substream(8, "x", 1).random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_derive_seed_stable_and_in_range(self):
        s = derive_seed(3, "dataset", "1", "0.5")
        assert s == derive_seed(3, "dataset", "1", "0.5")
        assert 0 <= s < 2**63
        assert s != derive_seed(3, "dataset", "1", "0.6")

    @staticmethod
    def _draws(rng, n):
        """Two uint32 draws (a leftover cached half would come out first), doubles, a binomial, normals."""
        return (
            rng.integers(0, 2**32, 2, dtype=np.uint32).tolist(),
            rng.random(3).tolist(),
            rng.binomial(2, 0.3, n).tolist(),
            rng.standard_normal(n).tolist(),
        )

    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**63 - 1),
        tags=st.lists(st.one_of(st.integers(-5, 10**6), st.text(max_size=8)), max_size=3),
        count=st.integers(1, 6),
        n=st.integers(1, 9),
        odd_uint32=st.integers(0, 3).map(lambda k: 2 * k + 1),
        partial=st.integers(1, 3),
    )
    def test_rekeyed_loop_matches_fresh_substreams(self, seed, tags, count, n, odd_uint32, partial):
        """Stream i of the loop is substream(seed, *tags, i), whatever the previous stream left behind.

        Between keys the shared generator is left dirty: an odd number of
        uint32 draws leaves a cached 32-bit half, a binomial sets up its
        cached constants, and a few doubles leave the Philox output buffer
        part-used. A re-key that kept any of it would change the next draws.
        """
        got = []
        for rng in substreams(seed, *tags, count=count):
            got.append(self._draws(rng, n))
            rng.integers(0, 2**32, odd_uint32, dtype=np.uint32)
            rng.binomial(7, 0.6, 2)
            rng.random(partial)
        assert len(got) == count
        assert got == [self._draws(substream(seed, *tags, i), n) for i in range(count)]

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**63 - 1), start=st.integers(0, 10**6), count=st.integers(1, 4))
    def test_a_start_index_continues_the_loop(self, seed, start, count):
        got = [rng.random(3).tolist() for rng in substreams(seed, "sim-i", count=count, start=start)]
        assert got == [substream(seed, "sim-i", i).random(3).tolist() for i in range(start, start + count)]

    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**63 - 1),
        tags=st.lists(st.one_of(st.integers(-(10**6), 10**6), st.text(max_size=8)), max_size=3),
        indices=st.sets(st.integers(0, 10**5), min_size=1, max_size=4),
    )
    @example(seed=0, tags=[], indices={0, 9, 10, 99, 100, 10**5})
    @example(seed=5, tags=["sim-i"], indices={1, 999, 1000, 99_999})
    def test_keys_are_the_hash_of_the_whole_repr(self, seed, tags, indices):
        """The loop hashes the shared repr prefix once; each key is still _key(seed, *tags, i)."""
        keys = {}
        for i, rng in enumerate(substreams(seed, *tags, count=max(indices) + 1)):
            if i in indices:
                keys[i] = tuple(int(k) for k in rng.bit_generator.state["state"]["key"])
        assert keys == {i: struct.unpack_from("<2Q", _key(seed, *tags, i)) for i in indices}


class TestConfigs:
    def test_defaults(self):
        c1 = SimIConfig()
        assert (c1.m, c1.n) == (10000, 100)
        c2 = SimIIConfig()
        assert (c2.m, c2.n) == (10000, 85)
        assert c2.k_range == (40, 120)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"m": 0},
            {"n": 2},
            {"pi0": 1.5},
            {"sigma": 0.0},
            {"phi_range": (2.0, 1.0)},
            {"maf_range": (0.0, 0.5)},
            {"maf_range": (0.1, 0.7)},
            {"seed": -1},
            {"sigma": math.inf},
            {"sigma": math.nan},
            {"phi_range": (0.5, math.inf)},
            {"phi_range": (math.inf, math.inf)},
            {"mu": 1e17},
        ],
    )
    def test_sim_i_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimIConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs",
        [{"k_range": (0, 5)}, {"k_range": (6, 5)}, {"n_causal_range": (0, 2)}, {"ld_decay": 1.5}],
    )
    def test_sim_ii_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimIIConfig(**kwargs)


class TestSimulateI:
    def test_reproducible_and_seed_sensitive(self):
        cfg = SimIConfig(m=50, n=40, seed=5)
        b1, t1 = simulate_I(cfg)
        b2, t2 = simulate_I(cfg)
        assert b1.ids == b2.ids
        for name in ("log_bf", "bf", "z", "se"):
            assert np.array_equal(getattr(b1, name), getattr(b2, name))
        assert np.array_equal(t1, t2)
        b3, _ = simulate_I(SimIConfig(m=50, n=40, seed=6))
        assert not np.array_equal(b1.z, b3.z)

    def test_records_are_consistent(self):
        batch, truth = simulate_I(SimIConfig(m=30, n=50, seed=1))
        assert len(batch) == 30
        assert len(set(batch.ids)) == 30
        assert truth.shape == (len(batch),) and truth.dtype == bool
        assert batch.z is not None and batch.se is not None
        for z, se, bf in zip(batch.z, batch.se, batch.bf):
            assert bf == pytest.approx(math.exp(float(log_bf_averaged_many(z, se))), rel=1e-12)

    def test_alternative_fraction(self):
        _, truth = simulate_I(SimIConfig(m=4000, n=30, pi0=0.7, seed=9))
        frac_alt = np.count_nonzero(truth) / len(truth)
        # Binomial(4000, 0.3): five standard deviations is about 0.036.
        assert frac_alt == pytest.approx(0.3, abs=0.04)

    def test_null_z_standard_normal(self):
        batch, _ = simulate_I(SimIConfig(m=2000, n=100, pi0=1.0, seed=12))
        z = batch.z
        assert stats.kstest(z, "norm").pvalue > 0.01

    def test_pi0_extremes(self):
        _, t0 = simulate_I(SimIConfig(m=200, n=20, pi0=0.0, seed=2))
        assert t0.all()
        _, t1 = simulate_I(SimIConfig(m=200, n=20, pi0=1.0, seed=2))
        assert not t1.any()


def _reference_simulate_I(config, max_redraws=_MAX_GENOTYPE_REDRAWS):
    """The test-by-test study-I loop: one fresh substream and one regression per test.

    This is the oracle for the block form of :func:`simulate_I`, which must
    make the same draws and give the same bits.
    """
    m, n = config.m, config.n
    f_lo, f_hi = config.maf_range
    p_lo, p_hi = config.phi_range
    z_stats = np.empty(m)
    se_stats = np.empty(m)
    alternative = np.empty(m, dtype=bool)
    for i in range(m):
        rng = substream(config.seed, "sim-i", i)
        u = rng.random(3)
        is_alt = u[0] < 1.0 - config.pi0
        f = f_lo + (f_hi - f_lo) * u[1]
        phi = p_lo + (p_hi - p_lo) * u[2]
        g = rng.binomial(2, f, n)
        redraws = 0
        while g.min() == g.max():
            if redraws == max_redraws:
                raise ValueError(
                    f"test {i}: genotype constant after {max_redraws} redraws at allele "
                    f"frequency f={f:.6g} (n={n}); raise the low end of maf_range or n"
                )
            redraws += 1
            g = rng.binomial(2, f, n)
        beta = phi * rng.standard_normal() if is_alt else 0.0
        e = config.sigma * rng.standard_normal(n)
        y = config.mu + beta * g + e
        gc = g - g.mean()
        sxx = float(gc @ gc)
        se = config.sigma / math.sqrt(sxx)
        z_stats[i] = float(gc @ (y - y.mean())) / sxx / se
        se_stats[i] = se
        alternative[i] = is_alt
    return z_stats, se_stats, alternative


def _assert_bit_identical(config):
    batch, truth = simulate_I(config)
    z, se, alternative = _reference_simulate_I(config)
    assert batch.z.tobytes() == z.tobytes()
    assert batch.se.tobytes() == se.tobytes()
    assert batch.log_bf.tobytes() == log_bf_averaged_many(z, se).tobytes()
    assert np.array_equal(truth, alternative)


_B = _SIM_I_BLOCK


class TestSimulateIBlocks:
    """The block arithmetic of simulate_I against the test-by-test oracle, bit for bit."""

    @pytest.mark.parametrize("pi0", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [3, 37, 100, 300])
    @pytest.mark.parametrize("m", [1, _B - 1, _B, _B + 1, 3 * _B + 7])
    def test_matches_test_by_test_loop(self, m, n, pi0):
        _assert_bit_identical(SimIConfig(m=m, n=n, pi0=pi0, seed=m * 1000 + n))

    def test_matches_with_many_redraws(self):
        """At n = 3 and allele frequencies down to 0.01 most tests redraw their genotype."""
        _assert_bit_identical(SimIConfig(m=3 * _B + 7, n=3, maf_range=(0.01, 0.5), seed=17))

    def test_matches_with_other_model_constants(self):
        _assert_bit_identical(SimIConfig(m=_B + 3, n=50, mu=-2.5, sigma=3, phi_range=(0.0, 4.0), seed=4))

    @settings(max_examples=30, deadline=None)
    @given(data=st.data(), m=st.integers(1, 2 * _B + 9), redraws=st.booleans(), seed=st.integers(0, 2**63 - 1))
    @example(data=None, m=2 * _B + 9, redraws=True, seed=17)
    def test_consecutive_ranges_are_the_whole_study(self, data, m, redraws, seed):
        """simulate_I over consecutive test ranges, cut anywhere, gives the whole study's batch and truth bit for
        bit. At n = 3 and allele frequencies from 0.01 about a third of the tests take the per-test path."""
        if redraws:
            config = SimIConfig(m=m, n=3, maf_range=(0.01, 0.5), seed=seed)
        else:
            config = SimIConfig(m=m, n=20, pi0=0.5, seed=seed)
        cuts = [] if data is None else data.draw(st.lists(st.integers(1, m), max_size=4))
        bounds = sorted({0, m, *cuts, *((_B - 1, _B + 1) if data is None else ())})
        whole, truth = simulate_I(config)
        parts = [simulate_I(config, start=a, stop=b) for a, b in zip(bounds, bounds[1:])]
        assert sum((tuple(batch.ids) for batch, _ in parts), ()) == tuple(whole.ids)
        for name in ("z", "se", "log_bf", "bf"):
            joined = np.concatenate([getattr(batch, name) for batch, _ in parts])
            assert joined.tobytes() == getattr(whole, name).tobytes(), name
        assert np.concatenate([t for _, t in parts]).tolist() == truth.tolist()

    @pytest.mark.parametrize("start, stop", [(0, 0), (3, 2), (-1, 4), (0, 11)])
    def test_a_test_range_must_be_non_empty_and_inside_the_study(self, start, stop):
        with pytest.raises(ValueError, match="test range"):
            simulate_I(SimIConfig(m=10, n=5), start=start, stop=stop)

    def test_redraw_cap_names_the_same_global_test(self, monkeypatch):
        """With the cap at zero the first constant genotype fails; here that test is past the first block."""
        monkeypatch.setattr(bfdr.simulation, "_MAX_GENOTYPE_REDRAWS", 0)
        for seed in range(50):
            config = SimIConfig(m=3 * _B + 7, n=8, maf_range=(0.45, 0.5), seed=seed)
            try:
                _reference_simulate_I(config, max_redraws=0)
            except ValueError as exc:
                expected = str(exc)
                if int(expected.split(":")[0].removeprefix("test ")) > _B:
                    break
        else:
            pytest.fail("no seed puts the first constant genotype past the first block")
        with pytest.raises(ValueError) as got:
            simulate_I(config)
        assert str(got.value) == expected


def _state(rng) -> str:
    """The bit generator's whole state (key, counter, output buffer and cached half) as text."""
    return repr(rng.bit_generator.state)


_HALF = 0.5
_HALF_ULPS = [_HALF, math.nextafter(_HALF, 0.0), math.nextafter(_HALF, 1.0)]


class TestGenotypeDecoder:
    """The block decoder against numpy's own Binomial(2, f) draws.

    A numpy release that changed its binomial would fail here, instead of
    silently changing study I's genotypes.
    """

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**63 - 1),
        n=st.integers(1, 400),
        f=st.one_of(st.floats(1e-6, 0.5), st.sampled_from([1e-6, *_HALF_ULPS])),
    )
    @example(seed=0, n=1, f=1e-6)
    @example(seed=1, n=400, f=_HALF)
    @example(seed=2, n=400, f=math.nextafter(_HALF, 0.0))
    @example(seed=3, n=400, f=math.nextafter(_HALF, 1.0))
    def test_matches_numpy_binomial(self, seed, n, f):
        """Uniforms and binomial from identically keyed generators: the same counts and the same end state.

        Above 0.5 numpy inverts 1 - f, so the decoder flags the row instead.
        """
        decoding, drawing = substream(seed, "decode"), substream(seed, "decode")
        g, exact = _decode_genotypes(decoding.random(n)[None, :], np.array([f]))
        counts = drawing.binomial(2, f, n)
        if f > 0.5:
            assert exact[0]
            return
        restarted = (g == 3.0).any()
        assert exact[0] == (restarted or counts.min() == counts.max())
        if not restarted:
            assert g[0].tolist() == counts.tolist()
            assert _state(decoding) == _state(drawing)

    @staticmethod
    def _inversion(U: float, p: float) -> int:
        """numpy's ``random_binomial_inversion`` loop at n = 2 for one uniform; 3 where it would draw a fresh one."""
        q = 1.0 - p
        qn = math.exp(2 * math.log(q))
        X, px = 0, qn
        while U > px:
            X += 1
            if X > 2:
                return 3
            U -= px
            px = ((2 - X + 1) * p * px) / (X * q)
        return X

    @pytest.mark.parametrize("f", [0.3, 0.019797398739224766, 0.4752318976992713])
    def test_uniform_past_the_total_is_flagged(self, f):
        """At these f, P(0) + P(1) + P(2) rounds below the largest uniform, where numpy restarts the draw."""
        top = math.nextafter(1.0, 0.0)
        u = np.array([[0.1, 0.9, top, 0.2], [0.1, 0.9, 0.99, 0.2]])
        g, exact = _decode_genotypes(u, np.array([f, f]))
        assert g.tolist() == [[self._inversion(x, f) for x in row] for row in u.tolist()]
        assert g[0, 2] == 3.0 and exact.tolist() == [True, False]

    def test_other_branches_and_constant_rows_are_flagged(self):
        u = np.array([[0.1, 0.9, 0.2], [0.1, 0.9, 0.2], [0.1, 0.2, 0.3], [0.1, 0.5, 0.9]])
        f = np.array([math.nextafter(_HALF, 1.0), 0.0, 0.3, _HALF])
        _, exact = _decode_genotypes(u, f)
        assert exact.tolist() == [True, True, True, False]


class _NoBinomial:
    """A generator that refuses ``binomial``: simulate_I's draws must not reach it."""

    def __init__(self, rng):
        self._rng = rng

    def __getattr__(self, name):
        if name == "binomial":
            raise AssertionError("Generator.binomial called")
        return getattr(self._rng, name)


def _count_exact_tests(monkeypatch) -> list[int]:
    """The tests simulate_I recomputes one numpy call at a time, in call order."""
    calls = []
    exact_test = bfdr.simulation._exact_test

    def counted(config, i):
        calls.append(i)
        return exact_test(config, i)

    monkeypatch.setattr(bfdr.simulation, "_exact_test", counted)
    return calls


class TestSimulateIFallback:
    """Which tests take the per-test path, and that the block path never draws a binomial."""

    @pytest.mark.parametrize("pi0", [0.95, 0.55, 0.15])
    def test_no_test_falls_back_on_the_benchmark_datasets(self, monkeypatch, pi0):
        """The study-i workload's datasets (seed 7701): no fallback and no binomial call."""
        calls = _count_exact_tests(monkeypatch)
        monkeypatch.setattr(
            bfdr.simulation, "substreams", lambda *args, **kwargs: map(_NoBinomial, substreams(*args, **kwargs))
        )
        config = SimIConfig(m=10_000, pi0=pi0, seed=derive_seed(7701, "dataset", 1, repr(pi0), 0))
        batch, _ = simulate_I(config)
        assert calls == []
        monkeypatch.undo()
        assert batch.log_bf.tobytes() == simulate_I(config)[0].log_bf.tobytes()

    def test_exactly_the_constant_rows_fall_back(self, monkeypatch):
        """At n = 3 and allele frequencies from 0.01 about a third of the first genotypes are constant; only those redo."""
        config = SimIConfig(m=3 * _B + 7, n=3, maf_range=(0.01, 0.5), seed=17)
        constant = []
        for i in range(config.m):
            rng = substream(config.seed, "sim-i", i)
            u_f = rng.random(3)[1]
            g = rng.binomial(2, 0.01 + (0.5 - 0.01) * u_f, config.n)
            if g.min() == g.max():
                constant.append(i)
        calls = _count_exact_tests(monkeypatch)
        simulate_I(config)
        assert calls == constant
        assert len(constant) > config.m // 4

    def test_scale_error_names_the_same_global_test(self, monkeypatch, tmp_path, capsys):
        """A sigma just above the first block's smallest usable one fails first at a later test.

        That test is named alike by ``simulate_I`` over the whole study and
        over every range that holds it, and by ``bfdr sim`` at 1, 2 and 3
        workers over ranges of one block, which leaves no worker behind.
        The dataset seed is the one ``bfdr sim --seed`` derives.
        """
        tiny = np.finfo(float).tiny
        for cli_seed in range(50):
            seed = derive_seed(cli_seed, "dataset", 1, repr(1.0), 0)
            config = SimIConfig(m=3 * _B + 7, n=6, pi0=1.0, seed=seed)
            _, se, _ = _reference_simulate_I(config)
            root_sxx = 1.0 / se  # sigma = 1
            sigma = float(root_sxx[: _B + 1].max()) * math.sqrt(tiny) * 1.0001
            # A sigma whose square reaches n * tiny is checked against mu by the config itself.
            if sigma * sigma < config.n * tiny and (root_sxx * math.sqrt(tiny) * 1.0001 > sigma).any():
                break
        else:
            pytest.fail("no seed has a test past the first block with a larger sxx")
        config = SimIConfig(m=3 * _B + 7, n=6, pi0=1.0, seed=seed, sigma=sigma)
        _, se, _ = _reference_simulate_I(config)
        first = int(np.argmax(se * se < tiny))
        assert first > _B and se[first] ** 2 < tiny
        message = (
            f"test {first}: standard error {float(se[first])!r} squares to {float(se[first] ** 2)!r}, "
            "below the smallest normal float"
        )
        for start, stop in ((0, config.m), (_B, 2 * _B + 1), (first, first + 1), (first - 1, config.m)):
            with pytest.raises(ScaleError) as got:
                simulate_I(config, start=start, stop=stop)
            assert str(got.value) == message

        from bfdr import cli, studies

        monkeypatch.setattr(cli, "_SIM_I_RANGE", _B)
        monkeypatch.setattr(studies.os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
        argv = ["sim", "--scenario", "1", "--m", str(config.m), "--n", "6", "--pi0", "1", "--sigma", repr(sigma),
                "--seed", str(cli_seed)]
        for threads in ("1", "2", "3"):
            assert cli.main([*argv, "--threads", threads, "--out", str(tmp_path / threads)]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"
            with pytest.raises(ChildProcessError):
                os.waitpid(-1, os.WNOHANG)


def _reference_simulate_II(config, rho):
    """The gene-by-gene study-II loop: each gene's cut points from its own _latent_cuts call."""
    genes, alternative = [], np.empty(config.m, dtype=bool)
    for i in range(config.m):
        rng = substream(config.seed, "sim-ii", i)
        k = int(rng.integers(config.k_range[0], config.k_range[1] + 1))
        f = rng.uniform(config.maf_range[0], config.maf_range[1], k)
        G = _dosage_from_cuts(_ar1_columns(rng.standard_normal((config.n, k)), rho), _latent_cuts(f[None, :]))
        is_alt = rng.random() < 1.0 - config.pi0
        signal = 0.0
        if is_alt:
            n_causal = int(rng.integers(config.n_causal_range[0], min(config.n_causal_range[1], k) + 1))
            causal = rng.choice(k, size=n_causal, replace=False)
            phi = rng.uniform(config.phi_range[0], config.phi_range[1], n_causal)
            signal = G[:, causal].astype(float) @ (phi * rng.standard_normal(n_causal))
        y = config.mu + signal + config.sigma * rng.standard_normal(config.n)
        alternative[i] = is_alt
        genes.append((f"gene{i:05d}", y, G))
    return genes, alternative


class TestSimulateII:
    @pytest.mark.parametrize(
        "config",
        [
            SimIIConfig(m=2 * _SIM_II_BLOCK + 37, n=20, k_range=(1, 12), pi0=0.5, seed=11),
            SimIIConfig(m=_SIM_II_BLOCK + 1, n=12, k_range=(3, 3), maf_range=(1e-6, 0.02), pi0=0.0, seed=12),
            SimIIConfig(m=5, n=30, k_range=(40, 60), seed=13),
        ],
    )
    def test_blocks_match_gene_by_gene_generation(self, config):
        """Cut points shared over a block of genes give each gene its own draws and bits."""
        rho = _latent_rho_for_target(config.ld_decay, config.maf_range, substream(config.seed, "sim-ii-ld"))
        expected, expected_alt = _reference_simulate_II(config, rho)
        genes, alternative = simulate_II(config)
        assert np.array_equal(alternative, expected_alt)
        assert len(genes) == len(expected)
        for gene, (gene_id, y, G) in zip(genes, expected):
            assert gene.id == gene_id
            assert gene.y.tobytes() == y.tobytes()
            assert gene.G.dtype == G.dtype and gene.G.shape == G.shape
            assert gene.G.tobytes() == G.tobytes()

    def test_reproducible(self):
        cfg = SimIIConfig(m=6, n=40, k_range=(5, 10), seed=3)
        g1, t1 = simulate_II(cfg)
        g2, t2 = simulate_II(cfg)
        assert np.array_equal(t1, t2)
        for a, b in zip(g1, g2):
            assert a.id == b.id
            np.testing.assert_array_equal(a.y, b.y)
            np.testing.assert_array_equal(a.G, b.G)

    def test_shapes_and_dosage_values(self):
        cfg = SimIIConfig(m=8, n=30, k_range=(4, 9), seed=7)
        genes, truth = simulate_II(cfg)
        assert len(genes) == 8
        assert [g.id for g in genes] == [f"gene{i:05d}" for i in range(8)]
        assert truth.shape == (8,) and truth.dtype == bool
        for gene in genes:
            n, k = gene.G.shape
            assert n == 30
            assert 4 <= k <= 9
            assert gene.y.shape == (30,)
            assert set(np.unique(gene.G)) <= {0, 1, 2}

    def test_marginal_allele_frequency(self):
        cfg = SimIIConfig(m=40, n=200, k_range=(20, 30), maf_range=(0.05, 0.5), seed=4)
        genes, _ = simulate_II(cfg)
        pooled = np.concatenate([g.G.ravel() for g in genes])
        # Mean dosage is 2 f; frequencies are uniform on [0.05, 0.5].
        assert pooled.mean() / 2.0 == pytest.approx(0.275, abs=0.02)

    def test_adjacent_dosage_correlation_near_target(self):
        cfg = SimIIConfig(m=400, n=300, k_range=(30, 60), ld_decay=0.4, seed=6)
        genes, _ = simulate_II(cfg)
        corrs = []
        for gene in genes:
            Gf = gene.G.astype(float)
            Gc = Gf - Gf.mean(axis=0)
            s = np.sqrt((Gc * Gc).sum(axis=0))
            ok = (s[:-1] > 0) & (s[1:] > 0)
            pair = (Gc[:, :-1] * Gc[:, 1:]).sum(axis=0) / (s[:-1] * s[1:])
            corrs.extend(pair[ok].tolist())
        assert np.mean(corrs) == pytest.approx(0.4, abs=0.1)
        rho = _latent_rho_for_target(cfg.ld_decay, cfg.maf_range, substream(cfg.seed, "sim-ii-ld"))
        assert rho > 0.4  # thresholding attenuates

    def test_zero_ld_decay(self):
        cfg = SimIIConfig(m=60, n=300, k_range=(20, 30), ld_decay=0.0, seed=8)
        genes, _ = simulate_II(cfg)
        assert _latent_rho_for_target(cfg.ld_decay, cfg.maf_range, substream(cfg.seed, "sim-ii-ld")) == 0.0
        corrs = []
        for gene in genes:
            Gf = gene.G.astype(float)
            Gc = Gf - Gf.mean(axis=0)
            s = np.sqrt((Gc * Gc).sum(axis=0))
            pair = (Gc[:, :-1] * Gc[:, 1:]).sum(axis=0) / (s[:-1] * s[1:])
            corrs.extend(pair.tolist())
        assert abs(np.mean(corrs)) < 0.05

    def test_ar1_recurrence_matches_lfilter(self):
        """The in-place recurrence equals the zero-state lfilter it replaced, bit for bit."""
        rng = np.random.default_rng(23)
        rhos = [0.0, 1e-300, 0.3, 0.5235987755982989, 0.99999, float(rng.uniform())]
        for case in range(500):
            rho = rhos[case % len(rhos)]
            W = rng.standard_normal((int(rng.integers(1, 90)), int(rng.integers(1, 130))))
            expected = W.copy()
            expected[:, 1:] *= math.sqrt(1.0 - rho * rho)
            expected = lfilter([1.0], [1.0, -rho], expected, axis=1)
            assert np.array_equal(_ar1_columns(W, rho), expected)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(1, 40),
        ks=st.lists(st.integers(1, 30), min_size=1, max_size=9),
        rho=st.one_of(st.sampled_from([0.0, 0.5, 0.99999]), st.floats(0.0, 1.0, exclude_max=True)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ar1_over_a_block_equals_the_per_gene_loop(self, n, ks, rho, seed):
        """One pass over a padded block of genes gives each gene the bits of its own two-calls-per-column loop."""
        block = _ar1_latents([np.random.default_rng([seed, g]) for g in range(len(ks))], n, ks, rho)
        for g, k in enumerate(ks):
            X = np.random.default_rng([seed, g]).standard_normal((n, k))
            X[:, 1:] *= math.sqrt(1.0 - rho * rho)
            for j in range(1, k):
                X[:, j] += rho * X[:, j - 1]
            assert block[:k, g].T.tobytes() == X.tobytes()

    def test_unreachable_ld_target(self):
        with pytest.raises(ValueError, match="not achievable"):
            simulate_II(SimIIConfig(m=2, n=20, k_range=(3, 4), ld_decay=0.9, seed=1))


def _ndtr_dosage(x, f):
    """Reference dosage kernel: ndtr on every latent, then the two CDF-scale cuts."""
    u = ndtr(x)
    c0 = (1.0 - f) ** 2
    c1 = 1.0 - f**2
    return (u > c0).astype(np.int8) + (u > c1).astype(np.int8)


def _ndtr_latent_rho(target, maf_range, rng, n_pairs=1500, n_per_pair=400):
    """Reference calibration: every pair through ndtr and re-summed at every step."""
    if target <= 0.0:
        return 0.0
    measured = _ndtr_measured(maf_range, rng, n_pairs, n_per_pair)
    hi = 0.99999
    if measured(hi) < target:
        raise ValueError(
            f"ld_decay={target} is not achievable: dosage-scale adjacent correlation "
            f"tops out near {measured(hi):.3f} for allele frequencies in {maf_range}"
        )
    lo = 0.0
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        if measured(mid) < target:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ndtr_measured(maf_range, rng, n_pairs=1500, n_per_pair=400):
    """The reference calibration's mean dosage correlation as a function of the latent coefficient."""
    x1 = rng.standard_normal((n_pairs, n_per_pair))
    w = rng.standard_normal((n_pairs, n_per_pair))
    f1 = rng.uniform(maf_range[0], maf_range[1], (n_pairs, 1))
    f2 = rng.uniform(maf_range[0], maf_range[1], (n_pairs, 1))
    d1 = _ndtr_dosage(x1, f1).astype(float)
    d1c = d1 - d1.mean(axis=1, keepdims=True)
    s1 = np.sqrt((d1c * d1c).sum(axis=1))

    def measured(rho):
        x2 = rho * x1 + math.sqrt(1.0 - rho * rho) * w
        d2 = _ndtr_dosage(x2, f2).astype(float)
        d2c = d2 - d2.mean(axis=1, keepdims=True)
        s2 = np.sqrt((d2c * d2c).sum(axis=1))
        ok = (s1 > 0.0) & (s2 > 0.0)
        corr = ((d1c * d2c).sum(axis=1))[ok] / (s1[ok] * s2[ok])
        return float(corr.mean())

    return measured


def _nudge_ulps(x, k):
    """``x`` moved by ``k`` ulps elementwise (k in [-25, 25]), away from or towards +inf."""
    out = x.copy()
    for j in range(1, 26):
        up, down = k >= j, k <= -j
        out[up] = np.nextafter(out[up], np.inf)
        out[down] = np.nextafter(out[down], -np.inf)
    return out


class TestDosageKernel:
    @settings(max_examples=200, deadline=None)
    @given(
        n=st.integers(1, 12),
        k=st.integers(1, 12),
        layout=st.sampled_from(["row", "column", "full"]),
        rare=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_ndtr_thresholds_near_every_cut(self, n, k, layout, rare, seed):
        """Latents near a cut point or a guard-band edge get the ndtr kernel's codes.

        Each latent is placed within 25 ulps of the latent-scale cut or of
        a band edge, or at a latent offset of 1e-15 to 1e-3 from the cut
        (near 1 - f^2 with f ~ 1e-6 one CDF ulp spans ~1e-5 on the latent
        scale, so a latent-scale band would misclassify there), or drawn
        freely.
        """
        rng = np.random.default_rng(seed)
        f_shape = {"row": (n, 1), "column": (1, k), "full": (n, k)}[layout]
        if rare:
            f = 10.0 ** rng.uniform(-6.0, -1.0, f_shape)
            f.flat[0] = 1e-6
        else:
            f = rng.uniform(1e-6, 0.5, f_shape)
        F = np.broadcast_to(f, (n, k))
        cut = np.where(rng.random((n, k)) < 0.5, (1.0 - F) ** 2, 1.0 - F**2)
        edge = rng.integers(-1, 2, (n, k)) * _CUT_GUARD
        x = ndtri(np.minimum(cut + edge, 1.0))
        x = _nudge_ulps(x, rng.integers(-25, 26, (n, k)))
        offset = rng.choice([-1.0, 1.0], (n, k)) * 10.0 ** rng.uniform(-15.0, -3.0, (n, k))
        x = np.where((edge == 0.0) & (rng.random((n, k)) < 0.5), x + offset, x)
        free = rng.random((n, k)) < 0.2
        x[free] = rng.standard_normal(int(free.sum()))
        got = _dosage_from_cuts(x, _latent_cuts(f))
        assert got.dtype == np.int8
        assert np.array_equal(got, _ndtr_dosage(x, f))

    def test_broadcasts_latent_column_against_frequency_row(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((50, 1))
        f = rng.uniform(1e-6, 0.5, (1, 30))
        got = _dosage_from_cuts(x, _latent_cuts(f))
        assert got.shape == (50, 30)
        assert np.array_equal(got, _ndtr_dosage(x, f))

    def test_calibration_calls_ndtr_on_almost_no_latent(self, monkeypatch):
        """Structural: the default calibration thresholds few latents and sends < 1 in 10^4 through ndtr.

        The counters wrap the dosage kernel and the ``ndtr`` port it calls.
        The first variant's dosages, the bisection's top and its first three
        steps threshold every one of the 1500 x 400 latents; from then on
        only the latents whose dosage can still change, about 0.15 x
        1500 x 400 in all, where thresholding every latent at all 40 steps
        would be 42 x 1500 x 400. At seed 501 a few latents fall inside a
        guard band, so a count of 0 would mean the counter no longer sees
        the kernel's calls.
        """
        import bfdr.simulation as simulation

        latents, through_ndtr = [0], [0]
        kernel, port = simulation._dosage_from_cuts, simulation.ndtr

        def counting_kernel(x, cuts):
            latents[0] += x.size
            return kernel(x, cuts)

        def counting_ndtr(x):
            through_ndtr[0] += np.size(x)
            return port(x)

        monkeypatch.setattr(simulation, "_dosage_from_cuts", counting_kernel)
        monkeypatch.setattr(simulation, "ndtr", counting_ndtr)
        rho = _latent_rho_for_target(0.4, (0.05, 0.5), substream(501, "sim-ii-ld"))
        assert rho == _ndtr_latent_rho(0.4, (0.05, 0.5), substream(501, "sim-ii-ld"))
        assert 5 * 1500 * 400 < latents[0] <= 6 * 1500 * 400
        assert 0 < through_ndtr[0] < latents[0] / 10_000


class TestLatentRhoCalibration:
    @pytest.mark.parametrize(
        "seed, target, maf_range, sizes",
        [
            (1, 0.4, (0.05, 0.5), {}),
            (2, 0.2, (0.05, 0.5), {}),
            (3, 0.55, (0.2, 0.5), {}),
            (4, 0.0, (0.05, 0.5), {}),
            (5, 0.3, (1e-6, 0.5), {"n_pairs": _CALIBRATION_BLOCK + 83, "n_per_pair": 60}),
            (6, 0.15, (1e-6, 1e-3), {"n_pairs": 430, "n_per_pair": 500}),
            (7, 0.45, (0.1, 0.3), {"n_pairs": 1000, "n_per_pair": 120}),
            (8, 0.35, (0.05, 0.5), {"n_pairs": 1, "n_per_pair": 400}),
        ],
    )
    def test_matches_ndtr_bisection(self, seed, target, maf_range, sizes):
        """Bit-identical latent coefficient, also when the block size does not divide n_pairs."""
        expected = _ndtr_latent_rho(target, maf_range, substream(seed, "sim-ii-ld"), **sizes)
        got = _latent_rho_for_target(target, maf_range, substream(seed, "sim-ii-ld"), **sizes)
        assert got == expected

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_target_within_an_ulp_of_a_plateau(self, ulps):
        """A target at, or one ulp off, the correlation right after a code flip.

        The measured correlation is a step function of the latent
        coefficient, and the bisection ends on one of its steps. Aiming at
        the value just past the step the default target lands on makes
        ``measured(mid) < target`` hinge on the last bit at every mid near
        it.
        """
        sizes = {"n_pairs": 300, "n_per_pair": 120}
        measured = _ndtr_measured((0.05, 0.5), substream(21, "sim-ii-ld"), **sizes)
        rho = _ndtr_latent_rho(0.4, (0.05, 0.5), substream(21, "sim-ii-ld"), **sizes)
        plateau = measured(rho + 2.0**-40)
        target = plateau
        for _ in range(abs(ulps)):
            target = math.nextafter(target, math.copysign(math.inf, ulps))
        expected = _ndtr_latent_rho(target, (0.05, 0.5), substream(21, "sim-ii-ld"), **sizes)
        assert _latent_rho_for_target(target, (0.05, 0.5), substream(21, "sim-ii-ld"), **sizes) == expected

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        log_width=st.floats(-50.0, 0.0),
        edge_ulps=st.integers(-2, 2),
    )
    def test_undecided_covers_every_coefficient_in_the_interval(self, seed, log_width, edge_ulps):
        """A latent left out as decided keeps both dosage bits at every coefficient of the interval.

        Band edges are put on, or within two ulps of, a latent's value at
        an end of the interval, where a bound that is off by one ulp or an
        inclusive comparison that should be strict would misjudge it.
        """
        rng = np.random.default_rng(seed)
        size = 64
        rho_lo = float(rng.uniform(0.0, 0.99999))
        rho_hi = min(0.99999, rho_lo + 2.0**log_width)
        x1, w = rng.standard_normal(size), rng.standard_normal(size)

        def latent(rho):
            return rho * x1 + math.sqrt(1.0 - rho * rho) * w

        end = np.where(rng.random(size) < 0.5, latent(rho_lo), latent(rho_hi))
        for _ in range(abs(edge_ulps)):
            end = np.nextafter(end, math.copysign(math.inf, edge_ulps))
        lo = np.where(rng.random((2, size)) < 0.5, end, end - rng.exponential(0.01, (2, size)))
        hi = np.where(rng.random((2, size)) < 0.5, end, lo + rng.exponential(0.01, (2, size)))
        lo, hi = np.minimum(lo, hi), np.maximum(lo, hi)
        keep = _undecided(x1, w, (None, lo, hi), rho_lo, rho_hi)
        rhos = [rho_lo, rho_hi, 0.5 * (rho_lo + rho_hi), math.nextafter(rho_lo, 1.0), math.nextafter(rho_hi, 0.0)]
        rhos += rng.uniform(rho_lo, rho_hi, 20).tolist()
        decided, first = ~keep, latent(rho_lo)
        for rho in rhos:
            if not rho_lo <= rho <= rho_hi:
                continue
            x = latent(rho)
            for lo_k, hi_k in zip(lo, hi):
                assert np.array_equal((x > lo_k)[decided], (first > lo_k)[decided])
                assert np.array_equal((x > hi_k)[decided], (first > hi_k)[decided])
                assert not (((x > lo_k) & (x <= hi_k)) & decided).any()

    def test_not_achievable_error_matches(self):
        sizes = {"n_pairs": 300, "n_per_pair": 80}
        with pytest.raises(ValueError, match="not achievable") as expected:
            _ndtr_latent_rho(0.9, (0.05, 0.5), substream(9, "sim-ii-ld"), **sizes)
        with pytest.raises(ValueError, match="not achievable") as got:
            _latent_rho_for_target(0.9, (0.05, 0.5), substream(9, "sim-ii-ld"), **sizes)
        assert str(got.value) == str(expected.value)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        target=st.floats(0.05, 0.6),
        maf_low=st.sampled_from([1e-6, 1e-4, 1e-2, 0.05, 0.2]),
        maf_width=st.floats(0.0, 1.0),
        n_pairs=st.integers(1, 2 * _CALIBRATION_BLOCK + 100).filter(lambda k: k % _CALIBRATION_BLOCK),
        n_per_pair=st.integers(20, 400),
    )
    @example(seed=3, target=0.6, maf_low=1e-6, maf_width=0.0, n_pairs=7, n_per_pair=30)
    @example(seed=9, target=0.9, maf_low=0.05, maf_width=1.0, n_pairs=301, n_per_pair=80)
    def test_exact_sums_match_ndtr_bisection(self, seed, target, maf_low, maf_width, n_pairs, n_per_pair):
        """The certified exact-sum measure steers the bisection exactly as the float one does.

        Either both give the same coefficient, or both find the target not
        achievable with the same message. Where the calibration finds no
        usable pair at some step, the reference meets the same step and
        averages an empty slice.
        """
        maf_range = (maf_low, maf_low + maf_width * (0.5 - maf_low))
        sizes = {"n_pairs": n_pairs, "n_per_pair": n_per_pair}
        got = _outcome(_latent_rho_for_target, target, maf_range, substream(seed, "sim-ii-ld"), **sizes)
        if got[0] == "no usable pair":
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                _outcome(_ndtr_latent_rho, target, maf_range, substream(seed, "sim-ii-ld"), **sizes)
            assert "Mean of empty slice" in [str(w.message) for w in caught]
            return
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            expected = _outcome(_ndtr_latent_rho, target, maf_range, substream(seed, "sim-ii-ld"), **sizes)
        assert got == expected

    @pytest.mark.parametrize("seed", range(1, 6))
    def test_default_calibration_never_needs_the_float_measure(self, monkeypatch, seed):
        """At default sizes the exact-sum mean is never within the error bound of the target."""
        calls = _count_calls(monkeypatch, "_mean_dosage_correlation")
        rho = _latent_rho_for_target(0.4, (0.05, 0.5), substream(seed, "sim-ii-ld"))
        assert rho == _ndtr_latent_rho(0.4, (0.05, 0.5), substream(seed, "sim-ii-ld"))
        assert calls[0] == 0

    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_plateau_targets_are_decided_by_the_float_measure(self, monkeypatch, ulps):
        """A target on a step's value, or an ulp off it, is within the bound: the float measure decides."""
        sizes = {"n_pairs": 300, "n_per_pair": 120}
        measured = _ndtr_measured((0.05, 0.5), substream(21, "sim-ii-ld"), **sizes)
        target = measured(_ndtr_latent_rho(0.4, (0.05, 0.5), substream(21, "sim-ii-ld"), **sizes) + 2.0**-40)
        for _ in range(abs(ulps)):
            target = math.nextafter(target, math.copysign(math.inf, ulps))
        calls = _count_calls(monkeypatch, "_mean_dosage_correlation")
        rho = _latent_rho_for_target(target, (0.05, 0.5), substream(21, "sim-ii-ld"), **sizes)
        assert rho == _ndtr_latent_rho(target, (0.05, 0.5), substream(21, "sim-ii-ld"), **sizes)
        assert calls[0] >= 1

    @pytest.mark.filterwarnings("error")
    def test_no_usable_pair_fails_fast(self):
        """With no pair of two varying variants the mean is undefined: a named error, no numpy warning."""
        with pytest.raises(ValueError) as err:
            _latent_rho_for_target(0.4, (1e-5, 2e-5), substream(2, "sim-ii-ld"))
        assert str(err.value) == (
            "ld_decay=0.4 cannot be calibrated: none of the calibration's 1500 variant pairs has two "
            "varying dosage columns at latent coefficient 0.499995 for allele frequencies in (1e-05, 2e-05)"
        )

    def test_peak_traced_memory_stays_below_the_float_calibration(self):
        """One default calibration's tracemalloc peak is at most the float-sum calibration's.

        The float-sum calibration, which recentred every changed pair in
        floats, peaked at 14.59 MiB at seed 1 (numpy 2.4); study II's
        peak RSS is set here.
        """
        rng = substream(1, "sim-ii-ld")
        tracemalloc.start()
        try:
            _latent_rho_for_target(0.4, (0.05, 0.5), rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 14.59 * 2**20


def _outcome(fn, *args, **kwargs):
    """``fn``'s result, its ValueError's text, or "no usable pair" for the calibration's empty-mean error."""
    try:
        return ("value", fn(*args, **kwargs))
    except ValueError as exc:
        if "cannot be calibrated" in str(exc):
            return ("no usable pair",)
        return ("error", str(exc))


def _count_calls(monkeypatch, name):
    """Count the calls to ``bfdr.simulation``'s function ``name``, which keeps working."""
    calls, fn = [0], getattr(bfdr.simulation, name)

    def counting(*args):
        calls[0] += 1
        return fn(*args)

    monkeypatch.setattr(bfdr.simulation, name, counting)
    return calls


class TestScore:
    @staticmethod
    def _truth():
        return np.array([True, False, True, False, False])

    @staticmethod
    def _mask(*ids):
        return np.array([i in ids for i in "abcde"])

    def test_mixed_rejections(self):
        rep = score(self._mask("a", "b"), self._truth())
        assert rep.fdp == pytest.approx(1 / 2)
        assert rep.fnp == pytest.approx(1 / 3)  # "c" missed among 3 kept
        assert rep.n_rejected == 2
        assert rep.n_true_alt == 2

    def test_empty_rejection(self):
        rep = score(self._mask(), self._truth())
        assert rep.fdp == 0.0
        assert rep.fnp == pytest.approx(2 / 5)

    def test_reject_all(self):
        rep = score(self._mask(*"abcde"), self._truth())
        assert rep.fdp == pytest.approx(3 / 5)
        assert rep.fnp == 0.0

    def test_accepts_objects_with_rejected_attr(self):
        class Dummy:
            rejected = TestScore._mask("a", "c")

        rep = score(Dummy(), self._truth())
        assert rep.fdp == 0.0
        assert rep.fnp == 0.0

    def test_unknown_id_rejected(self):
        """A mask that does not align with the truth is refused."""
        with pytest.raises(ValueError, match="does not align"):
            score(np.array([True, False]), self._truth())
