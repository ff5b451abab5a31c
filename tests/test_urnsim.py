import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from scipy import stats

from skbeta import betadist, urnsim
from skbeta.errors import InsufficientDataError
from skbeta.urnsim import (
    SimResult,
    UrnConfig,
    empirical_tail_slope,
    predicted_b,
    run,
    sim_block,
    sim_csv,
    tv_distance_to_limit,
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            UrnConfig(k0=0)
        with pytest.raises(ValueError):
            UrnConfig(k0=1, a_shift=-1.0)
        with pytest.raises(ValueError, match="finite"):
            UrnConfig(k0=1, a_shift=math.inf)  # every pick would be inf - inf
        with pytest.raises(ValueError):
            UrnConfig(alpha=1.5)
        with pytest.raises(ValueError):
            UrnConfig(steps=-1)
        with pytest.raises(ValueError):
            UrnConfig(seed=2**64)

    def test_degenerate_endpoints_allowed(self):
        UrnConfig(alpha=0.0)
        UrnConfig(alpha=1.0)
        UrnConfig(steps=0)

    def test_steps_bounded_by_int32_ball_indices(self):
        # only the configs are built: neither is run
        UrnConfig(steps=2**31 - 1)
        for steps in (2**31, 3_000_000_000):
            with pytest.raises(ValueError, match="steps"):
                UrnConfig(alpha=1.0, steps=steps)

    def test_sizes_bounded_by_int64(self):
        # the largest urn can hold k0 + steps balls
        UrnConfig(k0=2**63 - 11, steps=10)
        UrnConfig(k0=3_000_000_000, steps=10)
        for k0, steps in ((2**63 - 10, 10), (2**63 - 3, 10), (10**20, 0)):
            with pytest.raises(ValueError, match="k0 \\+ steps"):
                UrnConfig(k0=k0, steps=steps)


class TestRun:
    def test_zero_steps(self):
        res = run(UrnConfig(k0=3, steps=0, seed=5))
        assert res.urn_sizes == (3,)
        assert res.empirical_pmf == {3: 1.0}

    def test_alpha_one_creates_every_step(self):
        res = run(UrnConfig(k0=2, alpha=1.0, steps=25, seed=1))
        assert res.n_urns == 26
        assert set(res.urn_sizes) == {2}

    def test_alpha_zero_single_absorbing_urn(self):
        res = run(UrnConfig(k0=1, alpha=0.0, steps=100, seed=1))
        assert res.n_urns == 1
        assert res.urn_sizes == (101,)

    def test_fixed_seed_bit_identical(self):
        cfg = UrnConfig(k0=1, alpha=0.4, a_shift=0.5, steps=5000, seed=99)
        assert run(cfg) == run(cfg)

    def test_different_seeds_differ(self):
        base = dict(k0=1, alpha=0.4, steps=2000)
        assert run(UrnConfig(seed=1, **base)) != run(UrnConfig(seed=2, **base))

    @pytest.mark.parametrize("seed", [0, 7, 123])
    def test_ball_conservation(self, seed):
        cfg = UrnConfig(k0=3, alpha=0.3, steps=4000, seed=seed)
        res = run(cfg)
        t_new = res.n_urns - 1
        t_attach = cfg.steps - t_new
        assert res.total_balls == cfg.k0 + t_new * cfg.k0 + t_attach
        assert sum(res.urn_sizes) == res.total_balls

    def test_sizes_never_below_k0(self):
        res = run(UrnConfig(k0=4, alpha=0.5, steps=3000, seed=3))
        assert min(res.urn_sizes) == 4

    def test_sizes_are_one_read_only_int64_array(self):
        res = run(UrnConfig(k0=2, alpha=0.4, steps=500, seed=8))
        assert res.sizes.dtype == np.int64 and not res.sizes.flags.writeable
        assert res.urn_sizes == tuple(res.sizes.tolist())
        assert res.total_balls == sum(res.urn_sizes) and type(res.total_balls) is int
        with pytest.raises(ValueError):
            res.sizes[0] = 0

    def test_from_sizes_copies_a_writable_array(self):
        sizes = np.array([1, 2, 2])
        res = SimResult.from_sizes(sizes)
        sizes[0] = 5
        assert res.urn_sizes == (1, 2, 2)
        assert res.empirical_pmf == {1: 1 / 3, 2: 2 / 3}

    def test_counts_start_at_the_smallest_size(self):
        # counting from 0 would ask for ~24 GB here
        res = SimResult.from_sizes([3_000_000_004, 3_000_000_001, 3_000_000_004])
        assert res.empirical_pmf == {3_000_000_001: 1 / 3, 3_000_000_004: 2 / 3}
        res = run(UrnConfig(k0=3_000_000_000, steps=10, seed=0))
        assert min(res.empirical_pmf) >= 3_000_000_000
        assert res.total_balls == 3_000_000_000 * res.n_urns + 11 - res.n_urns

    def test_pmf_sums_to_one(self):
        res = run(UrnConfig(k0=1, alpha=0.5, steps=10_000, seed=21))
        assert math.fsum(res.empirical_pmf.values()) == pytest.approx(1.0, abs=1e-12)


def reference_run(config: UrnConfig) -> tuple[int, ...]:
    """The urn one step at a time, reading the PCG64 stream as ``run`` must:
    a decision uniform per step (create below alpha) and, on attach steps, a
    pick uniform over U (k0 + a_shift) + (added balls)."""
    rng = np.random.Generator(np.random.PCG64(config.seed))
    k0, alpha, base = config.k0, config.alpha, config.k0 + config.a_shift
    sizes = [k0]
    owners: list[int] = []  # the urn of each ball an attach step added
    for _ in range(config.steps):
        if rng.random() < alpha:
            sizes.append(k0)
            continue
        n = len(sizes)
        urn_mass = n * base
        v = rng.random() * (urn_mass + len(owners))
        if v < urn_mass:
            i = min(int(v / base), n - 1)
        else:
            i = owners[min(int(v - urn_mass), len(owners) - 1)]
        sizes[i] += 1
        owners.append(i)
    return tuple(sizes)


class TestReplaysReference:
    """``run`` draws the stream in chunks and resolves them with arrays; it
    must give the reference's sizes exactly, across every chunk seam."""

    @pytest.mark.parametrize("k0, a_shift", [(1, -0.75), (1, 0.5), (2, -1.5), (2, 1.0), (3, -2.75), (3, 2.5)])
    def test_grid(self, monkeypatch, k0, a_shift):
        # a 7-uniform chunk ends on an attach decision often, so its pick
        # is drawn across the seam many times per run
        monkeypatch.setattr(urnsim, "_CHUNK", 7)
        for alpha in (0.0, 0.3, 0.9, 1.0):
            for steps in (0, 1, 2, 37, 1000):
                for seed in (0, 1, 2024):
                    cfg = UrnConfig(k0=k0, a_shift=a_shift, alpha=alpha, steps=steps, seed=seed)
                    assert run(cfg).urn_sizes == reference_run(cfg), cfg

    @pytest.mark.parametrize("k0, a_shift", [(1, -0.75), (2, 1.0), (3, -2.75)])
    def test_grid_chunk_64(self, monkeypatch, k0, a_shift):
        # a 64-uniform chunk often holds more steps than the run has left, so
        # the last chunk's steps and attach steps are cut at ``left``
        monkeypatch.setattr(urnsim, "_CHUNK", 64)
        for alpha in (0.0, 0.3, 0.9, 1.0):
            for steps in (1, 2, 31, 32, 33, 37, 100, 1000):
                for seed in (0, 1, 2024):
                    cfg = UrnConfig(k0=k0, a_shift=a_shift, alpha=alpha, steps=steps, seed=seed)
                    assert run(cfg).urn_sizes == reference_run(cfg), cfg

    @pytest.mark.parametrize("a_shift, alpha", [(0.0, 0.5), (-0.5, 0.1)])
    def test_many_full_chunks(self, a_shift, alpha):
        cfg = UrnConfig(k0=1, a_shift=a_shift, alpha=alpha, steps=100_000, seed=5)
        # a step draws 2 - alpha uniforms on average: the run needs 4 or more chunks
        assert cfg.steps * (2 - alpha) > 4 * urnsim._CHUNK
        assert run(cfg).urn_sizes == reference_run(cfg)


def exact_size_law(cfg: UrnConfig) -> dict[tuple[int, ...], float]:
    """The probability of each ``urn_sizes`` tuple after ``cfg.steps`` steps,
    by enumerating every path: create with probability alpha, else attach to
    urn i with probability (k_i + a) / (B + a U)."""
    law = {(cfg.k0,): 1.0}
    for _ in range(cfg.steps):
        nxt: Counter = Counter()
        for sizes, p in law.items():
            nxt[sizes + (cfg.k0,)] += p * cfg.alpha
            total = sum(sizes) + cfg.a_shift * len(sizes)
            for i, k in enumerate(sizes):
                grown = sizes[:i] + (k + 1,) + sizes[i + 1 :]
                nxt[grown] += p * (1 - cfg.alpha) * (k + cfg.a_shift) / total
        law = dict(nxt)
    return law


class TestSamplingLaw:
    @pytest.mark.parametrize(
        "k0, a_shift, alpha, steps",
        [(1, -0.5, 0.5, 5), (2, 1.5, 0.3, 5), (3, -2.5, 0.4, 5), (1, 0.0, 0.5, 4)],
    )
    def test_small_run_matches_exact_law(self, k0, a_shift, alpha, steps):
        law = exact_size_law(UrnConfig(k0=k0, a_shift=a_shift, alpha=alpha, steps=steps))
        runs = 20_000
        seen = Counter(
            run(UrnConfig(k0=k0, a_shift=a_shift, alpha=alpha, steps=steps, seed=seed)).urn_sizes
            for seed in range(runs)
        )
        assert set(seen) <= set(law)
        # Pearson chi-square; outcomes expected fewer than 5 times share one cell
        rare = [x for x, p in law.items() if p * runs < 5]
        cells = [(seen[x], p * runs) for x, p in law.items() if p * runs >= 5]
        if rare:
            cells.append((sum(seen[x] for x in rare), sum(law[x] for x in rare) * runs))
        chi2 = sum((o - e) ** 2 / e for o, e in cells)
        df = len(cells) - 1
        assert df >= 8
        assert chi2 < stats.chi2.ppf(0.999, df)

    @pytest.mark.parametrize("a_shift, digest", [(-0.5, "6eefb34deee01a2f"), (1.5, "fddb2851cd797848")])
    def test_pinned_trajectory(self, a_shift, digest):
        # a change of the sampler's trajectories must be deliberate: update
        # these digests only together with a note on why sizes moved
        res = run(UrnConfig(k0=1, a_shift=a_shift, alpha=0.3, steps=3000, seed=2024))
        assert hashlib.sha256(repr(res.urn_sizes).encode()).hexdigest()[:16] == digest


class TestPredictedB:
    def test_classic_simon(self):
        assert predicted_b(UrnConfig(k0=1, a_shift=0.0, alpha=0.5)) == 3.0

    def test_pure_yule_limit(self):
        assert predicted_b(UrnConfig(k0=1, a_shift=0.0, alpha=1e-9)) == pytest.approx(
            2.0, abs=1e-8
        )

    def test_shifted_attachment(self):
        assert predicted_b(UrnConfig(k0=1, a_shift=1.0, alpha=0.5)) == 4.0

    @pytest.mark.parametrize(
        "k0, a_shift, alpha",
        [(2, -1.0, 0.5), (2, 1.0, 0.3), (3, -1.5, 0.7), (3, 2.0, 0.5), (5, -2.5, 0.3), (5, 1.0, 0.5)],
    )
    def test_general_k0_matches_simulation(self, k0, a_shift, alpha):
        cfg = UrnConfig(k0=k0, a_shift=a_shift, alpha=alpha, steps=2_000_000, seed=3)
        res = run(cfg)
        b = predicted_b(cfg)
        assert b == pytest.approx(2 + alpha * (k0 + a_shift) / (1 - alpha), rel=1e-15)
        tv = tv_distance_to_limit(res, cfg, b)
        assert tv < 0.005
        for other in (b - 0.25, b + 0.25):
            assert tv_distance_to_limit(res, cfg, other) > tv

    def test_alpha_open_interval(self):
        with pytest.raises(ValueError):
            predicted_b(UrnConfig(k0=1, alpha=0.0))


class TestLimitAgreement:
    def test_reference_run_tv(self, simon_run):
        cfg, res = simon_run
        b = predicted_b(cfg)
        assert b == 3.0
        assert tv_distance_to_limit(res, cfg, b) < 0.02

    def test_tv_decreases_with_steps(self):
        tvs = []
        for steps in (10_000, 100_000, 200_000):
            cfg = UrnConfig(k0=1, a_shift=0.0, alpha=0.5, steps=steps, seed=42)
            tvs.append(tv_distance_to_limit(run(cfg), cfg, 3.0))
        assert tvs[0] > tvs[1] > tvs[2]

    def test_two_seeds_close(self, simon_run):
        cfg, res = simon_run
        other = run(UrnConfig(k0=1, a_shift=0.0, alpha=0.5, steps=cfg.steps, seed=43))
        support = set(res.empirical_pmf) | set(other.empirical_pmf)
        tv = 0.5 * math.fsum(
            abs(res.empirical_pmf.get(k, 0.0) - other.empirical_pmf.get(k, 0.0))
            for k in support
        )
        assert tv < 0.05

    def test_shifted_attachment_matches_limit(self):
        cfg = UrnConfig(k0=1, a_shift=1.0, alpha=0.5, steps=100_000, seed=7)
        res = run(cfg)
        assert predicted_b(cfg) == 4.0
        assert tv_distance_to_limit(res, cfg) < 0.02


    def test_negative_shift_matches_limit(self):
        cfg = UrnConfig(k0=1, a_shift=-0.5, alpha=0.5, steps=100_000, seed=7)
        assert predicted_b(cfg) == 2.5
        assert tv_distance_to_limit(run(cfg), cfg) < 0.02


def reference_tv(result: SimResult, config: UrnConfig, b: float) -> float:
    """The TV distance one k at a time, with the pmf from a ``Counter`` of
    the sizes: ``tv_distance_to_limit`` must equal it to the bit."""
    n = len(result.urn_sizes)
    pmf = {k: c / n for k, c in Counter(result.urn_sizes).items()}
    ks = range(config.k0, max(pmf) + 1)
    acc = []
    limit_mass = 0.0
    for k, pk in zip(ks, betadist.urn_limit_pmfs(ks, config.k0, config.a_shift, b)):
        limit_mass += pk
        acc.append(abs(pmf.get(k, 0.0) - pk))
    return 0.5 * (math.fsum(acc) + max(1.0 - limit_mass, 0.0))


def reference_tail_slope(result: SimResult, k_min: int) -> float:
    """The tail slope binned from every urn, with the count-weighted line
    fitted by the centred normal equations."""
    sizes = np.array(result.urn_sizes)
    tail = sizes[sizes >= k_min]
    edges = [int(e) for e in urnsim._log_bin_edges(k_min, int(tail.max()))]
    counts = np.bincount(np.searchsorted(edges, tail, side="right") - 1).tolist()
    xs, ys, ws = [], [], []
    for j, c in enumerate(counts):
        if c:
            lo, hi = edges[j], edges[j + 1]
            xs.append(math.log(math.sqrt(lo * (hi - 1)) if hi - 1 > lo else float(lo)))
            ys.append(math.log(c / (sizes.size * (hi - lo))))
            ws.append(float(c))
    x, y, w = np.array(xs), np.array(ys), np.array(ws)
    xc = x - (w @ x) / w.sum()
    yc = y - (w @ y) / w.sum()
    return float((w * xc) @ yc / ((w * xc) @ xc))


class TestReferences:
    """The table-based TV distance and tail slope against per-k and per-urn references."""

    @pytest.mark.parametrize("k0", [1, 2, 3])
    @pytest.mark.parametrize("sign", [-1, 1])
    @pytest.mark.parametrize("steps", [20_000, 200_000])
    def test_seeded_runs(self, k0, sign, steps):
        cfg = UrnConfig(k0=k0, a_shift=sign * 0.5 * k0, alpha=0.4, steps=steps, seed=steps + k0)
        res = run(cfg)
        b = predicted_b(cfg)
        for other in (b, b + 0.25):
            assert tv_distance_to_limit(res, cfg, other) == reference_tv(res, cfg, other)
        for k_min in (3, 10):
            ref = reference_tail_slope(res, k_min)
            assert empirical_tail_slope(res, k_min) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_sizes_below_k0_are_left_out_of_the_tv(self):
        res = SimResult.from_sizes([1, 2, 2, 3, 5, 5, 9])
        cfg = UrnConfig(k0=2, alpha=0.5)
        assert tv_distance_to_limit(res, cfg, 3.0) == reference_tv(res, cfg, 3.0)


def counter_truth(sizes) -> tuple[int, int, dict[int, float]]:
    """``n_urns``, ``total_balls`` and the pmf of a size list, by ``Counter``."""
    counter = Counter(sizes)
    n = len(sizes)
    return n, sum(sizes), {k: counter[k] / n for k in sorted(counter)}


class TestCountTable:
    """``ks`` and ``counts`` hold what a ``Counter`` of the sizes holds."""

    @pytest.mark.parametrize(
        "sizes",
        [
            [3_000_000_004, 3_000_000_001, 3_000_000_004], [7], [2, 1, 2, 9, 1, 1], list(range(50, 0, -3)) * 4,
            [2**62, 2**62 + 1, 2**62],  # more balls than an int64 holds
        ],
    )
    def test_hand_made(self, sizes):
        self.check(SimResult.from_sizes(sizes), sizes)

    @pytest.mark.parametrize("k0, a_shift", [(1, 0.0), (2, -1.5), (3, 2.0)])
    def test_seeded_runs(self, k0, a_shift):
        res = run(UrnConfig(k0=k0, a_shift=a_shift, alpha=0.3, steps=30_000, seed=k0))
        self.check(res, list(res.urn_sizes))

    @staticmethod
    def check(res: SimResult, sizes: list[int]) -> None:
        n, total, pmf = counter_truth(sizes)
        assert (res.n_urns, res.total_balls, res.empirical_pmf) == (n, total, pmf)
        assert list(res.empirical_pmf) == list(pmf)  # ascending k
        assert type(res.n_urns) is int and type(res.total_balls) is int
        rows = [line.split(",") for line in sim_csv(res, UrnConfig()).splitlines()[1:]]
        assert {int(k): int(c) for k, c, _, _ in rows} == Counter(sizes)
        assert [float(f) for _, _, f, _ in rows] == list(pmf.values())
        # alpha = 0 has no limit law, so no TV runs over the hand-made k range
        assert f"max_size: {max(sizes)}\n" in sim_block(res, UrnConfig(alpha=0.0))

    def test_no_urn(self):
        with pytest.raises(ValueError, match="at least one urn"):
            SimResult.from_sizes(())

    def test_equality_is_equal_sizes(self):
        assert SimResult.from_sizes([2, 1, 2]) == SimResult.from_sizes(np.array([2, 1, 2]))
        assert SimResult.from_sizes([2, 1, 2]) != SimResult.from_sizes([2, 2, 1])


class TestTailSlope:
    def test_inverse_cube_oracle(self):
        rng = np.random.default_rng(99)
        ks = np.arange(1, 20_001)
        p = ks**-3.0
        p /= p.sum()
        sim = SimResult.from_sizes(rng.choice(ks, size=200_000, p=p))
        assert empirical_tail_slope(sim, 3) == pytest.approx(-3.0, abs=0.1)

    def test_reference_run_slope(self, simon_run):
        cfg, res = simon_run
        slope = empirical_tail_slope(res, 10)
        b = predicted_b(cfg)
        # the limit pmf decays as k**-b; equivalently 1 + rho for the
        # Yule-Simon parameterization rho = b - 1
        assert slope == pytest.approx(-b, rel=0.10)

    def test_flat_pmf_slope_zero(self):
        sim = SimResult.from_sizes(list(range(50, 151)) * 100)
        assert empirical_tail_slope(sim, 50) == pytest.approx(0.0, abs=0.05)

    def test_insufficient_tail(self):
        sim = SimResult.from_sizes([1, 1, 2, 2, 3])
        with pytest.raises(InsufficientDataError):
            empirical_tail_slope(sim, 1)

    def test_one_log_bin(self):
        # ten sizes within the first log bin above k_min
        sim = SimResult.from_sizes(range(10**6, 10**6 + 10))
        with pytest.raises(InsufficientDataError, match="only 1 nonempty log bins above k_min=1000000"):
            empirical_tail_slope(sim, 10**6)

    @pytest.mark.parametrize("k_min", [0, -1, -5000])
    def test_k_min_below_one(self, simon_run, k_min):
        # log bins cannot start at or below zero
        with pytest.raises(ValueError, match="k_min must be >= 1"):
            empirical_tail_slope(simon_run[1], k_min)


def test_sim_csv_and_block(simon_run):
    cfg, res = simon_run
    text = sim_csv(res, cfg, 3.0)
    lines = text.strip().splitlines()
    assert lines[0] == "k,count,frequency,limit_pmf"
    first = lines[1].split(",")
    assert first[0] == "1"
    assert float(first[3]) == pytest.approx(
        betadist.urn_limit_pmf(1, 1, 0.0, 3.0), rel=1e-12
    )
    block = sim_block(res, cfg)
    assert "predicted_b: 3.0" in block
    assert "tv_to_limit:" in block
