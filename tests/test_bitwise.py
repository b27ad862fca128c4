"""Bit-for-bit pins of the step kernel's draws and moments, of theta*, and of
theory's closed forms, bounds and diagnostics.

The goldens compare within 1e-12 relative and the stream tests compare the
generators with themselves, so neither notices a change that moves the last
bit of a draw or an iterate. These digests do: each is the SHA-256 of an
array's dtype, shape and bytes exactly as the kernel returns it.

numpy's vectorised exp, log, sin and cos may round differently on another
CPU or numpy build. The digests were recorded with numpy 2.4.6 on x86-64
with AVX-512, and MATH_DIGEST pins those functions themselves on fixed
inputs: when test_math_library_is_the_recorded_one fails too, the platform
differs, not the code.
"""

import hashlib
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from dsgd_lab.cli import build_noise, build_objective, build_topology, main, preset_config
from dsgd_lab.dynamics import (RunConfig, _Draws, _linearised_map, coupled_run, dsgd_step,
                               rr_run, run, run_chains, solve_fixed_point)
from dsgd_lab.noise import (_TAU_UNIT, AdditiveGaussian, Minibatch, NoiseStream,
                             _draw_blocks, _pick_index, _tau_sq_norms, sample_noise,
                             tau_squares)
from dsgd_lab.objectives import QuadraticObjectives, generate_logistic_problem
from dsgd_lab.stacked import StackedPoint
from dsgd_lab.stats import stationary_moments
from dsgd_lab.theory import (bound_diagnostics, det_bias_expansion, quad_exact_fixed_point,
                             recommend_schedule, rr_bias_bound, stochastic_bias_first_order,
                             theory_report)
from dsgd_lab.topology import build_clusters, build_fully_connected, build_ring


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def _math_inputs() -> np.ndarray:
    rng = np.random.default_rng(2026)
    return np.concatenate([np.linspace(-40.0, 40.0, 4001), rng.uniform(-800.0, 800.0, 4000),
                           rng.uniform(2.0**-53, 1.0, 4000)])


MATH_DIGEST = "11fab17d650126a4f21feb40e816b053ba231b6b375168d4ecdc7c546d82f62f"


def test_math_library_is_the_recorded_one():
    x = _math_inputs()
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        got = _digest(np.exp(x), np.log(np.abs(x)), np.sin(x), np.cos(x))
    assert got == MATH_DIGEST


# (seed, replicate, block)
TRIPLES = [(0, 0, 0), (12345, 7, 3)]
WIDTHS = [1, 2, 3, 5]

DRAW_DIGESTS = {
    ("normals_block", 1, (0, 0, 0)): "984daed1d211d622c57ca8b041ab2c1f2a0eaabd7d4717e08b026f4f800769d1",
    ("normals_block", 2, (0, 0, 0)): "c03d565cd747aa74fedfc72b0551babe995aa68050ffca88313a4b0d7473f5f1",
    ("normals_block", 3, (0, 0, 0)): "add3a7c6489336df3fafc96ce94034eb8d0aa512ce1a37a3a7a89475122a2aa7",
    ("normals_block", 5, (0, 0, 0)): "2e91a1eb326b0fbca9eb5a353f452581a7340666dc7a5f1ddd3cb6290fe358a6",
    ("normals_block", 1, (12345, 7, 3)): "5717303db45ec311962535545619c7e42c949c4bac81dbe72a63952691e62922",
    ("normals_block", 2, (12345, 7, 3)): "d627c51266f1cb64ba9d5fae4e70d6aac0bcdcd83088188b29975ccb93a1356d",
    ("normals_block", 3, (12345, 7, 3)): "9e56f8b98f077a4794c92b33aa1f9cfd0a55e8cf91d67d677122330271302cdd",
    ("normals_block", 5, (12345, 7, 3)): "aabcae84378b553efc8f9aae2031d62d2e6cc7160e0d39f2110edac4b7b4fc74",
    ("raw_block", 1, (0, 0, 0)): "894138aec075bd5b5eae5fe9ad10626c4fed3ca72be4fb4a73a286dd90d2e1fa",
    ("raw_block", 2, (0, 0, 0)): "414cdbf4fe80ffa0984ef783ac184e8b4d9199519a054eb0d1f677514517fcd3",
    ("raw_block", 3, (0, 0, 0)): "c7a5c36116154d3962f3f9f6fff3dc363d7b627a09463e0acd02f5ce857f6751",
    ("raw_block", 5, (0, 0, 0)): "9698dc39a3989b20ca70a77e1f8fdc4a09e6c087cf0bfd35c9e64745c08a29e7",
    ("raw_block", 1, (12345, 7, 3)): "5538136885fd83b3c34e4c002c9a00056e76b15613f5fcf85e7da24ab6655c6e",
    ("raw_block", 2, (12345, 7, 3)): "55004de70225dd1314e78f78abed48e5f4db7d3170bb303c0b4e3675b2dffcfe",
    ("raw_block", 3, (12345, 7, 3)): "f739eedbf1cdac8cbb5fee578fee179aa3b082b01a86e151016de0b035b0c606",
    ("raw_block", 5, (12345, 7, 3)): "b3e719cb8aea19b29c74465d18e5471e74580f7ccd37e63dc88d2a6761f363bf",
}


@pytest.mark.parametrize("lane", ["normals_block", "raw_block"])
@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("triple", TRIPLES, ids=lambda triple: "-".join(map(str, triple)))
def test_draw_block_is_pinned(lane, width, triple):
    seed, replicate, block = triple
    got = getattr(NoiseStream(seed, replicate), lane)(block, width)
    assert got.shape == (512, width)
    assert _digest(got) == DRAW_DIGESTS[lane, width, triple]


# (noise, m, d): m*d in {1, 6, 10}; T = 700 runs 600 steps past burn-in and
# crosses a 512-step block boundary
CASES = [(noise, m, d) for noise in ("gaussian", "minibatch")
         for m, d in ((1, 1), (2, 3), (5, 2))]

MOMENT_DIGESTS = {
    ("gaussian", 1, 1): {
        "stat_sum": "4ce23fc8c84759af0314af986c07db832f1744848a737e6a92d7bb042a35e368",
        "stat_outer": "5c40c497686b084470aa380810b2665df1a9e6f1844c159df1d2d6fb2d0feb50",
        "final": "120049e7b423d0045c5bc0a0de40e3e7f8cdbf2eb836de348ae739fdf52094fc",
    },
    ("gaussian", 2, 3): {
        "stat_sum": "8784b6194c5b857a51969a4dce1fb61791ec693f4d3de8833ab394f2d4787cd7",
        "stat_outer": "2e51b6591304e8196ec0947a79ac5efcaf1126a21cfd1b77541139f56809bbbe",
        "final": "0c0e3b9a4eb0068f12d9ee7cfeb817d188944da8707f8396f938c68cbfd7a0de",
    },
    ("gaussian", 5, 2): {
        "stat_sum": "ee4a39bfd064c1b8d2ea36422f77e551dd82e4a223f717d9ed5921654e6b6afd",
        "stat_outer": "c312232663927861cff58d179592afaf0d62efad781069fba9df6713d2e3d1e9",
        "final": "c069ee6537a395780f0f35eab1843a66e81af177936cfc8f05737ced1c92804d",
    },
    ("minibatch", 1, 1): {
        "stat_sum": "f9a5a13714453fb5a0fa6ea927830de1993b7fe5617574e95518f8ab79fc8bb1",
        "stat_outer": "3845745d253ddcb6ddaa36576acdc431ccba871e98d0f71858227eb44b0335e3",
        "final": "9f8fdef8cfcb4294b2d71f52ee30215d6807567a077b2984fa279a2cfb13c0da",
    },
    ("minibatch", 2, 3): {
        "stat_sum": "f23a6e4580319aa60ee1efe879159194d7c5523d5989753333c83689c6413a4b",
        "stat_outer": "02779ac27899e83fe9fac1a688f9357f522d58ec305694d1cf48e4a4e0c68aa3",
        "final": "ff29ea22e4e13e104899009af091d574a89860b1f38ec7a32c7d72e1ebdff78e",
    },
    ("minibatch", 5, 2): {
        "stat_sum": "cdd49c19d5c36d1fa3342687c5da25eb674dda3ab95c318c47c12548a6eb5d7c",
        "stat_outer": "38514e034044e827f3cd0f445c696c7d636264fa64539970002523070ae623a9",
        "final": "20903bebb8f54cdc600384e5cbf386a790ea834f5b67edd4b7b7789e7172b1c3",
    },
}


def _moments(noise, m, d):
    obj = generate_logistic_problem(m=m, n=8, d=d, seed=11)
    W = build_ring(m, 0.3) if m >= 3 else build_fully_connected(m)
    model = AdditiveGaussian.isotropic(m, d, 0.5) if noise == "gaussian" else Minibatch(3)
    cfg = RunConfig(algorithm="dsgd", gamma=0.5 / obj.L, T=700, seed=5, replicates=3,
                    burn_in=100, record_every=700)
    rec = run(W, obj, model, cfg, obj.theta_star_stacked)
    assert rec.stat_count == 600
    return rec.stat_sum, rec.stat_outer, rec.final


@pytest.mark.parametrize("case", CASES, ids=lambda case: "-".join(map(str, case)))
def test_run_moments_are_pinned(case):
    stat_sum, stat_outer, final = _moments(*case)
    got = {"stat_sum": _digest(stat_sum), "stat_outer": _digest(stat_outer),
           "final": _digest(final)}
    assert got == MOMENT_DIGESTS[case]


# minibatch rr_run, (coupling, m, d, b) with n = 8 samples per client: shared
# draws are keyed (1, R, m, n) and broadcast over the gamma and gamma/2
# chains, independent ones (2, R, m, n); b = 1 and b = n are the edges of
# the selection
RR_CASES = [("shared", 3, 2, 3), ("independent", 3, 2, 3), ("shared", 2, 3, 1),
            ("independent", 2, 3, 8), ("shared", 4, 5, 8), ("independent", 1, 4, 1)]

RR_DIGESTS = {
    ("shared", 3, 2, 3): {
        "stat_sum": "2f1ac4fd4ed0e430b7cd3ff1bfd0056883bbceaa21c11a0b46c2d773287eac9f",
        "stat_outer": "6e9216a03ee9a53b32ddbde6116d275ab5a32701e4f80fea8a0bded63c29f164",
        "final": "0b9a53fae4775be1137ae2bbf61ce93b98587d5b28ddb1813d34f1a3dc9332d6",
    },
    ("independent", 3, 2, 3): {
        "stat_sum": "be6aa3ebcee6ceec0599dfcab41aa55e4a1a7453b11fef446fff90f26d17ef45",
        "stat_outer": "323c0f1a2018094ed56b95737fb84f175af1e39c3f40520d7c6cf7f514933112",
        "final": "4a4eac0ac0ee08c2e87f9a7f3a5c74bc8d51b50f038bbefd7ae545d580a34c7a",
    },
    ("shared", 2, 3, 1): {
        "stat_sum": "d274283b26dc6a97b730e47bc6b64a8f3c0cddc104050accd8e33d7185c1a4dc",
        "stat_outer": "104a72b34521dec76ca7d21f317d9f8d6ad4d81a6047be36872b904463fbede3",
        "final": "591b7f2a933a7555243cd364cd79dfb17dda81de470d3ce50d44cac5642551a1",
    },
    ("independent", 2, 3, 8): {
        "stat_sum": "d2880ebefd735baba37c2c3401f9ff15e0d728fc9fa779d896febd2af4f82335",
        "stat_outer": "9872a29c4395aab32fce1e61b7c30125d228784ab8b34efe7e8e8f075e7e87bc",
        "final": "2ffc553b606ae8ed8f0c2314fe396dbd0adcf1686ae4253db53cad8027480c65",
    },
    ("shared", 4, 5, 8): {
        "stat_sum": "b1f2e6b644c07409cbb849ccd6223600e174fdb4e25ef4178a20dffa95adf6fa",
        "stat_outer": "a48ba0875a3170df6e749c2773a10d866bc188bfccf7b1fec02bbafab8155450",
        "final": "86efb4b470163cae0b18c22225885ed40f744310b698c58271406a7e9028e183",
    },
    ("independent", 1, 4, 1): {
        "stat_sum": "34e7382f85b645938447ceae42139862e2565b0189c23efefb64e2e0be74cd55",
        "stat_outer": "9c587241e6038469806547184600502252e95caf38f34a70dbede1a9192644ef",
        "final": "fa6f594fa730a94eacd544218eae3a2adcc83fdda2904552f472fc8c9c38e70d",
    },
}


def _rr_moments(coupling, m, d, b):
    obj = generate_logistic_problem(m=m, n=8, d=d, seed=13)
    W = build_ring(m, 0.3) if m >= 3 else build_fully_connected(m)
    cfg = RunConfig(algorithm="rr_dsgd", gamma=0.5 / obj.L, T=700, seed=7, replicates=3,
                    burn_in=100, record_every=700, coupling=coupling)
    rec = rr_run(W, obj, Minibatch(b), cfg, obj.theta_star_stacked)
    assert rec.stat_count == 600
    return rec.stat_sum, rec.stat_outer, rec.final


@pytest.mark.parametrize("case", RR_CASES, ids=lambda case: "-".join(map(str, case)))
def test_rr_run_moments_are_pinned(case):
    stat_sum, stat_outer, final = _rr_moments(*case)
    got = {"stat_sum": _digest(stat_sum), "stat_outer": _digest(stat_outer),
           "final": _digest(final)}
    assert got == RR_DIGESTS[case]


# theta* of the presets' problems and of the fig2-heterogeneous data seeds
# whose Newton solve once stalled in its line search
OPTIMUM_CASES = [("preset", name) for name in
                 ("fig1-rr-det", "fig1-rr-sto", "fig2-heterogeneous", "fig2-homogeneous")]
OPTIMUM_CASES += [("fig2-heterogeneous-seed", seed) for seed in (8, 20, 39)]

OPTIMUM_DIGESTS = {
    ("preset", "fig1-rr-det"): "fce6da90bc4c886c5131b2d64baef14e868712b4f86abaf5cf2038f5a6e900e9",
    ("preset", "fig1-rr-sto"): "fce6da90bc4c886c5131b2d64baef14e868712b4f86abaf5cf2038f5a6e900e9",
    ("preset", "fig2-heterogeneous"): "fce6da90bc4c886c5131b2d64baef14e868712b4f86abaf5cf2038f5a6e900e9",
    ("preset", "fig2-homogeneous"): "41883f44e835b6a008cfe443377eb9cc2f4ca13a6b9164178610b2ea52984674",
    ("fig2-heterogeneous-seed", 8): "29eb53cb4ba42b15e874080a1bf1db4482310fff0c2fd0917e0f92b5886e7187",
    ("fig2-heterogeneous-seed", 20): "00c7b1c50483c1d6cc625bb45ece441e8e525254927d2dc4139fd785e3856be2",
    ("fig2-heterogeneous-seed", 39): "54cab6581cc50bfe9823850630f8026733a4db30b90234ad20b39995ab467fb8",
}


def _optimum_problem(kind, value):
    if kind == "preset":
        cfg = preset_config(value)
    else:
        cfg = preset_config("fig2-heterogeneous")
        cfg.set("objective", "seed", value)
    return build_objective(cfg, cfg.get("topology", "m"))


@pytest.mark.parametrize("case", OPTIMUM_CASES, ids=lambda case: "-".join(map(str, case)))
def test_theta_star_is_pinned(case):
    assert _digest(_optimum_problem(*case).theta_star) == OPTIMUM_DIGESTS[case]


# the tau pass: (tau_2^2, tau_4^2) and the per-draw squared norms it is
# formed from, on predict's fig2-heterogeneous problem at its 20,000 draws
# (m=12, n=50, d=2, b=10) and on a d=3, b=8 problem whose last block is
# partial
TAU_CASES = [("fig2-heterogeneous", 20_000), ("d3-b8", 1_300)]

TAU_DIGESTS = {
    "fig2-heterogeneous": {
        "tau_squares": "6cb83f4baf3ec7c30e125f7cceac9e61fd7527166c730d6b85a0708c0e10d1f8",
        "sq_norms": "a5518d4ca447d8cb79262848293e807a84b0d6c6dcb4668f4e3488d057d3eb7e",
    },
    "d3-b8": {
        "tau_squares": "69842fb19e4363776f51e1b1b187f2d45bf77892b730c70356bc0ce634ad6fb3",
        "sq_norms": "5d8413879c64c75e5061f0daf89ae830d2b93f0d3b4ff44a434a52448ea7bb3a",
    },
}


def _tau_problem(name):
    if name == "fig2-heterogeneous":
        cfg = preset_config(name)
        return build_objective(cfg, cfg.get("topology", "m")), Minibatch(cfg.get("noise", "batch_size"))
    return generate_logistic_problem(m=4, n=20, d=3, seed=17), Minibatch(8)


@pytest.mark.parametrize("case", TAU_CASES, ids=lambda case: case[0])
def test_tau_pass_is_pinned(case):
    name, n_draws = case
    obj, model = _tau_problem(name)
    point = obj.theta_star_stacked
    got = {"tau_squares": _digest(np.array(tau_squares(model, obj, point, n_draws, seed=0))),
           "sq_norms": _digest(_tau_sq_norms(model, obj, point, n_draws, seed=0))}
    assert got == TAU_DIGESTS[name]


# minibatch sample_noise at a point away from theta*, over steps that cross
# a block boundary; n = 12, so b = 1, 8 and n are three different selections
SAMPLE_CASES = [(d, b) for d in (2, 3) for b in (1, 8, 12)]

SAMPLE_DIGESTS = {
    (2, 1): "44e127c4abc1d6f6ec5d2b5865208780b44996729490e8af4b0583bf965faf9b",
    (2, 8): "faf452cf4cfef3d00dcf06e19aac1d8b8e084d4519b89f30ab93916c6fc22105",
    (2, 12): "82bc5670a2542d78a2b8cd9d1791cbe2ea028764d086dd111232a15e90eff80a",
    (3, 1): "8688a1c04ea747d9974c30ae305482e2c80bf0d4cc64b95ae52c8fa53062c5a7",
    (3, 8): "a6c1e5629f22a73032bb7fd4e18e2b27f760acf99e386e3b4ce4f91c7ae5fdda",
    (3, 12): "4355bb97f140508eaf606017463f6fec407df52d795f58baae6f4259d45cd5f4",
}


@pytest.mark.parametrize("case", SAMPLE_CASES, ids=lambda case: "d{}-b{}".format(*case))
def test_minibatch_sample_noise_is_pinned(case):
    d, b = case
    obj = generate_logistic_problem(m=3, n=12, d=d, seed=19)
    rng = np.random.default_rng(23)
    point = StackedPoint(obj.m, d, obj.theta_star_stacked.data + rng.standard_normal((obj.m, d)))
    stream = NoiseStream(seed=29, replicate=2)
    eps = np.stack([sample_noise(Minibatch(b), obj, point, stream, t).data
                    for t in range(0, 700, 9)])
    assert _digest(eps) == SAMPLE_DIGESTS[case]



def _gaussian_model(m, d, seed):
    """Additive Gaussian noise with random full covariances, so that every
    factor S_k mixes all d coordinates."""
    A = np.random.default_rng(seed).standard_normal((m, d, d))
    C = A @ A.transpose(0, 2, 1) + 0.1 * np.eye(d)
    return AdditiveGaussian(C=0.5 * (C + C.transpose(0, 2, 1)))


# Gaussian sample_noise over steps that cross a block boundary
GAUSS_SAMPLE_CASES = [(m, d) for m in (1, 3) for d in (1, 2, 3, 5)]

GAUSS_SAMPLE_DIGESTS = {
    (1, 1): "4a5bf9ab7f99b24a4fbb4fc277f48d01b31d6bc48a59e92a6582645cbed10c6a",
    (1, 2): "bd7d073c9c27738baf4653b7aee87fcae075f778f4a17e2815807d4af05e8b7b",
    (1, 3): "fbefb61b810b28898c5e7032214527cc78571ad16d7502caa2bd21da8975958e",
    (1, 5): "431f829b87601beb76790b14ab1df15b969a85d2da9c24915ce1179f5f1e5558",
    (3, 1): "7301b47d3d035a0add02cd72a296b54bd5c036b3247781650374e024f3612443",
    (3, 2): "cc7baf3b955d755ce86f1331e9014eb96cb35213dd84e234454a2ea812602979",
    (3, 3): "716f30d81d1de61139e835a03a3303d18ae2627058064a7bb813e82e8337b1c4",
    (3, 5): "9b036949bfe15eb3a0bf33d4004e1b94a84b32c0534291621558124277c1d9e7",
}


@pytest.mark.parametrize("case", GAUSS_SAMPLE_CASES, ids=lambda case: "m{}-d{}".format(*case))
def test_gaussian_sample_noise_is_pinned(case):
    m, d = case
    obj = generate_logistic_problem(m=m, n=4, d=d, seed=19)
    model = _gaussian_model(m, d, 5)
    stream = NoiseStream(seed=29, replicate=2)
    eps = np.stack([sample_noise(model, obj, obj.theta_star_stacked, stream, t).data
                    for t in range(0, 700, 9)])
    assert _digest(eps) == GAUSS_SAMPLE_DIGESTS[case]


# the Gaussian tau pass (_tau_sq_norms' per-draw squared norms); the last
# block is partial at 1,300 and 1,100 draws. (m, d, n_draws)
GAUSS_TAU_CASES = [(1, 1, 600), (3, 2, 1_300), (4, 5, 1_100)]

GAUSS_TAU_DIGESTS = {
    (1, 1, 600): "8aa361063155721785bd8a346e057311ec90c6ecad24b6dd1c0c5847395ca1af",
    (3, 2, 1300): "6bd3b695a41d53c8f72033275a266cfe06f1e0b8f57388ab78db0db695860ff1",
    (4, 5, 1100): "b74cacf54547123a06411015793c54a38fe11070c8b2c41ff3c6c6743e497ba1",
}


@pytest.mark.parametrize("case", GAUSS_TAU_CASES, ids=lambda case: "m{}-d{}-{}".format(*case))
def test_gaussian_tau_pass_is_pinned(case):
    m, d, n_draws = case
    obj = generate_logistic_problem(m=m, n=4, d=d, seed=17)
    sq_norms = _tau_sq_norms(_gaussian_model(m, d, 11), obj, obj.theta_star_stacked,
                             n_draws, seed=3)
    assert _digest(sq_norms) == GAUSS_TAU_DIGESTS[case]


# the tau pass splits its units over one thread per usable CPU; every pin
# above holds at any worker count (1,300 and 1,100 draws end in a partial
# unit, 600 in a whole one)
@pytest.mark.parametrize("workers", [1, 2, 3])
def test_tau_pass_pins_hold_at_every_worker_count(monkeypatch, workers):
    monkeypatch.setattr("dsgd_lab.noise._usable_cpus", lambda: workers)
    monkeypatch.setattr("dsgd_lab.noise._MAX_TAU_WORKERS", workers)
    for name, n_draws in TAU_CASES:
        obj, model = _tau_problem(name)
        sq_norms = _tau_sq_norms(model, obj, obj.theta_star_stacked, n_draws, seed=0)
        assert _digest(sq_norms) == TAU_DIGESTS[name]["sq_norms"]
    for m, d, n_draws in GAUSS_TAU_CASES:
        obj = generate_logistic_problem(m=m, n=4, d=d, seed=17)
        sq_norms = _tau_sq_norms(_gaussian_model(m, d, 11), obj, obj.theta_star_stacked,
                                 n_draws, seed=3)
        assert _digest(sq_norms) == GAUSS_TAU_DIGESTS[m, d, n_draws]


def test_tau_pass_threads_share_the_bound_noise_under_frequent_switches(monkeypatch):
    # four workers read the one set of per-sample gradients at Theta*, with
    # the interpreter switching threads as often as it can
    monkeypatch.setattr("dsgd_lab.noise._usable_cpus", lambda: 4)
    monkeypatch.setattr("dsgd_lab.noise._MAX_TAU_WORKERS", 4)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for name, n_draws in TAU_CASES:
            obj, model = _tau_problem(name)
            sq_norms = _tau_sq_norms(model, obj, obj.theta_star_stacked, n_draws, seed=0)
            assert _digest(sq_norms) == TAU_DIGESTS[name]["sq_norms"]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("workers", [1, 2, 3])
def test_a_short_tau_pass_is_the_start_of_a_long_one(monkeypatch, workers):
    # one draw, and a pass that ends one draw into its third unit
    obj, model = _tau_problem("d3-b8")
    point = obj.theta_star_stacked
    monkeypatch.setattr("dsgd_lab.noise._usable_cpus", lambda: 1)
    long = _tau_sq_norms(model, obj, point, 1_300, seed=0)
    monkeypatch.setattr("dsgd_lab.noise._usable_cpus", lambda: workers)
    monkeypatch.setattr("dsgd_lab.noise._MAX_TAU_WORKERS", workers)
    for n_draws in (1, 2 * _TAU_UNIT + 1):
        got = _tau_sq_norms(model, obj, point, n_draws, seed=0)
        assert got.tobytes() == long[:n_draws].tobytes()


# dsgd_step from a point away from theta*, 30 steps across a block boundary:
# Gaussian noise on a quadratic and on a logistic objective, minibatch noise
# on a logistic one. (noise, objective, d)
STEP_CASES = [(noise, kind, d) for noise, kind in (("gaussian", "quadratic"),
                                                   ("gaussian", "logistic"),
                                                   ("minibatch", "logistic"))
              for d in (1, 2, 3, 5)]

STEP_DIGESTS = {
    ("gaussian", "quadratic", 1): "a6daf9fc59836f6f764dd27074d9e1a087fbcb08bd496553f74911b77648b2c4",
    ("gaussian", "quadratic", 2): "529f916d17a6014e5a8d1013d3d62f92c2057e91766b1a34d17d6d5ae694cdef",
    ("gaussian", "quadratic", 3): "2803bd285c258f7fad252b47754c89a89654517d20de919666c50b661fe55131",
    ("gaussian", "quadratic", 5): "1a45639ba5c127a9ef01a84bd3abd30ed6747332efe2822ae8b8fb9db9b7cdbb",
    ("gaussian", "logistic", 1): "c8ef8164625309b25ac38cbf2460d1c3a139968f71e990cbc6af34cb7376e4b2",
    ("gaussian", "logistic", 2): "5e9b62a5d68f174f4d945acb2619ef622bc847810622ed37aa7ed53c8d863a94",
    ("gaussian", "logistic", 3): "27b6e69562c3198c649910bd72c4a147bbce18fbd43198bbc136c9c7396b0fee",
    ("gaussian", "logistic", 5): "0a0e5c5fd7123d3479031f6cdfb0f5edcb4d6adc92ff078e7a2a23b3b22e7315",
    ("minibatch", "logistic", 1): "a9e627aeaac095f94ff57a3f512e085e1a20a1ca9a4f5f535cbc893e3be63b69",
    ("minibatch", "logistic", 2): "40ea64589563953198180e16bd0f789987e3dfacfa7389d73a0ba1487669fb99",
    ("minibatch", "logistic", 3): "46e456ab406fc714ce5715b2f669b70a1ded4a5fe2808f7ce501a23ee022b752",
    ("minibatch", "logistic", 5): "1a93c2cafab48830f4c3fe8e95270f1fee645866be5d864e794642e83b624213",
}


def _step_problem(kind, d):
    if kind == "logistic":
        return generate_logistic_problem(m=3, n=10, d=d, seed=37)
    rng = np.random.default_rng(37)
    A = rng.standard_normal((3, d, d))
    A = A @ A.transpose(0, 2, 1) + np.eye(d)
    return QuadraticObjectives(0.5 * (A + A.transpose(0, 2, 1)), rng.standard_normal((3, d)))


@pytest.mark.parametrize("case", STEP_CASES, ids=lambda case: "-".join(map(str, case)))
def test_dsgd_step_is_pinned(case):
    noise, kind, d = case
    obj = _step_problem(kind, d)
    model = _gaussian_model(3, d, 7) if noise == "gaussian" else Minibatch(4)
    W = build_ring(3, 0.3)
    start = obj.theta_star_stacked.data + np.random.default_rng(41).standard_normal((3, d))
    Theta, stream, path = StackedPoint(3, d, start), NoiseStream(seed=43, replicate=1), []
    for t in range(500, 530):
        Theta = dsgd_step(W, obj, model, 0.5 / obj.L, Theta, stream, t)
        path.append(Theta.data)
    assert _digest(np.stack(path)) == STEP_DIGESTS[case]

# Gaussian run at the AC10 shape (m = d = 1, n = 25, R = 128) over three
# 512-step blocks
AC10_DIGESTS = {
    "stat_sum": "7fc5d61c62d0520592e13d395e7d029fefbb42a62e33b33e36ae2e3ca1e46291",
    "stat_outer": "8896d8ae21150b2f29344a00fa500c86f777f946921fa38a9fc29e097d0f82ae",
    "final": "644db13d791957ba3ce77166822e0cd7021cd748f23814581f02167d7d9c1782",
}


# the same run at AC10's second step size
AC10_HALF_DIGESTS = {
    "stat_sum": "92197c65cba8a17ddafd6981e397664fa72d343917dc7826ffb85ccb2c44a59a",
    "stat_outer": "149d62a1bc55d440d3d86691ea76de2ce72cf3fcc0dfbc09be88776605043f6d",
    "final": "130da672e4d31459215ea4c0f7f5885bfa25fb0686d6228f7edd6656785d05df",
}


def _moment_digests(rec) -> dict:
    return {"stat_sum": _digest(rec.stat_sum), "stat_outer": _digest(rec.stat_outer),
            "final": _digest(rec.final)}


def _ac10_moments(gamma=0.1):
    obj = generate_logistic_problem(m=1, n=25, d=1, heterogeneity_spread=1.2,
                                    lambda_reg=0.1, seed=7)
    cfg = RunConfig(algorithm="dsgd", gamma=gamma, T=1100, seed=21, replicates=128,
                    burn_in=100, record_every=1100)
    rec = run(build_fully_connected(1), obj, AdditiveGaussian.isotropic(1, 1, 1.0), cfg,
              obj.theta_star_stacked)
    assert rec.stat_count == 1000
    return rec.stat_sum, rec.stat_outer, rec.final


def test_gaussian_run_at_the_ac10_shape_is_pinned():
    stat_sum, stat_outer, final = _ac10_moments()
    got = {"stat_sum": _digest(stat_sum), "stat_outer": _digest(stat_outer),
           "final": _digest(final)}
    assert got == AC10_DIGESTS


def test_gaussian_run_at_the_half_ac10_step_is_pinned():
    names = ("stat_sum", "stat_outer", "final")
    assert dict(zip(names, map(_digest, _ac10_moments(0.05)))) == AC10_HALF_DIGESTS


def test_both_ac10_step_sizes_as_chains_give_the_pinned_digests():
    obj = generate_logistic_problem(m=1, n=25, d=1, heterogeneity_spread=1.2,
                                    lambda_reg=0.1, seed=7)
    cfgs = [RunConfig(algorithm="dsgd", gamma=gamma, T=1100, seed=21, replicates=128,
                      burn_in=100, record_every=1100) for gamma in (0.1, 0.05)]
    W = build_fully_connected(1)
    recs = run_chains([W, W], obj, AdditiveGaussian.isotropic(1, 1, 1.0), cfgs,
                      [obj.theta_star_stacked] * 2)
    assert [_moment_digests(rec) for rec in recs] == [AC10_DIGESTS, AC10_HALF_DIGESTS]


# Gaussian runs at the AC8(b) shape (m = 4, d = 2, R = 16, seed 11): isotropic
# quadratics on a ring and on the full graph, each started at its own fixed
# point, over three 512-step blocks
AC8_DIGESTS = {
    "ring": {
        "stat_sum": "73ce376a07d31761664ff13d9ab7cd9cd4a0c48a144952d943eaeeba1afea059",
        "stat_outer": "9300c3799361e7939e0809c899281100329ba1dfb04f66b823243324893b1df4",
        "final": "efdd8d1c547e8f7c4400ccc3ceb071bb3f22b1a03e55ff489dc449efe7177eec",
    },
    "full": {
        "stat_sum": "1710c8f9b32f973cb8114c29593048bcedda59f9c167e05b41c4ff66c7eddd38",
        "stat_outer": "a2d495b9fb8b356ef9f0199de98f838e0ee9c09676d947933fbb93c8657a6246",
        "final": "cae32d32e3607b665ab378d96f63f16ce78a613717593968598649281e8f9705",
    },
}


def _ac8_problem():
    A = np.einsum("k,ij->kij", np.array([1.0, 2.0, 1.0, 2.0]), np.eye(2))
    obj = QuadraticObjectives(A, np.array([[0.3, 0.0], [0.0, 0.3], [-0.3, 0.0], [0.0, -0.3]]))
    cfg = RunConfig(algorithm="dsgd", gamma=1e-2 / obj.L, T=1100, seed=11, replicates=16,
                    burn_in=100, record_every=1100)
    graphs = {"ring": build_ring(4, 0.25), "full": build_fully_connected(4)}
    starts = {name: quad_exact_fixed_point(W, obj, cfg.gamma).theta_det
              for name, W in graphs.items()}
    return obj, AdditiveGaussian.isotropic(4, 2, 1.0), cfg, graphs, starts


@pytest.mark.parametrize("graph", sorted(AC8_DIGESTS))
def test_gaussian_run_at_the_ac8_shape_is_pinned(graph):
    obj, model, cfg, graphs, starts = _ac8_problem()
    rec = run(graphs[graph], obj, model, cfg, starts[graph], Theta_det=starts[graph])
    assert rec.stat_count == 1000
    assert _moment_digests(rec) == AC8_DIGESTS[graph]


def test_both_ac8_graphs_as_chains_give_the_pinned_digests():
    obj, model, cfg, graphs, starts = _ac8_problem()
    names = sorted(graphs)
    recs = run_chains([graphs[name] for name in names], obj, model, [cfg, cfg],
                      [starts[name] for name in names], [starts[name] for name in names])
    assert [_moment_digests(rec) for rec in recs] == [AC8_DIGESTS[name] for name in names]


def _on_threads(*calls):
    """Each call's result, with the calls run at once on threads of their
    own that switch every 10 microseconds."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(len(calls)) as pool:
            futures = [pool.submit(call) for call in calls]
            return [future.result(timeout=300) for future in futures]
    finally:
        sys.setswitchinterval(interval)


def test_gaussian_runs_on_threads_give_the_sequential_digests():
    # each run reads streams of its own; the digests are the sequential ones
    small = [("gaussian", 2, 3), ("gaussian", 5, 2)]
    got = _on_threads(_ac10_moments, *[lambda case=case: _moments(*case) for case in small])
    names = ("stat_sum", "stat_outer", "final")
    want = [AC10_DIGESTS] + [MOMENT_DIGESTS[case] for case in small]
    assert [dict(zip(names, map(_digest, moments))) for moments in got] == want


def test_one_stream_read_from_threads_gives_the_sequential_blocks():
    # a generator kept by the stream and re-keyed for every block would
    # need a lock: a wide block keeps it busy, with the GIL released, for
    # long enough that another thread's re-keying would land inside it
    shared = NoiseStream(12345, 7)
    widths = (5, 200, 300)
    calls = [lambda w=width: [shared.normals_block(b, w) for b in range(50)]
             for width in widths]
    for blocks, width in zip(_on_threads(*calls), widths):
        lone = NoiseStream(12345, 7)
        assert all(np.array_equal(got, lone.normals_block(b, width))
                   for b, got in enumerate(blocks))
    assert _digest(shared.normals_block(3, 5)) == DRAW_DIGESTS["normals_block", 5, (12345, 7, 3)]


# Gaussian rr_run, (coupling, m, d): shared draws are (1, R, m*d) and
# broadcast over the gamma and gamma/2 chains, independent ones (2, R, m*d)
GAUSS_RR_CASES = [("shared", 3, 2), ("independent", 3, 2), ("shared", 1, 1),
                  ("independent", 2, 3)]

GAUSS_RR_DIGESTS = {
    ("shared", 3, 2): {
        "stat_sum": "413572cdc3f451fa2d3c14dd197aad66b1d1685ca713af817dd07359f814786b",
        "stat_outer": "a747985d6478b17254ffa9be5a69f31088e8009272b5790de8558c074c862d0a",
        "final": "10feb2b1d8688f19c002ff2f944bee21f6306a8dd551cbf5e8a0879e59a85331",
    },
    ("independent", 3, 2): {
        "stat_sum": "1eaca261808c461bf999ec5b3f1a2813f0d2e97440ff82b2fa040ef0890cb998",
        "stat_outer": "0bc73484c755220010b3bb9d1cffe8fde5e83e9adb3e41be37060b00f149c66e",
        "final": "b7e760aa741d0536188ed9d240a6a2d74f323026a0f21cf4dc14f7c2d06773f8",
    },
    ("shared", 1, 1): {
        "stat_sum": "f53ef57336612a1583650e542fdc47ee1561e10158c1088a0d696e153a1db13a",
        "stat_outer": "9e4237b7253b5c3c3f7cb40d45d310101fc8aab9d9ff1ff9eeee7a081d787d66",
        "final": "4f539365bd1ba975407c24c0d5f05fb2391073607e126e1b4ea0f47d731fe719",
    },
    ("independent", 2, 3): {
        "stat_sum": "075573c085140044f9ff51087a542dcba2c8fc4e85fcdce91a9a87ef9118204c",
        "stat_outer": "5e544a3b2e8935d8d8c8caf27708b5894a0809f1415552f7a3a6dfd66d34311c",
        "final": "c54987b2039871da07fc021bb8a1823ad1106ad57a06c432d8faa4a931d2a50c",
    },
}


@pytest.mark.parametrize("case", GAUSS_RR_CASES, ids=lambda case: "-".join(map(str, case)))
def test_gaussian_rr_run_moments_are_pinned(case):
    coupling, m, d = case
    obj = generate_logistic_problem(m=m, n=8, d=d, seed=13)
    W = build_ring(m, 0.3) if m >= 3 else build_fully_connected(m)
    cfg = RunConfig(algorithm="rr_dsgd", gamma=0.5 / obj.L, T=700, seed=7, replicates=3,
                    burn_in=100, record_every=700, coupling=coupling)
    rec = rr_run(W, obj, AdditiveGaussian.isotropic(m, d, 0.5), cfg, obj.theta_star_stacked)
    assert rec.stat_count == 600
    got = {"stat_sum": _digest(rec.stat_sum), "stat_outer": _digest(rec.stat_outer),
           "final": _digest(rec.final)}
    assert got == GAUSS_RR_DIGESTS[case]


# Gaussian coupled_run: two starts, one set of draws, over two blocks
COUPLED_DIGEST = "f202bab42d0dda54553e7483d2d901e9fcecec114d214607389da5384f084443"


def test_gaussian_coupled_run_is_pinned():
    obj = generate_logistic_problem(m=3, n=8, d=2, seed=13)
    start = obj.theta_star_stacked
    other = StackedPoint(3, 2, start.data + np.random.default_rng(31).standard_normal((3, 2)))
    dist = coupled_run(build_ring(3, 0.3), obj, AdditiveGaussian.isotropic(3, 2, 0.5),
                       0.5 / obj.L, 700, start, other, seed=9, replicates=3)
    assert dist.shape == (701,)
    assert _digest(dist) == COUPLED_DIGEST


# stationary_moments of a dsgd run (centred at its fixed point) and of an
# rr_dsgd run (centred at theta*), over 200 stationary steps:
# (noise, algorithm, m, d, R) -> one digest of the mean, block_cov,
# std_errors, cov_std_errors and n_effective. R = 1 gives inf standard errors.
STATIONARY_CASES = [(noise, algorithm, m, d, R) for noise in ("gaussian", "minibatch")
                    for algorithm in ("dsgd", "rr_dsgd")
                    for m, d, R in ((1, 1, 1), (1, 1, 16), (3, 2, 4), (4, 3, 5))]

STATIONARY_DIGESTS = {
    ("gaussian", "dsgd", 1, 1, 1): "e8062f4c34aee8ba322bd7bf9903843b6aa839c14a613a9e73108ed2368dd935",
    ("gaussian", "dsgd", 1, 1, 16): "5f03a80d8fccfd41715fc0f2031df29eda0d6e9ad49a73818149a64325871e88",
    ("gaussian", "dsgd", 3, 2, 4): "53362ed21574af82f0d9ef758779ca6216b226cc69df9da3f31ee0570aa73cad",
    ("gaussian", "dsgd", 4, 3, 5): "813828ececd13ed9a64454771ef986c2730d0865d99e87f505bc5e432e7b9e4d",
    ("gaussian", "rr_dsgd", 1, 1, 1): "d12e93c7cea967e9e1b091a3345f299f357f89029d9bfcb8cdd6b396e1018684",
    ("gaussian", "rr_dsgd", 1, 1, 16): "5fe50013a4b1bd42d38e791b4f50f14a664b37b3ac45a45a383280c5e9bb229b",
    ("gaussian", "rr_dsgd", 3, 2, 4): "ba0548d1a5a651db903ff21803dc0a6d4a7da086cf1b66abfda00e6eaf6634e9",
    ("gaussian", "rr_dsgd", 4, 3, 5): "b040fd51ac9b23608b6c4f72b13c160585694a91355a3483c6fd1a7c8573bd56",
    ("minibatch", "dsgd", 1, 1, 1): "aa2ce72edbccf9b8d74f552b05df011856a6f668063a6a1e8238a5a47164247c",
    ("minibatch", "dsgd", 1, 1, 16): "3c7ea34c7bf36e487499bab17528a9aec093b6643787a4d2d301ee4be82f873e",
    ("minibatch", "dsgd", 3, 2, 4): "105af8e2b92c73b91b0cbb85d622219aecb0d308db4b60893d47fdd074f19423",
    ("minibatch", "dsgd", 4, 3, 5): "310a21cb805ead227418319b3ee570143e9a7fc939e584b65854195d58f9f1bb",
    ("minibatch", "rr_dsgd", 1, 1, 1): "e7d524583fabef1ef66c08aedbffb9e9ed05a7d2ff07cd78820adc0a41cb8bea",
    ("minibatch", "rr_dsgd", 1, 1, 16): "6b6d7b99f976a38d9cf56036674f259d90c290ce6c22ab060ef5c648ce993f18",
    ("minibatch", "rr_dsgd", 3, 2, 4): "321515dd4005921f7bf58f55c7c2911958852376325f2fcf111f996697dd225a",
    ("minibatch", "rr_dsgd", 4, 3, 5): "52b1a717cf187fb08ac902ab9272a7dfb860745cff60e1b0fc1aa4565c5e0cba",
}


def _stationary_moments(noise, algorithm, m, d, R):
    obj = generate_logistic_problem(m=m, n=8, d=d, seed=17)
    W = build_ring(m, 0.3) if m >= 3 else build_fully_connected(m)
    model = AdditiveGaussian.isotropic(m, d, 0.5) if noise == "gaussian" else Minibatch(3)
    cfg = RunConfig(algorithm=algorithm, gamma=0.5 / obj.L, T=300, seed=3, replicates=R,
                    burn_in=100, record_every=300)
    if algorithm == "dsgd":
        center = solve_fixed_point(W, obj, cfg.gamma).point
        rec = run(W, obj, model, cfg, center)
    else:
        center = obj.theta_star_stacked
        rec = rr_run(W, obj, model, cfg, center)
    return stationary_moments(rec, center)


@pytest.mark.parametrize("case", STATIONARY_CASES, ids=lambda case: "-".join(map(str, case)))
def test_stationary_moments_are_pinned(case):
    mom = _stationary_moments(*case)
    assert mom.n_effective == 200 * case[-1]
    assert np.isposinf(mom.std_errors).all() == (case[-1] == 1)
    got = _digest(mom.mean.data, mom.block_cov, mom.std_errors, mom.cov_std_errors,
                  np.array(mom.n_effective))
    assert got == STATIONARY_DIGESTS[case]


# the (C, R, width) grid of draws behind a run, every step of the first
# three blocks, at 7 streams (one chain) and 10 (two independent chains of
# 5): counts that whole-stream chunks of the Gaussian lane do not divide
# evenly at width 1 or 3; at width 36 one stream's block alone is more than
# a chunk. Gaussian grids are the normals that _Draws.at read before it
# held the noise (S = I here); minibatch grids are the subset words of the
# same streams' _draw_blocks, which _Draws.at read before it held the
# picks. (lane, width) -> (m, n, d) of the problem behind it
GRID_SHAPES = {("gaussian", 1): (1, 2, 1), ("gaussian", 3): (1, 2, 3),
               ("gaussian", 36): (6, 2, 6), ("minibatch", 1): (1, 1, 1),
               ("minibatch", 3): (1, 3, 1), ("minibatch", 36): (4, 9, 1)}
GRID_IDS = {"1x7": [range(7)], "2x5": [range(0, 10, 2), range(1, 10, 2)]}

GRID_DIGESTS = {
    ("gaussian", 1, "1x7"): "8f0cf2bba69720525532650aec33a0497c0830fde73e06d25dea27feda5fd27b",
    ("gaussian", 1, "2x5"): "3f7370a2ca72c1a5526f35ef515bcf54f27c9eca65b2505a5d14bf5cfd538890",
    ("gaussian", 3, "1x7"): "a3e5a1f1cea484e012fc3796b5c1d62c0fb0fa418f9d17636bea0508c219e35d",
    ("gaussian", 3, "2x5"): "b767fc67d45aba74b5b6500b2850c954d5131950527cebe5b3336a2c5a145c86",
    ("gaussian", 36, "1x7"): "5081e2f3be813dcf20a3b07cd30f42f09f82369ca7c3e8808e91feb91c75744d",
    ("gaussian", 36, "2x5"): "58d07ce4b14c57d01f0eef71713dcbed88a19d2ebc361c226a1293a41ec257f8",
    ("minibatch", 1, "1x7"): "5ba5f7d1868e928fcee558ea9b61402ce1fe445006bb5c5faf7928a2a6f533c2",
    ("minibatch", 1, "2x5"): "47d721ad02f8fc30742415506cb4e25a9e04dd8addf1989eabdf2ba6d1767ba4",
    ("minibatch", 3, "1x7"): "6bb5f4503d1fed5a5a3056843096a9a5d3cdec22d6d71efa6d05524b0811f76e",
    ("minibatch", 3, "2x5"): "32c7ee8aca48a7bf1128fa9a9a40aa89e355234d9cc604258cd8e54923f94cf1",
    ("minibatch", 36, "1x7"): "4d51c3cc05d322a94b2da800d4eb4daa70c9b892437f6c05e3bf2771cecde680",
    ("minibatch", 36, "2x5"): "8d33080431ba48e2e4c9daf472dce6cef1271a1d6109dec9aa2e63749e84102e",
}


def _draws_grid(model, obj, ids, T=None):
    """_Draws.at of every step of the first three blocks, or of the first T."""
    draws = _Draws(model, obj, 41, ids, T)
    # at returns a view of a buffer that the next block overwrites
    grid = np.stack([draws.at(t).copy() for t in range(T or 3 * 512)])
    draws.close()
    return grid


@pytest.mark.parametrize("ids", sorted(GRID_IDS))
@pytest.mark.parametrize("shape", sorted(GRID_SHAPES), ids=lambda shape: "-".join(map(str, shape)))
def test_draw_grid_is_pinned(shape, ids):
    lane, width = shape
    m, n, d = GRID_SHAPES[shape]
    C, R = len(GRID_IDS[ids]), len(GRID_IDS[ids][0])
    if lane == "gaussian":
        obj = generate_logistic_problem(m=m, n=n, d=d, seed=3)
        grid = _draws_grid(AdditiveGaussian.isotropic(m, d, 1.0), obj, GRID_IDS[ids])
    else:
        streams = [NoiseStream(41, r) for row in GRID_IDS[ids] for r in row]
        words = np.concatenate([_draw_blocks(streams, NoiseStream.PURPOSE_SUBSET, block, width)
                                for block in range(3)], axis=1)
        grid = words.swapaxes(0, 1).reshape(3 * 512, C, R, width)
    assert grid.shape == (3 * 512, C, R, width)
    assert _digest(grid) == GRID_DIGESTS[lane, width, ids]


# the (b, C, R, m) flat sample indices that _Draws.at gives a run's
# minibatch steps, every step of the first three blocks, for each minibatch
# GRID_SHAPES and GRID_IDS case at b = 1 and, where n > 1, at one b > 1.
# Recorded as _pick_index of the words _Draws.at gave, when _Draws held the
# words and each step picked from them. (width, ids, b) -> digest
PICK_GRID_B = {1: (1,), 3: (1, 2), 36: (1, 4)}
PICK_GRID_CASES = [(width, ids, b) for width, bs in sorted(PICK_GRID_B.items())
                   for ids in sorted(GRID_IDS) for b in bs]

PICK_GRID_DIGESTS = {
    (1, "1x7", 1): "3fff02098b4fc9caf14153e64911fa6d276db0cd8e2057d94dfc51ba3aaa54a3",
    (1, "2x5", 1): "bb511cc1a25428ca25ce3dadbd60bb29673b0b9e4f1afa7e26156ee5a0add14b",
    (3, "1x7", 1): "f325d500e61e995d520aeb0c9c3c73a77be7c30014bfd85347dd60620a44f461",
    (3, "1x7", 2): "7b8eb2d6a95f696e5d0cb5d8c5bddd06948d67c84c7bb5b1486c341114198ae3",
    (3, "2x5", 1): "69e5626cba97bcf4814958f69b74b362249b1b27ba435df510515ce43886854b",
    (3, "2x5", 2): "58d14256bc707d6ebcfd463bcf8fa25ab1f9d29b7292c3597f51402f7ad3142a",
    (36, "1x7", 1): "09df3fa09ef991a3ceb6949929c8d34ccd6e46408824a3c1025c61dfe01903f8",
    (36, "1x7", 4): "a4ed586bde173022c450d2f51d6bce3eb13ac14bc6803cce3530da20d3407504",
    (36, "2x5", 1): "6a497240d6a75ff11f54908453419df95f00c6b760854f514df5aca157d6ca82",
    (36, "2x5", 4): "b816e91f9e25cbcc249666f28706fc59088614d0b520399efbeb88c44521d29d",
}


def _pick_grid(width, ids, b, T=None):
    m, n, d = GRID_SHAPES["minibatch", width]
    obj = generate_logistic_problem(m=m, n=n, d=d, seed=3)
    grid = _draws_grid(Minibatch(b), obj, GRID_IDS[ids], T)
    assert grid.shape == (T or 3 * 512, b, len(GRID_IDS[ids]), len(GRID_IDS[ids][0]), m)
    return grid


@pytest.mark.parametrize("case", PICK_GRID_CASES, ids=lambda case: "-".join(map(str, case)))
def test_pick_grid_is_pinned(case):
    assert _digest(_pick_grid(*case)) == PICK_GRID_DIGESTS[case]


# with two or more usable CPUs a run's minibatch picks are filled half a
# block ahead on a worker thread; at one CPU, and on the Gaussian lane, a
# whole block at a time on the calling thread. The pins above hold either
# way, and a run's T, which stops the fill ahead, reads the same steps
@pytest.mark.parametrize("cpus", [1, 2])
def test_draw_grid_pins_hold_with_and_without_the_fill_worker(monkeypatch, cpus):
    monkeypatch.setattr("dsgd_lab.noise._usable_cpus", lambda: cpus)
    for (lane, width), (m, n, d) in GRID_SHAPES.items():
        if lane == "minibatch":
            continue
        obj = generate_logistic_problem(m=m, n=n, d=d, seed=3)
        model = AdditiveGaussian.isotropic(m, d, 1.0)
        for ids, streams in GRID_IDS.items():
            grids = [_draws_grid(model, obj, streams, T) for T in (None, 3 * 512 - 100)]
            assert _digest(grids[0]) == GRID_DIGESTS[lane, width, ids]
            assert np.array_equal(grids[1], grids[0][:3 * 512 - 100])
    for case in PICK_GRID_CASES:
        grids = [_pick_grid(*case, T) for T in (None, 3 * 512 - 100)]
        assert _digest(grids[0]) == PICK_GRID_DIGESTS[case]
        assert np.array_equal(grids[1], grids[0][:3 * 512 - 100])


# steps on both sides of 255/256, 511/512 and 767/768, then one jump back
FILL_STEPS = [0, 1, 255, 256, 300, 511, 512, 513, 767, 768, 1000, 1023, 1024, 260, 259, 700]


@pytest.mark.parametrize("ids", sorted(GRID_IDS))
@pytest.mark.parametrize("lane", ["gaussian", "minibatch"])
def test_draw_grid_steps_are_the_same_with_and_without_the_fill_worker(monkeypatch, lane,
                                                                        ids):
    m, n, d = 2, 5, 3
    obj = generate_logistic_problem(m=m, n=n, d=d, seed=3)
    model = AdditiveGaussian.isotropic(m, d, 1.0) if lane == "gaussian" else Minibatch(1)
    grids = []
    for cpus in (1, 2):
        monkeypatch.setattr("dsgd_lab.noise._usable_cpus", lambda: cpus)
        draws = _Draws(model, obj, 41, GRID_IDS[ids])
        grids.append(_digest(*[draws.at(t).copy() for t in FILL_STEPS]))
        draws.close()
    assert grids[0] == grids[1]


# _Draws picks a whole fill unit of one stream with one _pick_index call, so
# a near-tie in one row sends that stream's unit, not one step, to argsort.
# A near-tie is planted at step 700 of stream 3, client 1: its two smallest
# words, at samples 4 and 2, agree above the index bits and are ordered
# against their indices, so the value sort of the packed words alone would
# pick sample 2 first. Every step of every unit read, the planted unit
# included, must pick what that step's own _pick_index of its words picks
@pytest.mark.parametrize("cpus", [1, 2])
def test_a_near_tie_sends_one_streams_fill_unit_to_argsort(monkeypatch, cpus):
    monkeypatch.setattr("dsgd_lab.noise._usable_cpus", lambda: cpus)
    m, n, b, tied = 3, 6, 2, 700
    obj = generate_logistic_problem(m=m, n=n, d=2, seed=3)
    ids = [range(0, 6, 2), range(1, 6, 2)]
    words = {}  # (replicate, step) -> the (m, n) words the fill picked from

    def planting(streams, purpose, block, width, out=None, lo=0, hi=None):
        got = _draw_blocks(streams, purpose, block, width, out, lo, hi)
        for stream, rows in zip(streams, got):
            for t, row in enumerate(rows.reshape(-1, m, n), block * 512 + lo):
                if (stream.replicate, t) == (3, tied):
                    row[1, 4], row[1, 2] = 0, 1
                words[stream.replicate, t] = row.copy()
        return got

    monkeypatch.setattr("dsgd_lab.noise._draw_blocks", planting)
    draws = _Draws(Minibatch(b), obj, 41, ids)
    # every step up to the end of the block that holds the planted step
    steps = range(1024)
    grid = [draws.at(t).copy() for t in steps]
    draws.close()
    for t in steps:
        assert grid[t].shape == (b, 2, 3, m)
        for c, row in enumerate(ids):
            for r, replicate in enumerate(row):
                assert np.array_equal(grid[t][:, c, r], _pick_index(words[replicate, t], b))
    # argsort's order at the planted row: sample 4, then sample 2
    assert list(grid[tied][:, 1, 1, 1]) == [n + 4, n + 2]


# the Gaussian noise S_k z_k that _Draws.at gives a run's steps, at full,
# non-diagonal covariances: the Gaussian GRID_DIGESTS have S = I, so they
# cannot tell the normals from the noise. The (C, R, m, d) noise of every
# step of the first three blocks, then of the FILL_STEPS jumps; (m, d) -> the
# streams of the chains, one chain of 5 at (3, 3) and two independent chains
# of 4 at (2, 5). Recorded as _noise(model, obj, None) of _Draws' normals,
# when _Draws held the normals and each step turned them
GAUSS_NOISE_GRID_IDS = {(3, 3): [range(5)], (2, 5): [range(0, 8, 2), range(1, 8, 2)]}

GAUSS_NOISE_GRID_DIGESTS = {
    (3, 3): "fa79ab311fa908f9dced6de6ca4b086711b2da6ab53cee8cac56aaaefc082a9a",
    (2, 5): "0875ce2c3ab53414d6752ed86b5e334b9ab18c4cae0b897897c71b025034941f",
}


@pytest.mark.parametrize("shape", sorted(GAUSS_NOISE_GRID_IDS), ids=lambda s: "m{}-d{}".format(*s))
def test_gaussian_noise_grid_is_pinned(shape):
    m, d = shape
    ids = GAUSS_NOISE_GRID_IDS[shape]
    obj = generate_logistic_problem(m=m, n=4, d=d, seed=3)
    model = _gaussian_model(m, d, 61)
    draws = _Draws(model, obj, 41, ids)
    # at returns a view of a buffer that the next block overwrites
    grid = np.stack([draws.at(t).copy() for t in [*range(3 * 512), *FILL_STEPS]])
    assert grid.shape == (3 * 512 + len(FILL_STEPS), len(ids), len(ids[0]), m * d)
    assert _digest(grid.reshape(grid.shape[:3] + (m, d))) == GAUSS_NOISE_GRID_DIGESTS[shape]
    # each row is the noise sample_noise gives that stream at that step
    star = obj.theta_star_stacked
    for t in FILL_STEPS:
        eps = [[sample_noise(model, obj, star, NoiseStream(41, r), t).data for r in row]
               for row in ids]
        assert np.array(eps).tobytes() == grid[t].tobytes()


# LogisticObjectives._grad_batch on a (C, R, m, d) stack whose replicates
# are scaled from 1e-2 to 1e3, so that theta.x crosses +-709, where the
# sigmoid's exp is clamped. (C, R, m, n, d); the first is the AC10 shape
GRAD_BATCH_CASES = [(1, 128, 1, 25, 1), (2, 20, 12, 50, 2), (1, 3, 4, 6, 5)]

GRAD_BATCH_DIGESTS = {
    (1, 128, 1, 25, 1): "8a9ed2a26acd0ca5546930f71384a58ac8bb5a3f61361e6f0b7183012e0f5ccd",
    (2, 20, 12, 50, 2): "484cd0fb72615c641cd104451e74be256b6a6aa6f1ea96bb9d084d0b0c1d3706",
    (1, 3, 4, 6, 5): "25f719408de31e7c42c198467a5ca4fc1228913b2db64a32031dda08cda96263",
}


@pytest.mark.parametrize("case", GRAD_BATCH_CASES, ids=lambda case: "-".join(map(str, case)))
def test_logistic_grad_batch_is_pinned(case):
    C, R, m, n, d = case
    obj = generate_logistic_problem(m=m, n=n, d=d, seed=67)
    rng = np.random.default_rng(71)
    Th = rng.standard_normal((C, R, m, d)) * np.logspace(-2, 3, R)[:, None, None]
    z = np.abs(np.einsum("...kd,knd->...kn", Th, obj.data))
    assert (z > 709.0).any() and (z < 709.0).any()
    assert _digest(obj._grad_batch(Th)) == GRAD_BATCH_DIGESTS[case]


def _fill_runs():
    """Digests of minibatch rr_runs (shared and independent coupling) and
    of a two-chain run_chains, 1,100 steps each."""
    obj = generate_logistic_problem(m=3, n=6, d=2, seed=8)
    W, model, start = build_ring(3, 0.3), Minibatch(2), StackedPoint.zeros(3, 2)
    gamma = 0.5 / obj.L
    recs = [rr_run(W, obj, model, RunConfig(algorithm="rr_dsgd", gamma=gamma, T=1100, seed=5,
                                            replicates=3, record_every=50, coupling=coupling),
                   start)
            for coupling in ("shared", "independent")]
    configs = [RunConfig(algorithm="dsgd", gamma=g, T=1100, seed=5, replicates=3,
                         record_every=50, burn_in=100) for g in (gamma, gamma / 2)]
    recs += run_chains([W, build_fully_connected(3)], obj, model, configs, [start, start])
    return [_digest(rec.times, rec.dist_opt, rec.consensus_err, rec.disagreement_norm,
                    rec.avg_client_dist, rec.final, rec.stat_sum, rec.stat_outer)
            for rec in recs]


def test_minibatch_runs_are_the_same_with_and_without_the_fill_worker(monkeypatch):
    monkeypatch.setattr("dsgd_lab.noise._usable_cpus", lambda: 1)
    alone = _fill_runs()
    monkeypatch.setattr("dsgd_lab.noise._usable_cpus", lambda: 2)
    # the stepping thread and the worker trade the interpreter lock as
    # often as they can, so a step that read a half before its fill ended
    # would show
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        ahead = _fill_runs()
    finally:
        sys.setswitchinterval(interval)
    assert ahead == alone


# theory's closed forms: (W, obj, noise, gamma) for the fig2-heterogeneous
# preset (minibatch), a logistic Gaussian ring, a generated quadratic with
# noise (the exact fixed-point branch), a fully connected graph (Lambda = 0)
# and a 3-client ring at a gamma inside the expansion gate but outside the
# diagnostics' 1/(10L) gate, whose diagnostics rows are NaN
THEORY_CASES = ["fig2-heterogeneous", "logistic-gauss-ring", "quadratic-gauss-clusters",
                "logistic-full", "logistic-ring-nan-diag"]


def _theory_problem(name):
    if name == "fig2-heterogeneous":
        cfg = preset_config(name)
        W = build_topology(cfg)
        obj = build_objective(cfg, W.m)
        return W, obj, build_noise(cfg, obj), cfg.get("run", "gamma")
    if name == "logistic-gauss-ring":
        obj = generate_logistic_problem(m=5, n=8, d=2, seed=23)
        return build_ring(5, 0.3), obj, AdditiveGaussian.isotropic(5, 2, 0.5), 0.02 / obj.L
    if name == "quadratic-gauss-clusters":
        rng = np.random.default_rng(29)
        A = np.empty((6, 3, 3))
        for k in range(6):
            Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            A[k] = (Q * rng.uniform(0.5, 3.0, 3)) @ Q.T
        obj = QuadraticObjectives(A, rng.standard_normal((6, 3)))
        return (build_clusters(6, 2, 0.2), obj, AdditiveGaussian.isotropic(6, 3, 0.4),
                0.01 / obj.L)
    if name == "logistic-full":
        obj = generate_logistic_problem(m=4, n=8, d=2, seed=31)
        return build_fully_connected(4), obj, AdditiveGaussian.isotropic(4, 2, 0.3), 0.05 / obj.L
    obj = generate_logistic_problem(m=3, n=10, d=2, seed=37)
    return build_ring(3, 0.3), obj, AdditiveGaussian.isotropic(3, 2, 0.2), 0.5 / obj.L


def _rows_digest(rows):
    names, values = zip(*rows)
    return _digest(np.array(names), np.array([float(v) for v in values]))


REPORT_DIGESTS = {
    "fig2-heterogeneous": "f5b1460d3084134aaa8d4954ffaa20f85495468e80a61ae12c7c4c13bffda14f",
    "logistic-gauss-ring": "bf487c6da04e6a5f1f41014c634b80a994737e1422167a4002d5949bc6e2e70e",
    "quadratic-gauss-clusters": "03fc5432cc932e1395cc18f3b52f23f1c0a0c9617d7ec002e5dfc0c78b5ccd32",
    "logistic-full": "dc018919bfdba988635576ce775c86db5081c3bbd860967bc96887c96cfacddb",
    "logistic-ring-nan-diag": "487d88f7cd8be091b84ec37835851ce212692566ef4e368732b6534c273980b8",
}


@pytest.mark.parametrize("name", THEORY_CASES)
def test_theory_report_rows_are_pinned(name):
    rep = theory_report(*_theory_problem(name))
    assert (rep.diagnostics is None) == (name == "logistic-ring-nan-diag")
    assert _rows_digest(rep.rows()) == REPORT_DIGESTS[name]


EXPANSION_DIGESTS = {
    "fig2-heterogeneous": {
        "prediction": "e8fe1d0963888db0634afda038d95421ddaf4bcff6173d5a2efe6e3f11b0edbc",
        "residual_bound": "dd5ae27fd75554bcb5a7eaf22bd7ba14e42b3c8f251aaaa4e421fdc2e1be50ed",
        "rr_bias_bound": "396cdd9a18fe7c3b483d1c85781c68c8c81e7b75f6f6accaed63bcb8150753fd",
    },
    "logistic-gauss-ring": {
        "prediction": "36e21dccd2ca6c0f31569cfdf10da81e8a9371e3d50c0b734b18387291c7519e",
        "residual_bound": "94aae85181cb23ebd675de68cac39c117a9aa051502df3d689f561a451748b5a",
        "rr_bias_bound": "121ed314bfe728df22f761be8b8519a8f5c445e3fdeb4dc62e6a9027edc22af4",
    },
    "quadratic-gauss-clusters": {
        "prediction": "a42f08018c68bcb5f82c78411da5562b6657f1ef7de68c285aba5535a2358427",
        "residual_bound": "bb27e345d25cb8dee7bd0d420a106b240aa909548496372a923646e4e3dfa737",
        "rr_bias_bound": "cdfbc6b3426139ca90a73bd9633647d2a13441d9095604b5cf80e465789dad2f",
    },
    "logistic-full": {
        "prediction": "136295dcdc23651e0c4db6b448f435996e8cbdb603911a43514c0cb46b4bc84c",
        "residual_bound": "746e75607f7ce3478b54dd31aa809ce25c0435996ce87be6a05d52790547d949",
        "rr_bias_bound": "746e75607f7ce3478b54dd31aa809ce25c0435996ce87be6a05d52790547d949",
    },
    "logistic-ring-nan-diag": {
        "prediction": "ca5e8a0a73aa2521526f0ea7cd36f7fdf722ab015992c747eda21a09f9279707",
        "residual_bound": "851d22445345d81a47a1a88916d9201ecc4c9fbd9c3f8f17311449299bc24945",
        "rr_bias_bound": "8a442f3d88ebc934e7a982991783bb8bdaf7c6b58450b0a14b8700869d08828e",
    },
}


@pytest.mark.parametrize("name", THEORY_CASES)
def test_expansion_and_rr_bound_are_pinned(name):
    W, obj, _, gamma = _theory_problem(name)
    expansion = det_bias_expansion(W, obj, gamma)
    got = {"prediction": _digest(expansion.prediction.data),
           "residual_bound": _digest(np.array(expansion.residual_bound)),
           "rr_bias_bound": _digest(np.array(rr_bias_bound(obj, W, gamma)))}
    assert got == EXPANSION_DIGESTS[name]


# bound_diagnostics at an explicit client count, with Gaussian noise and
# with a minibatch tau pass
DIAG_DIGESTS = {
    "gaussian": "ef8713ce900cd5ea05af234f7f2c940c3324e1ff600bbd00917731c2cbfba6b5",
    "minibatch": "e9ea7067132dd918da260d1859ffaf8480eb2242159b7ed29ac8ce25f7488c63",
}


@pytest.mark.parametrize("lane", sorted(DIAG_DIGESTS))
def test_bound_diagnostics_at_m2_are_pinned(lane):
    W, obj, noise, gamma = _theory_problem("logistic-gauss-ring")
    if lane == "minibatch":
        noise = Minibatch(3)
    diag = bound_diagnostics(obj, W, noise, gamma, m=2)
    assert diag.m == 2
    assert _rows_digest(diag.as_rows()) == DIAG_DIGESTS[lane]


SCHEDULE_DIGESTS = {
    ("dsgd", "none"): "94a638b259d4bb6ea5db8b03032e582dc9debc48d7716abcef81086bc8e1ec9a",
    ("dsgd", "minibatch"): "6809dea6c805c26756bdeab156ecce960ea3d5a2ca62150801f9ff367c0ed060",
    ("rr", "none"): "9aba00306f208f44f2c1418e692380a25d24f65d54076ef5dc5abf6148b31062",
    ("rr", "minibatch"): "6809dea6c805c26756bdeab156ecce960ea3d5a2ca62150801f9ff367c0ed060",
}


@pytest.mark.parametrize("case", sorted(SCHEDULE_DIGESTS), ids="-".join)
def test_recommend_schedule_is_pinned(case):
    variant, lane = case
    W, obj, _, _ = _theory_problem("logistic-gauss-ring")
    noise = Minibatch(3) if lane == "minibatch" else None
    gam, T = recommend_schedule(obj, W, noise, epsilon=1e-2, variant=variant)
    assert _digest(np.array(gam), np.array(T)) == SCHEDULE_DIGESTS[case]


def test_stochastic_bias_under_zero_covariance_is_positive_zero():
    obj = generate_logistic_problem(m=2, n=10, d=2, seed=1)
    out = stochastic_bias_first_order(obj, AdditiveGaussian.isotropic(2, 2, 0.0), 0.01)
    assert np.all(out == 0.0) and not np.any(np.signbit(out))


# CLI output files by SHA-256 of their bytes: the goldens compare within
# 1e-12, these byte for byte. A noisy sweep over two m, two topologies and
# two gamma, with Gaussian noise on quadratics and minibatch noise on
# logistic data
SWEEP_CFG = """\
topology.kind = ring
topology.m = 4
objective.kind = quadratic
objective.d = 2
objective.seed = 3
run.algorithm = dgd
run.gamma = 0.01
run.T = 4000
run.replicates = 2
run.seed = 1
sweep.m_list = 4, 8
sweep.topologies = fully_connected, ring
sweep.gammas = 0.01, 0.004
output.prefix = swp
"""

SWEEP_NOISE = {"gaussian": ["--set", "noise.variant=gaussian"],
               "minibatch": ["--set", "noise.variant=minibatch", "--set", "objective.kind=logistic",
                             "--set", "objective.n=12", "--set", "noise.batch_size=4"]}

SWEEP_DIGESTS = {
    "gaussian": "41d9e93037542ebb3794354d637154b7756e5b0e96742e4f0edb32974ef8efc2",
    "minibatch": "c3c4ef46f02e34bb84854517632fce360a542fa77ed507a0d7a7f294a5898768",
}


def _files_digest(directory) -> dict:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.iterdir())}


@pytest.mark.parametrize("noise", sorted(SWEEP_DIGESTS))
def test_noisy_sweep_csv_is_pinned(noise, tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(SWEEP_CFG, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["sweep", "--config", str(cfg), "--out", str(out), *SWEEP_NOISE[noise]]) == 0
    assert _files_digest(out) == {"swp_sweep.csv": SWEEP_DIGESTS[noise]}


# the simulate cases of tests/test_golden.py, every file they write
_SHORT = ["--set", "run.T=600", "--set", "run.replicates=3"]

SIMULATE_CASES = {
    "fig2-heterogeneous": ["--preset", "fig2-heterogeneous", *_SHORT],
    "fig2-homogeneous": ["--preset", "fig2-homogeneous", *_SHORT],
    "fig1-rr-det": ["--preset", "fig1-rr-det", *_SHORT],
    "fig1-rr-sto": ["--preset", "fig1-rr-sto", *_SHORT],
    "fig2-gaussian": ["--preset", "fig2-heterogeneous", "--set", "noise.variant=gaussian",
                      *_SHORT],
    "fig1-independent": ["--preset", "fig1-rr-sto", "--set", "run.coupling=independent",
                         *_SHORT],
}

SIMULATE_DIGESTS = {
    "fig2-heterogeneous": {
        "simulate_aggregate.csv": "854b49793ccb4ba8b26b7f359136f96d62207f30bcd3886dc344a5b848a56860",
        "simulate_replicate000.csv": "904f4e191951e1a4a254352885a79ae6a121e1a00c5802bcf18b171efc3f6c88",
        "simulate_replicate001.csv": "717427f9fa2f64707d9fa635cea687689a3765bd8eb83da2cb05f04053a63150",
        "simulate_replicate002.csv": "67239a29ee81f7487c04c8671f1594a0c017cb42db1cd621b58f85d39cd6dc86",
    },
    "fig2-homogeneous": {
        "simulate_aggregate.csv": "d365779411b37d2c9815fe79a62aa509af41fa333b818796c6964cfc8591d034",
        "simulate_replicate000.csv": "16a58dd26811a53d51e8cbb638decd126f9a73db0e26d187e9c00f96b68ac984",
        "simulate_replicate001.csv": "3b479c65d22199afe0807c84b5f000b7095fc2509e90d99aa31c4843f245b974",
        "simulate_replicate002.csv": "b30225e4dc4f54a81fdabfec4881bd74f8cba917636b2279e95cd0bbe85ac3c5",
    },
    "fig1-rr-det": {
        "simulate_aggregate.csv": "c34ffd14978e5f36a44618304a8040ec09e3de664053d5d5a27a4f8ee3d79451",
        "simulate_replicate000.csv": "e8c022ae5b40e9b3d0984f0886e865af90a4781258a2d98511b6b7f9724b95ab",
        "simulate_replicate001.csv": "e8c022ae5b40e9b3d0984f0886e865af90a4781258a2d98511b6b7f9724b95ab",
        "simulate_replicate002.csv": "e8c022ae5b40e9b3d0984f0886e865af90a4781258a2d98511b6b7f9724b95ab",
    },
    "fig1-rr-sto": {
        "simulate_aggregate.csv": "f1ed2c08c9a63054470afe91d71551080f2070dd7130f8eb7b9941f0f3d55e89",
        "simulate_replicate000.csv": "4b0ffc3e702c64f1d1155c126dd2b5610fc96e15f6e2b876f5a643a6a5278a22",
        "simulate_replicate001.csv": "5fa13d78ca7f31ce419855a9726d328e07a2ce2e34b785341dec9ee81af4bc56",
        "simulate_replicate002.csv": "6722099894bc9722b5f922a0aa25dbdcaf38f2703706418a1a6c8e38f8b1fce0",
    },
    "fig2-gaussian": {
        "simulate_aggregate.csv": "f440d2122eeceecd097d1bbbe51abc5b73da35a101b61201198bd0c7b221e3f1",
        "simulate_replicate000.csv": "864ace1d3fb836a93e554daa30e2692e1cfea68e63b6c26c6111f5253a08ee80",
        "simulate_replicate001.csv": "12f80aaf930b56d94aa0cc9a5eb5e1efecd274515fb7bb026e6ac87a2f4baf97",
        "simulate_replicate002.csv": "828e32b0d30a4d9a6516189c9bcbf245f55859b23eb5ef7b51ff40b3411c3db5",
    },
    "fig1-independent": {
        "simulate_aggregate.csv": "f102190a8958bba751335172cbccfeb67d5ee251ae2df6a1eccf6b12d728d8f9",
        "simulate_replicate000.csv": "a76ca1ccf6af8dffda86897b6017d95b3148500defc78d07d3f28353cf7e8e98",
        "simulate_replicate001.csv": "e4f7e1073aa890e73bb7b9767e693651e54dc898d6ec9f5fb244881af3e95b6f",
        "simulate_replicate002.csv": "cfe18584f187d2ce6a662c606b3bed1d6b300066e6069224be4bed9f798e8337",
    },
}


@pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
def test_simulate_files_are_pinned(case, tmp_path):
    assert main(["simulate", *SIMULATE_CASES[case], "--out", str(tmp_path)]) == 0
    assert _files_digest(tmp_path) == SIMULATE_DIGESTS[case]



# ring and cluster gossip matrices W = I - t L, every entry including the
# zeros' signs, over sizes, steps and bridge weights that all build
GOSSIP_DIGESTS = {
    "ring": "6cdc045c5282d91ad8669d00f4ab7b4f16492d5f6c6ceed75086a39398fbb09f",
    "clusters": "5ce021cd8516d2fcab8ad073b8bd08add4783cded67c3ef37a1d9af162356719",
}


def _gossip_matrices(kind):
    if kind == "ring":
        return [build_ring(m, t).entries
                for m in range(3, 41) for t in (1.0 / 3.0, 0.5, 0.25, 0.1, 1e-3)]
    return [build_clusters(m, k, t, bridge).entries
            for m, k in ((4, 1), (4, 2), (6, 1), (6, 3), (8, 2), (12, 3), (12, 4), (20, 5))
            for t in (0.05, 0.1, 0.2) for bridge in (0.2, 1.0, 2.0)]


@pytest.mark.parametrize("kind", sorted(GOSSIP_DIGESTS))
def test_gossip_matrices_are_pinned(kind):
    assert _digest(*_gossip_matrices(kind)) == GOSSIP_DIGESTS[kind]


# the per-client Hessians behind every Newton Jacobian, the mean Hessian and
# the expansion: fig2-heterogeneous on its ring and on 4 clusters at the
# sweep's two step sizes, and the README demo's four isotropic quadratics
# (d = 1) on two clusters, each at theta* and at a point away from it
HESSIAN_CASES = [("fig2-ring", 1e-3), ("fig2-ring", 5e-4), ("fig2-clusters", 1e-3),
                 ("fig2-clusters", 5e-4), ("demo", 1e-3)]


def _hessian_problem(name):
    if name == "demo":
        A = np.array([1.0, 4.0, 1.0, 4.0])[:, None, None]
        return build_clusters(4, 2, 0.35, 0.2), QuadraticObjectives(A, [[1.0], [1.0], [-1.0], [-1.0]])
    cfg = preset_config("fig2-heterogeneous")
    if name == "fig2-clusters":
        cfg.set("topology", "kind", "clusters")
    W = build_topology(cfg)
    return W, build_objective(cfg, W.m)


def _hessian_points(obj):
    star = obj.theta_star_stacked.data
    return star, star + 0.5 * np.random.default_rng(43).standard_normal(star.shape)


LINEARISED_MAP_DIGESTS = {
    ("fig2-ring", 1e-3): "3c800af25c783e87eff1133b6dbb35d55ace1b8d8d30027160ebb47d2a6d5b30",
    ("fig2-ring", 5e-4): "15473a2edf0deb79e50e3a808a38024b999076d6f08addafc5a1c5ea5729c969",
    ("fig2-clusters", 1e-3): "1731e8d8ecc9db8f7f91fdcb243139f614ba66cac9660ae93fcffd3be1398e78",
    ("fig2-clusters", 5e-4): "3e53abd83726a549e7834136e2b284bb884d723f7294c437de9b6361dcb5c041",
    ("demo", 1e-3): "9bccc434fb3aace11e16e241cbbf29926b44ffc51056e39e980431384ebe7cae",
}


@pytest.mark.parametrize("case", HESSIAN_CASES, ids=lambda case: f"{case[0]}-{case[1]}")
def test_linearised_map_is_pinned(case):
    name, gamma = case
    W, obj = _hessian_problem(name)
    got = [_linearised_map(W.entries, obj, gamma, point) for point in _hessian_points(obj)]
    assert _digest(*got) == LINEARISED_MAP_DIGESTS[case]


# (kind, m, d): at d = 1 a numpy reduction over m >= 8 clients goes pairwise,
# so these pin the client order of the sum
MEAN_HESSIAN_CASES = [("logistic", 8, 1), ("logistic", 12, 1), ("logistic", 5, 2),
                      ("logistic", 3, 5), ("quadratic", 8, 1), ("quadratic", 4, 5)]

MEAN_HESSIAN_DIGESTS = {
    ("logistic", 8, 1): "accb3244effd0d7584eefcd984cb0c2864775a4287117021b62c5b65b8b69973",
    ("logistic", 12, 1): "4bb0ba4a85080c9be80c2b56a9c03abdf03106a3fc5e7f765d3a2b168863d605",
    ("logistic", 5, 2): "8ed389715911f808d0fbfd2e8b647d6be70ea7792e35b60ee43ab7bde4962f82",
    ("logistic", 3, 5): "c721e8d52c86a270d1f7d5aa3f51fff51290f5dcdd0d71535ed78cd25c27c596",
    ("quadratic", 8, 1): "24d1dc9f3ec2eca98cf16cf2b205013802c4fea87440ac6fd031dfebdd1c76e8",
    ("quadratic", 4, 5): "29064690031c9a1f3828b1005f92b9404a8620ccdfde86322f95d52a1b867041",
}


def _mean_hessian_problem(kind, m, d):
    if kind == "logistic":
        return generate_logistic_problem(m=m, n=20, d=d, seed=47)
    rng = np.random.default_rng(53)
    B = rng.standard_normal((m, d, d))
    return QuadraticObjectives(np.einsum("kij,klj->kil", B, B) + np.eye(d),
                               rng.standard_normal((m, d)))


@pytest.mark.parametrize("case", MEAN_HESSIAN_CASES, ids=lambda case: "-".join(map(str, case)))
def test_mean_hessian_is_pinned(case):
    obj = _mean_hessian_problem(*case)
    points = [obj.theta_star, obj.theta_star + np.random.default_rng(59).standard_normal(obj.d)]
    assert _digest(*[obj.mean_hessian(theta) for theta in points]) == MEAN_HESSIAN_DIGESTS[case]


FIG2_EXPANSION_DIGESTS = {
    ("fig2-ring", 1e-3): "614454400cd0e6922a28c229b58afbbf90a3cb2910c35e723a1eaf398d312ace",
    ("fig2-ring", 5e-4): "40d73920b5c09f29fe54bc2d24fdc4f94a46634c67a8645b8cabc47ffa0730da",
    ("fig2-clusters", 1e-3): "7fffbf108ff8e54d72e2d386de8b9b509e603d838168634012b4ee402434e427",
    ("fig2-clusters", 5e-4): "e637dfa0f3b7682f296da42d08a95df99df1aac3e4036736629b88bee3367e77",
}


@pytest.mark.parametrize("case", sorted(FIG2_EXPANSION_DIGESTS),
                         ids=lambda case: f"{case[0]}-{case[1]}")
def test_fig2_expansion_is_pinned(case):
    name, gamma = case
    expansion = det_bias_expansion(*_hessian_problem(name), gamma)
    got = _digest(expansion.prediction.data, np.array(expansion.residual_bound))
    assert got == FIG2_EXPANSION_DIGESTS[case]
