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
from dsgd_lab.dynamics import RunConfig, _Draws, coupled_run, rr_run, run, run_chains
from dsgd_lab.noise import (AdditiveGaussian, Minibatch, NoiseStream, _tau_sq_norms,
                             sample_noise, tau_squares)
from dsgd_lab.objectives import QuadraticObjectives, generate_logistic_problem
from dsgd_lab.stacked import StackedPoint
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
        "stat_sum": "9d0b7cd52f7119606145d3cb133c8e2a4b07166b1cc46088d89699082bf1bc9a",
        "stat_outer": "5c40c497686b084470aa380810b2665df1a9e6f1844c159df1d2d6fb2d0feb50",
        "final": "120049e7b423d0045c5bc0a0de40e3e7f8cdbf2eb836de348ae739fdf52094fc",
    },
    ("gaussian", 2, 3): {
        "stat_sum": "c6a1d97bf3fe149ef347d87d58732b9035b46c0011d1543515a826eb2f8d819a",
        "stat_outer": "600b1adae05ee5c4947f9afad06a425811747042cc18acafbbf68263570ac8ec",
        "final": "4d8d8c0f17150ae1fa130738f1f1ef921627ad2e2a79beba007af04f7491a866",
    },
    ("gaussian", 5, 2): {
        "stat_sum": "4c575bab2627be6e80795c3ea2e0809ba1154afe5a548b702816dc724d44ae4f",
        "stat_outer": "2eaae41d67f0e8e10cfb1ffde12444cf235e09ec953c0839d83c2dfd00cd7338",
        "final": "94d0063633e47a7ae5e182386fc4711848b0f842f971575a842d4ce839548f8c",
    },
    ("minibatch", 1, 1): {
        "stat_sum": "f9a5a13714453fb5a0fa6ea927830de1993b7fe5617574e95518f8ab79fc8bb1",
        "stat_outer": "3845745d253ddcb6ddaa36576acdc431ccba871e98d0f71858227eb44b0335e3",
        "final": "9f8fdef8cfcb4294b2d71f52ee30215d6807567a077b2984fa279a2cfb13c0da",
    },
    ("minibatch", 2, 3): {
        "stat_sum": "f93c20a602dfdd0f964b32a037ec9ec83f6c899f2be7ff79aa29d3ab3bab52bd",
        "stat_outer": "f4df35c5c16553d3ad6f08950ab61bd497ffebf559230816c57a20e361300fa5",
        "final": "b4fccd50d8d6b7288498cf06ae540d96d94e93d0b7ed2493dd26a698635952fe",
    },
    ("minibatch", 5, 2): {
        "stat_sum": "14a7087584ca9703d4c295a5cecf49aeee00fdf0edc3cfff5cf3f34ef932b0f7",
        "stat_outer": "1451bc2fc86a543562df527983fd13e2cfd3b76f756910c746797db4bbca1f09",
        "final": "cd7cfa2f53fe512d7c935aa922e52d7625c8a3c8b84a21b80a6bd8b4d93d627c",
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
        "stat_sum": "a49693a9db1d9c2e38f9f95ac7e4aed77b3ad1f349d5b9295a8a80d60dce0484",
        "stat_outer": "4b65f1b865069ec1d57ff6e44cf67d87d50ec0656e5b6806da68d529f7df5209",
        "final": "f4ad0c395a5ae4b2b5682e52689abf646b5c30d4b55a27d2cef6f8e21d82bcfc",
    },
    ("independent", 3, 2, 3): {
        "stat_sum": "f52b377fe9fd1ffcf9a67c5b7ec93cc549ce4d7b8f6054b63c1f6fdcc7f5d0b8",
        "stat_outer": "ee949611c779df10679748cc4e1612c3fe2c9263117ee45cf5e58c81bb6fb3a0",
        "final": "fb6b282ca2b1b2143623b37804d422bcd539c768489ffe7fdcddf94052332f72",
    },
    ("shared", 2, 3, 1): {
        "stat_sum": "ee6de99793cc778374632e6794054a507875cb426ddf5d953530cad0849a021a",
        "stat_outer": "e29988d6cd84839eaa5406312b9fcd7ec81e82680fe8317b914b5ac35ccc0f78",
        "final": "833a853633202ac7b45a010d840d2e176d1cc65110eb2c5e1148e9155d30d2cd",
    },
    ("independent", 2, 3, 8): {
        "stat_sum": "f6c27e85e346ffd7afddc7c90850c5c385421196c3f04b519147129c1c7e4fb2",
        "stat_outer": "abcf515f9e758717e8fa0c19a68e49e10201a041f00f19f73f5e63fd9f108a04",
        "final": "d44bec73e414ba83c36bd290ad8d39e583cbfe80b7d4e9e53fcf3e55e2b31d00",
    },
    ("shared", 4, 5, 8): {
        "stat_sum": "bfe967e6b854c8cca16ef1dd85f2dbc4adce6559ec08a10b9c059cc394d17bb7",
        "stat_outer": "49d7e84b28d95f1b03d841130e3b2e4f640011dc71cde66efa47c630ba6e51c5",
        "final": "c3c94b66a3cf19c9230932ebd4409b4b7f1cb1e498852e219135c5297528c109",
    },
    ("independent", 1, 4, 1): {
        "stat_sum": "29f6093cc36f07aeec77c0df8a7eb438967dc21e99b7d647e36c66a0d3fde585",
        "stat_outer": "d1b9136b44e29844f0787a30e78004395171ae1d576276aea489816abffa4dff",
        "final": "58d8549d24ac09bb3a35e8746fa8e14fbab1e288aea774489b30157a4129cfdd",
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
    ("preset", "fig1-rr-det"): "c7f8c3a188e94504d7e259e5a85a3a34659049a6d8171fac7a631762aaff42cf",
    ("preset", "fig1-rr-sto"): "c7f8c3a188e94504d7e259e5a85a3a34659049a6d8171fac7a631762aaff42cf",
    ("preset", "fig2-heterogeneous"): "c7f8c3a188e94504d7e259e5a85a3a34659049a6d8171fac7a631762aaff42cf",
    ("preset", "fig2-homogeneous"): "7b75ae5d002610fbac354920c6ea43822c4f3e417f13753343afb4baf6624c52",
    ("fig2-heterogeneous-seed", 8): "4b438308e26a36e1c27b30494d4e66f456dfc2ad02f6f4b8086c7c37f07ad204",
    ("fig2-heterogeneous-seed", 20): "369b37725fc0e52efa89a23e01103817df51b36e2ce5d5b8e64f19b7d92ae90e",
    ("fig2-heterogeneous-seed", 39): "d52fc6e6aa90206b20a2a2ab7dcdd2584e18f37e42ce62d29588ad8e75a03775",
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
        "sq_norms": "f01b81dade59bbc0ce85214f4535d67c9c1906240238ed430841160b7cc611d8",
    },
    "d3-b8": {
        "tau_squares": "69842fb19e4363776f51e1b1b187f2d45bf77892b730c70356bc0ce634ad6fb3",
        "sq_norms": "95479a0fe17b93f326665773bad7a3368e436a5777bbbc8c697cf3368dee6f80",
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
    (2, 1): "efb0a0498ed6f4abf90e1ca41cbdc11b4cfa5f4e4f0f5f442505a6a11f9590df",
    (2, 8): "4b0d83168d5ba795244a82d55dd6983ca4806654262c1b29ca9beb58b9398260",
    (2, 12): "298a492726cb6c8dee95c7182b4e20633f49a48f203bdca03945f3a8f8694b7e",
    (3, 1): "6b20e2ad19a7896e78a048167505d071b29d0322cb0030d5d977ff74d9f5a074",
    (3, 8): "4ca9d89cd6ef3aae2d61eb10fb083e7b2844b69f5918b56862f41027f4219f12",
    (3, 12): "76cf474908901b814dc4d0634c973dc9798f4074fa6ff3811896add5ffa45442",
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


# Gaussian run at the AC10 shape (m = d = 1, n = 25, R = 128) over three
# 512-step blocks
AC10_DIGESTS = {
    "stat_sum": "269d405132f9e3220e921dd41cd88d5310c1ca90c6498195b89478cc94c9b489",
    "stat_outer": "b16613b75794ed77b7a037dafffc1597eb9e1e9e0adbde9b7fa02a92ed1232ee",
    "final": "18e17f43892ca9a6fccf743e1af9f2ac8864abc4cc8bc8741730957a8b6bf807",
}


# the same run at AC10's second step size
AC10_HALF_DIGESTS = {
    "stat_sum": "acd9478eea90d78b666613705bf2b821a0bc4c7ec6c63fb003d98924476c4198",
    "stat_outer": "21a1fa1bc7e33387d5bf89c390c69459b890c119bafb1fe5979e25323bcd2654",
    "final": "cbb29d31a03ad1fe0779efb30ea86964411f99e82cad1118db3b7bcdbd781425",
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
        "stat_sum": "144f3abcef5cc355bf68724a456c7bff2cf20db65a6662e2088d475be17be301",
        "stat_outer": "294e84df9d6b858f9c0fe9cc28108999cd8d6f2b6ceb665901237891ad018077",
        "final": "1b0212d81495f12d13d5d4eda10ebb276c03c5b107d903e97e0fb0d4b48ba90a",
    },
    ("independent", 3, 2): {
        "stat_sum": "dc8d63b45528a48ae5fc202caa434a374cc65289906d7d07f61c71cf1de375f9",
        "stat_outer": "cf8305027ea4a3c5333ae81ec28e301662769d973e4b6dbed6911a4680054bbb",
        "final": "8c2b40d18548aedf3ba2236f4ce37b88fe9778148b075b28ea6f88b61811ee1c",
    },
    ("shared", 1, 1): {
        "stat_sum": "f53ef57336612a1583650e542fdc47ee1561e10158c1088a0d696e153a1db13a",
        "stat_outer": "4d9f866fe8353941f23a75afa9f3fd448b06751a7097a8165aa9a5ccac609cbf",
        "final": "ee9562fed15c3eda7d5234480792ce2bf8cd8a5e6cbfec35e51ac47b8c3d7baf",
    },
    ("independent", 2, 3): {
        "stat_sum": "9145e5c6f1166d0bad31b8d8e988924dbe7ae85129e346dee5d94cd06647d172",
        "stat_outer": "5298033e2471ed0fecc4d2a86db76ba7c2684f7c3f57a4b27061c07717319c9c",
        "final": "c5b7b1ae045c8133e5849583b7a434e533de188f02b6c66802c8711f29abc9c6",
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
COUPLED_DIGEST = "5c6866faaa6b254fe059e7057845e324565565bfb757d01bf070e52e9f16f087"


def test_gaussian_coupled_run_is_pinned():
    obj = generate_logistic_problem(m=3, n=8, d=2, seed=13)
    start = obj.theta_star_stacked
    other = StackedPoint(3, 2, start.data + np.random.default_rng(31).standard_normal((3, 2)))
    dist = coupled_run(build_ring(3, 0.3), obj, AdditiveGaussian.isotropic(3, 2, 0.5),
                       0.5 / obj.L, 700, start, other, seed=9, replicates=3)
    assert dist.shape == (701,)
    assert _digest(dist) == COUPLED_DIGEST


# the (C, R, width) grid that _Draws.at reads for a run, every step of the
# first three blocks, at 7 streams (one chain) and 10 (two independent
# chains of 5): counts that whole-stream chunks of the Gaussian lane do not
# divide evenly at width 1 or 3; at width 36 one stream's block alone is
# more than a chunk. (lane, width) -> (m, n, d) of the problem behind it
GRID_SHAPES = {("gaussian", 1): (1, 2, 1), ("gaussian", 3): (1, 2, 3),
               ("gaussian", 36): (6, 2, 6), ("minibatch", 1): (1, 1, 1),
               ("minibatch", 3): (1, 3, 1), ("minibatch", 36): (4, 9, 1)}
GRID_IDS = {"1x7": [range(7)], "2x5": [range(0, 10, 2), range(1, 10, 2)]}

GRID_DIGESTS = {
    ("gaussian", 1, "1x7"): "7a141d8f05f8280bfe1151f56cc4d5fa29dd696ec53c1d7a30c2fbb7f1ed4077",
    ("gaussian", 1, "2x5"): "3355a63c86b16f9207aac7ba55327158ddc8fbda996ad2060d922310b3997d66",
    ("gaussian", 3, "1x7"): "0cb0153a0ced7e4de42cafee6dfc8e090695c88ce09cda7e29cb7c20de0e000a",
    ("gaussian", 3, "2x5"): "00a27b2520ecd0177ee9b9991b904fe7dab950afd95375cc8a940be43132acd2",
    ("gaussian", 36, "1x7"): "6ff927a55c4179b80a7626019633a0027cd579b75fb735eb122e5170ef0e7b79",
    ("gaussian", 36, "2x5"): "0494f05cda44a8e5116b26b80bf998ab416e2a4edb65da512be8d51d86bb1b36",
    ("minibatch", 1, "1x7"): "d9bb10de8755f83fdc8babc64731f962a661675a8d08323ea00ba21bc8ebe975",
    ("minibatch", 1, "2x5"): "a83fb0e69df7698991ea171b65d8d49a8b72504fb6606171ad7a85ecd2cf8c8b",
    ("minibatch", 3, "1x7"): "30c27ba7f0472c1847fe57fcbff09f06600d834063bc14ac1412138b4707efd6",
    ("minibatch", 3, "2x5"): "770a96e1adf8738b9e96b51489ace189a7c2c3452c61c6e59dab72645453c59e",
    ("minibatch", 36, "1x7"): "95cd8c65b23aca11cc99a293d03b37259d085d37d3d07b4366154427b724f52d",
    ("minibatch", 36, "2x5"): "85a9faad026b499cc974c170cd4bdbedad59feaa5db7f697ec32b292d9fc2d4b",
}


@pytest.mark.parametrize("ids", sorted(GRID_IDS))
@pytest.mark.parametrize("shape", sorted(GRID_SHAPES), ids=lambda shape: "-".join(map(str, shape)))
def test_draw_grid_is_pinned(shape, ids):
    lane, width = shape
    m, n, d = GRID_SHAPES[shape]
    obj = generate_logistic_problem(m=m, n=n, d=d, seed=3)
    model = AdditiveGaussian.isotropic(m, d, 1.0) if lane == "gaussian" else Minibatch(1)
    draws = _Draws(model, obj, 41, GRID_IDS[ids])
    grid = np.stack([draws.at(t) for t in range(3 * 512)])
    assert grid.shape == (3 * 512, len(GRID_IDS[ids]), len(GRID_IDS[ids][0]), width)
    assert _digest(grid) == GRID_DIGESTS[lane, width, ids]


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
    "fig2-heterogeneous": "f6b0294fc005b6249949f9d7f00f2672c70dec9adf4f34968551ce62505be1c6",
    "logistic-gauss-ring": "fabae943dd0ea7fa54741d303747f4883ef43407f6750b558dc0e0518e3f1553",
    "quadratic-gauss-clusters": "03fc5432cc932e1395cc18f3b52f23f1c0a0c9617d7ec002e5dfc0c78b5ccd32",
    "logistic-full": "7b39c7aa9f6880ebe533b366807727f5e199506131db102db54403a07e4e7b25",
    "logistic-ring-nan-diag": "f8535fc1ef01e7c71359cf68928a33747f9542723cea0c9026b5cd5945822ff7",
}


@pytest.mark.parametrize("name", THEORY_CASES)
def test_theory_report_rows_are_pinned(name):
    rep = theory_report(*_theory_problem(name))
    assert (rep.diagnostics is None) == (name == "logistic-ring-nan-diag")
    assert _rows_digest(rep.rows()) == REPORT_DIGESTS[name]


EXPANSION_DIGESTS = {
    "fig2-heterogeneous": {
        "prediction": "8b9fb5115fd369a5b35e6dc1ca7cc847c902e654d1dfed072fe835ef81f76a05",
        "residual_bound": "dd5ae27fd75554bcb5a7eaf22bd7ba14e42b3c8f251aaaa4e421fdc2e1be50ed",
        "rr_bias_bound": "396cdd9a18fe7c3b483d1c85781c68c8c81e7b75f6f6accaed63bcb8150753fd",
    },
    "logistic-gauss-ring": {
        "prediction": "a2fd1dfda981a52108092204f2ffb2491e57f5c4879495e4274accdce0194ffa",
        "residual_bound": "94aae85181cb23ebd675de68cac39c117a9aa051502df3d689f561a451748b5a",
        "rr_bias_bound": "121ed314bfe728df22f761be8b8519a8f5c445e3fdeb4dc62e6a9027edc22af4",
    },
    "quadratic-gauss-clusters": {
        "prediction": "a42f08018c68bcb5f82c78411da5562b6657f1ef7de68c285aba5535a2358427",
        "residual_bound": "bb27e345d25cb8dee7bd0d420a106b240aa909548496372a923646e4e3dfa737",
        "rr_bias_bound": "cdfbc6b3426139ca90a73bd9633647d2a13441d9095604b5cf80e465789dad2f",
    },
    "logistic-full": {
        "prediction": "817e2ae2512b5b8788eb867d601c48d412690e7d8e965e3e04adb9ff629a55ac",
        "residual_bound": "746e75607f7ce3478b54dd31aa809ce25c0435996ce87be6a05d52790547d949",
        "rr_bias_bound": "746e75607f7ce3478b54dd31aa809ce25c0435996ce87be6a05d52790547d949",
    },
    "logistic-ring-nan-diag": {
        "prediction": "a58d0737afba0a10244250defe50c68d090a59d4c8b3524d08d4debb549ac432",
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
    "minibatch": "d79decafe16e3c82f5fbbed9a2889413ebb6954d13abd39945ceb3c241724b41",
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
        "simulate_aggregate.csv": "79b5355379095c2285f7e8695759e993bec89c73bb24ddcf2bc4e06fdfdeada6",
        "simulate_replicate000.csv": "44c5383a39d70e98cecdb08be40e75f96300f021498425d1588c1ca2f6253084",
        "simulate_replicate001.csv": "63b667310d35853532756cbfff4282773590ddec241adfa5ef4ac054e05f0805",
        "simulate_replicate002.csv": "72e9eb782483dbd1813f1de990f09105732592dc4fb6beda348372057867dfba",
    },
    "fig2-homogeneous": {
        "simulate_aggregate.csv": "a2098adeffdb8962d4dd67b9b7e5b645074c9ad87ca364df11061364925a24b7",
        "simulate_replicate000.csv": "9b0aaa811c7b1724f4016238f5f5752657c15fdfbc7088ce595da931e24bf4db",
        "simulate_replicate001.csv": "74ee3efb266af585af79522b62345065201c9ca9db301eb660b6775b675396e0",
        "simulate_replicate002.csv": "28535c3e454c0351e7b306af0c4d91ba9329916e37f4f38309dec5d2bb99a97a",
    },
    "fig1-rr-det": {
        "simulate_aggregate.csv": "4e0b59d44ba393d59245bd0e4423da74ff83e4c85dcfe4783aafeb700919aaad",
        "simulate_replicate000.csv": "6363ee960a8831455ec629adad84c89a1ceb3f9ee3cd08a14472cd57e40f5eee",
        "simulate_replicate001.csv": "6363ee960a8831455ec629adad84c89a1ceb3f9ee3cd08a14472cd57e40f5eee",
        "simulate_replicate002.csv": "6363ee960a8831455ec629adad84c89a1ceb3f9ee3cd08a14472cd57e40f5eee",
    },
    "fig1-rr-sto": {
        "simulate_aggregate.csv": "2ddbabb86edac2ac0a4bc2ed2a0f2995bdbe5040e94ed95e87518ae85f0cb469",
        "simulate_replicate000.csv": "068dff98a0ee6391a1c6b7caa138728808ab93614a64ee108c80f823698cf983",
        "simulate_replicate001.csv": "12071a435f4ac1566d53a1d37a687cc00d7b79834e02c74b16609d672d584f37",
        "simulate_replicate002.csv": "1ba42aa7c8d90dc851601eb00649e06d6d00ae2979a8ea156b93efda63257f04",
    },
    "fig2-gaussian": {
        "simulate_aggregate.csv": "31afe3153bb87794edd2a59ef630cfe0e11de895bd0ad874c5a6c28924694518",
        "simulate_replicate000.csv": "b59cdfa69677fd28efe23c2d28aff31655bd549747e6792991fb4a77d1de5394",
        "simulate_replicate001.csv": "0204d3d7854c2fd1b9831aa7d7dec29b493bfb708d6a51e9c19717c7dca2fdd2",
        "simulate_replicate002.csv": "774db85d541a42503c457cd3a44f68ae430da9b937aad348b8c6896097864ffc",
    },
    "fig1-independent": {
        "simulate_aggregate.csv": "3e4c7e7b7def9e907b7c657e0d2739ed586694c1310a1189f0ff11edd0288af3",
        "simulate_replicate000.csv": "0096fff0e61265996b1a2d0c79cf924dd86f10f6006bbdd2b1bda9077bb62883",
        "simulate_replicate001.csv": "07e0610596efa8859ed24327739ff937dd161f7ce0366e571da55cc253e0bcad",
        "simulate_replicate002.csv": "fc983f5f5c162aa43c3c2943da1742a26ca1e36c79540a7c1ce74659c29a5056",
    },
}


@pytest.mark.parametrize("case", sorted(SIMULATE_CASES))
def test_simulate_files_are_pinned(case, tmp_path):
    assert main(["simulate", *SIMULATE_CASES[case], "--out", str(tmp_path)]) == 0
    assert _files_digest(tmp_path) == SIMULATE_DIGESTS[case]

