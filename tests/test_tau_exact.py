"""The exact minibatch tau_2^2 and tau_4^2, as an oracle for the tau pass.

Client k's minibatch noise is eps_k = (1/b) sum_{i in S} g_i, where the g_i
are its per-sample gradients centred at their mean and S is a uniform
b-subset of its n samples. The chance that r given distinct samples are all
in S is b^(r) / n^(r), with falling factorials. Summing G_ij G_kl (G = g g^T)
over each equality pattern of the four indices, by Moebius inversion on the
partition lattice, gives E||eps_k||^4; E||eps_k||^2 is the one-pattern case
of the same sum. Every pattern with a lone index sums to 0, because the g_i
do. These are the moments of a mean sampled without replacement (Tukey's
polykays; Cochran, Sampling Techniques, ch. 2). The clients are independent,
so E||eps||^4 = sum_k q_k + (sum_k a_k)^2 - sum_k a_k^2 with a_k and q_k
client k's second and fourth moments.

The oracle is checked against an enumeration of every subset, and the tau
pass, which estimates both moments from 20,000 draws, against the oracle
within 4 of the pass's own standard errors.
"""

import itertools

import numpy as np
import pytest

from dsgd_lab.cli import build_objective, build_topology, preset_config
from dsgd_lab.noise import Minibatch, _tau_sq_norms, covariance_at, tau_squares
from dsgd_lab.objectives import generate_logistic_problem
from dsgd_lab.theory import _TAU_DRAWS


def _falling(x: int, r: int) -> float:
    out = 1.0
    for i in range(r):
        out *= x - i
    return out


def _centred_grads(obj, Theta):
    """(m, n, d): each client's per-sample data gradients sigma(<theta_k, x_i>) x_i
    at its block of Theta, minus their mean."""
    X = obj.data
    z = np.einsum("knd,kd->kn", X, Theta)
    g = (1.0 / (1.0 + np.exp(-z)))[..., None] * X
    return g - g.mean(axis=1, keepdims=True)


def _client_moments(g, b):
    """(a, q): each client's E||eps_k||^2 and E||eps_k||^4, exactly 0 at b = n."""
    n = g.shape[1]
    # p[r]: the chance that r distinct samples are all picked
    p = [_falling(b, r) / _falling(n, r) if r <= b else 0.0 for r in range(5)]
    G = np.matmul(g, g.transpose(0, 2, 1))
    diag = np.diagonal(G, axis1=1, axis2=2)
    tr = diag.sum(axis=1)
    # the patterns with no lone index: {ij}{kl} (tr^2), {ik}{jl} and {il}{jk}
    # (||G||_F^2 each) and {ijkl} (sum_i G_ii^2), each weighted by the sum of
    # mu(pi, sigma) p[|pi|] over the partitions pi finer than it
    pairs = p[2] - 2.0 * p[3] + p[4]
    whole = p[1] - 7.0 * p[2] + 12.0 * p[3] - 6.0 * p[4]
    a = (p[1] - p[2]) * tr / b**2
    q = (pairs * (tr**2 + 2.0 * np.sum(G**2, axis=(1, 2))) + whole * np.sum(diag**2, axis=1)) / b**4
    return a, q


def exact_tau_squares(obj, b, Theta):
    """(tau_2^2, tau_4^2) of Minibatch(b) noise at the (m, d) point Theta."""
    a, q = _client_moments(_centred_grads(obj, Theta), b)
    second = a.sum()
    fourth = q.sum() + second**2 - np.sum(a**2)
    return float(second), float(np.sqrt(fourth))


def _enumerated_client_moments(g, b):
    """E||eps_k||^2 and E||eps_k||^4 of each client, over every b-subset."""
    n = g.shape[1]
    subsets = [list(S) for S in itertools.combinations(range(n), b)]
    sq = np.array([[np.sum(gk[S].mean(axis=0) ** 2) for S in subsets] for gk in g])
    return sq.mean(axis=1), (sq**2).mean(axis=1), sq


# (m, n, d, b): b = 1 and b = n included, n = 1 the degenerate one-sample client
ENUMERATED = [(1, 1, 1, 1), (2, 2, 1, 1), (2, 5, 2, 1), (1, 5, 3, 2), (2, 6, 2, 3),
              (1, 7, 2, 7), (2, 8, 3, 4), (1, 8, 1, 8), (3, 9, 2, 1), (2, 9, 2, 5)]


@pytest.mark.parametrize("case", ENUMERATED, ids=lambda case: "m{}-n{}-d{}-b{}".format(*case))
def test_the_closed_form_matches_every_subset(case):
    m, n, d, b = case
    obj = generate_logistic_problem(m=m, n=n, d=d, seed=61 + n)
    Theta = obj.theta_star + np.random.default_rng(67).standard_normal((m, d))
    g = _centred_grads(obj, Theta)
    a, q = _client_moments(g, b)
    want_a, want_q, sq = _enumerated_client_moments(g, b)
    if b == n:
        # every subset is the whole client, so the noise is 0
        assert np.all(a == 0.0) and np.all(q == 0.0)
        assert exact_tau_squares(obj, b, Theta) == (0.0, 0.0)
        assert np.max(want_a) <= 1e-28
        return
    scale = np.sum(g**2, axis=(1, 2)) / b
    assert np.allclose(a, want_a, rtol=1e-12, atol=1e-15 * np.max(scale))
    assert np.allclose(q, want_q, rtol=1e-12, atol=1e-15 * np.max(scale) ** 2)
    # the clients' subsets are independent: every pair of them, enumerated
    total = sq[0]
    for client in sq[1:]:
        total = np.add.outer(total, client).ravel()
    tau2, tau4 = exact_tau_squares(obj, b, Theta)
    assert tau2 == pytest.approx(float(np.mean(total)), rel=1e-12)
    assert tau4 == pytest.approx(float(np.mean(total**2)) ** 0.5, rel=1e-12)


def test_the_second_moment_is_m_times_the_trace_of_covariance_at():
    obj = generate_logistic_problem(m=5, n=30, d=3, seed=71)
    for b in (1, 4, 29):
        tau2, _ = exact_tau_squares(obj, b, obj.theta_star_stacked.data)
        cbar = covariance_at(Minibatch(b), obj, obj.theta_star)
        assert tau2 == pytest.approx(obj.m * float(np.trace(cbar)), rel=1e-12)


def _preset_problem(name):
    cfg = preset_config(name)
    obj = build_objective(cfg, build_topology(cfg).m)
    return obj, Minibatch(cfg.get("noise", "batch_size"))


# fig1-rr-sto's objective and batch size are fig2-heterogeneous's (m = 12,
# n = 50, d = 2, b = 10, spread 2); fig2-homogeneous is the same shape with
# identical client distributions
@pytest.mark.parametrize("name", ["fig2-heterogeneous", "fig2-homogeneous", "fig1-rr-sto"])
def test_the_tau_pass_is_within_4_standard_errors_of_the_closed_form(name):
    obj, model = _preset_problem(name)
    star = obj.theta_star_stacked
    exact2, exact4 = exact_tau_squares(obj, model.batch_size, star.data)
    tau2, tau4 = tau_squares(model, obj, star, _TAU_DRAWS, 0)
    sq = _tau_sq_norms(model, obj, star, _TAU_DRAWS, 0)
    se2 = np.std(sq, ddof=1) / np.sqrt(len(sq))
    se4 = np.std(sq**2, ddof=1) / np.sqrt(len(sq))
    assert abs(tau2 - exact2) <= 4.0 * se2
    assert abs(tau4**2 - exact4**2) <= 4.0 * se4


def test_the_closed_form_at_fig2_heterogeneous():
    obj, model = _preset_problem("fig2-heterogeneous")
    tau2, tau4 = exact_tau_squares(obj, model.batch_size, obj.theta_star_stacked.data)
    assert tau2 == pytest.approx(0.45672251764, rel=1e-10)
    assert tau4 == pytest.approx(0.47506521039, rel=1e-10)
