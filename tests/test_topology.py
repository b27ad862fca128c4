import io

import numpy as np
import pytest

from dsgd_lab.errors import (
    DisconnectedError,
    InvalidParamError,
    InvalidPartitionError,
    InvalidSizeError,
    InvalidStepError,
    NotLaplacianError,
)
from dsgd_lab.stacked import StackedPoint
from dsgd_lab.topology import (
    CommMatrix,
    apply_comm,
    build_clusters,
    build_fully_connected,
    build_ring,
    from_laplacian,
    gossip_operator,
    load_edge_list,
    project_consensus,
    project_disagreement,
)


def check_valid(W: CommMatrix):
    E = W.entries
    assert np.allclose(E, E.T)
    assert np.allclose(E.sum(axis=1), 1.0, atol=1e-12)
    assert np.min(E) >= -1e-12
    if W.m > 1:
        assert W.spectral.lambda2 < 1.0


class TestFullyConnected:
    def test_m2(self):
        W = build_fully_connected(2)
        assert np.allclose(W.entries, [[0.5, 0.5], [0.5, 0.5]])

    def test_m3_profile(self):
        prof = build_fully_connected(3).spectral
        assert abs(prof.lambda2) < 1e-12
        assert abs(prof.Lambda) < 1e-12
        assert np.allclose(gossip_operator(build_fully_connected(3)), 0.0, atol=1e-10)

    def test_m1_convention(self):
        W = build_fully_connected(1)
        assert np.allclose(W.entries, [[1.0]])
        prof = W.spectral
        assert prof.lambda2 == 0.0 and prof.Lambda == 0.0 and prof.gap == 1.0
        assert np.allclose(gossip_operator(W), [[0.0]])

    def test_m0_rejected(self):
        with pytest.raises(InvalidSizeError):
            build_fully_connected(0)


class TestRing:
    def test_4ring_quarter(self):
        W = build_ring(4, 0.25)
        assert np.allclose(np.diag(W.entries), 0.5)
        assert W.entries[0, 1] == W.entries[0, 3] == 0.25
        assert W.entries[0, 2] == 0.0
        prof = W.spectral
        assert abs(prof.lambda2 - 0.5) < 1e-12
        assert abs(prof.lambda_min - 0.0) < 1e-12
        assert abs(prof.rho - 0.5) < 1e-12
        assert abs(prof.Lambda - 2.0) < 1e-9
        assert abs(prof.gap - 0.5) < 1e-12
        got = np.sort(np.linalg.eigvalsh(W.entries))
        assert np.allclose(got, [0.0, 0.5, 0.5, 1.0], atol=1e-12)

    def test_3ring_third_is_complete(self):
        W = build_ring(3, 1.0 / 3.0)
        assert np.allclose(W.entries, np.full((3, 3), 1.0 / 3.0))
        assert W.spectral.Lambda < 1e-9

    def test_default_step(self):
        W = build_ring(5)
        assert abs(W.entries[0, 0] - 1.0 / 3.0) < 1e-15

    def test_bad_step(self):
        with pytest.raises(InvalidStepError):
            build_ring(4, 0.6)
        with pytest.raises(InvalidStepError):
            build_ring(4, 0.0)

    def test_too_small(self):
        with pytest.raises(InvalidSizeError):
            build_ring(2, 0.25)


class TestClusters:
    def test_4_nodes_2_clusters(self):
        W = build_clusters(4, 2, 0.2, bridge_weight=1.0)
        check_valid(W)
        assert W.spectral.lambda2 < 1.0

    def test_12_nodes_4_clusters_mixes_slower_than_complete(self):
        W = build_clusters(12, 4, 0.1, bridge_weight=0.5)
        check_valid(W)
        assert W.spectral.rho > build_fully_connected(12).spectral.rho

    def test_bad_partition(self):
        with pytest.raises(InvalidPartitionError):
            build_clusters(5, 2, 0.1)
        with pytest.raises(InvalidPartitionError):
            build_clusters(4, 4, 0.1)  # singleton clusters

    def test_step_too_large(self):
        with pytest.raises(InvalidStepError):
            build_clusters(12, 4, 0.9, bridge_weight=1.0)

    def test_infinite_step_is_rejected(self):
        # rejected before inf * 0 in I - t L can warn
        with pytest.raises(InvalidParamError, match="non-finite"):
            build_clusters(4, 2, np.inf)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_bridge_weight_is_rejected(self, bad):
        # max(0.0, nan) is 0.0, so a nan weight would drop every bridge
        with pytest.raises(InvalidStepError, match="bridge weight must be finite"):
            build_clusters(4, 2, 0.2, bridge_weight=bad)


class TestFromLaplacian:
    def test_nan_step_is_rejected(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(InvalidParamError, match="non-finite"):
            from_laplacian(L, np.nan)

    def test_infinite_step_is_rejected(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(InvalidParamError, match="non-finite"):
            from_laplacian(L, np.inf)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_comm_matrix_rejects_non_finite_entries(self, bad):
        with pytest.raises(InvalidParamError, match="non-finite"):
            CommMatrix.from_entries([[0.5, 0.5], [0.5, bad]])

    def test_two_node_path(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        W = from_laplacian(L, 0.5)
        assert np.allclose(W.entries, [[0.5, 0.5], [0.5, 0.5]])

    def test_disconnected_graph(self):
        # two disjoint edges on 4 nodes
        L = np.zeros((4, 4))
        for i, j in [(0, 1), (2, 3)]:
            L[i, j] = L[j, i] = -1.0
            L[i, i] += 1.0
            L[j, j] += 1.0
        with pytest.raises(DisconnectedError):
            from_laplacian(L, 0.3)

    def test_matches_ring_builder(self):
        m = 4
        A = np.zeros((m, m))
        idx = np.arange(m)
        A[idx, (idx + 1) % m] = 1.0
        A[idx, (idx - 1) % m] = 1.0
        L = np.diag(A.sum(axis=1)) - A
        W = from_laplacian(L, 0.25)
        assert np.allclose(W.entries, build_ring(4, 0.25).entries)

    def test_rejects_non_laplacian(self):
        with pytest.raises(NotLaplacianError):
            from_laplacian(np.array([[1.0, 1.0], [1.0, 1.0]]), 0.1)
        with pytest.raises(NotLaplacianError):
            from_laplacian(np.array([[1.0, 0.0], [-1.0, 1.0]]), 0.1)

    def test_rejects_bad_step(self):
        L = np.array([[1.0, -1.0], [-1.0, 1.0]])
        with pytest.raises(InvalidStepError):
            from_laplacian(L, -0.5)
        with pytest.raises(InvalidStepError):
            from_laplacian(L, 1.2)

    def test_identity_is_disconnected(self):
        with pytest.raises(DisconnectedError):
            CommMatrix.from_entries(np.eye(3))


class TestEdgeList:
    def test_round_trip_through_laplacian(self, tmp_path):
        text = "# square ring\n0 1 1.0\n1 2 1.0\n2 3 1.0\n3 0 1.0\n"
        p = tmp_path / "ring.edges"
        p.write_text(text)
        L = load_edge_list(str(p))
        W = from_laplacian(L, 0.25)
        assert np.allclose(W.entries, build_ring(4, 0.25).entries)

    def test_default_weight_and_comments(self):
        L = load_edge_list(io.StringIO("0 1  # unit edge\n\n1 2 0.5\n"))
        assert L.shape == (3, 3)
        assert L[0, 1] == -1.0
        assert L[1, 2] == -0.5
        assert np.allclose(L.sum(axis=1), 0.0)

    def test_malformed_lines(self):
        with pytest.raises(InvalidParamError):
            load_edge_list(io.StringIO("0 1 2 3\n"))
        with pytest.raises(InvalidParamError):
            load_edge_list(io.StringIO("0 0 1.0\n"))
        with pytest.raises(InvalidParamError):
            load_edge_list(io.StringIO("a b 1.0\n"))
        with pytest.raises(InvalidParamError):
            load_edge_list(io.StringIO("# only comments\n"))

    @pytest.mark.parametrize("weight", ["nan", "inf"])
    def test_non_finite_weight_is_rejected(self, weight):
        with pytest.raises(InvalidParamError, match="line 2: non-finite weight"):
            load_edge_list(io.StringIO(f"0 1\n1 2 {weight}\n2 0\n"))


class TestProjectors:
    def test_consensus_input(self):
        X = StackedPoint.from_blocks([[1.0], [1.0]])
        assert np.allclose(project_consensus(X).data, [[1.0], [1.0]])
        assert np.allclose(project_disagreement(X).data, 0.0)

    def test_zero_mean_input(self):
        X = StackedPoint.from_blocks([[1.0], [-1.0]])
        assert np.allclose(project_consensus(X).data, 0.0)
        assert np.allclose(project_disagreement(X).data, [[1.0], [-1.0]])

    def test_block_average(self):
        X = StackedPoint.from_blocks([[3.0], [1.0]])
        assert np.allclose(project_consensus(X).data, [[2.0], [2.0]])
        assert np.allclose(project_disagreement(X).data, [[1.0], [-1.0]])

    def test_projector_algebra_random(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            m, d = int(rng.integers(1, 7)), int(rng.integers(1, 4))
            X = StackedPoint(m, d, rng.standard_normal((m, d)))
            PX = project_consensus(X)
            QX = project_disagreement(X)
            assert np.allclose((PX + QX).data, X.data, atol=1e-12)
            assert np.allclose(project_consensus(PX).data, PX.data, atol=1e-12)
            assert np.allclose(project_disagreement(QX).data, QX.data, atol=1e-12)
            assert np.allclose(project_consensus(QX).data, 0.0, atol=1e-12)
            assert abs(PX.norm() ** 2 + QX.norm() ** 2 - X.norm() ** 2) <= 1e-12 * max(
                1.0, X.norm() ** 2
            )

    def test_mixing_preserves_block_average(self):
        rng = np.random.default_rng(77)
        builders = [
            build_fully_connected(6),
            build_ring(6, 0.3),
            build_clusters(6, 2, 0.15, 0.7),
        ]
        for W in builders:
            X = StackedPoint(6, 3, rng.standard_normal((6, 3)))
            assert np.allclose(
                project_consensus(apply_comm(W, X)).data,
                project_consensus(X).data,
                atol=1e-12,
            )


class TestSpectralTwoPaths:
    @pytest.mark.parametrize(
        "W",
        [
            build_ring(4, 0.25),
            build_ring(7, 0.2),
            build_clusters(8, 2, 0.1, 0.4),
            build_clusters(12, 4, 0.08, 0.5),
            build_fully_connected(5),
        ],
        ids=["ring4", "ring7", "clusters8", "clusters12", "full5"],
    )
    def test_Lambda_equals_twice_gossip_norm(self, W):
        G = gossip_operator(W)
        assert np.max(np.abs(G @ np.ones(W.m))) < 1e-9
        assert abs(W.spectral.Lambda - 2.0 * np.linalg.norm(G, 2)) <= 1e-9

    def test_4ring_gossip_eigenvalues(self):
        G = gossip_operator(build_ring(4, 0.25))
        got = np.sort(np.linalg.eigvalsh(G))
        assert np.allclose(got, [0.0, 0.0, 1.0, 1.0], atol=1e-10)

    def test_random_constructor_validity(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            kind = rng.integers(0, 3)
            if kind == 0:
                W = build_fully_connected(int(rng.integers(1, 10)))
            elif kind == 1:
                W = build_ring(int(rng.integers(3, 12)), float(rng.uniform(0.05, 0.5)))
            else:
                k = int(rng.integers(1, 4))
                size = int(rng.integers(2, 5))
                W = build_clusters(k * size, k, float(rng.uniform(0.01, 0.1)), float(rng.uniform(0.1, 1.0)))
            check_valid(W)
