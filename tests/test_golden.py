"""Golden CLI outputs: every cell of every file must regenerate.

The files under tests/golden/<case>/ were written by the commands in CASES
(each with ``--out tests/golden/<case>``; the compare case reads DEMO_CONFIG,
the README's demo config, from a file). Text cells must match exactly and
numeric cells within GOLDEN_RTOL relative, so a change that only moves the
last bits of the floating-point work passes, and any other change fails.
"""

import contextlib
import csv
import io
import math
import os

import pytest

from dsgd_lab import cli

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_RTOL = 1e-12

DEMO_CONFIG = """\
# two clusters of two clients joined by a weak bridge
topology.kind = clusters
topology.m = 4
topology.clusters = 2
topology.t = 0.35
topology.bridge_weight = 0.2

# isotropic quadratics a_k/2 ||theta - c_k||^2
objective.kind = quadratic
objective.d = 1
objective.scales = 1, 4, 1, 4
objective.centers = 1, 1, -1, -1

noise.variant = none
run.algorithm = dgd
run.gamma = 0.001
run.gammas = 0.002, 0.001, 0.0005, 0.00025
run.T = 2000
output.prefix = demo
"""

_SHORT = ["--set", "run.T=600", "--set", "run.replicates=3"]

CASES = {
    "fig2-heterogeneous": ["simulate", "--preset", "fig2-heterogeneous", *_SHORT],
    "fig2-homogeneous": ["simulate", "--preset", "fig2-homogeneous", *_SHORT],
    "fig1-rr-det": ["simulate", "--preset", "fig1-rr-det", *_SHORT],
    "fig1-rr-sto": ["simulate", "--preset", "fig1-rr-sto", *_SHORT],
    "fig2-gaussian": ["simulate", "--preset", "fig2-heterogeneous",
                      "--set", "noise.variant=gaussian", *_SHORT],
    "fig1-independent": ["simulate", "--preset", "fig1-rr-sto",
                         "--set", "run.coupling=independent", *_SHORT],
    "predict": ["predict", "--preset", "fig2-heterogeneous"],
    "compare": ["compare", "--config", "{demo}"],
    "graph-info": ["graph-info", "--preset", "fig1-rr-sto"],
    "sweep": ["sweep", "--preset", "fig2-heterogeneous",
              "--set", "noise.variant=none", "--set", "sweep.m_list=12",
              "--set", "sweep.topologies=ring,clusters",
              "--set", "sweep.gammas=0.004,0.002"],
}


def _rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _cells_match(got: str, want: str) -> bool:
    try:
        g, w = float(got), float(want)
    except ValueError:
        return got == want
    if math.isnan(w):
        return math.isnan(g)
    return g == w or abs(g - w) <= GOLDEN_RTOL * abs(w)


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_matches_golden(case, tmp_path):
    demo = tmp_path / "demo.cfg"
    demo.write_text(DEMO_CONFIG, encoding="utf-8")
    out = tmp_path / "out"
    argv = [arg.format(demo=demo) for arg in CASES[case]] + ["--out", str(out)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    want_dir = os.path.join(GOLDEN_DIR, case)
    assert sorted(os.listdir(out)) == sorted(os.listdir(want_dir))
    for name in sorted(os.listdir(want_dir)):
        got, want = _rows(out / name), _rows(os.path.join(want_dir, name))
        assert len(got) == len(want), name
        for i, (g_row, w_row) in enumerate(zip(got, want)):
            assert len(g_row) == len(w_row), (name, i)
            bad = [(g, w) for g, w in zip(g_row, w_row) if not _cells_match(g, w)]
            assert not bad, (name, i, bad)
