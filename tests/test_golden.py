"""Pinned sha256 digests of every output file of small fixed CLI runs.

A change that alters any output byte for a fixed seed fails here.  Such
a change must be declared and the digests re-pinned deliberately; a
refactor must leave them untouched.
"""

import hashlib

import pytest

from bbpre.cli import main

RUNS = {
    "experiment": [
        "experiment", "--n-grid", "100,1000", "--replicates", "100", "--seed", "5", "--out", "{out}/exp",
    ],
    "coupled": [
        "coupled", "--d", "3", "--n0", "500", "--replicates", "200", "--epsilon", "0.5", "--seed", "11",
        "--out", "{out}/coupled.csv",
    ],
    "simulate-full": [
        "simulate", "--rule", "polygamous", "--n0", "200", "--replicates", "20", "--recording", "full",
        "--seed", "9", "--out", "{out}/full.csv",
    ],
    # the shifted preset's xi is eta + 0.1, never eta's bits: the trajectory writer formats both columns
    "simulate-shifted": [
        "simulate", "--model", "shifted", "--rule", "polygamous", "--n0", "200", "--replicates", "5",
        "--max-steps", "60", "--recording", "full", "--seed", "9", "--out", "{out}/shifted.csv",
    ],
    # 1,100 replicates are two blocks (1,024 + 76): the blocks' recorded steps are written in block order
    "simulate-blocks": [
        "simulate", "--rule", "polygamous", "--n0", "10", "--replicates", "1100", "--max-steps", "40",
        "--recording", "full", "--seed", "9", "--out", "{out}/blocks.csv",
    ],
    "simulate-sparse": [
        "simulate", "--n0", "500", "--replicates", "20", "--recording", "sparse", "--seed", "4",
        "--out", "{out}/sparse.csv",
    ],
    "lemma-sweep": [
        "lemma-sweep", "--n0", "300", "--paths", "3", "--replicates", "200", "--max-steps", "10", "--seed", "5",
        "--out", "{out}/sweep.csv",
    ],
    "audit": ["audit", "--alpha", "0.4", "--replicates", "3000", "--seed", "6", "--out", "{out}/audit.json"],
    # C4 fails with three witnesses: the one built-in audit whose report holds witness tuples
    "audit-polygamous": [
        "audit", "--rule", "polygamous", "--replicates", "3000", "--seed", "6", "--out", "{out}/audit.json",
    ],
    # moment order 2.5 on 3,000 draws with means up to 4.7e3: series of up to 9,400 terms, summed in many passes
    "audit-sigma-env-2": [
        "audit", "--sigma-env", "2", "--alpha", "0.4", "--replicates", "3000", "--seed", "6",
        "--out", "{out}/audit.json",
    ],
    # means up to 3.9e5, a window of 1.5e4 terms around each of the largest
    "audit-sigma-env-4.5": [
        "audit", "--sigma-env", "4.5", "--alpha", "0.4", "--replicates", "300", "--seed", "6",
        "--out", "{out}/audit.json",
    ],
    # means up to 5.56e8, a window of 5.7e5 terms around the largest: omega3_mean moved by 1.3e-6 when the
    # Poisson weights left the form exp(k ln lam - lam - ln k!), which loses 1.5e-6 at that mean
    "audit-sigma-env-4": ["audit", "--sigma-env", "4", "--alpha", "0.4", "--seed", "42", "--out", "{out}/audit.json"],
    # erfc arguments 1/(sigma sqrt(2t)) from 31.9 down to 0.12: the x < 1, 1 <= x < 8 and x >= 8 branches
    "limit-law-table": ["limit-law", "--sigma", "0.7", "--table", "0.001:60:5000", "--out", "{out}/table.csv"],
    # erfcinv levels in each ndtri branch: central, sqrt(-2 ln y) < 8 and >= 8
    "limit-law-quantiles": [
        "limit-law", "--sigma", "0.7", "--quantiles", "1e-300,1e-12,0.001,0.2,0.5,0.9,0.999999",
        "--out", "{out}/quantiles.csv",
    ],
}

DIGESTS = {
    "experiment": {
        "exp_ecdf_tau_N100.csv": "f844743eb9348fe6736da65196437f5ca1309b8c29b6b6e0d8e72c0a9a5284df",
        "exp_ecdf_tau_N1000.csv": "1f081e8722ae3beb7f8ea4ad5b05c72b9537b478d766080947d1561bcc314a52",
        "exp_replicates.csv": "24cdc2626bbca5f86383acbbdf02683ee271531f69173b44453a37fcb18cd0d3",
        "exp_summary.json": "f67ae2ba3823d468a86b259b7d641c5a31779fe56c28f25119514d440d75190e",
    },
    "coupled": {
        "coupled.csv": "aa88d13291f5ca840d5f4290ed8b24064835a81c36bee4704eaa88eaa201002f",
    },
    "simulate-full": {
        "full.csv": "fc72fbcfe187aa12fe27cee7d5c0b3fd799fc43c4197b5f8d8c2cb0be8e29463",
        "full_trajectories.csv": "e1a3bcf7e14e90e24abba39b1238a9dca2cd5f0604ebdedfb0bb21daccdfb1f3",
    },
    "simulate-shifted": {
        "shifted.csv": "f54846acc6748a19946cb922adfea7dcd9aab5ca837120a74d47f098ede2e518",
        "shifted_trajectories.csv": "26060671987ff207e519f4924c425523e3a0b02e43caf2cfdf0f9032d07bfcc7",
    },
    "simulate-blocks": {
        "blocks.csv": "44a0955b746335c2414cfe72da24323a5dbb96874c7f1eed75b8c97a8796c69d",
        "blocks_trajectories.csv": "b3889d87ae0c03e3d74f62967041b98e5592873bcad8761bb02cc4f1b75eae75",
    },
    "simulate-sparse": {
        "sparse.csv": "2cc2d1afc6f6735af9eb521dbb2418a39f113d05e4996fabe86888fe8f327cac",
        "sparse_trajectories.csv": "748b36cbce5227b2a86a6f0b4c36e6dcdb71fc6e07696c87766c6a16eead8a6b",
    },
    "lemma-sweep": {
        "sweep.csv": "9acc722c33d33487b7431720d08878bba238e150e46c5d209e395bc9a5cd47d0",
    },
    "audit": {
        "audit.json": "64e11230919e9834f27b43e6ab200c8c8a2365baa4cd16cf95cec332858db14c",
    },
    "audit-polygamous": {
        "audit.json": "a8dc0e94db5c4f58180898956c2614f85a693b48017522e8cb604ba7ac84b0c6",
    },
    "audit-sigma-env-2": {
        "audit.json": "269b2d0e4c336a5883185dd5b0980930a88f7043a896de95869669f0663e7bf1",
    },
    "audit-sigma-env-4.5": {
        "audit.json": "82590c2706388bb51740067104bd450fddff62129d0a0a59ea8d7034232a9bff",
    },
    "audit-sigma-env-4": {
        "audit.json": "cb02901e33a2cc792b99b2c9612ab7ccdbf13f3675150d2555618f3ae3dc304a",
    },
    "limit-law-table": {
        "table.csv": "d031dd07b878eb5856d3a454f14107a9cd954e8e7040bb26fdcdd347f9dbda6c",
    },
    "limit-law-quantiles": {
        "quantiles.csv": "5e04c13f1e89b3bfade6f801ddd6d3ca0f1778f6ce08663bbb10c9ef86ac029e",
    },
}


# The runs that take --threads; each is pinned at one and at two worker processes.
THREADED = (
    "coupled", "experiment", "lemma-sweep", "simulate-blocks", "simulate-full", "simulate-shifted", "simulate-sparse",
)
CASES = [pytest.param(name, ["--threads", "1"] if name in THREADED else [], id=name) for name in sorted(RUNS)] + [
    pytest.param(name, ["--threads", "2"], id=f"{name}-threads2") for name in THREADED
]


def digests_of(directory) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name, threads", CASES)
def test_output_digests_are_pinned(name, threads, tmp_path, capsys):
    argv = [a.format(out=tmp_path) for a in RUNS[name]]
    assert main(argv + threads) == 0
    capsys.readouterr()
    assert digests_of(tmp_path) == DIGESTS[name]
