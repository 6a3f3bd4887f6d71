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
    "simulate-sparse": [
        "simulate", "--n0", "500", "--replicates", "20", "--recording", "sparse", "--seed", "4",
        "--out", "{out}/sparse.csv",
    ],
    "lemma-sweep": [
        "lemma-sweep", "--n0", "300", "--paths", "3", "--replicates", "200", "--max-steps", "10", "--seed", "5",
        "--out", "{out}/sweep.csv",
    ],
    "audit": ["audit", "--alpha", "0.4", "--replicates", "3000", "--seed", "6", "--out", "{out}/audit.json"],
}

DIGESTS = {
    "experiment": {
        "exp_ecdf_tau_N100.csv": "3fb14960c0a437f0394cf55f51637f1d33649f962782f4a549853f394aa51a00",
        "exp_ecdf_tau_N1000.csv": "b6bcbac93eaee675f32bb387df503162d5db5f23279655d03b6f347fcd7003b7",
        "exp_replicates.csv": "e23e4ae08907244dd7e6331f9bd3a63780f2093f1ecd5c849d66ecc47bf4fc14",
        "exp_summary.json": "794a1e63488ec848148a6773f287a5d1f121019e68612909a446a1f199b6fe4e",
    },
    "coupled": {
        "coupled.csv": "e064815d7374be7fe7c67b8ad8dae00e1f0800f6c8ffeee4658c691202126513",
    },
    "simulate-full": {
        "full.csv": "8802474f716ba065b0ed25d6811196766b6e4a921568ade5f63b3253402c1f9e",
        "full_trajectories.csv": "be8cd9589b755530fbeac0ed47b5e1e38d37c6054ccfdf6be436ea9f06ad7aef",
    },
    "simulate-sparse": {
        "sparse.csv": "df61452370212123f88e6f9c1648d8fecc0c5395046519d4792dd8736d2c5d34",
        "sparse_trajectories.csv": "a7503bc63bfac34f0b21b20e1e6be542e2fee138330b2a4d745097f854e9f2e7",
    },
    "lemma-sweep": {
        "sweep.csv": "9acc722c33d33487b7431720d08878bba238e150e46c5d209e395bc9a5cd47d0",
    },
    "audit": {
        "audit.json": "6a472fa223fb97a932b5924f5541f488dd3483f0d4f5e7409d4906b2a57df7ee",
    },
}


def digests_of(directory) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_output_digests_are_pinned(name, tmp_path, capsys):
    argv = [a.format(out=tmp_path) for a in RUNS[name]]
    assert main(argv + ["--threads", "1"] if name != "audit" else argv) == 0
    capsys.readouterr()
    assert digests_of(tmp_path) == DIGESTS[name]
