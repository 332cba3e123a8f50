"""Golden sha256s of the CLI outputs.

Every command runs on both tank presets and on the drift chain, and the
sha256 of its output file and of its stdout must equal the recorded pair.
The hashes were recorded with the per-run scalar simulation loops that
preceded the batched kernels, so they pin the batched path to the same
bytes. ``stats-p2-two-blocks`` uses more reference runs than one
``run_moments`` accumulation block, so the block fold is pinned too.
The ``-left`` cases use formulas from ``tests/data`` whose untils have a
left operand other than ``true``, so the left running minimum and both
until modes are pinned; the ``-exp`` cases pin a decaying discount.
``estimate-p1-chunks`` has more runs than one ``estimate`` chunk of 1024
runs, so the rows of a run chunk boundary are pinned.
``estimate-p1-wide`` has three-digit run and time columns, and the
``-long`` cases four-digit time columns and series longer than one
block of CSV rows. The ``-run2e32`` and ``-run2e64`` cases use run
indices of two and three 32-bit words, so multi-word stream keys are
pinned. The ``-shuffled`` cases run a 7-state chain from ``tests/data``
whose values are listed out of order, with zero transitions and two rows
that sum to 1 - 1 ulp, so the kernel's value-to-state mapping is pinned.
``distance-p1-p2-blocks`` compares 100 runs against 1000 over 41 steps,
so each system is read as six blocks of up to eight time indices, three
of which hold no observed time.
``stats-drift-one-step-block`` folds 1100 reference runs of 9 time indices,
so its first chunk of 1024 runs is read as blocks of 8 and 1 time indices,
and its last block holds one value per run; the drift chain's values are
halves, so its sums are exact and ``tests/test_simulation.py`` pins the
run order of that fold.
``check-drift`` and ``check-drift-exp`` run 40 steps of a 600-step
formula, so index 0 is unreliable and their verdict is null.
``check-p1-empirical`` reads a formula whose atoms resample a
stored file; its path is relative to the repository root, where every
case runs, so the printed formula (and the stdout hash) is the same on
every machine.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

from evtl.cli import main

REPO = Path(__file__).resolve().parents[1]
P1 = ["--config", str(REPO / "presets" / "three-tanks-scenario-1.cfg")]
P2 = ["--config", str(REPO / "presets" / "three-tanks-scenario-2.cfg")]
DRIFT = ["--set", "model=chain", "--set", f"chain.file={REPO / 'chains' / 'drift.json'}"]
FAST = ["--set", "model=chain", "--set", f"chain.file={REPO / 'chains' / 'drift-fast.json'}"]
SHUFFLED = [
    "--set", "model=chain", "--set", f"chain.file={REPO / 'tests' / 'data' / 'shuffled-chain.json'}",
]
SETTLE = ["--formula", str(REPO / "properties" / "settle-on-goal.evtl")]
LEFT_CHAIN = ["--formula", str(REPO / "tests" / "data" / "until-left-chain.evtl")]
LEFT_TANKS = ["--formula", str(REPO / "tests" / "data" / "until-left-tanks.evtl")]
OVERFLOW = ["--formula", str(REPO / "properties" / "recover-from-overflow-risk.evtl")]
EMPIRICAL = ["--formula", "tests/data/empirical-tanks.evtl"]

CASES: dict[str, list[str]] = {
    "simulate-p1": ["simulate", *P1, "--steps", "40"],
    "simulate-p1-run3": ["simulate", *P1, "--steps", "40", "--run", "3"],
    "simulate-p1-run2e32": ["simulate", *P1, "--steps", "40", "--run", "4294967296"],
    "simulate-p2": ["simulate", *P2, "--steps", "40", "--seed", "5"],
    "simulate-drift": ["simulate", *DRIFT, "--steps", "30"],
    "simulate-drift-run3": ["simulate", *DRIFT, "--steps", "30", "--run", "3"],
    "simulate-drift-run2e64": ["simulate", *DRIFT, "--steps", "30", "--run", str(2**64 + 1)],
    "simulate-drift-long": ["simulate", *DRIFT, "--steps", "1500"],
    "estimate-p1": ["estimate", *P1, "--steps", "15", "--runs", "24"],
    "estimate-p2": ["estimate", *P2, "--steps", "15", "--runs", "24"],
    "estimate-drift": ["estimate", *DRIFT, "--steps", "10", "--runs", "20"],
    "estimate-shuffled": ["estimate", *SHUFFLED, "--steps", "10", "--runs", "20"],
    "estimate-p1-wide": ["estimate", *P1, "--steps", "120", "--runs", "120"],
    "estimate-p1-chunks": ["estimate", *P1, "--steps", "3", "--runs", "1100"],
    "distance-p1-p2": [
        "distance", *P1, "--against", P2[1], "--penalty", "rho3",
        "--steps", "20", "--runs", "30", "--ell", "2",
    ],
    "distance-p1-p2-exp": [
        "distance", *P1, "--against", P2[1], "--penalty", "rho2",
        "--steps", "20", "--runs", "30", "--ell", "3", "--set", "discount=exp:0.9",
    ],
    "distance-p1-p2-blocks": [
        "distance", *P1, "--against", P2[1], "--penalty", "rho3",
        "--steps", "40", "--runs", "100", "--ell", "10",
        "--set", "obs-times=0,3,17-19,40", "--set", "discount=exp:0.95",
    ],
    "distance-p2-p1": [
        "distance", *P2, "--against", P1[1], "--penalty", "rho1",
        "--steps", "20", "--runs", "30", "--ell", "2",
    ],
    "check-p1-settle": ["check", *P1, *SETTLE, "--steps", "60", "--runs", "30", "--ell", "2"],
    "check-p2-overflow": [
        "check", *P2, *OVERFLOW, "--steps", "70", "--runs", "20", "--ell", "2", "--seed", "3",
    ],
    "check-drift": [
        "check", *DRIFT, "--formula", str(REPO / "bench" / "inputs" / "long-horizon.evtl"),
        "--steps", "40", "--runs", "20", "--ell", "2",
    ],
    "check-drift-long": [
        "check", *DRIFT, "--formula", str(REPO / "bench" / "inputs" / "long-horizon.evtl"),
        "--steps", "1500", "--runs", "10", "--ell", "2",
    ],
    "check-drift-left": ["check", *DRIFT, *LEFT_CHAIN, "--steps", "40", "--runs", "20", "--ell", "2"],
    "check-drift-left-figure": [
        "check", *DRIFT, *LEFT_CHAIN, "--steps", "40", "--runs", "20", "--ell", "2",
        "--set", "until-mode=figure",
    ],
    "check-shuffled": [
        "check", *SHUFFLED, *LEFT_CHAIN, "--steps", "40", "--runs", "20", "--ell", "2",
    ],
    "check-shuffled-long": [
        "check", *SHUFFLED, "--formula", str(REPO / "bench" / "inputs" / "long-horizon.evtl"),
        "--steps", "1500", "--runs", "10", "--ell", "2",
    ],
    "check-p1-left": ["check", *P1, *LEFT_TANKS, "--steps", "45", "--runs", "30", "--ell", "3"],
    "check-p1-left-figure": [
        "check", *P1, *LEFT_TANKS, "--steps", "45", "--runs", "30", "--ell", "3",
        "--set", "until-mode=figure",
    ],
    "check-drift-exp": [
        "check", *DRIFT, "--formula", str(REPO / "bench" / "inputs" / "long-horizon.evtl"),
        "--steps", "40", "--runs", "20", "--ell", "2", "--set", "discount=exp:0.98",
    ],
    "check-p1-empirical": ["check", *P1, *EMPIRICAL, "--steps", "40", "--runs", "30", "--ell", "2"],
    "check-p1-exp": [
        "check", *P1, *SETTLE, "--steps", "60", "--runs", "30", "--ell", "2",
        "--set", "discount=exp:0.98",
    ],
    "stats-p1": ["stats", *P1, "--steps", "12", "--runs", "30", "--reference-runs", "60"],
    "stats-p2-two-blocks": [
        "stats", *P2, "--steps", "10", "--runs", "20", "--reference-runs", "1500",
    ],
    "stats-drift": ["stats", *DRIFT, "--steps", "8", "--runs", "30", "--reference-runs", "50"],
    "stats-drift-one-step-block": [
        "stats", *DRIFT, "--steps", "8", "--runs", "30", "--reference-runs", "1100",
    ],
}

# name -> (sha256 of the --out file, sha256 of stdout)
GOLDEN: dict[str, tuple[str, str]] = {
    "check-drift": (
        "9fc6308a77e602053ca5079b095bbba65c86cab3a671da4c8092eb2ee7851e28",
        "1873cfbf4691259eab7b7b959a01a2b7f95dfb234285e86db5b4c0cd9d1b59e9",
    ),
    "check-drift-exp": (
        "2efabd5424dcd5d347d08f53e3673916c5c70849014ec8b2315668fe351cbc94",
        "ce272fd2a243fbcdf72e6b3b5263da04066b780a68be2a9b8ef9da030f774397",
    ),
    "check-drift-left": (
        "ee92de5fd5193edb364ce568c3bfeac34d5ed7baf8fd399b1b6ad806bd833dbe",
        "8b8249e38a3fddad6ad6ccb4e2b6ce051f45b1662ebe7a9e076195b1e02ddc01",
    ),
    "check-drift-left-figure": (
        "cd021a2d51f6524e73b2f5c50e2c0853f06121d042d50fa5efa4a16563db3ef4",
        "70793e5ddc2cd116bb79708999e627b4bd350a0a536749947a3965fdcc308585",
    ),
    "check-drift-long": (
        "b2637e40da7bbab921fdad85fffd937847129d81d333fed269c6af5c076f4fed",
        "0c06da283553bb10248640b124997a6f25a9a3377784ab085a569262ab5d07d8",
    ),
    "check-p1-empirical": (
        "64434f2e8e69c1089a77d2b0a6fbdb17d90fcf30c7d2174469ab12f2c2c40ca1",
        "d3894195f894f399725694a1c18a5dea2703f6fceb800db467ab416bc256ca60",
    ),
    "check-p1-exp": (
        "b7ff79a894bb816bcad3f7c33fac6c67fa85546ce1461316c7da94380a691d2b",
        "a85120eaef0fcfcae3e59bbd48840169ae5a2b0a0c619423797d07054f9f9f9b",
    ),
    "check-p1-left": (
        "0d575a9b0b4d39190fba66d0d71669e1520e23fb5da4102001320862c5d01482",
        "e90079e677274662e901b2b85965af1830b9eaa29afa4b795c109393d1fc621e",
    ),
    "check-p1-left-figure": (
        "f519843d00ec3b46487a2e0d7d3e5472a367e37a03fea9202f5c68cf2cbfea5f",
        "c9f6f68d7e2da51d76a77ca4e49c5b1239aed1202d35d5c67aa029b1d4f0f12c",
    ),
    "check-p1-settle": (
        "5d3aade87676b604e181392d971b7535750529da7983bdeb4240afd282eb0669",
        "cdcd216c6620b47eb6592af0ac39a0bd49c4b1fabbaf137dfd0a5f1da68f785f",
    ),
    "check-p2-overflow": (
        "c4955dfd8e097b8875af3a7015a06f861a930775392d4f4794e603700bad53fd",
        "2ce7f6cfb0393237b7eff0a3c5144fefed0362ed74513ca7a4610c553726b193",
    ),
    "check-shuffled": (
        "c206e42c3d488ad63828cdec473b463056c450fc1a5105d34e1c53ae44a5e261",
        "8b8249e38a3fddad6ad6ccb4e2b6ce051f45b1662ebe7a9e076195b1e02ddc01",
    ),
    "check-shuffled-long": (
        "0d61c753ce9a9aa648e0c094583368e77a42a6fe3791660014893279898784f9",
        "59b66493ef96ceecaeb21387ea168a071fc4ceea6e99c1fb549458679b2ba124",
    ),
    "distance-p1-p2": (
        "012372f125697e7ed1950dabbe03676544839a53446fd8fee88fc011010f31d4",
        "4f1318c6a1f6b899e67f295c4d161b53bbd891b67cd1cf9ff4b497b8d1951982",
    ),
    "distance-p1-p2-exp": (
        "9558fec3539ce81295825a808dcdf0063ee2d68bf2d28d9983065037d7c34a67",
        "321cb9aa362c2f33c7feb4e1321c861574b6caf2aefaf98f23e84bf84f37d709",
    ),
    "distance-p1-p2-blocks": (
        "0ba48db0f63220c4153b1b42cde4aaccb2b63f3994a4f0881970c76d1093ec84",
        "7b8ac883e6c7a5aa46dcba9ba2e0cbdbbc680d498388b6be5106cb957f45eaba",
    ),
    "distance-p2-p1": (
        "51bf6e64586e0f2eeaba5754023e09a9652d168a9b781fbc5941b2214376dab1",
        "96974aaf53cca63fff30bdf92f2de6b34bce4a6b2dbad1df72f024d6d9282ff2",
    ),
    "estimate-drift": (
        "8487f6e77da44dc4065aaa16169726a6c7b32310e354ddb53c212a4f0fae378c",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "estimate-p1": (
        "5df5fa3b95c0637c1446a2a379287de7bbc44c6efb308ddeea6985a91075b5ae",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "estimate-p1-chunks": (
        "b6d35f8483490f41facf0bb82b05b2067fff77a8fd40444c328be05e5837132e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "estimate-p1-wide": (
        "58d3ab70f4f642fa860dc46e8b49d6b5fdf768bdc6eef2b11510f1dd44d93fda",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "estimate-shuffled": (
        "640c8bbad9e663f0f43115c9152f484d1044166a3217e87b9f37c6f2b01bc56e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "estimate-p2": (
        "6750bb2731c85afb6daf4d0efd2d5aaffd970808033b1a3e1238710e5ea1a43b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "simulate-drift": (
        "a4ab878a8d152b7602ed9da4e32085b1bef4af8cc20efc63a9de254e23934ade",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "simulate-drift-long": (
        "7d6a4de14cf6a5dea56ca38c12e466f122f4b04cb4d69313b34b22fffdd90ff8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "simulate-drift-run2e64": (
        "0e65faa161bf1a3fef7993bb5fdf3769f8e12aa49330c92d586d7c1a17e5142b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "simulate-drift-run3": (
        "afb6198a16867d6430ddf030340cd0702d462879d75e997e67864c15a2bd0f3b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "simulate-p1": (
        "bea3533a3f7e43be88e6c5118b68cb714f4919e7228feec888bb6f4bebf0c4bd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "simulate-p1-run2e32": (
        "7922ba5f16003a594e36919ef0f820d260b17ff06b38eaada8017aee3df16462",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "simulate-p1-run3": (
        "f6e6a7a2eb719cd4941c7ace818b85480a72362c3280c44396220eaf2361c5be",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "simulate-p2": (
        "0a9a8832f3c2537059396475715c7ead5adf47cb5293c8333a06875b6639aa8e",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "stats-drift": (
        "0a4996f54c063465a40bc7e96c4884a54e223e0c443b2af0b2d4e0d469e71afd",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "stats-drift-one-step-block": (
        "51d50a7cf7b192e05c4ba6da22959124426d669aef1b9dafb86885058ebe86d8",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "stats-p1": (
        "17df582ec32fe185ac55a3031a4f9b9740da73006d1ae130e7a554f310a83d8f",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    "stats-p2-two-blocks": (
        "3bd8dc4e88e1571edccd0304d5c806df6cb8861b1161846cfb6672cd6a60178b",
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
}

# cases rerun with --workers 4; the flag must not change a byte
WORKER_CASES = ("estimate-p1", "stats-p2-two-blocks", "check-drift")


def _hashes(argv: list[str], out: Path, capsys) -> tuple[str, str]:
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return (
        hashlib.sha256(out.read_bytes()).hexdigest(),
        hashlib.sha256(captured.out.encode()).hexdigest(),
    )


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(REPO)
    assert _hashes(CASES[name], tmp_path / "out.csv", capsys) == GOLDEN[name]


@pytest.mark.parametrize("name", WORKER_CASES)
def test_workers_flag_does_not_change_bytes(name, tmp_path, capsys):
    argv = [*CASES[name], "--workers", "4"]
    assert _hashes(argv, tmp_path / "out.csv", capsys) == GOLDEN[name]
