"""Tests for loss generators, the experiment loop, CSV emission, and sweeps."""

import hashlib
import itertools
import math
import re
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from classhedge import Aggregator, core, harness, kernels
from classhedge.core import ConfigError
from classhedge.harness import (
    CSV_COLUMNS,
    ExperimentConfig,
    _write_csv,
    emit_csv,
    loss_generator,
    make_kernel,
    read_csv_columns,
    read_trace,
    run_experiment,
    run_sweep,
    run_verification,
    within_bound,
)
from classhedge.kernels import FixedShare


def take(stream, n):
    return np.array([next(stream) for _ in range(n)])


class TestLossGenerators:
    def test_constant_identical_vectors(self):
        rows = take(loss_generator("constant", 3, {"value": 2.5}, np.random.default_rng(0)), 5)
        np.testing.assert_array_equal(rows, np.full((5, 3), 2.5))

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown loss generator"):
            next(loss_generator("nope", 2, {}, np.random.default_rng(0)))

    def test_unknown_parameter_rejected(self):
        with pytest.raises(ConfigError, match="does not take"):
            next(loss_generator("constant", 2, {"delta": 1.0}, np.random.default_rng(0)))

    @pytest.mark.parametrize(
        "name, params, message",
        [
            ("nope", {}, "unknown loss generator"),
            ("adversarial-switching", {"period": 0}, "period must be >= 1"),
            ("adversarial-switching", {"period": 2.5}, "must be an integer"),
            ("adversarial-cyclic", {"sigma": 1.5}, "must be an integer"),
            ("adversarial-cyclic", {"start": True}, "must be an integer"),
            ("iid-uniform", {"scale": math.inf}, "must be finite"),
        ],
    )
    def test_invalid_input_rejected_when_called(self, name, params, message):
        # no next(): the checks must not wait for the first loss to be drawn
        with pytest.raises(ConfigError, match=message):
            loss_generator(name, 2, params, np.random.default_rng(0))

    NON_DEFAULT = {
        "constant": {"value": -2.75},
        "iid-uniform": {"offset": -3.5, "scale": 1e3},
        "gaussian-drift": {"drift": 0.5, "noise": 2.0, "spread": 0.25},
        "adversarial-cyclic": {"sigma": 2, "delta": 0.7, "start": 1},
        "adversarial-switching": {"delta": 0.9, "period": 3},
    }

    @pytest.mark.parametrize("name, experts, params, digest", [
        ("constant", 1, "default", "076a27c79e5ace2a3d47f9dd2e83e4ff6ea8872b3c2218f66c92b89b55f36560"),
        ("constant", 1, "custom", "68a93af22038165393dd3d6c06a86535a58f784826be4cf61dae76803f8d154a"),
        ("constant", 3, "default", "80422bc3d307b4a25bdafcc84ac7fb01cb55a09810e8b0f37bb12e0edb5c48ca"),
        ("constant", 3, "custom", "9963669894b9ec862319ee50586747a4bb0457c45744f8941d1c5af0dad40094"),
        ("iid-uniform", 1, "default", "97a942a4e10b14332c04a8f35a5fbd618965676ee523337f27fc912d4c2eeaaf"),
        ("iid-uniform", 1, "custom", "2b614864903af4abc254fab0fb308c96d8718253b112b3d4fb922498947c66e9"),
        ("iid-uniform", 3, "default", "8a164805880ba187db8c3f8fa1ec61fe986ac056b35d801f64c82af7566d7d2c"),
        ("iid-uniform", 3, "custom", "62c0d0bf2947e492dbbfccc012209bfe31e68eb1003931015dad39e26438fbb1"),
        ("gaussian-drift", 1, "default", "6c63204a063a06ef8f9884a2b04d80d22dabdc908bded3f69f27e4e42a2b7c7a"),
        ("gaussian-drift", 1, "custom", "2210541d8193816752fd675d7ec41d5a5b65a2db109f6e2da8050ae964f11737"),
        ("gaussian-drift", 3, "default", "1f6563e180479f2d3dd9ad9393d16d9e0d1286d62523310db2279f81eeac2537"),
        ("gaussian-drift", 3, "custom", "b5e177f0a4844d13b4ba148fa4d19e11fcd63ae3fe444fba46bd0a48a1dc3cef"),
        ("adversarial-cyclic", 1, "default", "f588d5581db65674ac39d894f4bc07b49f34c4c62b876ca38ed41aa6a1875404"),
        ("adversarial-cyclic", 1, "custom", "837ab61b95bc4d4ed7f3af6866f0a310460c57d381bff19f61fed697437f8682"),
        ("adversarial-cyclic", 3, "default", "0b64b1af92952a7e64c08b906a5f5c84bb12d2f97a13ee78bef6d1925123daf6"),
        ("adversarial-cyclic", 3, "custom", "f6df04444c8430a7eb6034f35438d696425cbc558bbe7070a548361654f39dfa"),
        ("adversarial-switching", 1, "default", "f588d5581db65674ac39d894f4bc07b49f34c4c62b876ca38ed41aa6a1875404"),
        ("adversarial-switching", 1, "custom", "550bb435e505e691981a9a14d004fcfe0d1bb02074688c57995208cf37a26668"),
        ("adversarial-switching", 3, "default", "46e760b037e849227e1365fa483e109a15f57e49ffb90c8f56e71b40ef09d945"),
        ("adversarial-switching", 3, "custom", "10844b186b2654e7924b3204880ca0af2065765c8baca40ad6b6f074abff4c12"),
    ])
    def test_first_rows_keep_their_bytes(self, name, experts, params, digest):
        # sha256 of the first 64 rows, seed 0, as little-endian doubles
        stream = loss_generator(name, experts, self.NON_DEFAULT[name] if params == "custom" else {},
                                np.random.default_rng(0))
        rows = take(stream, 64).astype("<f8")
        assert rows.shape == (64, experts)
        assert hashlib.sha256(rows.tobytes()).hexdigest() == digest

    def test_integer_parameters_accept_numpy_integers(self):
        params = {"period": np.int64(10), "delta": 5.0}
        a = take(loss_generator("adversarial-switching", 3, params, np.random.default_rng(4)), 20)
        b = take(
            loss_generator("adversarial-switching", 3, {"period": 10, "delta": 5.0}, np.random.default_rng(4)),
            20,
        )
        np.testing.assert_array_equal(a, b)

    def test_deterministic_given_seed(self):
        a = take(loss_generator("gaussian-drift", 4, {}, np.random.default_rng(3)), 10)
        b = take(loss_generator("gaussian-drift", 4, {}, np.random.default_rng(3)), 10)
        np.testing.assert_array_equal(a, b)

    def test_iid_uniform_offset_and_scale(self):
        rows = take(
            loss_generator("iid-uniform", 3, {"offset": 5.0, "scale": 0.5}, np.random.default_rng(1)),
            200,
        )
        assert rows.min() >= 5.0 and rows.max() <= 5.5

    def test_adversarial_cyclic_plants_moving_advantage(self):
        experts, sigma, delta = 4, 1, 0.3
        rows = take(
            loss_generator(
                "adversarial-cyclic", experts, {"sigma": sigma, "delta": delta}, np.random.default_rng(2)
            ),
            4000,
        )
        planted = np.array([(sigma * t) % experts for t in range(4000)])
        planted_mean = rows[np.arange(4000), planted].mean()
        others_mean = (rows.sum(axis=1) - rows[np.arange(4000), planted]).mean() / (experts - 1)
        # planted trajectory sits delta below the rest in expectation
        assert others_mean - planted_mean == pytest.approx(delta, abs=0.03)

    def test_adversarial_switching_period_structure(self):
        # delta > 1 pushes the planted expert below zero every round, so the
        # planted column is identifiable: constant within each period block
        rows = take(
            loss_generator("adversarial-switching", 3, {"period": 10, "delta": 5.0}, np.random.default_rng(4)),
            40,
        )
        planted = rows.argmin(axis=1)
        assert np.all(rows[np.arange(40), planted] < 0)
        for block in planted.reshape(4, 10):
            assert len(set(block)) == 1


# The one-row-at-a-time streams that the block generators replaced, kept as the reference for
# their bytes: each call drew one round's vector, in the same order of draws.
def _ref_constant(m, rng, value=0.0):
    while True:
        yield np.full(m, value)


def _ref_iid_uniform(m, rng, offset=0.0, scale=1.0):
    while True:
        yield offset + scale * rng.random(m)


def _ref_gaussian_drift(m, rng, drift=0.05, noise=1.0, spread=1.0):
    means = spread * rng.standard_normal(m)
    while True:
        yield means + noise * rng.standard_normal(m)
        means = means + drift * rng.standard_normal(m)


def _ref_adversarial_cyclic(m, rng, sigma=1, delta=0.3, start=0):
    for t in itertools.count():
        losses = rng.random(m)
        losses[(start + sigma * t) % m] -= delta
        yield losses


def _ref_adversarial_switching(m, rng, delta=0.3, period=50):
    for t in itertools.count():
        if t % period == 0:
            planted = int(rng.integers(m))
        losses = rng.random(m)
        losses[planted] -= delta
        yield losses


REFERENCE_STREAMS = {
    "constant": _ref_constant,
    "iid-uniform": _ref_iid_uniform,
    "gaussian-drift": _ref_gaussian_drift,
    "adversarial-cyclic": _ref_adversarial_cyclic,
    "adversarial-switching": _ref_adversarial_switching,
}
BLOCK_CASES = [(name, {}) for name in REFERENCE_STREAMS] + [
    (name, params) for name, params in TestLossGenerators.NON_DEFAULT.items()
] + [
    ("adversarial-cyclic", {"sigma": 2**70 + 3, "start": -(2**65) - 1}),
    ("adversarial-cyclic", {"sigma": -(2**64) - 5, "delta": -2.5, "start": 2**80 + 7}),
    ("adversarial-switching", {"period": 1}),
    ("adversarial-switching", {"period": 10_000}),  # longer than any block
    ("adversarial-switching", {"period": 2**70}),
]


def _rows(stream, experts, n):
    return np.fromiter(stream, np.dtype((float, (experts,))), n)


# TestBlockDraws compares the block streams with the reference streams at each of these M and
# seeds, over the blocks of 1, 2, 4, ... rows up to B = max(1, _BLOCK // M), then three of B.
BLOCK_EXPERTS = (1, 2, 3, 8, 64)
BLOCK_SEEDS = (0, 1, 2**60 + 1)


def _block_case_digest(make_stream, experts):
    """sha256 of the first 4·B + 17 rows of the stream ``make_stream(rng)`` makes for each of
    BLOCK_SEEDS, as little-endian doubles."""
    rows = 4 * max(1, kernels._BLOCK // experts) + 17
    digest = hashlib.sha256()
    for seed in BLOCK_SEEDS:
        digest.update(_rows(make_stream(np.random.default_rng(seed)), experts, rows).astype("<f8").tobytes())
    return digest.hexdigest()


def reference_block_digests():
    """BLOCK_DIGESTS, derived from the one-row reference streams.  That is about 13 s of
    row-at-a-time draws, so the tests compare the block streams with the pins and re-derive
    only the M=64 pins.  ``PYTHONPATH=src python tests/test_harness.py`` prints the table."""
    return {
        f"{name}-{params}-{experts}": _block_case_digest(
            lambda rng: REFERENCE_STREAMS[name](experts, rng, **params), experts
        )
        for name, params in BLOCK_CASES
        for experts in BLOCK_EXPERTS
    }


BLOCK_DIGESTS = {
    "constant-{}-1": "65f4a7cd5817df08d6a1a2d7b4c0ccc75f9cd04b62163c596bf5ef27b664dcba",
    "constant-{}-2": "73d32ecce9888a0762c019819b3e7c4939cffc6a2b11e3672d9b1f3025e8cd26",
    "constant-{}-3": "d7381d37a7fa6f2f4e1b24f5f8ec73416f26f4d80ce79581d7fc6cf320a20d25",
    "constant-{}-8": "ecb3497bf4459e1c8ecf0129c273b1de542ea4c590832d2ef94b2f8691440963",
    "constant-{}-64": "acd79d6b9037a32cbe0b9f07044675768ca88f872ac8d11b26af308cd04ea41f",
    "iid-uniform-{}-1": "4858e0f7262bc7dcb312626f4d9971763c73142714cc317c28f7062d594a6686",
    "iid-uniform-{}-2": "dee7ba57eb2077d64e177442d52a05539bd68420adb7244756442b6652eb9417",
    "iid-uniform-{}-3": "d11836e9fec129548ebedb4d14ae2bb26ef3061ecb9d35b831f830fb6c40e4b2",
    "iid-uniform-{}-8": "d94f9469daada5ec5f9bb7e02d9dc60b09e641280420a9db61b27bb9a8128bd6",
    "iid-uniform-{}-64": "13c7e7c2cae2ff98867fbee211f96eedcadcf920c832363d3e2541e6d46e8a37",
    "gaussian-drift-{}-1": "931955d71bf7727a94e620f1fa02cdecede0e047915bc7b87009ad50c2947708",
    "gaussian-drift-{}-2": "85368a2d8c53e390f77f64fc18fd1b9bac7290d5cc973cd4fef4b599bf75edc7",
    "gaussian-drift-{}-3": "78fdd7927244d555288e5706e9ada2ce982b486bcb3dd7e3c50c81b6e89e2d4e",
    "gaussian-drift-{}-8": "f4a948baba68a0850c7027b7b1b47d653a6e1ee9f7c2696b85a81603174089dd",
    "gaussian-drift-{}-64": "a68fe4a03caeb1cda2c21bdffadc7adc99a47ca42aa72e8c3ea08e4e6346ccd0",
    "adversarial-cyclic-{}-1": "d743bb4089b0d8d965ccad21e6a5283a062d3e35ac2edf43f1c0075f987a1962",
    "adversarial-cyclic-{}-2": "63e7414bb0af0902f6c472c9b1015af10ff44f18d50d27135351ef2d58f8dbf8",
    "adversarial-cyclic-{}-3": "04cfcd675319cca3b65e42a8294907d4a3e7f10176a8a460bf6a7449fb53b00b",
    "adversarial-cyclic-{}-8": "6236f1685af631833c5c1a4998a5e6134e886ad8b5c69995d9c8eee039807827",
    "adversarial-cyclic-{}-64": "40a7f70edd9232d78de5505d1d79a12e9282fc4e353b373790e9d3e5d4d2baca",
    "adversarial-switching-{}-1": "d743bb4089b0d8d965ccad21e6a5283a062d3e35ac2edf43f1c0075f987a1962",
    "adversarial-switching-{}-2": "4eff8c14a3d0b49825dbaa9fecd0217782c03b7d71b2cf76e5ed01c95ade5b4b",
    "adversarial-switching-{}-3": "ee52f59960f3d4b7c6db423c62d0de9aab51fac66a873a08c8b75cb1dcb9dcf2",
    "adversarial-switching-{}-8": "cd8cd0a131f44877ff0ab1c604d0c96a78ef6470cfeb0ead05096df9a315e77c",
    "adversarial-switching-{}-64": "05c0045a00ea448bd95e2aa22dc0e323d54e9c0de8306c94cd13cf66b7c54ed2",
    "constant-{'value': -2.75}-1": "fb555431aec52a6900fb026d8e25d30f57cc465dbb4d296c7ce2c23f9e4d503b",
    "constant-{'value': -2.75}-2": "f860666030e0cfc806f75d42f77bb8d1d09790c4a1798fe33d6ccb21bba7cad7",
    "constant-{'value': -2.75}-3": "442ccf73f8c1f18baf6ea671f9dd1cfcf67d0508db5140d40e41d585f6a31e30",
    "constant-{'value': -2.75}-8": "8ecb5e30ddf142e443e23ad924245c270de413c9eee07acef96d44c78e34ffa9",
    "constant-{'value': -2.75}-64": "f3cf65fd068022da8ec065d497bfa0b53da57e9a13df43ce67681d6619709fa6",
    "iid-uniform-{'offset': -3.5, 'scale': 1000.0}-1": "6219ef7da9f988778e09f570237b98b6985ff51707f4ede54b973c65199fe735",
    "iid-uniform-{'offset': -3.5, 'scale': 1000.0}-2": "465829b56a426804b3c7b3bcd87419a75c95bbfe84a2f4ba82f736915153971e",
    "iid-uniform-{'offset': -3.5, 'scale': 1000.0}-3": "ac92770ff12d0338973ee11a5a49d86848446967c224a0b776f634a53b03ffdc",
    "iid-uniform-{'offset': -3.5, 'scale': 1000.0}-8": "c1cbef030ae557a441b34ab50ef5048df7bbb46dfd8fa9d9f66a8a83a22e7b9c",
    "iid-uniform-{'offset': -3.5, 'scale': 1000.0}-64": "98adb169fce4a63e9a7b8128b472b22b8e13de92d0ff30f227d0a334a74fb6ed",
    "gaussian-drift-{'drift': 0.5, 'noise': 2.0, 'spread': 0.25}-1": "c1df94900e12a9a6e811c06e8e82b3b55b0140436fa614365404abb2c712aa52",
    "gaussian-drift-{'drift': 0.5, 'noise': 2.0, 'spread': 0.25}-2": "d0e46181ca8042a85ee25703cf50ffc0c243b01c3f4aa58fc39e62306c19213d",
    "gaussian-drift-{'drift': 0.5, 'noise': 2.0, 'spread': 0.25}-3": "8c6724bec1351fe83e7b9ee15b4d92a20de2c329ab1d9aeef66a1da6c883e2ff",
    "gaussian-drift-{'drift': 0.5, 'noise': 2.0, 'spread': 0.25}-8": "d6d2ce4c06c119beb927372d3e901c9aa3c16ae73320e13ab34fbd3e356fe12a",
    "gaussian-drift-{'drift': 0.5, 'noise': 2.0, 'spread': 0.25}-64": "96e53cfc383bdd40a8009a6ea3cd455d1c6f890fde552e3fc08208085adcc3d1",
    "adversarial-cyclic-{'sigma': 2, 'delta': 0.7, 'start': 1}-1": "ad8b3ce550ec5852d46a925752ab2614dc4f171d4b5c7a488a16eaf7b2b7412d",
    "adversarial-cyclic-{'sigma': 2, 'delta': 0.7, 'start': 1}-2": "2d296da158594390aee3c1bbba9b08a11127a7947fd8a8efcafda0b294dc7a93",
    "adversarial-cyclic-{'sigma': 2, 'delta': 0.7, 'start': 1}-3": "725a238a82d0dcd54c8d3bcc5c939c528ee8fc73645319897187d17f269b4cb4",
    "adversarial-cyclic-{'sigma': 2, 'delta': 0.7, 'start': 1}-8": "b98110365f88d70fa007ed5833dcb983efc4e875ad082bf2a453afed60a905b0",
    "adversarial-cyclic-{'sigma': 2, 'delta': 0.7, 'start': 1}-64": "e2596bdba2ca5545a97ea8ae115b5d77ee2382e205ec5a6bc0c683880bfcb2e2",
    "adversarial-switching-{'delta': 0.9, 'period': 3}-1": "d3416ad5ab8e518b4b872c2ba35c6d9c0b4a269d7037f6446ae86c0797d57ca4",
    "adversarial-switching-{'delta': 0.9, 'period': 3}-2": "811707b06bc0ffacf190c7728259ca04d143e6a8c98aa0661ca64a25f264f4d0",
    "adversarial-switching-{'delta': 0.9, 'period': 3}-3": "c9f138eed28e9887d6eba9377e0d00d951e9d20c401fb84ed74fad8ae5cff54a",
    "adversarial-switching-{'delta': 0.9, 'period': 3}-8": "138f6d13d263b2a0c74358fadaebc61abe7f95ae27a04fbc1f9adf44c5bb9ae5",
    "adversarial-switching-{'delta': 0.9, 'period': 3}-64": "b2f985e589ee9d93b937c9375372eb5faa5280bb44018d1cfa98e1d64596fc04",
    "adversarial-cyclic-{'sigma': 1180591620717411303427, 'start': -36893488147419103233}-1": "d743bb4089b0d8d965ccad21e6a5283a062d3e35ac2edf43f1c0075f987a1962",
    "adversarial-cyclic-{'sigma': 1180591620717411303427, 'start': -36893488147419103233}-2": "d28ee103a1cf8d52b11024230147e8e94c8b7d933a497c1047344aeb782c3bbb",
    "adversarial-cyclic-{'sigma': 1180591620717411303427, 'start': -36893488147419103233}-3": "04cfcd675319cca3b65e42a8294907d4a3e7f10176a8a460bf6a7449fb53b00b",
    "adversarial-cyclic-{'sigma': 1180591620717411303427, 'start': -36893488147419103233}-8": "4afc0f54da698721ae4ddd4a741c551ba2028cca308301faf8953ce496615535",
    "adversarial-cyclic-{'sigma': 1180591620717411303427, 'start': -36893488147419103233}-64": "99aa17d9c121288fa3993e8a803817ccf4b902456561cf1e439d96af3c192f93",
    "adversarial-cyclic-{'sigma': -18446744073709551621, 'delta': -2.5, 'start': 1208925819614629174706183}-1": "c584c08691c407cb23eac73c616b45d66162ccb5ece622bf1491b7e278176ae3",
    "adversarial-cyclic-{'sigma': -18446744073709551621, 'delta': -2.5, 'start': 1208925819614629174706183}-2": "0979e46fbb4bfae0e92508c99d580d731bfa381d8f5217a9d005a5e56c5e61a0",
    "adversarial-cyclic-{'sigma': -18446744073709551621, 'delta': -2.5, 'start': 1208925819614629174706183}-3": "4290ba9b44a66d0efa6fb76b39807559916fb31f9358d3ce9f9d38f579336574",
    "adversarial-cyclic-{'sigma': -18446744073709551621, 'delta': -2.5, 'start': 1208925819614629174706183}-8": "eac6008d1350f4760b4417aa8b46628023218001b17f966278179205041bbb4a",
    "adversarial-cyclic-{'sigma': -18446744073709551621, 'delta': -2.5, 'start': 1208925819614629174706183}-64": "9197289c0fbffef2a73fb211b3e717bd9b98eeed90375ea75db35c0668023561",
    "adversarial-switching-{'period': 1}-1": "d743bb4089b0d8d965ccad21e6a5283a062d3e35ac2edf43f1c0075f987a1962",
    "adversarial-switching-{'period': 1}-2": "6891ec38422b2f0ca99d81eb3d01a55d01336701738b124202f5d516d6729dd3",
    "adversarial-switching-{'period': 1}-3": "b34f4f2a5b2e16e7d204595b6744d06b634275eac1288542292016905d53d355",
    "adversarial-switching-{'period': 1}-8": "e640812c900ae71ff80f60cfdba9d8b5908603433046643f483f30a68583c15e",
    "adversarial-switching-{'period': 1}-64": "0bb43530bdab703d8c944c522780bf46d49ac7e3534a96b3921f15a7c675a722",
    "adversarial-switching-{'period': 10000}-1": "d743bb4089b0d8d965ccad21e6a5283a062d3e35ac2edf43f1c0075f987a1962",
    "adversarial-switching-{'period': 10000}-2": "55d5dee56ae86642376e3b36d2cc9f8f8e767b2b3d93db727e345a050794f793",
    "adversarial-switching-{'period': 10000}-3": "5b8c14af3dff8fd307edd71fbe8b3d95adefadce663aeb2af9ade4e95968579e",
    "adversarial-switching-{'period': 10000}-8": "ddc7036c0c202c1fbe11eaa535e33e9abe8159559fcdf6185191b538335b1d65",
    "adversarial-switching-{'period': 10000}-64": "0d56f7593fcf574e86a92b950cbe093d5fa47641312dd3fa6a1a171de044010e",
    "adversarial-switching-{'period': 1180591620717411303424}-1": "d743bb4089b0d8d965ccad21e6a5283a062d3e35ac2edf43f1c0075f987a1962",
    "adversarial-switching-{'period': 1180591620717411303424}-2": "b087a1af35b86fae736b925825ceebd712a56c86f9a7a293cfe2991b68747ee6",
    "adversarial-switching-{'period': 1180591620717411303424}-3": "47fb0980b22b42dccfaf59d36de7afa0ecafd3395a1d1856d85db6c46671b135",
    "adversarial-switching-{'period': 1180591620717411303424}-8": "ddc7036c0c202c1fbe11eaa535e33e9abe8159559fcdf6185191b538335b1d65",
    "adversarial-switching-{'period': 1180591620717411303424}-64": "0d56f7593fcf574e86a92b950cbe093d5fa47641312dd3fa6a1a171de044010e",
}


class TestBlockDraws:
    """The generators draw blocks of 1, 2, 4, ... rows up to B = max(1, _BLOCK // M); the stream
    keeps the bytes of the one-row streams above, across block boundaries and at any parameter."""

    @pytest.mark.parametrize("experts", BLOCK_EXPERTS)
    @pytest.mark.parametrize("name, params", BLOCK_CASES, ids=[f"{n}-{p}" for n, p in BLOCK_CASES])
    def test_rows_keep_the_one_row_streams_bytes(self, name, params, experts):
        # the reference rows' digests are pinned (see reference_block_digests)
        got = _block_case_digest(lambda rng: loss_generator(name, experts, params, rng), experts)
        assert got == BLOCK_DIGESTS[f"{name}-{params}-{experts}"]

    @pytest.mark.parametrize("name, params", BLOCK_CASES, ids=[f"{n}-{p}" for n, p in BLOCK_CASES])
    def test_the_pinned_digests_are_the_one_row_streams(self, name, params):
        # the widest M, the fewest rows: the reference still gives the pins
        got = _block_case_digest(lambda rng: REFERENCE_STREAMS[name](64, rng, **params), 64)
        assert got == BLOCK_DIGESTS[f"{name}-{params}-64"]

    @pytest.mark.parametrize("name", list(REFERENCE_STREAMS))
    def test_run_experiment_plays_the_reference_rows(self, name):
        config = ExperimentConfig(experts=8, rounds=4 * (kernels._BLOCK // 8) + 17, loss_gen=name, seed=11)
        loss_rng = np.random.default_rng(np.random.SeedSequence(11).spawn(2)[0])
        ref = _rows(REFERENCE_STREAMS[name](8, loss_rng), 8, config.rounds)
        assert run_experiment(config).losses.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("rounds, heights", [
        (1, [1]),  # a one-round game draws one row
        (50, [1, 2, 4, 8, 16, 32]),
        (2000, [1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024]),  # B = 1024 at M = 8
    ])
    def test_run_experiment_draws_its_table_in_blocks_not_rounds(self, rounds, heights):
        yielded = []

        def profile(frame, event, arg):
            if event == "return" and arg is not None and frame.f_code is harness._iid_uniform.__code__:
                yielded.append(arg.shape)

        sys.setprofile(profile)
        try:
            run_experiment(ExperimentConfig(experts=8, rounds=rounds, seed=3))
        finally:
            sys.setprofile(None)
        assert kernels._BLOCK == 8192 and yielded == [(b, 8) for b in heights]

    def test_a_long_period_draws_one_block_at_a_time(self):
        stream = loss_generator("adversarial-switching", 8, {"period": 2**70}, np.random.default_rng(0))
        rows = max(1, kernels._BLOCK // 8)
        block = rows * 8 * 8  # bytes
        tracemalloc.start()
        try:
            for _ in range(rows):  # the blocks of 1, 2, ..., rows / 2, then the first of B rows
                next(stream)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert block <= peak < 2 * block

    def test_numpy_integer_experts_take_any_int_parameter(self):
        params = {"sigma": 2**70 + 3, "start": -(2**65) - 1}
        a = _rows(loss_generator("adversarial-cyclic", np.int64(3), params, np.random.default_rng(0)), 3, 40)
        b = _rows(loss_generator("adversarial-cyclic", 3, params, np.random.default_rng(0)), 3, 40)
        assert a.tobytes() == b.tobytes()


class TestConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ExperimentConfig(experts=0, rounds=5).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(experts=2, rounds=0).validate()
        with pytest.raises(ConfigError):
            ExperimentConfig(experts=2, rounds=5, gamma=-1.0).validate()
        for bad in ({"gamma": "fast"}, {"gamma": True}, {"out": 123}, {"trace": "no", "out": "run.csv"}):
            with pytest.raises(ConfigError):
                ExperimentConfig(experts=2, rounds=5, **bad).validate()
        for out in (None, ""):
            with pytest.raises(ConfigError, match="^trace is written beside the CSV, so it needs out$"):
                ExperimentConfig(experts=2, rounds=5, out=out, trace=True).validate()
        ExperimentConfig(experts=2, rounds=5).validate()
        ExperimentConfig(experts=2, rounds=5, gamma=2, out=Path("run.csv")).validate()

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ConfigError, match="unknown kernel"):
            make_kernel("mystery", 3)

    @pytest.mark.parametrize(
        "weight",
        ["abc", None, True, "0.1", math.nan, math.inf, 1.0,
         pytest.param(10**400, id="1e400"), pytest.param(-10**400, id="-1e400")],
    )
    def test_switch_weight_must_be_a_real_in_the_unit_interval(self, weight):
        with pytest.raises(ConfigError, match="switch_weight must be a real in"):
            make_kernel("switching", 3, {"switch_weight": weight})

    def test_switch_weight_accepts_numpy_reals(self):
        assert isinstance(
            make_kernel("switching", 3, {"switch_weight": np.float32(0.25)})._structure, FixedShare
        )

    @pytest.mark.parametrize("params", [[1], "switch_weight", 0.1])
    def test_parameters_must_be_a_mapping(self, params):
        with pytest.raises(ConfigError, match="must be a mapping"):
            make_kernel("switching", 3, params)
        for field in ("kernel_params", "loss_params"):
            with pytest.raises(ConfigError, match="must be a mapping"):
                run_experiment(ExperimentConfig(experts=3, rounds=5, kernel="switching", **{field: params}))

    @pytest.mark.parametrize("value", ["x", None, True, [1.0]])
    def test_real_generator_parameters_must_be_real_numbers(self, value):
        with pytest.raises(ConfigError, match="must be a real number"):
            run_experiment(ExperimentConfig(experts=3, rounds=5, loss_params={"scale": value}))

    @pytest.mark.parametrize("name", [["x"], None, 3, ("fixed",)])
    def test_names_must_be_strings(self, name):
        rng = np.random.default_rng(0)
        for call, message in (
            (lambda: make_kernel(name, 3), "unknown kernel"),
            (lambda: loss_generator(name, 3, {}, rng), "unknown loss generator"),
            (lambda: ExperimentConfig(experts=3, rounds=5, kernel=name).validate(), "unknown kernel"),
            (lambda: ExperimentConfig(experts=3, rounds=5, loss_gen=name).validate(), "unknown loss generator"),
        ):
            with pytest.raises(ConfigError, match=message):
                call()

    @pytest.mark.parametrize("params", [{1: 0.1, "a": 2}, {("switch_weight",): 0.1}, {None: 1}])
    def test_parameter_names_must_be_strings(self, params):
        rng = np.random.default_rng(0)
        for call in (
            lambda: make_kernel("switching", 3, params),
            lambda: loss_generator("iid-uniform", 3, params, rng),
            lambda: ExperimentConfig(experts=3, rounds=5, kernel="switching", kernel_params=params).validate(),
            lambda: ExperimentConfig(experts=3, rounds=5, loss_params=params).validate(),
        ):
            with pytest.raises(ConfigError, match="must be a mapping of names to values"):
                call()

    def test_auto_gamma_uses_declared_budget(self):
        report = run_experiment(ExperimentConfig(experts=4, rounds=3, kernel="cyclic", seed=1))
        expected = math.sqrt((1 + 2 * math.log(4)) / (2 * (math.e - 2)))
        assert report.gamma == pytest.approx(expected, rel=1e-15)


class TestRunExperiment:
    def test_single_expert_has_zero_regret(self):
        report = run_experiment(
            ExperimentConfig(experts=1, rounds=50, loss_gen="gaussian-drift", seed=5)
        )
        np.testing.assert_array_equal(report.exp_regret, 0.0)

    def test_constant_losses_zero_regret_and_static_probs(self):
        report = run_experiment(
            ExperimentConfig(experts=3, rounds=20, loss_gen="constant", loss_params={"value": 1.0}, seed=6)
        )
        np.testing.assert_array_equal(report.exp_regret, 0.0)
        np.testing.assert_allclose(report.probs, 1 / 3, rtol=1e-12)

    def test_monotone_columns(self):
        report = run_experiment(
            ExperimentConfig(experts=4, rounds=200, kernel="cyclic", loss_gen="iid-uniform", seed=7)
        )
        assert np.all(np.diff(report.D) >= 0)
        assert np.all(np.diff(report.V) >= 0)
        assert np.all(np.diff(report.eta) <= 0)

    def test_regret_definition_at_horizon(self):
        report = run_experiment(
            ExperimentConfig(experts=3, rounds=60, kernel="switching", seed=8)
        )
        _, best_loss = kernels.best_competitor(make_kernel("switching", 3), report.losses)
        expected = report.expected_loss.sum() - best_loss
        assert report.exp_regret[-1] == pytest.approx(expected, rel=1e-9)

    def test_realized_loss_matches_selection(self):
        report = run_experiment(ExperimentConfig(experts=5, rounds=30, seed=9))
        chosen = report.losses[np.arange(30), report.selections]
        np.testing.assert_array_equal(report.realized_loss, chosen)

    @pytest.mark.parametrize("kernel", ["fixed", "cyclic", "switching"])
    def test_record_is_what_a_plain_round_loop_plays(self, kernel):
        # replay the report's loss table on the sampling stream run_experiment spawns from the seed
        report = run_experiment(ExperimentConfig(
            experts=5, rounds=150, kernel=kernel, loss_gen="adversarial-switching", seed=13
        ))
        agg = Aggregator(make_kernel(kernel, 5), report.gamma)
        rng = np.random.default_rng(np.random.SeedSequence(13).spawn(2)[1])
        played = {name: [] for name in ("selections", "probs", "expected_loss", "eta", "D", "V")}
        ranges = []
        for losses in report.losses:
            p, choice = agg.run_round(losses, rng)
            diag = agg.last_round
            for name, value in zip(played, (choice, p, diag.expected_loss, diag.eta, diag.D, diag.V)):
                played[name].append(value)
            ranges.append(diag.d)
        for name, values in played.items():
            want = np.array(values, dtype=getattr(report, name).dtype)
            assert getattr(report, name).tobytes() == want.tobytes(), name
        ranges = np.array(ranges)
        assert report.sum_d_sq.tobytes() == np.cumsum(ranges * ranges).tobytes()
        rounds = np.arange(report.rounds)
        assert report.realized_loss.tobytes() == report.losses[rounds, report.selections].tobytes()


    @pytest.mark.parametrize("kernel", ["fixed", "cyclic", "switching"])
    def test_losses_validated_once_per_round_and_once_per_dp(self, monkeypatch, kernel):
        calls = []
        original = core.as_loss_array

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # replace every alias, whichever module looks the gate up
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "classhedge" or mod_name.startswith("classhedge."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counting)
        run_experiment(ExperimentConfig(experts=3, rounds=25, kernel=kernel, seed=2))
        assert len(calls) == 25 + 2

class TestSystemInvariance:
    def test_offset_scale_config_leaves_prob_columns_identical(self, tmp_path):
        # same seed, so the generator draws the same uniforms: offset c and
        # scale s produce exactly a translated/scaled copy of the baseline
        def run(offset, scale, name):
            out = tmp_path / f"{name}.csv"
            config = ExperimentConfig(
                experts=4, rounds=250, kernel="cyclic", loss_gen="iid-uniform",
                loss_params={"offset": offset, "scale": scale}, seed=21,
                out=str(out), trace=True,
            )
            report = run_experiment(config)
            with np.load(out.with_suffix(".trace.npz")) as trace:
                return trace["probs"], report

        base_probs, base = run(0.0, 1.0, "base")
        for offset, scale in ((7.0, 1.0), (-3.0, 100.0), (40.0, 1e-3)):
            probs, report = run(offset, scale, f"o{offset}s{scale}")
            np.testing.assert_allclose(probs, base_probs, rtol=1e-9, atol=1e-250)
            assert report.exp_regret[-1] == pytest.approx(
                scale * base.exp_regret[-1], rel=1e-9
            )

    def test_translated_scaled_stream_same_probs_scaled_regret(self):
        base_cfg = ExperimentConfig(
            experts=4, rounds=300, kernel="cyclic", loss_gen="iid-uniform", seed=10
        )
        base = run_experiment(base_cfg)
        rng = np.random.default_rng(10)
        shifts = rng.uniform(-40, 40, size=300)
        for scale in (1e-3, 1.0, 1e3):
            agg_probs, exp_regret = _replay_transformed(base, scale, shifts)
            np.testing.assert_allclose(agg_probs, base.probs, rtol=1e-9, atol=1e-250)
            assert exp_regret == pytest.approx(scale * base.exp_regret[-1], rel=1e-9)


def _replay_transformed(base_report, scale, shifts):
    """Re-run the engine on a translated/scaled copy of a recorded loss table."""
    from classhedge.aggregator import Aggregator
    from classhedge.kernels import best_prefix_losses

    config = base_report.config
    kernel = make_kernel(config.kernel, config.experts, config.kernel_params)
    agg = Aggregator(kernel, base_report.gamma)
    table = scale * (base_report.losses + shifts[:, None])
    probs = np.empty_like(table)
    for t in range(len(table)):
        probs[t] = agg.probabilities()
        agg.observe(table[t])
    expected = np.einsum("tm,tm->t", probs, table)
    best = best_prefix_losses(kernel, table)
    return probs, float(np.cumsum(expected)[-1] - best[-1])


def _per_cell_csv(header, table) -> bytes:
    """Reference rendering of a report CSV, one cell at a time: ``t`` as an
    integer, every other cell with format(x, ".17g"), and "\n" line ends."""
    lines = [",".join(header)]
    for t, row in enumerate(table, start=1):
        lines.append(",".join([str(t)] + [format(float(x), ".17g") for x in row]))
    return ("\n".join(lines) + "\n").encode()


class TestCsv:
    def test_two_lines_for_single_round(self, tmp_path):
        report = run_experiment(ExperimentConfig(experts=2, rounds=1, seed=11))
        out = tmp_path / "one.csv"
        emit_csv(report, out)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_field_order_contract(self):
        assert CSV_COLUMNS == (
            "t",
            "expected_loss",
            "realized_loss",
            "best_cumloss",
            "exp_regret",
            "real_regret",
            "bound_var",
            "bound_range",
            "eta",
            "D",
            "V",
        )

    def test_round_trip_is_exact(self, tmp_path):
        report = run_experiment(
            ExperimentConfig(experts=3, rounds=25, kernel="cyclic", loss_gen="gaussian-drift", seed=12)
        )
        out = tmp_path / "run.csv"
        emit_csv(report, out)
        columns = read_csv_columns(out)
        assert tuple(columns) == CSV_COLUMNS
        np.testing.assert_array_equal(columns["t"], np.arange(1, 26))
        for name in CSV_COLUMNS[1:]:
            np.testing.assert_array_equal(columns[name], getattr(report, name))

    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(experts=3, rounds=25, kernel="cyclic", loss_gen="gaussian-drift", seed=12),
            # every round is degenerate, so the eta column is inf throughout
            ExperimentConfig(experts=2, rounds=6, loss_gen="constant", loss_params={"value": -0.1}),
            ExperimentConfig(
                experts=4, rounds=30, kernel="switching", seed=5,
                loss_params={"offset": -1e6, "scale": 1e-3},
            ),
        ],
    )
    def test_bytes_match_per_cell_rendering(self, tmp_path, config):
        report = run_experiment(config)
        out = tmp_path / "run.csv"
        emit_csv(report, out)
        table = np.column_stack([getattr(report, name) for name in CSV_COLUMNS[1:]])
        assert out.read_bytes() == _per_cell_csv(CSV_COLUMNS, table)

    def test_write_csv_matches_savetxt(self, tmp_path):
        # np.savetxt is the reference only here: the writer must give its bytes
        def savetxt_bytes(header, table, fmt):
            ref = tmp_path / "ref.csv"
            with open(ref, "w", newline="") as fh:
                np.savetxt(fh, table, fmt=fmt, delimiter=",", header=",".join(header), comments="")
            return ref.read_bytes()

        edge = [math.inf, -math.inf, math.nan, -0.0, 0.0, 5e-324, -5e-324,
                1.7976931348623157e308, -1.7976931348623157e308, 3.0, -2.0, 1e16, 2.0**53, 1 / 3]
        rng = np.random.default_rng(4)
        tables = [
            np.array([edge]),
            rng.choice(edge, (2000, 11)),  # three blocks of rows
            rng.choice(edge, (70, 129)),  # a wide table: blocks of 7 rows
            rng.standard_normal((3, 1)),
            np.empty((0, 11)),
        ]
        for table in tables:
            header = [f"c{j}" for j in range(table.shape[1])]
            out = tmp_path / "out.csv"
            _write_csv(out, header, table)
            assert out.read_bytes() == savetxt_bytes(header, table, "%.17g"), table.shape
        # the sweep summary: an object table, each seed exact up to 2^64 - 1
        fmt = ("%d", "%.17g", "%.17g", "%.17g", "%d")
        summary = np.array(
            [(0, -0.0, math.inf, math.nan, 0), (2**60 + 1, 1e300, 5e-324, 3.0, 1), (2**64 - 1, 0.5, 1.0, 2.0, 1)],
            dtype=object,
        )
        header = ["seed", "exp_regret", "bound_var", "bound_range", "within_bound"]
        _write_csv(tmp_path / "summary.csv", header, summary, fmt=fmt)
        written = (tmp_path / "summary.csv").read_bytes()
        assert written == savetxt_bytes(header, summary, fmt)
        assert written.splitlines()[-1].startswith(b"18446744073709551615,")

    def test_identical_config_byte_identical_csv(self, tmp_path):
        config = ExperimentConfig(
            experts=4, rounds=40, kernel="cyclic", loss_gen="adversarial-cyclic", seed=13
        )
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(config), a)
        emit_csv(run_experiment(config), b)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("out", ["run.csv", "run", "a.b.csv"])
    def test_trace_file(self, tmp_path, out):
        out = tmp_path / out
        report = run_experiment(ExperimentConfig(experts=2, rounds=5, seed=14, out=str(out), trace=True))
        trace_path = tmp_path / (out.name.rsplit(".csv", 1)[0] + ".trace.npz")
        assert sorted(path.name for path in tmp_path.iterdir()) == sorted([out.name, trace_path.name])
        with np.load(trace_path) as trace:
            assert sorted(trace.files) == ["losses", "probs", "w_budget"]
            assert trace["w_budget"].shape == () and trace["w_budget"] == report.w_budget
            assert trace["probs"].tobytes() == report.probs.tobytes()
            assert trace["losses"].tobytes() == report.losses.tobytes()
        w_budget, probs, losses = read_trace(out, 5)
        assert w_budget == report.w_budget
        np.testing.assert_array_equal(probs, report.probs)
        np.testing.assert_array_equal(losses, report.losses)

    def test_unwritable_path_surfaces_location(self, tmp_path):
        report = run_experiment(ExperimentConfig(experts=2, rounds=1, seed=15))
        missing = tmp_path / "no" / "such" / "dir" / "x.csv"
        with pytest.raises(OSError, match="x.csv"):
            emit_csv(report, missing)


@pytest.fixture
def pools_made(monkeypatch):
    """The workers asked of each process pool, which runs the tasks in this process."""
    made = []

    class RecordingPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", RecordingPool)
    return made


class TestSweep:
    def test_summary_and_per_seed_files(self, tmp_path):
        base = ExperimentConfig(
            experts=3, rounds=60, kernel="cyclic", loss_gen="adversarial-cyclic", seed=0
        )
        summary = run_sweep(base, [0, 1, 2], tmp_path / "sweep", jobs=1)
        columns = read_csv_columns(summary)
        assert list(columns["seed"]) == [0.0, 1.0, 2.0]
        assert columns["within_bound"].all()
        for seed in (0, 1, 2):
            assert (tmp_path / "sweep" / f"seed_{seed}.csv").exists()

    def test_large_seeds_keep_their_exact_digits(self, tmp_path):
        seeds = [2**64 - 1, 2**53 + 1]
        base = ExperimentConfig(experts=2, rounds=5)
        summary = run_sweep(base, seeds, tmp_path / "sweep", jobs=1)
        rows = summary.read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [str(2**53 + 1), str(2**64 - 1)]
        for seed in seeds:
            assert (tmp_path / "sweep" / f"seed_{seed}.csv").exists()

    def test_repeated_seed_rejected(self, tmp_path):
        base = ExperimentConfig(experts=2, rounds=5)
        with pytest.raises(ConfigError, match="distinct"):
            run_sweep(base, [1, 1, 2], tmp_path / "sweep", jobs=1)
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize("jobs", [-3, 0, True, "2", 2.5])
    def test_jobs_must_be_a_positive_integer(self, tmp_path, jobs):
        base = ExperimentConfig(experts=2, rounds=5)
        with pytest.raises(ConfigError, match="jobs must be"):
            run_sweep(base, [1, 2], tmp_path / "sweep", jobs=jobs)
        assert not (tmp_path / "sweep").exists()

    @pytest.mark.parametrize(
        "jobs, seeds, cpus, pools",
        [(64, [1, 2], 1, [2]), (4, [1], 1, []), (None, [1, 2], 64, [2]), (None, [1, 2, 3], 2, [2])],
    )
    def test_workers_capped_at_seed_count(self, tmp_path, monkeypatch, pools_made, jobs, seeds, cpus, pools):
        monkeypatch.setattr("os.cpu_count", lambda: cpus)
        base = ExperimentConfig(experts=2, rounds=5)
        summary = run_sweep(base, seeds, tmp_path / "sweep", jobs=jobs)
        assert pools_made == pools
        assert len(read_csv_columns(summary)["seed"]) == len(seeds)

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "seeds, message",
        [([0, 2**64], "seed must be a 64-bit unsigned integer"), ([0, -1], "seed must be >= 0")],
        ids=["past-64-bits", "negative"],
    )
    def test_bad_seed_refused_before_any_work(self, tmp_path, pools_made, jobs, seeds, message):
        out_dir = tmp_path / "sweep"
        with pytest.raises(ConfigError, match=message):
            run_sweep(ExperimentConfig(experts=2, rounds=5), seeds, out_dir, jobs=jobs)
        assert pools_made == []
        assert not out_dir.exists()  # no directory, so no CSV

    @pytest.mark.parametrize("jobs", [1, 2])
    @pytest.mark.parametrize(
        "setting, message",
        [
            ({"kernel_params": {"switch_weight": 0.1}}, "kernel 'fixed' does not take parameters"),
            ({"kernel": "switching", "kernel_params": {"switch_weight": 2}}, "switch_weight must be a real in"),
            ({"loss_gen": "adversarial-switching", "loss_params": {"period": 0}}, "period must be >= 1"),
            ({"loss_gen": "nope"}, "unknown loss generator"),
            ({"kernel": "mystery"}, "unknown kernel"),
            ({"kernel": "switching", "experts": 1}, "num_experts must be >= 2"),
            ({"kernel_params": [1]}, "must be a mapping"),
            ({"loss_gen": "adversarial-cyclic", "loss_params": {"sigma": "x"}}, "must be an integer"),
            ({"loss_gen": None}, "unknown loss generator None"),
        ],
        ids=["kernel-param", "switch-weight", "period", "generator", "kernel", "one-expert", "list-params",
             "sigma", "no-generator"],
    )
    def test_bad_setting_refused_before_any_work(self, tmp_path, pools_made, jobs, setting, message):
        out_dir = tmp_path / "sweep"
        base = ExperimentConfig(**{"experts": 2, "rounds": 5, **setting})
        with pytest.raises(ConfigError, match=message):
            run_sweep(base, [0, 1], out_dir, jobs=jobs)
        assert pools_made == []
        assert not out_dir.exists()  # no directory, so no CSV

    def test_a_regret_past_its_bound_before_the_last_round_is_not_within_bound(self, tmp_path, monkeypatch):
        real = harness.run_experiment

        def breached(config):
            report = real(config)
            if config.seed == 1:
                mid = report.rounds // 2
                report.exp_regret[mid] = report.bound_var[mid] + 1.0
            return report

        monkeypatch.setattr(harness, "run_experiment", breached)
        base = ExperimentConfig(experts=3, rounds=60, kernel="cyclic", loss_gen="adversarial-cyclic")
        columns = read_csv_columns(run_sweep(base, [0, 1], tmp_path / "sweep", jobs=1))
        assert list(columns["within_bound"]) == [1.0, 0.0]
        # seed 1's final row, the one its summary row reports, is within its bound
        assert columns["exp_regret"][1] <= columns["bound_var"][1]

    def test_parallel_matches_serial(self, tmp_path):
        base = ExperimentConfig(experts=2, rounds=30, kernel="fixed", seed=0)
        serial = run_sweep(base, [4, 5], tmp_path / "serial", jobs=1)
        parallel = run_sweep(base, [4, 5], tmp_path / "parallel", jobs=2)
        assert serial.read_bytes() == parallel.read_bytes()


def test_within_bound_is_every_round_with_no_slack():
    bound = np.array([0.0, 1.0, 2.0])
    assert within_bound(bound.copy(), bound)
    assert within_bound(np.array([-1.0, 1.0, 2.0]), bound)
    assert not within_bound(np.array([0.0, 1.0 + 2**-52, 2.0]), bound)
    assert not within_bound(np.array([0.0, math.nan, 2.0]), bound)
    assert not within_bound(np.array([0.0, 1.0, 2.0]), np.array([0.0, math.nan, 2.0]))


class TestVerification:
    def test_seed_must_be_a_nonnegative_integer(self):
        for seed in ("x", 1.5, -1):
            with pytest.raises(ConfigError, match="seed must be"):
                run_verification(seed=seed, emit=lambda line: None)

    def test_desk_scale_suite_passes(self):
        lines = []
        assert run_verification(seed=0, emit=lines.append)
        assert len(lines) == 5
        assert all(line.startswith("PASS") for line in lines)


def test_prefix_and_path_dps_that_disagree_by_nan_stop_the_run(monkeypatch):
    monkeypatch.setattr(harness, "best_competitor", lambda kernel, losses: ([], math.nan))
    with pytest.raises(core.InvariantViolation, match=r"^prefix DP \(.*\) and path DP \(nan\) disagree$"):
        run_experiment(ExperimentConfig(experts=2, rounds=5))


def test_summed_losses_just_below_half_the_largest_double_still_report():
    # 4 rounds of 2e307 sum to 8e307, below half the largest double (8.99e307); a fifth passes it
    config = ExperimentConfig(experts=2, rounds=4, loss_gen="constant", loss_params={"value": 2e307})
    report = run_experiment(config)
    assert report.best_cumloss[-1] == 8e307 and report.exp_regret[-1] == 0.0
    with pytest.raises(core.InvariantViolation, match=r"^round 5: summed \|losses\| pass half the largest double$"):
        run_experiment(replace(config, rounds=5))


def _read_a_non_numeric_cell(tmp_path):
    (tmp_path / "x.csv").write_text("t,a\n1,x\n")
    read_csv_columns(tmp_path / "x.csv")


@pytest.mark.parametrize("call, error, message", [
    (_read_a_non_numeric_cell, ValueError, "x.csv: could not convert string 'x' to float64 at row 0, column 2."),
    (lambda tmp: run_sweep(ExperimentConfig(experts=2, rounds=5), [], tmp / "sweep"),
     ConfigError, "sweep needs at least one seed"),
], ids=["csv-cell", "no-seeds"])
def test_harness_refusals_name_the_fault(tmp_path, call, error, message):
    with pytest.raises(error, match=re.escape(message) + "$"):
        call(tmp_path)
    assert not (tmp_path / "sweep").exists()


if __name__ == "__main__":
    print("BLOCK_DIGESTS = {")
    for key, value in reference_block_digests().items():
        print(f'    "{key}": "{value}",')
    print("}")
