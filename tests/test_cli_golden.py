"""Golden digests of every CLI output file, over each route that names a model.

An LHV model can be named by ``--variant`` flags, a ``--model`` file, a
``--generator`` with its flags, or a ``--spec`` study file; quantum bundles come
from a named state or a ``--rho`` file under either angle convention.  The
digests pin every output byte of each route at small n, so any change in how a
route builds its model, which RNG streams it draws, or which spec dict it
records (the spec hash sits in every CSV preamble) fails here.  Input files
are passed by relative path because ``run.json`` records the paths given.
"""

import hashlib

import pytest

from bellsim.cli import EXIT_OK, main

INPUT_FILES = {
    "deterministic.model": "variant = deterministic\noutcomes = 1 -1 1 1\n",
    "sign_cosine.model": "# interval model\nvariant = sign_cosine\na1 = 0.0\na2 = 1.3\n"
                         "b1 = 0.4\nb2 = -0.9\nbob_sign = 1\n",
    "boundary_mixture.model": "variant = boundary_mixture\n"
                              "strategies = 1,1,1,1 ; 1,1,1,-1 ; 1,-1,1,1\nweights = 0.2 0.3 0.5\n",
    "box.behavior": "context 1 1 = 0.5 0.0 0.0 0.5\ncontext 1 2 = 0.5 0.0 0.0 0.5\n"
                    "context 2 1 = 0.5 0.0 0.0 0.5\ncontext 2 2 = 0.0 0.5 0.5 0.0\n",
    "sign_cosine.spec": "generator = sign_cosine\nangles = 0.1, 0.8, 0.3, 2.0\nbob_sign = -1\n"
                        "n = 20 10\ntrials = 6\nthreshold = 1.5\nmode = absolute\nseed = 4\n",
    "override.spec": "generator = deterministic\noutcomes = 1 1 1 -1\ntrials = 4\n",
    "model.spec": "generator = model\nmodel = boundary_mixture.model\nn = 15\ntrials = 5\nseed = 9\n",
    # a full-rank state: 0.8 singlet + 0.2 maximally mixed
    "werner.rho": "0.05 0.0\n0.0 0.0\n0.0 0.0\n0.0 0.0\n"
                  "0.0 0.0\n0.45 0.0\n-0.4 0.0\n0.0 0.0\n"
                  "0.0 0.0\n-0.4 0.0\n0.45 0.0\n0.0 0.0\n"
                  "0.0 0.0\n0.0 0.0\n0.0 0.0\n0.05 0.0\n",
}

SIGN_COSINE = ["--angles", "0.2", "1.1", "-0.5", "2.5"]
CURVE = ["--n", "10", "25", "--trials", "5"]

CASES = {
    # simulate-lhv: --variant flags, then a --model file of each variant
    "lhv-variant-deterministic": ["simulate-lhv", "--variant", "deterministic",
                                  "--outcomes", "1", "-1", "-1", "1", "--n", "30", "--seed", "1"],
    "lhv-variant-sign_cosine": ["simulate-lhv", "--variant", "sign_cosine", *SIGN_COSINE,
                                "--n", "30", "--seed", "2"],
    "lhv-variant-sign_cosine-bob-plus": ["simulate-lhv", "--variant", "sign_cosine", *SIGN_COSINE,
                                         "--bob-sign", "1", "--n", "30", "--seed", "2"],
    "lhv-variant-boundary_mixture": ["simulate-lhv", "--variant", "boundary_mixture",
                                     "--n", "30", "--seed", "3"],
    "lhv-model-deterministic": ["simulate-lhv", "--model", "deterministic.model",
                                "--n", "30", "--seed", "4"],
    "lhv-model-sign_cosine": ["simulate-lhv", "--model", "sign_cosine.model",
                              "--n", "30", "--seed", "5"],
    "lhv-model-boundary_mixture": ["simulate-lhv", "--model", "boundary_mixture.model",
                                   "--n", "30", "--seed", "6"],
    "lhv-model-wins-over-variant": ["simulate-lhv", "--model", "sign_cosine.model",
                                    "--variant", "boundary_mixture", "--n", "30", "--seed", "5"],
    # violation-curve: each --generator, then --spec files
    "curve-boundary_mixture": ["violation-curve", "--generator", "boundary_mixture", *CURVE,
                               "--seed", "7"],
    "curve-sign_cosine": ["violation-curve", "--generator", "sign_cosine", *SIGN_COSINE,
                          "--bob-sign", "1", *CURVE, "--seed", "8"],
    "curve-deterministic": ["violation-curve", "--generator", "deterministic",
                            "--outcomes", "1", "1", "-1", "1", *CURVE, "--seed", "9"],
    "curve-model": ["violation-curve", "--generator", "model", "--model", "sign_cosine.model",
                    *CURVE, "--seed", "10"],
    "curve-behavior": ["violation-curve", "--generator", "behavior", "--behavior", "box.behavior",
                       *CURVE, "--seed", "11"],
    "curve-singlet": ["violation-curve", "--generator", "singlet", *CURVE, "--seed", "12"],
    "curve-mixed": ["violation-curve", "--generator", "mixed", "--angles", "0.3", "0.6", "0.9", "1.2",
                    *CURVE, "--threshold", "0.5", "--mode", "absolute", "--seed", "13"],
    "curve-spec-sign_cosine": ["violation-curve", "--spec", "sign_cosine.spec"],
    "curve-spec-overrides-flags": ["violation-curve", "--spec", "override.spec",
                                   "--generator", "sign_cosine", *SIGN_COSINE,
                                   "--n", "12", "--trials", "9", "--seed", "14"],
    "curve-spec-model": ["violation-curve", "--spec", "model.spec"],
    # simulate-quantum: named states, a --rho file, the photon convention
    "quantum-singlet": ["simulate-quantum", "--state", "singlet", "--n", "30", "--seed", "15"],
    "quantum-mixed": ["simulate-quantum", "--state", "mixed", "--n", "30", "--seed", "16"],
    "quantum-rho": ["simulate-quantum", "--rho", "werner.rho", "--angles", "0.0", "0.7", "0.35", "-0.35",
                    "--n", "30", "--seed", "17"],
    "quantum-photon": ["simulate-quantum", "--state", "singlet", "--convention", "photon",
                       "--angles", "0.0", "0.785", "0.39", "-0.39", "--n", "30", "--seed", "18"],
    # weak-bvalues: an LHV source of each variant, and the calibrated source
    "weak-deterministic": ["weak-bvalues", "--source", "lhv", "--variant", "deterministic",
                           "--outcomes", "-1", "1", "1", "1", "--n", "20", "--seed", "19"],
    "weak-sign_cosine": ["weak-bvalues", "--source", "lhv", "--variant", "sign_cosine", *SIGN_COSINE,
                         "--n", "20", "--seed", "20"],
    "weak-boundary_mixture": ["weak-bvalues", "--source", "lhv", "--variant", "boundary_mixture",
                              "--n", "20", "--g", "0.5", "--sigma", "0.3", "--seed", "21"],
    "weak-model": ["weak-bvalues", "--source", "lhv", "--model", "boundary_mixture.model",
                   "--n", "20", "--seed", "22"],
    "weak-calibrated": ["weak-bvalues", "--source", "calibrated", "--target-s", "2.5",
                        "--n", "20", "--seed", "23"],
}

DIGESTS: dict[str, dict[str, str]] = {
    "curve-behavior": {
        "curve.csv": "d2b792583449dd22c3ef1ba39daee58b558459c811a28e297f8800f4d09da8f5",
        "run.json": "6e08b9c9501d6efd13cc32b8469000099583357006b6b0ec4120a4616d0e57eb",
    },
    "curve-boundary_mixture": {
        "curve.csv": "9fd546ea14da277371e61e5d778eb9055d6a80b1bc0586ca8a4e487f38daea3e",
        "run.json": "619a8a67199753aa3b8a5241598ce3a8a9b1f008825ba7257f18b683156171e9",
    },
    "curve-deterministic": {
        "curve.csv": "b7f5ce17f18c9cc5517bc87c2879dca4936269757ee52586a0b15e30ffe61c3c",
        "run.json": "bfcb1d15f36f2c6ae5bebdf45487db7267354bb11588c7d6944236743412a72f",
    },
    "curve-mixed": {
        "curve.csv": "36ddcb0ccf8b28913dd764b67f64cccb2a34154ba4d664e37e47458c1d5de946",
        "run.json": "49984b050cef8f140a4b60736870c31f5e62ea1994449f245af0fedf70ba8cfd",
    },
    "curve-model": {
        "curve.csv": "a1c1e65f4bf1e6c0b05bf6167aa00c63c7defc4f0806a54d9eedfabe389c17d5",
        "run.json": "af6de82cad73600e8f5279ffeb003c6fc3f5ae4204d25074e26af311146b57d8",
    },
    "curve-sign_cosine": {
        "curve.csv": "20fe5ac4261689e4e8b25325a92689f30b27ba5a4a4895f54813071926c44a93",
        "run.json": "ab10d7ae7202da10956a8bc7143abbf964e8dc62ded373cecf28cba51e36fc3b",
    },
    "curve-singlet": {
        "curve.csv": "544fbffebe7ab82b09a3c1c46fec497730c1ae4a6abfc8dd404504b94f0d20ba",
        "run.json": "695705c7924674fdc3dbbf867f10cf03544077c97eead5c043e5eb7240421b71",
    },
    "curve-spec-model": {
        "curve.csv": "9e06a15a43a6fb862b68ccd6ee6d19248551edc14aa4c1c3c64739028974099c",
        "run.json": "5be49a4d6dc4918075bed1dbb98e8bac53bddea45d922dfc31256c7cf4154dd4",
    },
    "curve-spec-overrides-flags": {
        "curve.csv": "3a41cc741c2157659539efe48f1f545c1c9cf759e67c93ac777838d7966c04c4",
        "run.json": "9a6c865cf6ee65cdf8916ed5b61d198701799ace629690cc27d1fb5309f4d619",
    },
    "curve-spec-sign_cosine": {
        "curve.csv": "4157ae5b35b48d30991295af553c2934a9c030364e23abfeab1c8ee3ad5d49a2",
        "run.json": "80f79ceaf59a5e4519ea50f6bbd28e9bee1863b4192e3c2f8301042400807125",
    },
    "lhv-model-boundary_mixture": {
        "bundle.csv": "3ca847cc928b5c033c30ecffc43253319e476ffcd4892e61900d809b5e4b6108",
        "run.json": "697f38c57e54934be303f49c7f5240f87bc344e6956e5b71797c875b5acdc980",
        "summary.json": "aeac917f361c1cf7df3eb5da9a2c977623042e00cc5e32b3704d66ecba81642f",
    },
    "lhv-model-deterministic": {
        "bundle.csv": "84b33d1a2c01e3af556d7ce9036346299918faaac08a7c2bf290c0d6dc442a1e",
        "run.json": "1b4b8b22ace9fa2b3e889ab3dbf23ca695c8535fa4949f7f7936c1495cccaa09",
        "summary.json": "3652c2c250fffae82e210ae86623030836ce2f14b8d5da522ceab2aef99af539",
    },
    "lhv-model-sign_cosine": {
        "bundle.csv": "79275cce534ffc7fbf542b37271c42f554abf5a77f051509f9436187954fa248",
        "run.json": "37a17ab3208ad37b30df81ef6bada75b1a1850e36550eb790ed611a48cc4b3e1",
        "summary.json": "5d62d8e7265517ac2063a0012a309e0edc904d155cd9518d132ea7344b87e4cc",
    },
    "lhv-model-wins-over-variant": {
        "bundle.csv": "79275cce534ffc7fbf542b37271c42f554abf5a77f051509f9436187954fa248",
        "run.json": "37a17ab3208ad37b30df81ef6bada75b1a1850e36550eb790ed611a48cc4b3e1",
        "summary.json": "5d62d8e7265517ac2063a0012a309e0edc904d155cd9518d132ea7344b87e4cc",
    },
    "lhv-variant-boundary_mixture": {
        "bundle.csv": "34e86c407a429f62b4ff46281eeda5b611658d495ac4ab693bb6730123a69462",
        "run.json": "a9ab7e08d553a463126a6ae9baae3fc760843c69c8f918b29c213e0db0098405",
        "summary.json": "a17f3cdaa87a59cc8f6aec82becaa3ecc1c67cba5f675b52284165c0e8665140",
    },
    "lhv-variant-deterministic": {
        "bundle.csv": "4fd53325cac76b24b579dac162675d32af50d84335e9389c853d39a1dfce2ea1",
        "run.json": "22cac64579b97b28fe33914efc2ed18f074368953afd2a0f5cfae7f36b9d853e",
        "summary.json": "cbb79d1a3676e58b15f7d9c03446f0f6eef0a7e21e315523c710efd12dd5ab0c",
    },
    "lhv-variant-sign_cosine": {
        "bundle.csv": "8ca76dd54becb52550e69be451a47da9ab37d7053b08f143a1f214536fbf02a1",
        "run.json": "af2437cf652a5745a02e43c66478c182269a12ebef475ca4fb81353e94d8e7be",
        "summary.json": "648445b677f1d0d7d113bf1d216a088276b9ae8845da8549dd59a6d0018ad962",
    },
    "lhv-variant-sign_cosine-bob-plus": {
        "bundle.csv": "b1c206b6c2b6391dd9047c8bde21dd41523bd6ad82b0584bbe3a8b6c62de2593",
        "run.json": "4745f874842c9588d4a683f6290db5b3dd96b223519188e359051378dcad3941",
        "summary.json": "245f56c38ab1413af4063ede828562bdf17775fcfd7b76b41a4d7210c629a50e",
    },
    "quantum-mixed": {
        "bundle.csv": "70b1370d41fc6f864ab24d6630ba92679dac47828a193ce9fb2a7cf50aaedc1f",
        "run.json": "b116eb5202e16f98754c200993d87105ec5e90027872590432f758f0c6101e0b",
        "summary.json": "87a0066e57b1d8738577d78953a971a4795b2c00f39788af1ccde162fbca10bc",
    },
    "quantum-photon": {
        "bundle.csv": "0a8eee19ea93e79a18a790380d424787c4949f9dde973c892a8080550cd09df4",
        "run.json": "b06a1ac5a095333c5ae938a2789ec4268c2a6f136f656e50af6dc2bf12c7b31d",
        "summary.json": "aaf92c480779a25f0ee924694f879826e8a41a840aab9524749b9c415f2c5ec1",
    },
    "quantum-rho": {
        "bundle.csv": "bda1683b4da89f51950c8ee87ea0c8a6bb5cb500523e4274ad10ef7023943e9a",
        "run.json": "ae12af357a2c85cff01976f8063bf21abc2dfdcb87276fbd506b9df105efbd8f",
        "summary.json": "22ab0a0e85aac89794120d144506e0fbb2bbda4027320ad95a55fb1aa0adb301",
    },
    "quantum-singlet": {
        "bundle.csv": "55002ad6d39c03fd37859335a3300c2537476d9817243c5fa15bf7487b9f6cea",
        "run.json": "e9e3825ccb82875757f239c9a10d47225706427e11381bdd2ec581abd716056d",
        "summary.json": "7b6f3e6173bc035436f1bc0ff0cdfcdace4c6d0b2d01fc13b046ac8a40a6e010",
    },
    "weak-boundary_mixture": {
        "records.csv": "6af6daedaf596e9d1f649c070feb2b334d22f06bed15b0143963f893f0a9f15e",
        "summary.json": "e5486ee22394941674f18d4f369354fe76f6f45bd3817bfc53d93d962ec157bf",
    },
    "weak-calibrated": {
        "records.csv": "f3d978ccc9160951264adb6dad9af97d5402eea40745174f4d86440a63db829b",
        "summary.json": "27518412ef9381f067971ecc6912d5cc6157c08244af8e7992e8faeaf08d6451",
    },
    "weak-deterministic": {
        "records.csv": "6e5f44cce3fccb252d75859c845152ffc5a67cc9398373291bd196da4fd17484",
        "summary.json": "aeddb1c68589c93cf694fd86e7f408774f49c9e44b8b179c9b79a0c7ee9f85c0",
    },
    "weak-model": {
        "records.csv": "df9469ec1a22485565518db65243c1c3145d091f7f2c12f551d831e3dda52d4f",
        "summary.json": "d97ece6a6b842f5fbaf80c28974361b4fd5bf244de905952080eb5ba722f69e3",
    },
    "weak-sign_cosine": {
        "records.csv": "15d53c50cf987b55f8b175b0cc4fc0929db40f3cedd427fdeb17e73b4e28135b",
        "summary.json": "a329cd22ac401015ff449001257694263acb621a351b7ceebfe75a2dd7e5b5bc",
    },
}


def output_digests(tmp_path, monkeypatch, argv):
    for name, text in INPUT_FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out"]) == EXIT_OK
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted((tmp_path / "out").iterdir())
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_outputs_match_golden_digests(tmp_path, monkeypatch, case):
    assert output_digests(tmp_path, monkeypatch, CASES[case]) == DIGESTS[case]
