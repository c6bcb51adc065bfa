"""The certified printouts are byte-identical to those the library printed
when these digests were taken: cylinder endpoints, the base of a word,
log-mass ratios and a digit sidecar's mass, at the default precision and at
``BETADIO_PRECISION=8``.

Each case runs its commands through ``cli.main`` in an empty directory and
hashes, with sha256, the stdout of every command and then every file they
wrote, by name.  A change to the interval arithmetic, the root refinement
or the way an endpoint is printed that moves one bit of one endpoint shows
here.  To see a case's bytes, run it by hand and compare with those of the
commit before the change; a deliberate change of output re-records the
digest, declared.
"""

import hashlib

import pytest

from betadio.cli import main

DIM_LOCAL = ["dim", "local", "--theta", "3", "--vhat", "1/3"]

# name: (BETADIO_PRECISION, [argv, ...])
CASES = {
    "cylinder-golden": ("256", [["cylinder", "--beta", "root:1,1", "--word", "1,0,0,1,0"]]),
    "cylinder-tribonacci": ("256", [["cylinder", "--beta", "root:1,1,1",
                                     "--word", "1,1,0,1,1,0,0,1"]]),
    "cylinder-2011": ("256", [["cylinder", "--beta", "root:2,0,1,1", "--word", "2,0,1,0,2"]]),
    "cylinder-non-parry": ("256", [["cylinder", "--beta", "root:1,0,2", "--word", "1,0,0,1"]]),
    "cylinder-non-parry-8": ("8", [["cylinder", "--beta", "root:1,0,2", "--word", "1,0,0,1"]]),
    "cylinder-rational": ("256", [["cylinder", "--beta", "rat:3/2", "--word", "1,0,0,1"]]),
    "parry-invert-4096": ("256", [["parry", "invert", "--word", "2,1,0,2", "--bits", "4096",
                                   "-o", "beta.json"]]),
    "parry-invert-periodic": ("256", [["parry", "invert", "--word", "1,(1,0)",
                                       "-o", "beta.json"]]),
    "dim-local-golden": ("256", [DIM_LOCAL + ["--beta", "root:1,1", "--N", "7",
                                              "--stages", "10"]]),
    "dim-local-tribonacci": ("256", [DIM_LOCAL + ["--beta", "root:1,1,1", "--N", "6",
                                                  "--stages", "10"]]),
    "dim-local-2011": ("256", [DIM_LOCAL + ["--beta", "root:2,0,1,1", "--N", "6",
                                            "--stages", "10"]]),
    "dim-local-rational": ("256", [DIM_LOCAL + ["--beta", "rat:3/2", "--N", "6",
                                                "--stages", "10"]]),
    "dim-formula-digit-set": ("256", [["dim", "formula", "--theta", "3", "--vhat", "1/3",
                                       "--base", "3", "--digit-set", "0,2"]]),
    "expand-tribonacci-8": ("8", [["expand", "--beta", "root:1,1,1", "--x", "441/1000",
                                   "--digits", "120"]]),
    "expand-non-parry": ("256", [["expand", "--beta", "root:1,0,2", "--x", "1/7",
                                  "--digits", "300"]]),
    "construct-param": ("256", [["construct", "param", "--theta", "3", "--vhat", "1/3",
                                 "--beta0", "rat:3/2", "--beta1", "root:1,1",
                                 "--beta2", "root:1,1,1", "--N", "5", "--stages", "3",
                                 "-o", "p.digits"]]),
    "construct-beta-measure": ("256", [["construct", "beta", "--theta", "3", "--vhat", "1/3",
                                        "--beta", "root:1,1,1", "--N", "4", "--stages", "4",
                                        "-o", "b.digits"],
                                       ["measure", "--sidecar", "b.digits.json", "--n", "40"]]),
}

DIGESTS = {
    "cylinder-golden": "8d4af0b0246d65b086a9f02dc682882ae9394916cfe3efca2221e52464b949eb",
    "cylinder-tribonacci": "81545fed88dc33a4f4918e09b896a1138461a8a2c6b2a5052ebf291cca57352b",
    "cylinder-2011": "0e4c38bf90f3dce9eb60aeebec24ee3c2b117a17d2d93cd5fb4179721ba4c0c6",
    "cylinder-non-parry": "2180fd88f726edcc239d17ffd2512688604830a05f8895b7161e32b264b71901",
    "cylinder-non-parry-8": "992b9696020845f70f10e3675a1b70e863c0a7350441ab950286170756a9a5ee",
    "cylinder-rational": "62a1e24d220b6086d915ec011aa4bab94ed674d7b09aceb7bedb7f50e6fcdf0c",
    "parry-invert-4096": "af819d0414e43d6a345cea8c3affc12d35d71b00cc1b86dbf43dea4d65fce777",
    "parry-invert-periodic": "95ceb4512685d407cb041abae4329ef1c885b4c15a553c932a8b940182032ded",
    "dim-local-golden": "7c504e125affe8603d53af7b50748e7d800d0f9385c291c98a3cfba24f9faf32",
    "dim-local-tribonacci": "3b331df1d2c739244aec93ea5a0719c7ee7442862bb3a37c78a828bf24119d39",
    "dim-local-2011": "bcdeb7e9d56444ceafe195490fae34b23723b5268282c9e4ea12429200b66f1e",
    "dim-local-rational": "d6ae1d8ddaa4155928c6bb466aa692ab8e944cd7cccb319274921cf36912e060",
    "dim-formula-digit-set": "f81627f16d2b51e1946e27aedbbbfa85af3201c97a0b48e8e47591e93dcce353",
    "expand-tribonacci-8": "f36a1f3a1a28c1169b5560b0e91def313d856987e115007e5805c6fff616d85b",
    "expand-non-parry": "0a495cf369afb23f84849af3ed530938d30ce007c8b02967a750e688cc424689",
    "construct-param": "97d634f5f23648ec10ec0c48702b5259162952c786c23c176059ddcdd664d552",
    "construct-beta-measure": "10ca1a41086e9ae782eabcc35ee823f17dcb2fa8561f74e2005dfed06fa6c89d",
}


def _digest(tmp_path, monkeypatch, capsys, precision, steps) -> str:
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("BETADIO_PRECISION", precision)
    h = hashlib.sha256()
    for argv in steps:
        assert main(argv) == 0, argv
        h.update(capsys.readouterr().out.encode())
    for path in sorted(tmp_path.iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", CASES)
def test_certified_printout_is_pinned(tmp_path, monkeypatch, capsys, name):
    precision, steps = CASES[name]
    assert _digest(tmp_path, monkeypatch, capsys, precision, steps) == DIGESTS[name]
