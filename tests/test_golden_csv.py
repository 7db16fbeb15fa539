"""The CSV bytes and trace arrays of nine small runs are pinned: a change that moves any bit fails here.

Recipe: for each kernel in {fixed, cyclic, switching} and each generator in
{iid-uniform, adversarial-cyclic, adversarial-switching},

    classhedge run --experts 4 --rounds 300 --kernel <kernel> --loss-gen <generator>
        --seed 0 --out <kernel>-<generator>.csv --trace

which writes 18 files (each run's CSV and its ``.trace.npz``).  A CSV's data
is its bytes; a trace's data is the bytes of its float64 arrays ``w_budget``,
``probs`` and ``losses``, in that order, not of the zip container around them.
The digest is sha256 over the sorted file names, each name (UTF-8) followed by
the file's data.  ``FILES`` holds the first 16 hex digits of each file's own
sha256 of its data, so that a mismatch names the first file that differs.
Recorded with numpy 2.4.6 on CPython 3.11; another numpy may round a reduction
differently.
"""

import contextlib
import hashlib
import io

import numpy as np

from classhedge import cli

DIGEST = "ba0117df5b84a7848b223c62827dee0a14bd5edfd3fdff9f0ac8ecd42c73ee03"
FILES = {
    "cyclic-adversarial-cyclic.csv": "f39f8f723e882b60",
    "cyclic-adversarial-cyclic.trace.npz": "8be685436ef0f35c",
    "cyclic-adversarial-switching.csv": "c99a9452bb23eb29",
    "cyclic-adversarial-switching.trace.npz": "11ed858a603eb814",
    "cyclic-iid-uniform.csv": "df4c8e599dd3f6c4",
    "cyclic-iid-uniform.trace.npz": "515d1355072ebc1c",
    "fixed-adversarial-cyclic.csv": "f67f44aa6af6ea07",
    "fixed-adversarial-cyclic.trace.npz": "bc2136f7dbd25aa4",
    "fixed-adversarial-switching.csv": "0d395348b0431272",
    "fixed-adversarial-switching.trace.npz": "65306a1473ba86cb",
    "fixed-iid-uniform.csv": "f91f037b018b1447",
    "fixed-iid-uniform.trace.npz": "e62513b90ea467ae",
    "switching-adversarial-cyclic.csv": "98c77a10bcafb2de",
    "switching-adversarial-cyclic.trace.npz": "21b10e9e05b82849",
    "switching-adversarial-switching.csv": "f836a0b185aef9ee",
    "switching-adversarial-switching.trace.npz": "181d1f8bf7f09bee",
    "switching-iid-uniform.csv": "a03630fddcbcd26b",
    "switching-iid-uniform.trace.npz": "bd725ea1990d0188",
}


def _data(path) -> bytes:
    if path.suffix != ".npz":
        return path.read_bytes()
    with np.load(path) as trace:
        assert sorted(trace.files) == ["losses", "probs", "w_budget"]
        arrays = [trace[key] for key in ("w_budget", "probs", "losses")]
    assert [(a.dtype, a.shape) for a in arrays] == [(np.float64, ()), (np.float64, (300, 4)), (np.float64, (300, 4))]
    return b"".join(a.tobytes() for a in arrays)


def test_csv_bytes_match_the_recorded_digest(tmp_path):
    for kernel in ("fixed", "cyclic", "switching"):
        for gen in ("iid-uniform", "adversarial-cyclic", "adversarial-switching"):
            argv = ["run", "--experts", "4", "--rounds", "300", "--kernel", kernel, "--loss-gen", gen,
                    "--seed", "0", "--out", str(tmp_path / f"{kernel}-{gen}.csv"), "--trace"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
    names = sorted(path.name for path in tmp_path.iterdir())
    assert names == sorted(FILES)
    digest = hashlib.sha256()
    for name in names:
        data = _data(tmp_path / name)
        got = hashlib.sha256(data).hexdigest()[:16]
        assert got == FILES[name], f"{name} differs: sha256 {got}…, recorded {FILES[name]}…"
        digest.update(name.encode())
        digest.update(data)
    assert digest.hexdigest() == DIGEST
