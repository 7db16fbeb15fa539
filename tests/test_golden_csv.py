"""The CSV bytes of nine small runs are pinned: a change that moves any bit fails here.

Recipe: for each kernel in {fixed, cyclic, switching} and each generator in
{iid-uniform, adversarial-cyclic, adversarial-switching},

    classhedge run --experts 4 --rounds 300 --kernel <kernel> --loss-gen <generator>
        --seed 0 --out <kernel>-<generator>.csv --debug-probs

which writes 18 files (each run's CSV and its ``.probs.csv``).  The digest is
sha256 over the sorted file names, each name (UTF-8) followed by the file's
bytes.  ``FILES`` holds the first 16 hex digits of each file's own sha256, so
that a mismatch names the first file that differs.  Recorded with numpy 2.4.6
on CPython 3.11; another numpy may round a reduction differently.
"""

import contextlib
import hashlib
import io

from classhedge import cli

DIGEST = "9a44948550d4f4416792e856c78ce4827c501e0045177d770255229e8f788abd"
FILES = {
    "cyclic-adversarial-cyclic.csv": "f39f8f723e882b60",
    "cyclic-adversarial-cyclic.probs.csv": "34a3f0d7ad71f26f",
    "cyclic-adversarial-switching.csv": "c99a9452bb23eb29",
    "cyclic-adversarial-switching.probs.csv": "145eb44a5a0fb488",
    "cyclic-iid-uniform.csv": "df4c8e599dd3f6c4",
    "cyclic-iid-uniform.probs.csv": "09a53e89604f8778",
    "fixed-adversarial-cyclic.csv": "f67f44aa6af6ea07",
    "fixed-adversarial-cyclic.probs.csv": "7c34b4e44b830a55",
    "fixed-adversarial-switching.csv": "0d395348b0431272",
    "fixed-adversarial-switching.probs.csv": "b17f81e4c469cab2",
    "fixed-iid-uniform.csv": "f91f037b018b1447",
    "fixed-iid-uniform.probs.csv": "524a4366bd9305d5",
    "switching-adversarial-cyclic.csv": "98c77a10bcafb2de",
    "switching-adversarial-cyclic.probs.csv": "df0f8ab4c20488c4",
    "switching-adversarial-switching.csv": "f836a0b185aef9ee",
    "switching-adversarial-switching.probs.csv": "7ced16b0774ddab9",
    "switching-iid-uniform.csv": "a03630fddcbcd26b",
    "switching-iid-uniform.probs.csv": "9b136eb44ef13117",
}


def test_csv_bytes_match_the_recorded_digest(tmp_path):
    for kernel in ("fixed", "cyclic", "switching"):
        for gen in ("iid-uniform", "adversarial-cyclic", "adversarial-switching"):
            argv = ["run", "--experts", "4", "--rounds", "300", "--kernel", kernel, "--loss-gen", gen,
                    "--seed", "0", "--out", str(tmp_path / f"{kernel}-{gen}.csv"), "--debug-probs"]
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(argv) == 0
    names = sorted(path.name for path in tmp_path.iterdir())
    assert names == sorted(FILES)
    digest = hashlib.sha256()
    for name in names:
        data = (tmp_path / name).read_bytes()
        got = hashlib.sha256(data).hexdigest()[:16]
        assert got == FILES[name], f"{name} differs: sha256 {got}…, recorded {FILES[name]}…"
        digest.update(name.encode())
        digest.update(data)
    assert digest.hexdigest() == DIGEST
