"""Every CLI command prints exactly what it printed before, on every
catalog export.

Each command variant runs in process on all twelve catalog problem files,
in text and in JSON, with the entry's own conjugate-search budget.  The
argument list, exit code, stdout and stderr of every run are appended to one
transcript per variant, and the transcript's sha256 is compared with a
recorded digest.  A change that alters any printed basis, dimension, flag
or verdict, or any exit code, changes a digest.
"""

import contextlib
import hashlib
import io

import pytest

from sphlie.catalog import catalog_entries
from sphlie.cli import main
from sphlie.problem import problem_to_json

SAMPLES = "10"

VARIANTS = {
    "analyze": ["analyze", "--samples", SAMPLES],
    "adapted": ["adapted"],
    "adapted-list": ["adapted", "--list-candidates"],
    "rank": ["rank"],
    "normalizer": ["normalizer"],
    "orbit-check": ["orbit-check", "--samples", SAMPLES],
}

DIGESTS = {
    "analyze text":
        "6fb3826eb13f8eabd4759c1f788a57c045b6716b164f475454fd8298a6b85719",
    "analyze json":
        "ee2f9de85fb56b3d6cb5f3e7b2c14e6b03d07ff2ed8f0c2becb26e9ad1b80541",
    "adapted text":
        "b61c342b338a251b65b1c92ef99302ef52c8fb54eb1436a4d799d6b165fddef5",
    "adapted json":
        "d6c7bc2119a9c3bc24e8e7caed6b3ebacee5ee92fde367d62646125310e48365",
    "adapted-list text":
        "7ba025e1ae761716613f0245c01bdf7af5ae39057e545eb1d905ccfacbfe8731",
    "adapted-list json":
        "740ca2038942594a95b5e2cac5201de1c8e6b5ee58b0577b3c70ec1c6441d285",
    "rank text":
        "ce6f8437c47fb082348bbab1dcd774e9cbd2cfdde897a7f659978c0c34d180c0",
    "rank json":
        "f3682b6dbe07cdfa608254901fdd3f5ab7d9e057abbb88142f271ddc46e2aed9",
    "normalizer text":
        "b9ccc6f5427e45d7b24fb3869b4008e206d84bd4237df3ac8490b9bcecd7c69d",
    "normalizer json":
        "3dda0161dbfe583dd680c172bf0c6de01221ea99cbc1d579a0f49267e26c5fd6",
    "orbit-check text":
        "8ff6e36ca53b131cbfcebbd396498607fa7774d3df386d58c564fe59e20b79be",
    "orbit-check json":
        "5d1827b7eb00803e76e9d600f5a2dbd0ad8d361fa761faafc4ced001874c1bc0",
    "catalog-run-all text":
        "f599f3d7812214cd854648cf9e183a1f72cafe21f9e6a1de7725751f4bb3f6f6",
    "catalog-run-all json":
        "be8be5989e91919df54feda1dc7bafc36c57f4bf28b4fb82f90e25816011ec49",
}


def run_cli(argv: list) -> bytes:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return (f"$ {' '.join(argv)}\nexit {code}\n--- stdout\n{out.getvalue()}"
            f"--- stderr\n{err.getvalue()}").encode("utf-8")


@pytest.fixture(scope="module")
def exports(tmp_path_factory):
    """(file name, path, search budget) for every catalog entry, by name."""
    root = tmp_path_factory.mktemp("exports")
    out = []
    for entry in sorted(catalog_entries(), key=lambda e: e.name):
        path = root / f"{entry.name}.json"
        path.write_text(problem_to_json(entry.problem), encoding="utf-8")
        out.append((path.name, str(path), entry.search_budget))
    return out


def transcript(variant: str, fmt: str, exports) -> bytes:
    if variant == "catalog-run-all":
        return run_cli(["catalog", "run", "all", "--samples", SAMPLES,
                        "--format", fmt])
    chunks = []
    for name, path, budget in exports:
        argv = VARIANTS[variant] + ["--conjugate-search", str(budget),
                                    "--format", fmt]
        # the file name, not the temporary directory, goes into the transcript
        chunks.append(run_cli(argv + [path]).replace(path.encode(),
                                                     name.encode()))
    return b"".join(chunks)


def test_every_variant_has_a_digest():
    assert sorted(DIGESTS) == sorted(
        f"{v} {fmt}" for v in list(VARIANTS) + ["catalog-run-all"]
        for fmt in ("text", "json"))


@pytest.mark.parametrize("key", sorted(DIGESTS))
def test_cli_output_is_unchanged(key, exports):
    variant, fmt = key.split(" ")
    got = hashlib.sha256(transcript(variant, fmt, exports)).hexdigest()
    assert got == DIGESTS[key]
