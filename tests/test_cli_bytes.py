"""Every CLI command prints exactly what it printed before, on every
catalog export and on one problem whose structure report moves the Levi.

Each command variant runs in process on all twelve catalog problem files,
in text and in JSON, with the entry's own conjugate-search budget.  The
argument list, exit code, stdout and stderr of every run are appended to one
transcript per variant, and the transcript's sha256 is compared with a
recorded digest.  A change that alters any printed basis, dimension, flag
or verdict, or any exit code, changes a digest.

No catalog pair needs a Levi adjustment, so ``sl2x2_shifted_diag`` pins the
``levi_adjusted: true`` path separately with digests of its own; its
``analyze`` also counts the characteristic-element solves, one per run.  Every
catalog pair has dim g <= 9, so ``analyze`` of sl(6)/so(6) (dim 35),
sl(8)/so(8) (dim 63), sl(10)/so(10) (dim 99), sl(12)/so(12) (dim 143),
sl(14)/so(14) (dim 195) and sl(16)/so(16) (dim 255) pin six pairs beyond the
benchmark sizes.
``analyze`` of sl(2) + sl(2) + so(3) with h = sl(2) + sl(2) + so(2),
unhinted and hinted, pins a Levi whose ideals are of both kinds, compact
and noncompact.  ``analyze`` of sl(3)/so(3) with θ given as the coordinate
matrix of −Xᵀ pins the path that checks a given θ, where the default is
proved.
``analyze`` of sl3_so3 and sl2x3_diag_mixed on the mixed basis
``remixed(…, 0)`` pins the spectral path: their weight stage splits through
minimal polynomials and ``rational_roots``, which no other pin reaches.
``analyze`` of sl(2) with h = span(F + H − E) = Ad(exp E)·span(F), and
with h = Ad(exp 3E)·span(F), pins the Levi chosen to contain q ∩ N(h):
there every Levi of q = b contains q ∩ h = 0, and only one contains
q ∩ N(h).
"""

import contextlib
import hashlib
import io
import sys
from fractions import Fraction

import pytest

import mixed_levi
from sphlie.builders import direct_sum_basis, sl_basis, so_basis
from sphlie.catalog import catalog_entries, get_entry
from sphlie.cli import main
from sphlie.problem import Problem, problem_to_json
from test_exact_scalars import remixed

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

LEVI_ADJUSTED_DIGESTS = {
    "adapted text":
        "36bdb24fad54269f7be8130309ce02483884acd703964d6e34fa39ca24cd2cb0",
    "adapted json":
        "aca6d109143401831a6c3a94c7e07c74ff026122d81fa4e683e1226a3b663968",
    "adapted-list text":
        "971bd1318699f5d2ff4836275ca01bed2068a6db5a5d60b02a25f508a65e3132",
    "adapted-list json":
        "1983e5de796214e5bdbf2011e3dbb91226794d72cbf1cb233842de783d8a0e75",
    "analyze text":
        "73ec2c5af5c7fbc687534123d13f8c7b399b3120729a07f8a2a69134a0cb5a0c",
    "analyze json":
        "2a3a5cf761411312a086d6cb0b0a991514e6cc1e8f7079944cf18660bf82dd8e",
    "normalizer text":
        "99f5d3bc60847604ced6ca6a15b698a3c51d8714ba83cb1ff92aaaa4ea9c4802",
    "normalizer json":
        "ae5240db5a7852dd1cf93936c334de29f8c5be321635a86b8c83c4e52ef9ca0a",
    "orbit-check text":
        "97d59b134dddcad5379073ee8bec8a7d061321d2e9e3f8bc7e5df8323f4e3a58",
    "orbit-check json":
        "9b526d211b0fd3dab6eea24318016ffd93f29f2b8cf4cdeb53e7870c3378c9db",
    "rank text":
        "581ce3abbaa029c5ef6712031997f4b37fd8c75e382cfd2cf6e20e7f68e9afe5",
    "rank json":
        "d0e9890b08bf5cf46e2a0e380f1515b5bdbc1eabbf28e7bb24fb2e518516f1c8",
}

SL6_SO6_ANALYZE_JSON = (
    "07d193726e160e51a852755ec8ab2c54d46ad03e6c5597b3b3d7a1c479e331e0")

SL8_SO8_ANALYZE_JSON = (
    "562cf7f04801e7e7dfa821210150ef1d3543075491ac4333172726d47ff628ed")

SL10_SO10_ANALYZE_JSON = (
    "fd1bcd7cabe2b8e6b0ec5cc2abe239091ec764003b0aaa70c9c86084f2807145")

SL12_SO12_ANALYZE_JSON = (
    "12c1bbf19809b9a99158d64e5981a42c85ce698a05a3edc0fbf5860991a4b050")

SL14_SO14_ANALYZE_JSON = (
    "5008d0e266762e6b822a2503609bf0f9a56b064b2d8e28f295da874ba9b8dad1")

SL16_SO16_ANALYZE_JSON = (
    "ab3e7e2de94f95d22de3c9a7ccf451d46e9a7f94bf03f45fbd092a3c7db96ce3")

SL3_SO3_GIVEN_THETA_ANALYZE_JSON = (
    "4ff47c433c8a03564c3bcc39d4e1f7576d0b32b242c5c65e55db3ab8c2ec2fdd")

SL2X2_SO3_ANALYZE_DIGESTS = {
    "unhinted text":
        "b041d4e49308ee6c2e6927d91d283df6c1f54bd6aaf6f3165864d1fba14027d3",
    "unhinted json":
        "4f0666040934d125c166291febe5a2a4ff73914a538638ff985b331f81188714",
    "hinted text":
        "b041d4e49308ee6c2e6927d91d283df6c1f54bd6aaf6f3165864d1fba14027d3",
    "hinted json":
        "4386e247621e9fe1669f6d762056d0438a4be361584151ddd8e0912152f3f90c",
}

REMIXED_ANALYZE_DIGESTS = {
    "sl3_so3 text":
        "4bdadaed10ad261252cb969bb1de32fa39f97e9071f278b759e24abfe9c732da",
    "sl3_so3 json":
        "612aa35f3c08be07443ab02525e05eb0b9a26d31fe2cc816407a9d8cfef0a972",
    "sl2x3_diag_mixed text":
        "823a398f85b831c531619a5baeb0df718309a60ae7d5b81283564a2c2399abff",
    "sl2x3_diag_mixed json":
        "cf605f37dedc6babf46d11ce5911f75d1e6ebd1430434be825c4bf12f11edfc4",
}

MOVED_SL2_ANALYZE_DIGESTS = {
    "sl2_moved_by_e text":
        "e28a838e890480895f0f2fb2f5a71db40f3a3fdada9e0ecb36ff92a6fb73a140",
    "sl2_moved_by_e json":
        "9503394c2fdee6146815ac57ce607a4bb1cc7dba002830b1a58a26bfd89206a3",
    "sl2_moved_by_3e text":
        "93a3574df4a809f90a8ac3917b03b787d9c0412c4d9f2cdd412345b8180cc3ac",
    "sl2_moved_by_3e json":
        "b19117589d0b03e83bda65da55644d51feb1201ef36a26b4409d2fd28b3f3bb0",
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


@pytest.fixture(scope="module")
def shifted_diag(tmp_path_factory):
    """(file name, path) of the diagonal sl(2) in sl(2) + sl(2), moved by
    Ad(exp(E, 0)), with opposite orientations of the two factors: q ∩ h
    leaves the standard Levi, so every report runs through the adjustment."""
    problem = Problem(
        name="sl2x2_shifted_diag", matrix_size=4,
        basis=tuple(direct_sum_basis([sl_basis(2), sl_basis(2)])),
        subalgebra_basis=tuple(
            tuple(tuple(Fraction(e) for e in row) for row in m) for m in (
                [[1, -2, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, -1]],
                [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 1], [0, 0, 0, 0]],
                [[1, -1, 0, 0], [1, -1, 0, 0], [0, 0, 0, 0], [0, 0, 1, 0]])),
        minimal_parabolic_hint=(1, -1))
    path = tmp_path_factory.mktemp("levi") / f"{problem.name}.json"
    path.write_text(problem_to_json(problem), encoding="utf-8")
    return path.name, str(path)


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


@pytest.mark.parametrize("variant", sorted(VARIANTS))
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_levi_adjusted_output_is_unchanged(variant, fmt, shifted_diag):
    name, path = shifted_diag
    run = run_cli(VARIANTS[variant] + ["--format", fmt, path]).replace(
        path.encode(), name.encode())
    got = hashlib.sha256(run).hexdigest()
    assert got == LEVI_ADJUSTED_DIGESTS[f"{variant} {fmt}"]


def test_analyze_solves_for_the_characteristic_element_once(monkeypatch,
                                                           shifted_diag):
    # the Levi adjustment and the orbit identity share the adapted
    # parabolic's derivation pair, so x0 is solved for once per run;
    # every sphlie namespace that binds the function is patched
    from sphlie.parabolic import characteristic_element

    calls = []

    def counted(*args):
        calls.append(args)
        return characteristic_element(*args)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "sphlie" and getattr(
                module, "characteristic_element", None) is \
                characteristic_element:
            monkeypatch.setattr(module, "characteristic_element", counted)
    run = run_cli(["analyze", shifted_diag[1]])
    assert b"exit 0" in run and b"compatible Levi complement" in run
    assert len(calls) == 1


def sl_so_analyze_json(n: int, samples: str, tmp_path, theta=None) -> str:
    """sha256 of the ``analyze --format json`` transcript of sl(n)/so(n),
    with ``theta`` as the problem's involution when given."""
    problem = Problem(name=f"sl{n}_so{n}", matrix_size=n,
                      basis=tuple(sl_basis(n)),
                      subalgebra_basis=tuple(so_basis(n)), theta=theta)
    path = tmp_path / f"{problem.name}.json"
    path.write_text(problem_to_json(problem), encoding="utf-8")
    run = run_cli(["analyze", "--format", "json", "--samples", samples,
                   str(path)]).replace(str(path).encode(), path.name.encode())
    return hashlib.sha256(run).hexdigest()


def test_sl6_so6_analyze_output_is_unchanged(tmp_path):
    assert sl_so_analyze_json(6, SAMPLES, tmp_path) == SL6_SO6_ANALYZE_JSON


def test_sl8_so8_analyze_output_is_unchanged(tmp_path):
    assert sl_so_analyze_json(8, "5", tmp_path) == SL8_SO8_ANALYZE_JSON


def test_sl10_so10_analyze_output_is_unchanged(tmp_path):
    assert sl_so_analyze_json(10, "5", tmp_path) == SL10_SO10_ANALYZE_JSON


def test_sl12_so12_analyze_output_is_unchanged(tmp_path):
    assert sl_so_analyze_json(12, "5", tmp_path) == SL12_SO12_ANALYZE_JSON


def test_sl14_so14_analyze_output_is_unchanged(tmp_path):
    assert sl_so_analyze_json(14, "5", tmp_path) == SL14_SO14_ANALYZE_JSON


def test_sl16_so16_analyze_output_is_unchanged(tmp_path):
    assert sl_so_analyze_json(16, "5", tmp_path) == SL16_SO16_ANALYZE_JSON


def test_sl3_so3_given_theta_analyze_output_is_unchanged(tmp_path):
    """theta given as the coordinate matrix of -X^T: a problem's own theta
    takes the fully checked path, where the default is proved.  On
    sl_basis(3), -b^T is minus the basis matrix b^T."""
    basis = sl_basis(3)
    theta = tuple(tuple(-1 if basis[k] == tuple(zip(*b)) else 0 for b in basis)
                  for k in range(len(basis)))
    assert (sl_so_analyze_json(3, SAMPLES, tmp_path, theta)
            == SL3_SO3_GIVEN_THETA_ANALYZE_JSON)


@pytest.mark.parametrize("hint", [None, (1, -1)],
                         ids=["unhinted", "hinted"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_mixed_levi_analyze_output_is_unchanged(hint, fmt, tmp_path):
    problem = mixed_levi.problem(hint=hint)
    path = tmp_path / f"{problem.name}.json"
    path.write_text(problem_to_json(problem), encoding="utf-8")
    run = run_cli(["analyze", "--format", fmt, "--samples", SAMPLES,
                   str(path)]).replace(str(path).encode(), path.name.encode())
    key = f"{'unhinted' if hint is None else 'hinted'} {fmt}"
    assert hashlib.sha256(run).hexdigest() == SL2X2_SO3_ANALYZE_DIGESTS[key]


@pytest.mark.parametrize("name", ["sl3_so3", "sl2x3_diag_mixed"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_remixed_analyze_output_is_unchanged(name, fmt, tmp_path):
    entry = get_entry(name)
    path = tmp_path / f"{name}.json"
    path.write_text(problem_to_json(remixed(entry.problem, 0)),
                    encoding="utf-8")
    run = run_cli(["analyze", "--samples", SAMPLES, "--conjugate-search",
                   str(entry.search_budget), "--format", fmt, str(path)]
                  ).replace(str(path).encode(), path.name.encode())
    assert hashlib.sha256(run).hexdigest() == \
        REMIXED_ANALYZE_DIGESTS[f"{name} {fmt}"]


def moved_sl2_problem(name: str) -> Problem:
    """sl(2) with h = Ad(exp tE)·span(F) = span(F + tH - t²E), t = 1 or 3,
    scaled to span(H - tE + F/t); the catalog's sl2_n opens to span(F)."""
    t = {"sl2_moved_by_e": 1, "sl2_moved_by_3e": 3}[name]
    h = ((Fraction(1), Fraction(-t)), (Fraction(1, t), Fraction(-1)))
    return Problem(name=name, matrix_size=2, basis=tuple(sl_basis(2)),
                   subalgebra_basis=(h,))


@pytest.mark.parametrize("name", ["sl2_moved_by_e", "sl2_moved_by_3e"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_moved_sl2_analyze_output_is_unchanged(name, fmt, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_text(problem_to_json(moved_sl2_problem(name)),
                    encoding="utf-8")
    run = run_cli(["analyze", "--samples", SAMPLES, "--format", fmt,
                   str(path)]).replace(str(path).encode(), path.name.encode())
    assert hashlib.sha256(run).hexdigest() == \
        MOVED_SL2_ANALYZE_DIGESTS[f"{name} {fmt}"]
