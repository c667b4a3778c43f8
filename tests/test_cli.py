import hashlib
import json
import time

import pytest

from hypertower import suites
from hypertower.cli import run


def invoke(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_expand(capsys):
    code, out, _ = invoke(
        capsys, "expand", "--field", "rational", "--p", "5", "--x", "-1", "--digits", "4"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["shift"] == 0 and doc["digits"] == [4, 4, 4, 4]


def test_hyperadd(capsys):
    code, out, _ = invoke(capsys, "hyperadd", "--p", "5", "--gamma", "1", "--x", "1", "--y", "1")
    assert code == 0
    doc = json.loads(out)
    s = doc["hypersum"]
    assert s["radius"] == 1 and s["zero"] is False
    assert s["center"] == {"level": 1, "rep": "2"}


def test_coset_and_project(capsys):
    code, out, _ = invoke(capsys, "coset", "--p", "5", "--gamma", "0", "--x", "50")
    assert code == 0
    assert json.loads(out)["value"] == [2]
    code, out, _ = invoke(
        capsys, "project", "--p", "5", "--x", "27", "--from", "2", "--to", "1"
    )
    assert code == 0
    assert json.loads(out)["output"]["level"] == 1


def test_embed(capsys):
    code, out, _ = invoke(capsys, "embed", "--ext", "quadratic", "--p", "5", "--digits", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["approximation"]["digits"] == [1, 3, 0]


def test_limit_arith_ledger(capsys):
    code, out, _ = invoke(
        capsys, "limit-arith", "--op", "add", "--lhs", "1", "--rhs", "624",
        "--p", "5", "--digits", "4",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["approximation"] == {"shift": 4, "digits": [1, 0, 0, 0], "p": 5}
    assert doc["ledger"]["losses"][0]["loss"] == 4


def test_function_field_elements(capsys):
    code, out, _ = invoke(
        capsys, "expand", "--field", "function", "--p", "5",
        "--x", '{"num": [1], "den": [1, -1]}', "--digits", "4",
    )
    assert code == 0
    assert json.loads(out)["digits"] == [1, 1, 1, 1]


def test_laws_pass_exit_zero(capsys):
    code, out, _ = invoke(
        capsys, "laws", "--suite", "tropical", "--seed", "7", "--samples", "50"
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_laws_failure_exit_one(capsys, monkeypatch):
    from hypertower.tower import LawReport

    broken = LawReport("forced", samples=1, failures=[{"why": "negative control"}])
    monkeypatch.setitem(suites.REGISTRY, "tropical", lambda rng, **config: [broken])
    code, out, _ = invoke(capsys, "laws", "--suite", "tropical", "--seed", "1")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    assert doc["reports"][0]["failures"]


def test_laws_deterministic_bytes(capsys):
    args = ("laws", "--suite", "singlevalued", "--seed", "11", "--samples", "32")
    _, first, _ = invoke(capsys, *args)
    _, second, _ = invoke(capsys, *args)
    assert first == second


def test_seed_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("HYPERTOWER_SEED", "99")
    _, out, _ = invoke(capsys, "laws", "--suite", "tropical", "--samples", "16")
    assert json.loads(out)["config"]["seed"] == 99


def test_malformed_element_exit_two(capsys):
    code, _, err = invoke(capsys, "expand", "--p", "5", "--x", "not-a-number")
    assert code == 2
    assert "malformed element" in err


def test_unknown_suite_exit_two(capsys):
    code, _, err = invoke(capsys, "laws", "--suite", "bogus", "--seed", "1")
    assert code == 2


def test_usage_error_exit_two(capsys):
    code, _, _ = invoke(capsys, "coset", "--p", "5", "--x", "1")  # missing --gamma
    assert code == 2


def test_project_upward_exit_two(capsys):
    code, _, err = invoke(
        capsys, "project", "--p", "5", "--x", "1", "--from", "1", "--to", "3"
    )
    assert code == 2


# sha256 of the stdout of each run below, recorded before the suites moved
# into suites.REGISTRY; the key is the suite, then the field when not the
# default (rational)
LAWS_DIGESTS = {
    "lee": "af6904a20780656eaa262699456ff9ce6964dbc8d36172870e57bfec516154b4",
    "tropical": "f946978081a819d0f274f5e5994ca3b5d3641541adafe54a3075d20c92ddd3e5",
    "hom": "4edda4ab5808554bcc076fca789ea73aae9bdb503e5beaea3044746645736c67",
    "hom-function": "531d0a1dbdf6c3c76bdc61fcc476e202ae6cf5388043a606c1534cdce28706f9",
    "hom-quadratic": "43f84a2631b9b3384ac6c14c44386fda2ef85debe43d50410b7672714af03833",
    "cone": "8c55fa3dde7d1f22ab331241546299d68ba349aceeb4ce297d5f70ff55414c7f",
    "cone-function": "8974c25b6d42437899157da1427b7e7f8c0edf18b80bde5d6b23d49f60605002",
    "cone-quadratic": "6d6a333333f696700c142c1b9c42cd2adcee36f2bce994758713d884c7ac0024",
    "singlevalued": "8470ab11e435e8a7630960a88a675843be914134c37dd763f24ba350d9e7c614",
    "singlevalued-function": "53e93f34a76bf1dda0f6726f60237772d4408817738bb84b24cfe6ec0843f36f",
    "singlevalued-quadratic": "d172e669019be98d230a65a46d241433764bc013dfb22afb74f3bb66bc722e88",
    "universal": "158dac3afb9f5945fbe00cb9a09749469c83bc3a710287707f03f4f9d50d056f",
    "universal-function": "e7e713737d4c285a83fb96e30057acad59259049fa8360db9c00d43e91d4ca88",
    "universal-quadratic": "10c012d3c58085db8f2e92f56c4e23919e301213666059c9898eeaecbcab5718",
    "oracle-roundtrip": "a15da03954393c32efbf1ccc499993f07e6a8189906a21c3142234a93cc5e807",
    "oracle-roundtrip-function": "59700765252afc7a3b06b779d5f08fa5233b2b1e2b9c7abc49734d8d6752ba8b",
    "oracle-roundtrip-quadratic": "04519a32c2cf0e5d1b716fa89e3e63bc7822b71fd6d6284d492babc5d32d639b",
}
FIELDS = (None, "function", "quadratic")


@pytest.mark.parametrize(
    "suite,field",
    [
        pytest.param(name, field, id=name if field is None else f"{name}-{field}")
        for name, build in suites.REGISTRY.items()
        for field in (FIELDS if getattr(build, "takes_field", False) else (None,))
    ],
)
def test_every_suite_reachable(capsys, suite, field):
    argv = ["laws", "--suite", suite, "--seed", "3", "--samples", "24", "--height", "4"]
    if field is not None:
        argv += ["--field", field]
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert json.loads(out)["pass"] is True
    key = suite if field is None else f"{suite}-{field}"
    assert hashlib.sha256(out.encode()).hexdigest() == LAWS_DIGESTS[key]


@pytest.mark.parametrize("flag", ["--samples", "--height"])
def test_negative_counts_exit_two(capsys, flag):
    code, out, _ = invoke(capsys, "laws", "--suite", "tropical", "--seed", "1", flag, "-5")
    assert code == 2
    assert out == ""


def test_empty_report_fails(capsys):
    # height 0 leaves lee no pair to check: no samples is no pass
    code, out, _ = invoke(capsys, "laws", "--suite", "lee", "--seed", "1", "--height", "0")
    assert code == 1
    doc = json.loads(out)
    assert doc["pass"] is False
    assert all(r["samples"] == 0 and r["pass"] is False for r in doc["reports"])


@pytest.mark.parametrize(
    "p,code",
    # a prime, a composite, and the bound of the certified range
    [(10**18 + 3, 0), (10**18 + 1, 2), (3317044064679887385961981, 2)],
)
def test_large_prime_modulus(capsys, p, code):
    start = time.perf_counter()
    got, _, _ = invoke(capsys, "expand", "--p", str(p), "--x", "1")
    assert got == code
    assert time.perf_counter() - start < 1.0


def test_quadratic_element_parse(capsys):
    code, out, _ = invoke(
        capsys, "expand", "--field", "quadratic", "--p", "5",
        "--x", '{"a": "2", "b": "3"}', "--digits", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["shift"] == 2
