import hashlib
import json
import time

import pytest

from hypertower import suites
from hypertower.cli import MAX_DIGITS, run
from hypertower.tower import LawReport


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


@pytest.mark.parametrize(
    "field,text",
    [
        # a float component used to be truncated: [1.5, 2] read as 1/2
        ("rational", "[1.5, 2]"),
        ("rational", "[3, 2.9]"),
        # a JSON bool used to read as the integer 1
        ("rational", "true"),
        ("rational", "[true, 2]"),
        ("function", '{"num": [1], "den": [2.7]}'),
        # a string used to be read digit by digit as the coefficients 1, 2, 3
        ("function", '{"num": "123"}'),
        ("function", '{"num": [true]}'),
        ("function", "[1, 0.5]"),
        ("function", "false"),
        ("function", '{"num": [1], "dem": [2]}'),
        ("quadratic", "true"),
        # an unknown key used to be ignored: {"a": 1, "B": 3} read as 1
        ("quadratic", '{"a": 1, "B": 3}'),
        # a float component used to be read through its decimal string
        ("quadratic", "[0.1, 2]"),
        ("quadratic", '{"a": 1.5}'),
        ("quadratic", "[true, 2]"),
        ("quadratic", '{"b": false}'),
    ],
)
def test_malformed_element_inputs_exit_two(capsys, field, text):
    code, out, err = invoke(
        capsys, "coset", "--field", field, "--p", "5", "--gamma", "0", "--x", text
    )
    assert code == 2
    assert out == ""
    assert "malformed element" in err


@pytest.mark.parametrize(
    "field,text",
    [
        ("rational", '"1e20000000"'),
        ("quadratic", '"1e20000000"'),
        ("quadratic", '{"a": "1E3000000", "b": 0}'),
        ("quadratic", '["0", "1e20000000"]'),
    ],
)
def test_exponent_notation_exits_two_fast(capsys, field, text):
    # Fraction("1e20000000") would expand twenty million digits first
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "coset", "--field", field, "--p", "5", "--gamma", "1", "--x", text
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "malformed element" in err


@pytest.mark.parametrize(
    "field,text",
    [
        ("rational", "1" * 5001),
        ("rational", f"[{'1' * 5001}, 2]"),
        ("function", f"[{'1' * 5001}, 2]"),
    ],
    ids=["rational", "pair", "function-list"],
)
def test_long_integer_literal_exits_two(capsys, field, text):
    # Python's own message would advise sys.set_int_max_str_digits(), an
    # interpreter setting rather than a limit of this CLI
    code, out, err = invoke(
        capsys, "coset", "--field", field, "--p", "5", "--gamma", "1", "--x", text
    )
    assert code == 2
    assert out == ""
    assert "malformed element" in err and "4,300 digits" in err
    assert "set_int_max_str_digits" not in err


def test_integer_at_the_digit_limit_is_read(capsys):
    code, out, _ = invoke(capsys, "coset", "--p", "5", "--gamma", "0", "--x", "7" * 4300)
    assert code == 0
    assert json.loads(out)["coset"]["rep"] == "7" * 4300


@pytest.mark.parametrize(
    "field,text,rep",
    [
        ("rational", "[3, 2]", "3/2"),
        ("rational", '["3", "-2"]', "-3/2"),
        ("rational", "7", "7"),
        ("function", '{"num": [1], "den": [2]}', {"num": [3], "den": [1]}),
        ("function", '{"num": ["1", 2]}', {"num": [1, 2], "den": [1]}),
        ("function", "[0, 6]", {"num": [0, 1], "den": [1]}),
        ("quadratic", '[1, "1/2"]', {"a": "1", "b": "1/2"}),
        ("quadratic", '{"b": "-3/5"}', {"a": "0", "b": "-3/5"}),
        ("quadratic", '"7/2"', {"a": "7/2", "b": "0"}),
    ],
)
def test_integer_element_inputs_parse(capsys, field, text, rep):
    code, out, _ = invoke(
        capsys, "coset", "--field", field, "--p", "5", "--gamma", "0", "--x", text
    )
    assert code == 0
    assert json.loads(out)["coset"]["rep"] == rep


def test_unknown_extension_exit_two(capsys):
    code, out, _ = invoke(capsys, "embed", "--ext", "cubic", "--p", "5")
    assert code == 2 and out == ""


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
    assert err == "error: cannot project level 1 up to 3\n"


@pytest.mark.parametrize(
    "seed_env,argv",
    [
        ("abc", ("laws", "--suite", "tropical", "--samples", "16")),
        (None, ("limit-arith", "--op", "add", "--lhs", "1")),
    ],
)
def test_value_errors_exit_two(capsys, monkeypatch, seed_env, argv):
    if seed_env is not None:
        monkeypatch.setenv("HYPERTOWER_SEED", seed_env)
    code, out, err = invoke(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


# sha256 of the stdout of each run below, recorded before the suites moved
# into suites.REGISTRY; the key is the suite, then the field when not the
# default (rational).  The two singlevalued digests were re-recorded when
# the suite stopped drawing sample elements it never read: its pairs now
# come earlier in the stream, and a zero operand is one degenerate sample.
LAWS_DIGESTS = {
    "lee": "af6904a20780656eaa262699456ff9ce6964dbc8d36172870e57bfec516154b4",
    "tropical": "f946978081a819d0f274f5e5994ca3b5d3641541adafe54a3075d20c92ddd3e5",
    "hom": "4edda4ab5808554bcc076fca789ea73aae9bdb503e5beaea3044746645736c67",
    "hom-function": "531d0a1dbdf6c3c76bdc61fcc476e202ae6cf5388043a606c1534cdce28706f9",
    "hom-quadratic": "43f84a2631b9b3384ac6c14c44386fda2ef85debe43d50410b7672714af03833",
    "cone": "8c55fa3dde7d1f22ab331241546299d68ba349aceeb4ce297d5f70ff55414c7f",
    "cone-function": "8974c25b6d42437899157da1427b7e7f8c0edf18b80bde5d6b23d49f60605002",
    "cone-quadratic": "6d6a333333f696700c142c1b9c42cd2adcee36f2bce994758713d884c7ac0024",
    "singlevalued": "5a17f23b8a68800239457078b29853e3fcac18561ada25a5e20369450bbab7a2",
    "singlevalued-function": "5f39f9f380f2c89ae35454555b3a02245f998f273135c965e5b70fc56ce40aae",
    "singlevalued-quadratic": "d172e669019be98d230a65a46d241433764bc013dfb22afb74f3bb66bc722e88",
    "universal": "158dac3afb9f5945fbe00cb9a09749469c83bc3a710287707f03f4f9d50d056f",
    "universal-function": "e7e713737d4c285a83fb96e30057acad59259049fa8360db9c00d43e91d4ca88",
    "universal-quadratic": "10c012d3c58085db8f2e92f56c4e23919e301213666059c9898eeaecbcab5718",
    "oracle-roundtrip": "a15da03954393c32efbf1ccc499993f07e6a8189906a21c3142234a93cc5e807",
    "oracle-roundtrip-function": "59700765252afc7a3b06b779d5f08fa5233b2b1e2b9c7abc49734d8d6752ba8b",
    "oracle-roundtrip-quadratic": "04519a32c2cf0e5d1b716fa89e3e63bc7822b71fd6d6284d492babc5d32d639b",
}
FIELDS = (None, "function", "quadratic")
FIELD_SUITES = [
    name for name, build in suites.REGISTRY.items() if getattr(build, "takes_field", False)
]
# universal ignores --field, but still runs with each one, and needs a height
SWEPT_SUITES = FIELD_SUITES + ["universal"]


@pytest.mark.parametrize(
    "suite,field",
    [
        pytest.param(name, field, id=name if field is None else f"{name}-{field}")
        for name in suites.REGISTRY
        for field in (FIELDS if name in SWEPT_SUITES else (None,))
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


@pytest.mark.parametrize("p", ["2", "3"])
def test_universal_ignores_field(capsys, p):
    # the quadratic extension rejects p = 2 and 3; universal never builds it
    code, out, _ = invoke(capsys, "laws", "--suite", "universal", "--field", "quadratic", "--p", p)
    assert code == 0
    assert json.loads(out)["pass"] is True


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


def test_lee_height_limit_exit_two(capsys):
    # the universes grow with the square of the height, whatever --samples is
    start = time.perf_counter()
    code, out, err = invoke(
        capsys, "laws", "--suite", "lee", "--seed", "1", "--samples", "1", "--height", "100000"
    )
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "'lee'" in err and "--height <= 1000" in err


def test_lee_height_limit_inclusive(capsys, monkeypatch):
    bounds = []

    def stub(p, gamma, rng, *, exhaustive_bound, sample_bound, sample_pairs):
        bounds.append(sample_bound)
        report = LawReport("stub")
        report.tick()
        return report

    monkeypatch.setattr(suites, "lee_suite", stub)
    top = suites.LEE_MAX_HEIGHT
    code, _, _ = invoke(capsys, "laws", "--suite", "lee", "--height", str(top))
    assert code == 0 and bounds == [top] * 3
    code, _, _ = invoke(capsys, "laws", "--suite", "lee", "--height", str(top + 1))
    assert code == 2 and bounds == [top] * 3


# sha256 of `laws --suite lee --seed 1` at the default --height and --samples,
# recorded before the height limit and the shared-sum exhaustive tier
LEE_DEFAULT_DIGEST = "4c6c040083ceb37d1db6b31fa228dfbef1d0a59f0e6ee37af97d97e3d863a603"


def test_lee_default_height_bytes(capsys):
    code, out, _ = invoke(capsys, "laws", "--suite", "lee", "--seed", "1")
    assert code == 0
    assert json.loads(out)["pass"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == LEE_DEFAULT_DIGEST


# the same run at the two smaller primes, recorded before the exhaustive tier
# shared its candidate sums by value across (p, level) configurations
LEE_PRIME_DIGESTS = {
    "2": "01c3f28eba601409aab8ce1245b7c056e93ab83f83912b7ea38e45e1b0d11665",
    "3": "bedc0922c2996b58dbc48473261fcb8ec234aea9fa8364dafabcc5f0a25ce178",
}


@pytest.mark.parametrize("p", list(LEE_PRIME_DIGESTS))
def test_lee_default_height_bytes_small_primes(capsys, p):
    code, out, _ = invoke(capsys, "laws", "--suite", "lee", "--seed", "1", "--p", p)
    assert code == 0
    assert json.loads(out)["pass"] is True
    assert hashlib.sha256(out.encode()).hexdigest() == LEE_PRIME_DIGESTS[p]


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


_DIGITS_COMMANDS = [
    ("expand", "--field", "quadratic", "--x", "[1, 2]"),
    ("embed",),
    ("limit-arith", "--op", "inv", "--lhs", "[1, 2]", "--field", "quadratic"),
    ("laws", "--suite", "oracle-roundtrip", "--seed", "1"),
]


@pytest.mark.parametrize("argv", _DIGITS_COMMANDS)
def test_digits_limit_exit_two(capsys, argv):
    # a digit window's cost grows faster than its length
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv, "--digits", str(MAX_DIGITS + 1))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert f"--digits: must be <= {MAX_DIGITS}" in err


@pytest.mark.parametrize("argv", _DIGITS_COMMANDS[:3])
def test_digits_limit_inclusive(capsys, argv):
    code, out, _ = invoke(capsys, *argv, "--digits", str(MAX_DIGITS))
    assert code == 0
    doc = json.loads(out)
    assert len(doc.get("approximation", doc)["digits"]) == MAX_DIGITS


_BIG_P = str(10**18 + 3)


@pytest.mark.parametrize("argv", _DIGITS_COMMANDS)
def test_digit_bits_limit_exit_two(capsys, argv):
    # a digit costs more as p grows: 10,000 digits of a 60-bit prime took
    # 20-40 s before the window was bounded in bits
    start = time.perf_counter()
    code, out, err = invoke(capsys, *argv, "--p", _BIG_P, "--digits", str(MAX_DIGITS))
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "exceeds the window of 40000 bits" in err


@pytest.mark.parametrize("argv", _DIGITS_COMMANDS[:3])
def test_digit_bits_limit_inclusive(capsys, argv):
    # 666 digits of 60 bits is the largest window inside 40,000 bits
    start = time.perf_counter()
    code, out, _ = invoke(capsys, *argv, "--p", _BIG_P, "--digits", "666")
    assert time.perf_counter() - start < 1.0
    assert code == 0
    doc = json.loads(out)
    assert len(doc.get("approximation", doc)["digits"]) == 666
    code, _, _ = invoke(capsys, *argv, "--p", _BIG_P, "--digits", "667")
    assert code == 2


def test_oracle_roundtrip_long_window(capsys):
    # the resummed window has more than 4,300 decimal digits: it is never
    # formatted unless the element itself is emitted
    code, out, _ = invoke(
        capsys, "laws", "--suite", "oracle-roundtrip", "--field", "quadratic",
        "--digits", "7000", "--samples", "1", "--seed", "1",
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_quadratic_element_parse(capsys):
    code, out, _ = invoke(
        capsys, "expand", "--field", "quadratic", "--p", "5",
        "--x", '{"a": "2", "b": "3"}', "--digits", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["shift"] == 2


_QUAD = '{"a": "2/25", "b": "-3/5"}'
_FUNC = '{"num": [0, 2, 1], "den": [0, 0, 3, 1]}'
# argv and sha256 of stdout for the commands that run on the field kernels,
# recorded before those kernels moved onto integer numerators and
# denominators; _QUAD and the -pden inputs have p-power denominators.  The
# hyperadd entries were recorded again when sum descriptors lost their
# "singleton" key, which was null in all three
COMMAND_DIGESTS = {
    "expand-rational": (
        ("expand", "--p", "5", "--x=-7/50", "--digits", "12"),
        "295d85b5947646c2d7054b58c10351ce102f8a05226cad01cf8af83284435cbd",
    ),
    "expand-function": (
        ("expand", "--field", "function", "--p", "5", "--x", _FUNC, "--digits", "12"),
        "e2f91f1b08645ecf609c6765901b26c01d39fdf1f1dd6139998c7bcb7290fbea",
    ),
    "expand-quadratic": (
        ("expand", "--field", "quadratic", "--p", "7", "--x", "[3, -2]", "--digits", "12"),
        "1ce7f60bf108b307b268cc1bfec50bd41ed54048acf0e5a459196598b49a9bda",
    ),
    "expand-quadratic-pden": (
        ("expand", "--field", "quadratic", "--p", "5", "--x", _QUAD, "--digits", "12"),
        "ea5969375d09259ed75854cdd89c378d92bd929d8b8ca445a65db01bd1d41822",
    ),
    "embed": (
        ("embed", "--p", "13", "--digits", "20"),
        "bdbddc91e879a881625dba8e6824159aa17ddc28ee42aa922ca6be385a7789e1",
    ),
    "embed-pden": (
        ("embed", "--p", "7", "--x", '{"a": "1/49", "b": "5/7"}', "--digits", "10"),
        "da86df47ab6280652f899f02cd1896240efa881d33f5256b60aa3fd0c188f096",
    ),
    "coset-rational": (
        ("coset", "--p", "5", "--gamma", "3", "--x=-7/50"),
        "792c3bd19f6e4fba4dbb8b5a46b7d338433a12ba79dc717f4f887d6bf4d758fb",
    ),
    "coset-function": (
        ("coset", "--field", "function", "--p", "5", "--gamma", "3", "--x", _FUNC),
        "ca52069140849d136652983ad6fc30c206b79e614cb5da488f60246492762ecf",
    ),
    "coset-quadratic": (
        ("coset", "--field", "quadratic", "--p", "5", "--gamma", "3", "--x", _QUAD),
        "1890b7d32481989786216aeb1416410638309f7e75affd54f162a4389d3b857e",
    ),
    "hyperadd-rational": (
        ("hyperadd", "--p", "5", "--gamma", "2", "--x=3/25", "--y=-2/25"),
        "a3bdf6f3381793ad5f52e6a70d1ca17676da92c45293bae5ad55deb94edfeb37",
    ),
    "hyperadd-function": (
        ("hyperadd", "--field", "function", "--p", "5", "--gamma", "2",
         "--x", _FUNC, "--y", "[4, 3]"),
        "6c8e4cb3145348c6752bc5d8e7b9ce8c606395261af1c4e36bc5f92c10d2fcd6",
    ),
    "hyperadd-quadratic": (
        ("hyperadd", "--field", "quadratic", "--p", "5", "--gamma", "2",
         "--x", _QUAD, "--y", "[1, 1]"),
        "655b33ce90a47468270425c9d6a88e178866fde71df636aa9112b84bd0e7b8ec",
    ),
    "limit-arith-rational": (
        ("limit-arith", "--op", "mul", "--p", "5", "--lhs=-7/50", "--rhs", "26",
         "--digits", "10"),
        "98621b1ccbddda79efc3c9f04013adb144b9391f5a50c7a1487be88a63369d1b",
    ),
    "limit-arith-function": (
        ("limit-arith", "--op", "add", "--field", "function", "--p", "5",
         "--lhs", _FUNC, "--rhs", "[4, 3]", "--digits", "10"),
        "7431b31090e0f181a93c9231165162fd36c471fc160b37a363e9f5bb8ba71172",
    ),
    "limit-arith-function-inv": (
        ("limit-arith", "--op", "inv", "--field", "function", "--p", "5",
         "--lhs", _FUNC, "--digits", "10"),
        "b9cbcdbd8945a59e7904e6b20ba0af9e0e84d2a28189204ebf501950abf6c6ca",
    ),
    "limit-arith-quadratic-mul": (
        ("limit-arith", "--op", "mul", "--field", "quadratic", "--p", "7",
         "--lhs", '{"a": "1/49", "b": "5/7"}', "--rhs", "[3, -2]", "--digits", "10"),
        "3c3d7b404a80e77d556f6097455fc67d42006917e4c199f73a3711ec79d97dff",
    ),
    "limit-arith-quadratic": (
        ("limit-arith", "--op", "inv", "--field", "quadratic", "--p", "5",
         "--lhs", _QUAD, "--digits", "10"),
        "153e1d5bc954b93f967fd73f0b913092dfdbae79942f31cb5ca4e247e5274761",
    ),
}


@pytest.mark.parametrize("name", list(COMMAND_DIGESTS))
def test_command_bytes(capsys, name):
    argv, digest = COMMAND_DIGESTS[name]
    code, out, _ = invoke(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("suite", SWEPT_SUITES)
def test_field_suite_height_zero_exit_two(capsys, suite):
    code, out, err = invoke(capsys, "laws", "--suite", suite, "--seed", "1", "--height", "0")
    assert code == 2
    assert out == ""
    assert suite in err and "--height" in err


@pytest.mark.parametrize("suite", FIELD_SUITES)
def test_function_field_suite_runs_at_height_zero(capsys, suite):
    # no F_p(t) draw reads the height, so height 0 gives the reports of height 9
    argv = ("laws", "--suite", suite, "--field", "function", "--seed", "1", "--samples", "8")
    code, out, err = invoke(capsys, *argv, "--height", "0")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["pass"]
    code, deep, _ = invoke(capsys, *argv, "--height", "9")
    assert code == 0 and json.loads(deep)["reports"] == doc["reports"]
