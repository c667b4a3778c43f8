"""The mutant kill table: every `hypertower laws` suite can fail.

Each mutant below puts one named fault into the package through
monkeypatches.  ``KILLS`` pins each mutant to a (suite, field) that reports
a failure when run with the CLI's default configuration at seed 1, and
every suite of ``suites.REGISTRY`` is pinned at least once.  A mutant that
no suite reports stays in ``PENDING``, with the reason and the tier-1 test
that kills it.

A pinned run stops at its suite's first reported failure: that alone makes
the CLI's ``"pass"`` false.  The oracle-roundtrip suite is also compared,
report for report, with ``_two_expansion_oracle``, the loop that expanded
both sides of every comparison.
"""

from __future__ import annotations

import importlib
import random
from collections import Counter
from fractions import Fraction

import pytest

from hypertower import basefields, cli, cosets, limit, oag, sampling, suites, tower
from hypertower.basefields import (
    Approximation,
    PadicRationals,
    QuadraticExtension,
    RationalFunctions,
    make_field,
)
from hypertower.cosets import GammaCoset, HyperSum
from hypertower.limit import from_field, limit_arith, limit_eq, rebuild_from_digits, to_approximation
from hypertower.oag import INF, TropSet
from hypertower.sampling import sample_element
from hypertower.tower import LawReport

SEED = 1
FIELD_CLASSES = (PadicRationals, RationalFunctions, QuadraticExtension)
_MODULES = (basefields, cosets, tower, limit, suites, oag, sampling, cli)


def _everywhere(monkeypatch, module, name, fn, extra=()):
    """Replace ``module.name`` and every ``from`` import of it, in the
    package and in the modules of ``extra``, with fn."""
    original = getattr(module, name)
    for m in _MODULES + tuple(extra):
        if getattr(m, name, None) is original:
            monkeypatch.setattr(m, name, fn)


# -- the mutants: each takes monkeypatch and the extra modules to reach ------


def _ball_radius(delta):
    real = cosets._ball

    def mutant(monkeypatch, extra=()):
        def ball(field, level, total, least):
            return real(field, level, total, least if least is INF else least + delta)

        monkeypatch.setattr(cosets, "_ball", ball)

    return mutant


def _ball_closed(monkeypatch, extra=()):
    def closed(s, c):
        d = s.field.sub_valuation(c.rep, s.center.rep)
        return d is INF or d >= s.radius

    _everywhere(monkeypatch, cosets, "hypersum_contains", closed, extra)


def _radius_forgets_level(monkeypatch, extra=()):
    def ball(field, level, total, least):
        center = GammaCoset(field, level, total)
        v = center.value()
        return HyperSum(field, level, center, least, v is INF or v > least)

    monkeypatch.setattr(cosets, "_ball", ball)


def _sub_valuation_plus_one(monkeypatch, extra=()):
    for cls in FIELD_CLASSES:
        def bumped(self, x, y, _real=cls.sub_valuation):
            v = _real(self, x, y)
            return v if v is INF else v + 1

        monkeypatch.setattr(cls, "sub_valuation", bumped)


def _expand_last_digit(monkeypatch, extra=()):
    for cls in FIELD_CLASSES:
        def expand(self, x, n, _real=cls.expand):
            a = _real(self, x, n)
            return Approximation(a.shift, a.digits[:-1] + ((a.digits[-1] + 1) % a.p,), a.p)

        monkeypatch.setattr(cls, "expand", expand)


def _project_off(monkeypatch, extra=()):
    real = tower.project

    def project(c, gamma):
        low = real(c, gamma)
        if c.is_zero():
            return low
        f = c.field
        return GammaCoset(f, low.level, f.add(c.rep, f.uniformizer_pow(gamma + c.value())))

    _everywhere(monkeypatch, tower, "project", project, extra)


def _derived_off(monkeypatch, extra=()):
    real = limit._exact_element

    def exact_element(field, x, v, provenance, ledger=None, *, exact=True):
        if provenance.get("kind") == "arith" and v is not INF:
            x = field.add(x, field.uniformizer_pow(v + 5))
        return real(field, x, v, provenance, ledger, exact=exact)

    monkeypatch.setattr(limit, "_exact_element", exact_element)


def _representative_short(monkeypatch, extra=()):
    real = QuadraticExtension.representative
    monkeypatch.setattr(
        QuadraticExtension, "representative", lambda self, x, level: real(self, x, max(level - 1, 0))
    )


def _candidate_outside(monkeypatch, extra=()):
    real = cosets.member_candidates

    def candidates(s):
        out = real(s)
        if s.radius is not INF:
            f = s.field
            out.append(GammaCoset(f, s.level, f.add(s.center.rep, f.uniformizer_pow(s.radius))))
        return out

    _everywhere(monkeypatch, cosets, "member_candidates", candidates, extra)


def _trop_equal_singleton(monkeypatch, extra=()):
    real = oag.trop_hyperadd

    def hyperadd(a, b):
        s = real(a, b)
        return s if s.kind == "singleton" else TropSet.singleton(s.value)

    _everywhere(monkeypatch, oag, "trop_hyperadd", hyperadd, extra)


def _coset_eq_coarse(monkeypatch, extra=()):
    def coarse(a, b):
        cosets._same_world(a, b)
        if a.rep is b.rep:
            return True
        d = a.field.sub_valuation(a.rep, b.rep)
        return d is INF or d >= a.level + a.value()

    _everywhere(monkeypatch, cosets, "coset_eq", coarse, extra)


def _limit_eq_always(monkeypatch, extra=()):
    _everywhere(monkeypatch, limit, "limit_eq", lambda a, b, n: limit.EqResult(True, n), extra)


def _shift_ignored(monkeypatch, extra=()):
    real = limit._levelwise

    def levelwise(op, fn, args, *, shift=0, **kwargs):
        return real(op, fn, args, **kwargs)

    monkeypatch.setattr(limit, "_levelwise", levelwise)


MUTANTS = {
    "ball-radius-minus-1": _ball_radius(-1),
    "ball-radius-plus-1": _ball_radius(+1),
    "ball-closed": _ball_closed,
    "radius-forgets-level": _radius_forgets_level,
    "sub-valuation-plus-1": _sub_valuation_plus_one,
    "expand-last-digit": _expand_last_digit,
    "project-one-class-off": _project_off,
    "derived-element-off": _derived_off,
    "representative-one-level-short": _representative_short,
    "candidate-outside-ball": _candidate_outside,
    "trop-equal-singleton": _trop_equal_singleton,
    "coset-eq-coarse": _coset_eq_coarse,
    "limit-eq-always-equal": _limit_eq_always,
    "shift-ignored": _shift_ignored,
}

# mutant -> the (suite, field) whose default run reports it; None is the
# default field for a suite that builds its own
KILLS = {
    "ball-radius-minus-1": ("hom", "rational"),
    "ball-radius-plus-1": ("lee", None),
    "ball-closed": ("lee", None),
    "radius-forgets-level": ("lee", None),
    "sub-valuation-plus-1": ("lee", None),
    "expand-last-digit": ("oracle-roundtrip", "quadratic"),
    "project-one-class-off": ("cone", "function"),
    "derived-element-off": ("singlevalued", "quadratic"),
    "representative-one-level-short": ("universal", None),
    "candidate-outside-ball": ("hom", "function"),
    "trop-equal-singleton": ("tropical", None),
}

# mutant -> (why no suite reports it, the tier-1 test that kills it)
PENDING = {
    "coset-eq-coarse": (
        "no suite builds a representative at the class boundary",
        "test_cosets::TestCosetBasics::test_eq_examples",
    ),
    "limit-eq-always-equal": (
        "no suite compares coherent elements that differ",
        "test_limit::TestEquality::test_distinct_level",
    ),
    "shift-ignored": (
        "no suite adds coherent elements of equal value that cancel",
        "test_limit::TestUltrametricAdd::test_equal_values_still_probe",
    ),
}


def _default_args(suite, field):
    argv = ["laws", "--suite", suite, "--seed", str(SEED)]
    return cli.build_parser().parse_args(argv + (["--field", field] if field else []))


def _run_suite(suite, field):
    """The reports of ``laws`` at the CLI defaults, as ``cmd_laws`` builds them."""
    args = _default_args(suite, field)
    return suites.REGISTRY[suite](
        random.Random(args.seed),
        field=args.field,
        p=args.p,
        samples=args.samples,
        height=args.height,
        digits=args.digits,
    )


class _Reported(Exception):
    pass


class TestKillTable:
    def test_every_mutant_is_pinned_or_pending(self):
        assert set(KILLS) | set(PENDING) == set(MUTANTS)
        assert not set(KILLS) & set(PENDING)

    def test_every_suite_is_pinned(self):
        assert {suite for suite, _ in KILLS.values()} == set(suites.REGISTRY)

    @pytest.mark.parametrize("suite,field", sorted(set(KILLS.values()), key=repr))
    def test_pinned_runs_pass_unmutated(self, suite, field):
        assert all(r.passed for r in _run_suite(suite, field))

    @pytest.mark.parametrize("mutant", list(KILLS))
    def test_pinned_suite_reports_the_mutant(self, monkeypatch, mutant):
        def fail(self, **ctx):
            raise _Reported(self.law, ctx)

        monkeypatch.setattr(LawReport, "fail", fail)
        MUTANTS[mutant](monkeypatch)
        with pytest.raises(_Reported):
            _run_suite(*KILLS[mutant])

    @pytest.mark.parametrize("mutant", list(PENDING))
    def test_pending_mutant_killed_by_tier_one(self, monkeypatch, mutant):
        module_name, cls_name, test_name = PENDING[mutant][1].split("::")
        module = importlib.import_module(module_name)
        run = getattr(getattr(module, cls_name)(), test_name)
        run()
        MUTANTS[mutant](monkeypatch, extra=(module,))
        with pytest.raises(AssertionError):
            run()


class TestMutantRecords:
    """Failure counts and records of checks under a mutant, past the first
    failure that the kill table stops at."""

    @pytest.mark.parametrize(
        "mutant,failures",
        [
            ("radius-forgets-level", {"rational": 44, "function": 44, "quadratic": 44}),
            ("derived-element-off", {"rational": 45, "function": 45, "quadratic": 45}),
        ],
    )
    def test_singlevalued_reads_members_off_the_descriptor(self, monkeypatch, mutant, failures):
        MUTANTS[mutant](monkeypatch)
        for field in FIELDS:
            reports = _run_suite("singlevalued", field)
            assert sum(len(r.failures) for r in reports) == failures[field], field

    def test_project_off_failure_counts(self, monkeypatch):
        # each checker of a level-pair triangle under the same mutant, put
        # in through the module global only: the slice checker's default
        # projector is looked up at call time, so it reaches that one too
        MUTANTS["project-one-class-off"](monkeypatch)
        field = PadicRationals(5)
        elements = [field.element(x) for x in (0, 1, Fraction(7, 3), 50)]
        pairs = [tower.LevelPair(a, b) for a in range(4) for b in range(a, 4)]
        reports = [
            tower.check_slice_triangles(field, pairs, elements),
            tower.check_projection_containment(field, pairs, elements),
            tower.cone_over_diagram(lambda g: lambda x: GammaCoset(field, g, x), pairs, elements),
        ]
        got = [(r.samples, Counter(f.get("law_part") for f in r.failures)) for r in reports]
        assert got == [
            (120, {"functoriality": 33, "value-preservation": 4}),
            (90, {None: 90}),
            (40, {"triangle": 30}),
        ]

    def test_projection_containment_records(self, monkeypatch):
        MUTANTS["project-one-class-off"](monkeypatch)
        field = PadicRationals(5)
        elements = [field.element(x) for x in (1, Fraction(7, 3), 50)]
        pairs = [tower.LevelPair(a, b) for a in range(4) for b in range(a, 4)][:6]
        rep = tower.check_projection_containment(field, pairs, elements)
        assert rep.samples == len(rep.failures) == 36
        xs = {field.to_json(x) for x in elements}
        for f in rep.failures:
            assert set(f) == {"x", "y", "upper", "lower"}
            assert {f["x"], f["y"]} <= xs
            assert tower.LevelPair(lower=f["lower"], upper=f["upper"]) in pairs


# -- oracle-roundtrip against the two-expansion loop --------------------------


def _two_expansion_oracle(rng, *, field, p, samples, height, digits):
    """``_oracle_roundtrip`` as it expanded both sides of every job: the
    reference for the comparison it skips.  It calls the package's
    functions, so a patch reaches both."""
    field = make_field(field, p)
    report = LawReport("oracle-roundtrip")
    for _ in range(samples):
        report.tick()
        x = sample_element(field, rng, height)
        y = sample_element(field, rng, height)
        ex, ey = from_field(field, x), from_field(field, y)
        jobs = [("add", field.add(x, y), limit_arith("add", ex, ey)[0]),
                ("mul", field.mul(x, y), limit_arith("mul", ex, ey)[0]),
                ("neg", field.neg(x), limit_arith("neg", ex)[0])]
        if not field.is_zero(x):
            jobs.append(("inv", field.inv(x), limit_arith("inv", ex)[0]))
        for op, exact, lifted in jobs:
            if to_approximation(lifted, digits) != field.expand(exact, digits):
                report.fail(op=op, x=str(x), y=str(y))
        rebuilt = rebuild_from_digits(field, to_approximation(ex, digits + 1))
        if not limit_eq(ex, rebuilt, digits).equal:
            report.fail(op="rebuild", x=str(x))
    return [report]


FIELDS = ("rational", "function", "quadratic")


def _both_reports(field, seed, digits, samples=200):
    config = dict(field=field, p=5, samples=samples, height=30, digits=digits)
    return [
        [r.to_json() for r in build(random.Random(seed), **config)]
        for build in (suites.REGISTRY["oracle-roundtrip"], _two_expansion_oracle)
    ]


class TestOracleAgainstTwoExpansions:
    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("seed", [1, 7, 11])
    @pytest.mark.parametrize("digits", [1, 8, 30])
    def test_same_report(self, field, seed, digits):
        got, reference = _both_reports(field, seed, digits, samples=40)
        assert got == reference
        assert got[0]["pass"]

    @pytest.mark.parametrize(
        "mutant,failures",
        [
            ("expand-last-digit", {"rational": 216, "function": 216, "quadratic": 222}),
            ("derived-element-off", {"rational": 770, "function": 760, "quadratic": 754}),
        ],
    )
    def test_same_report_under_a_mutant(self, monkeypatch, mutant, failures):
        MUTANTS[mutant](monkeypatch)
        for field in FIELDS:
            got, reference = _both_reports(field, SEED, 8)
            assert got == reference, field
            assert len(got[0]["failures"]) == failures[field]

    @pytest.mark.parametrize("field", FIELDS)
    @pytest.mark.parametrize("mutant", [None, "expand-last-digit", "derived-element-off"])
    def test_expansions_per_sample(self, monkeypatch, field, mutant):
        # one expansion per sample for the rebuild; a job that is compared
        # (a zero lifted, or a representative that is not the exact value)
        # costs one for a zero lifted and two otherwise.  This is looser than
        # "one per sample plus two per mismatching job": a zero lifted job is
        # compared and so adds one expansion even when it matches, because
        # passing it on is_zero(exact) alone changes the failure counts under
        # the expand-last-digit mutant (one field went 216 -> 193 at seed 1)
        if mutant:
            MUTANTS[mutant](monkeypatch)
        calls, compared = Counter(), Counter()
        for cls in FIELD_CLASSES:
            def expand(self, x, n, _real=cls.expand):
                calls["expand"] += 1
                return _real(self, x, n)

            monkeypatch.setattr(cls, "expand", expand)

        def approximation(e, n):
            if n == 8:  # a job's comparison; the rebuild reads 9 digits
                compared["zero" if e.valuation() is INF else "other"] += 1
            return to_approximation(e, n)

        monkeypatch.setattr(suites, "to_approximation", approximation)
        samples = 200
        (report,) = suites.REGISTRY["oracle-roundtrip"](
            random.Random(SEED), field=field, p=5, samples=samples, height=30, digits=8
        )
        mismatched = sum(f["op"] != "rebuild" for f in report.failures)
        assert compared["other"] <= mismatched
        assert calls["expand"] <= samples + compared["zero"] + 2 * compared["other"]
        if mutant is None:
            assert compared["other"] == 0 and calls["expand"] <= samples + compared["zero"]
