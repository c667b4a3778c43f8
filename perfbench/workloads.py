"""The benchmark's workloads: inputs made from a seed, passes, checks.

Each entry of ``WORKLOADS`` takes freshly imported hypertower modules
and a seed and returns a ``Workload``: the list of items that make one
pass.  Every item drives the
package through its public functions only and returns an ``Outcome``
(law checks made, checks failed).  Items flagged as queries are the units
whose latency is reported.  The inputs depend only on the seed, so every
pass does the same work and its counts are fixed per workload and seed.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random
import sys
import traceback
from dataclasses import dataclass, field

# lee-membership: criterion 1's shape (exhaustive small universe plus a
# sampled tier from height 50), sized so one (p, level) suite takes about a
# third of a second; a pass makes 241,092 hypersum_contains calls
LEE_PRIMES = (2, 3, 5)
LEE_LEVELS = (0, 1, 2)
LEE_EXHAUSTIVE_BOUND = 4
LEE_SAMPLE_BOUND = 50
LEE_SAMPLE_PAIRS = 1000

# sigma-completion: criterion 6's shape
SIGMA_PRIMES = (5, 13)
SIGMA_PAIRS_PER_PRIME = 60
SIGMA_HEIGHT = 20
SIGMA_DEPTH = 32
EXPECTED_PREFIX = (1, 3, 0)  # first base-5 digits of the square root of 6

# laws-cli: every suite except lee at the CLI defaults, over each field a
# suite takes (tropical and universal take none): 14 invocations
FIELDS = ("rational", "function", "quadratic")
LAWS_SUITES = (
    ("tropical", (None,)),
    ("hom", FIELDS),
    ("cone", FIELDS),
    ("singlevalued", FIELDS),
    ("universal", (None,)),
    ("oracle-roundtrip", FIELDS),
)


@dataclass
class Outcome:
    checks: int
    failed: int = 0


@dataclass
class Item:
    label: str
    fn: object
    query: bool = True
    expected_checks: int = 1  # charged as failed when the item raises


@dataclass
class Workload:
    items: list = field(default_factory=list)
    notes: list = field(default_factory=list)

    def run_item(self, item):
        try:
            return item.fn()
        except Exception:
            self.note(f"{item.label}: raised\n{traceback.format_exc()}")
            return Outcome(item.expected_checks, item.expected_checks)

    def note(self, text):
        if len(self.notes) < 5:
            self.notes.append(text)


def _report_outcome(wl, label, report):
    checks, failed = report.samples, len(report.failures)
    if checks == 0:
        wl.note(f"{label}: no checks ran")
        return Outcome(1, 1)
    if failed:
        wl.note(f"{label}: {failed} failures, first {report.failures[:1]}")
    return Outcome(checks, min(failed, checks))


def lee_membership(mods, seed):
    suites = mods["suites"]
    wl = Workload()

    def one(p, gamma):
        label = f"lee p={p} level={gamma}"

        def run():
            rng = random.Random(f"lee:{seed}:{p}:{gamma}")
            report = suites.lee_suite(
                p,
                gamma,
                rng,
                exhaustive_bound=LEE_EXHAUSTIVE_BOUND,
                sample_bound=LEE_SAMPLE_BOUND,
                sample_pairs=LEE_SAMPLE_PAIRS,
            )
            return _report_outcome(wl, label, report)

        return Item(label, run)

    wl.items = [one(p, g) for p in LEE_PRIMES for g in LEE_LEVELS]
    return wl


def sigma_completion(mods, seed):
    bf, limit = mods["basefields"], mods["limit"]
    rng = random.Random(f"sigma:{seed}")
    wl = Workload()

    def square_law(p, base, ext, rf):
        def run():
            s = limit.sigma_embed(ext.generator(), rf)
            sq, _ = limit.limit_arith("mul", s, s)
            ok = limit.limit_eq(sq, limit.from_field(base, 1 + p), SIGMA_DEPTH).equal
            if not ok:
                wl.note(f"p={p}: square of the embedded root")
            return Outcome(1, 0 if ok else 1)

        return Item(f"square law p={p}", run, query=False)

    def prefix(ext, rf):
        def run():
            got = limit.to_approximation(limit.sigma_embed(ext.generator(), rf), len(EXPECTED_PREFIX))
            ok = got.shift == 0 and got.p == 5 and tuple(got.digits) == tuple(EXPECTED_PREFIX)
            if not ok:
                wl.note(f"p=5 digit prefix: got {got}")
            return Outcome(1, 0 if ok else 1)

        return Item("digit prefix p=5", run, query=False)

    for p in SIGMA_PRIMES:
        base, ext = bf.PadicRationals(p), bf.QuadraticExtension(p)
        rf = limit.hensel_finder(ext, base)
        wl.items.append(square_law(p, base, ext, rf))
        for _ in range(SIGMA_PAIRS_PER_PRIME):
            x = ext.random_nonzero(rng, SIGMA_HEIGHT)
            y = ext.random_nonzero(rng, SIGMA_HEIGHT)
            wl.items.append(Item(f"pair p={p}", _sigma_pair(wl, limit, ext, rf, x, y), expected_checks=3))
        if p == 5:
            wl.items.append(prefix(ext, rf))
    return wl


def _sigma_pair(wl, limit, ext, rf, x, y):
    def run():
        embed, arith, eq = limit.sigma_embed, limit.limit_arith, limit.limit_eq
        failed = 0
        add_rhs, _ = arith("add", embed(x, rf), embed(y, rf))
        if not eq(embed(ext.add(x, y), rf), add_rhs, SIGMA_DEPTH).equal:
            failed += 1
            wl.note(f"additivity at {x}, {y}")
        mul_rhs, _ = arith("mul", embed(x, rf), embed(y, rf))
        if not eq(embed(ext.mul(x, y), rf), mul_rhs, SIGMA_DEPTH).equal:
            failed += 1
            wl.note(f"multiplicativity at {x}, {y}")
        if embed(x, rf).valuation() != ext.valuation(x):
            failed += 1
            wl.note(f"value preservation at {x}")
        return Outcome(3, failed)

    return run


def laws_cli(mods, seed):
    cli = mods["cli"]
    wl = Workload()
    # the first run of an invocation sets the bytes every later run repeats
    reference = {}

    def one(argv):
        key = " ".join(argv)

        def run():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(list(argv))
            text = out.getvalue()
            try:
                doc = json.loads(text)
                checks = sum(r["samples"] for r in doc["reports"])
                passed = doc["pass"] is True
            except (ValueError, KeyError, TypeError):
                checks, passed = 0, False
            same = reference.setdefault(key, text) == text
            if code != 0 or not passed or not same or checks == 0:
                wl.note(
                    f"{key}: exit {code}, pass {passed}, same bytes {same}, "
                    f"stderr {err.getvalue()[:200]!r}"
                )
                return Outcome(max(checks, 1), max(checks, 1))
            return Outcome(checks)

        return Item(key, run)

    rng = random.Random(f"laws:{seed}")
    for suite, fields in LAWS_SUITES:
        for fld in fields:
            argv = ("laws", "--suite", suite, "--seed", str(rng.randrange(2**31)))
            if fld is not None:
                argv += ("--field", fld)
            wl.items.append(one(argv))
    return wl


WORKLOADS = {
    "lee-membership": lee_membership,
    "sigma-completion": sigma_completion,
    "laws-cli": laws_cli,
}

MODULES = ("basefields", "cosets", "tower", "limit", "suites", "oag", "cli", "sampling")


def import_fresh():
    """Import hypertower from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "hypertower" or n.startswith("hypertower.")]:
        del sys.modules[name]
    importlib.import_module("hypertower")
    return {m: importlib.import_module(f"hypertower.{m}") for m in MODULES}
