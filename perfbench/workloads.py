"""The benchmark's workloads: seeded inputs, the timed public call, output checks.

Each workload is one fixed call (or pair of calls) into the public API with
one worker.  `solve` is the only timed part.  `check` compares a result with
references that do not come from the search: the tabulated values in
tests/known_values.py, exact classification through the adjugate inverse,
the brute-force canonical-form oracle for n <= 4, and fixed-point and
orbit-invariance tests for larger n.  Random choices (inputs and the group
elements used by the checks) come from the seed through this file's own
code, so a seed names the same inputs whatever the program under test does.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import io
import math
import random
from pathlib import Path

from zerofree import (
    ClassQuery,
    IntMatrix,
    adjugate_inverse,
    canonical_form,
    canonical_form_oracle,
    classify,
    cli,
    det,
    enumerate_classes,
    max_beta_search,
)

ROOT = Path(__file__).resolve().parent.parent


@functools.cache
def known_values():
    """The test suite's tabulated reference values, tests/known_values.py."""
    path = ROOT / "tests" / "known_values.py"
    spec = importlib.util.spec_from_file_location("perfbench_known_values", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module

# First work units of the (5,3,3) search that slice_5x5 runs.  Slices are
# whole work units, never node limits: a truncated node count depends on
# the worker count.
SLICE_UNITS = 2

CANON_RANDOM = 2500
CANON_SYMMETRIC = 500
ORACLE_SAMPLE = 100
ORBIT_SAMPLE = 30
REP_ORACLE_SAMPLE = 20


class Checks:
    """Tally of output checks: every check is one attempt that passes or fails."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


class Workload:
    """One workload.  The constructor builds the inputs from (seed, workdir);
    `prepare` runs untimed before every pass; `solve` is the timed pass;
    `check` tallies output checks on one pass's result; `fingerprint` lets
    later passes be compared with the checked first one; `exact_counts`
    reads the engine's exact counts off a result."""

    name: str

    def prepare(self) -> None:
        pass

    def solve(self):
        raise NotImplementedError

    def fingerprint(self, out):
        raise NotImplementedError

    def check(self, out, checks: Checks) -> None:
        raise NotImplementedError

    def exact_counts(self, out) -> dict:
        raise NotImplementedError


def structural_key(entries) -> tuple[int, ...]:
    """Row-major key in the order 0 < 1 < 2 < ... < -1 < -2 < ..."""
    return tuple(x if x >= 0 else (1 << 40) - x for x in entries)


def signed_image(entries, n: int, rng: random.Random) -> tuple[int, ...]:
    """Image of a row-major matrix under a random signed row and column permutation."""
    rows = list(range(n))
    cols = list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rs = [rng.choice((1, -1)) for _ in range(n)]
    cs = [rng.choice((1, -1)) for _ in range(n)]
    return tuple(
        rs[i] * cs[j] * entries[rows[i] * n + cols[j]] for i in range(n) for j in range(n)
    )


def _check_rep(checks: Checks, cls, alpha: int, beta: int, rng: random.Random) -> None:
    """A representative is unimodular and zerofree with exact (alpha, beta),
    and it is its own canonical form, also when reached from another orbit member."""
    rep = cls.rep
    label = " ".join(map(str, rep.entries))
    stats = classify(rep)
    checks.expect(
        stats is not None and stats == cls.stats and (stats.alpha, stats.beta) == (alpha, beta),
        f"class stats of {label}",
    )
    checks.expect(canonical_form(rep) == rep, f"fixed point {label}")
    image = IntMatrix(rep.n, signed_image(rep.entries, rep.n, rng))
    checks.expect(canonical_form(image) == rep, f"orbit invariance {label}")


def _check_class_list(checks: Checks, result, alpha: int, beta: int, rng) -> None:
    keys = [structural_key(c.rep.entries) for c in result.classes]
    checks.expect(all(a < b for a, b in zip(keys, keys[1:])), "classes strictly sorted")
    checks.expect(result.total_count == len(result.classes), "total count")
    checks.expect(
        result.positive_count == sum(c.stats.positive for c in result.classes),
        "positive count",
    )
    for cls in result.classes:
        _check_rep(checks, cls, alpha, beta, rng)


def _class_list(result):
    return (result.total_count, result.positive_count, result.complete, result.classes)


class MaxBeta4x4(Workload):
    name = "maxbeta_4x4"

    def __init__(self, seed: int, workdir: Path):
        self.n, self.alpha = 4, 2

    def solve(self):
        return max_beta_search(self.n, self.alpha, "unrestricted", thread_budget=1)

    def fingerprint(self, out):
        return (out.beta_max, out.certified, out.witness, out.nodes_explored)

    def check(self, out, checks: Checks) -> None:
        checks.expect(out.beta_max == known_values().BETA_UNRESTRICTED[self.n], "beta_max")
        checks.expect(out.certified, "certified")
        w = out.witness
        checks.expect(det(w) in (1, -1), "witness unimodular")
        checks.expect(w.max_abs() == self.alpha, "witness alpha")
        inv = adjugate_inverse(w)
        checks.expect(w @ inv == IntMatrix.identity(self.n), "witness inverse exact")
        checks.expect(inv.max_abs() == out.beta_max, "witness beta")

    def exact_counts(self, out) -> dict:
        return {"engine.nodes": out.nodes_explored, "engine.classes": 0, "engine.positive_classes": 0}


class Slice5x5(Workload):
    name = "slice_5x5"

    def __init__(self, seed: int, workdir: Path):
        self.query = ClassQuery(5, 3, 3, thread_budget=1, long_run=True)
        self.seed = seed

    def solve(self):
        return enumerate_classes(self.query, _stop_after_units=SLICE_UNITS)

    def fingerprint(self, out):
        return _class_list(out) + (out.nodes_explored,)

    def check(self, out, checks: Checks) -> None:
        total, positive = known_values().KNOWN_COUNTS[(5, 3, 3)]
        checks.expect(out.total_count <= total, "slice count within the full table")
        checks.expect(out.positive_count <= positive, "slice positives within the full table")
        _check_class_list(checks, out, 3, 3, random.Random(self.seed))

    def exact_counts(self, out) -> dict:
        return {
            "engine.nodes": out.nodes_explored,
            "engine.classes": out.total_count,
            "engine.positive_classes": out.positive_count,
        }


class Checkpoint4x4(Workload):
    name = "checkpoint_4x4"

    def __init__(self, seed: int, workdir: Path):
        self.query = ClassQuery(4, 3, 3, thread_budget=1)
        self.path = workdir / "checkpoint_4x4.json"
        self.seed = seed

    def prepare(self) -> None:
        """Every pass starts from no checkpoint file."""
        self.path.unlink(missing_ok=True)

    def solve(self):
        first = enumerate_classes(self.query, checkpoint_path=str(self.path))
        resumed = enumerate_classes(self.query, checkpoint_path=str(self.path), resume=True)
        return first, resumed

    def fingerprint(self, out):
        first, resumed = out
        return (_class_list(first), _class_list(resumed), first.nodes_explored, resumed.nodes_explored)

    def check(self, out, checks: Checks) -> None:
        first, resumed = out
        known = known_values().KNOWN_COUNTS[(4, 3, 3)]
        for label, result in (("first", first), ("resumed", resumed)):
            checks.expect(result.complete, f"{label} call complete")
            checks.expect((result.total_count, result.positive_count) == known, f"{label} counts")
        checks.expect(_class_list(resumed) == _class_list(first), "resume gives the same classes")
        rng = random.Random(self.seed)
        _check_class_list(checks, first, 3, 3, rng)
        for cls in rng.sample(first.classes, min(REP_ORACLE_SAMPLE, len(first.classes))):
            checks.expect(canonical_form_oracle(cls.rep) == cls.rep, f"oracle {cls.rep.entries}")

    def exact_counts(self, out) -> dict:
        first, _ = out
        return {
            "engine.nodes": first.nodes_explored,
            "engine.classes": first.total_count,
            "engine.positive_classes": first.positive_count,
        }


def _circulant(n: int, offsets) -> tuple[int, ...]:
    return tuple(2 if (j - i) % n in offsets else 1 for i in range(n) for j in range(n))


def _blocks(n: int) -> tuple[int, ...]:
    h = n // 2
    return tuple(2 if (i < h) == (j < h) else 1 for i in range(n) for j in range(n))


# Highly symmetric 1/2 patterns: their large automorphism groups keep many
# arrangements tied at every level of the canonical search.
SYMMETRIC_PATTERNS = tuple(
    (n, pattern)
    for n in range(3, 8)
    for pattern in (
        _circulant(n, ()),
        _circulant(n, (0,)),
        _circulant(n, (0, 1)),
        _circulant(n, (0, 1, 3)),
        _blocks(n),
    )
)


def canon_input(seed: int) -> str:
    """The canon_stream input text for one seed: random zerofree matrices
    with n = 3..7 and entries up to 2 or 5, plus signed-permutation images
    of the symmetric patterns, shuffled together."""
    rng = random.Random(seed)
    mats = []
    for k in range(CANON_RANDOM):
        # a fixed mix of sizes and entry ranges; only the entries vary by seed
        n, top = 3 + k % 5, (2, 5)[k // 5 % 2]
        mats.append(tuple(rng.choice((1, -1)) * rng.randint(1, top) for _ in range(n * n)))
    for k in range(CANON_SYMMETRIC):
        n, pattern = SYMMETRIC_PATTERNS[k % len(SYMMETRIC_PATTERNS)]
        mats.append(signed_image(pattern, n, rng))
    rng.shuffle(mats)
    return "".join(" ".join(map(str, m)) + "\n" for m in mats)


def _parse(line: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in line.split())


class CanonStream(Workload):
    name = "canon_stream"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.path = workdir / f"canon-{seed}.txt"
        self.path.write_text(canon_input(seed))

    def solve(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = cli.main(["canon", "--input", str(self.path)])
        return status, out.getvalue()

    def fingerprint(self, out):
        return out

    def check(self, out, checks: Checks) -> None:
        status, text = out
        checks.expect(status == 0, "exit status")
        inputs = [_parse(line) for line in self.path.read_text().splitlines()]
        outputs = [_parse(line) for line in text.splitlines()]
        checks.expect(len(outputs) == len(inputs), "one output line per input")
        pairs = []
        for src, got in zip(inputs, outputs):
            # invariants of the signed-permutation action, and minimality
            same = sorted(map(abs, got)) == sorted(map(abs, src))
            checks.expect(same, f"entry multiset of {src}")
            if same:
                n = math.isqrt(len(src))
                checks.expect(
                    abs(det(IntMatrix(n, got))) == abs(det(IntMatrix(n, src))), f"|det| of {src}"
                )
                checks.expect(structural_key(got) <= structural_key(src), f"minimality of {src}")
                rows = [got[i * n : (i + 1) * n] for i in range(n)]
                # sign flips and a column sort turn any row into its sorted
                # magnitudes, and swapping rows is a group move
                best_first = min(sorted(map(abs, src[i * n : (i + 1) * n])) for i in range(n))
                checks.expect(list(rows[0]) == best_first, f"first row of {src}")
                keys = [structural_key(r) for r in rows]
                checks.expect(keys == sorted(keys), f"row order of {src}")
                pairs.append((n, src, got))
        rng = random.Random(self.seed)
        small = [p for p in pairs if p[0] <= 4]
        for n, src, got in rng.sample(small, min(ORACLE_SAMPLE, len(small))):
            checks.expect(canonical_form_oracle(IntMatrix(n, src)).entries == got, f"oracle {src}")
        large = [p for p in pairs if p[0] >= 5]
        for n, src, got in rng.sample(large, min(ORBIT_SAMPLE, len(large))):
            checks.expect(canonical_form(IntMatrix(n, got)).entries == got, f"fixed point {src}")
            image = IntMatrix(n, signed_image(src, n, rng))
            checks.expect(canonical_form(image).entries == got, f"orbit invariance {src}")

    def exact_counts(self, out) -> dict:
        return {"engine.nodes": 0, "engine.classes": 0, "engine.positive_classes": 0}


WORKLOADS = {w.name: w for w in (MaxBeta4x4, Slice5x5, Checkpoint4x4, CanonStream)}
