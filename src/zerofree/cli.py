"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage, data or file
error, 3 search stopped by its node limit.
"""

from __future__ import annotations

import argparse
import contextlib
import random
import sys

from . import closedform
from .canonical import (
    ZeroEntryError,
    canonical_form,
    canonical_form_oracle,
    random_zerofree_matrix,
)
from .engine import (
    ClassQuery,
    IncompleteSearchError,
    TierGateError,
    enumerate_classes,
    max_beta_search,
    sequence_scan,
    verify_conjecture,
)
from .matrix import RegimeError, verify_prop0
from .textio import MatrixParseError, MatrixRecord, format_matrix_line, iter_matrix_lines

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3

_ORACLE_SEED = 424242


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zerofree",
        description=(
            "Classify unimodular zerofree integer matrices up to signed-"
            "permutation equivalence."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("canon", help="canonicalize matrices, one per line")
    p.add_argument("--input", help="file of matrix lines (default: stdin)")

    p = sub.add_parser("enumerate", help="list all classes for exact (n, alpha, beta)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta", type=int, required=True)
    p.add_argument("--positive-only", action="store_true")
    p.add_argument("--count-only", action="store_true")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--checkpoint", help="checkpoint file, appended after each work unit")
    p.add_argument("--resume", action="store_true", help="continue from --checkpoint")
    p.add_argument("--long-run", action="store_true")
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--format", choices=("text", "jsonl"), default="text")

    p = sub.add_parser("scan", help="class counts over an inclusive beta range")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    p.add_argument("--beta-min", type=int, required=True)
    p.add_argument("--beta-max", type=int, required=True)
    p.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--long-run", action="store_true")
    p.add_argument("--node-limit", type=int, default=None)

    p = sub.add_parser("maxbeta", help="largest inverse entry for max |entry| = alpha")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=int, required=True)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--zerofree", action="store_true", help="default mode")
    mode.add_argument("--unrestricted", action="store_true")
    p.add_argument("--best-effort", action="store_true")
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("--suite", choices=("prop0", "prop5", "conjectures", "oracle"), required=True)
    p.add_argument("--seed", type=int, default=_ORACLE_SEED, help="oracle suite RNG seed")
    p.add_argument("--samples", type=int, default=1000, help="oracle suite sample count")
    p.add_argument("--kmax", type=int, default=30, help="prop5 suite upper k")

    p = sub.add_parser("n2", help="2x2 diagonal counts: formula vs search engine")
    p.add_argument("--kmax", type=int, required=True)
    return parser


def _cmd_canon(args) -> int:
    # one line at a time, so memory stays flat however long the input is
    with open(args.input) if args.input else contextlib.nullcontext(sys.stdin) as lines:
        try:
            for _, m in iter_matrix_lines(lines, require_nonzero=True):
                print(format_matrix_line(canonical_form(m)))
        except (MatrixParseError, ZeroEntryError, RegimeError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return EXIT_OK


def _cmd_enumerate(args) -> int:
    query = ClassQuery(
        n=args.n,
        alpha=args.alpha,
        beta=args.beta,
        positive_only=args.positive_only,
        count_only=args.count_only,
        thread_budget=args.threads,
        node_limit=args.node_limit,
        long_run=args.long_run,
    )
    result = enumerate_classes(
        query, checkpoint_path=args.checkpoint, resume=args.resume
    )
    print(
        f"# n={args.n} alpha={args.alpha} beta={args.beta} "
        f"count={result.total_count} positive={result.positive_count}"
    )
    if not result.complete:
        print("# INCOMPLETE: node limit reached before the search finished")
        return EXIT_INCOMPLETE
    for cls in result.classes:
        if args.format == "jsonl":
            rec = MatrixRecord(
                n=args.n,
                alpha=cls.stats.alpha,
                beta=cls.stats.beta,
                positive=cls.stats.positive,
                entries=cls.rep.entries,
            )
            print(rec.to_json())
        else:
            print(format_matrix_line(cls.rep))
    return EXIT_OK


def _cmd_scan(args) -> int:
    rows = sequence_scan(
        args.n,
        args.alpha,
        (args.beta_min, args.beta_max),
        thread_budget=args.threads,
        node_limit=args.node_limit,
        long_run=args.long_run,
    )
    for beta, count, positive in rows:
        if args.format == "jsonl":
            print(f'{{"beta": {beta}, "count": {count}, "positive": {positive}}}')
        else:
            print(f"{beta},{count},{positive}")
    return EXIT_OK


def _cmd_maxbeta(args) -> int:
    mode = "unrestricted" if args.unrestricted else "zerofree"
    result = max_beta_search(
        args.n,
        args.alpha,
        mode,
        best_effort=args.best_effort,
        node_limit=args.node_limit,
        thread_budget=args.threads,
    )
    marker = "" if result.certified else " lower-bound-only"
    print(f"beta_max={result.beta_max} n={args.n} alpha={args.alpha} mode={mode}{marker}")
    print(format_matrix_line(result.witness))
    return EXIT_OK


def _cmd_n2(args) -> int:
    if args.kmax < 2:
        print("error: --kmax must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    status = EXIT_OK
    print("# k formula engine")
    for k in range(2, args.kmax + 1):
        formula = closedform.prop5_count(k)
        engine_count = enumerate_classes(ClassQuery(n=2, alpha=k, beta=k)).total_count
        flag = "" if formula == engine_count else "  MISMATCH"
        print(f"{k} {formula} {engine_count}{flag}")
        if formula != engine_count:
            status = EXIT_VERIFY_FAILED
    return status


def _verify_prop0() -> bool:
    ok = True
    for n in (2, 3, 4):
        report = verify_prop0(n)
        verdict = "OK" if report.all_divisible else "FAILED"
        ok &= report.all_divisible
        values = ",".join(str(v) for v in report.det_values)
        print(
            f"prop0 n={n}: {report.matrices_checked} sign matrices, "
            f"dets in {{{values}}}, all divisible by {report.modulus}: {verdict}"
        )
    return ok


def _verify_prop5(kmax: int) -> bool:
    ok = True
    for k in range(2, kmax + 1):
        labeled = closedform.prop5_enumerate(k)
        constructed = {canonical_form(m).entries for _, m in labeled}
        searched = {
            cls.rep.entries
            for cls in enumerate_classes(ClassQuery(n=2, alpha=k, beta=k)).classes
        }
        good = (
            len(labeled) == closedform.prop5_count(k)
            and len(constructed) == len(labeled)
            and constructed == searched
        )
        ok &= good
        print(
            f"n=2 diagonal k={k}: formula {closedform.prop5_count(k)}, "
            f"construction {len(constructed)}, search {len(searched)}: "
            f"{'OK' if good else 'FAILED'}"
        )
    return ok


def _verify_conjectures() -> bool:
    ok = True
    for cid in (1, 2, 3):
        report = verify_conjecture(cid)
        cases = "; ".join(f"({n},{a},{b})={c}" for n, a, b, c in report.cases)
        verdict = "confirmed" if report.confirmed else "REFUTED"
        ok &= report.confirmed
        print(f"conjecture {cid}: {verdict} [{cases}] nodes={report.nodes_explored}")
    return ok


def _verify_oracle(seed: int, samples: int) -> bool:
    ok = True
    for n in (2, 3, 4):
        rng = random.Random(seed + n)
        mismatches = 0
        for _ in range(samples):
            m = random_zerofree_matrix(n, rng)
            if canonical_form(m).entries != canonical_form_oracle(m).entries:
                mismatches += 1
        good = mismatches == 0
        ok &= good
        print(
            f"canonical oracle n={n}: {samples} random matrices, "
            f"{mismatches} mismatches: {'OK' if good else 'FAILED'}"
        )
    return ok


def _cmd_verify(args) -> int:
    # a suite with nothing to check must not report success
    if args.suite == "prop5" and args.kmax < 2:
        print("error: --kmax must be at least 2", file=sys.stderr)
        return EXIT_USAGE
    if args.suite == "oracle" and args.samples < 1:
        print("error: --samples must be at least 1", file=sys.stderr)
        return EXIT_USAGE
    if args.suite == "prop0":
        ok = _verify_prop0()
    elif args.suite == "prop5":
        ok = _verify_prop5(args.kmax)
    elif args.suite == "conjectures":
        ok = _verify_conjectures()
    else:
        ok = _verify_oracle(args.seed, args.samples)
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "canon": _cmd_canon,
        "enumerate": _cmd_enumerate,
        "scan": _cmd_scan,
        "maxbeta": _cmd_maxbeta,
        "verify": _cmd_verify,
        "n2": _cmd_n2,
    }
    try:
        return handlers[args.command](args)
    except (TierGateError, RegimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except IncompleteSearchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE


if __name__ == "__main__":
    sys.exit(main())
