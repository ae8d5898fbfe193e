"""Operator command line: run, eval, oracle, bench, report.

Exit codes: 0 success, 1 usage/config/input errors, 2 runtime failures
(oracle refusals, candidate failures, transport problems).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import shutil
import sys
from pathlib import Path

from .codec import decode
from .errors import ConfigError, CoevoError, OracleLimitError, ParseError
from .evaluator import Candidate, RunnerConfig, evaluate_candidate
from .instances import (
    INSTANCE_SUFFIXES,
    SIDECAR_NAME,
    TspInstance,
    format_number,
    load_benchmark,
    load_instance,
)
from .oracles import ensure_optima, exact_optimum
from .orchestrator import EvolutionRun, RunConfig, resume
from .seeds import SEEDS, seed_source

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coevo",
        description="Evolve heuristic programs and their mutation prompts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a configured evolution run")
    p_run.add_argument("--config", default=None,
                       help="flat key=value run config file (refused with --resume)")
    p_run.add_argument("--out", required=True, help="output directory for reports/checkpoints")
    p_run.add_argument("--seed", type=int, default=None, help="override rng seed")
    p_run.add_argument("--backend", choices=("mock", "live"), default=None)
    p_run.add_argument("--mock-script", default=None, help="override mock script path")
    p_run.add_argument("--resume", default=None, help="checkpoint file to resume from")

    p_eval = sub.add_parser("eval", help="score one heuristic on an instance set")
    p_eval.add_argument("--target", required=True,
                        help="seed heuristic name or candidate .py file")
    p_eval.add_argument("--instances", required=True, help="benchmark directory")
    p_eval.add_argument("--timeout", type=float, default=600.0)
    p_eval.add_argument("--workers", type=int, default=1)
    p_eval.add_argument("--tsp-limit", type=int, default=18)
    p_eval.add_argument("--bpp-limit", type=int, default=20)

    p_oracle = sub.add_parser("oracle", help="exact optimum for one instance file")
    p_oracle.add_argument("--instance", required=True, help=".tsp or .bpp instance file")
    p_oracle.add_argument("--out", default=None, help="witness file (solution document)")
    p_oracle.add_argument("--tsp-limit", type=int, default=18)
    p_oracle.add_argument("--bpp-limit", type=int, default=20)
    p_oracle.add_argument("--budget", type=float, default=None, help="seconds before refusal")

    p_bench = sub.add_parser("bench", help="build a benchmark dir with an optimum sidecar")
    p_bench.add_argument("--src", required=True, help="directory of raw instance files")
    p_bench.add_argument("--out", required=True, help="benchmark directory to create")
    p_bench.add_argument("--budget", type=float, default=600.0,
                         help="per-instance oracle budget in seconds")
    p_bench.add_argument("--tsp-limit", type=int, default=18)
    p_bench.add_argument("--bpp-limit", type=int, default=20)

    p_report = sub.add_parser("report", help="merge run reports into a comparison table")
    p_report.add_argument("reports", nargs="+", help="report.json files")
    p_report.add_argument("--out", default=None,
                          help="prefix for machine-readable export (.json and .csv)")
    return parser


def cmd_run(args) -> int:
    if args.resume:
        for flag in ("config", "seed", "backend", "mock_script"):
            if getattr(args, flag) is not None:
                raise ConfigError(f"--{flag.replace('_', '-')} cannot change a resumed run")
        report = resume(args.resume, out_dir=args.out)
        print(f"resumed run complete: best error {report.best_error:.2f}%")
        return EXIT_OK
    if not args.config:
        raise ConfigError("--config is required unless resuming from a checkpoint")
    config = RunConfig.from_file(args.config)
    if args.seed is not None:
        config = dataclasses.replace(config, rng_seed=args.seed)
    if args.backend is not None:
        config = dataclasses.replace(config, backend=args.backend)
    if args.mock_script is not None:
        config = dataclasses.replace(config, mock_script=args.mock_script)
    report = EvolutionRun(config, out_dir=args.out).run()
    print(
        f"run complete: best {report.best_id} at {report.best_error:.2f}% mean relative error"
        f" ({report.llm_calls} llm calls); report in {args.out}/report.json"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    cfg = RunnerConfig(timeout_s=args.timeout, workers=args.workers)
    target = args.target
    if target in SEEDS:
        source = seed_source(target)
        label = target
    else:
        path = Path(target)
        if not path.is_file():
            raise ConfigError(f"{target!r} is neither a seed heuristic nor a candidate file")
        source = path.read_text()
        label = path.name
    instance_set = load_benchmark(args.instances)
    instance_set = ensure_optima(instance_set, tsp_limit=args.tsp_limit,
                                 bpp_limit=args.bpp_limit)
    candidate = Candidate(id=f"eval-{label}", source=source)
    report = evaluate_candidate(candidate, instance_set, cfg)

    width = max(len(r.instance_name) for r in report.records)
    print(f"{'instance'.ljust(width)}  {'objective':>12}  {'error %':>8}")
    for r in report.records:
        if r.valid:
            print(f"{r.instance_name.ljust(width)}  {r.objective:>12g}  {r.rel_error:>8.2f}")
        else:
            print(f"{r.instance_name.ljust(width)}  {'-':>12}  {r.failure_class}")
    if report.mean_relative_error is None:
        print(f"evaluation failed: {report.failure_class}: {report.diagnostic}")
        return EXIT_RUNTIME
    print(f"{'mean'.ljust(width)}  {'':>12}  {report.mean_relative_error:>8.2f}")
    return EXIT_OK


def cmd_oracle(args) -> int:
    path = Path(args.instance)
    if not path.is_file():
        raise ConfigError(f"no such instance file: {path}")
    instance = load_instance(path)
    result = exact_optimum(instance, args.tsp_limit, args.bpp_limit, args.budget)
    if isinstance(instance, TspInstance):
        witness_doc = {"tour": list(result.witness.order)}
    else:
        witness_doc = {"bins": [list(b) for b in result.witness.bins]}
    print(f"{instance.name}: optimal value {result.optimal_value:g} "
          f"({result.expanded_states} states expanded)")
    if args.out:
        Path(args.out).write_text(json.dumps(witness_doc) + "\n")
        print(f"witness written to {args.out}")
    return EXIT_OK


def cmd_bench(args) -> int:
    src = Path(args.src)
    out = Path(args.out)
    if not src.is_dir():
        raise ConfigError(f"no such directory: {src}")
    files = sorted(p for p in src.iterdir() if p.suffix in INSTANCE_SUFFIXES)
    if not files:
        raise ConfigError(f"no .tsp or .bpp files in {src}")
    out.mkdir(parents=True, exist_ok=True)
    kept: list[tuple[str, float]] = []
    excluded: list[tuple[str, str]] = []
    for path in files:
        try:
            instance = load_instance(path)
        except ParseError as exc:
            excluded.append((path.name, f"parse error: {exc}"))
            continue
        try:
            result = exact_optimum(instance, args.tsp_limit, args.bpp_limit, args.budget)
        except OracleLimitError as exc:
            excluded.append((path.name, str(exc)))
            continue
        shutil.copyfile(path, out / path.name)
        kept.append((instance.name, result.optimal_value))
    if not kept:
        raise ConfigError("no solvable instances; benchmark would be empty")
    sidecar_lines = [f"{name} {format_number(value)}" for name, value in sorted(kept)]
    (out / SIDECAR_NAME).write_text("\n".join(sidecar_lines) + "\n")
    print(f"kept {len(kept)} instances, excluded {len(excluded)}")
    for name, reason in excluded:
        print(f"excluded {name}: {reason}")
    return EXIT_OK


def _report_rows(paths: list[str]) -> list[dict]:
    rows = []
    for path in paths:
        try:
            doc = json.loads(Path(path).read_text())
            dataset = doc["dataset"]
            base_errors = decode(dict[str, float], doc["base_errors"], "base_errors")
            best_error = decode(float, doc["best"]["mean_relative_error"],
                                "best/mean_relative_error")
        except (OSError, ValueError, KeyError, TypeError, ConfigError):
            raise ConfigError(f"malformed report file: {path}") from None
        for seed_name in sorted(base_errors):
            rows.append(
                {
                    "dataset": dataset,
                    "heuristic": seed_name,
                    "base_error_pct": round(base_errors[seed_name], 2),
                    "evolved_error_pct": round(best_error, 2),
                }
            )
    return rows


def cmd_report(args) -> int:
    rows = _report_rows(args.reports)
    headers = ("dataset", "heuristic", "base_error_pct", "evolved_error_pct")
    widths = {
        h: max(len(h), *(len(f"{row[h]:.2f}" if isinstance(row[h], float) else str(row[h]))
                         for row in rows))
        for h in headers
    }

    def cell(row, h):
        v = row[h]
        return f"{v:.2f}" if isinstance(v, float) else str(v)

    print("  ".join(h.ljust(widths[h]) for h in headers))
    for row in rows:
        cells = []
        for h in headers:
            text = cell(row, h)
            cells.append(text.rjust(widths[h]) if h.endswith("pct") else text.ljust(widths[h]))
        print("  ".join(cells))
    if args.out:
        Path(args.out + ".json").write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n")
        with open(args.out + ".csv", "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=headers)
            writer.writeheader()
            writer.writerows(rows)
        print(f"exported {args.out}.json and {args.out}.csv")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    handlers = {
        "run": cmd_run,
        "eval": cmd_eval,
        "oracle": cmd_oracle,
        "bench": cmd_bench,
        "report": cmd_report,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except UnicodeDecodeError as exc:  # an input file read as text
        print(f"error: an input file is not UTF-8 text ({exc})", file=sys.stderr)
        return EXIT_USAGE
    except CoevoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
