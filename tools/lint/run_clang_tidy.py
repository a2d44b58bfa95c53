#!/usr/bin/env python3
"""Incremental clang-tidy runner (curated profile in .clang-tidy,
warnings-as-errors) over every translation unit in the compilation database
that lives under src/ tools/ bench/ or tests/.

A dependency-free replacement for LLVM's run-clang-tidy wrapper, extended
with a per-TU result cache that makes the expensive `clang-analyzer-*`
families affordable in CI: a cold run pays once, every warm run re-analyzes
only the TUs whose *inputs* changed.

Cache design. Each TU's result is stored content-addressed under
--cache-dir, keyed by a SHA-256 over everything that can change the
diagnostics:

  * the cache schema version (bump CACHE_SCHEMA to invalidate the world),
  * `clang-tidy --version` (system headers change with the toolchain),
  * the .clang-tidy configuration file at the source root,
  * the TU's compile command from compile_commands.json,
  * the TU's own bytes, and
  * the bytes of every transitively-included project header (resolved
    against the compile command's -I/-isystem dirs and the includer's own
    directory; headers outside --source-root are covered by the version
    component instead of being hashed).

Editing a header therefore re-keys exactly the TUs that include it; an
untouched tree is a 100% cache hit. The cache directory is safe to persist
across CI runs (actions/cache) — entries are immutable and self-describing,
and a small mtime-based GC keeps the directory bounded.

Shards: TUs are analyzed by a process pool sized to the core count
(--jobs 0). A per-TU timing report (--timing-report) records duration,
cache hit/miss and exit code for every TU, plus aggregate hit ratio and
wall time — CI uploads it as an artifact so the timing budget stays
observable. --warm-budget-seconds fails the run when a *warm* run (hit
ratio >= 0.5) exceeds the budget, keeping the "clang-analyzer needs a CI
timing budget" concern enforced rather than aspirational.

Usage:
  tools/lint/run_clang_tidy.py --build-dir build [--clang-tidy clang-tidy]
      [--source-root .] [--jobs N] [--report out.txt]
      [--cache-dir DIR] [--no-cache] [--timing-report out.json]
      [--warm-budget-seconds N]

Exit status: 0 when clang-tidy is clean on every file (and the budget, if
given, holds), 1 otherwise.
"""

from __future__ import annotations

import argparse
import hashlib
import multiprocessing
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import lint_cache  # noqa: E402

LINT_DIRS = ("src", "tools", "bench", "tests")

# Bump to invalidate every cache entry (e.g. when the runner's notion of a
# TU's inputs changes).
CACHE_SCHEMA = "2"


def tidy_version(clang_tidy: str) -> str:
    try:
        proc = subprocess.run([clang_tidy, "--version"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        return proc.stdout.strip()
    except OSError:
        return "unavailable"


def cache_key(version: str, config: bytes, command: str,
              scanner: lint_cache.DependencyScanner, tu: Path, include_dirs) -> str:
    h = hashlib.sha256()
    for part in (CACHE_SCHEMA, version, command):
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    h.update(config)
    h.update(b"\0")
    h.update(scanner.read(tu))
    for dep in scanner.closure(tu, include_dirs):
        h.update(dep.as_posix().encode("utf-8"))
        h.update(b"\0")
        h.update(scanner.read(dep))
    return h.hexdigest()


def cache_load(cache_dir: Path, key: str):
    doc = lint_cache.load_entry(cache_dir, key)
    try:
        return int(doc["exit"]), str(doc["output"])
    except (TypeError, ValueError, KeyError):
        return None


def tidy_one(task):
    """Worker: analyze one TU unless its key is already cached."""
    clang_tidy, build_dir, path, key, cache_dir = task
    start = time.monotonic()
    if cache_dir is not None:
        hit = cache_load(cache_dir, key)
        if hit is not None:
            code, output = hit
            return path, code, output, time.monotonic() - start, True
    try:
        proc = subprocess.run(
            [clang_tidy, "-p", build_dir, "--warnings-as-errors=*", "--quiet", path],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        code, output = proc.returncode, proc.stdout
    except FileNotFoundError:
        return (path, 127, f"run_clang_tidy: {clang_tidy}: no such executable\n",
                time.monotonic() - start, False)
    if cache_dir is not None:
        lint_cache.store_entry(cache_dir, key,
                               {"file": path, "exit": code, "output": output})
    return path, code, output, time.monotonic() - start, False


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--build-dir", required=True,
                        help="build tree containing compile_commands.json")
    parser.add_argument("--clang-tidy", default="clang-tidy")
    parser.add_argument("--source-root", default=".")
    parser.add_argument("--jobs", type=int, default=0, help="0 = one per CPU")
    parser.add_argument("--report", help="write the aggregated clang-tidy output here")
    parser.add_argument("--cache-dir",
                        help="per-TU result cache (default: BUILD_DIR/tidy-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="analyze every TU regardless of cache state")
    parser.add_argument("--timing-report",
                        help="write a per-TU timing/cache JSON artifact here")
    parser.add_argument("--warm-budget-seconds", type=float, default=0,
                        help="fail a warm run (cache hit ratio >= 0.5) whose "
                             "wall time exceeds this many seconds (0 = off)")
    args = parser.parse_args(argv)

    started = time.monotonic()
    build_dir = Path(args.build_dir).resolve()
    db_path = build_dir / "compile_commands.json"
    if not db_path.is_file():
        print(f"run_clang_tidy: {db_path} not found; configure with "
              "CMAKE_EXPORT_COMPILE_COMMANDS=ON first", file=sys.stderr)
        return 1
    root = Path(args.source_root).resolve()

    tus = lint_cache.load_database(db_path, root, LINT_DIRS)
    if not tus:
        print("run_clang_tidy: no files under "
              f"{'/'.join(LINT_DIRS)} in the compilation database", file=sys.stderr)
        return 1

    cache_dir = None
    if not args.no_cache:
        cache_dir = Path(args.cache_dir) if args.cache_dir else build_dir / "tidy-cache"
        cache_dir.mkdir(parents=True, exist_ok=True)

    version = tidy_version(args.clang_tidy)
    config_path = root / ".clang-tidy"
    config = config_path.read_bytes() if config_path.is_file() else b""
    scanner = lint_cache.DependencyScanner(root)

    tasks = []
    for path, directory, command in tus:
        key = cache_key(version, config, command, scanner, path,
                        lint_cache.include_dirs_of(command, directory))
        tasks.append((args.clang_tidy, str(build_dir), str(path), key, cache_dir))

    jobs = args.jobs if args.jobs > 0 else (multiprocessing.cpu_count() or 1)
    failures = 0
    hits = 0
    chunks = []
    timings = []
    with multiprocessing.Pool(processes=min(jobs, len(tasks))) as pool:
        for path, code, output, duration, cached in pool.imap_unordered(tidy_one, tasks):
            if code != 0:
                failures += 1
                sys.stdout.write(output)
            hits += cached
            timings.append({"file": path, "exit": code, "cached": cached,
                            "duration_seconds": round(duration, 4)})
            chunks.append(f"==> {path} (exit {code}{', cached' if cached else ''})\n"
                          f"{output}")
    if cache_dir is not None:
        lint_cache.gc_entries(cache_dir)
    if args.report:
        Path(args.report).write_text("".join(chunks), encoding="utf-8")

    wall = time.monotonic() - started
    hit_ratio = hits / len(tasks)
    over_budget = lint_cache.over_warm_budget(args.warm_budget_seconds, hits,
                                              len(tasks), wall)
    if args.timing_report:
        lint_cache.write_timing_report(args.timing_report, lint_cache.timing_report(
            "run_clang_tidy", wall, cache_dir, hits, timings, jobs=jobs,
            warm_budget_seconds=args.warm_budget_seconds or None,
            over_budget=over_budget))

    status = (f"run_clang_tidy: {len(tasks)} files, {failures} with findings, "
              f"{hits} cached ({hit_ratio:.0%}), {wall:.1f}s wall")
    print(status, file=sys.stderr if failures else sys.stdout)
    if over_budget:
        print(f"run_clang_tidy: warm run exceeded the {args.warm_budget_seconds:.0f}s "
              "budget — the clang-analyzer profile has outgrown its CI allowance; "
              "trim checks or raise the budget deliberately", file=sys.stderr)
        return 1
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
