#!/usr/bin/env python3
"""Shared plumbing for every lint tier: one implementation of each job the
tools have in common.

  - Dependency scanning (run_clang_tidy, emsim_analyze): `load_database`
    reads the compilation database, `include_dirs_of` pulls a compile
    command's -I/-isystem dirs, and `DependencyScanner` resolves a TU's
    transitive project-header closure. Each per-TU tool folds that closure
    into its own cache key: raw bytes for clang-tidy, comment-stripped
    tokens for the analyzer.
  - The result cache: one JSON file per entry under the cache dir, named by
    its key, written atomically (concurrent writers may race on one key),
    GC'd oldest-first once the dir outgrows CACHE_MAX_ENTRIES.
  - The --timing-report JSON, so every tier reports wall time and cache
    hit ratio the same way for $GITHUB_STEP_SUMMARY (timing_summary.py).

`FileCache` is the per-file cache of the single-file tiers (emsim_lint,
include_hygiene). Its key is a SHA-256 over:
  - the tool's own source bytes (any rule edit invalidates everything),
  - an optional environment digest (include_hygiene keys the global
    header-exports world in, so a header edit invalidates all dependents
    while .cc edits invalidate only themselves),
  - the file's path and raw bytes."""

from __future__ import annotations

import hashlib
import json
import os
import re
import time
from pathlib import Path

CACHE_SCHEMA = "1"
CACHE_MAX_ENTRIES = 8192

INCLUDE_RE = re.compile(r'^\s*#\s*include\s+("([^"]+)"|<([^>]+)>)', re.MULTILINE)
INCLUDE_DIR_RE = re.compile(r"(?:^|\s)-(?:I|isystem)\s*(\S+)")


# --- Dependency scanning -----------------------------------------------------

class DependencyScanner:
    """Resolves the transitive project-header closure of a TU by scanning
    #include directives. File bytes and header dep-sets are memoized, so
    shared headers are read and parsed once per run, not once per includer."""

    def __init__(self, root: Path):
        self.root = root
        self._direct: dict[Path, list] = {}   # file -> [(spec, is_quote)]
        self._bytes: dict[Path, bytes] = {}

    def read(self, path: Path) -> bytes:
        data = self._bytes.get(path)
        if data is None:
            try:
                data = path.read_bytes()
            except OSError:
                data = b""
            self._bytes[path] = data
        return data

    def text(self, path: Path) -> str:
        return self.read(path).decode("utf-8", "replace")

    def _direct_includes(self, path: Path):
        cached = self._direct.get(path)
        if cached is None:
            cached = []
            for m in INCLUDE_RE.finditer(self.text(path)):
                if m.group(2) is not None:
                    cached.append((m.group(2), True))
                else:
                    cached.append((m.group(3), False))
            self._direct[path] = cached
        return cached

    def _resolve(self, spec: str, is_quote: bool, includer: Path, include_dirs):
        bases = ([includer.parent] if is_quote else []) + include_dirs
        for base in bases:
            candidate = base / spec
            if candidate.is_file():
                candidate = candidate.resolve()
                try:
                    candidate.relative_to(self.root)
                except ValueError:
                    return None  # outside the tree: toolchain header
                return candidate
        return None

    def closure(self, tu: Path, include_dirs) -> list[Path]:
        """Every project file the TU transitively includes (excluding the TU
        itself), sorted for stable hashing."""
        seen: set[Path] = set()
        stack = [tu]
        while stack:
            current = stack.pop()
            for spec, is_quote in self._direct_includes(current):
                target = self._resolve(spec, is_quote, current, include_dirs)
                if target is not None and target not in seen and target != tu:
                    seen.add(target)
                    stack.append(target)
        return sorted(seen)


def include_dirs_of(command: str, directory: Path):
    dirs = []
    for m in INCLUDE_DIR_RE.finditer(command):
        raw = m.group(1).strip('"')
        path = Path(raw)
        if not path.is_absolute():
            path = directory / path
        dirs.append(path)
    return dirs


def load_database(db_path: Path, root: Path, lint_dirs):
    """[(abs file, directory, command)] for every TU under `lint_dirs`,
    deduplicated and sorted by path."""
    tus = []
    for entry in json.loads(db_path.read_text(encoding="utf-8")):
        path = Path(entry["file"])
        if not path.is_absolute():
            path = Path(entry["directory"]) / path
        path = path.resolve()
        try:
            rel = path.relative_to(root)
        except ValueError:
            continue
        if not (rel.parts and rel.parts[0] in lint_dirs):
            continue
        command = entry.get("command")
        if command is None:
            command = " ".join(entry.get("arguments", []))
        tus.append((path, Path(entry["directory"]), command))
    unique = {str(path): (path, directory, command)
              for path, directory, command in tus}
    return [unique[key] for key in sorted(unique)]


# --- Content-addressed JSON entries ------------------------------------------

def load_entry(cache_dir: Path, key: str):
    """The cached document for `key`, or None on a miss or a torn entry."""
    try:
        return json.loads((cache_dir / f"{key}.json").read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None


def store_entry(cache_dir: Path, key: str, doc):
    entry = cache_dir / f"{key}.json"
    tmp = entry.with_name(f"{entry.name}.tmp{os.getpid()}")
    tmp.write_text(json.dumps(doc), encoding="utf-8")
    tmp.replace(entry)  # atomic: concurrent shards may race on the same key


def gc_entries(cache_dir: Path):
    """Drops the oldest entries once the dir outgrows CACHE_MAX_ENTRIES."""
    entries = sorted(cache_dir.glob("*.json"), key=lambda p: p.stat().st_mtime)
    for stale in entries[:-CACHE_MAX_ENTRIES]:
        try:
            stale.unlink()
        except OSError:
            pass


# --- Timing report -----------------------------------------------------------

def timing_report(tool: str, wall_seconds: float, cache_dir, hits: int,
                  files: list, **extra) -> dict:
    """The --timing-report document: wall time, cache hit ratio, any
    tool-specific fields, and one {file, cached, duration_seconds, ...}
    entry per analyzed unit, sorted by file."""
    misses = len(files) - hits
    return {
        "tool": tool,
        "version": 1,
        "wall_seconds": round(wall_seconds, 3),
        "cache": {
            "enabled": cache_dir is not None,
            "dir": str(cache_dir) if cache_dir is not None else None,
            "hits": hits,
            "misses": misses,
            "hit_ratio": round(hits / len(files), 4) if files else 0.0,
        },
        **extra,
        "files": sorted(files, key=lambda t: t["file"]),
    }


def over_warm_budget(budget_seconds: float, hits: int, total: int,
                     wall_seconds: float) -> bool:
    """True when a warm run (cache hit ratio >= 0.5) exceeds a nonzero
    --warm-budget-seconds. Cold runs are exempt however slow they are."""
    return (budget_seconds > 0 and total > 0 and hits / total >= 0.5
            and wall_seconds > budget_seconds)


def write_timing_report(path, payload: dict):
    Path(path).write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


def print_slowest(files: list, count: int = 5):
    for entry in sorted(files, key=lambda t: -t["duration_seconds"])[:count]:
        print(f"  {entry['duration_seconds']:7.3f}s "
              f"{'hit ' if entry['cached'] else 'miss'} {entry['file']}")


# --- Per-file cache for the single-file tiers --------------------------------

def digest_paths(*paths) -> str:
    """Digest of the tool's own sources: rule changes invalidate the cache."""
    h = hashlib.sha256()
    for path in paths:
        try:
            h.update(Path(path).read_bytes())
        except OSError:
            h.update(b"<missing>")
        h.update(b"\0")
    return h.hexdigest()


class FileCache:
    def __init__(self, cache_dir, tool_digest: str, env_digest: str = ""):
        self.dir = Path(cache_dir) if cache_dir else None
        self.prefix = hashlib.sha256(
            f"{CACHE_SCHEMA}\0{tool_digest}\0{env_digest}".encode()
        ).hexdigest()[:16]
        self.hits = 0
        self.timings = []
        self._started = time.monotonic()
        if self.dir is not None:
            self.dir.mkdir(parents=True, exist_ok=True)

    def _key(self, relpath: str, text: str) -> str:
        h = hashlib.sha256()
        h.update(self.prefix.encode())
        h.update(relpath.encode("utf-8", "replace"))
        h.update(b"\0")
        h.update(text.encode("utf-8", "replace"))
        return h.hexdigest()

    def get(self, relpath: str, text: str):
        if self.dir is None:
            return None
        return load_entry(self.dir, self._key(relpath, text))

    def put(self, relpath: str, text: str, value):
        if self.dir is not None:
            store_entry(self.dir, self._key(relpath, text), value)

    def record(self, relpath: str, cached: bool, seconds: float):
        self.hits += cached
        self.timings.append({"file": relpath, "cached": cached,
                             "duration_seconds": round(seconds, 4)})

    def gc(self):
        if self.dir is not None:
            gc_entries(self.dir)

    def stats(self, tool: str) -> dict:
        return timing_report(tool, time.monotonic() - self._started, self.dir,
                             self.hits, self.timings)


def add_cache_args(parser, tool: str):
    parser.add_argument("--cache-dir",
                        help="per-file result cache (default: "
                             f"ROOT/build/{tool}-cache)")
    parser.add_argument("--no-cache", action="store_true",
                        help="ignore and do not update the cache")
    parser.add_argument("--stats", action="store_true",
                        help="print cache/timing statistics")
    parser.add_argument("--timing-report",
                        help="write a timing/cache JSON artifact here")


def resolve_cache_dir(args, root: Path, tool: str):
    if args.no_cache:
        return None
    if args.cache_dir:
        return Path(args.cache_dir)
    return root / "build" / f"{tool}-cache"


def emit_stats(args, cache: FileCache, tool: str):
    payload = cache.stats(tool)
    if args.timing_report:
        write_timing_report(args.timing_report, payload)
    if args.stats:
        c = payload["cache"]
        print(f"{tool}: {payload['wall_seconds']}s wall, "
              f"{c['hits']} cached / {c['misses']} scanned "
              f"(hit ratio {c['hit_ratio']:.0%})")
        print_slowest(payload["files"])
