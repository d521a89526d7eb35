#!/usr/bin/env python3
"""Build the simulator benchmark from source and run one workload.

    python3 perfbench/run.py --workload bulk_packet --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --self-check

Run from the repository root. The driver (perfbench/src) and the scidmz_*
libraries it links are compiled with CMake into $CARGO_TARGET_DIR
(default .bench_build); later runs rebuild only what changed. A build
directory that was configured for another checkout (copied or moved here),
or whose incremental build fails, is wiped and built afresh. Build output
goes to stderr. The last line of stdout is the driver's JSON result; the
exit code is nonzero when the build fails or any correctness check fails.
"""
import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
REFERENCE = BENCH_DIR / "reference_digests.txt"


def build_dir() -> Path:
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def cache_entry(cache: Path, key: str) -> str | None:
    """Value of `key` in a CMakeCache.txt, or None."""
    prefix = key + ":"
    for line in cache.read_text(errors="replace").splitlines():
        if line.startswith(prefix) and "=" in line:
            return line.split("=", 1)[1]
    return None


def is_own_build(out: Path) -> bool:
    """True when `out` holds a CMake build of this benchmark (from any
    checkout), so it may be wiped."""
    cache = out / "CMakeCache.txt"
    return cache.is_file() and cache_entry(cache, "CMAKE_PROJECT_NAME") == "scidmz_perfbench"


def configured_here(out: Path) -> bool:
    """CMake refuses a build directory configured for another source or
    build path, as happens when a checkout and its build directory are
    copied or moved."""
    cache = out / "CMakeCache.txt"
    home = cache_entry(cache, "CMAKE_HOME_DIRECTORY")
    cachedir = cache_entry(cache, "CMAKE_CACHEFILE_DIR")
    try:
        return (home is not None and cachedir is not None
                and Path(home).resolve() == BENCH_DIR.resolve()
                and Path(cachedir).resolve() == out.resolve())
    except OSError:
        return False


def run_build(out: Path, jobs: int) -> None:
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", str(out), "-j", str(jobs), "--target", "scidmz_perfbench"],
    ]
    for cmd in steps:
        # Build chatter must not reach stdout: its last line is the result.
        subprocess.run(cmd, check=True, stdout=sys.stderr, stderr=sys.stderr)


def build(out: Path) -> Path:
    jobs = max(1, min(4, os.cpu_count() or 1))
    if is_own_build(out) and not configured_here(out):
        print(f"perfbench: {out} was configured elsewhere; rebuilding from scratch",
              file=sys.stderr)
        shutil.rmtree(out)
    try:
        run_build(out, jobs)
    except subprocess.CalledProcessError:
        # A stale incremental build (a deleted header still in the
        # dependency files, an interrupted earlier build) fails here but
        # builds from clean; a real compile error fails again.
        if not is_own_build(out):
            raise
        print(f"perfbench: build failed; retrying from a clean {out}", file=sys.stderr)
        shutil.rmtree(out)
        run_build(out, max(1, jobs // 2))
    return out / "scidmz_perfbench"


def git_commit() -> str:
    try:
        res = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
    except OSError:
        return "none"
    return res.stdout.strip() if res.returncode == 0 and res.stdout.strip() else "none"


def source_digest() -> str:
    """SHA-256 over the simulator and benchmark sources, for checkouts
    that are not git repositories."""
    h = hashlib.sha256()
    for top in (ROOT / "src", BENCH_DIR):
        for path in sorted(p for p in top.rglob("*") if p.is_file()):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def main(argv: list[str]) -> int:
    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as exc:
        print(f"perfbench: build failed: {exc}", file=sys.stderr)
        return 1
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), *argv]
    if "--self-check" not in argv and "--list-cells" not in argv:
        cmd += ["--out", str(results), "--reference", str(REFERENCE),
                "--commit", git_commit(), "--source-digest", source_digest()]
    # The simulator reads SCIDMZ_* knobs (telemetry, tracing, profiling,
    # sweep threads) from the environment; the benchmark fixes them itself.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SCIDMZ_")}
    return subprocess.run(cmd, env=env, cwd=ROOT, check=False).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
