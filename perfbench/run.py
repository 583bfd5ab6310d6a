#!/usr/bin/env python3
"""Build and run the LithoGAN benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --table4

Builds the `perfbench` package (release, offline) into $CARGO_TARGET_DIR,
default `.bench_build`, runs one workload in its own process and relays
its output. The last line of standard output is the result object; the
line before it records provenance (threads, SIMD level, nproc, source
revision, seed). `--table4` prints Table 4's rigorous-vs-LithoGAN per-clip
ratio from the last untraced `golden` and `predict_paper` results.
See perfbench/GLOSSARY.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
RESULTS = ROOT / ".perfbench_results"
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def source_revision():
    """The git revision, or a hash of the sources where there is no git."""
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
        if rev.returncode == 0 and rev.stdout.strip():
            return rev.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock", BENCH / "Cargo.toml"]
    for top in (ROOT / "crates", BENCH / "src"):
        files += [p for p in top.rglob("*") if p.suffix in (".rs", ".toml")]
    for path in sorted(files):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def thread_env():
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    requested = env.get("LITHO_THREADS", "").strip()
    if requested:
        if not requested.isdigit() or int(requested) < 1:
            fail(f"LITHO_THREADS={requested!r} is not a positive integer")
        if int(requested) > nproc:
            fail(f"refusing LITHO_THREADS={requested}: only {nproc} cores available")
    else:
        env["LITHO_THREADS"] = str(nproc)
    return env


def build(env):
    if not (ROOT / "crates" / "core" / "Cargo.toml").is_file():
        fail(f"no program sources under {ROOT / 'crates'}; run from a full checkout")
    target = Path(env.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    env["CARGO_TARGET_DIR"] = str(target)
    cmd = [
        "cargo",
        "build",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        str(BENCH / "Cargo.toml"),
    ]
    if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
        fail("cargo build failed", code=1)
    return target / "release" / "litho-perfbench"


def table4():
    """Table 4's per-clip ratio from the last untraced results, or None."""
    runs = {}
    for name in ("golden", "predict_paper"):
        path = RESULTS / f"{name}.json"
        if not path.is_file():
            return None
        runs[name] = json.loads(path.read_text())
    ms = {
        name: 1e3 / run["result"]["metrics"]["clips_per_s"]["value"]
        for name, run in runs.items()
    }
    ratio = ms["golden"] / ms["predict_paper"]
    seeds = {name: run["provenance"]["seed"] for name, run in runs.items()}
    return "\n".join(
        [
            "Table 4 readout (informational):",
            f"  rigorous flow (golden, seed {seeds['golden']}): {ms['golden']:.2f} ms/clip",
            f"  LithoGAN (predict_paper, seed {seeds['predict_paper']}): "
            f"{ms['predict_paper']:.2f} ms/clip",
            f"  rigorous / LithoGAN = {ratio:.4f}x (base: LithoGAN ms/clip)",
            f"  LithoGAN / rigorous = {1 / ratio:.4f}x (base: rigorous ms/clip)",
        ]
    )


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table4", action="store_true")
    args = parser.parse_args()
    if args.table4:
        readout = table4()
        if readout is None:
            fail("run the golden and predict_paper workloads first")
        print(readout)
        return
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    env = thread_env()
    binary = build(env)
    env["PERFBENCH_GIT_REV"] = source_revision()
    cmd = [
        str(binary),
        "--workload",
        args.workload,
        "--seed",
        str(args.seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", code=1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stdout)
        fail(f"{args.workload} exited with code {proc.returncode}", code=1)
    provenance = json.loads(lines[-2])["provenance"]
    result = json.loads(lines[-1])
    for line in lines:
        print(line)
    if not args.trace:
        RESULTS.mkdir(exist_ok=True)
        record = {"provenance": provenance, "result": result}
        (RESULTS / f"{args.workload}.json").write_text(json.dumps(record) + "\n")
        readout = table4()
        if readout is not None:
            print(readout, file=sys.stderr)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
