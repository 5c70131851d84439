#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fig6-cold --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --summary [--seed 7] [--seconds 15]

The first form builds the benchmark binary (package perfbench, against
the surrounding checkout's sources) into $CARGO_TARGET_DIR or
.bench_build, runs one workload, and passes its output through: the
last line is the JSON result. --trace 1 makes the run report the
per-layer metrics instead of the end-to-end ones. The second form runs
all three workloads in turn and prints every end-to-end metric of each,
by name and unit, with error_rate last.
"""

import argparse
import hashlib
import os
import signal
import subprocess
import sys

WORKLOADS = ["fig6-cold", "analysis-sweep", "replayd-mix"]
RUN_TIMEOUT_S = 170

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def go_env(build):
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOMODCACHE": os.path.join(build, "gomodcache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOFLAGS": "-mod=mod",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOSUMDB": "off",
        "GOWORK": "off",
        "GOENV": "off",
        # Temporary files stay inside the checkout too.
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
    })
    return env


def build(build):
    """Builds the benchmark binary; the go build cache makes rebuilds cheap."""
    os.makedirs(os.path.join(build, "tmp"), exist_ok=True)
    binary = os.path.join(build, "perfbench")
    cmd = ["go", "build", "-o", binary]
    pgo = os.path.join(ROOT, "default.pgo")
    # The repository's documented build uses its committed profile.
    if os.path.isfile(pgo):
        cmd.append("-pgo=" + pgo)
    cmd.append(".")
    proc = subprocess.run(cmd, cwd=HERE, env=go_env(build),
                          stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise SystemExit("perfbench: build failed")
    return binary


def source_revision():
    """The git commit when there is one, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    skip = {".git", os.path.basename(build_dir())}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in skip)
        for name in sorted(filenames):
            if name.endswith((".go", ".mod", ".pgo", ".json", ".py")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:12]


def run(binary, build, workload, seed, seconds, trace, capture=False):
    cmd = [binary, "-workload", workload, "-seed", str(seed), "-seconds", str(seconds),
           "-trace", str(trace), "-digests", os.path.join(HERE, "digests.json"),
           "-tmp", os.path.join(build, "tmp"), "-commit", source_revision()]
    # Its own process group, so a timeout also stops the trace
    # generators it starts.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=go_env(build), text=True, start_new_session=True,
                            stdout=subprocess.PIPE if capture else None)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise SystemExit("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        raise SystemExit(proc.returncode)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--summary", action="store_true",
                    help="run every workload and print its end-to-end metrics")
    ap.add_argument("--record-digests", action="store_true",
                    help="re-record digests.json (only when the simulation is meant to change)")
    args = ap.parse_args()
    if not (args.summary or args.record_digests or args.workload):
        ap.error("one of --workload, --summary or --record-digests is required")

    bdir = build_dir()
    binary = build(bdir)
    if args.record_digests:
        subprocess.run([binary, "-record-digests", "-digests", os.path.join(HERE, "digests.json")],
                       cwd=ROOT, check=True)
        return
    if not args.summary:
        run(binary, bdir, args.workload, args.seed, args.seconds, args.trace)
        return
    for w in WORKLOADS:
        out = run(binary, bdir, w, args.seed, args.seconds, 0, capture=True)
        print("== %s ==" % w)
        print("\n".join(out.splitlines()[:-1]))  # all but the JSON line
        print()


if __name__ == "__main__":
    main()
