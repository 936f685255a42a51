#!/usr/bin/env python3
"""Builds and runs the EMPROF layered benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check [--seed <n>]

Run from the root of a checkout. The benchmark crate in this directory
is built with cargo (into $CARGO_TARGET_DIR, default `.bench_build`),
then run once; its output is checked against `BENCHMARK.json` and
printed. The last stdout line is the result object: with `--trace 0`
it holds every end-to-end metric, with `--trace 1` every per-layer
metric. The line before it is the provenance object (host, seed, run
length, repetitions, and per metric the sample count, median and
quartiles). A traced run also writes its spans to
`.bench_out/spans-<workload>-<seed>.jsonl`.

`--self-check` shows that the bounds can see a regression the size the
roadmap cares about: for each pair in SENSITIVITY it runs the workload
four times on one seed, twice as is and twice with a harness-side
busy-wait adding 25% to one layer's call time, and fails unless the
mean of the affected end-to-end metric moves past its bound.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BINARY = "emprof-perfbench"
RUN_TIMEOUT_S = 170

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")
TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}

# (workload, layer slowed by 25%, end-to-end metric that must cross its bound)
SENSITIVITY = [
    ("journal_query", "store.query", "query_cold_p50_ms"),
]


class SpecError(ValueError):
    """BENCHMARK.json breaks the benchmark format."""


def valid_name(name):
    """A metric or workload name: [A-Za-z0-9_.-], at most 64, leading alnum."""
    return isinstance(name, str) and NAME_RE.match(name) is not None


def parse_spec(text):
    """Parses and validates the text of BENCHMARK.json."""
    try:
        spec = json.loads(text)
    except json.JSONDecodeError as e:
        raise SpecError(f"not JSON: {e}") from e
    if not isinstance(spec, dict) or set(spec) != TOP_KEYS:
        raise SpecError(f"top-level keys must be exactly {sorted(TOP_KEYS)}")
    cmd = spec["command"]
    if not (isinstance(cmd, list) and 1 <= len(cmd) <= 32):
        raise SpecError("command must be a list of 1 to 32 strings")
    for arg in cmd:
        if not isinstance(arg, str) or len(arg) > 200 or arg.startswith("/") or ".." in arg.split("/"):
            raise SpecError(f"bad command argument {arg!r}")
    paths = spec["paths"]
    if not (isinstance(paths, list) and 1 <= len(paths) <= 16):
        raise SpecError("paths must list 1 to 16 directories")
    for p in paths:
        if not (isinstance(p, str) and PATH_RE.match(p)) or p.startswith("/") or ".." in p.split("/"):
            raise SpecError(f"bad path {p!r}")
    rs = spec["run_seconds"]
    if not (isinstance(rs, int) and not isinstance(rs, bool) and 1 <= rs <= 60):
        raise SpecError("run_seconds must be a whole number from 1 to 60")
    workloads = spec["workloads"]
    if not (isinstance(workloads, list) and 2 <= len(workloads) <= 8):
        raise SpecError("there must be 2 to 8 workloads")
    for w in workloads:
        if not (isinstance(w, dict) and set(w) == {"name", "why"}):
            raise SpecError(f"workload {w!r} must have exactly name and why")
        why = w["why"]
        if not (isinstance(why, str) and 0 < len(why) <= 200 and "\n" not in why):
            raise SpecError(f"workload {w['name']!r}: why must be one line of at most 200 characters")
    e2e, layers = spec["end_to_end"], spec["per_layer"]
    if not (isinstance(e2e, list) and 1 <= len(e2e) <= 16):
        raise SpecError("end_to_end must list 1 to 16 metrics")
    if not (isinstance(layers, list) and 1 <= len(layers) <= 128):
        raise SpecError("per_layer must list 1 to 128 metrics")
    for group, keys in ((e2e, {"name", "unit", "better", "bound"}), (layers, {"name", "unit", "better"})):
        for m in group:
            if not (isinstance(m, dict) and set(m) == keys):
                raise SpecError(f"metric {m!r} must have exactly {sorted(keys)}")
            if not (isinstance(m["unit"], str) and UNIT_RE.match(m["unit"])):
                raise SpecError(f"metric {m['name']!r}: bad unit {m['unit']!r}")
            if m["better"] not in ("higher", "lower"):
                raise SpecError(f"metric {m['name']!r}: better must be higher or lower")
    for m in e2e:
        b = m["bound"]
        if not (isinstance(b, (int, float)) and not isinstance(b, bool) and 0 < b <= 0.25):
            raise SpecError(f"metric {m['name']!r}: bound must be in (0, 0.25]")
    names = [x["name"] for x in workloads + e2e + layers]
    for n in names:
        if not valid_name(n):
            raise SpecError(f"bad name {n!r}")
    if len(set(names)) != len(names):
        raise SpecError("names must be unique")
    setup = [m for m in e2e if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise SpecError("setup_s (unit s, better lower) must be an end-to-end metric")
    return spec


def check_result(spec, result, trace):
    """Problems with one result object, against the declared metrics."""
    problems = []
    if not isinstance(result, dict) or set(result) != {"correct", "attempted", "failed", "metrics"}:
        return ["result keys must be exactly correct, attempted, failed, metrics"]
    if not isinstance(result["correct"], bool):
        problems.append("correct must be a boolean")
    for k in ("attempted", "failed"):
        if not isinstance(result[k], int) or isinstance(result[k], bool) or result[k] < 0:
            problems.append(f"{k} must be a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted must be at least 1")
    declared = {m["name"]: m for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if not isinstance(got, dict) or set(got) != set(declared):
        missing = sorted(set(declared) - set(got or {}))
        extra = sorted(set(got or {}) - set(declared))
        return problems + [f"metric set differs: missing {missing}, undeclared {extra}"]
    for name, m in got.items():
        if not (isinstance(m, dict) and set(m) == {"value", "unit"}):
            problems.append(f"{name}: must have exactly value and unit")
            continue
        v = m["value"]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append(f"{name}: value {v!r} is not a finite number")
        elif not trace and v == 0:
            problems.append(f"{name}: an end-to-end metric read 0")
        if m["unit"] != declared[name]["unit"]:
            problems.append(f"{name}: unit {m['unit']!r}, declared {declared[name]['unit']!r}")
    return problems


def build():
    """Builds the benchmark crate; returns the binary path."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ROOT / ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", str(HERE / "Cargo.toml")]
    subprocess.run(cmd, cwd=ROOT, env=env, check=True, stdout=sys.stderr)
    return target / "release" / BINARY


def run_once(spec, binary, workload, seed, seconds, trace, perturb=None):
    """Runs the benchmark binary once; returns (stdout lines, result)."""
    work = ROOT / ".bench_work" / f"{workload}-{seed}-{os.getpid()}"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--work-dir", str(work)]
    if trace:
        cmd += ["--spans-out", str(ROOT / ".bench_out" / f"spans-{workload}-{seed}.jsonl")]
    if perturb:
        cmd += ["--perturb", perturb]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        raise RuntimeError(f"benchmark exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("benchmark printed nothing")
    result = json.loads(lines[-1])
    problems = check_result(spec, result, trace)
    if problems:
        raise RuntimeError("result breaks the benchmark format: " + "; ".join(problems))
    return lines, result


def worsening(metric, base, perturbed):
    """How much worse `perturbed` is than `base`, as a share of `base`."""
    d = (perturbed - base) if metric["better"] == "lower" else (base - perturbed)
    return d / abs(base)


def self_check(spec, binary, seed):
    """Runs every SENSITIVITY pair; returns True when each crosses its bound."""
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    for workload, layer, name in SENSITIVITY:
        values = {None: [], layer: []}
        # Plain, slowed, slowed, plain: a host whose speed drifts steadily
        # over the four runs moves both means alike.
        for perturb in (None, layer, layer, None):
            _, r = run_once(spec, binary, workload, seed, spec["run_seconds"], False, perturb=perturb)
            values[perturb].append(r["metrics"][name]["value"])
        b, s = statistics.fmean(values[None]), statistics.fmean(values[layer])
        w = worsening(e2e[name], b, s)
        passed = w > e2e[name]["bound"]
        ok &= passed
        print(json.dumps({"self_check": {"workload": workload, "layer": layer, "metric": name,
                                          "base": b, "perturbed": s, "worse_by": w,
                                          "bound": e2e[name]["bound"], "passed": passed}}))
    return ok


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args(argv)

    try:
        spec = parse_spec((ROOT / "BENCHMARK.json").read_text())
        binary = build()
        if args.self_check:
            return 0 if self_check(spec, binary, args.seed) else 1
        if args.workload not in [w["name"] for w in spec["workloads"]]:
            raise SpecError(f"unknown workload {args.workload!r}")
        seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
        lines, _ = run_once(spec, binary, args.workload, args.seed, seconds, bool(args.trace))
    except (OSError, SpecError, RuntimeError, subprocess.SubprocessError, json.JSONDecodeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    sys.exit(main())
