"""Seeded CLI round-trip benchmark for dctsteg.

Drives the real CLI path in-process: dctsteg.cli.entry(["embed", ...]) and
then entry(["extract", ...]) on the files of a seeded corpus, reading and
writing real files. One process, one closed-loop client: the next call
starts when the previous one returns. Every round trip checks that the
secret came back byte-exact, with the right kind and dimensions.
Interpreter start-up, ``import dctsteg`` and a first warm-up op are measured
apart, in fresh interpreters, and reported as setup_s.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

--trace 0 measures the end-to-end metrics. --trace 1 makes a separate run
that records spans around the calls into each module and reports the
per-layer metrics. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; full results, spans included, are
written under perfbench/_work/.
"""

import argparse
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import tracer as tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "_work"

SETUP_RUNS = 7
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass(frozen=True)
class Workload:
    """How a workload's corpus is driven.

    sample: leading corpus items that every run completes; the artifact
    digest covers them and each traced pass repeats exactly them, so trace
    counters are fixed by the seed. extract_reps: extracts per embed; a
    spatial8 embed costs some 400 extracts, and repeating the extract gives
    its percentiles enough samples within one run.
    """

    sample: int
    extract_reps: int


WORKLOADS = {
    "container-mixed": Workload(sample=10, extract_reps=1),
    "spatial8-natural": Workload(sample=4, extract_reps=8),
    "spatial8-saturated": Workload(sample=5, extract_reps=1),
}

END_TO_END = (
    ("embed_ms.mean", "ms"), ("embed_ms.tail", "ms"),
    ("extract_ms.mean", "ms"), ("extract_ms.tail", "ms"),
    ("embed_mpix_s", "Mpx/s"), ("extract_kbit_s", "kbit/s"),
    ("psnr_db.p50", "dB"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
)

VERIFY = "engine.verify_adjust_block"
# (name, unit); unit "ms" marks a time, reported as the median over traced
# passes. Every other value is a count or a ratio of counts and must repeat
# exactly from pass to pass; trace.overhead_share is taken over the run.
PER_LAYER = (
    (f"{VERIFY}.ms", "ms"), (f"{VERIFY}.ms.p50", "ms"), (f"{VERIFY}.ms.p99", "ms"),
    (f"{VERIFY}.calls", "count"), (f"{VERIFY}.candidates", "count"),
    (f"{VERIFY}.inverse_blocks", "count"), (f"{VERIFY}.rounds", "count"),
    (f"{VERIFY}.residual_blocks", "count"), (f"{VERIFY}.clean_first_render", "ratio"),
    ("engine.embed.self_ms", "ms"), ("engine.extract.self_ms", "ms"),
    ("engine.embed.residual_bit_errors", "count"), ("engine.render.ms", "ms"),
    ("engine.StegoContainer.to_bytes.ms", "ms"), ("engine.StegoContainer.from_bytes.ms", "ms"),
    ("huffman.build_table.ms", "ms"), ("huffman.encode.ms", "ms"), ("huffman.encode.bits", "count"),
    ("huffman.decode.ms", "ms"), ("huffman.decode.bits", "count"), ("huffman.decode.symbols", "count"),
    ("framing.build_frame.self_ms", "ms"), ("framing.parse_frame.self_ms", "ms"),
    ("framing.frame_bits", "count"),
    ("blockdct.forward_dct.ms", "ms"), ("blockdct.forward_dct.blocks", "count"),
    ("blockdct.inverse_dct.ms", "ms"), ("blockdct.inverse_dct.blocks", "count"),
    ("blockdct.quantize.ms", "ms"), ("blockdct.partition.ms", "ms"), ("blockdct.assemble.ms", "ms"),
    ("metrics.psnr.ms", "ms"),
    ("image_io.read_pgm.ms", "ms"), ("image_io.write_pgm.ms", "ms"), ("image_io.bytes", "count"),
    ("cli.self_ms", "ms"), ("trace.overhead_share", "ratio"),
)


def _blocks(args, result):
    return {"blocks": 1 if numpy.ndim(args[0]) == 2 else len(args[0])}


def hooks(cli, engine, blockdct, huffman, framing, metrics):
    """(owner, attribute, span name, count) for every layer boundary traced.

    Each owner is where the caller looks the name up: engine reaches blockdct
    through the module, while cli imported read_pgm and write_pgm by name.
    """
    return [
        (engine, "embed", "engine.embed", None),
        (engine, "extract", "engine.extract", None),
        (engine, "verify_adjust_block", VERIFY, lambda a, r: {"residual": int(r[1])}),
        (engine, "render", "engine.render", None),
        (engine.StegoContainer, "to_bytes", "engine.StegoContainer.to_bytes", None),
        (engine.StegoContainer, "from_bytes", "engine.StegoContainer.from_bytes", None),
        (blockdct, "partition", "blockdct.partition", None),
        (blockdct, "forward_dct", "blockdct.forward_dct", _blocks),
        (blockdct, "inverse_dct", "blockdct.inverse_dct", _blocks),
        (blockdct, "quantize", "blockdct.quantize", None),
        (blockdct, "assemble", "blockdct.assemble", None),
        (huffman, "build_table", "huffman.build_table", None),
        (huffman, "encode", "huffman.encode", lambda a, r: {"bits": r.bit_length}),
        (huffman, "decode", "huffman.decode",
         lambda a, r: {"bits": a[0].bit_length, "symbols": len(r)}),
        (framing, "build_frame", "framing.build_frame", lambda a, r: {"bits": r.bit_length}),
        (framing, "parse_frame", "framing.parse_frame", None),
        (metrics, "psnr", "metrics.psnr", None),
        (cli, "read_pgm", "image_io.read_pgm", lambda a, r: {"bytes": len(a[0])}),
        (cli, "write_pgm", "image_io.write_pgm", lambda a, r: {"bytes": len(r)}),
    ]


@dataclass
class RoundTrip:
    """One embed and its extracts of one corpus item."""

    item: dict
    embed_s: float = 0.0
    extract_s: list = field(default_factory=list)
    psnr_db: float | None = None  # None when not reported or infinite
    residual: int = 0
    recovered_bits: int = 0
    error: str = ""

    @property
    def ok(self):
        return not self.error

    @property
    def seconds(self):
        return self.embed_s + sum(self.extract_s)


def _call(entry, argv, tracer, label):
    """Run one CLI command; return (exit code, stdout, stderr, wall seconds)."""
    out, err = io.StringIO(), io.StringIO()
    span = tracer.op("cli", label) if tracer else nullcontext()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            with span:
                code = entry(argv)
        except Exception:  # a crash is a failed op, like a nonzero exit
            traceback.print_exc()
            code = 1
        elapsed = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), elapsed


def _fields(stdout):
    lines = stdout.strip().splitlines()
    return dict(pair.split("=", 1) for pair in lines[-1].split()) if lines else {}


def _extract_problem(code, stdout, stderr, out_path, item, expected):
    if code != 0:
        return f"extract exit {code}: {stderr.strip()[-200:]}"
    fields = _fields(stdout)
    want = {"secret_kind": item["kind"], "secret_bytes": str(item["secret_bytes"]),
            "secret_width": str(item["secret_width"]), "secret_height": str(item["secret_height"])}
    got = {key: fields.get(key) for key in want}
    if got != want:
        return f"extract reported {got}, expected {want}"
    if not out_path.is_file() or out_path.read_bytes() != expected:
        return "recovered secret differs from the original"
    return ""


def round_trip(entry, item, corpus, arts, extract_reps, tracer=None):
    """Embed item's secret into its cover, then extract it extract_reps times."""
    stego = arts / (item["id"] + (".dsc" if item["mode"] == "container" else ".pgm"))
    out = arts / (item["id"] + ".out")
    secret = corpus / item["secret"]
    label = f"{item['mode']} {item['width']}x{item['height']}"
    trip = RoundTrip(item)
    code, stdout, stderr, trip.embed_s = _call(entry, [
        "embed", "--cover", str(corpus / item["cover"]), "--secret", str(secret),
        "--secret-kind", item["kind"], "--mode", item["mode"], "--out", str(stego),
    ], tracer, "embed " + label)
    if code != 0:
        trip.error = f"embed exit {code}: {stderr.strip()[-200:]}"
        return trip
    fields = _fields(stdout)
    psnr = float(fields["psnr_db"])
    trip.psnr_db = psnr if math.isfinite(psnr) else None
    trip.residual = int(fields["residual_bit_errors"])
    expected = secret.read_bytes()
    for _ in range(extract_reps):
        out.unlink(missing_ok=True)
        code, stdout, stderr, seconds = _call(
            entry, ["extract", "--in", str(stego), "--out", str(out)], tracer, "extract " + label)
        trip.extract_s.append(seconds)
        trip.error = _extract_problem(code, stdout, stderr, out, item, expected)
        if trip.error:
            break
        trip.recovered_bits += 8 * item["secret_bytes"]
    return trip


def artifact_digest(trips, arts):
    """SHA-256 over the stego artifact and recovered secret of each trip, in order.

    Call right after the trips, before a later pass overwrites their files.
    """
    digest = hashlib.sha256()
    for trip in trips:
        for path in sorted(arts.glob(trip.item["id"] + ".*")):
            digest.update(path.name.encode())
            digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """(value, percentile) of the highest percentile with >= 10 values beyond it.

    With fewer than 11 values no percentile qualifies; the median stands in.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return median(ordered), 50.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def percentile(values, share):
    """Nearest-rank percentile; 0.0 for no values."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)] if ordered else 0.0


def end_to_end(trips, setup_s):
    """End-to-end metric values plus the extra lines printed for people.

    The typical op time is the mean over the ops on the most common cover
    size, not the median. On a shared 2-vCPU VM the CPU alternates every few
    seconds between a fast state and one 1.3-1.7x slower; the median of
    short ops jumps between the two states from run to run, while the mean
    moves in proportion to the time spent in each. The medians are printed.
    """
    embed = [1e3 * t.embed_s for t in trips]
    extract = [1e3 * s for t in trips for s in t.extract_s]
    size = Counter(_size(t) for t in trips).most_common(1)[0][0]
    common = [t for t in trips if _size(t) == size]
    common_extract = [1e3 * s for t in common for s in t.extract_s]
    embed_tail, embed_q = tail(embed)
    extract_tail, extract_q = tail(extract)
    pixels = sum(t.item["width"] * t.item["height"] for t in trips)
    psnr = [t.psnr_db for t in trips if t.psnr_db is not None]
    failed = sum(not t.ok for t in trips)
    values = {
        "embed_ms.mean": statistics.fmean(1e3 * t.embed_s for t in common),
        "embed_ms.tail": embed_tail,
        "extract_ms.mean": statistics.fmean(common_extract) if common_extract else 0.0,
        "extract_ms.tail": extract_tail,
        "embed_mpix_s": pixels / 1e6 / sum(t.embed_s for t in trips),
        "extract_kbit_s": (sum(t.recovered_bits for t in trips) / 1e3
                           / max(sum(sum(t.extract_s) for t in trips), 1e-12)),
        "psnr_db.p50": median(psnr),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    notes = [
        f"means over the {len(common)} round trips on {size[0]}x{size[1]} covers; "
        f"medians over all ops: embed_ms.p50={median(embed):.4f} "
        f"extract_ms.p50={median(extract):.4f}",
        f"embed_ms.tail is p{embed_q:.1f} of {len(embed)} embeds; "
        f"extract_ms.tail is p{extract_q:.1f} of {len(extract)} extracts",
        f"failed_share={failed / len(trips):.4f} ({failed} of {len(trips)} round trips failed)",
        f"residual_bit_errors={sum(t.residual for t in trips)} (sum over embeds)",
    ]
    return values, notes


def _size(trip):
    return trip.item["width"], trip.item["height"]


def layer_values(spans, trips):
    """Per-layer values of one traced pass: its spans and its traced trips."""
    selfs = tracing.self_times(spans)
    ns = defaultdict(int)
    self_ns = defaultdict(int)
    counts = defaultdict(int)
    # verify span index -> forward_dct calls inside it
    verify_fwd = {i: 0 for i, span in enumerate(spans) if span.name == VERIFY}
    for index, span in enumerate(spans):
        ns[span.name] += span.end - span.start
        self_ns[span.name] += selfs[index]
        for key, value in span.counts.items():
            counts[f"{span.name}.{key}"] += value
        if span.name in ("blockdct.forward_dct", "blockdct.inverse_dct"):
            owner = tracing.ancestor(spans, index, VERIFY)
            if owner >= 0 and span.name == "blockdct.forward_dct":
                verify_fwd[owner] += 1
                counts[f"{VERIFY}.candidates"] += span.counts["blocks"]
            elif owner >= 0:
                counts[f"{VERIFY}.inverse_blocks"] += span.counts["blocks"]
    durations = [(spans[i].end - spans[i].start) / 1e6 for i in verify_fwd]
    calls = len(durations)
    values = {f"{name}.ms": value / 1e6 for name, value in ns.items()}
    values.update({f"{name}.self_ms": value / 1e6 for name, value in self_ns.items()})
    values.update(counts)
    values.update({
        f"{VERIFY}.ms.p50": median(durations),
        f"{VERIFY}.ms.p99": percentile(durations, 0.99),
        f"{VERIFY}.calls": calls,
        f"{VERIFY}.rounds": sum(n - 1 for n in verify_fwd.values()),
        f"{VERIFY}.residual_blocks": sum(
            1 for i in verify_fwd if spans[i].counts["residual"] > 0),
        f"{VERIFY}.clean_first_render": (
            sum(n == 1 for n in verify_fwd.values()) / calls if calls else 0.0),
        "engine.embed.residual_bit_errors": sum(t.residual for t in trips),
        "framing.frame_bits": counts["framing.build_frame.bits"],
        "image_io.bytes": counts["image_io.read_pgm.bytes"] + counts["image_io.write_pgm.bytes"],
    })
    return {name: values.get(name, 0) for name, _ in PER_LAYER}


def self_breakdown(tracers, top=4):
    """Lines naming the largest self times per op label (e.g. 'embed spatial8 128x128')."""
    by_label = defaultdict(lambda: defaultdict(int))
    ops = defaultdict(set)
    for tracer in tracers:
        for span, own in zip(tracer.spans, tracing.self_times(tracer.spans)):
            label = tracer.ops[span.op]
            by_label[label][span.name] += own
            ops[label].add(span.op)
    lines = []
    for label in sorted(by_label):
        total = sum(by_label[label].values())
        ranked = sorted(by_label[label].items(), key=lambda kv: -kv[1])[:top]
        shares = ", ".join(f"{name} {100 * v / total:.1f}%" for name, v in ranked)
        lines.append(f"self time, {label} ({len(ops[label])} ops, "
                     f"{total / 1e6 / len(ops[label]):.1f} ms/op): {shares}")
    return lines


def measure(entry, items, corpus, arts, workload, seconds):
    """Untraced closed loop over the corpus for `seconds` (sample at least)."""
    trips = []
    deadline = time.perf_counter() + seconds
    while len(trips) < workload.sample or time.perf_counter() < deadline:
        trips.append(round_trip(entry, items[len(trips) % len(items)], corpus, arts,
                                workload.extract_reps))
        if len(trips) == workload.sample:
            digest = artifact_digest(trips, arts)
    return trips, digest


def measure_traced(entry, modules, items, corpus, arts, workload, seconds):
    """Repeat passes over the sample, each item once untraced then once traced.

    A pass starts only while it is expected to end before the deadline; the
    first always runs. Returns (passes, untraced trips, digest), each pass
    being (tracer, traced trips of that pass).
    """
    passes, plain = [], []
    digest = None
    deadline = time.perf_counter() + seconds
    last = 0.0
    while not passes or time.perf_counter() + last <= deadline:
        start = time.perf_counter()
        tracer = tracing.Tracer(passes[-1][0].next_op if passes else 0)
        pass_trips = []
        for item in items[:workload.sample]:
            plain.append(round_trip(entry, item, corpus, arts, workload.extract_reps))
            with tracing.installed(tracer, hooks(*modules)):
                pass_trips.append(round_trip(entry, item, corpus, arts,
                                             workload.extract_reps, tracer))
        if digest is None:
            digest = artifact_digest(pass_trips, arts)
        passes.append((tracer, pass_trips))
        last = time.perf_counter() - start
    return passes, plain, digest


def per_layer(passes, plain):
    """Per-layer metric values and the names of counts that did not repeat."""
    each = [layer_values(tracer.spans, trips) for tracer, trips in passes]
    traced = [trip for _, trips in passes for trip in trips]
    values = {}
    unsteady = []
    for name, unit in PER_LAYER:
        series = [v[name] for v in each]
        if unit == "ms":
            values[name] = statistics.median(series)
        else:
            values[name] = series[0]
            if any(s != series[0] for s in series):
                unsteady.append(name)
    values["trace.overhead_share"] = (
        sum(t.seconds for t in traced) / sum(t.seconds for t in plain) - 1.0)
    return values, unsteady


_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from dctsteg import cli
cover, secret, stego, out = sys.argv[2:6]
sys.exit(cli.entry(["embed", "--cover", cover, "--secret", secret, "--out", stego])
         or cli.entry(["extract", "--in", stego, "--out", out]))
"""


def measure_setup(corpus, arts, warmup, runs=SETUP_RUNS):
    """Median wall time of fresh interpreters that import dctsteg.cli and then
    embed and extract the warm-up secret once; each must recover it exactly.

    One more probe runs first, untimed: it writes the bytecode cache and
    fills the file cache, a cost paid once per checkout, not per start.
    """
    secret = corpus / warmup["secret"]
    out = arts / "probe.out"
    times = []
    for _ in range(runs + 1):
        out.unlink(missing_ok=True)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE, str(SRC), str(corpus / warmup["cover"]),
             str(secret), str(arts / "probe.dsc"), str(out)],
            capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - start)
        if proc.returncode != 0 or out.read_bytes() != secret.read_bytes():
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}): {proc.stderr[-500:]}")
    return statistics.median(times[1:])


def _git_commit():
    """Commit of the checkout read from .git, or 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload, seed, trace):
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(), "commit": _git_commit(),
    }


def _span_records(passes):
    """All spans of all passes as dicts; parent indexes this same list."""
    records = []
    for n, (tracer, _) in enumerate(passes):
        offset = len(records)
        records += [
            {"name": s.name, "start_ns": s.start, "end_ns": s.end,
             "parent": s.parent + offset if s.parent >= 0 else -1,
             "op": s.op, "label": tracer.ops[s.op], "pass": n,
             **({"counts": s.counts} if s.counts else {})}
            for s in tracer.spans
        ]
    return records


def main(argv=None):
    parser = argparse.ArgumentParser(description="Seeded CLI round-trip benchmark for dctsteg.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "dctsteg" / "cli.py").is_file():
        print(f"error: no dctsteg sources at {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    run_dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    corpus, arts = run_dir / "corpus", run_dir / "artifacts"
    arts.mkdir(parents=True)

    # The corpus is generated in its own interpreter, so that peak_rss_mb
    # measures the program and not the generator.
    gen = subprocess.run(
        [sys.executable, str(BENCH / "corpus.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--out", str(corpus)],
        capture_output=True, text=True, timeout=300)
    if gen.returncode != 0:
        print(f"error: corpus generation failed: {gen.stderr[-500:]}", file=sys.stderr)
        return 1
    print(gen.stdout.strip())
    manifest = json.loads((corpus / "manifest.json").read_text())
    items = manifest["items"]
    env = environment(args.workload, args.seed, args.trace)
    print("env " + json.dumps(env, sort_keys=True))

    setup_s = measure_setup(corpus, arts, manifest["warmup"])
    sys.path.insert(0, str(SRC))
    from dctsteg import blockdct, cli, engine, framing, huffman, metrics

    for mode in ("container", "spatial8"):
        trip = round_trip(cli.entry, dict(manifest["warmup"], mode=mode), corpus, arts, 1)
        if not trip.ok:
            print(f"error: warm-up {mode} round trip failed: {trip.error}", file=sys.stderr)
            return 1

    result = {"env": env, "corpus_items": len(items)}
    if args.trace:
        modules = (cli, engine, blockdct, huffman, framing, metrics)
        passes, plain, digest = measure_traced(
            cli.entry, modules, items, corpus, arts, workload, args.seconds)
        values, unsteady = per_layer(passes, plain)
        units = dict(PER_LAYER)
        trips = plain + [trip for _, traced in passes for trip in traced]
        notes = [f"{len(passes)} traced passes of {workload.sample} items"]
        notes += self_breakdown([tracer for tracer, _ in passes])
        if unsteady:
            notes.append("counts differ between passes of one seed: " + ", ".join(unsteady))
        result["spans"] = _span_records(passes)
    else:
        trips, digest = measure(cli.entry, items, corpus, arts, workload, args.seconds)
        values, notes = end_to_end(trips, setup_s)
        units = dict(END_TO_END)
        unsteady = []
    failed = sum(not t.ok for t in trips)
    for trip in trips:
        if not trip.ok:
            notes.append(f"failed {trip.item['id']}: {trip.error}")
            break
    notes.append(f"artifacts digest={digest} (first {workload.sample} items)")
    for line in notes:
        print(line)
    for name, value in values.items():
        print(f"  {name:42s} {value:14.4f} {units[name]}")
    metrics_out = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    result.update(artifacts_digest=digest, notes=notes, metrics=metrics_out,
                  trips=[{"item": t.item["id"], "embed_s": t.embed_s, "extract_s": t.extract_s,
                          "psnr_db": t.psnr_db,
                          "residual": t.residual, "error": t.error}
                         for t in trips])
    (run_dir / "result.json").write_text(json.dumps(result))
    shutil.rmtree(corpus)  # up to 30 MB a run; the digests stand for them
    shutil.rmtree(arts)
    print(json.dumps({"correct": failed == 0 and not unsteady, "attempted": len(trips),
                      "failed": failed, "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
