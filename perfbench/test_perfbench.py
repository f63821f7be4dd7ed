"""Tests of the benchmark itself: span arithmetic, the seeded corpus, counter
repeatability and a smoke run of each workload.

Run from the repository root: python3 -m pytest perfbench
"""

import json
import sys
import types

import numpy as np
import pytest

import corpus
import run
import tracer as tracing
from tracer import Span

sys.path.insert(0, str(run.SRC))
from dctsteg import blockdct, cli, engine, framing, huffman, metrics  # noqa: E402

MODULES = (cli, engine, blockdct, huffman, framing, metrics)
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_self_time_subtracts_union_of_children():
    spans = [
        Span("root", 0, 100, -1, 0),
        Span("a", 10, 30, 0, 0),
        Span("b", 20, 50, 0, 0),   # overlaps a: the overlap counts once
        Span("c", 90, 120, 0, 0),  # runs past its parent: clipped at 100
        Span("leaf", 12, 18, 1, 0),
    ]
    assert tracing.self_times(spans) == [50, 14, 30, 30, 6]
    assert tracing.ancestor(spans, 4, "root") == 0
    assert tracing.ancestor(spans, 4, "b") == -1


def test_self_breakdown_keeps_parents_within_each_pass():
    passes = []
    for first_op in (0, 1):
        tracer = tracing.Tracer(first_op)
        tracer.ops[first_op] = "embed x"
        tracer.spans = [Span("cli", 0, 100, -1, first_op), Span("work", 0, 60, 0, first_op)]
        passes.append(tracer)
    assert run.self_breakdown(passes) == [
        "self time, embed x (2 ops, 0.0 ms/op): work 60.0%, cli 40.0%"]


def test_installed_wraps_and_restores_even_on_error():
    class Box:
        @classmethod
        def make(cls, n):
            return [cls] * n

    module = types.SimpleNamespace(double=lambda x: 2 * x)
    plain = module.double
    tracer = tracing.Tracer()
    hooks = [(module, "double", "m.double", lambda a, r: {"out": r}),
             (Box, "make", "Box.make", None)]
    with pytest.raises(RuntimeError):
        with tracing.installed(tracer, hooks):
            with tracer.op("root", "label"):
                assert module.double(4) == 8
                assert Box.make(2) == [Box, Box]
            raise RuntimeError
    assert module.double is plain
    assert Box.make(1) == [Box]
    names = [(s.name, s.parent, s.op, s.counts) for s in tracer.spans]
    assert names == [("root", -1, 0, {}), ("m.double", 0, 0, {"out": 8}),
                     ("Box.make", 0, 0, {})]
    assert tracer.ops == {0: "label"}


def test_tail_has_ten_values_beyond_it():
    values = list(range(100))
    assert run.tail(values) == (89, 90.0)
    assert run.tail([3, 1, 2]) == (2, 50.0)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_corpus_digest_repeats_for_a_seed(tmp_path, workload):
    first = corpus.generate(workload, 7, tmp_path / "a")[1]
    again = corpus.generate(workload, 7, tmp_path / "b")[1]
    other = corpus.generate(workload, 8, tmp_path / "c")[1]
    assert first == again != other


def test_warmup_secret_always_fits_a_64_cover():
    rng = np.random.default_rng(0)
    longest = max(len(corpus._text_secret(rng, words=(8, 16))) for _ in range(2000))
    padded_frame = corpus.FRAME_OVERHEAD_BITS + 8 * longest + 63
    assert padded_frame <= 64 * 64


def _traced_counts(item, corpus_dir, arts, reps):
    tracer = tracing.Tracer()
    with tracing.installed(tracer, run.hooks(*MODULES)):
        trip = run.round_trip(cli.entry, item, corpus_dir, arts, reps, tracer)
    assert trip.ok, trip.error
    values = run.layer_values(tracer.spans, [trip])
    return {name: values[name] for name, unit in run.PER_LAYER if unit != "ms"}


@pytest.mark.parametrize("workload", ["container-mixed", "spatial8-natural"])
def test_trace_counts_repeat_for_a_seed(tmp_path, workload):
    manifest, _ = corpus.generate(workload, 5, tmp_path / "corpus")
    item = manifest["items"][0]
    arts = tmp_path / "arts"
    arts.mkdir()
    first = _traced_counts(item, tmp_path / "corpus", arts, 2)
    assert first == _traced_counts(item, tmp_path / "corpus", arts, 2)
    assert first["huffman.decode.symbols"] == 2 * item["secret_bytes"]
    assert first["framing.frame_bits"] > first["huffman.encode.bits"] > 0
    verify_calls = first["engine.verify_adjust_block.calls"]
    if workload == "container-mixed":
        assert verify_calls == 0
    else:
        assert verify_calls == first["framing.frame_bits"] // 64
        assert first["engine.verify_adjust_block.candidates"] > verify_calls


def test_residual_counts_agree_with_what_embed_printed(tmp_path):
    manifest, _ = corpus.generate("spatial8-saturated", 5, tmp_path / "corpus")
    noise = manifest["items"][3]
    arts = tmp_path / "arts"
    arts.mkdir()
    tracer = tracing.Tracer()
    with tracing.installed(tracer, run.hooks(*MODULES)):
        trip = run.round_trip(cli.entry, noise, tmp_path / "corpus", arts, 1, tracer)
    verify = [s.counts["residual"] for s in tracer.spans if s.name == run.VERIFY]
    values = run.layer_values(tracer.spans, [trip])
    assert values["engine.verify_adjust_block.residual_blocks"] == sum(r > 0 for r in verify)
    if trip.psnr_db is not None:  # embed printed its report line
        assert values["engine.embed.residual_bit_errors"] == sum(verify)


@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_smoke_round_trip_of_each_workload(tmp_path, workload):
    manifest, _ = corpus.generate(workload, 3, tmp_path / "corpus")
    arts = tmp_path / "arts"
    arts.mkdir()
    item = min(manifest["items"], key=lambda i: i["width"])
    trip = run.round_trip(cli.entry, item, tmp_path / "corpus", arts, 1)
    if workload != "spatial8-saturated":
        assert trip.ok, trip.error
        assert trip.recovered_bits == 8 * item["secret_bytes"]
    values, notes = run.end_to_end([trip], setup_s=0.5)
    assert [name for name, _ in run.END_TO_END] == list(values)
    assert f"({int(not trip.ok)} of 1 round trips failed)" in notes[2]


def _last_json(capsys):
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_main_prints_the_metrics_benchmark_json_lists(capsys, trace, section):
    argv = ["--workload", "container-mixed", "--seed", "2", "--seconds", "0",
            "--trace", str(trace)]
    assert run.main(argv) == 0
    result = _last_json(capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    listed = {m["name"]: m["unit"] for m in BENCHMARK[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == listed


def test_main_fails_without_the_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "container-mixed", "--seed", "1",
                     "--seconds", "1", "--trace", "0"]) == 2
    assert capsys.readouterr().out == ""
