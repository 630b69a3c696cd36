"""Checkpoint wire format and resume-determinism proofs.

The determinism tests are the contract the whole crash-safety layer
rests on: a solve interrupted at *any* checkpoint and resumed must
produce byte-identical selections and bit-identical objective values to
the uninterrupted run, for both lazy-greedy variants and the full
two-phase main algorithm.
"""

import json
import os
from pathlib import Path

import pytest

from repro.core.checkpoint import (
    FileCheckpointSink,
    MemoryCheckpointSink,
    decode_record,
    decode_record_b64,
    encode_record,
    encode_record_b64,
    resume_from_checkpoint,
)
from repro.core.greedy import CB, UC, lazy_greedy, main_algorithm
from repro.core.solver import checkpointable_algorithms, solve
from repro.errors import CheckpointError, ConfigurationError
from repro.fidelity import VariantCatalog
from repro.scale import build_streamed_instance, synthetic_archive
from tests.conftest import random_instance

GOLDEN = Path(__file__).parent / "data" / "main_algorithm_cb_checkpoint.json"


# --------------------------------------------------------------- wire format


def test_record_round_trip():
    doc = {"kind": "lazy_greedy", "value": 1.25, "picks": [[3, 0.5]], "n": 7}
    assert decode_record(encode_record(doc)) == doc


def test_record_b64_round_trip():
    doc = {"kind": "main_algorithm", "phase": "CB", "nested": {"a": [1, 2]}}
    assert decode_record_b64(encode_record_b64(doc)) == doc


def test_record_preserves_floats_exactly():
    value = 0.1 + 0.2  # not representable prettily; must survive exactly
    doc = decode_record(encode_record({"value": value}))
    assert doc["value"] == value


def test_corrupt_payload_detected():
    data = bytearray(encode_record({"kind": "lazy_greedy", "value": 3.5}))
    data[-2] ^= 0x01  # flip one bit in the JSON body
    with pytest.raises(CheckpointError, match="CRC32"):
        decode_record(bytes(data))


def test_corrupt_magic_detected():
    data = b"XXXXXXXX" + encode_record({"a": 1})[8:]
    with pytest.raises(CheckpointError, match="magic"):
        decode_record(data)


def test_truncated_record_detected():
    data = encode_record({"kind": "lazy_greedy", "selection": list(range(50))})
    with pytest.raises(CheckpointError, match="truncated"):
        decode_record(data[: len(data) // 2])


def test_bad_base64_detected():
    with pytest.raises(CheckpointError, match="base64"):
        decode_record_b64("!!! not base64 !!!")


def test_file_sink_round_trip(tmp_path):
    sink = FileCheckpointSink(tmp_path / "ckpt.bin")
    assert sink.load() is None
    sink({"kind": "lazy_greedy", "picks": []})
    sink({"kind": "lazy_greedy", "picks": [[1, 0.5]]})  # atomically replaces
    assert sink.load() == {"kind": "lazy_greedy", "picks": [[1, 0.5]]}


# ----------------------------------------------------- argument validation


def test_checkpoint_every_requires_sink():
    instance = random_instance(seed=0)
    with pytest.raises(ConfigurationError):
        lazy_greedy(instance, CB, checkpoint_every=2)


def test_checkpoint_every_must_be_positive():
    instance = random_instance(seed=0)
    with pytest.raises(ConfigurationError):
        lazy_greedy(instance, CB, checkpoint_every=0, checkpoint_sink=lambda d: None)


def test_solve_rejects_checkpointing_non_checkpointable():
    instance = random_instance(seed=0)
    with pytest.raises(ConfigurationError):
        solve(instance, "sviridenko", checkpoint_every=2, checkpoint_sink=lambda d: None)
    assert checkpointable_algorithms() == ["lazy-cb", "lazy-uc", "phocus"]


def test_resume_rejects_mode_mismatch():
    instance = random_instance(seed=3, n_photos=20)
    sink = MemoryCheckpointSink()
    lazy_greedy(instance, CB, checkpoint_every=1, checkpoint_sink=sink)
    with pytest.raises(CheckpointError):
        lazy_greedy(instance, UC, resume_from=sink.last)


def test_resume_rejects_wrong_instance_size():
    sink = MemoryCheckpointSink()
    lazy_greedy(random_instance(seed=3, n_photos=20), CB, checkpoint_every=1, checkpoint_sink=sink)
    with pytest.raises(CheckpointError):
        lazy_greedy(random_instance(seed=3, n_photos=24), CB, resume_from=sink.last)


def test_resume_unknown_kind_rejected():
    instance = random_instance(seed=0)
    with pytest.raises(CheckpointError, match="kind"):
        resume_from_checkpoint(instance, {"kind": "mystery"})


# --------------------------------------------------- determinism proofs


@pytest.mark.parametrize("mode", [UC, CB])
def test_lazy_greedy_resume_matches_uninterrupted_at_every_checkpoint(mode):
    """Resuming from *each* emitted checkpoint reproduces the full run
    byte-identically: same selection, same value bit pattern, same
    cumulative evaluation count."""
    instance = random_instance(seed=17, n_photos=40, n_subsets=8, budget_fraction=0.5)
    reference = lazy_greedy(instance, mode)
    sink = MemoryCheckpointSink()
    lazy_greedy(instance, mode, checkpoint_every=2, checkpoint_sink=sink)
    assert sink.docs, "expected at least one checkpoint"
    for doc in sink.docs:
        resumed = lazy_greedy(instance, mode, resume_from=doc)
        assert resumed.selection == reference.selection
        assert resumed.value == reference.value  # bit-identical float
        assert resumed.picks == reference.picks
        assert resumed.evaluations == reference.evaluations
        assert resumed.resumed_at == len(doc["picks"])


def test_main_algorithm_resume_matches_uninterrupted_both_phases():
    instance = random_instance(seed=23, n_photos=36, n_subsets=6, budget_fraction=0.45)
    reference = main_algorithm(instance)
    sink = MemoryCheckpointSink()
    main_algorithm(instance, checkpoint_every=2, checkpoint_sink=sink)
    phases = {doc["phase"] for doc in sink.docs}
    assert phases == {"UC", "CB"}, "need checkpoints spanning both phases"
    for doc in sink.docs:
        resumed = main_algorithm(instance, resume_from=doc)
        assert resumed.selection == reference.selection
        assert resumed.value == reference.value
        assert resumed.mode == reference.mode
        assert resumed.evaluations == reference.evaluations


def test_resume_from_checkpoint_file_dispatch(tmp_path):
    instance = random_instance(seed=29, n_photos=30, n_subsets=6, budget_fraction=0.4)
    reference = main_algorithm(instance)
    sink = FileCheckpointSink(tmp_path / "main.ckpt")
    main_algorithm(instance, checkpoint_every=3, checkpoint_sink=sink)
    assert os.path.exists(sink.path)
    resumed = resume_from_checkpoint(instance, sink.path)
    assert resumed.selection == reference.selection
    assert resumed.value == reference.value


def test_resumed_run_keeps_checkpointing():
    instance = random_instance(seed=31, n_photos=30, n_subsets=6, budget_fraction=0.5)
    first = MemoryCheckpointSink()
    reference = lazy_greedy(instance, CB, checkpoint_every=2, checkpoint_sink=first)
    second = MemoryCheckpointSink()
    resumed = lazy_greedy(
        instance,
        CB,
        resume_from=first.docs[0],
        checkpoint_every=2,
        checkpoint_sink=second,
    )
    assert resumed.selection == reference.selection
    assert second.docs, "resumed run must emit fresh checkpoints"
    assert len(second.docs[-1]["picks"]) > len(first.docs[0]["picks"])


def test_solve_facade_reports_resume_extras():
    instance = random_instance(seed=37, n_photos=30, n_subsets=6, budget_fraction=0.5)
    sink = MemoryCheckpointSink()
    baseline = solve(instance, "phocus", checkpoint_every=2, checkpoint_sink=sink)
    resumed = solve(instance, "phocus", resume_from=sink.docs[0])
    assert resumed.selection == baseline.selection
    assert resumed.value == baseline.value
    assert resumed.extras["resumed_from_picks"] >= 1
    assert "resumed_from_picks" not in baseline.extras


# ------------------------------------------------------ format stability


def test_golden_cb_checkpoint_still_resumes():
    """A format-1 main_algorithm checkpoint (CB phase, mid-pass) written
    before multi-fidelity solves shared the driver resumes to the
    uninterrupted answer — journals already on disk keep working."""
    fixture = json.loads(GOLDEN.read_text())
    params = {k: v for k, v in fixture["instance"].items() if k != "generator"}
    instance = random_instance(**params)
    doc = fixture["checkpoint"]
    assert doc["phase"] == CB and doc["inner"]["picks"]
    expected = fixture["expected"]
    for source in (doc, decode_record_b64(encode_record_b64(doc))):
        resumed = resume_from_checkpoint(instance, source)
        assert resumed.selection == expected["selection"]
        assert resumed.value == expected["value"]
        assert resumed.cost == expected["cost"]
        assert resumed.mode == expected["mode"]
        assert resumed.evaluations == expected["evaluations"]
    # The parent encoding is still what the solver writes today.
    sink = MemoryCheckpointSink()
    main_algorithm(instance, checkpoint_every=1, checkpoint_sink=sink)
    assert doc in sink.docs


# ------------------------------------------------ multi-fidelity resume


def _fidelity_instance():
    costs, emb = synthetic_archive(60, dim=8, noise=0.7, seed=1)
    instance, _ = build_streamed_instance(
        costs, emb, float(costs.sum()) * 0.15, tau=0.5, rng=1, retained=[0, 7]
    )
    return instance, VariantCatalog.default(instance.costs)


def _same_fidelity_run(a, b):
    assert a.selection == b.selection
    assert a.chosen == b.chosen
    assert a.value == b.value
    assert a.cost == b.cost
    assert a.evaluations == b.evaluations
    assert a.upgrades == b.upgrades


@pytest.mark.parametrize("mode", [UC, CB])
def test_fidelity_resume_matches_uninterrupted_at_every_checkpoint(mode):
    instance, catalog = _fidelity_instance()
    reference = lazy_greedy(instance, mode, catalog=catalog)
    # Upgrades only pay off against cost: the CB pass must exercise them.
    assert reference.upgrades or mode == UC
    sink = MemoryCheckpointSink()
    lazy_greedy(instance, mode, catalog=catalog, checkpoint_every=1, checkpoint_sink=sink)
    assert sink.docs
    for doc in sink.docs:
        resumed = lazy_greedy(instance, mode, catalog=catalog, resume_from=doc)
        _same_fidelity_run(resumed, reference)


def test_fidelity_main_algorithm_resume_both_phases():
    instance, catalog = _fidelity_instance()
    reference = main_algorithm(instance, catalog=catalog)
    sink = MemoryCheckpointSink()
    main_algorithm(instance, catalog=catalog, checkpoint_every=2, checkpoint_sink=sink)
    assert {doc["phase"] for doc in sink.docs} == {"UC", "CB"}
    for doc in sink.docs:
        resumed = main_algorithm(instance, catalog=catalog, resume_from=doc)
        _same_fidelity_run(resumed, reference)
        assert resumed.mode == reference.mode


def test_plain_and_fidelity_checkpoints_never_cross_resume():
    instance, catalog = _fidelity_instance()
    plain, fidelity = MemoryCheckpointSink(), MemoryCheckpointSink()
    main_algorithm(instance, checkpoint_every=1, checkpoint_sink=plain)
    main_algorithm(
        instance, catalog=catalog, checkpoint_every=1, checkpoint_sink=fidelity
    )
    with pytest.raises(CheckpointError, match="plain solve"):
        main_algorithm(instance, catalog=catalog, resume_from=plain.last)
    with pytest.raises(CheckpointError, match="multi-fidelity solve"):
        main_algorithm(instance, resume_from=fidelity.last)
    with pytest.raises(CheckpointError, match="plain solve"):
        lazy_greedy(instance, CB, catalog=catalog, resume_from=plain.last["inner"])
    smaller = VariantCatalog.from_levels(instance.costs, [(0.85, 0.45)])
    with pytest.raises(CheckpointError, match="variants"):
        main_algorithm(instance, catalog=smaller, resume_from=fidelity.last)
