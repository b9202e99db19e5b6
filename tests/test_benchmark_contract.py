"""The names that the benchmark's span tracer wraps exist where it looks them
up, and the corpus rows iterate as the records that its workloads read, so
that a change which removes or moves one fails here, not only in the
benchmark's own self-test."""

import dataclasses
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from beamtrain import harness

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


def test_every_traced_name_is_an_attribute_of_its_owner():
    for owner, attr, _, _ in spans._targets():
        assert attr in vars(owner), f"{owner.__name__}.{attr}"


def test_a_traced_corpus_records_each_transform_once():
    config = dataclasses.replace(harness.ExperimentConfig.smoke(), snapshot_count=3)
    with spans.Tracer(config) as tracer:
        harness.build_corpus(config)
    names = Counter(span[0] for span in tracer.spans)
    assert names["dataset.to_throughput_ratios"] == 1
    assert names["dataset.to_atr"] == 1


def test_corpus_rows_iterate_as_the_records_that_the_benchmark_reads():
    """The benchmark reads `build_corpus`'s three row bundles by `len()` and
    by iterating them for the attributes `location`, `rates`, `ratios`,
    `atr_f`, `snapshot_id` and `ue_index`. Each record is that row of every
    column, bit for bit, and the records come in (snapshot_id, ue_index)
    order in all three bundles."""
    config = dataclasses.replace(harness.ExperimentConfig.smoke(), snapshot_count=3)
    _, rate_rows, tr_rows, atr_rows = harness.build_corpus(config)
    keys = list(zip(rate_rows.snapshot_id.tolist(), rate_rows.ue_index.tolist()))
    assert keys and keys == sorted(keys) and len(set(keys)) == len(keys)
    for rows, names in ((rate_rows, ("location", "rates", "snapshot_id", "ue_index")),
                        (tr_rows, ("location", "ratios")), (atr_rows, ("atr_f", "atr_w"))):
        assert all(len(rows) == len(getattr(rows, name)) == len(keys) for name in names)
        records = list(rows)
        assert len(records) == len(rows)
        for i, record in enumerate(records):
            for name in names:
                value, column = np.asarray(getattr(record, name)), getattr(rows, name)
                assert value.dtype == column.dtype and value.tobytes() == column[i].tobytes()
    # the TR and ATR records of row i are those of rate record i
    grid = (config.num_combiners, config.num_beamformers)
    for rate, tr, atr in zip(rate_rows, tr_rows, atr_rows):
        assert tr.ratios.tobytes() == (rate.rates / np.max(rate.rates)).tobytes()
        assert atr.atr_f.tobytes() == tr.ratios.reshape(grid).mean(axis=0).tobytes()
