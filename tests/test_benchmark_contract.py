"""The names that the benchmark's span tracer wraps exist where it looks them
up, so that a change which removes or moves one fails here, not only in the
benchmark's own self-test."""

import dataclasses
import sys
from collections import Counter
from pathlib import Path

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
