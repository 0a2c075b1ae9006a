"""Shared fixtures: synthetic corpora plus a model trained on one of them.

The two corpora use the same schedule but independent seeds, so any
test that trains on one and evaluates on the other sees genuinely
held-out turn timing.
"""

import pytest

from floorspace.corpus import GeneratorConfig, generate
from floorspace.learner import make_training_instances, train

SPLIT = ((0, 1), (2, 3))
MERGED = ((0, 1, 2, 3),)


def split_merge_schedule(duration_ms, epoch_ms):
    """Alternate two 2-person floors with one merged floor of four."""
    schedule = []
    t, i = 0, 0
    while t < duration_ms:
        schedule.append((t, SPLIT if i % 2 == 0 else MERGED))
        t += epoch_ms
        i += 1
    return schedule


def four_party_config(seed, duration_ms=600_000, epoch_ms=100_000):
    return GeneratorConfig(
        participants=4,
        duration_ms=duration_ms,
        schedule=split_merge_schedule(duration_ms, epoch_ms),
        seed=seed,
    )


@pytest.fixture(scope="session")
def train_corpus():
    return generate(four_party_config(seed=11))


@pytest.fixture(scope="session")
def eval_corpus():
    return generate(four_party_config(seed=99))


def instances_for(corpus, sample_period_ms=1000):
    return make_training_instances(
        corpus.streams(),
        corpus.utterances(),
        duration_ms=corpus.duration_ms,
        sample_period_ms=sample_period_ms,
    )


@pytest.fixture(scope="session")
def floor_model(train_corpus):
    return train(instances_for(train_corpus))
