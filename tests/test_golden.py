"""Byte-identical outputs on the conftest corpora.

The model file, the ``eval --report`` JSON, the ``replay --timeline``
TSV and the ``mixdown --tones`` WAVs are pinned by their sha256. A
change that moves any of these bytes changes what the program
decides; a pure refactor or speed-up must leave them alone.
"""

import hashlib

import pytest

from floorspace import save_corpus, save_model
from floorspace.cli import main

MODEL_SHA256 = "5a3b5db4d2ea0071db5be200fa03d19c7c83a3afb0e3e7e5a8fda32a7b829210"

REPORT_SHA256 = {
    11: "f81241ad282d4a1d6b7f0f768de5a4ff401ad8dd9235aaa21895d26b4c22260e",
    99: "30ab3dc1829949b9718bd00c3f3e06950ddf0429e97a58b2c76d5f0a987651a7",
}

TIMELINE_SHA256 = {
    11: "c3bd0e3b97b1dd8936d08813cd478f4d009a4604c180d073e911221459c5ebd7",
    99: "6d7933fee70366338dfd589730c4ca3493a51096dd9773e2b9f669cd24e732c0",
}

# listeners of the seed-99 corpus
MIX_SHA256 = {
    "A": "f8b9d6e24d82172434a48eb964949ece2562de7b457cc43efbcd98939c3991b4",
    "B": "335adf24186047c460b4acc47b5b3c230ef9d34861d17523663683eab8c22fbd",
    "C": "e433c6442ea132c2fe13cbfe0feeb9750b2891a545ee41e6c9d2bb2bfebe689f",
    "D": "b970eb68cfcfe8e5ef8f01c5460b8e5a44e4428060ce762093eb45b1e3c4e44e",
}


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def files(tmp_path_factory, train_corpus, eval_corpus, floor_model):
    d = tmp_path_factory.mktemp("golden")
    model = d / "model.json"
    save_model(floor_model, str(model))
    corpora = {11: d / "seed11.corpus", 99: d / "seed99.corpus"}
    save_corpus(train_corpus, str(corpora[11]))
    save_corpus(eval_corpus, str(corpora[99]))
    return d, model, corpora


def test_model_file_is_unchanged(files):
    _, model, _ = files
    assert sha256(model) == MODEL_SHA256


@pytest.mark.parametrize("seed", [11, 99])
def test_eval_report_and_replay_timeline_are_unchanged(files, seed, capsys):
    d, model, corpora = files
    report = d / f"report{seed}.json"
    timeline = d / f"timeline{seed}.tsv"
    corpus = str(corpora[seed])
    assert main(["eval", "--model", str(model), "--corpus", corpus,
                 "--report", str(report)]) == 0
    assert main(["replay", "--model", str(model), "--corpus", corpus,
                 "--timeline", str(timeline)]) == 0
    capsys.readouterr()
    assert sha256(report) == REPORT_SHA256[seed]
    assert sha256(timeline) == TIMELINE_SHA256[seed]


def test_tone_mixdowns_are_unchanged(files, eval_corpus, capsys):
    d, model, corpora = files
    got = {}
    for name in eval_corpus.participants:
        out = d / f"mix-{name}.wav"
        assert main(["mixdown", "--model", str(model), "--corpus", str(corpora[99]),
                     "--listener", name, "--tones", "--out", str(out)]) == 0
        got[name] = sha256(out)
    capsys.readouterr()
    assert got == MIX_SHA256
