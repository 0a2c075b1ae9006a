"""End-to-end command-line runs, in process, against temp files."""

import json
import socket
import wave
from types import SimpleNamespace

import pytest

from floorspace.cli import main
from floorspace.corpus import Corpus, TurnRecord, generate, save_corpus

from conftest import four_party_config


@pytest.fixture(scope="module")
def art(tmp_path_factory):
    """A generated corpus and a model trained on it, both on disk."""
    d = tmp_path_factory.mktemp("cli")
    gen_cfg = {
        "participants": 4,
        "duration_ms": 45_000,
        "schedule": [[0, [[0, 1], [2, 3]]]],
        "seed": 71,
    }
    cfg_path = d / "gen.json"
    cfg_path.write_text(json.dumps(gen_cfg))
    corpus_path = d / "train.corpus"
    assert main(["simulate", "--gen-config", str(cfg_path), "--out", str(corpus_path)]) == 0
    model_path = d / "model.json"
    assert main(["train", "--corpus", str(corpus_path), "--out", str(model_path)]) == 0
    return SimpleNamespace(
        dir=d, gen_cfg=cfg_path, corpus=corpus_path, model=model_path
    )


# --- simulate -----------------------------------------------------------------


def test_simulate_is_deterministic(tmp_path, art, capsys):
    a, b = tmp_path / "a.corpus", tmp_path / "b.corpus"
    assert main(["simulate", "--gen-config", str(art.gen_cfg), "--out", str(a)]) == 0
    assert main(["simulate", "--gen-config", str(art.gen_cfg), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    out = capsys.readouterr().out
    assert "generated" in out and "seed 71" in out


def test_simulate_seed_override_changes_the_corpus(tmp_path, art, capsys):
    a = tmp_path / "a.corpus"
    assert main(
        ["simulate", "--gen-config", str(art.gen_cfg), "--out", str(a), "--seed", "5"]
    ) == 0
    assert a.read_bytes() != art.corpus.read_bytes()
    assert "seed 5" in capsys.readouterr().out


def test_simulate_rejects_bad_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("not valid json {")
    rc = main(["simulate", "--gen-config", str(bad), "--out", str(tmp_path / "x")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "bad.json" in err
    assert len(err.splitlines()) == 1


# --- train --------------------------------------------------------------------


def test_train_reports_instance_counts(tmp_path, art, capsys):
    out = tmp_path / "m.json"
    assert main(["train", "--corpus", str(art.corpus), "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "trained on" in text
    assert "model written to" in text
    # retraining on the same corpus reproduces the model byte for byte
    assert out.read_bytes() == art.model.read_bytes()


def test_train_accepts_multiple_corpora(tmp_path, art, capsys):
    out = tmp_path / "m.json"
    rc = main(
        ["train", "--corpus", str(art.corpus), "--corpus", str(art.corpus),
         "--out", str(out)]
    )
    assert rc == 0
    assert "from 2 corpus file(s)" in capsys.readouterr().out


def test_train_needs_both_classes(tmp_path, capsys):
    turns = []
    for k in range(20):
        turns.append(TurnRecord("a", k * 2000, k * 2000 + 900, 0))
        turns.append(TurnRecord("b", k * 2000 + 1000, k * 2000 + 1900, 0))
    corpus = Corpus(["a", "b"], turns, duration_ms=40_000)
    path = tmp_path / "onefloor.corpus"
    save_corpus(corpus, str(path))
    rc = main(["train", "--corpus", str(path), "--out", str(tmp_path / "m.json")])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


def test_train_missing_corpus_file(tmp_path, capsys):
    rc = main(
        ["train", "--corpus", str(tmp_path / "nope.corpus"),
         "--out", str(tmp_path / "m.json")]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


# --- eval ---------------------------------------------------------------------


def test_eval_oracle_is_perfect(tmp_path, art, capsys):
    report_path = tmp_path / "report.json"
    rc = main(
        ["eval", "--model", str(art.model), "--corpus", str(art.corpus),
         "--oracle", "--report", str(report_path)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "pairwise accuracy" in out
    doc = json.loads(report_path.read_text())
    assert doc["configuration_accuracy"] == 1.0
    assert doc["pairwise_accuracy"] == 1.0


def test_eval_rejects_short_corpora(tmp_path, capsys):
    corpus = generate(four_party_config(seed=72, duration_ms=20_000, epoch_ms=20_000))
    path = tmp_path / "short.corpus"
    save_corpus(corpus, str(path))
    model = tmp_path / "m.json"
    assert main(["train", "--corpus", str(path), "--out", str(model)]) == 0
    capsys.readouterr()
    rc = main(["eval", "--model", str(model), "--corpus", str(path)])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1


def test_eval_missing_model_file(tmp_path, art, capsys):
    rc = main(
        ["eval", "--model", str(tmp_path / "nope.json"), "--corpus", str(art.corpus)]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


# --- replay -------------------------------------------------------------------


def test_replay_prints_events_and_writes_a_timeline(tmp_path, art, capsys):
    timeline = tmp_path / "timeline.tsv"
    rc = main(
        ["replay", "--corpus", str(art.corpus), "--model", str(art.model),
         "--oracle", "--timeline", str(timeline)]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "configuration changes" in out
    assert "@" in out and "score=" in out
    lines = timeline.read_text().splitlines()
    assert lines[0] == "tick_ms\tchosen\ttruth"
    assert len(lines) == 1 + 45_000 // 30


# --- mixdown ------------------------------------------------------------------


def test_mixdown_renders_tones(tmp_path, art, capsys):
    out = tmp_path / "mix.wav"
    rc = main(
        ["mixdown", "--corpus", str(art.corpus), "--model", str(art.model),
         "--listener", "A", "--out", str(out), "--tones"]
    )
    assert rc == 0
    assert "written to" in capsys.readouterr().out
    with wave.open(str(out), "rb") as wf:
        assert wf.getnchannels() == 1
        assert wf.getframerate() == 8000
        assert wf.getnframes() == 45_000 * 8


def test_mixdown_requires_participant_audio(tmp_path, art, capsys):
    rc = main(
        ["mixdown", "--corpus", str(art.corpus), "--model", str(art.model),
         "--listener", "A", "--out", str(tmp_path / "mix.wav"),
         "--audio-dir", str(tmp_path)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "A.wav" in err


def test_mixdown_rejects_unknown_listener(tmp_path, art, capsys):
    rc = main(
        ["mixdown", "--corpus", str(art.corpus), "--model", str(art.model),
         "--listener", "zed", "--out", str(tmp_path / "mix.wav"), "--tones"]
    )
    assert rc == 1
    assert "zed" in capsys.readouterr().err


# --- serve --------------------------------------------------------------------


def test_serve_reports_a_port_conflict(art, capsys):
    blocker = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    blocker.bind(("127.0.0.1", 0))
    port = blocker.getsockname()[1]
    try:
        rc = main(
            ["serve", "--audio-port", str(port), "--control-port", "0",
             "--model", str(art.model)]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")
    finally:
        blocker.close()


def test_serve_requires_a_model(capsys):
    rc = main(["serve", "--audio-port", "0", "--control-port", "0"])
    assert rc == 1
    assert "model" in capsys.readouterr().err


def test_serve_reports_a_vad_that_is_not_an_object(tmp_path, art, capsys):
    path = tmp_path / "server.json"
    for vad in (None, 5, [1]):
        path.write_text(json.dumps({"model_path": str(art.model), "vad": vad}))
        rc = main(["serve", "--config", str(path), "--audio-port", "0",
                   "--control-port", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "bad server config" in err


def test_serve_reports_a_port_out_of_range(art, capsys):
    rc = main(["serve", "--audio-port", "70000", "--control-port", "0",
               "--model", str(art.model)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "audio_port" in err


def test_serve_reports_a_jitter_depth_below_one_frame(tmp_path, art, capsys):
    path = tmp_path / "server.json"
    path.write_text(json.dumps({"model_path": str(art.model), "jitter_depth_ms": 0}))
    rc = main(["serve", "--config", str(path), "--audio-port", "0", "--control-port", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "jitter_depth_ms" in err


def test_serve_reports_a_dwell_that_is_not_an_integer(tmp_path, art, capsys):
    path = tmp_path / "server.json"
    path.write_text(json.dumps({"model_path": str(art.model), "dwell_ms": "600"}))
    rc = main(["serve", "--config", str(path), "--audio-port", "0", "--control-port", "0"])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "dwell_ms" in err


@pytest.mark.parametrize("command", ["eval", "replay", "mixdown"])
def test_a_negative_dwell_is_an_error(tmp_path, art, capsys, command):
    argv = [command, "--corpus", str(art.corpus), "--model", str(art.model), "--dwell", "-5"]
    if command == "mixdown":
        argv += ["--listener", "A", "--out", str(tmp_path / "mix.wav"), "--tones"]
    assert main(argv) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "dwell_ms" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "mix.wav").exists()


# --- argument errors ----------------------------------------------------------


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--out", "m.json"])
    assert exc.value.code == 2
