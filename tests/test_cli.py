"""End-to-end command-line runs, in process, against temp files."""

import json
import re
import shlex
import socket
import wave
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from floorspace.cli import main
from floorspace.corpus import Corpus, TurnRecord, generate, load_corpus, save_corpus
from floorspace.learner import TrainingSet, save_model, train

from conftest import four_party_config, instances_for


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


@pytest.mark.parametrize("duration", [6e4, True])
def test_simulate_rejects_a_duration_that_is_not_an_integer(tmp_path, capsys, duration):
    # 6e4 wrote "duration 60000.0", a corpus its own loader rejects
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"participants": 2, "duration_ms": duration,
                               "schedule": [[0, [[0, 1]]]]}))
    out = tmp_path / "x.corpus"
    assert main(["simulate", "--gen-config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert err.startswith("error:") and "duration_ms" in err
    assert len(err.splitlines()) == 1
    assert captured.out == "" and not out.exists()


@pytest.mark.parametrize("change, field", [
    # "(seed True)" was printed over a generated corpus
    ({"seed": True}, "seed"),
    ({"turn_sigma": True}, "turn_sigma"),
    # a TypeError traceback from the generator
    ({"min_turn_ms": "x"}, "min_turn_ms"),
    # int() truncated the times to 0 and 5000, and the member to 1
    ({"schedule": [[0.9, [[0, 1]]], [5000, [[0], [1]]]]}, "schedule epoch time"),
    ({"schedule": [[0, [[0, 1]]], [5000.7, [[0], [1]]]]}, "schedule epoch time"),
    ({"schedule": [[0, [[0, 1.7]]]]}, "member of the epoch"),
])
def test_simulate_rejects_a_setting_the_rules_refuse(tmp_path, capsys, change, field):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({"participants": 2, "duration_ms": 10_000,
                               "schedule": [[0, [[0, 1]]]], **change}))
    out = tmp_path / "x.corpus"
    assert main(["simulate", "--gen-config", str(cfg), "--out", str(out)]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert err.startswith("error:") and field in err
    assert len(err.splitlines()) == 1
    assert captured.out == "" and not out.exists()


def test_the_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    """Every command of the README's quick start but ``serve``, in order, on
    the generator config the README gives."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Quick start", 1)[1].split("\n## ", 1)[0]
    commands, config = re.findall(r"```(?:json)?\n(.*?)```", section, re.S)[:2]
    monkeypatch.chdir(tmp_path)
    (tmp_path / "room.json").write_text(config)
    lines = [shlex.split(line) for line in commands.splitlines() if line.strip()]
    assert all(line[0] == "floorspace" for line in lines)
    for argv in lines:
        if argv[1] != "serve":
            assert main(argv[1:]) == 0, argv
    capsys.readouterr()
    for name in ("session.corpus", "other.corpus", "model.json", "report.json",
                 "timeline.tsv", "mix_A.wav"):
        assert (tmp_path / name).stat().st_size > 0, name


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
    # the model of two corpus files is the model of their instances together
    other = tmp_path / "other.corpus"
    save_corpus(generate(four_party_config(seed=72, duration_ms=45_000, epoch_ms=15_000)),
                str(other))
    out = tmp_path / "m.json"
    rc = main(["train", "--corpus", str(art.corpus), "--corpus", str(other), "--out", str(out)])
    assert rc == 0
    sets = [instances_for(load_corpus(str(path))) for path in (art.corpus, other)]
    together = TrainingSet(np.concatenate([s.labels for s in sets]),
                           np.concatenate([s.bins for s in sets]), sets[0].binning)
    text = capsys.readouterr().out
    assert f"trained on {len(together)} instances" in text
    assert "from 2 corpus file(s)" in text
    want = tmp_path / "want.json"
    save_model(train(together), str(want))
    assert out.read_bytes() == want.read_bytes()
    # and is neither file's model alone
    for one in sets:
        save_model(train(one), str(want))
        assert out.read_bytes() != want.read_bytes()


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


@pytest.mark.parametrize("period", ["0", "-5"])
def test_train_rejects_a_sample_period_below_one_ms(tmp_path, art, capsys, period):
    rc = main(["train", "--corpus", str(art.corpus), "--out", str(tmp_path / "m.json"),
               "--sample-period", period])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "sample period" in err
    assert len(err.splitlines()) == 1
    assert not (tmp_path / "m.json").exists()


def test_train_into_a_directory_leaves_no_temp_file(tmp_path, art, capsys):
    # the model is written beside --out and renamed onto it; the rename fails
    out = tmp_path / "models"
    out.mkdir()
    rc = main(["train", "--corpus", str(art.corpus), "--out", str(out)])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["models"]
    assert not any(out.iterdir())


def test_train_missing_corpus_file(tmp_path, capsys):
    rc = main(
        ["train", "--corpus", str(tmp_path / "nope.corpus"),
         "--out", str(tmp_path / "m.json")]
    )
    assert rc == 1
    assert capsys.readouterr().err.startswith("error:")


def test_a_corpus_that_is_not_utf8_is_one_error_line(tmp_path, art, capsys):
    # a UnicodeDecodeError traceback, before the read named the path
    path = tmp_path / "bad.corpus"
    path.write_bytes(b"floorspace-corpus 1\nduration 1000\nparticipant \xff\n")
    assert main(["replay", "--corpus", str(path), "--model", str(art.model)]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert err.startswith("error: cannot read corpus file") and str(path) in err
    assert len(err.splitlines()) == 1 and not captured.out


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


def test_mixdown_reports_a_participant_file_that_is_not_a_wav(tmp_path, art, capsys):
    for name in "ABCD":
        (tmp_path / f"{name}.wav").write_bytes(b"RIFF\x04\x00\x00\x00WAVE")
    rc = main(
        ["mixdown", "--corpus", str(art.corpus), "--model", str(art.model),
         "--listener", "A", "--out", str(tmp_path / "mix.wav"),
         "--audio-dir", str(tmp_path)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and ".wav" in err and "not a WAV file" in err
    assert len(err.splitlines()) == 1


def test_mixdown_reports_a_participant_file_cut_mid_sample(tmp_path, art, capsys):
    for name in "ABCD":
        path = tmp_path / f"{name}.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(8000)
            wf.writeframes(b"\x00" * 1600)
        path.write_bytes(path.read_bytes()[:-1])
    rc = main(
        ["mixdown", "--corpus", str(art.corpus), "--model", str(art.model),
         "--listener", "A", "--out", str(tmp_path / "mix.wav"),
         "--audio-dir", str(tmp_path)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "A.wav" in err and "cut short" in err
    assert len(err.splitlines()) == 1


def test_mixdown_reports_a_participant_file_cut_on_a_sample_boundary(tmp_path, art, capsys):
    for name in "ABCD":
        path = tmp_path / f"{name}.wav"
        with wave.open(str(path), "wb") as wf:
            wf.setnchannels(1)
            wf.setsampwidth(2)
            wf.setframerate(8000)
            wf.writeframes(b"\x00" * 1600)
        path.write_bytes(path.read_bytes()[:-600])
    rc = main(
        ["mixdown", "--corpus", str(art.corpus), "--model", str(art.model),
         "--listener", "A", "--out", str(tmp_path / "mix.wav"),
         "--audio-dir", str(tmp_path)]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "A.wav" in err
    assert "declares 800 samples, its data holds 500" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("where", ["missing", "directory"])
def test_mixdown_to_a_path_it_cannot_open_is_one_error_line(tmp_path, art, capsys, where):
    out = tmp_path / "missing" / "mix.wav" if where == "missing" else tmp_path
    rc = main(
        ["mixdown", "--corpus", str(art.corpus), "--model", str(art.model),
         "--listener", "A", "--out", str(out), "--tones"]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and len(err.splitlines()) == 1


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
    # the detector takes no settings: any vad value is an unknown field
    path = tmp_path / "server.json"
    for vad in (None, 5, [1], {}):
        path.write_text(json.dumps({"model_path": str(art.model), "vad": vad}))
        rc = main(["serve", "--config", str(path), "--audio-port", "0",
                   "--control-port", "0"])
        assert rc == 1
        err = capsys.readouterr().err.strip()
        assert err == "error: unknown server config fields: ['vad']"


def test_serve_reports_a_port_out_of_range(art, capsys):
    rc = main(["serve", "--audio-port", "70000", "--control-port", "0",
               "--model", str(art.model)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "audio_port" in err


@pytest.mark.parametrize("field, value", [("max_participants", 2.5), ("audio_port", 0.5)])
def test_serve_reports_a_count_or_port_that_is_not_an_integer(tmp_path, art, capsys,
                                                              field, value):
    # both printed a traceback: a TypeError from the search tables' build or from bind
    path = tmp_path / "server.json"
    path.write_text(json.dumps({"model_path": str(art.model), "audio_port": 0,
                                "control_port": 0, field: value}))
    rc = main(["serve", "--config", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err and len(err.splitlines()) == 1


@pytest.mark.parametrize("field, value", [("host", 5), ("model_path", 7), ("model_path", True)])
def test_serve_reports_a_host_or_model_path_that_is_not_a_string(tmp_path, capsys, field, value):
    # a TypeError traceback from bind; a read of descriptor 7; stdout closed
    path = tmp_path / "server.json"
    path.write_text(json.dumps({"audio_port": 0, "control_port": 0, field: value}))
    rc = main(["serve", "--config", str(path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and field in err and len(err.splitlines()) == 1


def test_serve_reports_a_jitter_depth_below_one_frame(tmp_path, art, capsys):
    # a JSON file may spell Infinity and NaN, and Python's json reads both
    path = tmp_path / "server.json"
    for depth in ("0", "Infinity", "NaN", "60.5"):
        path.write_text(f'{{"model_path": {json.dumps(str(art.model))}, "jitter_depth_ms": {depth}}}')
        rc = main(["serve", "--config", str(path), "--audio-port", "0", "--control-port", "0"])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "jitter_depth_ms" in err


def test_serve_refuses_a_config_that_names_the_dwell(tmp_path, art, capsys):
    # the server no longer holds a regroup back, so the field is unknown
    path = tmp_path / "server.json"
    path.write_text(json.dumps({"model_path": str(art.model), "dwell_ms": 600}))
    rc = main(["serve", "--config", str(path), "--audio-port", "0", "--control-port", "0"])
    assert rc == 1
    err = capsys.readouterr().err.strip()
    assert err == "error: unknown server config fields: ['dwell_ms']"


@pytest.mark.parametrize("doc", ["[[1]]", '"x"', "5", "null"])
def test_serve_reports_a_config_that_is_not_an_object(tmp_path, capsys, doc):
    # [[1]] ended in "TypeError: unhashable type", and "x" was read as a field
    path = tmp_path / "server.json"
    path.write_text(doc)
    assert main(["serve", "--config", str(path)]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and "JSON object" in err and len(err.splitlines()) == 1


def test_serve_reports_a_vad_floor_of_infinity(tmp_path, art, capsys):
    # JSON's Infinity parses, but the detector's floor is a constant
    path = tmp_path / "server.json"
    path.write_text(f'{{"model_path": {json.dumps(str(art.model))}, '
                    '"vad": {"energy_floor_db": Infinity}}')
    assert main(["serve", "--config", str(path), "--audio-port", "0", "--control-port", "0"]) == 1
    err = capsys.readouterr().err.strip()
    assert err == "error: unknown server config fields: ['vad']"


# --- bad files ------------------------------------------------------------------

BAD_FILES = {
    "missing": None,
    "directory": None,
    "not utf-8": b'{"seed": "\xff"}',
    "not json": b"not valid json {",
    # past the parser's recursion limit: a RecursionError traceback
    "nested 100 000 deep": b"[" * 100_000 + b"]" * 100_000,
    "not an object": b"[1, 2]",
}


@pytest.mark.parametrize("case", BAD_FILES)
@pytest.mark.parametrize("command, flag, what", [
    ("serve", "--config", "server config"),
    ("simulate", "--gen-config", "generator config"),
    ("eval", "--model", "model file"),
])
def test_a_bad_json_file_ends_the_command_with_one_error_line(tmp_path, art, capsys,
                                                              command, flag, what, case):
    path = tmp_path / "bad.json"
    if case == "directory":
        path.mkdir()
    elif BAD_FILES[case] is not None:
        path.write_bytes(BAD_FILES[case])
    argv = {
        "serve": ["--audio-port", "0", "--control-port", "0"],
        "simulate": ["--out", str(tmp_path / "x.corpus")],
        "eval": ["--corpus", str(art.corpus)],
    }[command]
    assert main([command, flag, str(path), *argv]) == 1
    captured = capsys.readouterr()
    err = captured.err.strip()
    assert err.startswith("error:") and what in err and len(err.splitlines()) == 1
    assert not captured.out and not (tmp_path / "x.corpus").exists()


@pytest.mark.parametrize("entry, value", [("tables.trp_gap.same[0]", float("inf")),
                                          ("priors.diff", "0.5")])
@pytest.mark.parametrize("command", ["eval", "serve"])
def test_a_model_entry_that_is_no_probability_is_one_error_line(tmp_path, art, capsys,
                                                                 command, entry, value):
    doc = json.loads(art.model.read_text())
    if entry == "priors.diff":
        doc["priors"]["diff"] = value
    else:
        doc["tables"]["trp_gap"]["same"][0] = value
    path = tmp_path / "model.json"
    path.write_text(json.dumps(doc))
    argv = {"eval": ["--corpus", str(art.corpus)],
            "serve": ["--audio-port", "0", "--control-port", "0"]}[command]
    assert main([command, "--model", str(path), *argv]) == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and entry in err and len(err.splitlines()) == 1


# --- argument errors ----------------------------------------------------------


def test_unknown_subcommand_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_missing_required_flag_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--out", "m.json"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["eval", "replay", "mixdown"])
def test_a_dwell_flag_is_a_usage_error(tmp_path, art, capsys, command):
    # the dwell is gone: the flag is refused before anything is read or written
    argv = [command, "--corpus", str(art.corpus), "--model", str(art.model), "--dwell", "600"]
    if command == "mixdown":
        argv += ["--listener", "A", "--out", str(tmp_path / "mix.wav"), "--tones"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: floorspace ")
    assert "unrecognized arguments: --dwell 600" in err
    assert not (tmp_path / "mix.wav").exists()
