"""Top-level acceptance gate.

One test per shipping criterion. Each prints a single
"criterion N: PASS/FAIL" line (visible with -s, or in the -v test
status) and fails loudly if its bound is missed. Oracles here are
deliberately independent re-derivations: restricted growth strings
for the partition search, interval arithmetic for the features, the
classic Sun companding formulas for the codec, and plain-product
Bayes for the classifier.
"""

import time

import numpy as np

from floorspace.assigner import (
    EVAL_PERIOD_MS,
    FloorAssigner,
    FloorConfiguration,
    NORMAL_GAIN,
    QUIET_GAIN,
    enumerate_partitions,
    gains,
)
from floorspace.corpus import GeneratorConfig, generate
from floorspace.evaluation import evaluate, replay_corpus
from floorspace.features import FeatureBinning, FeatureEngine, NO_GAP
from floorspace.learner import DIFF, FEATURE_NAMES, FloorModel, SAME, posterior_batch, train
from floorspace.mixdown import render_listener_mix, tone_audio_for_corpus
from floorspace.mixer import RAMP_SAMPLES, Mixer
from floorspace.timeline import Utterance, stream_from_intervals
from floorspace.transport import Packetizer, decode_ulaw, encode_ulaw
from floorspace.vad import SAMPLE_RATE, VoiceActivityDetector

from conftest import instances_for, loopback_latency_ms


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {n}: {detail}"


# --- independent oracles ------------------------------------------------------

BELL_REFERENCE = [1, 1, 2, 5, 15, 52, 203, 877, 4140]


def rgs_partitions(n):
    """Every partition of range(n) from restricted growth strings."""
    out = []

    def rec(prefix, top):
        if len(prefix) == n:
            blocks = {}
            for i, v in enumerate(prefix):
                blocks.setdefault(v, []).append(i)
            out.append(tuple(tuple(b) for b in blocks.values()))
            return
        for v in range(top + 2):
            rec(prefix + [v], max(top, v))

    rec([], -1)
    return out


def gap_oracle(a_utterances, b_utterances, now):
    """Scan every utterance pair instead of bisecting."""
    started = [u for u in a_utterances if u.start <= now]
    if not started:
        return None
    anchor = started[-1].start
    prior = [u for u in b_utterances if u.start < anchor]
    if not prior:
        return None
    closed = [u.end for u in prior if u.end <= anchor]
    if closed:
        g = anchor - max(closed)
    else:
        g = anchor - min(prior[-1].end, now)
    return g


def overlap_oracle(ia, ib, now, windows):
    """Window overlap counts straight from the interval lists; ``windows``
    are the window lengths, most recent first."""
    out, hi = [], now
    for length in windows:
        lo = hi - length
        # both-speech ticks are the intersections of the two lists' intervals
        out.append(sum(
            max(0, min(ea, eb, hi) - max(sa, sb, lo, 0)) for sa, ea in ia for sb, eb in ib
        ))
        hi = lo
    return tuple(out)


_REF_SEG_END = np.array(
    [0x3F, 0x7F, 0xFF, 0x1FF, 0x3FF, 0x7FF, 0xFFF, 0x1FFF], dtype=np.int64
)


def ref_encode(xs):
    """Classic Sun companding: shift to 14 bits first, then fold the sign."""
    xs = np.asarray(xs, dtype=np.int64)
    v = xs >> 2
    mask = np.where(v < 0, 0x7F, 0xFF)
    v = np.minimum(np.abs(v), 8159) + 33
    seg = np.searchsorted(_REF_SEG_END, v, side="left")
    uval = (np.minimum(seg, 7) << 4) | ((v >> (np.minimum(seg, 7) + 1)) & 0xF)
    code = np.where(seg >= 8, 0x7F ^ mask, uval ^ mask)
    return code.astype(np.uint8)


def ref_decode(codes):
    u = (~np.asarray(codes, dtype=np.int64)) & 0xFF
    t = (((u & 0x0F) << 3) + 0x84) << ((u & 0x70) >> 4)
    return np.where(u & 0x80, 0x84 - t, t - 0x84)


def code_step(codes):
    """Quantization step of each codeword's segment."""
    inv = (~np.asarray(codes, dtype=np.int64)) & 0xFF
    return 8 << ((inv >> 4) & 7)


def random_intervals(rng, horizon):
    out = []
    t = int(rng.integers(0, 500))
    while t < horizon:
        d = int(rng.integers(80, 2600))
        end = min(t + d, horizon)
        if end > t:
            out.append((t, end))
        t += d + int(rng.integers(40, 1800))
    return out


# --- criteria -----------------------------------------------------------------


def test_criterion_01_pipeline_constants():
    ok = True
    # decision cadence and gain levels
    ok &= EVAL_PERIOD_MS == 30
    ok &= NORMAL_GAIN == 1.0 and QUIET_GAIN == 0.2
    ok &= QUIET_GAIN / NORMAL_GAIN == 0.2
    # activity grid is one bit per millisecond
    bits = VoiceActivityDetector().frame_bits(np.zeros(160, np.int16))
    ok &= len(bits) == 20
    # toll quality wire: 8 kHz, one companded byte per sample = 64 kb/s
    ok &= SAMPLE_RATE == 8000
    one_second = encode_ulaw(np.zeros(8000, dtype=np.int16))
    ok &= len(one_second) * 8 == 64000
    pkt = Packetizer(ssrc=1).packetize(np.zeros(160, dtype=np.int16))
    ok &= len(pkt.payload) == 160  # 20 ms of frames -> 8000 B/s
    # steady-state gain matrix: own voice 0, same floor 1.0, other floor 0.2
    cfg = FloorConfiguration(((0, 1), (2, 3)), 1.0)
    m = gains(cfg, [0, 1, 2, 3])
    ok &= m[0, 0] == 0.0
    ok &= m[0, 1] == 1.0
    ok &= m[0, 2] == 0.2 and m[0, 3] == 0.2
    # and the mixer applies it exactly once settled
    out = Mixer().mix_frame([0], [1], np.full((1, 160), 10000, dtype=np.int16), [[QUIET_GAIN]])
    ok &= bool(np.all(out == 2000))
    report(
        1,
        ok,
        "1 ms activity grid, 30 ms evaluation period, 0.2 quiet gain, "
        "64 kb/s wire, gain matrix exact",
    )


def test_criterion_02_partition_enumeration():
    t0 = time.monotonic()
    ok = True
    for n in range(1, 9):
        parts = enumerate_partitions(range(n))
        ok &= len(parts) == BELL_REFERENCE[n]
        ok &= set(parts) == set(rgs_partitions(n))
    elapsed = time.monotonic() - t0
    ok &= elapsed < 1.0
    report(2, ok, f"Bell 1..8 = {BELL_REFERENCE[1:]} vs growth strings, {elapsed:.2f}s")


def test_criterion_03_assigner_matches_exhaustive_search():
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    mismatches = 0
    checked = 0
    for n in range(2, 7):
        members = list(range(n))
        pairs = [(a, b) for i, a in enumerate(members) for b in members[i + 1 :]]
        parts = rgs_partitions(n)
        flags = []
        for part in parts:
            block_of = {m: bi for bi, blk in enumerate(part) for m in blk}
            flags.append([block_of[a] == block_of[b] for a, b in pairs])
        for _ in range(1000):
            post = {k: float(rng.random()) for k in pairs}
            vals = [post[k] for k in pairs]
            scores = [
                sum(v if f else 1.0 - v for v, f in zip(vals, fl)) / len(pairs)
                for fl in flags
            ]
            top = max(scores)
            tied = [parts[i] for i, s in enumerate(scores) if s == top]
            expected = min(tied, key=lambda p: (len(p), p))
            got = FloorAssigner().assign(post, members, now_ms=30).partition
            checked += 1
            if got != expected:
                mismatches += 1
    elapsed = time.monotonic() - t0
    ok = mismatches == 0 and elapsed < 30.0
    report(
        3,
        ok,
        f"{checked} random matrices over n=2..6, {mismatches} mismatches, "
        f"{elapsed:.1f}s",
    )


def test_criterion_04_naive_bayes_correctness(floor_model):
    rng = np.random.default_rng(404)
    binning = FeatureBinning(trp_bin_width_ms=1000, overlap_bins_per_window=4)

    def random_model(r):
        tables = {}
        for name in FEATURE_NAMES:
            raw = r.uniform(0.05, 1.0, size=(2, binning.bins_for(name)))
            tables[name] = raw / raw.sum(axis=1, keepdims=True)
        pr = r.uniform(0.2, 0.8)
        return FloorModel(
            priors=np.array([pr, 1.0 - pr]), tables=tables, binning=binning
        )

    def random_features(r):
        """One row as (gaps, overlaps) arrays of shape (1,) and (1, 3)."""
        gap = NO_GAP if r.random() < 0.2 else int(r.integers(-6000, 6000))
        w1 = int(r.integers(0, 1001))
        w2 = int(r.integers(0, 14001))
        w3 = int(r.integers(0, 15001))
        return [gap], [(w1, w2, w3)]

    def batch_posterior(model, f):
        return float(posterior_batch(model, model.binning.bin_array(*f))[0])

    def hand_posterior(model, f):
        bins = model.binning.bin_array(*f)[0]
        num_s = float(model.priors[SAME])
        num_d = float(model.priors[DIFF])
        for name, b in zip(FEATURE_NAMES, bins):
            num_s *= float(model.tables[name][SAME, b])
            num_d *= float(model.tables[name][DIFF, b])
        return num_s / (num_s + num_d)

    worst = 0.0
    # three constructed models with hand-evaluated posteriors
    uniform = FloorModel(
        priors=np.array([0.3, 0.7]),
        tables={
            n: np.full((2, binning.bins_for(n)), 1.0 / binning.bins_for(n))
            for n in FEATURE_NAMES
        },
        binning=binning,
    )
    # same-class rows put double weight on bin 0, diff-class rows stay flat
    skewed_tables = {}
    for name in FEATURE_NAMES:
        k = binning.bins_for(name)
        row = np.full(k, (1.0 - 2.0 / k) / (k - 1))
        row[0] = 2.0 / k
        skewed_tables[name] = np.vstack([row, np.full(k, 1.0 / k)])
    skewed = FloorModel(
        priors=np.array([0.5, 0.5]), tables=skewed_tables, binning=binning
    )
    seeded = random_model(np.random.default_rng(7))

    probe = ([NO_GAP], [(0, 0, 0)])  # trp missing bin, overlap bin 0
    for model in (uniform, skewed, seeded):
        for f in (probe, random_features(rng), random_features(rng)):
            worst = max(worst, abs(batch_posterior(model, f) - hand_posterior(model, f)))
    ok = worst <= 1e-9
    # uniform tables leave the prior untouched
    ok &= abs(batch_posterior(uniform, probe) - 0.3) <= 1e-9

    # a thousand random small models: log-space vs direct product
    for _ in range(1000):
        model = random_model(rng)
        f = random_features(rng)
        worst = max(worst, abs(batch_posterior(model, f) - hand_posterior(model, f)))
    ok &= worst <= 1e-9

    # trained tables are proper distributions
    row_err = max(
        float(np.abs(table.sum(axis=1) - 1.0).max())
        for table in floor_model.tables.values()
    )
    ok &= row_err <= 1e-9
    report(
        4,
        ok,
        f"hand Bayes on 3 built models + 1000 random models, "
        f"worst gap {worst:.2e}; trained row-sum error {row_err:.2e}",
    )


def engine_features(ia, ib, now, duration, binning):
    """Overlaps and both gaps of participants 0 and 1 from a FeatureEngine
    serving ``binning``, and the engine."""
    views = {
        0: lambda: ([s for s, _ in ia], [e for _, e in ia]),
        1: lambda: ([s for s, _ in ib], [e for _, e in ib]),
    }
    engine = FeatureEngine([0, 1], views, binning, step_ms=1)
    engine.add_activity(np.stack([stream_from_intervals(p, iv, duration_ms=duration).bits
                                  for p, iv in enumerate((ia, ib))]))
    raw = engine.raw([now])
    gaps = [None if g == NO_GAP else g for g in raw.gaps[0].tolist()]
    return (tuple(raw.overlaps[0, 0].tolist()), gaps[0], gaps[1]), engine


def gap_bin_oracle(gap, binning):
    """The bin of a gap: clipped, then fixed-width bins; the top edge
    joins the last bin and a missing gap has its own."""
    if gap is None:
        return binning.missing_bin
    clip, width = binning.trp_clip_ms, binning.trp_bin_width_ms
    return min((max(-clip, min(clip, gap)) + clip) // width, 2 * clip // width - 1)


def test_criterion_05_feature_oracles():
    rng = np.random.default_rng(505)
    gap_checked = overlap_checked = 0
    ok = True
    # the default windows and clip, and a short set
    binnings = (FeatureBinning(),
                FeatureBinning(window_lengths_ms=(500, 2000, 2500), trp_clip_ms=4000))
    for _ in range(1000):
        horizon = int(rng.integers(4000, 36000))
        ia = random_intervals(rng, horizon)
        ib = random_intervals(rng, horizon)
        now = int(rng.integers(500, horizon + 2000))
        duration = now + 100
        delta = int(rng.integers(0, 4000))
        ia2 = [(s + delta, e + delta) for s, e in ia]
        ib2 = [(s + delta, e + delta) for s, e in ib]
        ua = [Utterance(0, s, e) for s, e in ia]
        ub = [Utterance(1, s, e) for s, e in ib]
        gap_ab, gap_ba = gap_oracle(ua, ub, now), gap_oracle(ub, ua, now)

        for binning in binnings:
            got, engine = engine_features(ia, ib, now, duration, binning)
            overlaps = got[0]
            ok &= overlaps == overlap_oracle(ia, ib, now, binning.window_lengths_ms)
            swapped = engine_features(ib, ia, now, duration, binning)[0]
            ok &= swapped == (overlaps, got[2], got[1])
            overlap_checked += 1

            ok &= got[1:] == (gap_ab, gap_ba)
            bins = engine.binned([now])[0, :, 0].tolist()
            ok &= bins == [gap_bin_oracle(gap_ab, binning), gap_bin_oracle(gap_ba, binning)]
            gap_checked += 2

            ok &= engine_features(ia2, ib2, now + delta, duration + delta, binning)[0] == got
    report(
        5,
        ok,
        f"{overlap_checked} FeatureEngine pairs over two window sets vs interval "
        f"oracle with symmetry and translation, {gap_checked} gaps and bins vs scan",
    )


def test_criterion_06_generator_overlap_contrast():
    results = []
    ok = True
    configs = [
        GeneratorConfig(
            participants=4,
            duration_ms=120_000,
            schedule=[(0, ((0, 1), (2, 3)))],
            seed=seed,
        )
        for seed in (301, 302, 303)
    ] + [
        GeneratorConfig(
            participants=5,
            duration_ms=120_000,
            schedule=[(0, ((0, 1), (2, 3, 4)))],
            seed=seed,
        )
        for seed in (304, 305)
    ]
    for cfg in configs:
        corpus = generate(cfg)
        streams = corpus.streams()
        blocks = cfg.schedule[0][1]
        within, cross = [], []
        ids = sorted(streams)
        for i, a in enumerate(ids):
            for b in ids[i + 1 :]:
                rate = float(
                    (
                        streams[a].window(0, cfg.duration_ms)
                        & streams[b].window(0, cfg.duration_ms)
                    ).sum()
                ) / cfg.duration_ms
                same = any(a in blk and b in blk for blk in blocks)
                (within if same else cross).append(rate)
        factor = (sum(cross) / len(cross)) / max(sum(within) / len(within), 1e-12)
        results.append(factor)
        ok &= factor > 2.0
    report(
        6,
        ok,
        "cross/within overlap factor per corpus: "
        + ", ".join(f"{f:.1f}" for f in results),
    )


def test_criterion_07_detection_on_held_out_data(train_corpus, eval_corpus):
    t0 = time.monotonic()
    model = train(instances_for(train_corpus))
    report_, _ = evaluate(eval_corpus, model)
    elapsed = time.monotonic() - t0
    ok = (
        report_.pairwise_accuracy >= 0.85
        and report_.configuration_accuracy >= 0.75
        and elapsed < 120.0
    )
    report(
        7,
        ok,
        f"pairwise {report_.pairwise_accuracy:.4f} (>=0.85), "
        f"configuration {report_.configuration_accuracy:.4f} (>=0.75), "
        f"{elapsed:.1f}s",
    )


def test_criterion_08_codec_against_reference():
    t0 = time.monotonic()
    xs = np.arange(-32768, 32768, dtype=np.int64)
    ours = np.frombuffer(encode_ulaw(xs.astype(np.int16)), dtype=np.uint8)
    ref = ref_encode(xs)

    # byte-identical where the reference's shift-then-negate asymmetry
    # cannot bite
    pos_identical = bool(np.array_equal(ours[32768:], ref[32768:]))

    dec_ours = decode_ulaw(ours.tobytes())
    dec_ref = ref_decode(ref)
    allowed = np.maximum(code_step(ours), code_step(ref))
    diverged = np.abs(dec_ours.astype(np.int64) - dec_ref) > allowed
    within_step = not bool(diverged.any())

    # round trip lands inside the chosen codeword's quantization step
    round_trip_ok = bool(
        np.all(np.abs(dec_ours.astype(np.int64) - xs) <= code_step(ours))
    )

    # full decode table agrees with the reference formula exactly
    table_ok = bool(
        np.array_equal(
            decode_ulaw(bytes(range(256))).astype(np.int64), ref_decode(range(256))
        )
    )
    elapsed = time.monotonic() - t0
    ok = pos_identical and within_step and round_trip_ok and table_ok and elapsed < 1.0
    report(
        8,
        ok,
        f"65536 inputs: non-negative codes identical, decoded divergence "
        f"within one step, decode table exact, {elapsed:.2f}s",
    )


def test_criterion_09_real_time_budget(floor_model):
    split = ((0, 1), (2, 3), (4, 5), (6, 7))
    corpus = generate(
        GeneratorConfig(
            participants=8,
            duration_ms=300_000,
            schedule=[
                (0, split),
                (75_000, ((0, 1, 2, 3), (4, 5, 6, 7))),
                (150_000, split),
                (225_000, ((0, 1, 2, 3, 4, 5, 6, 7),)),
            ],
            seed=77,
        )
    )
    tracks = tone_audio_for_corpus(corpus)
    t0 = time.monotonic()
    result = replay_corpus(corpus, floor_model)
    for listener in sorted(corpus.ids.values()):
        render_listener_mix(corpus, result, listener, tracks=tracks)
    elapsed = time.monotonic() - t0
    speed = 300.0 / elapsed
    latency = loopback_latency_ms()
    ok = elapsed < 300.0 and latency <= 120
    report(
        9,
        ok,
        f"8 participants, 5 min replay + all 8 mixes in {elapsed:.1f}s "
        f"({speed:.0f}x real time); loopback latency {latency} ms (<=120)",
    )


def test_criterion_10_mixer_properties():
    rng = np.random.default_rng(1010)
    ok = True
    # self-exclusion: the listener's own frame never reaches their mix
    for _ in range(50):
        ids = [0, 1, 2, 3]
        frames = rng.integers(-30000, 30000, (4, 160)).astype(np.int16)
        targets = rng.choice([0.0, 0.2, 1.0], size=(1, 4))
        with_own = Mixer().mix_frame([0], ids, frames, targets)
        zeroed = frames.copy()
        zeroed[0] = 0
        without_own = Mixer().mix_frame([0], ids, zeroed, targets)
        ok &= bool(np.array_equal(with_own, without_own))

    # steady-gain linearity up to clamping
    worst = 0
    for _ in range(50):
        n_speakers = int(rng.integers(1, 5))
        frames = rng.integers(-32768, 32768, (n_speakers, 160)).astype(np.int16)
        targets = rng.uniform(0.0, 1.2, n_speakers)
        out = Mixer().mix_frame([0], range(1, n_speakers + 1), frames, targets[None])[0]
        expected = np.clip(
            np.rint(sum(t * f.astype(np.float64) for t, f in zip(targets, frames))),
            -32768,
            32767,
        )
        worst = max(worst, int(np.abs(out.astype(np.int64) - expected).max()))
    ok &= worst <= 1

    # bounded gain slope while ramping between random targets
    mixer = Mixer()
    dc = np.full((1, 160), 10000, dtype=np.int16)
    gain_path = []
    for k in range(40):
        target = float(rng.choice([0.0, 0.2, 1.0])) if k else 0.2
        out = mixer.mix_frame([0], [1], dc, [[target]])[0]
        gain_path.append(out.astype(np.float64) / 10000.0)
    g = np.concatenate(gain_path)
    max_slope = float(np.abs(np.diff(g)).max())
    bound = 1.0 / RAMP_SAMPLES + 2e-4
    ok &= max_slope <= bound
    report(
        10,
        ok,
        f"self-exclusion exact, linearity within {worst} LSB, "
        f"gain slope {max_slope:.2e} <= {bound:.2e} per sample",
    )
