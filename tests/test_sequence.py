import bisect
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spa_compressor.sequence import (
    ASR,
    TIMESTAMP,
    VISION,
    AsrSentence,
    Frame,
    align_sentences,
    build_sequence,
    validate_sentences,
)


def make_video(frame_times, sentence_spans, l_v=3, l_s=2, dim=4):
    frames = [
        Frame(i, t, np.zeros((l_v, dim))) for i, t in enumerate(frame_times)
    ]
    sentences = [
        AsrSentence(j + 1, a, b, np.zeros((l_s, dim)))
        for j, (a, b) in enumerate(sentence_spans)
    ]
    return frames, sentences


class TestAlign:
    def test_sentence_ending_before_second_frame_anchors_to_first(self):
        frames, sentences = make_video([0, 1, 2], [(0.2, 0.9)])
        assert align_sentences(frames, sentences) == {1: 0}

    def test_sentence_ending_after_last_frame_anchors_to_last(self):
        frames, sentences = make_video([0, 1, 2], [(1.5, 2.5)])
        assert align_sentences(frames, sentences) == {1: 2}

    def test_sentence_before_first_frame_anchors_to_frame_zero(self):
        frames, sentences = make_video([5.0, 6.0], [(0.0, 1.0)])
        assert align_sentences(frames, sentences) == {1: 0}

    def test_sentence_bounds_need_not_fit_the_timestamp_encoder(self):
        # only frame times are rendered; sentence bounds are alignment anchors
        frames, sentences = make_video([0, 1], [(1.5e6, 2e6)])
        validate_sentences(sentences)
        assert align_sentences(frames, sentences) == {1: 1}

    @pytest.mark.parametrize("start,end", [(-1.0, 1.0), (0.0, float("inf"))])
    def test_sentence_bounds_must_be_finite_and_non_negative(self, start, end):
        _, sentences = make_video([0], [(start, end)])
        with pytest.raises(ValueError, match=r"sentence 1: (start|end) must be finite and in \[0, inf\)"):
            validate_sentences(sentences)

    def test_empty_frame_list_is_an_error(self):
        _, sentences = make_video([0], [(0, 1)])
        with pytest.raises(ValueError, match="at least one frame"):
            align_sentences([], sentences)

    @pytest.mark.parametrize(
        "frame_indices,sentence_indices,message",
        [
            ([1, 2, 3], [1, 2], "frame 1 at position 0"),
            ([0, 2, 3], [1, 2], "frame 2 at position 1"),
            ([0, 1, 2], [0, 1], "sentence 0 at position 1"),
            ([0, 1, 2], [1, 1], "sentence 1 at position 2"),
        ],
    )
    def test_indices_must_match_positions(self, frame_indices, sentence_indices, message):
        # anchors are frame positions keyed by sentence index, so any other
        # numbering would attach sentences to the wrong frames
        frames, sentences = make_video([0, 1, 2], [(0.1, 0.4), (0.5, 0.9)])
        frames = [dataclasses.replace(f, index=i) for f, i in zip(frames, frame_indices)]
        sentences = [dataclasses.replace(s, index=j) for s, j in zip(sentences, sentence_indices)]
        with pytest.raises(ValueError, match=message):
            align_sentences(frames, sentences)

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda fs, ss: (fs[:1] + [dataclasses.replace(fs[1], vision_tokens=np.zeros((2, 4)))] + fs[2:], ss),
             r"frames disagree on vision token shape: \[\(2, 4\), \(3, 4\)\]"),
            (lambda fs, ss: (fs[:2] + [dataclasses.replace(fs[2], time_seconds=0.5)], ss),
             "strictly increasing: frame 2 at 0.5 after 1"),
            (lambda fs, ss: (fs, [dataclasses.replace(ss[0], start=0.5, end=0.4), ss[1]]),
             "sentence 1 has start 0.5 > end 0.4"),
            (lambda fs, ss: (fs, [ss[0], dataclasses.replace(ss[1], tokens=np.zeros((0, 4)))]),
             "sentence 2 needs at least one token"),
            (lambda fs, ss: (fs, [ss[0], dataclasses.replace(ss[1], start=0.3)]),
             "non-overlapping: sentence 2 starts at 0.3 before 0.4"),
        ],
        ids=["vision-shapes-differ", "frame-times-repeat", "start-after-end", "no-tokens", "overlap"],
    )
    def test_malformed_video_is_an_error(self, corrupt, message):
        # align_sentences is the one check of frames and sentences on the forward path
        frames, sentences = corrupt(*make_video([0, 1, 2], [(0.1, 0.4), (0.5, 0.9)]))
        with pytest.raises(ValueError, match=message):
            align_sentences(frames, sentences)

    @pytest.mark.parametrize("seed", range(50))
    def test_random_videos_match_bisect_oracle(self, seed):
        rng = np.random.default_rng(seed)
        times = np.cumsum(rng.uniform(0.3, 2.0, size=rng.integers(1, 12)))
        n_sent = int(rng.integers(0, 6))
        cursor, spans = 0.0, []
        for _ in range(n_sent):
            start = cursor + rng.uniform(0, 1.5)
            end = start + rng.uniform(0, 2.0)
            spans.append((start, end))
            cursor = end
        frames, sentences = make_video(list(times), spans)
        anchors = align_sentences(frames, sentences)
        for s in sentences:
            # oracle: binary search for the last frame time <= span end
            pos = bisect.bisect_right(list(times), s.end) - 1
            assert anchors[s.index] == max(pos, 0)

    @pytest.mark.parametrize("end", [0.5, 1.0, 1.5, 2.0, 3.0, 3.5])
    def test_end_on_or_between_frame_times_matches_linear_scan(self, end):
        times = [1.0, 2.0, 3.0]
        frames, sentences = make_video(times, [(0.0, end)])
        # reference: the last frame at or before the end, else frame 0
        expected = max([i for i, t in enumerate(times) if t <= end], default=0)
        assert align_sentences(frames, sentences) == {1: expected}


class TestBuild:
    def test_two_frame_one_sentence_pattern(self):
        frames, sentences = make_video([0.0, 1.0], [(0.5, 1.5)], l_v=3, l_s=2)
        seq = build_sequence(frames, sentences, {1: 1})
        kinds = [(e.kind, e.ref) for e in seq.elements]
        assert kinds == [
            (TIMESTAMP, 0),
            (VISION, 0),
            (TIMESTAMP, 1),
            (VISION, 1),
            (ASR, 1),
        ]
        assert seq.total_length == 2 * 4 + 2 == 10

    def test_no_sentences_gives_pure_frame_repetition(self):
        frames, _ = make_video([0, 1, 2], [], l_v=5)
        seq = build_sequence(frames, [], {})
        assert [e.kind for e in seq.elements] == [TIMESTAMP, VISION] * 3
        assert seq.total_length == 3 * (1 + 5)

    def test_multiple_sentences_on_one_anchor_keep_order(self):
        frames, sentences = make_video([0.0, 5.0], [(0.1, 0.5), (0.6, 0.9)])
        seq = build_sequence(frames, sentences, align_sentences(frames, sentences))
        asr_refs = [e.ref for e in seq.elements if e.kind == ASR]
        assert asr_refs == [1, 2]

    def test_out_of_range_anchor_is_an_error(self):
        frames, sentences = make_video([0.0], [(0.0, 0.5)])
        with pytest.raises(ValueError, match="invalid frame"):
            build_sequence(frames, sentences, {1: 3})

    def test_deterministic(self):
        frames, sentences = make_video([0, 1, 2], [(0.2, 0.8), (1.1, 1.9)])
        anchors = align_sentences(frames, sentences)
        a = build_sequence(frames, sentences, anchors)
        b = build_sequence(frames, sentences, anchors)
        assert a.elements == b.elements

    @pytest.mark.parametrize("seed", range(25))
    def test_length_matches_enumeration_oracle(self, seed):
        rng = np.random.default_rng(seed + 1000)
        n, l_v = int(rng.integers(1, 10)), int(rng.integers(1, 6))
        spans, cursor = [], 0.0
        lengths = []
        for _ in range(int(rng.integers(0, 5))):
            start = cursor + rng.uniform(0.1, 1.0)
            end = start + rng.uniform(0.1, 1.0)
            spans.append((start, end))
            lengths.append(int(rng.integers(1, 7)))
            cursor = end
        frames = [Frame(i, float(i), np.zeros((l_v, 3))) for i in range(n)]
        sentences = [
            AsrSentence(j + 1, a, b, np.zeros((lengths[j], 3)))
            for j, (a, b) in enumerate(spans)
        ]
        seq = build_sequence(frames, sentences, align_sentences(frames, sentences))
        # oracle: count emitted tokens element by element
        expected = 0
        for _ in range(n):
            expected += 1 + l_v
        for token_count in lengths:
            expected += token_count
        assert seq.total_length == expected


@given(
    n=st.integers(1, 12),
    l_v=st.integers(1, 8),
    sentence_lengths=st.lists(st.integers(1, 9), max_size=8),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_length_law_and_ordering_property(n, l_v, sentence_lengths, data):
    frames = [Frame(i, float(i), np.zeros((l_v, 2))) for i in range(n)]
    sentences = []
    cursor = 0.0
    for j, length in enumerate(sentence_lengths):
        start = cursor + data.draw(st.floats(0.01, 2.0))
        end = start + data.draw(st.floats(0.0, 2.0))
        sentences.append(AsrSentence(j + 1, start, end, np.zeros((length, 2))))
        cursor = end
    anchors = align_sentences(frames, sentences)
    seq = build_sequence(frames, sentences, anchors)

    assert seq.total_length == n * (1 + l_v) + sum(sentence_lengths)

    # each sentence sits after its anchor's vision block and before the
    # next frame's timestamp slot
    positions = {(e.kind, e.ref): i for i, e in enumerate(seq.elements)}
    for s in sentences:
        a = anchors[s.index]
        assert positions[(ASR, s.index)] > positions[(VISION, a)]
        if a + 1 < n:
            assert positions[(ASR, s.index)] < positions[(TIMESTAMP, a + 1)]
