import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scnn.errors import DataError
from scnn.metrics import (
    argmax_labels,
    confusion,
    f1_from_pr,
    micro_prf_12,
    per_class_prf,
    report_json,
)

# gold-major example matrix used by several hand computations
CM = np.array([[2, 1, 0], [0, 2, 1], [1, 0, 3]], dtype=np.int64)


class TestArgmaxLabel:
    def test_plain(self):
        assert argmax_labels(np.array([[0.2, 0.5, 0.3]])).tolist() == [2]

    def test_tie_lowest(self):
        assert argmax_labels(np.array([[0.4, 0.4, 0.2]])).tolist() == [1]
        assert argmax_labels(np.array([[1 / 3, 1 / 3, 1 / 3]])).tolist() == [1]

    def test_batch(self):
        out = argmax_labels(np.array([[0.2, 0.5, 0.3], [0.9, 0.05, 0.05]]))
        np.testing.assert_array_equal(out, [2, 1])
        assert argmax_labels(np.zeros((0, 3))).shape == (0,)


class TestConfusion:
    def test_perfect_diagonal(self):
        cm = confusion([1, 2, 3], [1, 2, 3])
        np.testing.assert_array_equal(cm, np.eye(3, dtype=np.int64))

    def test_single_cell(self):
        cm = confusion([1], [3])
        assert cm[0, 2] == 1 and cm.sum() == 1

    def test_empty(self):
        np.testing.assert_array_equal(confusion([], []), np.zeros((3, 3)))

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            confusion([1, 2], [1])

    def test_bad_label(self):
        with pytest.raises(DataError):
            confusion([4], [1])

    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)), max_size=60))
    @settings(max_examples=150)
    def test_permutation_invariance(self, pairs):
        gold = [g for g, _ in pairs]
        pred = [p for _, p in pairs]
        cm = confusion(gold, pred)
        assert cm.sum() == len(pairs)
        rev = confusion(gold[::-1], pred[::-1])
        np.testing.assert_array_equal(cm, rev)


class TestPerClass:
    def test_hand_computed_class3(self):
        per = per_class_prf(CM)
        p, r, f1 = per[3]
        assert p == 0.75 and r == 0.75 and f1 == 0.75

    def test_perfect_prediction(self):
        per = per_class_prf(np.diag([5, 2, 9]))
        for c in (1, 2, 3):
            assert per[c] == (1.0, 1.0, 1.0)

    def test_absent_class_zero_convention(self):
        cm = confusion([1, 1], [1, 1])
        per = per_class_prf(cm)
        assert per[2] == (0.0, 0.0, 0.0)


class TestMicro12:
    def test_hand_computed(self):
        p, r, f1 = micro_prf_12(CM)
        assert abs(p - 2 / 3) < 1e-12
        assert abs(r - 2 / 3) < 1e-12
        assert abs(f1 - 2 / 3) < 1e-12

    def test_published_triples_reproduce(self):
        # the three reported (precision_m, recall_m) pairs must yield their
        # published F1 values through the harmonic identity
        for p, r, want in ((0.725, 0.664, 0.693), (0.721, 0.661, 0.690),
                           (0.716, 0.664, 0.689)):
            assert abs(f1_from_pr(p, r) - want) < 0.0005

    def test_class3_invisible(self):
        cm = CM.copy()
        before = micro_prf_12(cm)
        cm[2, 2] += 100
        assert micro_prf_12(cm) == before

    def test_class3_misprediction_hits_precision_only(self):
        cm = CM.copy()
        p0, r0, _ = micro_prf_12(cm)
        cm[2, 2] -= 1
        cm[2, 0] += 1
        p1, r1, _ = micro_prf_12(cm)
        assert p1 < p0 and r1 == r0

    def test_degenerate_zero(self):
        cm = np.zeros((3, 3), dtype=np.int64)
        cm[2, 2] = 4  # only class-3 traffic
        assert micro_prf_12(cm) == (0.0, 0.0, 0.0)


class TestReport:
    def test_harmonic_identity_everywhere(self):
        for p, r, f1 in [*per_class_prf(CM).values(), micro_prf_12(CM)]:
            assert abs(f1 - f1_from_pr(p, r)) < 1e-9

    def test_json_keys_and_format(self):
        text = report_json(CM)
        parsed = json.loads(text)
        assert list(parsed) == [
            "precision_1", "precision_2", "precision_3",
            "recall_1", "recall_2", "recall_3",
            "f1_1", "f1_2", "f1_3",
            "precision_m", "recall_m", "f1_m",
        ]
        assert '"f1_m": 0.666667' in text
        assert text.endswith("\n}\n")

    @given(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                    min_size=1, max_size=80))
    @settings(max_examples=150)
    def test_values_in_range_and_consistent(self, pairs):
        cm = confusion([g for g, _ in pairs], [p for _, p in pairs])
        parsed = json.loads(report_json(cm))
        per = per_class_prf(cm)
        want = {f"{stem}_{c}": per[c][i]
                for i, stem in enumerate(("precision", "recall", "f1")) for c in (1, 2, 3)}
        want.update(zip(("precision_m", "recall_m", "f1_m"), micro_prf_12(cm)))
        assert parsed == {key: float(f"{v:.6f}") for key, v in want.items()}
        assert all(0.0 <= v <= 1.0 for v in parsed.values())
