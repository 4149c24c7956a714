"""Tests for the student/teacher proxies and their CL dynamics.

These pin down the behavioural contract the end-to-end experiments rely on:
teacher > generalist student everywhere; specialization helps; drift hurts;
retraining recovers; ViTs are more precision-sensitive.
"""

import numpy as np
import pytest

from repro.data import Domain, DomainModel, Location, TimeOfDay
from repro.learn import make_student, make_teacher
from repro.mx import MX6, MX9

DM = DomainModel()
DAY = Domain()
NIGHT_HWY = Domain().with_(time=TimeOfDay.NIGHT, location=Location.HIGHWAY)


@pytest.fixture(scope="module")
def teacher():
    return make_teacher("wide_resnet50_2")


@pytest.fixture(scope="module")
def eval_sets():
    rng = np.random.default_rng(123)
    return {
        "day": DM.sample(DAY, 2000, rng),
        "night": DM.sample(NIGHT_HWY, 2000, rng),
    }


class TestTeacher:
    def test_accurate_in_every_domain(self, teacher, eval_sets):
        for x, y in eval_sets.values():
            assert teacher.accuracy(x, y) > 0.85

    def test_labels_are_mostly_correct_but_imperfect(self, teacher, eval_sets):
        x, y = eval_sets["day"]
        labels = teacher.label(x)
        agreement = float(np.mean(labels == y))
        assert 0.85 < agreement < 1.0

    def test_cached_pretraining(self):
        a = make_teacher("wide_resnet50_2")
        b = make_teacher("wide_resnet50_2")
        np.testing.assert_array_equal(a.mlp.weights[0], b.mlp.weights[0])


class TestStudent:
    def test_teacher_beats_student_outside_base_domain(
        self, teacher, eval_sets
    ):
        # The student pretrains only on the base (day/city) domain
        # (workflow step 1: "general dataset without deployment context"),
        # so away from it the all-domain teacher must dominate.
        student = make_student("resnet18")
        x, y = eval_sets["night"]
        assert teacher.accuracy(x, y) > student.accuracy(x, y) + 0.1

    def test_specialization_improves_in_domain(self, teacher, eval_sets):
        # Specializing onto a new (shifted) domain must lift accuracy there.
        student = make_student("resnet18")
        x_eval, y_eval = eval_sets["night"]
        before = student.accuracy(x_eval, y_eval)
        rng = np.random.default_rng(0)
        x, _ = DM.sample(NIGHT_HWY, 600, rng)
        student.retrain(x, teacher.label(x), epochs=5, rng=rng,
                        learning_rate=5e-2)
        assert student.accuracy(x_eval, y_eval) > before + 0.1

    def test_drift_hurts_and_retraining_recovers(self, teacher, eval_sets):
        student = make_student("resnet18")
        rng = np.random.default_rng(1)
        x, _ = DM.sample(DAY, 600, rng)
        student.retrain(x, teacher.label(x), epochs=5, rng=rng,
                        learning_rate=5e-2)
        x_day, y_day = eval_sets["day"]
        x_night, y_night = eval_sets["night"]
        in_domain = student.accuracy(x_day, y_day)
        drifted = student.accuracy(x_night, y_night)
        assert drifted < in_domain - 0.03

        xn, _ = DM.sample(NIGHT_HWY, 600, rng)
        student.retrain(xn, teacher.label(xn), epochs=5, rng=rng,
                        learning_rate=5e-2)
        recovered = student.accuracy(x_night, y_night)
        assert recovered > drifted + 0.03

    def test_snapshot_restore(self):
        student = make_student("resnet18")
        state = student.snapshot()
        rng = np.random.default_rng(2)
        x, y = DM.sample(DAY, 200, rng)
        student.retrain(x, y, epochs=2, rng=rng)
        student.restore(state)
        twin = make_student("resnet18")
        np.testing.assert_array_equal(
            student.mlp.weights[0], twin.mlp.weights[0]
        )

    def test_clones_are_independent(self):
        a = make_student("resnet18")
        b = a.clone()
        rng = np.random.default_rng(3)
        x, y = DM.sample(DAY, 200, rng)
        a.retrain(x, y, epochs=2, rng=rng)
        assert not np.allclose(a.mlp.weights[0], b.mlp.weights[0])


class TestPrecisionSensitivity:
    def test_vit_more_sensitive_than_cnn(self, eval_sets):
        x, y = eval_sets["day"]
        vit_fp = make_teacher("vit_b_16")
        vit_mx = make_teacher("vit_b_16", fmt=MX6)
        cnn_fp = make_teacher("wide_resnet50_2")
        cnn_mx = make_teacher("wide_resnet50_2", fmt=MX6)
        vit_loss = vit_fp.accuracy(x, y) - vit_mx.accuracy(x, y)
        cnn_loss = cnn_fp.accuracy(x, y) - cnn_mx.accuracy(x, y)
        assert vit_loss > cnn_loss

    def test_mx9_training_precision_configured(self):
        student = make_student(
            "resnet18", inference_fmt=MX6, training_fmt=MX9
        )
        assert student.inference_fmt is MX6
        assert student.training_fmt is MX9
