"""Accuracy aggregation tests."""

import re

import pytest

from quantkit import TaskResult, aggregate_accuracy


class TestAggregateAccuracy:
    def test_two_task_worked_example(self):
        # 10000 questions at 0.9 plus 500 at 0.5:
        # avg = 0.7, wt_avg = (9000 + 250) / 10500
        summary = aggregate_accuracy([("HS", 0.9, 10000), ("OQ", 0.5, 500)])
        assert summary.avg == pytest.approx(0.7, abs=1e-12)
        assert summary.wt_avg == pytest.approx(9250 / 10500, abs=1e-12)
        assert summary.wt_avg == pytest.approx(0.8810, abs=5e-5)

    def test_single_task_collapses(self):
        summary = aggregate_accuracy([TaskResult("MMLU", 0.62, 14042)])
        assert summary.avg == 0.62
        assert summary.wt_avg == pytest.approx(0.62, abs=1e-12)

    def test_equal_counts_make_both_averages_agree(self):
        tasks = [("a", 0.2, 100), ("b", 0.5, 100), ("c", 0.8, 100)]
        summary = aggregate_accuracy(tasks)
        assert summary.avg == pytest.approx(summary.wt_avg, abs=1e-12)

    def test_large_tasks_weigh_more(self):
        summary = aggregate_accuracy([("big", 1.0, 9000), ("small", 0.0, 1000)])
        assert summary.wt_avg == pytest.approx(0.9)
        assert summary.wt_avg > summary.avg

    def test_results_stay_in_unit_interval(self):
        summary = aggregate_accuracy([("a", 0.0, 10), ("b", 1.0, 10)])
        assert 0.0 <= summary.avg <= 1.0
        assert 0.0 <= summary.wt_avg <= 1.0

    def test_empty_task_list_rejected(self):
        with pytest.raises(ValueError):
            aggregate_accuracy([])

    @pytest.mark.parametrize("accuracy", [-0.1, 1.5])
    def test_out_of_range_accuracy_rejected(self, accuracy):
        with pytest.raises(ValueError):
            aggregate_accuracy([("bad", accuracy, 100)])

    @pytest.mark.parametrize("count", [0, -5])
    def test_non_positive_counts_rejected(self, count):
        with pytest.raises(ValueError):
            aggregate_accuracy([("bad", 0.5, count)])

    def test_repeated_task_rejected(self):
        with pytest.raises(ValueError, match="task 'hs' is listed more than once"):
            aggregate_accuracy([("hs", 0.9, 100), ("hs", 0.9, 100), ("arc", 0.1, 100)])

    @pytest.mark.parametrize(
        "fields,message",
        [
            pytest.param(("a", 0.5, 2.5), "task 'a': 'question_count' must be int, got 2.5",
                         id="float_count"),
            pytest.param(("a", 0.5, True), "task 'a': 'question_count' must be int, got True",
                         id="bool_count"),
            pytest.param(("a", "0.5", 2), "task 'a': 'accuracy' must be float, got '0.5'",
                         id="string_accuracy"),
            pytest.param((7, 0.5, 2), "task 'name' must be str, got 7", id="int_name"),
        ],
    )
    def test_field_of_the_wrong_kind_rejected(self, fields, message):
        # A tuple task is built as it is: a count of 2.5 is an error, not 2.
        for build in (lambda: TaskResult(*fields), lambda: aggregate_accuracy([fields])):
            with pytest.raises(ValueError, match=re.escape(message)):
                build()
