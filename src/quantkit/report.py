"""Accuracy aggregation across evaluation tasks.

Benchmarks differ wildly in size (ten thousand questions versus five
hundred), so alongside the plain mean of per-task accuracies we report a
weighted average: total correct answers divided by total questions, which
weights large tasks proportionally more.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

# The weighted average is taken in float64, which holds counts exactly up to 2^53.
_MAX_QUESTION_COUNT = 2**53


@dataclass(frozen=True)
class TaskResult:
    name: str
    accuracy: float
    question_count: int

    def __post_init__(self):
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError(
                f"task {self.name!r}: accuracy must be in [0, 1], got {self.accuracy}"
            )
        if not 1 <= self.question_count <= _MAX_QUESTION_COUNT:
            raise ValueError(
                f"task {self.name!r}: question count must be in [1, 2^53], "
                f"got {self.question_count}"
            )


@dataclass(frozen=True)
class EvalSummary:
    tasks: tuple[TaskResult, ...]
    avg: float
    wt_avg: float


def aggregate_accuracy(tasks: Iterable[TaskResult | Sequence]) -> EvalSummary:
    """Plain and question-count-weighted average accuracy over tasks.

    Accepts TaskResult objects or (name, accuracy, question_count)
    tuples.  avg is the arithmetic mean of the accuracies; wt_avg is
    sum(accuracy_i * count_i) / sum(count_i).
    """
    normalized = tuple(
        t if isinstance(t, TaskResult) else TaskResult(t[0], float(t[1]), int(t[2]))
        for t in tasks
    )
    if not normalized:
        raise ValueError("task list must be non-empty")
    total_questions = sum(t.question_count for t in normalized)
    avg = sum(t.accuracy for t in normalized) / len(normalized)
    wt_avg = sum(t.accuracy * t.question_count for t in normalized) / total_questions
    return EvalSummary(tasks=normalized, avg=avg, wt_avg=wt_avg)
