"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench
"""

import signal
import unittest

import refclock
from checks import KNOWN_GOLDEN_FAILURES, goldens_outcome, inexact_values
from spans import Tracer, span_totals


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        # a [0, 10] holds b [1, 4] and d [5, 6]; b holds c [2, 3]
        names = ["a", "b", "c", "d"]
        starts = [0.0, 1.0, 2.0, 5.0]
        ends = [10.0, 4.0, 3.0, 6.0]
        parents = [-1, 0, 1, 0]
        t = span_totals(names, starts, ends, parents)
        self.assertEqual(t["a"], (1, 10.0, 6.0))
        self.assertEqual(t["b"], (1, 3.0, 2.0))
        self.assertEqual(t["c"], (1, 1.0, 1.0))
        self.assertEqual(t["d"], (1, 1.0, 1.0))

    def test_recursion_counts_inclusive_time_once(self):
        names = ["f", "f", "g"]
        starts = [0.0, 1.0, 2.0]
        ends = [8.0, 5.0, 3.0]
        parents = [-1, 0, 1]
        calls, incl, self_t = span_totals(names, starts, ends, parents)["f"]
        self.assertEqual((calls, incl, self_t), (2, 8.0, 7.0))

    def test_wrapped_calls_record_parents_and_restore(self):
        class Box:
            def outer(self):
                return self.inner() + 1

            def inner(self):
                return 1

        tracer = Tracer()
        original = Box.inner
        tracer.patch_method(Box, Box.outer, "outer")
        tracer.patch_method(Box, Box.inner, "inner",
                            lambda c, args, result: c.update(inner_results=result))
        self.assertEqual(Box().outer(), 2)
        self.assertEqual(tracer.names, ["outer", "inner"])
        self.assertEqual(tracer.parents, [-1, 0])
        self.assertEqual(tracer.counters["inner_results"], 1)
        totals = tracer.totals()
        self.assertLessEqual(totals["inner"][1], totals["outer"][1])
        tracer.restore()
        self.assertIs(Box.inner, original)


class ReferenceClock(unittest.TestCase):
    def test_brackets_the_job_and_restores_the_handler(self):
        previous = signal.getsignal(signal.SIGALRM)
        clock = refclock.RefClock()
        clock.start()
        clock.stop()
        self.assertEqual(clock.chunks, 2)
        self.assertGreater(clock.wall, 0.0)
        self.assertIs(signal.getsignal(signal.SIGALRM), previous)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))

    def test_scaling_is_relative_to_the_nominal_chunk(self):
        nominal = refclock.NOMINAL_CHUNK_S
        self.assertAlmostEqual(refclock.scaled(10.0, nominal), 10.0)
        self.assertAlmostEqual(refclock.scaled(10.0, 2 * nominal), 5.0)


class NoFloat(unittest.TestCase):
    def test_rejects_decimal_coefficient_string(self):
        doc = '{"num": [[0, "0.5"], [1, "3"]], "den": [[0, "1"]]}'
        self.assertEqual(inexact_values(doc), ["0.5"])

    def test_rejects_float_literal(self):
        self.assertEqual(inexact_values('{"validity": 1.5, "terms": []}'), ["1.5"])

    def test_accepts_integers_and_rationals(self):
        doc = '{"num": [[-2, "-1/3"], [0, "7"], [3, "0"]], "word": ["f", 2]}'
        self.assertEqual(inexact_values(doc), [])


class GoldensOutcome(unittest.TestCase):
    @staticmethod
    def report(ids):
        return {"failures": [{"case": i, "detail": ""} for i in ids]}

    def test_exactly_the_known_failures_pass(self):
        self.assertEqual(goldens_outcome(self.report(KNOWN_GOLDEN_FAILURES)),
                         (True, ""))

    def test_new_failure_is_flagged(self):
        ok, detail = goldens_outcome(
            self.report([*KNOWN_GOLDEN_FAILURES, "n4/tau/I=1,J=4"]))
        self.assertFalse(ok)
        self.assertIn("n4/tau/I=1,J=4", detail)

    def test_known_failure_turning_green_is_flagged(self):
        ok, detail = goldens_outcome(self.report(["n3/tau/I=1,J=3"]))
        self.assertFalse(ok)
        self.assertIn("n3/tau/I=2,J=3", detail)


if __name__ == "__main__":
    unittest.main()
