#!/usr/bin/env python3
"""Checks the benchmark's checker: a corrupt input row must fail the run.

    python3 perfbench/tests/test_checker.py

Runs the benchmark through run.py at smoke size (scale 0.01, one second)
on clean inputs, which must pass every check, and with one RAS CSV row
corrupted after set-up (run.py --corrupt-row), which must report failed
operations (failed_ops_ratio > 0), print "correct": false and exit
nonzero.
"""
import json
import subprocess
import sys
import unittest
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "run.py"
SMOKE = ["--seed", "3", "--seconds", "1", "--trace", "0", "--scale", "0.01"]


def run(workload, *extra):
    """Exit code and JSON result of one run; the result is None when the
    run printed none (a build failure, a crash or a timeout)."""
    proc = subprocess.run([sys.executable, str(RUN), "--workload", workload, *SMOKE, *extra],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None


class Checker(unittest.TestCase):
    def test_clean_inputs_pass(self):
        for workload in ("ordered", "shuffled"):
            code, result = run(workload)
            self.assertIsNotNone(result, f"{workload}: no result (exit {code})")
            self.assertEqual(code, 0, result)
            self.assertTrue(result["correct"])
            self.assertEqual(result["failed"], 0)

    def test_corrupt_row_fails_the_run(self):
        code, result = run("ordered", "--corrupt-row")
        self.assertIsNotNone(result, f"no result (exit {code})")
        self.assertNotEqual(code, 0, result)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"] / result["attempted"], 0)


if __name__ == "__main__":
    unittest.main()
