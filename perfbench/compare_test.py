#!/usr/bin/env python3
"""Tests that compare.py refuses results whose fingerprints differ.

    python3 perfbench/compare_test.py
"""

import copy
import io
import json
import os
import sys
import tempfile
import unittest
from contextlib import redirect_stdout

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

RESULT = {
    "fingerprint": {
        "nproc": 4, "pool_threads": 1, "server_workers": 2,
        "batch_workers": 1, "client_threads": 3, "client_connections": 2,
        "simd": "avx2", "pipeline": "off", "compiler": "gcc 12.2.0",
        "build_type": "Release", "source": "git:aaaa", "workload": "serve_light",
        "seed": 1, "seconds": 20, "setup_repeats": 3,
        "config": {"rate_rps": 300},
    },
    "trace": False,
    "end_to_end": {"p50_ms": {"value": 5.0, "unit": "ms"}},
    "per_layer": {"fail_frac": {"value": 0.0, "unit": "ratio"}},
}


def run_main(base, head):
    with tempfile.TemporaryDirectory() as tmp:
        paths = []
        for name, result in (("base.json", base), ("head.json", head)):
            paths.append(os.path.join(tmp, name))
            with open(paths[-1], "w") as f:
                json.dump(result, f)
        out = io.StringIO()
        with redirect_stdout(out):
            code = compare.main(["compare.py"] + paths)
        return code, out.getvalue()


class CompareTest(unittest.TestCase):
    def test_reports_deltas_when_only_the_source_differs(self):
        head = copy.deepcopy(RESULT)
        head["fingerprint"]["source"] = "git:bbbb"
        head["end_to_end"]["p50_ms"]["value"] = 5.5
        code, out = run_main(RESULT, head)
        self.assertEqual(code, 0)
        self.assertIn("git:aaaa -> git:bbbb", out)
        self.assertIn("+10.00%", out)

    def test_refuses_every_other_fingerprint_difference(self):
        for field, value in (("pool_threads", 4), ("nproc", 1),
                             ("simd", "scalar"), ("seed", 2),
                             ("workload", "eval_manyway"),
                             ("config", {"rate_rps": 600})):
            head = copy.deepcopy(RESULT)
            head["fingerprint"][field] = value
            code, out = run_main(RESULT, head)
            self.assertEqual(code, 2, field)
            self.assertIn("refusing to compare", out)
            self.assertIn(field, out)
            self.assertNotIn("%", out)  # no delta is printed

    def test_refuses_a_traced_against_an_untraced_run(self):
        head = copy.deepcopy(RESULT)
        head["trace"] = True
        self.assertEqual(run_main(RESULT, head)[0], 2)

    def test_a_missing_field_is_a_difference(self):
        head = copy.deepcopy(RESULT)
        del head["fingerprint"]["client_threads"]
        mismatches = compare.fingerprint_mismatches(RESULT, head)
        self.assertEqual(mismatches, [("client_threads", 3, None)])


if __name__ == "__main__":
    unittest.main()
