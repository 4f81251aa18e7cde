#!/usr/bin/env python3
"""The benchmark's own test: checks the harness without running it at full size.

    python3 perfbench/test_run.py

The smoke case builds dhtidx_perfbench (if needed) and runs every workload,
untraced and traced, on tiny worlds; it finishes in seconds once built.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the harness under test)


class SmokeTest(unittest.TestCase):
    def test_every_workload_untraced_and_traced(self):
        result = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--smoke"],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        self.assertEqual(result.returncode, 0, result.stderr[-4000:])
        lines = result.stdout.strip().splitlines()
        final = json.loads(lines[-1])
        self.assertEqual(sorted(final), ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(final["correct"])
        self.assertGreater(final["attempted"], 0)
        self.assertEqual(final["failed"], 0)
        # Every metric BENCHMARK.json declares is printed with its unit.
        for kind in ("end_to_end", "per_layer"):
            for name, unit in run.metric_units(kind).items():
                self.assertTrue(any(line.split()[1:2] == [name] and line.endswith(" " + unit)
                                    for line in lines), "%s (%s) not reported" % (name, unit))
        for workload in run.QUERIES:
            path = os.path.join(run.TRACES, "%s-trace.json" % workload)
            with open(path) as handle:
                events = json.load(handle)["traceEvents"]
            self.assertTrue(any(e["name"] == "session" for e in events), path)


class CheckTest(unittest.TestCase):
    def write_trace(self, events):
        handle = tempfile.NamedTemporaryFile("w", suffix=".json", delete=False)
        with handle:
            json.dump({"traceEvents": events}, handle)
        self.addCleanup(os.unlink, handle.name)
        return handle.name

    def event(self, name, span_id, parent):
        return {"name": name, "args": {"id": span_id, "parent": parent, "session": 1}}

    def test_trace_check_wants_every_layer_span(self):
        events = [self.event("sim.build", 1, 0), self.event("sim.feed", 2, 0),
                  self.event("session", 3, 0)]
        events += [self.event(name, 4 + i, 3) for i, name in enumerate(run.LAYER_SPANS)]
        run.check_trace_file(self.write_trace(events), 1)
        for missing in range(len(events)):
            partial = events[:missing] + events[missing + 1:]
            with self.assertRaises(run.CheckFailed):
                run.check_trace_file(self.write_trace(partial), 1)

    def test_digests_must_match(self):
        run.expect_same("same", {"digest": "a"}, {"digest": "a"})
        with self.assertRaises(run.CheckFailed):
            run.expect_same("differs", {"digest": "a"}, {"digest": "b"})


if __name__ == "__main__":
    unittest.main()
