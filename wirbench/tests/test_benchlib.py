"""Tests of the benchmark's own code.

    python3 -m unittest discover -s wirbench/tests
"""

import json
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

import benchlib as B  # noqa: E402
import run  # noqa: E402

GOLDEN = json.loads(run.GOLDEN.read_text())


def sample(cell, pass_=0, sid=0, backend="fixed"):
    cycles, committed, digest, stats_hash, gpu_pj = GOLDEN[backend][cell]
    return {"id": sid, "pass": pass_, "cell": cell, "traced": False,
            "ns": 1000, "digest": digest, "stats_hash": stats_hash,
            "gpu_pj": gpu_pj,
            "stats": {"cycles": cycles, "warp_insts_committed": committed}}


class PercentileRule(unittest.TestCase):
    def test_p99_needs_ten_samples_beyond(self):
        value, pct, n = B.tail_percentile(range(1, 1001))
        self.assertEqual((value, pct, n), (990, 99.0, 1000))
        self.assertEqual(sum(v > value for v in range(1, 1001)), 10)

    def test_falls_back_to_highest_percentile_with_ten_beyond(self):
        value, pct, n = B.tail_percentile(range(1, 101))
        self.assertEqual((value, pct, n), (90, 90.0, 100))
        value, pct, n = B.tail_percentile(range(1, 69))
        self.assertEqual(sum(v > value for v in range(1, 69)), 10)
        self.assertEqual(n, 68)

    def test_too_few_samples_reports_the_maximum(self):
        self.assertEqual(B.tail_percentile([3, 1, 2]), (3, 100.0, 3))

    def test_nearest_rank_median(self):
        self.assertEqual(B.percentile([5, 1, 3], 50), 3)
        self.assertEqual(B.percentile([4, 1, 3, 2], 50), 2)

    def test_one_window_is_the_whole_run_tail(self):
        values = list(range(1000, 0, -1))
        self.assertEqual(B.windowed_tail(values, 1),
                         B.tail_percentile(values))

    def test_a_burst_in_one_window_does_not_set_the_tail(self):
        calm = [1.0] * 1000
        burst = [1.0] * 950 + [500.0] * 50
        value, pct, n = B.windowed_tail(calm + burst + calm, 3)
        self.assertEqual((value, pct, n), (1.0, 99.0, 3000))
        self.assertEqual(B.tail_percentile(calm + burst + calm)[0], 500.0)


class WorkWeighted(unittest.TestCase):
    def test_total_work_over_total_time(self):
        # Not the mean of the per-cell rates (100 and 11.1).
        self.assertAlmostEqual(B.work_weighted([(100, 1), (100, 9)]), 20.0)

    def test_throughput_uses_each_cells_fastest_time(self):
        samples = [sample("SF/Base", p, p) for p in range(3)]
        samples[1]["ns"] = 10 ** 9  # one slow outlier pass
        winst, _ = run.throughput(samples)
        committed = GOLDEN["fixed"]["SF/Base"][1]
        self.assertAlmostEqual(winst, committed / 1e-6)


class Schedule(unittest.TestCase):
    cells = B.serve_cells()

    def test_same_seed_same_schedule(self):
        self.assertEqual(B.make_schedule(7, 20, self.cells),
                         B.make_schedule(7, 20, self.cells))
        self.assertNotEqual(B.make_schedule(7, 20, self.cells),
                            B.make_schedule(8, 20, self.cells))

    def test_shape(self):
        sched = B.make_schedule(3, 20, self.cells)
        times = [t for t, _, _ in sched]
        self.assertEqual(len(sched), round(B.SERVE_RATE * 20))
        self.assertEqual(times, sorted(times))
        self.assertTrue(0 <= times[0] and times[-1] < 20)
        self.assertTrue(sched[0][2])
        seen = set()
        for _, cell, first in sched:
            self.assertEqual(first, cell not in seen)
            seen.add(cell)
        self.assertEqual(sum(f for _, _, f in sched),
                         int(len(sched) * B.SERVE_MISS_SHARE))

    def test_pass_order(self):
        cells = B.grid_cells(["SF", "LK", "BT"])
        order = B.pass_order(cells, 5, 0, repeats=True)
        self.assertEqual(order, B.pass_order(cells, 5, 0, repeats=True))
        self.assertNotEqual(
            [B.pass_order(cells, 5, p, repeats=False) for p in range(4)],
            [B.pass_order(cells, 5, 0, repeats=False)] * 4)
        # Every cell twice in a row, except LK's once.
        self.assertEqual(len(order), 2 * len(cells) - 2)
        for cell in cells:
            at = order.index(cell)
            once = cell.startswith("LK/")
            self.assertEqual(order.count(cell), 1 if once else 2)
            if not once:
                self.assertEqual(order[at + 1], cell)
        self.assertEqual(sorted(B.pass_order(cells, 5, 1, repeats=False)),
                         sorted(cells))

    def test_distinct_cells_do_not_depend_on_the_seed(self):
        cells = [{c for _, c, _ in B.make_schedule(s, 20, self.cells)}
                 for s in (1, 2)]
        self.assertEqual(cells[0], cells[1])
        self.assertEqual(len(cells[0]),
                         int(B.SERVE_RATE * 20 * B.SERVE_MISS_SHARE))


class OutputCheck(unittest.TestCase):
    def test_golden_samples_pass(self):
        samples = [sample("SF/Base", 0, 0), sample("SF/RLPV", 0, 1),
                   sample("SF/Base", 1, 2), sample("SF/RLPV", 1, 3)]
        self.assertEqual(B.check_samples(samples, GOLDEN["fixed"]),
                         (set(), []))

    def test_corrupted_digest_is_caught(self):
        samples = [sample("SF/Base", 0, 0), sample("SF/RLPV", 0, 1)]
        samples[1]["digest"] = "0x0000000000000bad"
        bad, problems = B.check_samples(samples, GOLDEN["fixed"])
        self.assertEqual(bad, {1})
        self.assertTrue(any("Base" in p for p in problems))

    def test_a_pass_that_differs_is_caught(self):
        samples = [sample("SF/Base", 0, 0), sample("SF/Base", 1, 1)]
        samples[1]["stats"]["cycles"] += 1
        bad, _ = B.check_samples(samples, GOLDEN["fixed"])
        self.assertEqual(bad, {1})

    def test_changed_energy_is_caught(self):
        samples = [sample("SF/Base")]
        samples[0]["gpu_pj"] *= 1 + 1e-12
        bad, _ = B.check_samples(samples, GOLDEN["fixed"])
        self.assertEqual(bad, {0})

    def test_failed_cell_is_caught(self):
        bad, _ = B.check_samples(
            [{"id": 4, "cell": "SF/Base", "failed": True, "error": "x"}],
            GOLDEN["fixed"])
        self.assertEqual(bad, {4})

    def test_serve_response_must_match_in_process(self):
        firsts = {"SF/RLPV": sample("SF/RLPV")}
        cycles, committed = GOLDEN["fixed"]["SF/RLPV"][:2]
        ok = {"status": "ok", "cycles": cycles, "committed": committed}
        records = [
            {"id": "0", "cell": "SF/RLPV", "resp": ok},
            {"id": "1", "cell": "SF/RLPV",
             "resp": dict(ok, cycles=cycles + 1)},
            {"id": "2", "cell": "SF/RLPV",
             "resp": {"status": "rejected", "reason": "queue_full"}},
            {"id": "3", "cell": "SF/RLPV", "resp": None},
        ]
        bad, _ = run.check_responses(records, firsts)
        self.assertEqual(bad, {"1", "2", "3"})


class Spans(unittest.TestCase):
    def test_self_time_subtracts_children(self):
        spans = [
            {"id": 1, "name": "cell", "parent": "", "start_ns": 0,
             "end_ns": 100},
            {"id": 1, "name": "sim.run", "parent": "cell", "start_ns": 10,
             "end_ns": 90},
            {"id": 2, "name": "cell", "parent": "", "start_ns": 0,
             "end_ns": 50},
        ]
        self.assertEqual(B.self_times(spans), {"cell": 70, "sim.run": 80})


if __name__ == "__main__":
    unittest.main()
