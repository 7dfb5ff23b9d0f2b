"""The benchmark's own tests; each runs once, not per iteration.

Usage (from the root of the repository)::

    python3 perfbench/selftest.py

* the seed argument regenerates byte-identical inputs, also in a fresh
  interpreter, and another seed gives other inputs;
* ``qft16-sz-ranked2``'s final state is bit-identical to the same circuit
  and 2-rank partition on ``comm="simulated"``.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import numpy as np  # noqa: E402

import workloads  # noqa: E402

SEED = 11


def _digests(seed: int) -> dict[str, str]:
    return {
        f"{name}/{warmup}": workloads.digest(workloads.generate(workload, seed, warmup=warmup))
        for name, workload in workloads.WORKLOADS.items()
        for warmup in (False, True)
    }


class SeededInputs(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        self.assertEqual(_digests(SEED), _digests(SEED))

    def test_same_seed_same_bytes_in_fresh_interpreter(self):
        code = (
            "import json, sys; sys.path[:0] = sys.argv[1:3]; import selftest; "
            f"print(json.dumps(selftest._digests({SEED})))"
        )
        out = subprocess.run(
            [sys.executable, "-c", code, str(HERE), str(SRC)],
            capture_output=True, text=True, check=True, timeout=120,
        )
        self.assertEqual(json.loads(out.stdout), _digests(SEED))

    def test_other_seed_other_bytes(self):
        first, second = _digests(SEED), _digests(SEED + 1)
        for key in first:
            self.assertNotEqual(first[key], second[key], key)


class RankedTier(unittest.TestCase):
    def test_ranked_state_bit_identical_to_simulated(self):
        inputs = workloads.generate(workloads.WORKLOADS["qft16-sz-ranked2"], SEED)
        self.assertEqual(inputs.config.comm, "process")
        simulated = dataclasses.replace(
            inputs, config=dataclasses.replace(inputs.config, comm="simulated")
        )
        self.assertEqual(simulated.config.num_ranks, 2)
        ranked_result, = workloads.call(inputs)
        simulated_result, = workloads.call(simulated)
        self.assertEqual(
            ranked_result.statevector.tobytes(), simulated_result.statevector.tobytes()
        )
        self.assertEqual(ranked_result.counts, simulated_result.counts)
        self.assertTrue(np.isfinite(ranked_result.statevector).all())


if __name__ == "__main__":
    unittest.main()
