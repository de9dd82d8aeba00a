"""The golden digests on each numpy CPU kernel below the current one.

numpy picks a kernel for each ufunc at import; NPY_DISABLE_CPU_FEATURES,
read only by a starting process, forces a lower one.  The field digest
and the two bound digests must not move with it.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from numpy.lib.introspect import opt_func_info

from test_bounds import _GOLDEN_BOUND_SHA256, _GOLDEN_ENVELOPE_SHA256
from test_fields import _GOLDEN_EVALUATOR_SHA256

_GOLDEN = Path(__file__).with_name("golden.py")


def _lower_kernels():
    """(kernel, NPY_DISABLE_CPU_FEATURES) for each kernel below the current
    one that float64 ``np.exp`` or ``np.log`` has here, highest first."""
    simd = np.__config__.CONFIG["SIMD Extensions"]
    targets = simd.get("found", []) + simd.get("not found", [])  # every dispatch target
    forced = []
    for sigs in opt_func_info(func_name="^(exp|log)$", signature="float64").values():
        for rec in sigs.values():
            available = rec["available"].split()  # highest first
            for i in range(available.index(rec["current"]) + 1, len(available)):
                # turn off every target but the kernel and those below it
                off = " ".join(t for t in targets if t not in available[i:])
                if (available[i], off) not in forced:
                    forced.append((available[i], off))
    return forced


def test_golden_digests_hold_on_every_lower_kernel():
    # one fresh interpreter per kernel, one at a time; a machine with no
    # kernel below the current one has nothing to run
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    for kernel, disabled in _lower_kernels():
        proc = subprocess.run(
            [sys.executable, str(_GOLDEN)],
            capture_output=True, text=True, timeout=120,
            env=dict(env, NPY_DISABLE_CPU_FEATURES=disabled),
        )
        assert proc.returncode == 0, proc.stderr
        got = json.loads(proc.stdout)
        assert kernel in got["kernels"].values(), (kernel, got["kernels"])
        assert got["numpy.polynomial"] is False
        assert (got["field"], got["bound"], got["envelope"]) == (
            _GOLDEN_EVALUATOR_SHA256, _GOLDEN_BOUND_SHA256, _GOLDEN_ENVELOPE_SHA256,
        ), kernel
