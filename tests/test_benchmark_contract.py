"""The benchmark's workloads against this checkout: each one's set-up, one
operation and its gate run without a problem. A change to the program that
breaks what perfbench calls or checks fails here, not only in a benchmark run.
"""

import pytest

from perfbench.workloads import WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_operation_passes_its_gate(tmp_path, name):
    workload = WORKLOADS[name]
    state = workload.setup(1, str(tmp_path / "setup"))
    result = workload.operation(state, str(tmp_path / "op0"))
    assert workload.gate(state, result, 0).problems == []
