"""Table I — architectural parameters of the modeled machines.

The paper's Table I lists the testbed hardware.  Here the table is the
*input* of the performance-model substitution (DESIGN.md): this
benchmark prints the machine descriptions used by Figs. 5, 6 and 9 and
times the cost-model evaluation itself (it sits inside the hybrid
scheduler's inner loop, so it must be cheap).

Run ``python benchmarks/bench_table1_machines.py`` for the table.
"""

from common import print_table, record_benchmark
from repro.perfmodel import PMECostModel, WESTMERE_EP, XEON_PHI_KNC


def table_rows():
    """Rows of the Table I analog."""
    rows = []
    for label, m in (("2x Intel X5680", WESTMERE_EP),
                     ("Intel Xeon Phi", XEON_PHI_KNC)):
        rows.append([label, m.frequency_ghz,
                     f"{m.cores}/{m.threads}",
                     m.peak_gflops_dp, m.stream_bandwidth_gbs, m.memory_gb])
    return rows


def main():
    headers = ["machine", "GHz", "cores/threads", "DP GF/s",
               "STREAM GB/s", "GB"]
    rows = table_rows()
    print_table("Table I: architectural parameters (model inputs)",
                headers, rows)
    record_benchmark("table1_machines", headers, rows)


def test_cost_model_evaluation_speed(benchmark):
    """The Eq. 10 evaluation must be microseconds-cheap (scheduler inner loop)."""
    model = PMECostModel(XEON_PHI_KNC)
    result = benchmark(model.t_reciprocal, 100_000, 256, 6)
    assert result > 0
    # Table I invariants the model relies on
    assert XEON_PHI_KNC.stream_bandwidth_gbs > WESTMERE_EP.stream_bandwidth_gbs
    assert XEON_PHI_KNC.memory_gb < WESTMERE_EP.memory_gb


if __name__ == "__main__":
    main()
