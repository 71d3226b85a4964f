"""The paper's five workloads (Figure 1) and load computation helpers."""
