"""Traffic-generating applications used by the paper's experiments."""
