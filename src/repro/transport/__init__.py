"""Transport-layer building blocks shared by Homa and the baselines."""
