"""Measurement machinery for reproducing the paper's figures/tables."""
